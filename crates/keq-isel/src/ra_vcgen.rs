//! Black-box VC generation for the register-allocation pass.
//!
//! Per the paper's §1 description of the ongoing regalloc work, this
//! generator has *no knowledge of the allocation algorithm* — it consumes
//! only the allocator's output artifact ([`crate::regalloc::RaMap`]: the
//! vreg → physical register assignment) plus liveness on the *input*
//! program, and emits synchronization points at every block entry (one per
//! predecessor), function exit, and call sites. Both sides of each point
//! are Virtual x86 — the "input and output languages may be identical"
//! case of the paper's Fig. 5 discussion.
//!
//! Left states sit *before* the PHIs of a block; right states sit at the
//! same block start where the destructed parallel copies have already run
//! in the predecessor — so PHI destinations are related through their
//! predecessor-specific incoming values, mirroring §4.5's per-predecessor
//! points.

use keq_core::sync::{SideSpec, SyncPoint, SyncSet, ValueExpr};
use keq_semantics::{CtrlLoc, LocPattern};
use keq_vx86::ast::{PhysReg, Reg, VxFunction, VxInstr};
use keq_vx86::sem::reg_key;

use crate::regalloc::{
    slot_width, RaMap, RegKey, VxLiveness, POOL, RELOAD_SCRATCH, SCRATCH, SPILL_DEF_SCRATCH,
};

fn flag_havocs() -> Vec<(String, u32)> {
    ["zf", "sf", "cf", "of"].iter().map(|f| (f.to_string(), 0)).collect()
}

/// Havocs for the allocated side: the whole pool, every scratch register
/// (parallel-copy, reload, and spilled-definition), the argument registers,
/// and the flags.
fn right_havocs(pre: &VxFunction) -> Vec<(String, u32)> {
    let mut h = flag_havocs();
    for p in POOL.iter().chain([&SCRATCH, &SPILL_DEF_SCRATCH]).chain(RELOAD_SCRATCH.iter()) {
        h.push((p.name64().to_owned(), 64));
    }
    for i in 0..pre.num_params {
        let key = PhysReg::args()[i].name64().to_owned();
        if !h.iter().any(|(n, _)| *n == key) {
            h.push((key, 64));
        }
    }
    h
}

/// A related register pair: left/right value expressions plus each side's
/// `(register key, width)` for the liveness hints.
type RelatedPair = (ValueExpr, ValueExpr, (String, u32), (String, u32));

/// Relates a pre-RA register to its allocated location: a physical-register
/// slice for colored vregs, a spill-slot read for spilled ones.
fn relate(map: &RaMap, r: Reg) -> Option<RelatedPair> {
    match r {
        Reg::Virt(id, w) => match map.assignment.get(&id) {
            Some(&phys) => Some((
                ValueExpr::Reg(reg_key(r)),
                ValueExpr::RegSlice { name: phys.name64().to_owned(), hi: w - 1, lo: 0 },
                (reg_key(r), w),
                (phys.name64().to_owned(), 64),
            )),
            None => {
                let addr = *map.spills.get(&id)?;
                let sw = slot_width(*map.widths.get(&id)?);
                Some((
                    ValueExpr::Reg(reg_key(r)),
                    ValueExpr::Slot { addr, width: sw },
                    (reg_key(r), w),
                    (format!("slot{addr:#x}"), sw),
                ))
            }
        },
        Reg::Phys(p, w) => Some((
            ValueExpr::RegSlice { name: p.name64().to_owned(), hi: w - 1, lo: 0 },
            ValueExpr::RegSlice { name: p.name64().to_owned(), hi: w - 1, lo: 0 },
            (p.name64().to_owned(), 64),
            (p.name64().to_owned(), 64),
        )),
    }
}

/// The allocated-side location of a phi *destination* at block entry: the
/// destructed parallel copy in the predecessor has already written either
/// the destination's color or its spill slot.
fn dst_location(map: &RaMap, did: u32, dw: u32) -> ValueExpr {
    match map.assignment.get(&did) {
        Some(color) => ValueExpr::RegSlice { name: color.name64().to_owned(), hi: dw - 1, lo: 0 },
        None => ValueExpr::Slot { addr: map.spills[&did], width: slot_width(map.widths[&did]) },
    }
}

/// Generates the sync set for `pre` (SSA Virtual x86) against its allocated
/// form, given the allocator's assignment artifact.
pub fn regalloc_sync_points(pre: &VxFunction, post: &VxFunction, map: &RaMap) -> SyncSet {
    let lv = VxLiveness::compute(pre);
    let mut set = SyncSet::new();
    // The spill frame is private to the allocated side: its writes are
    // masked out of memory-equality obligations, and spilled values are
    // related explicitly via `ValueExpr::Slot` equalities instead.
    if let Some((base, size)) = map.spill_frame() {
        set.right_private.push(keq_semantics::MemRegion { name: "spill".into(), base, size });
    }

    // Entry: arguments arrive identically on both sides.
    let mut left_havoc = flag_havocs();
    let mut equalities = Vec::new();
    for i in 0..pre.num_params {
        let key = PhysReg::args()[i].name64().to_owned();
        left_havoc.push((key.clone(), 64));
        equalities.push((ValueExpr::Reg(key.clone()), ValueExpr::Reg(key)));
    }
    set.push(SyncPoint {
        name: "p0".into(),
        left: SideSpec::startable(
            LocPattern::Entry,
            CtrlLoc::entry(pre.entry().name.clone()),
            left_havoc,
        ),
        right: SideSpec::startable(
            LocPattern::Entry,
            CtrlLoc::entry(post.entry().name.clone()),
            right_havocs(pre),
        ),
        equalities,
        mem_equal: true,
    });

    set.push(SyncPoint {
        name: "p_exit".into(),
        left: SideSpec::arrival(LocPattern::Exit),
        right: SideSpec::arrival(LocPattern::Exit),
        equalities: if pre.ret_width.is_some() {
            vec![(ValueExpr::Ret, ValueExpr::Ret)]
        } else {
            vec![]
        },
        mem_equal: true,
    });

    // One point per (block, predecessor) — a maximal cut; cuts need not be
    // minimal (paper §7).
    let preds = predecessors(pre);
    for b in &pre.blocks {
        let empty = Vec::new();
        for pred in preds.get(&b.name).unwrap_or(&empty) {
            let mut left_havoc = flag_havocs();
            let mut equalities: Vec<(ValueExpr, ValueExpr)> = Vec::new();
            // Deduplicate constraints by the (left, right) pair: one left
            // value may pin several colors (e.g. one incoming feeding two
            // phis), and all of those constraints are needed.
            let mut seen_pairs = std::collections::BTreeSet::new();
            let mut add = |r: Reg,
                           left_havoc: &mut Vec<(String, u32)>,
                           equalities: &mut Vec<(ValueExpr, ValueExpr)>| {
                if let Some((le, re, lh, _rh)) = relate(map, r) {
                    if seen_pairs.insert(format!("{le:?}={re:?}")) {
                        if !left_havoc.iter().any(|(n, _)| *n == lh.0) {
                            left_havoc.push(lh);
                        }
                        equalities.push((le, re));
                    }
                }
            };
            // Live-in values (excluding phi destinations, whose value at
            // this edge is the incoming below).
            let phidefs: std::collections::BTreeSet<RegKey> = b
                .instrs
                .iter()
                .filter_map(|i| match i {
                    VxInstr::Phi { dst, .. } => Some(RegKey::Virt(virt_id(*dst)?)),
                    _ => None,
                })
                .collect();
            if let Some(live) = lv.live_in.get(&b.name) {
                for &k in live {
                    if phidefs.contains(&k) {
                        continue;
                    }
                    if let RegKey::Virt(id) = k {
                        let w = map.widths.get(&id).copied().unwrap_or(64);
                        add(Reg::Virt(id, w), &mut left_havoc, &mut equalities);
                    }
                }
            }
            // Phi incomings along this edge: the left incoming register
            // equals the right value already sitting in the destination's
            // color.
            for i in &b.instrs {
                if let VxInstr::Phi { dst, incomings } = i {
                    for (src, p) in incomings {
                        if p == pred {
                            if let (Reg::Virt(sid, sw), Reg::Virt(did, dw)) = (*src, *dst) {
                                let key = format!("%vr{sid}_{sw}");
                                let le = ValueExpr::Reg(key.clone());
                                let re = dst_location(map, did, dw);
                                if seen_pairs.insert(format!("{le:?}={re:?}")) {
                                    if !left_havoc.iter().any(|(n, _)| *n == key) {
                                        left_havoc.push((key, sw));
                                    }
                                    equalities.push((le, re));
                                }
                            }
                        }
                    }
                }
            }
            set.push(SyncPoint {
                name: format!("bb:{}<-{}", b.name, pred),
                left: SideSpec::startable(
                    LocPattern::BlockEntry { block: b.name.clone(), prev: Some(pred.clone()) },
                    CtrlLoc::block_start(b.name.clone(), Some(pred.clone())),
                    left_havoc,
                ),
                right: SideSpec::startable(
                    LocPattern::BlockEntry { block: b.name.clone(), prev: None },
                    CtrlLoc::block_start(b.name.clone(), None),
                    right_havocs(pre),
                ),
                equalities,
                mem_equal: true,
            });
        }
    }

    // Call sites: relate arguments and (after) the return value plus
    // live-across values.
    let pre_calls = call_sites(pre);
    let post_calls = call_sites(post);
    for ((callee, nth, pre_loc), (_, _, post_loc)) in pre_calls.iter().zip(&post_calls) {
        let mut before_eq: Vec<(ValueExpr, ValueExpr)> = Vec::new();
        let num_args = {
            let b = pre.block(&pre_loc.0).expect("block exists");
            match &b.instrs[pre_loc.1] {
                VxInstr::Call { arg_widths, .. } => arg_widths.len(),
                _ => 0,
            }
        };
        for i in 0..num_args {
            before_eq.push((ValueExpr::Arg(i), ValueExpr::Arg(i)));
        }
        // Live-across vregs: live after the call in the pre function.
        let live_after = live_after_call(pre, &lv, &pre_loc.0, pre_loc.1);
        let mut after_left_havoc: Vec<(String, u32)> = flag_havocs();
        let mut after_eq: Vec<(ValueExpr, ValueExpr)> = Vec::new();
        for k in &live_after {
            if let RegKey::Virt(id) = k {
                let w = map.widths.get(id).copied().unwrap_or(64);
                if let Some((le, re, lh, _)) = relate(map, Reg::Virt(*id, w)) {
                    before_eq.push((le.clone(), re.clone()));
                    after_left_havoc.push(lh);
                    after_eq.push((le, re));
                }
            }
        }
        after_left_havoc.push(("rax".into(), 64));
        after_eq.push((ValueExpr::Reg("rax".into()), ValueExpr::Reg("rax".into())));
        set.push(SyncPoint {
            name: format!("call:{callee}#{nth}"),
            left: SideSpec::arrival(LocPattern::BeforeCall { callee: callee.clone(), nth: *nth }),
            right: SideSpec::arrival(LocPattern::BeforeCall { callee: callee.clone(), nth: *nth }),
            equalities: before_eq,
            mem_equal: true,
        });
        set.push(SyncPoint {
            name: format!("ret:{callee}#{nth}"),
            left: SideSpec::startable(
                LocPattern::AfterCall { callee: callee.clone(), nth: *nth },
                CtrlLoc { block: pre_loc.0.clone(), index: pre_loc.1 + 1, prev: None },
                after_left_havoc,
            ),
            right: SideSpec::startable(
                LocPattern::AfterCall { callee: callee.clone(), nth: *nth },
                CtrlLoc { block: post_loc.0.clone(), index: post_loc.1 + 1, prev: None },
                right_havocs(pre),
            ),
            equalities: after_eq,
            mem_equal: true,
        });
    }
    set
}

fn virt_id(r: Reg) -> Option<u32> {
    match r {
        Reg::Virt(id, _) => Some(id),
        Reg::Phys(..) => None,
    }
}

fn predecessors(f: &VxFunction) -> std::collections::BTreeMap<String, Vec<String>> {
    let mut preds: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    for b in &f.blocks {
        for s in b.term.successors() {
            preds.entry(s.to_owned()).or_default().push(b.name.clone());
        }
    }
    preds
}

/// `(callee, ordinal, (block, index))` for every call, in source order.
fn call_sites(f: &VxFunction) -> Vec<(String, usize, (String, usize))> {
    let mut per_callee: std::collections::BTreeMap<String, usize> = Default::default();
    let mut out = Vec::new();
    for b in &f.blocks {
        for (i, instr) in b.instrs.iter().enumerate() {
            if let VxInstr::Call { callee, .. } = instr {
                let n = per_callee.entry(callee.clone()).or_insert(0);
                out.push((callee.clone(), *n, (b.name.clone(), i)));
                *n += 1;
            }
        }
    }
    out
}

fn live_after_call(
    f: &VxFunction,
    lv: &VxLiveness,
    block: &str,
    idx: usize,
) -> std::collections::BTreeSet<RegKey> {
    let b = f.block(block).expect("block exists");
    let mut live = lv.live_out.get(block).cloned().unwrap_or_default();
    for i in (idx + 1..b.instrs.len()).rev() {
        let instr = &b.instrs[i];
        let (uses, defs) = crate::regalloc::uses_defs(instr);
        for d in defs {
            live.remove(&d);
        }
        live.extend(uses);
    }
    live
}
