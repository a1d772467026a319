//! The synchronization-point generator (paper §4.5).
//!
//! From the compiler hints (register correspondence, block map, loop
//! headers, call sites) and the liveness analysis, produce the `SyncSet`
//! given to KEQ:
//!
//! * **function entry and exit** — equalities from the calling convention;
//! * **loop entries, one per predecessor** — equalities between
//!   corresponding live registers plus the phi-incoming values (constants
//!   relate to the registers ISel materialized them in, the paper's
//!   `1 = %vr9_32`);
//! * **call sites** — an arrival point before each call relating arguments
//!   and live-across registers, and a start point after it relating the
//!   return value;
//! * **memory** — every point carries the whole-memory equality constraint.

use std::collections::BTreeMap;

use keq_core::sync::{SideSpec, SyncPoint, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Instr, Operand};
use keq_llvm::types::Type;
use keq_semantics::{CtrlLoc, LocPattern};
use keq_vx86::sem::reg_key;

use crate::isel::{Hints, IselOutput};
use crate::liveness::{phi_uses_from, predecessors, Liveness};

/// VC-generation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcOptions {
    /// Emulates the paper's "inadequate synchronization points" failure
    /// class: the liveness information used for loop points silently drops
    /// one register pair, so a needed equality is missing downstream.
    pub imprecise_liveness: bool,
}

/// The four x86 condition flags, havocked (as booleans) at every start
/// point on the right side.
fn flag_havocs() -> Vec<(String, u32)> {
    ["zf", "sf", "cf", "of"].iter().map(|f| (f.to_string(), 0)).collect()
}

/// Value widths (in LLVM bits) of every local in the function.
pub(crate) fn local_types(func: &Function) -> BTreeMap<String, u32> {
    let mut m = BTreeMap::new();
    for (p, ty) in &func.params {
        m.insert(p.clone(), ty.value_bits());
    }
    for b in &func.blocks {
        for i in &b.instrs {
            if let Some(d) = i.dst() {
                let w = match i {
                    Instr::Bin { ty, .. } | Instr::Phi { ty, .. } | Instr::Load { ty, .. } => {
                        ty.value_bits()
                    }
                    Instr::Icmp { .. } => 1,
                    Instr::Alloca { .. } | Instr::Gep { .. } => 64,
                    Instr::Cast { to_ty, .. } => to_ty.value_bits(),
                    Instr::Call { ret_ty, .. } => match ret_ty {
                        Type::Void => continue,
                        ty => ty.value_bits(),
                    },
                    Instr::Store { .. } => continue,
                };
                m.insert(d.to_owned(), w);
            }
        }
    }
    m
}

/// Generates the synchronization points for a translation instance.
pub fn generate_sync_points(func: &Function, out: &IselOutput, opts: VcOptions) -> SyncSet {
    let hints = &out.hints;
    let lv = Liveness::compute(func);
    let types = local_types(func);
    let preds = predecessors(func);
    let mut set = SyncSet::new();

    set.push(entry_point(func, hints));
    set.push(exit_point(hints));

    for header in &hints.loop_headers {
        let empty = Vec::new();
        for pred in preds.get(header).unwrap_or(&empty) {
            set.push(loop_point(func, hints, &lv, &types, header, pred, opts));
        }
    }

    for cs in &hints.call_sites {
        let (before, after) = call_points(func, hints, &lv, &types, cs, opts);
        set.push(before);
        set.push(after);
    }
    set
}

fn entry_point(func: &Function, hints: &Hints) -> SyncPoint {
    let mut left_havoc = Vec::new();
    let mut right_havoc = flag_havocs();
    let mut equalities = Vec::new();
    for ((name, ty), (hname, w, phys)) in func.params.iter().zip(&hints.params) {
        debug_assert_eq!(name, hname);
        left_havoc.push((name.clone(), ty.value_bits()));
        let key = phys.name64().to_owned();
        if !right_havoc.iter().any(|(n, _)| *n == key) {
            right_havoc.push((key.clone(), 64));
        }
        equalities.push((
            ValueExpr::Reg(name.clone()),
            ValueExpr::RegSlice { name: key, hi: w - 1, lo: 0 },
        ));
    }
    SyncPoint {
        name: "p0".into(),
        left: SideSpec::startable(
            LocPattern::Entry,
            CtrlLoc::entry(func.entry().name.clone()),
            left_havoc,
        ),
        right: SideSpec::startable(LocPattern::Entry, CtrlLoc::entry("LBB0"), right_havoc),
        equalities,
        mem_equal: true,
    }
}

fn exit_point(hints: &Hints) -> SyncPoint {
    SyncPoint {
        name: "p_exit".into(),
        left: SideSpec::arrival(LocPattern::Exit),
        right: SideSpec::arrival(LocPattern::Exit),
        equalities: if hints.ret_width.is_some() {
            vec![(ValueExpr::Ret, ValueExpr::Ret)]
        } else {
            vec![]
        },
        mem_equal: true,
    }
}

#[allow(clippy::too_many_arguments)]
fn loop_point(
    func: &Function,
    hints: &Hints,
    lv: &Liveness,
    types: &BTreeMap<String, u32>,
    header: &str,
    pred: &str,
    opts: VcOptions,
) -> SyncPoint {
    let vx_header = hints.block_map[header].clone();
    let vx_pred = hints.block_map[pred].clone();
    let mut left_havoc: Vec<(String, u32)> = Vec::new();
    let mut right_havoc = flag_havocs();
    let mut equalities = Vec::new();

    let relate = |local: &str,
                  left_havoc: &mut Vec<(String, u32)>,
                  right_havoc: &mut Vec<(String, u32)>,
                  equalities: &mut Vec<(ValueExpr, ValueExpr)>| {
        let Some(&w) = types.get(local) else { return };
        let Some(&vx) = hints.reg_map.get(local) else { return };
        if left_havoc.iter().any(|(n, _)| n == local) {
            return;
        }
        left_havoc.push((local.to_owned(), w));
        right_havoc.push((reg_key(vx), vx.width()));
        equalities.push((ValueExpr::Reg(local.to_owned()), ValueExpr::Reg(reg_key(vx))));
    };

    // Ordinary live-in registers.
    if let Some(live) = lv.live_in.get(header) {
        for l in live {
            relate(l, &mut left_havoc, &mut right_havoc, &mut equalities);
        }
    }
    // Phi-incoming values along this edge.
    for l in phi_uses_from(func, header, pred) {
        relate(&l, &mut left_havoc, &mut right_havoc, &mut equalities);
    }
    // Constant incomings: pin the register ISel materialized them in.
    if let Some(b) = func.block(header) {
        for i in &b.instrs {
            if let Instr::Phi { dst, ty, incomings } = i {
                for (op, p) in incomings {
                    if p == pred {
                        if let Operand::Const(c) = op {
                            if let Some((cv, reg)) =
                                hints.phi_const_regs.get(&(dst.clone(), p.clone()))
                            {
                                debug_assert_eq!(cv, c);
                                right_havoc.push((reg_key(*reg), reg.width()));
                                equalities.push((
                                    ValueExpr::Const { value: *c as u128, width: ty.value_bits() },
                                    ValueExpr::Reg(reg_key(*reg)),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    if opts.imprecise_liveness {
        // Simulate a liveness bug: silently forget the last relation.
        equalities.pop();
    }
    SyncPoint {
        name: format!("loop:{header}<-{pred}"),
        left: SideSpec::startable(
            LocPattern::BlockEntry { block: header.to_owned(), prev: Some(pred.to_owned()) },
            CtrlLoc::block_start(header, Some(pred.to_owned())),
            left_havoc,
        ),
        right: SideSpec::startable(
            LocPattern::BlockEntry { block: vx_header.clone(), prev: Some(vx_pred.clone()) },
            CtrlLoc::block_start(vx_header, Some(vx_pred)),
            right_havoc,
        ),
        equalities,
        mem_equal: true,
    }
}

fn call_points(
    func: &Function,
    hints: &Hints,
    lv: &Liveness,
    types: &BTreeMap<String, u32>,
    cs: &crate::isel::CallSite,
    opts: VcOptions,
) -> (SyncPoint, SyncPoint) {
    // Live-across locals (excluding the call result, which is born at the
    // return).
    let mut live: Vec<String> = lv
        .live_after(func, &cs.llvm_loc.0, cs.llvm_loc.1)
        .into_iter()
        .filter(|l| cs.ret.as_ref().map(|(r, _)| r) != Some(l))
        .collect();
    if opts.imprecise_liveness {
        live.pop();
    }
    let mut before_eq: Vec<(ValueExpr, ValueExpr)> =
        (0..cs.num_args).map(|i| (ValueExpr::Arg(i), ValueExpr::Arg(i))).collect();
    let mut after_left_havoc: Vec<(String, u32)> = Vec::new();
    let mut after_right_havoc = flag_havocs();
    let mut after_eq: Vec<(ValueExpr, ValueExpr)> = Vec::new();
    for l in &live {
        let Some(&w) = types.get(l) else { continue };
        let Some(&vx) = hints.reg_map.get(l) else { continue };
        before_eq.push((ValueExpr::Reg(l.clone()), ValueExpr::Reg(reg_key(vx))));
        after_left_havoc.push((l.clone(), w));
        after_right_havoc.push((reg_key(vx), vx.width()));
        after_eq.push((ValueExpr::Reg(l.clone()), ValueExpr::Reg(reg_key(vx))));
    }
    if let Some((r, w)) = &cs.ret {
        let rw = types.get(r).copied().unwrap_or(*w);
        after_left_havoc.push((r.clone(), rw));
        after_right_havoc.push(("rax".into(), 64));
        after_eq.push((
            ValueExpr::Reg(r.clone()),
            ValueExpr::RegSlice { name: "rax".into(), hi: w - 1, lo: 0 },
        ));
    }
    let before = SyncPoint {
        name: format!("call:{}#{}", cs.callee, cs.nth),
        left: SideSpec::arrival(LocPattern::BeforeCall { callee: cs.callee.clone(), nth: cs.nth }),
        right: SideSpec::arrival(LocPattern::BeforeCall { callee: cs.callee.clone(), nth: cs.nth }),
        equalities: before_eq,
        mem_equal: true,
    };
    let after = SyncPoint {
        name: format!("ret:{}#{}", cs.callee, cs.nth),
        left: SideSpec::startable(
            LocPattern::AfterCall { callee: cs.callee.clone(), nth: cs.nth },
            CtrlLoc { block: cs.llvm_loc.0.clone(), index: cs.llvm_loc.1 + 1, prev: None },
            after_left_havoc,
        ),
        right: SideSpec::startable(
            LocPattern::AfterCall { callee: cs.callee.clone(), nth: cs.nth },
            CtrlLoc { block: cs.vx_loc.0.clone(), index: cs.vx_loc.1 + 1, prev: None },
            after_right_havoc,
        ),
        equalities: after_eq,
        mem_equal: true,
    };
    (before, after)
}

/// Renders the Fig. 3-style table of a sync set (for examples and the
/// `fig3_sync_points` bench).
pub fn render_sync_table(set: &SyncSet) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{:<18} {:<22} {:<22} Equality Constraints", "Sync Point", "Left", "Right");
    for p in set.iter() {
        let eqs: Vec<String> = p
            .equalities
            .iter()
            .map(|(a, b)| format!("{} = {}", render_expr(a), render_expr(b)))
            .collect();
        let _ = writeln!(
            s,
            "{:<18} {:<22} {:<22} {}",
            p.name,
            p.left.pattern.to_string(),
            p.right.pattern.to_string(),
            eqs.join(", ")
        );
    }
    s
}

fn render_expr(e: &ValueExpr) -> String {
    match e {
        ValueExpr::Reg(r) => r.clone(),
        ValueExpr::RegSlice { name, hi, lo } => {
            if *lo == 0 && *hi == 31 {
                // Render the conventional 32-bit view name.
                match keq_vx86::ast::PhysReg::parse(name) {
                    Some((p, _)) => p.view_name(32),
                    None => format!("{name}[{hi}:{lo}]"),
                }
            } else {
                format!("{name}[{hi}:{lo}]")
            }
        }
        ValueExpr::Const { value, .. } => format!("{value}"),
        ValueExpr::Ret => "<ret>".into(),
        ValueExpr::Arg(i) => format!("<arg{i}>"),
        ValueExpr::Slot { addr, width } => format!("[{addr:#x}]:{width}"),
    }
}
