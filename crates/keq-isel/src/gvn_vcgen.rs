//! Black-box synchronization points for the GVN mid-end pass.
//!
//! Both `Language` parameters are LLVM IR: the left program is the
//! pre-pass function, the right is [`keq_llvm::gvn::run_gvn`]'s output.
//! The pass artifact (eliminated local → replacement operand) is all the
//! generator consumes — the checker, the acceptability relation, and the
//! memory model are exactly the ones the ISel and regalloc instantiations
//! use, which is the language-parametric claim this crate exists to
//! demonstrate.
//!
//! The cut is maximal on loops: one point per (loop header, predecessor)
//! edge, as in the ISel generator, plus function entry/exit and a
//! before/after pair per call site. At every point each *left* live local
//! `x` is related to its representative in the optimized program:
//! `x = y` when GVN forwarded `x` to a surviving leader `y`, or `x = c`
//! when it folded `x` to a constant. Blocks, labels, and call ordinals are
//! preserved by the pass, so the two sides' control locations correspond
//! by name; only instruction *indices* shift (eliminated instructions
//! vanish), which is why call sites carry per-side indices.

use std::collections::BTreeMap;

use keq_core::sync::{SideSpec, SyncPoint, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Instr, Operand};
use keq_llvm::gvn::GvnOutput;
use keq_llvm::types::Type;
use keq_semantics::{CtrlLoc, LocPattern};

use crate::isel::loop_headers;
use crate::liveness::{phi_uses_from, predecessors, Liveness};
use crate::vcgen::local_types;

fn const_expr(c: i128, w: u32) -> ValueExpr {
    let mask = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
    ValueExpr::Const { value: (c as u128) & mask, width: w }
}

/// A call instruction's location in one side of the pair.
struct CallLoc {
    callee: String,
    nth: usize,
    block: String,
    index: usize,
    dst: Option<String>,
    ret_bits: Option<u32>,
    num_args: usize,
}

fn call_locs(func: &Function) -> Vec<CallLoc> {
    let mut ordinals: BTreeMap<String, usize> = BTreeMap::new();
    let mut locs = Vec::new();
    for b in &func.blocks {
        for (idx, i) in b.instrs.iter().enumerate() {
            if let Instr::Call { dst, ret_ty, callee, args } = i {
                let nth = *ordinals.entry(callee.clone()).and_modify(|n| *n += 1).or_insert(0);
                locs.push(CallLoc {
                    callee: callee.clone(),
                    nth,
                    block: b.name.clone(),
                    index: idx,
                    dst: dst.clone(),
                    ret_bits: match ret_ty {
                        Type::Void => None,
                        ty => Some(ty.value_bits()),
                    },
                    num_args: args.len(),
                });
            }
        }
    }
    locs
}

/// Relates one left-side live local to its representative on the right:
/// havocs it on the left, havocs the representative (when it is a local)
/// on the right, and emits the equality.
fn relate_local(
    local: &str,
    types: &BTreeMap<String, u32>,
    out: &GvnOutput,
    left_havoc: &mut Vec<(String, u32)>,
    right_havoc: &mut Vec<(String, u32)>,
    equalities: &mut Vec<(ValueExpr, ValueExpr)>,
) {
    let Some(&w) = types.get(local) else { return };
    if left_havoc.iter().any(|(n, _)| n == local) {
        return;
    }
    left_havoc.push((local.to_owned(), w));
    let rhs = match out.repr(local) {
        Operand::Local(n) => {
            if !right_havoc.iter().any(|(h, _)| *h == n) {
                right_havoc.push((n.clone(), w));
            }
            ValueExpr::Reg(n)
        }
        Operand::Const(c) => const_expr(c, w),
        other => {
            // `run_gvn` only ever forwards to locals and constants.
            debug_assert!(false, "inadmissible representative {other}");
            return;
        }
    };
    equalities.push((ValueExpr::Reg(local.to_owned()), rhs));
}

/// Generates the synchronization points for a GVN instance.
pub fn gvn_sync_points(pre: &Function, out: &GvnOutput) -> SyncSet {
    let lv = Liveness::compute(pre);
    let types = local_types(pre);
    let preds = predecessors(pre);
    let mut set = SyncSet::new();

    // Entry: parameters are never rewritten, so they relate one-to-one.
    let entry_havoc: Vec<(String, u32)> =
        pre.params.iter().map(|(n, ty)| (n.clone(), ty.value_bits())).collect();
    set.push(SyncPoint {
        name: "p0".into(),
        left: SideSpec::startable(
            LocPattern::Entry,
            CtrlLoc::entry(pre.entry().name.clone()),
            entry_havoc.clone(),
        ),
        right: SideSpec::startable(
            LocPattern::Entry,
            CtrlLoc::entry(out.func.entry().name.clone()),
            entry_havoc,
        ),
        equalities: pre
            .params
            .iter()
            .map(|(n, _)| (ValueExpr::Reg(n.clone()), ValueExpr::Reg(n.clone())))
            .collect(),
        mem_equal: true,
    });

    set.push(SyncPoint {
        name: "p_exit".into(),
        left: SideSpec::arrival(LocPattern::Exit),
        right: SideSpec::arrival(LocPattern::Exit),
        equalities: if pre.ret_ty == Type::Void {
            vec![]
        } else {
            vec![(ValueExpr::Ret, ValueExpr::Ret)]
        },
        mem_equal: true,
    });

    // Loop points, one per (header, predecessor) edge. GVN preserves the
    // CFG, so block and predecessor names coincide on both sides.
    let empty = Vec::new();
    for header in loop_headers(pre) {
        for pred in preds.get(&header).unwrap_or(&empty) {
            let mut left_havoc = Vec::new();
            let mut right_havoc = Vec::new();
            let mut equalities = Vec::new();
            if let Some(live) = lv.live_in.get(&header) {
                for l in live {
                    relate_local(
                        l,
                        &types,
                        out,
                        &mut left_havoc,
                        &mut right_havoc,
                        &mut equalities,
                    );
                }
            }
            for l in phi_uses_from(pre, &header, pred) {
                relate_local(&l, &types, out, &mut left_havoc, &mut right_havoc, &mut equalities);
            }
            set.push(SyncPoint {
                name: format!("loop:{header}<-{pred}"),
                left: SideSpec::startable(
                    LocPattern::BlockEntry { block: header.clone(), prev: Some(pred.clone()) },
                    CtrlLoc::block_start(&header, Some(pred.clone())),
                    left_havoc,
                ),
                right: SideSpec::startable(
                    LocPattern::BlockEntry { block: header.clone(), prev: Some(pred.clone()) },
                    CtrlLoc::block_start(&header, Some(pred.clone())),
                    right_havoc,
                ),
                equalities,
                mem_equal: true,
            });
        }
    }

    // Call points. The pass never adds, removes, or reorders calls, so the
    // two sides' per-callee ordinals line up; eliminated instructions do
    // shift in-block indices, hence the per-side resume locations.
    let pre_calls = call_locs(pre);
    let post_calls = call_locs(&out.func);
    debug_assert_eq!(pre_calls.len(), post_calls.len());
    for (lc, rc) in pre_calls.iter().zip(&post_calls) {
        debug_assert_eq!(lc.callee, rc.callee);
        let live: Vec<String> = lv
            .live_after(pre, &lc.block, lc.index)
            .into_iter()
            .filter(|l| lc.dst.as_deref() != Some(l))
            .collect();
        let mut before_eq: Vec<(ValueExpr, ValueExpr)> =
            (0..lc.num_args).map(|i| (ValueExpr::Arg(i), ValueExpr::Arg(i))).collect();
        let mut after_left_havoc = Vec::new();
        let mut after_right_havoc = Vec::new();
        let mut after_eq = Vec::new();
        for l in &live {
            relate_local(
                l,
                &types,
                out,
                &mut after_left_havoc,
                &mut after_right_havoc,
                &mut after_eq,
            );
        }
        before_eq.extend(after_eq.iter().cloned());
        if let (Some(dst), Some(w)) = (&lc.dst, lc.ret_bits) {
            after_left_havoc.push((dst.clone(), w));
            after_right_havoc.push((dst.clone(), w));
            after_eq.push((ValueExpr::Reg(dst.clone()), ValueExpr::Reg(dst.clone())));
        }
        set.push(SyncPoint {
            name: format!("call:{}#{}", lc.callee, lc.nth),
            left: SideSpec::arrival(LocPattern::BeforeCall {
                callee: lc.callee.clone(),
                nth: lc.nth,
            }),
            right: SideSpec::arrival(LocPattern::BeforeCall {
                callee: lc.callee.clone(),
                nth: lc.nth,
            }),
            equalities: before_eq,
            mem_equal: true,
        });
        set.push(SyncPoint {
            name: format!("ret:{}#{}", lc.callee, lc.nth),
            left: SideSpec::startable(
                LocPattern::AfterCall { callee: lc.callee.clone(), nth: lc.nth },
                CtrlLoc { block: lc.block.clone(), index: lc.index + 1, prev: None },
                after_left_havoc,
            ),
            right: SideSpec::startable(
                LocPattern::AfterCall { callee: rc.callee.clone(), nth: rc.nth },
                CtrlLoc { block: rc.block.clone(), index: rc.index + 1, prev: None },
                after_right_havoc,
            ),
            equalities: after_eq,
            mem_equal: true,
        });
    }
    set
}
