//! Live-variables analysis on LLVM IR functions.
//!
//! The paper's VC generator relates "corresponding live registers in the
//! input and output" at loop entries and around call sites (§4.5), computed
//! "using a Live Variables static analysis". This is that analysis: a
//! standard backward dataflow fixpoint with SSA-aware phi handling (a phi's
//! incoming value is a use at the end of the corresponding predecessor; the
//! phi destination is a definition of its own block).

use std::collections::{BTreeMap, BTreeSet};

use keq_llvm::ast::{Function, Instr, Operand, Terminator};

use crate::isel::{for_each_operand, visit_operand_locals};

/// Per-block live sets.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Live at block entry (excluding phi destinations, excluding phi
    /// incoming values — those belong to predecessors).
    pub live_in: BTreeMap<String, BTreeSet<String>>,
    /// Live at block exit (including successors' phi uses from this block).
    pub live_out: BTreeMap<String, BTreeSet<String>>,
}

fn block_defs(b: &keq_llvm::ast::Block) -> BTreeSet<String> {
    b.instrs.iter().filter_map(|i| i.dst().map(str::to_owned)).collect()
}

/// Upward-exposed uses: locals read before any definition in this block.
/// Phi destinations count as defined at the block top; phi incoming values
/// are uses of the *predecessors* and are excluded here.
fn non_phi_uses(b: &keq_llvm::ast::Block) -> BTreeSet<String> {
    let mut uses = BTreeSet::new();
    let mut defined = BTreeSet::new();
    for i in &b.instrs {
        if let Instr::Phi { dst, .. } = i {
            defined.insert(dst.clone());
            continue;
        }
        for_each_operand(i, &mut |op| {
            visit_operand_locals(op, &mut |l| {
                if !defined.contains(l) {
                    uses.insert(l.to_owned());
                }
            });
        });
        if let Some(d) = i.dst() {
            defined.insert(d.to_owned());
        }
    }
    let mut term = BTreeSet::new();
    terminator_uses(&b.term, &mut term);
    uses.extend(term.difference(&defined).cloned());
    uses
}

fn terminator_uses(t: &Terminator, uses: &mut BTreeSet<String>) {
    match t {
        Terminator::CondBr { cond, .. } => {
            visit_operand_locals(cond, &mut |l| {
                uses.insert(l.to_owned());
            });
        }
        Terminator::Ret { val: Some((_, v)) } => {
            visit_operand_locals(v, &mut |l| {
                uses.insert(l.to_owned());
            });
        }
        _ => {}
    }
}

/// Phi uses flowing along the edge `pred → block`.
pub fn phi_uses_from(func: &Function, block: &str, pred: &str) -> BTreeSet<String> {
    let mut uses = BTreeSet::new();
    if let Some(b) = func.block(block) {
        for i in &b.instrs {
            if let Instr::Phi { incomings, .. } = i {
                for (op, p) in incomings {
                    if p == pred {
                        if let Operand::Local(l) = op {
                            uses.insert(l.clone());
                        }
                    }
                }
            }
        }
    }
    uses
}

/// Predecessors of each block.
pub fn predecessors(func: &Function) -> BTreeMap<String, Vec<String>> {
    let mut preds: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for b in &func.blocks {
        for s in b.term.successors() {
            preds.entry(s.to_owned()).or_default().push(b.name.clone());
        }
    }
    preds
}

impl Liveness {
    /// Runs the fixpoint.
    pub fn compute(func: &Function) -> Liveness {
        let mut live_in: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut live_out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for b in &func.blocks {
            live_in.insert(b.name.clone(), BTreeSet::new());
            live_out.insert(b.name.clone(), BTreeSet::new());
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in func.blocks.iter().rev() {
                let mut out = BTreeSet::new();
                for succ in b.term.successors() {
                    // live-in(succ) minus succ's phi defs, plus this edge's
                    // phi uses.
                    if let Some(sin) = live_in.get(succ) {
                        let sdefs: BTreeSet<String> = func
                            .block(succ)
                            .map(|sb| {
                                sb.instrs
                                    .iter()
                                    .filter_map(|i| match i {
                                        Instr::Phi { dst, .. } => Some(dst.clone()),
                                        _ => None,
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        out.extend(sin.difference(&sdefs).cloned());
                    }
                    out.extend(phi_uses_from(func, succ, &b.name));
                }
                let defs = block_defs(b);
                let uses = non_phi_uses(b);
                let mut inn: BTreeSet<String> = out.difference(&defs).cloned().collect();
                inn.extend(uses);
                // Parameters are never "live-in" conceptually at non-entry
                // blocks unless actually used later — the dataflow handles
                // that naturally; nothing special to do.
                if live_out.get(&b.name) != Some(&out) {
                    live_out.insert(b.name.clone(), out);
                    changed = true;
                }
                if live_in.get(&b.name) != Some(&inn) {
                    live_in.insert(b.name.clone(), inn);
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Locals live immediately *after* instruction `idx` of `block` (used
    /// for the after-call synchronization points).
    pub fn live_after(&self, func: &Function, block: &str, idx: usize) -> BTreeSet<String> {
        let b = func.block(block).expect("block exists");
        let mut live = self.live_out.get(block).cloned().unwrap_or_default();
        let mut uses = BTreeSet::new();
        terminator_uses(&b.term, &mut uses);
        live.extend(uses);
        for i in (idx + 1..b.instrs.len()).rev() {
            let instr = &b.instrs[i];
            if let Some(d) = instr.dst() {
                live.remove(d);
            }
            if !matches!(instr, Instr::Phi { .. }) {
                for_each_operand(instr, &mut |op| {
                    visit_operand_locals(op, &mut |l| {
                        live.insert(l.to_owned());
                    });
                });
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::parser::parse_function;

    #[test]
    fn loop_liveness_of_running_example() {
        let f = parse_function(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let lv = Liveness::compute(&f);
        let cond_in = &lv.live_in["for.cond"];
        // %n and %d are live across the loop; the phi values are defs.
        assert!(cond_in.contains("%n"), "{cond_in:?}");
        assert!(cond_in.contains("%d"), "{cond_in:?}");
        assert!(!cond_in.contains("%s.0"), "phi defs excluded: {cond_in:?}");
        // Entry edge carries %a0 (phi incoming) to for.cond.
        let uses = phi_uses_from(&f, "for.cond", "entry");
        assert!(uses.contains("%a0"), "{uses:?}");
        // for.inc edge carries %add, %add1, %inc.
        let uses = phi_uses_from(&f, "for.cond", "for.inc");
        assert_eq!(uses, ["%add", "%add1", "%inc"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn predecessors_of_running_example() {
        let f = parse_function(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let preds = predecessors(&f);
        assert_eq!(preds["for.cond"], vec!["entry".to_owned(), "for.inc".to_owned()]);
        assert_eq!(preds["for.end"], vec!["for.cond".to_owned()]);
    }

    #[test]
    fn live_after_call() {
        let src = r#"
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %r = call i32 @g(i32 %a)
  %b = add i32 %r, %y
  ret i32 %b
}
"#;
        let f = parse_function(src).expect("parses");
        let lv = Liveness::compute(&f);
        let after = lv.live_after(&f, "entry", 1);
        assert!(after.contains("%r"), "{after:?}");
        assert!(after.contains("%y"), "{after:?}");
        assert!(!after.contains("%a"), "dead after the call: {after:?}");
        assert!(!after.contains("%x"), "{after:?}");
    }

    #[test]
    fn straightline_live_in_is_params_used() {
        let src = "define i32 @f(i32 %x, i32 %y) {\n %a = add i32 %x, %x\n ret i32 %a\n}";
        let f = parse_function(src).expect("parses");
        let lv = Liveness::compute(&f);
        let inn = &lv.live_in["entry"];
        assert!(inn.contains("%x"));
        assert!(!inn.contains("%y"), "unused param not live");
    }
}
