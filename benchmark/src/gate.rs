//! The known-answer gate: GVN with an injected §5.2-style bug, validated
//! by the checker and cross-checked against the concrete interpreter, whose
//! answer comes from outside the checker. A unit whose interpreter runs
//! diverge must be rejected; an accept is an unsound verdict.

use keq_core::KeqOptions;
use keq_isel::{validate_gvn_with_context, ValidationContext};
use keq_llvm::ast::{Function, Module};
use keq_llvm::gvn::{run_gvn, GvnBug, GvnOptions};
use keq_llvm::interp::{default_ext_call, run_function, CValue};
use keq_llvm::Layout;
use keq_prng::Prng;
use keq_smt::MemValue;

use crate::corpus;

/// Pool functions in the seeded slice.
pub const SLICE: usize = 24;
/// Only functions up to this many instructions join the slice: the long
/// tail of the generator holds the units whose GVN check runs for seconds.
pub const MAX_SIZE: usize = 40;
/// Concrete input vectors per fired unit.
pub const TRIALS: usize = 16;
/// Interpreter fuel per run.
const FUEL: u64 = 100_000;

/// Two subjects on which each bug observably fires, so the gate is never
/// vacuous whatever slice the seed picks.
const SUBJECTS: &str = "define i32 @sub_pair(i32 %a, i32 %b) {\n %x = sub i32 %a, %b\n \
     %y = sub i32 %b, %a\n %z = mul i32 %x, %y\n ret i32 %z\n}\n\
     define i32 @const_ret(i32 %a) {\n %c = add i32 20, 22\n %s = add i32 %a, %c\n \
     ret i32 %s\n}";

/// Per-bug tallies.
#[derive(Debug, Default)]
pub struct BugTally {
    pub label: &'static str,
    /// Units where the bug changed the pass output.
    pub fired: usize,
    /// Fired units the checker rejected.
    pub rejected: usize,
    /// Fired units with a diverging interpreter run.
    pub diverged: usize,
    /// Diverging units the checker accepted (unsound verdicts).
    pub unsound: Vec<String>,
}

/// Does some input make `pre` and `post` disagree, `pre` being defined?
fn diverges(module: &Module, pre: &Function, post: &Function, rng: &mut Prng) -> bool {
    let layout = Layout::of(module, pre);
    (0..TRIALS).any(|t| {
        let args: Vec<CValue> = (0..pre.params.len())
            .map(|i| {
                let v = if t < TRIALS / 2 {
                    (t * 37 + 3 + i) as u128
                } else {
                    u128::from(rng.next_u64() as u32)
                };
                CValue::new(32, v)
            })
            .collect();
        let (mut mem_l, mut mem_r) = (MemValue::default(), MemValue::default());
        let ext = &default_ext_call;
        let Ok(l) = run_function(module, pre, &layout, &args, &mut mem_l, FUEL, ext) else {
            return false;
        };
        match run_function(module, post, &layout, &args, &mut mem_r, FUEL, ext) {
            Ok(r) => r != l || mem_r != mem_l,
            Err(_) => true,
        }
    })
}

/// Validates the seeded slice under both injected bugs.
pub fn run(seed: u64) -> Vec<BugTally> {
    let pool = corpus::default_pool(corpus::ISEL_FUNCS);
    let mut rng = Prng::seed_from_u64(seed ^ 0x6761_7465);
    let mut candidates: Vec<&Function> = pool
        .functions
        .iter()
        .filter(|f| f.blocks.iter().map(|b| b.instrs.len() + 1).sum::<usize>() <= MAX_SIZE)
        .collect();
    for i in (1..candidates.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        candidates.swap(i, j);
    }
    let subjects = keq_llvm::parse_module(SUBJECTS).expect("gate subjects parse");
    let mut module = Module {
        globals: pool.globals.clone(),
        functions: candidates.into_iter().take(SLICE).cloned().collect(),
        declarations: pool.declarations.clone(),
    };
    module.functions.extend(subjects.functions);

    let mut tallies = Vec::new();
    for (bug, label) in [
        (GvnBug::CommuteSub, "commuted sub dedup"),
        (GvnBug::OffByOneFold, "off-by-one constant fold"),
    ] {
        let mut tally = BugTally {
            label,
            ..BugTally::default()
        };
        for f in &module.functions {
            let clean = run_gvn(f, GvnOptions::default());
            let bugged = run_gvn(f, GvnOptions { bug });
            if clean.func == bugged.func && clean.eliminated == bugged.eliminated {
                continue;
            }
            tally.fired += 1;
            let mut ctx = ValidationContext::new();
            let (report, out) = validate_gvn_with_context(
                &module,
                f,
                GvnOptions { bug },
                KeqOptions::default(),
                None,
                &mut ctx,
            );
            let accepted = report.verdict.is_validated();
            if !accepted {
                tally.rejected += 1;
            }
            if diverges(&module, f, &out.func, &mut rng) {
                tally.diverged += 1;
                if accepted {
                    tally.unsound.push(f.name.clone());
                }
            }
        }
        tallies.push(tally);
    }
    tallies
}
