//! Micro-benchmarks (plain timing harness — no external bench framework,
//! so the workspace builds offline):
//!
//! * **§3 ablation** — the positive-form path-condition query
//!   (`φ₁ ∧ Ψ₂`) versus the naive negated query (`φ₁ ∧ ¬φ₂`);
//! * solver scaling on arithmetic identities by bit width;
//! * end-to-end validation latency of the running example.
//!
//! Timing only: the solver's acceptance bars (session reuse,
//! normalization, fingerprint overhead) live in the `keq_bench` driver.

use std::time::{Duration, Instant};

use keq_core::KeqOptions;
use keq_isel::{validate_function, IselOptions, VcOptions};
use keq_llvm::parse_module;
use keq_smt::{Solver, Sort, TermBank, TermId};

/// Times `iters` runs of `f` and prints the mean per-iteration latency.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    // One warm-up run outside the timed window.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = start.elapsed() / iters;
    println!("{name:<44} {:>12}", format_duration(mean));
}

fn format_duration(d: Duration) -> String {
    if d < Duration::from_millis(1) {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    }
}

/// A branchy path-condition pair like the ones ISel validation produces:
/// `φ₁ = (i - n <u 0 … layered comparisons)`, target `φ₂`, sibling `¬φ₂`.
fn path_conditions(bank: &mut TermBank, w: u32) -> (TermId, TermId, TermId) {
    let i = bank.mk_var("i", Sort::BitVec(w));
    let n = bank.mk_var("n", Sort::BitVec(w));
    let d = bank.mk_var("d", Sort::BitVec(w));
    // φ₁: (i + d) <u n  — the LLVM-side branch condition.
    let id = bank.mk_bvadd(i, d);
    let phi1 = bank.mk_bvult(id, n);
    // φ₂: ¬(n <=u i + d) — the equivalent x86-side form (no borrow after
    // the `sub`, complemented). Syntactically different, so the solver has
    // real work; the sibling is the other branch's condition.
    let sibling = bank.mk_bvule(n, id);
    let phi2 = bank.mk_not(sibling);
    (phi1, phi2, sibling)
}

fn bench_positive_form() {
    println!("--- s3_positive_form_ablation ---");
    for w in [16u32, 32, 64] {
        bench(&format!("positive/{w}"), 20, || {
            let mut bank = TermBank::new();
            let (phi1, _phi2, sibling) = path_conditions(&mut bank, w);
            let mut solver = Solver::new();
            assert!(solver.prove_implies_positive(&mut bank, &[phi1], &[sibling]).is_proved());
        });
        bench(&format!("negated/{w}"), 20, || {
            let mut bank = TermBank::new();
            let (phi1, phi2, _sibling) = path_conditions(&mut bank, w);
            let mut solver = Solver::new();
            assert!(solver.prove_implies(&mut bank, &[phi1], phi2).is_proved());
        });
    }
}

fn bench_solver_scaling() {
    println!("--- solver_width_scaling ---");
    for w in [8u32, 16, 32, 64] {
        bench(&format!("add_sub_roundtrip/{w}"), 10, || {
            let mut bank = TermBank::new();
            let x = bank.mk_var("x", Sort::BitVec(w));
            let y = bank.mk_var("y", Sort::BitVec(w));
            let s = bank.mk_bvadd(x, y);
            let d = bank.mk_bvsub(s, y);
            let mut solver = Solver::new();
            assert!(solver.prove_equiv(&mut bank, &[], d, x).is_proved());
        });
    }
}

fn bench_running_example() {
    println!("--- end_to_end ---");
    let m = parse_module(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
    bench("validate_arithm_seq_sum", 10, || {
        let f = m.function("arithm_seq_sum").expect("present");
        let out = validate_function(
            &m,
            f,
            IselOptions::default(),
            VcOptions::default(),
            KeqOptions::default(),
        )
        .expect("supported");
        assert!(out.report.verdict.is_validated());
    });
}

fn main() {
    bench_positive_form();
    bench_solver_scaling();
    bench_running_example();
}
