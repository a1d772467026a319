//! Randomized tests for the SMT substrate (seeded keq-prng generators keep
//! the cases deterministic and the build offline):
//!
//! * smart-constructor normalization is sound w.r.t. concrete evaluation;
//! * the full solver pipeline (lower → blast → CDCL) agrees with
//!   brute-force enumeration on small-width formulas;
//! * memory lowering preserves evaluation.

use keq_prng::Prng;
use keq_smt::eval::{eval, Assignment, Value};
use keq_smt::{CheckOutcome, Solver, Sort, TermBank, TermId};

/// A small expression AST we can both build as terms and evaluate directly.
#[derive(Debug, Clone)]
enum E {
    Var(u8),
    Const(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Lshr(Box<E>, Box<E>),
    Not(Box<E>),
}

fn random_expr(rng: &mut Prng, depth: u32) -> E {
    if depth == 0 || rng.random_ratio(1, 4) {
        return if rng.random_bool(0.5) {
            E::Var(rng.random_range(0..3u8))
        } else {
            E::Const(rng.random_range(0..=255u8))
        };
    }
    let bin = |rng: &mut Prng, f: fn(Box<E>, Box<E>) -> E| {
        let a = random_expr(rng, depth - 1);
        let b = random_expr(rng, depth - 1);
        f(Box::new(a), Box::new(b))
    };
    match rng.random_range(0..9u32) {
        0 => bin(rng, E::Add),
        1 => bin(rng, E::Sub),
        2 => bin(rng, E::Mul),
        3 => bin(rng, E::And),
        4 => bin(rng, E::Or),
        5 => bin(rng, E::Xor),
        6 => bin(rng, E::Shl),
        7 => bin(rng, E::Lshr),
        _ => E::Not(Box::new(random_expr(rng, depth - 1))),
    }
}

fn build(bank: &mut TermBank, e: &E) -> TermId {
    match e {
        E::Var(i) => bank.mk_var(&format!("v{i}"), Sort::BitVec(8)),
        E::Const(c) => bank.mk_bv(8, u128::from(*c)),
        E::Add(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvadd(a, b)
        }
        E::Sub(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvsub(a, b)
        }
        E::Mul(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvmul(a, b)
        }
        E::And(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvand(a, b)
        }
        E::Or(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvor(a, b)
        }
        E::Xor(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvxor(a, b)
        }
        E::Shl(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvshl(a, b)
        }
        E::Lshr(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvlshr(a, b)
        }
        E::Not(a) => {
            let a = build(bank, a);
            bank.mk_bvnot(a)
        }
    }
}

fn direct(e: &E, env: &[u8; 3]) -> u8 {
    match e {
        E::Var(i) => env[*i as usize],
        E::Const(c) => *c,
        E::Add(a, b) => direct(a, env).wrapping_add(direct(b, env)),
        E::Sub(a, b) => direct(a, env).wrapping_sub(direct(b, env)),
        E::Mul(a, b) => direct(a, env).wrapping_mul(direct(b, env)),
        E::And(a, b) => direct(a, env) & direct(b, env),
        E::Or(a, b) => direct(a, env) | direct(b, env),
        E::Xor(a, b) => direct(a, env) ^ direct(b, env),
        E::Shl(a, b) => {
            let k = direct(b, env);
            if k >= 8 {
                0
            } else {
                direct(a, env) << k
            }
        }
        E::Lshr(a, b) => {
            let k = direct(b, env);
            if k >= 8 {
                0
            } else {
                direct(a, env) >> k
            }
        }
        E::Not(a) => !direct(a, env),
    }
}

/// Constructor normalization never changes the value of a term.
#[test]
fn constructors_sound_vs_direct_eval() {
    let mut rng = Prng::seed_from_u64(0x5157_0001);
    for _ in 0..128 {
        let e = random_expr(&mut rng, 4);
        let env: [u8; 3] =
            [rng.random_range(0..=255u8), rng.random_range(0..=255u8), rng.random_range(0..=255u8)];
        let mut bank = TermBank::new();
        let t = build(&mut bank, &e);
        let mut asg = Assignment::new();
        for (i, v) in env.iter().enumerate() {
            asg.set_named(
                &mut bank,
                &format!("v{i}"),
                Sort::BitVec(8),
                Value::bv(8, u128::from(*v)),
            );
        }
        assert_eq!(
            eval(&bank, t, &asg),
            Value::bv(8, u128::from(direct(&e, &env))),
            "normalization changed the value of {e:?} under {env:?}"
        );
    }
}

/// The solver's SAT/UNSAT verdicts on `e1 == e2` agree with brute-force
/// enumeration over all 2^6 assignments of two 3-bit variables.
#[test]
fn solver_agrees_with_bruteforce() {
    let mut rng = Prng::seed_from_u64(0x5157_0002);
    for _ in 0..128 {
        let e1 = random_expr(&mut rng, 3);
        let e2 = random_expr(&mut rng, 3);
        // Restrict vars to v0, v1 at 3 bits via masking, so brute force is
        // trivial: build over 8-bit exprs, then compare under constraints
        // v0 < 8 ∧ v1 < 8 ∧ v2 = 0.
        let mut bank = TermBank::new();
        let t1 = build(&mut bank, &e1);
        let t2 = build(&mut bank, &e2);
        let goal = bank.mk_eq(t1, t2);
        let neg = bank.mk_not(goal);
        let v0 = bank.mk_var("v0", Sort::BitVec(8));
        let v1 = bank.mk_var("v1", Sort::BitVec(8));
        let v2 = bank.mk_var("v2", Sort::BitVec(8));
        let eight = bank.mk_bv(8, 8);
        let zero = bank.mk_bv(8, 0);
        let c0 = bank.mk_bvult(v0, eight);
        let c1 = bank.mk_bvult(v1, eight);
        let c2 = bank.mk_eq(v2, zero);
        let outcome = {
            let mut solver = Solver::new();
            solver.check_sat(&mut bank, &[neg, c0, c1, c2])
        };
        // Brute force.
        let mut counterexample = false;
        for a in 0u8..8 {
            for b in 0u8..8 {
                let env = [a, b, 0];
                if direct(&e1, &env) != direct(&e2, &env) {
                    counterexample = true;
                }
            }
        }
        match outcome {
            CheckOutcome::Sat(_) => assert!(counterexample, "solver found spurious model"),
            CheckOutcome::Unsat => assert!(!counterexample, "solver missed a countermodel"),
            CheckOutcome::Budget(_) => {} // cannot happen at these sizes, but allowed
        }
    }
}

/// Writing then reading memory at symbolic offsets round-trips under the
/// full pipeline.
#[test]
fn memory_roundtrip_proved() {
    let mut rng = Prng::seed_from_u64(0x5157_0003);
    for _ in 0..64 {
        let addr: u32 = rng.random_range(0..=u32::MAX);
        let width_pow: u32 = rng.random_range(0..3u32);
        let nbytes = 1u32 << width_pow;
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let a = bank.mk_bv(64, u128::from(addr));
        let v = bank.mk_var("v", Sort::BitVec(nbytes * 8));
        let m2 = keq_semantics::write_bytes(&mut bank, mem, a, v);
        let r = keq_semantics::read_bytes(&mut bank, m2, a, nbytes);
        let mut solver = Solver::new();
        assert!(solver.prove_equiv(&mut bank, &[], r, v).is_proved());
    }
}
