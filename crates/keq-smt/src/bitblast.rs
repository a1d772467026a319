//! Bit-blasting: lowering bitvector terms to CNF over a [`SatSolver`].
//!
//! Preconditions: the input term DAG contains no memory-sorted subterms
//! (array elimination, [`crate::lower`], runs first) and no signed
//! division/remainder (lowered to unsigned forms first). Every other
//! operator is translated structurally: ripple-carry adders, shift-add
//! multipliers, restoring dividers, barrel shifters, and comparison chains.
//!
//! Terms are processed in iterative post-order so deeply nested formulas
//! (long store chains, big-block straight-line code) cannot overflow the
//! stack.

use std::collections::HashMap;

use crate::sat::{Lit, SatSolver};
use crate::term::{Op, TermBank, TermId, VarId};

/// Persistent bit-blasting state: per-`TermId` CNF memo plus the variable
/// encoding tables, decoupled from the [`BitBlaster`] that fills it.
///
/// A cache is tied to one ([`TermBank`], [`SatSolver`]) pair for its whole
/// life — the memoized literals name variables of that solver and the keys
/// are ids of that bank. Sessions keep one `BlastCache` alive across
/// queries so shared subterms are blasted once; the scratch path builds a
/// fresh one per query.
#[derive(Debug, Default)]
pub struct BlastCache {
    bool_cache: HashMap<TermId, Lit>,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    var_bits: HashMap<VarId, Vec<Lit>>,
    bool_vars: HashMap<VarId, Lit>,
    lit_true: Option<Lit>,
    terms_blasted: u64,
    terms_reused: u64,
}

impl BlastCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bit literals allocated for each bitvector variable (LSB first).
    #[must_use]
    pub fn var_bits(&self) -> &HashMap<VarId, Vec<Lit>> {
        &self.var_bits
    }

    /// Literal allocated for each boolean variable.
    #[must_use]
    pub fn bool_vars(&self) -> &HashMap<VarId, Lit> {
        &self.bool_vars
    }

    /// Number of term nodes translated to CNF via this cache (each node
    /// counted once at translation time).
    #[must_use]
    pub fn terms_blasted(&self) -> u64 {
        self.terms_blasted
    }

    /// Number of times a requested node was already memoized (shared
    /// subterm hits, within and across queries).
    #[must_use]
    pub fn terms_reused(&self) -> u64 {
        self.terms_reused
    }
}

/// Incremental bit-blaster over a shared SAT solver.
///
/// The blaster itself is a transient view: it borrows the bank, the solver
/// and a [`BlastCache`] and can be reconstructed at will — all state lives
/// in the cache and the solver.
#[derive(Debug)]
pub struct BitBlaster<'a> {
    bank: &'a TermBank,
    sat: &'a mut SatSolver,
    cache: &'a mut BlastCache,
}

impl<'a> BitBlaster<'a> {
    /// Creates a blaster over `bank`, emitting clauses into `sat` and
    /// memoizing into `cache`.
    pub fn new(bank: &'a TermBank, sat: &'a mut SatSolver, cache: &'a mut BlastCache) -> Self {
        if cache.lit_true.is_none() {
            let v = sat.new_var();
            let lit_true = Lit::pos(v);
            sat.add_clause(&[lit_true]);
            cache.lit_true = Some(lit_true);
        }
        BitBlaster { bank, sat, cache }
    }

    /// The always-true literal.
    pub fn lit_true(&self) -> Lit {
        self.cache.lit_true.expect("allocated in BitBlaster::new")
    }

    /// The always-false literal.
    pub fn lit_false(&self) -> Lit {
        self.lit_true().negate()
    }

    /// Bit literals allocated for each bitvector variable (LSB first).
    pub fn var_bits(&self) -> &HashMap<VarId, Vec<Lit>> {
        &self.cache.var_bits
    }

    /// Literal allocated for each boolean variable.
    pub fn bool_vars(&self) -> &HashMap<VarId, Lit> {
        &self.cache.bool_vars
    }

    /// Asserts that the boolean term `t` holds.
    pub fn assert_term(&mut self, t: TermId) {
        let l = self.lit(t);
        self.sat.add_clause(&[l]);
    }

    /// Returns the CNF literal equivalent to the boolean term `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean or mentions memory operations.
    pub fn lit(&mut self, t: TermId) -> Lit {
        self.process(t);
        self.cache.bool_cache[&t]
    }

    /// Returns the bit literals (LSB first) of the bitvector term `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a bitvector or mentions memory operations.
    pub fn bits(&mut self, t: TermId) -> Vec<Lit> {
        self.process(t);
        self.cache.bv_cache[&t].clone()
    }

    /// Processes `t` and all its subterms in post-order.
    fn process(&mut self, root: TermId) {
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.cache.bool_cache.contains_key(&t) || self.cache.bv_cache.contains_key(&t) {
                if !expanded {
                    self.cache.terms_reused += 1;
                }
                continue;
            }
            if expanded {
                self.cache.terms_blasted += 1;
                self.blast_node(t);
            } else {
                stack.push((t, true));
                for &a in &self.bank.node(t).args {
                    stack.push((a, false));
                }
            }
        }
    }

    fn cached_lit(&self, t: TermId) -> Lit {
        self.cache.bool_cache[&t]
    }

    fn cached_bits(&self, t: TermId) -> &[Lit] {
        &self.cache.bv_cache[&t]
    }

    fn blast_node(&mut self, t: TermId) {
        let node = self.bank.node(t).clone();
        match node.op {
            Op::BoolConst(b) => {
                let l = if b { self.lit_true() } else { self.lit_false() };
                self.cache.bool_cache.insert(t, l);
            }
            Op::BvConst { width, value } => {
                let bits: Vec<Lit> = (0..width)
                    .map(|i| if (value >> i) & 1 == 1 { self.lit_true() } else { self.lit_false() })
                    .collect();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::Var(v) => match node.sort {
                crate::sort::Sort::Bool => {
                    let l = Lit::pos(self.sat.new_var());
                    self.cache.bool_vars.insert(v, l);
                    self.cache.bool_cache.insert(t, l);
                }
                crate::sort::Sort::BitVec(w) => {
                    let bits: Vec<Lit> = (0..w).map(|_| Lit::pos(self.sat.new_var())).collect();
                    self.cache.var_bits.insert(v, bits.clone());
                    self.cache.bv_cache.insert(t, bits);
                }
                crate::sort::Sort::Memory => {
                    panic!("memory variable reached the bit-blaster; run array elimination first")
                }
            },
            Op::Not => {
                let a = self.cached_lit(node.args[0]);
                self.cache.bool_cache.insert(t, a.negate());
            }
            Op::And => {
                let lits: Vec<Lit> = node.args.iter().map(|&a| self.cached_lit(a)).collect();
                let g = self.gate_and(&lits);
                self.cache.bool_cache.insert(t, g);
            }
            Op::Or => {
                let lits: Vec<Lit> = node.args.iter().map(|&a| self.cached_lit(a)).collect();
                let neg: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
                let g = self.gate_and(&neg).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::Xor => {
                let a = self.cached_lit(node.args[0]);
                let b = self.cached_lit(node.args[1]);
                let g = self.gate_xor(a, b);
                self.cache.bool_cache.insert(t, g);
            }
            Op::Eq => {
                let sa = self.bank.sort(node.args[0]);
                let g = if sa.is_bool() {
                    let a = self.cached_lit(node.args[0]);
                    let b = self.cached_lit(node.args[1]);
                    self.gate_xor(a, b).negate()
                } else {
                    let a = self.cache.bv_cache[&node.args[0]].clone();
                    let b = self.cache.bv_cache[&node.args[1]].clone();
                    self.gate_bv_eq(&a, &b)
                };
                self.cache.bool_cache.insert(t, g);
            }
            Op::Ite => {
                let c = self.cached_lit(node.args[0]);
                let a = self.cache.bv_cache[&node.args[1]].clone();
                let b = self.cache.bv_cache[&node.args[2]].clone();
                let bits = self.gate_mux_vec(c, &a, &b);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvNot => {
                let bits: Vec<Lit> =
                    self.cached_bits(node.args[0]).iter().map(|l| l.negate()).collect();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvNeg => {
                let a: Vec<Lit> =
                    self.cached_bits(node.args[0]).iter().map(|l| l.negate()).collect();
                let one = self.lit_true();
                let bits = self.gate_add(&a, None, one);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvAdd => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let f = self.lit_false();
                let bits = self.gate_add(&a, Some(&b), f);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvSub => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let nb: Vec<Lit> =
                    self.cache.bv_cache[&node.args[1]].iter().map(|l| l.negate()).collect();
                let one = self.lit_true();
                let bits = self.gate_add(&a, Some(&nb), one);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvMul => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let bits = self.gate_mul(&a, &b);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvUdiv => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let (q, _) = self.gate_divrem(&a, &b);
                self.cache.bv_cache.insert(t, q);
            }
            Op::BvUrem => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let (_, r) = self.gate_divrem(&a, &b);
                self.cache.bv_cache.insert(t, r);
            }
            Op::BvSdiv | Op::BvSrem => {
                panic!("signed division must be lowered before bit-blasting")
            }
            Op::BvAnd => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let bits: Vec<Lit> =
                    a.iter().zip(&b).map(|(&x, &y)| self.gate_and(&[x, y])).collect();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvOr => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let bits: Vec<Lit> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.gate_and(&[x.negate(), y.negate()]).negate())
                    .collect();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvXor => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let bits: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| self.gate_xor(x, y)).collect();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvShl => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let k = self.cache.bv_cache[&node.args[1]].clone();
                let bits = self.gate_shift(&a, &k, ShiftKind::Left);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvLshr => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let k = self.cache.bv_cache[&node.args[1]].clone();
                let bits = self.gate_shift(&a, &k, ShiftKind::LogicalRight);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvAshr => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let k = self.cache.bv_cache[&node.args[1]].clone();
                let bits = self.gate_shift(&a, &k, ShiftKind::ArithRight);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::BvUlt => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let g = self.gate_ult(&a, &b);
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvUle => {
                let a = self.cache.bv_cache[&node.args[0]].clone();
                let b = self.cache.bv_cache[&node.args[1]].clone();
                let g = self.gate_ult(&b, &a).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvSlt => {
                let a = self.signed_adjust(node.args[0]);
                let b = self.signed_adjust(node.args[1]);
                let g = self.gate_ult(&a, &b);
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvSle => {
                let a = self.signed_adjust(node.args[0]);
                let b = self.signed_adjust(node.args[1]);
                let g = self.gate_ult(&b, &a).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::ZeroExt(to) => {
                let mut bits = self.cache.bv_cache[&node.args[0]].clone();
                bits.resize(to as usize, self.lit_false());
                self.cache.bv_cache.insert(t, bits);
            }
            Op::SignExt(to) => {
                let mut bits = self.cache.bv_cache[&node.args[0]].clone();
                let msb = *bits.last().expect("nonempty bitvector");
                bits.resize(to as usize, msb);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::Extract { hi, lo } => {
                let bits = self.cache.bv_cache[&node.args[0]][lo as usize..=hi as usize].to_vec();
                self.cache.bv_cache.insert(t, bits);
            }
            Op::Concat => {
                let hi = self.cache.bv_cache[&node.args[0]].clone();
                let mut bits = self.cache.bv_cache[&node.args[1]].clone();
                bits.extend(hi);
                self.cache.bv_cache.insert(t, bits);
            }
            Op::Select | Op::Store => {
                panic!("array operation reached the bit-blaster; run array elimination first")
            }
        }
    }

    /// Flips the sign bit, mapping signed comparison onto unsigned.
    fn signed_adjust(&mut self, t: TermId) -> Vec<Lit> {
        let mut bits = self.cache.bv_cache[&t].clone();
        let last = bits.len() - 1;
        bits[last] = bits[last].negate();
        bits
    }

    // -- gates ------------------------------------------------------------

    /// `g ↔ ⋀ lits` (with short-circuits for empty/unit/constant inputs).
    fn gate_and(&mut self, lits: &[Lit]) -> Lit {
        let mut essential = Vec::with_capacity(lits.len());
        for &l in lits {
            if l == self.lit_false() {
                return self.lit_false();
            }
            if l != self.lit_true() {
                essential.push(l);
            }
        }
        essential.sort_unstable();
        essential.dedup();
        match essential.len() {
            0 => self.lit_true(),
            1 => essential[0],
            _ => {
                let g = Lit::pos(self.sat.new_var());
                let mut long = Vec::with_capacity(essential.len() + 1);
                long.push(g);
                for &l in &essential {
                    self.sat.add_clause(&[g.negate(), l]);
                    long.push(l.negate());
                }
                self.sat.add_clause(&long);
                g
            }
        }
    }

    /// `g ↔ a ⊕ b`.
    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == self.lit_true() {
            return b.negate();
        }
        if b == self.lit_true() {
            return a.negate();
        }
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            return self.lit_true();
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[g.negate(), a, b]);
        self.sat.add_clause(&[g.negate(), a.negate(), b.negate()]);
        self.sat.add_clause(&[g, a.negate(), b]);
        self.sat.add_clause(&[g, a, b.negate()]);
        g
    }

    /// `g ↔ ite(c, a, b)`.
    fn gate_mux(&mut self, c: Lit, a: Lit, b: Lit) -> Lit {
        if c == self.lit_true() {
            return a;
        }
        if c == self.lit_false() {
            return b;
        }
        if a == b {
            return a;
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[c.negate(), a.negate(), g]);
        self.sat.add_clause(&[c.negate(), a, g.negate()]);
        self.sat.add_clause(&[c, b.negate(), g]);
        self.sat.add_clause(&[c, b, g.negate()]);
        g
    }

    fn gate_mux_vec(&mut self, c: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        a.iter().zip(b).map(|(&x, &y)| self.gate_mux(c, x, y)).collect()
    }

    /// Ripple-carry addition; `b = None` means adding zero (used by neg).
    fn gate_add(&mut self, a: &[Lit], b: Option<&[Lit]>, carry_in: Lit) -> Vec<Lit> {
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let x = a[i];
            let y = b.map_or(self.lit_false(), |b| b[i]);
            let xy = self.gate_xor(x, y);
            let sum = self.gate_xor(xy, carry);
            // carry-out = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let and1 = self.gate_and(&[x, y]);
            let and2 = self.gate_and(&[carry, xy]);
            carry = self.gate_and(&[and1.negate(), and2.negate()]).negate();
            out.push(sum);
        }
        out
    }

    /// Shift-and-add multiplier truncated to the operand width.
    fn gate_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let n = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); n];
        for i in 0..n {
            // partial = (a << i) & replicate(b[i])
            let mut partial = vec![self.lit_false(); n];
            for j in 0..(n - i) {
                partial[i + j] = self.gate_and(&[a[j], b[i]]);
            }
            let f = self.lit_false();
            acc = self.gate_add(&acc, Some(&partial), f);
        }
        acc
    }

    /// Restoring division producing `(quotient, remainder)` with SMT-LIB
    /// semantics for division by zero.
    fn gate_divrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let n = a.len();
        let f = self.lit_false();
        // Work with (n+1)-bit partial remainders so `2r + bit` cannot wrap.
        let mut r: Vec<Lit> = vec![f; n + 1];
        let bext: Vec<Lit> = b.iter().copied().chain([f]).collect();
        let mut q = vec![f; n];
        for i in (0..n).rev() {
            // r = (r << 1) | a[i]
            let mut shifted = Vec::with_capacity(n + 1);
            shifted.push(a[i]);
            shifted.extend(r[..n].iter().copied());
            // ge = shifted >= bext  ⇔  ¬(shifted < bext)
            let ge = self.gate_ult(&shifted, &bext).negate();
            // diff = shifted - bext
            let nb: Vec<Lit> = bext.iter().map(|l| l.negate()).collect();
            let one = self.lit_true();
            let diff = self.gate_add(&shifted, Some(&nb), one);
            r = self.gate_mux_vec(ge, &diff, &shifted);
            q[i] = ge;
        }
        let rem: Vec<Lit> = r[..n].to_vec();
        // Division by zero: quotient = all ones, remainder = a.
        let nonzero: Vec<Lit> = b.to_vec();
        let b_is_zero = self.gate_and(&nonzero.iter().map(|l| l.negate()).collect::<Vec<_>>());
        let ones = vec![self.lit_true(); n];
        let q_final = self.gate_mux_vec(b_is_zero, &ones, &q);
        let r_final = self.gate_mux_vec(b_is_zero, a, &rem);
        (q_final, r_final)
    }

    /// Barrel shifter with explicit overflow handling (`k >= n` gives the
    /// fill value on every bit, matching SMT-LIB shift semantics).
    fn gate_shift(&mut self, a: &[Lit], k: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let n = a.len();
        let fill = match kind {
            ShiftKind::ArithRight => *a.last().expect("nonempty"),
            _ => self.lit_false(),
        };
        let mut cur = a.to_vec();
        let mut stage = 0u32;
        while (1usize << stage) < n {
            let amount = 1usize << stage;
            let ctrl = k[stage as usize];
            let mut shifted = vec![fill; n];
            match kind {
                ShiftKind::Left => {
                    let zero = self.lit_false();
                    for s in shifted.iter_mut().take(amount) {
                        *s = zero;
                    }
                    shifted[amount..n].copy_from_slice(&cur[..n - amount]);
                }
                ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                    shifted[..n - amount].copy_from_slice(&cur[amount..n]);
                }
            }
            cur = self.gate_mux_vec(ctrl, &shifted, &cur);
            stage += 1;
        }
        // Overflow: a shift amount >= n yields the fill value everywhere.
        // A plain high-bit check is wrong for non-power-of-two widths (e.g.
        // k = 96 at width 96 has no bit of weight >= 2^7), so compare
        // against the constant n directly.
        let n_bits: Vec<Lit> = (0..n)
            .map(|i| if (n as u128 >> i) & 1 == 1 { self.lit_true() } else { self.lit_false() })
            .collect();
        let in_range = self.gate_ult(k, &n_bits);
        let fill_vec = vec![fill; n];
        self.gate_mux_vec(in_range, &cur, &fill_vec)
    }

    /// `g ↔ a <u b` (MSB-first comparison chain).
    fn gate_ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.lit_false();
        for i in 0..a.len() {
            // from LSB to MSB: lt = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ lt)
            let strictly = self.gate_and(&[a[i].negate(), b[i]]);
            let eq = self.gate_xor(a[i], b[i]).negate();
            let carry = self.gate_and(&[eq, lt]);
            lt = self.gate_and(&[strictly.negate(), carry.negate()]).negate();
        }
        lt
    }

    /// `g ↔ (a = b)` for bitvectors.
    fn gate_bv_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let xnors: Vec<Lit> =
            a.iter().zip(b).map(|(&x, &y)| self.gate_xor(x, y).negate()).collect();
        self.gate_and(&xnors)
    }
}

/// Kinds of shift, selecting fill and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}
