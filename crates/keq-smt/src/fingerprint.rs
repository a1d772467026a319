//! Canonical, bank-independent obligation fingerprints.
//!
//! An obligation is the conjunction of a query's assertions (for session
//! queries: prefix ∧ delta). Structurally identical obligations recur across
//! corpus functions — the same instruction-selection patterns produce the
//! same proof obligations over and over, differing only in fresh-variable
//! numbering and [`TermBank`] interning order. [`fingerprint_obligation`]
//! maps an obligation to a 128-bit value that is
//!
//! - **invariant** under free-variable renaming (names and [`VarId`]s are
//!   never hashed) and under term-construction order (commutative argument
//!   lists and the conjunct list itself are re-sorted by structure, not by
//!   bank-dependent `TermId`s), and
//! - **discriminating** for anything semantically relevant: operator
//!   structure, bitvector widths, sorts, constants, polarity, and the
//!   *sharing pattern* of variables across conjuncts all feed the hash.
//!
//! # Construction
//!
//! 1. Conjuncts are deduplicated and constant-`true` conjuncts dropped, so
//!    the two ways of posing one conjunction (scratch vs. prefix+delta
//!    split) fingerprint identically.
//! 2. Every reachable node gets a *shape hash*: a structural DAG hash where
//!    variables contribute only their sort. Commutative operators absorb
//!    their children's hashes in sorted order, which removes the
//!    bank-dependent `TermId` argument order the smart constructors use.
//!    Shape hashes are query-independent and memoized per bank
//!    ([`ShapeMemo`]).
//! 3. Variable *colors* are refined Weisfeiler–Leman style for a constant
//!    number of rounds: each round recolors every variable by the sorted
//!    multiset of (position-tagged) hashes of the nodes it occurs in, then
//!    recomputes the node hashes with the new colors. This separates
//!    variables that pure shape cannot (e.g. `x` in `x+y ∧ x<c` vs `y`).
//! 4. A canonical preorder traversal (roots and commutative arguments
//!    ordered by refined hash) assigns each variable an index at first
//!    visit — the alpha-renaming. The final hash re-hashes the DAG with
//!    variables replaced by their indices and combines the (sorted) root
//!    hashes.
//!
//! Equal fingerprints imply (up to 128-bit hash collision) alpha-equivalent
//! conjunctions: the final hash encodes the concrete index pattern, so two
//! obligations can only agree by exhibiting an index-preserving renaming.
//! The converse is *near*-canonical: when the refinement rounds leave a
//! genuine tie (automorphic conjuncts, or structures past the refinement
//! horizon), the traversal falls back to bank order and alpha-equivalent
//! obligations may fingerprint differently. Such ties cost cache **misses**,
//! never wrong hits — which is the only sound failure direction for a
//! verdict cache.
//!
//! Fingerprinting runs *after* the saturating rewrite pass
//! ([`crate::rewrite`]): obligations arrive here already in normal form,
//! so spellings that differ only by rewritable redundancy (xor
//! self-cancellation, add/sub round trips, collapsible extract/extend
//! chains, …) share one fingerprint and one cache entry. Any change to
//! that normal form — new rules, reordered families — shifts which
//! fingerprint an obligation maps to and must bump
//! [`crate::obcache::SEMANTICS_REVISION`], exactly like widening the `Op`
//! vocabulary.

use std::collections::{HashMap, HashSet};

use crate::sort::Sort;
use crate::term::{Op, TermBank, TermId, VarId};

/// Canonical 128-bit fingerprint of one proof obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObligationFingerprint(pub u128);

impl ObligationFingerprint {
    /// Low 64 bits — the compact form carried by trace events.
    pub fn lo64(self) -> u64 {
        self.0 as u64
    }
}

/// Per-bank memo of the query-independent shape hashes (step 2).
///
/// Valid for the lifetime of one [`TermBank`]: interned nodes are
/// immutable, so a `TermId`'s shape hash never changes. This is the same
/// 1:1 solver↔bank pairing the query cache already relies on.
#[derive(Debug, Clone, Default)]
pub struct ShapeMemo {
    shape: HashMap<TermId, u128>,
}

impl ShapeMemo {
    /// Number of memoized shapes (diagnostics only).
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }
}

/// Variable-color refinement rounds (step 3). Two rounds separate
/// variables by their occurrence context up to distance two, which covers
/// the obligation patterns the pipeline emits; deeper symmetric structures
/// degrade to extra misses, never to wrong hits.
const REFINE_ROUNDS: usize = 2;

/// SplitMix64 finalizer (duplicated from `keq-prng`, which is only a
/// dev-dependency of this crate).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Absorbs one 64-bit word into a 128-bit state (two coupled mix lanes).
fn absorb(h: u128, w: u64) -> u128 {
    let lo = mix64(h as u64 ^ w);
    let hi = mix64((h >> 64) as u64 ^ w.rotate_left(32) ^ lo);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Absorbs a 128-bit word as two 64-bit halves.
fn absorb128(h: u128, w: u128) -> u128 {
    absorb(absorb(h, w as u64), (w >> 64) as u64)
}

/// Collapses a 128-bit hash to one word (for occurrence tags).
fn fold64(h: u128) -> u64 {
    mix64(h as u64 ^ (h >> 64) as u64)
}

const SEED_NODE: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;
const SEED_TOP: u128 = 0x2545_f491_4f6c_dd1d_8917_51aa_e05e_e9d1;
/// Fingerprint of the empty (trivially satisfiable) obligation.
const EMPTY: u128 = 0xd3c5_8a5f_9e30_6b91_41c6_4e6d_19cf_2c53;

/// Stable operator code — explicit so reordering the `Op` enum can never
/// silently change fingerprints (and thereby invalidate persisted stores
/// without a [`SEMANTICS_REVISION`](crate::obcache::SEMANTICS_REVISION)
/// bump).
fn op_code(op: &Op) -> u64 {
    match op {
        Op::BoolConst(false) => 1,
        Op::BoolConst(true) => 2,
        Op::BvConst { .. } => 3,
        Op::Var(_) => 4,
        Op::Not => 5,
        Op::And => 6,
        Op::Or => 7,
        Op::Xor => 8,
        Op::Eq => 9,
        Op::Ite => 10,
        Op::BvNot => 11,
        Op::BvNeg => 12,
        Op::BvAdd => 13,
        Op::BvSub => 14,
        Op::BvMul => 15,
        Op::BvUdiv => 16,
        Op::BvUrem => 17,
        Op::BvSdiv => 18,
        Op::BvSrem => 19,
        Op::BvAnd => 20,
        Op::BvOr => 21,
        Op::BvXor => 22,
        Op::BvShl => 23,
        Op::BvLshr => 24,
        Op::BvAshr => 25,
        Op::BvUlt => 26,
        Op::BvUle => 27,
        Op::BvSlt => 28,
        Op::BvSle => 29,
        Op::ZeroExt(_) => 30,
        Op::SignExt(_) => 31,
        Op::Extract { .. } => 32,
        Op::Concat => 33,
        Op::Select => 34,
        Op::Store => 35,
    }
}

/// Operators whose smart constructors sort arguments by bank-dependent
/// `TermId` — the fingerprint must re-sort their children structurally.
fn commutative(op: &Op) -> bool {
    matches!(
        op,
        Op::And
            | Op::Or
            | Op::Xor
            | Op::Eq
            | Op::BvAdd
            | Op::BvMul
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
    )
}

fn sort_word(s: Sort) -> u64 {
    match s {
        Sort::Bool => 0x51,
        Sort::BitVec(w) => 0x52 | (u64::from(w) << 8),
        Sort::Memory => 0x53,
    }
}

/// Hashes one node given a child-hash lookup and a variable word.
fn node_hash(
    bank: &TermBank,
    id: TermId,
    child: impl Fn(TermId) -> u128,
    var_word: impl Fn(VarId) -> u64,
) -> u128 {
    let node = bank.node(id);
    let mut h = absorb(SEED_NODE, op_code(&node.op));
    h = absorb(h, sort_word(node.sort));
    match node.op {
        Op::BvConst { width, value } => {
            h = absorb(h, u64::from(width));
            h = absorb128(h, value);
        }
        Op::Var(v) => h = absorb(h, var_word(v)),
        Op::ZeroExt(w) | Op::SignExt(w) => h = absorb(h, u64::from(w)),
        Op::Extract { hi, lo } => {
            h = absorb(h, u64::from(hi));
            h = absorb(h, u64::from(lo));
        }
        _ => {}
    }
    h = absorb(h, node.args.len() as u64);
    let mut kids: Vec<u128> = node.args.iter().map(|&a| child(a)).collect();
    if commutative(&node.op) {
        kids.sort_unstable();
    }
    for k in kids {
        h = absorb128(h, k);
    }
    h
}

/// Reachable nodes of the obligation DAG, children before parents.
fn postorder(bank: &TermBank, roots: &[TermId]) -> Vec<TermId> {
    let mut order = Vec::new();
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<(TermId, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
    while let Some((id, expanded)) = stack.pop() {
        if expanded {
            order.push(id);
            continue;
        }
        if !seen.insert(id) {
            continue;
        }
        stack.push((id, true));
        for &a in bank.node(id).args.iter().rev() {
            if !seen.contains(&a) {
                stack.push((a, false));
            }
        }
    }
    order
}

/// One Weisfeiler–Leman round: recolors every variable by the sorted
/// multiset of its occurrence tags (current hash of the occurrence's parent,
/// position-tagged for non-commutative parents; roots that are bare
/// variables get a distinguished root tag).
fn refine_colors(
    bank: &TermBank,
    order: &[TermId],
    roots: &[TermId],
    node_h: &HashMap<TermId, u128>,
) -> HashMap<VarId, u64> {
    const ROOT_TAG: u64 = 0x6a09_e667_f3bc_c908;
    let mut occ: HashMap<VarId, Vec<u64>> = HashMap::new();
    for &id in order {
        let node = bank.node(id);
        let pw = fold64(node_h[&id]);
        for (i, &a) in node.args.iter().enumerate() {
            if let Op::Var(v) = bank.node(a).op {
                let tag = if commutative(&node.op) {
                    pw
                } else {
                    mix64(pw ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
                };
                occ.entry(v).or_default().push(tag);
            }
        }
    }
    for &r in roots {
        if let Op::Var(v) = bank.node(r).op {
            occ.entry(v).or_default().push(ROOT_TAG);
        }
    }
    occ.into_iter()
        .map(|(v, mut tags)| {
            tags.sort_unstable();
            let (_, sort) = bank.var(v);
            let mut c = mix64(sort_word(sort) ^ 0xc2b2_ae3d_27d4_eb4f);
            for t in tags {
                c = mix64(c ^ t);
            }
            (v, c)
        })
        .collect()
}

/// Fingerprints the conjunction of all assertions in `parts` (the parts are
/// concatenated — a session passes `[prefix, delta]`, a scratch query
/// `[assertions]`). See the module docs for the algorithm and the soundness
/// argument.
pub fn fingerprint_obligation(
    bank: &TermBank,
    memo: &mut ShapeMemo,
    parts: &[&[TermId]],
) -> ObligationFingerprint {
    // Step 1: deduplicate conjuncts, drop constant-true ones.
    let mut roots: Vec<TermId> = parts.iter().flat_map(|p| p.iter().copied()).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.retain(|&r| bank.as_bool_const(r) != Some(true));
    if roots.is_empty() {
        return ObligationFingerprint(EMPTY);
    }

    let order = postorder(bank, &roots);

    // Step 2: query-independent shape hashes, memoized per bank.
    for &id in &order {
        if memo.shape.contains_key(&id) {
            continue;
        }
        let h = node_hash(bank, id, |a| memo.shape[&a], |v| sort_word(bank.var(v).1));
        memo.shape.insert(id, h);
    }

    // Step 3: refine variable colors and per-query node hashes.
    let mut node_h: HashMap<TermId, u128> = order.iter().map(|&id| (id, memo.shape[&id])).collect();
    for _ in 0..REFINE_ROUNDS {
        let colors = refine_colors(bank, &order, &roots, &node_h);
        let mut next: HashMap<TermId, u128> = HashMap::with_capacity(order.len());
        for &id in &order {
            let h = node_hash(
                bank,
                id,
                |a| next[&a],
                |v| colors.get(&v).copied().unwrap_or_else(|| sort_word(bank.var(v).1)),
            );
            next.insert(id, h);
        }
        node_h = next;
    }

    // Step 4a: canonical preorder traversal assigns alpha-renaming indices.
    let mut sorted_roots = roots.clone();
    sorted_roots.sort_by_key(|r| node_h[r]);
    let mut var_index: HashMap<VarId, u64> = HashMap::new();
    let mut visited: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<TermId> = sorted_roots.iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        if !visited.insert(id) {
            continue;
        }
        let node = bank.node(id);
        if let Op::Var(v) = node.op {
            let next_index = var_index.len() as u64;
            var_index.entry(v).or_insert(next_index);
        }
        let mut kids = node.args.clone();
        if commutative(&node.op) {
            kids.sort_by_key(|k| node_h[k]);
        }
        for &k in kids.iter().rev() {
            if !visited.contains(&k) {
                stack.push(k);
            }
        }
    }

    // Step 4b: final index-labelled hash; the conjunct multiset is
    // order-insensitive (sorted), variable linkage across conjuncts is
    // preserved by the shared index space.
    let mut fin: HashMap<TermId, u128> = HashMap::with_capacity(order.len());
    for &id in &order {
        let h = node_hash(bank, id, |a| fin[&a], |v| 0x8000_0000_0000_0000 | var_index[&v]);
        fin.insert(id, h);
    }
    let mut root_hashes: Vec<u128> = roots.iter().map(|r| fin[r]).collect();
    root_hashes.sort_unstable();
    let mut h = absorb(SEED_TOP, root_hashes.len() as u64);
    for r in root_hashes {
        h = absorb128(h, r);
    }
    ObligationFingerprint(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(bank: &TermBank, roots: &[TermId]) -> ObligationFingerprint {
        let mut memo = ShapeMemo::default();
        fingerprint_obligation(bank, &mut memo, &[roots])
    }

    #[test]
    fn renaming_and_split_invariance() {
        let mut b1 = TermBank::new();
        let x = b1.mk_var("x", Sort::BitVec(32));
        let y = b1.mk_var("y", Sort::BitVec(32));
        let c = b1.mk_bv(32, 7);
        let s1 = b1.mk_bvadd(x, y);
        let a1 = b1.mk_eq(s1, c);
        let a2 = b1.mk_bvult(x, y);

        let mut b2 = TermBank::new();
        let u = b2.mk_var("fresh!91", Sort::BitVec(32));
        let w = b2.mk_var("fresh!17", Sort::BitVec(32));
        let c2 = b2.mk_bv(32, 7);
        let s2 = b2.mk_bvadd(u, w);
        let b_a1 = b2.mk_eq(s2, c2);
        let b_a2 = b2.mk_bvult(u, w);

        assert_eq!(fp(&b1, &[a1, a2]), fp(&b2, &[b_a1, b_a2]));
        // Split into prefix+delta and reordered conjuncts: same obligation.
        let mut memo = ShapeMemo::default();
        assert_eq!(fingerprint_obligation(&b1, &mut memo, &[&[a2], &[a1]]), fp(&b1, &[a1, a2]));
    }

    #[test]
    fn construction_order_invariance() {
        // Same conjunction, conjuncts (and therefore TermIds) built in the
        // opposite order in a second bank.
        let mut b1 = TermBank::new();
        let x = b1.mk_var("a", Sort::BitVec(8));
        let y = b1.mk_var("b", Sort::BitVec(8));
        let k1 = b1.mk_bv(8, 3);
        let k2 = b1.mk_bv(8, 9);
        let s1 = b1.mk_bvadd(x, y);
        let p = b1.mk_eq(s1, k1);
        let q = b1.mk_bvult(x, k2);

        let mut b2 = TermBank::new();
        let y2 = b2.mk_var("q", Sort::BitVec(8));
        let k2b = b2.mk_bv(8, 9);
        let x2 = b2.mk_var("p", Sort::BitVec(8));
        let qq = b2.mk_bvult(x2, k2b);
        let k1b = b2.mk_bv(8, 3);
        let s2 = b2.mk_bvadd(x2, y2);
        let pp = b2.mk_eq(s2, k1b);

        assert_eq!(fp(&b1, &[p, q]), fp(&b2, &[qq, pp]));
    }

    #[test]
    fn width_sort_and_polarity_are_distinguished() {
        let mut b = TermBank::new();
        let x32 = b.mk_var("x32", Sort::BitVec(32));
        let y32 = b.mk_var("y32", Sort::BitVec(32));
        let x16 = b.mk_var("x16", Sort::BitVec(16));
        let y16 = b.mk_var("y16", Sort::BitVec(16));
        let ult32 = b.mk_bvult(x32, y32);
        let ult16 = b.mk_bvult(x16, y16);
        let not32 = b.mk_not(ult32);
        let slt32 = b.mk_bvslt(x32, y32);
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[ult16]), "width must matter");
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[not32]), "polarity must matter");
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[slt32]), "signedness must matter");
        let p = b.mk_var("p", Sort::Bool);
        let q = b.mk_var("q", Sort::Bool);
        let and_pq = b.mk_and([p, q]);
        let or_pq = b.mk_or([p, q]);
        assert_ne!(fp(&b, &[and_pq]), fp(&b, &[or_pq]), "connective must matter");
    }

    #[test]
    fn variable_linkage_is_distinguished() {
        // x<c ∧ y<c vs x<c ∧ x<d: same shapes per conjunct, different
        // sharing pattern across conjuncts.
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let y = b.mk_var("y", Sort::BitVec(8));
        let c = b.mk_bv(8, 4);
        let d = b.mk_bv(8, 5);
        let xc = b.mk_bvult(x, c);
        let yd = b.mk_bvult(y, d);
        let xd = b.mk_bvult(x, d);
        assert_ne!(fp(&b, &[xc, yd]), fp(&b, &[xc, xd]));
    }

    #[test]
    fn refinement_separates_symmetric_commutative_arguments() {
        // x+y ∧ x<c: x and y have tied shapes inside the commutative sum,
        // but the second conjunct breaks the symmetry. The refined traversal
        // must pick the same orientation whichever TermId order the bank
        // happened to intern.
        let mut b1 = TermBank::new();
        let x = b1.mk_var("x", Sort::BitVec(8));
        let y = b1.mk_var("y", Sort::BitVec(8));
        let c = b1.mk_bv(8, 11);
        let z = b1.mk_bv(8, 0);
        let add1 = b1.mk_bvadd(x, y);
        let sum1 = b1.mk_eq(add1, z);
        let lt1 = b1.mk_bvult(x, c);

        let mut b2 = TermBank::new();
        // Interning order flipped: "y" first.
        let y2 = b2.mk_var("m", Sort::BitVec(8));
        let x2 = b2.mk_var("n", Sort::BitVec(8));
        let c2 = b2.mk_bv(8, 11);
        let z2 = b2.mk_bv(8, 0);
        let add2 = b2.mk_bvadd(x2, y2);
        let sum2 = b2.mk_eq(add2, z2);
        let lt2 = b2.mk_bvult(x2, c2);

        assert_eq!(fp(&b1, &[sum1, lt1]), fp(&b2, &[sum2, lt2]));
    }

    #[test]
    fn empty_and_trivial_conjunctions() {
        let mut b = TermBank::new();
        let t = b.mk_true();
        assert_eq!(fp(&b, &[]), fp(&b, &[t]), "true conjuncts are dropped");
        let f = b.mk_false();
        assert_ne!(fp(&b, &[]), fp(&b, &[f]));
    }
}
