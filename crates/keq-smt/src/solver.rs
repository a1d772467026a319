//! The solver facade: simplification → lowering → bit-blasting → CDCL.
//!
//! This module plays the role Z3 plays in the paper's KEQ: it discharges
//! path-condition implications and sync-point equality obligations. It also
//! implements the §3 *positive-form* query optimization: to prove
//! `φ₁ ⇒ φ₂` when `φ₂ ∨ φ₂' ∨ …` is a tautology over a deterministic
//! system, ask for unsatisfiability of `φ₁ ∧ (φ₂' ∨ …)` instead of
//! `φ₁ ∧ ¬φ₂`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bitblast::{BitBlaster, BlastCache};
use crate::cancel::{stop_requested, CancelToken};
use crate::eval::{eval, Assignment, Value};
use crate::fault::{self, FaultAction, FaultSite};
use crate::fingerprint::{fingerprint_obligation, ObligationFingerprint, ShapeMemo};
use crate::lower::{lower, Lowerer};
use crate::obcache::{CachedVerdict, SharedObligationCache};
use crate::rewrite::Rewriter;
use crate::sat::{Lit, SatBudget, SatOutcome, SatSolver};
use crate::sort::Sort;
use crate::term::{Op, TermBank, TermId};

/// Resource budget for a single query.
///
/// Exhausting `max_conflicts` models the paper's *timeout* failure class;
/// exhausting `max_terms` models the *out-of-memory* class (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum CDCL conflicts per query.
    pub max_conflicts: u64,
    /// Maximum interned terms during lowering.
    pub max_terms: usize,
    /// Wall-clock limit per query (`None` = unlimited).
    pub max_time: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_conflicts: 2_000_000, max_terms: 4_000_000, max_time: None }
    }
}

impl Budget {
    /// A tight budget for tests and corpus sweeps.
    pub fn tight() -> Self {
        Budget {
            max_conflicts: 50_000,
            max_terms: 400_000,
            max_time: Some(Duration::from_secs(5)),
        }
    }
}

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Satisfiable, with a model for the named bool/bitvector variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted (conflicts or terms).
    Budget(BudgetKind),
}

/// Which budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// CDCL conflict limit — the paper's "timeout" class.
    Conflicts,
    /// Term limit during lowering — the paper's "out of memory" class.
    Terms,
    /// Wall-clock deadline expiry or supervisor cancellation — also the
    /// timeout class, but distinct from conflict exhaustion so retry
    /// policies and the Fig. 6 harness can tell them apart.
    WallClock,
}

/// Outcome of a validity (proof) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofOutcome {
    /// The implication/equivalence is valid.
    Proved,
    /// A countermodel exists.
    Refuted(Model),
    /// Budget exhausted before a verdict.
    Budget(BudgetKind),
}

impl ProofOutcome {
    /// `true` when the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofOutcome::Proved)
    }
}

/// A model: named values for boolean and bitvector variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, Value)>,
}

impl Model {
    /// Looks up a variable by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in &self.entries {
            match value {
                Value::Bool(b) => writeln!(f, "  {name} = {b}")?,
                Value::Bv { width, value } => writeln!(f, "  {name} = #x{value:x} ({width} bits)")?,
                Value::Mem(_) => writeln!(f, "  {name} = <memory>")?,
            }
        }
        Ok(())
    }
}

/// Cumulative statistics across queries, declared once as a counter table
/// in `keq-trace` (which also derives its report, wire, and metrics forms).
pub use keq_trace::SolverStats;

/// Cache key for a closed query: the session prefix (empty for scratch
/// queries) plus the query's own delta, both sorted and deduplicated.
///
/// Splitting the key keeps scratch and session answers for the same total
/// assertion set distinct only in *how* they were asked, never in what they
/// mean — `prefix ∧ delta` is the query either way, so an outcome cached
/// under one split is sound to reuse for the identical split. (The two
/// splits of one conjunction could in principle share answers, but
/// detecting that would cost a normalization pass per lookup.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    prefix: Vec<TermId>,
    delta: Vec<TermId>,
}

impl QueryKey {
    fn new(prefix: &[TermId], delta: &[TermId]) -> Self {
        let mut delta = delta.to_vec();
        delta.sort_unstable();
        delta.dedup();
        QueryKey { prefix: prefix.to_vec(), delta }
    }

    /// Approximate heap footprint of the key, for byte-bounded eviction.
    fn approx_bytes(&self) -> usize {
        (self.prefix.len() + self.delta.len()) * std::mem::size_of::<TermId>()
    }
}

fn approx_outcome_bytes(outcome: &CheckOutcome) -> usize {
    match outcome {
        CheckOutcome::Sat(m) => m
            .entries
            .iter()
            .map(|(n, _)| n.len() + std::mem::size_of::<(String, Value)>())
            .sum(),
        CheckOutcome::Unsat | CheckOutcome::Budget(_) => 0,
    }
}

/// Bounded FIFO memo of closed queries. Identical assertion sets recur
/// frequently across successor pairs and synchronization points, but a
/// multi-hour corpus function must not grow the memo without bound — the
/// cache evicts oldest-first once either the entry or the (approximate)
/// byte limit is exceeded, counting evictions into
/// [`SolverStats::cache_evictions`].
#[derive(Debug, Clone)]
struct QueryCache {
    map: HashMap<QueryKey, CheckOutcome>,
    order: VecDeque<QueryKey>,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

/// Default cap on cached query outcomes.
const CACHE_MAX_ENTRIES: usize = 1 << 14;
/// Default cap on the cache's approximate heap footprint (16 MiB).
const CACHE_MAX_BYTES: usize = 16 << 20;

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            max_entries: CACHE_MAX_ENTRIES,
            max_bytes: CACHE_MAX_BYTES,
        }
    }
}

impl QueryCache {
    fn get(&self, key: &QueryKey) -> Option<&CheckOutcome> {
        self.map.get(key)
    }

    fn insert(&mut self, key: QueryKey, outcome: CheckOutcome, evictions: &mut u64) {
        let added = key.approx_bytes() + approx_outcome_bytes(&outcome);
        if let Some(old) = self.map.insert(key.clone(), outcome) {
            // Same key re-inserted (e.g. a budgeted retry that now closed):
            // adjust bytes, keep the original FIFO position.
            self.bytes = self.bytes.saturating_sub(key.approx_bytes() + approx_outcome_bytes(&old));
        } else {
            self.order.push_back(key);
        }
        self.bytes += added;
        while (self.map.len() > self.max_entries || self.bytes > self.max_bytes)
            && !self.order.is_empty()
        {
            let victim = self.order.pop_front().expect("nonempty");
            if let Some(out) = self.map.remove(&victim) {
                self.bytes = self
                    .bytes
                    .saturating_sub(victim.approx_bytes() + approx_outcome_bytes(&out));
                *evictions += 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The SMT solver facade.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    budget: Budget,
    stats: SolverStats,
    cancel: Option<CancelToken>,
    /// Bounded memo of closed queries, keyed by prefix+delta.
    cache: QueryCache,
    /// Optional corpus-wide obligation cache, shared across solvers (and
    /// runs, when persisted). `None` — the default — skips fingerprinting
    /// entirely.
    shared: Option<Arc<SharedObligationCache>>,
    /// Per-bank memo for the query-independent fingerprint layer.
    fp_memo: ShapeMemo,
    /// Saturating obligation normalizer (see [`crate::rewrite`]); its
    /// memo shares the per-bank contract of `fp_memo`.
    rewriter: Rewriter,
    /// `true` disables obligation normalization — the measurement/off leg
    /// for benches and differential tests. Inverted so the zero-value
    /// default keeps rewriting on.
    rewrite_disabled: bool,
}

impl Solver {
    /// Creates a solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit budget.
    pub fn with_budget(budget: Budget) -> Self {
        Solver { budget, ..Self::default() }
    }

    /// Attaches a cooperative cancellation token; the CDCL core polls it
    /// and reports [`BudgetKind::WallClock`] when it is raised.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The active budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Replaces the budget in place — the warm-start path: an escalating
    /// retry raises the budget on the *same* solver so the query cache and
    /// any session state built under the old budget stay valid (budgeted
    /// outcomes are never cached, so nothing stale can leak).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Replaces (or clears) the cancellation token in place; the warm-start
    /// analogue of [`Solver::with_cancel`].
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Enables or disables saturating obligation normalization (on by
    /// default). The off position exists for measurement: benches and the
    /// differential property tests run a rewriter-off leg against the same
    /// workload.
    pub fn set_rewrite_enabled(&mut self, on: bool) {
        self.rewrite_disabled = !on;
    }

    /// Whether obligation normalization is currently applied.
    pub fn rewrite_enabled(&self) -> bool {
        !self.rewrite_disabled
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of closed queries currently memoized.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Attaches (or detaches) a shared obligation cache. While attached,
    /// every query that misses the local memo is fingerprinted and checked
    /// against the shared cache before lowering/bit-blasting, and every
    /// `Unsat` verdict is recorded back. Detached solvers pay zero
    /// fingerprinting overhead.
    pub fn set_obligation_cache(&mut self, cache: Option<Arc<SharedObligationCache>>) {
        self.shared = cache;
    }

    /// The attached shared obligation cache, if any.
    pub fn obligation_cache(&self) -> Option<&Arc<SharedObligationCache>> {
        self.shared.as_ref()
    }

    /// Consults the shared cache for the obligation `parts` (a conjunction,
    /// possibly split into prefix/delta). Returns the fingerprint (for the
    /// later store) and a hit verdict, counting hit/miss stats and emitting
    /// the cache trace events.
    ///
    /// A cached `Sat` is model-free: it can answer a caller that only asks
    /// *whether* the conjunction is satisfiable (feasibility pruning), but
    /// a caller that `needs_model` must recompute — the lookup counts as a
    /// miss so the solver's cache ratios stay honest.
    fn shared_lookup(
        &mut self,
        bank: &TermBank,
        parts: &[&[TermId]],
        needs_model: bool,
    ) -> (Option<ObligationFingerprint>, Option<CachedVerdict>) {
        let Some(shared) = self.shared.clone() else {
            return (None, None);
        };
        let fp = fingerprint_obligation(bank, &mut self.fp_memo, parts);
        match shared.lookup(fp) {
            Some(CachedVerdict::Sat) if needs_model => {
                self.stats.obligation_cache_misses += 1;
                keq_trace::emit(keq_trace::Event::CacheMiss { fp: fp.lo64() });
                (Some(fp), None)
            }
            Some(verdict) => {
                self.stats.obligation_cache_hits += 1;
                keq_trace::emit(keq_trace::Event::CacheHit { fp: fp.lo64() });
                (Some(fp), Some(verdict))
            }
            None => {
                self.stats.obligation_cache_misses += 1;
                keq_trace::emit(keq_trace::Event::CacheMiss { fp: fp.lo64() });
                (Some(fp), None)
            }
        }
    }

    /// Records a decided outcome into the shared cache, model-free: `Unsat`
    /// discharges the obligation for every later asker, `Sat` answers later
    /// model-free feasibility questions. Budget/fault outcomes describe the
    /// attempt, not the obligation, and are never stored.
    fn shared_store(&mut self, fp: Option<ObligationFingerprint>, outcome: &CheckOutcome) {
        let (Some(fp), Some(shared)) = (fp, self.shared.as_ref()) else { return };
        let verdict = match outcome {
            CheckOutcome::Unsat => CachedVerdict::Unsat,
            CheckOutcome::Sat(_) => CachedVerdict::Sat,
            CheckOutcome::Budget(_) => return,
        };
        shared.insert(fp, verdict);
        self.stats.obligation_cache_stores += 1;
        keq_trace::emit(keq_trace::Event::CacheStore { fp: fp.lo64() });
    }

    /// The shared per-query entry preamble: fault-injection poll first, then
    /// cooperative cancellation. Every query entry point (scratch
    /// [`Solver::check_sat`] and every [`Session`] query) funnels through
    /// this one guard so a new entry point cannot forget a poll.
    ///
    /// Returns `Some` with the forced outcome when the query must not run.
    fn query_guard(&mut self) -> Option<CheckOutcome> {
        if let FaultAction::ForceBudget(kind) = fault::poll(FaultSite::SolverQuery) {
            self.stats.budget += 1;
            return Some(CheckOutcome::Budget(kind));
        }
        if stop_requested(None, self.cancel.as_ref()).is_some() {
            self.stats.budget += 1;
            return Some(CheckOutcome::Budget(BudgetKind::WallClock));
        }
        None
    }

    /// Runs the saturating rewriter over one obligation's roots, folding the
    /// rewrite deltas into [`SolverStats`]. `Err` means the rewrite pass
    /// observed cooperative cancellation mid-obligation; the caller maps it
    /// to a wall-clock budget outcome exactly like [`Solver::query_guard`].
    fn normalize_obligation(
        &mut self,
        bank: &mut TermBank,
        terms: &[TermId],
    ) -> Result<Vec<TermId>, CheckOutcome> {
        match self.rewriter.normalize(bank, terms, self.cancel.as_ref()) {
            Some((out, delta)) => {
                self.stats.rewrite_rules_fired += delta.total_fired();
                self.stats.rewrite_passes += delta.passes;
                self.stats.rewrite_nodes_saved += delta.nodes_saved();
                Ok(out)
            }
            None => Err(CheckOutcome::Budget(BudgetKind::WallClock)),
        }
    }

    /// Checks satisfiability of the conjunction of `assertions`.
    pub fn check_sat(&mut self, bank: &mut TermBank, assertions: &[TermId]) -> CheckOutcome {
        self.check_sat_opts(bank, assertions, true)
    }

    /// [`Solver::check_sat`] with the model requirement explicit: callers
    /// that discard the model (feasibility pruning, congruence refutation
    /// probes) pass `needs_model = false` and may be answered by a cached
    /// model-free `Sat` verdict.
    fn check_sat_opts(
        &mut self,
        bank: &mut TermBank,
        assertions: &[TermId],
        needs_model: bool,
    ) -> CheckOutcome {
        let start = Instant::now();
        self.stats.queries += 1;
        if let Some(forced) = self.query_guard() {
            return forced;
        }
        let stats_before = self.stats;
        // Normalize before key construction so the local memo, the shared
        // fingerprint, and the blasting pipeline all see the same terms.
        let normalized: Vec<TermId>;
        let assertions: &[TermId] = if self.rewrite_disabled {
            assertions
        } else {
            match self.normalize_obligation(bank, assertions) {
                Ok(terms) => {
                    normalized = terms;
                    &normalized
                }
                Err(outcome) => {
                    self.stats.budget += 1;
                    self.stats.time += start.elapsed();
                    trace_query(
                        "scratch",
                        &outcome,
                        false,
                        start.elapsed(),
                        &self.stats.since(&stats_before),
                    );
                    return outcome;
                }
            }
        };
        let key = QueryKey::new(&[], assertions);
        if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            let outcome = hit.clone();
            trace_query("scratch", &outcome, true, start.elapsed(), &self.stats.since(&stats_before));
            return outcome;
        }
        // Shared obligation cache: consulted only on a local miss and
        // strictly before lowering/bit-blasting, so a cross-function hit
        // skips the whole pipeline.
        let (fp, shared_hit) = self.shared_lookup(bank, &[assertions], needs_model);
        if let Some(verdict) = shared_hit {
            let outcome = match verdict {
                CachedVerdict::Unsat => {
                    // Model-free by nature: safe to memoize locally too.
                    self.cache.insert(
                        key,
                        CheckOutcome::Unsat,
                        &mut self.stats.cache_evictions,
                    );
                    self.stats.unsat += 1;
                    CheckOutcome::Unsat
                }
                CachedVerdict::Sat => {
                    // The empty model must not enter the local memo: a
                    // later model-needing pose of the same key would be
                    // served a witness-free counterexample.
                    self.stats.sat += 1;
                    CheckOutcome::Sat(Model::default())
                }
            };
            self.stats.time += start.elapsed();
            trace_query("scratch", &outcome, true, start.elapsed(), &self.stats.since(&stats_before));
            return outcome;
        }
        let outcome = self.check_sat_inner(bank, assertions);
        if !matches!(outcome, CheckOutcome::Budget(_)) {
            self.cache.insert(key, outcome.clone(), &mut self.stats.cache_evictions);
        }
        self.shared_store(fp, &outcome);
        match &outcome {
            CheckOutcome::Sat(_) => self.stats.sat += 1,
            CheckOutcome::Unsat => self.stats.unsat += 1,
            CheckOutcome::Budget(_) => self.stats.budget += 1,
        }
        self.stats.time += start.elapsed();
        trace_query("scratch", &outcome, false, start.elapsed(), &self.stats.since(&stats_before));
        outcome
    }

    fn check_sat_inner(&mut self, bank: &mut TermBank, assertions: &[TermId]) -> CheckOutcome {
        // Fast path: constant assertions.
        let mut live = Vec::with_capacity(assertions.len());
        for &a in assertions {
            debug_assert!(bank.sort(a).is_bool(), "assertion must be boolean");
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => return CheckOutcome::Unsat,
                None => live.push(a),
            }
        }
        if live.is_empty() {
            return CheckOutcome::Sat(Model::default());
        }
        let lowered = {
            let _s = keq_trace::span(keq_trace::Phase::Lower);
            match lower(bank, &live, self.budget.max_terms) {
                Ok(l) => l,
                Err(_) => return CheckOutcome::Budget(BudgetKind::Terms),
            }
        };
        let mut sat = SatSolver::new();
        let mut blast = BlastCache::new();
        let mut lowered_asserts = Vec::new();
        {
            let _s = keq_trace::span(keq_trace::Phase::Blast);
            let mut blaster = BitBlaster::new(bank, &mut sat, &mut blast);
            for &a in lowered.assertions.iter().chain(&lowered.side_conditions) {
                match bank.as_bool_const(a) {
                    Some(true) => {}
                    Some(false) => return CheckOutcome::Unsat,
                    None => {
                        blaster.assert_term(a);
                        lowered_asserts.push(a);
                    }
                }
            }
        }
        self.stats.terms_blasted += blast.terms_blasted();
        self.stats.terms_blast_reused += blast.terms_reused();
        let var_bits = blast.var_bits().clone();
        let bool_vars = blast.bool_vars().clone();
        let deadline = self.budget.max_time.map(|d| Instant::now() + d);
        let cdcl_span = keq_trace::span(keq_trace::Phase::Cdcl);
        let sat_outcome = sat.solve_with_limits(
            Some(self.budget.max_conflicts),
            deadline,
            self.cancel.as_ref(),
        );
        cdcl_span.done();
        self.stats.conflicts += sat.conflicts();
        self.stats.restarts += sat.restarts();
        self.stats.lbd_kept += sat.lbd_kept();
        match sat_outcome {
            SatOutcome::Unsat => CheckOutcome::Unsat,
            SatOutcome::Budget(kind) => CheckOutcome::Budget(match kind {
                SatBudget::Conflicts => BudgetKind::Conflicts,
                SatBudget::Deadline => BudgetKind::WallClock,
            }),
            SatOutcome::Sat(bits) => {
                let (model, asg) = extract_model(bank, &var_bits, &bool_vars, &bits);
                // Validate the model against the lowered formula; a failure
                // here indicates a bit-blasting bug and must be loud.
                for &a in &lowered_asserts {
                    debug_assert_eq!(
                        eval(bank, a, &asg),
                        Value::Bool(true),
                        "model does not satisfy lowered assertion {}",
                        bank.display(a)
                    );
                }
                CheckOutcome::Sat(model)
            }
        }
    }

    /// Proves `⋀ hyps ⇒ goal` by refuting `⋀ hyps ∧ ¬goal`.
    ///
    /// Equality goals over expensive operators (division, remainder,
    /// multiplication) first try a *congruence decomposition* fast path:
    /// `f(a…) = f(b…)` follows from the argument equalities, sparing the
    /// SAT core from proving two division circuits equivalent — the
    /// "dedicated lemmas" the paper wishes Z3 had for ISel's strength
    /// reductions (§4.7). The decomposition is sound but incomplete, so a
    /// failed fast path falls back to the monolithic query.
    pub fn prove_implies(
        &mut self,
        bank: &mut TermBank,
        hyps: &[TermId],
        goal: TermId,
    ) -> ProofOutcome {
        let mut refute =
            |bank: &mut TermBank, solver: &mut Self, assertions: &[TermId]| {
                // Refutation probes only ask "unsat?": a cached model-free
                // `Sat` answer is as good as a computed one.
                matches!(solver.check_sat_opts(bank, assertions, false), CheckOutcome::Unsat)
            };
        if prove_eq_by_congruence(bank, self, hyps, goal, 4, &mut refute) {
            return ProofOutcome::Proved;
        }
        let neg = bank.mk_not(goal);
        let mut assertions = hyps.to_vec();
        assertions.push(neg);
        match self.check_sat(bank, &assertions) {
            CheckOutcome::Unsat => ProofOutcome::Proved,
            CheckOutcome::Sat(m) => ProofOutcome::Refuted(m),
            CheckOutcome::Budget(k) => ProofOutcome::Budget(k),
        }
    }

    /// Proves `a ⇔ b` under shared hypotheses.
    pub fn prove_equiv(
        &mut self,
        bank: &mut TermBank,
        hyps: &[TermId],
        a: TermId,
        b: TermId,
    ) -> ProofOutcome {
        let goal = bank.mk_eq(a, b);
        self.prove_implies(bank, hyps, goal)
    }

    /// The §3 positive-form implication: prove `hyp ⇒ target` given that
    /// `target ∨ ⋁ siblings` is a tautology and `target` is disjoint from
    /// each sibling (both hold for path conditions of a deterministic
    /// transition system). Then `hyp ∧ ¬target` is equisatisfiable with
    /// `hyp ∧ ⋁ siblings`, which avoids negating `target`.
    pub fn prove_implies_positive(
        &mut self,
        bank: &mut TermBank,
        hyp: &[TermId],
        siblings: &[TermId],
    ) -> ProofOutcome {
        let disj = bank.mk_or(siblings.iter().copied());
        let mut assertions = hyp.to_vec();
        assertions.push(disj);
        match self.check_sat(bank, &assertions) {
            CheckOutcome::Unsat => ProofOutcome::Proved,
            CheckOutcome::Sat(m) => ProofOutcome::Refuted(m),
            CheckOutcome::Budget(k) => ProofOutcome::Budget(k),
        }
    }

    /// Convenience: is the conjunction of `assertions` satisfiable at all?
    /// Used to prune infeasible symbolic branches. Budget exhaustion is
    /// collapsed to `None`; callers that must classify the exhaustion
    /// (e.g. the Fig. 6 failure rows) use [`Solver::feasibility`].
    pub fn is_feasible(&mut self, bank: &mut TermBank, assertions: &[TermId]) -> Option<bool> {
        self.feasibility(bank, assertions).ok()
    }

    /// [`Solver::is_feasible`] preserving the budget kind on exhaustion,
    /// so a term-limit hit inside a feasibility query still classifies as
    /// the out-of-memory row rather than a conflict timeout.
    ///
    /// # Errors
    ///
    /// Returns the exhausted [`BudgetKind`] when the query ran out of
    /// budget before deciding satisfiability.
    pub fn feasibility(
        &mut self,
        bank: &mut TermBank,
        assertions: &[TermId],
    ) -> Result<bool, BudgetKind> {
        // The model is discarded: a cached model-free `Sat` may answer.
        match self.check_sat_opts(bank, assertions, false) {
            CheckOutcome::Sat(_) => Ok(true),
            CheckOutcome::Unsat => Ok(false),
            CheckOutcome::Budget(k) => Err(k),
        }
    }

    /// Opens an incremental session whose `prefix` conjunction is lowered,
    /// bit-blasted, and asserted **once**; every query through the session
    /// is answered under `prefix ∧ delta` with only the delta lowered per
    /// call. This is the paper's use of Z3's incremental interface: all of
    /// a sync point's obligations share `assumptions ∧ path(n1) ∧ path(n2)`
    /// prefixes, so re-asserting them per query wastes
    /// O(queries × prefix) work.
    ///
    /// The session borrows the solver exclusively (stats, budget, cache and
    /// cancellation are shared); it is tied to `bank` for its whole life —
    /// pass the *same* bank to every subsequent call.
    pub fn open_session<'s>(&'s mut self, bank: &mut TermBank, prefix: &[TermId]) -> Session<'s> {
        self.stats.sessions_opened += 1;
        keq_trace::emit(keq_trace::Event::SessionOpened { prefix_len: prefix.len() as u64 });
        // Normalize the prefix up front: every query key, fingerprint, and
        // lowered assertion derives from it. Cancellation mid-normalize
        // poisons the session the same way a prefix budget blowout does.
        let (prefix, poisoned) = if self.rewrite_disabled {
            (prefix.to_vec(), None)
        } else {
            match self.normalize_obligation(bank, prefix) {
                Ok(terms) => (terms, None),
                Err(_) => (prefix.to_vec(), Some(BudgetKind::WallClock)),
            }
        };
        let mut key_prefix = prefix.clone();
        key_prefix.sort_unstable();
        key_prefix.dedup();
        let mut session = Session {
            prefix: key_prefix,
            sat: SatSolver::new(),
            lowerer: Lowerer::new(),
            blast: BlastCache::new(),
            activation: HashMap::new(),
            hard_asserts: Vec::new(),
            state: match poisoned {
                Some(kind) => SessionState::Poisoned(kind),
                None => SessionState::Live,
            },
            solver: self,
        };
        if poisoned.is_none() {
            session.assert_prefix(bank, &prefix);
        }
        session
    }
}

/// How far a session got asserting its prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Prefix asserted; queries run incrementally.
    Live,
    /// The prefix alone is constant-false: every query answers `Unsat`
    /// without touching the SAT core.
    Unsat,
    /// Prefix lowering blew a budget; every query reports it.
    Poisoned(BudgetKind),
}

/// An incremental solving session: a shared prefix asserted once, per-query
/// deltas guarded behind activation literals, and persistent lowering/
/// bit-blasting memos ([`Lowerer`], [`BlastCache`]) plus one [`SatSolver`]
/// that retains its learnt clauses across queries.
///
/// Invariants (violating any is a logic error, not UB):
///
/// - one bank: every call must pass the same [`TermBank`] the session was
///   opened with — the memos key on its `TermId`s;
/// - activation literals are 1:1 with unique *lowered* delta assertions:
///   delta `d` gets a fresh SAT variable `a_d` and the hard clause
///   `¬a_d ∨ lit(d)`, and a query assumes exactly the `a_d` of its own
///   deltas. Unassumed activation variables are free, so stale deltas cost
///   nothing (their clauses are satisfiable by `a_d = false`);
/// - Ackermann side conditions from incremental lowering are hard-asserted
///   cumulatively (sound: the reduction stays equisatisfiable for any
///   superset of read pairs);
/// - learnt clauses persist across queries (sound: conflict analysis only
///   resolves over database clauses — assumptions are decisions, never
///   reasons — so every learnt clause is implied by the database alone).
#[derive(Debug)]
pub struct Session<'s> {
    solver: &'s mut Solver,
    /// Sorted, deduplicated prefix — the cache-key component.
    prefix: Vec<TermId>,
    sat: SatSolver,
    lowerer: Lowerer,
    blast: BlastCache,
    /// Unique lowered delta assertion → its activation literal.
    activation: HashMap<TermId, Lit>,
    /// Everything hard-asserted so far (lowered prefix + side conditions),
    /// kept for debug-mode model validation.
    hard_asserts: Vec<TermId>,
    state: SessionState,
}

impl<'s> Session<'s> {
    /// The session's (sorted, deduplicated) prefix.
    pub fn prefix(&self) -> &[TermId] {
        &self.prefix
    }

    /// Number of unique delta assertions guarded so far.
    pub fn guarded_deltas(&self) -> usize {
        self.activation.len()
    }

    fn assert_prefix(&mut self, bank: &mut TermBank, prefix: &[TermId]) {
        let mut live = Vec::with_capacity(prefix.len());
        for &a in prefix {
            debug_assert!(bank.sort(a).is_bool(), "prefix assertion must be boolean");
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => {
                    self.state = SessionState::Unsat;
                    return;
                }
                None => live.push(a),
            }
        }
        let max_terms = self.solver.budget.max_terms;
        let lowered = match self.lowerer.lower_incremental(bank, &live, max_terms) {
            Ok(l) => l,
            Err(_) => {
                self.state = SessionState::Poisoned(BudgetKind::Terms);
                return;
            }
        };
        let blasted_before = self.blast.terms_blasted();
        let reused_before = self.blast.terms_reused();
        let mut blaster = BitBlaster::new(bank, &mut self.sat, &mut self.blast);
        for &a in lowered.assertions.iter().chain(&lowered.side_conditions) {
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => {
                    self.state = SessionState::Unsat;
                    return;
                }
                None => {
                    blaster.assert_term(a);
                    self.hard_asserts.push(a);
                }
            }
        }
        self.solver.stats.terms_blasted += self.blast.terms_blasted() - blasted_before;
        self.solver.stats.terms_blast_reused += self.blast.terms_reused() - reused_before;
    }

    /// Checks satisfiability of `prefix ∧ delta`.
    ///
    /// Mirrors [`Solver::check_sat`]: same entry guard, same stats, same
    /// bounded cache (keyed on prefix+delta), budgeted outcomes never
    /// cached.
    pub fn check_sat(&mut self, bank: &mut TermBank, delta: &[TermId]) -> CheckOutcome {
        self.check_sat_opts(bank, delta, true)
    }

    /// [`Session::check_sat`] with the model requirement explicit — the
    /// session analogue of `Solver::check_sat_opts`.
    fn check_sat_opts(
        &mut self,
        bank: &mut TermBank,
        delta: &[TermId],
        needs_model: bool,
    ) -> CheckOutcome {
        let start = Instant::now();
        self.solver.stats.queries += 1;
        if let Some(forced) = self.solver.query_guard() {
            return forced;
        }
        let stats_before = self.solver.stats;
        match self.state {
            SessionState::Unsat => {
                self.solver.stats.unsat += 1;
                let outcome = CheckOutcome::Unsat;
                self.trace("session", &outcome, false, start, &stats_before);
                return outcome;
            }
            SessionState::Poisoned(k) => {
                self.solver.stats.budget += 1;
                let outcome = CheckOutcome::Budget(k);
                self.trace("session", &outcome, false, start, &stats_before);
                return outcome;
            }
            SessionState::Live => {}
        }
        // Normalize the delta before key construction (the prefix was
        // normalized at `open_session`); repeat deltas hit the rewriter's
        // memo and cost one hash lookup per root.
        let normalized: Vec<TermId>;
        let delta: &[TermId] = if self.solver.rewrite_disabled {
            delta
        } else {
            match self.solver.normalize_obligation(bank, delta) {
                Ok(terms) => {
                    normalized = terms;
                    &normalized
                }
                Err(outcome) => {
                    self.solver.stats.budget += 1;
                    self.solver.stats.time += start.elapsed();
                    self.trace("session", &outcome, false, start, &stats_before);
                    return outcome;
                }
            }
        };
        let key = QueryKey::new(&self.prefix, delta);
        if let Some(hit) = self.solver.cache.get(&key) {
            self.solver.stats.cache_hits += 1;
            let outcome = hit.clone();
            self.trace("session", &outcome, true, start, &stats_before);
            return outcome;
        }
        // Shared obligation cache: the fingerprint covers prefix ∧ delta,
        // so the session split matches any other way of posing the same
        // conjunction (including scratch queries and other functions'
        // sessions over isomorphic obligations).
        let (fp, shared_hit) = self.solver.shared_lookup(bank, &[&self.prefix, delta], needs_model);
        if let Some(verdict) = shared_hit {
            let outcome = match verdict {
                CachedVerdict::Unsat => {
                    // Model-free by nature: safe to memoize locally too.
                    self.solver.cache.insert(
                        key,
                        CheckOutcome::Unsat,
                        &mut self.solver.stats.cache_evictions,
                    );
                    self.solver.stats.unsat += 1;
                    CheckOutcome::Unsat
                }
                CachedVerdict::Sat => {
                    // The empty model must not enter the local memo: a
                    // later model-needing pose of the same key would be
                    // served a witness-free counterexample.
                    self.solver.stats.sat += 1;
                    CheckOutcome::Sat(Model::default())
                }
            };
            self.solver.stats.time += start.elapsed();
            self.trace("session", &outcome, true, start, &stats_before);
            return outcome;
        }
        let outcome = self.check_sat_inner(bank, delta);
        if !matches!(outcome, CheckOutcome::Budget(_)) {
            self.solver
                .cache
                .insert(key, outcome.clone(), &mut self.solver.stats.cache_evictions);
        }
        self.solver.shared_store(fp, &outcome);
        match &outcome {
            CheckOutcome::Sat(_) => self.solver.stats.sat += 1,
            CheckOutcome::Unsat => self.solver.stats.unsat += 1,
            CheckOutcome::Budget(_) => self.solver.stats.budget += 1,
        }
        self.solver.stats.time += start.elapsed();
        self.trace("session", &outcome, false, start, &stats_before);
        outcome
    }

    fn trace(
        &self,
        mode: &'static str,
        outcome: &CheckOutcome,
        cache_hit: bool,
        start: Instant,
        stats_before: &SolverStats,
    ) {
        trace_query(
            mode,
            outcome,
            cache_hit,
            start.elapsed(),
            &self.solver.stats.since(stats_before),
        );
    }

    fn check_sat_inner(&mut self, bank: &mut TermBank, delta: &[TermId]) -> CheckOutcome {
        let mut live = Vec::with_capacity(delta.len());
        for &a in delta {
            debug_assert!(bank.sort(a).is_bool(), "delta assertion must be boolean");
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => return CheckOutcome::Unsat,
                None => live.push(a),
            }
        }
        let lowered = {
            let _s = keq_trace::span(keq_trace::Phase::Lower);
            match self
                .lowerer
                .lower_incremental(bank, &live, self.solver.budget.max_terms)
            {
                Ok(l) => l,
                Err(_) => return CheckOutcome::Budget(BudgetKind::Terms),
            }
        };
        // From here on the query reuses the already-asserted prefix.
        self.solver.stats.prefix_hits += 1;
        self.solver.stats.clauses_retained += self.sat.learnt_clauses() as u64;
        let blasted_before = self.blast.terms_blasted();
        let reused_before = self.blast.terms_reused();
        let mut delta_lits: Vec<(TermId, Lit)> = Vec::new();
        {
            let _s = keq_trace::span(keq_trace::Phase::Blast);
            let mut blaster = BitBlaster::new(bank, &mut self.sat, &mut self.blast);
            // New Ackermann side conditions are facts about the session's
            // fresh read variables, valid for every query: hard-assert.
            for &sc in &lowered.side_conditions {
                debug_assert_ne!(bank.as_bool_const(sc), Some(false));
                if bank.as_bool_const(sc).is_none() {
                    blaster.assert_term(sc);
                    self.hard_asserts.push(sc);
                }
            }
            for &d in &lowered.assertions {
                match bank.as_bool_const(d) {
                    Some(true) => {}
                    Some(false) => return CheckOutcome::Unsat,
                    None => {
                        let l = blaster.lit(d);
                        delta_lits.push((d, l));
                    }
                }
            }
        }
        self.solver.stats.terms_blasted += self.blast.terms_blasted() - blasted_before;
        self.solver.stats.terms_blast_reused += self.blast.terms_reused() - reused_before;
        let mut assumptions: Vec<Lit> = Vec::with_capacity(delta_lits.len());
        let mut active_asserts: Vec<TermId> = Vec::with_capacity(delta_lits.len());
        for (d, l) in delta_lits {
            let act = match self.activation.get(&d) {
                Some(&a) => a,
                None => {
                    let a = Lit::pos(self.sat.new_var());
                    self.sat.add_clause(&[a.negate(), l]);
                    self.activation.insert(d, a);
                    a
                }
            };
            if !assumptions.contains(&act) {
                assumptions.push(act);
            }
            active_asserts.push(d);
        }
        let deadline = self.solver.budget.max_time.map(|d| Instant::now() + d);
        let conflicts_before = self.sat.conflicts();
        let restarts_before = self.sat.restarts();
        let lbd_kept_before = self.sat.lbd_kept();
        let cdcl_span = keq_trace::span(keq_trace::Phase::Cdcl);
        let outcome = self.sat.solve_under_assumptions(
            &assumptions,
            Some(self.solver.budget.max_conflicts),
            deadline,
            self.solver.cancel.as_ref(),
        );
        cdcl_span.done();
        self.solver.stats.conflicts += self.sat.conflicts() - conflicts_before;
        self.solver.stats.restarts += self.sat.restarts() - restarts_before;
        self.solver.stats.lbd_kept += self.sat.lbd_kept() - lbd_kept_before;
        match outcome {
            SatOutcome::Unsat => CheckOutcome::Unsat,
            SatOutcome::Budget(kind) => CheckOutcome::Budget(match kind {
                SatBudget::Conflicts => BudgetKind::Conflicts,
                SatBudget::Deadline => BudgetKind::WallClock,
            }),
            SatOutcome::Sat(bits) => {
                let (model, asg) =
                    extract_model(bank, self.blast.var_bits(), self.blast.bool_vars(), &bits);
                // Validate against everything hard-asserted plus this
                // query's active deltas. Inactive deltas from earlier
                // queries are excluded by construction: their activation
                // variables were not assumed, so the model need not (and
                // may not) satisfy them.
                for &a in self.hard_asserts.iter().chain(&active_asserts) {
                    debug_assert_eq!(
                        eval(bank, a, &asg),
                        Value::Bool(true),
                        "model does not satisfy session assertion {}",
                        bank.display(a)
                    );
                }
                CheckOutcome::Sat(model)
            }
        }
    }

    /// Session analogue of [`Solver::prove_implies`]: proves
    /// `prefix ∧ ⋀ hyps ⇒ goal`, with the same congruence fast path.
    pub fn prove_implies(
        &mut self,
        bank: &mut TermBank,
        hyps: &[TermId],
        goal: TermId,
    ) -> ProofOutcome {
        let mut refute = |bank: &mut TermBank, sess: &mut Self, assertions: &[TermId]| {
            // Refutation probes only ask "unsat?": a cached model-free
            // `Sat` answer is as good as a computed one.
            matches!(sess.check_sat_opts(bank, assertions, false), CheckOutcome::Unsat)
        };
        if prove_eq_by_congruence(bank, self, hyps, goal, 4, &mut refute) {
            return ProofOutcome::Proved;
        }
        let neg = bank.mk_not(goal);
        let mut assertions = hyps.to_vec();
        assertions.push(neg);
        match self.check_sat(bank, &assertions) {
            CheckOutcome::Unsat => ProofOutcome::Proved,
            CheckOutcome::Sat(m) => ProofOutcome::Refuted(m),
            CheckOutcome::Budget(k) => ProofOutcome::Budget(k),
        }
    }

    /// Session analogue of [`Solver::prove_implies_positive`] (§3
    /// positive-form query), under the session prefix.
    pub fn prove_implies_positive(
        &mut self,
        bank: &mut TermBank,
        hyp: &[TermId],
        siblings: &[TermId],
    ) -> ProofOutcome {
        let disj = bank.mk_or(siblings.iter().copied());
        let mut assertions = hyp.to_vec();
        assertions.push(disj);
        match self.check_sat(bank, &assertions) {
            CheckOutcome::Unsat => ProofOutcome::Proved,
            CheckOutcome::Sat(m) => ProofOutcome::Refuted(m),
            CheckOutcome::Budget(k) => ProofOutcome::Budget(k),
        }
    }

    /// Session analogue of [`Solver::prove_equiv`].
    pub fn prove_equiv(
        &mut self,
        bank: &mut TermBank,
        hyps: &[TermId],
        a: TermId,
        b: TermId,
    ) -> ProofOutcome {
        let goal = bank.mk_eq(a, b);
        self.prove_implies(bank, hyps, goal)
    }

    /// Session analogue of [`Solver::feasibility`]: is `prefix ∧ delta`
    /// satisfiable?
    ///
    /// # Errors
    ///
    /// Returns the exhausted [`BudgetKind`] when the query ran out of
    /// budget before deciding satisfiability.
    pub fn feasibility(
        &mut self,
        bank: &mut TermBank,
        delta: &[TermId],
    ) -> Result<bool, BudgetKind> {
        // The model is discarded: a cached model-free `Sat` may answer.
        match self.check_sat_opts(bank, delta, false) {
            CheckOutcome::Sat(_) => Ok(true),
            CheckOutcome::Unsat => Ok(false),
            CheckOutcome::Budget(k) => Err(k),
        }
    }

    /// Session analogue of [`Solver::is_feasible`].
    pub fn is_feasible(&mut self, bank: &mut TermBank, delta: &[TermId]) -> Option<bool> {
        self.feasibility(bank, delta).ok()
    }
}

/// Emits one [`keq_trace::Event::SolverQuery`] for a completed query.
/// `delta` is the `SolverStats::since` difference attributable to this
/// query alone. One branch and no allocation when tracing is disabled.
fn trace_query(
    mode: &'static str,
    outcome: &CheckOutcome,
    cache_hit: bool,
    dur: Duration,
    delta: &SolverStats,
) {
    if !keq_trace::enabled() {
        return;
    }
    keq_trace::emit(keq_trace::Event::SolverQuery {
        mode,
        outcome: match outcome {
            CheckOutcome::Sat(_) => "sat",
            CheckOutcome::Unsat => "unsat",
            CheckOutcome::Budget(_) => "budget",
        },
        cache_hit,
        dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        conflicts: delta.conflicts,
        terms_blasted: delta.terms_blasted,
        terms_blast_reused: delta.terms_blast_reused,
        prefix_hits: delta.prefix_hits,
        clauses_retained: delta.clauses_retained,
        cache_evictions: delta.cache_evictions,
    });
}

/// Decodes a SAT model into named values plus an [`Assignment`] usable for
/// `eval`-based validation. Internal variable names (containing `!`) are
/// kept in the assignment but dropped from the user-facing model.
fn extract_model(
    bank: &TermBank,
    var_bits: &HashMap<crate::term::VarId, Vec<Lit>>,
    bool_vars: &HashMap<crate::term::VarId, Lit>,
    bits: &[bool],
) -> (Model, Assignment) {
    let mut asg = Assignment::new();
    let mut entries = Vec::new();
    for (&v, lits) in var_bits {
        let mut value = 0u128;
        for (i, l) in lits.iter().enumerate() {
            if bits[l.var().0 as usize] == l.is_pos() {
                value |= 1 << i;
            }
        }
        let (name, sort) = bank.var(v);
        let width = sort.width().expect("bitvector var");
        asg.set(v, Value::bv(width, value));
        entries.push((name.to_owned(), Value::bv(width, value)));
    }
    for (&v, l) in bool_vars {
        let b = bits[l.var().0 as usize] == l.is_pos();
        let (name, _) = bank.var(v);
        asg.set(v, Value::Bool(b));
        entries.push((name.to_owned(), Value::Bool(b)));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.retain(|(name, _)| !name.contains('!'));
    (Model { entries }, asg)
}

/// Congruence fast path shared by [`Solver::prove_implies`] and
/// [`Session::prove_implies`]: `f(a…) = f(b…)` follows from the argument
/// equalities, sparing the SAT core from proving two expensive circuits
/// equivalent. `refute` must answer "is this assertion set unsatisfiable
/// (together with the caller's ambient prefix)?" — sound but incomplete,
/// so a `false` answer only means "fall back to the monolithic query".
fn prove_eq_by_congruence<C>(
    bank: &mut TermBank,
    ctx: &mut C,
    hyps: &[TermId],
    goal: TermId,
    depth: u32,
    refute: &mut dyn FnMut(&mut TermBank, &mut C, &[TermId]) -> bool,
) -> bool {
    if depth == 0 {
        return false;
    }
    let node = bank.node(goal).clone();
    if node.op != Op::Eq {
        return false;
    }
    let (a, b) = (node.args[0], node.args[1]);
    if a == b {
        return true;
    }
    let na = bank.node(a).clone();
    let nb = bank.node(b).clone();
    // Only worth decomposing when an expensive circuit lurks inside;
    // otherwise the monolithic query is cheap and more complete.
    if na.op != nb.op
        || na.args.len() != nb.args.len()
        || na.args.is_empty()
        || matches!(na.op, Op::Select | Op::Store | Op::Ite)
        || !contains_expensive(bank, a)
    {
        return false;
    }
    for (&x, &y) in na.args.iter().zip(&nb.args) {
        // Width-parameterised ops (extract, extensions) can share an op
        // while taking differently-sorted arguments; positional pairing
        // is meaningless there, so leave it to the monolithic query.
        if bank.sort(x) != bank.sort(y) {
            return false;
        }
        let eq = bank.mk_eq(x, y);
        if bank.as_bool_const(eq) == Some(true) {
            continue;
        }
        let sub_ok = prove_eq_by_congruence(bank, ctx, hyps, eq, depth - 1, refute) || {
            let neg = bank.mk_not(eq);
            let mut assertions = hyps.to_vec();
            assertions.push(neg);
            refute(bank, ctx, &assertions)
        };
        if !sub_ok {
            return false;
        }
    }
    true
}

/// Returns `true` if `t` contains a multiplication/division subterm (the
/// operators whose circuit-equivalence queries are hard for the SAT core).
fn contains_expensive(bank: &TermBank, root: TermId) -> bool {
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        let node = bank.node(t);
        match node.op {
            Op::BvUdiv | Op::BvUrem | Op::BvSdiv | Op::BvSrem => return true,
            // A multiplication by a constant bit-blasts to cheap shift-adds.
            Op::BvMul
                if bank.as_bv_const(node.args[0]).is_none()
                    && bank.as_bv_const(node.args[1]).is_none() =>
            {
                return true
            }
            _ => {}
        }
        stack.extend(node.args.iter().copied());
    }
    false
}

/// Returns `true` if `t` mentions any memory-sorted subterm (diagnostics).
pub fn mentions_memory(bank: &TermBank, root: TermId) -> bool {
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        if bank.sort(t) == Sort::Memory || matches!(bank.node(t).op, Op::Select | Op::Store) {
            return true;
        }
        stack.extend(bank.node(t).args.iter().copied());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn prove_simple_arith_identity() {
        // x + y = y + x (trivially true by normalization, but go via SAT too)
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let l = bank.mk_bvadd(x, y);
        let r = bank.mk_bvadd(y, x);
        assert!(solver().prove_equiv(&mut bank, &[], l, r).is_proved());
    }

    #[test]
    fn prove_sub_self_is_zero() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(16));
        let y = bank.mk_var("y", Sort::BitVec(16));
        // (x + y) - y = x — requires real bit-level reasoning.
        let s = bank.mk_bvadd(x, y);
        let d = bank.mk_bvsub(s, y);
        assert!(solver().prove_equiv(&mut bank, &[], d, x).is_proved());
    }

    #[test]
    fn refute_wrong_identity() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let one = bank.mk_bv(8, 1);
        let xp1 = bank.mk_bvadd(x, one);
        match solver().prove_equiv(&mut bank, &[], xp1, x) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn counterexample_model_is_meaningful() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c = bank.mk_bv(8, 42);
        let claim = bank.mk_ne(x, c); // not valid: x = 42 refutes
        match solver().prove_implies(&mut bank, &[], claim) {
            ProofOutcome::Refuted(m) => {
                assert_eq!(m.get("x"), Some(&Value::bv(8, 42)));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn mul_by_power_of_two_is_shift() {
        // The paper's "challenging validations" §4.7: strength reductions.
        // x * 8 = x << 3 must be provable.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(32));
        let eight = bank.mk_bv(32, 8);
        let three = bank.mk_bv(32, 3);
        let m = bank.mk_bvmul(x, eight);
        let s = bank.mk_bvshl(x, three);
        assert!(solver().prove_equiv(&mut bank, &[], m, s).is_proved());
    }

    #[test]
    fn signed_comparison_vs_subtraction_flags() {
        // The running example's path-condition equivalence (paper §3):
        // i < n  ⇔  i - n <s 0 is NOT valid (overflow), but
        // i <u n ⇔ (i - n) produces borrow — check a valid variant:
        // (i <s n) ⇔ (i - n <s 0) given no signed overflow in i - n.
        let mut bank = TermBank::new();
        let i = bank.mk_var("i", Sort::BitVec(32));
        let n = bank.mk_var("n", Sort::BitVec(32));
        let lt = bank.mk_bvslt(i, n);
        let diff = bank.mk_bvsub(i, n);
        let zero = bank.mk_bv(32, 0);
        let diff_neg = bank.mk_bvslt(diff, zero);
        // Without the no-overflow hypothesis this is refutable:
        match solver().prove_equiv(&mut bank, &[], lt, diff_neg) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
        // With both operands' sign bits equal (no overflow possible), valid:
        let sign_i = bank.mk_bvslt(i, zero);
        let sign_n = bank.mk_bvslt(n, zero);
        let same_sign = bank.mk_eq(sign_i, sign_n);
        assert!(solver()
            .prove_equiv(&mut bank, &[same_sign], lt, diff_neg)
            .is_proved());
    }

    #[test]
    fn unsigned_compare_matches_sub_borrow() {
        // i <u n ⇔ i - n wraps (i.e. i - n >u i when n != 0)... use the
        // simpler, actually-used form: i <u n ⇔ ¬(n <=u i).
        let mut bank = TermBank::new();
        let i = bank.mk_var("i", Sort::BitVec(16));
        let n = bank.mk_var("n", Sort::BitVec(16));
        let a = bank.mk_bvult(i, n);
        let le = bank.mk_bvule(n, i);
        let b = bank.mk_not(le);
        assert!(solver().prove_equiv(&mut bank, &[], a, b).is_proved());
    }

    #[test]
    fn memory_writes_commute_iff_disjoint() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let v1 = bank.mk_bv(8, 1);
        let v2 = bank.mk_bv(8, 2);
        let m_ij = {
            let t = bank.mk_store(mem, i, v1);
            bank.mk_store(t, j, v2)
        };
        let m_ji = {
            let t = bank.mk_store(mem, j, v2);
            bank.mk_store(t, i, v1)
        };
        let probe = bank.mk_var("p", Sort::BitVec(64));
        let r1 = bank.mk_select(m_ij, probe);
        let r2 = bank.mk_select(m_ji, probe);
        let distinct = bank.mk_ne(i, j);
        // Disjoint writes commute:
        assert!(solver().prove_equiv(&mut bank, &[distinct], r1, r2).is_proved());
        // Overlapping writes do not:
        match solver().prove_equiv(&mut bank, &[], r1, r2) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn positive_form_query_proves_branch_implication() {
        // Deterministic branch: target φ₂ = (x < 10), sibling φ₂' = ¬(x < 10).
        // To prove φ₁ ⇒ φ₂ with φ₁ = (x < 5): check unsat(φ₁ ∧ φ₂').
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let five = bank.mk_bv(8, 5);
        let ten = bank.mk_bv(8, 10);
        let phi1 = bank.mk_bvult(x, five);
        let phi2 = bank.mk_bvult(x, ten);
        let sibling = bank.mk_not(phi2);
        assert!(solver()
            .prove_implies_positive(&mut bank, &[phi1], &[sibling])
            .is_proved());
    }

    #[test]
    fn budget_trips_on_hard_multiplication() {
        // Factoring-flavored query: x * y = C for 24-bit x, y with tiny
        // conflict budget should exhaust.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(28));
        let y = bank.mk_var("y", Sort::BitVec(28));
        let prod = bank.mk_bvmul(x, y);
        let c = bank.mk_bv(28, 0x0c32_1175); // product of two large primes
        let eq = bank.mk_eq(prod, c);
        let one = bank.mk_bv(28, 1);
        let x_big = bank.mk_bvult(one, x);
        let y_big = bank.mk_bvult(one, y);
        let mut s = Solver::with_budget(Budget { max_conflicts: 5, max_terms: 1_000_000, max_time: None });
        match s.check_sat(&mut bank, &[eq, x_big, y_big]) {
            CheckOutcome::Budget(BudgetKind::Conflicts) => {}
            CheckOutcome::Sat(_) => {} // found fast — acceptable on some orderings
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut bank = TermBank::new();
        let mut s = solver();
        let t = bank.mk_true();
        let f = bank.mk_false();
        assert_eq!(s.check_sat(&mut bank, &[t]), CheckOutcome::Sat(Model::default()));
        assert_eq!(s.check_sat(&mut bank, &[f]), CheckOutcome::Unsat);
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().sat, 1);
        assert_eq!(s.stats().unsat, 1);
    }

    #[test]
    fn division_circuit_correct_on_samples() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        // Validity: y != 0 ⇒ (x / y) * y + (x % y) = x
        let zero = bank.mk_bv(8, 0);
        let nz = bank.mk_ne(y, zero);
        let q = bank.mk_bvudiv(x, y);
        let r = bank.mk_bvurem(x, y);
        let qy = bank.mk_bvmul(q, y);
        let sum = bank.mk_bvadd(qy, r);
        let goal = bank.mk_eq(sum, x);
        assert!(solver().prove_implies(&mut bank, &[nz], goal).is_proved());
    }

    #[test]
    fn sdiv_lowered_and_proved() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        // x sdiv 1 = x
        let one = bank.mk_bv(8, 1);
        let d = bank.mk_bvsdiv(x, one);
        assert!(solver().prove_equiv(&mut bank, &[], d, x).is_proved());
    }

    #[test]
    fn session_queries_agree_with_scratch() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let ten = bank.mk_bv(8, 10);
        let five = bank.mk_bv(8, 5);
        let prefix = vec![bank.mk_bvult(x, ten), bank.mk_bvult(y, x)];

        // Deltas: feasible, infeasible, and a proof obligation.
        let d_feasible = bank.mk_bvult(y, five);
        let big = bank.mk_bv(8, 200);
        let d_infeasible = bank.mk_bvult(big, y);
        let goal = bank.mk_bvult(y, ten); // prefix ⇒ y < 10

        let mut s = solver();
        let mut session = s.open_session(&mut bank, &prefix);
        assert_eq!(session.is_feasible(&mut bank, &[d_feasible]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[d_infeasible]), Some(false));
        assert!(session.prove_implies(&mut bank, &[], goal).is_proved());
        drop(session);

        let mut scratch = solver();
        let mut conj = prefix.clone();
        conj.push(d_feasible);
        assert_eq!(scratch.is_feasible(&mut bank, &conj), Some(true));
        let mut conj = prefix.clone();
        conj.push(d_infeasible);
        assert_eq!(scratch.is_feasible(&mut bank, &conj), Some(false));
        let hyps = prefix.clone();
        assert!(scratch.prove_implies(&mut bank, &hyps, goal).is_proved());

        // The session must have reused the prefix and blasted fewer terms.
        let st = s.stats();
        assert_eq!(st.sessions_opened, 1);
        assert!(st.prefix_hits >= 2, "prefix_hits = {}", st.prefix_hits);
        assert!(
            st.terms_blasted < scratch.stats().terms_blasted,
            "session blasted {} >= scratch {}",
            st.terms_blasted,
            scratch.stats().terms_blasted
        );
    }

    #[test]
    fn session_repeated_delta_hits_cache() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c = bank.mk_bv(8, 3);
        let prefix = vec![bank.mk_bvult(c, x)];
        let c200 = bank.mk_bv(8, 200);
        let delta = bank.mk_bvult(x, c200);
        let mut s = solver();
        let mut session = s.open_session(&mut bank, &prefix);
        assert_eq!(session.is_feasible(&mut bank, &[delta]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[delta]), Some(true));
        drop(session);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn session_with_unsat_prefix_answers_unsat() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let zero = bank.mk_bv(8, 0);
        let prefix = vec![bank.mk_bvult(x, zero)]; // x <u 0: unsatisfiable
        let anything = bank.mk_eq(x, zero);
        let mut s = solver();
        let mut session = s.open_session(&mut bank, &prefix);
        assert_eq!(session.check_sat(&mut bank, &[anything]), CheckOutcome::Unsat);
        assert_eq!(session.check_sat(&mut bank, &[]), CheckOutcome::Unsat);
    }

    #[test]
    fn session_memory_reads_accumulate_ackermann_soundly() {
        // Two queries over the same base memory, each introducing a read;
        // the cross-query congruence pair must still be in force.
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let ri = bank.mk_select(mem, i);
        let rj = bank.mk_select(mem, j);
        let idx_eq = bank.mk_eq(i, j);
        let val_ne = bank.mk_ne(ri, rj);
        let mut s = solver();
        let mut session = s.open_session(&mut bank, &[idx_eq]);
        // First query introduces read(m, i) only.
        let zero8 = bank.mk_bv(8, 0);
        let ri_zero = bank.mk_eq(ri, zero8);
        assert_eq!(session.is_feasible(&mut bank, &[ri_zero]), Some(true));
        // Second query introduces read(m, j); with i = j in the prefix the
        // Ackermann pair forces r_i = r_j, so r_i ≠ r_j must be infeasible.
        assert_eq!(session.is_feasible(&mut bank, &[val_ne]), Some(false));
    }

    #[test]
    fn session_budget_outcomes_not_cached_and_warm_start_recovers() {
        // A hard query under a tiny conflict budget, then the same query
        // after raising the budget on the same solver: the budgeted outcome
        // must not be cached, and the retry must succeed warm.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(28));
        let y = bank.mk_var("y", Sort::BitVec(28));
        let prod = bank.mk_bvmul(x, y);
        let c = bank.mk_bv(28, 0x0c32_1175);
        let eq = bank.mk_eq(prod, c);
        let one = bank.mk_bv(28, 1);
        let x_big = bank.mk_bvult(one, x);
        let y_big = bank.mk_bvult(one, y);
        let mut s = Solver::with_budget(Budget {
            max_conflicts: 5,
            max_terms: 1_000_000,
            max_time: None,
        });
        let mut session = s.open_session(&mut bank, &[x_big, y_big]);
        let first = session.check_sat(&mut bank, &[eq]);
        drop(session);
        if matches!(first, CheckOutcome::Budget(_)) {
            s.set_budget(Budget::default());
            let mut session = s.open_session(&mut bank, &[x_big, y_big]);
            match session.check_sat(&mut bank, &[eq]) {
                CheckOutcome::Sat(_) | CheckOutcome::Unsat => {}
                other => panic!("retry under full budget still budgeted: {other:?}"),
            }
        }
    }

    #[test]
    fn query_cache_eviction_is_bounded_and_counted() {
        let mut bank = TermBank::new();
        let mut s = solver();
        s.cache.max_entries = 8;
        let x = bank.mk_var("x", Sort::BitVec(8));
        for k in 0..32u128 {
            let c = bank.mk_bv(8, k);
            let a = bank.mk_bvult(c, x);
            let _ = s.check_sat(&mut bank, &[a]);
        }
        assert!(s.cached_queries() <= 8, "cache grew to {}", s.cached_queries());
        assert!(s.stats().cache_evictions >= 24 - 8, "evictions = {}", s.stats().cache_evictions);
    }

    #[test]
    fn scratch_and_session_caches_are_keyed_apart() {
        // prefix=[p], delta=[d] and prefix=[], delta=[p, d] are the same
        // conjunction but different keys; both must answer identically.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c10 = bank.mk_bv(8, 10);
        let c3 = bank.mk_bv(8, 3);
        let p = bank.mk_bvult(x, c10);
        let d = bank.mk_bvult(c3, x);
        let mut s = solver();
        let mut session = s.open_session(&mut bank, &[p]);
        let via_session = session.check_sat(&mut bank, &[d]);
        drop(session);
        let via_scratch = s.check_sat(&mut bank, &[p, d]);
        assert!(matches!(via_session, CheckOutcome::Sat(_)));
        assert!(matches!(via_scratch, CheckOutcome::Sat(_)));
        assert_eq!(s.stats().cache_hits, 0, "distinct keys must not collide");
    }
}
