//! A CDCL SAT solver.
//!
//! This is the decision engine at the bottom of the solver pipeline,
//! standing in for Z3's boolean core: conflict-driven clause learning with
//! two-watched-literal propagation, 1UIP conflict analysis with recursive
//! clause minimization, VSIDS-style variable activity, phase saving, Luby
//! restarts, and learnt-clause database reduction.
//!
//! The solver is deterministic: identical inputs produce identical
//! search behavior, which keeps the experiment harnesses reproducible.

use std::fmt;

use crate::cancel::{stop_requested, CancelToken};

/// A boolean variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(pub u32);

/// A literal: a variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    pub fn new(v: BVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// `true` if the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "-x{}", self.var().0)
        }
    }
}

/// Tri-state assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Outcome of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the vector gives one value per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// A resource limit was hit before a verdict.
    Budget(SatBudget),
}

/// Which limit stopped the search. Conflict exhaustion and wall-clock
/// expiry are *different* failure classes downstream (the paper's timeout
/// rows distinguish them), so the solver must not conflate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatBudget {
    /// The per-call conflict budget ran out.
    Conflicts,
    /// The wall-clock deadline elapsed or cancellation was requested.
    Deadline,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    /// Literal-block distance at learn time: the number of distinct
    /// decision levels in the clause when it was derived. Glue clauses
    /// (LBD ≤ 2) chain propagations between exactly two levels and are
    /// exempt from database reduction. Zero for problem clauses.
    lbd: u32,
}

type ClauseRef = usize;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Max-heap over variables ordered by activity, with position index for
/// O(log n) updates.
#[derive(Debug, Default, Clone)]
struct VarOrder {
    heap: Vec<BVar>,
    position: Vec<Option<usize>>,
}

impl VarOrder {
    fn grow(&mut self, nvars: usize) {
        self.position.resize(nvars, None);
    }

    fn contains(&self, v: BVar) -> bool {
        self.position[v.0 as usize].is_some()
    }

    fn push(&mut self, v: BVar, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.position[v.0 as usize] = Some(self.heap.len());
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<BVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("nonempty");
        self.position[top.0 as usize] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last.0 as usize] = Some(0);
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn bump(&mut self, v: BVar, activity: &[f64]) {
        if let Some(pos) = self.position[v.0 as usize] {
            self.sift_up(pos, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].0 as usize] <= activity[self.heap[parent].0 as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].0 as usize] > activity[self.heap[best].0 as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].0 as usize] > activity[self.heap[best].0 as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.position[self.heap[i].0 as usize] = Some(i);
        self.position[self.heap[j].0 as usize] = Some(j);
    }
}

/// The CDCL solver.
#[derive(Debug, Clone)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    values: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarOrder,
    seen: Vec<bool>,
    ok: bool,
    num_learnt: usize,
    conflicts: u64,
    restarts: u64,
    lbd_kept: u64,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrder::default(),
            seen: Vec::new(),
            ok: true,
            num_learnt: 0,
            conflicts: 0,
            restarts: 0,
            lbd_kept: 0,
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Total conflicts encountered over the solver's lifetime.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total restarts taken over the solver's lifetime.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Cumulative count of glue clauses (learn-time LBD ≤ 2) that database
    /// reductions exempted from deletion.
    pub fn lbd_kept(&self) -> u64 {
        self.lbd_kept
    }

    /// Number of learnt clauses currently retained in the database.
    ///
    /// Incremental sessions use this to report how much derived knowledge
    /// survives between queries (the paper's Z3 backend gets the same
    /// effect from `push`/`pop`-free assumption solving).
    pub fn learnt_clauses(&self) -> usize {
        self.num_learnt
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.values.len()).expect("too many SAT vars"));
        self.values.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.values.len());
        self.order.push(v, &self.activity);
        v
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.values[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_pos() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_pos() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    /// Adds a clause; returns `false` if the formula became trivially unsat.
    ///
    /// Clauses may be added only at decision level zero (i.e., before
    /// [`SatSolver::solve`] or between calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology or satisfied/falsified literal handling at level 0.
        let mut out = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == l.negate() {
                return true; // tautology: l ∨ ¬l
            }
            match self.value_lit(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(out, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        self.watches[lits[0].negate().index()].push(Watcher { cref, blocker: lits[1] });
        self.watches[lits[1].negate().index()].push(Watcher { cref, blocker: lits[0] });
        if learnt {
            self.num_learnt += 1;
        }
        self.clauses.push(Clause { lits, learnt, activity: 0.0, lbd });
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.values[v] = LBool::from_bool(l.is_pos());
        self.phase[v] = l.is_pos();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Two-watched-literal unit propagation; returns a conflicting clause.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.propagate_head < self.trail.len() {
            let p = self.trail[self.propagate_head];
            self.propagate_head += 1;
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                let false_lit = p.negate();
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lk.negate().index()].push(Watcher { cref, blocker: first });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: copy remaining watchers back and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: BVar) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        self.clauses[cref].activity += self.clause_inc;
        if self.clauses[cref].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// 1UIP conflict analysis; returns (learnt clause, backtrack level,
    /// learn-time LBD). The LBD must be computed here — after backtracking
    /// the `level` array no longer reflects the levels the clause was
    /// derived under.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        loop {
            self.bump_clause(cref);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cref].lits.len() {
                let q = self.clauses[cref].lits[k];
                let v = q.var().0 as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found literal").var().0 as usize;
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("asserting literal").negate();
                break;
            }
            cref = self.reason[pv].expect("non-decision literal has a reason");
        }
        // Recursive minimization: drop literals implied by the rest.
        let keep: Vec<Lit> =
            learnt[1..].iter().copied().filter(|&l| !self.literal_redundant(l)).collect();
        for &l in &learnt[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        let mut out = vec![learnt[0]];
        out.extend(keep);
        // Backtrack level: second-highest level in the clause.
        let bt = if out.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..out.len() {
                if self.level[out[i].var().0 as usize] > self.level[out[max_i].var().0 as usize] {
                    max_i = i;
                }
            }
            out.swap(1, max_i);
            self.level[out[1].var().0 as usize]
        };
        let mut levels: Vec<u32> = out.iter().map(|l| self.level[l.var().0 as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        (out, bt, lbd)
    }

    /// Checks whether `l` is implied by the other seen literals (bounded
    /// non-recursive DFS over reasons).
    fn literal_redundant(&mut self, l: Lit) -> bool {
        let Some(mut cref) = self.reason[l.var().0 as usize] else {
            return false;
        };
        let mut stack: Vec<(ClauseRef, usize)> = vec![(cref, 1)];
        let mut touched: Vec<BVar> = Vec::new();
        let mut depth_guard = 0;
        while let Some((c, mut k)) = stack.pop() {
            depth_guard += 1;
            if depth_guard > 10_000 {
                for v in touched {
                    self.seen[v.0 as usize] = false;
                }
                return false;
            }
            cref = c;
            while k < self.clauses[cref].lits.len() {
                let q = self.clauses[cref].lits[k];
                k += 1;
                let v = q.var();
                let vi = v.0 as usize;
                if self.seen[vi] || self.level[vi] == 0 {
                    continue;
                }
                match self.reason[vi] {
                    Some(r) => {
                        self.seen[vi] = true;
                        touched.push(v);
                        stack.push((cref, k));
                        stack.push((r, 1));
                        break;
                    }
                    None => {
                        // Reached a decision not in the learnt clause: keep l.
                        for v in touched {
                            self.seen[v.0 as usize] = false;
                        }
                        return false;
                    }
                }
            }
        }
        // Leave `touched` marked: they are redundant support and marking them
        // seen lets later redundancy checks terminate faster; they are
        // cleared wholesale in `analyze` only for clause literals, so clear
        // here to stay precise.
        for v in touched {
            self.seen[v.0 as usize] = false;
        }
        true
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.values[v.0 as usize] = LBool::Undef;
            self.reason[v.0 as usize] = None;
            self.order.push(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.propagate_head = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.values[v.0 as usize] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.0 as usize]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Remove the less active half of learnt clauses that are not
        // reasons. Glue clauses (learn-time LBD ≤ 2) are kept
        // unconditionally: they bridge exactly two decision levels and are
        // the clauses most likely to propagate again; among the rest the
        // tie-break stays activity, as before.
        self.lbd_kept +=
            self.clauses.iter().filter(|c| c.learnt && c.lits.len() > 2 && c.lbd <= 2).count()
                as u64;
        let mut learnt: Vec<(f64, ClauseRef)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > 2 && c.lbd > 2)
            .map(|(i, c)| (c.activity, i))
            .collect();
        if learnt.len() < 2 {
            return;
        }
        learnt.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let locked: std::collections::HashSet<usize> =
            self.reason.iter().filter_map(|r| *r).collect();
        let mut to_remove = Vec::new();
        for &(_, cref) in learnt.iter().take(learnt.len() / 2) {
            if !locked.contains(&cref) {
                to_remove.push(cref);
            }
        }
        if to_remove.is_empty() {
            return;
        }
        let removed: std::collections::HashSet<usize> = to_remove.iter().copied().collect();
        // Rebuild clause arena and remap references.
        let mut remap: Vec<Option<usize>> = vec![None; self.clauses.len()];
        let mut new_clauses = Vec::with_capacity(self.clauses.len() - removed.len());
        for (i, c) in self.clauses.drain(..).enumerate() {
            if removed.contains(&i) {
                continue;
            }
            remap[i] = Some(new_clauses.len());
            new_clauses.push(c);
        }
        self.clauses = new_clauses;
        self.num_learnt -= removed.len();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match remap[w.cref] {
                Some(n) => {
                    w.cref = n;
                    true
                }
                None => false,
            });
        }
        for r in &mut self.reason {
            if let Some(old) = *r {
                *r = remap[old];
            }
        }
    }

    /// Solves the formula under an optional conflict budget.
    pub fn solve(&mut self, max_conflicts: Option<u64>) -> SatOutcome {
        self.solve_with_limits(max_conflicts, None, None)
    }

    /// Solves with an additional wall-clock deadline.
    pub fn solve_with_deadline(
        &mut self,
        max_conflicts: Option<u64>,
        deadline: Option<std::time::Instant>,
    ) -> SatOutcome {
        self.solve_with_limits(max_conflicts, deadline, None)
    }

    /// Solves under a conflict budget, a wall-clock deadline, and a
    /// cooperative cancellation token.
    ///
    /// The deadline/cancellation pair is polled on *both* kinds of search
    /// progress: every [`CONFLICT_POLL_INTERVAL`] conflicts and every
    /// [`DECISION_POLL_INTERVAL`] decisions. Polling decisions matters on
    /// near-satisfiable instances that propagate for a long time without
    /// ever conflicting — with conflict-only polling those would sail past
    /// any deadline. An already-expired deadline is reported before the
    /// search takes a single decision.
    pub fn solve_with_limits(
        &mut self,
        max_conflicts: Option<u64>,
        deadline: Option<std::time::Instant>,
        cancel: Option<&CancelToken>,
    ) -> SatOutcome {
        self.solve_under_assumptions(&[], max_conflicts, deadline, cancel)
    }

    /// Solves the formula under a set of *assumption literals* (MiniSat
    /// style): each assumption is decided on its own decision level before
    /// any free decision, so an `Unsat` answer means "unsatisfiable
    /// together with the assumptions" and does **not** poison the solver —
    /// the clause database, including everything learnt during the call,
    /// is retained and the next call may assume a different set.
    ///
    /// This is the engine under [`crate::solver::Session`]: a session
    /// asserts its shared prefix as hard clauses once, guards each query's
    /// delta behind a fresh activation literal, and solves assuming the
    /// activation literals of the current query only. Learnt clauses are
    /// sound to keep across calls because conflict analysis only resolves
    /// over database clauses — assumptions enter as decisions, never as
    /// reasons.
    ///
    /// Budget, deadline, and cancellation polling behave exactly as in
    /// [`SatSolver::solve_with_limits`].
    ///
    /// # Panics
    ///
    /// Panics if an assumption literal names a variable that was never
    /// allocated with [`SatSolver::new_var`].
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
        deadline: Option<std::time::Instant>,
        cancel: Option<&CancelToken>,
    ) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SatOutcome::Unsat;
        }
        if stop_requested(deadline, cancel).is_some() {
            return SatOutcome::Budget(SatBudget::Deadline);
        }
        let mut luby_index = 0u32;
        let mut conflicts_until_restart = 100 * luby(luby_index);
        let mut conflicts_this_call = 0u64;
        let mut decisions_this_call = 0u64;
        let mut max_learnt = (self.clauses.len() as f64 * 0.3).max(1000.0);
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(conflict);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.attach_clause(learnt.clone(), true, lbd);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.var_inc /= 0.95;
                self.clause_inc /= 0.999;
                if let Some(budget) = max_conflicts {
                    if conflicts_this_call >= budget {
                        self.backtrack(0);
                        return SatOutcome::Budget(SatBudget::Conflicts);
                    }
                }
                if conflicts_this_call.is_multiple_of(CONFLICT_POLL_INTERVAL)
                    && stop_requested(deadline, cancel).is_some()
                {
                    self.backtrack(0);
                    return SatOutcome::Budget(SatBudget::Deadline);
                }
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    luby_index += 1;
                    conflicts_until_restart = 100 * luby(luby_index);
                    self.restarts += 1;
                    self.backtrack(0);
                }
                if self.num_learnt as f64 > max_learnt {
                    self.reduce_db();
                    max_learnt *= 1.1;
                }
                decisions_this_call += 1;
                if decisions_this_call.is_multiple_of(DECISION_POLL_INTERVAL)
                    && stop_requested(deadline, cancel).is_some()
                {
                    self.backtrack(0);
                    return SatOutcome::Budget(SatBudget::Deadline);
                }
                // Assumptions are decided before any free decision, one
                // decision level each (level i+1 hosts assumptions[i]), so
                // restarts — which backtrack to level 0 — transparently
                // re-establish them on the next decision step.
                let mut enqueued_assumption = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        // Already implied: keep the level accounting with
                        // an empty decision level.
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        // Falsified by the formula (plus earlier
                        // assumptions): unsat *under the assumptions* —
                        // the solver itself stays usable.
                        LBool::False => {
                            self.backtrack(0);
                            return SatOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                            enqueued_assumption = true;
                            break;
                        }
                    }
                }
                if enqueued_assumption {
                    continue; // propagate the assumption before deciding
                }
                match self.pick_branch() {
                    None => {
                        let model = self.values.iter().map(|v| *v == LBool::True).collect();
                        self.backtrack(0);
                        return SatOutcome::Sat(model);
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// Deadline/cancellation poll cadence on the conflict path. `Instant::now`
/// is a vDSO call but still too costly to issue per conflict.
const CONFLICT_POLL_INTERVAL: u64 = 64;

/// Poll cadence on the decision path (covers conflict-free propagation).
const DECISION_POLL_INTERVAL: u64 = 64;

/// The Luby restart sequence: 1 1 2 1 1 2 4 ...
fn luby(i: u32) -> u64 {
    let mut x = u64::from(i);
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut SatSolver, n: usize) -> Vec<BVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        match s.solve(None) {
            SatOutcome::Sat(m) => assert!(m[0]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(None), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        vars(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(None), SatOutcome::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(matches!(s.solve(None), SatOutcome::Sat(_)));
    }

    #[test]
    fn chained_implications_propagate() {
        // x0 ∧ (x0 → x1) ∧ ... ∧ (x8 → x9)
        let mut s = SatSolver::new();
        let v = vars(&mut s, 10);
        s.add_clause(&[Lit::pos(v[0])]);
        for i in 0..9 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        match s.solve(None) {
            SatOutcome::Sat(m) => assert!(m.iter().all(|&b| b)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] means pigeon i in hole j.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 6);
        let p = |i: usize, j: usize| v[i * 2 + j];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(None), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5usize;
        let h = 4usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h);
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(None), SatOutcome::Unsat);
    }

    #[test]
    fn budget_terminates_hard_instance() {
        // Pigeonhole 8 into 7 is hard for CDCL; a tiny budget must bail.
        let n = 9usize;
        let h = 8usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h);
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve(Some(10)), SatOutcome::Budget(SatBudget::Conflicts));
    }

    #[test]
    fn expired_deadline_reported_before_any_decision() {
        // A conflict-free instance: without decision-path polling the old
        // solver would happily return Sat even with an expired deadline.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 200);
        for i in 0..199 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        let past = std::time::Instant::now() - std::time::Duration::from_millis(10);
        assert_eq!(
            s.solve_with_deadline(None, Some(past)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn conflict_free_search_polls_deadline_between_decisions() {
        // No clauses at all: the search is pure decisions. With enough
        // variables to cross the poll interval, a deadline that expires
        // mid-search must stop it.
        let mut s = SatSolver::new();
        vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize);
        // Entry check passes (deadline in the future), then expires before
        // the decision counter reaches the first poll.
        let deadline = std::time::Instant::now() + std::time::Duration::from_micros(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            s.solve_with_deadline(None, Some(deadline)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn cancellation_token_stops_the_search() {
        let mut s = SatSolver::new();
        vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            s.solve_with_limits(None, None, Some(&token)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn unset_token_does_not_interfere() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        let token = CancelToken::new();
        assert!(matches!(s.solve_with_limits(None, None, Some(&token)), SatOutcome::Sat(_)));
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish 3-SAT instance, deterministic seed via LCG.
        let mut s = SatSolver::new();
        let n = 30usize;
        let v = vars(&mut s, n);
        let mut state = 0x12345678u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut clauses = Vec::new();
        for _ in 0..80 {
            let mut c = Vec::new();
            for _ in 0..3 {
                let var = v[rnd() % n];
                c.push(Lit::new(var, rnd() % 2 == 0));
            }
            clauses.push(c);
        }
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve(None) {
            SatOutcome::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| m[l.var().0 as usize] == l.is_pos()),
                        "model violates clause {c:?}"
                    );
                }
            }
            SatOutcome::Unsat => {} // possible but unlikely; still a valid outcome
            SatOutcome::Budget(k) => panic!("no budget was set, got {k:?}"),
        }
    }

    #[test]
    fn assumptions_select_between_branches() {
        // (a → x) ∧ (b → ¬x): assuming a forces x, assuming b forces ¬x,
        // assuming both is unsat — all on the SAME solver instance.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 3);
        let (a, b, x) = (v[0], v[1], v[2]);
        s.add_clause(&[Lit::neg(a), Lit::pos(x)]);
        s.add_clause(&[Lit::neg(b), Lit::neg(x)]);
        match s.solve_under_assumptions(&[Lit::pos(a)], None, None, None) {
            SatOutcome::Sat(m) => assert!(m[x.0 as usize]),
            other => panic!("expected sat, got {other:?}"),
        }
        match s.solve_under_assumptions(&[Lit::pos(b)], None, None, None) {
            SatOutcome::Sat(m) => assert!(!m[x.0 as usize]),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(a), Lit::pos(b)], None, None, None),
            SatOutcome::Unsat
        );
        // Unsat under assumptions must not poison the solver.
        assert!(matches!(s.solve(None), SatOutcome::Sat(_)));
    }

    #[test]
    fn contradictory_assumptions_are_unsat_without_poisoning() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(v[0]), Lit::neg(v[0])], None, None, None),
            SatOutcome::Unsat
        );
        assert!(matches!(s.solve(None), SatOutcome::Sat(_)));
    }

    #[test]
    fn activation_literal_guards_clause_group() {
        // The Session pattern: pigeonhole clauses guarded behind ¬g.
        // Assuming g activates the group (unsat); not assuming leaves the
        // formula satisfiable via g = false.
        let n = 4usize;
        let h = 3usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h + 1);
        let g = v[n * h];
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let mut c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            c.push(Lit::neg(g));
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j)), Lit::neg(g)]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        assert!(matches!(s.solve(None), SatOutcome::Sat(_)));
        // Learnt clauses from the unsat call are retained for later calls.
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn assumptions_survive_restarts_and_retain_learnts() {
        // A hard-ish instance under an activation literal: enough conflicts
        // to cross restart boundaries, exercising assumption re-decision.
        let n = 7usize;
        let h = 6usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h + 1);
        let g = v[n * h];
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let mut c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            c.push(Lit::neg(g));
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j)), Lit::neg(g)]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        let learnt_after_first = s.learnt_clauses();
        let conflicts_first = s.conflicts();
        assert!(conflicts_first > 100, "instance should be nontrivial");
        assert!(learnt_after_first > 0, "learnt clauses must be retained");
        // The second identical call reuses the learnt clauses; it must not
        // need more conflicts than the first call took from scratch.
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        let conflicts_second = s.conflicts() - conflicts_first;
        assert!(
            conflicts_second <= conflicts_first,
            "retained clauses made the repeat harder: {conflicts_second} > {conflicts_first}"
        );
    }

    #[test]
    fn assumption_budget_and_cancel_polls_still_fire() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize + 1);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(v[0])], None, None, Some(&token)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn lit_roundtrip() {
        let v = BVar(5);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(Lit::pos(v).is_pos());
        assert!(!Lit::neg(v).is_pos());
        assert_eq!(Lit::pos(v).negate(), Lit::neg(v));
        assert_eq!(Lit::pos(v).to_string(), "x5");
        assert_eq!(Lit::neg(v).to_string(), "-x5");
    }
}
