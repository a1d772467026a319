//! Per-function results of a supervised corpus run.

use std::time::Duration;

use keq_smt::SolverStats;
use keq_trace::{CacheCounters, ResumeSection};

/// Result category of one validated function — the paper's Fig. 6 rows
/// plus [`CorpusResult::Crashed`], the harness's fault-isolation row for
/// functions whose validation panicked instead of returning a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusResult {
    /// Validated (equivalent or refines).
    Succeeded,
    /// Resource exhaustion, solving-time flavor: step fuel, wall-clock
    /// limits, conflict budgets, or supervisor cancellation.
    Timeout,
    /// Resource exhaustion, memory flavor (term budget).
    OutOfMemory,
    /// The validation pipeline panicked; the supervisor isolated the panic
    /// and kept the corpus run alive.
    Crashed {
        /// The captured panic message (payload only; the source location
        /// is a separate field).
        message: String,
        /// `file:line:column` of the panic site, when the panic hook saw
        /// it.
        location: Option<String>,
    },
    /// Still crashing on its last allowed attempt under a crash-retrying
    /// policy ([`crate::RetryPolicy::retry_crashes`]): the function is set
    /// aside as reproducibly fault-triggering, distinct from a one-off
    /// [`CorpusResult::Crashed`].
    Quarantined {
        /// The captured panic message of the final attempt.
        message: String,
        /// `file:line:column` of the final panic site, when available.
        location: Option<String>,
    },
    /// Any other failure (genuine mismatches, unsupported functions, …).
    Other,
}

impl CorpusResult {
    /// The payload-free category, for counting and table rendering.
    pub fn kind(&self) -> ResultKind {
        match self {
            CorpusResult::Succeeded => ResultKind::Succeeded,
            CorpusResult::Timeout => ResultKind::Timeout,
            CorpusResult::OutOfMemory => ResultKind::OutOfMemory,
            CorpusResult::Crashed { .. } => ResultKind::Crashed,
            CorpusResult::Quarantined { .. } => ResultKind::Quarantined,
            CorpusResult::Other => ResultKind::Other,
        }
    }
}

/// [`CorpusResult`] without payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultKind {
    /// Validated.
    Succeeded,
    /// Timeout-class resource exhaustion.
    Timeout,
    /// Memory-class resource exhaustion.
    OutOfMemory,
    /// Isolated panic.
    Crashed,
    /// Crashed on every allowed attempt.
    Quarantined,
    /// Everything else.
    Other,
}

impl ResultKind {
    /// Stable wire name, shared by trace events and `RUN_REPORT.json`.
    pub fn name(self) -> &'static str {
        match self {
            ResultKind::Succeeded => "succeeded",
            ResultKind::Timeout => "timeout",
            ResultKind::OutOfMemory => "out_of_memory",
            ResultKind::Crashed => "crashed",
            ResultKind::Quarantined => "quarantined",
            ResultKind::Other => "other",
        }
    }
}

/// One attempt at validating one function.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The budget multiplier this attempt ran under
    /// (`retry.factor^(attempt-1)`).
    pub budget_scale: u64,
    /// Wall-clock time of this attempt (as observed by the supervisor for
    /// abandoned attempts).
    pub time: Duration,
    /// This attempt's classification.
    pub result: CorpusResult,
    /// Whether the watchdog had to abandon the worker (it never
    /// acknowledged cancellation within the grace period).
    pub abandoned: bool,
}

impl AttemptRecord {
    /// The captured panic source location of a crashed attempt, as its own
    /// field (distinct from the message).
    pub fn panic_location(&self) -> Option<&str> {
        match &self.result {
            CorpusResult::Crashed { location, .. }
            | CorpusResult::Quarantined { location, .. } => location.as_deref(),
            _ => None,
        }
    }
}

/// The final record of one corpus function.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// Function name.
    pub name: String,
    /// Index of the function in the validated module.
    pub index: usize,
    /// Which validated pass the verdict is about.
    pub pass: keq_isel::PassId,
    /// Instruction count (the Fig. 7 code-size axis).
    pub size: usize,
    /// Total validation wall-clock time across all attempts.
    pub time: Duration,
    /// Final category (from the last attempt).
    pub result: CorpusResult,
    /// Whether the verdict was recovered from the write-ahead journal by a
    /// resumed run. Recovered rows carry the killed run's journal-recorded
    /// wall time and attempt count but no per-attempt records (those
    /// observations died with the killed process).
    pub recovered: bool,
    /// Every attempt, in order (empty for recovered rows).
    pub attempts: Vec<AttemptRecord>,
}

/// Aggregated per-function rows, ordered by function index.
#[derive(Debug, Clone, Default)]
pub struct CorpusSummary {
    /// Per-function rows.
    pub rows: Vec<CorpusRow>,
    /// Merged solver statistics across every delivered attempt (deltas
    /// accumulated per attempt via [`SolverStats::since`] and summed with
    /// [`SolverStats::merge`]; abandoned workers' stale late results are
    /// excluded, like their rows).
    pub solver: SolverStats,
    /// Shared obligation-cache bookkeeping and store traffic (zeros when
    /// the run had no cache; the lookup counts live in `solver`).
    pub cache: CacheCounters,
    /// Write-ahead journal recovery (all-default when the run had no
    /// journal or was not resuming).
    pub resume: ResumeSection,
    /// Live-telemetry summary: collector samples taken and the top-K
    /// slow-obligation table (all-default when metrics were disabled).
    pub telemetry: keq_trace::TelemetrySection,
}

impl CorpusSummary {
    /// Count of a category.
    pub fn count(&self, kind: ResultKind) -> usize {
        self.rows.iter().filter(|x| x.result.kind() == kind).count()
    }

    /// Total functions considered.
    pub fn total(&self) -> usize {
        self.rows.len()
    }

    /// Fraction validated.
    pub fn success_rate(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.count(ResultKind::Succeeded) as f64 / self.total() as f64
    }

    /// Total attempts across all rows (≥ total when retries fired).
    pub fn total_attempts(&self) -> usize {
        self.rows.iter().map(|r| r.attempts.len()).sum()
    }

    /// Fraction of shared obligation-cache lookups that hit (0.0 when the
    /// run performed none).
    pub fn obligation_cache_hit_ratio(&self) -> f64 {
        let hits = self.solver.obligation_cache_hits;
        let lookups = hits + self.solver.obligation_cache_misses;
        if lookups == 0 {
            return 0.0;
        }
        hits as f64 / lookups as f64
    }

    /// The run's per-attempt wall-time distribution in the report's
    /// log-bucketed shape (the same buckets the server's request latency
    /// uses, so batch and server quantiles are directly comparable).
    /// Recovered rows carry no per-attempt observations and contribute
    /// nothing.
    pub fn attempt_latency_histogram(&self) -> keq_trace::Histogram {
        let mut h = keq_trace::Histogram::log_us("attempt wall time (us)");
        for row in &self.rows {
            for a in &row.attempts {
                h.add(u64::try_from(a.time.as_micros()).unwrap_or(u64::MAX) as f64);
            }
        }
        h
    }

    /// The end-of-run summary line: the Fig. 6 outcome counts plus the
    /// run-level solver reuse counters (cache evictions, session prefix
    /// hits, learnt clauses retained), the obligation-normalization totals
    /// (rules fired, nodes saved), the shared obligation cache's
    /// hit ratio and on-disk footprint, and the attempt-latency quantiles
    /// (log-bucket estimates — the same way the server reports request
    /// latency). Resume recovery and storage degradation, when they
    /// happened, are appended as extra segments so a persist failure can
    /// never pass silently.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "corpus: {} functions, {} attempts | succeeded {} timeout {} oom {} crashed {} \
             quarantined {} other {} | solver: queries {} cache_hits {} cache_evictions {} \
             prefix_hits {} clauses_retained {} | rewrite: rules_fired {} nodes_saved {} \
             lbd_kept {} | obcache: hits {} misses {} hit_ratio {:.2} \
             store_bytes {}",
            self.total(),
            self.total_attempts(),
            self.count(ResultKind::Succeeded),
            self.count(ResultKind::Timeout),
            self.count(ResultKind::OutOfMemory),
            self.count(ResultKind::Crashed),
            self.count(ResultKind::Quarantined),
            self.count(ResultKind::Other),
            self.solver.queries,
            self.solver.cache_hits,
            self.solver.cache_evictions,
            self.solver.prefix_hits,
            self.solver.clauses_retained,
            self.solver.rewrite_rules_fired,
            self.solver.rewrite_nodes_saved,
            self.solver.lbd_kept,
            self.solver.obligation_cache_hits,
            self.solver.obligation_cache_misses,
            self.obligation_cache_hit_ratio(),
            self.cache.disk_bytes,
        );
        let lat = self.attempt_latency_histogram();
        if let (Some(p50), Some(p90), Some(p99)) = (lat.p50(), lat.p90(), lat.p99()) {
            line.push_str(&format!(
                " | latency: p50_us {:.0} p90_us {:.0} p99_us {:.0}",
                p50, p90, p99
            ));
        }
        if self.resume.enabled {
            line.push_str(&format!(
                " | resume: skipped {} recovered {} corrupt {}",
                self.resume.skipped, self.resume.recovered, self.resume.corrupt,
            ));
        }
        if self.cache.degraded {
            line.push_str(&format!(
                " | WARNING: obligation store degraded to memory-only after {} flush failures",
                self.cache.flush_failures,
            ));
        } else if self.cache.persist_failed {
            line.push_str(
                " | WARNING: obligation store persist failed; proved verdicts not saved",
            );
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: usize, result: CorpusResult) -> CorpusRow {
        CorpusRow {
            pass: keq_isel::PassId::Isel,
            name: format!("f{index}"),
            index,
            size: 1,
            time: Duration::ZERO,
            result,
            recovered: false,
            attempts: vec![],
        }
    }

    #[test]
    fn counts_by_kind() {
        let s = CorpusSummary {
            rows: vec![
                row(0, CorpusResult::Succeeded),
                row(
                    1,
                    CorpusResult::Crashed {
                        message: "boom".into(),
                        location: Some("x.rs:1:1".into()),
                    },
                ),
                row(2, CorpusResult::Succeeded),
            ],
            ..CorpusSummary::default()
        };
        assert_eq!(s.count(ResultKind::Succeeded), 2);
        assert_eq!(s.count(ResultKind::Crashed), 1);
        assert_eq!(s.total(), 3);
        assert!((s.success_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_line_surfaces_solver_reuse_counters() {
        let mut s =
            CorpusSummary { rows: vec![row(0, CorpusResult::Succeeded)], ..Default::default() };
        s.solver.cache_evictions = 3;
        s.solver.prefix_hits = 17;
        s.solver.clauses_retained = 41;
        s.solver.obligation_cache_hits = 30;
        s.solver.obligation_cache_misses = 10;
        s.cache.disk_bytes = 2_048;
        let line = s.summary_line();
        assert!(line.contains("cache_evictions 3"), "{line}");
        assert!(line.contains("prefix_hits 17"), "{line}");
        assert!(line.contains("clauses_retained 41"), "{line}");
        assert!(line.contains("obcache: hits 30 misses 10 hit_ratio 0.75"), "{line}");
        assert!(line.contains("store_bytes 2048"), "{line}");
    }

    #[test]
    fn hit_ratio_of_a_cacheless_run_is_zero() {
        let s = CorpusSummary::default();
        assert_eq!(s.obligation_cache_hit_ratio(), 0.0);
        assert!(s.summary_line().contains("hit_ratio 0.00"), "{}", s.summary_line());
    }

    #[test]
    fn quarantined_is_counted_separately_from_crashed() {
        let s = CorpusSummary {
            rows: vec![
                row(0, CorpusResult::Crashed { message: "boom".into(), location: None }),
                row(1, CorpusResult::Quarantined { message: "boom".into(), location: None }),
            ],
            ..CorpusSummary::default()
        };
        assert_eq!(s.count(ResultKind::Crashed), 1);
        assert_eq!(s.count(ResultKind::Quarantined), 1);
        let line = s.summary_line();
        assert!(line.contains("crashed 1 quarantined 1"), "{line}");
    }

    #[test]
    fn resume_and_store_failures_surface_in_summary_line() {
        let mut s =
            CorpusSummary { rows: vec![row(0, CorpusResult::Succeeded)], ..Default::default() };
        assert!(!s.summary_line().contains("resume:"), "quiet when not resuming");
        s.resume = ResumeSection { enabled: true, skipped: 3, recovered: 4, corrupt: 1 };
        s.cache.persist_failed = true;
        let line = s.summary_line();
        assert!(line.contains("resume: skipped 3 recovered 4 corrupt 1"), "{line}");
        assert!(line.contains("WARNING: obligation store persist failed"), "{line}");

        s.cache.degraded = true;
        s.cache.flush_failures = 5;
        let line = s.summary_line();
        assert!(line.contains("degraded to memory-only after 5 flush failures"), "{line}");
    }

    #[test]
    fn summary_line_surfaces_attempt_latency_quantiles() {
        let mut r = row(0, CorpusResult::Succeeded);
        r.attempts = vec![AttemptRecord {
            attempt: 1,
            budget_scale: 1,
            time: Duration::from_micros(900),
            result: CorpusResult::Succeeded,
            abandoned: false,
        }];
        let s = CorpusSummary { rows: vec![r], ..Default::default() };
        let line = s.summary_line();
        assert!(line.contains("latency: p50_us"), "{line}");
        assert!(line.contains("p90_us"), "{line}");
        assert!(line.contains("p99_us"), "{line}");
        assert_eq!(s.attempt_latency_histogram().total(), 1);

        // Attempt-less summaries (all rows recovered) skip the segment
        // rather than inventing numbers.
        let quiet = CorpusSummary { rows: vec![row(0, CorpusResult::Succeeded)], ..Default::default() };
        assert!(!quiet.summary_line().contains("latency:"), "{}", quiet.summary_line());
    }

    #[test]
    fn panic_location_is_a_distinct_field() {
        let rec = AttemptRecord {
            attempt: 1,
            budget_scale: 1,
            time: Duration::ZERO,
            result: CorpusResult::Crashed {
                message: "boom".into(),
                location: Some("crates/x/src/lib.rs:9:5".into()),
            },
            abandoned: false,
        };
        assert_eq!(rec.panic_location(), Some("crates/x/src/lib.rs:9:5"));
    }
}
