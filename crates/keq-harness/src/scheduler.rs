//! The scheduler core: a submission queue, work-stealing worker shards,
//! and the supervision machinery — panic isolation, watchdog deadlines,
//! escalating-budget retry, warm-start contexts, incremental store
//! flushing, and the write-ahead verdict journal — rehosted as policies of
//! one long-lived [`Scheduler`].
//!
//! Two front ends sit on top:
//!
//! * **batch** — [`crate::run_module`] submits every function of one
//!   corpus, awaits every verdict, drains, and assembles the classic
//!   [`crate::CorpusSummary`];
//! * **server** — [`crate::server`] keeps one scheduler resident across
//!   many requests, so the shared obligation cache, warm-start contexts,
//!   and journal amortize across clients.
//!
//! The scheduler adds what a long-lived front end needs and a batch run
//! never exercised:
//!
//! * **backpressure** — [`Scheduler::submit`] is gated by a bounded queue
//!   depth; excess submissions are *rejected* ([`Rejected::QueueFull`]),
//!   never silently queued without bound;
//! * **per-client quotas** — a [`ClientQuota`] caps concurrent inflight
//!   submissions per client and clamps per-request deadlines and retry
//!   ladders;
//! * **graceful drain** — [`Scheduler::drain`] stops admissions, lets
//!   every accepted submission finish (the watchdog still bounds wedged
//!   ones), then flushes the store and returns the final counters.
//!
//! Work distribution is a sharded work-stealing queue: submissions hash to
//! a shard, each worker prefers its home shard's front (FIFO), and an idle
//! worker steals from the *back* of other shards. A job is pushed into its
//! shard **before** the global ready-count is bumped, so a woken worker
//! always finds a job by scanning.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use keq_core::{FailureReason, KeqOptions, Verdict};
use keq_isel::pipeline::ValidationContext;
use keq_isel::{GvnOptions, IselOptions, PassId, PassOptions, RaOptions, VcOptions};
use keq_llvm::ast::Module;
use keq_smt::fault::{self, FaultPlan};
use keq_smt::obcache::StoreIo;
use keq_smt::{CancelToken, SharedObligationCache, SolverStats};
use keq_trace::metrics::{
    self, Collector, CounterId, GaugeId, HistId, PromKind, PromMetric, PromSample, Registry,
};
use keq_trace::{
    CacheCounters, CounterTable, Phase, RequestCounters, SlowObligation, TelemetrySection,
};

use crate::journal::{JournalRecord, JournalWriter};
use crate::panic_capture;
use crate::result::{AttemptRecord, CorpusResult};
use crate::run::RetryPolicy;

/// Per-client admission limits, applied by [`Scheduler::submit`].
///
/// The zero defaults disable every limit (what the batch front end uses:
/// it is its own only client).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientQuota {
    /// Maximum concurrent inflight submissions per client (0 = unlimited).
    pub max_inflight: usize,
    /// Upper clamp on the effective per-attempt deadline. Requests asking
    /// for more get the clamp; requests asking for nothing get the clamp
    /// as their deadline (otherwise an unbounded request dodges the
    /// quota).
    pub max_deadline: Option<Duration>,
    /// Upper clamp on the retry ladder length (0 = the scheduler's own
    /// [`RetryPolicy::max_attempts`]).
    pub max_attempts: u32,
}

/// Live-telemetry configuration of a [`Scheduler`].
///
/// Disabled (the default) keeps every probe site on its zero-allocation
/// fast path: one thread-local flag read per probe, no clock, no atomics.
/// Enabled, the scheduler installs one [`Registry`] on the supervisor and
/// every worker, samples it into fixed-capacity time-series rings on the
/// watchdog tick, and retains the top-K slowest obligations with their
/// phase breakdown and solver-counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct MetricsConfig {
    /// Master switch.
    pub enabled: bool,
    /// How often the collector samples the registry into its series rings.
    pub sample_interval: Duration,
    /// Ring capacity of each time series, in samples.
    pub series_capacity: usize,
    /// Rows retained by the slow-obligation profiler (top-K by wall time;
    /// 0 disables the table).
    pub slow_k: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: false,
            sample_interval: Duration::from_millis(250),
            series_capacity: 240,
            slow_k: 16,
        }
    }
}

/// Bounded top-K table of the slowest finalized submissions, kept sorted
/// by descending wall time (the report-schema invariant). An offer below
/// the current floor of a full table is O(1).
struct SlowTable {
    k: usize,
    rows: Vec<SlowObligation>,
}

impl SlowTable {
    fn new(k: usize) -> SlowTable {
        SlowTable { k, rows: Vec::new() }
    }

    fn offer(&mut self, row: SlowObligation) {
        if self.k == 0 {
            return;
        }
        if self.rows.len() >= self.k
            && row.wall_us <= self.rows.last().map_or(0, |r| r.wall_us)
        {
            return;
        }
        let at = self.rows.partition_point(|r| r.wall_us >= row.wall_us);
        self.rows.insert(at, row);
        self.rows.truncate(self.k);
    }
}

/// The resident telemetry of one scheduler: the metrics [`Registry`] every
/// probe site feeds, the [`Collector`] sampling it into fixed-capacity
/// time-series rings, the slow-obligation profiler, and always-on live
/// request-latency quantiles (the `stats` op reports those even with
/// metrics disabled — three atomic loads, no registry traffic).
pub struct Telemetry {
    enabled: bool,
    registry: Arc<Registry>,
    collector: Mutex<Collector>,
    slow: Mutex<SlowTable>,
    started: Instant,
    p50_us: AtomicU64,
    p90_us: AtomicU64,
    p99_us: AtomicU64,
}

impl Telemetry {
    fn new(cfg: MetricsConfig) -> Telemetry {
        Telemetry {
            enabled: cfg.enabled,
            registry: Arc::new(Registry::new()),
            collector: Mutex::new(Collector::new(cfg.series_capacity)),
            slow: Mutex::new(SlowTable::new(cfg.slow_k)),
            started: Instant::now(),
            p50_us: AtomicU64::new(0),
            p90_us: AtomicU64::new(0),
            p99_us: AtomicU64::new(0),
        }
    }

    /// Whether the metrics registry is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The scheduler's metrics registry (all-zero when disabled).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Milliseconds since the scheduler started.
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Live lifetime request-latency quantiles `(p50, p90, p99)`, µs.
    /// Maintained on every finalization regardless of the metrics switch.
    pub fn latency_quantiles_us(&self) -> (u64, u64, u64) {
        (
            self.p50_us.load(Ordering::Relaxed),
            self.p90_us.load(Ordering::Relaxed),
            self.p99_us.load(Ordering::Relaxed),
        )
    }

    /// Collector samples taken so far.
    pub fn samples(&self) -> u64 {
        self.collector.lock().expect("collector poisoned").samples()
    }

    /// Every time series as JSON (`[{"name", "points": [[t_ms, v], ...]}]`).
    pub fn series_json(&self) -> keq_trace::Json {
        self.collector.lock().expect("collector poisoned").to_json()
    }

    /// Completed requests per second over the most recent sample window.
    pub fn rate_per_sec(&self, window_ms: u64) -> f64 {
        self.collector
            .lock()
            .expect("collector poisoned")
            .counter(CounterId::Completed)
            .rate_per_sec(window_ms)
    }

    /// A snapshot of the slow-obligation table, descending wall time.
    pub fn slow_rows(&self) -> Vec<SlowObligation> {
        self.slow.lock().expect("slow table poisoned").rows.clone()
    }

    /// The report-schema telemetry section of this scheduler's lifetime.
    pub fn section(&self) -> TelemetrySection {
        TelemetrySection {
            enabled: self.enabled,
            samples: self.samples(),
            slow: self.slow_rows(),
        }
    }

    /// The whole registry plus the slow-obligation table in Prometheus
    /// text exposition format (hand-rolled, std-only — see
    /// [`metrics::render_prometheus`]).
    pub fn prometheus(&self) -> String {
        let mut fams = metrics::prom_from_registry(&self.registry);
        let samples = self
            .slow_rows()
            .iter()
            .map(|r| PromSample {
                suffix: "",
                labels: vec![
                    ("fingerprint".to_string(), r.fingerprint.clone()),
                    ("label".to_string(), r.label.clone()),
                    ("result".to_string(), r.result.clone()),
                ],
                value: r.wall_us as f64,
            })
            .collect();
        fams.push(PromMetric {
            name: "keq_slow_obligation_wall_us".to_string(),
            help: "Total wall time of the slowest obligations (top-K), microseconds"
                .to_string(),
            kind: PromKind::Gauge,
            samples,
        });
        metrics::render_prometheus(&fams)
    }

    /// Request-finalization accounting: refresh the live quantile atomics
    /// from the supervisor's latency histogram (always), and feed the
    /// registry's request counters/histogram (metrics on only).
    fn observe_request(&self, wall_us: u64, latency: &keq_trace::Histogram) {
        let q = |v: Option<f64>| v.map_or(0, |x| x as u64);
        self.p50_us.store(q(latency.p50()), Ordering::Relaxed);
        self.p90_us.store(q(latency.p90()), Ordering::Relaxed);
        self.p99_us.store(q(latency.p99()), Ordering::Relaxed);
        if self.enabled {
            self.registry.counter_add(CounterId::Completed, 1);
            self.registry.observe_us(HistId::RequestLatencyUs, wall_us);
        }
    }

    /// Offers one finalized submission to the slow-obligation table.
    fn offer_slow(&self, row: SlowObligation) {
        self.slow.lock().expect("slow table poisoned").offer(row);
    }

    /// Takes one collector sample at the current uptime.
    fn sample_now(&self) {
        let t_ms = self.uptime_ms();
        self.collector.lock().expect("collector poisoned").sample(&self.registry, t_ms);
    }
}

/// Where the write-ahead verdict journal lives and what identifies it.
///
/// The front end loads/resumes the journal itself (so it controls the
/// exact storage-operation order) and hands the scheduler the surviving
/// valid prefix; [`Scheduler::start`] opens the writer — still on the
/// caller's thread, so the header write is ordered before any worker I/O.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Journal file path.
    pub path: PathBuf,
    /// Corpus fingerprint stamped into the header (a fresh server journal
    /// uses a front-end-chosen namespace constant).
    pub corpus_fp: u64,
    /// Byte-valid prefix recovered by [`crate::journal::load`] to append
    /// after, `None` to start fresh.
    pub valid_prefix: Option<Vec<u8>>,
}

/// Configuration of a [`Scheduler`].
#[derive(Clone)]
pub struct SchedulerConfig {
    /// Base checker options of attempt 1.
    pub keq: KeqOptions,
    /// Instruction-selection options.
    pub isel: IselOptions,
    /// VC-generation options.
    pub vc: VcOptions,
    /// Register-allocation options (the regalloc pass instantiation).
    pub ra: RaOptions,
    /// GVN options (the mid-end pass instantiation).
    pub gvn: GvnOptions,
    /// Worker threads (must be ≥ 1; front ends resolve `0` themselves).
    pub workers: usize,
    /// Default hard per-attempt deadline (requests may override, quotas
    /// clamp).
    pub deadline: Option<Duration>,
    /// Grace past a cancellation before the watchdog abandons a worker.
    pub grace: Duration,
    /// Watchdog sweep interval.
    pub watchdog_tick: Duration,
    /// Retry policy for budget-class failures.
    pub retry: RetryPolicy,
    /// Deterministic fault plan ([`FaultPlan::quiet`] for none).
    pub fault_plan: FaultPlan,
    /// Carry warm-start contexts across retries of one submission.
    pub warm_start: bool,
    /// Trace sink installed on the supervisor and every worker.
    pub trace: Option<keq_trace::TraceSink>,
    /// Live-telemetry configuration (disabled by default).
    pub metrics: MetricsConfig,
    /// Maximum accepted-but-unfinalized submissions (0 = unbounded — the
    /// batch front end, which submits a whole corpus at once).
    pub queue_depth: usize,
    /// Admission quota applied to every client.
    pub quota: ClientQuota,
    /// Emit request-level trace events (`request_received` /
    /// `request_rejected` / `request_completed`). Off for batch runs so
    /// their event streams stay byte-stable.
    pub request_events: bool,
    /// The run's shared obligation cache, pre-loaded by the front end.
    pub shared: Arc<SharedObligationCache>,
    /// The injectable storage backend every byte goes through.
    pub io: Arc<dyn StoreIo>,
    /// On-disk obligation store for incremental flushes (`None` keeps the
    /// cache memory-only).
    pub cache_path: Option<PathBuf>,
    /// Store records the front end loaded at startup (reported through
    /// [`SchedulerFinal::cache`]).
    pub disk_loaded: u64,
    /// Store records the front end rejected while loading.
    pub disk_rejected: u64,
    /// Flush the store every this many finalizations (0 = shutdown only).
    pub store_flush_every: u32,
    /// Consecutive-failure threshold of the storage circuit breakers.
    pub store_breaker_threshold: u32,
    /// Write-ahead verdict journal (`None` disables journaling).
    pub journal: Option<JournalConfig>,
}

/// One unit of submitted work: validate one function of a module.
#[derive(Clone)]
pub struct Request {
    /// The module owning the function.
    pub module: Arc<Module>,
    /// Function index within `module`.
    pub func: usize,
    /// Which validated pass to run on the function.
    pub pass: PassId,
    /// Journal fingerprint of the function
    /// ([`crate::journal::function_fingerprint`]).
    pub func_fp: u64,
    /// Fault-plan unit (batch: the corpus function index) — keyed into
    /// [`fault::install`] so injected faults land deterministically on the
    /// same unit regardless of front end.
    pub unit: u64,
    /// Identifier stamped into trace events (batch: the function index).
    pub trace_id: u32,
    /// Submitting client (quota key).
    pub client: u64,
    /// Opaque tag echoed back in the [`Completion`].
    pub tag: u64,
    /// Per-request deadline override (quota-clamped).
    pub deadline: Option<Duration>,
    /// Per-request retry-ladder cap (quota-clamped).
    pub max_attempts: Option<u32>,
}

/// Why [`Scheduler::submit`] bounced a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded submission queue is full — explicit backpressure.
    QueueFull {
        /// Accepted-but-unfinalized submissions at rejection time.
        depth: usize,
    },
    /// The client is over its inflight quota.
    QuotaExceeded {
        /// The offending client.
        client: u64,
        /// Its inflight submissions at rejection time.
        inflight: usize,
    },
    /// The scheduler is draining and admits nothing new.
    Draining,
}

impl Rejected {
    /// Stable wire name of the rejection reason.
    pub fn reason(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::QuotaExceeded { .. } => "quota",
            Rejected::Draining => "draining",
        }
    }
}

/// The finalized verdict of one submission, delivered on the reply channel
/// the submitter registered.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The submission id [`Scheduler::submit`] returned.
    pub submission: u64,
    /// The request's opaque tag.
    pub tag: u64,
    /// Final classified result.
    pub result: CorpusResult,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Submit → first worker pickup, µs.
    pub queue_us: u64,
    /// Submit → finalization, µs.
    pub wall_us: u64,
}

/// What [`Scheduler::drain`] returns once every accepted submission
/// finalized and the store flushed.
pub struct SchedulerFinal {
    /// Merged solver statistics across every attempt.
    pub solver: SolverStats,
    /// Obligation-cache summary (load + flush + breaker state).
    pub cache: CacheCounters,
    /// Request counters.
    pub server: RequestCounters,
    /// Submit → finalize latency distribution (µs).
    pub latency: keq_trace::Histogram,
    /// Live-telemetry summary: collector samples and the slow-obligation
    /// table (all-default when metrics were disabled).
    pub telemetry: TelemetrySection,
}

/// Batched, breaker-guarded persistence of the shared obligation store.
///
/// The supervisor calls [`StoreFlusher::tick`] at every submission
/// finalization; every `every`-th tick persists the store's dirty verdicts
/// through the injectable [`StoreIo`] (one append per batch — a mid-batch
/// kill tears at most one batch, which the next load skips fail-soft).
/// After `threshold` consecutive failures the breaker trips and the store
/// degrades to memory-only: verdicts keep accumulating in memory and the
/// run's *results* are unaffected; only the next run's warm start is lost.
struct StoreFlusher {
    shared: Arc<SharedObligationCache>,
    path: Option<PathBuf>,
    io: Arc<dyn StoreIo>,
    every: u32,
    threshold: u32,
    pending: u32,
    consecutive: u32,
    /// The flush-side fields of the run's [`CacheCounters`] (flushes,
    /// failures, breaker state, disk traffic).
    stats: CacheCounters,
}

impl StoreFlusher {
    fn new(
        shared: Arc<SharedObligationCache>,
        path: Option<PathBuf>,
        io: Arc<dyn StoreIo>,
        every: u32,
        threshold: u32,
    ) -> StoreFlusher {
        StoreFlusher {
            shared,
            path,
            io,
            every,
            threshold: threshold.max(1),
            pending: 0,
            consecutive: 0,
            stats: CacheCounters::default(),
        }
    }

    /// One submission finalized; flush if the batch is full.
    fn tick(&mut self) {
        if self.path.is_none() || self.every == 0 {
            return;
        }
        self.pending += 1;
        if self.pending >= self.every {
            self.flush("flush");
        }
    }

    fn flush(&mut self, op: &'static str) {
        self.pending = 0;
        if self.stats.degraded {
            return;
        }
        let Some(path) = self.path.clone() else { return };
        match self.shared.persist_with(&path, self.io.as_ref()) {
            Ok(persist) => {
                self.stats.flushes += 1;
                self.consecutive = 0;
                self.stats.disk_persisted += persist.written;
                self.stats.disk_bytes = persist.file_bytes;
                metrics::counter_add(CounterId::StoreFlushes, 1);
            }
            Err(err) => {
                self.stats.flush_failures += 1;
                self.consecutive += 1;
                metrics::counter_add(CounterId::StoreFlushFailures, 1);
                if keq_trace::enabled() {
                    keq_trace::emit(keq_trace::Event::StoreError {
                        target: "store",
                        op,
                        detail: err.to_string(),
                    });
                }
                if self.consecutive >= self.threshold {
                    self.stats.degraded = true;
                    keq_trace::emit(keq_trace::Event::StoreDegraded {
                        target: "store",
                        failures: self.consecutive,
                    });
                    // The run just started losing its storage: push any
                    // buffered trace lines out while we still can.
                    keq_trace::flush_sink();
                }
            }
        }
    }

    /// The shutdown flush. A failure here (or an already-tripped breaker)
    /// means this run's remaining proved verdicts never reached disk — the
    /// summary must say so instead of silently reporting a cold next run.
    fn finish(&mut self) {
        if self.path.is_none() {
            return;
        }
        if self.stats.degraded {
            self.stats.persist_failed = true;
            return;
        }
        let failures_before = self.stats.flush_failures;
        self.flush("persist");
        if self.stats.flush_failures > failures_before {
            self.stats.persist_failed = true;
        }
    }
}

/// Appends the just-finalized verdict to the write-ahead journal (no-op
/// without one). Called at *both* finalize sites — delivered results and
/// watchdog abandonments — so resume sees every decided function.
fn journal_finalize(
    writer: &mut Option<JournalWriter>,
    func: usize,
    pass: PassId,
    func_fp: u64,
    attempts: &[AttemptRecord],
    result: &CorpusResult,
) {
    let Some(w) = writer else { return };
    let time: Duration = attempts.iter().map(|a| a.time).sum();
    w.append(&JournalRecord {
        func: func as u32,
        func_fp,
        attempts: attempts.len() as u32,
        time_us: u64::try_from(time.as_micros()).unwrap_or(u64::MAX),
        pass,
        result: result.clone(),
    });
}

/// Per-submission warm-start contexts, keyed by the unique submission id
/// and guarded by a per-key *generation*. A worker [`WarmStarts::take`]s
/// the entry (and the key's current generation) before an attempt and
/// [`WarmStarts::put`]s it back afterwards, so the map never hands the
/// same context to two threads (the supervisor only ever has one attempt
/// of a submission in flight).
///
/// Finalization cleans up one of two ways:
///
/// * a **delivered** result ([`WarmStarts::remove`]) erases the entry and
///   its generation outright — the worker's `put` happened before its
///   `Finished` send on the same thread, so no late writer exists, and
///   submission ids are never reused, so a fresh generation 0 is safe;
/// * an **abandonment** ([`WarmStarts::retire`]) bumps the generation and
///   leaves a tombstone, because the abandoned worker's detached thread
///   may still try to put its context back; the stale generation no longer
///   matches, so the context is dropped instead of resurrecting a dead
///   submission's term bank. The tombstone costs a few bytes per (rare)
///   abandonment.
#[derive(Default)]
struct WarmStarts {
    inner: Mutex<WarmInner>,
}

#[derive(Default)]
struct WarmInner {
    generations: HashMap<u64, u64>,
    ctxs: HashMap<u64, ValidationContext>,
}

impl WarmStarts {
    /// Removes and returns the key's context (if any) together with the
    /// generation the caller must present to [`WarmStarts::put`].
    fn take(&self, key: u64) -> (u64, Option<ValidationContext>) {
        let mut st = self.inner.lock().expect("warm-start map poisoned");
        let generation = st.generations.get(&key).copied().unwrap_or(0);
        (generation, st.ctxs.remove(&key))
    }

    /// Puts a context back for the key's next attempt — unless the
    /// supervisor retired the key since the matching [`WarmStarts::take`],
    /// in which case the stale context is dropped.
    fn put(&self, key: u64, generation: u64, ctx: ValidationContext) {
        let mut st = self.inner.lock().expect("warm-start map poisoned");
        if st.generations.get(&key).copied().unwrap_or(0) == generation {
            st.ctxs.insert(key, ctx);
        }
    }

    /// Tombstone-finalizes the key: drops its context and bumps its
    /// generation so an in-flight abandoned attempt can no longer put one
    /// back.
    fn retire(&self, key: u64) {
        let mut st = self.inner.lock().expect("warm-start map poisoned");
        *st.generations.entry(key).or_insert(0) += 1;
        st.ctxs.remove(&key);
    }

    /// Erases the key entirely (delivered-result finalization: no late
    /// writer can exist, and the id is never reused). Keeps a long-lived
    /// server's map from growing with every request ever served.
    fn remove(&self, key: u64) {
        let mut st = self.inner.lock().expect("warm-start map poisoned");
        st.generations.remove(&key);
        st.ctxs.remove(&key);
    }

    #[cfg(test)]
    fn contains(&self, key: u64) -> bool {
        self.inner.lock().expect("warm-start map poisoned").ctxs.contains_key(&key)
    }

    #[cfg(test)]
    fn tracked(&self, key: u64) -> bool {
        let st = self.inner.lock().expect("warm-start map poisoned");
        st.generations.contains_key(&key) || st.ctxs.contains_key(&key)
    }
}

/// The immutable part of a submission every attempt shares.
struct JobCore {
    module: Arc<Module>,
    func: usize,
    pass: PassId,
    unit: u64,
    trace_id: u32,
}

/// One unit of queued work: one attempt at one submission.
#[derive(Clone)]
struct Job {
    id: u64,
    submission: u64,
    attempt: u32,
    core: Arc<JobCore>,
}

/// Closable blocking work-stealing queue, sharded by submission id.
///
/// Invariant: a job is pushed into its shard **before** the ready count is
/// bumped, so a reservation (decrementing the count) is always backed by a
/// job already visible in some shard — the claim scan below can spin but
/// never starve.
struct ShardedQueue {
    shards: Vec<Mutex<VecDeque<Job>>>,
    sync: Mutex<QueueSync>,
    cv: Condvar,
}

#[derive(Default)]
struct QueueSync {
    ready: usize,
    closed: bool,
}

impl ShardedQueue {
    fn new(shards: usize) -> ShardedQueue {
        ShardedQueue {
            shards: (0..shards.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            sync: Mutex::new(QueueSync::default()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let shard = (job.submission as usize) % self.shards.len();
        self.shards[shard].lock().expect("shard poisoned").push_back(job);
        let mut sync = self.sync.lock().expect("queue poisoned");
        sync.ready += 1;
        self.cv.notify_one();
    }

    fn close(&self) {
        let mut sync = self.sync.lock().expect("queue poisoned");
        sync.closed = true;
        self.cv.notify_all();
    }

    /// Blocks for the next job; `None` once closed and drained. The worker
    /// prefers the *front* of its home shard (FIFO for its own stream) and
    /// steals from the *back* of the others.
    fn pop(&self, worker: usize) -> Option<Job> {
        {
            let mut sync = self.sync.lock().expect("queue poisoned");
            loop {
                if sync.ready > 0 {
                    sync.ready -= 1;
                    break;
                }
                if sync.closed {
                    return None;
                }
                sync = self.cv.wait(sync).expect("queue poisoned");
            }
        }
        let n = self.shards.len();
        let home = worker % n;
        loop {
            if let Some(job) = self.shards[home].lock().expect("shard poisoned").pop_front() {
                return Some(job);
            }
            for k in 1..n {
                let victim = (home + k) % n;
                if let Some(job) = self.shards[victim].lock().expect("shard poisoned").pop_back() {
                    return Some(job);
                }
            }
            // The reserved job is still in flight between its shard push
            // and a concurrent claimer's removal; re-scan.
            std::thread::yield_now();
        }
    }
}

/// What one attempt produced, as reported by the worker.
#[derive(Debug)]
struct AttemptOutcome {
    result: CorpusResult,
    /// Whether the failure is budget-class and bigger budgets could help.
    retryable: bool,
    time: Duration,
    /// Solver-statistics delta of this attempt alone ([`SolverStats::since`]
    /// over the attempt's context; zero for panicked attempts, whose
    /// context died mid-flight).
    solver: SolverStats,
    /// Per-phase span time of this attempt, µs, indexed by
    /// [`Phase::ALL`] position (all-zero when metrics are disabled; the
    /// worker drains its thread-local phase accumulator per attempt).
    phase_us: [u64; Phase::ALL.len()],
}

/// A submission accepted past the gate, en route to the supervisor.
struct Submission {
    id: u64,
    core: Arc<JobCore>,
    func_fp: u64,
    client: u64,
    tag: u64,
    deadline: Option<Duration>,
    max_attempts: u32,
    reply: mpsc::Sender<Completion>,
    submitted: Instant,
}

enum Msg {
    /// A gated submission entering the scheduler.
    Submit(Submission),
    /// A worker picked up a job and will honor this cancellation token.
    Started { job: u64, worker: usize, cancel: CancelToken },
    /// A worker finished a job. Boxed: the outcome carries the per-phase
    /// time table and solver counters, and must not bloat every message.
    Finished { job: u64, outcome: Box<AttemptOutcome> },
    /// Stop admitting (the gate already is) and exit once idle.
    Drain,
}

struct Worker {
    /// Raised by the supervisor to make the thread exit after its current
    /// job (used when abandoning it, so a late finisher never picks up
    /// fresh work).
    retired: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Book-keeping for a job between `Started` and `Finished`.
struct Inflight {
    submission: u64,
    trace_id: u32,
    attempt: u32,
    worker: usize,
    cancel: CancelToken,
    started: Instant,
    deadline: Option<Instant>,
    cancelled_at: Option<Instant>,
}

/// Supervisor-side state of an accepted, not-yet-finalized submission.
struct SubState {
    core: Arc<JobCore>,
    func_fp: u64,
    client: u64,
    tag: u64,
    deadline: Option<Duration>,
    max_attempts: u32,
    reply: mpsc::Sender<Completion>,
    submitted: Instant,
    first_started: Option<Instant>,
    attempts: Vec<AttemptRecord>,
    /// Solver-counter delta accumulated across this submission's delivered
    /// attempts (per-attempt deltas are merged into the run total at
    /// `Finished` and would otherwise be gone before the slow-obligation
    /// profiler could attribute them).
    solver_acc: SolverStats,
    /// Per-phase span time accumulated across attempts, µs.
    phase_acc: [u64; Phase::ALL.len()],
}

/// Admission gate state, shared by submitters and the supervisor.
struct Gate {
    draining: bool,
    depth: usize,
    per_client: HashMap<u64, usize>,
    next_id: u64,
    /// Sends happen under the gate lock, so a [`Msg::Drain`] sent while
    /// holding it is ordered strictly after every accepted submission.
    tx: mpsc::Sender<Msg>,
}

/// The per-attempt validation settings every worker shares.
struct AttemptSettings {
    keq: KeqOptions,
    isel: IselOptions,
    vc: VcOptions,
    ra: RaOptions,
    gvn: GvnOptions,
    retry: RetryPolicy,
    fault_plan: FaultPlan,
    warm_start: bool,
    trace: Option<keq_trace::TraceSink>,
    /// Metrics registry each worker installs thread-locally (`None` when
    /// metrics are disabled — the probe sites then cost one flag read).
    metrics: Option<Arc<Registry>>,
}

/// A running scheduler: submit work with [`Scheduler::submit`], stop with
/// [`Scheduler::drain`]. Cheap to share behind an [`Arc`] — submission is
/// one mutex acquisition plus a channel send.
pub struct Scheduler {
    gate: Arc<Mutex<Gate>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<SchedulerFinal>>>,
    queue_depth: usize,
    quota: ClientQuota,
    default_deadline: Option<Duration>,
    max_attempts: u32,
    request_events: bool,
    accepted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_draining: AtomicU64,
    telemetry: Arc<Telemetry>,
}

impl Scheduler {
    /// Starts the scheduler: opens the journal writer (on the caller's
    /// thread, so the header write is ordered before any worker storage
    /// I/O), then spawns the supervisor and its worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero — front ends resolve the
    /// "pick for me" default themselves, where they know the corpus size.
    pub fn start(config: SchedulerConfig) -> Scheduler {
        assert!(config.workers >= 1, "scheduler needs at least one worker");
        panic_capture::install_hook();
        let journal_writer = config.journal.as_ref().map(|j| {
            JournalWriter::start(
                &j.path,
                j.corpus_fp,
                j.valid_prefix.as_deref(),
                Arc::clone(&config.io),
                config.store_breaker_threshold,
            )
        });
        let flusher = StoreFlusher::new(
            Arc::clone(&config.shared),
            config.cache_path.clone(),
            Arc::clone(&config.io),
            config.store_flush_every,
            config.store_breaker_threshold,
        );
        let (tx, rx) = mpsc::channel::<Msg>();
        let gate = Arc::new(Mutex::new(Gate {
            draining: false,
            depth: 0,
            per_client: HashMap::new(),
            next_id: 0,
            tx,
        }));
        let queue_depth = config.queue_depth;
        let quota = config.quota;
        let default_deadline = config.deadline;
        let max_attempts = config.retry.max_attempts.max(1);
        let request_events = config.request_events;
        let telemetry = Arc::new(Telemetry::new(config.metrics));
        let gate_sup = Arc::clone(&gate);
        let tel_sup = Arc::clone(&telemetry);
        let handle = std::thread::Builder::new()
            .name("keq-scheduler".into())
            .spawn(move || supervise(config, rx, gate_sup, journal_writer, flusher, tel_sup))
            .expect("spawn scheduler supervisor");
        Scheduler {
            gate,
            supervisor: Mutex::new(Some(handle)),
            queue_depth,
            quota,
            default_deadline,
            max_attempts,
            request_events,
            accepted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            telemetry,
        }
    }

    /// This scheduler's live telemetry: the metrics registry, time-series
    /// collector, slow-obligation table, and live latency quantiles.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Submits one request. The verdict arrives as a [`Completion`] on
    /// `reply`; a dropped receiver is safe (the scheduler counts it as a
    /// disconnect and moves on — shared state is unaffected).
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the gate bounces the request: queue full, client
    /// over quota, or draining. Rejection leaves no scheduler state behind.
    pub fn submit(
        &self,
        req: Request,
        reply: mpsc::Sender<Completion>,
    ) -> Result<u64, Rejected> {
        let rejection = {
            let mut gate = self.gate.lock().expect("gate poisoned");
            if gate.draining {
                Err(Rejected::Draining)
            } else if self.queue_depth > 0 && gate.depth >= self.queue_depth {
                Err(Rejected::QueueFull { depth: gate.depth })
            } else {
                let inflight = gate.per_client.get(&req.client).copied().unwrap_or(0);
                if self.quota.max_inflight > 0 && inflight >= self.quota.max_inflight {
                    Err(Rejected::QuotaExceeded { client: req.client, inflight })
                } else {
                    let id = gate.next_id;
                    gate.next_id += 1;
                    gate.depth += 1;
                    *gate.per_client.entry(req.client).or_insert(0) += 1;
                    let submission = Submission {
                        id,
                        core: Arc::new(JobCore {
                            module: req.module,
                            func: req.func,
                            pass: req.pass,
                            unit: req.unit,
                            trace_id: req.trace_id,
                        }),
                        func_fp: req.func_fp,
                        client: req.client,
                        tag: req.tag,
                        deadline: self.effective_deadline(req.deadline),
                        max_attempts: self.effective_attempts(req.max_attempts),
                        reply,
                        submitted: Instant::now(),
                    };
                    // Sent under the gate lock: see `Gate::tx`.
                    let _ = gate.tx.send(Msg::Submit(submission));
                    Ok(id)
                }
            }
        };
        match rejection {
            Ok(id) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.enabled() {
                    self.telemetry.registry().counter_add(CounterId::Requests, 1);
                }
                if self.request_events && keq_trace::enabled() {
                    keq_trace::emit(keq_trace::Event::RequestReceived {
                        client: req.client,
                        tag: req.tag,
                    });
                }
                Ok(id)
            }
            Err(rej) => {
                let (counter, metric) = match rej {
                    Rejected::QueueFull { .. } => {
                        (&self.rejected_queue_full, CounterId::RejectedQueueFull)
                    }
                    Rejected::QuotaExceeded { .. } => {
                        (&self.rejected_quota, CounterId::RejectedQuota)
                    }
                    Rejected::Draining => (&self.rejected_draining, CounterId::RejectedDraining),
                };
                counter.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.enabled() {
                    self.telemetry.registry().counter_add(metric, 1);
                }
                if self.request_events && keq_trace::enabled() {
                    keq_trace::emit(keq_trace::Event::RequestRejected {
                        client: req.client,
                        tag: req.tag,
                        reason: rej.reason(),
                    });
                }
                Err(rej)
            }
        }
    }

    /// Accepted-but-unfinalized submissions right now.
    pub fn depth(&self) -> usize {
        self.gate.lock().expect("gate poisoned").depth
    }

    /// Live admission-side counters (the `stats` surface of a running
    /// scheduler). `completed` and `disconnects` are supervisor-local and
    /// only merged at [`Scheduler::drain`]; they read zero here —
    /// `requests - depth()` gives the finalized count live.
    pub fn admission(&self) -> RequestCounters {
        RequestCounters {
            requests: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            ..RequestCounters::default()
        }
    }

    /// Stops admissions, waits for every accepted submission to finalize
    /// (the watchdog still bounds wedged attempts), flushes the store, and
    /// returns the lifetime counters.
    ///
    /// # Panics
    ///
    /// Panics when called twice — the supervisor is joined exactly once.
    pub fn drain(&self) -> SchedulerFinal {
        {
            let mut gate = self.gate.lock().expect("gate poisoned");
            gate.draining = true;
            let _ = gate.tx.send(Msg::Drain);
        }
        let handle = self
            .supervisor
            .lock()
            .expect("supervisor handle poisoned")
            .take()
            .expect("scheduler drained twice");
        let mut fin = handle.join().expect("scheduler supervisor panicked");
        // The supervisor counted completions and disconnects; the gate
        // counted the rest.
        fin.server.merge(&self.admission());
        fin
    }

    fn effective_deadline(&self, requested: Option<Duration>) -> Option<Duration> {
        match (requested.or(self.default_deadline), self.quota.max_deadline) {
            (Some(d), Some(clamp)) => Some(d.min(clamp)),
            (None, clamp) => clamp,
            (d, None) => d,
        }
    }

    fn effective_attempts(&self, requested: Option<u32>) -> u32 {
        let mut n = self.max_attempts;
        if self.quota.max_attempts > 0 {
            n = n.min(self.quota.max_attempts);
        }
        if let Some(r) = requested {
            n = n.min(r);
        }
        n.max(1)
    }
}

/// The supervisor loop: admits submissions, tracks inflight attempts,
/// sweeps the watchdog, applies the retry/quarantine ladder, journals and
/// flushes at finalization, and replaces abandoned workers.
fn supervise(
    config: SchedulerConfig,
    rx: mpsc::Receiver<Msg>,
    gate: Arc<Mutex<Gate>>,
    mut journal_writer: Option<JournalWriter>,
    mut flusher: StoreFlusher,
    telemetry: Arc<Telemetry>,
) -> SchedulerFinal {
    let _trace_guard = config.trace.as_ref().map(keq_trace::install);
    // The supervisor installs the registry too: journal appends and store
    // flushes happen on this thread and report through the thread-local
    // metric probes, like any worker-side probe site.
    let _metrics_guard =
        telemetry.enabled().then(|| keq_trace::install_metrics(telemetry.registry()));
    let settings = Arc::new(AttemptSettings {
        keq: config.keq,
        isel: config.isel,
        vc: config.vc,
        ra: config.ra,
        gvn: config.gvn,
        retry: config.retry,
        fault_plan: config.fault_plan,
        warm_start: config.warm_start,
        trace: config.trace.clone(),
        metrics: telemetry.enabled().then(|| Arc::clone(telemetry.registry())),
    });
    let queue = Arc::new(ShardedQueue::new(config.workers));
    let ctxs = Arc::new(WarmStarts::default());
    let worker_tx = gate.lock().expect("gate poisoned").tx.clone();

    let mut pool: Vec<Worker> = Vec::new();
    for id in 0..config.workers {
        pool.push(spawn_worker(&settings, &queue, &ctxs, &config.shared, &worker_tx, id));
    }

    let mut subs: HashMap<u64, SubState> = HashMap::new();
    let mut job_meta: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut inflight: HashMap<u64, Inflight> = HashMap::new();
    let mut next_job: u64 = 0;
    let mut draining = false;
    let mut solver_total = SolverStats::default();
    // Completions and disconnects; the gate counts admissions.
    let mut finalized = RequestCounters::default();
    let mut latency = keq_trace::Histogram::log_us("request latency (µs)");
    let mut last_sample = Instant::now();

    loop {
        match rx.recv_timeout(config.watchdog_tick) {
            Ok(Msg::Submit(sub)) => {
                let job = Job {
                    id: next_job,
                    submission: sub.id,
                    attempt: 1,
                    core: Arc::clone(&sub.core),
                };
                job_meta.insert(next_job, (sub.id, 1));
                next_job += 1;
                subs.insert(
                    sub.id,
                    SubState {
                        core: sub.core,
                        func_fp: sub.func_fp,
                        client: sub.client,
                        tag: sub.tag,
                        deadline: sub.deadline,
                        max_attempts: sub.max_attempts,
                        reply: sub.reply,
                        submitted: sub.submitted,
                        first_started: None,
                        attempts: Vec::new(),
                        solver_acc: SolverStats::default(),
                        phase_acc: [0; Phase::ALL.len()],
                    },
                );
                queue.push(job);
            }
            Ok(Msg::Started { job, worker, cancel }) => {
                let Some(&(submission, attempt)) = job_meta.get(&job) else { continue };
                let Some(st) = subs.get_mut(&submission) else { continue };
                let now = Instant::now();
                if st.first_started.is_none() {
                    st.first_started = Some(now);
                }
                inflight.insert(
                    job,
                    Inflight {
                        submission,
                        trace_id: st.core.trace_id,
                        attempt,
                        worker,
                        cancel,
                        started: now,
                        deadline: st.deadline.map(|d| now + d),
                        cancelled_at: None,
                    },
                );
            }
            Ok(Msg::Finished { job, outcome }) => {
                // A `Finished` with no inflight entry is a stale result
                // from an abandoned worker: its submission already has a
                // Timeout verdict, so the late one is discarded.
                let Some(info) = inflight.remove(&job) else { continue };
                job_meta.remove(&job);
                solver_total.merge(&outcome.solver);
                if telemetry.enabled() {
                    let reg = telemetry.registry();
                    reg.counter_add(CounterId::Attempts, 1);
                    if info.attempt > 1 {
                        reg.counter_add(CounterId::Retries, 1);
                    }
                    // The solver table's `sampled` rows; its `at_source`
                    // rows (the rewrite counters) were bumped by the
                    // rewriter itself.
                    outcome.solver.add_sampled(reg);
                    reg.observe_us(
                        HistId::AttemptWallUs,
                        u64::try_from(outcome.time.as_micros()).unwrap_or(u64::MAX),
                    );
                }
                let Some(st) = subs.get_mut(&info.submission) else { continue };
                st.solver_acc.merge(&outcome.solver);
                for (acc, us) in st.phase_acc.iter_mut().zip(outcome.phase_us) {
                    *acc += us;
                }
                st.attempts.push(AttemptRecord {
                    attempt: info.attempt,
                    budget_scale: settings.retry.scale(info.attempt),
                    time: outcome.time,
                    result: outcome.result.clone(),
                    abandoned: false,
                });
                // A supervisor-cancelled attempt hit the *hard* deadline;
                // escalated budgets cannot outrun the wall clock, so it is
                // final regardless of the in-band failure reason.
                let may_retry = outcome.retryable
                    && info.cancelled_at.is_none()
                    && info.attempt < st.max_attempts;
                if may_retry {
                    let job = Job {
                        id: next_job,
                        submission: info.submission,
                        attempt: info.attempt + 1,
                        core: Arc::clone(&st.core),
                    };
                    job_meta.insert(next_job, (info.submission, info.attempt + 1));
                    next_job += 1;
                    queue.push(job);
                } else {
                    // A crash that survived its retries (`retry_crashes`
                    // made it retryable, and this was the last allowed
                    // attempt) is reproducible, not transient: quarantine
                    // it so the summary separates "crashed once" from
                    // "still crashing after N attempts".
                    let result = match outcome.result {
                        CorpusResult::Crashed { message, location }
                            if outcome.retryable
                                && info.attempt >= st.max_attempts
                                && info.attempt > 1 =>
                        {
                            CorpusResult::Quarantined { message, location }
                        }
                        result => result,
                    };
                    let st = subs.remove(&info.submission).expect("present above");
                    // No further attempt will run, and the worker's put
                    // happened before its `Finished` send: erase the
                    // warm-start entry outright.
                    ctxs.remove(info.submission);
                    finalize_submission(
                        info.submission,
                        st,
                        result,
                        &mut journal_writer,
                        &mut flusher,
                        &gate,
                        &mut latency,
                        &mut finalized,
                        config.request_events,
                        &telemetry,
                    );
                }
            }
            Ok(Msg::Drain) => draining = true,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Watchdog sweep: cancel past-deadline jobs, abandon workers that
        // ignore the cancellation past the grace period.
        let now = Instant::now();
        let mut abandon: Vec<u64> = Vec::new();
        for (&job, info) in inflight.iter_mut() {
            if info.cancelled_at.is_none() && info.deadline.is_some_and(|d| now >= d) {
                info.cancel.cancel();
                info.cancelled_at = Some(now);
                keq_trace::emit(keq_trace::Event::DeadlineCancelled {
                    func: info.trace_id,
                    attempt: info.attempt,
                });
            }
            if info.cancelled_at.is_some_and(|t| now >= t + config.grace) {
                abandon.push(job);
            }
        }
        for job in abandon {
            let info = inflight.remove(&job).expect("selected above");
            job_meta.remove(&job);
            keq_trace::emit(keq_trace::Event::WatchdogAbandoned {
                func: info.trace_id,
                attempt: info.attempt,
            });
            let Some(mut st) = subs.remove(&info.submission) else { continue };
            st.attempts.push(AttemptRecord {
                attempt: info.attempt,
                budget_scale: settings.retry.scale(info.attempt),
                time: now - info.started,
                result: CorpusResult::Timeout,
                abandoned: true,
            });
            finalize_submission(
                info.submission,
                st,
                CorpusResult::Timeout,
                &mut journal_writer,
                &mut flusher,
                &gate,
                &mut latency,
                &mut finalized,
                config.request_events,
                &telemetry,
            );
            // The abandoned worker still *owns* the submission's context
            // (it took it before the attempt) and may try to re-insert it
            // if it ever finishes; retiring bumps the generation so that
            // late insert is dropped instead of resurrecting a dead entry.
            ctxs.retire(info.submission);
            // Retire the wedged worker (its thread stays detached) and
            // keep the pool at strength with a fresh replacement.
            retire_worker(&mut pool, info.worker);
            let id = pool.len();
            pool.push(spawn_worker(&settings, &queue, &ctxs, &config.shared, &worker_tx, id));
        }

        // Gauge refresh + one collector sample per interval. Gauges are
        // point-in-time reads of supervisor-visible state, so sampling
        // them here (not at the probe sites) keeps the hot paths free.
        if telemetry.enabled() && last_sample.elapsed() >= config.metrics.sample_interval {
            last_sample = Instant::now();
            let reg = telemetry.registry();
            let depth = gate.lock().expect("gate poisoned").depth as u64;
            reg.gauge_set(GaugeId::QueueDepth, depth);
            let busy = inflight.len() as u64;
            reg.gauge_set(GaugeId::WorkersBusy, busy);
            let active =
                pool.iter().filter(|w| !w.retired.load(Ordering::Acquire)).count() as u64;
            reg.gauge_set(GaugeId::WorkersIdle, active.saturating_sub(busy));
            let degraded = flusher.stats.degraded
                || journal_writer.as_ref().is_some_and(|w| w.degraded);
            reg.gauge_set(GaugeId::StoreDegraded, u64::from(degraded));
            let cache = config.shared.stats();
            reg.gauge_set(GaugeId::ObcacheEntries, cache.entries);
            reg.gauge_set(GaugeId::ObcacheBytes, cache.bytes);
            telemetry.sample_now();
        }

        if draining && subs.is_empty() {
            break;
        }
    }

    queue.close();
    drop(worker_tx);
    for w in &mut pool {
        if w.retired.load(Ordering::Acquire) {
            // Abandoned (possibly parked forever): detach, never join.
            drop(w.handle.take());
        } else if let Some(h) = w.handle.take() {
            let _ = h.join();
        }
    }

    // The shutdown flush, through the same breaker-guarded path as the
    // incremental ones. Persistence stays best-effort — an I/O error costs
    // the next run's warm start, not this run's results — but it is not
    // *silent*: a failure lands in the summary (and its `summary_line`
    // warning) and was already traced as a `StoreError` event.
    flusher.finish();
    let cache_stats = config.shared.stats();
    // One closing sample so even a short run's series carry its final
    // counter state (and `samples > 0` holds whenever metrics were on).
    if telemetry.enabled() {
        let reg = telemetry.registry();
        reg.gauge_set(GaugeId::QueueDepth, 0);
        reg.gauge_set(GaugeId::WorkersBusy, 0);
        reg.gauge_set(GaugeId::ObcacheEntries, cache_stats.entries);
        reg.gauge_set(GaugeId::ObcacheBytes, cache_stats.bytes);
        telemetry.sample_now();
    }
    SchedulerFinal {
        solver: solver_total,
        cache: CacheCounters {
            evictions: cache_stats.evictions,
            entries: cache_stats.entries,
            disk_loaded: config.disk_loaded,
            disk_rejected: config.disk_rejected,
            ..flusher.stats
        },
        server: finalized,
        latency,
        telemetry: telemetry.section(),
    }
}

/// Finalizes one submission: journal append, latency/counter accounting,
/// store-flush tick, gate release, and verdict delivery (a dead reply
/// channel counts as a disconnect — shared state is already consistent).
#[allow(clippy::too_many_arguments)]
fn finalize_submission(
    submission: u64,
    st: SubState,
    result: CorpusResult,
    journal_writer: &mut Option<JournalWriter>,
    flusher: &mut StoreFlusher,
    gate: &Mutex<Gate>,
    latency: &mut keq_trace::Histogram,
    finalized: &mut RequestCounters,
    request_events: bool,
    telemetry: &Telemetry,
) {
    journal_finalize(journal_writer, st.core.func, st.core.pass, st.func_fp, &st.attempts, &result);
    flusher.tick();
    let wall = st.submitted.elapsed();
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    let queue_us = st
        .first_started
        .map(|t| u64::try_from((t - st.submitted).as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(wall_us);
    latency.add(wall_us as f64);
    finalized.completed += 1;
    telemetry.observe_request(wall_us, latency);
    if telemetry.enabled() {
        let phase_us: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .zip(st.phase_acc)
            .filter(|&(_, us)| us > 0)
            .map(|(p, us)| (*p, us))
            .collect();
        telemetry.offer_slow(SlowObligation {
            // Hex, not a JSON number: u64 fingerprints can exceed 2^53.
            fingerprint: format!("{:016x}", st.func_fp),
            label: format!(
                "{}:{}",
                st.core.pass.name(),
                st.core.module.functions[st.core.func].name
            ),
            wall_us,
            result: result.kind().name().to_string(),
            attempts: st.attempts.len() as u64,
            retries: (st.attempts.len() as u64).saturating_sub(1),
            phase_us,
            solver: st.solver_acc,
        });
    }
    {
        let mut g = gate.lock().expect("gate poisoned");
        g.depth = g.depth.saturating_sub(1);
        if let Some(n) = g.per_client.get_mut(&st.client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                g.per_client.remove(&st.client);
            }
        }
    }
    let result_name = result.kind().name();
    let delivered = st
        .reply
        .send(Completion {
            submission,
            tag: st.tag,
            result,
            attempts: st.attempts,
            queue_us,
            wall_us,
        })
        .is_ok();
    if !delivered {
        finalized.disconnects += 1;
        if telemetry.enabled() {
            telemetry.registry().counter_add(CounterId::Disconnects, 1);
        }
    }
    if request_events && keq_trace::enabled() {
        keq_trace::emit(keq_trace::Event::RequestCompleted {
            client: st.client,
            tag: st.tag,
            result: result_name,
            queue_us,
            wall_us,
        });
    }
}

fn retire_worker(pool: &mut [Worker], worker: usize) {
    if let Some(w) = pool.get_mut(worker) {
        w.retired.store(true, Ordering::Release);
    }
}

fn spawn_worker(
    settings: &Arc<AttemptSettings>,
    queue: &Arc<ShardedQueue>,
    ctxs: &Arc<WarmStarts>,
    shared: &Arc<SharedObligationCache>,
    tx: &mpsc::Sender<Msg>,
    id: usize,
) -> Worker {
    let settings = Arc::clone(settings);
    let queue = Arc::clone(queue);
    let ctxs = Arc::clone(ctxs);
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    let retired = Arc::new(AtomicBool::new(false));
    let retired_in = Arc::clone(&retired);
    let handle = std::thread::Builder::new()
        .name("keq-harness-worker".into())
        .spawn(move || {
            let _trace_guard = settings.trace.as_ref().map(keq_trace::install);
            let _metrics_guard = settings.metrics.as_ref().map(keq_trace::install_metrics);
            while !retired_in.load(Ordering::Acquire) {
                let Some(job) = queue.pop(id) else { break };
                // Decorrelated-jitter backoff before retries, *before*
                // announcing the job: the sleep must not consume the
                // attempt's deadline.
                let backoff = settings.retry.backoff_for(
                    settings.fault_plan.seed,
                    job.core.unit,
                    job.attempt,
                );
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                let cancel = CancelToken::new();
                let started = Msg::Started { job: job.id, worker: id, cancel: cancel.clone() };
                if tx.send(started).is_err() {
                    break;
                }
                let start = Instant::now();
                let outcome = run_attempt(&settings, &ctxs, &shared, &job, &cancel, start);
                if tx.send(Msg::Finished { job: job.id, outcome: Box::new(outcome) }).is_err() {
                    break;
                }
            }
        })
        .expect("spawn worker thread");
    Worker { retired, handle: Some(handle) }
}

/// Runs one attempt on the worker thread: arm the unit's injected fault,
/// take the submission's warm-start context, validate under
/// `catch_unwind`, put the context back, classify.
fn run_attempt(
    settings: &AttemptSettings,
    ctxs: &WarmStarts,
    shared: &Arc<SharedObligationCache>,
    job: &Job,
    cancel: &CancelToken,
    start: Instant,
) -> AttemptOutcome {
    let core = &job.core;
    let keq = settings.retry.options_for_attempt(settings.keq, job.attempt);
    let _fault = fault::install(&settings.fault_plan, core.unit);
    let _trace_ctx = keq_trace::with_attempt(core.trace_id, job.attempt);
    keq_trace::emit(keq_trace::Event::AttemptStart {
        func: core.trace_id,
        attempt: job.attempt,
        budget_scale: settings.retry.scale(job.attempt),
    });
    let (generation, mut ctx) = if settings.warm_start {
        let (generation, ctx) = ctxs.take(job.submission);
        (generation, ctx.unwrap_or_default())
    } else {
        (0, ValidationContext::new())
    };
    // (Re-)attach the run's shared obligation cache on every attempt:
    // fresh contexts start detached, and a warm-started context carries
    // whatever was attached last time.
    ctx.attach_obligation_cache(Some(Arc::clone(shared)));
    // The warm-start context carries cumulative solver statistics from
    // earlier attempts; snapshot them so this attempt reports its delta.
    let stats_before = ctx.solver.stats();
    // The context rides inside the closure so a panic mid-validation drops
    // it during unwind: a context of unknown consistency is never reused
    // (and panics are not retryable anyway).
    let opts = PassOptions {
        isel: settings.isel,
        vc: settings.vc,
        ra: settings.ra,
        gvn: settings.gvn,
    };
    let pass = core.pass;
    let module_in = Arc::clone(&core.module);
    let func_idx = core.func;
    let outcome = panic_capture::run_caught(move || {
        let r = keq_isel::validate_pass_with_context(
            pass,
            &module_in,
            &module_in.functions[func_idx],
            opts,
            keq,
            Some(cancel),
            &mut ctx,
        );
        (r, ctx)
    });
    let mut solver = SolverStats::default();
    let (result, retryable) = match outcome {
        Ok((Ok(report), ctx)) => {
            solver = ctx.solver.stats().since(&stats_before);
            if settings.warm_start {
                // Dropped, not inserted, if the supervisor retired the
                // submission while this attempt ran (watchdog abandonment).
                ctxs.put(job.submission, generation, ctx);
            }
            classify(&report.verdict)
        }
        // Unsupported functions never get better with bigger budgets.
        Ok((Err(_), ctx)) => {
            solver = ctx.solver.stats().since(&stats_before);
            (CorpusResult::Other, false)
        }
        Err(panic) => {
            if keq_trace::enabled() {
                keq_trace::emit(keq_trace::Event::PanicCaptured {
                    func: core.trace_id,
                    attempt: job.attempt,
                    message: panic.message.clone(),
                    location: panic.location.clone(),
                });
            }
            // Crash-class retryability is opt-in: panics are only worth a
            // second attempt when the fault surface is known to be
            // transient (fault campaigns, flaky external tooling).
            (
                CorpusResult::Crashed { message: panic.message, location: panic.location },
                settings.retry.retry_crashes,
            )
        }
    };
    let time = start.elapsed();
    keq_trace::emit(keq_trace::Event::AttemptEnd {
        func: core.trace_id,
        attempt: job.attempt,
        result: result.kind().name(),
        dur_us: u64::try_from(time.as_micros()).unwrap_or(u64::MAX),
    });
    // Drain this thread's phase accumulator so the attempt's span times
    // travel with its outcome (and the next attempt on this worker starts
    // from zero). All-zero when metrics are off. Spans dropped during a
    // panic unwind still landed in the accumulator, so even a crashed
    // attempt reports where its time went.
    let phase_us = keq_trace::take_phase_totals();
    AttemptOutcome { result, retryable, time, solver, phase_us }
}

/// Maps a verdict to its Fig. 6 row and decides whether escalated budgets
/// could change it.
fn classify(verdict: &Verdict) -> (CorpusResult, bool) {
    match verdict {
        Verdict::Equivalent | Verdict::Refines => (CorpusResult::Succeeded, false),
        Verdict::NotValidated(fail) => {
            let retryable = matches!(
                fail.reason,
                FailureReason::FuelExhausted { .. }
                    | FailureReason::TimeLimit
                    | FailureReason::SolverBudget(_)
            );
            let result = match fail.reason.failure_class() {
                keq_core::FailureClass::Timeout => CorpusResult::Timeout,
                keq_core::FailureClass::OutOfMemory => CorpusResult::OutOfMemory,
                keq_core::FailureClass::Other => CorpusResult::Other,
            };
            (result, retryable)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stale-context resurrection regression: a watchdog-abandoned
    /// worker's detached thread finishes *after* the supervisor retired
    /// its submission. Its put must be dropped — before the generation
    /// check, the late insert parked a dead submission's term bank in the
    /// map for the rest of the run.
    #[test]
    fn late_put_after_retire_is_dropped() {
        let warm = WarmStarts::default();
        warm.put(3, 0, ValidationContext::new());
        let (generation, ctx) = warm.take(3);
        assert!(ctx.is_some());

        // Supervisor abandons the attempt and finalizes the submission.
        warm.retire(3);

        // The detached worker eventually finishes and puts "back".
        warm.put(3, generation, ValidationContext::new());
        assert!(!warm.contains(3), "retired submission must not resurrect its context");

        // And a *current*-generation put after the retire still works
        // (not relevant to finalized submissions, but proves retire only
        // invalidates earlier takes, not the map entry forever).
        let (generation, ctx) = warm.take(3);
        assert!(ctx.is_none());
        warm.put(3, generation, ValidationContext::new());
        assert!(warm.contains(3));
    }

    #[test]
    fn put_with_matching_generation_round_trips() {
        let warm = WarmStarts::default();
        let (generation, ctx) = warm.take(7);
        assert_eq!(generation, 0);
        assert!(ctx.is_none(), "fresh submission has no context yet");
        warm.put(7, generation, ValidationContext::new());
        assert!(warm.contains(7));

        // A take hands the context out exclusively.
        let (generation, ctx) = warm.take(7);
        assert!(ctx.is_some());
        assert!(!warm.contains(7));
        warm.put(7, generation, ctx.unwrap());
        assert!(warm.contains(7));
    }

    #[test]
    fn retire_is_per_submission() {
        let warm = WarmStarts::default();
        let (g1, _) = warm.take(1);
        let (g2, _) = warm.take(2);
        warm.retire(1);
        warm.put(1, g1, ValidationContext::new());
        warm.put(2, g2, ValidationContext::new());
        assert!(!warm.contains(1), "retired submission dropped");
        assert!(warm.contains(2), "unrelated submission unaffected");
    }

    /// Delivered-result cleanup erases the whole entry — generation
    /// included — so a long-lived server's map does not grow with every
    /// request ever served. Safe because submission ids are never reused.
    #[test]
    fn remove_erases_the_entry_entirely() {
        let warm = WarmStarts::default();
        let (g, _) = warm.take(9);
        warm.put(9, g, ValidationContext::new());
        warm.retire(9); // tombstone exists now
        assert!(warm.tracked(9));
        warm.remove(9);
        assert!(!warm.tracked(9), "remove leaves nothing behind");
    }

    #[test]
    fn sharded_queue_round_trips_and_steals() {
        let core = Arc::new(JobCore {
            module: Arc::new(Module::default()),
            func: 0,
            pass: PassId::Isel,
            unit: 0,
            trace_id: 0,
        });
        let q = ShardedQueue::new(2);
        for i in 0..4u64 {
            q.push(Job { id: i, submission: i, attempt: 1, core: Arc::clone(&core) });
        }
        // Worker 0's home shard holds even submissions; it drains its own
        // in FIFO order first, then steals the odd ones.
        let mut seen: Vec<u64> = (0..4).map(|_| q.pop(0).expect("job").id).collect();
        assert_eq!(seen[0], 0, "home shard served FIFO");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "every job claimed exactly once");
        q.close();
        assert!(q.pop(0).is_none(), "closed and drained");
        assert!(q.pop(1).is_none());
    }

    #[test]
    fn sharded_queue_wakes_blocked_workers_on_close() {
        let q = Arc::new(ShardedQueue::new(4));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.pop(3));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(waiter.join().expect("waiter thread").is_none());
    }
}
