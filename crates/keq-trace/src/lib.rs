//! `keq-trace`: zero-dependency structured observability for the KEQ
//! validation pipeline.
//!
//! Every layer of the pipeline — LLVM parsing, instruction selection,
//! register allocation, VC generation, the cut-bisimulation checker, the
//! solver, and the corpus harness — reports through one typed event
//! vocabulary ([`Event`]) into a per-thread [`Recorder`]. The design
//! follows three rules:
//!
//! 1. **Zero dependencies.** The workspace is hermetic (DESIGN.md §5);
//!    JSON emission and parsing are hand-rolled in [`json`].
//! 2. **Free when off.** Probe sites ([`emit`], [`span`]) cost one
//!    thread-local flag read and a branch when no recorder is installed:
//!    no allocation, no lock, no clock read. Heap-carrying events are
//!    constructed behind [`enabled`] checks at the call sites.
//! 3. **One schema end to end.** The in-memory ring [`Journal`], the
//!    streaming [`JsonlSink`], and the aggregated [`RunReport`]
//!    (`RUN_REPORT.json`, schema [`REPORT_SCHEMA`]) all serialize the same
//!    events, and [`report::validate`] checks emitted reports against the
//!    same definitions — whatever one side writes, the other parses.
//!
//! Installation is per-thread and guard-scoped (mirroring the fault
//! injector in `keq-smt`): the harness supervisor installs a shared sink
//! for its own watchdog events and each worker installs the same sink plus
//! a [`with_attempt`] context, so every event lands stamped with the
//! `(function, attempt)` it belongs to.

pub mod counters;
pub mod event;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use counters::{CounterTable, Feed, RequestCounters, SolverStats};
pub use event::{Event, Phase, TraceEvent};
pub use histogram::Histogram;
pub use journal::{Journal, JsonlSink, DEFAULT_JOURNAL_CAPACITY};
pub use json::{Json, JsonError};
pub use metrics::{
    install_metrics, metrics_enabled, take_phase_totals, Collector, CounterId, GaugeId, HistId,
    MetricsGuard, Registry, Series,
};
pub use recorder::{
    current_attempt, emit, enabled, flush_sink, install, span, with_attempt, CtxGuard, Fanout,
    Recorder, Span, TraceGuard, TraceSink,
};
pub use report::{
    check_phase_coverage, phase_summaries, validate, AttemptReport, CacheCounters, FunctionReport,
    OutcomeTable, PassSection, PhaseSummary, ResumeSection, RunReport, ServerSection,
    SlowObligation, TelemetrySection, Violation, LATENCY_KEYS, REPORT_SCHEMA,
};
