//! # keq-bench — experiment harnesses
//!
//! Bench targets regenerating every table and figure of the paper's
//! evaluation (see EXPERIMENTS.md at the repository root for the index),
//! and the acceptance-bar driver `keq_bench` over [`scenarios::SCENARIOS`].

pub mod corpus_run;
pub mod normalization_workload;
pub mod record;
pub mod scenarios;
pub mod session_workload;

pub use corpus_run::{
    build_report, outcome_table, run_corpus, run_corpus_cfg, run_corpus_with, run_module,
    AttemptRecord, CorpusResult, CorpusRow, CorpusSummary, HarnessOptions, ResultKind, RetryPolicy,
};
/// The shared histogram type (lives in `keq-trace` so the run report's
/// latency distributions and the Fig. 7 plots use the same buckets).
pub use keq_trace::Histogram;
pub use keq_workload::GenConfig;
pub use normalization_workload::normalization_workload;
pub use session_workload::{sync_point_workload, SessionWorkload};
