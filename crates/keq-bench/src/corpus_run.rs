//! Corpus-scale validation driver shared by the Fig. 6 and Fig. 7
//! harnesses — a thin wrapper over the fault-isolated [`keq_harness`]
//! supervisor (panic isolation, watchdog deadlines, escalating-budget
//! retry), which also makes this the repo's first *parallel* corpus
//! driver.

use keq_core::KeqOptions;
use keq_llvm::ast::Module;
use keq_workload::{generate_corpus, GenConfig};

pub use keq_harness::{
    build_report, outcome_table, run_module, AttemptRecord, CorpusResult, CorpusRow, CorpusSummary,
    HarnessOptions, ResultKind, RetryPolicy,
};

/// Generates `n` corpus functions and validates each under the given
/// resource limits, mirroring the paper's §5.1 experiment. Functions are
/// distributed over the harness's worker pool; rows come back ordered by
/// function index, so the output is deterministic in content.
pub fn run_corpus(seed: u64, n: usize, keq_opts: KeqOptions) -> (Module, CorpusSummary) {
    let opts = HarnessOptions { keq: keq_opts, ..HarnessOptions::default() };
    run_corpus_with(seed, n, &opts)
}

/// [`run_corpus`] with full control over the harness (worker count,
/// deadlines, retry policy, fault plan).
pub fn run_corpus_with(seed: u64, n: usize, opts: &HarnessOptions) -> (Module, CorpusSummary) {
    run_corpus_cfg(GenConfig { seed, ..GenConfig::default() }, n, opts)
}

/// [`run_corpus_with`] with full control over the *generator* as well —
/// e.g. the high-register-pressure profile (`cfg.pressure`) that forces
/// the spilling allocator onto its spill path.
pub fn run_corpus_cfg(cfg: GenConfig, n: usize, opts: &HarnessOptions) -> (Module, CorpusSummary) {
    let module = generate_corpus(cfg, n);
    let summary = run_module(&module, opts);
    (module, summary)
}
