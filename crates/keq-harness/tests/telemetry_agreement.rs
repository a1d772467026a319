//! The metrics registry and the run report count the same things.
//!
//! Solver counters reach the registry two ways: `sampled` rows of the
//! solver table are added from each delivered attempt's `SolverStats`
//! delta by the supervisor, and `at_source` rows (the rewrite counters)
//! are bumped by the rewriter as it runs. Request counters are bumped at
//! the gate and at finalization. This test runs a small batch with
//! metrics on and no watchdog abandonment, and checks every fed field of
//! both tables against the registry.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use keq_harness::{
    journal, ClientQuota, MetricsConfig, Request, RetryPolicy, Scheduler, SchedulerConfig,
};
use keq_isel::PassId;
use keq_smt::fault::FaultPlan;
use keq_smt::obcache::{StdStoreIo, StoreIo};
use keq_smt::SharedObligationCache;
use keq_trace::{CounterId, CounterTable, Feed, Registry};
use keq_workload::{generate_corpus, GenConfig};

fn config() -> SchedulerConfig {
    SchedulerConfig {
        keq: Default::default(),
        isel: Default::default(),
        vc: Default::default(),
        ra: Default::default(),
        gvn: Default::default(),
        workers: 2,
        deadline: None,
        grace: Duration::from_millis(60),
        watchdog_tick: Duration::from_millis(5),
        retry: RetryPolicy::default(),
        fault_plan: FaultPlan::quiet(0),
        warm_start: true,
        trace: None,
        queue_depth: 0,
        quota: ClientQuota::default(),
        request_events: false,
        shared: Arc::new(SharedObligationCache::new()),
        io: Arc::new(StdStoreIo) as Arc<dyn StoreIo>,
        cache_path: None,
        disk_loaded: 0,
        disk_rejected: 0,
        store_flush_every: 0,
        store_breaker_threshold: 3,
        journal: None,
        metrics: MetricsConfig { enabled: true, ..MetricsConfig::default() },
    }
}

/// Checks every fed field of one table against the registry; returns the
/// registry counters covered.
fn check_table<T: CounterTable>(what: &str, stats: &T, reg: &Registry) -> Vec<CounterId> {
    let mut covered = Vec::new();
    for (field, value) in T::FIELDS.iter().zip(stats.wire_values()) {
        let ids: &[CounterId] = match &field.feed {
            Feed::None => continue,
            Feed::Sampled(id) => std::slice::from_ref(id),
            Feed::AtSource(ids) => ids,
        };
        let registry_total: u64 = ids.iter().map(|&id| reg.counter(id)).sum();
        assert_eq!(
            registry_total, value,
            "{what}.{}: registry {ids:?} total {registry_total} disagrees with the run's {value}",
            field.name
        );
        covered.extend_from_slice(ids);
    }
    covered
}

#[test]
fn registry_totals_match_the_merged_run_counters() {
    let corpus = Arc::new(generate_corpus(GenConfig { seed: 2021, ..GenConfig::default() }, 3));
    let sched = Scheduler::start(config());
    let (tx, rx) = mpsc::channel();
    // Two rounds over the same functions under every pass: the second
    // round is served partly by the shared obligation cache, so hits,
    // misses, and stores are all exercised.
    let mut submitted = 0u64;
    for round in 0..2u64 {
        for (func, f) in corpus.functions.iter().enumerate() {
            for pass in [PassId::Isel, PassId::Regalloc, PassId::Gvn] {
                let req = Request {
                    module: Arc::clone(&corpus),
                    func,
                    pass,
                    func_fp: journal::function_fingerprint(f),
                    unit: func as u64,
                    trace_id: func as u32,
                    client: round,
                    tag: submitted,
                    deadline: None,
                    max_attempts: None,
                };
                sched.submit(req, tx.clone()).expect("unbounded scheduler admits");
                submitted += 1;
            }
        }
    }
    drop(tx);
    let completions: Vec<_> = rx.iter().collect();
    assert_eq!(completions.len() as u64, submitted);
    assert!(
        completions.iter().flat_map(|c| &c.attempts).all(|a| !a.abandoned),
        "no watchdog abandonment: every attempt's delta was delivered"
    );

    let fin = sched.drain();
    let telemetry = sched.telemetry();
    let reg = telemetry.registry();
    let s = &fin.solver;
    assert!(s.queries > 0 && s.rewrite_passes > 0, "the batch exercised the solver: {s:?}");
    assert!(s.obligation_cache_hits > 0, "the second round hit the shared cache: {s:?}");

    let mut covered = check_table("solver", s, reg);
    covered.extend(check_table("server", &fin.server, reg));
    for id in [
        CounterId::SolverQueries,
        CounterId::CdclConflicts,
        CounterId::CdclRestarts,
        CounterId::ObligationCacheHits,
        CounterId::ObligationCacheMisses,
        CounterId::ObligationCacheStores,
        CounterId::LbdKept,
        CounterId::RewritePasses,
        CounterId::RewriteNodesSaved,
        CounterId::RewriteConstFold,
        CounterId::RewriteAlgebraic,
        CounterId::RewriteCancel,
        CounterId::RewriteWidth,
        CounterId::RewriteMemory,
        CounterId::RewriteIte,
        CounterId::Requests,
        CounterId::Completed,
        CounterId::Disconnects,
    ] {
        assert!(covered.contains(&id), "{id:?} is fed by no table row");
    }
    assert_eq!(fin.server.requests, submitted);
    assert_eq!(fin.server.completed, submitted);
}
