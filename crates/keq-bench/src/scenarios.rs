//! The acceptance-bar scenario table that `cargo bench --bench keq_bench`
//! runs.
//!
//! Each [`Scenario`] drives one of the validator's reuse layers (session
//! prefix reuse, retry warm starts, the obligation cache, the verdict
//! journal, obligation normalization, fingerprinting, the pass pipeline,
//! the resident server) and records into a [`Record`] what it measured
//! and the bars that layer is held to. Sizes are constants of the table:
//! `full` for a plain run, `smoke` for `--smoke`. End-to-end and
//! per-layer timing of fixed workloads is the `benchmark/` package's job;
//! these scenarios check that each layer still does what it claims.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use keq_core::KeqOptions;
use keq_harness::protocol::{ClientRequest, ServerResponse, StatsSnapshot};
use keq_harness::{
    connect, corpus_fingerprint, journal, ClientConn, JournalWriter, MetricsConfig, Server,
    ServerOptions,
};
use keq_isel::{allocate_with_options, select, IselOptions, PassId, RaOptions};
use keq_llvm::ast::Module;
use keq_llvm::gvn::{run_gvn, GvnOptions};
use keq_llvm::Layout;
use keq_smt::obcache::StdStoreIo;
use keq_smt::{Budget, CheckOutcome, SharedObligationCache, Solver, SolverStats, TermBank};
use keq_trace::json::{self, Json};
use keq_trace::{CounterTable, Histogram};
use keq_workload::{generate_corpus, GenConfig};

use crate::record::{ms, Record};
use crate::{
    normalization_workload, outcome_table, run_corpus_cfg, sync_point_workload, CorpusSummary,
    HarnessOptions, ResultKind, RetryPolicy, SessionWorkload,
};

/// The seed every scenario's corpus is generated from.
pub const SEED: u64 = 2021;

/// Bit width of the synthetic solver workloads.
const WIDTH: u32 = 32;

/// Extra live temporaries pinned by the `passes` regalloc leg's corpus.
const PRESSURE: usize = 10;

/// Parallel client connections in the `server` steady state.
const CONNS: usize = 2;

/// Absolute slack on the wall-clock bars: smoke-sized runs finish in tens
/// of milliseconds, where scheduling jitter dwarfs the work measured.
const SLACK: Duration = Duration::from_millis(250);

/// A scenario's size; fields a scenario does not read are zero.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Obligations or corpus functions.
    pub n: usize,
    /// Per-function wall-clock limit, in seconds.
    pub secs: u64,
    /// Timed iterations or measured steady-state rounds.
    pub rounds: usize,
}

const fn size(n: usize, secs: u64, rounds: usize) -> Size {
    Size { n, secs, rounds }
}

/// One row of [`SCENARIOS`].
pub struct Scenario {
    /// The scenario's name in `BENCH.json`.
    pub name: &'static str,
    /// Size of a plain run.
    pub full: Size,
    /// Size of a `--smoke` run.
    pub smoke: Size,
    body: fn(Size, &mut Record),
}

const fn row(name: &'static str, full: Size, smoke: Size, body: fn(Size, &mut Record)) -> Scenario {
    Scenario { name, full, smoke, body }
}

/// Every scenario in run order: name, full and smoke
/// `size(n, secs, rounds)`, body.
pub const SCENARIOS: &[Scenario] = &[
    row("session_reuse", size(16, 0, 0), size(6, 0, 0), session_reuse),
    row("retry_warm_start", size(24, 10, 0), size(4, 5, 0), retry_warm_start),
    row("obligation_cache", size(24, 10, 0), size(8, 10, 0), obligation_cache),
    row("journal_resume", size(24, 10, 0), size(12, 10, 0), journal_resume),
    row("normalization", size(40, 0, 0), size(12, 0, 0), normalization),
    row("fingerprint_overhead", size(12, 0, 8), size(12, 0, 8), fingerprint_overhead),
    row("passes", size(16, 10, 0), size(6, 5, 0), passes),
    row("server", size(16, 10, 4), size(8, 10, 2), server),
];

/// The scenario called `name`.
///
/// # Panics
///
/// Panics when the table has no such scenario.
pub fn scenario(name: &str) -> &'static Scenario {
    SCENARIOS.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no scenario {name:?}"))
}

impl Scenario {
    /// Runs the scenario at its smoke or full size.
    pub fn run(&self, smoke: bool) -> Record {
        let size = if smoke { self.smoke } else { self.full };
        let mut rec = Record::default();
        rec.put("name", Json::Str(self.name.to_string()));
        rec.put(
            "size",
            json::obj(vec![
                ("n", json::num(size.n as u64)),
                ("secs", json::num(size.secs)),
                ("rounds", json::num(size.rounds as u64)),
            ]),
        );
        let (wall, ()) = timed(|| (self.body)(size, &mut rec));
        rec.put("wall_ms", Json::Num(ms(wall)));
        rec
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Hits over lookups (0.0 when there were none).
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Every solver counter, the shared obligation cache's in `cache`.
fn solver_json(s: &SolverStats) -> Json {
    let mut fields = s.section_json("");
    fields.push(("cache", json::obj(s.section_json("cache"))));
    json::obj(fields)
}

fn leg_json(wall: Duration, solver: &SolverStats, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![("wall_ms", Json::Num(ms(wall))), ("solver", solver_json(solver))];
    fields.extend(extra);
    json::obj(fields)
}

/// Solves every obligation of `wl` from scratch (`prefix ++ delta` per
/// query), checking each expected verdict.
fn solve_scratch(solver: &mut Solver, bank: &mut TermBank, wl: &SessionWorkload) {
    for (delta, expect_sat) in &wl.obligations {
        let mut full = wl.prefix.clone();
        full.extend_from_slice(delta);
        let outcome = solver.check_sat(bank, &full);
        assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat, "verdict drift");
    }
}

// ---------------------------------------------------------------- corpora

fn corpus(pressure: usize) -> GenConfig {
    GenConfig { seed: SEED, pressure, ..GenConfig::default() }
}

/// The harness every corpus scenario starts from: `secs` per function and
/// a quarter of that, plus a second, per solver query.
fn corpus_options(secs: u64) -> HarnessOptions {
    HarnessOptions {
        keq: KeqOptions {
            time_limit: Some(Duration::from_secs(secs)),
            solver_budget: Budget {
                max_conflicts: 500_000,
                max_terms: 2_000_000,
                max_time: Some(Duration::from_secs(secs / 4 + 1)),
            },
            ..KeqOptions::default()
        },
        ..HarnessOptions::default()
    }
}

fn sweep(cfg: GenConfig, n: usize, opts: &HarnessOptions) -> (Duration, Module, CorpusSummary) {
    let (wall, (module, summary)) = timed(|| run_corpus_cfg(cfg, n, opts));
    (wall, module, summary)
}

/// A corpus run's measurements, under the keys `RUN_REPORT.json` gives
/// the same counters.
fn run_json(wall: Duration, s: &CorpusSummary) -> Json {
    let per_s = s.total() as f64 / wall.as_secs_f64().max(1e-9);
    leg_json(
        wall,
        &s.solver,
        vec![
            ("functions_per_s", Json::Num(per_s)),
            ("outcome", outcome_table(s).to_json()),
            ("cache", s.cache.to_json()),
            ("resume", s.resume.to_json()),
        ],
    )
}

fn verdicts(s: &CorpusSummary) -> Vec<(String, ResultKind)> {
    s.rows.iter().map(|r| (r.name.clone(), r.result.kind())).collect()
}

/// Records the bar that two verdict tables agree row for row.
fn same_verdicts<T: PartialEq>(rec: &mut Record, bar: &str, a: &[T], b: &[T]) {
    let drift = a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len());
    rec.at_most(bar, drift as f64, 0.0);
}

fn temp_path(ext: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("keq-bench-{}.{ext}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

// -------------------------------------------------------------- scenarios

/// One sync point's obligations solved from scratch and in one session:
/// the session blasts the shared prefix once.
fn session_reuse(size: Size, rec: &mut Record) {
    let mut bank = TermBank::new();
    let wl = sync_point_workload(&mut bank, WIDTH, size.n);
    let mut scratch = Solver::new();
    let (scratch_wall, ()) = timed(|| solve_scratch(&mut scratch, &mut bank, &wl));
    let mut warm = Solver::new();
    let (session_wall, ()) = timed(|| {
        let mut session = warm.open_session(&mut bank, &wl.prefix);
        for (delta, expect_sat) in &wl.obligations {
            let outcome = session.check_sat(&mut bank, delta);
            assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat, "verdict drift");
        }
    });
    let (scratch, session) = (scratch.stats(), warm.stats());
    rec.put("scratch", leg_json(scratch_wall, &scratch, vec![]));
    rec.put("session", leg_json(session_wall, &session, vec![]));
    rec.at_most(
        "session terms_blasted <= scratch terms_blasted / 2",
        session.terms_blasted as f64,
        scratch.terms_blasted as f64 / 2.0,
    );
}

/// The Fig. 6 corpus with retries, cold and with retry contexts carried
/// (measurement only).
fn retry_warm_start(size: Size, rec: &mut Record) {
    for (key, warm_start) in [("cold", false), ("warm", true)] {
        let opts = HarnessOptions {
            retry: RetryPolicy { max_attempts: 2, factor: 4, ..RetryPolicy::default() },
            warm_start,
            ..corpus_options(size.secs)
        };
        let (wall, _, summary) = sweep(corpus(0), size.n, &opts);
        rec.put(key, run_json(wall, &summary));
    }
}

/// One corpus twice against one persistent obligation store: the warm run
/// reloads it and discharges obligations without solving them.
fn obligation_cache(size: Size, rec: &mut Record) {
    let store = temp_path("keqcache");
    let opts = HarnessOptions { cache_path: Some(store.clone()), ..corpus_options(size.secs) };
    let (cold_wall, _, cold) = sweep(corpus(0), size.n, &opts);
    let (warm_wall, _, warm) = sweep(corpus(0), size.n, &opts);
    let _ = std::fs::remove_file(&store);
    rec.put("cold", run_json(cold_wall, &cold));
    rec.put("warm", run_json(warm_wall, &warm));
    same_verdicts(
        rec,
        "warm verdicts differing from cold == 0",
        &verdicts(&cold),
        &verdicts(&warm),
    );
    rec.at_least("cold records persisted >= 1", cold.cache.disk_persisted as f64, 1.0);
    rec.at_least(
        "warm records loaded >= cold records persisted",
        warm.cache.disk_loaded as f64,
        cold.cache.disk_persisted as f64,
    );
    rec.at_least("warm hit ratio >= 0.30", warm.obligation_cache_hit_ratio(), 0.30);
    rec.wall_at_most(
        "warm wall <= cold wall * 1.05 + 250 ms",
        warm_wall,
        cold_wall.mul_f64(1.05) + SLACK,
    );
}

/// One corpus bare, with the verdict journal, and resumed from a journal
/// cut where half the recorded work is done.
fn journal_resume(size: Size, rec: &mut Record) {
    let path = temp_path("keqwal");
    let bare_opts = corpus_options(size.secs);
    let (bare_wall, _, bare) = sweep(corpus(0), size.n, &bare_opts);
    let journaled_opts = HarnessOptions { journal_path: Some(path.clone()), ..bare_opts };
    let (journaled_wall, module, journaled) = sweep(corpus(0), size.n, &journaled_opts);

    // Keep the records up to where cumulative recorded time crosses half
    // the total: what a kill at half the work leaves. (Half the bytes would
    // keep half the records, and per-function times are skewed.)
    let corpus_fp = corpus_fingerprint(&module);
    let loaded = journal::load(&path, corpus_fp, &StdStoreIo);
    assert!(!loaded.records.is_empty(), "the journaled run wrote an empty journal");
    let total_us: u64 = loaded.records.iter().map(|r| r.time_us).sum();
    let (mut kept, mut kept_us) = (Vec::new(), 0);
    for r in loaded.records {
        if kept_us * 2 >= total_us {
            break;
        }
        kept_us += r.time_us;
        kept.push(r);
    }
    let mut writer = JournalWriter::start(&path, corpus_fp, None, Arc::new(StdStoreIo), 3);
    for r in &kept {
        writer.append(r);
    }
    assert!(!writer.degraded, "rewriting the cut journal failed");
    drop(writer);

    let resumed_opts = HarnessOptions { resume: true, ..journaled_opts };
    let (resumed_wall, _, resumed) = sweep(corpus(0), size.n, &resumed_opts);
    let _ = std::fs::remove_file(&path);
    rec.put("records_kept", json::num(kept.len() as u64));
    rec.put("bare", run_json(bare_wall, &bare));
    rec.put("journaled", run_json(journaled_wall, &journaled));
    rec.put("resumed", run_json(resumed_wall, &resumed));
    let bare = verdicts(&bare);
    same_verdicts(rec, "journaled verdicts differing from bare == 0", &bare, &verdicts(&journaled));
    same_verdicts(rec, "resumed verdicts differing from bare == 0", &bare, &verdicts(&resumed));
    rec.at_least("resumed functions skipped >= 1", resumed.resume.skipped as f64, 1.0);
    rec.wall_at_most(
        "journaled wall <= bare wall * 1.10 + 250 ms",
        journaled_wall,
        bare_wall.mul_f64(1.10) + SLACK,
    );
    rec.wall_at_most(
        "resumed wall <= journaled wall * 0.70 + 250 ms",
        resumed_wall,
        journaled_wall.mul_f64(0.70) + SLACK,
    );
}

/// Two functions pose the same obligations in different spellings against
/// one cold shared cache, with the saturating rewriter off and on.
fn normalization(size: Size, rec: &mut Record) {
    let [baseline, rewrite] = [false, true].map(|on| normalization_leg(on, size.n));
    rec.at_most(
        "rewrite terms_blasted <= baseline terms_blasted * 0.80",
        rewrite.total.terms_blasted as f64,
        (baseline.total.terms_blasted * 80) as f64 / 100.0,
    );
    rec.at_least(
        "rewrite cold B hit ratio >= baseline cold B hit ratio + 0.2",
        rewrite.b_hit_ratio,
        baseline.b_hit_ratio + 0.2,
    );
    rec.wall_at_most(
        "rewrite wall <= baseline wall * 1.05 + 250 ms",
        rewrite.wall,
        baseline.wall.mul_f64(1.05) + SLACK,
    );
    for (key, leg) in [("baseline", baseline), ("rewrite", rewrite)] {
        let ratio = ("cold_b_hit_ratio", Json::Num(leg.b_hit_ratio));
        rec.put(key, leg_json(leg.wall, &leg.total, vec![ratio]));
    }
}

struct NormalizationLeg {
    wall: Duration,
    total: SolverStats,
    /// Function B's shared-cache hit ratio. B gets a fresh solver, so the
    /// cache is its only reuse channel.
    b_hit_ratio: f64,
}

fn normalization_leg(rewrite: bool, count: usize) -> NormalizationLeg {
    let mut bank = TermBank::new();
    let cache = Arc::new(SharedObligationCache::new());
    let mut total = SolverStats::default();
    let mut b = SolverStats::default();
    let (wall, ()) = timed(|| {
        for variant in 0..2 {
            let wl = normalization_workload(&mut bank, WIDTH, count, variant);
            let mut solver = Solver::new();
            solver.set_rewrite_enabled(rewrite);
            solver.set_obligation_cache(Some(cache.clone()));
            solve_scratch(&mut solver, &mut bank, &wl);
            b = solver.stats();
            total.merge(&b);
        }
    });
    let b_hit_ratio = hit_ratio(b.obligation_cache_hits, b.obligation_cache_misses);
    NormalizationLeg { wall, total, b_hit_ratio }
}

/// The cold cost of fingerprinting: one batch solved detached from any
/// shared cache and attached to an empty one (every query fingerprints,
/// looks up, misses and stores).
fn fingerprint_overhead(size: Size, rec: &mut Record) {
    let mean = |attach: bool| {
        let mut total = Duration::ZERO;
        // Iteration 0 is a warm-up outside the timed total.
        for i in 0..=size.rounds {
            let mut bank = TermBank::new();
            let wl = sync_point_workload(&mut bank, WIDTH, size.n);
            let mut solver = Solver::new();
            if attach {
                solver.set_obligation_cache(Some(Arc::new(SharedObligationCache::new())));
            }
            let (wall, ()) = timed(|| solve_scratch(&mut solver, &mut bank, &wl));
            if i > 0 {
                total += wall;
            }
        }
        total / size.rounds as u32
    };
    let (detached, attached) = (mean(false), mean(true));
    rec.put("detached_ms", Json::Num(ms(detached)));
    rec.put("attached_ms", Json::Num(ms(attached)));
    rec.wall_at_most(
        "attached mean <= detached mean * 1.05 + 5 ms",
        attached,
        detached.mul_f64(1.05) + Duration::from_millis(5),
    );
}

/// The spilling register allocator over a high-pressure corpus and GVN
/// over the default one, each through the harness.
fn passes(size: Size, rec: &mut Record) {
    let leg = |cfg, pass| {
        sweep(cfg, size.n, &HarnessOptions { passes: vec![pass], ..corpus_options(size.secs) })
    };
    let (ra_wall, ra_module, ra) = leg(corpus(PRESSURE), PassId::Regalloc);
    // Ground truth outside the harness: how much each function spilled.
    let spills: Vec<usize> = ra_module
        .functions
        .iter()
        .map(|f| {
            let layout = Layout::of(&ra_module, f);
            let pre = select(&ra_module, f, &layout, IselOptions::default())
                .expect("corpus functions select")
                .func;
            let (_, map) = allocate_with_options(&pre, RaOptions::default(), None)
                .expect("allocation is not cancelled");
            map.spills.len()
        })
        .collect();
    let (gvn_wall, gvn_module, gvn) = leg(corpus(0), PassId::Gvn);
    let eliminated: usize = gvn_module
        .functions
        .iter()
        .map(|f| run_gvn(f, GvnOptions::default()).eliminated.len())
        .sum();

    for (key, wall, summary) in [("regalloc", ra_wall, &ra), ("gvn", gvn_wall, &gvn)] {
        rec.put(key, run_json(wall, summary));
        let outcome = outcome_table(summary);
        let bar = format!("{key} units succeeded >= units");
        rec.at_least(&bar, outcome.succeeded as f64, outcome.total as f64);
    }
    rec.put("spilled_values", json::num(spills.iter().sum::<usize>() as u64));
    rec.put("gvn_values_eliminated", json::num(eliminated as u64));
    let spilled = spills.iter().filter(|&&s| s > 0).count();
    rec.at_least("regalloc functions spilled >= functions", spilled as f64, size.n as f64);
    rec.at_least("gvn values eliminated >= 1", eliminated as f64, 1.0);
}

/// An in-process `keq-server`, once with live telemetry off and once on:
/// a warm-up pass fills the resident cache, then `rounds` passes over
/// [`CONNS`] connections are measured.
fn server(size: Size, rec: &mut Record) {
    let module = generate_corpus(corpus(0), size.n);
    let off = server_window(&module, size, false, rec);
    let on = server_window(&module, size, true, rec);
    rec.put("metrics_off", off.1);
    rec.put("metrics_on", on.1);
    rec.rate_at_least("metrics-on req/s / metrics-off req/s >= 0.95", on.0 / off.0.max(1e-9), 0.95);
}

/// One server lifecycle; returns the steady-state request rate and the
/// window's measurements.
fn server_window(corpus: &Module, size: Size, metrics: bool, rec: &mut Record) -> (f64, Json) {
    let label = if metrics { "metrics-on" } else { "metrics-off" };
    let (n, rounds) = (size.n, size.rounds);
    let conns = CONNS.clamp(1, n.max(1));
    let opts = ServerOptions {
        harness: HarnessOptions {
            // Fast sampling, so even a smoke-sized window lands samples.
            metrics: MetricsConfig {
                enabled: metrics,
                sample_interval: Duration::from_millis(50),
                ..MetricsConfig::default()
            },
            ..corpus_options(size.secs)
        },
        ..ServerOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", &opts).expect("bind server");
    let addr = server.local_addr();
    let run = std::thread::spawn(move || server.run());

    let mut ctl = connect(&addr).expect("connect control connection");
    let mut warmup_latency = Histogram::log_us("warm-up round trip (µs)");
    let units: Vec<usize> = (0..n).collect();
    let (warmup_wall, warmup) =
        timed(|| stream_pass(&mut ctl, corpus, &units, 0, &mut warmup_latency));
    let before = stats(&mut ctl);

    // Each connection takes every `conns`-th unit for every round; the tag
    // space is partitioned per connection.
    let (wall, (latency, tables)) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let units: Vec<usize> = (0..n).filter(|i| i % conns == c).collect();
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        let mut conn = connect(addr).expect("connect load connection");
                        let mut latency = Histogram::log_us("round trip (µs)");
                        let tables: Vec<_> = (0..rounds)
                            .map(|round| {
                                let tag_base = ((1 + round) * n + c * rounds * n) as u64;
                                stream_pass(&mut conn, corpus, &units, tag_base, &mut latency)
                            })
                            .collect();
                        (latency, tables)
                    })
                })
                .collect();
            let mut latency = Histogram::log_us("round trip (µs)");
            let mut merged = vec![BTreeMap::new(); rounds];
            for handle in handles {
                let (shard_latency, shard_tables) = handle.join().expect("load connection");
                latency.merge(&shard_latency);
                for (round, shard) in shard_tables.into_iter().enumerate() {
                    merged[round].extend(shard);
                }
            }
            (latency, merged)
        })
    });
    let after = stats(&mut ctl);

    // The instrumented window must have telemetry to show for its cost.
    let telemetry = metrics.then(|| match ctl.roundtrip(&ClientRequest::Metrics) {
        Ok(ServerResponse::Metrics(m)) => {
            assert!(m.enabled, "the instrumented window must report metrics enabled");
            assert!(m.samples > 0, "the collector must have sampled the measured window");
            assert!(!m.slow.is_empty(), "the slow-obligation table must be populated");
            m
        }
        other => panic!("expected metrics, got {other:?}"),
    });
    match ctl.roundtrip(&ClientRequest::Shutdown) {
        Ok(ServerResponse::ShuttingDown) => {}
        other => panic!("expected a shutdown ack, got {other:?}"),
    }
    let summary = run.join().expect("server thread");

    // Residency must be invisible in verdicts: every round reproduces the
    // warm-up table.
    let steady: Vec<_> = tables.iter().flatten().collect();
    let expected: Vec<_> = (0..rounds).flat_map(|_| &warmup).collect();
    let bar = format!("{label} steady-state verdicts differing from warm-up == 0");
    same_verdicts(rec, &bar, &expected, &steady);

    // The drain accounts for every submission.
    let requests = (rounds * n) as u64;
    let fin = &summary.fin.server;
    assert_eq!(fin.requests, requests + n as u64, "every submission was admitted");
    assert_eq!(fin.completed, fin.requests, "every admitted submission finalized");
    assert_eq!(fin.disconnects, 0, "no reply channel died");
    assert_eq!(
        summary.fin.latency.total() as u64,
        fin.completed,
        "the server-side latency histogram saw every finalization"
    );

    // Counter deltas over the measured window only: the cold warm-up pass
    // does not dilute the steady-state hit ratio.
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    assert!(hits + misses > 0, "the steady-state window performed no cache lookups");
    let ratio = hit_ratio(hits, misses);
    rec.at_least(&format!("{label} steady-state hit ratio >= 0.74"), ratio, 0.74);

    let req_per_s = requests as f64 / wall.as_secs_f64().max(1e-9);
    let mut fields = vec![
        ("warmup_wall_ms", Json::Num(ms(warmup_wall))),
        ("warmup_latency_us", quantiles(&warmup_latency)),
        ("requests", json::num(requests)),
        ("wall_ms", Json::Num(ms(wall))),
        ("req_per_s", Json::Num(req_per_s)),
        ("latency_us", quantiles(&latency)),
        ("server_latency_us", quantiles(&summary.fin.latency)),
        ("cache_hits", json::num(hits)),
        ("cache_misses", json::num(misses)),
        ("hit_ratio", Json::Num(ratio)),
    ];
    if let Some(m) = telemetry {
        fields.push(("collector_samples", json::num(m.samples)));
        fields.push(("slow_rows", json::num(m.slow.len() as u64)));
    }
    (req_per_s, json::obj(fields))
}

fn quantiles(h: &Histogram) -> Json {
    let q = |v: Option<f64>| Json::Num(v.unwrap_or(0.0));
    json::obj(vec![("p50", q(h.p50())), ("p90", q(h.p90())), ("p99", q(h.p99()))])
}

/// One corpus pass over `conn`, one function per request wrapped with the
/// corpus globals and declarations (what `keq_client` sends); returns the
/// verdict per unit and feeds round-trip latencies into `latency`.
fn stream_pass(
    conn: &mut ClientConn,
    corpus: &Module,
    units: &[usize],
    tag_base: u64,
    latency: &mut Histogram,
) -> BTreeMap<usize, String> {
    let mut verdicts = BTreeMap::new();
    for &i in units {
        let ir = Module {
            globals: corpus.globals.clone(),
            functions: vec![corpus.functions[i].clone()],
            declarations: corpus.declarations.clone(),
        }
        .to_string();
        let req = ClientRequest::Validate {
            tag: tag_base + i as u64,
            unit: i as u64,
            pass: PassId::Isel,
            ir,
            deadline_ms: None,
            max_attempts: None,
        };
        let (wall, resp) = timed(|| conn.roundtrip(&req).expect("validate round trip"));
        latency.add(wall.as_micros() as f64);
        let ServerResponse::Validated { results, .. } = resp else {
            panic!("expected a verdict table for f{i}, got {resp:?}");
        };
        assert_eq!(results.len(), 1, "one function per request module");
        verdicts.insert(i, results[0].result.clone());
    }
    verdicts
}

fn stats(conn: &mut ClientConn) -> StatsSnapshot {
    match conn.roundtrip(&ClientRequest::Stats) {
        Ok(ServerResponse::Stats(s)) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}
