//! Per-workload traced sequences and the per-layer metrics built from them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use keq_core::KeqOptions;
use keq_harness::{connect, ClientConn};
use keq_llvm::ast::Module;
use keq_smt::{ObligationCacheStats, SharedObligationCache};

use crate::batch;
use crate::corpus::{Expected, Observed, Workload};
use crate::serve::{self, Mix};
use crate::traced::{self, run_unit, LayerTime, Tracer, UnitCounts};
use crate::util::{metric, Metric};

/// One pass of a traced sequence.
pub struct Sequence {
    /// Counts of every unit validated, in order (for `serve-warm` the cold
    /// warm-up units come first).
    pub all: Vec<UnitCounts>,
    /// Counts of the measured pass only.
    pub measured: Vec<UnitCounts>,
    pub wall: Duration,
    /// Obligation-cache counter deltas over the measured pass.
    pub cache: ObligationCacheStats,
}

fn delta(after: &ObligationCacheStats, before: &ObligationCacheStats) -> ObligationCacheStats {
    ObligationCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        inserts: after.inserts - before.inserts,
        evictions: after.evictions - before.evictions,
        entries: after.entries,
        bytes: after.bytes,
    }
}

/// Units a batch sequence validates: `isel-campaign` leaves out the units
/// the table says end at the watchdog, whose counts depend on how far they
/// got before the deadline; `regalloc-spill` keeps its budget-exhausted units, whose
/// end is a conflict count.
fn traced_unit(w: Workload, expected: &Expected, name: &str) -> bool {
    w != Workload::IselCampaign || expected.class(w, batch::pass_of(w), name) != Some("timeout")
}

/// A batch workload's sequence: parse the campaign's module text, then
/// validate its units in the campaign's order against one cold cache.
pub fn batch_sequence(
    w: Workload,
    module: &Module,
    expected: &Expected,
    tr: Option<&Arc<Tracer>>,
) -> Sequence {
    let cache = Arc::new(SharedObligationCache::new());
    let text = module.to_string();
    let _guard = tr.map(traced::install);
    let tr = tr.map(|t| &**t);
    let t = Instant::now();
    let parsed = traced::span(tr, "parse", || keq_llvm::parse_module(&text))
        .expect("the campaign text parses");
    let (pass, keq) = (batch::pass_of(w), batch::keq_options(w));
    let mut all = Vec::new();
    for (i, f) in parsed.functions.iter().enumerate() {
        if !traced_unit(w, expected, &f.name) {
            continue;
        }
        if let Some(tr) = tr {
            tr.set_unit(Some(i as u32));
        }
        all.push(run_unit(&parsed, f, pass, keq, &cache, tr));
    }
    let wall = t.elapsed();
    if let Some(tr) = tr {
        tr.set_unit(None);
    }
    Sequence {
        measured: all.clone(),
        all,
        wall,
        cache: cache.stats(),
    }
}

/// `serve-warm`'s sequence: a cold in-process pass over the request mix
/// warms a cache, then the measured pass sends each request through the
/// live server (`rpc`, when a connection is given) and replays it in
/// process: parse the request text, then validate against the warm cache.
pub fn serve_sequence(
    mix: &Mix,
    tr: Option<&Arc<Tracer>>,
    mut rpc: Option<&mut ClientConn>,
    observed: &mut Observed,
    expected: &Expected,
    errors: &mut Vec<String>,
) -> Sequence {
    let cache = Arc::new(SharedObligationCache::new());
    let requests = mix.interleaved();
    let keq = KeqOptions::default();
    let mut all = Vec::new();
    for (u, ir) in &requests {
        let m = keq_llvm::parse_module(ir).expect("request text parses");
        all.push(run_unit(&m, &m.functions[0], u.pass, keq, &cache, None));
    }
    let before = cache.stats();
    let _guard = tr.map(traced::install);
    let tr = tr.map(|t| &**t);
    let t = Instant::now();
    let mut measured = Vec::new();
    for (k, (u, ir)) in requests.iter().enumerate() {
        if let Some(tr) = tr {
            tr.set_unit(Some(k as u32));
        }
        if let Some(conn) = rpc.as_deref_mut() {
            let tag = 50_000_000 + k as u64;
            match traced::span(tr, "rpc", || serve::validate(conn, tag, u, ir)) {
                Ok(a) => observed.record(expected, Workload::ServeWarm, u.pass, &u.name, &a.class),
                Err(e) => errors.push(e),
            }
        }
        let m =
            traced::span(tr, "parse", || keq_llvm::parse_module(ir)).expect("request text parses");
        measured.push(run_unit(&m, &m.functions[0], u.pass, keq, &cache, tr));
    }
    let wall = t.elapsed();
    if let Some(tr) = tr {
        tr.set_unit(None);
    }
    all.extend(measured.iter().cloned());
    Sequence {
        all,
        measured,
        wall,
        cache: delta(&cache.stats(), &before),
    }
}

/// The traced run of one workload: the sequence once with spans, once
/// without; spans written to `spans_path` and read back for self time.
pub struct TracedRun {
    pub seq: Sequence,
    pub times: BTreeMap<String, LayerTime>,
    pub span_count: usize,
    /// Units whose counts differed between the two passes.
    pub repeat_diffs: Vec<String>,
}

/// Runs `sequence` twice (traced, then plain), compares every unit's
/// counts, and derives self times from the written span file.
pub fn traced_run(
    spans_path: &Path,
    mut sequence: impl FnMut(Option<&Arc<Tracer>>) -> Sequence,
) -> std::io::Result<TracedRun> {
    let tracer = Tracer::new();
    let seq = sequence(Some(&tracer));
    let spans = tracer.take();
    traced::write_spans(spans_path, &spans)?;
    let again = sequence(None);
    let mut repeat_diffs = Vec::new();
    if again.all.len() != seq.all.len() {
        repeat_diffs.push(format!("{} units, then {}", seq.all.len(), again.all.len()));
    }
    for (a, b) in seq.all.iter().zip(&again.all) {
        if a != b {
            repeat_diffs.push(format!("{}: {a:?} vs {b:?}", a.name));
        }
    }
    let read = traced::read_spans(spans_path)?;
    Ok(TracedRun {
        times: traced::self_times(&read),
        span_count: read.len(),
        seq,
        repeat_diffs,
    })
}

/// Figures from the untraced run that the per-layer table reports.
pub struct Untraced {
    pub units_per_s: f64,
    pub busy_ratio: f64,
    pub journal_bytes: f64,
    pub store_bytes: f64,
    pub p95_samples: usize,
    /// `serve-warm` only.
    pub transport_rtt_ms: Option<f64>,
    pub server_p50_ms: Option<f64>,
}

/// Span names whose times every workload produces; `passes` groups the
/// three compiler passes. Only these appear as times in the result line:
/// a layer a workload never enters would read 0 ms on every run.
const COMMON_LAYERS: [&str; 6] = ["unit", "parse", "passes", "vcgen", "check", "solver"];

/// Parts of a common layer whose time some workload never spends, with the
/// layer they split: they appear in the result line as shares of it.
const PARTS: [(&str, &str); 6] = [
    ("lower", "solver"),
    ("blast", "solver"),
    ("cdcl", "solver"),
    ("isel", "passes"),
    ("regalloc", "passes"),
    ("gvn", "passes"),
];

fn layer_time(times: &BTreeMap<String, LayerTime>, name: &str) -> LayerTime {
    let names: &[&str] = if name == "passes" {
        &["isel", "regalloc", "gvn"]
    } else {
        &[name]
    };
    names
        .iter()
        .filter_map(|n| times.get(*n))
        .fold(LayerTime::default(), |a, t| LayerTime {
            spans: a.spans + t.spans,
            total_us: a.total_us + t.total_us,
            self_us: a.self_us + t.self_us,
        })
}

/// The per-layer metrics printed in the result line, in a fixed order.
pub fn per_layer(run: &TracedRun, un: &Untraced) -> Vec<Metric> {
    let ms = |us: u64| us as f64 / 1e3;
    let mut out = Vec::new();
    for name in COMMON_LAYERS {
        let t = layer_time(&run.times, name);
        out.push(metric(format!("{name}.ms"), ms(t.total_us), "ms"));
        out.push(metric(format!("{name}.self_ms"), ms(t.self_us), "ms"));
        out.push(metric(format!("{name}.spans"), t.spans as f64, "count"));
    }
    for (part, of) in PARTS {
        let t = layer_time(&run.times, part);
        let whole = layer_time(&run.times, of).total_us;
        let share = if whole == 0 {
            0.0
        } else {
            t.total_us as f64 / whole as f64
        };
        out.push(metric(format!("{part}.share"), share, "ratio"));
        out.push(metric(format!("{part}.spans"), t.spans as f64, "count"));
    }
    let sum = |f: fn(&UnitCounts) -> u64| run.seq.measured.iter().map(f).sum::<u64>() as f64;
    out.push(metric("solver.queries", sum(|c| c.queries), "count"));
    out.push(metric("solver.conflicts", sum(|c| c.conflicts), "count"));
    out.push(metric(
        "solver.terms_blasted",
        sum(|c| c.terms_blasted),
        "count",
    ));
    out.push(metric(
        "solver.blast_reused",
        sum(|c| c.blast_reused),
        "count",
    ));
    out.push(metric(
        "solver.prefix_hits",
        sum(|c| c.prefix_hits),
        "count",
    ));
    out.push(metric(
        "solver.budget_exhausted",
        sum(|c| c.budget_exhausted),
        "count",
    ));
    out.push(metric("solver.memo_hits", sum(|c| c.memo_hits), "count"));
    let cache = &run.seq.cache;
    let lookups = cache.hits + cache.misses;
    out.push(metric("obcache.hits", cache.hits as f64, "count"));
    out.push(metric("obcache.misses", cache.misses as f64, "count"));
    out.push(metric("obcache.stores", cache.inserts as f64, "count"));
    out.push(metric(
        "obcache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
        "ratio",
    ));
    out.push(metric(
        "rewrite.nodes_saved",
        sum(|c| c.rewrite_nodes_saved),
        "count",
    ));
    out.push(metric("check.steps", sum(|c| c.steps), "count"));
    out.push(metric("check.pairs", sum(|c| c.pairs), "count"));
    out.push(metric("check.obligations", sum(|c| c.obligations), "count"));
    out.push(metric(
        "check.start_points",
        sum(|c| c.start_points),
        "count",
    ));
    out.push(metric("isel.mir_instrs", sum(|c| c.mir_instrs), "count"));
    out.push(metric(
        "regalloc.spilled_values",
        sum(|c| c.spilled_values),
        "count",
    ));
    out.push(metric("gvn.eliminated", sum(|c| c.gvn_eliminated), "count"));
    out.push(metric("vcgen.sync_points", sum(|c| c.sync_points), "count"));
    out.push(metric("scheduler.busy_ratio", un.busy_ratio, "ratio"));
    out.push(metric("journal.bytes", un.journal_bytes, "bytes"));
    out.push(metric("store.bytes", un.store_bytes, "bytes"));
    let decided = run
        .seq
        .measured
        .iter()
        .filter(|c| c.class == "succeeded")
        .count();
    let traced_rate = decided as f64 / run.seq.wall.as_secs_f64();
    out.push(metric(
        "traced.units",
        run.seq.measured.len() as f64,
        "count",
    ));
    out.push(metric("traced.units_per_s", traced_rate, "1/s"));
    out.push(metric(
        "trace.slowdown",
        un.units_per_s / traced_rate,
        "ratio",
    ));
    out.push(metric("unit_p95.samples", un.p95_samples as f64, "count"));
    out
}

/// Layer times that only some workloads spend: printed in the per-layer
/// table beside the result line's metrics, for the workloads that have them.
pub fn workload_specific(run: &TracedRun, un: &Untraced) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in ["lower", "blast", "cdcl", "isel", "regalloc", "gvn", "rpc"] {
        if let Some(t) = run.times.get(name) {
            out.push(metric(format!("{name}.ms"), t.total_us as f64 / 1e3, "ms"));
            out.push(metric(
                format!("{name}.self_ms"),
                t.self_us as f64 / 1e3,
                "ms",
            ));
            out.push(metric(format!("{name}.spans"), t.spans as f64, "count"));
        }
    }
    if let Some(v) = un.transport_rtt_ms {
        out.push(metric("transport.rtt_ms", v, "ms"));
    }
    if let Some(v) = un.server_p50_ms {
        out.push(metric("server.p50_ms", v, "ms"));
    }
    out
}

/// Runs `serve-warm`'s traced sequence against the still-running server.
pub fn serve_traced(
    mix: &Mix,
    addr: &str,
    spans_path: &Path,
    observed: &mut Observed,
    expected: &Expected,
    errors: &mut Vec<String>,
) -> std::io::Result<TracedRun> {
    let mut conn = connect(addr)?;
    let mut first = true;
    traced_run(spans_path, |tr| {
        let rpc = if first { Some(&mut conn) } else { None };
        first = false;
        serve_sequence(mix, tr, rpc, observed, expected, errors)
    })
}
