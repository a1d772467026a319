//! The traced run: a single-threaded pass over a workload's units that
//! calls each layer's public function itself and records one span per
//! call, plus the solver's own query and lower/blast/CDCL spans.
//!
//! Spans live in memory (name, start, end, parent, unit) and are written
//! to a JSONL span file when the pass ends; per-layer self time is then
//! derived from that file. Counts come from `SolverStats` and `KeqStats`
//! of each unit and from the shared obligation cache's own counters.
//!
//! The whole sequence runs twice from a fresh cache, the second time
//! without spans: every unit's counts must repeat exactly, or a wall-clock
//! budget has leaked into an outcome.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use keq_core::{FailureClass, Keq, KeqOptions, KeqReport, SyncSet, Verdict};
use keq_isel::{
    allocate_with_options, generate_sync_points, gvn_sync_points, regalloc_sync_points, select,
    IselOptions, PassId, RaOptions, ValidationContext, VcOptions,
};
use keq_llvm::ast::{Function, Module};
use keq_llvm::gvn::{run_gvn, GvnOptions};
use keq_llvm::{Layout, LlvmSemantics};
use keq_semantics::Language;
use keq_smt::SharedObligationCache;
use keq_trace::{Event, Phase, Recorder, TraceEvent, TraceSink};
use keq_vx86::sem::VxSemantics;

use crate::util::json_str;

/// One recorded span; times are µs since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u32,
    pub name: String,
    pub unit: Option<u32>,
    pub parent: Option<u32>,
    pub start_us: u64,
    pub end_us: u64,
}

#[derive(Default)]
struct TracerState {
    spans: Vec<SpanRec>,
    /// Ids of the benchmark's own spans that are still open, innermost last.
    open: Vec<u32>,
    unit: Option<u32>,
    /// Indices of lower/blast/CDCL spans not yet adopted by a solver-query
    /// span (the query's event arrives after its inner spans end).
    pending: Vec<usize>,
}

/// In-memory span recorder; also installed as the `keq-trace` recorder so
/// the solver's spans land in the same tree.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<TracerState>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(TracerState::default()),
        })
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(st: &mut TracerState, name: &str, start_us: u64, end_us: u64) -> usize {
        let id = st.spans.len() as u32;
        st.spans.push(SpanRec {
            id,
            name: name.to_owned(),
            unit: st.unit,
            parent: st.open.last().copied(),
            start_us,
            end_us,
        });
        id as usize
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now_us();
        let id = {
            let mut st = self.state.lock().expect("tracer lock");
            let id = Tracer::push(&mut st, name, start, start);
            st.open.push(id as u32);
            id
        };
        let out = f();
        let end = self.now_us();
        let mut st = self.state.lock().expect("tracer lock");
        st.open.pop();
        st.spans[id].end_us = end;
        out
    }

    /// Sets the unit id stamped on spans opened from now on.
    pub fn set_unit(&self, unit: Option<u32>) {
        self.state.lock().expect("tracer lock").unit = unit;
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut self.state.lock().expect("tracer lock").spans)
    }
}

impl Recorder for Tracer {
    fn record(&self, ev: TraceEvent) {
        match ev.event {
            Event::Span {
                phase,
                start_us,
                dur_us,
            } => {
                let name = match phase {
                    Phase::Lower => "lower",
                    Phase::Blast => "blast",
                    Phase::Cdcl => "cdcl",
                    _ => return,
                };
                let mut st = self.state.lock().expect("tracer lock");
                let idx = Tracer::push(&mut st, name, start_us, start_us + dur_us);
                st.pending.push(idx);
            }
            Event::SolverQuery { dur_us, .. } => {
                let start = ev.t_us.saturating_sub(dur_us);
                let mut st = self.state.lock().expect("tracer lock");
                let id = Tracer::push(&mut st, "solver", start, ev.t_us) as u32;
                let pending = std::mem::take(&mut st.pending);
                for idx in pending {
                    // One µs of slack: both clocks round down.
                    if st.spans[idx].start_us + 1 >= start {
                        st.spans[idx].parent = Some(id);
                    }
                }
            }
            _ => {}
        }
    }

    fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// Runs `f` in a span when tracing, plainly otherwise.
pub fn span<T>(tr: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Everything counted about one unit; compared field by field between the
/// two passes of the sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitCounts {
    pub name: String,
    pub class: &'static str,
    pub queries: u64,
    pub conflicts: u64,
    pub terms_blasted: u64,
    pub blast_reused: u64,
    pub prefix_hits: u64,
    pub budget_exhausted: u64,
    pub memo_hits: u64,
    pub obcache_hits: u64,
    pub obcache_misses: u64,
    pub obcache_stores: u64,
    pub rewrite_nodes_saved: u64,
    pub steps: u64,
    pub pairs: u64,
    pub obligations: u64,
    pub start_points: u64,
    pub mir_instrs: u64,
    pub spilled_values: u64,
    pub gvn_eliminated: u64,
    pub sync_points: u64,
}

/// The harness's Fig. 6 row name of a verdict.
fn class_of(report: &KeqReport) -> &'static str {
    match &report.verdict {
        Verdict::Equivalent | Verdict::Refines => "succeeded",
        Verdict::NotValidated(f) => match f.reason.failure_class() {
            FailureClass::Timeout => "timeout",
            FailureClass::OutOfMemory => "out_of_memory",
            FailureClass::Other => "other",
        },
    }
}

/// Validates one unit by calling each layer itself: the pass, its VC
/// generator, and the checker, against a fresh solver context attached to
/// the shared obligation cache (what a harness worker does per attempt).
pub fn run_unit(
    module: &Module,
    func: &Function,
    pass: PassId,
    keq: KeqOptions,
    cache: &Arc<SharedObligationCache>,
    tr: Option<&Tracer>,
) -> UnitCounts {
    let mut ctx = ValidationContext::new();
    ctx.attach_obligation_cache(Some(Arc::clone(cache)));
    let mut c = UnitCounts {
        name: func.name.clone(),
        ..UnitCounts::default()
    };
    let report = span(tr, "unit", || {
        let layout = Layout::of(module, func);
        let check = |ctx: &mut ValidationContext,
                     left: &dyn Language,
                     right: &dyn Language,
                     sync: &SyncSet| {
            span(tr, "check", || {
                Keq::new(left, right).with_options(keq).check_with_solver(
                    &mut ctx.bank,
                    sync,
                    &mut ctx.solver,
                )
            })
        };
        match pass {
            PassId::Isel => {
                let out = span(tr, "isel", || {
                    select(module, func, &layout, IselOptions::default())
                })
                .ok()?;
                c.mir_instrs = out.func.blocks.iter().map(|b| b.instrs.len() as u64).sum();
                let sync = span(tr, "vcgen", || {
                    generate_sync_points(func, &out, VcOptions::default())
                });
                c.sync_points = sync.points.len() as u64;
                let left = LlvmSemantics::with_layout(module, func, layout.clone());
                let right = VxSemantics::new(&out.func, layout.mem.clone(), layout.globals.clone());
                Some(check(&mut ctx, &left, &right, &sync))
            }
            PassId::Regalloc => {
                let pre = span(tr, "isel", || {
                    select(module, func, &layout, IselOptions::default())
                })
                .ok()?
                .func;
                c.mir_instrs = pre.blocks.iter().map(|b| b.instrs.len() as u64).sum();
                let (post, map) = span(tr, "regalloc", || {
                    allocate_with_options(&pre, RaOptions::default(), None)
                })
                .ok()?;
                c.spilled_values = map.spills.len() as u64;
                let sync = span(tr, "vcgen", || regalloc_sync_points(&pre, &post, &map));
                c.sync_points = sync.points.len() as u64;
                let mut right_mem = layout.mem.clone();
                if let Some((base, size)) = map.spill_frame() {
                    right_mem.add_region("<spill>", base, size);
                }
                let left = VxSemantics::new(&pre, layout.mem.clone(), layout.globals.clone());
                let right = VxSemantics::new(&post, right_mem, layout.globals.clone());
                Some(check(&mut ctx, &left, &right, &sync))
            }
            PassId::Gvn => {
                let out = span(tr, "gvn", || run_gvn(func, GvnOptions::default()));
                c.gvn_eliminated = out.eliminated.len() as u64;
                let sync = span(tr, "vcgen", || gvn_sync_points(func, &out));
                c.sync_points = sync.points.len() as u64;
                let left = LlvmSemantics::with_layout(module, func, layout.clone());
                let right = LlvmSemantics::with_layout(module, &out.func, layout.clone());
                Some(check(&mut ctx, &left, &right, &sync))
            }
        }
    });
    let s = ctx.solver.stats();
    c.class = report.as_ref().map_or("other", class_of);
    if let Some(r) = &report {
        c.steps = r.stats.steps;
        c.pairs = r.stats.pairs_checked;
        c.obligations = r.stats.obligations_proved;
        c.start_points = r.stats.start_points;
    }
    c.queries = s.queries;
    c.conflicts = s.conflicts;
    c.terms_blasted = s.terms_blasted;
    c.blast_reused = s.terms_blast_reused;
    c.prefix_hits = s.prefix_hits;
    c.budget_exhausted = s.budget;
    c.memo_hits = s.cache_hits;
    c.obcache_hits = s.obligation_cache_hits;
    c.obcache_misses = s.obligation_cache_misses;
    c.obcache_stores = s.obligation_cache_stores;
    c.rewrite_nodes_saved = s.rewrite_nodes_saved;
    c
}

/// Installs `tracer` as this thread's `keq-trace` recorder for the guard's
/// lifetime.
pub fn install(tracer: &Arc<Tracer>) -> keq_trace::TraceGuard {
    let rec: Arc<dyn Recorder> = Arc::clone(tracer) as Arc<dyn Recorder>;
    keq_trace::install(&TraceSink::new(rec))
}

/// Writes the spans as JSONL, one object per line.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let opt = |v: Option<u32>| v.map_or_else(|| "null".to_owned(), |x| x.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"name\": {}, \"unit\": {}, \"parent\": {}, \"start_us\": {}, \"end_us\": {}}}",
            s.id,
            json_str(&s.name),
            opt(s.unit),
            opt(s.parent),
            s.start_us,
            s.end_us
        );
    }
    std::fs::write(path, out)
}

/// Reads a span file written by [`write_spans`].
pub fn read_spans(path: &Path) -> std::io::Result<Vec<SpanRec>> {
    let text = std::fs::read_to_string(path)?;
    let mut spans = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = keq_trace::Json::parse(line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let num = |k: &str| doc.get(k).and_then(keq_trace::Json::as_u64);
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, line.to_owned());
        spans.push(SpanRec {
            id: num("id").ok_or_else(bad)? as u32,
            name: doc
                .get("name")
                .and_then(keq_trace::Json::as_str)
                .ok_or_else(bad)?
                .to_owned(),
            unit: num("unit").map(|v| v as u32),
            parent: num("parent").map(|v| v as u32),
            start_us: num("start_us").ok_or_else(bad)?,
            end_us: num("end_us").ok_or_else(bad)?,
        });
    }
    Ok(spans)
}

/// Per-name totals derived from a span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_us: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_us: u64,
}

/// Self time of every span name: each span's duration minus the union of
/// its children's intervals (clipped to the span), summed per name.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, LayerTime> {
    let by_id: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| by_id.get(&p)) {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_us.saturating_sub(s.start_us);
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_us;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end_us);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let e = out.entry(s.name.clone()).or_default();
        e.spans += 1;
        e.total_us += dur;
        e.self_us += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, name: &str, parent: Option<u32>, start_us: u64, end_us: u64) -> SpanRec {
        SpanRec {
            id,
            name: name.into(),
            unit: Some(1),
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            rec(0, "check", None, 0, 100),
            rec(1, "solver", Some(0), 10, 40),
            rec(2, "solver", Some(0), 30, 60), // overlaps the first child
            rec(3, "cdcl", Some(1), 15, 25),
            rec(4, "solver", Some(0), 90, 120), // clipped at the parent's end
        ];
        let t = self_times(&spans);
        assert_eq!(t["check"].total_us, 100);
        assert_eq!(t["check"].self_us, 100 - 50 - 10);
        assert_eq!(t["solver"].spans, 3);
        assert_eq!(t["solver"].self_us, (30 - 10) + 30 + 30);
        assert_eq!(t["cdcl"].self_us, 10);
    }

    #[test]
    fn span_file_round_trips() {
        let dir =
            std::path::PathBuf::from(".bench_out").join(format!("test-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        let spans = vec![rec(0, "unit", None, 1, 9), rec(1, "isel", Some(0), 2, 3)];
        write_spans(&path, &spans).unwrap();
        assert_eq!(read_spans(&path).unwrap(), spans);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".bench_out");
    }

    #[test]
    fn solver_spans_adopt_inner_phase_spans() {
        let t = Tracer::new();
        let _g = install(&t);
        t.span("check", || {
            let ev = |event, t_us| TraceEvent {
                t_us,
                func: None,
                attempt: None,
                event,
            };
            t.record(ev(
                Event::Span {
                    phase: Phase::Lower,
                    start_us: 5,
                    dur_us: 2,
                },
                7,
            ));
            t.record(ev(
                Event::SolverQuery {
                    mode: "scratch",
                    outcome: "unsat",
                    cache_hit: false,
                    dur_us: 6,
                    conflicts: 0,
                    terms_blasted: 0,
                    terms_blast_reused: 0,
                    prefix_hits: 0,
                    clauses_retained: 0,
                    cache_evictions: 0,
                },
                10,
            ));
        });
        let spans = t.take();
        let solver = spans.iter().find(|s| s.name == "solver").unwrap();
        let lower = spans.iter().find(|s| s.name == "lower").unwrap();
        assert_eq!(lower.parent, Some(solver.id));
        assert_eq!(solver.parent, Some(0));
    }
}
