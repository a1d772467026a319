//! Golden-file round-trip of `RUN_REPORT.json`: the serialized form of a
//! fully-populated report is byte-identical to the checked-in golden file
//! (so accidental schema drift fails loudly), parses back into an
//! equivalent document, validates, and preserves panic messages containing
//! quotes, newlines, backslashes, and non-ASCII through the round trip.
//!
//! Regenerate after an *intentional* schema change with
//! `KEQ_BLESS_GOLDEN=1 cargo test -p keq-trace --test golden_report`.

use std::time::Duration;

use keq_trace::{
    check_phase_coverage, validate, AttemptReport, CacheCounters, FunctionReport, Histogram, Json,
    OutcomeTable, PassSection, Phase, PhaseSummary, RequestCounters, ResumeSection, RunReport,
    ServerSection, SlowObligation, SolverStats, TelemetrySection,
};

const TRICKY_MESSAGE: &str = "boom \"quoted\"\nsecond line\twith tab \\ backslash and π";

fn golden_report() -> RunReport {
    let mut hist = Histogram::log_us("check span time (µs)");
    hist.add(120.0);
    hist.add(80_000.0);
    RunReport {
        seed: 2021,
        n_functions: 2,
        trace_enabled: true,
        outcome: OutcomeTable {
            succeeded: 1,
            timeout: 0,
            out_of_memory: 0,
            crashed: 1,
            quarantined: 0,
            other: 0,
            total: 2,
            attempts: 3,
        },
        passes: vec![
            PassSection {
                pass: "isel".into(),
                outcome: OutcomeTable {
                    succeeded: 1,
                    timeout: 0,
                    out_of_memory: 0,
                    crashed: 0,
                    quarantined: 0,
                    other: 0,
                    total: 1,
                    attempts: 2,
                },
            },
            PassSection {
                pass: "gvn".into(),
                outcome: OutcomeTable {
                    succeeded: 0,
                    timeout: 0,
                    out_of_memory: 0,
                    crashed: 1,
                    quarantined: 0,
                    other: 0,
                    total: 1,
                    attempts: 1,
                },
            },
        ],
        solver: SolverStats {
            queries: 40,
            sat: 22,
            unsat: 17,
            budget: 1,
            conflicts: 90,
            restarts: 3,
            cache_hits: 6,
            cache_evictions: 2,
            sessions_opened: 4,
            prefix_hits: 30,
            clauses_retained: 55,
            terms_blasted: 1000,
            terms_blast_reused: 400,
            obligation_cache_hits: 9,
            obligation_cache_misses: 25,
            obligation_cache_stores: 14,
            rewrite_rules_fired: 120,
            rewrite_passes: 48,
            rewrite_nodes_saved: 310,
            lbd_kept: 11,
            time: Duration::from_micros(80_120),
        },
        cache: CacheCounters {
            evictions: 1,
            entries: 13,
            disk_loaded: 5,
            disk_rejected: 1,
            disk_persisted: 14,
            disk_bytes: 370,
            flushes: 2,
            flush_failures: 1,
            degraded: false,
            persist_failed: false,
        },
        resume: ResumeSection { enabled: true, skipped: 1, recovered: 1, corrupt: 1 },
        server: ServerSection {
            enabled: true,
            counters: RequestCounters {
                requests: 6,
                completed: 5,
                rejected_queue_full: 1,
                rejected_quota: 1,
                rejected_draining: 0,
                disconnects: 1,
            },
            p50_us: 12_000,
            p90_us: 44_000,
            p99_us: 80_000,
        },
        telemetry: TelemetrySection {
            enabled: true,
            samples: 12,
            slow: vec![SlowObligation {
                fingerprint: "00000000000000000000ffee00c0ffee".into(),
                label: "f0".into(),
                wall_us: 90_000,
                result: "succeeded".into(),
                attempts: 2,
                retries: 1,
                phase_us: vec![
                    (Phase::Check, 83_000),
                    (Phase::Lower, 9_000),
                    (Phase::Blast, 14_000),
                    (Phase::Cdcl, 31_000),
                ],
                solver: SolverStats {
                    queries: 25,
                    sat: 14,
                    unsat: 10,
                    budget: 1,
                    conflicts: 80,
                    restarts: 3,
                    cache_hits: 2,
                    cache_evictions: 0,
                    sessions_opened: 2,
                    prefix_hits: 18,
                    clauses_retained: 40,
                    terms_blasted: 700,
                    terms_blast_reused: 250,
                    rewrite_rules_fired: 70,
                    rewrite_passes: 25,
                    rewrite_nodes_saved: 180,
                    lbd_kept: 6,
                    time: Duration::from_micros(61_000),
                    ..SolverStats::default()
                },
            }],
        },
        phases: vec![PhaseSummary { phase: Phase::Check, count: 2, total_us: 80_120, histogram: hist }],
        functions: vec![
            FunctionReport {
                name: "f0".into(),
                index: 0,
                pass: "isel".into(),
                size: 12,
                wall_us: 90_000,
                result: "succeeded".into(),
                recovered: false,
                attempts: vec![
                    AttemptReport {
                        attempt: 1,
                        budget_scale: 1,
                        wall_us: 30_000,
                        start_us: 100,
                        end_us: 30_100,
                        result: "timeout".into(),
                        abandoned: false,
                        panic_message: None,
                        panic_location: None,
                        faults: vec!["force_budget_conflicts".into()],
                        phase_us: vec![(Phase::Isel, 2_000), (Phase::Check, 27_000)],
                    },
                    AttemptReport {
                        attempt: 2,
                        budget_scale: 4,
                        wall_us: 60_000,
                        start_us: 30_200,
                        end_us: 90_200,
                        result: "succeeded".into(),
                        abandoned: false,
                        panic_message: None,
                        panic_location: None,
                        faults: vec![],
                        phase_us: vec![(Phase::Isel, 2_000), (Phase::Check, 56_000)],
                    },
                ],
            },
            FunctionReport {
                name: "f1".into(),
                index: 1,
                pass: "gvn".into(),
                size: 7,
                wall_us: 1_500,
                result: "crashed".into(),
                recovered: false,
                attempts: vec![AttemptReport {
                    attempt: 1,
                    budget_scale: 1,
                    wall_us: 1_500,
                    start_us: 95_000,
                    end_us: 96_500,
                    result: "crashed".into(),
                    abandoned: false,
                    panic_message: Some(TRICKY_MESSAGE.into()),
                    panic_location: Some("crates/keq-smt/src/fault.rs:246:17".into()),
                    faults: vec!["panic".into()],
                    phase_us: vec![(Phase::Isel, 300), (Phase::Check, 1_100)],
                }],
            },
        ],
        events_recorded: 123,
        events_dropped: 0,
    }
}

#[test]
fn report_matches_golden_file_and_round_trips() {
    let rendered = golden_report().to_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/RUN_REPORT.golden.json");

    if std::env::var("KEQ_BLESS_GOLDEN").is_ok() {
        std::fs::write(golden_path, &rendered).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(golden_path).expect(
        "golden file missing — run with KEQ_BLESS_GOLDEN=1 once to create it",
    );
    assert_eq!(
        rendered, golden,
        "RUN_REPORT.json drifted from the golden file; if the schema change is \
         intentional, regenerate with KEQ_BLESS_GOLDEN=1"
    );

    // Round trip: parse, validate, and recover the tricky panic message.
    let doc = Json::parse(&rendered).expect("golden report parses");
    validate(&doc).expect("golden report validates");
    check_phase_coverage(&doc, 0.10, 2_000, 5_000).expect("golden report covers its phases");

    let functions = doc.get("functions").and_then(Json::as_arr).expect("functions");
    let crashed = functions[1].get("attempts").and_then(Json::as_arr).expect("attempts");
    assert_eq!(
        crashed[0].get("panic_message").and_then(Json::as_str),
        Some(TRICKY_MESSAGE),
        "quotes, newlines, tabs, backslashes, and non-ASCII must survive the round trip"
    );
    assert_eq!(
        crashed[0].get("panic_location").and_then(Json::as_str),
        Some("crates/keq-smt/src/fault.rs:246:17")
    );

    // v7: the per-pass sections partition the merged outcome table, and
    // every function row names its validated pass.
    let passes = doc.get("passes").and_then(Json::as_arr).expect("passes");
    assert_eq!(passes.len(), 2);
    assert_eq!(passes[0].get("pass").and_then(Json::as_str), Some("isel"));
    assert_eq!(passes[1].get("pass").and_then(Json::as_str), Some("gvn"));
    let total_of = |p: &Json| {
        p.get("outcome").and_then(|o| o.get("total")).and_then(Json::as_u64).expect("total")
    };
    assert_eq!(
        total_of(&passes[0]) + total_of(&passes[1]),
        doc.get("outcome").and_then(|o| o.get("total")).and_then(Json::as_u64).expect("total"),
        "per-pass totals must partition the merged table"
    );
    assert_eq!(functions[0].get("pass").and_then(Json::as_str), Some("isel"));
    assert_eq!(functions[1].get("pass").and_then(Json::as_str), Some("gvn"));
}
