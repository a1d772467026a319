//! Every solver counter is wired end to end: a distinct value in each
//! field of the solver table survives `merge`, `since`, the RUN_REPORT
//! writer and reader, and `validate()`; and the metric vocabulary's
//! Prometheus names are unique counters named `*_total`.

use std::collections::HashSet;

use keq_trace::{
    validate, CacheCounters, CounterId, CounterTable, GaugeId, HistId, Json, OutcomeTable,
    ResumeSection, RunReport, ServerSection, SolverStats, TelemetrySection,
};

/// Field `i` of the table holds `base + 7 i`: distinct per field, and
/// distinct between the two operands of `merge`.
fn distinct(base: u64) -> SolverStats {
    let values: Vec<u64> = (0..SolverStats::FIELDS.len() as u64)
        .map(|i| base + 7 * i)
        .collect();
    let s = SolverStats::from_wire_values(&values);
    assert_eq!(s.wire_values(), values, "every field holds its own value");
    s
}

fn report_of(solver: SolverStats) -> RunReport {
    RunReport {
        seed: 1,
        n_functions: 0,
        trace_enabled: false,
        outcome: OutcomeTable::default(),
        passes: Vec::new(),
        solver,
        cache: CacheCounters::default(),
        resume: ResumeSection::default(),
        server: ServerSection::default(),
        telemetry: TelemetrySection::default(),
        phases: Vec::new(),
        functions: Vec::new(),
        events_recorded: 0,
        events_dropped: 0,
    }
}

#[test]
fn every_solver_field_survives_merge_since_json_and_validate() {
    let a = distinct(1_000);
    let b = distinct(50);

    let mut sum = a;
    sum.merge(&b);
    let expect: Vec<u64> = a
        .wire_values()
        .iter()
        .zip(b.wire_values())
        .map(|(x, y)| x + y)
        .collect();
    assert_eq!(sum.wire_values(), expect, "merge adds every field");
    assert_eq!(sum.since(&a), b, "since recovers every field");
    assert_eq!(
        a.since(&sum),
        SolverStats::default(),
        "since saturates at zero"
    );

    // Through RUN_REPORT.json: each keyed field lands in its section, and
    // the report's readers recover all of them.
    let doc = Json::parse(&report_of(a).to_json()).expect("report parses");
    validate(&doc).expect("report validates");
    let mut back = SolverStats::from_json(doc.get("solver").expect("solver")).expect("object");
    let cache = doc.get("cache").expect("cache section");
    assert!(
        back.read_section("cache", cache),
        "every cache-section key present"
    );
    assert_eq!(back, a, "to_json → from_json round-trips every field");
    for (f, v) in SolverStats::FIELDS.iter().zip(a.wire_values()) {
        let key = f
            .key
            .unwrap_or_else(|| panic!("{} has no wire key", f.name));
        let section = if f.section.is_empty() {
            "solver"
        } else {
            f.section
        };
        let got = doc
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64);
        assert_eq!(got, Some(v), "{} is written as {section}.{key}", f.name);

        // validate() notices when that key goes missing.
        let mut broken = doc.clone();
        if let Json::Obj(top) = &mut broken {
            if let Some((_, Json::Obj(fields))) = top.iter_mut().find(|(k, _)| k == section) {
                fields.retain(|(k, _)| k != key);
            }
        }
        let errs = validate(&broken).expect_err("a missing solver key must fail validation");
        assert!(
            errs.iter()
                .any(|e| e.contains(&format!("missing key \"{key}\""))),
            "{}: {errs:?}",
            f.name
        );
    }
    let obligations = cache.get("obligations").and_then(Json::as_u64);
    assert_eq!(
        obligations,
        Some(a.obligation_cache_hits + a.obligation_cache_misses)
    );
}

#[test]
fn wire_keys_and_prometheus_names_are_unique() {
    let mut keys = HashSet::new();
    for f in SolverStats::FIELDS {
        assert!(
            keys.insert((f.section, f.key)),
            "duplicate wire key {:?}",
            f.key
        );
    }
    let mut names = HashSet::new();
    for id in CounterId::ALL {
        assert!(
            id.name().ends_with("_total"),
            "counter {} must end in _total",
            id.name()
        );
        assert!(names.insert(id.name()), "duplicate name {}", id.name());
    }
    for name in GaugeId::ALL
        .map(GaugeId::name)
        .into_iter()
        .chain(HistId::ALL.map(HistId::name))
    {
        assert!(!name.ends_with("_total"), "{name} is not a counter");
        assert!(names.insert(name), "duplicate name {name}");
    }
}
