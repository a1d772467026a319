//! The acceptance-bar recorder behind `BENCH.json` (schema
//! [`BENCH_SCHEMA`]).
//!
//! A scenario writes its measurements with [`Record::put`] and each bar
//! with one [`Record::at_least`] / [`Record::at_most`] /
//! [`Record::wall_at_most`] call. A missed bar is recorded, not raised:
//! the driver writes every scenario's record, then fails through
//! [`exit_code`], so one run shows every miss.

use std::process::ExitCode;
use std::time::Duration;

use keq_trace::json::{self, Json};

/// The `schema` key of `BENCH.json`.
pub const BENCH_SCHEMA: &str = "keq-bench/v1";

/// One recorded bar: `value` compared against `bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// The bar's formula, e.g. `"warm hit ratio >= 0.30"`.
    pub bar: String,
    /// The measured side.
    pub value: f64,
    /// The threshold the measured side is held to.
    pub bound: f64,
    /// Whether the bar held.
    pub ok: bool,
    /// A wall-clock bar: meaningful only in an optimized, otherwise idle
    /// process, so the unoptimized test suite checks only the others.
    pub timed: bool,
}

/// One scenario's measurements and bars.
#[derive(Debug, Default)]
pub struct Record {
    fields: Vec<(String, Json)>,
    /// Every bar recorded so far, in call order.
    pub bars: Vec<Bar>,
}

impl Record {
    /// Adds a measurement under `key`.
    pub fn put(&mut self, key: &str, value: Json) {
        self.fields.push((key.to_string(), value));
    }

    /// Records the bar `value >= bound`.
    pub fn at_least(&mut self, bar: &str, value: f64, bound: f64) {
        self.push(bar, value, bound, value >= bound, false);
    }

    /// Records the bar `value <= bound`.
    pub fn at_most(&mut self, bar: &str, value: f64, bound: f64) {
        self.push(bar, value, bound, value <= bound, false);
    }

    /// Records the wall-clock bar `value <= bound` (written in ms).
    pub fn wall_at_most(&mut self, bar: &str, value: Duration, bound: Duration) {
        self.push(bar, ms(value), ms(bound), value <= bound, true);
    }

    /// Records the bar `value >= bound` over a ratio of wall-clock rates.
    pub fn rate_at_least(&mut self, bar: &str, value: f64, bound: f64) {
        self.push(bar, value, bound, value >= bound, true);
    }

    fn push(&mut self, bar: &str, value: f64, bound: f64, ok: bool, timed: bool) {
        self.bars.push(Bar { bar: bar.to_string(), value, bound, ok, timed });
    }

    /// Whether every bar held.
    pub fn ok(&self) -> bool {
        self.bars.iter().all(|b| b.ok)
    }

    /// The record as one `scenarios[]` entry: its measurements in `put`
    /// order, then `bars`.
    pub fn to_json(&self) -> Json {
        let bars = self.bars.iter().map(|b| {
            json::obj(vec![
                ("bar", Json::Str(b.bar.clone())),
                ("value", Json::Num(b.value)),
                ("bound", Json::Num(b.bound)),
                ("ok", Json::Bool(b.ok)),
            ])
        });
        let mut fields = self.fields.clone();
        fields.push(("bars".to_string(), Json::Arr(bars.collect())));
        Json::Obj(fields)
    }
}

/// The `BENCH.json` document over every scenario's record.
pub fn bench_json(records: &[Record], smoke: bool, seed: u64) -> Json {
    json::obj(vec![
        ("schema", Json::Str(BENCH_SCHEMA.to_string())),
        ("smoke", Json::Bool(smoke)),
        ("seed", json::num(seed)),
        ("ok", Json::Bool(records.iter().all(Record::ok))),
        ("scenarios", Json::Arr(records.iter().map(Record::to_json).collect())),
    ])
}

/// The driver's exit status: failure when any bar was missed.
pub fn exit_code(records: &[Record]) -> ExitCode {
    if records.iter().all(Record::ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `d` in milliseconds, to the microsecond.
pub fn ms(d: Duration) -> f64 {
    d.as_micros() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missed_bar_is_recorded_and_fails_the_exit() {
        let mut held = Record::default();
        held.at_least("hit ratio >= 0.30", 0.5, 0.30);
        let mut missed = Record::default();
        missed.at_most("session blasted <= scratch blasted / 2", 80.0, 50.0);
        missed.wall_at_most("warm wall", Duration::from_millis(3), Duration::from_millis(2));

        let mut records = vec![held];
        assert_eq!(exit_code(&records), ExitCode::SUCCESS);
        records.push(missed);
        assert_eq!(exit_code(&records), ExitCode::FAILURE);

        let doc = bench_json(&records, true, 7);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BENCH_SCHEMA));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let scenarios = doc.get("scenarios").and_then(Json::as_arr).expect("scenarios");
        let bars = |i: usize| scenarios[i].get("bars").and_then(Json::as_arr).expect("bars");
        let field = |b: &Json, k: &str| b.get(k).cloned().expect("bar field");
        assert_eq!(field(&bars(0)[0], "ok"), Json::Bool(true));
        // Both misses are kept, not only the first.
        let oks: Vec<_> = bars(1).iter().map(|b| field(b, "ok")).collect();
        assert_eq!(oks, [Json::Bool(false), Json::Bool(false)]);
        assert_eq!(field(&bars(1)[0], "value"), Json::Num(80.0));
        assert_eq!(field(&bars(1)[0], "bound"), Json::Num(50.0));
        assert_eq!(field(&bars(1)[1], "bound"), Json::Num(2.0));
    }
}
