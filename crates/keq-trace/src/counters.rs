//! Counter tables: each counter vocabulary is declared once.
//!
//! A counter record that crosses a crate or wire boundary — the solver's
//! [`SolverStats`], the scheduler's [`RequestCounters`], the report's
//! outcome, cache and resume sections — is one `counter_table!` table. One
//! row names a field, its value type, its wire key, the report section the
//! key is written to (when it is not the record's own), and the
//! metrics-registry counter(s) the field feeds. The macro generates the
//! struct, field-wise [`merge`](SolverStats::merge) /
//! [`since`](SolverStats::since), and the [`CounterTable`] row list from
//! which the JSON writer, the lenient and strict readers, the `validate()`
//! key checks and the per-attempt registry sampling are all derived. A new
//! counter is one new row.

use std::time::Duration;

use crate::json::{self, Json};
use crate::metrics::{CounterId, Registry};
use crate::report::{require, Violation};

/// How a counter value is written to JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer.
    Count,
    /// A boolean.
    Flag,
}

impl Kind {
    fn to_json(self, v: u64) -> Json {
        match self {
            Kind::Count => json::num(v),
            Kind::Flag => Json::Bool(v != 0),
        }
    }

    fn read(self, v: &Json) -> Option<u64> {
        match self {
            Kind::Count => v.as_u64(),
            Kind::Flag => v.as_bool().map(u64::from),
        }
    }

    fn expected(self) -> &'static str {
        match self {
            Kind::Count => "a non-negative integer",
            Kind::Flag => "a boolean",
        }
    }
}

/// A value type a counter table can hold. Every value travels as a `u64`
/// ("wire value"): a [`Duration`] as whole microseconds, a flag as 0/1.
pub(crate) trait CounterValue: Copy {
    /// JSON shape of the value.
    const KIND: Kind;
    /// `self += other` (a flag ORs).
    fn add(&mut self, other: Self);
    /// `self - earlier`, saturating at zero (a flag keeps its value).
    fn since(self, earlier: Self) -> Self;
    /// The wire value.
    fn to_wire(self) -> u64;
    /// The value of a wire value.
    fn from_wire(v: u64) -> Self;
}

impl CounterValue for u64 {
    const KIND: Kind = Kind::Count;
    fn add(&mut self, other: u64) {
        *self += other;
    }
    fn since(self, earlier: u64) -> u64 {
        self.saturating_sub(earlier)
    }
    fn to_wire(self) -> u64 {
        self
    }
    fn from_wire(v: u64) -> u64 {
        v
    }
}

impl CounterValue for Duration {
    const KIND: Kind = Kind::Count;
    fn add(&mut self, other: Duration) {
        *self += other;
    }
    fn since(self, earlier: Duration) -> Duration {
        self.checked_sub(earlier).unwrap_or_default()
    }
    fn to_wire(self) -> u64 {
        u64::try_from(self.as_micros()).unwrap_or(u64::MAX)
    }
    fn from_wire(v: u64) -> Duration {
        Duration::from_micros(v)
    }
}

impl CounterValue for bool {
    const KIND: Kind = Kind::Flag;
    fn add(&mut self, other: bool) {
        *self |= other;
    }
    fn since(self, _earlier: bool) -> bool {
        self
    }
    fn to_wire(self) -> u64 {
        u64::from(self)
    }
    fn from_wire(v: u64) -> bool {
        v != 0
    }
}

/// How a field reaches the metrics [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Not a registry metric.
    None,
    /// The scheduler adds each attempt's delta of this field to the
    /// counter ([`CounterTable::add_sampled`]).
    Sampled(CounterId),
    /// The code that bumps the field also bumps these counters, whose sum
    /// therefore equals the field.
    AtSource(&'static [CounterId]),
}

/// One row of a counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Rust field name.
    pub name: &'static str,
    /// Report section the wire key is written to (`""`: the record's own).
    pub section: &'static str,
    /// Wire key (`None`: in-process only, never serialized).
    pub key: Option<&'static str>,
    /// JSON shape.
    pub kind: Kind,
    /// Registry counter(s) the field feeds.
    pub feed: Feed,
}

/// What `counter_table!` generates, plus everything derived from it.
pub trait CounterTable: Sized {
    /// Every field, in declaration order (which is also wire order).
    const FIELDS: &'static [Field];

    /// Every field's wire value, in [`CounterTable::FIELDS`] order.
    fn wire_values(&self) -> Vec<u64>;

    /// The record of wire values in [`CounterTable::FIELDS`] order
    /// (missing trailing values read zero).
    fn from_wire_values(values: &[u64]) -> Self;

    /// The `(key, value)` pairs written to `section` (`""`: the record's
    /// own section), in table order.
    fn section_json(&self, section: &str) -> Vec<(&'static str, Json)> {
        Self::FIELDS
            .iter()
            .zip(self.wire_values())
            .filter(|(f, _)| f.section == section)
            .filter_map(|(f, v)| Some((f.key?, f.kind.to_json(v))))
            .collect()
    }

    /// The record's own section as a JSON object.
    fn to_json(&self) -> Json {
        json::obj(self.section_json(""))
    }

    /// Overwrites the fields of `section` found in `doc`, leaving absent
    /// or malformed ones as they are (a [`Duration`] field keeps only its
    /// whole microseconds). Returns whether every key of the section was
    /// present and well-typed.
    fn read_section(&mut self, section: &str, doc: &Json) -> bool {
        let mut values = self.wire_values();
        let mut complete = true;
        for (f, slot) in Self::FIELDS.iter().zip(values.iter_mut()) {
            let Some(key) = f.key.filter(|_| f.section == section) else { continue };
            match doc.get(key).and_then(|v| f.kind.read(v)) {
                Some(v) => *slot = v,
                None => complete = false,
            }
        }
        *self = Self::from_wire_values(&values);
        complete
    }

    /// Parses the record's own section; missing fields read zero (forward
    /// compatibility on the wire), a non-object is `None`.
    fn from_json(doc: &Json) -> Option<Self> {
        let Json::Obj(_) = doc else { return None };
        let mut out = Self::from_wire_values(&[]);
        out.read_section("", doc);
        Some(out)
    }

    /// Report-schema check of `section` inside `doc` at `path`: one
    /// violation per missing or ill-typed key. Returns whether the section
    /// was clean.
    fn check_section(doc: &Json, path: &str, section: &str, out: &mut Vec<Violation>) -> bool {
        let before = out.len();
        for f in Self::FIELDS.iter().filter(|f| f.section == section) {
            let Some(key) = f.key else { continue };
            if require(doc, path, key, out).is_some_and(|v| f.kind.read(v).is_none()) {
                out.push(format!("{path}.{key}: expected {}", f.kind.expected()));
            }
        }
        out.len() == before
    }

    /// Adds every [`Feed::Sampled`] field to its registry counter.
    fn add_sampled(&self, reg: &Registry) {
        for (f, v) in Self::FIELDS.iter().zip(self.wire_values()) {
            if let Feed::Sampled(id) = f.feed {
                reg.counter_add(id, v);
            }
        }
    }
}

/// Declares a counter record as a table. Each row is
///
/// ```text
/// /// docs
/// field: Type => "wire_key" [in section] [, sampled(CounterVariant) | , at_source(CounterVariant, ...)];
/// ```
///
/// with `_` for a wire key the record keeps in-process only. `Type` is any
/// [`CounterValue`]. The struct's own attributes (derives, docs) are
/// passed through.
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$doc:meta])*
                $field:ident : $ty:ty => $key:tt $(in $section:ident)? $(, $feed:ident $ids:tt)? ;
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl $name {
            /// Field-wise accumulation `self + other`, for merging per-run
            /// deltas into a total.
            pub fn merge(&mut self, other: &$name) {
                $( $crate::counters::CounterValue::add(&mut self.$field, other.$field); )*
            }

            /// Field-wise difference `self - earlier`, saturating at zero,
            /// for the cost of one run of a reused (warm-started) source.
            #[must_use]
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $field: $crate::counters::CounterValue::since(self.$field, earlier.$field), )*
                }
            }
        }

        impl $crate::counters::CounterTable for $name {
            const FIELDS: &'static [$crate::counters::Field] = &[$(
                $crate::counters::Field {
                    name: stringify!($field),
                    section: counter_table!(@section $($section)?),
                    key: counter_table!(@key $key),
                    kind: <$ty as $crate::counters::CounterValue>::KIND,
                    feed: counter_table!(@feed $($feed $ids)?),
                },
            )*];

            fn wire_values(&self) -> Vec<u64> {
                vec![$( $crate::counters::CounterValue::to_wire(self.$field) ),*]
            }

            fn from_wire_values(values: &[u64]) -> $name {
                let mut it = values.iter().copied();
                $name {
                    $( $field: $crate::counters::CounterValue::from_wire(it.next().unwrap_or(0)), )*
                }
            }
        }
    };
    (@section) => { "" };
    (@section $section:ident) => { stringify!($section) };
    (@key _) => { None };
    (@key $key:literal) => { Some($key) };
    (@feed) => { $crate::counters::Feed::None };
    (@feed sampled ($id:ident)) => { $crate::counters::Feed::Sampled($crate::metrics::CounterId::$id) };
    (@feed at_source ($($id:ident),+)) => {
        $crate::counters::Feed::AtSource(&[$($crate::metrics::CounterId::$id),+])
    };
}
pub(crate) use counter_table;

counter_table! {
    /// Cumulative solver statistics across queries. The three
    /// `obligation_cache_*` fields are written to the report's `cache`
    /// section; the rest form its `solver` section.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SolverStats {
        /// Total queries issued.
        queries: u64 => "queries", sampled(SolverQueries);
        /// Queries answered `Sat`.
        sat: u64 => "sat";
        /// Queries answered `Unsat`.
        unsat: u64 => "unsat";
        /// Queries that exhausted a budget.
        budget: u64 => "budget";
        /// Total CDCL conflicts.
        conflicts: u64 => "conflicts", sampled(CdclConflicts);
        /// Total CDCL restarts.
        restarts: u64 => "restarts", sampled(CdclRestarts);
        /// Queries answered from the memo cache.
        cache_hits: u64 => "cache_hits";
        /// Entries evicted from the bounded query cache.
        cache_evictions: u64 => "cache_evictions";
        /// Incremental sessions opened.
        sessions_opened: u64 => "sessions_opened";
        /// Session queries that reused an already-asserted prefix (every
        /// session query that reached the SAT core without re-lowering or
        /// re-asserting its prefix).
        prefix_hits: u64 => "prefix_hits";
        /// Sum over session queries of the learnt clauses already in the
        /// database when the query started — clause reuse made possible by
        /// solving under assumptions instead of rebuilding the solver.
        clauses_retained: u64 => "clauses_retained";
        /// Term nodes translated to CNF (each `blast_node` invocation, in
        /// both scratch and session modes). The session-vs-scratch ratio of
        /// this counter is the headline reuse metric.
        terms_blasted: u64 => "terms_blasted";
        /// Term nodes whose CNF translation was served from a blast memo
        /// (shared-subterm hits, within and across queries).
        terms_blast_reused: u64 => "terms_blast_reused";
        /// Queries discharged by the shared obligation cache (canonical
        /// fingerprint matched a verdict proven by another function or run).
        obligation_cache_hits: u64 => "hits" in cache, sampled(ObligationCacheHits);
        /// Queries that consulted the shared obligation cache and missed.
        obligation_cache_misses: u64 => "misses" in cache, sampled(ObligationCacheMisses);
        /// Verdicts this solver recorded into the shared obligation cache.
        obligation_cache_stores: u64 => "stores" in cache, sampled(ObligationCacheStores);
        /// Rewrite rules fired by obligation normalization (all families).
        rewrite_rules_fired: u64 => "rewrite_rules_fired", at_source(
            RewriteConstFold, RewriteAlgebraic, RewriteCancel, RewriteWidth, RewriteMemory, RewriteIte
        );
        /// Normalization passes run over obligation roots.
        rewrite_passes: u64 => "rewrite_passes", at_source(RewritePasses);
        /// Term-DAG nodes eliminated by obligation normalization.
        rewrite_nodes_saved: u64 => "rewrite_nodes_saved", at_source(RewriteNodesSaved);
        /// Learnt clauses exempted from CDCL database reduction because
        /// their literal-block distance was glue-level (LBD ≤ 2).
        lbd_kept: u64 => "lbd_kept", sampled(LbdKept);
        /// Total wall-clock time in the solver.
        time: Duration => "time_us";
    }
}

counter_table! {
    /// Request counters of a scheduler's lifetime: the `server` section of
    /// `RUN_REPORT.json`, the head of the `stats` wire op, and the
    /// scheduler's admission/finalization registry counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RequestCounters {
        /// Submissions accepted past the gate.
        requests: u64 => "requests", at_source(Requests);
        /// Submissions finalized with a verdict.
        completed: u64 => "completed", at_source(Completed);
        /// Rejections by queue-depth backpressure.
        rejected_queue_full: u64 => "rejected_queue_full", at_source(RejectedQueueFull);
        /// Rejections by per-client quota.
        rejected_quota: u64 => "rejected_quota", at_source(RejectedQuota);
        /// Rejections while draining.
        rejected_draining: u64 => _, at_source(RejectedDraining);
        /// Verdicts whose reply channel was gone (client disconnected).
        disconnects: u64 => "disconnects", at_source(Disconnects);
    }
}
