//! The two batch workloads, `isel-campaign` and `regalloc-spill`, driven
//! through `keq_harness::run_module` exactly as `validate_corpus` drives a
//! campaign: two workers, one shared obligation cache persisted to a store,
//! a write-ahead journal, and cold state for every batch.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use keq_core::KeqOptions;
use keq_harness::{run_module, HarnessOptions, ResultKind};
use keq_isel::PassId;
use keq_llvm::ast::Module;
use keq_smt::Budget;

use crate::corpus::{self, Expected, Observed, Workload};
use crate::util::median;

/// Worker threads of every batch.
pub const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median. They are dealt
/// out evenly before each batch and after the last, so they sample the
/// host over the whole run rather than over its first few seconds (F14).
pub const SETUP_REPS: usize = 42;
/// Pause before each set-up, so the repetitions of one slot sample the
/// host over a second or two rather than one burst of a few hundred ms.
pub const SETUP_GAP: Duration = Duration::from_millis(50);
/// Watchdog deadline of `isel-campaign` (and of `serve-warm`'s server).
/// The slowest decided unit, fn75, takes about 4.6 s when it starts cold
/// near the front of the campaign, and the two heavy units need more than
/// 30 s: 15 s is more than 3x above the first and 2x below the second.
pub const ISEL_DEADLINE: Duration = Duration::from_secs(15);
/// `regalloc-spill` conflict budget per query, the deterministic budget
/// that decides its budget-exhausted units.
pub const REGALLOC_CONFLICTS: u64 = 10_000;
/// `regalloc-spill` watchdog: a safety net only, far above every unit.
pub const REGALLOC_DEADLINE: Duration = Duration::from_secs(60);
/// Cold batches of every batch-workload run, a fixed count whatever
/// `--seconds` says. One batch measures too short a stretch of the host
/// (F1): 10–13 s of `isel-campaign` once its watchdog stretch (F18) is
/// left out. Two halve the variance that comes from within a run and give
/// the percentiles twice the samples (F16, F19).
pub const BATCHES: usize = 2;

/// How long, from the start of a batch, the units that end at the
/// watchdog hold every worker. `isel-campaign` submits its two watchdog
/// units (fn70, fn138) first, one per worker, and each runs for exactly
/// [`ISEL_DEADLINE`]: that stretch measures the deadline setting, not the
/// program, so `units_per_s` leaves it out (F18).
pub fn held(w: Workload) -> Duration {
    match w {
        Workload::IselCampaign => ISEL_DEADLINE,
        _ => Duration::ZERO,
    }
}

/// The pass a batch workload validates.
pub fn pass_of(w: Workload) -> PassId {
    match w {
        Workload::RegallocSpill => PassId::Regalloc,
        _ => PassId::Isel,
    }
}

/// Checker options of a batch workload: no wall-clock query budget
/// (`max_time`) and no checker `time_limit`, so no outcome depends on how
/// fast the machine is; `regalloc-spill` adds its conflict budget.
pub fn keq_options(w: Workload) -> KeqOptions {
    match w {
        Workload::RegallocSpill => KeqOptions {
            solver_budget: Budget {
                max_conflicts: REGALLOC_CONFLICTS,
                max_time: None,
                ..Budget::default()
            },
            ..KeqOptions::default()
        },
        _ => KeqOptions::default(),
    }
}

fn pool(w: Workload) -> Module {
    match w {
        Workload::RegallocSpill => corpus::pressure_pool(),
        _ => corpus::default_pool(corpus::ISEL_FUNCS),
    }
}

/// The campaign's files: the obligation store and the verdict journal.
pub struct RunFiles {
    pub store: PathBuf,
    pub journal: PathBuf,
}

impl RunFiles {
    pub fn in_dir(dir: &Path) -> RunFiles {
        RunFiles {
            store: dir.join("obligations.store"),
            journal: dir.join("verdicts.wal"),
        }
    }

    /// Removes both files so the next batch starts cold.
    pub fn reset(&self) -> std::io::Result<()> {
        for p in [&self.store, &self.journal] {
            match std::fs::remove_file(p) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }
}

/// Set-up: generate the pool, put it in the seeded order, print it, parse
/// the text back (the campaign validates what the parser produced), and
/// make sure the store and journal start empty.
pub fn setup(w: Workload, expected: &Expected, seed: u64, files: &RunFiles) -> Module {
    let pool = pool(w);
    let order = corpus::batch_order(&pool, w, pass_of(w), expected, seed);
    let text = corpus::reorder(&pool, &order).to_string();
    let module = keq_llvm::parse_module(&text).expect("the printed pool parses back");
    files.reset().expect("reset the store and journal");
    module
}

/// One unit's row of one batch.
pub struct Row {
    pub name: String,
    pub kind: ResultKind,
    pub time: Duration,
}

/// One cold batch over the whole pool.
pub struct Batch {
    pub wall: Duration,
    pub rows: Vec<Row>,
    pub journal_bytes: u64,
    pub store_bytes: u64,
}

impl Batch {
    pub fn succeeded(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.kind == ResultKind::Succeeded)
            .count()
    }
}

/// What the untraced part of a batch run measured.
pub struct BatchRun {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    pub batches: Vec<Batch>,
    /// The module every batch validated (seeded order, parsed).
    pub module: Module,
}

/// Runs [`BATCHES`] cold batches back to back, with the [`SETUP_REPS`]
/// set-ups dealt out before each batch and after the last.
pub fn run(
    w: Workload,
    seed: u64,
    dir: &Path,
    expected: &Expected,
    observed: &mut Observed,
) -> BatchRun {
    let files = RunFiles::in_dir(dir);
    let n = BATCHES;
    let per_slot = SETUP_REPS.div_ceil(n + 1);
    let mut setup_s = Vec::with_capacity(per_slot * (n + 1));
    let set_up = |setup_s: &mut Vec<f64>| {
        let mut module = None;
        for _ in 0..per_slot {
            std::thread::sleep(SETUP_GAP);
            let t = Instant::now();
            let m = setup(w, expected, seed, &files);
            setup_s.push(t.elapsed().as_secs_f64());
            module = Some(m);
        }
        module.expect("at least one set-up")
    };
    let module = set_up(&mut setup_s);

    let pass = pass_of(w);
    let opts = HarnessOptions {
        keq: keq_options(w),
        passes: vec![pass],
        workers: WORKERS,
        deadline: Some(match w {
            Workload::RegallocSpill => REGALLOC_DEADLINE,
            _ => ISEL_DEADLINE,
        }),
        cache_path: Some(files.store.clone()),
        journal_path: Some(files.journal.clone()),
        ..HarnessOptions::default()
    };
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        files.reset().expect("reset the store and journal");
        let t = Instant::now();
        let summary = run_module(&module, &opts);
        let wall = t.elapsed();
        let rows: Vec<Row> = summary
            .rows
            .iter()
            .map(|r| Row {
                name: r.name.clone(),
                kind: r.result.kind(),
                time: r.time,
            })
            .collect();
        for r in &rows {
            observed.record(expected, w, pass, &r.name, r.kind.name());
        }
        let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        batches.push(Batch {
            wall,
            rows,
            journal_bytes: size(&files.journal),
            store_bytes: size(&files.store),
        });
        set_up(&mut setup_s);
    }
    let _ = files.reset();
    BatchRun {
        workload: w,
        setup_s,
        batches,
        module,
    }
}

impl BatchRun {
    pub fn units(&self) -> usize {
        self.batches.iter().map(|b| b.rows.len()).sum()
    }

    pub fn failed_units(&self) -> usize {
        self.units() - self.batches.iter().map(Batch::succeeded).sum::<usize>()
    }

    /// Validated units per second of each batch's wall time, less the
    /// stretch the watchdog units hold every worker ([`held`]). A batch in
    /// which fewer than [`WORKERS`] units timed out had no such stretch
    /// (the run then also fails the expected table).
    pub fn batch_rates(&self) -> Vec<f64> {
        self.batches
            .iter()
            .map(|b| {
                let timeouts = b
                    .rows
                    .iter()
                    .filter(|r| r.kind == ResultKind::Timeout)
                    .count();
                let held = if timeouts >= WORKERS {
                    held(self.workload)
                } else {
                    Duration::ZERO
                };
                b.succeeded() as f64 / b.wall.saturating_sub(held).as_secs_f64()
            })
            .collect()
    }

    /// Median of [`BatchRun::batch_rates`].
    pub fn units_per_s(&self) -> f64 {
        median(&self.batch_rates())
    }

    /// Every row's validation time, in ms.
    pub fn unit_ms(&self) -> Vec<f64> {
        self.batches
            .iter()
            .flat_map(|b| b.rows.iter().map(|r| r.time.as_secs_f64() * 1e3))
            .collect()
    }

    /// Sum of unit times over (workers x batch wall).
    pub fn busy_ratio(&self) -> f64 {
        let busy: f64 = self.unit_ms().iter().sum::<f64>() / 1e3;
        let wall: f64 = self.batches.iter().map(|b| b.wall.as_secs_f64()).sum();
        busy / (WORKERS as f64 * wall)
    }
}
