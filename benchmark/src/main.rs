//! keq benchmark: end-to-end and per-layer numbers for three workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <isel-campaign|regalloc-spill|serve-warm> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--seconds` is the length of `serve-warm`'s closed-loop window; the
//! batch workloads run a fixed number of cold batches whatever it says.
//! `--trace 0` measures the workload and prints its end-to-end metrics;
//! `--trace 1` measures it the same way, then runs the single-threaded
//! traced pass and prints the per-layer metrics. Either way the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are a readable report. See
//! the README next to this crate for the workloads and every metric.

mod batch;
mod corpus;
mod gate;
mod layers;
mod serve;
mod traced;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use corpus::{Expected, Observed, Workload};
use layers::{TracedRun, Untraced};
use util::{hd_quantile, median, metric, Metric};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports, whichever workload produced it.
struct Outcome {
    end_to_end: Vec<Metric>,
    untraced: Untraced,
    traced: Option<TracedRun>,
    attempted: u64,
    /// Operations that went wrong: errors, or outcomes off the table.
    problems: Vec<String>,
    report: Vec<String>,
}

fn end_to_end(
    units_per_s: f64,
    unit_ms: &[f64],
    failed_ratio: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("units_per_s", units_per_s, "1/s"),
        metric("unit_p50_ms", hd_quantile(unit_ms, 0.5), "ms"),
        metric("unit_p95_ms", hd_quantile(unit_ms, 0.95), "ms"),
        metric("failed_ratio", failed_ratio, "ratio"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn run_dir(w: Workload) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{}-{}", w.name(), std::process::id()))
}

fn run_batch(args: &Args, expected: &Expected, observed: &mut Observed) -> Result<Outcome, String> {
    let w = args.workload;
    let dir = run_dir(w);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let run = batch::run(w, args.seed, &dir, expected, observed);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_run");
    let unit_ms = run.unit_ms();
    let mut problems = Vec::new();
    let mut report = vec![format!(
        "set-up x{}: {} s; batches: {}",
        run.setup_s.len(),
        fmt_secs(&run.setup_s),
        run.batches
            .iter()
            .zip(run.batch_rates())
            .map(|(b, r)| {
                format!(
                    "{} units in {:.3} s ({r:.4} validated/s)",
                    b.rows.len(),
                    b.wall.as_secs_f64()
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    )];
    let mut slow: Vec<&batch::Row> = run
        .batches
        .iter()
        .flat_map(|b| &b.rows)
        .filter(|r| r.kind == keq_harness::ResultKind::Succeeded)
        .collect();
    slow.sort_by_key(|r| std::cmp::Reverse(r.time));
    report.push(format!(
        "slowest validated units: {}",
        slow.iter()
            .take(5)
            .map(|r| format!("{} {:.3} s", r.name, r.time.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if w == Workload::IselCampaign {
        let tallies = gate::run(args.seed);
        for t in &tallies {
            report.push(format!(
                "known-answer gate, {}: fired {}, rejected {}, interpreter-diverging {}, \
                 unsound accepts {}",
                t.label,
                t.fired,
                t.rejected,
                t.diverged,
                t.unsound.len()
            ));
            for f in &t.unsound {
                problems.push(format!("unsound accept: {} with {} injected", f, t.label));
            }
            if t.diverged == 0 {
                problems.push(format!("known-answer gate never diverged for {}", t.label));
            }
        }
    }
    let last = run.batches.last().expect("at least one batch");
    let untraced = Untraced {
        units_per_s: run.units_per_s(),
        busy_ratio: run.busy_ratio(),
        journal_bytes: last.journal_bytes as f64,
        store_bytes: last.store_bytes as f64,
        p95_samples: unit_ms.len(),
        transport_rtt_ms: None,
        server_p50_ms: None,
    };
    let traced = if args.trace {
        let path = spans_path(args);
        let t = layers::traced_run(&path, |tr| {
            layers::batch_sequence(w, &run.module, expected, tr)
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
        for c in &t.seq.measured {
            observed.record(expected, w, batch::pass_of(w), &c.name, c.class);
        }
        Some(t)
    } else {
        None
    };
    Ok(Outcome {
        end_to_end: end_to_end(
            untraced.units_per_s,
            &unit_ms,
            run.failed_units() as f64 / run.units().max(1) as f64,
            &run.setup_s,
            util::peak_rss_mb(),
        ),
        untraced,
        traced,
        attempted: run.units() as u64,
        problems,
        report,
    })
}

fn run_serve(args: &Args, expected: &Expected, observed: &mut Observed) -> Result<Outcome, String> {
    let mix = serve::Mix::new(expected, args.seed);
    let run = serve::run(&mix, args.seconds, expected, observed);
    let mut errors = run.errors.clone();
    let units_per_s = run.succeeded as f64 / run.window.as_secs_f64();
    let untraced = Untraced {
        units_per_s,
        busy_ratio: run.busy_ratio,
        journal_bytes: 0.0,
        store_bytes: 0.0,
        p95_samples: run.rtt_ms.len(),
        transport_rtt_ms: Some(run.transport_rtt_ms),
        server_p50_ms: Some(run.server_p50_ms),
    };
    let traced = if args.trace {
        let path = spans_path(args);
        let t = layers::serve_traced(&mix, &run.live.addr, &path, observed, expected, &mut errors)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for (c, (u, _)) in t.seq.measured.iter().zip(mix.interleaved()) {
            observed.record(expected, Workload::ServeWarm, u.pass, &c.name, c.class);
        }
        Some(t)
    } else {
        None
    };
    let summary = run.live.stop();
    if summary.fin.server.disconnects > 0 {
        errors.push(format!(
            "{} verdicts found their client gone",
            summary.fin.server.disconnects
        ));
    }
    let setup_s = vec![run.setup_s];
    let report = vec![format!(
        "set-up x{}: {} s; window {:.3} s: {} answered ({} validated) over {} connections",
        setup_s.len(),
        fmt_secs(&setup_s),
        run.window.as_secs_f64(),
        run.answered,
        run.succeeded,
        serve::CONNS
    )];
    Ok(Outcome {
        end_to_end: end_to_end(
            units_per_s,
            &run.rtt_ms,
            run.failed_ratio,
            &setup_s,
            run.peak_rss_mb,
        ),
        untraced,
        traced,
        attempted: (run.answered + run.errors.len()) as u64,
        problems: errors,
        report,
    })
}

/// Set-up times for the report, four decimals each.
fn fmt_secs(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|s| format!("{s:.4}")).collect();
    format!("[{}]", parts.join(", "))
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <isel-campaign|regalloc-spill|serve-warm> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let expected = Expected::builtin();
    let mut observed = Observed::default();
    let outcome = match args.workload {
        Workload::ServeWarm => run_serve(&args, &expected, &mut observed),
        _ => run_batch(&args, &expected, &mut observed),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload {} seed {} trace {} on {} cores",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for line in &out.report {
        println!("{line}");
    }
    let mut failed = out.problems.len() as u64 + observed.mismatched;
    out.problems.extend(observed.mismatches.iter().cloned());
    print_metrics("end-to-end:", &out.end_to_end);
    let metrics = match &out.traced {
        Some(t) => {
            let per_layer = layers::per_layer(t, &out.untraced);
            println!(
                "traced pass: {} units in {:.3} s, {} spans ({} names); counts repeat: {}",
                t.seq.measured.len(),
                t.seq.wall.as_secs_f64(),
                t.span_count,
                t.times.len(),
                if t.repeat_diffs.is_empty() {
                    "yes"
                } else {
                    "NO"
                }
            );
            println!(
                "  {:<12} {:>8} {:>12} {:>12}",
                "span", "count", "total_ms", "self_ms"
            );
            for (name, lt) in &t.times {
                println!(
                    "  {:<12} {:>8} {:>12.3} {:>12.3}",
                    name,
                    lt.spans,
                    lt.total_us as f64 / 1e3,
                    lt.self_us as f64 / 1e3
                );
            }
            print_metrics("per-layer:", &per_layer);
            print_metrics(
                "per-layer, this workload only:",
                &layers::workload_specific(t, &out.untraced),
            );
            for d in &t.repeat_diffs {
                out.problems
                    .push(format!("traced counts did not repeat: {d}"));
                failed += 1;
            }
            per_layer
        }
        None => out.end_to_end.clone(),
    };
    for p in out.problems.iter().take(40) {
        println!("problem: {p}");
    }
    let correct = failed == 0;
    println!(
        "{}",
        util::result_json(correct, out.attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
