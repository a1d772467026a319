//! The acceptance-bar driver: runs every scenario of
//! [`keq_bench::scenarios::SCENARIOS`] and writes `BENCH.json` (schema
//! `keq-bench/v1`) at the workspace root.
//!
//! ```text
//! cargo bench -p keq-bench --bench keq_bench [-- --smoke]
//! ```
//!
//! `--smoke` runs each scenario at its CI size. The exit status is
//! nonzero when any bar was missed; `BENCH.json` is written either way.

use std::process::ExitCode;

use keq_bench::record::{bench_json, exit_code};
use keq_bench::scenarios::{SCENARIOS, SEED};

fn main() -> ExitCode {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            // `cargo bench` passes `--bench` to every bench binary.
            "--bench" => {}
            other => {
                eprintln!("keq_bench: unknown argument {other:?} (the only flag is --smoke)");
                return ExitCode::from(2);
            }
        }
    }
    let records: Vec<_> = SCENARIOS
        .iter()
        .map(|s| {
            eprintln!("==> {}", s.name);
            let record = s.run(smoke);
            for b in &record.bars {
                let verdict = if b.ok { "ok  " } else { "MISS" };
                eprintln!("    {verdict} {} (value {:.4}, bound {:.4})", b.bar, b.value, b.bound);
            }
            record
        })
        .collect();
    let mut out = String::new();
    bench_json(&records, smoke, SEED).write_pretty(&mut out);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    std::fs::write(path, out).expect("write BENCH.json");
    eprintln!("wrote {path}");
    exit_code(&records)
}
