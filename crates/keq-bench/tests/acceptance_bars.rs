//! The count bars of the deterministic scenarios, run at smoke size
//! through the same scenario code as `cargo bench --bench keq_bench`.
//! Wall-clock bars stay bench-only: this profile is unoptimized and runs
//! tests in parallel.

use keq_bench::scenarios::scenario;

fn count_bars_hold(name: &str) {
    let record = scenario(name).run(true);
    let counted: Vec<_> = record.bars.iter().filter(|b| !b.timed).collect();
    assert!(!counted.is_empty(), "{name} recorded no count bar");
    for b in counted {
        assert!(b.ok, "{name}: missed `{}` (value {}, bound {})", b.bar, b.value, b.bound);
    }
}

#[test]
fn session_reuse_blasts_the_prefix_once() {
    count_bars_hold("session_reuse");
}

#[test]
fn normalization_cuts_blasting_and_collides_across_functions() {
    count_bars_hold("normalization");
}
