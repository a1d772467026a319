#!/usr/bin/env bash
# The acceptance bars: runs every keq_bench scenario and writes BENCH.json
# (schema keq-bench/v1) at the repository root; exits nonzero on a missed
# bar. See crates/keq-bench/src/scenarios.rs for the scenario table.
#
#   scripts/bench.sh            # full size
#   scripts/bench.sh --smoke    # CI size
set -euo pipefail
cd "$(dirname "$0")/.."
cargo bench -p keq-bench --bench keq_bench -- "$@"
