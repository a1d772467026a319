#!/usr/bin/env bash
# Traced corpus run producing the machine-readable RUN_REPORT.json
# (schema keq-run-report/v7; see DESIGN.md §Observability), then
# schema-checks it with the keq-trace validator.
#
# Usage:
#   scripts/report.sh             # full-size run (100 functions)
#   scripts/report.sh --smoke     # CI-sized run, a few seconds total
#
# Knobs (environment wins over defaults in either mode):
#   KEQ_REPORT_N      corpus size
#   KEQ_REPORT_SEED   corpus seed
#   KEQ_REPORT_OUT    report path            (default RUN_REPORT.json)
#   KEQ_REPORT_JSONL  raw event stream path  (default: not written)
#   KEQ_REPORT_CACHE  persistent obligation-store path (default: no store)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    KEQ_REPORT_N="${KEQ_REPORT_N:-8}"
fi
KEQ_REPORT_N="${KEQ_REPORT_N:-100}"
KEQ_REPORT_SEED="${KEQ_REPORT_SEED:-2021}"
KEQ_REPORT_OUT="${KEQ_REPORT_OUT:-$PWD/RUN_REPORT.json}"

args=("$KEQ_REPORT_N" --seed "$KEQ_REPORT_SEED" --report "$KEQ_REPORT_OUT")
if [[ -n "${KEQ_REPORT_JSONL:-}" ]]; then
    args+=(--trace-jsonl "$KEQ_REPORT_JSONL")
fi
if [[ -n "${KEQ_REPORT_CACHE:-}" ]]; then
    args+=(--cache "$KEQ_REPORT_CACHE")
fi

echo "==> cargo run --release --example validate_corpus -- ${args[*]}"
cargo run --release --example validate_corpus -- "${args[@]}"

echo "==> schema check ${KEQ_REPORT_OUT}"
KEQ_RUN_REPORT="$KEQ_REPORT_OUT" \
    cargo test -q -p keq-trace --test schema_check -- --nocapture

echo "==> wrote ${KEQ_REPORT_OUT}"
