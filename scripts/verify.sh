#!/usr/bin/env bash
# Offline verification: build, test, format-check and lint the whole
# workspace.
# No network access required — the workspace has zero external
# dependencies (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The benchmark package has its own workspace and compiles against the
# crates' public API; build and test it so an API change that breaks it
# fails here.
echo "==> cargo test --release --offline -q --manifest-path benchmark/Cargo.toml"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> OK"
