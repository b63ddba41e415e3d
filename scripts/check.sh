#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order.
# Usage: scripts/check.sh [--fast]
#   --fast skips the release build and test suite (lint-only gate).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo run -q -p sos-analyze --bin sos-lint
run cargo run -q -p sos-analyze --bin sos-lint -- --only determinism
mkdir -p target
cargo run -q -p sos-analyze --bin sos-lint -- --format json > target/sos-lint-report.json || true
echo "==> sos-lint JSON report: target/sos-lint-report.json"
cargo run -q -p sos-analyze --bin sos-lint -- --only determinism --format json > target/sos-determinism-report.json || true
echo "==> determinism JSON report: target/sos-determinism-report.json"

if [[ "$fast" -eq 0 ]]; then
    run cargo build --release
    run cargo test -q
    run cargo test --offline --manifest-path perfbench/Cargo.toml
    # Reference benchmark smoke: every BENCHMARK.json workload once,
    # briefly; fails unless each is correct with no failed operation.
    run python3 scripts/perfbench_smoke.py
fi

echo "check.sh: all gates passed"
