#!/usr/bin/env bash
# The benchmark's own gate (the repository's scripts/check.sh never sees this
# package): format, lints, unit + hygiene tests, a quick end-to-end smoke of
# every workload in both passes, and BENCHMARK.json against the spec tables.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target/benchmark}"

echo "==> cargo fmt --check"
cargo fmt -- --check
echo "==> cargo clippy -D warnings"
cargo clippy --release --offline --all-targets -- -D warnings
echo "==> cargo test --release (unit tests + process hygiene on the real binary)"
cargo test --release --offline -q
echo "==> run.sh --quick (smoke only: the numbers are not comparable)"
./run.sh --quick --out out/quick
echo "==> BENCHMARK.json against src/spec.rs"
./run.sh validate ../BENCHMARK.json
echo "benchmark/check.sh: all stages passed"
