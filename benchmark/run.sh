#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed S] [--quick | --seconds T] [--workload NAME] [--sets N]
#       every workload (or one): end-to-end pass with tracing off, then the
#       traced pass with per-layer metrics and the budget table; writes
#       benchmark/out/result.json and benchmark/out/trace_<workload>.json
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one pass; the last line of stdout is the driver's result object
#   benchmark/run.sh compare A.json B.json | selfcheck | validate FILE
set -euo pipefail
invoked_from=$PWD
# cargo must run from inside the repository so that .cargo/config.toml
# (target-cpu=native) applies exactly as it does to `reproduce`
cd "$(dirname "$0")"
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$PWD/../target/benchmark" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$invoked_from/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
