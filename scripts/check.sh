#!/usr/bin/env bash
# Tier-1 verification gate: everything a PR must pass before merging.
# Referenced from ROADMAP.md; run from the repo root.
#
# Usage: check.sh [STAGE ...]
#   No arguments runs every stage in order (the full gate, exactly as
#   before). Naming stages runs just those, so CI can fan the expensive
#   smokes out as parallel matrix jobs and developers can iterate on one
#   stage: `check.sh build test`, `check.sh dist`, `check.sh sched`, ...
#
# Stages: fmt codec build test clippy faults partition trace engine scale
#         simd codegen dist sched chaos benchmark
set -euo pipefail
cd "$(dirname "$0")/.."

# Any cargo command inside benchmark/ (the `benchmark` stage) rewrites its
# stale Cargo.lock. The gate leaves benchmark/ as it found it: the lock is
# copied aside here and restored byte for byte however the script ends.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

stage_codec() {
    echo "==> codec lint (from_le_bytes only in subsonic_obs::codec)"
    # Every binary format reads through subsonic_obs::codec, whose Dec checks
    # each decoded count against the bytes left before it sizes anything; a
    # hand-rolled reader elsewhere brings that bug class back. Test code is
    # exempt: tests/ directories and every #[cfg(test)] item, as
    # scripts/nontest.awk (the filter scripts/loc.sh counts with) reads
    # them. The one allowed exception is exec::checkpoint::seal_v3, whose
    # word loads hash the bytes and do not decode them.
    local hits
    hits=$(find crates -path '*/tests' -prune -o -name '*.rs' -print \
        | grep -v '^crates/obs/src/codec\.rs$' \
        | xargs awk -f scripts/nontest.awk \
        | grep 'from_le_bytes' \
        | grep -v '^crates/exec/src/checkpoint\.rs:[0-9]*: *\*lane = seal_step(\*lane, u64::from_le_bytes(\*word));$' \
        || true)
    if [[ -n "$hits" ]]; then
        echo "from_le_bytes outside subsonic_obs::codec (read with codec::Dec instead):"
        echo "$hits"
        exit 1
    fi
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release --workspace
}

stage_test() {
    echo "==> cargo test -q (including #[ignore]d tests)"
    cargo test -q --workspace -- --include-ignored
}

stage_clippy() {
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_faults() {
    echo "==> fault suite (injection, detection, crash recovery)"
    cargo test --release -q -p subsonic-integration --test fault_recovery
    # the kill and kill-during-recovery columns of the substrate table
    cargo test --release -q -p subsonic-integration --test conformance
    cargo run --release -q -p subsonic-bench --bin reproduce -- --quick --out /tmp/subsonic-fault-smoke faults
}

stage_partition() {
    echo "==> reliable transport + partition smoke"
    cargo test --release -q -p subsonic-integration --test transport_reliability
    cargo run --release -q -p subsonic-bench --bin reproduce -- --quick --out /tmp/subsonic-partition-smoke partition
}

stage_trace() {
    echo "==> trace export smoke (reproduce --trace)"
    cargo run --release -q -p subsonic-bench --bin reproduce -- --quick \
        --out /tmp/subsonic-trace-smoke --trace /tmp/subsonic-trace-smoke/trace.json partition
    test -s /tmp/subsonic-trace-smoke/trace.json || { echo "trace export produced no file"; exit 1; }
    python3 -c "import json,sys; json.load(open('/tmp/subsonic-trace-smoke/trace.json'))" \
        || { echo "trace export is not valid JSON"; exit 1; }
}

stage_engine() {
    echo "==> engine equivalence (PR 6 reference vs calendar queue / virtual-time bus)"
    cargo test --release -q -p subsonic-integration --test engine_equivalence
}

stage_scale() {
    echo "==> engine scale smoke (reproduce scale --quick)"
    cargo run --release -q -p subsonic-bench --bin reproduce -- --quick --out /tmp/subsonic-scale-smoke scale
}

stage_simd() {
    echo "==> SIMD/schedule equivalence smoke (release codegen)"
    # the fast == scalar pins again, under the release profile's
    # target-cpu=native vectorized codegen (.cargo/config.toml), and the
    # solvers' own shift and relax unit tests in that codegen too (the test
    # profile builds them at opt-level 1)
    cargo test --release -q -p subsonic-integration --test simd_equivalence
    cargo test --release -q -p subsonic-solvers
}

stage_codegen() {
    echo "==> baseline-ISA codegen (bitwise pins built for target-cpu=x86-64)"
    # .cargo/config.toml builds for the host's own vector ISA and promises
    # that another target CPU changes no result, only the rate. Hold it to
    # that: the same bitwise pins (ORACLE_SEALS included), built for the
    # SSE2-only x86-64 baseline into their own target dir so the native
    # build's artifacts are neither reused nor overwritten
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/codegen-x86-64 \
        cargo test --release -q -p subsonic-integration \
        --test conformance --test simd_equivalence --test golden_rows
}

stage_dist() {
    echo "==> dist smoke (4 OS processes over loopback TCP, one SIGKILLed mid-run)"
    # hard wall-clock cap: a hung socket or deadlocked supervisor must fail
    # the gate, not wedge it
    timeout -k 5 240 cargo run --release -q -p subsonic-bench --bin reproduce -- \
        --quick --out /tmp/subsonic-dist-smoke dist \
        || { echo "dist smoke failed or timed out"; exit 1; }
}

stage_sched() {
    echo "==> scheduler smoke (multi-tenant trace replay + property tests)"
    cargo test --release -q -p subsonic-integration --test sched_properties
    # hard wall-clock cap: a policy that livelocks the queue (or an event
    # loop that stops draining) must fail the gate, not wedge it
    timeout -k 5 180 cargo run --release -q -p subsonic-bench --bin reproduce -- \
        --quick --out /tmp/subsonic-sched-smoke sched \
        || { echo "sched smoke failed or timed out"; exit 1; }
}

stage_chaos() {
    echo "==> chaos soak (seeded kill/loss/reorder/partition/migration schedules)"
    # link-level delivery contract under arbitrary wire-fault plans
    cargo test --release -q -p subsonic-integration --test net_runtime
    # short soak under a hard wall-clock cap: a fault schedule that deadlocks
    # the runtime must fail the gate, not wedge it. Artifacts (schedules.csv,
    # failing seeds + RunRecords) land where CI can upload them.
    mkdir -p /tmp/subsonic-chaos-smoke/artifacts
    SUBSONIC_CHAOS_ARTIFACTS=/tmp/subsonic-chaos-smoke/artifacts \
        timeout -k 5 300 cargo run --release -q -p subsonic-bench --bin reproduce -- \
        --quick --out /tmp/subsonic-chaos-smoke chaos \
        || { echo "chaos soak failed or timed out"; exit 1; }
}

stage_benchmark() {
    echo "==> benchmark/ package gate (its own workspace: fmt, clippy, tests, quick smoke, spec)"
    # benchmark/ is outside the workspace, so no stage above compiles it; it
    # consumes solver/runner API shapes (e.g. plan()) and must break here,
    # not in the perf driver
    bash benchmark/check.sh
}

ALL_STAGES=(fmt codec build test clippy faults partition trace engine scale simd codegen dist sched chaos benchmark)

run_stage() {
    local t0=$SECONDS
    dispatch_stage "$1"
    echo "<== $1: $((SECONDS - t0)) s"
}

dispatch_stage() {
    case "$1" in
        fmt)            stage_fmt ;;
        codec)          stage_codec ;;
        build)          stage_build ;;
        test)           stage_test ;;
        clippy)         stage_clippy ;;
        faults)         stage_faults ;;
        partition)      stage_partition ;;
        trace)          stage_trace ;;
        engine)         stage_engine ;;
        scale)          stage_scale ;;
        simd)           stage_simd ;;
        codegen)        stage_codegen ;;
        dist)           stage_dist ;;
        sched)          stage_sched ;;
        chaos)          stage_chaos ;;
        benchmark)      stage_benchmark ;;
        *)
            echo "check.sh: unknown stage '$1'" >&2
            echo "stages: ${ALL_STAGES[*]}" >&2
            exit 2
            ;;
    esac
}

if (( $# == 0 )); then
    for s in "${ALL_STAGES[@]}"; do
        run_stage "$s"
    done
    echo "All checks passed in $SECONDS s."
else
    for s in "$@"; do
        run_stage "$s"
    done
    echo "Requested stage(s) passed in $SECONDS s: $*"
fi
