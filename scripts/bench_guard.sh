#!/usr/bin/env bash
# Bench regression guard: compares the two newest checked-in BENCH_*.json
# reports and fails when a guarded metric regressed by more than 15%. The
# guard is direction-aware: throughput metrics (node rates, halo
# pack/roundtrip, scheduler replay) are higher-is-better and flag decreases;
# latency/makespan metrics (detect_*, recovery_*, sched_makespan_*, chaos_*)
# are lower-is-better and flag increases.
#
# Exit codes (check.sh keys off the distinction):
#   0  no guarded metric regressed
#   1  regression: a guarded metric moved past the threshold. Bench numbers
#      are machine-state snapshots, so check.sh treats this as NON-blocking —
#      it flags the regression loudly but cannot tell a real slowdown from a
#      different recording machine. Run standalone to gate a perf change.
#   2+ harness failure: unreadable/invalid reports, a guarded metric that
#      vanished from the newest report, or (--live) a freshly generated
#      report missing guarded metrics. These mean the comparison itself is
#      broken and must ALWAYS fail the build — a crash may not hide behind
#      the non-blocking path.
#
# Usage: bench_guard.sh [--live FILE]
#   --live FILE  additionally require every guarded metric of the newest
#                checked-in report to be present in FILE (a freshly emitted
#                `reproduce bench --quick` report; values are ignored since
#                quick sizes are not comparable to baselines).
set -uo pipefail
cd "$(dirname "$0")/.."

live=""
while (( $# > 0 )); do
    case "$1" in
        --live)
            live="${2:?--live needs a file}"
            shift 2
            ;;
        *)
            echo "bench_guard: unknown argument $1" >&2
            exit 2
            ;;
    esac
done

if [[ -n "$live" && ! -r "$live" ]]; then
    echo "bench_guard: HARNESS FAILURE: live report $live is missing or unreadable" >&2
    exit 2
fi

# newest two by PR number (BENCH_PR<N>.json sorts numerically via -V)
mapfile -t reports < <(ls BENCH_*.json 2>/dev/null | sort -V)
if (( ${#reports[@]} < 2 )); then
    echo "bench_guard: fewer than two BENCH_*.json reports, nothing to compare"
    exit 0
fi
prev="${reports[-2]}"
curr="${reports[-1]}"
echo "bench_guard: $prev -> $curr (threshold: 15%;" \
     "higher-is-better: node_rate_*/halo*/threaded*/cluster_sim/scale_*/sched_jobs_*;" \
     "lower-is-better: detect_*/recovery_*/sched_makespan_*/chaos_*)"

python3 - "$prev" "$curr" "$live" <<'EOF'
import json, sys

prev_path, curr_path, live_path = sys.argv[1], sys.argv[2], sys.argv[3]

def load_entries(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        entries = doc["entries"]
        if not isinstance(entries, dict) or not entries:
            raise ValueError("empty or malformed entries block")
        return entries
    except Exception as e:  # unreadable, invalid JSON, wrong shape
        print(f"bench_guard: HARNESS FAILURE: cannot load {path}: {e}",
              file=sys.stderr)
        sys.exit(2)

prev = load_entries(prev_path)
curr = load_entries(curr_path)

HIGHER_IS_BETTER = ("node_rate_", "halo2_pack", "halo2_roundtrip", "halo3_pack",
                    "halo3_roundtrip", "threaded2_", "threaded3_",
                    "cluster_sim_events", "scale_events_per_s_",
                    "sched_jobs_per_s")
# simulated-latency metrics: deterministic, so ANY worsening is a real model
# change, but the same 15% bar keeps the two classes comparable
LOWER_IS_BETTER = ("detect_latency_", "recovery_cost_", "recovery_opt_interval",
                   "sched_makespan_", "chaos_recovery_latency_",
                   "chaos_migration_cost")
THRESHOLD = 0.15
# Guarded names the suite stopped emitting on purpose (PR 23 removed the
# runners' overlap knob, and with it the two ablation rows). Older reports
# still carry them; they are neither "vanished" nor required of a live report.
RETIRED = ("threaded2_lb_2x2_nooverlap", "threaded3_lb_2x2x1_overlap")

def guarded(name):
    if name in RETIRED:
        return None
    if name.startswith(HIGHER_IS_BETTER):
        return 1.0   # regression = value went down
    if name.startswith(LOWER_IS_BETTER):
        return -1.0  # regression = value went up
    return None

# A guarded metric that existed in the previous report but vanished from the
# newest one means the suite silently stopped measuring it — that is a
# harness failure, not a skip.
vanished = [n for n in sorted(prev)
            if guarded(n) is not None and n not in curr]
if vanished:
    print("bench_guard: HARNESS FAILURE: guarded metric(s) missing from "
          f"{curr_path}: " + ", ".join(vanished), file=sys.stderr)
    sys.exit(2)

# --live: the freshly generated report must cover every guarded metric of
# the newest baseline, proving the current binary still measures them all.
if live_path:
    live = load_entries(live_path)
    missing = [n for n in sorted(curr)
               if guarded(n) is not None and n not in live]
    if missing:
        print("bench_guard: HARNESS FAILURE: live report missing guarded "
              "metric(s): " + ", ".join(missing), file=sys.stderr)
        sys.exit(2)
    print(f"  live coverage ok: all guarded metrics present in {live_path}")

failures = []
for name in sorted(curr):
    sign = guarded(name)
    if sign is None:
        continue
    if name not in prev:
        print(f"  {name:<24} new metric, skipped")
        continue
    old, new = prev[name]["value"], curr[name]["value"]
    if old <= 0:
        continue
    delta = (new - old) / old
    regressed = sign * delta < -THRESHOLD
    marker = "REGRESSION" if regressed else "ok"
    print(f"  {name:<24} {old:12.3e} -> {new:12.3e}  {delta:+7.1%}  {marker}")
    if regressed:
        failures.append(name)

if failures:
    print(f"bench_guard: {len(failures)} metric(s) regressed more than {THRESHOLD:.0%}: "
          + ", ".join(failures))
    sys.exit(1)
print("bench_guard: no guarded metric regressed")
EOF
