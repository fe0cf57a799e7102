#!/usr/bin/env bash
# Alternating parent/change pairs of benchmark workloads — the protocol
# every perf PR here follows (choosing-metrics §8): same benchmark settings
# on both sides, which side runs first alternates, and a gain counts only
# if the change wins at least nine tenths of the pairs and the medians
# differ by more than the parent's own inter-quartile spread.
#
#   scripts/ab_pairs.sh <parent-ref> <workloads> [pairs=10] [first-seed=1]
#
# <workloads> is `all` (every workload in BENCHMARK.json, in its order) or a
# comma-separated list; an entry may carry its own pair count, `name:pairs`.
# The parent's tree is exported (`git archive`, so .git stays untouched)
# under target/ab/, each side is built once into its own CARGO_TARGET_DIR,
# and each run is `benchmark/run.sh --workload W --seed S --seconds 10
# --trace 0` of that side's own benchmark/ with its output directory under
# target/ab/ too. Building the change side rewrites its stale
# benchmark/Cargo.lock, so the script copies the lock aside first and
# restores it byte for byte on exit: benchmark/ is left as found. Pair i
# uses seed first-seed + i on both sides. Every run's result line is kept in
# target/ab/runs/<workload>/, and one verdict table is printed per workload.
# Exits 1 after the tables if any run was not correct, any operation
# failed, or any metric reads WORSE or WORSE than bound.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $# < 2 )); then
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_ref=$1
pairs=${3:-10}
first_seed=${4:-1}
if [[ $2 == all ]]; then
    workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$2
fi

root=$PWD
ab=$root/target/ab
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" "$root/benchmark/Cargo.lock"; rm -f "$lock_copy"' EXIT
parent_src=$ab/parent-src
rm -rf "$parent_src"
mkdir -p "$parent_src"
git archive "$(git rev-parse --verify "$parent_ref^{commit}")" | tar -x -C "$parent_src"

# side -> source tree; both build up front so a broken side fails before
# any timing starts
src_of() { if [[ $1 == parent ]]; then echo "$parent_src"; else echo "$root"; fi; }
for side in parent change; do
    echo "==> building $side"
    (cd "$(src_of "$side")/benchmark" &&
        CARGO_TARGET_DIR=$ab/$side-target cargo build --release --offline --quiet)
done

run_side() { # side workload pair-index seed
    CARGO_TARGET_DIR=$ab/$1-target bash "$(src_of "$1")/benchmark/run.sh" \
        --workload "$2" --seed "$4" --seconds 10 --trace 0 --out "$ab/$1-out" |
        tail -n 1 >"$ab/runs/$2/$1-$3.json"
}

IFS=, read -r -a entries <<<"$workloads"
measured=() # workload:pairs, in run order
for entry in "${entries[@]}"; do
    workload=${entry%%:*}
    n=$pairs
    [[ $entry == *:* ]] && n=${entry#*:}
    rm -rf "$ab/runs/$workload"
    mkdir -p "$ab/runs/$workload"
    for ((i = 0; i < n; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "==> $workload: pair $((i + 1))/$n, seed $seed, ${order[0]} first"
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "$i" "$seed"
        done
    done
    measured+=("$workload:$n")
done

python3 - "$root/BENCHMARK.json" "$ab/runs" "$parent_ref" "${measured[@]}" <<'EOF'
import json, statistics, sys

spec_path, runs, parent_ref = sys.argv[1:4]
spec = json.load(open(spec_path))
done = [arg.split(":") for arg in sys.argv[4:]]
failures = []  # why this script exits 1, one line each

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for workload, pairs in done:
    pairs = int(pairs)
    load = lambda side, i: json.load(open(f"{runs}/{workload}/{side}-{i}.json"))
    parent = [load("parent", i) for i in range(pairs)]
    change = [load("change", i) for i in range(pairs)]
    print(f"\n{workload}: {pairs} alternating pairs, parent = {parent_ref}")
    for side, rs in (("parent", parent), ("change", change)):
        bad = [i for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
        ops = sum(r["attempted"] for r in rs)
        print(f"  {side}: {ops} operations, {sum(r['failed'] for r in rs)} failed"
              + (f", NOT correct/clean in pairs {bad}" if bad else ", every run correct"))
        if bad:
            failures.append(f"{workload}: {side} runs not correct/clean in pairs {bad}")
    print(f"  {'metric':<16} {'parent median [q1, q3]':<38} {'change median [q1, q3]':<38}"
          f" {'change/parent':>13} {'wins':>7}  verdict")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        losses = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        better = (cm - pm) if higher else (pm - cm)
        if wins >= 0.9 * pairs and better > (p3 - p1):
            verdict = "improved"
        elif losses >= 0.9 * pairs and -better > (p3 - p1):
            verdict = "WORSE"
        elif pm and (p3 - p1) / abs(pm) > m["bound"]:
            verdict = "unresolved (parent spread > bound)"
        elif pm and -better / abs(pm) > m["bound"]:
            verdict = "WORSE than bound"
        else:
            verdict = "no regression"
        if verdict.startswith("WORSE"):
            failures.append(f"{workload}: {name} {verdict}")
        ratio = f"{cm / pm:.3f}x" if pm else "-"
        print(f"  {name:<16} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<38}"
              f" {f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<38} {ratio:>13} {wins:>3}/{pairs:<3}  {verdict}")
    print("  every run:")
    for i in range(pairs):
        row = "  ".join(
            f"{m['name']} {parent[i]['metrics'][m['name']]['value']:.5g}->{change[i]['metrics'][m['name']]['value']:.5g}"
            for m in spec["end_to_end"])
        print(f"    pair {i + 1}: {row}")

if failures:
    print("\nFAILED:")
    for line in failures:
        print(f"  {line}")
    sys.exit(1)
EOF
