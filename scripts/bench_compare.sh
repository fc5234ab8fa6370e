#!/usr/bin/env bash
# Compare the benchmark of the working tree with a git revision over
# alternating pairs of runs.
#
# Usage: scripts/bench_compare.sh REV PAIRS [WORKLOAD...]
#
# Unpacks `git archive REV` into a temporary directory, as same_bytes.sh
# does. Pair i (counted from 0) runs
#   python3 evfbench/run.py --workload W --seed 1000+i --seconds N --trace 0
# once in that tree and once in the working tree, with the same seed on both
# sides; even pairs run the revision first, odd pairs the working tree first.
# N is the `run_seconds` of the working tree's BENCHMARK.json; the workloads
# default to all four.
#
# For each workload and each end-to-end metric in the working tree's
# BENCHMARK.json it prints both medians, both min-max ranges, the
# revision's quartiles and the number of pairs the change won. A change
# median inside the revision's own range reads "unresolved". Beside that
# range verdict, the claim column applies the pairing rule for claiming a
# gain: "met" when the change wins at least 9/10 of the PAIRS (ties count
# for neither side, and a pair with a failed run is not won) and its median
# is better than the revision's by more than the revision's q1-q3 spread,
# "not met" otherwise. Exits 0 when every run passed its checks, 1 when any
# failed and 2 on a usage error.
set -euo pipefail

if [ $# -lt 2 ] || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 REV PAIRS [WORKLOAD...]" >&2
    exit 2
fi
rev=$1
pairs=$2
shift 2
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(train_s2 train_s32 grad_check route_allocate_n4096)
repo=$(git rev-parse --show-toplevel)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/runs"
git -C "$repo" archive "$rev" | tar -x -C "$work/base" || { echo "cannot unpack $rev" >&2; exit 2; }

run() {  # run SIDE TREE WORKLOAD PAIR: keeps the run's final JSON line
    local out="$work/runs/$3.$4.$1.json"
    if (cd "$2" && python3 evfbench/run.py --workload "$3" --seed $((1000 + $4)) --seconds "$seconds" --trace 0) \
        >"$work/stdout" 2>"$work/stderr"; then
        tail -n 1 "$work/stdout" >"$out"
    else
        echo "run failed: $1 $3 pair $4" >&2
        tail -n 5 "$work/stderr" >&2
    fi
}

for ((i = 0; i < pairs; i++)); do
    for w in "${workloads[@]}"; do
        if ((i % 2 == 0)); then
            run parent "$work/base" "$w" "$i"
            run change "$repo" "$w" "$i"
        else
            run change "$repo" "$w" "$i"
            run parent "$work/base" "$w" "$i"
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$work/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

spec, runs, pairs, workloads = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
metrics = json.loads(Path(spec).read_text())["end_to_end"]
failed = 0


def load(workload, pair, side):
    global failed
    path = runs / f"{workload}.{pair}.{side}.json"
    result = json.loads(path.read_text()) if path.is_file() else None
    if not (result and result["correct"] and result["failed"] == 0):
        failed += 1
        print(f"FAILED   {workload} pair {pair} {side}")
        return None
    return result["metrics"]


print(f"{'workload':22s} {'metric':14s} {'parent median':>14s} {'change median':>14s} "
      f"{'parent min-max':>22s} {'change min-max':>22s} {'parent q1-q3':>22s} {'won':>6s}  {'verdict':10s}  claim")
for workload in workloads:
    both = [(load(workload, i, "parent"), load(workload, i, "change")) for i in range(pairs)]
    both = [(p, c) for p, c in both if p is not None and c is not None]
    if not both:
        continue
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p[name]["value"] for p, _ in both]
        change = [c[name]["value"] for _, c in both]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (pm, pm, pm)
        if min(parent) <= cm <= max(parent):
            verdict = "unresolved"
        else:
            verdict = "better" if (cm > pm) == higher else "worse"
        gain = cm - pm if higher else pm - cm
        claim = "met" if 10 * won >= 9 * pairs and gain > q3 - q1 else "not met"
        print(f"{workload:22s} {name:14s} {pm:14.6g} {cm:14.6g} "
              f"{min(parent):10.4g}-{max(parent):<11.4g} {min(change):10.4g}-{max(change):<11.4g} "
              f"{q1:10.4g}-{q3:<11.4g} "
              f"{won:>3d}/{len(both):<2d}  {verdict:10s}  {claim}")
sys.exit(1 if failed else 0)
EOF
