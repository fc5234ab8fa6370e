#!/usr/bin/env bash
# Run the benchmark once over every workload and keep the result in the repo.
#
# Usage: scripts/bench_snapshot.sh LABEL
#
# Runs `python3 evfbench/run.py --workload all --seed 1 --seconds 25 --trace 0`
# from the root of this checkout, then merges the four per-workload records
# it leaves in .evfbench_work/results/ (checks, metrics and environment stamp)
# into BENCH_<LABEL>.json at the root. Exits non-zero, writing nothing, when
# the benchmark fails or a record is missing.
set -euo pipefail

if [ $# -ne 1 ] || [ -z "$1" ]; then
    echo "usage: $0 LABEL" >&2
    exit 2
fi
label=$1
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

workloads="train_s2 train_s32 grad_check route_allocate_n4096"
for w in $workloads; do  # no record from an earlier run may stand in for this one
    rm -f ".evfbench_work/results/$w-seed1-trace0.json"
done
python3 evfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

python3 - "BENCH_$label.json" $workloads <<'EOF'
import json
import sys

out, workloads = sys.argv[1], sys.argv[2:]
snapshot = {}
for name in workloads:
    with open(f".evfbench_work/results/{name}-seed1-trace0.json", encoding="utf-8") as fh:
        record = json.load(fh)
    snapshot[name] = {key: record[key] for key in ("correct", "attempted", "failed", "metrics", "env")}
with open(out, "w", encoding="utf-8") as fh:
    fh.write(json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
print(f"wrote {out}")
EOF
