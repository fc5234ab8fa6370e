#!/usr/bin/env bash
# Run the benchmark once over every workload, and the tier-1 tests once, and
# keep the result in the repo.
#
# Usage: scripts/bench_snapshot.sh LABEL
#
# Runs `python3 evfbench/run.py --workload all --seed 1 --seconds 25 --trace 0`
# from the root of this checkout, then the default stage-3 `train` (500 steps)
# at 8, 2 and 32 sequences a batch, each in its own process with one BLAS
# thread, then, in a separate process so that those step times stay untraced,
# a 20-step default stage-3 `train` at 2, 8 and 32 sequences under
# `tracemalloc`, then the tier-1 suite with `--durations=0`. Merges the four
# per-workload records the benchmark leaves in .evfbench_work/results/
# (checks, metrics and environment stamp), a "train_s8" entry (median step
# time in ms, from one clock stamp per batch drawn, and the step count), a
# "train_minflt_per_step" entry (the minor page faults of each untraced
# train, from getrusage at its first batch and at its last, per step), a
# "train_traced_peak_mb"
# entry (the traced peak of each of those trains in MiB, counted from after
# the model and task are built: the part of the benchmark's peak_rss_mb that
# the training loop controls) and a "tier1" entry (tests passed, suite wall
# time, and the seconds of the A5 and A8 acceptance tests, setup and teardown
# included) into BENCH_<LABEL>.json at the root. Exits non-zero, writing
# nothing, when the benchmark, a train run or a test fails or a record is
# missing.
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

untraced_train() {  # untraced_train SEQUENCES: one JSON line with the step time and faults per step
    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python3 - "$1" <<'EOF'
import json
import resource
import statistics
import sys
import time

from evf.model import ModelConfig, SyntheticTask, TrainConfig, build_model, train

stamps, faults = [], []


class ClockedTask(SyntheticTask):
    """train() draws one batch per step and one for its final evaluation,
    so consecutive stamps bound each step."""

    def sample_batch(self, *args, **kwargs):
        stamps.append(time.perf_counter_ns())
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return super().sample_batch(*args, **kwargs)


cfg = ModelConfig(batch_sequences=int(sys.argv[1]))
tcfg = TrainConfig(steps=500)
train(build_model(cfg), ClockedTask(cfg), tcfg)
steps_ms = [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]
if len(steps_ms) != tcfg.steps:
    raise SystemExit(f"train: {len(steps_ms)} step stamps for {tcfg.steps} steps")
print(json.dumps({"step_ms_p50": round(statistics.median(steps_ms), 4), "steps": tcfg.steps,
                  "minflt_per_step": round((faults[-1] - faults[0]) / tcfg.steps, 1)}))
EOF
}
train_s8=$(untraced_train 8)
train_s2=$(untraced_train 2)
train_s32=$(untraced_train 32)

train_traced_peak_mb=$(OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python3 - <<'EOF'
import json
import tracemalloc

from evf.model import ModelConfig, SyntheticTask, TrainConfig, build_model, train

tcfg = TrainConfig(steps=20)
peaks = {}
for sequences in (2, 8, 32):
    cfg = ModelConfig(batch_sequences=sequences)
    model, task = build_model(cfg), SyntheticTask(cfg)
    tracemalloc.start()
    train(model, task, tcfg)
    peaks[f"s{sequences}"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    tracemalloc.stop()
print(json.dumps({**peaks, "steps": tcfg.steps}))
EOF
)

tier1_log=$(mktemp)
trap 'rm -f "$tier1_log"' EXIT
if ! PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors \
        --durations=0 >"$tier1_log" 2>&1; then
    tail -n 20 "$tier1_log" >&2
    echo "tier-1 tests failed" >&2
    exit 1
fi

python3 - "BENCH_$label.json" "$tier1_log" "$train_s2" "$train_s8" "$train_s32" "$train_traced_peak_mb" $workloads <<'EOF'
import json
import re
import sys

out, tier1_log, train_s2, train_s8, train_s32, train_traced_peak_mb = sys.argv[1:7]
workloads = sys.argv[7:]
snapshot = {}
for name in workloads:
    with open(f".evfbench_work/results/{name}-seed1-trace0.json", encoding="utf-8") as fh:
        record = json.load(fh)
    snapshot[name] = {key: record[key] for key in ("correct", "attempted", "failed", "metrics", "env")}

with open(tier1_log, encoding="utf-8") as fh:
    log = fh.read()
passed, wall = re.findall(r"^=*\s*(\d+) passed\b.* in ([\d.]+)s", log, re.M)[-1]
durations = re.findall(r"^([\d.]+)s (?:setup|call|teardown) +(\S+)$", log, re.M)


def seconds(test):
    return round(sum(float(s) for s, node in durations if f"::test_{test}_" in node), 2)


untraced = {"s2": json.loads(train_s2), "s8": json.loads(train_s8), "s32": json.loads(train_s32)}
snapshot["train_s8"] = {key: untraced["s8"][key] for key in ("step_ms_p50", "steps")}
snapshot["train_minflt_per_step"] = {**{s: run["minflt_per_step"] for s, run in untraced.items()},
                                     "steps": untraced["s8"]["steps"]}
snapshot["train_traced_peak_mb"] = json.loads(train_traced_peak_mb)
snapshot["tier1"] = {"passed": int(passed), "wall_s": float(wall), "a5_s": seconds("a5"), "a8_s": seconds("a8")}
with open(out, "w", encoding="utf-8") as fh:
    fh.write(json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
print(f"wrote {out}")
EOF
