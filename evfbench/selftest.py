"""Self-test of the benchmark: two traced runs of one seed must count alike.

    python3 evfbench/selftest.py

Runs ``run.py --trace 1`` twice per workload in separate processes and
requires both runs to pass their own checks (which include the spans
covering the traced wall time) and every call count and count metric to be
equal bit for bit. Exits 1 on any difference.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 3
SECONDS = 2
EXACT = ("tensor.graph_nodes", "tensor.op_calls", "router.route_calls", "allocator.plans", "seeds.generators")


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    record = HERE.parent / ".evfbench_work" / "results" / f"{workload}-seed{SEED}-trace1.json"
    return json.loads(record.read_text())


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        a, b = (traced(workload) for _ in range(2))
        problems = [f"run {i}: {f}" for i, r in enumerate((a, b)) for f in r["failures"]]
        if a["trace"]["counts"] != b["trace"]["counts"]:
            problems.append("call counts differ")
        for name in EXACT:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                problems.append(f"{name}: {a['metrics'][name]['value']} != {b['metrics'][name]['value']}")
        counts = ", ".join(f"{n}={a['metrics'][n]['value']:g}" for n in EXACT)
        print(f"{workload:22s} {'ok' if not problems else 'FAILED'}  {counts}")
        for p in problems:
            print(f"  {p}")
        status = status or (1 if problems else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
