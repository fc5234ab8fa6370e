"""Benchmark of the evf package: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (evf is imported from ./src):

    python3 evfbench/run.py --workload train_s2 --seed 1 --seconds 25 --trace 0
    python3 evfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped. ``--trace
1`` spends half the time untraced and half with every public evf function
wrapped, and reports the per-layer metrics plus the tracing overhead. Each
workload runs in its own process; ``all`` runs them one after another in
child processes. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy with the
environment stamp goes to ``.evfbench_work/results/``; traced runs also keep
their spans in ``.evfbench_work/spans/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".evfbench_work"
WORKLOADS = ("train_s2", "train_s32", "grad_check", "route_allocate_n4096")
# Set-ups run before the timed section (the first is cold) ...
SETUP_FIRST = 4
# ... and spread evenly between its units, off the clock: the machine's speed
# drifts over seconds, and this way setup_s samples the same stretch of time
# that the other metrics average over.
SETUP_SPREAD = 16
# One BLAS thread, whatever the environment says. With two threads on a
# shared 2-core machine, every larger matmul waits for the busier core: the
# train_s32 step was 12% slower and its p90 spread across runs 23% against 9%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The traced section may leave at most this share of its wall time outside
# every span: benchmark glue between calls plus the wrappers' own entry/exit.
UNSPANNED_LIMIT = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def fail(message: str) -> None:
    print(f"evfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import evf from this checkout's src/ and nowhere else."""
    if not (ROOT / "src" / "evf" / "__init__.py").is_file():
        fail(f"no evf sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy
    import evf

    if Path(evf.__file__).resolve().parent != ROOT / "src" / "evf":
        fail(f"imported evf from {evf.__file__}, not from this checkout")
    return numpy


def fresh_import_s() -> float:
    """Seconds to import evf into an empty module table.

    The fresh modules are thrown away afterwards, so the benchmark keeps
    driving (and the tracer keeps wrapping) the modules it imported first.
    """
    def evf_modules() -> list[str]:
        return [name for name in sys.modules if name == "evf" or name.startswith("evf.")]

    kept = {name: sys.modules.pop(name) for name in evf_modules()}
    start = time.perf_counter()
    importlib.import_module("evf")
    elapsed = time.perf_counter() - start
    for name in evf_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


def metric_specs(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics a run reports, as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"no {path.name} at {ROOT}")
    doc = json.loads(path.read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def timed_setup(workload) -> float:
    """Seconds of one set-up: a fresh import of evf plus workload.setup()."""
    import_evf_s = fresh_import_s()
    start = time.perf_counter()
    workload.setup()
    return import_evf_s + time.perf_counter() - start


# -- environment stamp ---------------------------------------------------------


def blas_info(np) -> tuple[str, int | None]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    import ctypes

    symbols = (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads",
    )
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "evf").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_stamp(np, args) -> dict:
    blas, threads = blas_info(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement -----------------------------------------------------------------


class Tally:
    """What one timed section did: ops, wall time, latencies and failures."""

    def __init__(self) -> None:
        self.wall_ns = 0
        self.ops = 0
        self.failed = 0
        self.units = 0
        self.latencies_ns: list[int] = []
        self.failures: list[str] = []

    def add(self, other: "Tally") -> None:
        self.wall_ns += other.wall_ns
        self.ops += other.ops
        self.failed += other.failed
        self.units += other.units
        self.latencies_ns += other.latencies_ns
        self.failures += other.failures

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall_ns / 1e9)


def run_unit(workload, state, tracer=None) -> tuple[int, list[str]]:
    """Time one unit, then check it untimed; returns (wall ns, failures)."""
    error = None
    if tracer is not None:
        tracer.on = True
    start = time.perf_counter_ns()
    try:
        workload.unit(state)
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        error = f"unit {state.index}: {type(exc).__name__}: {exc}"
    wall = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.on = False
    if error is not None:
        return wall, [error]
    try:
        return wall, workload.check(state)
    except Exception as exc:  # a check that cannot read its inputs is a failed check
        return wall, [f"unit {state.index}: check raised {type(exc).__name__}: {exc}"]


def measure(workload, seconds: float, first_index: int, tracer=None, setups=None) -> Tally:
    """Timed units for ``seconds``; with a ``setups`` list, SETUP_SPREAD set-ups between them."""
    tally = Tally()
    index = first_index
    budget_ns = seconds * 1e9
    while tally.wall_ns < budget_ns:
        state = workload.prepare(index)
        wall, failures = run_unit(workload, state, tracer)
        ops = state.ops or workload.ops_per_unit
        tally.wall_ns += wall
        tally.ops += ops
        tally.units += 1
        tally.latencies_ns += state.latencies_ns
        if failures:
            tally.failed += ops
            tally.failures += failures
        index += 1
        while setups is not None and len(setups) < SETUP_FIRST + SETUP_SPREAD * min(tally.wall_ns / budget_ns, 1.0):
            setups.append(timed_setup(workload))
    return tally


def end_to_end(np, workload, tally: Tally, setup_s: float) -> dict:
    lat_ms = np.asarray(tally.latencies_ns, dtype=np.float64) / 1e6
    return {
        "setup_s": setup_s,
        "ops_per_s": tally.ops_per_s,
        "tokens_per_s": tally.ops_per_s * workload.tokens_per_op,
        "op_ms_p50": float(np.median(lat_ms)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, seconds: int, metrics_mod, tracer_mod) -> tuple[dict, Tally, dict]:
    """Untraced half, one traced count pass, then the traced half."""
    tally = measure(workload, seconds / 2, 0)
    untraced_ops_per_s = tally.ops_per_s
    info: dict = {}
    with tracer_mod.Tracer() as tracer:
        state = workload.prepare(0)
        mark = tracer.mark()
        _, failures = run_unit(workload, state, tracer)
        tally.failures += failures
        count_section, count_ops = tracer.section(mark, tracer.mark()), state.ops
        alloc = tracer.alloc_totals.copy()

        instances_before = (getattr(workload, "instances", 0), getattr(workload, "unstable", 0))
        mark = tracer.mark()
        timed = measure(workload, seconds / 2, tally.units, tracer)
        timed_section = tracer.section(mark, tracer.mark())
        instances = (
            getattr(workload, "instances", 0) - instances_before[0],
            getattr(workload, "unstable", 0) - instances_before[1],
        )
        tally.add(timed)

        # The spans, and so their self times, cover the traced unit time.
        unspanned = timed.wall_ns - timed_section.root_ns
        if not 0 <= unspanned <= UNSPANNED_LIMIT * timed.wall_ns:
            tally.failures.append(f"{unspanned} ns of {timed.wall_ns} ns traced wall time outside every span")

        op_labels = sorted(n[len("tensor."):] for n in tracer.op_names)
        values = metrics_mod.per_layer_values(
            count_section, timed_section, count_ops, timed.ops, op_labels, alloc, instances
        )
        values["trace.untraced_ops_per_s"] = untraced_ops_per_s
        values["trace.traced_ops_per_s"] = timed.ops_per_s
        values["trace.overhead_ratio"] = untraced_ops_per_s / timed.ops_per_s - 1.0
        values["trace.spans_per_op"] = count_section.span_count / count_ops
        values["trace.absent"] = float(len(tracer.absent))
        info = {
            "absent": tracer.absent,
            "counts": count_section.counts_by_name(),
            "count_ops": count_ops,
            "traced_ops": timed.ops,
            "unspanned_ns": unspanned,
            "traced_wall_ns": timed.wall_ns,
        }
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "spans" / f"{workload.name}.npz")
    return values, tally, info


def run_one(args) -> int:
    np = import_program()
    import metrics as metrics_mod
    import tracer as tracer_mod
    import workloads as workloads_mod

    specs = metric_specs(args.trace)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads_mod.make(args.workload, args.seed, scratch)
        setups = [timed_setup(workload) for _ in range(SETUP_FIRST)]
        first_op_s = time.perf_counter() - _PROCESS_T0

        info: dict = {}
        if args.trace:
            values, tally, info = traced_run(workload, args.seconds, metrics_mod, tracer_mod)
        else:
            tally = measure(workload, args.seconds, 0, setups=setups)
            values = end_to_end(np, workload, tally, statistics.median(setups))
        tally.failures += workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = tally.failed
    if tally.failures and failed == 0:
        failed = 1  # a failed whole-run check (determinism, span coverage)
    attempted = max(tally.ops, 1)
    failed_ratio = failed / attempted
    missing = [name for name, _ in specs if name not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    for message in tally.failures[:20]:
        print(f"FAILED {message}")
    for name, unit in specs:
        print(f"{args.workload:22s} {name:34s} {values[name]:14.6g} {unit}")
    print(f"{args.workload:22s} {'failed_ratio':34s} {failed_ratio:14.6g} ratio ({failed}/{attempted} ops)")
    print(f"{args.workload:22s} {'latency_samples':34s} {len(tally.latencies_ns):14d} count")
    env = env_stamp(np, args)
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {
        **result,
        "env": env,
        "failed_ratio": failed_ratio,
        "process_start_to_first_op_s": first_op_s,
        "setups_s": setups,
        "latency_samples": len(tally.latencies_ns),
        "units": tally.units,
        "failures": tally.failures[:100],
        "trace": info,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = bool(result and result["correct"] and result["failed"] == 0)
        print(f"{name:22s} {'checks':34s} {'ok' if ok else 'FAILED':>14s}")
        status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
