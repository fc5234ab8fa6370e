#!/usr/bin/env python3
"""Mutation sweep over one module: does a chosen test subset notice each small change?

Usage: scripts/mutants.py MODULE [--rev REV] [--timeout SECONDS] [TEST ...]

MODULE is a path such as src/evf/config.py. The mutants are made with
``ast``, one per site:
  <   -> <=  and  <= -> <
  +   -> -   and  -  -> +
  *   -> /   and  /  -> *
  an integer constant n -> n + 1 (bools are not integers here)
(augmented assignments such as += included).
Each mutant is the whole module unparsed from its mutated tree. The tests
run in a `git archive REV` copy (REV defaults to HEAD), as same_bytes.sh
does, with `python -m pytest -x -q -rfE TEST...` (TEST defaults to tests/),
one BLAS thread and no bytecode written, so no stale .pyc can stand in for
a mutant. The unmutated module, unparsed the same way, must pass first.

Prints one line per mutant, "killed" with the first failing test,
"survived" or "timed out", then the counts. Exits 0 when every mutant was
killed, 1 when any survived or timed out and 2 on a usage or setup error.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.Module) -> list[tuple[int, str, object]]:
    """(line, description, (node, op index)) per mutation site, in source order; see mutate."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    found.append((node, i, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            found.append((node, None, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None, f"{node.value} -> {node.value + 1}"))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[2]))
    return [(node.lineno, what, (node, index)) for node, index, what in found]


def mutate(node: ast.AST, index: int | None) -> None:
    if isinstance(node, ast.Compare):
        node.ops[index] = _SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPS[type(node.op)]()


def run_tests(tree_dir: Path, tests: list[str], timeout: float) -> tuple[str, str]:
    """("passed" | "failed" | "timed out", first failing test)."""
    env = {**os.environ, "PYTHONPATH": str(tree_dir / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=tree_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timed out", ""
    if proc.returncode == 0:
        return "passed", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return "failed", failed.group(1) if failed else f"exit {proc.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to the repository root")
    parser.add_argument("tests", nargs="*", default=["tests"], help="pytest arguments (default: tests)")
    parser.add_argument("--rev", default="HEAD", help="revision to copy with git archive (default: HEAD)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run (default: 300)")
    args = parser.parse_intermixed_args()  # options may follow MODULE, as the usage line shows

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                               check=True).stdout.strip())
    with tempfile.TemporaryDirectory() as work:
        tree_dir = Path(work)
        archive = subprocess.run(["git", "-C", str(repo), "archive", args.rev], capture_output=True, check=False)
        if archive.returncode != 0:
            print(f"cannot archive {args.rev}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(tree_dir)], input=archive.stdout, check=True)
        target = tree_dir / args.module
        if not target.is_file():
            print(f"{args.module} is not a file in {args.rev}", file=sys.stderr)
            return 2
        source = target.read_text(encoding="utf-8")
        found = sites(ast.parse(source))

        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        status, failed = run_tests(tree_dir, args.tests, args.timeout)
        if status != "passed":
            print(f"the unmutated module does not pass: {status} {failed}", file=sys.stderr)
            return 2

        counts = {"killed": 0, "survived": 0, "timed out": 0}
        for k, (line, what, _) in enumerate(found):
            tree = ast.parse(source)
            mutate(*sites(tree)[k][2])
            target.write_text(ast.unparse(tree), encoding="utf-8")
            status, failed = run_tests(tree_dir, args.tests, args.timeout)
            outcome = {"failed": "killed", "passed": "survived"}.get(status, status)
            counts[outcome] += 1
            print(f"{outcome:9s} {args.module}:{line}  {what:12s} {failed}", flush=True)
        print(", ".join(f"{n} {outcome}" for outcome, n in counts.items()) + f" of {len(found)} mutants")
    return 0 if counts["killed"] == len(found) else 1


if __name__ == "__main__":
    sys.exit(main())
