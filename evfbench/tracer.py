"""Span recorder that wraps evf's public functions from outside the package.

Wrapping is done in every evf module namespace that holds the function, so
callers that bound it by ``from .x import f`` (``evf.layer`` binds ``route``,
``allocate`` and ``redistribute``; ``evf.model`` binds ``forward_multimodal``
and ``ffn_forward``) see the wrapper too. Methods are wrapped on their class.
A target that no longer exists is listed in ``absent`` and skipped.

Spans stay in memory as flat tuples ``(name_id, start_ns, end_ns, parent,
flag)``; ``flag`` is 1 when a tensor op returned a tensor that requires
grad, i.e. a graph node. The recorder only records while ``on`` is set, so
the benchmark's own checks between timed units leave no spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path

import numpy as np

# Public functions of evf.tensor that are not ops: they build no tensor.
TENSOR_NON_OPS = {"backward", "zero_grads"}

# (module, attribute path) of every traced callable besides the tensor ops.
TARGETS = (
    ("evf.tensor", "backward"),
    ("evf.router", "route"),
    ("evf.allocator", "priority_scores"),
    ("evf.allocator", "allocate"),
    ("evf.allocator", "redistribute"),
    ("evf.allocator", "allocation_stats"),
    ("evf.layer", "forward_multimodal"),
    ("evf.layer", "ffn_forward"),
    ("evf.layer", "forward_language_only"),
    ("evf.model", "forward"),
    ("evf.model", "compute_loss"),
    ("evf.model", "train"),
    ("evf.model", "SyntheticTask.sample_batch"),
    ("evf.training", "aux_loss"),
    ("evf.training", "AdamW.step"),
    ("evf.training", "grad_check"),
    ("evf.seeds", "RngKey.generator"),
    ("evf.checkpoint", "save_model"),
)

# Tensor ops the per-layer metrics name; any other public op is still traced.
NAMED_TENSOR_OPS = (
    "matmul", "softmax_rows", "add_constant", "gelu", "layer_norm",
    "take_rows", "scatter_rows", "slice_cols", "concat_cols", "concat_rows",
)


def tensor_ops(tensor_module) -> list[str]:
    """Public functions defined in evf.tensor that build tensors."""
    return sorted(
        name
        for name, obj in vars(tensor_module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == tensor_module.__name__
        and not name.startswith("_")
        and name not in TENSOR_NON_OPS
    )


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.absent: list[str] = []
        self.op_names: set[str] = set()
        self.alloc_totals = np.zeros(4, dtype=np.int64)  # tokens, accepted, moved, dropped
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import evf.tensor

        for op in tensor_ops(evf.tensor):
            self.op_names.add(f"tensor.{op}")
            self._install("evf.tensor", op)
        for module, attr in TARGETS:
            self._install(module, attr)
        for op in NAMED_TENSOR_OPS:
            if f"tensor.{op}" not in self.op_names:
                self.absent.append(f"evf.tensor.{op}")
        return self

    def __exit__(self, *exc) -> None:
        self.on = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, module_name: str, attr_path: str) -> None:
        module = sys.modules.get(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr_path}")
            return
        label = f"{module_name.split('.')[-1]}.{attr}"
        wrapper = self._wrap(original, label)
        if owner_name:
            self._set(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name == "evf" or name.startswith("evf."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_op = label in self.op_names
        is_stats = label == "allocator.allocation_stats"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, 0)
            if is_op and getattr(out, "requires_grad", False):
                spans[index] = (name_id, start, end, parent, 1)
            elif is_stats:
                tracer.alloc_totals += (
                    out.n_tokens, sum(out.loads), out.redistributed, out.dropped
                )
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans[a:b] between two marks form a section."""
        return len(self.spans)

    def section(self, start: int, stop: int) -> "Section":
        return Section(self.names, self.spans[start:stop], start)

    def dump(self, path: Path) -> None:
        arr = np.asarray(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(path, spans=arr, names=np.asarray(self.names))


class Section:
    """Per-name call counts, inclusive and self times over a slice of spans."""

    def __init__(self, names: list[str], spans: list[tuple], offset: int):
        arr = np.asarray(spans, dtype=np.int64).reshape(-1, 5)
        self.names = names
        ids, dur = arr[:, 0], arr[:, 2] - arr[:, 1]
        parent = arr[:, 3] - offset
        inside = parent >= 0
        child_time = np.bincount(parent[inside], weights=dur[inside], minlength=len(arr))
        self_ns = dur - child_time
        k = len(names)
        self.calls = np.bincount(ids, minlength=k).astype(np.int64)
        self.nodes = np.bincount(ids, weights=arr[:, 4], minlength=k).astype(np.int64)
        self.total_ns = np.bincount(ids, weights=dur, minlength=k)
        self.self_ns = np.bincount(ids, weights=self_ns, minlength=k)
        self.root_ns = float(dur[~inside].sum())
        self.span_count = len(arr)

    def _ids(self, labels) -> list[int]:
        return [i for i, n in enumerate(self.names) if n in labels]

    def count(self, *labels: str) -> int:
        return int(self.calls[self._ids(labels)].sum())

    def node_count(self, *labels: str) -> int:
        return int(self.nodes[self._ids(labels)].sum())

    def total_ms(self, *labels: str) -> float:
        return float(self.total_ns[self._ids(labels)].sum()) / 1e6

    def self_ms(self, *labels: str) -> float:
        return float(self.self_ns[self._ids(labels)].sum()) / 1e6

    def counts_by_name(self) -> dict[str, int]:
        out = {n: int(c) for n, c in zip(self.names, self.calls) if c}
        out["graph_nodes"] = int(self.nodes.sum())
        return out
