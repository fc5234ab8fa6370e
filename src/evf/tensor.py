"""Dense float64 tensors with reverse-mode differentiation.

Deliberately small: row-major numpy storage, explicit shape checks, no
implicit broadcasting. Each differentiable operation records a graph node:
an edge to each input that requires a gradient and one vector-Jacobian
closure per edge; :func:`backward` walks the nodes once in reverse
topological order and returns the gradients of the parameters it is given.
Gradients are returned, never stored, so nothing is zeroed between steps.
The graph holds nodes and the arrays its closures read, never an op's
output for its own sake: one that no closure reads is freed with its tensor.

No op records a node inside ``with _no_graph():``, the graph-free mode for
forwards that nothing differentiates (grad-check probes): its outputs need
no gradient and hold no closure. The mode is one module slot that the
context manager sets for its scope and restores on the way out, an
exception included; it is private so that no caller takes it for an op.

Gradient flow is cut per parameter (``set_trainable(False)``, called only by
:func:`evf.model.apply_stage`): an op reads its inputs' flags when it runs
and records no edge, and keeps no closure, for an input that needs no
gradient. That is how frozen parameters, whose gradient is zeros, are
excluded from the walk; the optimizer refuses them.

Parameter values are immutable: a :class:`Parameter` owns a private,
read-only copy of each value it is given (the optimizer and the gradient
checker hand over arrays they have just computed, or an earlier value, with
no copy), so one array object always holds the same bytes. Ops and their
closures write in place only into arrays they allocated themselves, never
into an input's ``data`` and never into the incoming gradient ``g``: a
closure may return ``g`` itself or a view of it (``add``, ``concat_rows``),
so one array can be the gradient of several nodes, and :func:`backward`
accumulates out of place and returns each gradient read-only. In-place
steps keep the operation order of the plain expression they replace, so
they give the same bits.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

Array = np.ndarray

# Fixed tanh-approximation constants for GELU:
#   gelu(x) = 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


# False inside ``_no_graph()``: ops then record no graph nodes.
_recording = True


@contextlib.contextmanager
def _no_graph():
    """Build no graph nodes in this scope; the mode in force before it comes back on exit."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _as_float64(values) -> Array:
    return np.ascontiguousarray(values, dtype=np.float64)


def _frozen_copy(values, dtype=np.float64) -> Array:
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


class Tensor:
    """A value in the compute graph.

    ``data`` is always float64 and C-contiguous. A tensor built by a library
    operation that needs a gradient holds its graph node in ``_node``: a
    tuple of one (edge, vjp) pair per input that requires a gradient, where
    the edge is that input's own node, or the :class:`Parameter` itself for
    a leaf, and the vjp maps this tensor's gradient onto that input. A node
    never holds a tensor, so an output array lives only as long as its
    tensor or a closure that reads it. Other tensors, leaves included, hold
    None. Leaf construction rejects non-finite values so NaN/Inf cannot
    enter a graph through inputs.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, values):
        data = _as_float64(values)
        if not np.isfinite(data).all():
            raise NumericError("leaf tensor contains non-finite values")
        self.data = data
        self.requires_grad = False
        self._node: tuple | None = None

    @classmethod
    def _from_op(
        cls,
        data: Array,
        parents: tuple["Tensor", ...],
        vjps: tuple[Callable[[Array], Array], ...],
    ) -> "Tensor":
        out = object.__new__(Tensor)
        out.data = data
        if not _recording:
            out.requires_grad, out._node = False, None
            return out
        # An edge, and its closure, only for a parent that requires grad; a parameter is its own edge.
        node = [(p._node or p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad]
        out.requires_grad = bool(node)
        out._node = tuple(node) if node else None
        return out

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class Parameter(Tensor):
    """The only leaf that ever requires a gradient; it holds a value, never a gradient.

    Its one freeze flag is ``requires_grad``; every parameter starts
    trainable, ``trainable`` reads the flag and :meth:`set_trainable` writes
    it. A frozen parameter gets zeros from backward and is refused by the
    optimizer, so its bytes never change during training.
    """

    __slots__ = ()

    def __init__(self, values):
        super().__init__(_frozen_copy(values))
        self.requires_grad = True

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    def set_trainable(self, flag: bool) -> None:
        self.requires_grad = bool(flag)

    def assign(self, values) -> None:
        """Replace the stored value with a read-only copy; shape must be preserved."""
        self._adopt(_frozen_copy(values))

    def _adopt(self, arr: Array) -> None:
        """Store ``arr`` itself, with the checks of :meth:`assign`: a C-contiguous float64 array
        that no one will write, such as one the caller has just computed or an earlier value."""
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign: shapes {arr.shape} and {self.data.shape} differ")
        if not np.isfinite(arr).all():
            raise NumericError("assign: non-finite parameter value")
        arr.setflags(write=False)
        self.data = arr


def _check_2d(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: expected a 2-d tensor, got shape {t.data.shape}")


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return Tensor._from_op(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    _check_same_shape("mul", a, b)
    return Tensor._from_op(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not np.isfinite(c):
        raise NumericError("scale: non-finite scalar")
    return Tensor._from_op(a.data * c, (a,), (lambda g: g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d("matmul", a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.data.shape} @ {b.data.shape}")
    return Tensor._from_op(
        a.data @ b.data,
        (a, b),
        (lambda g: g @ b.data.T, lambda g: a.data.T @ g),
    )


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return Tensor._from_op(
        np.asarray(a.data.sum()),
        (a,),
        (lambda g: np.full(shape, float(g)),),
    )


def col_mean(a: Tensor) -> Tensor:
    """Column means of a 2-d tensor; returns a 1-d tensor of length k."""
    _check_2d("col_mean", a)
    n = a.data.shape[0]
    if n == 0:
        raise ContractError("col_mean: empty tensor")
    return Tensor._from_op(
        np.add.reduce(a.data, axis=0) / n,
        (a,),
        (lambda g: np.tile(g / n, (n, 1)),),
    )


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The affine map x @ w + b, with b a 1-d vector added to every row."""
    _check_2d("linear", x, w)
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: inner dimensions disagree for {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear: bias shape {b.data.shape} does not match weight {w.data.shape}")
    data = x.data @ w.data
    data += b.data
    return Tensor._from_op(
        data,
        (x, w, b),
        (lambda g: g @ w.data.T, lambda g: x.data.T @ g, lambda g: g.sum(axis=0)),
    )


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ContractError("concat_rows: no tensors given")
    _check_2d("concat_rows", *parts)
    cols = parts[0].data.shape[1]
    for p in parts:
        if p.data.shape[1] != cols:
            raise ShapeError(f"concat_rows: column counts differ ({p.data.shape} vs {parts[0].data.shape})")
    data = np.concatenate([p.data for p in parts], axis=0)
    vjps = []
    start = 0
    for p in parts:
        stop = start + p.data.shape[0]
        vjps.append(lambda g, a=start, b=stop: g[a:b])
        start = stop
    return Tensor._from_op(data, tuple(parts), tuple(vjps))


def _check_row_index(op: str, idx, n: int) -> Array:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError(f"{op}: index must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ContractError(f"{op}: index out of range [0, {n})")
    return idx


def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of a 2-d tensor; repeats allowed (gradients accumulate)."""
    _check_2d("take_rows", x)
    idx = _check_row_index("take_rows", idx, x.data.shape[0])
    shape = x.data.shape

    def vjp(g: Array) -> Array:
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return out

    return Tensor._from_op(x.data[idx], (x,), (vjp,))


def combine(gates: Tensor, outputs: Sequence[Tensor], rows) -> Tensor:
    """The mixture-of-experts combine: gated expert rows placed in one (n, d) tensor.

    Row ``rows[e][j]`` of the result is ``gates[rows[e][j], e] * outputs[e][j]``.
    The index lists must be disjoint and repeat no row; rows in none of them are zero.
    """
    _check_2d("combine", gates, *outputs)
    if not 0 < len(outputs) == len(rows) == gates.data.shape[1]:
        raise ShapeError(f"combine: gates {gates.data.shape} for {len(outputs)} outputs and {len(rows)} index lists")
    n, d = gates.data.shape[0], outputs[0].data.shape[1]
    rows = [np.asarray(idx, dtype=np.int64) for idx in rows]
    for idx in rows:
        if idx.ndim != 1:
            raise ContractError(f"combine: index must be 1-d, got shape {idx.shape}")
    flat = _check_row_index("combine", np.concatenate(rows), n)  # every list, range-checked in one pass
    marked = np.zeros(n, dtype=bool)
    marked[flat] = True
    if np.count_nonzero(marked) != flat.size:
        raise ContractError("combine: a row is in more than one index list, or twice in one")
    for y, idx in zip(outputs, rows):
        if y.data.shape != (idx.size, d):
            raise ShapeError(f"combine: output shape {y.data.shape} for {idx.size} rows of width {d}")
    cols = [gates.data[idx, e][:, None] for e, idx in enumerate(rows)]
    data = np.zeros((n, d))  # added into, so a -0.0 product lands as +0.0, as in a sum
    for y, idx, col in zip(outputs, rows, cols):
        data[idx] += y.data * col

    def vjp_gates(g: Array) -> Array:
        out = np.zeros((n, len(rows)))
        for e, (y, idx) in enumerate(zip(outputs, rows)):
            out[idx, e] += (g[idx] * y.data).sum(axis=1)
        return out

    return Tensor._from_op(
        data,
        (gates, *outputs),
        (vjp_gates, *[lambda g, idx=idx, col=col: g[idx] * col for idx, col in zip(rows, cols)]),
    )


def gelu(x: Tensor) -> Tensor:
    a = x.data
    # t = tanh(C * (a + A * a³)), with a * a * a, not a**3: numpy's pow is
    # about 70x slower on these arrays.
    t = a * a
    t *= a
    t *= _GELU_A
    t += a
    t *= _GELU_C
    np.tanh(t, out=t)
    data = 0.5 * a
    data *= 1.0 + t

    def vjp(g: Array) -> Array:
        # g * (0.5 * (1 + t) + 0.5 * a * (1 - t²) * C * (1 + 3A * a²)); only
        # t is kept from the forward, the rest is recomputed here, in two
        # buffers: ``out`` holds 1 - t², then C * (1 + 3A * a²), then the result.
        out = t * t
        np.subtract(1.0, out, out=out)
        tail = 0.5 * a
        tail *= out
        np.multiply(a, a, out=out)
        out *= 3.0 * _GELU_A
        out += 1.0
        out *= _GELU_C
        tail *= out
        np.add(t, 1.0, out=out)
        out *= 0.5
        out += tail
        out *= g
        return out

    return Tensor._from_op(data, (x,), (vjp,))


def _row_reduce(ufunc, a: Array) -> Array:
    """``ufunc.reduce(a, axis=1)`` as one elementwise op per column.

    numpy's axis-1 reduce runs its inner loop once per row, which on the
    router's (n, 2) logits costs tens of times the arithmetic. The fold starts
    from the ufunc's identity where it has one, as numpy's sum does (two -0.0
    sum to +0.0), so two columns give numpy's bits; wider rows add left to
    right and may round otherwise than numpy's pairwise sum.
    """
    out = a[:, 0] if ufunc.identity is None else a[:, 0] + ufunc.identity
    for j in range(1, a.shape[1]):
        out = ufunc(out, a[:, j])
    return out


def _by_column(ufunc, a: Array, col: Array) -> Array:
    """``ufunc(a, col[:, None])`` with the inner loop down each column, for the same reason."""
    out = np.empty(a.shape)
    ufunc(a.T, col, out=out.T, order="C")
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    _check_2d("softmax_rows", x)
    e = _by_column(np.subtract, x.data, _row_reduce(np.maximum, x.data))
    np.exp(e, out=e)
    p = _by_column(np.divide, e, _row_reduce(np.add, e))

    def vjp(g: Array) -> Array:
        out = _by_column(np.subtract, g, _row_reduce(np.add, g * p))
        out *= p
        return out

    return Tensor._from_op(p, (x,), (vjp,))


@functools.lru_cache(maxsize=64)
def _causal_mask(length: int) -> Array:
    """Read-only additive causal mask: 0 where key <= query, -1e30 above."""
    mask = np.triu(np.full((length, length), -1e30), 1)
    mask.setflags(write=False)
    return mask


def attention(q: Tensor, k: Tensor, v: Tensor, lengths: Sequence[int], heads: int) -> Tensor:
    """Per-sequence multi-head causal attention, softmax(q kᵀ / sqrt(hd) + causal) v.

    The (n, d) inputs hold consecutive sequences of the given lengths, each
    attending causally to itself only; column block h, of width hd = d / heads,
    is head h. All run as one batched (B, heads, L, hd) op, L = max(lengths),
    with the closed-form VJP. A shorter sequence is padded at its end with
    rows the causal mask hides from its real queries, dropped on the way out.
    """
    _check_2d("attention", q)
    _check_same_shape("attention", q, k)
    _check_same_shape("attention", q, v)
    n, d = q.data.shape
    lengths = tuple(lengths)
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(f"attention: lengths {lengths} do not split the rows of {q.data.shape}")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} of {q.data.shape} does not split into {heads} heads")
    B, L, hd = len(lengths), int(max(lengths)), d // heads
    c = float(1.0 / np.sqrt(hd))
    # Rows of the padded (B * L, d) layout that hold real tokens; with equal
    # lengths there is no padding and the reshapes below are views.
    real = None if B * L == n else np.flatnonzero(np.arange(L) < np.array(lengths)[:, None])

    # Contiguous per-head copies in and contiguous (n, d) arrays out, so the
    # batched products make the same BLAS calls, bit for bit, as 2-d ones.
    def split(a: Array, axes: tuple[int, ...] = (0, 2, 1, 3)) -> Array:
        if real is not None:
            full = np.zeros((B * L, d))
            full[real] = a
            a = full
        return np.ascontiguousarray(a.reshape(B, L, heads, hd).transpose(axes))

    def merge(a: Array) -> Array:
        out = np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(B * L, d)
        return out if real is None else out[real]

    p = split(q.data) @ split(k.data, (0, 2, 3, 1))  # scores, then their row softmax, in one buffer
    p *= c
    p += _causal_mask(L)
    p -= p.max(axis=3, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=3, keepdims=True)
    # With q and k both in the graph, backward calls their closures one after
    # the other with the same g: the first computes the score gradient and
    # holds it with g itself (so no later gradient can match it by a reused
    # id), the second takes it out, so the node keeps neither after backward.
    shared = q.requires_grad and k.requires_grad
    memo: list = []

    # The closures re-split the (n, d) arrays of q, k and v rather than keep
    # a second, per-head copy of each.
    def d_scores(g: Array) -> Array:
        if memo and memo[0] is g:
            ds = memo[1]
            memo.clear()
            return ds
        ds = split(g) @ split(v.data).transpose(0, 1, 3, 2)
        ds -= (ds * p).sum(axis=3, keepdims=True)
        ds *= p
        ds *= c
        if shared:
            memo[:] = (g, ds)
        return ds

    return Tensor._from_op(
        merge(p @ split(v.data)),
        (q, k, v),
        (
            lambda g: merge(d_scores(g) @ split(k.data, (0, 2, 3, 1)).transpose(0, 1, 3, 2)),
            lambda g: merge((split(q.data).transpose(0, 1, 3, 2) @ d_scores(g)).transpose(0, 1, 3, 2)),
            lambda g: merge(p.transpose(0, 1, 3, 2) @ split(g)),
        ),
    )


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization followed by an affine map.

    gain and bias are 1-d vectors of the row width. The backward pass uses
    the closed-form row formulas rather than composing primitive ops.
    """
    _check_2d("layer_norm", x)
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} do not match width {d}"
        )
    # np.add.reduce(...) / d is .mean bit for bit, without numpy's Python wrapper.
    xhat = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=1, keepdims=True) / d
    if not np.isfinite(var).all():  # an overflow would give inv = 0 and a silent zero row
        raise NumericError("layer_norm: non-finite row variance")
    inv = var  # 1 / sqrt(var + eps), in var's buffer
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp_x(g: Array) -> Array:
        # inv * (gx - mean(gx) - xhat * mean(gx * xhat)), gx = g * gain
        gx = g * gain.data
        m1 = np.add.reduce(gx, axis=1, keepdims=True) / d
        tmp = gx * xhat
        m2 = np.add.reduce(tmp, axis=1, keepdims=True) / d
        np.multiply(xhat, m2, out=tmp)
        gx -= m1
        gx -= tmp
        gx *= inv
        return gx

    return Tensor._from_op(
        data,
        (x, gain, bias),
        (vjp_x, lambda g: (g * xhat).sum(axis=0), lambda g: g.sum(axis=0)),
    )


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    _check_2d("cross_entropy", logits)
    n, v = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ContractError(f"cross_entropy: targets shape {targets.shape} does not match {n} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ContractError(f"cross_entropy: target id out of range [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    p = np.exp(z)
    denom = p.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    data = np.asarray(-(np.add.reduce(z[rows, targets] - np.log(denom[:, 0])) / n))
    p /= denom

    def vjp(g: Array) -> Array:
        out = p.copy()
        out[rows, targets] -= 1.0
        out *= float(g) / n
        return out

    return Tensor._from_op(data, (logits,), (vjp,))


def backward(loss: Tensor, params: Iterable[Parameter]) -> list[Array]:
    """d(loss)/d(p) for each parameter in ``params``, in order, as read-only arrays; two may share one.

    The loss must hold exactly one element. Each recorded node is visited
    once, in reverse topological order, and nothing is stored. The graph has
    no edge into a branch that does not require gradients, so a parameter
    the loss does not reach, a frozen one, or any under a loss that needs
    none gets zeros.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    root = loss._node or loss
    topo: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)] if loss.requires_grad else []  # else no graph
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.__class__ is tuple:
            for parent, _ in node:
                if id(parent) not in seen:
                    stack.append((parent, False))

    grads: dict[int, Array] = {id(root): np.ones_like(loss.data)}
    leaves: dict[int, Array] = {}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if node.__class__ is not tuple:  # the other edge ends are trainable Parameters
            leaves[id(node)] = g
            continue
        for parent, vjp in node:
            contrib = vjp(g)
            acc = grads.get(id(parent))
            # Out of place: contrib may be g itself or a view of it.
            grads[id(parent)] = contrib if acc is None else acc + contrib
    out = [leaves[id(p)] if id(p) in leaves else np.zeros_like(p.data) for p in params]
    for g in out:
        g.setflags(write=False)
    return out
