"""Tensor core: forward values against scalar oracles, gradients against
central finite differences, and the bookkeeping contracts around backward."""

import ast
import inspect
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evf import tensor as T
from evf.errors import ContractError, NumericError, ShapeError

RNG = np.random.default_rng(20240811)


def rand(*shape):
    return RNG.normal(0.0, 1.0, size=shape)


# ---------------------------------------------------------------------------
# forward values


def test_matmul_matches_triple_loop():
    a, b = rand(4, 3), rand(3, 5)
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    np.testing.assert_allclose(got, oracles.matmul_loops(a, b), rtol=1e-13, atol=1e-13)


def test_softmax_matches_scalar_oracle():
    x = rand(6, 4) * 3
    got = T.softmax_rows(T.Tensor(x)).data
    np.testing.assert_allclose(got, oracles.softmax_rows_scalar(x), rtol=1e-12, atol=1e-14)


def test_gelu_matches_scalar_oracle():
    x = np.linspace(-4, 4, 23).reshape(1, -1)
    got = T.gelu(T.Tensor(x)).data[0]
    want = [oracles.gelu_scalar(float(v)) for v in x[0]]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_layer_norm_matches_scalar_oracle():
    x, g, b = rand(5, 8), rand(8), rand(8)
    got = T.layer_norm(T.Tensor(x), T.Tensor(g), T.Tensor(b)).data
    np.testing.assert_allclose(got, oracles.layer_norm_scalar(x, g, b), rtol=1e-11, atol=1e-12)


def test_cross_entropy_matches_scalar_oracle():
    logits = rand(7, 9) * 2
    targets = RNG.integers(9, size=7)
    got = T.cross_entropy(T.Tensor(logits), targets).item()
    assert got == pytest.approx(oracles.cross_entropy_scalar(logits, targets), rel=1e-12)


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = np.zeros((3, 11))
    got = T.cross_entropy(T.Tensor(logits), [0, 5, 10]).item()
    assert got == pytest.approx(np.log(11.0), rel=1e-14)


def test_ffn_composition_matches_scalar_oracle():
    x = rand(4, 6)
    w1, b1, w2, b2 = rand(6, 10), rand(10), rand(10, 6), rand(6)
    got = T.linear(T.gelu(T.linear(T.Tensor(x), T.Tensor(w1), T.Tensor(b1))), T.Tensor(w2), T.Tensor(b2)).data
    np.testing.assert_allclose(got, oracles.ffn_scalar(x, w1, b1, w2, b2), rtol=1e-11, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-30, 30, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    ),
    st.floats(-50, 50, allow_nan=False),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(rows, shift):
    x = np.asarray(rows, dtype=np.float64)
    p = T.softmax_rows(T.Tensor(x)).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(x.shape[0]), rtol=0, atol=1e-12)
    assert np.all(p >= 0)
    shifted = T.softmax_rows(T.Tensor(x + shift)).data
    np.testing.assert_allclose(shifted, p, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients: every differentiable op against central differences


def check_grads(build, arrays, eps=1e-6, tol=1e-6):
    params = [T.Parameter(a) for a in arrays]
    grads = T.backward(build(*params), params)

    def f(*values):
        return build(*[T.Parameter(v) for v in values]).item()

    for grad, fd in zip(grads, oracles.finite_difference_grads(f, arrays, eps)):
        np.testing.assert_allclose(grad, fd, rtol=tol, atol=tol)


def test_grad_matmul():
    check_grads(lambda a, b: T.sum_all(T.matmul(a, b)), [rand(3, 4), rand(4, 2)])


def test_grad_arithmetic_mix():
    w = T.Tensor(rand(3, 3))
    check_grads(
        lambda a, b: T.sum_all(T.mul(T.scale(T.mul(a, b) + a + b, 1.7), w)),
        [rand(3, 3), rand(3, 3)],
    )


def test_grad_linear():
    w = T.Tensor(rand(4, 3))
    check_grads(lambda x, a, b: T.sum_all(T.mul(T.linear(x, a, b), w)), [rand(4, 5), rand(5, 3), rand(3)])


def test_grad_combine_with_an_empty_expert_and_a_dropped_row():
    # Row 2 is in no list, so it stays zero; expert 1 has no rows at all.
    rows = [np.array([4, 0]), np.array([], dtype=np.int64), np.array([1, 3])]
    w = T.Tensor(rand(5, 3))
    check_grads(
        lambda gates, y0, y1, y2: T.sum_all(T.mul(T.combine(gates, [y0, y1, y2], rows), w)),
        [rand(5, 3), rand(2, 3), rand(0, 3), rand(2, 3)],
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-1, 2), min_size=n, max_size=n), st.permutations(range(n)),
)))
def test_combine_matches_a_plain_loop(case):
    # Each row goes to one of 3 experts or (-1) to none; rows within an
    # expert come in a shuffled order.
    n, owner, order = case
    rng = np.random.default_rng(n)
    rows = [np.array([i for i in order if owner[i] == e], dtype=np.int64) for e in range(3)]
    gates = rng.normal(size=(n, 3))
    outputs = [rng.normal(size=(idx.size, 4)) for idx in rows]
    got = T.combine(T.Tensor(gates), [T.Tensor(y) for y in outputs], rows).data
    want = np.zeros((n, 4))
    for e, idx in enumerate(rows):
        for j, i in enumerate(idx):
            want[i] = gates[i, e] * outputs[e][j]
    np.testing.assert_array_equal(got, want)


def test_grad_concat_rows():
    w = T.Tensor(rand(7, 3))
    check_grads(lambda a, b: T.sum_all(T.mul(T.concat_rows([a, b]), w)), [rand(4, 3), rand(3, 3)])


def test_grad_take_rows_with_repeats():
    idx = np.array([0, 2, 2, 1])
    w = T.Tensor(rand(4, 3))
    check_grads(lambda x: T.sum_all(T.mul(T.take_rows(x, idx), w)), [rand(3, 3)])


def test_grad_gelu():
    check_grads(lambda x: T.sum_all(T.gelu(x)), [rand(3, 7)], tol=1e-5)


def test_grad_softmax_rows():
    w = T.Tensor(rand(4, 5))
    check_grads(lambda x: T.sum_all(T.mul(T.softmax_rows(x), w)), [rand(4, 5)])


def _packed_causal_mask(seq_ids):
    seq_ids = np.asarray(seq_ids)
    allowed = (seq_ids[:, None] == seq_ids[None, :]) & np.tri(seq_ids.size, dtype=bool)
    return np.where(allowed, 0.0, -1e30)


def test_attention_matches_per_head_oracle():
    q, k, v = rand(5, 6), rand(5, 6), rand(5, 6)
    mask = _packed_causal_mask([0, 0, 0, 1, 1])
    got = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), [3, 2], 3).data
    for h in range(3):
        cols = slice(2 * h, 2 * h + 2)
        scores = oracles.matmul_loops(q[:, cols], k[:, cols].T) / np.sqrt(2.0) + mask
        want = oracles.matmul_loops(oracles.softmax_rows_scalar(scores), v[:, cols])
        np.testing.assert_allclose(got[:, cols], want, rtol=1e-12, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=6),
    st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_attention_per_sequence_matches_packed_mask_oracle(lengths, heads_hd, seed):
    heads, hd = heads_hd
    n, d = sum(lengths), heads * hd
    gen = np.random.default_rng(seed)
    q, k, v = (gen.normal(size=(n, d)) for _ in range(3))
    mask = _packed_causal_mask(np.repeat(np.arange(len(lengths)), lengths))
    got = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), lengths, heads).data
    for h in range(heads):
        cols = slice(h * hd, (h + 1) * hd)
        scores = oracles.matmul_loops(q[:, cols], k[:, cols].T) / np.sqrt(hd) + mask
        want = oracles.matmul_loops(oracles.softmax_rows_scalar(scores), v[:, cols])
        np.testing.assert_allclose(got[:, cols], want, rtol=1e-12, atol=1e-13)


def test_grad_attention():
    w = T.Tensor(rand(5, 4))
    check_grads(
        lambda q, k, v: T.sum_all(T.mul(T.attention(q, k, v, [3, 2], 2), w)),
        [rand(5, 4), rand(5, 4), rand(5, 4)],
    )


def test_attention_backward_twice_through_one_node():
    # The q and k closures share one score gradient per incoming gradient;
    # a second backward pass through the same node must not reuse the first.
    w1, w2 = rand(4, 4), rand(4, 4)
    q, k, v = (T.Parameter(rand(4, 4)) for _ in range(3))
    out = T.attention(q, k, v, [2, 2], 2)
    first = T.backward(T.sum_all(T.mul(out, T.Tensor(w1))), [q, k, v])
    second = T.backward(T.sum_all(T.mul(out, T.Tensor(w2))), [q, k, v])
    once = [T.Parameter(p.data) for p in (q, k, v)]
    want = T.backward(T.sum_all(T.mul(T.attention(*once, [2, 2], 2), T.Tensor(w1 + w2))), once)
    for g1, g2, g in zip(first, second, want):
        np.testing.assert_allclose(g1 + g2, g, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k_in_graph", [True, False])
def test_attention_backward_releases_its_score_gradient(k_in_graph):
    # The score gradient, and the incoming gradient it came from, stay held
    # only until the last of the q and k closures has read them.
    gen = np.random.default_rng(4)  # its own generator, so the draws of the other tests stay as they were
    q, k, v = (T.Parameter(gen.normal(size=(4, 4))) for _ in range(3))
    k.set_trainable(k_in_graph)
    out = T.attention(q, k, v, [2, 2], 2)
    incoming = []

    def vjp(g):
        mine = g.copy()
        incoming.append(weakref.ref(mine))
        return mine

    top = T.Tensor._from_op(out.data.copy(), (out,), (vjp,))
    (grad,) = T.backward(T.sum_all(top), [q])
    assert len(incoming) == 1 and np.abs(grad).max() > 0.0
    assert incoming[0]() is None, "the attention node still holds its incoming gradient"


def test_attention_node_holds_one_copy_of_its_inputs():
    # The VJPs hold q, k and v, which they read, and re-split them on demand,
    # so the node itself keeps only its output and probabilities.
    B, H, L, hd = 2, 2, 32, 16
    gen = np.random.default_rng(3)  # its own generator, so the draws of the other tests stay as they were
    q, k, v = (T.Parameter(gen.normal(size=(B * L, H * hd))) for _ in range(3))
    T.attention(q, k, v, [L] * B, H)  # fills the causal-mask cache outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.attention(q, k, v, [L] * B, H)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    probabilities, allowance = B * H * L * L * 8, 4096
    assert 3 * q.data.nbytes > allowance  # so per-head copies of q, k and v would show
    assert held <= out.data.nbytes + probabilities + allowance, held


def test_grad_layer_norm_all_inputs():
    w = T.Tensor(rand(4, 6))
    check_grads(
        lambda x, g, b: T.sum_all(T.mul(T.layer_norm(x, g, b), w)),
        [rand(4, 6), rand(6), rand(6)],
        tol=1e-5,
    )


def test_grad_col_mean_and_mean_all():
    w = T.Tensor(rand(3))

    def build(x):
        return T.sum_all(T.mul(T.col_mean(x), w)) + T.scale(T.sum_all(x), 1.0 / x.data.size)

    check_grads(build, [rand(5, 3)])


def test_grad_cross_entropy():
    targets = np.array([1, 0, 3])
    check_grads(lambda x: T.cross_entropy(x, targets), [rand(3, 4)])


def test_grad_full_ffn_block():
    check_grads(
        lambda x, w1, b1, w2, b2: T.sum_all(
            T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)
        ),
        [rand(3, 4), rand(4, 6), rand(6), rand(6, 4), rand(4)],
        tol=1e-5,
    )


def test_in_place_kernels_give_the_bits_of_the_plain_expressions():
    """The row kernels compute in place; each value and VJP must equal, bit
    for bit, the plain numpy expression with the same operation order."""
    gen = np.random.default_rng(11)
    B, L, H, hd = 4, 10, 2, 8
    n, d = B * L, H * hd
    x, g, q, k, v = gen.normal(size=(5, n, d))
    w, gain, bias = gen.normal(size=(d, d)), gen.normal(size=d), gen.normal(size=d)
    px = T.Parameter(x)

    np.testing.assert_array_equal(T.linear(px, T.Parameter(w), T.Parameter(bias)).data, x @ w + bias)

    C, A = T._GELU_C, T._GELU_A
    t = np.tanh(C * (x + A * (x * x * x)))
    out = T.gelu(px)
    np.testing.assert_array_equal(out.data, 0.5 * x * (1.0 + t))
    du = C * (1.0 + 3.0 * A * (x * x))
    np.testing.assert_array_equal(out._node[0][1](g), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du))

    xc = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
    xhat = xc * inv
    out = T.layer_norm(px, T.Parameter(gain), T.Parameter(bias))
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    gx = g * gain
    want = inv * (gx - gx.mean(axis=1, keepdims=True) - xhat * (gx * xhat).mean(axis=1, keepdims=True))
    np.testing.assert_array_equal(out._node[0][1](g), want)

    targets, rows = gen.integers(d, size=n), np.arange(n)
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    out = T.cross_entropy(px, targets)
    assert out.item() == -(z - np.log(denom))[rows, targets].mean()
    want = e / denom
    want[rows, targets] -= 1.0
    np.testing.assert_array_equal(out._node[0][1](np.asarray(0.7)), want * (0.7 / n))

    def split(a, axes=(0, 2, 1, 3)):
        return np.ascontiguousarray(a.reshape(B, L, H, hd).transpose(axes))

    def merge(a):
        return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(n, d)

    c = float(1.0 / np.sqrt(hd))
    qh, kt, vh, gh = split(q), split(k, (0, 2, 3, 1)), split(v), split(g)
    s = (qh @ kt) * c + np.triu(np.full((L, L), -1e30), 1)
    e = np.exp(s - s.max(axis=3, keepdims=True))
    p = e / e.sum(axis=3, keepdims=True)
    out = T.attention(T.Parameter(q), T.Parameter(k), T.Parameter(v), [L] * B, H)
    np.testing.assert_array_equal(out.data, merge(p @ vh))
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * c
    dq, dk, dv = (vjp(g) for _, vjp in out._node)
    np.testing.assert_array_equal(dq, merge(ds @ kt.transpose(0, 1, 3, 2)))
    np.testing.assert_array_equal(dk, merge((qh.transpose(0, 1, 3, 2) @ ds).transpose(0, 1, 3, 2)))
    np.testing.assert_array_equal(dv, merge(p.transpose(0, 1, 3, 2) @ gh))


# ---------------------------------------------------------------------------
# backward bookkeeping


def test_diamond_reuse_accumulates_correctly():
    # x feeds two branches whose vjps are identity maps; a shared gradient
    # buffer between siblings would double-count one of them.
    x, y, z = T.Parameter(rand(2, 2)), T.Parameter(rand(2, 2)), T.Parameter(rand(2, 2))
    gx, gy, gz = T.backward(T.sum_all((x + y) + (x + z)), [x, y, z])
    np.testing.assert_array_equal(gx, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(gy, np.ones((2, 2)))
    np.testing.assert_array_equal(gz, np.ones((2, 2)))


def _aliasing_graph(x, gain, bias, w):
    # add(x, x) hands one gradient array to the same parent twice, concat_rows
    # hands out views of its gradient, and h, s and n have several consumers.
    h = T.add(x, x)
    s = T.concat_rows([h, T.gelu(h)])
    n = T.layer_norm(s, gain, bias)
    a = T.attention(n, n, s, [5, 3], 2)
    return T.cross_entropy(T.matmul(a + s, w), np.array([0, 4, 1, 3, 2, 0, 1, 4]))


# Its own generator, so the draws of the other tests stay as they were.
ALIASING_INPUTS = [np.random.default_rng(7).normal(size=shape) for shape in ((4, 4), (4,), (4,), (4, 5))]


def test_grad_through_shared_and_aliased_gradients():
    check_grads(_aliasing_graph, ALIASING_INPUTS, tol=1e-5)


def test_backward_writes_no_upstream_array(monkeypatch):
    """Neither a forward value nor any gradient handed to a closure changes
    while backward runs, so aliased gradients are safe to share."""
    values, grads = [], []
    from_op = T.Tensor._from_op

    def watched(vjp):
        def call(g):
            grads.append((g, g.copy()))
            return vjp(g)
        return call

    def recording(data, parents, vjps):
        values.append((data, data.copy()))
        return from_op(data, parents, tuple(watched(vjp) for vjp in vjps))

    monkeypatch.setattr(T.Tensor, "_from_op", staticmethod(recording))
    params = [T.Parameter(a) for a in ALIASING_INPUTS]
    loss = _aliasing_graph(*params)
    T.backward(loss, params)
    assert len(grads) > 10
    for array, copy in values + grads + [(p.data, a) for p, a in zip(params, ALIASING_INPUTS)]:
        np.testing.assert_array_equal(array, copy)


def test_backward_twice_on_one_graph_gives_the_same_bytes():
    # Nothing is stored between calls: no leaf accumulates, and no closure keeps state
    # (attention's shared score gradient included) that a second walk could read.
    params = [T.Parameter(a) for a in ALIASING_INPUTS]
    loss = _aliasing_graph(*params)
    first = [g.tobytes() for g in T.backward(loss, params)]
    assert first == [g.tobytes() for g in T.backward(loss, params)]
    assert all(np.frombuffer(g).any() for g in first)


def test_unreached_frozen_and_gradient_free_parameters_get_exact_zeros():
    live, frozen, unreached = (T.Parameter(rand(2, 2)) for _ in range(3))
    frozen.set_trainable(False)
    loss = T.sum_all(T.mul(live, frozen))
    grads = T.backward(loss, [unreached, frozen, live])
    live.set_trainable(False)  # the same product now needs no gradient at all
    grads.extend(T.backward(T.sum_all(T.mul(live, frozen)), [live]))
    zeros = np.zeros((2, 2)).tobytes()  # +0.0 bytes, so a -0.0 fails too
    assert [g.tobytes() for g in grads] == [zeros, zeros, frozen.data.tobytes(), zeros]
    for g in grads:
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


def test_parameters_that_share_one_gradient_array_each_get_it_read_only():
    a, b = T.Parameter(rand(2, 2)), T.Parameter(rand(2, 2))
    ga, gb = T.backward(T.sum_all(T.add(a, b)), [a, b])  # add hands both inputs the array it gets
    assert np.shares_memory(ga, gb)
    for g in (ga, gb):
        with pytest.raises(ValueError):
            g[0, 0] = 1.0
    np.testing.assert_array_equal(ga, np.ones((2, 2)))


def test_frozen_parameter_gets_no_gradient_and_prunes_graph():
    frozen = T.Parameter(rand(3, 3))
    frozen.set_trainable(False)
    live = T.Parameter(rand(3, 3))
    out = T.mul(frozen, live)
    g_frozen, g_live = T.backward(T.sum_all(out), [frozen, live])
    np.testing.assert_array_equal(g_frozen, np.zeros((3, 3)))
    np.testing.assert_allclose(g_live, frozen.data)
    # a graph with no differentiable inputs records nothing at all
    a, b = T.Tensor(rand(2, 2)), T.Tensor(rand(2, 2))
    assert (a + b)._node is None


def test_an_output_no_vjp_reads_is_freed_with_its_tensor():
    # h feeds only a frozen linear, whose one live VJP (to h) reads the weight,
    # not h: the graph keeps an edge to h's node but not h's array. No
    # gc.collect(): reference counting alone must free it.
    gen = np.random.default_rng(5)  # its own generator, so the draws of the other tests stay as they were
    c = T.Tensor(gen.normal(size=(6, 4)))
    p, b, w, wb = (T.Parameter(gen.normal(size=shape)) for shape in ((4, 5), (5,), (5, 3), (3,)))
    w.set_trainable(False)
    wb.set_trainable(False)
    grads = []
    for keep in (True, False):
        h = T.linear(c, p, b)
        y = T.linear(h, w, wb)
        array, kept = weakref.ref(h.data), h if keep else None
        del h
        assert (array() is not None) == keep
        grad_p, grad_b = T.backward(T.sum_all(y), [p, b])
        grads.append((grad_p.tobytes(), grad_b.tobytes()))
        del kept
    assert grads[0] == grads[1]
    assert np.abs(grad_p).max() > 0.0


def test_backward_on_a_loss_that_needs_no_gradient_writes_no_grad():
    frozen = T.Parameter(rand(2, 2))
    frozen.set_trainable(False)
    leaf = T.Tensor(rand(2, 2))
    loss = T.sum_all(T.mul(frozen, leaf))
    (grad,) = T.backward(loss, [frozen])
    assert T.Tensor.__slots__ == ("data", "requires_grad", "_node")  # no tensor has a gradient slot
    np.testing.assert_array_equal(grad, np.zeros((2, 2)))


def test_trainable_is_a_read_only_view_of_requires_grad():
    p = T.Parameter(rand(2, 2))
    p.set_trainable(False)
    assert not p.trainable and not p.requires_grad
    p.set_trainable(True)
    assert p.trainable and p.requires_grad
    with pytest.raises(AttributeError):
        p.trainable = False


def test_parameter_values_are_private_and_read_only():
    w = rand(2, 2)
    p = T.Parameter(w)
    w[0, 0] += 1.0  # the caller's array is not the parameter's
    assert p.data[0, 0] == w[0, 0] - 1.0
    with pytest.raises(ValueError):
        p.data[0, 0] = 0.0
    v = rand(2, 2)
    p.assign(v)
    assert p.data is not v and p.data.tobytes() == v.tobytes()
    with pytest.raises(ValueError):
        p.data += 1.0


def test_set_trainable_toggles_gradient_flow():
    p = T.Parameter(rand(2, 2))
    p.set_trainable(False)
    assert not p.requires_grad
    (grad,) = T.backward(T.sum_all(T.mul(p, p)), [p])
    np.testing.assert_array_equal(grad, np.zeros((2, 2)))
    p.set_trainable(True)
    (grad,) = T.backward(T.sum_all(T.mul(p, p)), [p])
    np.testing.assert_allclose(grad, 2 * p.data)


def test_gradients_are_bit_reproducible():
    arrays = [rand(4, 4), rand(4, 4)]

    def run():
        a, b = T.Parameter(arrays[0]), T.Parameter(arrays[1])
        return T.backward(T.sum_all(T.softmax_rows(T.matmul(a, T.gelu(b)))), [a, b])

    first = run()
    second = run()
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


# ---------------------------------------------------------------------------
# contracts and error reporting


def test_backward_rejects_non_scalar_loss():
    with pytest.raises(ContractError):
        T.backward(T.Tensor(rand(2, 2)), [])


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        T.add(T.Tensor(rand(2, 3)), T.Tensor(rand(3, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 3\)"):
        T.matmul(T.Tensor(rand(2, 3)), T.Tensor(rand(2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 4\)"):
        T.linear(T.Tensor(rand(2, 3)), T.Tensor(rand(2, 4)), T.Tensor(rand(4)))
    with pytest.raises(ShapeError, match=r"\(3,\).*\(3, 4\)"):
        T.linear(T.Tensor(rand(2, 3)), T.Tensor(rand(3, 4)), T.Tensor(rand(3)))
    with pytest.raises(ShapeError, match=r"differ \(\(1, 4\) vs \(1, 3\)\)"):  # each part against the first
        T.concat_rows([T.Tensor(rand(1, 3)), T.Tensor(rand(2, 3)), T.Tensor(rand(1, 4))])
    with pytest.raises(ShapeError, match=r"\(3, 2\) for 2 rows"):
        T.combine(T.Tensor(rand(4, 2)), [T.Tensor(rand(3, 2)), T.Tensor(rand(1, 2))], [[0, 1], [2]])
    q = T.Tensor(rand(3, 4))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
        T.attention(q, T.Tensor(rand(3, 2)), q, [3], 2)
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(2, 4\)"):
        T.attention(q, q, T.Tensor(rand(2, 4)), [3], 2)
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 4\)"):
        T.attention(q, q, q, [2, 2], 2)
    with pytest.raises(ShapeError, match=r"\(3, 4\).*3 heads"):
        T.attention(q, q, q, [3], 3)


def test_one_part_one_expert_and_one_row_are_legal():
    x = rand(3, 2)
    assert T.concat_rows([T.Tensor(x)]).data.tobytes() == x.tobytes()
    np.testing.assert_array_equal(T.col_mean(T.Tensor(x[:1])).data, x[0])
    with pytest.raises(ContractError, match="empty"):
        T.col_mean(T.Tensor(np.zeros((0, 2))))
    gates, y = rand(2, 1), rand(1, 4)
    got = T.combine(T.Tensor(gates), [T.Tensor(y)], [[1]]).data
    np.testing.assert_array_equal(got, [np.zeros(4), gates[1, 0] * y[0]])
    with pytest.raises(ShapeError, match="for 0 outputs"):
        T.combine(T.Tensor(np.zeros((2, 0))), [], [])


def test_softmax_rows_subtracts_each_rows_maximum():
    # exp(1000) overflows: only subtracting the row's own maximum keeps these rows finite.
    np.testing.assert_array_equal(T.softmax_rows(T.Tensor([[1000.0, 0.0], [0.0, 1000.0]])).data, np.eye(2))
    # The row sum starts from the identity, as numpy's does: two -0.0 sum to +0.0.
    a = np.array([[-0.0, -0.0], [1.0, -0.0]])
    assert T._row_reduce(np.add, a).tobytes() == np.add.reduce(a, axis=1).tobytes() == np.array([0.0, 1.0]).tobytes()


def test_index_contracts():
    x = T.Tensor(rand(3, 2))
    with pytest.raises(ContractError):
        T.take_rows(x, [0, 3])
    np.testing.assert_array_equal(T.take_rows(x, [2]).data, x.data[2:])  # rows bound the index, not columns
    gates, y = T.Tensor(rand(3, 2)), T.Tensor(rand(1, 2))
    for rows in ([[1], [1]], [[1, 1], []]):
        with pytest.raises(ContractError, match="more than one"):
            T.combine(gates, [y, y], rows)
    with pytest.raises(ContractError, match="out of range"):
        T.combine(gates, [y, y], [[0], [3]])


def test_non_finite_values_are_rejected():
    with pytest.raises(NumericError):
        T.Tensor([[1.0, np.inf]])
    with pytest.raises(NumericError):
        T.scale(T.Tensor([[1.0]]), float("nan"))
    p = T.Parameter(rand(2, 2))
    with pytest.raises(NumericError):
        p.assign(np.full((2, 2), np.nan))
    with pytest.raises(ShapeError):
        p.assign(rand(2, 3))


def test_item_requires_single_element():
    assert T.Tensor([[2.5]]).item() == 2.5
    with pytest.raises(ContractError):
        T.Tensor(rand(2, 2)).item()


# Operators that library code writes in place of a named op; the Tensor
# method behind each one names the ops it calls.
OPERATOR_METHODS = {ast.Add: "__add__"}


def _names_called_by(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_every_public_op_has_a_library_caller():
    """No tensor op exists that only the tests call."""
    ops = {
        name
        for name, obj in vars(T).items()
        if inspect.isfunction(obj) and obj.__module__ == T.__name__ and not name.startswith("_")
    }
    used = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "T":
                used.add(node.attr)
            elif isinstance(node, ast.BinOp) and type(node.op) in OPERATOR_METHODS:
                used |= _names_called_by(getattr(T.Tensor, OPERATOR_METHODS[type(node.op)]))
    assert ops <= used, f"public evf.tensor ops with no caller in evf: {sorted(ops - used)}"
