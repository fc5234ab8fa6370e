"""Routing: probability values, tie behavior, argmax invariances, gradients.

Which FFN a token prefers is read from a slack-capacity allocation, where
every token is accepted by its candidate FFN: the allocator owns that rule."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from evf import tensor as T
from evf.allocator import CapacityConfig, ModalityTags, Strategy, allocate, priority_scores
from evf.errors import ShapeError
from evf.router import LANGUAGE_FFN, VISION_FFN, RouterParams, route
from evf.seeds import RngKey


def make_router(weight):
    return RouterParams(T.Parameter(np.asarray(weight, dtype=np.float64)))


def candidate_ffn(decision):
    """Each token's FFN in a capacity_factor=2.0 plan, the same under random and gbpr."""
    tags = ModalityTags(np.zeros(decision.n, dtype=bool))
    assigned = []
    for strategy in (Strategy.RANDOM, Strategy.GBPR):
        scores = priority_scores(decision, tags, strategy)
        plan = allocate(decision, scores, tags, CapacityConfig(capacity_factor=2.0), strategy, rng=RngKey(0))
        assert plan.dropped.size == 0
        ffn = np.empty(decision.n, dtype=np.int64)
        for expert, rows in enumerate(plan.accepted):
            ffn[rows] = expert
        assigned.append(ffn)
    np.testing.assert_array_equal(*assigned)
    return assigned[0]


def test_zero_router_emits_half_half_and_prefers_language():
    router = RouterParams.zeros(width=5)
    tokens = T.Tensor(np.random.default_rng(1).normal(size=(7, 5)))
    decision = route(router, tokens)
    np.testing.assert_array_equal(decision.probabilities.data, np.full((7, 2), 0.5))
    np.testing.assert_array_equal(candidate_ffn(decision), np.zeros(7, dtype=np.int64))


def test_known_logit_gap_gives_quarter_three_quarter():
    # logits (0, ln 3) puts exactly 3x the mass on the vision column
    router = make_router([[0.0, math.log(3.0)]])
    decision = route(router, T.Tensor([[1.0]]))
    np.testing.assert_allclose(decision.probabilities.data, [[0.25, 0.75]], rtol=0, atol=1e-15)
    assert candidate_ffn(decision)[0] == VISION_FFN


def test_probabilities_match_scalar_softmax_of_logits():
    rng = np.random.default_rng(7)
    router = make_router(rng.normal(size=(6, 2)))
    tokens = rng.normal(size=(9, 6))
    decision = route(router, T.Tensor(tokens))
    want = oracles.softmax_rows_scalar(oracles.matmul_loops(tokens, router.weight.data))
    np.testing.assert_allclose(decision.probabilities.data, want, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(decision.logits.data, tokens @ router.weight.data)


# Equal logits and both signs near 700. Row 3 puts probability 0 in its
# vision column, so under the gradient (-0.0, -1.0) both products g * p are
# -0.0, whose row sum numpy reads as +0.0.
EDGE_LOGITS = [[0.0, 0.0], [700.0, 700.0], [-700.0, -700.0], [700.0, -700.0], [-699.5, 700.0], [5e-324, 0.0]]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([1.0, 30.0, 700.0]))
def test_router_softmax_and_vjp_give_the_bytes_of_the_plain_numpy_formulas(n, seed, scale):
    gen = np.random.default_rng(seed)
    x = np.concatenate([EDGE_LOGITS, gen.uniform(-scale, scale, size=(n, 2))])
    x[len(EDGE_LOGITS) :: 3, 1] = x[len(EDGE_LOGITS) :: 3, 0]
    g = gen.normal(size=x.shape)
    g[gen.random(x.shape) < 0.3] = -0.0
    g[3] = (-0.0, -1.0)
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = T.softmax_rows(T.Parameter(x))
    assert out.data.tobytes() == p.tobytes()
    assert out._node[0][1](g).tobytes() == (p * (g - (g * p).sum(axis=1, keepdims=True))).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    st.floats(0.1, 20.0),
)
@example([0.0, 0.0, 0.0, 2.220446049250313e-16], 0.1)
@example([0.0, 0.0, 0.0, -2.220446049250313e-16], 0.25)
def test_scaling_logits_never_flips_the_argmax(entries, lam):
    """Softmax is monotone in the logit gap, so a positive rescale of the
    router weight preserves every preference (ties stay ties).

    A nonzero gap within float resolution of zero has no sign to keep: its
    probabilities round to a tie at one scale and not at the other. The
    logits here stay below 300, where rounding is under 1e-13, so examples
    with a gap in (0, 1e-12] at either scale are skipped."""
    w = np.asarray(entries).reshape(2, 2)
    tokens = np.array([[1.0, -0.5], [0.3, 2.0], [-1.0, -1.0]])
    base = route(make_router(w), T.Tensor(tokens))
    scaled = route(make_router(lam * w), T.Tensor(tokens))
    for decision in (base, scaled):
        gap = np.abs(decision.logits.data[:, 1] - decision.logits.data[:, 0])
        assume(np.all((gap == 0) | (gap > 1e-12)))
    np.testing.assert_array_equal(candidate_ffn(base), candidate_ffn(scaled))


def test_exact_tie_resolves_to_language():
    router = make_router([[1.0, 1.0], [0.5, 0.5]])
    decision = route(router, T.Tensor([[2.0, -1.0]]))
    assert decision.probabilities.data[0, 0] == decision.probabilities.data[0, 1]
    assert candidate_ffn(decision)[0] == LANGUAGE_FFN


def test_router_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(5, 4))
    weight = rng.normal(size=(4, 2))
    target = T.Tensor(rng.normal(size=(5, 2)))

    param = T.Parameter(weight)
    decision = route(RouterParams(param), T.Tensor(tokens))
    (grad,) = T.backward(T.sum_all(T.mul(decision.probabilities, target)), [param])

    def f(w):
        d = route(make_router(w), T.Tensor(tokens))
        return T.sum_all(T.mul(d.probabilities, target)).item()

    (fd,) = oracles.finite_difference_grads(f, [weight])
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_route_shape_contracts():
    router = RouterParams.zeros(4)
    with pytest.raises(ShapeError):
        route(router, T.Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        RouterParams(T.Parameter(np.zeros((4, 3))))
