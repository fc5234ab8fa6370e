"""Elastic layer: stage-3 duplication semantics, gated forward against the
token-by-token oracle, the language bypass, and gradient routing."""

import numpy as np
import pytest

import oracles
from evf import router as router_module
from evf import tensor as T
from evf.allocator import CapacityConfig, ModalityTags, Strategy, allocate, allocation_stats, priority_scores
from evf.errors import ShapeError
from evf.layer import (
    EvfLayerParams,
    FfnParams,
    ffn_forward,
    init_stage3_from_dense,
)
from evf.model import ModelConfig, apply_stage, build_model
from evf.router import LANGUAGE_FFN, VISION_FFN, RouterParams
from evf.seeds import RngKey

WIDTH, HIDDEN = 6, 10


def dense_ffn(seed=0):
    gen = RngKey(seed, (99,)).generator()
    return FfnParams(
        T.Parameter(gen.normal(0.0, 0.02, size=(WIDTH, HIDDEN))), T.Parameter(np.zeros(HIDDEN)),
        T.Parameter(gen.normal(0.0, 0.02, size=(HIDDEN, WIDTH))), T.Parameter(np.zeros(WIDTH)),
    )


def tags_of(pattern):
    return ModalityTags(np.array([c == "i" for c in pattern], dtype=bool))


def elastic_forward(layer, tokens, tags, capacity, strategy, rng):
    """The multimodal layer as model.forward composes it: route, scores and allocate, each FFN on its accepted
    rows, combine. ``route`` is looked up on its module, so the ``routing_objects_built`` fixture sees the call."""
    probabilities = router_module.route(layer.router, tokens)
    plan = allocate(probabilities, priority_scores(probabilities, tags, strategy), tags, capacity, strategy, rng=rng)
    outputs = [ffn_forward(ffn, T.take_rows(tokens, plan.accepted[expert]))
               for expert, ffn in ((LANGUAGE_FFN, layer.language_ffn), (VISION_FFN, layer.vision_ffn))]
    return T.combine(probabilities, outputs, plan.accepted), probabilities, plan


def ffn_arrays(ffn):
    return (ffn.w_up.data, ffn.b_up.data, ffn.w_down.data, ffn.b_down.data)


def test_ffn_forward_matches_scalar_oracle():
    ffn = dense_ffn()
    x = np.random.default_rng(0).normal(size=(5, WIDTH))
    got = ffn_forward(ffn, T.Tensor(x)).data
    np.testing.assert_allclose(got, oracles.ffn_scalar(x, *ffn_arrays(ffn)), rtol=1e-11, atol=1e-12)


def test_stage3_init_duplicates_weights_bit_exactly():
    dense = dense_ffn()
    layer = init_stage3_from_dense(dense)
    for (_, a), (_, b), (_, c) in zip(
        dense.parameters(), layer.language_ffn.parameters(), layer.vision_ffn.parameters()
    ):
        assert a.data.tobytes() == b.data.tobytes() == c.data.tobytes()
        assert a.data is not b.data and a.data is not c.data  # true copies
    np.testing.assert_array_equal(layer.router.weight.data, np.zeros((WIDTH, 2)))
    # apply_stage alone sets the flags of the duplicated layer
    model = build_model(ModelConfig(depth=1, width=WIDTH, heads=2, hidden=HIDDEN))
    apply_stage(model, 3)
    layer = model.blocks[0].evf
    assert layer.router.weight.trainable
    assert all(p.trainable for _, p in layer.vision_ffn.parameters())
    assert not any(p.trainable for _, p in layer.language_ffn.parameters())


def test_zero_router_output_is_half_the_dense_output():
    """Right after duplication, every gate sits at 0.5 and both FFNs equal
    the dense block, so the layer emits exactly half the dense output as
    long as nothing is dropped."""
    dense = dense_ffn(3)
    layer = init_stage3_from_dense(dense)
    x = np.random.default_rng(1).normal(size=(8, WIDTH))
    tags = tags_of("iittttit")
    out, _, plan = elastic_forward(layer, T.Tensor(x), tags, CapacityConfig(capacity_factor=2.0), Strategy.IMG_GBPR,
                                   RngKey(0))
    assert plan.dropped.size == 0
    want = 0.5 * ffn_forward(dense, T.Tensor(x)).data
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    assert allocation_stats(plan, tags).success_rate == 1.0


def test_dropped_tokens_emit_exact_zero_rows():
    layer = init_stage3_from_dense(dense_ffn())
    capacity = CapacityConfig(capacity_factor=0.5, redistribution_fraction=0.0)
    x = np.random.default_rng(2).normal(size=(10, WIDTH))
    out, _, plan = elastic_forward(layer, T.Tensor(x), tags_of("iiiiiiiiii"), capacity, Strategy.IMG_GBPR, RngKey(0))
    assert plan.dropped.size > 0
    for tok in plan.dropped:
        np.testing.assert_array_equal(out.data[tok], np.zeros(WIDTH))
    for tok in np.concatenate(plan.accepted):
        assert np.any(out.data[int(tok)] != 0.0)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_layer_output_matches_token_by_token_oracle(strategy):
    rng = np.random.default_rng(17)
    router = RouterParams(T.Parameter(rng.normal(0.0, 0.5, size=(WIDTH, 2))))
    layer = EvfLayerParams(
        router=router,
        language_ffn=dense_ffn(5),
        vision_ffn=dense_ffn(6),
    )
    x = rng.normal(size=(12, WIDTH))
    is_image = rng.integers(2, size=12).astype(bool)
    out, probabilities, plan = elastic_forward(layer, T.Tensor(x), ModalityTags(is_image),
                                               CapacityConfig(capacity_factor=0.75), strategy, RngKey(31))

    oracle_plan = oracles.allocation_oracle(
        probabilities.data, is_image, strategy.value,
        capacity_factor=0.75, seed=31,
    )
    assert [int(i) for i in plan.accepted[0]] == oracle_plan["accepted"][0]
    assert [int(i) for i in plan.accepted[1]] == oracle_plan["accepted"][1]
    want = oracles.evf_layer_reference(
        x, router.weight.data, ffn_arrays(layer.language_ffn), ffn_arrays(layer.vision_ffn), oracle_plan
    )
    np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-11)


def test_language_only_path_is_bitwise_dense_and_builds_no_routing_objects(routing_objects_built):
    dense = dense_ffn(9)
    layer = init_stage3_from_dense(dense)
    x = np.random.default_rng(4).normal(size=(7, WIDTH))
    out = ffn_forward(layer.language_ffn, T.Tensor(x))  # the language-only path of model.forward
    assert routing_objects_built == {"decisions": 0, "plans": 0}
    dense_out = ffn_forward(dense, T.Tensor(x)).data
    assert out.data.tobytes() == dense_out.tobytes()
    # the counter sees the multimodal path, so the zero above is not vacuous
    elastic_forward(layer, T.Tensor(x), tags_of("iiitttt"), CapacityConfig(), Strategy.IMG_GBPR, RngKey(0))
    assert routing_objects_built == {"decisions": 1, "plans": 1}


def test_language_only_zero_input_gives_constant_rows():
    """At x = 0 the up-projection is just b_up, so the output is a fixed
    affine image of the biases; checked against the scalar oracle."""
    ffn = dense_ffn(12)
    layer = init_stage3_from_dense(ffn)
    out = ffn_forward(layer.language_ffn, T.Tensor(np.zeros((3, WIDTH))))
    want = oracles.ffn_scalar(np.zeros((3, WIDTH)), *ffn_arrays(ffn))
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-14)
    assert np.ptp(out.data, axis=0).max() == 0.0


def test_gradients_flow_to_vision_and_router_but_not_language():
    layer = init_stage3_from_dense(dense_ffn(7))
    for _, p in layer.language_ffn.parameters():  # frozen as apply_stage(model, 3) freezes it
        p.set_trainable(False)
    x = np.random.default_rng(5).normal(size=(6, WIDTH))
    out, _, _ = elastic_forward(layer, T.Tensor(x), tags_of("iiittt"), CapacityConfig(capacity_factor=2.0),
                                Strategy.IMG_GBPR, RngKey(1))
    vision_w_up, router_weight, language_w_up, language_b_down = T.backward(T.sum_all(out), [
        layer.vision_ffn.w_up, layer.router.weight, layer.language_ffn.w_up, layer.language_ffn.b_down])
    assert float(np.abs(vision_w_up).max()) > 0.0
    assert float(np.abs(router_weight).max()) > 0.0
    np.testing.assert_array_equal(language_w_up, np.zeros((WIDTH, HIDDEN)))
    np.testing.assert_array_equal(language_b_down, np.zeros(WIDTH))


def test_gate_gradient_matches_finite_differences_with_fixed_allocation():
    """Perturbing the router changes the gates smoothly while the assignment
    stays fixed (margins are wide here), so FD and backward must agree."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, WIDTH))
    tags = tags_of("iiittt")
    weight0 = rng.normal(0.0, 0.3, size=(WIDTH, 2))

    def build(router_weight_param):
        layer = EvfLayerParams(
            router=RouterParams(router_weight_param),
            language_ffn=dense_ffn(1),
            vision_ffn=dense_ffn(2),
        )
        out, _, _ = elastic_forward(layer, T.Tensor(x), tags, CapacityConfig(capacity_factor=2.0), Strategy.IMG_GBPR,
                                    RngKey(0))
        return T.sum_all(out)

    param = T.Parameter(weight0)
    (grad,) = T.backward(build(param), [param])

    def f(w):
        return build(T.Parameter(w)).item()

    (fd,) = oracles.finite_difference_grads(f, [weight0], eps=1e-6)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_layer_shape_contracts():
    layer = init_stage3_from_dense(dense_ffn())
    with pytest.raises(ShapeError):
        elastic_forward(layer, T.Tensor(np.zeros((4, WIDTH + 1))), tags_of("tttt"), CapacityConfig(), Strategy.IMG_GBPR,
                        RngKey(0))
    with pytest.raises(ShapeError):
        EvfLayerParams(
            router=RouterParams.zeros(WIDTH + 1),
            language_ffn=dense_ffn(),
            vision_ffn=dense_ffn(),
        )
    with pytest.raises(ShapeError):
        ffn_forward(dense_ffn(), T.Tensor(np.zeros((2, WIDTH - 1))))

