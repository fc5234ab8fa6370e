"""Loss composition, the balance term and its minimum, optimizer numerics,
stage freeze groups, digests, and the finite-difference check engine."""

import math

import numpy as np
import pytest

import oracles
from evf import tensor as T
from evf.allocator import CapacityConfig, ModalityTags, Strategy, allocate, priority_scores
from evf.errors import ConfigError, ContractError, UnstableInstanceError
from evf.model import STAGE_GROUPS, ModelConfig, apply_stage, build_model
from evf.seeds import RngKey
from evf.training import (
    AdamW,
    OptimizerConfig,
    aux_loss,
    combined_digest,
    grad_check,
    layer_aux,
    learning_rate_at,
    parameter_digests,
    tensor_digest,
)


def decision_of(probabilities):
    return T.Tensor(np.asarray(probabilities, dtype=np.float64))


def plan_for(decision, pattern, factor=1.5, strategy=Strategy.GBPR):
    tags = ModalityTags(np.array([c == "i" for c in pattern], dtype=bool))
    scores = priority_scores(decision, tags, strategy)
    return allocate(decision, scores, tags, CapacityConfig(capacity_factor=factor), strategy,
                    rng=RngKey(0), redistribution=False)


# ---------------------------------------------------------------------------
# auxiliary balance loss


def aux_of(plans, decisions):
    """The balance loss of layers with these plans and decisions, folded as compute_loss folds it."""
    return aux_loss([layer_aux(plan, decision) for plan, decision in zip(plans, decisions)])


def test_aux_all_tokens_on_one_ffn_equals_that_column_mean():
    # every token accepted by language: F = (1, 0), so aux = G_language
    p = np.array([[0.9, 0.1], [0.7, 0.3], [0.6, 0.4]])
    decision = decision_of(p)
    plan = plan_for(decision, "ttt", factor=2.0)
    assert plan.loads == (3, 0)
    aux = aux_of([plan], [decision])
    assert aux.item() == pytest.approx(p[:, 0].mean(), abs=1e-15)


def test_aux_balanced_split_gives_half():
    p = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    decision = decision_of(p)
    plan = plan_for(decision, "tttt", factor=1.0)
    assert plan.loads == (2, 2)
    aux = aux_of([plan], [decision])
    # F = (1/2, 1/2) and G_l + G_v = 1, so F.G = 1/2 exactly
    assert aux.item() == pytest.approx(0.5, abs=1e-12)


def test_aux_matches_recount_oracle_across_layers():
    rng = np.random.default_rng(42)
    plans, decisions, raw_p, loads = [], [], [], []
    for _ in range(3):
        n = int(rng.integers(4, 20))
        p = T.softmax_rows(T.Tensor(rng.normal(size=(n, 2)))).data
        d = decision_of(p)
        plan = plan_for(d, "t" * n, factor=0.8)
        plans.append(plan)
        decisions.append(d)
        raw_p.append(p)
        loads.append(plan.loads)
    aux = aux_of(plans, decisions)
    want = oracles.aux_loss_recount(raw_p, loads)
    assert aux.item() == pytest.approx(want, abs=1e-14)


def test_aux_gradient_reaches_router_through_column_means():
    logits_param = T.Parameter(np.random.default_rng(3).normal(size=(6, 2)))
    decision = T.softmax_rows(logits_param)
    plan = plan_for(decision, "tttttt", factor=2.0)
    aux = aux_of([plan], [decision])
    (grad,) = T.backward(aux, [logits_param])
    assert float(np.abs(grad).max()) > 0.0

    def f(logits):
        return aux_of([plan], [T.softmax_rows(T.Tensor(np.asarray(logits)))]).item()

    (fd,) = oracles.finite_difference_grads(f, [logits_param.data], eps=1e-6)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_aux_minimized_near_balanced_router():
    """Sweep a single routing bias: the balance term is smallest when the
    split sits at one half."""
    n = 40
    values = {}
    for bias in np.linspace(-3.0, 3.0, 25):
        p1 = 1.0 / (1.0 + math.exp(-bias))
        p = np.tile([1.0 - p1, p1], (n, 1))
        # jitter so the argmax is strict per token only when biased
        decision = decision_of(p)
        plan = plan_for(decision, "t" * n, factor=2.0)
        aux = aux_of([plan], [decision])
        values[round(float(bias), 3)] = aux.item()
    best = min(values, key=values.get)
    assert abs(best) < 0.3
    assert values[3.0] > values[best] and values[-3.0] > values[best]


def test_aux_contract_errors():
    with pytest.raises(ContractError):
        aux_loss([])
    plan = plan_for(decision_of([[0.5, 0.5]]), "t")
    with pytest.raises(ContractError, match="1 tokens, probabilities 2"):
        layer_aux(plan, decision_of([[0.5, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# optimizer


def test_learning_rate_schedule_endpoints():
    cfg = OptimizerConfig(learning_rate=0.1, warmup_ratio=0.1)
    assert learning_rate_at(cfg, 0, 100) == 0.0
    assert learning_rate_at(cfg, 10, 100) == pytest.approx(0.1)
    assert learning_rate_at(cfg, 100, 100) == pytest.approx(0.0, abs=1e-15)
    mid = learning_rate_at(cfg, 55, 100)
    assert 0.0 < mid < 0.1


def test_learning_rate_schedule_hands_over_at_the_peak_and_ends_at_zero():
    # 3 warmup steps of 10: the cosine starts at exactly the peak, where the warmup line
    # would give 0.1 * 3 / 3 = 0.10000000000000002
    assert learning_rate_at(OptimizerConfig(learning_rate=0.1, warmup_ratio=0.3), 3, 10) == 0.1
    # a 2-step run, 1 of warmup: the decay spans the one step left and ends at zero
    assert [learning_rate_at(OptimizerConfig(learning_rate=0.1, warmup_ratio=0.0), step, 2)
            for step in range(3)] == [0.0, 0.1, 0.0]


def test_learning_rate_matches_reference_everywhere():
    cfg = OptimizerConfig(learning_rate=3e-3, warmup_ratio=0.03)
    for step in range(0, 501, 7):
        want = oracles.lr_schedule_reference(step, 500, 3e-3, 0.03)
        assert learning_rate_at(cfg, step, 500) == pytest.approx(want, abs=1e-18)


def test_adamw_scalar_trajectory_matches_hand_recurrence():
    cfg = OptimizerConfig(learning_rate=0.05, beta1=0.9, beta2=0.95, warmup_ratio=0.2)
    p = T.Parameter(np.array([[1.5]]))
    opt = AdamW([("p", p)], cfg, total_steps=10)
    grads = [0.3, -0.2, 0.5, 0.1, -0.4, 0.25, 0.0, 0.6, -0.1, 0.05]
    got = []
    for step, g in enumerate(grads):
        opt.step(step, [np.array([[g]])])
        got.append(float(p.data[0, 0]))
    want = oracles.adamw_reference(1.5, grads, 0.05, 0.2, 10)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_adamw_with_weight_decay_matches_reference():
    cfg = OptimizerConfig(learning_rate=0.01, weight_decay=0.1, warmup_ratio=0.0)
    p = T.Parameter(np.array([[2.0]]))
    opt = AdamW([("p", p)], cfg, total_steps=5)
    grads = [1.0, -1.0, 0.5, 0.2, -0.3]
    got = []
    for step, g in enumerate(grads):
        opt.step(step, [np.array([[g]])])
        got.append(float(p.data[0, 0]))
    want = oracles.adamw_reference(2.0, grads, 0.01, 0.0, 5, weight_decay=0.1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_adamw_never_touches_frozen_parameters():
    frozen = T.Parameter(np.random.default_rng(0).normal(size=(4, 4)))
    frozen.set_trainable(False)
    live = T.Parameter(np.zeros((2, 2)))
    before = frozen.data.tobytes()
    with pytest.raises(ContractError, match="'frozen' is frozen"):
        AdamW([("frozen", frozen), ("live", live)], OptimizerConfig(), total_steps=1000)
    opt = AdamW([("live", live)], OptimizerConfig(), total_steps=1000)
    for step in range(1000):
        opt.step(step, [np.full((2, 2), 0.1)])
    assert frozen.data.tobytes() == before
    assert float(np.abs(live.data).max()) > 0.0


def test_adamw_step_takes_one_gradient_per_parameter_in_order():
    a, b = T.Parameter(np.zeros((2, 2))), T.Parameter(np.ones(3))
    opt = AdamW([("a", a), ("b", b)], OptimizerConfig(), total_steps=10)
    before = a.data, b.data
    for grads in ([np.ones((2, 2))], [np.ones((2, 2)), np.ones(3), np.ones(3)]):
        with pytest.raises(ContractError, match=f"^AdamW.step: {len(grads)} gradients for 2 parameters$"):
            opt.step(1, grads)
    assert a.data is before[0] and b.data is before[1]  # a refused step updates nothing
    opt.step(1, [np.ones((2, 2)), -np.ones(3)])
    assert (a.data < 0.0).all() and (b.data > 1.0).all()


def test_adamw_refuses_a_repeated_name():
    a, b = T.Parameter(np.zeros((2, 2))), T.Parameter(np.ones((2, 2)))
    with pytest.raises(ContractError, match="'w' appears twice"):
        AdamW([("w", a), ("w", b)], OptimizerConfig(), total_steps=10)


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(warmup_ratio=1.0)
    for epsilon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="epsilon"):
            OptimizerConfig(epsilon=epsilon)
    with pytest.raises(ContractError):
        learning_rate_at(OptimizerConfig(), 0, 0)
    with pytest.raises(ContractError, match="AdamW: total_steps must be positive, got 0"):
        AdamW([], OptimizerConfig(), total_steps=0)
    # the lower bounds are inclusive
    cfg = OptimizerConfig(beta1=0.0, beta2=0.0, weight_decay=0.0, warmup_ratio=0.0)
    assert (cfg.beta1, cfg.beta2, cfg.weight_decay, cfg.warmup_ratio) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# stages and digests


def test_stage_schedule_groups():
    assert STAGE_GROUPS[1] == {"adapter"}
    assert STAGE_GROUPS[2] == {"adapter", "backbone"}
    assert STAGE_GROUPS[3] == {"vision_ffn", "router"}
    with pytest.raises(ConfigError):
        apply_stage(build_model(ModelConfig(depth=2, width=8, hidden=16, vocab=16)), 4)


def test_digests_are_stable_and_sensitive():
    a = np.arange(6.0).reshape(2, 3)
    d1 = tensor_digest(a)
    assert d1 == tensor_digest(a.copy())
    assert len(d1) == 64
    bumped = a.copy()
    bumped[0, 0] += 1e-15
    assert tensor_digest(bumped) != d1

    named = [("b", T.Parameter(a)), ("a", T.Parameter(a + 1))]
    digests = parameter_digests(named)
    assert set(digests) == {"a", "b"}
    # combined digest is order-independent because it sorts by name
    assert combined_digest(named) == combined_digest(list(reversed(named)))


# ---------------------------------------------------------------------------
# finite-difference engine


def quadratic_loss_fn(p, signature=("fixed",)):
    def loss_fn():
        return T.sum_all(T.mul(p, p)), signature

    return loss_fn


def test_grad_check_accepts_a_correct_gradient():
    p = T.Parameter(np.array([[0.7, -1.2], [0.4, 2.0]]))
    report = grad_check(quadratic_loss_fn(p), [("p", p)])
    assert report.checked == 4
    assert report.max_rel_err < 1e-9
    assert report.per_param["p"] < 1e-9


def test_grad_check_flags_a_corrupted_gradient():
    p = T.Parameter(np.array([[0.7, -1.2]]))
    report = grad_check(quadratic_loss_fn(p), [("p", p)], _corrupt_first_gradient=1e-2)
    assert report.max_rel_err > 1e-4
    assert report.worst == "p[0]"
    # the hook adds to the analytic 1.4, and the error is relative to the larger magnitude
    assert report.max_rel_err == pytest.approx(1e-2 / 1.41, rel=1e-6)


def test_a_corrupted_grad_check_leaves_the_next_gradient_as_it_was():
    p = T.Parameter(np.array([[0.7, -1.2]]))
    loss_fn = quadratic_loss_fn(p)
    assert grad_check(loss_fn, [("p", p)], _corrupt_first_gradient=1e-2).max_rel_err > 1e-4
    (grad,) = T.backward(loss_fn()[0], [p])
    np.testing.assert_array_equal(grad, [[1.4, -2.4]])


def test_grad_check_subset_partitions_cover_everything():
    p = T.Parameter(np.random.default_rng(1).normal(size=(3, 3)))
    full = grad_check(quadratic_loss_fn(p), [("p", p)])
    pieces = [grad_check(quadratic_loss_fn(p), [("p", p)], subset=(k, 4)) for k in range(4)]
    assert sum(r.checked for r in pieces) == full.checked == 9
    assert max(r.max_rel_err for r in pieces) == pytest.approx(full.max_rel_err, rel=1e-9)
    with pytest.raises(ContractError):
        grad_check(quadratic_loss_fn(p), [("p", p)], subset=(4, 4))
    assert grad_check(quadratic_loss_fn(p), [("p", p)], subset=(0, 1)).checked == 9


def test_grad_check_subset_counts_flat_indices_across_tensors():
    """Instance k of 3 probes the scalars whose flat index, counted over both tensors in order, is k mod 3."""
    a, b = T.Parameter(np.array([0.3, -0.4])), T.Parameter(np.array([[0.5, 0.6, -0.7]]))
    base = {"a": a.data, "b": b.data}
    probed = set()

    def loss_fn():
        for name, p in (("a", a), ("b", b)):
            if p.data is not base[name]:
                probed.add((name, int(np.flatnonzero(p.data != base[name])[0])))
        return T.sum_all(T.mul(a, a)) + T.sum_all(T.mul(b, b)), ()

    for k, want in enumerate([{("a", 0), ("b", 1)}, {("a", 1), ("b", 2)}, {("b", 0)}]):
        probed.clear()
        assert grad_check(loss_fn, [("a", a), ("b", b)], subset=(k, 3)).checked == len(want)
        assert probed == want


def test_grad_check_raises_on_signature_flip():
    p = T.Parameter(np.array([[0.5]]))

    def loss_fn():
        # the signature depends on the sign of a value straddling zero,
        # so any perturbation of a zero-crossing parameter flips it
        sig = (float(p.data[0, 0]) > 0.5,)
        return T.sum_all(T.mul(p, p)), sig

    with pytest.raises(UnstableInstanceError):
        grad_check(loss_fn, [("p", p)])


class ProbeFault(Exception):
    pass


@pytest.mark.parametrize("fault", ["flipped signature", "raising loss_fn"])
def test_grad_check_probes_record_no_graph_and_a_failing_probe_ends_that(fault):
    p = T.Parameter(np.array([[0.5]]))
    base = p.data
    recorded = []

    def loss_fn():
        loss = T.sum_all(T.mul(p, p))
        recorded.append(loss.requires_grad)
        if p.data is base:
            return loss, ("base",)
        if fault == "raising loss_fn":
            raise ProbeFault
        return loss, ("flipped",)

    with pytest.raises(UnstableInstanceError if fault == "flipped signature" else ProbeFault):
        grad_check(loss_fn, [("p", p)])
    assert recorded == [True, False]  # the base loss is a graph, the probe is not
    assert p.data is base
    assert T.mul(p, p).requires_grad


def test_grad_check_restores_parameters_and_handles_empty():
    p = T.Parameter(np.array([[1.0, 2.0]]))
    before = p.data.tobytes()
    grad_check(quadratic_loss_fn(p), [("p", p)])
    assert p.data.tobytes() == before

    frozen = T.Parameter(np.array([[1.0]]))
    frozen.set_trainable(False)
    report = grad_check(quadratic_loss_fn(frozen), [("frozen", frozen)])
    assert report.checked == 0 and report.max_rel_err == 0.0
