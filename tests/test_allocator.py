"""Allocation: capacity arithmetic, priority scores, strategy selection,
redistribution, stability margins, stats, and full-plan equivalence against
the straight-line oracle. Hypothesis drives the structural invariants."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evf import tensor as T
from evf.allocator import (
    CapacityConfig,
    ModalityTags,
    PriorityScores,
    Strategy,
    allocate,
    allocation_stats,
    compute_capacity,
    priority_scores,
)
from evf.cli import _plan_record
from evf.errors import ConfigError, ContractError
from evf.router import LANGUAGE_FFN, VISION_FFN, RoutingDecision
from evf.seeds import RngKey


def make_decision(probabilities):
    """Build a decision from explicit probabilities (rows must sum to 1)."""
    p = np.asarray(probabilities, dtype=np.float64)
    logits = T.Tensor(np.log(np.maximum(p, 1e-300)))
    return RoutingDecision(logits, T.Tensor(p))


def random_decision(rng, n):
    logits = rng.normal(0.0, 2.0, size=(n, 2))
    p = T.softmax_rows(T.Tensor(logits)).data
    return make_decision(p)


def tags_of(pattern):
    """'i' / 't' shorthand per token, e.g. tags_of('iitt')."""
    return ModalityTags(np.array([c == "i" for c in pattern], dtype=bool))


def run_full(decision, tags, strategy, cfg, redistribution=None, rng=RngKey(0)):
    scores = priority_scores(decision, tags, strategy)
    return allocate(decision, scores, tags, cfg, strategy, rng=rng, redistribution=redistribution)


def assert_plan_matches_oracle(plan, want):
    assert plan.capacity == want["capacity"]
    assert [int(i) for i in plan.accepted[LANGUAGE_FFN]] == want["accepted"][0]
    assert [int(i) for i in plan.accepted[VISION_FFN]] == want["accepted"][1]
    assert [int(i) for i in plan.dropped] == want["dropped"]
    assert plan.redistributed == want["redistributed"]


# ---------------------------------------------------------------------------
# capacity


def test_capacity_known_values():
    cfg = CapacityConfig(capacity_factor=1.5)
    assert compute_capacity(20, cfg) == 15
    assert compute_capacity(1, cfg) == 1
    assert compute_capacity(2, cfg) == 2
    assert compute_capacity(100, CapacityConfig(capacity_factor=1.0)) == 50
    # the ceil guard: 1.2 * 5 / 2 = 3.0000000000000004 in floats, must stay 3
    assert compute_capacity(5, CapacityConfig(capacity_factor=1.2)) == 3
    assert compute_capacity(3, CapacityConfig(capacity_factor=0.5)) == 1


def test_capacity_floors_at_one():
    assert compute_capacity(1, CapacityConfig(capacity_factor=0.1)) == 1


def test_capacity_rejects_empty_batch():
    with pytest.raises(ContractError):
        compute_capacity(0, CapacityConfig())


@given(st.integers(1, 2048), st.floats(0.05, 4.0))
def test_capacity_matches_oracle(n, factor):
    got = compute_capacity(n, CapacityConfig(capacity_factor=factor))
    assert got == oracles.capacity_oracle(n, factor)


def test_capacity_config_validation():
    with pytest.raises(ConfigError):
        CapacityConfig(capacity_factor=0.0)
    with pytest.raises(ConfigError):
        CapacityConfig(redistribution_fraction=1.5)


# ---------------------------------------------------------------------------
# priority scores


def test_gbpr_scores_are_exactly_the_probabilities():
    decision = random_decision(np.random.default_rng(0), 8)
    tags = tags_of("iiiitttt")
    scores = priority_scores(decision, tags, Strategy.GBPR)
    np.testing.assert_array_equal(scores.values, decision.probabilities.data)
    # and a private copy: mutating the scores must not touch the decision
    scores.values[0, 0] = 99.0
    assert decision.probabilities.data[0, 0] != 99.0


def test_img_gbpr_scores_add_the_fixed_modality_prior():
    decision = make_decision([[0.3, 0.7], [0.8, 0.2]])
    scores = priority_scores(decision, tags_of("it"), Strategy.IMG_GBPR)
    np.testing.assert_allclose(scores.values, [[0.3, 1.7], [1.8, 0.2]], rtol=0, atol=0)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_img_gbpr_prior_separates_modalities(n, seed):
    """With the +1 prior, every image token outranks every text token in the
    vision column and vice versa, regardless of the router output."""
    rng = np.random.default_rng(seed)
    decision = random_decision(rng, n)
    is_image = rng.integers(2, size=n).astype(bool)
    tags = ModalityTags(is_image)
    s = priority_scores(decision, tags, Strategy.IMG_GBPR).values
    if is_image.any() and (~is_image).any():
        assert s[is_image, VISION_FFN].min() > s[~is_image, VISION_FFN].max()
        assert s[~is_image, LANGUAGE_FFN].min() > s[is_image, LANGUAGE_FFN].max()
    assert np.all((s >= 0.0) & (s <= 2.0))


def test_priority_scores_rejects_tag_mismatch():
    decision = make_decision([[0.5, 0.5]])
    with pytest.raises(ContractError):
        priority_scores(decision, tags_of("it"), Strategy.GBPR)


def test_allocate_names_the_mismatched_count():
    decision = make_decision([[0.5, 0.5]] * 4)
    scores = priority_scores(decision, tags_of("tttt"), Strategy.GBPR)
    with pytest.raises(ContractError, match="allocate: 3 tags for 4 tokens"):
        allocate(decision, scores, tags_of("ttt"), CapacityConfig(), Strategy.GBPR, rng=RngKey(0))
    short = PriorityScores(scores.values[:3])
    with pytest.raises(ContractError, match="allocate: 3 score rows for 4 tokens"):
        allocate(decision, short, tags_of("tttt"), CapacityConfig(), Strategy.GBPR, rng=RngKey(0))


# ---------------------------------------------------------------------------
# selection per strategy


def test_gbpr_keeps_top_scores_with_index_tiebreak():
    # capacity 2 per side; tokens 1 and 3 tie at 0.8 for vision, lower index wins
    p = np.array(
        [[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.2, 0.8], [0.4, 0.6]]
    )
    decision = make_decision(p)
    tags = tags_of("ttttt")
    cfg = CapacityConfig(capacity_factor=0.8)  # capacity = 2
    plan = run_full(decision, tags, Strategy.GBPR, cfg)
    assert plan.capacity == 2
    assert list(plan.accepted[VISION_FFN]) == [0, 1]
    assert list(plan.accepted[LANGUAGE_FFN]) == [2]
    assert list(plan.dropped) == [3, 4]


def test_under_capacity_accepts_everyone():
    decision = random_decision(np.random.default_rng(5), 10)
    plan = run_full(decision, tags_of("iiittttttt"), Strategy.IMG_GBPR, CapacityConfig())
    assert sum(plan.loads) == 10
    assert plan.dropped.size == 0


def test_random_selection_matches_seeded_oracle():
    rng = np.random.default_rng(11)
    decision = random_decision(rng, 64)
    tags = ModalityTags(rng.integers(2, size=64).astype(bool))
    cfg = CapacityConfig(capacity_factor=0.75)
    plan = run_full(decision, tags, Strategy.RANDOM, cfg, rng=RngKey(123))
    want = oracles.allocation_oracle(
        decision.probabilities.data, tags.is_image, "random", capacity_factor=0.75, seed=123
    )
    assert_plan_matches_oracle(plan, want)


def test_random_respects_explicit_rng_key():
    decision = random_decision(np.random.default_rng(2), 30)
    tags = tags_of("t" * 30)
    cfg = CapacityConfig(capacity_factor=0.5)
    scores = priority_scores(decision, tags, Strategy.RANDOM)
    a = allocate(decision, scores, tags, cfg, Strategy.RANDOM, rng=RngKey(77))
    b = allocate(decision, scores, tags, cfg, Strategy.RANDOM, rng=RngKey(77))
    c = allocate(decision, scores, tags, cfg, Strategy.RANDOM, rng=RngKey(78))
    assert a.signature() == b.signature()
    assert a.signature() != c.signature()


def test_modality_prior_dominates_even_against_the_router():
    """Text-only batch whose router prefers vision: img_gbpr still sends
    every token to the language FFN when capacity allows."""
    p = np.tile([[0.1, 0.9]], (6, 1))
    decision = make_decision(p)
    plan = run_full(decision, tags_of("tttttt"), Strategy.IMG_GBPR, CapacityConfig(capacity_factor=2.0))
    assert list(plan.accepted[LANGUAGE_FFN]) == [0, 1, 2, 3, 4, 5]
    assert plan.accepted[VISION_FFN].size == 0


# ---------------------------------------------------------------------------
# redistribution


def test_redistribution_fraction_zero_drops_all_rejects():
    rng = np.random.default_rng(4)
    decision = random_decision(rng, 12)
    tags = tags_of("iiiiiiiiiitt")  # 10 image tokens, capacity 3: 7 vision rejects
    cfg = CapacityConfig(capacity_factor=0.5, redistribution_fraction=0.0)
    plan = run_full(decision, tags, Strategy.IMG_GBPR, cfg)
    assert plan.capacity == 3
    assert plan.redistributed == ()
    assert plan.dropped.size == 12 - sum(plan.loads)


def test_redistribution_moves_rejects_into_slack():
    # 4 image candidates against capacity 2; language side has 2 free slots
    p = np.tile([[0.5, 0.5]], (4, 1))
    decision = make_decision(p)
    cfg = CapacityConfig(capacity_factor=1.0, redistribution_fraction=1.0)
    plan = run_full(decision, tags_of("iiii"), Strategy.IMG_GBPR, cfg)
    assert plan.capacity == 2
    assert sum(plan.loads) == 4
    assert plan.dropped.size == 0
    assert len(plan.redistributed) == 2
    assert all(src == VISION_FFN and dst == LANGUAGE_FFN for _, src, dst in plan.redistributed)


def test_partial_fraction_rounds_half_up():
    # 5 rejects at w=0.5 -> floor(2.5 + 0.5) = 3 offers? no: floor(0.5*5+0.5)=3
    p = np.tile([[0.5, 0.5]], (9, 1))
    decision = make_decision(p)
    tags = tags_of("iiiiiiiii")
    cfg = CapacityConfig(capacity_factor=0.8, redistribution_fraction=0.5)
    plan = run_full(decision, tags, Strategy.IMG_GBPR, cfg, rng=RngKey(9))
    # vision keeps 4 of its 9 candidates: 5 rejects
    assert plan.capacity == 4 and plan.loads[VISION_FFN] == 4
    # 3 of 5 offered, language side has capacity 4, all 3 land there
    assert len(plan.redistributed) == 3
    assert plan.dropped.size == 2


def test_redistribution_switch_overrides_strategy_default():
    rng = np.random.default_rng(14)
    decision = random_decision(rng, 16)
    tags = ModalityTags(np.repeat([True, False], 8))
    cfg = CapacityConfig(capacity_factor=0.5)
    gbpr_with = run_full(decision, tags, Strategy.GBPR, cfg, redistribution=True)
    gbpr_without = run_full(decision, tags, Strategy.GBPR, cfg, redistribution=False)
    img_off = run_full(decision, tags, Strategy.IMG_GBPR, cfg, redistribution=False)
    assert img_off.redistributed == ()  # rejects drop when the switch is forced off
    assert img_off.dropped.size == 16 - sum(img_off.loads)
    assert gbpr_without.redistributed == ()
    assert sum(gbpr_with.loads) >= sum(gbpr_without.loads)


def test_full_fraction_redistribution_never_drops_more_than_without():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 40))
        decision = random_decision(rng, n)
        tags = ModalityTags(rng.integers(2, size=n).astype(bool))
        cfg_on = CapacityConfig(capacity_factor=0.6, redistribution_fraction=1.0)
        cfg_off = CapacityConfig(capacity_factor=0.6, redistribution_fraction=0.0)
        dropped_on = run_full(decision, tags, Strategy.IMG_GBPR, cfg_on, rng=RngKey(trial)).dropped.size
        dropped_off = run_full(decision, tags, Strategy.IMG_GBPR, cfg_off, rng=RngKey(trial)).dropped.size
        assert dropped_on <= dropped_off


# ---------------------------------------------------------------------------
# oracle equivalence and structural invariants


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 48),
    seed=st.integers(0, 2**31 - 1),
    factor=st.sampled_from([0.4, 0.75, 1.0, 1.25, 1.5, 2.0]),
    fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
)
def test_plan_equals_straight_line_oracle(n, seed, factor, fraction, strategy):
    rng = np.random.default_rng(seed)
    decision = random_decision(rng, n)
    tags = ModalityTags(rng.integers(2, size=n).astype(bool))
    cfg = CapacityConfig(capacity_factor=factor, redistribution_fraction=fraction)
    plan = run_full(decision, tags, strategy, cfg, rng=RngKey(seed))
    want = oracles.allocation_oracle(
        decision.probabilities.data,
        tags.is_image,
        strategy.value,
        capacity_factor=factor,
        redistribution_fraction=fraction,
        seed=seed,
    )
    assert_plan_matches_oracle(plan, want)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 256),
    seed=st.integers(0, 2**31 - 1),
    factor=st.floats(0.1, 3.0),
    strategy=st.sampled_from(list(Strategy)),
)
def test_plan_invariants(n, seed, factor, strategy):
    """Every token lands in exactly one bucket; loads never exceed capacity;
    identical inputs give bit-identical plans."""
    rng = np.random.default_rng(seed)
    decision = random_decision(rng, n)
    tags = ModalityTags(rng.integers(2, size=n).astype(bool))
    cfg = CapacityConfig(capacity_factor=factor)
    plan = run_full(decision, tags, strategy, cfg, rng=RngKey(seed))

    assert plan.loads[0] <= plan.capacity and plan.loads[1] <= plan.capacity
    buckets = np.concatenate([plan.accepted[0], plan.accepted[1], plan.dropped])
    assert buckets.size == n
    np.testing.assert_array_equal(np.sort(buckets), np.arange(n))
    for arr in (*plan.accepted, plan.dropped):
        assert np.all(np.diff(arr) > 0) or arr.size <= 1

    again = run_full(decision, tags, strategy, cfg, rng=RngKey(seed))
    assert again.signature() == plan.signature()


# ---------------------------------------------------------------------------
# stability margin


def reference_margin(probabilities, is_image, strategy, capacity):
    """Straight-line stability margin: the smallest |vision - language| score
    gap over the tokens and, for score-ranked strategies, the gap between the
    last kept and the first rejected score of each over-capacity column.
    Random ranks nothing, so only its probability gaps count."""
    rows = []
    for (lang, vis), image in zip(probabilities.tolist(), is_image.tolist()):
        if strategy is Strategy.IMG_GBPR:
            lang, vis = (lang, vis + 1.0) if image else (lang + 1.0, vis)
        rows.append((lang, vis))
    margin = min(abs(vis - lang) for lang, vis in rows)
    if strategy is not Strategy.RANDOM:
        for ffn in (LANGUAGE_FFN, VISION_FFN):
            column = sorted(
                (row[ffn] for row in rows if (VISION_FFN if row[1] > row[0] else LANGUAGE_FFN) == ffn),
                reverse=True,
            )
            if len(column) > capacity:
                margin = min(margin, column[capacity - 1] - column[capacity])
    return margin


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 1),
    factor=st.floats(0.1, 0.9),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
)
def test_plan_margin_equals_straight_line_reference(n, seed, factor, fraction, strategy):
    rng = np.random.default_rng(seed)
    decision = random_decision(rng, n)
    tags = ModalityTags(rng.integers(2, size=n).astype(bool))
    cfg = CapacityConfig(capacity_factor=factor, redistribution_fraction=fraction)
    plan = run_full(decision, tags, strategy, cfg, rng=RngKey(seed))
    want = reference_margin(decision.probabilities.data, tags.is_image, strategy, plan.capacity)
    assert plan.margin == want


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 512),
    seed=st.integers(0, 2**31 - 1),
    levels=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=3, unique=True),
    factor=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25]),
    fraction=st.sampled_from([0.0, 0.5, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
)
def test_tie_heavy_plan_and_margin_equal_the_references(n, seed, levels, factor, fraction, strategy):
    """Few distinct probabilities (all 0.5/0.5 when levels is [0.5], as from a
    zero router) tie many tokens at every capacity boundary and among the
    redistribution offers; each tie must go to the lower token index."""
    rng = np.random.default_rng(seed)
    vision = np.asarray(levels)[rng.integers(len(levels), size=n)]
    decision = make_decision(np.column_stack([1.0 - vision, vision]))
    tags = ModalityTags(rng.random(n) < rng.random())
    cfg = CapacityConfig(capacity_factor=factor, redistribution_fraction=fraction)
    plan = run_full(decision, tags, strategy, cfg, rng=RngKey(seed))
    want = oracles.allocation_oracle(
        decision.probabilities.data,
        tags.is_image,
        strategy.value,
        capacity_factor=factor,
        redistribution_fraction=fraction,
        seed=seed,
    )
    assert_plan_matches_oracle(plan, want)
    assert plan.margin == reference_margin(decision.probabilities.data, tags.is_image, strategy, plan.capacity)


def test_margin_reads_the_capacity_boundary_gap():
    # three vision candidates at 0.9 / 0.85 / 0.7 against capacity 2: the
    # boundary gap 0.15 is below every per-token gap (0.8, 0.7, 0.4, 0.6)
    decision = make_decision([[0.1, 0.9], [0.15, 0.85], [0.3, 0.7], [0.8, 0.2]])
    cfg = CapacityConfig(capacity_factor=1.0)
    plan = run_full(decision, tags_of("tttt"), Strategy.GBPR, cfg)
    assert list(plan.dropped) == [2]
    assert plan.margin == 0.85 - 0.7
    # random selection has no score boundary, only the per-token gaps
    assert run_full(decision, tags_of("tttt"), Strategy.RANDOM, cfg).margin == 0.7 - 0.3


# ---------------------------------------------------------------------------
# stats and serialization


def test_allocation_stats_accounting():
    p = np.array([[0.1, 0.9]] * 4 + [[0.9, 0.1]] * 2)
    decision = make_decision(p)
    tags = tags_of("iiiitt")
    cfg = CapacityConfig(capacity_factor=1.0, redistribution_fraction=0.0)
    plan = run_full(decision, tags, Strategy.IMG_GBPR, cfg)
    stats = allocation_stats(plan, tags)
    assert stats.capacity == 3
    assert stats.loads == (2, 3)
    assert stats.dropped == 1
    assert stats.success_rate == pytest.approx(5 / 6)
    assert stats.drop_rate == pytest.approx(1 / 6)
    assert stats.image_acceptance == pytest.approx(3 / 4)
    assert stats.text_acceptance == 1.0
    doc = asdict(stats)
    assert doc["accepted_language"] == 2 and doc["accepted_vision"] == 3


def test_plan_json_round_trip_field_names():
    decision = make_decision(np.tile([[0.5, 0.5]], (4, 1)))
    plan = run_full(decision, tags_of("iiii"), Strategy.IMG_GBPR, CapacityConfig(capacity_factor=1.0))
    doc = _plan_record(plan)
    assert set(doc) == {
        "strategy", "n_tokens", "capacity", "accepted", "dropped", "redistributed", "loads",
    }
    assert doc["strategy"] == "img_gbpr"
    assert sorted(doc["accepted"]["language"] + doc["accepted"]["vision"] + doc["dropped"]) == [0, 1, 2, 3]
    for move in doc["redistributed"]:
        assert move["from"] == "vision" and move["to"] == "language"

