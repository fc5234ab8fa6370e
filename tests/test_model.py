"""Micro-model integration: deterministic builds, the packed forward against
the plain-numpy reference, stage-3 surgery, language preservation, the
synthetic task, training loop artifacts, and the checkpoint container."""

import gc
import json
import math
import os
import re
import sys
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import oracles
from evf import tensor as T
from evf.allocator import AllocationStats, CapacityConfig, Strategy
from evf.checkpoint import load_model, save_model
from evf.config import decode
from evf.errors import ConfigError, ContractError, NumericError
from evf.model import (
    LANGUAGE_ONLY,
    MULTIMODAL,
    MicroModel,
    ModelConfig,
    SyntheticTask,
    TokenBatch,
    TrainConfig,
    _metrics_row,
    _parameter_count,
    _probability_histogram,
    apply_stage,
    build_model,
    compute_loss,
    enter_stage3,
    forward,
    forward_stages,
    train,
)
from evf.router import LANGUAGE_FFN, VISION_FFN
from evf.seeds import RngKey
from evf.training import OptimizerConfig, combined_digest, grad_check, parameter_digests

TINY = dict(
    depth=2, width=8, heads=2, hidden=12, vocab=10,
    image_feature_dim=5, image_tokens=2, image_noise=0.05,
    num_keys=3, text_len=4, batch_sequences=2, max_seq_len=16,
)


def tiny_cfg(**overrides):
    return ModelConfig(**{**TINY, **overrides})


def weight_map(model):
    """Parameter name -> array, with any elastic layer's language FFN also
    exposed under the dense slot names the oracle expects."""
    w = {name: p.data for name, p, _ in model.named_parameters()}
    for block in model.blocks:
        if block.evf is not None:
            for k, p in block.evf.language_ffn.parameters():
                w[f"blocks.{block.index}.ffn.{k}"] = p.data
    return w


def batch_arrays(batch):
    """Per-sequence text ids and image feature rows (None when a sequence has none) of a packed batch."""
    ids = np.split(batch.text_ids, np.cumsum(batch.text_counts)[:-1])
    feats = [None] * len(ids)
    if batch.features is not None:
        feats = np.split(batch.features, np.cumsum(batch.image_counts)[:-1])
    return ids, [f if len(f) else None for f in feats]


def packed(*sequences):
    """A batch of (text ids, image feature rows or None) sequences, packed in order."""
    feats = [np.asarray(f) for _, f in sequences if f is not None]
    return TokenBatch(np.concatenate([np.asarray(ids) for ids, _ in sequences]), [len(ids) for ids, _ in sequences],
                      np.concatenate(feats) if feats else None, [0 if f is None else len(f) for _, f in sequences])


# ---------------------------------------------------------------------------
# construction


def test_build_is_deterministic():
    cfg = tiny_cfg()
    a = build_model(cfg)
    b = build_model(cfg)
    assert combined_digest(
        [(n, p) for n, p, _ in a.named_parameters()]
    ) == combined_digest([(n, p) for n, p, _ in b.named_parameters()])
    c = build_model(tiny_cfg(seed=1))
    assert combined_digest([(n, p) for n, p, _ in a.named_parameters()]) != combined_digest(
        [(n, p) for n, p, _ in c.named_parameters()]
    )


def test_default_elastic_indices_are_even_blocks():
    assert ModelConfig().evf_layer_indices == (0, 2)
    assert tiny_cfg().evf_layer_indices == (0,)
    assert ModelConfig(depth=6, width=8, heads=2).evf_layer_indices == (0, 2, 4)
    assert tiny_cfg(evf_layer_indices=(1,)).evf_layer_indices == (1,)


def test_model_config_validation_and_round_trip():
    with pytest.raises(ConfigError):
        tiny_cfg(width=9)  # not divisible by heads
    with pytest.raises(ConfigError):
        tiny_cfg(evf_layer_indices=(0, 0))
    with pytest.raises(ConfigError):
        tiny_cfg(evf_layer_indices=(5,))
    assert tiny_cfg(depth=3, evf_layer_indices=(2, 0)).evf_layer_indices == (0, 2)  # entries 0 to depth - 1
    for bad in (-1, 3):
        with pytest.raises(ConfigError, match=re.escape(f"evf_layer_indices entry {bad} outside [0, 3)")):
            tiny_cfg(depth=3, evf_layer_indices=(0, bad))
    with pytest.raises(ConfigError):
        decode(ModelConfig, {"depht": 4}, "model")
    with pytest.raises(ConfigError):
        decode(ModelConfig, {"strategy": "greedy"}, "model")
    cfg = tiny_cfg(strategy="gbpr")
    assert cfg.strategy is Strategy.GBPR
    again = decode(ModelConfig, json.loads(json.dumps(asdict(cfg))), "model")
    assert again == cfg


# Every size field at its lower bound, 1; no image tokens, so one text token fills max_seq_len.
ONES = dict(depth=1, width=1, heads=1, hidden=1, vocab=1, image_feature_dim=1, image_tokens=0, num_keys=1,
            text_len=1, batch_sequences=1, max_seq_len=1)


def test_a_model_with_every_size_at_one_trains():
    cfg = ModelConfig(**ONES)
    result = train(build_model(cfg), SyntheticTask(cfg), TrainConfig(steps=1))
    assert [row["step"] for row in result.metrics] == [0, 1]
    assert all(math.isfinite(row["loss_total"]) for row in result.metrics)


@pytest.mark.parametrize("name", [name for name, value in ONES.items() if value == 1])
def test_a_size_of_zero_is_refused(name):
    with pytest.raises(ConfigError, match=f"^{name} must be at least 1, got 0$"):
        ModelConfig(**{**ONES, name: 0})


def test_model_config_size_limits_are_inclusive():
    """The documented limits, as literals: depth 1024, 2^25 parameters, 2^16 batch tokens, 2^22 task-table entries."""
    ModelConfig(**{**ONES, "depth": 1024})
    with pytest.raises(ConfigError, match="^depth must be at most 1024, got 1025$"):
        ModelConfig(**{**ONES, "depth": 1025})

    # Each position-table row holds `width` = 1 scalars, so max_seq_len steps the count by one.
    spare = 2**25 - _parameter_count(ModelConfig(**ONES))
    assert _parameter_count(ModelConfig(**{**ONES, "max_seq_len": 1 + spare})) == 2**25
    with pytest.raises(ConfigError, match=f"^the model would have {2**25 + 1} parameters, more than {2**25}$"):
        ModelConfig(**{**ONES, "max_seq_len": 2 + spare})

    # Sequences of 2 image + 2 text tokens: a product and a sum, each checked.
    four = {**ONES, "image_tokens": 2, "text_len": 2, "max_seq_len": 4}
    ModelConfig(**{**four, "batch_sequences": 2**14})
    with pytest.raises(ConfigError, match=f"^a batch of {2**14 + 1} sequences would have {2**16 + 4} tokens, more "
                                          f"than {2**16}$"):
        ModelConfig(**{**four, "batch_sequences": 2**14 + 1})

    # Tables of num_keys x (vocab + image_feature_dim) = num_keys x 4 entries.
    tables = {**ONES, "vocab": 3}
    ModelConfig(**{**tables, "num_keys": 2**20})
    with pytest.raises(ConfigError, match=f"^the task tables would have {2**22 + 4} entries, more than {2**22}$"):
        ModelConfig(**{**tables, "num_keys": 2**20 + 1})


def test_aux_weight_is_finite_and_non_negative():
    assert TrainConfig(steps=1, aux_weight=0.0).aux_weight == 0.0
    assert TrainConfig(steps=1, aux_weight=sys.float_info.max).aux_weight == sys.float_info.max
    for bad in (-sys.float_info.min, math.inf, math.nan):
        message = f"aux_weight must be finite and non-negative, got {bad}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(steps=1, aux_weight=bad)


def test_a_one_step_run_schedules_over_one_step():
    """The final row's rate is the schedule's at step 1 of 1: the peak, past a warmup of one step."""
    cfg = tiny_cfg()
    optimizer = OptimizerConfig(learning_rate=0.01, warmup_ratio=0.9)
    result = train(build_model(cfg), SyntheticTask(cfg), TrainConfig(steps=1, optimizer=optimizer))
    assert [row["lr"] for row in result.metrics] == [0.0, 0.01]


@pytest.mark.parametrize("overrides", [{}, {"depth": 3, "evf_layer_indices": (1, 2)}, {"evf_layer_indices": ()}])
def test_parameter_count_is_that_of_the_built_stage3_model(overrides):
    cfg = tiny_cfg(**overrides)
    model = build_model(cfg)
    apply_stage(model, 3)
    assert _parameter_count(cfg) == sum(p.data.size for _, p, _ in model.named_parameters())


def test_stage_freeze_flags():
    model = build_model(tiny_cfg())
    assert model.stage == 2
    groups = {name: (p.trainable, g) for name, p, g in model.named_parameters()}
    assert all(t for t, _ in groups.values())  # stage 2: everything trains
    enter_stage3(model)
    for name, p, group in model.named_parameters():
        assert p.trainable == (group in ("router", "vision_ffn")), name
    trainable_names = {n for n, _ in model.trainable_parameters()}
    assert trainable_names == {
        "blocks.0.evf.router.weight",
        "blocks.0.evf.vision_ffn.w_up",
        "blocks.0.evf.vision_ffn.b_up",
        "blocks.0.evf.vision_ffn.w_down",
        "blocks.0.evf.vision_ffn.b_down",
    }
    with pytest.raises(ContractError):
        enter_stage3(model)


def test_apply_stage_allows_1_2_3_3_and_does_the_surgery_once():
    model = build_model(tiny_cfg())
    apply_stage(model, 1)
    assert {n for n, _ in model.trainable_parameters()} == {"adapter.weight", "adapter.bias"}
    for stage in (2, 3):
        apply_stage(model, stage)
        assert model.stage == stage
    before = [(n, id(p)) for n, p, _ in model.named_parameters()]
    apply_stage(model, 3)
    assert [(n, id(p)) for n, p, _ in model.named_parameters()] == before
    with pytest.raises(ContractError, match="cannot return to a dense stage after entering stage 3"):
        apply_stage(model, 2)
    assert model.stage == 3
    assert all(p.trainable == (g in ("router", "vision_ffn")) for _, p, g in model.named_parameters())


def test_stage_is_not_a_constructor_argument():
    """Only apply_stage moves the stage, so stage 3 always means the surgery is done."""
    assert [f.init for f in fields(MicroModel) if f.name == "stage"] == [False]
    assert build_model(tiny_cfg()).stage == 2


# ---------------------------------------------------------------------------
# forward against the plain-numpy reference


def test_dense_forward_matches_reference():
    cfg = tiny_cfg(evf_layer_indices=())
    model = build_model(cfg)
    task = SyntheticTask(cfg)
    batch = task.sample_batch(RngKey(3))
    got = forward(model, batch, MULTIMODAL).logits.data
    ids, feats = batch_arrays(batch)
    want = oracles.dense_forward_reference(weight_map(model), cfg.depth, cfg.heads, ids, feats)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_each_sequence_attends_only_to_itself():
    """In a mixed-length batch, a sequence's logits are those it has run alone."""
    cfg = tiny_cfg()
    model = build_model(cfg)
    gen = np.random.default_rng(4)
    sequences = [([1, 2, 3, 4], gen.normal(size=(2, cfg.image_feature_dim))), ([5, 6, 7], None), ([8], None)]
    batch = packed(*sequences)
    assert batch.lengths == (6, 3, 1)
    logits = forward(model, batch).logits.data
    start = 0
    for seq, length in zip(sequences, batch.lengths):
        alone = forward(model, packed(seq)).logits.data
        np.testing.assert_allclose(logits[start:start + length], alone, rtol=0, atol=1e-12)
        start += length
    assert start == logits.shape[0]


def test_stage3_with_slack_capacity_equals_half_gated_dense_reference():
    """With zero routers, duplicated FFNs and capacity for everyone, each
    elastic block contributes exactly half its dense output."""
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=2.0))
    model = build_model(cfg)
    enter_stage3(model)
    task = SyntheticTask(cfg)
    batch = task.sample_batch(RngKey(8))
    result = forward(model, batch, MULTIMODAL)
    for layer in result.layers:
        assert layer.plan.dropped.size == 0
    ids, feats = batch_arrays(batch)
    scales = [0.5 if i in cfg.evf_layer_indices else 1.0 for i in range(cfg.depth)]
    want = oracles.dense_forward_reference(
        weight_map(model), cfg.depth, cfg.heads, ids, feats, ffn_scale=scales
    )
    np.testing.assert_allclose(result.logits.data, want, rtol=1e-10, atol=1e-10)


def test_language_only_is_bitwise_identical_before_and_is_dense(routing_objects_built, text_batch):
    cfg = tiny_cfg()
    dense = build_model(cfg)
    batch = text_batch(cfg, RngKey(5), sequences=3)
    dense_logits = forward(dense, batch, MULTIMODAL).logits.data

    elastic = build_model(cfg)
    enter_stage3(elastic)
    built_before = dict(routing_objects_built)
    got = forward(elastic, batch, LANGUAGE_ONLY).logits.data
    assert routing_objects_built == built_before
    assert got.tobytes() == dense_logits.tobytes()


def test_default_stage3_loss_graph_size(tensor_ops_built):
    model = build_model(ModelConfig())
    enter_stage3(model)
    batch = SyntheticTask(model.cfg).sample_batch(RngKey(0))
    before = dict(tensor_ops_built)
    compute_loss(model, batch, RngKey(1))
    # Ops below the first trainable parameter (block 0's attention and
    # everything before it at stage 3) are not graph nodes.
    assert tensor_ops_built["ops"] - before["ops"] == 83
    assert tensor_ops_built["graph_nodes"] - before["graph_nodes"] == 65


def test_compute_loss_refuses_a_batch_without_targets_before_the_forward(tensor_ops_built, text_batch):
    model = build_model(ModelConfig())
    enter_stage3(model)
    batch = text_batch(model.cfg, RngKey(0))
    with pytest.raises(ContractError, match="compute_loss requires targets on every sequence"):
        compute_loss(model, batch, RngKey(1))
    assert tensor_ops_built == {"ops": 0, "graph_nodes": 0}
    assert batch._memo == []  # no stage ran, so none was kept


def test_compute_loss_builds_no_telemetry(monkeypatch):
    """Allocation stats and the probability histogram are built where the
    metrics rows are written, not by the loss a grad-check probe evaluates."""
    counts = {"stats": 0, "histograms": 0}
    stats_init, histogram = AllocationStats.__init__, _probability_histogram

    def counting_stats(self, *args, **kwargs):
        counts["stats"] += 1
        stats_init(self, *args, **kwargs)

    def counting_histogram(*args, **kwargs):
        counts["histograms"] += 1
        return histogram(*args, **kwargs)

    monkeypatch.setattr(AllocationStats, "__init__", counting_stats)
    monkeypatch.setattr("evf.model._probability_histogram", counting_histogram)
    cfg = tiny_cfg(depth=3)
    model = build_model(cfg)
    enter_stage3(model)
    compute_loss(model, SyntheticTask(cfg).sample_batch(RngKey(3)), RngKey(4))
    assert counts == {"stats": 0, "histograms": 0}
    # the counters see the writer, so the zeros above are not vacuous
    train(model, SyntheticTask(cfg), TrainConfig(stage=3, steps=1))
    layers = len(cfg.evf_layer_indices)
    assert counts == {"stats": 2 * layers, "histograms": 2 * layers}


def test_probability_histogram_counts_as_np_histogram():
    edges = np.linspace(0.0, 1.0, 11)
    near = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    in_range = near[(near >= 0.0) & (near <= 1.0)]  # probabilities never leave [0, 1]
    inputs = [edges, in_range, np.array([0.0, 1.0]), np.random.default_rng(0).random(10_000)]
    for p in inputs:
        expected, _ = np.histogram(p, bins=10, range=(0.0, 1.0))
        assert _probability_histogram(p) == expected.tolist()


@pytest.mark.parametrize("name", ["head.bias", "blocks.0.evf.router.weight"])
def test_compute_loss_rejects_non_finite(name):
    """Huge but finite weights overflow the loss; compute_loss raises NumericError (exit 3 in the CLI)."""
    cfg = tiny_cfg()
    model = build_model(cfg)
    enter_stage3(model)
    param = {n: p for n, p, _ in model.named_parameters()}[name]
    param.assign(np.arange(1.0, param.data.size + 1.0).reshape(param.data.shape) * 1e307)
    batch = SyntheticTask(cfg).sample_batch(RngKey(3))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
        compute_loss(model, batch, RngKey(4))


def test_row_variance_overflow_raises_instead_of_a_silent_zero_row():
    """One huge but finite embedding column overflows a layer-norm variance; numpy only warns."""
    cfg = tiny_cfg()
    model = build_model(cfg)
    enter_stage3(model)
    tokens = model.embed_tokens.data.copy()
    tokens[:, 0] = 1e300
    model.embed_tokens.assign(tokens)
    batch = SyntheticTask(cfg).sample_batch(RngKey(3))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="layer_norm: non-finite row variance"):
        compute_loss(model, batch, RngKey(4))


def test_multimodal_without_images_routes_all_text_to_language():
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=2.0))
    model = build_model(cfg)
    enter_stage3(model)
    batch = TokenBatch(np.tile(np.arange(4), 2), [4, 4])
    result = forward(model, batch, MULTIMODAL)
    assert batch.features is None
    for layer in result.layers:
        assert layer.plan.loads == (8, 0)
        assert layer.plan.dropped.size == 0


def test_forward_validation_errors():
    cfg = tiny_cfg()
    model = build_model(cfg)
    with pytest.raises(ContractError, match="mode"):
        forward(model, packed(([0], None)), "both")
    too_long = packed((np.zeros(30, dtype=int), None))
    with pytest.raises(ContractError, match="max_seq_len"):
        forward(model, too_long)
    too_long_with_images = packed(([0], None), (np.zeros(15, dtype=int), np.zeros((2, cfg.image_feature_dim))))
    with pytest.raises(ContractError, match="sequence 1 has 17 tokens, max_seq_len is 16"):
        forward(model, too_long_with_images)
    with pytest.raises(ContractError, match="token ids"):
        forward(model, packed(([99], None)))
    with pytest.raises(ContractError, match="sequence 1 has token ids"):
        forward(model, packed(([0], None), ([1, -1], None)))
    bad_feats = packed(([1], np.zeros((1, 3))))
    with pytest.raises(ContractError, match="feature dim"):
        forward(model, bad_feats)
    with pytest.raises(ContractError, match="sequence 1 image feature dim 3 does not match adapter dim 5"):
        forward(model, packed(([1], None), ([2], np.zeros((1, 3)))))
    with_images = packed(([1], np.zeros((1, cfg.image_feature_dim))))
    with pytest.raises(ContractError, match="image"):
        forward(model, with_images, LANGUAGE_ONLY)


@pytest.mark.parametrize("args, message", [
    (([], []), "batch must contain at least one sequence, got text counts of shape (0,)"),
    (([1, 2], [[1, 1]]), "batch must contain at least one sequence, got text counts of shape (1, 2)"),
    (([1], [1], None, [0, 0]), "image counts of shape (2,) for 1 sequences"),
    (([1], [1, 0]), "sequence 1 has 0 text tokens and 0 image rows, where at least 1 and 0 are needed"),
    (([1], [1, 0], np.zeros((1, 5)), [0, 1]), "sequence 1 has 0 text tokens and 1 image rows"),
    (([1, 2], [1, 1], np.zeros((1, 5)), [2, -1]), "sequence 1 has 1 text tokens and -1 image rows"),
    (([1, 2], [1, 2]), "2 text ids for text counts that sum to 3"),
    (([1, 2, 3], [1, 1]), "3 text ids for text counts that sum to 2"),
    (([1, 2], [1, 1], np.zeros((3, 5)), [1, 1]), "3 image rows for image counts that sum to 2"),
    (([1, 2], [1, 1], None, [1, 0]), "0 image rows for image counts that sum to 1"),
    (([1, 2], [1, 1], np.zeros(2), [1, 1]), "image features must be 2-d, got shape (2,)"),
    (([1, 2], [1, 1], None, None, [1, 2, 3]), "targets shape (3,) does not match text_ids (2,)"),
    (([[1, 2]], [2]), "text_ids must be 1-d, got shape (1, 2)"),
    (([], [1]), "0 text ids for text counts that sum to 1"),  # an empty list reads as float64 and passes
    (([1.7, 2.2], [1.9, 0.5]), "text_ids must be integers, got dtype float64"),
    (([1.0, 2.0], [2]), "text_ids must be integers, got dtype float64"),
    (([True, False], [2]), "text_ids must be integers, got dtype bool"),
    (([1, 2], [1.9, 0.5]), "text_counts must be integers, got dtype float64"),
    (([1, 2], [True, True]), "text_counts must be integers, got dtype bool"),
    (([1, 2], [1, 1], np.zeros((2, 5)), [1.0, 1.0]), "image_counts must be integers, got dtype float64"),
    (([1, 2], [1, 1], None, [False, False]), "image_counts must be integers, got dtype bool"),
    (([1, 2], [2], None, None, [0.5, 1.0]), "targets must be integers, got dtype float64"),
    (([1, 2], [2], None, None, [True, False]), "targets must be integers, got dtype bool"),
    (([1, 2], [2], None, None, np.array([1, 2], dtype=object)), "targets must be integers, got dtype object"),
])
def test_a_token_batch_refuses_malformed_input(args, message):
    with pytest.raises(ContractError, match=re.escape(message)):
        TokenBatch(*args)


def test_a_token_batch_holds_read_only_copies_and_its_layout():
    ids, feats, targets = np.array([3, 1, 4]), np.ones((2, 5)), np.array([1, 5, 9])
    batch = TokenBatch(ids, [1, 2], feats, [2, 0], targets)
    ids[0], feats[0, 0], targets[0] = 0, 0.0, 0  # the caller's arrays stay the caller's
    assert (batch.text_ids.tolist(), batch.features[0, 0], batch.targets.tolist()) == ([3, 1, 4], 1.0, [1, 5, 9])
    assert batch.lengths == (3, 2)
    assert batch.positions.tolist() == [0, 1, 2, 0, 1]
    assert batch.tags.is_image.tolist() == [True, True, False, False, False]
    assert batch.text_rows.tolist() == [2, 3, 4]
    assert batch.rows.tolist() == [0, 1, 3 + 2, 1 + 2, 4 + 2]  # image rows sit above the token table
    for name in ("text_ids", "text_counts", "features", "image_counts", "targets", "positions", "text_rows", "rows"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        batch.tags.is_image[0] = False
    text = TokenBatch([7, 8], [1, 1], np.zeros((0, 5)), [0, 0])
    assert text.features is None and text.targets is None
    assert text.rows.tolist() == [7, 8] and text.positions.tolist() == [0, 0]


def test_forward_allocation_is_deterministic_per_rng_key():
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=0.5))
    model = build_model(cfg)
    enter_stage3(model)
    task = SyntheticTask(cfg)
    batch = task.sample_batch(RngKey(11))
    a = forward(model, batch, MULTIMODAL, rng=RngKey(100))
    b = forward(model, batch, MULTIMODAL, rng=RngKey(100))
    default1 = forward(model, batch, MULTIMODAL)
    default2 = forward(model, batch, MULTIMODAL)
    assert a.allocation_signature() == b.allocation_signature()
    assert default1.allocation_signature() == default2.allocation_signature()
    assert a.logits.data.tobytes() == b.logits.data.tobytes()


def test_an_rng_less_forward_allocates_with_the_evaluation_key():
    """Without an rng the plan comes from domain 4 of the model's seed. Random allocation of an
    over-capacity batch keeps the tokens its key draws, so the key shows in the signature."""
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=0.5), strategy="random")
    model = build_model(cfg)
    enter_stage3(model)
    batch = SyntheticTask(cfg).sample_batch(RngKey(11))
    rngless = forward(model, batch)
    evaluation = forward(model, fresh(batch), rng=RngKey(cfg.seed).child(4))
    assert rngless.allocation_signature() == evaluation.allocation_signature()
    assert rngless.logits.data.tobytes() == evaluation.logits.data.tobytes()
    allocation = forward(model, fresh(batch), rng=RngKey(cfg.seed).child(3))
    assert allocation.allocation_signature() != rngless.allocation_signature()


# ---------------------------------------------------------------------------
# resuming a forward from the batch's cached stages


def grad_check_setup():
    """The default stage-3 model and a grad-check-shaped batch (1 sequence, 2 image + 4 text tokens)."""
    model = build_model(ModelConfig())
    apply_stage(model, 3)
    batch = SyntheticTask(model.cfg).sample_batch(RngKey(7), sequences=1, text_len=4)
    return model, batch


def fresh(batch, text_ids=None):
    """The same sequences in a batch that has no cached stages, with other text ids if given."""
    ids = batch.text_ids if text_ids is None else text_ids
    return TokenBatch(ids, batch.text_counts, batch.features, batch.image_counts, batch.targets)


def perturbed(p, delta=1e-5, index=0):
    value = p.data.copy()
    value.reshape(-1)[index] += delta
    return value


def test_the_stages_name_the_forward_in_order_and_read_every_parameter_once():
    def names(model, mode):
        return [name for name, _, _ in forward_stages(model, mode)]

    def reads(model, mode):
        stages = [p for _, params, _ in forward_stages(model, mode) for p in params]
        return [id(p) for p in stages + [model.ln_final.gain, model.ln_final.bias, model.head_weight, model.head_bias]]

    dense, elastic = build_model(ModelConfig()), build_model(ModelConfig())
    apply_stage(elastic, 3)
    dense_names = ["embed", *(f"blocks.{i}.{stage}" for i in range(4) for stage in ("attn", "ffn"))]
    assert names(dense, MULTIMODAL) == dense_names
    assert names(elastic, MULTIMODAL) == [
        "embed", "blocks.0.attn", "blocks.0.route", "blocks.0.language_ffn", "blocks.0.vision_ffn",
        "blocks.1.attn", "blocks.1.ffn",
        "blocks.2.attn", "blocks.2.route", "blocks.2.language_ffn", "blocks.2.vision_ffn",
        "blocks.3.attn", "blocks.3.ffn",
    ]
    assert names(elastic, LANGUAGE_ONLY) == dense_names
    for model in (dense, elastic):
        assert reads(model, MULTIMODAL) == [id(p) for _, p, _ in model.named_parameters()]
    language = [id(p) for _, p, group in elastic.named_parameters() if group not in ("router", "vision_ffn")]
    assert reads(elastic, LANGUAGE_ONLY) == language
    apply_stage(dense, 3)  # a stage switch rebuilds the list
    assert names(dense, MULTIMODAL) == names(elastic, MULTIMODAL)


def test_the_cached_stages_do_not_keep_their_model_alive():
    model = build_model(tiny_cfg())
    apply_stage(model, 3)
    forward(model, SyntheticTask(model.cfg).sample_batch(RngKey(1)))
    forward_stages(model, LANGUAGE_ONLY)
    alive = weakref.ref(model)
    gc.disable()  # reference counting alone must free it
    try:
        del model
        assert alive() is None
    finally:
        gc.enable()


def test_perturbed_loss_resumes_bit_identically_for_every_trainable_tensor():
    model, batch = grad_check_setup()
    rng = RngKey(8)
    compute_loss(model, batch, rng)
    for name, p in model.trainable_parameters():
        original = p.data
        for index in (0, p.data.size - 1):
            p.assign(perturbed(p, index=index))
            resumed, again = compute_loss(model, batch, rng), compute_loss(model, fresh(batch), rng)
            assert resumed.total.data.tobytes() == again.total.data.tobytes(), name
            assert resumed.forward.allocation_signature() == again.forward.allocation_signature(), name
        p.assign(original)


def tiny_grad_check_setup():
    """A stage-3 tiny model, a one-sequence batch and the loss callable grad_check probes."""
    model = build_model(tiny_cfg())
    apply_stage(model, 3)
    batch = SyntheticTask(model.cfg).sample_batch(RngKey(7), sequences=1)
    rng = RngKey(8)

    def loss_fn():
        result = compute_loss(model, batch, rng)
        return result.total, result.forward.allocation_signature()

    return model, batch, rng, loss_fn


def test_grad_check_builds_graph_nodes_for_its_base_loss_only(tensor_ops_built):
    model, batch, rng, loss_fn = tiny_grad_check_setup()
    before = dict(tensor_ops_built)
    compute_loss(model, fresh(batch), rng)
    base = {key: tensor_ops_built[key] - before[key] for key in before}
    before = dict(tensor_ops_built)
    report = grad_check(loss_fn, model.trainable_parameters())
    assert report.checked == sum(p.data.size for _, p in model.trainable_parameters())
    assert tensor_ops_built["graph_nodes"] - before["graph_nodes"] == base["graph_nodes"] > 0
    assert tensor_ops_built["ops"] - before["ops"] > 2 * report.checked  # the probes build ops, no nodes


def test_a_loss_after_grad_check_on_its_batch_gets_a_fresh_batchs_gradients():
    # The probes leave stages without a graph in the batch's memo; a loss that
    # needs one must not resume them.
    model, batch, rng, loss_fn = tiny_grad_check_setup()
    trainable = [p for _, p in model.trainable_parameters()]
    grad_check(loss_fn, model.trainable_parameters())
    grads = []
    for b in (batch, fresh(batch)):
        grads.append([g.tobytes() for g in T.backward(compute_loss(model, b, rng).total, trainable)])
    assert grads[0] == grads[1]
    assert any(np.frombuffer(g).any() for g in grads[0])


def test_backward_through_a_resumed_prefix_gives_the_same_gradients():
    model, batch = grad_check_setup()
    rng, trainable = RngKey(8), [p for _, p in model.trainable_parameters()]
    compute_loss(model, batch, rng)
    p = model.blocks[2].evf.vision_ffn.w_up
    p.assign(perturbed(p))
    grads = []
    for b in (batch, fresh(batch)):
        grads.append([g.tobytes() for g in T.backward(compute_loss(model, b, rng).total, trainable)])
    assert grads[0] == grads[1]


def test_a_newly_trainable_tensor_gets_its_gradient_on_the_same_batch():
    model, batch = grad_check_setup()
    rng = RngKey(8)
    compute_loss(model, batch, rng)  # block 0's attention is below every trainable tensor: no graph nodes
    wq = model.blocks[0].attn.wq
    wq.set_trainable(True)
    grads = []
    for b in (batch, fresh(batch)):
        grads.extend(T.backward(compute_loss(model, b, rng).total, [wq]))
    assert np.abs(grads[0]).max() > 0.0
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_changed_rng_mode_model_or_token_recomputes_from_the_embedding(tensor_ops_built, text_batch):
    model, batch = grad_check_setup()

    def ops(run):
        before = tensor_ops_built["ops"]
        out = run()
        return tensor_ops_built["ops"] - before, out

    full, _ = ops(lambda: forward(model, fresh(batch), MULTIMODAL, RngKey(1)))
    forward(model, batch, MULTIMODAL, RngKey(1))
    assert ops(lambda: forward(model, batch, MULTIMODAL, RngKey(1)))[0] == 2  # only ln_final and the head
    assert ops(lambda: forward(model, batch, MULTIMODAL, RngKey(2)))[0] == full
    twin = build_model(ModelConfig())  # the same bytes in other arrays
    apply_stage(twin, 3)
    assert ops(lambda: forward(twin, batch, MULTIMODAL, RngKey(2)))[0] == full

    with pytest.raises(ValueError, match="read-only"):  # a batch's tokens cannot change under its memo
        batch.text_ids[0] = (batch.text_ids[0] + 1) % model.cfg.vocab
    ids = batch.text_ids.copy()
    ids[0] = (ids[0] + 1) % model.cfg.vocab
    rebuilt = fresh(batch, ids)
    count, edited = ops(lambda: forward(twin, rebuilt, MULTIMODAL, RngKey(2)))
    assert count == full
    assert edited.logits.data.tobytes() == forward(twin, fresh(rebuilt), MULTIMODAL, RngKey(2)).logits.data.tobytes()

    text = text_batch(model.cfg, RngKey(3))
    multimodal, _ = ops(lambda: forward(model, text, MULTIMODAL))
    language, _ = ops(lambda: forward(model, fresh(text), LANGUAGE_ONLY))
    assert ops(lambda: forward(model, text, LANGUAGE_ONLY))[0] == language
    assert ops(lambda: forward(model, text, MULTIMODAL))[0] == multimodal


def test_a_replaced_config_recomputes_from_the_embedding():
    model, batch = grad_check_setup()
    forward(model, batch, MULTIMODAL, RngKey(1))
    model.cfg = replace(model.cfg, strategy=Strategy.GBPR)
    two_heads = forward(model, batch, MULTIMODAL, RngKey(1))
    assert [layer.plan.strategy for layer in two_heads.layers] == [Strategy.GBPR, Strategy.GBPR]
    model.cfg = replace(model.cfg, heads=4)
    resumed, again = forward(model, batch, MULTIMODAL, RngKey(1)), forward(model, fresh(batch), MULTIMODAL, RngKey(1))
    assert resumed.logits.data.tobytes() == again.logits.data.tobytes() != two_heads.logits.data.tobytes()


def test_the_cached_graph_is_freed_with_the_batch():
    model, batch = grad_check_setup()
    result = compute_loss(model, batch, RngKey(8))
    node = weakref.ref(result.forward.layers[1].probabilities.data)  # a Tensor has no weakref slot
    del result
    assert node() is not None  # held by the batch ...
    del batch
    assert node() is None  # ... and by nothing else


def test_reference_counting_frees_a_batch_while_its_loss_lives():
    # The batch owns its memo: a stage state or a result that held the batch
    # would make a cycle, and keep every stage output alive into backward.
    model, batch = grad_check_setup()
    result = compute_loss(model, batch, RngKey(8))
    alive = weakref.ref(batch)
    gc.disable()
    try:
        del batch
        assert alive() is None
    finally:
        gc.enable()
    assert result.total.requires_grad


def test_a_block2_probe_builds_fewer_ops_than_a_fresh_loss(tensor_ops_built):
    model, batch = grad_check_setup()
    rng = RngKey(8)
    compute_loss(model, batch, rng)
    p = model.blocks[2].evf.vision_ffn.b_down
    p.assign(perturbed(p))
    counts = []
    for b in (batch, fresh(batch)):
        before = tensor_ops_built["ops"]
        compute_loss(model, b, rng)
        counts.append(tensor_ops_built["ops"] - before)
    assert counts == [26, 83]  # the layer terms of the balance loss ride with blocks 0 and 2's routing


def probe_builds(model, batch, p, built):
    """What one perturbed loss on an already-forwarded batch adds to a fixture's counts."""
    rng = RngKey(8)
    compute_loss(model, batch, rng)
    p.assign(perturbed(p))
    before = dict(built)
    compute_loss(model, batch, rng)
    return {key: built[key] - before[key] for key in built}


def test_a_block2_vision_ffn_probe_reuses_its_layers_routing_and_allocation(routing_objects_built):
    model, batch = grad_check_setup()
    probe = probe_builds(model, batch, model.blocks[2].evf.vision_ffn.w_up, routing_objects_built)
    assert probe == {"decisions": 0, "plans": 0}


def test_a_block0_vision_ffn_probe_routes_only_the_layers_above_it(routing_objects_built):
    model, batch = grad_check_setup()
    probe = probe_builds(model, batch, model.blocks[0].evf.vision_ffn.b_down, routing_objects_built)
    assert probe == {"decisions": 1, "plans": 1}  # block 2's


def test_a_router_probe_rebuilds_its_own_layers_route(routing_objects_built):
    model, batch = grad_check_setup()
    assert probe_builds(model, batch, model.blocks[2].evf.router.weight, routing_objects_built) == {"decisions": 1, "plans": 1}
    model, batch = grad_check_setup()
    assert probe_builds(model, batch, model.blocks[0].evf.router.weight, routing_objects_built) == {"decisions": 2, "plans": 2}


# ---------------------------------------------------------------------------
# synthetic task


def test_task_targets_follow_a_single_key_permutation():
    cfg = tiny_cfg()
    task = SyntheticTask(cfg)
    batch = task.sample_batch(RngKey(2), sequences=6)
    ids, feats = batch_arrays(batch)
    for text_ids, targets, image_features in zip(ids, np.split(batch.targets, 6), feats):
        matches = [
            k for k in range(cfg.num_keys)
            if np.array_equal(task.permutations[k][text_ids], targets)
        ]
        assert matches, "targets must come from one of the key permutations"
        assert image_features.shape == (cfg.image_tokens, cfg.image_feature_dim)


def test_task_image_features_identify_the_key():
    cfg = tiny_cfg(image_noise=0.01)
    task = SyntheticTask(cfg)
    batch = task.sample_batch(RngKey(4), sequences=8)
    ids, feats = batch_arrays(batch)
    for text_ids, targets, image_features in zip(ids, np.split(batch.targets, 8), feats):
        true_k = [
            k for k in range(cfg.num_keys)
            if np.array_equal(task.permutations[k][text_ids], targets)
        ][0]
        dists = [
            float(np.linalg.norm(image_features[0] - task.key_vectors[k]))
            for k in range(cfg.num_keys)
        ]
        assert int(np.argmin(dists)) == true_k


def test_task_sampling_is_deterministic_and_text_batches_are_bare(text_batch):
    task = SyntheticTask(tiny_cfg())
    a = task.sample_batch(RngKey(9))
    b = task.sample_batch(RngKey(9))
    for name in ("text_ids", "text_counts", "features", "image_counts", "targets"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    text = text_batch(task.cfg, RngKey(9), sequences=4, text_len=3)
    assert text.features is None
    assert text.targets is None
    assert sum(text.lengths) == 12


# ---------------------------------------------------------------------------
# training loop


def test_short_training_reduces_loss_on_a_fixed_batch(tmp_path):
    """Stage 2 trains every parameter, so a short run must clearly beat the
    initial loss on a held-out batch (single-batch metrics are too noisy)."""
    cfg = tiny_cfg()
    model = build_model(cfg)
    task = SyntheticTask(cfg)
    probe = task.sample_batch(RngKey(777), sequences=8)
    before = compute_loss(model, probe, RngKey(778)).regressive
    train(model, task, TrainConfig(stage=2, steps=150, optimizer=OptimizerConfig(learning_rate=5e-3)), out_dir=tmp_path)
    after = compute_loss(model, probe, RngKey(778)).regressive
    assert len((tmp_path / "metrics.jsonl").read_text().splitlines()) == 151
    assert after < before - 0.1


def test_training_keeps_frozen_tensors_bit_identical():
    cfg = tiny_cfg()
    model = build_model(cfg)
    enter_stage3(model)
    frozen_before = {
        name: digest
        for (name, digest) in parameter_digests(
            [(n, p) for n, p, _ in model.named_parameters() if not p.trainable]
        ).items()
    }
    train(model, SyntheticTask(cfg), TrainConfig(stage=3, steps=25))
    frozen_after = parameter_digests(
        [(n, p) for n, p, _ in model.named_parameters() if not p.trainable]
    )
    assert frozen_after == frozen_before
    trainable_after = parameter_digests(model.trainable_parameters())
    assert any("vision_ffn" in n for n in trainable_after)


class _WatchedMemo(list):
    """A forward memo that keeps a weak reference to the array of every tensor a stage returns."""

    def __init__(self, arrays):
        super().__init__()
        self.arrays = arrays

    def append(self, entry):
        super().append(entry)
        out = entry[2]
        for value in out if isinstance(out, tuple) else (out,):
            if isinstance(value, T.Tensor):
                self.arrays.append(weakref.ref(value.data))


class OneGraphTask(SyntheticTask):
    """Asserts, as each batch is drawn, that the batch drawn before it and every stage
    output of its forward are gone. No gc.collect(): reference counting alone must free them."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.batches, self.arrays = [], []

    def assert_released(self):
        assert self.batches[-1]() is None, f"batch {len(self.batches) - 1} is still alive"
        alive = sum(ref() is not None for ref in self.arrays)
        assert not alive, f"{alive} of {len(self.arrays)} stage outputs of batch {len(self.batches) - 1} are alive"

    def sample_batch(self, *args, **kwargs):
        if self.batches:
            self.assert_released()
        batch = super().sample_batch(*args, **kwargs)
        self.arrays = []
        batch._memo = _WatchedMemo(self.arrays)
        self.batches.append(weakref.ref(batch))
        return batch


@pytest.mark.parametrize("sequences, steps", [(2, 3), (32, 3), (2, 0)])
def test_train_frees_each_steps_graph_before_the_next_batch(sequences, steps):
    cfg = tiny_cfg(batch_sequences=sequences)
    task = OneGraphTask(cfg)
    train(build_model(cfg), task, TrainConfig(steps=steps))
    assert len(task.batches) == steps + 1
    assert task.arrays  # the memo was watched
    task.assert_released()  # the final evaluation's graph does not outlive train either


@pytest.mark.parametrize("sequences", [2, 32])
def test_train_releases_each_batch_before_backward(monkeypatch, sequences):
    cfg = tiny_cfg(batch_sequences=sequences)
    task, backward, calls = OneGraphTask(cfg), T.backward, []

    def checked(loss, params):
        assert task.batches[-1]() is None, f"batch {len(task.batches) - 1} is alive at backward"
        calls.append(len(task.batches))
        return backward(loss, params)

    monkeypatch.setattr(T, "backward", checked)
    train(build_model(cfg), task, TrainConfig(steps=3))
    assert calls == [1, 2, 3]


def test_the_graph_held_after_a_default_32_sequence_loss_is_bounded():
    # The graph keeps edges and the arrays its VJPs read, not every stage
    # output: about 3.2 MiB here. Nodes that held their input tensors, and
    # with them every input array, would hold 5.7 MiB.
    cfg = ModelConfig(batch_sequences=32)
    model, task = build_model(cfg), SyntheticTask(cfg)
    apply_stage(model, 3)
    compute_loss(model, task.sample_batch(RngKey(1)), RngKey(2))  # fills the causal-mask cache and stage reads outside the trace
    batch = task.sample_batch(RngKey(3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute_loss(model, batch, RngKey(4))
        del batch
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.total.requires_grad
    assert held <= 4.0 * 2**20, f"{held / 2**20:.2f} MiB"


def test_train_holds_as_much_memory_after_400_steps_as_after_50():
    # Every row is in metrics.jsonl: train returns the first and the final row only.
    def held(steps):
        cfg = tiny_cfg()
        model, task = build_model(cfg), SyntheticTask(cfg)
        tracemalloc.start()
        try:
            gc.collect()  # a full collection empties the interpreter's free lists, which tracemalloc counts as held
            before = tracemalloc.get_traced_memory()[0]
            result = train(model, task, TrainConfig(steps=steps))
            assert [row["step"] for row in result.metrics] == [0, steps]
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    held(1)  # fills the module caches outside the measured runs
    assert abs(held(400) - held(50)) <= 64 * 2**10


def test_cannot_return_to_dense_after_stage3():
    cfg = tiny_cfg()
    model = build_model(cfg)
    enter_stage3(model)
    with pytest.raises(ContractError, match="dense"):
        train(model, SyntheticTask(cfg), TrainConfig(stage=2, steps=1))


def test_metrics_and_telemetry_files(tmp_path):
    cfg = tiny_cfg()
    model = build_model(cfg)
    result = train(model, SyntheticTask(cfg), TrainConfig(stage=3, steps=4), out_dir=tmp_path)
    metric_rows = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert [row["step"] for row in metric_rows] == [0, 1, 2, 3, 4]
    for row in metric_rows:
        assert row["loss_total"] == pytest.approx(
            row["loss_regressive"] + 0.001 * row["loss_aux"], abs=1e-12
        )
        assert len(row["layers"]) == len(cfg.evf_layer_indices)
    tele_rows = [json.loads(line) for line in (tmp_path / "telemetry.jsonl").read_text().splitlines()]
    assert len(tele_rows) == 5 * len(cfg.evf_layer_indices)
    assert {r["layer"] for r in tele_rows} == set(cfg.evf_layer_indices)
    assert result.checkpoint_path == tmp_path / "model_final.ckpt"


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_telemetry_record_shape(tmp_path, strategy):
    """At capacity factor 0.6 tokens are dropped, and each telemetry row still
    partitions the batch and histograms every token's vision probability."""
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=0.6), strategy=strategy)
    train(build_model(cfg), SyntheticTask(cfg), TrainConfig(stage=3, steps=5), out_dir=tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "telemetry.jsonl").read_text().splitlines()]
    assert [(r["step"], r["layer"]) for r in rows] == [(s, i) for s in range(6) for i in cfg.evf_layer_indices]
    for row in rows:
        assert row["strategy"] == strategy.value
        assert len(row["vision_probability_histogram"]) == 10
        assert sum(row["vision_probability_histogram"]) == row["n_tokens"]
        assert row["accepted_language"] + row["accepted_vision"] + row["dropped"] == row["n_tokens"]
        assert max(row["accepted_language"], row["accepted_vision"]) <= row["capacity"]
        assert row["success_rate"] == (row["n_tokens"] - row["dropped"]) / row["n_tokens"]
    assert any(row["dropped"] > 0 for row in rows)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_telemetry_row_holds_each_layers_balance_factors(strategy):
    """F is each FFN's accepted share of the batch, G the routing column means with the bits of ``T.col_mean``,
    and aux the layer's balance term F . G."""
    cfg = tiny_cfg(capacity=CapacityConfig(capacity_factor=0.6), strategy=strategy)
    model = build_model(cfg)
    apply_stage(model, 3)
    gen = np.random.default_rng(3)
    for i in cfg.evf_layer_indices:  # trained-looking routers, so that G is not (0.5, 0.5)
        weight = model.blocks[i].evf.router.weight
        weight.assign(gen.normal(0.0, 1.0, size=weight.data.shape))
    result = compute_loss(model, SyntheticTask(cfg).sample_batch(RngKey(4)), RngKey(5))
    rows = _metrics_row(cfg, 0, 0.0, result)["layers"]
    assert len(rows) == len(result.forward.layers) == len(cfg.evf_layer_indices)
    for row, layer in zip(rows, result.forward.layers):
        assert row["f_language"] == row["accepted_language"] / row["n_tokens"]
        assert row["f_vision"] == row["accepted_vision"] / row["n_tokens"]
        g = T.col_mean(layer.probabilities).data[[LANGUAGE_FFN, VISION_FFN]]
        assert np.array([row["g_language"], row["g_vision"]]).tobytes() == g.tobytes()
        assert row["g_language"] != row["g_vision"]
        assert row["g_language"] + row["g_vision"] == pytest.approx(1.0, abs=1e-12)
        term = row["f_language"] * row["g_language"] + row["f_vision"] * row["g_vision"]
        assert row["aux"] == layer.aux.item() == term


def row_counts(out_dir):
    return tuple(len((out_dir / name).read_text().splitlines()) for name in ("metrics.jsonl", "telemetry.jsonl"))


class FailingTask(SyntheticTask):
    """The synthetic task, but the batch for step ``fail_at`` raises after
    counting the rows already on disk."""

    def __init__(self, cfg, out_dir, fail_at):
        super().__init__(cfg)
        self.out_dir, self.fail_at, self.seen = out_dir, fail_at, None

    def sample_batch(self, key, sequences=None, text_len=None):
        if self.fail_at == 0:
            self.seen = row_counts(self.out_dir)
            raise RuntimeError("killed")
        self.fail_at -= 1
        return super().sample_batch(key, sequences, text_len)


@pytest.mark.parametrize("k", [0, 3])
def test_a_run_killed_at_step_k_leaves_k_rows(tmp_path, k):
    cfg = tiny_cfg(depth=3)
    task = FailingTask(cfg, tmp_path, k)
    with pytest.raises(RuntimeError, match="killed"):
        train(build_model(cfg), task, TrainConfig(stage=3, steps=6), out_dir=tmp_path)
    rows = (k, k * len(cfg.evf_layer_indices))  # two elastic layers at depth 3
    assert task.seen == rows  # on disk while the run was still going
    assert row_counts(tmp_path) == rows
    assert not (tmp_path / "model_final.ckpt").exists()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_preserves_forward_bits(tmp_path):
    cfg = tiny_cfg()
    model = build_model(cfg)
    task = SyntheticTask(cfg)
    train(model, task, TrainConfig(stage=3, steps=6))
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.stage == 3
    assert loaded.cfg == cfg
    batch = task.sample_batch(RngKey(21))
    a = forward(model, batch, MULTIMODAL, rng=RngKey(33))
    b = forward(loaded, batch, MULTIMODAL, rng=RngKey(33))
    assert a.logits.data.tobytes() == b.logits.data.tobytes()
    for (n1, p1, _), (n2, p2, _) in zip(model.named_parameters(), loaded.named_parameters()):
        assert n1 == n2 and p1.trainable == p2.trainable


def test_stage1_checkpoint_restores_the_stage1_flags(tmp_path):
    model = build_model(tiny_cfg())
    apply_stage(model, 1)
    save_model(model, tmp_path / "s1.ckpt")
    loaded = load_model(tmp_path / "s1.ckpt")
    assert loaded.stage == 1
    assert [(n, p.trainable) for n, p, _ in loaded.named_parameters()] == [
        (n, p.trainable) for n, p, _ in model.named_parameters()
    ]
    assert {n for n, _ in loaded.trainable_parameters()} == {"adapter.weight", "adapter.bias"}


def test_zero_step_training_checkpoint_equals_fresh_stage3(tmp_path):
    cfg = tiny_cfg()
    trained = build_model(cfg)
    train(trained, SyntheticTask(cfg), TrainConfig(stage=3, steps=0), out_dir=tmp_path)
    fresh = build_model(cfg)
    enter_stage3(fresh)
    loaded = load_model(tmp_path / "model_final.ckpt")
    assert combined_digest([(n, p) for n, p, _ in loaded.named_parameters()]) == combined_digest(
        [(n, p) for n, p, _ in fresh.named_parameters()]
    )


def test_checkpoint_writes_are_byte_identical(tmp_path):
    model = build_model(tiny_cfg())
    enter_stage3(model)
    save_model(model, tmp_path / "a.ckpt")
    save_model(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    model = build_model(tiny_cfg())
    save_model(model, path)
    before = path.read_bytes()
    enter_stage3(model)

    def full_disk(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("os.fsync", full_disk)
    with pytest.raises(OSError, match="No space"):
        save_model(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rename_is_made_durable_by_a_directory_fsync(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append("fsync dir" if os.path.samestat(os.fstat(fd), os.stat(tmp_path)) else "fsync other")
        fsync(fd)

    def recording_replace(src, dst):
        events.append("rename")
        replace(src, dst)

    monkeypatch.setattr("os.fsync", recording_fsync)
    monkeypatch.setattr("os.replace", recording_replace)
    save_model(build_model(tiny_cfg()), tmp_path / "model.ckpt")
    assert events == ["fsync other", "rename", "fsync dir"]  # the temp file, then the checkpoint's directory


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ContractError, match="magic"):
        load_model(bad)
