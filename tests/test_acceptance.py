"""End-to-end acceptance suite for the elastic vision FFN stack.

Eight checks, A1 through A8, covering language preservation, allocation
correctness, strategy ordering, gradient fidelity, loss arithmetic, freeze
discipline, and learning dynamics. Each test emits exactly one verdict line.
The heavyweight pieces (a 500-step stage-3 training run on the default
model) are shared through a module-scoped fixture.
"""

import json

import numpy as np
import pytest

import oracles
from evf import tensor as T
from evf.allocator import (
    CapacityConfig,
    ModalityTags,
    Strategy,
    allocate,
    allocation_stats,
    priority_scores,
)
from evf.cli import main as cli_main
from evf.model import (
    LANGUAGE_ONLY,
    ModelConfig,
    SyntheticTask,
    TrainConfig,
    build_model,
    compute_loss,
    enter_stage3,
    forward,
    train,
)
from evf.router import LANGUAGE_FFN, VISION_FFN
from evf.seeds import RngKey
from evf.training import parameter_digests


@pytest.fixture
def verdict(capsys):
    """Emit one pass/fail line per check, bypassing capture, then assert."""

    def emit(tag: str, ok: bool, detail: str) -> None:
        line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line

    return emit


def _decision(probabilities: np.ndarray) -> T.Tensor:
    return T.Tensor(np.asarray(probabilities, dtype=np.float64))


def _run_strategy(decision, tags, strategy, cfg, rng, redistribution=None):
    scores = priority_scores(decision, tags, strategy)
    return allocate(decision, scores, tags, cfg, strategy, rng=rng, redistribution=redistribution)


@pytest.fixture(scope="module")
def stage3_run(tmp_path_factory):
    """One 500-step stage-3 run on the default model, with its metrics.jsonl
    rows, plus an untouched stage-3 twin built from the same seed as the
    pre-training baseline."""
    cfg = ModelConfig()
    baseline = build_model(cfg)
    enter_stage3(baseline)
    trained = build_model(cfg)
    out = tmp_path_factory.mktemp("stage3_run")
    result = train(trained, SyntheticTask(cfg), TrainConfig(stage=3, steps=500), out_dir=out)
    return {
        "cfg": cfg,
        "baseline": baseline,
        "trained": result.model,
        "metrics": [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()],
    }


def test_a1_language_only_path_is_bit_exact_after_training(stage3_run, verdict, routing_objects_built, text_batch):
    cfg = stage3_run["cfg"]
    built_before = dict(routing_objects_built)
    matched = 0
    batches = 1000
    for i in range(batches):
        batch = text_batch(cfg, RngKey(1234, (i,)))
        before = forward(stage3_run["baseline"], batch, LANGUAGE_ONLY).logits.data
        after = forward(stage3_run["trained"], batch, LANGUAGE_ONLY).logits.data
        matched += before.tobytes() == after.tobytes()
    quiet = routing_objects_built == built_before
    verdict(
        "[A1] language-only bypass",
        matched == batches and quiet,
        f"{matched}/{batches} text batches bit-identical across 500 stage-3 steps, "
        f"routing untouched: {quiet}",
    )


def test_a2_capacity_and_conservation_hold_under_fuzz(verdict):
    gen = np.random.default_rng(20260823)
    instances = 10_000
    failures = 0
    first_failure = ""
    for case in range(instances):
        n = int(gen.integers(1, 513))
        strategy = Strategy(("random", "gbpr", "img_gbpr")[int(gen.integers(3))])
        factor = float(gen.uniform(0.2, 2.5))
        fraction = float(gen.uniform(0.0, 1.0))
        switch = (None, True, False)[int(gen.integers(3))]
        p_vision = gen.uniform(0.0, 1.0, n)
        tags = ModalityTags(gen.uniform(size=n) < 0.5)
        cfg = CapacityConfig(capacity_factor=factor, redistribution_fraction=fraction)
        plan = _run_strategy(
            _decision(np.stack([1.0 - p_vision, p_vision], axis=1)),
            tags, strategy, cfg, RngKey(int(gen.integers(1 << 30))), redistribution=switch,
        )
        language = [int(i) for i in plan.accepted[LANGUAGE_FFN]]
        vision = [int(i) for i in plan.accepted[VISION_FFN]]
        dropped = [int(i) for i in plan.dropped]
        ok = (
            plan.capacity == oracles.capacity_oracle(n, factor)
            and sorted(language + vision + dropped) == list(range(n))
            and len(language) <= plan.capacity
            and len(vision) <= plan.capacity
            and language == sorted(language)
            and vision == sorted(vision)
            and dropped == sorted(dropped)
        )
        if not ok:
            failures += 1
            if not first_failure:
                first_failure = f" first at case {case}: n={n} {strategy.value} factor={factor:.3f}"
    verdict(
        "[A2] capacity and conservation",
        failures == 0,
        f"{instances - failures}/{instances} fuzz instances (n in [1, 512], all strategies) "
        f"partition exactly within capacity{first_failure}",
    )


def test_a3_plans_match_the_independent_reimplementation(verdict):
    gen = np.random.default_rng(77)
    instances = 1000
    mismatches = 0
    for _ in range(instances):
        n = int(gen.integers(1, 33))
        strategy = Strategy(("random", "gbpr", "img_gbpr")[int(gen.integers(3))])
        factor = float(gen.choice([0.4, 0.75, 1.0, 1.25, 1.5, 2.0]))
        fraction = float(gen.choice([0.0, 0.25, 0.5, 1.0]))
        switch = (None, True, False)[int(gen.integers(3))]
        seed = int(gen.integers(1 << 30))
        p_vision = gen.uniform(0.001, 0.999, n)
        probabilities = np.stack([1.0 - p_vision, p_vision], axis=1)
        is_image = gen.uniform(size=n) < 0.5
        cfg = CapacityConfig(capacity_factor=factor, redistribution_fraction=fraction)
        plan = _run_strategy(
            _decision(probabilities), ModalityTags(is_image), strategy, cfg, RngKey(seed),
            redistribution=switch,
        )
        want = oracles.allocation_oracle(
            probabilities, is_image, strategy.value,
            capacity_factor=factor, redistribution_fraction=fraction, seed=seed,
            redistribution=switch,
        )
        same = (
            plan.capacity == want["capacity"]
            and [int(i) for i in plan.accepted[LANGUAGE_FFN]] == want["accepted"][0]
            and [int(i) for i in plan.accepted[VISION_FFN]] == want["accepted"][1]
            and [int(i) for i in plan.dropped] == want["dropped"]
            and plan.redistributed == want["redistributed"]
        )
        mismatches += not same
    verdict(
        "[A3] oracle equivalence",
        mismatches == 0,
        f"{instances - mismatches}/{instances} random plans (n <= 32, every strategy, "
        "seeded draws and redistribution included) identical to the straight-line oracle",
    )


def test_a4_modality_aware_allocation_drops_least_under_skew(verdict):
    n = 128
    tags = ModalityTags(np.array([True] * (n // 2) + [False] * (n // 2), dtype=bool))
    skews = (0.5, 0.6, 0.7, 0.8, 0.9)
    seeds = 100
    medians: dict[Strategy, dict[float, float]] = {s: {} for s in Strategy}
    counts_match = True
    for skew in skews:
        rates = {s: [] for s in Strategy}
        for seed in range(seeds):
            gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(41,)))
            p_vision = np.clip(gen.normal(skew, 0.15, n), 0.02, 0.98)
            decision = _decision(np.stack([1.0 - p_vision, p_vision], axis=1))
            dropped = {}
            for strategy in Strategy:
                cfg = CapacityConfig(capacity_factor=1.0)
                plan = _run_strategy(decision, tags, strategy, cfg, RngKey(seed))
                dropped[strategy] = allocation_stats(plan, tags).dropped
                rates[strategy].append(dropped[strategy] / n)
            # selection changes which tokens drop, never how many
            counts_match &= dropped[Strategy.GBPR] == dropped[Strategy.RANDOM]
        for strategy in Strategy:
            medians[strategy][skew] = float(np.median(rates[strategy]))

    chain = all(
        medians[Strategy.IMG_GBPR][s] <= medians[Strategy.GBPR][s] + 1e-12
        and medians[Strategy.GBPR][s] <= medians[Strategy.RANDOM][s] + 1e-12
        for s in skews
    )
    strict = all(
        medians[Strategy.IMG_GBPR][s] < medians[Strategy.GBPR][s] - 1e-9
        and medians[Strategy.IMG_GBPR][s] < medians[Strategy.RANDOM][s] - 1e-9
        for s in skews
        if s >= 0.7
    )
    grows = medians[Strategy.RANDOM][0.9] > medians[Strategy.RANDOM][0.5]

    # full collapse onto the vision column with slack capacity: random
    # selection should shed about a quarter of the batch
    collapse_rates = []
    for seed in range(seeds):
        p_vision = np.full(n, 0.97)
        decision = _decision(np.stack([1.0 - p_vision, p_vision], axis=1))
        cfg = CapacityConfig(capacity_factor=1.5)
        plan = _run_strategy(decision, tags, Strategy.RANDOM, cfg, RngKey(seed))
        collapse_rates.append(allocation_stats(plan, tags).dropped / n)
    collapse = float(np.median(collapse_rates))

    ok = chain and strict and counts_match and grows and 0.2 <= collapse <= 0.3
    gaps = ", ".join(
        f"{s:.1f}:{medians[Strategy.RANDOM][s] - medians[Strategy.IMG_GBPR][s]:+.3f}"
        for s in skews
    )
    verdict(
        "[A4] strategy ordering under skew",
        ok,
        f"median drops img_gbpr <= gbpr <= random at all skews, strict gap from 0.7 "
        f"(random-minus-img_gbpr {gaps}), gbpr/random counts identical: {counts_match}, "
        f"collapse drop {collapse:.3f} in [0.2, 0.3]",
    )


def test_a5_analytic_gradients_match_central_differences(tmp_path, verdict):
    rc = cli_main(["grad-check", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "grad_check_report.json").read_text())
    model = build_model(ModelConfig())
    enter_stage3(model)
    expected = sum(p.data.size for _, p in model.trainable_parameters())
    ok = (
        rc == 0
        and report["passed"] is True
        and report["max_rel_err"] < 1e-4
        and report["checked_scalars"] == expected
    )
    verdict(
        "[A5] gradient fidelity",
        ok,
        f"{report['checked_scalars']}/{expected} trainable scalars on the default model, "
        f"max rel err {report['max_rel_err']:.2e} < 1e-4 over "
        f"{len(report['instances'])} stable instances",
    )


def test_a6_loss_arithmetic_and_balanced_auxiliary(stage3_run, verdict):
    rows = stage3_run["metrics"]
    worst = max(
        abs(r["loss_total"] - (r["loss_regressive"] + 0.001 * r["loss_aux"]))
        for r in rows
    )

    # equal modality counts and a zeroed router give the floor value exactly
    cfg = ModelConfig(image_tokens=2, text_len=2)
    model = build_model(cfg)
    enter_stage3(model)
    result = compute_loss(model, SyntheticTask(cfg).sample_batch(RngKey(5)), RngKey(6))
    aux_gap = abs(result.aux - 0.5)
    mass_gap = max(
        float(np.abs(layer.probabilities.data.sum(axis=1) - 1.0).max())
        for layer in result.forward.layers
    )

    ok = worst < 1e-12 and aux_gap < 1e-12 and mass_gap < 1e-12
    verdict(
        "[A6] loss arithmetic",
        ok,
        f"total = regressive + 0.001*aux within {worst:.1e} over {len(rows)} metric rows, "
        f"balanced auxiliary off 0.5 by {aux_gap:.1e}, gate mass off 1 by {mass_gap:.1e}",
    )


def test_a7_stage3_training_moves_only_vision_ffn_and_router(stage3_run, verdict):
    before = parameter_digests(
        [(n, p) for n, p, _ in stage3_run["baseline"].named_parameters()]
    )
    after_params = list(stage3_run["trained"].named_parameters())
    after = parameter_digests([(n, p) for n, p, _ in after_params])
    trainable = {n for n, p, _ in after_params if p.trainable}
    changed = {n for n in after if after[n] != before[n]}
    elastic_only = all(".evf.vision_ffn." in n or ".evf.router." in n for n in trainable)
    ok = bool(trainable) and changed == trainable and elastic_only
    verdict(
        "[A7] freeze discipline",
        ok,
        f"{len(after) - len(trainable)} frozen tensors digest-identical after 500 steps, "
        f"all {len(trainable)} vision-FFN/router tensors moved, changed == trainable: "
        f"{changed == trainable}",
    )


def test_a8_stage3_training_reduces_regressive_loss(stage3_run, verdict):
    def held_out_eval(model, cfg):
        task = SyntheticTask(cfg)
        losses = [
            compute_loss(
                model, task.sample_batch(RngKey(9090, (i,))), RngKey(7070, (i,))
            ).regressive
            for i in range(20)
        ]
        return float(np.mean(losses))

    per_seed = []
    cfg0 = stage3_run["cfg"]
    rows = stage3_run["metrics"]
    per_seed.append((
        rows[0]["loss_regressive"], rows[500]["loss_regressive"],
        held_out_eval(stage3_run["baseline"], cfg0),
        held_out_eval(stage3_run["trained"], cfg0),
    ))
    for seed in range(1, 5):
        cfg = ModelConfig(seed=seed)
        model = build_model(cfg)
        enter_stage3(model)
        before = held_out_eval(model, cfg)
        result = train(model, SyntheticTask(cfg), TrainConfig(stage=3, steps=500))
        per_seed.append((
            result.metrics[0]["loss_regressive"],
            result.metrics[-1]["loss_regressive"],  # the final row: row 500
            before,
            held_out_eval(result.model, cfg),
        ))

    row_wins = sum(r500 < r0 for r0, r500, _, _ in per_seed)
    eval_wins = sum(after < before for _, _, before, after in per_seed)
    mean_delta = float(np.mean([before - after for _, _, before, after in per_seed]))
    ok = row_wins >= 4 and eval_wins >= 4
    verdict(
        "[A8] stage-3 learning",
        ok,
        f"regressive loss falls step 0 -> 500 in {row_wins}/5 seeds, held-out eval "
        f"improves in {eval_wins}/5 (mean delta {mean_delta:+.4f})",
    )
