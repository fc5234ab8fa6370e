"""The four benchmark workloads.

Each workload has the same shape: ``setup`` builds everything a run needs and
runs one warm-up op (the runner repeats it and times the repeats);
``prepare(i)`` makes the inputs of timed unit ``i`` outside the clock;
``unit(state)`` is the timed unit and records per-op latencies in
``state.latencies_ns``; ``check(state)`` verifies the unit's outputs outside
the clock and returns a list of failures. ``finish`` runs the checks that
need several units. ``prepare(0)`` is also the fixed unit whose call counts
the traced run compares. Inputs derive from the workload seed only.

evf functions are looked up on their module at call time, so the tracer's
wrappers apply when it is installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import evf.allocator as allocator
import evf.model as model_mod
import evf.router as router
import evf.tensor as T
import evf.training as training
from evf.errors import UnstableInstanceError
from evf.seeds import RngKey

# Steps per train() run. Writes and the final eval forward are amortised over
# these; 20 keeps several runs of train_s32 inside one measurement.
TRAIN_STEPS = 20
# Model seeds per train workload run; each one repeats so that every repeat
# is checked byte for byte against its first run.
TRAIN_SEED_POOL = 2
AUX_WEIGHT = 0.001

# grad_check: the default grad-check batch (1 sequence, 2 image + 4 text
# tokens) and 1/40 of the trainable scalars per grad_check call.
GRAD_TEXT_LEN = 4
GRAD_STRIDE = 40
GRAD_TOLERANCE = 1e-4

# route_allocate: 3:1 image:text tokens, router skewed toward vision, and a
# capacity below the image count so every strategy rejects tokens and
# img_gbpr redistributes them.
ROUTE_TOKENS = 4096
ROUTE_BATCHES = 4
ROUTE_CAPACITY = allocator.CapacityConfig(capacity_factor=1.25, redistribution_fraction=0.75)
ROUTE_SKEW = 1.0


def derive_seed(*parts: int) -> int:
    """A 32-bit seed for a named purpose under the workload seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class UnitState:
    index: int
    ops: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    data: dict = field(default_factory=dict)


class ClockedTask(model_mod.SyntheticTask):
    """The synthetic task, stamping the clock as each batch is requested.

    train() asks for one batch per step and one for its final evaluation,
    so consecutive stamps bound each step.
    """

    stamps: list[int]

    def sample_batch(self, key, sequences=None, text_len=None):
        self.stamps.append(time.perf_counter_ns())
        return super().sample_batch(key, sequences, text_len)


class Workload:
    """Default for workloads that need no check across units."""

    def finish(self) -> list[str]:
        return []


class TrainWorkload(Workload):
    """Repeated stage-3 train() runs of TRAIN_STEPS steps on the default model."""

    def __init__(self, name: str, seed: int, sequences: int, work: Path):
        self.name = name
        self.seed = seed
        self.sequences = sequences
        default = model_mod.ModelConfig()
        self.tokens_per_op = sequences * (default.image_tokens + default.text_len)
        self.ops_per_unit = TRAIN_STEPS
        self.out_dir = work / name
        self.reference: dict[int, tuple[str, str, str]] = {}
        self.runs_per_seed: dict[int, int] = {}

    def config(self, pool_index: int) -> model_mod.ModelConfig:
        return model_mod.ModelConfig(
            seed=derive_seed(self.seed, pool_index), batch_sequences=self.sequences
        )

    def setup(self) -> None:
        state = self.prepare(0, steps=1)
        self.unit(state)

    def prepare(self, index: int, steps: int = TRAIN_STEPS) -> UnitState:
        pool_index = index % TRAIN_SEED_POOL
        cfg = self.config(pool_index)
        model = model_mod.build_model(cfg)
        model_mod.enter_stage3(model)
        task = ClockedTask(cfg)
        task.stamps = []
        frozen = [(n, p) for n, p, _ in model.named_parameters() if not p.trainable]
        return UnitState(
            index,
            ops=steps,
            data={
                "pool": pool_index,
                "model": model,
                "task": task,
                "steps": steps,
                "frozen": frozen,
                "frozen_digests": training.parameter_digests(frozen),
            },
        )

    def unit(self, state: UnitState) -> None:
        d = state.data
        tcfg = model_mod.TrainConfig(stage=3, steps=d["steps"], aux_weight=AUX_WEIGHT)
        model_mod.train(d["model"], d["task"], tcfg, out_dir=self.out_dir)
        stamps = d["task"].stamps
        state.latencies_ns = [b - a for a, b in zip(stamps, stamps[1:])]

    def check(self, state: UnitState) -> list[str]:
        d = state.data
        steps = d["steps"]
        failures = []
        if len(state.latencies_ns) != steps:
            failures.append(f"expected {steps} step stamps, got {len(state.latencies_ns)}")
        rows = [json.loads(line) for line in (self.out_dir / "metrics.jsonl").read_text().splitlines()]
        if len(rows) != steps + 1:
            failures.append(f"metrics.jsonl has {len(rows)} rows, expected {steps + 1}")
        for row in rows:
            losses = (row["loss_total"], row["loss_regressive"], row["loss_aux"])
            if not all(math.isfinite(v) for v in losses):
                failures.append(f"step {row['step']}: non-finite loss {losses}")
            elif abs(row["loss_total"] - (row["loss_regressive"] + AUX_WEIGHT * row["loss_aux"])) > 1e-12:
                failures.append(f"step {row['step']}: loss_total != loss_regressive + {AUX_WEIGHT}*loss_aux")
        layers = len(d["model"].cfg.evf_layer_indices)
        tele = [json.loads(line) for line in (self.out_dir / "telemetry.jsonl").read_text().splitlines()]
        if len(tele) != (steps + 1) * layers:
            failures.append(f"telemetry.jsonl has {len(tele)} rows, expected {(steps + 1) * layers}")
        for row in tele:
            lang, vis, cap = row["accepted_language"], row["accepted_vision"], row["capacity"]
            if lang + vis + row["dropped"] != row["n_tokens"] or max(lang, vis) > cap:
                failures.append(f"telemetry step {row['step']} layer {row['layer']}: not a partition within capacity")
        if training.parameter_digests(d["frozen"]) != d["frozen_digests"]:
            failures.append("a frozen tensor changed")
        hashes = tuple(
            file_sha256(self.out_dir / f) for f in ("metrics.jsonl", "telemetry.jsonl", "model_final.ckpt")
        )
        pool = d["pool"]
        self.runs_per_seed[pool] = self.runs_per_seed.get(pool, 0) + 1
        if hashes != self.reference.setdefault(pool, hashes):
            failures.append(f"model seed {pool}: artifacts differ from the first run of that seed")
        return failures

    def finish(self) -> list[str]:
        """Make sure at least one seed ran twice, so determinism was compared."""
        if max(self.runs_per_seed.values(), default=0) >= 2:
            return []
        state = self.prepare(0)
        self.unit(state)
        failures = self.check(state)
        if self.runs_per_seed.get(0, 0) < 2:
            failures.append("determinism: seed 0 was not run twice")
        return failures


class GradCheckWorkload(Workload):
    """grad_check over 1/GRAD_STRIDE of the trainable scalars per instance."""

    name = "grad_check"

    def __init__(self, seed: int):
        self.seed = seed
        cfg = model_mod.ModelConfig(seed=derive_seed(seed, 0))
        self.cfg = cfg
        self.tokens_per_op = cfg.image_tokens + GRAD_TEXT_LEN
        self.ops_per_unit = 0
        self.instances = 0
        self.unstable = 0

    def setup(self) -> None:
        self.model = model_mod.build_model(self.cfg)
        model_mod.enter_stage3(self.model)
        self.task = model_mod.SyntheticTask(self.cfg)
        self.named = self.model.trainable_parameters()
        self.total_scalars = sum(p.data.size for _, p in self.named)
        self.ops_per_unit = 2 * len(range(0, self.total_scalars, GRAD_STRIDE)) + 1
        state = self.prepare(0)
        state.data["loss_fn"]()

    def prepare(self, index: int) -> UnitState:
        key = RngKey(derive_seed(self.seed, 1)).child(index)
        batch = self.task.sample_batch(key.child(0), sequences=1, text_len=GRAD_TEXT_LEN)
        alloc_key = key.child(1)
        state = UnitState(index, data={"subset": (index % GRAD_STRIDE, GRAD_STRIDE)})
        latencies = state.latencies_ns

        def loss_fn():
            start = time.perf_counter_ns()
            result = model_mod.compute_loss(self.model, batch, alloc_key, AUX_WEIGHT)
            signature = result.forward.allocation_signature()
            latencies.append(time.perf_counter_ns() - start)
            return result.total, signature

        state.data["loss_fn"] = loss_fn
        state.data["digest"] = training.combined_digest(self.named)
        return state

    def unit(self, state: UnitState) -> None:
        try:
            state.data["report"] = training.grad_check(
                state.data["loss_fn"], self.named, epsilon=1e-5, subset=state.data["subset"]
            )
        except UnstableInstanceError:
            state.data["report"] = None
        finally:
            state.ops = len(state.latencies_ns)

    def check(self, state: UnitState) -> list[str]:
        self.instances += 1
        failures = []
        if training.combined_digest(self.named) != state.data["digest"]:
            failures.append(f"instance {state.index}: parameters not restored")
        report = state.data["report"]
        if report is None:
            self.unstable += 1
            return failures
        offset, stride = state.data["subset"]
        expected = len(range(offset, self.total_scalars, stride))
        if report.checked != expected:
            failures.append(f"instance {state.index}: checked {report.checked} scalars, expected {expected}")
        if not report.max_rel_err < GRAD_TOLERANCE:
            failures.append(f"instance {state.index}: max_rel_err {report.max_rel_err:.3e} at {report.worst}")
        if state.ops != 2 * expected + 1:
            failures.append(f"instance {state.index}: {state.ops} probes for {expected} scalars")
        return failures


class RouteAllocateWorkload(Workload):
    """route + scores + allocate (+ redistribute) + stats over 4096 tokens."""

    name = "route_allocate_n4096"
    tokens_per_op = ROUTE_TOKENS
    strategies = (allocator.Strategy.RANDOM, allocator.Strategy.GBPR, allocator.Strategy.IMG_GBPR)
    ops_per_unit = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.width = model_mod.ModelConfig().width

    def setup(self) -> None:
        gen = np.random.default_rng(derive_seed(self.seed, 2))
        direction = gen.normal(size=self.width)
        direction /= np.linalg.norm(direction)
        weight = gen.normal(0.0, 0.05, size=(self.width, 2))
        weight[:, router.VISION_FFN] += direction / 2.0
        weight[:, router.LANGUAGE_FFN] -= direction / 2.0
        self.router = router.RouterParams(T.Parameter(weight))
        self.batches = []
        images = ROUTE_TOKENS * 3 // 4
        for _ in range(ROUTE_BATCHES):
            rows = gen.normal(size=(ROUTE_TOKENS, self.width)) + ROUTE_SKEW * direction
            is_image = np.zeros(ROUTE_TOKENS, dtype=bool)
            is_image[gen.permutation(ROUTE_TOKENS)[:images]] = True
            self.batches.append((T.Tensor(rows), allocator.ModalityTags(is_image)))
        self.alloc_seed = derive_seed(self.seed, 3)
        self.unit(self.prepare(0))

    def prepare(self, index: int) -> UnitState:
        return UnitState(index, ops=self.ops_per_unit)

    def unit(self, state: UnitState) -> None:
        tokens, tags = self.batches[state.index % ROUTE_BATCHES]
        rng = RngKey(self.alloc_seed).child(state.index)
        clock = time.perf_counter_ns
        plans = []
        for strategy in self.strategies:
            start = clock()
            decision = router.route(self.router, tokens)
            scores = allocator.priority_scores(decision, tags, strategy)
            plan = allocator.allocate(decision, scores, tags, ROUTE_CAPACITY, strategy, rng=rng)
            if getattr(plan, "pending_rejects", None) is not None:
                plan = allocator.redistribute(plan, decision, scores, ROUTE_CAPACITY, rng=rng)
            stats = allocator.allocation_stats(plan, tags)
            state.latencies_ns.append(clock() - start)
            plans.append((strategy, plan, stats))
        state.data["plans"] = plans

    def check(self, state: UnitState) -> list[str]:
        failures = []
        n = ROUTE_TOKENS
        capacity = allocator.compute_capacity(n, ROUTE_CAPACITY)
        for strategy, plan, stats in state.data["plans"]:
            where = f"unit {state.index} {strategy.value}"
            lang, vis = (np.asarray(a) for a in plan.accepted)
            dropped = np.asarray(plan.dropped)
            parts = np.concatenate([lang, vis, dropped])
            if plan.n_tokens != n or plan.capacity != capacity:
                failures.append(f"{where}: n_tokens/capacity {plan.n_tokens}/{plan.capacity}")
            if not all(np.all(np.diff(a) > 0) for a in (lang, vis, dropped)):
                failures.append(f"{where}: index lists not strictly ascending")
            if parts.size != n or not np.array_equal(np.sort(parts), np.arange(n)):
                failures.append(f"{where}: accepted and dropped do not partition the tokens")
            if lang.size > capacity or vis.size > capacity:
                failures.append(f"{where}: loads {lang.size}/{vis.size} exceed capacity {capacity}")
            moved = np.asarray(plan.redistributed, dtype=np.int64).reshape(-1, 3)
            if not all(np.isin(moved[moved[:, 2] == dst, 0], acc).all() for dst, acc in enumerate((lang, vis))):
                failures.append(f"{where}: a redistributed token is not accepted by its receiver")
            if strategy is not allocator.Strategy.IMG_GBPR and plan.redistributed:
                failures.append(f"{where}: redistribution without img_gbpr")
            if (stats.n_tokens, tuple(stats.loads), stats.dropped) != (n, (lang.size, vis.size), dropped.size):
                failures.append(f"{where}: stats disagree with the plan")
            if stats.success_rate != (lang.size + vis.size) / n:
                failures.append(f"{where}: success_rate {stats.success_rate}")
        return failures


def make(name: str, seed: int, work: Path):
    if name == "train_s2":
        return TrainWorkload(name, seed, 2, work)
    if name == "train_s32":
        return TrainWorkload(name, seed, 32, work)
    if name == "grad_check":
        return GradCheckWorkload(seed)
    if name == "route_allocate_n4096":
        return RouteAllocateWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
