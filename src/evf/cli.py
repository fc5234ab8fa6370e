"""Experiment harness.

Subcommands:

* ``grad-check``       - finite-difference verification of the trainable path
* ``allocate-trace``   - run the allocation strategies over a token fixture
* ``train``            - one curriculum stage on the synthetic task
* ``telemetry-report`` - aggregate metrics streams into a per-layer CSV

Configuration is one JSON document (defaults, then ``--config FILE``, then
``--set dotted.key=value``), decoded into the typed :class:`RunConfig`
before anything is written; every run writes the document next to its
outputs, and identical configurations give byte-identical outputs.

Exit codes: 0 success, 2 validation failure, 3 numeric-check failure,
4 I/O failure. The environment variable ``EVF_OUTPUT_ROOT`` prefixes any
relative output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .allocator import AllocationPlan, CapacityConfig, ModalityTags, Strategy, allocate, allocation_stats, priority_scores
from .checkpoint import load_model
from .config import decode
from .errors import ConfigError, ContractError, EvfError, FixtureError, NumericError, UnstableInstanceError
from .model import MicroModel, ModelConfig, SyntheticTask, TrainConfig, apply_stage, build_model, check_batch, compute_loss, train
from .router import FFN_NAMES, LANGUAGE_FFN, VISION_FFN, decision_from_logits
from .seeds import RngKey
from .training import OptimizerConfig, grad_check

OUTPUT_ROOT_ENV = "EVF_OUTPUT_ROOT"


@dataclass(frozen=True)
class TrainSection:
    stage: int = 3
    steps: int = 200
    aux_weight: float = 0.001
    init_checkpoint: str | None = None

    def __post_init__(self) -> None:
        # TrainConfig's checks, before anything is written
        TrainConfig(stage=self.stage, steps=self.steps, aux_weight=self.aux_weight)


@dataclass(frozen=True)
class GradCheckSection:
    instances: int = 10
    epsilon: float = 1e-5
    tolerance: float = 1e-4
    max_tries: int = 100
    seed: int = 0
    batch_sequences: int = 1
    text_len: int = 4
    stability_margin: float = 1e-3
    corrupt_gradient: bool = False

    def __post_init__(self) -> None:
        for name, low in (("instances", 1), ("batch_sequences", 1), ("text_len", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0 < self.epsilon <= 1e-2:
            raise ConfigError(f"epsilon must lie in (0, 1e-2], got {self.epsilon}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if not self.stability_margin >= 0:
            raise ConfigError(f"stability_margin must be non-negative, got {self.stability_margin}")


@dataclass(frozen=True)
class AllocateTraceSection:
    strategies: tuple[Strategy, ...] = tuple(Strategy)


@dataclass(frozen=True)
class RunConfig:
    """The whole run configuration; its JSON form is the config document."""

    output_dir: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    train: TrainSection = field(default_factory=TrainSection)
    grad_check: GradCheckSection = field(default_factory=GradCheckSection)
    allocate_trace: AllocateTraceSection = field(default_factory=AllocateTraceSection)


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_config(path: str | None, overrides: list[str]) -> tuple[dict, RunConfig]:
    """The merged config document and the RunConfig decoded from it."""
    cfg = json.loads(json.dumps(asdict(RunConfig())))
    # evf_layer_indices stays null here so a depth override re-resolves the
    # default "every even block" placement instead of keeping stale indices.
    cfg["model"]["evf_layer_indices"] = None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.loads(fh.read())
        except ValueError as exc:  # not UTF-8, JSONDecodeError, or an integer literal over the digit limit
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{path}: config root must be an object")
        cfg = _deep_merge(cfg, file_cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = cfg = dict(cfg)
        for part in parts[:-1]:
            child = node.get(part)
            child = dict(child) if isinstance(child, dict) else {}
            node[part] = child
            node = child
        node[parts[-1]] = value
    return cfg, decode(RunConfig, cfg, "")


def _resolve_out_dir(cli_out: str | None, run: RunConfig, command: str) -> Path:
    base = cli_out or run.output_dir or os.path.join("evf-runs", command)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(base):
        base = os.path.join(root, base)
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_run_config(out: Path, cfg: dict, command: str) -> None:
    _write_json(out / "run_config.json", {"command": command, **cfg})


def _initial_model(run: RunConfig) -> MicroModel:
    """The train.init_checkpoint model when set (run.model is then ignored), else a fresh one."""
    if run.train.init_checkpoint:
        return load_model(run.train.init_checkpoint)
    return build_model(run.model)


def cmd_grad_check(run: RunConfig, model: MicroModel, out: Path) -> int:
    gc = run.grad_check
    apply_stage(model, 3)
    task = SyntheticTask(model.cfg)
    named = model.trainable_parameters()

    reports = []
    instance_seeds = []
    attempts = 0
    base = RngKey(gc.seed)
    while len(reports) < gc.instances and named:
        if attempts >= gc.max_tries:
            raise ContractError(
                f"grad-check: could not find {gc.instances} stable instances in {gc.max_tries} tries"
            )
        attempt_key = base.child(attempts)
        attempts += 1
        batch = task.sample_batch(attempt_key.child(0), sequences=gc.batch_sequences, text_len=gc.text_len)
        alloc_key = attempt_key.child(1)

        def loss_fn():
            result = compute_loss(model, batch, alloc_key, run.train.aux_weight)
            return result.total, result.forward.allocation_signature()

        # Skip instances a finite-difference step could flip: random subsets
        # are pinned by the seed, so only score gaps count (AllocationPlan.margin).
        probe = compute_loss(model, batch, alloc_key, run.train.aux_weight)
        if min((layer.plan.margin for layer in probe.forward.layers), default=np.inf) < gc.stability_margin:
            continue
        try:
            report = grad_check(
                loss_fn,
                named,
                epsilon=gc.epsilon,
                # instance k checks the scalars whose flat index is k mod instances,
                # so a full run covers every scalar exactly once
                subset=(len(reports), gc.instances),
                _corrupt_first_gradient=1e-2 if gc.corrupt_gradient else 0.0,
            )
        except UnstableInstanceError:
            continue
        reports.append(report)
        instance_seeds.append(attempts - 1)

    max_rel = max((r.max_rel_err for r in reports), default=0.0)
    doc = {
        "instances": [
            {"instance_seed": seed, **asdict(report)}
            for seed, report in zip(instance_seeds, reports)
        ],
        "checked_scalars": sum(r.checked for r in reports),
        "max_rel_err": max_rel,
        "tolerance": gc.tolerance,
        "passed": bool(max_rel < gc.tolerance),
    }
    _write_json(out / "grad_check_report.json", doc)
    status = "PASS" if doc["passed"] else "FAIL"
    print(
        f"grad-check {status}: {len(reports)} instances, {doc['checked_scalars']} scalars, "
        f"max rel err {max_rel:.3e} (tolerance {gc.tolerance:g})"
    )
    return 0 if doc["passed"] else 3


def _parse_fixture(path: str, capacity: CapacityConfig) -> tuple[CapacityConfig, int, list[bool], np.ndarray]:
    """The fixture's capacity fields overlaid on ``capacity``, its seed (default 0), is-image flags and logits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FixtureError(f"{path}: parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureError(f"{path}: fixture root must be an object")
    overlay = {key: doc[key] for key in ("capacity_factor", "redistribution_fraction") if key in doc}
    try:
        capacity = decode(CapacityConfig, {**asdict(capacity), **overlay}, "")
    except ConfigError as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise FixtureError(f"{path}: seed must be a non-negative integer, got {seed!r}")
    tokens = doc.get("tokens")
    if not isinstance(tokens, list) or not tokens:
        raise FixtureError(f"{path}: field 'tokens' must be a non-empty list")
    is_image = []
    logits = []
    for i, tok in enumerate(tokens):
        if not isinstance(tok, dict):
            raise FixtureError(f"{path}: tokens[{i}] must be an object")
        modality = tok.get("modality")
        if modality not in ("image", "text"):
            raise FixtureError(f"{path}: tokens[{i}].modality must be 'image' or 'text', got {modality!r}")
        pair = tok.get("logits")
        # As in the config decoder, a bool is not a number and an int must fit a float64.
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < 2**1023 for v in pair)
        ):
            raise FixtureError(f"{path}: tokens[{i}].logits must be a [language, vision] pair of finite numbers")
        is_image.append(modality == "image")
        logits.append([float(pair[0]), float(pair[1])])
    return capacity, seed, is_image, np.asarray(logits, dtype=np.float64)


def _plan_record(plan: AllocationPlan) -> dict:
    """A plan as allocate_trace.json records it; the diagnostic margin stays out."""
    return {
        "strategy": plan.strategy.value,
        "n_tokens": int(plan.n_tokens),
        "capacity": int(plan.capacity),
        "accepted": {
            "language": [int(i) for i in plan.accepted[LANGUAGE_FFN]],
            "vision": [int(i) for i in plan.accepted[VISION_FFN]],
        },
        "dropped": [int(i) for i in plan.dropped],
        "redistributed": [
            {"token": t, "from": FFN_NAMES[src], "to": FFN_NAMES[dst]}
            for t, src, dst in plan.redistributed
        ],
        "loads": {"language": plan.loads[0], "vision": plan.loads[1]},
    }


def cmd_allocate_trace(run: RunConfig, fixture: tuple[CapacityConfig, int, list[bool], np.ndarray], out: Path) -> int:
    capacity_cfg, seed, is_image, logits = fixture
    tags = ModalityTags(is_image)
    decision = decision_from_logits(T.Tensor(logits))

    per_strategy = {}
    for strategy in run.allocate_trace.strategies:
        scores = priority_scores(decision, tags, strategy)
        plan = allocate(decision, scores, tags, capacity_cfg, strategy, rng=RngKey(seed))
        stats = allocation_stats(plan, tags)
        per_strategy[strategy.value] = {
            "plan": _plan_record(plan),
            "stats": asdict(stats),
        }

    trace = {
        "n_tokens": int(logits.shape[0]),
        "capacity_factor": capacity_cfg.capacity_factor,
        "redistribution_fraction": capacity_cfg.redistribution_fraction,
        "seed": seed,
        "strategies": per_strategy,
    }
    _write_json(out / "allocate_trace.json", trace)
    print(json.dumps(trace, sort_keys=True, indent=2))
    return 0


def cmd_train(run: RunConfig, model: MicroModel, out: Path) -> int:
    tcfg = TrainConfig(
        stage=run.train.stage, steps=run.train.steps, optimizer=run.optimizer, aux_weight=run.train.aux_weight
    )
    task = SyntheticTask(model.cfg)
    result = train(model, task, tcfg, out_dir=out)
    first, last = result.metrics[0], result.metrics[-1]
    print(
        f"train: stage {tcfg.stage}, {tcfg.steps} steps, "
        f"loss {first['loss_total']:.4f} -> {last['loss_total']:.4f}, "
        f"checkpoint {result.checkpoint_path}"
    )
    return 0


@dataclass(frozen=True)
class _LayerRecord:
    layer: int
    strategy: str
    success_rate: float
    drop_rate: float


def _layer_record(entry, where: str) -> _LayerRecord:
    """Decode the fields the report reads; the entry's other telemetry keys are ignored."""
    if isinstance(entry, dict):
        entry = {key: value for key, value in entry.items() if key in _LayerRecord.__dataclass_fields__}
    return decode(_LayerRecord, entry, where)


def _layer_records(paths: list[str]) -> list[_LayerRecord]:
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                lines = fh.read().split("\n")
            except UnicodeDecodeError as exc:
                raise FixtureError(f"{path}: not UTF-8 text: {exc}") from exc
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise FixtureError(f"{path}: parse error at line {line_no}: {exc}") from exc
            try:
                if isinstance(row, dict) and "layers" in row:
                    if not isinstance(row["layers"], list):
                        raise ConfigError(f"layers must be a list, got {row['layers']!r}")
                    records.extend(_layer_record(e, f"layers[{i}]") for i, e in enumerate(row["layers"]))
                elif not isinstance(row, dict) or "layer" in row:
                    records.append(_layer_record(row, "row"))
            except ConfigError as exc:
                raise FixtureError(f"{path}: line {line_no}: {exc}") from exc
    if not records:
        raise ContractError("telemetry-report: no layer telemetry records found in the given metrics files")
    return records


def cmd_telemetry_report(records: list[_LayerRecord], out: Path) -> int:
    grouped: dict[tuple[int, str], list[_LayerRecord]] = {}
    for rec in records:
        grouped.setdefault((rec.layer, rec.strategy), []).append(rec)

    rows = []
    for (layer, strategy), recs in sorted(grouped.items()):
        success = [r.success_rate for r in recs]
        drops = [r.drop_rate for r in recs]
        rows.append(
            {
                "layer": layer,
                "strategy": strategy,
                "records": len(recs),
                "mean_success_rate": statistics.fmean(success),
                "median_success_rate": statistics.median(success),
                "mean_drop_rate": statistics.fmean(drops),
            }
        )
    by_layer: dict[int, list[dict]] = {}
    for row in rows:
        by_layer.setdefault(row["layer"], []).append(row)
    for layer, group in by_layer.items():
        ordered = sorted(group, key=lambda r: -r["mean_success_rate"])
        ordering = ">=".join(r["strategy"] for r in ordered)
        for rank, row in enumerate(ordered, start=1):
            row["rank_within_layer"] = rank
            row["layer_ordering"] = ordering

    report_path = out / "telemetry_report.csv"
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in sorted(rows, key=lambda r: (r["layer"], r["rank_within_layer"])):
            writer.writerow(row)
    for layer in sorted(by_layer):
        print(f"layer {layer}: {by_layer[layer][0]['layer_ordering']}")
    print(f"wrote {report_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evf", description="Elastic vision FFN experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file overlaying the defaults")
        p.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override, value parsed as JSON when possible")
        p.add_argument("--out", help="output directory (default: evf-runs/<command>)")

    common(sub.add_parser("grad-check", help="finite-difference gradient verification"))
    p_trace = sub.add_parser("allocate-trace", help="run allocation strategies over a token fixture")
    common(p_trace)
    p_trace.add_argument("--fixture", required=True, help="JSON fixture of tokens with modality and logits")
    common(sub.add_parser("train", help="train one curriculum stage on the synthetic task"))
    p_report = sub.add_parser("telemetry-report", help="aggregate metrics streams into CSV")
    common(p_report)
    p_report.add_argument("--metrics", nargs="+", required=True, help="metrics.jsonl / telemetry.jsonl files")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # An overflow or invalid value anywhere ends the run like a non-finite
    # result does, with exit 3 and one line, not with warnings and exit 0.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            cfg, run = _load_config(args.config, args.overrides)
            # Every input is read and checked before --out exists, so a refused one writes nothing.
            model = fixture = records = None
            if args.command in ("grad-check", "train"):
                model = _initial_model(run)
                if run.train.init_checkpoint:  # record the model that runs, not the ignored section
                    cfg = {**cfg, "model": asdict(model.cfg)}
            if args.command == "grad-check":
                try:
                    check_batch(model.cfg, run.grad_check.batch_sequences, run.grad_check.text_len)
                except ConfigError as exc:
                    raise ConfigError(f"grad_check: {exc}") from exc
            if args.command == "allocate-trace":
                fixture = _parse_fixture(args.fixture, run.model.capacity)
            if args.command == "telemetry-report":
                records = _layer_records(args.metrics)
            out = _resolve_out_dir(args.out, run, args.command)
            _write_run_config(out, cfg, args.command)
            if args.command == "grad-check":
                return cmd_grad_check(run, model, out)
            if args.command == "allocate-trace":
                return cmd_allocate_trace(run, fixture, out)
            if args.command == "train":
                return cmd_train(run, model, out)
            if args.command == "telemetry-report":
                return cmd_telemetry_report(records, out)
            raise ContractError(f"unknown command {args.command!r}")
        except (NumericError, FloatingPointError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except EvfError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
