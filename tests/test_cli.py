"""Harness behavior: subcommand orchestration, config overrides, output
placement, exit codes, and byte-stable artifacts."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evf.checkpoint import load_model
from evf.cli import GradCheckSection, RunConfig, _load_config, main
from evf.errors import ConfigError
from evf.model import SyntheticTask, compute_loss
from evf.seeds import RngKey
from evf.training import grad_check

TINY_MODEL = [
    "--set", "model.depth=2",
    "--set", "model.width=8",
    "--set", "model.heads=2",
    "--set", "model.hidden=12",
    "--set", "model.vocab=12",
    "--set", "model.image_feature_dim=5",
    "--set", "model.text_len=4",
    "--set", "model.max_seq_len=16",
]


def write_fixture(path, tokens, **extra):
    doc = {"tokens": tokens, **extra}
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


# ---------------------------------------------------------------------------
# grad-check


def test_grad_check_passes_on_a_reduced_model(tmp_path, capsys):
    rc = main(["grad-check", *TINY_MODEL, "--set", "grad_check.instances=2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads((tmp_path / "grad_check_report.json").read_text())
    assert report["passed"] is True
    assert report["max_rel_err"] < 1e-4
    assert len(report["instances"]) == 2
    assert report["checked_scalars"] > 0
    assert (tmp_path / "run_config.json").exists()


def test_grad_check_corrupted_gradient_fails_with_exit_3(tmp_path, capsys):
    rc = main([
        "grad-check", *TINY_MODEL,
        "--set", "grad_check.instances=1",
        "--set", "grad_check.corrupt_gradient=true",
        "--out", str(tmp_path),
    ])
    assert rc == 3
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "grad_check_report.json").read_text())
    assert report["passed"] is False


def test_grad_check_with_nothing_trainable_is_an_empty_pass(tmp_path):
    rc = main([
        "grad-check", *TINY_MODEL,
        "--set", "model.evf_layer_indices=[]",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "grad_check_report.json").read_text())
    assert report["checked_scalars"] == 0 and report["instances"] == []


@pytest.mark.parametrize(
    "strategy, capacity_factor, fraction",
    [("gbpr", 0.6, 1.0), ("random", 0.6, 1.0), ("img_gbpr", 0.6, 0.0), ("img_gbpr", 0.9, 1.0), ("img_gbpr", 0.9, 0.0)],
)
def test_grad_check_from_a_trained_checkpoint_covers_dropped_and_moved_tokens(
    tmp_path, strategy, capacity_factor, fraction
):
    # A fresh router ties every token at (0.5, 0.5), so every plan margin is
    # 0; a few training steps give the probes stable over-capacity plans.
    routing = [
        "--set", f'model.strategy="{strategy}"',
        "--set", f"model.capacity.capacity_factor={capacity_factor}",
        "--set", f"model.capacity.redistribution_fraction={fraction}",
    ]
    assert main(["train", *TINY_MODEL, *routing, "--set", "train.steps=5", "--out", str(tmp_path / "train")]) == 0
    ckpt = tmp_path / "train" / "model_final.ckpt"
    # grad-check gets the same model section as train: a fresh model built
    # from it has tied margins and exits 2, so passing means it loaded the
    # trained checkpoint.
    overrides = [f'train.init_checkpoint="{ckpt}"', "grad_check.instances=2"]
    checkpoint_args = ["--set", overrides[0], "--set", overrides[1]]
    assert main(["grad-check", *TINY_MODEL, *routing, *checkpoint_args, "--out", str(tmp_path / "check")]) == 0
    report = json.loads((tmp_path / "check" / "grad_check_report.json").read_text())
    assert report["max_rel_err"] < 1e-4 and len(report["instances"]) == 2

    # Rerun each checked instance's forward: the check is vacuous unless its
    # plans dropped or moved a token.
    gc = _load_config(None, overrides)[1].grad_check
    model = load_model(ckpt)
    task = SyntheticTask(model.cfg)
    dropped = moved = 0
    for instance in report["instances"]:
        key = RngKey(gc.seed).child(instance["instance_seed"])
        batch = task.sample_batch(key.child(0), sequences=gc.batch_sequences, text_len=gc.text_len)
        plans = [layer.plan for layer in compute_loss(model, batch, key.child(1)).forward.layers]
        dropped += sum(p.dropped.size for p in plans)
        moved += sum(len(p.redistributed) for p in plans)
    assert dropped + moved > 0
    if (capacity_factor, fraction) == (0.9, 1.0):
        assert moved > 0


def test_grad_check_reports_what_grad_check_gives_on_each_instance_seed(tmp_path):
    # Under random allocation the plan depends on the allocation key, so the
    # report reproduces only from the key that each instance seed names.
    routing = ["--set", 'model.strategy="random"', "--set", "model.capacity.capacity_factor=0.6"]
    assert main(["train", *TINY_MODEL, *routing, "--set", "train.steps=5", "--out", str(tmp_path / "train")]) == 0
    ckpt = tmp_path / "train" / "model_final.ckpt"
    overrides = ["--set", f'train.init_checkpoint="{ckpt}"', "--set", "grad_check.instances=1"]
    assert main(["grad-check", *TINY_MODEL, *routing, *overrides, "--out", str(tmp_path / "check")]) == 0
    (instance,) = json.loads((tmp_path / "check" / "grad_check_report.json").read_text())["instances"]

    gc = GradCheckSection(instances=1)
    model = load_model(ckpt)
    key = RngKey(gc.seed).child(instance.pop("instance_seed"))
    batch = SyntheticTask(model.cfg).sample_batch(key.child(0), sequences=gc.batch_sequences, text_len=gc.text_len)

    def loss_fn():
        result = compute_loss(model, batch, key.child(1))
        return result.total, result.forward.allocation_signature()

    assert asdict(grad_check(loss_fn, model.trainable_parameters(), epsilon=gc.epsilon, subset=(0, 1))) == instance


def test_an_instance_whose_margin_equals_stability_margin_is_checked(tmp_path):
    # A fresh img_gbpr plan with nothing over capacity has margin 1.0 on every batch.
    rc = main([
        "grad-check", *TINY_MODEL,
        "--set", "grad_check.stability_margin=1.0",
        "--set", "grad_check.instances=1",
        "--set", "grad_check.max_tries=1",
        "--out", str(tmp_path),
    ])
    assert rc == 0


def test_a_max_rel_err_equal_to_the_tolerance_fails(tmp_path):
    args = ["grad-check", *TINY_MODEL, "--set", "grad_check.instances=1"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    max_rel = json.loads((tmp_path / "a" / "grad_check_report.json").read_text())["max_rel_err"]
    assert main([*args, "--set", f"grad_check.tolerance={max_rel!r}", "--out", str(tmp_path / "b")]) == 3
    assert json.loads((tmp_path / "b" / "grad_check_report.json").read_text())["passed"] is False


# ---------------------------------------------------------------------------
# allocate-trace


def test_allocate_trace_prints_the_file_it_writes_with_each_ffns_load(tmp_path, capsys):
    tokens = [{"modality": "image", "logits": [0.0, 1.0]}] + [{"modality": "text", "logits": [1.0, 0.0]}] * 2
    fixture = write_fixture(tmp_path / "f.json", tokens, capacity_factor=2.0)
    assert main(["allocate-trace", "--fixture", fixture, "--out", str(tmp_path / "run")]) == 0
    written = (tmp_path / "run" / "allocate_trace.json").read_text()
    assert capsys.readouterr().out == written
    for name, entry in json.loads(written)["strategies"].items():
        assert entry["plan"]["loads"] == {"language": 2, "vision": 1}, name


def test_allocate_trace_under_capacity_accepts_all(tmp_path, capsys):
    fixture = write_fixture(
        tmp_path / "f.json",
        [
            {"modality": "image", "logits": [0.0, 1.0]},
            {"modality": "text", "logits": [1.0, 0.0]},
            {"modality": "text", "logits": [0.5, 0.2]},
        ],
        capacity_factor=2.0,
    )
    rc = main(["allocate-trace", "--fixture", fixture, "--out", str(tmp_path / "run")])
    assert rc == 0
    trace = json.loads((tmp_path / "run" / "allocate_trace.json").read_text())
    assert set(trace["strategies"]) == {"random", "gbpr", "img_gbpr"}
    for name, entry in trace["strategies"].items():
        assert entry["stats"]["success_rate"] == 1.0, name
        assert entry["plan"]["dropped"] == []
    # img_gbpr respects modality, the others follow the router
    img = trace["strategies"]["img_gbpr"]["plan"]["accepted"]
    assert img == {"language": [1, 2], "vision": [0]}
    printed = json.loads(capsys.readouterr().out)
    assert printed == trace


def test_allocate_trace_over_capacity_and_fraction_endpoints(tmp_path):
    tokens = [{"modality": "image", "logits": [0.0, 2.0]} for _ in range(8)]
    with_redist = write_fixture(
        tmp_path / "on.json", tokens, capacity_factor=0.5, redistribution_fraction=1.0, seed=5
    )
    without = write_fixture(
        tmp_path / "off.json", tokens, capacity_factor=0.5, redistribution_fraction=0.0, seed=5
    )
    assert main(["allocate-trace", "--fixture", with_redist, "--out", str(tmp_path / "a")]) == 0
    assert main(["allocate-trace", "--fixture", without, "--out", str(tmp_path / "b")]) == 0
    on = json.loads((tmp_path / "a" / "allocate_trace.json").read_text())["strategies"]["img_gbpr"]
    off = json.loads((tmp_path / "b" / "allocate_trace.json").read_text())["strategies"]["img_gbpr"]
    # capacity 2: six vision rejects; full redistribution parks 2 in language slack
    assert on["plan"]["capacity"] == 2
    assert len(on["plan"]["redistributed"]) == 2
    assert on["stats"]["dropped"] == 4
    assert off["plan"]["redistributed"] == []
    assert off["stats"]["dropped"] == 6


def test_allocate_trace_reports_parse_errors_with_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "tokens": [\n   {"modality": "image" "logits": [0, 1]}\n ]\n}\n')
    rc = main(["allocate-trace", "--fixture", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize(
    "fields, overrides",
    [
        ({"capacity_factor": "abc"}, []),
        ({"seed": "x"}, []),
        ({"redistribution_fraction": None}, []),
        ({"seed": -1, "capacity_factor": 0.5}, []),
        ({"seed": 1.0}, []),
        ({"seed": "3"}, []),
        ({"seed": True}, []),
        ({"capacity_factor": 0.5}, ["--set", "model.capacity.seed=-1"]),
    ],
)
def test_allocate_trace_rejects_bad_capacity_fields(tmp_path, capsys, fields, overrides):
    tokens = [{"modality": "text", "logits": [1.0, 0.0]} for _ in range(6)]
    fixture = write_fixture(tmp_path / "f.json", tokens, **fields)
    rc = main(["allocate-trace", "--fixture", fixture, *overrides, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_allocate_trace_validates_token_fields(tmp_path, capsys):
    fixture = write_fixture(tmp_path / "f.json", [{"modality": "audio", "logits": [0, 1]}])
    assert main(["allocate-trace", "--fixture", fixture, "--out", str(tmp_path / "r")]) == 2
    assert "tokens[0].modality" in capsys.readouterr().err

    fixture2 = write_fixture(tmp_path / "g.json", [{"modality": "text", "logits": [1, 2, 3]}])
    assert main(["allocate-trace", "--fixture", fixture2, "--out", str(tmp_path / "r2")]) == 2
    assert "tokens[0].logits" in capsys.readouterr().err

    # A bool is not a number, and a logit must be finite.
    for bad in ([True, False], [math.inf, 0], [0, -math.inf], [math.nan, 0], [10**400, 0]):
        tokens = [{"modality": "text", "logits": [1, 0]}, {"modality": "image", "logits": bad}]
        fixture3 = write_fixture(tmp_path / "h.json", tokens)
        assert main(["allocate-trace", "--fixture", fixture3, "--out", str(tmp_path / "r3")]) == 2, bad
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "tokens[1].logits" in err
    for out in ("r", "r2", "r3"):  # a refused fixture leaves no run directory
        assert not (tmp_path / out).exists()


def test_missing_fixture_file_is_an_io_error(tmp_path):
    rc = main(["allocate-trace", "--fixture", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")])
    assert rc == 4


# ---------------------------------------------------------------------------
# train


def test_train_writes_reproducible_artifacts(tmp_path):
    args = ["train", *TINY_MODEL, "--set", "train.steps=4"]
    assert main([*args, "--out", str(tmp_path / "one")]) == 0
    assert main([*args, "--out", str(tmp_path / "two")]) == 0
    for name in ("run_config.json", "metrics.jsonl", "telemetry.jsonl", "model_final.ckpt"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name
    rows = [json.loads(l) for l in (tmp_path / "one" / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [0, 1, 2, 3, 4]
    run_cfg = json.loads((tmp_path / "one" / "run_config.json").read_text())
    assert run_cfg["command"] == "train"
    assert run_cfg["train"]["steps"] == 4
    assert run_cfg["model"]["depth"] == 2


TESTS_DIR = Path(__file__).parent
ALLOCATE_TRACE_FIXTURE = TESTS_DIR / "allocate_trace_fixture.json"
ARTIFACT_SHA256 = TESTS_DIR / "artifact_sha256.json"
TRAIN_FILES = ("run_config.json", "metrics.jsonl", "telemetry.jsonl", "model_final.ckpt")
DROP_HEAVY = ["--set", "model.capacity.capacity_factor=0.6", "--set", "train.steps=30"]
# Small versions of the runs of scripts/same_bytes.sh: (run, evf arguments, files written).
BYTE_CONTRACT_RUNS = [
    ("train", ["train", "--set", "train.steps=20"], TRAIN_FILES),
    ("train_s32", ["train", "--set", "model.batch_sequences=32", "--set", "train.steps=10"], TRAIN_FILES),
    *((f"train_c06_{s}", ["train", *DROP_HEAVY, "--set", f"model.strategy={s}"], TRAIN_FILES)
      for s in ("gbpr", "img_gbpr", "random")),
    ("grad_check", ["grad-check", *TINY_MODEL, "--set", "grad_check.instances=1"],
     ("run_config.json", "grad_check_report.json")),
    ("allocate_trace", ["allocate-trace", "--fixture", str(ALLOCATE_TRACE_FIXTURE)],
     ("run_config.json", "allocate_trace.json")),
]


def test_artifacts_keep_their_committed_bytes(tmp_path, capsys):
    # The same seeds give the same bytes, from one revision to the next. A
    # deliberate bit change replaces tests/artifact_sha256.json with the
    # digests this test prints, in the same diff, and says why.
    got = {}
    for run, args, files in BYTE_CONTRACT_RUNS:
        assert main([*args, "--out", str(tmp_path / run)]) == 0, run
        for name in files:
            got[f"{run}/{name}"] = hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
    capsys.readouterr()
    expected = json.loads(ARTIFACT_SHA256.read_text())
    if got != expected:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        differ = sorted(k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k))
        pytest.fail(
            f"artifact digests differ from {ARTIFACT_SHA256.name} for {differ} "
            f"(numpy {np.__version__}, BLAS {blas['name']} {blas['version']}); digests written:\n"
            + json.dumps(got, indent=2, sort_keys=True)
        )


def test_train_resumes_from_checkpoint(tmp_path):
    assert main(["train", *TINY_MODEL, "--set", "train.steps=3", "--out", str(tmp_path / "first")]) == 0
    ckpt = tmp_path / "first" / "model_final.ckpt"
    rc = main([
        "train", *TINY_MODEL,
        "--set", "train.steps=2",
        "--set", f'train.init_checkpoint="{ckpt}"',
        "--out", str(tmp_path / "second"),
    ])
    assert rc == 0
    rows = [json.loads(l) for l in (tmp_path / "second" / "metrics.jsonl").read_text().splitlines()]
    assert len(rows) == 3


def test_config_file_and_set_overrides_merge(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"train": {"steps": 2}, "model": {"depth": 2, "width": 8,
                                    "heads": 2, "hidden": 12, "vocab": 12, "image_feature_dim": 5,
                                    "text_len": 4, "max_seq_len": 16}}))
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_file), "--set", "train.steps=3", "--out", str(out)])
    assert rc == 0
    run_cfg = json.loads((out / "run_config.json").read_text())
    assert run_cfg["train"]["steps"] == 3  # --set wins over the file
    assert run_cfg["model"]["width"] == 8


def test_config_validation_failures_exit_2(tmp_path, capsys):
    bad_section = tmp_path / "bad.json"
    bad_section.write_text(json.dumps({"trainer": {}}))
    assert main(["train", "--config", str(bad_section), "--out", str(tmp_path / "a")]) == 2
    assert "trainer" in capsys.readouterr().err

    assert main(["train", "--set", "banana=1", "--out", str(tmp_path / "b")]) == 2
    assert main(["train", "--set", "nonsense", "--out", str(tmp_path / "c")]) == 2
    assert main(["train", *TINY_MODEL, "--set", "optimizer.learning_rate=-1", "--out", str(tmp_path / "d")]) == 2
    assert main(["train", *TINY_MODEL, "--set", "model.strategy=\"greedy\"", "--out", str(tmp_path / "e")]) == 2

    # Settings no run could vary are gone, and naming one is an error.
    capsys.readouterr()
    for command, override, message in (
        ("train", "model.capacity.num_ffns=2", "model.capacity: unknown key(s) ['num_ffns']"),
        ("train", "model.capacity.seed=0", "model.capacity: unknown key(s) ['seed']"),
        ("grad-check", "grad_check.partition_scalars=true", "grad_check: unknown key(s) ['partition_scalars']"),
    ):
        assert main([command, *TINY_MODEL, "--set", override, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err
        assert not (tmp_path / "f").exists()


def assert_one_error_line(err):
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, override",
    [
        ("train", "train.steps=abc"),
        ("train", "optimizer.bogus=1"),
        ("train", "model.capacity.capacity_factor=abc"),
        ("train", 'train.aux_weight="x"'),
        ("grad-check", 'grad_check.instances="two"'),
        ("train", 'model.depth="2"'),
        ("train", "model.depth=2.5"),
        ("train", "model.capacity=5"),
        ("train", "model.evf_layer_indices=5"),
        ("train", 'model.image_noise="a"'),
        ("train", 'optimizer.learning_rate="x"'),
        ("train", "train.bogus=1"),
        ("grad-check", "grad_check.bogus=1"),
        ("train", "train.steps=true"),
        ("train", 'train.stage="3"'),
        ("allocate-trace", 'allocate_trace.strategies="gbpr"'),
        ("train", "model.seed=-1"),
        ("train", "model.depth=3000000000"),
        ("grad-check", "grad_check.seed=-1"),
        ("train", "train.steps=-1"),
        ("train", "train.stage=4"),
        ("grad-check", "grad_check.instances=0"),
        ("grad-check", "grad_check.instances=-1"),
        ("grad-check", "grad_check.epsilon=0"),
        ("grad-check", "grad_check.epsilon=1e308"),
        ("grad-check", "grad_check.epsilon=Infinity"),
        ("grad-check", "grad_check.batch_sequences=0"),
        ("grad-check", "grad_check.text_len=0"),
        ("train", "train.aux_weight=Infinity"),
        ("train", "train.aux_weight=NaN"),
        ("train", "train.aux_weight=-1"),
        ("grad-check", "train.aux_weight=-Infinity"),
        ("train", "optimizer.learning_rate=NaN"),
        ("train", "optimizer.weight_decay=Infinity"),
        ("train", "optimizer.epsilon=-1"),
        ("train", "optimizer.epsilon=0"),
        ("grad-check", "grad_check.tolerance=NaN"),
        ("grad-check", "grad_check.tolerance=0"),
        ("grad-check", "grad_check.stability_margin=NaN"),
        ("grad-check", "grad_check.stability_margin=-1"),
        # Refused from the dimensions alone, before any array exists.
        ("train", f"model.width={2**62}"),
        ("train", f"model.vocab={2**62}"),
        ("train", f"model.max_seq_len={2**62}"),
        ("train", f"model.hidden={2**62}"),
        ("grad-check", f"model.width={2**62}"),
        ("grad-check", f"model.hidden={2**62}"),
        # The task tables and one batch's tokens, likewise.
        ("train", f"model.num_keys={2**62}"),
        ("train", f"model.batch_sequences={2**62}"),
        ("grad-check", f"model.num_keys={2**62}"),
        ("grad-check", f"grad_check.batch_sequences={2**62}"),
        ("grad-check", f"grad_check.text_len={2**62}"),
    ],
)
def test_mistyped_config_values_exit_2_and_write_nothing(tmp_path, capsys, command, override):
    fixture = write_fixture(tmp_path / "f.json", [{"modality": "text", "logits": [1.0, 0.0]}])
    extra = ["--fixture", fixture] if command == "allocate-trace" else []
    rc = main([command, *extra, *TINY_MODEL, "--set", override, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


BIG_INT = "7" * 5000  # over the interpreter's 4300-digit limit for int()


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("train", "--set", f"train.steps={BIG_INT}"),
        ("train", "--set", f'model.strategy="{"x" * 5000}"'),
        ("train", "--config", f'{{"train": {{"steps": {BIG_INT}}}}}'),
        ("allocate-trace", "--fixture", f'{{"seed": {BIG_INT}, "tokens": []}}'),
        ("telemetry-report", "--metrics", f'{{"layer": {BIG_INT}}}\n'),
    ],
    ids=["set", "set-string", "config", "fixture", "telemetry"],
)
def test_integer_literal_over_the_digit_limit_exits_2(tmp_path, capsys, command, flag, text):
    if flag != "--set":
        path = tmp_path / "input.json"
        path.write_text(text)
        text = str(path)
    assert main([command, flag, text, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    # The line does not grow with the value; an input file's path is not counted.
    assert len(err.replace(text, "<path>").encode()) < 200, err


def test_a_float_field_takes_an_integer_below_2_to_the_1023_only():
    below = 2**1023 - 1
    assert _load_config(None, [f"model.image_noise={below}"])[1].model.image_noise == float(below)
    for value in (2**1023, -(2**1023)):
        with pytest.raises(ConfigError, match="image_noise must be float"):
            _load_config(None, [f"model.image_noise={value}"])


def test_a_refused_value_is_quoted_whole_up_to_60_characters():
    for text, quoted in (("x" * 58, repr("x" * 58)), ("x" * 59, f"{repr('x' * 59)[:60]}... (61 characters)")):
        with pytest.raises(ConfigError) as refused:
            _load_config(None, [f'model.image_noise="{text}"'])
        assert str(refused.value) == f"model.image_noise must be float, got {quoted}"


def test_a_fixture_logit_takes_an_integer_below_2_to_the_1023_only(tmp_path, capsys):
    fixture = write_fixture(tmp_path / "f.json", [{"modality": "image", "logits": [2**1023 - 1, 0]}])
    assert main(["allocate-trace", "--fixture", fixture, "--out", str(tmp_path / "r")]) == 0
    for bad in ([2**1023, 0], [0, -(2**1023)]):
        fixture = write_fixture(tmp_path / "g.json", [{"modality": "image", "logits": bad}])
        assert main(["allocate-trace", "--fixture", fixture, "--out", str(tmp_path / "r2")]) == 2, bad
        assert "tokens[0].logits" in capsys.readouterr().err
    assert not (tmp_path / "r2").exists()


def test_grad_check_section_takes_its_lower_bounds():
    section = GradCheckSection(instances=1, batch_sequences=1, text_len=1, seed=0)
    assert (section.instances, section.batch_sequences, section.text_len, section.seed) == (1, 1, 1, 0)


def test_a_set_value_keeps_every_equals_sign_after_the_first():
    assert _load_config(None, ["output_dir=a=b"])[1].output_dir == "a=b"


def test_grad_check_epsilon_may_be_1e_2_and_no_more():
    assert GradCheckSection(epsilon=1e-2).epsilon == 1e-2
    with pytest.raises(ConfigError, match="epsilon"):
        GradCheckSection(epsilon=math.nextafter(1e-2, 1.0))


def _leaf_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


LEAF_PATHS = sorted(_leaf_paths(_load_config(None, [])[0]))
SECTION_PREFIXES = ["", "model.", "model.capacity.", "optimizer.", "train.", "grad_check.", "allocate_trace."]
json_scalars = (
    st.none() | st.booleans() | st.integers(0, 8) | st.integers() | st.floats(0, 1) | st.floats() | st.text(max_size=6)
)
json_values = (
    json_scalars | st.lists(json_scalars, max_size=3) | st.dictionaries(st.text(max_size=4), json_scalars, max_size=2)
)
unknown_paths = st.builds(str.__add__, st.sampled_from(SECTION_PREFIXES), st.text("abcdefgh_", min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(LEAF_PATHS), json_values), min_size=1, max_size=3),
    st.lists(st.tuples(unknown_paths, json_values), max_size=1),
)
def test_config_loader_returns_a_run_config_or_raises_config_error(leaves, unknown):
    overrides = [f"{path}={json.dumps(value)}" for path, value in leaves + unknown]
    try:
        _, run = _load_config(None, overrides)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)


def test_output_root_env_prefixes_relative_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("EVF_OUTPUT_ROOT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    fixture = write_fixture(
        tmp_path / "f.json", [{"modality": "text", "logits": [1.0, 0.0]}]
    )
    assert main(["allocate-trace", "--fixture", fixture, "--out", "nested/run"]) == 0
    assert (tmp_path / "nested" / "run" / "allocate_trace.json").exists()
    # default directory also lands under the root
    assert main(["allocate-trace", "--fixture", fixture]) == 0
    assert (tmp_path / "evf-runs" / "allocate-trace" / "allocate_trace.json").exists()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert main(["train", *TINY_MODEL, "--set", "train.steps=1", "--out", str(out)]) == 0
    return (out / "model_final.ckpt").read_bytes()


def _with_header(raw, header):
    (old_len,) = struct.unpack("<I", raw[4:8])
    return raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + old_len:]


def _with_manifest(raw, edit):
    """raw with its manifest passed through ``edit``, which changes it in place."""
    (old_len,) = struct.unpack("<I", raw[4:8])
    manifest = json.loads(raw[8 : 8 + old_len])
    edit(manifest)
    return _with_header(raw, json.dumps(manifest).encode())


def _with_tensor_entry(raw, index, key, delta):
    def edit(manifest):
        manifest["tensors"][index][key] += delta

    return _with_manifest(raw, edit)


def _embed_tokens(manifest):
    return next(e for e in manifest["tensors"] if e["name"] == "embed.tokens")


def _with_first_embed_token_weight(raw, value):
    (header_len,) = struct.unpack("<I", raw[4:8])
    start = 8 + header_len + _embed_tokens(json.loads(raw[8 : 8 + header_len]))["offset"]
    return raw[:start] + struct.pack("<d", value) + raw[start + 8 :]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda raw: raw[:6], "not a checkpoint file"),
        (lambda raw: raw[:8], "runs past the end of the 8-byte file"),
        (lambda raw: raw[:40], "runs past the end of the 40-byte file"),
        (lambda raw: raw[:4] + struct.pack("<I", 0x7FFFFFFF) + raw[8:], "manifest length 2147483647 runs past"),
        (lambda raw: raw[:-16], "tensor 'head.bias' does not match its shape or the"),
        (lambda raw: _with_header(raw, b"[]"), "manifest must be a JSON object"),
        (lambda raw: _with_header(raw, b'{"format_version":1}'), "manifest: missing key(s)"),
        (lambda raw: _with_tensor_entry(raw, 0, "nbytes", 8), "tensor 'embed.tokens' does not match its shape"),
        (lambda raw: _with_tensor_entry(raw, -1, "offset", 8), "tensor 'head.bias' does not match its shape"),
        (lambda raw: _with_manifest(raw, lambda m: m["tensors"].append(_embed_tokens(m))),
         "tensor 'embed.tokens' appears twice"),
        # the same 96 values as one row: the layout fits, the model's (12, 8) does not
        (lambda raw: _with_manifest(raw, lambda m: _embed_tokens(m).update(shape=[96])),
         "tensor 'embed.tokens' has shape (96,), the model's is (12, 8)"),
        (lambda raw: _with_manifest(raw, lambda m: _embed_tokens(m).update(shape=[0, 8], nbytes=0)),
         "tensor 'embed.tokens' has shape (0, 8), the model's is (12, 8)"),
        (lambda raw: _with_first_embed_token_weight(raw, math.nan), "tensor 'embed.tokens' holds a non-finite value"),
        # a checkpoint written while the capacity section had two more keys
        (lambda raw: _with_manifest(raw, lambda m: m["config"]["capacity"].update(num_ffns=2, seed=0)),
         "manifest.config.capacity: unknown key(s) ['num_ffns', 'seed']"),
    ],
    ids=["6-bytes", "8-bytes", "40-bytes", "huge-header-length", "last-16-bytes-cut", "array-manifest",
         "manifest-without-keys", "wrong-nbytes", "offset-past-end", "tensor-named-twice",
         "shape-differs-from-the-model", "empty-shape-differs-from-the-model", "nan-weight", "removed-capacity-keys"],
)
def test_corrupt_checkpoint_exits_2(tmp_path, capsys, tiny_checkpoint, corrupt, message):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(tiny_checkpoint))
    rc = main(["train", *TINY_MODEL, "--set", f'train.init_checkpoint="{bad}"', "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {bad}: ") and message in err
    assert not (tmp_path / "run").exists()


def test_checkpoint_with_an_overflowing_weight_exits_3(tmp_path, capsys, tiny_checkpoint):
    """A finite weight of 1e300 loads, then overflows in the first forward."""
    bad = tmp_path / "big.ckpt"
    bad.write_bytes(_with_first_embed_token_weight(tiny_checkpoint, 1e300))
    rc = main(["train", *TINY_MODEL, "--set", "train.steps=0", "--set", f'train.init_checkpoint="{bad}"',
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert_one_error_line(capsys.readouterr().err)


def _set_embed_tokens_trainable(manifest):
    entry = _embed_tokens(manifest)
    assert manifest["stage"] == 3 and entry["trainable"] is False
    entry["trainable"] = True


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda manifest: manifest.update(stage=7), "stage must be 1, 2 or 3, got 7"),
        (_set_embed_tokens_trainable, "'embed.tokens' trainable=True disagrees with stage 3"),
    ],
    ids=["stage-7", "flag-disagrees-with-stage"],
)
def test_checkpoint_stage_decides_the_freeze_flags(tmp_path, capsys, tiny_checkpoint, edit, message):
    """The manifest's stage alone sets the freeze flags; a tensor entry cannot override it."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_with_manifest(tiny_checkpoint, edit))
    rc = main(["train", *TINY_MODEL, "--set", f'train.init_checkpoint="{bad}"', "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith(f"error: {bad}: ") and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "grad-check"])
def test_run_config_records_the_checkpoint_model(tmp_path, tiny_checkpoint, command):
    """The model section is ignored when a checkpoint is loaded, so the
    recorded config names the checkpoint's model instead."""
    ckpt = tmp_path / "tiny.ckpt"
    ckpt.write_bytes(tiny_checkpoint)
    rc = main([
        command,
        "--set", f'train.init_checkpoint="{ckpt}"',
        "--set", "train.steps=1",
        "--set", "grad_check.instances=1",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    recorded = json.loads((tmp_path / "run" / "run_config.json").read_text())["model"]
    assert (recorded["depth"], recorded["width"]) == (2, 8)
    assert recorded == json.loads(json.dumps(asdict(load_model(ckpt).cfg)))


# ---------------------------------------------------------------------------
# telemetry-report


def test_telemetry_report_from_training_metrics(tmp_path):
    train_dir = tmp_path / "train"
    assert main(["train", *TINY_MODEL, "--set", "train.steps=5", "--out", str(train_dir)]) == 0
    report_dir = tmp_path / "report"
    rc = main([
        "telemetry-report", "--metrics", str(train_dir / "metrics.jsonl"), "--out", str(report_dir),
    ])
    assert rc == 0
    with open(report_dir / "telemetry_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["layer"] == "0" and rows[0]["strategy"] == "img_gbpr"
    assert rows[0]["records"] == "6"
    assert 0.0 <= float(rows[0]["mean_success_rate"]) <= 1.0


def test_telemetry_report_ranks_strategies_within_layers(tmp_path):
    stream = tmp_path / "stream.jsonl"
    records = []
    for strategy, success in (("img_gbpr", 0.95), ("gbpr", 0.8), ("random", 0.7)):
        for step in range(3):
            records.append({
                "step": step, "layer": 0, "strategy": strategy,
                "success_rate": success, "drop_rate": 1 - success,
            })
    stream.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    rc = main(["telemetry-report", "--metrics", str(stream), "--out", str(tmp_path / "rep")])
    assert rc == 0
    with open(tmp_path / "rep" / "telemetry_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_strategy = {r["strategy"]: r for r in rows}
    assert by_strategy["img_gbpr"]["rank_within_layer"] == "1"
    assert by_strategy["gbpr"]["rank_within_layer"] == "2"
    assert by_strategy["random"]["rank_within_layer"] == "3"
    assert rows[0]["layer_ordering"] == "img_gbpr>=gbpr>=random"


def test_telemetry_report_rejects_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["telemetry-report", "--metrics", str(empty), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "no layer telemetry" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()  # a refused input leaves no run directory


def test_telemetry_report_missing_input_is_an_io_error(tmp_path, capsys):
    rc = main(["telemetry-report", "--metrics", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "rep")])
    assert rc == 4
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "rep").exists()


GOOD_ROW = {"layer": 0, "strategy": "gbpr", "success_rate": 1, "drop_rate": 0}


@pytest.mark.parametrize(
    "row",
    [
        {"layer": 0, "success_rate": 1, "drop_rate": 0},
        {"layers": [{**GOOD_ROW, "layer": "x"}]},
        [GOOD_ROW],
        {"layers": [5]},
        {"layers": 5},
        {**GOOD_ROW, "layer": True},
        {**GOOD_ROW, "strategy": 3},
        {**GOOD_ROW, "success_rate": "high"},
        {**GOOD_ROW, "drop_rate": None},
        {**GOOD_ROW, "success_rate": math.nan},
    ],
)
def test_telemetry_report_rejects_malformed_rows(tmp_path, capsys, row):
    stream = tmp_path / "stream.jsonl"
    stream.write_text(json.dumps(GOOD_ROW) + "\n" + json.dumps(row) + "\n")
    rc = main(["telemetry-report", "--metrics", str(stream), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == 2
    assert_one_error_line(err)
    assert f"{stream}: line 2" in err
    assert not (tmp_path / "rep").exists()


# ---------------------------------------------------------------------------
# corrupted input bytes

FIXTURE_BYTES = json.dumps({
    "capacity_factor": 0.5, "seed": 3,
    "tokens": [{"modality": m, "logits": [0.1 * i, 1.0]} for i, m in enumerate(["image", "text", "image", "text"])],
}).encode()
TELEMETRY_BYTES = (json.dumps({"step": 0, "layers": [GOOD_ROW]}) + "\n" + json.dumps(GOOD_ROW) + "\n").encode()

# (where, how many bytes to cut there, bytes to put in their place)
byte_edits = st.lists(st.tuples(st.floats(0, 1), st.integers(0, 4), st.binary(max_size=4)), min_size=1, max_size=3)


def _edited(raw, edits, keep):
    for where, cut, insert in edits:
        i = int(where * len(raw))
        raw = raw[:i] + insert + raw[i + cut:]
    return raw[: int(keep * len(raw))]


def _run_main_on_bytes(raw, argv):
    """Exit code and stderr of ``main(argv)`` with INPUT in argv naming a file of ``raw``."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line outside pytest
            rc = main([a.replace("INPUT", path) for a in argv] + ["--out", os.path.join(work, "run")])
    return rc, err.getvalue()


def _assert_clean_exit(rc, err):
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err
    if rc:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    else:
        assert err == ""


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["fixture", "telemetry"]), byte_edits, st.floats(0, 1) | st.just(1.0))
def test_corrupted_input_text_exits_cleanly(kind, edits, keep):
    raw, argv = {
        "fixture": (FIXTURE_BYTES, ["allocate-trace", "--fixture", "INPUT"]),
        "telemetry": (TELEMETRY_BYTES, ["telemetry-report", "--metrics", "INPUT"]),
    }[kind]
    _assert_clean_exit(*_run_main_on_bytes(_edited(raw, edits, keep), argv))


# Same-length byte edits only: an insertion could add digits to a dimension
# in the manifest and make the model it describes too large to build.
same_length_edits = st.lists(st.tuples(st.floats(0, 1), st.just(1), st.binary(min_size=1, max_size=1)),
                             min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(same_length_edits, st.floats(0, 1) | st.just(1.0))
def test_corrupted_checkpoint_bytes_exit_cleanly(tiny_checkpoint, edits, keep):
    raw = _edited(tiny_checkpoint, edits, keep)
    argv = ["train", *TINY_MODEL, "--set", "train.steps=0", "--set", 'train.init_checkpoint="INPUT"']
    _assert_clean_exit(*_run_main_on_bytes(raw, argv))
