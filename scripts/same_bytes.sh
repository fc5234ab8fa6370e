#!/usr/bin/env bash
# Check that the working tree writes the same deterministic artifacts as a
# git revision, byte for byte.
#
# Usage: scripts/same_bytes.sh REV
#
# Unpacks `git archive REV` into a temporary directory, then runs in that
# tree and in the working tree, with one BLAS thread:
#   evf train
#   evf train --set model.batch_sequences=32 --set train.steps=10
#   evf train --set model.capacity.capacity_factor=0.6 --set train.steps=30
#     --set model.strategy=S, for S in gbpr, img_gbpr and random
#   evf grad-check
#   evf allocate-trace over tests/allocate_trace_fixture.json, read from the
#     working tree for both sides: eight image and two text tokens at capacity
#     factor 0.6 (3 per FFN), so every strategy drops tokens and img_gbpr
#     redistributes one; token 6 ties, so it is a language candidate
# and compares run_config.json, metrics.jsonl, telemetry.jsonl,
# model_final.ckpt, grad_check_report.json and allocate_trace.json with cmp
# (24 files). Under a DIFFERS line it names the dotted keys whose values
# differ, for a .json file, and for a .ckpt the differing manifest keys and
# whether the tensor data after the manifest is byte-identical. Exits 0 when
# every file is identical, 1 on any difference and 2 on a usage or run error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$repo" archive "$rev" | tar -x -C "$work/base"

export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
unset EVF_OUTPUT_ROOT

drop_strategies="gbpr img_gbpr random"

run_all() {  # run_all SRC_TREE OUT_DIR
    local evf=(env PYTHONPATH="$1/src" python3 -m evf)
    "${evf[@]}" train --out "$2/train" >/dev/null
    "${evf[@]}" train --set model.batch_sequences=32 --set train.steps=10 --out "$2/train_s32" >/dev/null
    for s in $drop_strategies; do  # capacity 0.6 drops tokens; img_gbpr also moves some
        "${evf[@]}" train --set model.capacity.capacity_factor=0.6 --set train.steps=30 \
            --set model.strategy=$s --out "$2/train_c06_$s" >/dev/null
    done
    "${evf[@]}" grad-check --out "$2/grad_check" >/dev/null
    "${evf[@]}" allocate-trace --fixture "$repo/tests/allocate_trace_fixture.json" --out "$2/allocate_trace" >/dev/null
}

run_all "$work/base" "$work/out_base" || { echo "run failed in $rev" >&2; exit 2; }
run_all "$repo" "$work/out_work" || { echo "run failed in the working tree" >&2; exit 2; }

explain() {  # explain BASE_FILE WORK_FILE: what differs inside a .json or .ckpt file
    python3 - "$1" "$2" <<'PY'
import json, struct, sys

def flat(doc, at=""):
    if isinstance(doc, dict) and doc:
        return {k: v for key, value in doc.items() for k, v in flat(value, f"{at}.{key}".lstrip(".")).items()}
    if isinstance(doc, list) and doc:
        return {k: v for i, value in enumerate(doc) for k, v in flat(value, f"{at}[{i}]").items()}
    return {at: json.dumps(doc)}

def read(path):  # (document, tensor data or None)
    raw = open(path, "rb").read()
    if path.endswith(".ckpt"):
        (size,) = struct.unpack("<I", raw[4:8])
        return json.loads(raw[8 : 8 + size]), raw[8 + size :]
    return json.loads(raw), None

(base, base_data), (work, work_data) = read(sys.argv[1]), read(sys.argv[2])
a, b = flat(base), flat(work)
keys = ", ".join(sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))) or "none"
if base_data is None:
    print(f"         keys: {keys}")
else:
    print(f"         manifest keys: {keys}; tensor data {'same' if base_data == work_data else 'DIFFERS'}")
PY
}

status=0
for run in train train_s32 $(printf 'train_c06_%s ' $drop_strategies) grad_check allocate_trace; do
    case $run in
        grad_check) files="run_config.json grad_check_report.json" ;;
        allocate_trace) files="run_config.json allocate_trace.json" ;;
        *) files="run_config.json metrics.jsonl telemetry.jsonl model_final.ckpt" ;;
    esac
    for f in $files; do
        if cmp -s "$work/out_base/$run/$f" "$work/out_work/$run/$f"; then
            echo "same     $run/$f"
        else
            echo "DIFFERS  $run/$f"
            case $f in
                *.json | *.ckpt) explain "$work/out_base/$run/$f" "$work/out_work/$run/$f" || true ;;
            esac
            status=1
        fi
    done
done
exit $status
