"""Single-file checkpoint container: JSON manifest plus raw float64 bytes.

Layout: 4-byte magic, little-endian uint32 manifest length, the manifest
JSON (sorted keys), then each tensor's C-order ``<f8`` bytes at the offset
the manifest records. Writing the same model twice produces byte-identical
files. A file is renamed into place only once it is complete, and its
directory is synced after the rename, so the new file survives a crash.
Loading validates the layout and the manifest before reading any tensor, and
each tensor's shape and finiteness before assigning it, so a truncated or
corrupt file raises :class:`ContractError`. The stage alone sets
the freeze flags; each tensor's recorded ``trainable`` flag must agree with it.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import decode
from .errors import ConfigError, ContractError
from .model import MicroModel, ModelConfig, apply_stage, build_model

MAGIC = b"EVFC"
FORMAT_VERSION = 1


@dataclass
class _TensorEntry:
    name: str
    shape: tuple[int, ...]
    trainable: bool
    offset: int
    nbytes: int


@dataclass
class _Manifest:
    format_version: int
    stage: int
    config: ModelConfig
    dtype: str
    tensors: tuple[_TensorEntry, ...]


def save_model(model: MicroModel, path: Path | str) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, param, _ in model.named_parameters():
        data = np.ascontiguousarray(param.data, dtype=np.float64).tobytes()
        entries.append(_TensorEntry(name, param.data.shape, bool(param.trainable), offset, len(data)))
        blobs.append(data)
        offset += len(data)
    manifest = _Manifest(FORMAT_VERSION, model.stage, model.cfg, "<f8", tuple(entries))
    header = json.dumps(manifest, default=vars, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in (MAGIC, struct.pack("<I", len(header)), header, *blobs):
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only left when the write failed
    fd = os.open(Path(path).parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_model(path: Path | str) -> MicroModel:
    """Rebuild a model bit-exactly from a checkpoint file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise ContractError(f"{path}: not a checkpoint file (bad magic or shorter than 8 bytes)")
    (header_len,) = struct.unpack("<I", raw[4:8])
    data_start = 8 + header_len
    if data_start > len(raw):
        raise ContractError(f"{path}: manifest length {header_len} runs past the end of the {len(raw)}-byte file")
    try:
        doc = json.loads(raw[8:data_start].decode("utf-8"))
    except ValueError as exc:
        raise ContractError(f"{path}: manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: manifest must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint format version {doc.get('format_version')}")
    try:
        manifest = decode(_Manifest, doc, "manifest")
        model = build_model(manifest.config)
        apply_stage(model, manifest.stage)
    except ConfigError as exc:
        raise ContractError(f"{path}: {exc}") from exc

    params = {name: p for name, p, _ in model.named_parameters()}
    data_len = len(raw) - data_start
    seen = set()
    for entry in manifest.tensors:
        count = math.prod(entry.shape)
        fits = entry.nbytes == 8 * count and 0 <= entry.offset <= data_len - entry.nbytes
        if any(n < 0 for n in entry.shape) or not fits:
            raise ContractError(f"{path}: tensor {entry.name!r} does not match its shape or the {data_len}-byte data")
        if entry.name not in params:
            raise ContractError(f"{path}: checkpoint tensor {entry.name!r} not present in model structure")
        if entry.name in seen:
            raise ContractError(f"{path}: checkpoint tensor {entry.name!r} appears twice in the manifest")
        param = params[entry.name]
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=data_start + entry.offset).reshape(entry.shape)
        if arr.shape != param.data.shape:
            raise ContractError(f"{path}: tensor {entry.name!r} has shape {arr.shape}, the model's is {param.data.shape}")
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: tensor {entry.name!r} holds a non-finite value")
        param.assign(arr)
        if entry.trainable != param.trainable:
            raise ContractError(f"{path}: tensor {entry.name!r} trainable={entry.trainable} disagrees with stage {manifest.stage}")
        seen.add(entry.name)
    missing = set(params) - seen
    if missing:
        raise ContractError(f"{path}: checkpoint is missing tensors {sorted(missing)}")
    return model
