"""JSON codec for the frozen config dataclasses.

``decode`` builds a dataclass from a JSON object by reading its field
annotations: ``int``, ``float`` (an int is accepted and stored as a float;
NaN and the infinities, which Python's ``json`` parses, are refused),
``bool``, ``str``, ``X | None``, ``tuple[X, ...]`` from a list, an ``Enum``
by value, and nested dataclasses. Bools are never numbers, unknown keys and
missing keys without a default are rejected, and every failure is a
:class:`ConfigError` naming the dotted path of the bad value. Encoding is
:func:`dataclasses.asdict`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import types
import typing

from .errors import ConfigError

_type_hints = functools.cache(typing.get_type_hints)


def decode(cls, doc, where: str):
    """Build the dataclass ``cls`` from the JSON object ``doc`` found at ``where``."""
    here = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{here} must be an object, got {_quote(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"{here}: unknown key(s) {unknown}")
    missing = [k for k, f in fields.items() if k not in doc and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{here}: missing key(s) {missing}")
    hints = _type_hints(cls)
    kwargs = {key: _value(hints[key], value, f"{where}.{key}".lstrip(".")) for key, value in doc.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _quote(value) -> str:
    """repr of value, cut to its first 60 characters when longer."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


def _value(tp, value, where: str):
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        inner, _ = typing.get_args(tp)
        return None if value is None else _value(inner, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {_quote(value)}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, where)
    if issubclass(tp, enum.Enum):
        if value in [member.value for member in tp]:
            return tp(value)
        raise ConfigError(f"{where} must be one of {[m.value for m in tp]}, got {_quote(value)}")
    if tp is float and isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {_quote(value)}")
    if tp is bool or not isinstance(value, bool):
        if tp is float and isinstance(value, int) and abs(value) < 2**1023:
            return float(value)
        if isinstance(value, tp):
            return value
    raise ConfigError(f"{where} must be {tp.__name__}, got {_quote(value)}")
