"""Type-tagged JSON codec for journaled submission descriptors.

Journal ``submit`` records must round-trip the exact objects the caller
passed — queries, tweet streams, synthetic images — because recovery
re-invokes the job submitters with them and determinism demands
bit-identical inputs.  JSON alone loses tuples and dataclass types, so
containers and registered dataclasses are wrapped in one-key tag dicts:

* ``{"__tuple__": [...]}`` — a tuple (lists stay plain JSON arrays)
* ``{"__dc__": "repro.tsa.tweets.Tweet", "f": {...}}`` — a registered
  frozen dataclass, reconstructed field-by-field
* ``{"__dcs__": name, "fields": [...], "rows": [[...], ...]}`` — a
  homogeneous sequence of one registered dataclass, stored columnar so a
  journaled submission carrying thousands of tweets doesn't repeat the
  type tag and field names per element (``"t": 1`` marks a tuple source)

Only classes explicitly registered here decode — the codec never imports
arbitrary dotted paths from journal bytes.  Floats are safe as-is: JSON
serialises them via ``repr``, which round-trips every finite double.
"""

from __future__ import annotations

import dataclasses
from typing import Any

_DC_TAG = "__dc__"
_DCS_TAG = "__dcs__"
_TUPLE_TAG = "__tuple__"

#: Homogeneous dataclass sequences at least this long go columnar.
_COLUMNAR_MIN = 4

#: Cell types that encode and decode as themselves.  Columnar rows pass
#: cells of exactly these types through inline (subclasses such as an
#: ``IntEnum`` still take the recursive call).
_PLAIN = frozenset({str, int, float, bool, type(None)})


class CodecError(ValueError):
    """A value could not be encoded or decoded."""


_REGISTRY: dict[str, type] = {}
#: Per-type encode plan: (dotted name, init-field names).  Submissions can
#: carry thousands of tweets, so the per-instance ``dataclasses.fields``
#: walk and name formatting are hoisted out of the hot path.
_ENCODE_PLAN: dict[type, tuple[str, tuple[str, ...]]] = {}


def register(cls: type) -> type:
    """Register a dataclass for journal round-tripping (idempotent)."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass")
    name = f"{cls.__module__}.{cls.__qualname__}"
    _REGISTRY[name] = cls
    _ENCODE_PLAN[cls] = (
        name,
        tuple(f.name for f in dataclasses.fields(cls) if f.init),
    )
    return cls


def _register_builtins() -> None:
    from repro.engine.query import Query
    from repro.it.images import ImageCorpusConfig, SyntheticImage
    from repro.tsa.stream import TweetStream
    from repro.tsa.tweets import Tweet, TweetGeneratorConfig

    for cls in (
        Query,
        Tweet,
        TweetStream,
        TweetGeneratorConfig,
        SyntheticImage,
        ImageCorpusConfig,
    ):
        register(cls)


_register_builtins()


def _encode_columnar(value: Any) -> Any | None:
    """Columnar form for a homogeneous registered-dataclass sequence, or
    ``None`` when the shape doesn't apply."""
    cls = type(value[0])
    plan = _ENCODE_PLAN.get(cls)
    if plan is None or any(type(v) is not cls for v in value):
        return None
    name, field_names = plan
    rows = []
    for v in value:
        row = []
        for f in field_names:
            cell = getattr(v, f)
            row.append(cell if type(cell) in _PLAIN else encode(cell))
        rows.append(row)
    out = {_DCS_TAG: name, "fields": list(field_names), "rows": rows}
    if isinstance(value, tuple):
        out["t"] = 1
    return out


def encode(value: Any) -> Any:
    """Lower ``value`` to a JSON-able structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        if len(value) >= _COLUMNAR_MIN:
            columnar = _encode_columnar(value)
            if columnar is not None:
                return columnar
        return {_TUPLE_TAG: [encode(v) for v in value]}
    if isinstance(value, list):
        if len(value) >= _COLUMNAR_MIN:
            columnar = _encode_columnar(value)
            if columnar is not None:
                return columnar
        return [encode(v) for v in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"journal dicts need str keys, got {key!r}")
            if key in (_DC_TAG, _DCS_TAG, _TUPLE_TAG):
                raise CodecError(f"dict key {key!r} collides with a codec tag")
            encoded[key] = encode(item)
        return encoded
    plan = _ENCODE_PLAN.get(type(value))
    if plan is not None:
        name, field_names = plan
        fields = {f: encode(getattr(value, f)) for f in field_names}
        return {_DC_TAG: name, "f": fields}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(
            f"{type(value).__module__}.{type(value).__qualname__} is not "
            "journal-codec registered; call "
            "repro.durability.codec.register() for custom job inputs"
        )
    raise CodecError(f"cannot journal a {type(value).__name__}: {value!r}")


def decode(value: Any) -> Any:
    """Reverse :func:`encode`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode(v) for v in value]
    if isinstance(value, dict):
        if _TUPLE_TAG in value:
            return tuple(decode(v) for v in value[_TUPLE_TAG])
        if _DCS_TAG in value:
            name = value[_DCS_TAG]
            cls = _REGISTRY.get(name)
            if cls is None:
                raise CodecError(f"journal references unregistered type {name!r}")
            fields = value["fields"]
            items = [
                cls(**{
                    f: v if type(v) in _PLAIN else decode(v)
                    for f, v in zip(fields, row)
                })
                for row in value["rows"]
            ]
            return tuple(items) if value.get("t") else items
        if _DC_TAG in value:
            name = value[_DC_TAG]
            cls = _REGISTRY.get(name)
            if cls is None:
                raise CodecError(f"journal references unregistered type {name!r}")
            kwargs = {k: decode(v) for k, v in value["f"].items()}
            return cls(**kwargs)
        return {k: decode(v) for k, v in value.items()}
    raise CodecError(f"cannot decode a {type(value).__name__}: {value!r}")
