"""Wire format of the HTTP gateway: canonical JSON over existing shapes.

Nothing here invents a serialisation.  Every payload is assembled from
projections the rest of the codebase already pins:

* progress / plan / decision / counter-offer bodies are the dataclasses'
  own ``to_dict()`` methods — the same dicts the CLI tables render and
  the scenario outcome digests hash;
* terminal results reuse :func:`repro.scenarios.result_summary`, the
  canonicalisation golden traces pin, so an HTTP ``GET`` of a finished
  query fingerprint-compares byte for byte against an in-process run;
* rich submission inputs (tweet corpora, image sets, ``Query`` objects)
  ride the durability layer's type-tagged codec
  (:mod:`repro.durability.codec`) — the exact encoding the write-ahead
  journal already round-trips — plus server-registered ``$preset``
  names so a `curl` body can stay human-writable;
* bytes on the wire are :func:`repro.util.records.canonical_json`
  (sorted keys, minimal separators), which is what makes response
  fingerprints stable across interpreter versions.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.durability import codec as dcodec
from repro.engine.aio import AsyncHandleBase
from repro.engine.query import Query
from repro.util.records import canonical_json

__all__ = [
    "BadRequest",
    "dumps",
    "parse_query",
    "parse_inputs",
    "handle_payload",
]


class BadRequest(ValueError):
    """The request body cannot be understood (gateway → 400)."""


def dumps(value: Any) -> bytes:
    """Canonical JSON bytes (sorted keys — fingerprint-stable)."""
    return canonical_json(value).encode("utf-8")


def parse_query(value: Any) -> Query:
    """Build the Definition-1 :class:`Query` from a request body value.

    Two accepted shapes: the durability codec's type-tagged encoding
    (``{"__dc__": "...Query", ...}`` — what a programmatic client that
    already holds a ``Query`` sends), or a plain JSON object with the
    five-tuple's fields (what a hand-written `curl` body sends)::

        {"keywords": ["rio"], "required_accuracy": 0.9,
         "domain": ["positive", "neutral", "negative"],
         "timestamp": 0.0, "window": 1, "subject": "rio"}
    """
    if isinstance(value, Mapping) and "__dc__" in value:
        try:
            decoded = dcodec.decode(dict(value))
        except dcodec.CodecError as exc:
            raise BadRequest(f"undecodable query: {exc}") from exc
        if not isinstance(decoded, Query):
            raise BadRequest(
                f"query must decode to a Query, got {type(decoded).__name__}"
            )
        return decoded
    if not isinstance(value, Mapping):
        raise BadRequest("query must be a JSON object")
    unknown = set(value) - {
        "keywords", "required_accuracy", "domain", "timestamp",
        "window", "subject",
    }
    if unknown:
        raise BadRequest(f"unknown query field(s): {sorted(unknown)}")
    try:
        return Query(
            keywords=tuple(value["keywords"]),
            required_accuracy=float(value["required_accuracy"]),
            domain=tuple(value["domain"]),
            timestamp=value.get("timestamp", 0.0),
            window=int(value.get("window", 1)),
            subject=str(value.get("subject", "")),
        )
    except KeyError as exc:
        raise BadRequest(f"query is missing required field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid query: {exc}") from exc


def parse_inputs(
    value: Any, presets: Mapping[str, Mapping[str, Any]]
) -> dict[str, Any]:
    """Resolve a request's ``inputs`` object into job submitter kwargs.

    ``{"$preset": "demo-tsa", ...}`` starts from the server-registered
    preset of that name (the `serve --http` demo registers its canned
    tweet/image corpora this way, keeping `curl` transcripts readable);
    every other key is decoded through the durability codec, so plain
    JSON scalars pass through untouched while type-tagged payloads
    (tweet corpora, image lists) reconstruct the exact objects an
    in-process caller would pass.  Explicit keys override preset keys.
    """
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise BadRequest("inputs must be a JSON object")
    resolved: dict[str, Any] = {}
    preset_name = value.get("$preset")
    if preset_name is not None:
        preset = presets.get(preset_name)
        if preset is None:
            known = sorted(presets)
            raise BadRequest(
                f"unknown inputs preset {preset_name!r}; "
                f"registered presets: {known}"
            )
        resolved.update(preset)
    for key, encoded in value.items():
        if key == "$preset":
            continue
        try:
            resolved[key] = dcodec.decode(encoded)
        except dcodec.CodecError as exc:
            raise BadRequest(f"undecodable input {key!r}: {exc}") from exc
    return resolved


def handle_payload(query_id: str, ahandle: AsyncHandleBase) -> dict[str, Any]:
    """The ``GET /v1/queries/{id}`` body for one handle.

    Identity plus the full ``QueryProgress.to_dict()`` snapshot; a DONE
    query carries its canonical result summary (bit-identical to what
    :func:`repro.scenarios.handle_summary` pins for the same run) and a
    FAILED one carries its error message.  Cheap and side-effect-free —
    safe to poll.
    """
    progress = ahandle.progress()
    payload: dict[str, Any] = {
        "id": query_id,
        "job": ahandle.job_name,
        "subject": ahandle.query.subject,
        "tenant": ahandle.tenant,
        "progress": progress.to_dict(),
    }
    state = progress.state.value
    if state == "done":
        payload["result"] = ahandle.result_summary()
    elif state == "failed":
        payload["error"] = ahandle.error_text
    return payload
