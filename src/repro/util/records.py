"""The record layer under both append-only logs: traces and journals.

A trace file (DESIGN.md §9) and a write-ahead journal (§12) are both
JSONL: one JSON object per line, opened by a versioned header record.
This module holds what the two share, so each rule exists once:

* :func:`canonical_json` and :func:`digest` — the deterministic encoding
  and its SHA-256, used for stream fingerprints, sealed outcomes and
  printed outcome digests;
* :class:`RecordFormat` — builds and checks the versioned header;
* :func:`read_frames` — the one line-framing rule, which splits a log
  into its clean prefix and reports where and why that prefix ends.

What the logs do *not* share stays with them: the trace flushes every
record while the journal fsyncs in group commits, and the journal keeps
its writer's unsorted key order because its bytes are pinned.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, TypeVar

__all__ = ["Frames", "RecordFormat", "canonical_json", "digest", "read_frames"]

_Record = TypeVar("_Record", bound=Mapping[str, Any])


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s :func:`canonical_json` encoding."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RecordFormat:
    """One log format: name, version, the key naming record kinds, and
    the exception class :meth:`check_header` raises."""

    name: str
    version: int
    kind_key: str
    error: type[Exception]

    def header(
        self, lead: Mapping[str, Any] | None = None, **fields: Any
    ) -> dict[str, Any]:
        """The record opening a log of this format.

        Key order is kind, ``lead``, format, version, then ``fields`` —
        writers that do not sort keys put exactly these bytes on disk.
        """
        record: dict[str, Any] = {self.kind_key: "header"}
        record.update(lead or {})
        record["format"] = self.name
        record["version"] = self.version
        record.update(fields)
        return record

    def check_header(self, record: _Record, where: str = "") -> _Record:
        """Validate a log's first record and return it; ``where``
        (a path or ``path:line: ``) prefixes every message."""
        kind = record.get(self.kind_key)
        if kind != "header":
            raise self.error(
                f"{where}does not open with a header record (got {kind!r}) "
                f"— not a {self.name} file"
            )
        if record.get("format") != self.name:
            raise self.error(
                f"{where}not a {self.name} file: format {record.get('format')!r}"
            )
        if record.get("version") != self.version:
            raise self.error(
                f"{where}{self.name} version {record.get('version')!r} "
                f"unsupported (this build reads version {self.version})"
            )
        return record


@dataclass(frozen=True)
class Frames:
    """A log split by :func:`read_frames`.

    ``records`` is the clean prefix, with each record's 1-based line
    number in ``lines``.  ``end`` is the byte offset where the clean
    prefix stops.  ``fault`` is ``None`` when the whole input is clean;
    otherwise it is ``(line number, reason)`` for the first line that is
    not a record.
    """

    records: list[dict[str, Any]]
    lines: list[int]
    end: int
    fault: tuple[int, str] | None


def read_frames(data: bytes) -> Frames:
    """Split JSONL bytes into the clean prefix and where it ends.

    A record is a line that ends in ``\\n`` and parses to a JSON object.
    Blank lines are skipped.  The first line that is not a record ends
    the clean prefix: a crash mid-append leaves exactly such a line (torn
    or unterminated), and nothing after it can be trusted.
    """
    records: list[dict[str, Any]] = []
    lines: list[int] = []
    clean = 0
    offset = 0
    fault: tuple[int, str] | None = None
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        stop = offset + len(line)
        if line and not line.isspace():
            try:
                record = json.loads(line)
            except ValueError as exc:
                reason = getattr(exc, "msg", "undecodable bytes")
                fault = (lineno, f"not valid JSON ({reason})")
                break
            if not isinstance(record, dict):
                fault = (lineno, f"not a JSON object ({type(record).__name__})")
                break
            if stop == len(data):
                fault = (lineno, "unterminated last line")
                break
            records.append(record)
            lines.append(lineno)
            clean = stop + 1
        offset = stop + 1
    return Frames(records, lines, clean, fault)
