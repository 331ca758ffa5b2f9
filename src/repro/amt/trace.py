"""Trace record/replay: regression-test the engine against logged market runs.

CDAS's guarantees were validated against live AMT runs; reproducing that
without a live market means replaying recorded submission traces through
the *unchanged* engine (ROADMAP: trace-replay backend, DESIGN.md §9).
Two decorators over the :class:`~repro.amt.backend.MarketBackend`
protocol provide exactly that:

* :class:`TraceRecorder` wraps any backend — simulated,
  :class:`~repro.amt.slow.SlowBackend`, later a live-AMT client — and
  logs every interaction the engine performs against it (``publish``
  specs, collected assignments with their worker profiles, cancels,
  wall-clock offsets) to a versioned JSONL trace file.
* :class:`TraceReplayBackend` replays a trace file: the engine publishes
  the same HITs (any deviation raises a structured
  :class:`TraceDivergence`), collects the *recorded* submissions in
  recorded arrival order, and is charged on the replay ledger exactly as
  the recording was — so a replayed run reproduces the original query
  results and spend bit for bit.  Recorded wall-clock offsets drive
  ``next_arrival_eta()`` (scaled by ``time_scale``), so the asyncio
  driver's sleeping is exercised by replay too; ``time_scale=0``
  compresses all waiting away.

The trace file is the validation surface every future backend shares: a
live-AMT run recorded through :class:`TraceRecorder` becomes a CI
regression artifact the moment it is checked in (see
``tests/data/traces/`` and the ``trace-replay`` CI job).

Trace format (one JSON object per line)
---------------------------------------
``header``
    ``format`` (``"cdas-trace"``), ``version``, the price schedule, and
    free-form ``meta`` (scenario name, seed, …).
``publish``
    0-based ``index``, wall-clock ``at`` offset, and the full HIT spec
    (question payloads are opaque application objects and deliberately
    not serialised; replay matching ignores them).
``submission``
    ``hit_id``, per-HIT ``index``, ``at``, the collected assignment, and
    the submitting worker's profile (replay serves it back through
    ``worker_profile`` for the privacy screen).
``cancel``
    ``hit_id``, the ``outstanding`` count forfeited, ``at``.
``expect``
    Optional: a canonical outcome summary the recording run pinned
    (scenario runners compare replay outcomes against it).
``end``
    Interaction counts and the stream *fingerprint* — a SHA-256 over the
    canonicalised logical records (wall-clock offsets excluded), the
    digest CI compares across Python versions.

Lines are framed by :func:`~repro.util.records.read_frames`, the rule
the write-ahead journal shares: each must be a newline-terminated JSON
object.  A torn or unterminated line, or a trace without its ``end``
record, is truncated and refuses to load; a trace whose recomputed
fingerprint disagrees with its ``end`` record is corrupt and refuses to
load.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

from repro.amt.backend import HITHandle, MarketBackend, arrival_eta
from repro.amt.hit import HIT, Assignment, Question
from repro.amt.pricing import CostLedger, PriceSchedule
from repro.amt.worker import WorkerProfile
from repro.util.records import RecordFormat, canonical_json, digest, read_frames

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceError",
    "TraceDivergence",
    "Trace",
    "RecordedHIT",
    "TraceRecorder",
    "TraceReplayBackend",
    "load_trace",
    "canonical_json",
]

TRACE_FORMAT = "cdas-trace"
TRACE_VERSION = 1


class TraceError(ValueError):
    """A trace file cannot be loaded: truncated, corrupt, or wrong format."""


class TraceDivergence(RuntimeError):
    """The engine's market requests deviated from the recording.

    Attributes
    ----------
    kind:
        Machine-readable divergence class: ``"extra-publish"`` (more
        publishes than recorded), ``"hit-mismatch"`` (published HIT spec
        differs from the recorded one), ``"premature-cancel"`` (cancel
        before the recorded submissions were collected),
        ``"unexpected-cancel"`` (cancel of a HIT the recording never
        cancelled), ``"unknown-hit"`` (cancel of a HIT the recording
        never published), ``"missing-cancel"`` (the recording cancelled
        but the replayed engine did not), ``"stalled-replay"`` (the next
        recorded submission belongs to a HIT the engine never published —
        nothing can progress), ``"incomplete-replay"``
        (recorded interactions never requested), or
        ``"outcome-mismatch"`` (replay results differ from the pinned
        recording outcome).
    hit_id:
        The offending HIT, when one is identifiable.
    """

    def __init__(self, kind: str, detail: str, hit_id: str | None = None) -> None:
        self.kind = kind
        self.hit_id = hit_id
        prefix = f"trace divergence [{kind}]"
        if hit_id is not None:
            prefix += f" on HIT {hit_id!r}"
        super().__init__(f"{prefix}: {detail}")


#: The trace's header rule (:class:`~repro.util.records.RecordFormat`).
TRACE = RecordFormat(TRACE_FORMAT, TRACE_VERSION, kind_key="type", error=TraceError)


# -- (de)serialisation of the market vocabulary -------------------------------


def _question_to_json(question: Question) -> dict[str, Any]:
    """Serialise a question, dropping the opaque application payload."""
    return {
        "id": question.question_id,
        "options": list(question.options),
        "truth": question.truth,
        "difficulty": question.difficulty,
        "gold": question.is_gold,
        "reason_keywords": list(question.reason_keywords),
        "topic": question.topic,
    }


def _hit_to_json(hit: HIT) -> dict[str, Any]:
    return {
        "hit_id": hit.hit_id,
        "assignments": hit.assignments,
        "questions": [_question_to_json(q) for q in hit.questions],
    }


def _assignment_to_json(assignment: Assignment) -> dict[str, Any]:
    return {
        "worker": assignment.worker_id,
        "answers": dict(assignment.answers),
        "keywords": {
            qid: list(words) for qid, words in assignment.keywords.items()
        },
        "submit_time": assignment.submit_time,
    }


def _assignment_from_json(hit_id: str, data: Mapping[str, Any]) -> Assignment:
    return Assignment(
        hit_id=hit_id,
        worker_id=data["worker"],
        answers=dict(data["answers"]),
        keywords={qid: tuple(words) for qid, words in data["keywords"].items()},
        submit_time=data["submit_time"],
    )


def _profile_to_json(profile: WorkerProfile) -> dict[str, Any]:
    return {
        "worker": profile.worker_id,
        "true_accuracy": profile.true_accuracy,
        "approval_rate": profile.approval_rate,
        "behaviour": profile.behaviour,
        "clique": profile.clique,
        "skills": [[topic, delta] for topic, delta in profile.skills],
    }


def _profile_from_json(data: Mapping[str, Any]) -> WorkerProfile:
    return WorkerProfile(
        worker_id=data["worker"],
        true_accuracy=data["true_accuracy"],
        approval_rate=data["approval_rate"],
        behaviour=data["behaviour"],
        clique=data["clique"],
        skills=tuple((topic, delta) for topic, delta in data["skills"]),
    )


#: The fingerprint's projection of a file record: these fields, with
#: ``type`` renamed ``t`` and ``hit_id`` renamed ``hit``.  Everything else
#: (``at`` offsets, indices, ``format``, ``version``, ``meta``) is left out.
_LOGICAL_FIELDS = {"type": "t", "hit_id": "hit"} | {
    name: name for name in ("price", "hit", "assignment", "profile", "outstanding")
}


class _Fingerprint:
    """SHA-256 over the canonicalised *logical* interaction stream.

    Each header, publish, submission and cancel record is folded through
    one projection (:data:`_LOGICAL_FIELDS`).  Wall-clock offsets are
    excluded — two recordings of the same logical run at different speeds
    (or a time-compressed replay) fingerprint identically.  The recorder,
    the loader, and the replay backend all fold the same records, so one
    digest pins all three.
    """

    def __init__(self, header: Mapping[str, Any]) -> None:
        self._hash = hashlib.sha256()
        self.fold(header)

    def fold(self, record: Mapping[str, Any]) -> None:
        logical = {
            _LOGICAL_FIELDS[key]: value
            for key, value in record.items()
            if key in _LOGICAL_FIELDS
        }
        self._hash.update(canonical_json(logical).encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- recording ----------------------------------------------------------------


class _RecordingHandle:
    """Pass-through handle that logs collections and cancels."""

    def __init__(self, recorder: "TraceRecorder", inner: HITHandle) -> None:
        self._recorder = recorder
        self._inner = inner
        self._index = 0  # per-HIT submission counter
        self._cancel_recorded = False

    @property
    def hit(self) -> HIT:
        return self._inner.hit

    @property
    def outstanding(self) -> int:
        return self._inner.outstanding

    @property
    def done(self) -> bool:
        return self._inner.done

    def peek_time(self) -> float | None:
        return self._inner.peek_time()

    def next_arrival_eta(self) -> float | None:
        return arrival_eta(self._inner)

    def next_submission(self) -> Assignment | None:
        assignment = self._inner.next_submission()
        if assignment is not None:
            profile = self._inner.worker_profile(assignment.worker_id)
            self._recorder._record_submission(
                self._inner.hit.hit_id, self._index, assignment, profile
            )
            self._index += 1
        return assignment

    def cancel(self) -> int:
        avoided = self._inner.cancel()
        # A second (defensive) cancel is a no-op on every backend; record
        # only the first so the trace holds at most one cancel per HIT.
        if not self._cancel_recorded:
            self._recorder._record_cancel(self._inner.hit.hit_id, avoided)
            self._cancel_recorded = True
        return avoided

    def worker_profile(self, worker_id: str) -> WorkerProfile:
        return self._inner.worker_profile(worker_id)


class TraceRecorder:
    """Decorator over any :class:`MarketBackend` that logs every interaction.

    Wrap the backend *before* constructing the system, run the workload,
    then :meth:`close` (or use the recorder as a context manager) — the
    ``end`` record with the stream fingerprint is what marks the trace
    complete; a trace missing it refuses to load.

    Parameters
    ----------
    inner:
        The backend that actually serves the run (simulated, slow, or a
        live client).  Its ledger remains the system's ledger.
    path:
        Trace file destination (JSONL, created/truncated immediately).
    meta:
        Free-form JSON-serialisable context stored in the header —
        scenario name, seed, delays; replay tooling reads it back.
    clock:
        Injectable wall-clock (defaults to :func:`time.monotonic`);
        recorded offsets are relative to recorder construction.
    """

    def __init__(
        self,
        inner: MarketBackend,
        path: str | Path,
        meta: Mapping[str, Any] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.inner = inner
        self.path = Path(path)
        self.meta = dict(meta) if meta else {}
        self._clock = clock
        self._t0 = clock()
        self._publishes = 0
        self._submissions = 0
        self._cancels = 0
        self._expect_digest: str | None = None
        self._closed = False
        header = TRACE.header(
            price={
                "worker_reward": inner.ledger.schedule.worker_reward,
                "platform_fee": inner.ledger.schedule.platform_fee,
            },
            meta=self.meta,
        )
        self._fingerprint = _Fingerprint(header)
        self._file: TextIO = self.path.open("w", encoding="utf-8")
        self._write(header)

    # -- backend protocol ------------------------------------------------------

    @property
    def ledger(self) -> CostLedger:
        return self.inner.ledger

    def publish(self, hit: HIT) -> _RecordingHandle:
        if self._closed:
            raise TraceError(f"trace {self.path} is closed; cannot record publish")
        # Publish on the inner backend *first*: a failed publish (live
        # market rejection, network error) must not leave a phantom
        # publish record the market never performed.
        handle = self.inner.publish(hit)
        self._log(
            {
                "type": "publish",
                "index": self._publishes,
                "at": self._now(),
                "hit": _hit_to_json(hit),
            }
        )
        self._publishes += 1
        return _RecordingHandle(self, handle)

    def next_arrival_eta(self) -> float | None:
        return arrival_eta(self.inner)

    # -- recording internals ---------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._t0

    def _write(self, record: Mapping[str, Any]) -> None:
        self._file.write(canonical_json(record) + "\n")
        # Flush per record: a recording that dies mid-run (live-AMT
        # session, crashed experiment) still leaves every completed
        # interaction on disk — recognisably truncated, not empty.
        self._file.flush()

    def _log(self, record: Mapping[str, Any]) -> None:
        """Write an interaction record and fold it into the fingerprint."""
        self._write(record)
        self._fingerprint.fold(record)

    def _record_submission(
        self, hit_id: str, index: int, assignment: Assignment, profile: WorkerProfile
    ) -> None:
        self._log(
            {
                "type": "submission",
                "hit_id": hit_id,
                "index": index,
                "at": self._now(),
                "assignment": _assignment_to_json(assignment),
                "profile": _profile_to_json(profile),
            }
        )
        self._submissions += 1

    def _record_cancel(self, hit_id: str, outstanding: int) -> None:
        self._log(
            {
                "type": "cancel",
                "hit_id": hit_id,
                "outstanding": outstanding,
                "at": self._now(),
            }
        )
        self._cancels += 1

    # -- lifecycle -------------------------------------------------------------

    def record_expectation(self, outcome: Mapping[str, Any]) -> None:
        """Pin the recording run's canonical outcome inside the trace.

        Scenario replays compare their outcome against this record; a
        mismatch is an ``outcome-mismatch`` :class:`TraceDivergence`.
        The outcome's digest is sealed into the ``end`` record, so a
        tampered expectation fails to *load* (:class:`TraceError`)
        rather than misreporting engine non-determinism.
        """
        if self._closed:
            raise TraceError(f"trace {self.path} is closed")
        if self._expect_digest is not None:
            raise TraceError(f"trace {self.path} already pins an outcome")
        payload = dict(outcome)
        self._expect_digest = digest(payload)
        self._write({"type": "expect", "outcome": payload})

    def fingerprint(self) -> str:
        """Hex digest of the interaction stream recorded so far."""
        return self._fingerprint.hexdigest()

    def close(self) -> None:
        """Write the ``end`` record and close the file (idempotent)."""
        if self._closed:
            return
        record: dict[str, Any] = {
            "type": "end",
            "publishes": self._publishes,
            "submissions": self._submissions,
            "cancels": self._cancels,
            "fingerprint": self._fingerprint.hexdigest(),
        }
        if self._expect_digest is not None:
            record["expect_digest"] = self._expect_digest
        self._write(record)
        self._file.close()
        self._closed = True

    def abort(self) -> None:
        """Close the file *without* an ``end`` record (idempotent).

        The result is a recognisably truncated trace that
        :func:`load_trace` refuses — the right artifact for a recording
        whose run failed partway.
        """
        if self._closed:
            return
        self._file.close()
        self._closed = True

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # A run that raised mid-recording must not be sealed as complete:
        # leave the trace truncated so it refuses to load, instead of
        # stamping a partial run with a valid end record.
        if exc_type is not None:
            self.abort()
        else:
            self.close()


# -- the loaded trace ---------------------------------------------------------


@dataclass
class RecordedHIT:
    """One recorded publish with everything the market served for it."""

    index: int
    at: float
    hit: dict[str, Any]
    submissions: list[dict[str, Any]] = field(default_factory=list)
    cancel: dict[str, Any] | None = None

    @property
    def hit_id(self) -> str:
        return self.hit["hit_id"]

    @property
    def cancelled_outstanding(self) -> int:
        """Assignments the recording forfeited (0 when never cancelled)."""
        return 0 if self.cancel is None else self.cancel["outstanding"]

    @property
    def total_assignments(self) -> int:
        """Assignments the recorded market actually produced for this HIT."""
        return len(self.submissions) + self.cancelled_outstanding


@dataclass(frozen=True)
class Trace:
    """A fully loaded, validated trace file."""

    path: Path
    header: dict[str, Any]
    hits: tuple[RecordedHIT, ...]
    expect: dict[str, Any] | None
    end: dict[str, Any]

    @property
    def meta(self) -> dict[str, Any]:
        return self.header.get("meta", {})

    @property
    def fingerprint(self) -> str:
        return self.end["fingerprint"]

    @property
    def price_schedule(self) -> PriceSchedule:
        price = self.header["price"]
        return PriceSchedule(
            worker_reward=price["worker_reward"],
            platform_fee=price["platform_fee"],
        )


#: Fields :func:`load_trace` and the replay backend read, by record type.
_REQUIRED_FIELDS = {
    "publish": ("index", "at", "hit"),
    "submission": ("hit_id", "index", "at", "assignment", "profile"),
    "cancel": ("hit_id", "outstanding"),
    "expect": ("outcome",),
}


def load_trace(path: str | Path) -> Trace:
    """Load and validate a trace file.

    Raises
    ------
    TraceError
        On a line that is not a newline-terminated JSON object (with the
        offending line number), wrong format or version, records missing
        a field or referencing unknown HITs, a missing ``end`` record
        (truncation), count mismatches, or a fingerprint that no longer
        matches the records (corruption/tampering).
    """
    path = Path(path)
    # One buffered read, split by the shared framing rule: long recordings
    # (thousands of submissions) load in a single I/O batch.
    frames = read_frames(path.read_bytes())
    if frames.fault is not None:
        lineno, reason = frames.fault
        raise TraceError(
            f"{path}:{lineno}: {reason} — truncated or corrupt trace file"
        )
    if not frames.records:
        raise TraceError(f"{path}: empty file — not a {TRACE_FORMAT} trace")
    header = TRACE.check_header(frames.records[0], f"{path}:{frames.lines[0]}: ")
    fingerprint = _Fingerprint(header)
    hits: list[RecordedHIT] = []
    by_id: dict[str, RecordedHIT] = {}
    expect: dict[str, Any] | None = None
    end: dict[str, Any] | None = None
    submission_counter = 0

    for lineno, record in zip(frames.lines[1:], frames.records[1:]):
        if end is not None:
            raise TraceError(f"{path}:{lineno}: records after the end marker")
        kind = record.get("type")
        for name in _REQUIRED_FIELDS.get(kind, ()):
            if name not in record:
                raise TraceError(
                    f"{path}:{lineno}: {kind} record has no {name!r} field"
                )
        if kind == "publish":
            recorded = RecordedHIT(
                index=record["index"], at=record["at"], hit=record["hit"]
            )
            if recorded.index != len(hits):
                raise TraceError(
                    f"{path}:{lineno}: publish index {recorded.index} out "
                    f"of order (expected {len(hits)})"
                )
            if recorded.hit_id in by_id:
                raise TraceError(
                    f"{path}:{lineno}: HIT {recorded.hit_id!r} published twice"
                )
            hits.append(recorded)
            by_id[recorded.hit_id] = recorded
            fingerprint.fold(record)
        elif kind == "submission":
            hit_id = record["hit_id"]
            recorded = by_id.get(hit_id)
            if recorded is None:
                raise TraceError(
                    f"{path}:{lineno}: submission for unknown HIT {hit_id!r}"
                )
            if record["index"] != len(recorded.submissions):
                raise TraceError(
                    f"{path}:{lineno}: submission index {record['index']} "
                    f"out of order for HIT {hit_id!r}"
                )
            if recorded.cancel is not None:
                raise TraceError(
                    f"{path}:{lineno}: submission after cancel for HIT "
                    f"{hit_id!r}"
                )
            # Global collection order across every HIT (file order):
            # replay serves submissions in exactly this order, which
            # on slow/live recordings differs from simulated-arrival
            # order (wall-clock dormancy reorders collections).
            record["global_index"] = submission_counter
            submission_counter += 1
            recorded.submissions.append(record)
            fingerprint.fold(record)
        elif kind == "cancel":
            hit_id = record["hit_id"]
            recorded = by_id.get(hit_id)
            if recorded is None:
                raise TraceError(
                    f"{path}:{lineno}: cancel of unknown HIT {hit_id!r}"
                )
            if recorded.cancel is not None:
                raise TraceError(
                    f"{path}:{lineno}: HIT {hit_id!r} cancelled twice"
                )
            recorded.cancel = record
            fingerprint.fold(record)
        elif kind == "expect":
            if expect is not None:
                raise TraceError(f"{path}:{lineno}: multiple expect records")
            expect = record["outcome"]
        elif kind == "end":
            end = record
        else:
            raise TraceError(f"{path}:{lineno}: unknown record type {kind!r}")

    if end is None:
        raise TraceError(
            f"{path}: no end record — the trace is truncated (recorder was "
            "never closed, or the file was cut short)"
        )
    counts = {
        "publishes": len(hits),
        "submissions": sum(len(h.submissions) for h in hits),
        "cancels": sum(1 for h in hits if h.cancel is not None),
    }
    for key, value in counts.items():
        if end.get(key) != value:
            raise TraceError(
                f"{path}: end record says {end.get(key)} {key}, file holds "
                f"{value} — corrupt trace"
            )
    if end.get("fingerprint") != fingerprint.hexdigest():
        raise TraceError(
            f"{path}: fingerprint mismatch — the trace records were modified "
            "after recording (corrupt or tampered file)"
        )
    sealed_expect = end.get("expect_digest")
    if (expect is None) != (sealed_expect is None) or (
        expect is not None and digest(expect) != sealed_expect
    ):
        raise TraceError(
            f"{path}: the pinned outcome does not match the digest sealed in "
            "the end record — the expect record was modified after recording "
            "(corrupt or tampered file)"
        )
    return Trace(
        path=path,
        header=header,
        hits=tuple(hits),
        expect=expect,
        end=end,
    )


# -- replay -------------------------------------------------------------------


def _hit_mismatch_detail(
    recorded: Mapping[str, Any], published: Mapping[str, Any]
) -> str:
    """First human-readable difference between two HIT specs."""
    if recorded["hit_id"] != published["hit_id"]:
        return (
            f"recorded hit_id {recorded['hit_id']!r}, engine published "
            f"{published['hit_id']!r}"
        )
    if recorded["assignments"] != published["assignments"]:
        return (
            f"recorded {recorded['assignments']} assignments, engine "
            f"requested {published['assignments']}"
        )
    rq, pq = recorded["questions"], published["questions"]
    if len(rq) != len(pq):
        return f"recorded {len(rq)} questions, engine composed {len(pq)}"
    for position, (a, b) in enumerate(zip(rq, pq)):
        if a != b:
            return (
                f"question {position} differs: recorded "
                f"{canonical_json(a)}, engine composed {canonical_json(b)}"
            )
    return "specs differ"


class _ReplayHandle:
    """Serve one recorded HIT's submissions back to the engine.

    Mirrors :class:`~repro.amt.market.PublishedHIT` semantics exactly —
    ``outstanding`` counts down as submissions are collected, collections
    charge the replay ledger, ``cancel`` forfeits (and never charges) the
    recorded remainder — with one replay-specific twist: a HIT the
    recording cancelled *waits* for the engine to cancel it after its
    recorded submissions drain (``done`` stays False, nothing pending),
    and reports a ``missing-cancel`` divergence if the engine instead
    asks when the next submission will arrive.
    """

    def __init__(
        self,
        backend: "TraceReplayBackend",
        recorded: RecordedHIT,
        hit: HIT,
    ) -> None:
        self._backend = backend
        self._recorded = recorded
        self._hit = hit
        self._cursor = 0
        self._cancelled = False
        self._assignments = tuple(
            _assignment_from_json(recorded.hit_id, s["assignment"])
            for s in recorded.submissions
        )
        self._release_offsets = tuple(s["at"] for s in recorded.submissions)
        self._global_order = tuple(
            s["global_index"] for s in recorded.submissions
        )
        self._profiles = {
            s["profile"]["worker"]: _profile_from_json(s["profile"])
            for s in recorded.submissions
        }

    # -- handle protocol -------------------------------------------------------

    @property
    def hit(self) -> HIT:
        return self._hit

    @property
    def collected(self) -> int:
        return self._cursor

    @property
    def outstanding(self) -> int:
        if self._cancelled:
            return 0
        return self._recorded.total_assignments - self._cursor

    @property
    def done(self) -> bool:
        return self._cancelled or self._cursor >= self._recorded.total_assignments

    @property
    def awaiting_recorded_cancel(self) -> bool:
        """Recorded submissions drained; the recording cancelled the rest
        and the engine has not (yet) issued that cancel."""
        return (
            not self._cancelled
            and self._cursor >= len(self._assignments)
            and self._recorded.cancelled_outstanding > 0
        )

    def _released(self) -> bool:
        """The next recorded submission is collectable *now*.

        Two gates: the recorded wall-clock offset must have passed
        (scaled by the backend's ``time_scale``), and every submission
        recorded *before* it — across all HITs — must have been served.
        The global-order gate is what reproduces slow/live recordings
        exactly: their collection order follows wall-clock dormancy, not
        simulated arrival times, so a compressed replay would otherwise
        reorder the stream.
        """
        if self._cursor >= len(self._assignments):
            return False
        if self._global_order[self._cursor] != self._backend._served_global:
            return False
        return self._backend._release_time(self._release_offsets[self._cursor]) <= 0.0

    def peek_time(self) -> float | None:
        """Recorded simulated arrival time of the next submission.

        ``None`` while the submission is not collectable yet (recorded
        release time not reached, or earlier-recorded submissions of
        other HITs not yet served) — the handle is dormant exactly as a
        live HIT awaiting its next worker would be.
        """
        if self.done or not self._released():
            return None
        return self._assignments[self._cursor].submit_time

    def next_submission(self) -> Assignment | None:
        if self.done or not self._released():
            return None
        assignment = self._assignments[self._cursor]
        submission = self._recorded.submissions[self._cursor]
        self._cursor += 1
        self._backend._served_global += 1
        self._backend.ledger.charge(self._hit.hit_id, 1)
        self._backend._fingerprint.fold(submission)
        return assignment

    def next_arrival_eta(self) -> float | None:
        """Seconds until the next recorded submission unlocks.

        A HIT whose recorded remainder was cancelled reports ``None``
        while other HITs can still progress (the engine may issue the
        cancel later in the script, as the recording did) — but when
        *every* live handle is in that state the replay is stalled:
        nothing will ever arrive, so a ``missing-cancel``
        :class:`TraceDivergence` names this HIT instead of letting the
        deviation look like a hang.  A handle gated behind the global
        collection order likewise reports ``None`` (the globally-next
        submission's own handle declares the wait) — unless that next
        submission belongs to a HIT the engine never published, which is
        the other provable stall (``stalled-replay``).
        """
        if self.done:
            return None
        if self.awaiting_recorded_cancel:
            if self._backend._stalled_awaiting_cancels():
                raise TraceDivergence(
                    "missing-cancel",
                    f"the recording cancelled "
                    f"{self._recorded.cancelled_outstanding} outstanding "
                    "assignments at this point, but the replayed engine is "
                    "waiting for more submissions instead of cancelling",
                    hit_id=self._hit.hit_id,
                )
            return None
        if self._global_order[self._cursor] != self._backend._served_global:
            self._backend._check_head_published(waiting_hit=self._hit.hit_id)
            return None
        return max(
            0.0, self._backend._release_time(self._release_offsets[self._cursor])
        )

    def cancel(self) -> int:
        """Replay the recorded cancel (or report the deviation).

        Valid only at the exact recorded point: after every recorded
        submission was collected, on a HIT the recording cancelled.
        """
        if self._cancelled:
            return 0
        recorded_cancel = self._recorded.cancel
        if recorded_cancel is None:
            if self.done:
                # Mirrors PublishedHIT: cancelling a drained HIT forfeits
                # nothing and charges nothing.  Not a divergence — the
                # engine may defensively cancel finished handles.
                self._cancelled = True
                return 0
            raise TraceDivergence(
                "unexpected-cancel",
                f"engine cancelled after {self._cursor} of "
                f"{len(self._assignments)} recorded submissions, but the "
                "recording ran this HIT to completion",
                hit_id=self._hit.hit_id,
            )
        if self._cursor < len(self._assignments):
            raise TraceDivergence(
                "premature-cancel",
                f"engine cancelled after {self._cursor} submissions; the "
                f"recording collected {len(self._assignments)} before "
                f"cancelling the remaining {recorded_cancel['outstanding']}",
                hit_id=self._hit.hit_id,
            )
        avoided = self.outstanding
        if avoided:
            self._backend.ledger.cancel(self._hit.hit_id, avoided)
        self._cancelled = True
        self._backend._fingerprint.fold(
            {"type": "cancel", "hit_id": self._hit.hit_id, "outstanding": avoided}
        )
        return avoided

    def worker_profile(self, worker_id: str) -> WorkerProfile:
        try:
            return self._profiles[worker_id]
        except KeyError:
            raise KeyError(
                f"worker {worker_id!r} never submitted to HIT "
                f"{self._hit.hit_id!r} in the recording"
            ) from None


class TraceReplayBackend:
    """Replay a recorded trace through the unchanged engine.

    The engine publishes HITs exactly as it would against a live market;
    this backend checks each publish against the recording (raising
    :class:`TraceDivergence` on any deviation) and serves back the
    recorded submissions, profiles, and cancel bookkeeping on a fresh
    ledger priced from the recorded schedule — replayed results and
    spend are bit-for-bit those of the recording run.

    Parameters
    ----------
    trace:
        A loaded :class:`Trace` (see :func:`load_trace` /
        :meth:`TraceReplayBackend.load`).
    time_scale:
        Multiplier on the recorded wall-clock offsets: ``0.0`` (default)
        compresses all waiting away — every recorded submission is
        collectable immediately; ``1.0`` reproduces the recording's
        pacing through ``next_arrival_eta()`` (the asyncio driver then
        sleeps exactly as it would have during the recording).
    clock:
        Injectable wall-clock for deterministic pacing tests.
    """

    def __init__(
        self,
        trace: Trace,
        time_scale: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if time_scale < 0:
            raise ValueError(f"time_scale must be ≥ 0, got {time_scale}")
        self.trace = trace
        self.time_scale = time_scale
        self._clock = clock
        self._t0: float | None = None
        self.ledger = CostLedger(schedule=trace.price_schedule)
        self._fingerprint = _Fingerprint(trace.header)
        self._next_publish = 0
        #: Submissions served so far across every HIT — the global-order
        #: cursor (see :meth:`_ReplayHandle._released`).
        self._served_global = 0
        #: global submission index → index of the publish that owns it.
        total = sum(len(recorded.submissions) for recorded in trace.hits)
        self._owner_of_global = [0] * total
        for recorded in trace.hits:
            for submission in recorded.submissions:
                self._owner_of_global[submission["global_index"]] = recorded.index
        self._handles: list[_ReplayHandle] = []

    @classmethod
    def load(
        cls,
        path: str | Path,
        time_scale: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> "TraceReplayBackend":
        """Load ``path`` and build a replay backend over it."""
        return cls(load_trace(path), time_scale=time_scale, clock=clock)

    # -- pacing ----------------------------------------------------------------

    def _release_time(self, recorded_offset: float) -> float:
        """Seconds until a recorded offset unlocks (≤ 0 = released)."""
        if self.time_scale == 0.0:
            return 0.0
        if self._t0 is None:
            self._t0 = self._clock()
        return self._t0 + recorded_offset * self.time_scale - self._clock()

    # -- backend protocol ------------------------------------------------------

    def publish(self, hit: HIT) -> _ReplayHandle:
        if self._t0 is None:
            self._t0 = self._clock()
        if self._next_publish >= len(self.trace.hits):
            raise TraceDivergence(
                "extra-publish",
                f"engine published {hit.hit_id!r} but the recording holds "
                f"only {len(self.trace.hits)} publishes",
                hit_id=hit.hit_id,
            )
        recorded = self.trace.hits[self._next_publish]
        published = _hit_to_json(hit)
        if published != recorded.hit:
            raise TraceDivergence(
                "hit-mismatch",
                _hit_mismatch_detail(recorded.hit, published),
                hit_id=recorded.hit_id,
            )
        self._next_publish += 1
        self._fingerprint.fold({"type": "publish", "hit": recorded.hit})
        handle = _ReplayHandle(self, recorded, hit)
        self._handles.append(handle)
        return handle

    def _stalled_awaiting_cancels(self) -> bool:
        """Every live handle is waiting for a cancel the engine never
        issued — no submission can ever be served again."""
        live = [h for h in self._handles if not h.done]
        return bool(live) and all(h.awaiting_recorded_cancel for h in live)

    def _check_head_published(self, waiting_hit: str) -> None:
        """Raise when the globally-next recorded submission can never come.

        Called by a handle gated behind the global collection order.  The
        gating submission's own HIT normally declares the wait; if the
        engine never *published* that HIT, no collection can ever unlock
        again and the replay would otherwise spin hot — a provable stall,
        reported as a ``stalled-replay`` :class:`TraceDivergence` instead.
        """
        if self._served_global >= len(self._owner_of_global):
            return
        owner = self._owner_of_global[self._served_global]
        if owner >= self._next_publish:
            missing = self.trace.hits[owner]
            raise TraceDivergence(
                "stalled-replay",
                f"HIT {waiting_hit!r} is waiting behind recorded submission "
                f"#{self._served_global}, which belongs to "
                f"{missing.hit_id!r} (publish #{owner}) — a HIT the "
                "replayed engine never published; the replay cannot "
                "progress",
                hit_id=missing.hit_id,
            )

    def next_arrival_eta(self) -> float | None:
        """Earliest recorded release across every live replayed HIT."""
        etas = [
            eta
            for handle in self._handles
            if not handle.done
            and (eta := handle.next_arrival_eta()) is not None
        ]
        if not etas:
            return None
        return max(0.0, min(etas))

    # -- completion ------------------------------------------------------------

    def fingerprint(self) -> str:
        """Hex digest of the interactions actually replayed so far.

        Equals the trace's recorded fingerprint exactly when the engine
        re-performed every recorded interaction — :meth:`verify_complete`
        checks that and more.
        """
        return self._fingerprint.hexdigest()

    def verify_complete(self) -> str:
        """Assert the whole recording was replayed; returns the fingerprint.

        Raises
        ------
        TraceDivergence
            ``incomplete-replay`` when recorded publishes were never
            requested, recorded submissions never collected, or a
            recorded cancel never issued — the replayed engine stopped
            short of the recording.
        """
        if self._next_publish < len(self.trace.hits):
            missing = self.trace.hits[self._next_publish]
            raise TraceDivergence(
                "incomplete-replay",
                f"recorded publish #{missing.index} ({missing.hit_id!r}) was "
                "never requested by the engine",
                hit_id=missing.hit_id,
            )
        for handle in self._handles:
            recorded = handle._recorded
            if handle.collected < len(recorded.submissions):
                raise TraceDivergence(
                    "incomplete-replay",
                    f"only {handle.collected} of {len(recorded.submissions)} "
                    "recorded submissions were collected",
                    hit_id=recorded.hit_id,
                )
            if recorded.cancel is not None and not handle._cancelled:
                raise TraceDivergence(
                    "missing-cancel",
                    "the recording cancelled this HIT but the replayed "
                    "engine never did",
                    hit_id=recorded.hit_id,
                )
        replayed = self.fingerprint()
        if replayed != self.trace.fingerprint:
            raise TraceDivergence(
                "incomplete-replay",
                f"replayed fingerprint {replayed} != recorded "
                f"{self.trace.fingerprint}",
            )
        return replayed
