"""Snapshot compaction: serialize service state at a journal offset.

A snapshot pins the *whole* recovered world — engine (market RNG state,
ledger, estimator tallies), scheduler, admission controller and every
query record — as a pickle taken at a **quiescent** point (no HITs in
flight or pending, so every session is sealed).  Recovery then loads the
snapshot and replays only the journal tail after its offset: O(delta),
not O(history).

A sealed HIT enters the pickle as its verdicts, not its raw votes: its
session keeps the verified records and, per question, whether it was
answered; its market handle keeps the collected count and the worker
profiles, not the assignments.  Both let go of the rest as the HIT is
verified.  A snapshot written while sealed HITs still kept their votes
and assignments loads into the same form, and its version is the same.

Closures and generators cannot pickle, so the parts of a query record
that hold them (batch-spec ``sources``, the ``finalize`` assembler) are
stripped before pickling and *regenerated* at load time by re-invoking
the job's submitter with the journaled submission inputs — determinism
guarantees the regenerated stream is bit-identical, so it is
fast-forwarded past the specs that were already granted and re-linked to
the pickled sessions.  Terminal records keep their pickled results and
regenerate nothing; they hold no sessions, and the scheduler lists only
active queries' (DESIGN.md §7).  A snapshot written while they still
held them loads into that form.  The lazy auto-plan's ``plan_args`` are stripped
too and not regenerated: a plan-less query restored from a snapshot
reads its ``plan`` as ``None``.

Snapshot files are trusted local state (pickle): recovery only loads a
snapshot whose journal pointer record carries a matching SHA-256 of the
file bytes.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.durability import codec
from repro.engine.service import (
    TERMINAL_STATES,
    _PlainSource,
    QueryIntake,
)

if TYPE_CHECKING:
    from repro.durability.service import DurableSchedulerService

SNAPSHOT_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot could not be taken, validated or installed."""


def default_snapshot_path(store_path: Path, offset: int) -> Path:
    """Where auto-snapshots live: next to the journal, offset-stamped."""
    return store_path.parent / f"{store_path.name}.snap-{offset}"


def _loads(data: bytes) -> Any:
    """``pickle.loads`` with the cyclic collector paused.

    A snapshot unpickles tens of thousands of container objects that
    all outlive the load, so every collection the allocations trigger
    walks a growing heap and frees nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(data)
    finally:
        if enabled:
            gc.enable()


def _capture_pickle(service: Any) -> bytes:
    """Pickle the service's durable state with the unpicklable (and
    regenerable) parts stripped — restoring the live objects afterwards,
    so an in-flight service can keep running after a snapshot."""
    saved_records = []
    for rec in service._records:
        saved_records.append(
            (
                rec,
                rec.sources,
                rec.finalize,
                rec.plan_args,
                rec._peeked,
                rec._peeked_group,
                rec._peeked_source,
                rec.observer,
            )
        )
        rec.sources = deque()
        rec.finalize = None
        rec.plan_args = None
        rec._peeked = rec._peeked_group = rec._peeked_source = None
        rec.observer = None
    saved_observer = service.observer
    saved_on_event = service.scheduler._on_event
    service.observer = None
    service.scheduler._on_event = None
    try:
        return pickle.dumps(
            {
                "engine": service.engine,
                "scheduler": service.scheduler,
                "admission": service.admission,
                "records": service._records,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    finally:
        service.observer = saved_observer
        service.scheduler._on_event = saved_on_event
        for entry in saved_records:
            rec = entry[0]
            (
                rec.sources,
                rec.finalize,
                rec.plan_args,
                rec._peeked,
                rec._peeked_group,
                rec._peeked_source,
                rec.observer,
            ) = entry[1:]


def write_snapshot(
    durable: "DurableSchedulerService", path: str | Path | None = None
) -> dict[str, Any]:
    """Serialize ``durable``'s state; returns the journal pointer record."""
    if not durable.quiescent:
        raise SnapshotError(
            "snapshots require quiescence (no HITs in flight or pending); "
            "pump the service to a window boundary or idle point first"
        )
    offset = durable.journal_offset
    store_path = Path(durable.store.path)
    target = Path(path) if path is not None else default_snapshot_path(
        store_path, offset
    )
    extras: dict[int, dict[str, Any]] = {}
    for rec in durable._records:
        if rec.state in TERMINAL_STATES:
            continue
        source = rec._peeked_source
        if source is None and rec.sources:
            front = rec.sources[0]
            source = front if isinstance(front, _PlainSource) else None
        extras[rec.seq] = {
            "was_peeked": rec._peeked is not None,
            "reserved_flag": bool(source.reserved) if source is not None else False,
            "group_indices": list(durable._grant_groups.get(rec.seq, [])),
            "windows_pulled": rec.windows_pulled,
        }
    payload = {
        "version": SNAPSHOT_VERSION,
        "tick": durable.ticks,
        "events": durable.scheduler.events_processed,
        "offset": offset,
        "extras": extras,
        "state": _capture_pickle(durable),
    }
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(data)
    stored_path = (
        target.name if target.parent == store_path.parent else str(target)
    )
    return {
        "k": "snapshot",
        "t": durable.ticks,
        "version": SNAPSHOT_VERSION,
        "path": stored_path,
        "offset": offset,
        "events": durable.scheduler.events_processed,
        "digest": hashlib.sha256(data).hexdigest(),
    }


def resolve_snapshot(
    records: list[dict[str, Any]], journal_path: Path
) -> tuple[dict[str, Any], int] | None:
    """The newest loadable snapshot: ``(payload, record index)``.

    Scans pointer records newest-first; a pointer whose file is missing
    or whose bytes no longer hash to the journaled digest (e.g. a crash
    mid-snapshot-write left a stale or torn file) is skipped — recovery
    falls back to an older snapshot or a full replay.
    """
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if record.get("k") != "snapshot":
            continue
        if record.get("version") != SNAPSHOT_VERSION:
            continue
        target = Path(record["path"])
        if not target.is_absolute():
            target = journal_path.parent / target
        if not target.exists():
            continue
        data = target.read_bytes()
        if hashlib.sha256(data).hexdigest() != record["digest"]:
            continue
        try:
            payload = _loads(data)
        except Exception:
            continue
        if payload.get("version") != SNAPSHOT_VERSION:
            continue
        if payload.get("offset") != record["offset"]:
            continue
        return payload, index
    return None


def install_snapshot(
    durable: "DurableSchedulerService",
    payload: dict[str, Any],
    submits_by_seq: dict[int, dict[str, Any]],
) -> None:
    """Transplant a snapshot into the freshly-built ``durable`` service and
    regenerate the stripped batch sources of every active record."""
    state = _loads(payload["state"])
    durable.engine = state["engine"]
    durable.scheduler = state["scheduler"]
    durable.admission = state["admission"]
    durable._records = state["records"]
    # The live index is not pickled: rebuild it from the records, or the
    # pump would never visit the queries the snapshot holds active.
    durable._live = [
        rec for rec in durable._records if rec.state not in TERMINAL_STATES
    ]
    durable.scheduler._on_event = None
    durable.scheduler.add_event_observer(durable._observer.on_event)

    extras = payload["extras"]
    for rec in durable._records:
        if rec.state in TERMINAL_STATES:
            rec.observer = durable._observer
            if rec.sessions:
                # Written before terminal records let go of their
                # sessions: release them now, as the run did since.
                durable._release(rec)
            continue
        info = extras.get(rec.seq)
        submit_rec = submits_by_seq.get(rec.seq)
        if info is None or submit_rec is None:
            raise SnapshotError(
                f"snapshot lacks regeneration info for active query "
                f"seq={rec.seq}"
            )
        submitter = durable._submitters.get(rec.job_name)
        if submitter is None:
            raise SnapshotError(
                f"recovered system has no submitter for job {rec.job_name!r}"
            )
        inputs = codec.decode(submit_rec["inputs"])
        intake = QueryIntake()
        # Observer stays off while regenerating: window pulls during the
        # fast-forward were journaled before the snapshot and must not
        # re-emit.
        rec.observer = None
        rec.finalize = submitter(durable.engine, intake, rec.plan, dict(inputs))
        rec.sources = intake.sources
        rec.groups = [entry.group for entry in intake.sources]
        rec.windows_pulled = 0
        group_indices = info["group_indices"]
        if len(group_indices) != len(rec.sessions):
            raise SnapshotError(
                f"query seq={rec.seq}: snapshot records "
                f"{len(group_indices)} grants but {len(rec.sessions)} "
                "pickled sessions"
            )
        for session, gi in zip(rec.sessions, group_indices):
            rec.groups[gi].sessions.append(session)
        # Fast-forward past the specs whose grants already happened —
        # the regenerated stream reproduces them bit-for-bit, and their
        # sessions were just re-linked above.
        for taken in range(len(group_indices)):
            if rec.peek_batch() is None:
                raise SnapshotError(
                    f"query seq={rec.seq}: regenerated source ran dry at "
                    f"spec {taken} of {len(group_indices)}"
                )
            rec.take_batch()
        if info["was_peeked"]:
            if rec.peek_batch() is None:
                raise SnapshotError(
                    f"query seq={rec.seq}: regenerated source has no spec "
                    "to re-peek"
                )
            if info["reserved_flag"] and rec._peeked_source is not None:
                rec._peeked_source.reserved = True
        elif info["reserved_flag"] and rec.sources:
            front = rec.sources[0]
            if isinstance(front, _PlainSource):
                front.reserved = True
        if rec.windows_pulled != info["windows_pulled"]:
            raise SnapshotError(
                f"query seq={rec.seq}: fast-forward materialised "
                f"{rec.windows_pulled} windows, snapshot expected "
                f"{info['windows_pulled']}"
            )
        rec.observer = durable._observer

    durable._grant_groups = {
        seq: list(info["group_indices"]) for seq, info in extras.items()
    }
    durable.ticks = payload["tick"]


__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "default_snapshot_path",
    "install_snapshot",
    "resolve_snapshot",
    "write_snapshot",
]
