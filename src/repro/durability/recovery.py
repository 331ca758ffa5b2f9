"""Crash recovery: rebuild a service from its journal and resume it.

Recovery is deterministic re-execution.  :func:`recover` rebuilds the
service shell from the journal header (same slots / allocation /
trajectory flags), optionally transplants the newest valid snapshot, and
then drives the *replay loop*: journal actions are re-applied at exactly
the tick they originally happened, with ``step()`` calls in between, so
the admission controller, scheduler and simulated market make precisely
the original decisions.  Every regenerated progress mark is verified
against the journaled one — a single mismatch raises
:class:`RecoveryDivergence` rather than silently resuming a different
run.

When the journal tail is exhausted the service flips back to append
mode: the recovered service keeps journaling into the same store,
resumes standing queries where they stopped, and can itself crash and
recover again.  In-flight HITs at the crash point are re-armed simply by
re-publishing them through the market backend — the fresh simulated
market regenerates their submission streams bit-for-bit, or a
:class:`~repro.amt.trace.TraceReplayBackend` passed as ``backend=``
replays a recorded market verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.durability import codec
from repro.durability.journal import (
    ACTION_KINDS,
    JournalStore,
    check_header,
    open_store,
)
from repro.durability.service import DurableSchedulerService
from repro.durability.snapshot import install_snapshot, resolve_snapshot
from repro.util.records import digest

if TYPE_CHECKING:
    from pathlib import Path

    from repro.amt.backend import MarketBackend
    from repro.system import CDAS


class RecoveryError(RuntimeError):
    """The journal could not be recovered against the given system."""


class RecoveryDivergence(RecoveryError):
    """Re-execution produced a record the journal did not — the rebuilt
    system is not the one that wrote the journal (different seed, code,
    or backend)."""


def recover(
    journal: "str | Path | JournalStore",
    system: "CDAS",
    *,
    backend: "MarketBackend | None" = None,
    use_snapshot: bool = True,
) -> DurableSchedulerService:
    """Reconstruct the service a journal describes and resume it.

    Parameters
    ----------
    journal:
        Journal path (or an open :class:`JournalStore`).  Torn trailing
        writes from the crash are discarded automatically.
    system:
        A freshly built :class:`~repro.system.CDAS` equivalent to the one
        that wrote the journal — same seed, config, calibration and job
        registrations.  Recovery verifies the seed against the header and
        every re-executed event against the journal, so a mismatched
        system fails loudly, never silently.
    backend:
        Optional market backend for the re-execution — typically a
        :class:`~repro.amt.trace.TraceReplayBackend` to re-arm in-flight
        HITs from a recorded trace.  Forces a full journal replay
        (snapshots embed their own market state and are skipped).
    use_snapshot:
        Load the newest valid snapshot and replay only the tail after
        its offset (the default).  ``False`` forces a full replay.

    Returns the recovered :class:`DurableSchedulerService` — its
    ``replayed_records`` / ``replayed_events`` counters report how much
    tail was re-executed, and its handles expose every journaled query.
    """
    store = open_store(journal)
    records = store.read_records()
    if not records:
        raise RecoveryError(f"journal {store.path} is empty; nothing to recover")
    header = check_header(records[0], f"{store.path}: ")
    system_seed = getattr(system.engine, "seed", None)
    if header.get("seed") is not None and system_seed != header["seed"]:
        raise RecoveryError(
            f"journal was written with engine seed {header['seed']}, but "
            f"the rebuilt system uses seed {system_seed}; recovery would "
            "diverge immediately"
        )
    cfg = header["service"]
    durable = system._build_service(
        DurableSchedulerService,
        backend,
        max_in_flight=cfg["max_in_flight"],
        track_trajectories=cfg["track_trajectories"],
        allocation=cfg["allocation"],
        store=store,
        snapshot_every=cfg.get("snapshot_every"),
        _recovering=True,
    )
    durable.header = header
    durable.journal_offset = len(records)

    snapshot = None
    if use_snapshot and backend is None:
        snapshot = resolve_snapshot(records, store.path)
    if snapshot is not None:
        payload, snap_index = snapshot
        submits_by_seq = {
            r["q"]: r for r in records if r.get("k") == "submit"
        }
        install_snapshot(durable, payload, submits_by_seq)
        tail = records[snap_index + 1 :]
    else:
        tail = records[1:]
    # Snapshot pointer records are bookkeeping, not re-executable state.
    durable._expected = [r for r in tail if r.get("k") != "snapshot"]
    durable._marks_since_snapshot = len(durable._expected)

    _replay(durable)
    durable.flush_journal()
    return durable


def _replay(durable: DurableSchedulerService) -> None:
    """Interleave journal actions with ``step()`` calls at the recorded
    ticks; progress marks verify themselves inside the step hooks."""
    expected = durable._expected
    while durable.replaying:
        record = expected[durable._cursor]
        tick = record["t"]
        if record["k"] in ACTION_KINDS:
            if tick < durable.ticks:
                raise RecoveryDivergence(
                    f"journal action {record!r} is stamped tick {tick} but "
                    f"replay is already at tick {durable.ticks}"
                )
            while durable.ticks < tick:
                durable.step()
            _apply_action(durable, record)
        else:
            if durable.ticks >= tick:
                raise RecoveryDivergence(
                    f"re-execution reached tick {durable.ticks} without "
                    f"producing journaled record {record!r}"
                )
            durable.step()


def _apply_action(durable: DurableSchedulerService, record: dict[str, Any]) -> None:
    kind = record["k"]
    if kind == "tenant":
        durable.register_tenant(
            record["name"],
            budget_cap=record["cap"],
            priority=record["priority"],
        )
    elif kind == "submit":
        query = codec.decode(record["query"])
        inputs = codec.decode(record["inputs"])
        durable.submit(
            record["job"],
            query,
            tenant=record["tenant"],
            budget=record["budget"],
            priority=record["priority"],
            reserve=True if record["mode"] == "reserve" else None,
            **inputs,
        )
    elif kind == "cancel":
        seq = record["q"]
        if seq >= len(durable._records):
            raise RecoveryDivergence(
                f"journal cancels query seq={seq} but only "
                f"{len(durable._records)} queries were replayed"
            )
        handle = durable._view(durable._records[seq])
        if handle.seq != seq:  # pragma: no cover - seq==index invariant
            raise RecoveryDivergence(
                f"handle order drifted: index {seq} holds seq {handle.seq}"
            )
        handle.cancel()
    else:  # pragma: no cover - ACTION_KINDS is closed
        raise RecoveryError(f"unknown action kind {kind!r}")


# -- outcome digests ---------------------------------------------------------


def outcome_summary(service: Any) -> dict[str, Any]:
    """Canonical terminal observation of a (durable or plain) service:
    every handle's summary, the ledger, per-tenant reservations and the
    admission grant log.  Two runs are *the same run* iff these match."""
    from repro.scenarios import _handle_summary, _ledger_summary

    admission = service.admission
    return {
        "queries": [_handle_summary(handle) for handle in service.handles],
        "ledger": _ledger_summary(service.engine.market.ledger),
        "reservations": {
            policy.name: round(service.tenant_reserved(policy.name), 6)
            for policy in admission.tenants
        },
        "committed": {
            policy.name: round(service.tenant_committed(policy.name), 6)
            for policy in admission.tenants
        },
        "grant_log": [list(entry) for entry in admission.grant_log],
    }


def outcome_digest(service: Any) -> str:
    """SHA-256 (first 16 hex chars) of :func:`outcome_summary`."""
    return digest(outcome_summary(service))[:16]
