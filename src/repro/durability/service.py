"""The journaled :class:`SchedulerService` subclass.

:class:`DurableSchedulerService` is a :class:`SchedulerService` that
writes every external action and every lifecycle progress mark to a
:class:`~repro.durability.journal.JournalStore`.  It overrides only the
journaled members; everything else — planning, tenant reads, the
handles it issues — is the base class's, so its handles are plain
:class:`~repro.engine.service.QueryHandle`\\ s whose ``result()`` pumps
the overridden :meth:`~DurableSchedulerService.step` and whose
``cancel()`` goes through the overridden ``_cancel``:

* **Actions** (tenant registration, submissions, cancels) are journaled
  with the current service *tick* and committed before the call returns
  (on any store: callers add no barrier).  Cancels are written ahead of
  being applied (they have immediate market side effects); submissions
  are validated first (an eagerly-refused submission has no state to
  recover) and journaled before any pump step can publish their work.
* **Progress marks** (slot grants, submission events, window pulls,
  reservations, completions) are emitted by observer hooks inside the
  engine layer and group-committed; they exist so recovery can *verify*
  its deterministic re-execution record-by-record.

Journal errors are fail-stop: the first store append or commit that
raises poisons the service, which raises
:class:`~repro.durability.journal.JournalFailed` then and on every later
action — it never runs ahead of its journal.

The same class runs recovery's replay: constructed with the journal tail
as ``expected`` records, every would-be append is instead compared
against the tail (:class:`~repro.durability.recovery.RecoveryDivergence`
on mismatch) and the service switches back to append mode the moment the
tail is exhausted — so a recovered service keeps journaling into the
same store and can itself crash and recover again.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.durability import codec
from repro.durability.journal import (
    JournalError,
    JournalFailed,
    JournalStore,
    make_header,
)
from repro.engine.service import (
    TERMINAL_STATES,
    QueryHandle,
    SchedulerService,
    TenantPolicy,
)

if TYPE_CHECKING:
    from repro.engine.planner import QueryPlan
    from repro.engine.query import Query


def _spend_of(record: Any, ledger: Any) -> float:
    """The journaled (rounded) spend figure for a completion record."""
    return round(record.spend(ledger), 6)


class _JournalObserver:
    """Engine-layer hooks funnelled into the durable service's journal.

    The service, its records and its scheduler's event chain all hold the
    observer, so it holds the service only weakly: a strong back-reference
    would keep every dropped durable service alive until a full garbage
    collection.  The hooks only ever run inside the service's own methods,
    so the referent is always alive when they dereference it.
    """

    __slots__ = ("_durable",)

    def __init__(self, durable: "DurableSchedulerService") -> None:
        self._durable = weakref.ref(durable)

    def on_grant(self, record: Any, session: Any, group_index: int) -> None:
        d = self._durable()
        d._grant_groups.setdefault(record.seq, []).append(group_index)
        d._observed({"k": "grant", "t": d.ticks, "q": record.seq, "g": group_index})

    def on_event(self, event: Any, session: Any) -> None:
        d = self._durable()
        d._observed(
            {
                "k": "ev",
                "t": d.ticks,
                "h": event.hit_id,
                "n": event.sequence,
                "w": getattr(event.assignment, "worker_id", None),
            }
        )

    def on_window(self, record: Any, index: int) -> None:
        d = self._durable()
        d._observed({"k": "window", "t": d.ticks, "q": record.seq, "i": index})

    def on_reserve(self, record: Any, amount: float) -> None:
        d = self._durable()
        d._observed(
            {"k": "reserve", "t": d.ticks, "q": record.seq, "a": round(amount, 6)}
        )

    def on_complete(self, record: Any) -> None:
        d = self._durable()
        ledger = d.engine.market.ledger
        d._observed(
            {
                "k": "done",
                "t": d.ticks,
                "q": record.seq,
                "s": record.state.value,
                "spend": _spend_of(record, ledger),
            }
        )


class DurableSchedulerService(SchedulerService):
    """A :class:`SchedulerService` with a write-ahead journal attached.

    Build one through :meth:`repro.system.CDAS.service` (``journal=``) or
    :func:`repro.durability.recovery.recover`; the constructor itself
    expects a *fresh* journal (recovery owns non-empty ones).

    Parameters
    ----------
    *args, **kwargs:
        :class:`SchedulerService`'s own (engine, planner, submitters and
        the service knobs).
    store:
        The journal store (see :func:`repro.durability.journal.open_store`).
    meta:
        Free-form JSON-able dict stamped into the journal header —
        recovery tooling uses it to find the right workload factory.
    snapshot_every:
        Auto-compaction: once at least this many records were appended
        since the last snapshot, the next *quiescent* step (no HITs in
        flight or pending) writes a snapshot.  ``None`` disables.
    """

    def __init__(
        self,
        *args: Any,
        store: JournalStore,
        meta: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
        _recovering: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.store = store
        self.ticks = 0
        #: Journal records currently in the store (header included).
        self.journal_offset = 0
        #: Progress marks verified during replay, by kind ``ev``.
        self.replayed_events = 0
        #: Total journal records verified during replay.
        self.replayed_records = 0
        self.snapshot_every = snapshot_every
        #: The store error that poisoned the service, once one has.
        self.failure: BaseException | None = None
        self._expected: list[dict[str, Any]] = []
        self._cursor = 0
        self._grant_groups: dict[int, list[int]] = {}
        self._marks_since_snapshot = 0
        self._observer = _JournalObserver(self)
        self.observer = self._observer
        self.scheduler.add_event_observer(self._observer.on_event)
        if not _recovering:
            existing = store.read_records()
            if existing:
                raise JournalError(
                    f"journal {store.path} already holds {len(existing)} "
                    "records; use repro.durability.recover() to resume it"
                )
            self.header = make_header(
                seed=getattr(self.engine, "seed", None),
                service={
                    "max_in_flight": self.max_in_flight,
                    "allocation": self.admission.allocation,
                    "track_trajectories": self.scheduler._track,
                    "snapshot_every": snapshot_every,
                },
                meta=meta,
            )
            self._append(self.header)

    # -- journal plumbing ----------------------------------------------------

    @property
    def replaying(self) -> bool:
        """Still verifying the journal tail (recovery in progress)."""
        return self._cursor < len(self._expected)

    def _ensure_healthy(self) -> None:
        """Fail-stop gate: every journaled action calls this first."""
        if self.failure is not None:
            raise JournalFailed(
                f"journal {self.store.path} failed earlier; the service is "
                "stopped — recover() the on-disk journal to continue"
            ) from self.failure

    def _store_call(self, op: Any, *args: Any) -> None:
        """Run one store write; a raise poisons the service."""
        try:
            op(*args)
        except Exception as exc:
            self.failure = exc
            raise JournalFailed(
                f"journal {self.store.path} write failed ({exc}); the service "
                "is stopped — recover() the on-disk journal to continue"
            ) from exc

    def _append(self, record: dict[str, Any]) -> None:
        self._store_call(self.store.append, record)
        self.journal_offset += 1
        self._marks_since_snapshot += 1

    def _observed(self, record: dict[str, Any]) -> None:
        """Funnel for every emitted record: verify during replay, append
        otherwise."""
        if self._cursor < len(self._expected):
            expected = self._expected[self._cursor]
            if expected != record:
                from repro.durability.recovery import RecoveryDivergence

                raise RecoveryDivergence(
                    f"recovery diverged at journal record "
                    f"{self.journal_offset + self._cursor}: expected "
                    f"{expected!r}, re-execution produced {record!r}"
                )
            self._cursor += 1
            self.replayed_records += 1
            if record["k"] == "ev":
                self.replayed_events += 1
            return
        self._append(record)

    def _commit_action(self, record: dict[str, Any]) -> None:
        """Journal one action and commit it before the caller acts on it."""
        self._observed(record)
        self._store_call(self.store.commit)

    def flush_journal(self) -> None:
        """Durability barrier: fsync everything appended so far.  The
        async driver calls this whenever it goes dormant or drains, which
        keeps the barrier off the per-event hot loop."""
        self._ensure_healthy()
        self._store_call(self.store.commit)

    def journal_stats(self) -> dict[str, Any]:
        """Journal observability counters, as plain JSON-able data.

        The gateway's ``/v1/metrics`` endpoint serves this verbatim;
        anything else watching a durable service (dashboards, the
        recovery CLI) reads the same figures instead of poking store
        internals."""
        return {
            "path": str(self.store.path),
            "records": self.journal_offset,
            "appended": self.store.appended,
            "syncs": self.store.syncs,
            "write_seconds": round(self.store.write_seconds, 6),
            "replayed_records": self.replayed_records,
            "replayed_events": self.replayed_events,
            "ticks": self.ticks,
            "replaying": self.replaying,
        }

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "DurableSchedulerService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- actions -------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
    ) -> TenantPolicy:
        self._ensure_healthy()
        # Validate before journaling: a record that raises on replay
        # would make the whole journal unrecoverable.
        TenantPolicy(name=name, budget_cap=budget_cap, priority=priority)
        self._commit_action(
            {
                "k": "tenant",
                "t": self.ticks,
                "name": name,
                "cap": budget_cap,
                "priority": priority,
            }
        )
        return super().register_tenant(
            name, budget_cap=budget_cap, priority=priority
        )

    def submit(
        self,
        job_name: str | None = None,
        query: "Query | None" = None,
        *,
        plan: "QueryPlan | None" = None,
        tenant: str | None = None,
        budget: float | None = None,
        priority: float | None = None,
        reserve: bool | None = None,
        **job_inputs: Any,
    ) -> QueryHandle:
        """As :meth:`SchedulerService.submit`, plus a committed ``submit``
        record.  The base submit runs first — an eagerly-refused
        submission (bad inputs, tenant over cap, infeasible plan) raises
        here with **nothing** journaled, mirroring its zero market
        footprint.  Plan-shape submissions are journaled by their plan's
        bound fields; planning is pure, so recovery re-plans identically.
        """
        self._ensure_healthy()
        handle = super().submit(
            job_name,
            query,
            plan=plan,
            tenant=tenant,
            budget=budget,
            priority=priority,
            reserve=reserve,
            **job_inputs,
        )
        if plan is not None:
            mode = "plain" if reserve is False else "reserve"
            job_name, query, tenant = plan.job_name, plan.query, plan.tenant
            budget, priority = plan.budget, plan.priority
            job_inputs = dict(plan.job_inputs)
        else:
            mode = "reserve" if reserve else "plain"
        self._commit_action(
            {
                "k": "submit",
                "t": self.ticks,
                "q": handle.seq,
                "job": job_name,
                "mode": mode,
                "tenant": tenant,
                "budget": budget,
                "priority": priority,
                "query": codec.encode(query),
                "inputs": codec.encode(job_inputs),
            }
        )
        return handle

    def _cancel(self, record: Any) -> bool:
        """Charge-final cancel, written ahead to the journal: the cancel
        record is committed *before* the market backend is told, so an
        acknowledged cancel survives any crash and recovery can never
        re-admit or re-charge the query."""
        self._ensure_healthy()
        if record.state in TERMINAL_STATES:
            return False
        self._commit_action({"k": "cancel", "t": self.ticks, "q": record.seq})
        return super()._cancel(record)

    def _release(self, record: Any) -> None:
        """As :meth:`SchedulerService._release`, and forget the query's
        grant groups: a snapshot records them for active queries only."""
        super()._release(record)
        self._grant_groups.pop(record.seq, None)

    # -- the pump ------------------------------------------------------------

    def step(self) -> bool:
        """One tick: pump the service once (journaling its progress
        marks), then maybe auto-snapshot at a quiescent point."""
        self._ensure_healthy()
        self.ticks += 1
        stepped = super().step()
        if (
            self.snapshot_every is not None
            and not self.replaying
            and self._marks_since_snapshot >= self.snapshot_every
        ):
            # Sessions that just finished stay "in flight" until the next
            # step's reap; reaping here (idempotent, no journal footprint)
            # exposes the quiescent boundary between standing windows.
            self.scheduler.reap()
            if self.quiescent:
                self.snapshot()
        return stepped

    def run_until_idle(self) -> int:
        """As :meth:`SchedulerService.run_until_idle`; commits the journal
        tail before returning."""
        steps = super().run_until_idle()
        self.flush_journal()
        return steps

    # -- snapshots -----------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """No HITs in flight or pending — the only points a snapshot may
        be taken (all session state is sealed; every unpublished batch is
        regenerable from its journaled submission)."""
        return self.scheduler.in_flight == 0 and self.scheduler.pending_count == 0

    def snapshot(self, path: Any = None) -> dict[str, Any]:
        """Write a snapshot of the full service state and journal a
        pointer to it; returns the journal record."""
        from repro.durability.snapshot import write_snapshot

        self._ensure_healthy()
        if self.replaying:
            raise JournalError("cannot snapshot while replaying a journal tail")
        self.scheduler.reap()
        record = write_snapshot(self, path)
        self._append(record)
        self._store_call(self.store.commit)
        self._marks_since_snapshot = 0
        return record
