"""Async-native service front door: awaitable handles, sans-IO core.

CDAS queries are *standing* jobs over continuous streams (Definition 1,
§3), so the natural serving surface is an always-on multiplexed event
loop, not a thread busy-pumping one service.  This module is that loop's
front door (DESIGN.md §8); the split of responsibilities is strict:

* :class:`~repro.engine.service.SchedulerService` stays **sans-IO** —
  ``step()`` never blocks, never sleeps, and reports dormancy through
  ``next_arrival_eta()`` / ``waiting`` instead of waiting itself.
* :class:`AsyncSchedulerService` owns **all waiting** for one service: a
  single *driver* task pumps ``step()`` cooperatively, yielding the loop
  after every step, and when the service goes dormant (a slow/live
  backend whose next submission has not arrived) it sleeps exactly until
  the backend's declared arrival ETA **or** an external ``submit`` /
  ``cancel`` sets its wake event — a real await, not a disguised spin.
  The driver exits when the service drains and is restarted lazily by
  the next submission.
* :class:`AsyncQueryHandle` is the awaitable face of one query (its
  streaming and waiting body, :class:`AsyncHandleBase`, is shared with
  the cluster layer's remote handles):
  ``await handle.result(timeout=…)`` parks on an :class:`asyncio.Event`
  the driver sets at terminal states (raising :class:`TimeoutError`
  *without* losing the query — it keeps running and can be awaited
  again), ``async for snapshot in handle.updates()`` streams changed
  :class:`~repro.engine.service.QueryProgress` snapshots, and
  ``await handle.cancel()`` is charge-final like the sync path.
* :class:`ServiceMux` runs many async services — one per tenant group,
  the precursor of one per process shard — concurrently on one event
  loop.  Fairness is structural: every driver yields after each pump
  step and asyncio's FIFO ready queue round-robins the runnable drivers,
  so K services make even progress; :attr:`ServiceMux.step_log` records
  the global interleaving for tests and dashboards.

Ownership is acyclic (DESIGN.md §7): a service owns the handles it
issued and a mux the services it holds, and nothing they own points back
at them strongly — a handle holds its service weakly, and the mux's step
hook appends to the log, not through the mux.  So a closed, dropped
service is freed by reference counting with everything it built.

Determinism is preserved by construction: each wrapped service performs
exactly the same ``step()`` sequence it would under the blocking PR-2
API (the drivers interleave *between* steps, never inside one), so
results gathered concurrently are bit-identical to sequential runs.
"""

from __future__ import annotations

import asyncio
import weakref
from collections.abc import AsyncIterator, Callable, Iterable, Mapping
from typing import Any

from repro.engine.planner import QueryPlan
from repro.engine.query import Query
from repro.engine.scheduler import MIN_ARRIVAL_SLEEP
from repro.engine.service import (
    TERMINAL_STATES,
    QueryHandle,
    QueryProgress,
    QueryState,
    SchedulerService,
)

__all__ = [
    "AsyncHandleBase",
    "AsyncQueryHandle",
    "AsyncSchedulerService",
    "ServiceMux",
    "DEFAULT_UPDATE_QUEUE",
    "state_counts",
    "weak_method",
]

#: Default bound on each update subscriber's pending-snapshot queue.
#: Progress snapshots are cumulative (every counter is monotone and each
#: snapshot supersedes the previous one), so a slow consumer loses
#: nothing when older pending snapshots are evicted — it simply observes
#: a later state next.  The bound is what makes ``updates()`` fan-out
#: safe to expose to the network: an abandoned SSE subscriber costs at
#: most this many snapshots, never unbounded memory, and never stalls
#: the driver (publication stays non-blocking).
DEFAULT_UPDATE_QUEUE = 256


def state_counts(
    handles: Iterable[AsyncHandleBase], retired: Mapping[str, int] | None = None
) -> dict[str, int]:
    """``state → count`` over ``handles``, added to the ``retired`` tally
    of handles already counted: the ``queries`` field of a service's
    ``/v1/metrics`` entry."""
    states = dict(retired or {})
    for handle in handles:
        key = handle.state.value
        states[key] = states.get(key, 0) + 1
    return states


def weak_method(method: Callable[..., Any]) -> Callable[..., None]:
    """``method`` as a callback that does not keep its object alive.

    For a hook an object installs on something it owns (a driver's
    observer, an RPC client's event handler), where a bound method would
    close a reference cycle.  Once the object is gone the call does
    nothing.
    """
    ref = weakref.WeakMethod(method)

    def call(*args: Any) -> None:
        bound = ref()
        if bound is not None:
            bound(*args)

    return call


class AsyncHandleBase:
    """The awaitable-handle body shared by local and remote query handles.

    Holds the query's identity, the terminal latch and stranded error,
    the bounded subscriber fan-out (``subscribe`` / ``unsubscribe`` /
    ``updates``) and the waiting half of ``await result()``.  A subclass
    supplies only four things:

    * where progress comes from — it reads ``state`` / ``plan`` /
      ``spend`` / ``progress()`` from its source, calls :meth:`_push`
      with each changed snapshot and sets ``_terminal`` at terminal
      states (or calls :meth:`_mark_stranded`);
    * how :meth:`cancel` gets to the query;
    * the terminal value :meth:`_terminal_value` returns or raises, and
      its wire forms: :meth:`result_summary` for a DONE query,
      :attr:`error_text` for a FAILED one;
    * who pumps the query: a local handle starts its service's driver, a
      remote one's shard runs its own.

    The service owns its handles, so a handle holds it only weakly
    (:attr:`_service` is ``None`` once it is gone).  Every read works
    without it; what needs it — pumping, a cancel, a watch — falls back
    to what a closed service would answer.
    """

    def __init__(
        self, service: Any, seq: int, job_name: str, query: Any, tenant: str
    ) -> None:
        self._service_ref = weakref.ref(service)
        #: Submission ordinal within the service — stable across
        #: recovery; the gateway's public query ids are built from it.
        self.seq = seq
        self.job_name = job_name
        self.query = query
        self.tenant = tenant
        #: Set once the query cannot advance further (terminal, or its
        #: driver stranded it); awaited by :meth:`result`.
        self._terminal = asyncio.Event()
        self._stranded: BaseException | None = None
        self._queues: list[asyncio.Queue[QueryProgress]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(seq={self.seq}, job={self.job_name!r}, "
            f"subject={self.query.subject!r}, tenant={self.tenant!r}, "
            f"state={self.state.value!r})"
        )

    @property
    def _service(self) -> Any:
        """The service that issued this handle, or ``None`` once dropped."""
        return self._service_ref()

    # -- observation (sync, never awaits; supplied by the progress source) ---

    @property
    def state(self) -> QueryState:
        raise NotImplementedError

    @property
    def done(self) -> bool:
        """Terminal in any way: DONE, CANCELLED or FAILED."""
        return self.state in TERMINAL_STATES

    @property
    def spend(self) -> float:
        raise NotImplementedError

    @property
    def plan(self) -> Any:
        raise NotImplementedError

    def progress(self) -> QueryProgress:
        raise NotImplementedError

    @property
    def stranded(self) -> BaseException | None:
        """The error that stopped this query's driver mid-flight, if any.

        Consumers streaming a handle (``updates()``, the gateway's SSE
        loop) check it to stop waiting on a query that can never reach a
        terminal state."""
        return self._stranded

    # -- awaitables ----------------------------------------------------------

    async def result(self, timeout: float | None = None) -> Any:
        """Await the query's terminal state; return (or raise) its result.

        A real await: the caller parks on an event the progress source
        sets — no polling loop, no step-pumping in the waiter.  On
        ``timeout`` the query is *not* cancelled or lost; it keeps
        running and the handle can be awaited again.

        Raises
        ------
        TimeoutError
            Not terminal within ``timeout`` seconds.
        QueryCancelled / AdmissionRejected / Exception
            Exactly as the sync :meth:`QueryHandle.result`.
        """
        if not self.done:
            if timeout is None:
                await self._terminal.wait()
            else:
                try:
                    await asyncio.wait_for(self._terminal.wait(), timeout)
                except asyncio.TimeoutError:
                    raise TimeoutError(
                        f"query {self.query.subject!r} still "
                        f"{self.state.value} after {timeout}s"
                    ) from None
        if not self.done:
            raise self._stranded or RuntimeError(
                f"driver stopped with query {self.query.subject!r} "
                f"{self.state.value}"
            )
        return self._terminal_value()

    def _terminal_value(self) -> Any:
        """The result of a terminal query (or the error it raises)."""
        raise NotImplementedError

    def result_summary(self) -> dict[str, Any] | None:
        """The canonical summary of a DONE query's result
        (:func:`repro.scenarios.result_summary`); ``None`` otherwise."""
        raise NotImplementedError

    @property
    def error_text(self) -> str:
        """Why a FAILED query failed, as the poll payload reports it."""
        raise NotImplementedError

    async def cancel(self) -> bool:
        """Cancel the query, charge-final; ``False`` if already terminal."""
        raise NotImplementedError

    async def refresh(self) -> None:
        """Bring :meth:`progress` up to date before a one-off read (a
        poll).  A local handle reads its query directly and only starts
        its driver, without yielding; a remote one may pull a snapshot."""

    def subscribe(
        self, max_pending: int = DEFAULT_UPDATE_QUEUE
    ) -> "asyncio.Queue[QueryProgress]":
        """Open a bounded per-consumer queue of changed progress snapshots.

        The fan-out primitive :meth:`updates` and the gateway's SSE
        endpoint share.  The queue is bounded at ``max_pending``: when a
        consumer falls behind, the *oldest* pending snapshot is evicted
        to make room (snapshots are cumulative, so skipping intermediates
        is pure coalescing — the terminal snapshot can never be lost
        because nothing is published after it).  Publication never
        blocks, so a slow or abandoned consumer cannot stall the driver.

        Always pair with :meth:`unsubscribe` (``updates()`` does this in
        a ``finally``); an unsubscribed queue costs nothing.
        """
        if max_pending < 1:
            raise ValueError(f"max_pending must be ≥ 1, got {max_pending}")
        queue: asyncio.Queue[QueryProgress] = asyncio.Queue(maxsize=max_pending)
        self._queues.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[QueryProgress]") -> None:
        """Drop a queue opened by :meth:`subscribe` (idempotent)."""
        try:
            self._queues.remove(queue)
        except ValueError:
            pass

    async def updates(
        self, max_pending: int = DEFAULT_UPDATE_QUEUE
    ) -> AsyncIterator[QueryProgress]:
        """Stream progress snapshots until the query is terminal.

        Yields the current snapshot immediately, then every *changed*
        snapshot the source publishes (no duplicates); the final yield is
        the terminal snapshot.  Multiple consumers may stream one handle.
        A consumer that processes snapshots slower than the source
        publishes them observes a coalesced stream: at most
        ``max_pending`` snapshots are held back for it, older pending
        ones are evicted first, and the terminal snapshot always arrives.
        """
        queue = self.subscribe(max_pending=max_pending)
        try:
            last = self.progress()
            yield last
            while last.state not in TERMINAL_STATES and self._stranded is None:
                snapshot = await queue.get()
                if snapshot == last:
                    continue
                last = snapshot
                yield snapshot
        finally:
            self.unsubscribe(queue)

    # -- progress-source side ------------------------------------------------

    @staticmethod
    def _offer(queue: "asyncio.Queue[QueryProgress]", snapshot: QueryProgress) -> None:
        """Non-blocking bounded put: evict the oldest pending snapshot
        when the consumer is full behind.  Snapshots are cumulative, so
        eviction coalesces — the consumer just observes a later state —
        and the source never waits on anyone's queue."""
        while True:
            try:
                queue.put_nowait(snapshot)
                return
            except asyncio.QueueFull:
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - racing consumer
                    pass

    def _push(self, snapshot: QueryProgress) -> None:
        """Offer one snapshot to every subscriber."""
        for queue in self._queues:
            self._offer(queue, snapshot)

    def _mark_stranded(self, error: BaseException, snapshot: QueryProgress) -> None:
        """The query can no longer advance: wake its waiters with
        ``error`` and its streams (which re-check the stranded flag)
        instead of leaving them parked forever."""
        self._stranded = error
        self._terminal.set()
        self._push(snapshot)


class AsyncQueryHandle(AsyncHandleBase):
    """Awaitable view of one query on a local :class:`AsyncSchedulerService`.

    Returned immediately by :meth:`AsyncSchedulerService.submit`; the
    query advances whenever the service's driver task runs, and the
    driver publishes its progress (:meth:`_publish`).  Wraps (and
    exposes, via :attr:`handle`) the sync
    :class:`~repro.engine.service.QueryHandle`, whose observation surface
    — ``state`` / ``progress()`` / ``spend`` — stays directly readable at
    any time without awaiting.
    """

    def __init__(
        self, service: "AsyncSchedulerService", handle: QueryHandle
    ) -> None:
        super().__init__(
            service, handle.seq, handle.job_name, handle.query, handle.tenant
        )
        self.handle = handle
        #: The snapshot last pushed — the dedup baseline while watched.
        self._last_published: QueryProgress | None = None
        #: Set when a publish skipped the progress walk because nobody
        #: watched, leaving ``_last_published`` behind the query.
        self._baseline_stale = False

    # -- observation (sync reads of the sync handle) -------------------------

    @property
    def state(self) -> QueryState:
        return self.handle.state

    @property
    def spend(self) -> float:
        return self.handle.spend

    @property
    def plan(self) -> QueryPlan | None:
        """The query's EXPLAIN-style plan (see :attr:`QueryHandle.plan`)."""
        return self.handle.plan

    @property
    def reserved(self) -> float:
        """Budget still pinned beyond incurred spend (0 once terminal)."""
        return self.handle.reserved

    def progress(self) -> QueryProgress:
        """Snapshot the query's progress right now (no await needed)."""
        return self.handle.progress()

    def _pump(self) -> None:
        """Make sure the service's driver is pumping a live query.  With
        its service dropped, nothing can pump it again: strand it."""
        if self.done:
            return
        service = self._service
        if service is None:
            self._strand(
                RuntimeError(
                    f"service dropped with query {self.query.subject!r} "
                    f"{self.state.value}"
                )
            )
        else:
            service._ensure_driver()

    async def result(self, timeout: float | None = None) -> Any:
        self._pump()
        return await super().result(timeout)

    async def refresh(self) -> None:
        self._pump()

    def _terminal_value(self) -> Any:
        # Terminal: the sync result() returns/raises without pumping.
        return self.handle.result()

    def result_summary(self) -> dict[str, Any] | None:
        from repro.scenarios import result_summary

        if self.state is not QueryState.DONE:
            return None
        return result_summary(self.handle.result())

    @property
    def error_text(self) -> str:
        error = self.handle._record.error
        return "failed" if error is None else str(error)

    async def cancel(self) -> bool:
        """Cancel the query (charge-final, as the sync path) and wake
        everyone: ``result()`` waiters raise
        :class:`~repro.engine.service.QueryCancelled`, update streams end.
        Returns ``False`` when the query was already terminal.
        """
        cancelled = self.handle.cancel()
        if cancelled:
            self._publish()
            service = self._service
            if service is not None:
                service._wake.set()
            # Let waiters observe the cancellation before we return.
            await asyncio.sleep(0)
        return cancelled

    def subscribe(
        self, max_pending: int = DEFAULT_UPDATE_QUEUE
    ) -> "asyncio.Queue[QueryProgress]":
        queue = super().subscribe(max_pending)
        self._pump()
        if self._baseline_stale:
            # Driver steps and async cancels are each followed by a
            # publish, so the snapshot now is the baseline the skipped
            # publishes would have left: a subscriber sees exactly what
            # an always-publishing driver sends.
            self._last_published = self.handle.progress()
            self._baseline_stale = False
        return queue

    # -- driver side ---------------------------------------------------------

    def _publish(self) -> None:
        """Push a changed snapshot to subscribers; latch terminal states.

        The progress walk runs only while someone is subscribed: with
        nobody watching there is no one to push to, and ``await
        result()`` needs only the terminal latch.
        """
        if self._terminal.is_set():
            # The terminal snapshot was already published (or the handle
            # was stranded); nothing can change.
            return
        done = self.handle.done
        if self._queues:
            snapshot = self.handle.progress()
            # Always push the snapshot latched on, even one equal to a
            # baseline taken after a change made through the sync handle:
            # nothing is published after it.
            if done or snapshot != self._last_published:
                self._last_published = snapshot
                self._push(snapshot)
        else:
            self._baseline_stale = True
        if done:
            self._terminal.set()

    def _strand(self, error: BaseException) -> None:
        """The driver cannot advance this query: wake its waiters with
        ``error`` instead of leaving them parked forever."""
        if self.handle.done or self._stranded is not None:
            return
        self._mark_stranded(error, self.handle.progress())


class AsyncSchedulerService:
    """Drive one sans-IO :class:`SchedulerService` on the event loop.

    The public submission surface mirrors the sync service (same
    arguments, same eager validation) but returns
    :class:`AsyncQueryHandle`\\ s.  One *driver* task pumps the service:

    * after every productive ``step()`` it yields the loop
      (``await asyncio.sleep(0)``) — the fairness primitive
      :class:`ServiceMux` builds on;
    * when the service reports dormancy it awaits its wake event with the
      backend's ``next_arrival_eta()`` as timeout — asleep until the next
      arrival unlocks or an external ``submit``/``cancel`` wakes it;
    * when the service drains it exits; the next submission restarts it.
      Construction adopts the wrapped service's handles (a recovered
      journal's) and starts the driver for live ones.

    ``async with`` the service (or :meth:`aclose` it) to cancel a parked
    driver on shutdown; handles stay readable afterwards.
    """

    def __init__(
        self, service: SchedulerService, name: str | None = None
    ) -> None:
        self.service = service
        self.name = name
        self._handles: list[AsyncQueryHandle] = []
        self._by_seq: dict[int, AsyncQueryHandle] = {}
        #: Handles whose terminal event is not latched yet, in submission
        #: order — the only ones a step can change, so the only ones the
        #: driver publishes.
        self._live: list[AsyncQueryHandle] = []
        #: ``state → count`` of the handles :meth:`_notify` dropped from
        #: the live list terminal — a state that never changes again.
        self._retired: dict[str, int] = {}
        #: Handles dropped from the live list stranded but not terminal;
        #: a restarted driver may still move their queries, so metrics
        #: read their state each time.
        self._stranded: list[AsyncQueryHandle] = []
        self._wake = asyncio.Event()
        self._driver: asyncio.Task[None] | None = None
        self._error: BaseException | None = None
        #: Total ``service.step()`` calls the driver has made (productive
        #: or not) — observability, and the spin-vs-sleep regression gate.
        self.steps_taken = 0
        #: Times the driver drained (every submitted query terminal or
        #: stranded, nothing in flight).
        self.drains = 0
        #: Observer called after each *productive* step
        #: (:class:`ServiceMux` wires its interleave log here).
        self.on_step: Callable[["AsyncSchedulerService"], None] | None = None
        #: Observer called once each time the driver drains, after
        #: :attr:`drains` counts it (a shard worker pushes stats here).
        self.on_drain: Callable[["AsyncSchedulerService"], None] | None = None
        #: Observer called once per handle the driver drops from its live
        #: list, terminal or stranded, after the tally counts it (a shard
        #: worker sends the handle's terminal frame here).  A handle
        #: adopted terminal never reaches it.
        self.on_latch: Callable[[AsyncQueryHandle], None] | None = None
        for handle in service.handles:
            self._add(handle)
        if self._live:
            self._ensure_driver()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = "" if self.name is None else f" {self.name!r}"
        return (
            f"<AsyncSchedulerService{label} handles={len(self._handles)} "
            f"steps={self.steps_taken}>"
        )

    # -- sync passthroughs ---------------------------------------------------

    def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
    ):
        return self.service.register_tenant(
            name, budget_cap=budget_cap, priority=priority
        )

    def tenant_spend(self, name: str) -> float:
        return self.service.tenant_spend(name)

    def tenant_reserved(self, name: str) -> float:
        return self.service.tenant_reserved(name)

    def tenant_committed(self, name: str) -> float:
        return self.service.tenant_committed(name)

    def plan(
        self,
        job_name: str,
        query: Query,
        *,
        tenant: str = "default",
        budget: float | None = None,
        priority: float | None = None,
        **job_inputs: Any,
    ) -> QueryPlan:
        """Project a query into a :class:`QueryPlan` (synchronous and
        pure — see :meth:`SchedulerService.plan`)."""
        return self.service.plan(
            job_name,
            query,
            tenant=tenant,
            budget=budget,
            priority=priority,
            **job_inputs,
        )

    def preadmit(self, plan: QueryPlan):
        """Preview admission of ``plan`` (see
        :meth:`SchedulerService.preadmit`); side-effect-free."""
        return self.service.preadmit(plan)

    @property
    def handles(self) -> tuple[AsyncQueryHandle, ...]:
        """Every async handle this service has issued, in submission order."""
        return tuple(self._handles)

    def handle_for(self, seq: int) -> AsyncQueryHandle | None:
        """The handle with submission ordinal ``seq``, if any (one dict
        read, however many queries the service has finished)."""
        return self._by_seq.get(seq)

    @property
    def idle(self) -> bool:
        return self.service.idle

    # -- observation and durability ------------------------------------------

    def flush_journal(self) -> None:
        """Durability barrier of the wrapped service (a no-op unjournaled)."""
        self.service.flush_journal()

    def ledger_summary(self) -> dict[str, Any]:
        """The market ledger's totals (:func:`repro.scenarios.ledger_summary`)."""
        from repro.scenarios import ledger_summary

        return ledger_summary(self.service.engine.market.ledger)

    async def refresh(self) -> None:
        """Start an adopted live query's driver before a read (a remote
        shard pulls its stats here; this service reads them directly)."""
        if self._live:
            self._ensure_driver()

    def metrics_snapshot(self) -> dict[str, Any]:
        """This service's ``/v1/metrics`` entry: pump steps, drains, query
        states, ledger totals and journal stats (``None`` unjournaled)."""
        return {
            "steps_taken": self.steps_taken,
            "drains": self.drains,
            "queries": state_counts((*self._stranded, *self._live), self._retired),
            "ledger": self.ledger_summary(),
            "journal": self.service.journal_stats(),
        }

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        job_name: str | None = None,
        query: Query | None = None,
        *,
        plan: QueryPlan | None = None,
        tenant: str | None = None,
        budget: float | None = None,
        priority: float | None = None,
        reserve: bool | None = None,
        **job_inputs: Any,
    ) -> AsyncQueryHandle:
        """Plan and validate now (synchronously — bad requests raise here,
        exactly as the sync service, including :class:`PlanInfeasible` on
        a refused ``plan=``); run as the driver pumps.  Callable from
        inside or outside a running loop; outside, the driver starts on
        the first awaited operation.  A handle holds its service only
        weakly, so the caller keeps the service until its queries
        finish: a live handle whose service was dropped before its
        driver started strands with :class:`RuntimeError`."""
        handle = self.service.submit(
            job_name,
            query,
            plan=plan,
            tenant=tenant,
            budget=budget,
            priority=priority,
            reserve=reserve,
            **job_inputs,
        )
        ahandle = self._add(handle)
        self._wake.set()
        self._ensure_driver()
        return ahandle

    def _add(self, handle: QueryHandle) -> AsyncQueryHandle:
        ahandle = AsyncQueryHandle(self, handle)
        self._handles.append(ahandle)
        self._by_seq[ahandle.seq] = ahandle
        if handle.done:
            # Adopted terminal: latched and counted now, never live.
            ahandle._terminal.set()
            self._retired = state_counts((ahandle,), self._retired)
        else:
            self._live.append(ahandle)
        return ahandle

    # -- the driver ----------------------------------------------------------

    def _ensure_driver(self) -> None:
        """Start (or restart) the driver task.  Outside a running loop
        it waits: the first awaited operation on the service starts it."""
        if self._driver is None or self._driver.done():
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                return
            self._error = None
            self._driver = loop.create_task(
                self._drive(),
                name=f"cdas-driver-{self.name or hex(id(self.service))}",
            )

    async def _drive(self) -> None:
        service = self.service
        try:
            while True:
                stepped = service.step()
                self.steps_taken += 1
                self._notify()
                if stepped:
                    if self.on_step is not None:
                        self.on_step(self)
                    # Fairness: hand the loop back after every step so
                    # drivers sharing it round-robin.
                    await asyncio.sleep(0)
                    continue
                eta = service.next_arrival_eta()
                if eta is not None:
                    # Dormant: sleep exactly until the next arrival
                    # unlocks, or an external submit()/cancel() wakes us.
                    # Durable services batch journal fsyncs; barrier them
                    # at the loop's natural pauses (dormancy, drain) so
                    # the per-event hot path never waits on the disk.
                    service.flush_journal()
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(),
                            timeout=eta if eta > 0 else MIN_ARRIVAL_SLEEP,
                        )
                    except asyncio.TimeoutError:
                        pass
                    continue
                if service.waiting:
                    raise RuntimeError(
                        "HITs in flight but nothing pending yet and no "
                        "arrival ETA; the async driver needs backends "
                        "whose handles declare next_arrival_eta()"
                    )
                # Drained: nothing left anywhere.  Queries that are still
                # non-terminal can never advance — wake their waiters.
                service.flush_journal()
                for handle in self._live:
                    if not handle.done:
                        handle._strand(
                            RuntimeError(
                                "service went idle with query "
                                f"{handle.query.subject!r} "
                                f"{handle.state.value}"
                            )
                        )
                self.drains += 1
                if self.on_drain is not None:
                    self.on_drain(self)
                return
        except Exception as exc:
            # Deliver the failure to every waiter instead of letting it
            # die unobserved inside the task.
            self._error = exc
            for handle in self._live:
                handle._strand(exc)
        finally:
            self._notify()

    def _notify(self) -> None:
        """Publish every live handle, dropping those now latched (a
        terminal one is counted into the retired tally once, here), then
        tell :attr:`on_latch` about each dropped one."""
        live = []
        latched = []
        for handle in self._live:
            handle._publish()
            if not handle._terminal.is_set():
                live.append(handle)
            else:
                latched.append(handle)
        if not latched:
            return
        self._live = live
        retired = [handle for handle in latched if handle.done]
        self._stranded.extend(handle for handle in latched if not handle.done)
        if retired:
            self._retired = state_counts(retired, self._retired)
        if self.on_latch is not None:
            for handle in latched:
                self.on_latch(handle)

    # -- lifecycle -----------------------------------------------------------

    async def wait_idle(self) -> None:
        """Drive until the service has nothing left to do.

        Returns once every submitted query is terminal (or stranded —
        those errors surface on their handles' ``result()``); re-raises a
        driver failure.
        """
        while True:
            self._ensure_driver()
            await self._driver
            if self._error is not None:
                raise self._error
            if all(
                handle.done or handle._stranded is not None
                for handle in self._live
            ):
                return

    async def aclose(self) -> None:
        """Cancel a still-parked driver task; handles stay readable."""
        driver, self._driver = self._driver, None
        if driver is not None and not driver.done():
            driver.cancel()
            try:
                await driver
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "AsyncSchedulerService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class ServiceMux:
    """Front door: many async services multiplexed on one event loop.

    One :class:`AsyncSchedulerService` per tenant group (each over its
    own :class:`SchedulerService`; the precursor of one per process
    shard), all driven concurrently.  Fairness is structural — every
    driver yields the loop after each pump step, and asyncio's FIFO
    ready queue round-robins the runnable drivers — so K services make
    even progress instead of the first submitted draining first;
    :attr:`step_log` records the realised global interleaving.
    """

    def __init__(self) -> None:
        self._services: dict[str, AsyncSchedulerService] = {}
        #: Service name per productive pump step, in global order.
        self.step_log: list[str] = []

    def add(
        self, name: str, service: AsyncSchedulerService | SchedulerService
    ) -> AsyncSchedulerService:
        """Register a service under ``name`` (wrapping a sync
        :class:`SchedulerService` if needed); returns the async service."""
        if name in self._services:
            raise ValueError(f"service {name!r} already added to this mux")
        if not isinstance(service, AsyncSchedulerService):
            service = AsyncSchedulerService(service)
        if service.name is None:
            service.name = name
        previous = service.on_step
        # The hook appends to the log, not through the mux, which owns a
        # service holding it.
        step_log = self.step_log

        def record(
            svc: AsyncSchedulerService,
            _name: str = name,
            _previous: Callable[[AsyncSchedulerService], None] | None = previous,
        ) -> None:
            if _previous is not None:
                _previous(svc)
            step_log.append(_name)

        service.on_step = record
        self._services[name] = service
        return service

    def __getitem__(self, name: str) -> AsyncSchedulerService:
        return self._services[name]

    def __len__(self) -> int:
        return len(self._services)

    @property
    def services(self) -> tuple[AsyncSchedulerService, ...]:
        return tuple(self._services.values())

    def submit(
        self,
        service_name: str,
        job_name: str | None = None,
        query: Query | None = None,
        **kwargs: Any,
    ) -> AsyncQueryHandle:
        """Submit through the named service (same surface as its submit,
        including ``plan=`` / ``reserve=``)."""
        return self._services[service_name].submit(job_name, query, **kwargs)

    def plan(
        self, service_name: str, job_name: str, query: Query, **kwargs: Any
    ) -> QueryPlan:
        """Project a query through the named service (pure; see
        :meth:`SchedulerService.plan`)."""
        return self._services[service_name].plan(job_name, query, **kwargs)

    async def gather(self, *handles: AsyncQueryHandle) -> list[Any]:
        """``asyncio.gather`` over the handles' results, in order."""
        return list(await asyncio.gather(*(h.result() for h in handles)))

    async def run_until_idle(self) -> None:
        """Drive every registered service until all of them drain."""
        await asyncio.gather(
            *(service.wait_idle() for service in self._services.values())
        )

    async def aclose(self) -> None:
        for service in self._services.values():
            await service.aclose()

    async def __aenter__(self) -> "ServiceMux":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
