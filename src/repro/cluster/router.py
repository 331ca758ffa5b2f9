"""The front-door shard router: N worker processes, one async facade.

:class:`ShardRouter` is the multi-process twin of
:class:`~repro.engine.aio.ServiceMux`: it forks one
:mod:`repro.cluster.worker` process per shard, hands each a workload
*recipe* (never live objects), and exposes every shard as a
:class:`RemoteShardService` offering the gateway's service contract
(:class:`~repro.gateway.app.GatewayService`) — so ``GatewayApp(router,
...)`` serves ``POST /v1/queries`` across processes without asking which
flavour it holds; only ``submit``/``plan`` are awaitable here, and the
driver runs in the worker process.

Shard state arrives as events, applied in wire order; replies carry
only the call's own result (DESIGN.md §14).  The RPC reader applies
events before it resolves the reply that follows them, so by the time a
``submit`` resumes, the handle its ``snapshot`` event adopted exists,
and by the time a ``cancel`` resumes, its snapshot and stats are in.  A
handle's cache never moves backwards: a non-terminal snapshot behind the
cached one (a respawned shard re-running from its journal) is dropped.

Observation streams push while watched and polls pull.  Workers always
push ``terminal`` and ``stats`` events, and push a query's ``progress``
events only while the router watches it: the first router-side queue on
a handle (``updates()``, SSE) sends ``watch``, which primes the handle's
cache, and the last one closing sends ``unwatch``; a respawned shard is
asked to watch again every handle that still has a queue.  A poll
(:meth:`RemoteQueryHandle.refresh`) of an unwatched, live query makes
one ``snapshot`` round trip, and a metrics or healthz read
(:meth:`RemoteShardService.refresh`) one ``stats`` round trip: the
shard's own metrics entry is the only one there is.

Placement is weighted rendezvous hashing (:func:`assign_shard`) over the
*routable* shards, so the rebalancing rules need no coordination state:

* a tenant's home is recomputed on every route — changing the tenant's
  weight (:meth:`ShardRouter.set_tenant_weight`) deterministically
  re-homes it, and the next submit lazily re-registers it there;
* a dead shard **with** a journal stays routable: the router respawns
  the process on the same journal, recovery reattaches every handle by
  ``seq`` (ids survive), and submits queue on a readiness gate rather
  than failing;
* a dead shard **without** a journal is abandoned: its non-terminal
  handles flip to FAILED (stranded with :class:`ShardDied`) instead of
  hanging, and its tenants re-home to the survivors on their next
  request — rendezvous re-scores only the tenants that lived there.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import signal
import socket
import traceback
from typing import Any

from repro.cluster.rpc import RpcClient, RpcError, ShardDied
from repro.cluster.shards import assign_shard, shard_names
from repro.cluster.worker import main as worker_main
from repro.durability import codec as dcodec
from repro.durability.journal import JournalFailed
from repro.engine.aio import DEFAULT_UPDATE_QUEUE, AsyncHandleBase
from repro.engine.planner import CounterOffer, PlanDecision, PlanInfeasible
from repro.engine.service import (
    TERMINAL_STATES,
    AdmissionRejected,
    QueryCancelled,
    QueryProgress,
    QueryState,
    TenantPolicy,
)

__all__ = [
    "RemotePlan",
    "RemoteQueryHandle",
    "RemoteShardService",
    "ShardRouter",
    "progress_from_dict",
]


def progress_from_dict(data: dict[str, Any]) -> QueryProgress:
    """Rebuild a :class:`QueryProgress` from its ``to_dict()`` projection."""
    return QueryProgress(
        state=QueryState(data["state"]),
        items_answered=int(data["items_answered"]),
        items_finalized=int(data["items_finalized"]),
        hits_completed=int(data["hits_completed"]),
        hits_in_flight=int(data.get("hits_in_flight", 0)),
        accuracy_estimate=data.get("accuracy_estimate"),
        spend=float(data["spend"]),
        budget_exhausted=bool(data.get("budget_exhausted", False)),
    )


#: Seconds a request waits for a journaled shard to come back from a
#: respawn before it fails with :class:`ShardDied`.
RESPAWN_TIMEOUT = 120.0

#: Lifecycle order of the states: a snapshot never moves a cache back.
_STATE_RANK = {state: rank for rank, state in enumerate(QueryState)}


def _behind(snapshot: QueryProgress, cached: QueryProgress) -> bool:
    """Is a non-terminal ``snapshot`` older than the ``cached`` one: an
    earlier state, or fewer items, HITs or spend?  A respawned shard
    re-runs from its journal, and its snapshots stay behind until the
    recovered run catches up."""
    return snapshot.state not in TERMINAL_STATES and (
        _STATE_RANK[snapshot.state] < _STATE_RANK[cached.state]
        or snapshot.items_answered < cached.items_answered
        or snapshot.items_finalized < cached.items_finalized
        or snapshot.hits_completed < cached.hits_completed
        or snapshot.spend < cached.spend
    )


def _decision_from_dict(data: dict[str, Any]) -> PlanDecision:
    """Rebuild a :class:`PlanDecision` from its ``to_dict()`` projection
    (whose keys are the field names)."""
    offer = data.get("counter_offer")
    return PlanDecision(**{
        **data,
        "counter_offer": None if offer is None else CounterOffer(**offer),
    })


@dataclasses.dataclass(frozen=True)
class RemotePlan:
    """A shard-side :class:`QueryPlan`, held as its ``to_dict()``
    projection — the plan itself cannot cross the wire (its job spec
    holds a callable text filter).  Carries the shard's admission
    decision so the gateway's sync ``preadmit(plan)`` stays a local read.
    """

    data: dict[str, Any]
    decision: PlanDecision | None = None

    def to_dict(self) -> dict[str, Any]:
        return dict(self.data)


#: A query object surrogate for a handle adopted from a ``snapshot``
#: event, where only the subject string crossed the wire: ``submit()``
#: replaces it with the caller's query, a recovered handle keeps it.
@dataclasses.dataclass(frozen=True, slots=True)
class _SubjectOnly:
    subject: str


class RemoteQueryHandle(AsyncHandleBase):
    """A shard-resident query observed through a router-side cache.

    The :class:`~repro.engine.aio.AsyncHandleBase` body (identity,
    ``subscribe``/``unsubscribe``/``updates``, ``stranded``, ``await
    result()``) over a cache the worker feeds: its ``snapshot`` events
    (submit, cancel, recovery, watch, :meth:`refresh`), its terminal
    frame, and its ``progress`` frames (``_apply``) only while a
    router-side queue is open — the first ``subscribe`` sends ``watch``,
    which primes the cache, and the last ``unsubscribe`` sends
    ``unwatch``.  ``cancel`` is an RPC, and a DONE query's terminal value
    is the wire's canonical ``result_summary`` (the live result object
    stays in the worker).

    Updates freeze at the first terminal snapshot, and a non-terminal
    one behind the cache is dropped (:func:`_behind`), so the cache
    never moves backwards.
    """

    def __init__(
        self, service: "RemoteShardService", snapshot: dict[str, Any]
    ) -> None:
        super().__init__(
            service,
            int(snapshot["seq"]),
            str(snapshot["job"]),
            _SubjectOnly(str(snapshot.get("subject", ""))),
            str(snapshot["tenant"]),
        )
        plan = snapshot.get("plan")
        self._plan = None if plan is None else RemotePlan(plan)
        self._last = progress_from_dict(snapshot["progress"])
        self._result: dict[str, Any] | None = snapshot.get("result")
        self._error: str | None = snapshot.get("error")
        #: The shard forwards progress frames: a ``watch`` was answered
        #: and no ``unwatch`` was sent since.
        self._watched = False
        #: The task bringing the shard's watch in line with ``_queues``.
        self._watch_sync: asyncio.Task[None] | None = None
        if self._last.state in TERMINAL_STATES:
            self._terminal.set()
        elif self._error is not None:
            # Recovered stranded on the worker (e.g. its driver drained
            # with the query still live before the journal was cut).
            self._stranded = RuntimeError(self._error)
            self._terminal.set()

    # -- observation (sync, cache reads) -------------------------------------

    @property
    def state(self) -> QueryState:
        return self._last.state

    @property
    def spend(self) -> float:
        return self._last.spend

    @property
    def plan(self) -> RemotePlan | None:
        return self._plan

    def progress(self) -> QueryProgress:
        return self._last

    async def refresh(self) -> None:
        """Pull the shard's current snapshot unless pushes keep the cache
        current (watched) or nothing can change (terminal).  A shard that
        is down answers from the cache rather than waiting out a
        respawn."""
        service = self._service
        if self._terminal.is_set() or self._watched or not service.alive:
            return
        try:
            # The reader applied the snapshot event before this returns.
            await service.rpc.call("snapshot", seq=self.seq)
        except (ShardDied, RpcError):
            # The close handler settles a dead shard's handles.
            return

    # -- router-side watchers ------------------------------------------------

    def subscribe(
        self, max_pending: int = DEFAULT_UPDATE_QUEUE
    ) -> "asyncio.Queue[QueryProgress]":
        queue = super().subscribe(max_pending)
        if len(self._queues) == 1:
            self._service._sync_watch(self)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[QueryProgress]") -> None:
        watched = bool(self._queues)
        super().unsubscribe(queue)
        if watched and not self._queues:
            self._service._sync_watch(self)

    # -- terminal payloads (pushed with the terminal event) ------------------

    def result_summary(self) -> dict[str, Any] | None:
        """The canonical result summary pushed with the terminal event."""
        return self._result

    @property
    def error_text(self) -> str:
        return self._error or "failed"

    # -- terminal value and cancel -------------------------------------------

    def _terminal_value(self) -> Any:
        state = self._last.state
        if state is QueryState.DONE:
            return self._result
        if state is QueryState.CANCELLED:
            raise QueryCancelled(f"query {self.query.subject!r} was cancelled")
        raise self._stranded or RuntimeError(self.error_text)

    async def cancel(self) -> bool:
        """Charge-final cancel over RPC; the reader applied the frozen
        snapshot and the shard's stats before the reply resolved."""
        if self.done:
            return False
        try:
            reply = await self._service._call("cancel", seq=self.seq)
        except ShardDied:
            # The shard died under the cancel; its close handler settles
            # this handle (strand or respawn), so report "not cancelled
            # by us" rather than raising at the client.
            return False
        except RpcError as exc:
            raise self._service._rebuild_error(exc) from None
        await asyncio.sleep(0)
        return bool(reply["cancelled"])

    # -- push application ----------------------------------------------------

    def _apply(self, progress: dict[str, Any]) -> None:
        """Apply one pushed ``progress`` projection (terminal-frozen)."""
        if not self._terminal.is_set():
            self._advance(progress_from_dict(progress))

    def _advance(self, snapshot: QueryProgress) -> None:
        """Move the cache to a changed snapshot unless it is behind."""
        if snapshot == self._last or _behind(snapshot, self._last):
            return
        self._last = snapshot
        self._push(snapshot)
        if snapshot.state in TERMINAL_STATES:
            self._terminal.set()

    def _absorb(self, snapshot: dict[str, Any]) -> None:
        """Apply a full handle snapshot (a ``snapshot`` or ``terminal``
        event) — result/error ride along."""
        if "result" in snapshot:
            self._result = snapshot["result"]
        if snapshot.get("error") is not None:
            self._error = str(snapshot["error"])
        if self._terminal.is_set():
            return
        if self._plan is None and snapshot.get("plan") is not None:
            self._plan = RemotePlan(snapshot["plan"])
        self._advance(progress_from_dict(snapshot["progress"]))
        if not self._terminal.is_set() and snapshot.get("error") is not None:
            # Stranded on the worker with no terminal state to reach.
            self._mark_stranded(RuntimeError(self._error), self._last)

    def _shard_died(self, error: ShardDied) -> None:
        """The shard is gone for good: report FAILED instead of hanging."""
        if self._terminal.is_set():
            return
        self._error = str(error)
        self._last = dataclasses.replace(self._last, state=QueryState.FAILED)
        self._mark_stranded(error, self._last)


class RemoteShardService:
    """One shard process behind the gateway's service surface.

    Reads (``handles``, ``idle``, ``steps_taken``, ``drains``,
    ``metrics_snapshot``, ``ledger_summary``) are cache lookups fed by
    worker events: handles by their snapshots, the rest by the shard's
    last ``stats`` (a poll first calls the handle's ``refresh``, a
    metrics or healthz read this service's :meth:`refresh`); mutations
    (``submit``/``plan``/``register_tenant`` — awaitable here, which the
    gateway's routes tolerate via ``_maybe_await``) are RPC round trips
    that rebuild the engine's own exception types from the wire
    taxonomy, so the gateway's 402/403/400 mapping is untouched.  A
    journaled shard commits an action before the worker acks it.
    """

    def __init__(
        self, router: "ShardRouter", name: str, journal: str | None = None
    ) -> None:
        self.router = router
        self.name = name
        self.journal = journal
        self.alive = False
        self.abandoned = False
        self.recovered = False
        self.proc: _ShardProcess | None = None
        self.pid: int | None = None
        self.rpc: RpcClient | None = None
        self.ready = asyncio.Event()
        #: ``seq → handle``, in adoption (submission) order.
        self._handles: dict[int, RemoteQueryHandle] = {}
        #: The shard's last ``stats``: its own metrics entry plus ``idle``.
        self._stats: dict[str, Any] = {}
        #: ``tenant → (budget_cap, priority)`` last registered on the
        #: live worker; a differing redeclaration is re-sent.
        self._registered: dict[str, tuple[float | None, float]] = {}
        #: In-flight ``watch``/``unwatch`` exchanges.
        self._watch_tasks: set[asyncio.Task[None]] = set()

    def __repr__(self) -> str:
        state = "alive" if self.alive else ("abandoned" if self.abandoned else "down")
        return (
            f"RemoteShardService(name={self.name!r}, {state}, "
            f"queries={len(self._handles)})"
        )

    # -- observation (cache reads) -------------------------------------------

    @property
    def recoverable(self) -> bool:
        return self.journal is not None

    @property
    def routable(self) -> bool:
        """May tenants (still) be homed here?  A shard that has never
        been spawned (``proc is None``) is routable — placement is pure
        math over the shard table and must not require live processes."""
        if self.abandoned:
            return False
        return self.alive or self.recoverable or self.proc is None

    @property
    def handles(self) -> tuple[RemoteQueryHandle, ...]:
        return tuple(self._handles.values())

    def handle_for(self, seq: int) -> RemoteQueryHandle | None:
        """The handle with submission ordinal ``seq``, if any."""
        return self._handles.get(seq)

    @property
    def idle(self) -> bool:
        """The shard's own flag, as last pushed; an abandoned shard runs
        nothing."""
        return self.abandoned or bool(self._stats.get("idle", True))

    @property
    def steps_taken(self) -> int:
        return int(self._stats.get("steps_taken", 0))

    @property
    def drains(self) -> int:
        """The worker's drain count (restarts at a respawn, as
        ``steps_taken`` does)."""
        return int(self._stats.get("drains", 0))

    async def refresh(self) -> None:
        """Pull the shard's current stats (one ``stats`` round trip,
        answered with a ``stats`` event); a shard that is down answers
        from its last ones rather than waiting out a respawn."""
        if not self.alive:
            return
        try:
            await self.rpc.call("stats")
        except (ShardDied, RpcError):
            return

    def metrics_snapshot(self) -> dict[str, Any]:
        """The shard's own ``/v1/metrics`` entry as last received, plus
        ``alive``."""
        entry = {key: value for key, value in self._stats.items() if key != "idle"}
        entry["alive"] = self.alive
        return entry

    def ledger_summary(self) -> dict[str, Any]:
        return dict(self._stats.get("ledger") or {})

    # -- push plumbing -------------------------------------------------------

    def _handle_event(self, frame: dict[str, Any]) -> None:
        """Apply one event, in wire order."""
        kind = frame.get("event")
        if kind in ("stats", "terminal"):
            self._stats = frame["stats"]
        if kind not in ("progress", "terminal", "snapshot"):
            return
        seq = int(frame["seq"])
        handle = self._handles.get(seq)
        if handle is None:
            # A seq's first event is its snapshot (a submit's or a
            # recovery report's), which adopts the handle.
            if kind == "snapshot":
                self._handles[seq] = RemoteQueryHandle(self, frame["snapshot"])
        elif kind == "progress":
            handle._apply(frame["progress"])
        else:
            handle._absorb(frame["snapshot"])

    # -- router-side watch ---------------------------------------------------

    def _sync_watch(self, handle: RemoteQueryHandle) -> None:
        """Bring the shard's watch of ``handle`` in line with whether a
        router-side queue is open (one exchange in flight per handle).
        A service no router drives has no shard to ask."""
        if (
            handle._terminal.is_set()
            or self.router is None
            or self.router._closing
        ):
            return
        task = handle._watch_sync
        if task is not None and not task.done():
            return  # it re-checks the queues after its exchange
        task = asyncio.get_running_loop().create_task(
            self._watch_loop(handle), name=f"cdas-watch-{self.name}-{handle.seq}"
        )
        handle._watch_sync = task
        self._watch_tasks.add(task)
        task.add_done_callback(self._watch_tasks.discard)

    async def _watch_loop(self, handle: RemoteQueryHandle) -> None:
        while not handle._terminal.is_set():
            want = bool(handle._queues)
            if want == handle._watched:
                return
            if not want:
                # Pushes stop being trusted once the unwatch is on its way.
                handle._watched = False
            try:
                await self._call("watch" if want else "unwatch", seq=handle.seq)
            except (ShardDied, RpcError):
                # A respawn re-watches; an abandoned shard fails the handle.
                return
            # A watch's snapshot event was applied before the reply.
            handle._watched = want

    def _rewatch(self) -> None:
        """A respawned worker watches nothing: watch again every live
        handle with a router-side queue."""
        for handle in self._handles.values():
            handle._watched = False
            if handle._queues:
                self._sync_watch(handle)

    # -- RPC mutations -------------------------------------------------------

    async def _await_ready(self) -> None:
        if self.alive and self.rpc is not None and not self.rpc.closed:
            return
        if not self.routable:
            raise ShardDied(
                f"shard {self.name!r} is gone (no journal to respawn from)"
            )
        try:
            await asyncio.wait_for(self.ready.wait(), RESPAWN_TIMEOUT)
        except asyncio.TimeoutError:
            raise ShardDied(
                f"shard {self.name!r} did not come back within "
                f"{RESPAWN_TIMEOUT}s"
            ) from None
        if not self.alive:
            raise ShardDied(f"shard {self.name!r} could not be respawned")

    async def _call(self, method: str, **params: Any) -> dict[str, Any]:
        await self._await_ready()
        assert self.rpc is not None
        return await self.rpc.call(method, **params)

    def _rebuild_error(self, exc: RpcError) -> Exception:
        """Re-raise the worker's wire taxonomy as engine exceptions."""
        if exc.kind == "plan-infeasible":
            data = exc.data or {}
            return PlanInfeasible(
                str(exc),
                RemotePlan(data["plan"]),
                _decision_from_dict(data["decision"]),
            )
        if exc.kind == "admission-rejected":
            return AdmissionRejected(str(exc))
        if exc.kind == "journal-failed":
            return JournalFailed(str(exc))
        if exc.kind == "bad-request":
            return ValueError(str(exc))
        return RuntimeError(str(exc))

    async def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
    ) -> None:
        declared = (budget_cap, priority)
        if self._registered.get(name) == declared:
            return
        try:
            await self._call(
                "register_tenant",
                name=name,
                budget_cap=budget_cap,
                priority=priority,
            )
        except RpcError as exc:
            raise self._rebuild_error(exc) from None
        self._registered[name] = declared

    async def plan(
        self,
        job_name: str,
        query: Any,
        *,
        tenant: str = "default",
        budget: float | None = None,
        priority: float | None = None,
        **inputs: Any,
    ) -> RemotePlan:
        await self.router._ensure_registered(self, tenant)
        try:
            reply = await self._call(
                "plan",
                job=job_name,
                query=dcodec.encode(query),
                inputs={key: dcodec.encode(value) for key, value in inputs.items()},
                tenant=tenant,
                budget=budget,
                priority=priority,
            )
        except RpcError as exc:
            raise self._rebuild_error(exc) from None
        return RemotePlan(reply["plan"], _decision_from_dict(reply["decision"]))

    def preadmit(self, plan: RemotePlan) -> PlanDecision:
        decision = plan.decision
        if decision is None:
            raise ValueError(
                "preadmit() needs a plan returned by this service's plan()"
            )
        return decision

    async def submit(
        self,
        job_name: str,
        query: Any,
        *,
        tenant: str = "default",
        budget: float | None = None,
        priority: float | None = None,
        reserve: bool = True,
        **inputs: Any,
    ) -> RemoteQueryHandle:
        await self.router._ensure_registered(self, tenant)
        try:
            reply = await self._call(
                "submit",
                job=job_name,
                query=dcodec.encode(query),
                inputs={key: dcodec.encode(value) for key, value in inputs.items()},
                tenant=tenant,
                budget=budget,
                priority=priority,
                reserve=bool(reserve),
            )
        except RpcError as exc:
            raise self._rebuild_error(exc) from None
        # The reader adopted the handle from its snapshot event.
        handle = self._handles[int(reply["seq"])]
        handle.query = query
        return handle

    async def outcomes(self) -> list[dict[str, Any]]:
        """Every handle's full snapshot, fetched fresh from the worker —
        what the scaling benchmark fingerprints per shard."""
        reply = await self._call("outcomes")
        return reply["handles"]


class _ShardProcess:
    """A forked shard worker, waited on without blocking the loop.

    The router reaps its own children: :meth:`poll` is a non-blocking
    ``waitpid``, and :meth:`wait` parks on a pidfd, which turns readable
    once the worker has exited, through the event loop.  No thread ever
    waits, so the router stays single-threaded and every fork copies
    one thread.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        #: The exit code once reaped; negative when a signal killed it.
        self.returncode: int | None = None
        self._pidfd = os.pidfd_open(pid)

    def poll(self) -> int | None:
        """The exit code, reaping the worker if it has exited; ``None``
        while it runs."""
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
                os.close(self._pidfd)
        return self.returncode

    async def wait(self, timeout: float) -> int | None:
        """Wait up to ``timeout`` seconds for the exit; the exit code, or
        ``None`` if the worker still runs."""
        if self.poll() is None:
            loop = asyncio.get_running_loop()
            exited: asyncio.Future[None] = loop.create_future()

            def on_exit() -> None:
                if not exited.done():
                    exited.set_result(None)

            loop.add_reader(self._pidfd, on_exit)
            try:
                await asyncio.wait_for(exited, timeout)
            except asyncio.TimeoutError:
                pass
            finally:
                loop.remove_reader(self._pidfd)
        return self.poll()

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, sig)


def _fork_worker(sock: socket.socket, shard: str) -> _ShardProcess:
    """Start shard ``shard``'s worker on ``sock``, the child's end of its
    RPC socketpair, by forking this process, which has already imported
    everything the worker runs (DESIGN.md §14).  The router keeps no
    copy of ``sock``.

    The child drops what it inherited from the router before it serves:
    every descriptor above stderr but ``sock`` (a listener or client
    connection held open there would outlive the router's close of it),
    the router loop's SIGINT handler and signal wakeup fd, and, by
    freezing the inherited heap, any cyclic-GC pass over the router's
    objects.  It then runs :func:`repro.cluster.worker.main` and exits
    without returning here.
    """
    pid = os.fork()
    if pid:
        sock.close()
        return _ShardProcess(pid)
    code = 1
    try:
        keep = sock.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        signal.set_wakeup_fd(-1)
        if callable(signal.getsignal(signal.SIGINT)):
            signal.signal(signal.SIGINT, signal.default_int_handler)
        gc.freeze()
        code = worker_main(sock, shard)
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


class ShardRouter:
    """Spawn, route to, observe, and heal a set of shard processes.

    Mux-compatible (``services`` / ``[]`` / ``len`` / ``route``) so
    :class:`~repro.gateway.app.GatewayApp` accepts it directly.  Use as
    an async context manager, or call :meth:`start` / :meth:`aclose`.

    Parameters
    ----------
    processes:
        Number of shards (named ``shard0..N-1``); or pass ``shards``.
    workload / config / seed:
        The recipe every worker builds its shard-local CDAS from (see
        :mod:`repro.cluster.workloads`).  The router injects ``seed``,
        ``shard``, ``shards`` and ``weights`` into the config so each
        worker partitions the *same* global pool deterministically.
    journal:
        Base path for per-shard write-ahead journals
        (``{journal}.{shard}``).  Enables crash recovery: a dead worker
        is respawned on its own journal and its query ids survive.
    weights:
        Optional per-shard placement/pool weights (default 1.0 each).
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        shards: list[str] | None = None,
        weights: dict[str, float] | None = None,
        workload: str = "demo",
        seed: int = 2012,
        config: dict[str, Any] | None = None,
        journal: str | None = None,
        max_in_flight: int = 4,
    ) -> None:
        if shards is None:
            if processes is None:
                raise ValueError("pass processes=N or shards=[...]")
            shards = shard_names(int(processes))
        if not shards:
            raise ValueError("need at least one shard")
        self.shard_order = list(shards)
        self.shard_weights = {
            name: float((weights or {}).get(name, 1.0)) for name in self.shard_order
        }
        self.workload = workload
        self.seed = int(seed)
        self.config = dict(config or {})
        self.journal = journal
        self.max_in_flight = int(max_in_flight)
        self._shards: dict[str, RemoteShardService] = {
            name: RemoteShardService(
                self,
                name,
                journal=None if journal is None else f"{journal}.{name}",
            )
            for name in self.shard_order
        }
        self._tenants: dict[str, dict[str, Any]] = {}
        self._tasks: list[asyncio.Task[None]] = []
        self._closing = False
        self.recovered_queries = 0

    # -- mux-compatible surface ----------------------------------------------

    @property
    def services(self) -> list[RemoteShardService]:
        return [self._shards[name] for name in self.shard_order]

    def __getitem__(self, name: str) -> RemoteShardService:
        return self._shards[name]

    def __len__(self) -> int:
        return len(self._shards)

    def route(self, tenant: str) -> RemoteShardService:
        """The tenant's home shard, rendezvous-hashed over routable
        shards.  Raises :class:`LookupError` when every shard is gone
        (the gateway maps it to 503)."""
        weights = {
            name: self.shard_weights[name]
            for name in self.shard_order
            if self._shards[name].routable
        }
        record = self._tenants.get(tenant)
        tenant_weight = float(record["weight"]) if record else 1.0
        return self._shards[assign_shard(tenant, weights, tenant_weight)]

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ShardRouter":
        """Fork every worker and complete the init handshakes."""
        await asyncio.gather(
            *(self._launch(self._shards[name]) for name in self.shard_order)
        )
        return self

    async def __aenter__(self) -> "ShardRouter":
        return await self.start()

    async def __aexit__(self, *_exc: Any) -> None:
        await self.aclose()

    def _shard_config(self, name: str) -> dict[str, Any]:
        config = dict(self.config)
        config.setdefault("seed", self.seed)
        config["shard"] = name
        config["shards"] = list(self.shard_order)
        config["weights"] = dict(self.shard_weights)
        return config

    async def _launch(
        self, service: RemoteShardService, initial: bool = True
    ) -> None:
        ours, theirs = socket.socketpair()
        service.proc = _fork_worker(theirs, service.name)
        service.pid = service.proc.pid
        reader, writer = await asyncio.open_connection(sock=ours)
        service.rpc = RpcClient(
            reader,
            writer,
            on_event=service._handle_event,
            on_close=lambda svc=service: self._on_shard_close(svc),
        )
        reply = await service.rpc.call(
            "init",
            workload=self.workload,
            config=self._shard_config(service.name),
            journal=service.journal,
            max_in_flight=self.max_in_flight,
        )
        # The reader applied the handles' snapshots and the stats first.
        service.recovered = bool(reply["recovered"])
        if initial and service.recovered:
            self.recovered_queries += int(reply["count"])
        # Journal recovery replays tenant registrations worker-side; a
        # repeat just redeclares, so re-register lazily after a (re)spawn.
        service._registered = {}
        service.alive = True
        service.ready.set()
        service._rewatch()

    # -- failure handling ----------------------------------------------------

    def _on_shard_close(self, service: RemoteShardService) -> None:
        service.alive = False
        service.ready.clear()
        if self._closing or service.abandoned:
            return
        if service.recoverable:
            task = asyncio.get_running_loop().create_task(
                self._respawn(service), name=f"cdas-respawn-{service.name}"
            )
            self._tasks.append(task)
        else:
            self._abandon(
                service,
                ShardDied(
                    f"shard {service.name!r} died with no journal; "
                    "its in-flight queries are lost"
                ),
            )

    def _abandon(self, service: RemoteShardService, error: ShardDied) -> None:
        service.abandoned = True
        for handle in service.handles:
            handle._shard_died(error)
        # Wake any submitter parked on the readiness gate so it observes
        # the abandonment instead of waiting out the timeout.
        service.ready.set()
        service.alive = False

    async def _respawn(self, service: RemoteShardService) -> None:
        """Bring a journaled shard back on its own journal (ids survive)."""
        if service.proc is not None:
            await service.proc.wait(15)
        rpc = service.rpc
        if rpc is not None:
            await rpc.aclose()
        try:
            await self._launch(service, initial=False)
        except Exception as exc:
            self._abandon(
                service,
                ShardDied(f"shard {service.name!r} could not be respawned: {exc}"),
            )

    def kill_shard(self, name: str, sig: int = 9) -> int:
        """Send ``sig`` to a shard's process unless it has exited
        (a failure-injection helper for tests); returns the shard's pid."""
        service = self._shards[name]
        service.proc.send_signal(sig)
        return service.pid

    # -- tenants -------------------------------------------------------------

    async def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
        *,
        weight: float = 1.0,
    ) -> str:
        """Record the tenant and register it on its home shard.

        Returns the home shard's name.  The record is what lazy
        re-homing replays: whichever shard a later route picks gets the
        same cap/priority registered before any submit runs there.  An
        invalid cap or priority raises ``ValueError`` before the record
        changes, as the in-process service keeps its previous policy.
        """
        TenantPolicy(name=name, budget_cap=budget_cap, priority=priority)
        self._tenants[name] = {
            "budget_cap": None if budget_cap is None else float(budget_cap),
            "priority": float(priority),
            "weight": float(weight),
        }
        home = self.route(name)
        await self._ensure_registered(home, name)
        return home.name

    def set_tenant_weight(self, name: str, weight: float) -> str:
        """Change a tenant's placement weight; returns the (possibly
        new) home shard name.  Registration on the new home happens
        lazily on the tenant's next request."""
        record = self._tenants.setdefault(
            name, {"budget_cap": None, "priority": 1.0, "weight": 1.0}
        )
        record["weight"] = float(weight)
        return self.route(name).name

    async def _ensure_registered(
        self, service: RemoteShardService, tenant: str
    ) -> None:
        """Register the tenant's current record on ``service``; the
        shard re-sends only when its cached registration differs."""
        record = self._tenants.get(tenant)
        if record is None:
            return
        await service.register_tenant(
            tenant,
            budget_cap=record["budget_cap"],
            priority=record["priority"],
        )

    # -- aggregation ---------------------------------------------------------

    def ledger_totals(self) -> dict[str, Any]:
        """Market totals summed across every shard's pushed ledger."""
        totals = {
            "charged_assignments": 0,
            "cancelled_assignments": 0,
            "total_cost": 0.0,
            "avoided_cost": 0.0,
        }
        for service in self.services:
            summary = service.ledger_summary()
            for key in totals:
                totals[key] += summary.get(key, 0)
        totals["total_cost"] = round(totals["total_cost"], 6)
        totals["avoided_cost"] = round(totals["avoided_cost"], 6)
        return totals

    def metrics(self) -> dict[str, Any]:
        """Cluster-wide rollup: per-shard snapshots, summed ledger,
        current tenant homes — as last received; await each service's
        ``refresh()`` first for a current read."""
        homes: dict[str, str | None] = {}
        for tenant in sorted(self._tenants):
            try:
                homes[tenant] = self.route(tenant).name
            except LookupError:
                homes[tenant] = None
        return {
            "shards": {
                name: self._shards[name].metrics_snapshot()
                for name in self.shard_order
            },
            "ledger": self.ledger_totals(),
            "tenants": homes,
        }

    # -- shutdown ------------------------------------------------------------

    async def aclose(self) -> None:
        """Graceful shutdown: close each shard's connection, wait for the
        worker to finish on EOF and exit, and kill one that does not."""
        self._closing = True
        tasks = list(self._tasks)
        for service in self.services:
            tasks.extend(service._watch_tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for service in self.services:
            if service.rpc is not None:
                await service.rpc.aclose()
        for service in self.services:
            proc = service.proc
            if proc is None:
                continue
            if await proc.wait(10) is None:
                proc.send_signal(signal.SIGKILL)
                await proc.wait(5)
            service.alive = False
