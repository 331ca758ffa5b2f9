"""One shard's worker process: an async service behind a socket RPC.

Forked by the :class:`~repro.cluster.router.ShardRouter`, whose child
runs :func:`main` with its end of the shard's RPC socketpair (made
before the fork) and the shard's name, then serves requests strictly in
arrival order until the router closes its end: on EOF the worker closes
its service (flushing the journal) and exits 0.  The
sans-IO core makes the process boundary just another driver: the worker
runs the same :class:`~repro.engine.aio.AsyncSchedulerService` the
in-process mux runs, and every mutation a request performs (submit,
cancel, tenant registration) is exactly the library call the gateway
would have made locally.

Every piece of shard state the router keeps arrives as an event, in
wire order; a reply carries only the call's own result.  A submit posts
the new handle's ``snapshot`` event before its ``{seq}`` reply (the
router adopts the handle from it); a cancel posts the handle's snapshot
and a ``stats`` event before ``{cancelled}``; ``init`` posts a snapshot
per recovered handle and the stats before ``{recovered, count}``.  When
the driver drops a handle from its live list (terminal or stranded) the
worker sends one ``terminal`` event carrying the canonical result
summary (or error) plus fresh shard stats; drains push a ``stats``
event, and a ``stats`` request answers with one, then ``{ok}``.

Observation streams push while watched and polls pull.  A handle's
changed progress snapshots stream as ``progress`` events only between a
``watch`` request and an ``unwatch`` (the router sends them as its first
router-side stream opens and its last one closes), so an unwatched
query's driver never builds a progress snapshot.  A poll of an
unwatched query asks for one with a ``snapshot`` request.  Both
``watch`` and ``snapshot`` answer with a ``snapshot`` event posted after
the progress frames the handle's forwarder still holds and before the
reply.  Stats are the gateway's per-service ``/v1/metrics`` entry
(:meth:`AsyncSchedulerService.metrics_snapshot`) plus the shard's
``idle`` flag.

With a journal the worker composes durability unchanged: a fresh
journal makes the service a :class:`DurableSchedulerService` (the
journaled ``SchedulerService`` subclass), non-empty ones are *recovered*
(same query ids, no re-charge) before serving, and the durable service
commits each submit, cancel and tenant record before the call returns,
so before the RPC response leaves.  A journal store error stops the
service (``JournalFailed``) and answers every later request with the
``journal-failed`` wire error.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Any

from repro.cluster.rpc import read_frame, write_frame
from repro.cluster.workloads import WORKLOADS
from repro.durability import codec as dcodec
from repro.durability.journal import JournalFailed
from repro.engine.aio import AsyncQueryHandle, AsyncSchedulerService
from repro.engine.planner import PlanInfeasible
from repro.engine.service import (
    TERMINAL_STATES,
    AdmissionRejected,
    QueryProgress,
)

__all__ = ["main", "handle_snapshot"]


def handle_snapshot(ahandle: AsyncQueryHandle) -> dict[str, Any]:
    """One handle's full observable state as plain JSON-able data.

    The wire twin of the gateway's poll payload: identity, the canonical
    ``QueryProgress.to_dict()`` snapshot, the plan, and — once terminal —
    the canonical result summary or the error text.  Shared by the
    ``snapshot`` and ``terminal`` events and the ``outcomes`` RPC (what
    the scaling bench fingerprints).
    """
    progress = ahandle.progress()
    plan = ahandle.plan
    snapshot: dict[str, Any] = {
        "seq": ahandle.seq,
        "tenant": ahandle.tenant,
        "job": ahandle.job_name,
        "subject": ahandle.query.subject,
        "progress": progress.to_dict(),
        "plan": None if plan is None else plan.to_dict(),
    }
    state = progress.state.value
    if state == "done":
        snapshot["result"] = ahandle.result_summary()
    elif state == "failed":
        snapshot["error"] = ahandle.error_text
    if ahandle.stranded is not None and state not in (
        "done", "cancelled", "failed"
    ):
        snapshot["error"] = str(ahandle.stranded)
    return snapshot


class _Worker:
    """Shard state: the service, its handles, and the push plumbing."""

    def __init__(self, shard: str, outbox: "asyncio.Queue[dict | None]") -> None:
        self.shard = shard
        self.outbox = outbox
        self.service: AsyncSchedulerService | None = None
        #: ``seq → (queue, forwarder)`` for the handles the router watches.
        self._watches: dict[
            int, tuple["asyncio.Queue[QueryProgress]", asyncio.Task[None]]
        ] = {}

    # -- push side -----------------------------------------------------------

    def post(self, frame: dict[str, Any]) -> None:
        self.outbox.put_nowait(frame)

    def stats(self) -> dict[str, Any]:
        assert self.service is not None
        stats = self.service.metrics_snapshot()
        stats["idle"] = self.service.idle
        return stats

    def send_stats(self, _params: dict[str, Any] | None = None) -> dict[str, Any]:
        """Post a ``stats`` event (the ``stats`` request's answer)."""
        self.post({"event": "stats", "stats": self.stats()})
        return {"ok": True}

    def _on_latch(self, ahandle: AsyncQueryHandle) -> None:
        """Send the ``terminal`` frame of a handle the driver just
        dropped from its live list; the result leaves only after the
        journal flush.  Result/error extraction and the ledger totals
        ride along, so the router's caches turn terminal in one ordered
        frame."""
        self._unwatch(ahandle.seq)
        try:
            self.service.flush_journal()
        except JournalFailed:
            return  # not durable: later requests answer journal-failed
        self.post({
            "event": "terminal",
            "seq": ahandle.seq,
            "snapshot": handle_snapshot(ahandle),
            "stats": self.stats(),
        })

    def _watch(self, ahandle: AsyncQueryHandle) -> None:
        """Start forwarding ``progress`` frames (idempotent).

        Subscribes now, before anything awaits: a driver step that runs
        after the request is watched too.
        """
        if ahandle.seq in self._watches or ahandle._terminal.is_set():
            return
        queue = ahandle.subscribe()
        task = asyncio.get_running_loop().create_task(
            self._forward(ahandle, queue),
            name=f"cdas-shard-watch-{ahandle.seq}",
        )
        self._watches[ahandle.seq] = (queue, task)

    def _forward_one(self, ahandle: AsyncQueryHandle, snapshot: QueryProgress) -> bool:
        """Post one pushed snapshot; ``False`` once the handle latched
        (the terminal frame carries the rest)."""
        if snapshot.state in TERMINAL_STATES or ahandle.stranded is not None:
            return False
        self.post({
            "event": "progress",
            "seq": ahandle.seq,
            "progress": snapshot.to_dict(),
        })
        return True

    async def _forward(
        self, ahandle: AsyncQueryHandle, queue: "asyncio.Queue[QueryProgress]"
    ) -> None:
        try:
            while self._forward_one(ahandle, await queue.get()):
                pass
        finally:
            ahandle.unsubscribe(queue)

    def _flush(self, seq: int) -> None:
        """Post the snapshots a watched handle's forwarder has not sent
        yet, so that a snapshot taken now goes out after all of them."""
        watch = self._watches.get(seq)
        if watch is None:
            return
        queue, _task = watch
        ahandle = self.service.handle_for(seq)
        while not queue.empty():
            if not self._forward_one(ahandle, queue.get_nowait()):
                break

    def _unwatch(self, seq: int) -> None:
        """Stop forwarding (idempotent); pending snapshots go out first."""
        self._flush(seq)
        watch = self._watches.pop(seq, None)
        if watch is None:
            return
        queue, task = watch
        task.cancel()
        self.service.handle_for(seq).unsubscribe(queue)

    # -- request handlers (dispatched strictly in arrival order) -------------

    def init(self, params: dict[str, Any]) -> dict[str, Any]:
        workload = params["workload"]
        config = dict(params.get("config") or {})
        journal = params.get("journal")
        factory = WORKLOADS[workload]
        config.setdefault(
            "pool_size", getattr(factory, "default_pool_size", 200)
        )
        cdas = factory(config)
        recovered = journal is not None and (
            os.path.exists(journal) and os.path.getsize(journal) > 0
        )
        if recovered:
            inner = cdas.recover(journal)
        else:
            inner = cdas.service(
                max_in_flight=int(params.get("max_in_flight", 4)),
                journal=journal,
                journal_meta={"workload": workload, "config": config},
            )
        # Adopts a recovered service's handles; its driver task runs only
        # after this handler returns, with the hooks below set.
        service = AsyncSchedulerService(inner, name=self.shard)
        # The driver flushed the journal before draining.
        service.on_drain = lambda _svc: self.send_stats()
        service.on_latch = self._on_latch
        self.service = service
        for ahandle in service.handles:
            self._post_snapshot(ahandle)
        self.send_stats()
        return {"recovered": recovered, "count": len(service.handles)}

    def register_tenant(self, params: dict[str, Any]) -> dict[str, Any]:
        # A repeat (recovered shard, re-homing replay) just redeclares;
        # invalid caps/priorities raise and cross as ``bad-request``.
        budget_cap = params.get("budget_cap")
        self.service.register_tenant(
            params["name"],
            budget_cap=None if budget_cap is None else float(budget_cap),
            priority=float(params.get("priority", 1.0)),
        )
        return {"ok": True}

    def _decode_submission(self, params: dict[str, Any]):
        from repro.engine.query import Query

        query = dcodec.decode(params["query"])
        if not isinstance(query, Query):
            raise ValueError(
                f"query must decode to a Query, got {type(query).__name__}"
            )
        inputs = {
            key: dcodec.decode(value)
            for key, value in (params.get("inputs") or {}).items()
        }
        return query, inputs

    def plan(self, params: dict[str, Any]) -> dict[str, Any]:
        query, inputs = self._decode_submission(params)
        plan = self.service.plan(
            params["job"],
            query,
            tenant=params["tenant"],
            budget=params.get("budget"),
            priority=params.get("priority"),
            **inputs,
        )
        decision = self.service.preadmit(plan)
        return {"plan": plan.to_dict(), "decision": decision.to_dict()}

    def submit(self, params: dict[str, Any]) -> dict[str, Any]:
        query, inputs = self._decode_submission(params)
        ahandle = self.service.submit(
            params["job"],
            query,
            tenant=params["tenant"],
            budget=params.get("budget"),
            priority=params.get("priority"),
            reserve=bool(params.get("reserve", True)),
            **inputs,
        )
        self._post_snapshot(ahandle)
        return {"seq": ahandle.seq}

    def _handle(self, params: dict[str, Any]) -> AsyncQueryHandle:
        seq = int(params["seq"])
        ahandle = self.service.handle_for(seq)
        if ahandle is None:
            raise KeyError(f"no query with seq {seq} on shard {self.shard!r}")
        return ahandle

    def _post_snapshot(self, ahandle: AsyncQueryHandle) -> None:
        """Post the handle's full snapshot as a ``snapshot`` event, after
        the frames its forwarder still holds: the router's reader applies
        it in wire order, before the reply that follows it resolves.  A
        terminal state leaves only after the journal flush, as in the
        terminal frame."""
        self._flush(ahandle.seq)
        if ahandle.done:
            self.service.flush_journal()
        self.post({
            "event": "snapshot",
            "seq": ahandle.seq,
            "snapshot": handle_snapshot(ahandle),
        })

    def watch(self, params: dict[str, Any]) -> dict[str, Any]:
        """Forward the handle's changed snapshots until ``unwatch`` (or
        its terminal frame), after a snapshot that primes the router's
        cache."""
        ahandle = self._handle(params)
        self._post_snapshot(ahandle)
        self._watch(ahandle)
        return {"ok": True}

    def unwatch(self, params: dict[str, Any]) -> dict[str, Any]:
        self._unwatch(self._handle(params).seq)
        return {"ok": True}

    def snapshot(self, params: dict[str, Any]) -> dict[str, Any]:
        """One handle's current snapshot: what a poll of an unwatched
        query pulls."""
        self._post_snapshot(self._handle(params))
        return {"ok": True}

    async def cancel(self, params: dict[str, Any]) -> dict[str, Any]:
        ahandle = self._handle(params)
        cancelled = await ahandle.cancel()
        self._post_snapshot(ahandle)  # terminal: flushed first
        self.send_stats()
        return {"cancelled": cancelled}

    def outcomes(self, _params: dict[str, Any]) -> dict[str, Any]:
        return {"handles": [handle_snapshot(a) for a in self.service.handles]}

    async def aclose(self) -> None:
        tasks = [task for _queue, task in self._watches.values()]
        self._watches.clear()
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self.service is not None:
            self.service.flush_journal()
            await self.service.aclose()


def _error_payload(exc: BaseException) -> dict[str, Any]:
    """Map an engine exception onto the wire taxonomy the router rebuilds."""
    if isinstance(exc, PlanInfeasible):
        return {
            "kind": "plan-infeasible",
            "message": str(exc),
            "data": {
                "plan": exc.plan.to_dict(),
                "decision": exc.decision.to_dict(),
            },
        }
    if isinstance(exc, AdmissionRejected):
        return {"kind": "admission-rejected", "message": str(exc)}
    if isinstance(exc, JournalFailed):
        return {"kind": "journal-failed", "message": str(exc)}
    if isinstance(exc, (KeyError, ValueError, dcodec.CodecError)):
        return {"kind": "bad-request", "message": str(exc)}
    return {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}


async def _write_loop(
    writer: asyncio.StreamWriter, outbox: "asyncio.Queue[dict | None]"
) -> None:
    while True:
        frame = await outbox.get()
        if frame is None:
            return
        try:
            await write_frame(writer, frame)
        except (ConnectionError, RuntimeError):
            return


async def _amain(sock: socket.socket, shard: str) -> int:
    reader, writer = await asyncio.open_connection(sock=sock)
    outbox: "asyncio.Queue[dict | None]" = asyncio.Queue()
    writer_task = asyncio.get_running_loop().create_task(
        _write_loop(writer, outbox), name="cdas-shard-writer"
    )
    worker = _Worker(shard, outbox)
    handlers = {
        "init": worker.init,
        "register_tenant": worker.register_tenant,
        "plan": worker.plan,
        "submit": worker.submit,
        "cancel": worker.cancel,
        "watch": worker.watch,
        "unwatch": worker.unwatch,
        "snapshot": worker.snapshot,
        "stats": worker.send_stats,
        "outcomes": worker.outcomes,
    }
    try:
        while True:
            frame = await read_frame(reader)
            if frame is None:
                # The router closed its end (shutdown) or died: stop
                # serving.  An orphaned shard must never outlive its router.
                return 0
            call_id = frame.get("id")
            method = frame.get("method")
            handler = handlers.get(method)
            if handler is None:
                worker.post({
                    "id": call_id,
                    "error": {"kind": "bad-request",
                              "message": f"unknown method {method!r}"},
                })
                continue
            try:
                result = handler(frame.get("params") or {})
                if asyncio.iscoroutine(result):
                    result = await result
                worker.post({"id": call_id, "result": result})
            except Exception as exc:
                worker.post({"id": call_id, "error": _error_payload(exc)})
    finally:
        await worker.aclose()
        outbox.put_nowait(None)
        try:
            await writer_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


def main(sock: socket.socket, shard: str) -> int:
    """Serve shard ``shard`` to the router on ``sock`` until the router
    closes its end or goes away; the exit code."""
    try:
        return asyncio.run(_amain(sock, shard))
    except KeyboardInterrupt:
        return 0
