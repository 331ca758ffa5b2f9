"""Which entry points each layer's spans wrap, and the per-layer metrics
derived from a span file.

Layers are the program's modules:

=============  ==========================================================
``amt``        ``SimulatedMarket.publish`` / ``publish_many`` /
               ``publish_reference``, ``PublishedHIT.cancel``
``core``       ``HITSession.on_submission`` (quality model, per answer)
``engine``     ``SchedulerService.step`` / ``submit``
``aio``        ``AsyncSchedulerService._notify`` (once per async pump step)
``gateway``    ``GatewayApp.__call__``, ``parse_inputs``, ``handle_payload``
``durability`` ``FileJournalStore.append`` / ``_commit`` / ``read_records``,
               ``DurableSchedulerService.flush_journal``, codec
               ``encode`` / ``decode``, ``recover`` and its ``_replay``
``cluster``    ``ShardRouter.start``, ``RpcClient.call``, ``encode_frame``
=============  ==========================================================

The benchmark itself adds counts of its own: client latencies
(``client.<route>``), the load generator's figures, the server's CPU
time while serving (``proc.cpu``) and per-shard steps.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any

from common import percentile

#: Gateway routes the http_open client drives, by (method, path shape).
ROUTES = ("submit", "poll", "cancel")
#: RPC methods the sharded workload calls from the router side.
RPC_METHODS = ("register_tenant", "submit", "outcomes")


def route_of(method: str, path: str) -> str:
    if path == "/v1/queries":
        return "submit"
    if path.startswith("/v1/queries/"):
        return "cancel" if method == "DELETE" else "poll"
    return "other"


def _header(scope: dict, name: bytes) -> str | None:
    for key, value in scope.get("headers", ()):
        if key == name:
            return value.decode("latin-1")
    return None


def instrument(tracer: Any) -> None:
    """Wrap every layer's public entry points (see module docstring)."""
    from repro.amt.market import PublishedHIT, SimulatedMarket
    from repro.cluster import rpc
    from repro.cluster.router import ShardRouter
    import repro.durability as durability
    from repro.durability import codec, recovery
    from repro.durability.journal import FileJournalStore
    from repro.durability.service import DurableSchedulerService
    from repro.engine.aio import AsyncSchedulerService
    from repro.engine.service import SchedulerService
    from repro.engine.session import HITSession
    from repro.gateway import routes
    from repro.gateway.app import GatewayApp

    wrap = tracer.wrap

    # amt: HIT counts and hired assignments ride on every publish span.
    def one_hit(args, kwargs, result):
        return {"hits": 1, "hired": args[1].assignments}

    def many_hits(args, kwargs, result):
        return {
            "hits": len(result),
            "hired": sum(h.hit.assignments for h in result),
        }

    wrap(SimulatedMarket, "publish", "amt.publish", attrs=one_hit)
    wrap(SimulatedMarket, "publish_reference", "amt.publish_reference", attrs=one_hit)
    wrap(SimulatedMarket, "publish_many", "amt.publish_many", attrs=many_hits)
    wrap(PublishedHIT, "cancel", "amt.cancel",
         attrs=lambda a, k, r: {"avoided": r})

    wrap(HITSession, "on_submission", "core.on_submission")

    # Steps and requests also record the thread-CPU interval they span,
    # so the server's CPU time outside both (aio.other_s) can be found
    # by a union that counts a step run inside a request's await once.
    def cpu_now(args, kwargs):
        return time.thread_time()

    def step_load(args, kwargs, result, cpu0):
        scheduler = args[0].scheduler
        return {
            "in_flight": scheduler.in_flight,
            "pending": scheduler.pending_count,
            "cpu": (cpu0, time.thread_time()),
        }

    wrap(SchedulerService, "step", "engine.step", before=cpu_now, attrs=step_load)
    wrap(SchedulerService, "submit", "engine.submit")

    wrap(AsyncSchedulerService, "_notify", "aio.notify")

    def request_route(args, kwargs):
        scope = args[1]
        return _header(scope, b"x-request-id")

    def request_attrs(args, kwargs, result, cpu0):
        scope = args[1]
        if scope.get("type") != "http":
            return None
        return {
            "route": route_of(scope["method"], scope["path"]),
            "cpu": (cpu0, time.thread_time()),
        }

    wrap(GatewayApp, "__call__", "gateway.app", qid=request_route,
         before=cpu_now, attrs=request_attrs)
    wrap(routes, "parse_inputs", "gateway.parse_inputs")
    wrap(routes, "handle_payload", "gateway.handle_payload")

    def write_pos(args, kwargs):
        store = args[0]
        if store._fh is not None:
            return store._fh.tell()
        # The first append opens the file for appending at its end.
        return store.path.stat().st_size if store.path.exists() else 0

    def append_attrs(args, kwargs, result, pos):
        return {"bytes": args[0]._fh.tell() - pos}

    wrap(FileJournalStore, "append", "durability.append",
         before=write_pos, attrs=append_attrs)
    wrap(FileJournalStore, "_commit", "durability.commit",
         before=lambda a, k: a[0].syncs,
         attrs=lambda a, k, r, syncs: {"syncs": a[0].syncs - syncs})
    wrap(FileJournalStore, "read_records", "durability.read")
    wrap(DurableSchedulerService, "flush_journal", "durability.flush")
    wrap(codec, "encode", "durability.encode", reentrant=False)
    wrap(codec, "decode", "durability.decode", reentrant=False)
    wrap(recovery, "_replay", "durability.replay")
    recover_attrs = lambda a, k, r: {"replayed_events": r.replayed_events}  # noqa: E731
    wrap(recovery, "recover", "durability.recover", attrs=recover_attrs)
    wrap(durability, "recover", "durability.recover", attrs=recover_attrs)

    wrap(ShardRouter, "start", "cluster.start")
    wrap(rpc.RpcClient, "call", "cluster.rpc",
         attrs=lambda a, k, r: {"method": a[1]})
    wrap(rpc, "encode_frame", "cluster.encode_frame",
         attrs=lambda a, k, r: {"bytes": len(r)})


# -- derivation ----------------------------------------------------------------


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _p50_ms(values: list[float]) -> float:
    return 1000.0 * percentile(values, 50) if values else 0.0


def derive(spans: list[list[Any]]) -> dict[str, float]:
    """Every per-layer metric from one run's spans (all traced processes,
    as :func:`tracer.read_spans` merges them)."""
    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    for index, span in enumerate(spans):
        span.append(index)  # element 6: the span's own index, as parents name it
        by_name[span[0]].append(span)

    def parent_name(span: list[Any]) -> str:
        return spans[span[3]][0] if span[3] >= 0 else ""

    def dur(span: list[Any]) -> float:
        return span[2] - span[1]

    m: dict[str, float] = {}

    # amt -------------------------------------------------------------------
    publish_spans = [
        s for n in ("amt.publish", "amt.publish_many", "amt.publish_reference")
        for s in by_name[n]
    ]
    m["amt.publish_s"] = sum(
        dur(s) for s in publish_spans if not parent_name(s).startswith("amt.")
    )
    # Every HIT is published by exactly one publish_reference call or one
    # batched publish_many (a batch that fell back to the scalar path
    # has publish_reference children, which count its HITs instead).
    fell_back = {s[3] for s in by_name["amt.publish_reference"]}
    scalar = by_name["amt.publish_reference"]
    batched = [s for s in by_name["amt.publish_many"] if s[6] not in fell_back and s[5]]
    batched_hits = sum(s[5]["hits"] for s in batched)
    hits = len(scalar) + batched_hits
    hired = sum(s[5]["hired"] for s in scalar if s[5]) + sum(s[5]["hired"] for s in batched)
    avoided = sum(s[5]["avoided"] for s in by_name["amt.cancel"] if s[5])
    m["amt.hits_published"] = float(hits)
    m["amt.batched_hit_share"] = batched_hits / hits if hits else 0.0
    m["amt.assignments_cancelled_share"] = avoided / hired if hired else 0.0

    # core ------------------------------------------------------------------
    m["core.answers"] = float(len(by_name["core.on_submission"]))
    m["core.answer_s"] = sum(dur(s) for s in by_name["core.on_submission"])

    # engine ----------------------------------------------------------------
    steps = by_name["engine.step"]
    m["engine.steps"] = float(len(steps))
    m["engine.step_s"] = sum(dur(s) for s in steps)
    m["engine.submit_ms_p50"] = _p50_ms([dur(s) for s in by_name["engine.submit"]])
    loads = [s[5] for s in steps if s[5]]
    m["engine.in_flight_mean"] = (
        sum(x["in_flight"] for x in loads) / len(loads) if loads else 0.0
    )
    m["engine.pending_mean"] = (
        sum(x["pending"] for x in loads) / len(loads) if loads else 0.0
    )

    # aio -------------------------------------------------------------------
    notifies = by_name["aio.notify"]
    m["aio.steps"] = float(len(notifies))
    apps = by_name["gateway.app"]
    if notifies:
        # The server's serving CPU time minus the union of the CPU
        # intervals its steps and requests span.
        cpu = sum(s[5]["cpu_s"] for s in by_name["proc.cpu"])
        busy = _union_seconds([tuple(s[5]["cpu"]) for s in steps + apps if s[5]])
        m["aio.other_s"] = max(cpu - busy, 0.0)
    else:
        m["aio.other_s"] = 0.0

    # gateway ---------------------------------------------------------------
    app_by_id: dict[str, float] = {}
    for route in ROUTES:
        route_spans = [s for s in apps if s[5] and s[5].get("route") == route]
        m[f"gateway.requests.{route}"] = float(len(route_spans))
        m[f"gateway.app_ms_p50.{route}"] = _p50_ms([dur(s) for s in route_spans])
        for s in route_spans:
            if s[4] is not None:
                app_by_id[s[4]] = dur(s)
    for route in ROUTES:
        waits = [
            s[5]["latency_s"] - app_by_id[s[4]]
            for s in by_name[f"client.{route}"]
            if s[5] and s[4] in app_by_id
        ]
        m[f"gateway.wait_ms_p50.{route}"] = _p50_ms(waits)
    m["gateway.decode_s"] = sum(dur(s) for s in by_name["gateway.parse_inputs"])
    m["gateway.payload_s"] = sum(dur(s) for s in by_name["gateway.handle_payload"])

    # durability ------------------------------------------------------------
    appends = by_name["durability.append"]
    m["durability.records"] = float(len(appends))
    m["durability.bytes"] = float(sum(s[5]["bytes"] for s in appends if s[5]))
    m["durability.syncs"] = float(
        sum(s[5]["syncs"] for s in by_name["durability.commit"] if s[5])
    )
    m["durability.write_s"] = sum(dur(s) for s in appends) + sum(
        dur(s) for s in by_name["durability.commit"]
        if parent_name(s) != "durability.append"
    )
    m["durability.flush_ms_p50"] = _p50_ms([dur(s) for s in by_name["durability.flush"]])
    m["durability.encode_s"] = sum(dur(s) for s in by_name["durability.encode"])
    m["durability.decode_s"] = sum(dur(s) for s in by_name["durability.decode"])
    m["durability.read_s"] = sum(dur(s) for s in by_name["durability.read"])
    recovers = [
        s for s in by_name["durability.recover"]
        if parent_name(s) != "durability.recover"
    ]
    m["durability.replayed_events"] = float(
        sum(s[5]["replayed_events"] for s in recovers if s[5])
    )
    m["durability.replay_s"] = sum(dur(s) for s in by_name["durability.replay"])
    m["durability.recover_s"] = sum(dur(s) for s in recovers)

    # cluster ---------------------------------------------------------------
    m["cluster.start_s"] = sum(dur(s) for s in by_name["cluster.start"])
    rpcs = by_name["cluster.rpc"]
    for method in RPC_METHODS:
        m[f"cluster.rpc_calls.{method}"] = float(
            sum(1 for s in rpcs if s[5] and s[5]["method"] == method)
        )
    m["cluster.rpc_ms_p50"] = _p50_ms([dur(s) for s in rpcs])
    m["cluster.frame_bytes"] = float(
        sum(s[5]["bytes"] for s in by_name["cluster.encode_frame"] if s[5])
    )
    shard_steps = [s[5]["steps"] for s in by_name["cluster.shard_steps"] if s[5]]
    m["cluster.step_skew"] = (
        max(shard_steps) / min(shard_steps) if shard_steps and min(shard_steps) else 0.0
    )

    # load generator ----------------------------------------------------------
    gen = [s[5] for s in by_name["loadgen.summary"] if s[5]]
    m["loadgen.late_ms_p99"] = gen[-1]["late_ms_p99"] if gen else 0.0
    m["loadgen.backlog_max"] = float(gen[-1]["backlog_max"]) if gen else 0.0
    m["trace.spans"] = float(len(spans))
    return m
