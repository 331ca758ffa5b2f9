"""``sharded``: the batch-style query set through ``ShardRouter``.

Two shard processes build the ``bench`` recipe of
``repro.cluster.workloads`` (each over its slice of the worker pool);
eight tenants, hashed 4/4 onto the shards, each submit one sentiment
query over RPC.  Each shard's queries run one after another (which
keeps a shard's run deterministic); the shards run at the same time.
Each round starts a fresh router, so ``setup_s`` is the router start
(spawn plus init handshakes) and rounds repeat until time is up.

Checks: every query ends DONE; every round's outcomes are identical;
each shard's outcomes equal an in-process replay of its shard recipe;
at the default seed the outcome digest equals the pinned one.

Only here are ``cluster`` RPC and framing on the path.  The market,
quality model and scheduler run inside the shard processes, which are
not traced, so in the traced run ``amt``, ``core`` and ``engine`` read
zero in the router process; ``durability`` appears only as the codec
encoding submissions for the wire.
"""

from __future__ import annotations

import asyncio
import hashlib
import resource
import time
from typing import Any

import inputs
from common import (
    DEFAULT_SEED, Result, add_latencies, load_pins, median, peak_rss_mb, proc_cpu_s,
    untraced,
)

PROCESSES = 2
SLOTS = 4
QUERIES_PER_TENANT = 1
TWEETS_PER_QUERY = 150
QUERY_TIMEOUT = 120.0


async def one_round(
    seed: int, subs: list, timings: dict, tracer: Any
) -> tuple[float, float, float, dict, dict]:
    """Start a router, drive every shard, collect outcomes, stop.
    Returns the start time, HITs/s, the shards' CPU ms per query while
    driven, outcomes and each shard's tenants."""
    from repro.cluster import ShardRouter

    router = ShardRouter(PROCESSES, workload="bench", seed=seed, max_in_flight=SLOTS)
    try:
        begin = time.perf_counter()
        await router.start()
        setup = time.perf_counter() - begin
        by_shard: dict[str, list] = {}
        for sub in subs:
            await router.register_tenant(sub.tenant, priority=1.0)
            by_shard.setdefault(router.route(sub.tenant).name, []).append(sub)

        async def drive_shard(name: str, shard_subs: list) -> int:
            service = router[name]
            hits = 0
            for sub in shard_subs:
                start = time.perf_counter()
                handle = await service.submit(
                    sub.job, sub.query(), tenant=sub.tenant, **sub.inputs
                )
                timings["submit"].append(time.perf_counter() - start)
                await handle.result(timeout=QUERY_TIMEOUT)
                timings["query"].append(time.perf_counter() - start)
                hits += handle.progress().hits_completed
            return hits

        def shards_cpu() -> float:
            return sum(proc_cpu_s(service.pid) for service in router.services)

        begin, cpu = time.perf_counter(), shards_cpu()
        hits = sum(await asyncio.gather(
            *(drive_shard(n, s) for n, s in sorted(by_shard.items()))
        ))
        rate = hits / (time.perf_counter() - begin)
        cpu_ms = 1000.0 * (shards_cpu() - cpu) / len(subs)
        outcomes = {name: await router[name].outcomes() for name in sorted(by_shard)}
        if tracer is not None:
            for service in router.services:
                tracer.count("cluster.shard_steps", steps=service.steps_taken)
    finally:
        await router.aclose()
    homes = {name: [s.tenant for s in shard_subs] for name, shard_subs in by_shard.items()}
    return setup, rate, cpu_ms, outcomes, homes


async def replay_shard(seed: int, shard: str, tenants: list, subs: list) -> list:
    """Rebuild one shard's recipe in this process and replay its drive."""
    from repro.cluster.worker import handle_snapshot
    from repro.cluster.workloads import bench
    from repro.engine.aio import AsyncSchedulerService

    names = [f"shard{i}" for i in range(PROCESSES)]
    config = {
        "seed": seed, "shard": shard, "shards": names,
        "weights": {name: 1.0 for name in names},
        "pool_size": bench.default_pool_size,
    }
    service = AsyncSchedulerService(bench(config).service(max_in_flight=SLOTS))
    by_tenant = {s.tenant: s for s in subs}
    for tenant in tenants:
        service.register_tenant(tenant, priority=1.0)
        sub = by_tenant[tenant]
        # reserve=True mirrors the RPC submit default.
        handle = service.submit(
            sub.job, sub.query(), tenant=tenant, reserve=True, **sub.inputs
        )
        await handle.result(timeout=QUERY_TIMEOUT)
    snapshots = [handle_snapshot(h) for h in service.handles]
    await service.aclose()
    return snapshots


def run(seed: int, seconds: float, tracer: Any = None) -> Result:
    from repro.amt.trace import canonical_json

    result = Result("sharded")
    subs = inputs.batch_submissions(
        seed, per_tenant=QUERIES_PER_TENANT, tweets_per_query=TWEETS_PER_QUERY, images=0
    )
    timings: dict[str, list[float]] = {"submit": [], "query": []}
    setups: list[float] = []
    rates: list[float] = []
    cpus: list[float] = []
    digests: set[str] = set()
    first: tuple[dict, dict] | None = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rates:
        setup, rate, cpu_ms, outcomes, homes = asyncio.run(
            one_round(seed, subs, timings, tracer)
        )
        setups.append(setup)
        rates.append(rate)
        cpus.append(cpu_ms)
        states = [q["progress"]["state"] for shard in outcomes.values() for q in shard]
        result.attempted += len(subs)
        result.failed += sum(1 for s in states if s != "done") + len(subs) - len(states)
        result.check(
            states == ["done"] * len(subs), f"queries not all DONE: {states}"
        )
        digests.add(hashlib.sha256(canonical_json(outcomes).encode()).hexdigest()[:16])
        first = first or (outcomes, homes)

    with untraced(tracer):
        outcomes, homes = first
        for shard, tenants in sorted(homes.items()):
            local = asyncio.run(replay_shard(seed, shard, tenants, subs))
            result.check(
                canonical_json(local) == canonical_json(outcomes[shard]),
                f"shard {shard} diverged from its in-process replay",
            )
    result.check(len(digests) == 1, f"rounds disagree: digests {sorted(digests)}")
    if seed == DEFAULT_SEED:
        pinned = load_pins()["sharded"]
        result.check(digests == {pinned}, f"digest {sorted(digests)} != pinned {pinned}")
    result.note(
        f"digest {sorted(digests)[0]} over {len(rates)} rounds; "
        f"homes {dict(sorted((k, len(v)) for k, v in homes.items()))}"
    )
    result.add("setup_s", median(setups), "s", len(setups))
    result.add("hits_per_s", median(rates), "1/s", len(rates))
    result.add("cpu_ms_per_query", median(cpus), "ms", len(cpus))
    add_latencies(result, timings)
    rss = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
    result.add("peak_rss_mb", rss, "MiB", 1)
    return result
