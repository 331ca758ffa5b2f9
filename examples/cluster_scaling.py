"""Horizontal scale-out: sharded worker pools in separate processes.

The cluster layer (DESIGN.md §14) splits the simulated crowd into
weighted shards, runs each shard's scheduler in its **own OS process**,
and rendezvous-hashes tenants onto shards.  This demo drives the whole
lifecycle from one script:

* spawn a 2-shard router (each child process owns a disjoint slice of
  the worker pool and a derived RNG seed);
* home two tenants — rendezvous hashing places them deterministically;
* submit one sentiment query per tenant over the length-prefixed JSON
  RPC, stream its progress (``updates()`` makes the shard watch the
  query and push its snapshots), and read the canonical result
  summaries;
* prove the scale-out determinism contract: each shard's outcomes are
  canonical-JSON-identical to rebuilding that shard's recipe (pool
  slice + derived seed) *in this process* and replaying the same
  submissions;
* read the aggregated ledger and per-shard metrics the HTTP gateway
  would serve from ``/v1/metrics``.

    PYTHONPATH=src python examples/cluster_scaling.py
"""

from __future__ import annotations

import asyncio

from repro.amt.trace import canonical_json
from repro.cluster import ShardRouter
from repro.cluster.worker import handle_snapshot
from repro.cluster.workloads import bench
from repro.engine.aio import AsyncSchedulerService
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

SEED = 2012


def submissions():
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1)
    tweets = generate_tweets(["rio", "solaris"], per_movie=48, seed=SEED + 2)
    inputs = dict(tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6)
    return [
        ("acme", movie_query("rio", 0.85), inputs),
        ("globex", movie_query("solaris", 0.85), inputs),
    ]


async def run_cluster():
    homes: dict[str, str] = {}
    outcomes: dict[str, list] = {}
    async with ShardRouter(2, workload="bench", seed=SEED) as router:
        await router.register_tenant("acme", priority=2.0)
        await router.register_tenant("globex", priority=1.0)
        for tenant, query, inputs in submissions():
            shard = router.route(tenant)
            homes[tenant] = shard.name
            print(f"{tenant:>8} → {shard.name} (pid {shard.pid})")
            handle = await shard.submit(
                "twitter-sentiment", query, tenant=tenant, **inputs
            )
            # The stream's first subscriber asks the shard to watch the
            # query: progress frames flow from then until the terminal
            # one.  Print a line per newly answered batch.
            shown = None
            async for progress in handle.updates():
                line = (progress.state, progress.items_answered)
                if line == shown:
                    continue
                shown = line
                print(
                    f"{tenant:>8}   {progress.state.value:<9}"
                    f" answered={progress.items_answered:>2}"
                    f" spend=${progress.spend:.3f}"
                )
            result = await handle.result(timeout=120)
            top = max(result["report"]["rows"], key=lambda row: row[1])
            print(
                f"{tenant:>8}   {result['report']['subject']}:"
                f" {top[0]} {top[1]:.0%} (cost ${result['cost']:.3f})"
            )
        for name in router.shard_order:
            outcomes[name] = await router[name].outcomes()
        print("\naggregated ledger:", router.ledger_totals())
        for name, entry in router.metrics()["shards"].items():
            print(
                f"  {name}: alive={entry['alive']}"
                f" steps={entry['steps_taken']} queries={entry['queries']}"
            )
    return homes, outcomes


async def replay_shard(shard: str, tenant: str, priority: float) -> list:
    """Rebuild one shard's recipe in-process — same pool slice, same
    derived seed — and replay its submissions."""
    config = {
        "seed": SEED,
        "shard": shard,
        "shards": ["shard0", "shard1"],
        "weights": {"shard0": 1.0, "shard1": 1.0},
        "pool_size": bench.default_pool_size,
    }
    service = AsyncSchedulerService(bench(config).service(max_in_flight=4))
    service.register_tenant(tenant, priority=priority)
    for sub_tenant, query, inputs in submissions():
        if sub_tenant != tenant:
            continue
        handle = service.submit(
            "twitter-sentiment", query, tenant=tenant, reserve=True, **inputs
        )
        await handle.result(timeout=120)
    snapshots = [handle_snapshot(h) for h in service.handles]
    await service.aclose()
    return snapshots


def main():
    homes, outcomes = asyncio.run(run_cluster())
    print("\ndeterminism contract (shard process vs in-process replay):")
    for tenant, shard in sorted(homes.items()):
        priority = 2.0 if tenant == "acme" else 1.0
        local = asyncio.run(replay_shard(shard, tenant, priority))
        match = canonical_json(local) == canonical_json(outcomes[shard])
        print(f"  {shard} ({tenant}): bit-identical={match}")
        assert match, f"{shard} diverged from its in-process replay"


if __name__ == "__main__":
    main()
