"""Polled and streamed gateway traffic through a :class:`ShardRouter`.

The repository benchmark's ``sharded`` workload only awaits results and
its ``http_open`` workload never reaches the cluster, so neither shows
what a poll of a sharded query costs.  This script drives a
``GatewayApp`` over a 2-shard ``ShardRouter`` in one process, through
the in-process ASGI client, at ``http_open``'s load: open-loop submits
at ``--rate`` per second, 80% 60-tweet and 20% 300-tweet queries, each
followed to its terminal state either by a poll every ``--poll-ms``
(``--mode poll``) or over one SSE stream (``--mode stream``).

Printed as one JSON line:

* ``poll_ms_p50``/``poll_ms_p90`` — the app's latency per poll request
  (``--mode poll``), and ``polls_per_query``;
* ``shard_cpu_ms_per_query`` — the shard processes' CPU over the load
  (read from ``/proc/<pid>/stat``, so Linux only), per query;
* ``router_cpu_ms_per_query`` — this process's CPU (router, gateway
  and client together), per query.

Run it from a checkout's root, once per checkout to compare::

    PYTHONPATH=src python benchmarks/router_polls.py --mode poll --seconds 12
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import time

from repro.cluster import ShardRouter
from repro.gateway.app import GatewayApp
from repro.gateway.auth import TokenAuth
from repro.gateway.testing import InProcessClient
from repro.tsa.tweets import generate_tweets

TENANTS = ("acme", "globex")
#: One cycle of query sizes: four 60-tweet queries per 300-tweet one.
SIZES = (60, 60, 300, 60, 60)


def _cpu_ms(pid: int) -> float:
    """utime + stime of one process, in milliseconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return 1000.0 * (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def _body(size: int) -> dict:
    return {
        "job": "twitter-sentiment",
        "query": {
            "keywords": ["rio"], "required_accuracy": 0.85,
            "domain": ["positive", "neutral", "negative"], "subject": "rio",
        },
        "inputs": {"$preset": f"t{size}"},
    }


async def _follow(client, mode, size, poll_s, polls):
    submitted = await client.post("/v1/queries", _body(size))
    assert submitted.status == 201, submitted.json()
    path = f"/v1/queries/{submitted.json()['id']}"
    if mode == "stream":
        response = await client.get(path + "/events")
        assert response.status == 200 and b"event: end" in response.body
        return
    while True:
        await asyncio.sleep(poll_s)
        started = time.perf_counter()
        polled = (await client.get(path)).json()
        polls.append(time.perf_counter() - started)
        if polled["progress"]["state"] in ("done", "cancelled", "failed"):
            return


async def run(args: argparse.Namespace) -> dict:
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=args.seed + 1)
    presets = {
        f"t{size}": dict(
            tweets=generate_tweets(["rio"], per_movie=size, seed=args.seed + size),
            gold_tweets=gold, worker_count=5, batch_size=6,
        )
        for size in set(SIZES)
    }
    auth = TokenAuth({f"{t}-token": t for t in TENANTS})
    async with ShardRouter(2, workload="bench", seed=args.seed) as router:
        for tenant in TENANTS:
            await router.register_tenant(tenant)
        app = GatewayApp(router, auth, presets=presets)
        clients = [InProcessClient(app, token=f"{t}-token") for t in TENANTS]
        pids = [service.pid for service in router.services]
        shard_cpu = sum(_cpu_ms(pid) for pid in pids)
        own_cpu = time.process_time()
        polls: list[float] = []
        tasks = []
        start = time.perf_counter()
        count = int(args.rate * args.seconds)
        for index in range(count):
            await asyncio.sleep(max(start + index / args.rate - time.perf_counter(), 0))
            tasks.append(asyncio.ensure_future(_follow(
                clients[index % len(clients)], args.mode, SIZES[index % len(SIZES)],
                args.poll_ms / 1000.0, polls,
            )))
        await asyncio.gather(*tasks)
        shard_cpu = sum(_cpu_ms(pid) for pid in pids) - shard_cpu
        own_cpu = 1000.0 * (time.process_time() - own_cpu)
    out = {
        "mode": args.mode,
        "queries": count,
        "shard_cpu_ms_per_query": round(shard_cpu / count, 2),
        "router_cpu_ms_per_query": round(own_cpu / count, 2),
    }
    if polls:
        out["polls_per_query"] = round(len(polls) / count, 1)
        out["poll_ms_p50"] = round(1000 * statistics.median(polls), 3)
        out["poll_ms_p90"] = round(1000 * _percentile(polls, 0.9), 3)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("poll", "stream"), default="poll")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--rate", type=float, default=4.0, help="submits per second")
    parser.add_argument("--poll-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=2012)
    print(json.dumps(asyncio.run(run(parser.parse_args()))))


if __name__ == "__main__":
    main()
