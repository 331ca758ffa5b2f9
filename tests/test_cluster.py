"""Sharded worker pools + the multi-process shard router (DESIGN.md §14).

Three layers, bottom-up:

* pure units — :meth:`WorkerPool.partition` apportionment,
  rendezvous-hash placement (determinism, minimal disruption, weight
  rebalancing), per-shard seeds, RPC frame round-trips;
* one live 2-process router — submit/result/cancel across the process
  boundary, per-shard outcomes **bit-identical** (canonical JSON) to an
  in-process rebuild of the same shard recipe;
* the HTTP gateway contract — explain, submit, poll, cancel, metrics,
  healthz and the 402 counter-offer — served alike by an in-process
  ``ServiceMux`` and by the router across the RPC.
"""

from __future__ import annotations

import asyncio

import pytest
from deadlines import wait_until

from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.trace import canonical_json
from repro.cluster.rpc import MAX_FRAME_BYTES, RpcClient, encode_frame, read_frame
from repro.cluster.shards import assign_shard, shard_names, shard_seed
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

SEED = 2012


# -- WorkerPool.partition -----------------------------------------------------


class TestPartition:
    def _pool(self, size=60):
        return WorkerPool.from_config(PoolConfig(size=size), seed=SEED)

    def test_disjoint_and_exhaustive(self):
        pool = self._pool()
        shards = pool.partition({"a": 1.0, "b": 1.0, "c": 1.0})
        ids = [p.worker_id for s in shards.values() for p in s.profiles]
        assert len(ids) == len(pool)
        assert len(set(ids)) == len(ids)
        assert sorted(ids) == sorted(p.worker_id for p in pool.profiles)

    def test_weights_apportion(self):
        shards = self._pool(60).partition({"big": 2.0, "small": 1.0})
        assert len(shards["big"]) == 40
        assert len(shards["small"]) == 20

    def test_deterministic(self):
        first = self._pool().partition({"a": 1.0, "b": 2.0})
        second = self._pool().partition({"a": 1.0, "b": 2.0})
        for name in ("a", "b"):
            assert [p.worker_id for p in first[name].profiles] == [
                p.worker_id for p in second[name].profiles
            ]

    def test_every_shard_gets_a_worker(self):
        shards = self._pool(4).partition(
            {"a": 1000.0, "b": 1.0, "c": 1.0, "d": 1.0}
        )
        assert all(len(s) >= 1 for s in shards.values())
        assert sum(len(s) for s in shards.values()) == 4

    def test_errors(self):
        pool = self._pool(3)
        with pytest.raises(ValueError):
            pool.partition({})
        with pytest.raises(ValueError):
            pool.partition({"a": 0.0})
        with pytest.raises(ValueError):
            pool.partition({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})


# -- rendezvous placement -----------------------------------------------------


class TestAssignShard:
    WEIGHTS = {name: 1.0 for name in shard_names(4)}

    def test_deterministic(self):
        tenants = [f"tenant{i}" for i in range(50)]
        first = [assign_shard(t, self.WEIGHTS) for t in tenants]
        second = [assign_shard(t, self.WEIGHTS) for t in tenants]
        assert first == second

    def test_spreads_tenants(self):
        homes = {
            assign_shard(f"tenant{i}", self.WEIGHTS) for i in range(200)
        }
        assert homes == set(self.WEIGHTS)

    def test_minimal_disruption_on_shard_loss(self):
        """Removing one shard re-homes ONLY the tenants that lived on it."""
        tenants = [f"tenant{i}" for i in range(200)]
        before = {t: assign_shard(t, self.WEIGHTS) for t in tenants}
        dead = "shard2"
        survivors = {
            name: w for name, w in self.WEIGHTS.items() if name != dead
        }
        for tenant in tenants:
            after = assign_shard(tenant, survivors)
            if before[tenant] != dead:
                assert after == before[tenant]
            else:
                assert after != dead

    def test_tenant_weight_changes_rehome_deterministically(self):
        moved = 0
        for i in range(100):
            tenant = f"tenant{i}"
            light = assign_shard(tenant, self.WEIGHTS, tenant_weight=1.0)
            heavy = assign_shard(tenant, self.WEIGHTS, tenant_weight=4.0)
            again = assign_shard(tenant, self.WEIGHTS, tenant_weight=4.0)
            assert heavy == again
            if heavy != light:
                moved += 1
        assert moved > 0  # the weight is genuinely part of the hash key

    def test_shard_weight_biases_share(self):
        weights = {"big": 3.0, "small": 1.0}
        big = sum(
            1
            for i in range(400)
            if assign_shard(f"tenant{i}", weights) == "big"
        )
        assert 240 < big < 360  # ~300 expected at 3:1

    def test_no_shards_is_lookup_error(self):
        with pytest.raises(LookupError):
            assign_shard("acme", {})
        with pytest.raises(ValueError):
            assign_shard("acme", {"a": -1.0})


def test_shard_seed_stable_and_distinct():
    assert shard_seed(SEED, None) == SEED
    seeds = {shard_seed(SEED, name) for name in shard_names(8)}
    assert len(seeds) == 8
    assert shard_seed(SEED, "shard0") == shard_seed(SEED, "shard0")
    assert shard_seed(SEED + 1, "shard0") != shard_seed(SEED, "shard0")


# -- RPC framing --------------------------------------------------------------


class TestFraming:
    def test_roundtrip_and_eof(self):
        async def run():
            reader = asyncio.StreamReader()
            payload = {"id": 3, "method": "submit", "params": {"a": [1, 2]}}
            reader.feed_data(encode_frame(payload) + encode_frame({"b": 1}))
            reader.feed_eof()
            assert await read_frame(reader) == payload
            assert await read_frame(reader) == {"b": 1}
            assert await read_frame(reader) is None

        asyncio.run(run())

    def test_truncated_frame_reads_as_eof(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"id": 1})[:-2])
            reader.feed_eof()
            assert await read_frame(reader) is None

        asyncio.run(run())

    def test_size_guard(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ValueError):
                await read_frame(reader)

        asyncio.run(run())

    def test_non_object_frame_rejected(self):
        async def run():
            reader = asyncio.StreamReader()
            body = b"[1,2,3]"
            reader.feed_data(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ValueError):
                await read_frame(reader)

        asyncio.run(run())


class _StalledWriter:
    """A stream writer whose close never completes until ``closed`` does."""

    def __init__(self) -> None:
        self.closed = asyncio.get_running_loop().create_future()
        self.closing = False

    def close(self) -> None:
        self.closing = True

    async def wait_closed(self) -> None:
        await self.closed


def test_rpc_aclose_after_a_cancelled_aclose():
    """A second ``aclose()`` returns although the first was cancelled
    while it waited for the close: a respawn cancelled mid-close is
    followed by the router's own ``aclose``."""

    async def run():
        writer = _StalledWriter()
        client = RpcClient(asyncio.StreamReader(), writer)
        first = asyncio.get_running_loop().create_task(client.aclose())
        await wait_until(lambda: writer.closing, interval=0, what="the first close")
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        await asyncio.wait_for(client.aclose(), 5)
        assert client.closed

    asyncio.run(run())


# -- the live router ----------------------------------------------------------


def _submissions():
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1)
    tweets = generate_tweets(["rio", "solaris"], per_movie=6, seed=SEED + 2)
    inputs = dict(tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6)
    return [
        ("acme", movie_query("rio", 0.85), inputs),
        ("globex", movie_query("solaris", 0.85), inputs),
    ]


def test_router_matches_in_process_bit_for_bit():
    """Each shard's outcomes are canonical-JSON-identical to rebuilding
    that shard's recipe (pool slice + derived seed) in this process and
    replaying the same submissions — the scale-out determinism contract."""
    from repro.cluster import ShardRouter
    from repro.cluster.worker import handle_snapshot
    from repro.cluster.workloads import bench
    from repro.engine.aio import AsyncSchedulerService

    async def run():
        remote: dict[str, list] = {}
        homes: dict[str, str] = {}
        async with ShardRouter(2, workload="bench", seed=SEED) as router:
            await router.register_tenant("acme", priority=2.0)
            await router.register_tenant("globex", priority=1.0)
            for tenant, query, inputs in _submissions():
                service = router.route(tenant)
                homes[tenant] = service.name
                handle = await service.submit(
                    "twitter-sentiment", query, tenant=tenant, **inputs
                )
                result = await handle.result(timeout=120)
                assert handle.state.value == "done"
                assert result is not None and "report" in result
            for name in router.shard_order:
                remote[name] = await router[name].outcomes()
            # Sanity: with equal weights the two demo tenants land on
            # different shards, so each shard saw exactly one query.
            assert sorted(homes.values()) == ["shard0", "shard1"]
        return remote, homes

    remote, homes = asyncio.run(run())

    async def replay(shard: str, tenant: str) -> list:
        config = {
            "seed": SEED,
            "shard": shard,
            "shards": ["shard0", "shard1"],
            "weights": {"shard0": 1.0, "shard1": 1.0},
            "pool_size": bench.default_pool_size,
        }
        service = AsyncSchedulerService(bench(config).service(max_in_flight=4))
        service.register_tenant(
            tenant, priority=2.0 if tenant == "acme" else 1.0
        )
        for sub_tenant, query, inputs in _submissions():
            if sub_tenant != tenant:
                continue
            # ``reserve=True`` mirrors the RPC submit default — the plan
            # is priced at admission time on both sides of the wire.
            handle = service.submit(
                "twitter-sentiment", query, tenant=tenant, reserve=True, **inputs
            )
            await handle.result(timeout=120)
        snapshots = [handle_snapshot(h) for h in service.handles]
        await service.aclose()
        return snapshots

    for tenant, shard in homes.items():
        local = asyncio.run(replay(shard, tenant))
        assert canonical_json(local) == canonical_json(remote[shard])


def _local_shard(shard: str, shards: list[str]):
    """The in-process twin of one router shard: the same ``bench``
    recipe (pool slice + derived seed) the worker builds."""
    from repro.cluster.workloads import bench

    config = {
        "seed": SEED,
        "shard": shard,
        "shards": shards,
        "weights": {name: 1.0 for name in shards},
        "pool_size": bench.default_pool_size,
    }
    return bench(config).service(max_in_flight=4)


#: The gateway contract both service flavours serve: per request, the
#: status and the payload's key set.
GATEWAY_CONTRACT = [
    ("explain", 200, {"service", "plan", "decision"}),
    ("poll", 200, {"id", "job", "subject", "tenant", "progress", "result"}),
    ("submit", 201, {"id", "job", "subject", "tenant", "progress", "plan"}),
    ("cancel", 200, {
        "id", "job", "subject", "tenant", "progress", "cancelled", "ledger",
    }),
    ("poll", 200, {"id", "job", "subject", "tenant", "progress"}),
    ("metrics", 200, {"gateway", "services"}),
    ("healthz", 200, {"status", "services"}),
    ("refused", 402, {"error", "message", "plan", "decision"}),
]
METRICS_ENTRY = {"steps_taken", "drains", "queries", "ledger", "journal"}


@pytest.mark.parametrize("flavour", ["mux", "router"])
def test_gateway_served_by_router(flavour):
    """One gateway contract for both service flavours: an in-process
    ``ServiceMux`` and a 2-shard ``ShardRouter`` answer explain, submit,
    poll, cancel, metrics, healthz and the 402 counter-offer with the same
    statuses and payload keys (remote metrics entries add ``alive``)."""
    from repro.cluster import ShardRouter
    from repro.engine.aio import AsyncSchedulerService, ServiceMux
    from repro.gateway.app import GatewayApp
    from repro.gateway.auth import TokenAuth
    from repro.gateway.testing import InProcessClient

    gold = generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1)
    tweets = generate_tweets(["rio"], per_movie=6, seed=SEED + 2)
    # Big enough that the DELETE lands while the query still runs.
    many = generate_tweets(["solaris"], per_movie=600, seed=SEED + 3)
    shards = ["shard0", "shard1"]
    homes = {
        tenant: assign_shard(tenant, {name: 1.0 for name in shards})
        for tenant in ("acme", "globex")
    }
    policies = {
        "acme": {"priority": 2.0},
        "globex": {"priority": 1.0, "budget_cap": 0.02},
    }

    def body(subject: str, preset: str) -> dict:
        return {
            "job": "twitter-sentiment",
            "query": {
                "keywords": [subject], "required_accuracy": 0.85,
                "domain": ["positive", "neutral", "negative"],
                "subject": subject,
            },
            "inputs": {"$preset": preset},
        }

    async def drive(app) -> list:
        transcript = []

        def record(step, response):
            transcript.append((step, response.status, set(response.json())))
            return response.json()

        client = InProcessClient(app, token="acme-token")
        record("explain", await client.post("/v1/explain", body("rio", "demo")))
        # Not recorded: whether this small query is already DONE (and
        # its 201 carries a result) is timing, remotely.
        submitted = await client.post("/v1/queries", body("rio", "demo"))
        assert submitted.status == 201
        query_id = submitted.json()["id"]
        assert query_id.startswith(homes["acme"])
        for _ in range(300):
            polled = await client.get(f"/v1/queries/{query_id}")
            if polled.json()["progress"]["state"] == "done":
                break
            await asyncio.sleep(0.05)
        record("poll", polled)

        doomed = record(
            "submit", await client.post("/v1/queries", body("solaris", "many"))
        )["id"]
        cancel = record("cancel", await client.delete(f"/v1/queries/{doomed}"))
        assert cancel["cancelled"] is True
        frozen = record("poll", await client.get(f"/v1/queries/{doomed}"))
        assert frozen["progress"] == cancel["progress"]
        assert frozen["progress"]["state"] == "cancelled"

        metrics = record("metrics", await client.get("/v1/metrics"))
        assert set(metrics["services"]) == set(shards)
        for entry in metrics["services"].values():
            assert set(entry) - {"alive"} == METRICS_ENTRY
            if flavour == "router":
                assert entry["alive"] is True
            else:
                assert "alive" not in entry
        entry = metrics["services"][homes["acme"]]
        assert entry["queries"] == {"done": 1, "cancelled": 1}
        assert entry["ledger"] == cancel["ledger"]
        assert entry["ledger"]["charged_assignments"] > 0
        assert entry["drains"] >= 1
        health = record("healthz", await client.get("/v1/healthz"))
        assert set(health["services"]) == set(shards)

        # The counter-offer crosses the seam: globex's cap refuses the
        # same submission with the full 402 payload.
        refused = record("refused", await InProcessClient(
            app, token="globex-token"
        ).post("/v1/queries", body("rio", "demo")))
        assert refused["error"] == "plan-infeasible"
        return transcript

    def gateway(mux, routes=None):
        return GatewayApp(
            mux,
            TokenAuth({"acme-token": "acme", "globex-token": "globex"}),
            routes=routes,
            presets={
                "demo": dict(
                    tweets=tweets, gold_tweets=gold,
                    worker_count=5, batch_size=6,
                ),
                "many": dict(
                    tweets=many, gold_tweets=gold,
                    worker_count=5, batch_size=6,
                ),
            },
        )

    async def run():
        if flavour == "router":
            async with ShardRouter(2, workload="bench", seed=SEED) as router:
                for tenant, policy in policies.items():
                    await router.register_tenant(tenant, **policy)
                return await drive(gateway(router))
        mux = ServiceMux()
        for name in shards:
            mux.add(name, AsyncSchedulerService(_local_shard(name, shards)))
        for tenant, policy in policies.items():
            mux[homes[tenant]].register_tenant(tenant, **policy)
        async with mux:
            return await drive(gateway(mux, routes=homes))

    assert asyncio.run(run()) == GATEWAY_CONTRACT


_PROGRESS_COUNTERS = ("items_answered", "items_finalized", "hits_completed", "spend")
_STATE_ORDER = ("queued", "running", "done")


def _monotone(snapshots: list[dict]) -> bool:
    """Each progress projection is at or past the one before it."""
    for before, after in zip(snapshots, snapshots[1:]):
        if _STATE_ORDER.index(after["state"]) < _STATE_ORDER.index(before["state"]):
            return False
        if any(after[key] < before[key] for key in _PROGRESS_COUNTERS):
            return False
    return True


@pytest.mark.parametrize("flavour", ["mux", "router"])
def test_gateway_polls_and_streams_current_progress(flavour):
    """Polls pull: a mid-run poll of a query nobody streams shows the
    shard's current progress, not the submit-time snapshot, and
    successive polls never go backwards; so does an idempotent replay of
    a submit.  An SSE stream (which makes the shard watch its query)
    opened mid-run starts from the current progress, is monotone and
    ends with a terminal frame equal to the final poll."""
    from repro.cluster import ShardRouter
    from repro.engine.aio import AsyncSchedulerService, ServiceMux
    from repro.gateway.app import GatewayApp
    from repro.gateway.auth import TokenAuth
    from repro.gateway.testing import InProcessClient, parse_sse

    gold = generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1)
    tweets = generate_tweets(["rio"], per_movie=480, seed=SEED + 2)
    shards = ["shard0", "shard1"]
    home = assign_shard("acme", {name: 1.0 for name in shards})
    body = {
        "job": "twitter-sentiment",
        "query": {
            "keywords": ["rio"], "required_accuracy": 0.85,
            "domain": ["positive", "neutral", "negative"], "subject": "rio",
        },
        "inputs": {"$preset": "big"},
    }

    async def drive(app):
        client = InProcessClient(app, token="acme-token")

        async def poll_to_done(query_id):
            polls = []
            for _ in range(2000):
                polled = (await client.get(f"/v1/queries/{query_id}")).json()
                polls.append(polled["progress"])
                if polled["progress"]["state"] == "done":
                    break
                await asyncio.sleep(0.005)
            assert polls[-1]["state"] == "done"
            return polls

        async def stepped(query_id, steps=3):
            """Wait until the query's shard has taken ``steps`` more steps,
            read past the query's handle (which a poll would refresh)."""
            service, _handle = app.resolve("acme", query_id)

            async def taken():
                await service.refresh()
                return service.steps_taken

            target = await taken() + steps

            async def reached():
                while await taken() < target:
                    await asyncio.sleep(0.005)

            await asyncio.wait_for(reached(), 30)

        submitted = await client.post("/v1/queries", body)
        assert submitted.status == 201
        query_id = submitted.json()["id"]
        polls = await poll_to_done(query_id)
        assert _monotone(polls)
        mid_run = [p for p in polls if p["state"] != "done"]
        assert any(p != submitted.json()["progress"] for p in mid_run)

        keyed = {"headers": {"Idempotency-Key": "rio-1"}}
        first = await client.post("/v1/queries", body, **keyed)
        assert first.status == 201
        await stepped(first.json()["id"])
        replayed = await client.post("/v1/queries", body, **keyed)
        assert replayed.status == 200
        assert replayed.json()["id"] == first.json()["id"]
        assert replayed.json()["progress"] != first.json()["progress"]
        await poll_to_done(first.json()["id"])

        streamed = await client.post("/v1/queries", body)
        stream_id = streamed.json()["id"]
        await stepped(stream_id)
        response = await client.get(f"/v1/queries/{stream_id}/events")
        frames = parse_sse(response.body)
        final = (await client.get(f"/v1/queries/{stream_id}")).json()
        return frames, final, streamed.json()["progress"]

    async def run():
        auth = TokenAuth({"acme-token": "acme"})
        presets = {
            "big": dict(
                tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6
            )
        }
        if flavour == "router":
            async with ShardRouter(2, workload="bench", seed=SEED) as router:
                await router.register_tenant("acme")
                return await drive(GatewayApp(router, auth, presets=presets))
        mux = ServiceMux()
        for name in shards:
            mux.add(name, AsyncSchedulerService(_local_shard(name, shards)))
        mux[home].register_tenant("acme")
        async with mux:
            return await drive(
                GatewayApp(mux, auth, routes={"acme": home}, presets=presets)
            )

    frames, final, submit_time = asyncio.run(run())
    events = [event for event, _data in frames if event is not None]
    assert events[-1] == "end" and set(events[:-1]) == {"progress"}
    streamed = [data for event, data in frames if event == "progress"]
    assert streamed[0] != submit_time
    end = frames[-1][1]["progress"]
    assert _monotone(streamed + [end])
    assert end["state"] == "done"
    assert end == final["progress"]


class _InLoopWorker:
    """A stand-in for the router's worker launch (``_fork_worker``): runs
    the worker's main coroutine on the shard's end of its socketpair as
    a task on the running loop, so a test can read the shard's own
    objects while the router talks to it over a real socket."""

    def __init__(self, sock, shard: str) -> None:
        import os

        from repro.cluster import worker

        self.task = asyncio.get_running_loop().create_task(
            worker._amain(sock, shard)
        )
        self.pid = os.getpid()

    def poll(self):
        return 0 if self.task.done() else None

    async def wait(self, timeout):
        await asyncio.wait({self.task}, timeout=timeout)
        return self.poll()

    def send_signal(self, sig):
        self.task.cancel()


def test_router_metrics_are_the_shards_own(monkeypatch):
    """A ``/v1/metrics`` read through a router is the shard's own
    ``metrics_snapshot()`` at read time, plus ``alive``: once a poll
    reports the last submitted query running, no query reads ``queued``,
    although nobody polled the first two (their handle caches hold the
    submit-time state)."""
    import gc

    import repro.cluster.router as router_module
    from repro.cluster import ShardRouter
    from repro.engine.aio import AsyncSchedulerService
    from repro.gateway.app import GatewayApp
    from repro.gateway.auth import TokenAuth
    from repro.gateway.testing import InProcessClient

    built = []
    builder = AsyncSchedulerService.metrics_snapshot

    def recorded(service):
        snapshot = builder(service)
        built.append(dict(snapshot))  # the worker adds ``idle`` to its own
        return snapshot

    monkeypatch.setattr(router_module, "_fork_worker", _InLoopWorker)
    monkeypatch.setattr(AsyncSchedulerService, "metrics_snapshot", recorded)
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1)
    many = generate_tweets(["rio"], per_movie=600, seed=SEED + 2)
    body = {
        "job": "twitter-sentiment",
        "query": {
            "keywords": ["rio"], "required_accuracy": 0.85,
            "domain": ["positive", "neutral", "negative"], "subject": "rio",
        },
        "inputs": {"$preset": "many"},
    }

    async def run():
        async with ShardRouter(1, workload="bench", seed=SEED) as router:
            await router.register_tenant("acme")
            app = GatewayApp(
                router, TokenAuth({"acme-token": "acme"}),
                presets={"many": dict(
                    tweets=many, gold_tweets=gold, worker_count=5, batch_size=6,
                )},
            )
            client = InProcessClient(app, token="acme-token")
            ids = [
                (await client.post("/v1/queries", body)).json()["id"]
                for _ in range(3)
            ]
            for _ in range(2000):
                polled = (await client.get(f"/v1/queries/{ids[-1]}")).json()
                if polled["progress"]["state"] == "running":
                    break
                await asyncio.sleep(0.005)
            assert polled["progress"]["state"] == "running"
            before = len(built)
            metrics = (await client.get("/v1/metrics")).json()
            health = (await client.get("/v1/healthz")).json()
            return metrics["services"]["shard0"], built[before:], health

    entry, built_since, health = asyncio.run(run())
    # The in-loop shard's world is cyclic garbage now: free it here, not
    # in a GC pause inside a later test's timing window.
    gc.collect()
    assert "queued" not in entry["queries"]
    assert sum(entry["queries"].values()) == 3
    # The first entry the shard built after the poll is the one served.
    assert built_since and entry == {**built_since[0], "alive": True}
    assert health["services"]["shard0"] == {"queries": 3, "idle": False}


def _plain_submit(service, **kwargs):
    _, query, inputs = _submissions()[0]
    return service.submit(
        "twitter-sentiment", query, tenant="acme", reserve=False,
        **inputs, **kwargs,
    )


def test_router_tenant_redeclaration_reaches_shard():
    """A redeclared cap reaches the shard: lowering acme's cap to zero
    refuses its next submit over the RPC exactly as in-process
    (committed ≤ cap at the declared cap), and raising it again admits."""
    from repro.cluster import ShardRouter
    from repro.engine.service import AdmissionRejected

    local = _local_shard("shard0", ["shard0"])
    local.register_tenant("acme", budget_cap=5.0)
    local.register_tenant("acme", budget_cap=0.0)
    with pytest.raises(AdmissionRejected):
        _plain_submit(local)

    async def run():
        async with ShardRouter(1, workload="bench", seed=SEED) as router:
            await router.register_tenant("acme", budget_cap=5.0)
            await router.register_tenant("acme", budget_cap=0.0)
            with pytest.raises(AdmissionRejected):
                await _plain_submit(router["shard0"])
            await router.register_tenant("acme", budget_cap=5.0)
            handle = await _plain_submit(router["shard0"])
            await handle.result(timeout=120)
            assert handle.state.value == "done"

    asyncio.run(run())


def test_router_rejects_invalid_tenant():
    """An invalid cap or priority raises ``ValueError`` over the RPC, as
    in-process, instead of being swallowed by the worker; a refused
    redeclaration leaves the last good registration in force.  The
    router refuses before its record changes; the shard service sends
    the registration and rebuilds the worker's ``bad-request``."""
    from repro.cluster import ShardRouter
    from repro.engine.service import AdmissionRejected

    invalid = ({"priority": 0.0}, {"budget_cap": -1.0})
    local = _local_shard("shard0", ["shard0"])
    for bad in invalid:
        with pytest.raises(ValueError):
            local.register_tenant("bad", **bad)

    async def run():
        async with ShardRouter(1, workload="bench", seed=SEED) as router:
            await router.register_tenant("acme", budget_cap=0.0)
            for bad in invalid:
                with pytest.raises(ValueError):
                    await router.register_tenant("bad", **bad)
                with pytest.raises(ValueError):
                    await router.register_tenant("acme", **bad)
                with pytest.raises(ValueError):
                    await router["shard0"].register_tenant("bad", **bad)
            # Still the zero cap, not a re-sent invalid record.
            with pytest.raises(AdmissionRejected):
                await _plain_submit(router["shard0"])

    asyncio.run(run())


def test_router_weight_rebalance_rehomes_tenant():
    """set_tenant_weight deterministically recomputes the home shard;
    some weight moves the tenant, and the move is stable."""
    from repro.cluster import ShardRouter

    router = ShardRouter(4, workload="bench", seed=SEED)  # never started:
    # placement is pure math over the shard table, no processes needed.
    baseline = router.route("tenant-x").name
    moved_weight = None
    for weight in (2.0, 3.0, 4.0, 5.0, 7.0):
        if router.set_tenant_weight("tenant-x", weight) != baseline:
            moved_weight = weight
            break
    assert moved_weight is not None
    assert router.set_tenant_weight("tenant-x", moved_weight) != baseline
    router.set_tenant_weight("tenant-x", 1.0)
    assert router.route("tenant-x").name == baseline


# -- one shard worker, in process ---------------------------------------------


def _worker_submission(query, inputs):
    from repro.durability import codec as dcodec

    return {
        "job": "twitter-sentiment",
        "query": dcodec.encode(query),
        "inputs": {key: dcodec.encode(value) for key, value in inputs.items()},
        "tenant": "default",
    }


def _small_inputs(seed: int = SEED + 3) -> dict:
    return dict(
        tweets=generate_tweets(["rio"], per_movie=4, seed=seed),
        gold_tweets=generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1),
        worker_count=3,
        batch_size=4,
    )


def test_worker_pump_streams_the_first_step():
    """A watched query's ``progress`` frames are exactly what a
    subscriber primed before the driver's first step receives: a watch
    made right after the submit subscribes before the driver the submit
    started can step."""
    from repro.cluster.worker import _Worker
    from repro.cluster.workloads import bench
    from repro.engine.aio import AsyncSchedulerService
    from repro.engine.service import TERMINAL_STATES

    query = movie_query("rio", 0.85)
    inputs = _small_inputs()

    async def worker_frames():
        outbox: asyncio.Queue = asyncio.Queue()
        worker = _Worker("s0", outbox)
        worker.init({"workload": "bench", "config": {"seed": SEED}})
        worker.submit(_worker_submission(query, inputs))
        worker.watch({"seq": 0})
        frames = []

        async def to_terminal():
            while not frames or frames[-1]["event"] != "terminal":
                frame = await outbox.get()
                if frame.get("seq") == 0 and frame["event"] != "snapshot":
                    frames.append(frame)

        await asyncio.wait_for(to_terminal(), 30)
        await worker.aclose()
        return frames

    async def primed_snapshots():
        cdas = bench({"seed": SEED, "pool_size": bench.default_pool_size})
        service = AsyncSchedulerService(cdas.service(max_in_flight=4), name="s0")
        handle = service.submit("twitter-sentiment", query, tenant="default", **inputs)
        queue = handle.subscribe()
        snapshots = []

        async def to_terminal():
            snapshots.append(await queue.get())
            while snapshots[-1].state not in TERMINAL_STATES:
                snapshots.append(await queue.get())

        await asyncio.wait_for(to_terminal(), 30)
        await service.aclose()
        return snapshots

    frames = asyncio.run(worker_frames())
    snapshots = asyncio.run(primed_snapshots())
    assert len(snapshots) > 2
    assert [f["event"] for f in frames] == ["progress"] * (len(frames) - 1) + [
        "terminal"
    ]
    assert [f["progress"] for f in frames[:-1]] == [
        s.to_dict() for s in snapshots[:-1]
    ]
    assert frames[-1]["snapshot"]["progress"] == snapshots[-1].to_dict()


def test_shard_stats_never_read_finished_queries():
    """With 200 finished queries on a shard, its stats (the metrics entry
    and ``idle``) read none of their handles: each was counted once, when
    the driver dropped it from the live list."""
    from repro.cluster.worker import _Worker
    from repro.engine.aio import AsyncQueryHandle, state_counts

    class Finished(AsyncQueryHandle):
        def _untouchable(self):
            raise AssertionError("a finished handle was read")

        state = done = stranded = property(_untouchable)

    async def run():
        outbox: asyncio.Queue = asyncio.Queue()
        worker = _Worker("s0", outbox)
        worker.init({"workload": "bench", "config": {"seed": SEED}})
        params = _worker_submission(movie_query("rio", 0.85), _small_inputs())
        for seq in range(200):
            worker.submit(params)
            if seq % 7 == 3:
                await worker.cancel({"seq": seq})
        await asyncio.wait_for(worker.service.wait_idle(), 60)
        # Every query, cancelled ones too, sent its terminal frame as the
        # driver dropped it from the live list.
        terminal = [f["seq"] for f in _drain(outbox) if f["event"] == "terminal"]
        assert sorted(terminal) == list(range(200))
        service = worker.service
        expected = state_counts(service.handles)
        assert set(expected) == {"done", "cancelled"}
        for handle in service.handles:
            handle.__class__ = Finished
        stats = worker.stats()
        assert stats["queries"] == expected
        assert stats["idle"] is True
        assert service.metrics_snapshot()["queries"] == expected
        await worker.aclose()

    asyncio.run(run())


def test_unwatched_shard_query_sends_only_its_terminal_frame(monkeypatch):
    """Nobody watches: after the submit's ``snapshot`` event the shard
    sends one frame for the query, the ``terminal`` one, and its driver
    builds a progress snapshot only for that frame."""
    from repro.cluster.worker import _Worker
    from repro.engine.service import QueryHandle

    calls = []
    progress = QueryHandle.progress

    def counted(handle):
        calls.append(handle.seq)
        return progress(handle)

    async def run():
        outbox: asyncio.Queue = asyncio.Queue()
        worker = _Worker("s0", outbox)
        worker.init({"workload": "bench", "config": {"seed": SEED}})
        worker.submit(_worker_submission(movie_query("rio", 0.85), _small_inputs()))
        monkeypatch.setattr(QueryHandle, "progress", counted)
        await asyncio.wait_for(worker.service.wait_idle(), 60)
        steps = worker.service.steps_taken
        frames = []
        while not outbox.empty():
            frame = outbox.get_nowait()
            if "seq" in frame:
                frames.append(frame)
        await worker.aclose()
        return frames, steps

    frames, steps = asyncio.run(run())
    assert steps > 2
    assert [(f["event"], f["seq"]) for f in frames] == [
        ("snapshot", 0), ("terminal", 0)
    ]
    assert frames[-1]["snapshot"]["progress"]["state"] == "done"
    assert calls == [0]


def test_unwatch_stops_progress_frames_and_rewatch_primes():
    """``unwatch`` ends the progress frames while the query keeps running;
    a second ``watch`` posts the query's current snapshot ahead of its
    reply and the frames resume from there."""
    from repro.cluster.worker import _Worker, handle_snapshot

    inputs = _small_inputs()
    inputs["tweets"] = generate_tweets(["rio"], per_movie=60, seed=SEED + 3)

    async def run():
        outbox: asyncio.Queue = asyncio.Queue()
        worker = _Worker("s0", outbox)
        worker.init({"workload": "bench", "config": {"seed": SEED}})
        worker.submit(_worker_submission(movie_query("rio", 0.85), inputs))
        _drain(outbox)  # the submit's snapshot event
        ahandle = worker.service.handle_for(0)
        assert worker.watch({"seq": 0}) == {"ok": True}
        first = _snapshot_event(outbox)
        watched = []

        async def three_watched():
            while len(watched) < 3:
                frame = await outbox.get()
                if frame.get("seq") == 0:
                    watched.append(frame)

        await asyncio.wait_for(three_watched(), 30)
        worker.unwatch({"seq": 0})
        while not outbox.empty():  # what the unwatch flushed
            watched.append(outbox.get_nowait())
        assert not ahandle._queues
        steps = worker.service.steps_taken
        await wait_until(
            lambda: worker.service.steps_taken >= steps + 5,
            interval=0,
            what="five more steps",
        )
        quiet = [f for f in _drain(outbox) if f.get("seq") == 0]
        assert not ahandle.done
        worker.watch({"seq": 0})
        second = _snapshot_event(outbox)
        current = handle_snapshot(ahandle)
        resumed = []

        async def to_terminal():
            while not resumed or resumed[-1]["event"] != "terminal":
                frame = await outbox.get()
                if frame.get("seq") == 0:
                    resumed.append(frame)

        await asyncio.wait_for(to_terminal(), 30)
        await worker.aclose()
        return first, watched, quiet, second, current, resumed

    first, watched, quiet, second, current, resumed = asyncio.run(run())
    assert {f["event"] for f in watched} == {"progress"}
    assert quiet == []
    assert second["snapshot"] == current
    primed = second["snapshot"]["progress"]
    assert primed != first["snapshot"]["progress"]
    assert primed["items_answered"] >= watched[-1]["progress"]["items_answered"]
    assert [f["event"] for f in resumed][-1] == "terminal"
    assert all(f["event"] == "progress" for f in resumed[:-1])
    assert all(f["progress"] != primed for f in resumed[:-1])


def _drain(outbox: asyncio.Queue) -> list:
    frames = []
    while not outbox.empty():
        frames.append(outbox.get_nowait())
    return frames


def _snapshot_event(outbox: asyncio.Queue) -> dict:
    """The ``snapshot`` event a ``watch`` just posted: the last frame in
    the outbox."""
    frames = _drain(outbox)
    assert frames[-1]["event"] == "snapshot"
    return frames[-1]


# -- the router's event order, over a scripted connection ---------------------


def _wire_snapshot(seq: int, state: str, **extra) -> dict:
    progress = {
        "state": state, "items_answered": 0, "items_finalized": 0,
        "hits_completed": 0, "hits_in_flight": 0, "accuracy_estimate": None,
        "spend": 0.0, "budget_exhausted": False,
    }
    return {
        "seq": seq, "job": "twitter-sentiment", "tenant": "acme",
        "subject": "rio", "progress": progress, "plan": None, **extra,
    }


def _wire_stats(steps: int) -> dict:
    return {
        "steps_taken": steps, "drains": 0, "queries": {"running": 1},
        "ledger": {"charged_assignments": steps}, "journal": None, "idle": False,
    }


class _ScriptedShard:
    """The worker's end of an RPC connection, scripted: each request the
    router writes is answered by feeding the next scripted frames, back
    to back, with the request's id on the reply (``"id": None``)."""

    def __init__(self, reader: asyncio.StreamReader, script: list) -> None:
        self.reader = reader
        self.script = script

    def write(self, data: bytes) -> None:
        import json

        call_id = json.loads(data[4:])["id"]
        for frame in self.script.pop(0):
            if "id" in frame:
                frame = {**frame, "id": call_id}
            self.reader.feed_data(encode_frame(frame))

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _scripted_service(script: list):
    from repro.cluster import ShardRouter
    from repro.cluster.rpc import RpcClient

    service = ShardRouter(1)["shard0"]  # never started: no process
    reader = asyncio.StreamReader()
    service.rpc = RpcClient(
        reader, _ScriptedShard(reader, script), on_event=service._handle_event
    )
    service.alive = True
    return service


def test_submit_returns_a_handle_its_events_already_finished():
    """A fast shard writes a submit's snapshot event, the reply and the
    query's terminal event back to back: ``submit()`` returns the handle
    the snapshot adopted, already terminal, carrying the caller's query."""
    _, query, inputs = _submissions()[0]
    summary = {"report": {"subject": "rio"}}

    async def run():
        service = _scripted_service([[
            {"event": "snapshot", "seq": 0, "snapshot": _wire_snapshot(0, "queued")},
            {"id": None, "result": {"seq": 0}},
            {"event": "terminal", "seq": 0,
             "snapshot": _wire_snapshot(0, "done", result=summary),
             "stats": _wire_stats(9)},
        ]])
        handle = await service.submit(
            "twitter-sentiment", query, tenant="acme", **inputs
        )
        assert handle.done and handle.state.value == "done"
        assert handle.query is query
        assert await handle.result(timeout=1) == summary
        assert service.steps_taken == 9
        await service.rpc.aclose()

    asyncio.run(run())


def test_cancel_keeps_the_stats_that_follow_its_reply():
    """Events apply in wire order: with ``[stats A, cancel reply, stats
    B]`` on the wire, the router holds B after ``cancel()`` returns — the
    reply carries no state that could land over it."""
    stats_a, stats_b = _wire_stats(5), _wire_stats(7)

    async def run():
        service = _scripted_service([[
            {"event": "snapshot", "seq": 0, "snapshot": _wire_snapshot(0, "cancelled")},
            {"event": "stats", "stats": stats_a},
            {"id": None, "result": {"cancelled": True}},
            {"event": "stats", "stats": stats_b},
        ]])
        service._handle_event(
            {"event": "snapshot", "seq": 0, "snapshot": _wire_snapshot(0, "running")}
        )
        handle = service.handle_for(0)
        assert await handle.cancel() is True
        assert handle.state.value == "cancelled"
        assert service.metrics_snapshot() == {
            **{k: v for k, v in stats_b.items() if k != "idle"}, "alive": True
        }
        await service.rpc.aclose()

    asyncio.run(run())
