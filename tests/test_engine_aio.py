"""Tests for the async-native service front door (DESIGN.md §8).

Covers awaitable result/timeout/cancel semantics, progress streaming,
bit-identical equivalence of concurrent gathers to sequential blocking
runs, ServiceMux fairness, the sleep-not-spin guarantee on a
wall-clock-delaying backend, and watched-only publishing: every
subscriber sees what a publish-everything driver would send, while
unwatched queries cost the driver no progress walk.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.slow import SlowBackend
from repro.cluster.router import RemoteQueryHandle, RemoteShardService
from repro.cluster.worker import handle_snapshot
from repro.engine.aio import (
    AsyncHandleBase,
    AsyncQueryHandle,
    AsyncSchedulerService,
    ServiceMux,
)
from repro.engine.service import (
    TERMINAL_STATES,
    QueryCancelled,
    QueryHandle,
    QueryState,
)
from repro.gateway.sse import stream_updates
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

#: Wall-clock delay of the SlowBackend tests (long enough to observe
#: waiting, short enough to keep the suite fast).
DELAY = 0.02


def _cdas(seed: int, slow: float | None = None) -> CDAS:
    pool = WorkerPool.from_config(PoolConfig(size=120), seed=7)
    market = SimulatedMarket(pool, seed=seed)
    if slow is not None:
        market = SlowBackend(market, delay=slow)
    return CDAS.with_default_jobs(market, seed=seed)


def _tsa_inputs(movies=("alpha", "beta"), per_movie=12, seed=5, workers=5):
    tweets = generate_tweets(list(movies), per_movie=per_movie, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=10, seed=seed + 1)
    return {
        "tweets": tweets,
        "gold_tweets": gold,
        "worker_count": workers,
        "batch_size": 6,
    }


class TestAwaitResult:
    def test_await_result_matches_blocking_run(self):
        """One query awaited on the loop == the same query run blocking."""
        sync_service = _cdas(41).service(max_in_flight=2)
        sync_handle = sync_service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
        )
        reference = sync_handle.result()

        async def run():
            async with _cdas(41).async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(),
                )
                assert not handle.done  # awaitable, not already run
                return await handle.result()

        assert asyncio.run(run()) == reference

    def test_submit_outside_loop_awaited_inside(self):
        """submit() needs no running loop; the driver starts on first await."""
        service = _cdas(41).async_service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
        )
        assert handle.state is QueryState.QUEUED

        async def run():
            async with service:
                return await handle.result()

        result = asyncio.run(run())
        assert handle.state is QueryState.DONE
        assert len(result.records) == 12

    def test_invalid_submission_raises_synchronously(self):
        service = _cdas(41).async_service()
        with pytest.raises(KeyError):
            service.submit("no-such-job", movie_query("alpha", 0.9))
        with pytest.raises(ValueError):
            service.submit(
                "twitter-sentiment", movie_query("alpha", 0.9)
            )  # missing gold_tweets

    def test_timeout_raises_without_losing_the_query(self):
        async def run():
            cdas = _cdas(42, slow=DELAY)
            async with cdas.async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(),
                )
                with pytest.raises(TimeoutError):
                    await handle.result(timeout=DELAY / 2)
                # Not terminal, not cancelled — the query kept running...
                assert not handle.done
                # ...and a later await completes it normally.
                result = await handle.result()
                assert handle.state is QueryState.DONE
                return result

        assert len(asyncio.run(run()).records) == 12

    def test_cancel_while_awaited(self):
        async def run():
            cdas = _cdas(43, slow=DELAY)
            async with cdas.async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(),
                )
                waiter = asyncio.create_task(handle.result())
                await asyncio.sleep(DELAY)  # let some HITs publish
                assert await handle.cancel()
                with pytest.raises(QueryCancelled):
                    await waiter
                assert handle.state is QueryState.CANCELLED
                spend_at_cancel = handle.spend
                # Cancelling again is a no-op; spend stays frozen.
                assert not await handle.cancel()
                return spend_at_cancel, handle.spend

        frozen, after = asyncio.run(run())
        assert frozen == after


class TestGatherEquivalence:
    """Two services × three tenants on one loop == sequential blocking."""

    def _submissions(self):
        it_inputs = {
            "images": generate_images(per_subject=1, seed=9)[:3],
            "gold_images": generate_images(per_subject=1, seed=10),
            "worker_count": 5,
        }
        return [
            # (service key, job, query, tenant, inputs)
            ("svc-a", "twitter-sentiment", movie_query("alpha", 0.9),
             "tenant1", _tsa_inputs()),
            ("svc-a", "twitter-sentiment", movie_query("beta", 0.9),
             "tenant2", _tsa_inputs()),
            ("svc-b", "image-tagging", movie_query("images", 0.9),
             "tenant3", it_inputs),
        ]

    def _sequential_blocking(self):
        """The PR-2 API: per-service blocking services, pumped to idle."""
        results = {}
        for key, seed in (("svc-a", 50), ("svc-b", 51)):
            service = _cdas(seed).service(max_in_flight=2)
            handles = [
                (i, service.submit(job, query, tenant=tenant, **inputs))
                for i, (k, job, query, tenant, inputs) in enumerate(
                    self._submissions()
                )
                if k == key
            ]
            service.run_until_idle()
            for i, handle in handles:
                results[i] = handle.result()
        return [results[i] for i in sorted(results)]

    def test_gather_bit_identical_to_sequential(self):
        reference = self._sequential_blocking()

        async def run():
            mux = ServiceMux()
            mux.add("svc-a", _cdas(50).async_service(max_in_flight=2))
            mux.add("svc-b", _cdas(51).async_service(max_in_flight=2))
            handles = [
                mux.submit(key, job, query, tenant=tenant, **inputs)
                for key, job, query, tenant, inputs in self._submissions()
            ]
            async with mux:
                return await mux.gather(*handles)

        concurrent = asyncio.run(run())
        assert concurrent == reference

    def test_gather_is_repeatable(self):
        async def run():
            mux = ServiceMux()
            mux.add("svc-a", _cdas(50).async_service(max_in_flight=2))
            mux.add("svc-b", _cdas(51).async_service(max_in_flight=2))
            handles = [
                mux.submit(key, job, query, tenant=tenant, **inputs)
                for key, job, query, tenant, inputs in self._submissions()
            ]
            async with mux:
                return await mux.gather(*handles)

        assert asyncio.run(run()) == asyncio.run(run())


class TestSleepNotSpin:
    def test_driver_sleeps_through_dormant_spells(self):
        """Bounded step() count on a slow backend: waits are awaited."""

        async def run():
            cdas = _cdas(44, slow=DELAY)
            async with cdas.async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(workers=3),
                )
                result = await handle.result()
                return result, service.steps_taken

        result, steps = asyncio.run(run())
        assert len(result.records) == 12
        # 2 batches × 3 workers = 6 submission events.  A driver that
        # spun during the ~6 × DELAY of dormancy would take thousands of
        # steps; a sleeping one takes a few per event (grants, seals).
        assert steps <= 8 * 6

    def test_updates_stream_monotone_to_terminal(self):
        async def run():
            async with _cdas(45).async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(),
                )
                return [s async for s in handle.updates()]

        snapshots = asyncio.run(run())
        assert len(snapshots) > 1
        assert snapshots[-1].state is QueryState.DONE
        # Changed snapshots only, counters monotone.
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert earlier != later
            assert earlier.items_answered <= later.items_answered
            assert earlier.items_finalized <= later.items_finalized
            assert earlier.spend <= later.spend

    def test_updates_on_terminal_handle_yields_final_snapshot(self):
        async def run():
            async with _cdas(45).async_service(max_in_flight=2) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    **_tsa_inputs(),
                )
                await handle.result()
                return [s async for s in handle.updates()]

        snapshots = asyncio.run(run())
        assert len(snapshots) == 1
        assert snapshots[0].state is QueryState.DONE


class TestServiceMux:
    def test_duplicate_name_rejected(self):
        mux = ServiceMux()
        mux.add("svc", _cdas(46).async_service())
        with pytest.raises(ValueError):
            mux.add("svc", _cdas(47).async_service())

    def test_wraps_plain_scheduler_service(self):
        mux = ServiceMux()
        wrapped = mux.add("svc", _cdas(46).service())
        assert isinstance(wrapped, AsyncSchedulerService)
        assert wrapped.name == "svc"
        assert mux["svc"] is wrapped and len(mux) == 1

    def test_fair_interleaving_on_one_loop(self):
        """Neither service monopolises the loop: productive steps from
        both appear throughout the shared prefix of the step log."""

        async def run():
            mux = ServiceMux()
            a = mux.add("a", _cdas(50).async_service(max_in_flight=2))
            b = mux.add("b", _cdas(51).async_service(max_in_flight=2))
            h1 = a.submit(
                "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
            )
            h2 = b.submit(
                "twitter-sentiment", movie_query("beta", 0.9), **_tsa_inputs()
            )
            async with mux:
                await mux.gather(h1, h2)
            return mux.step_log

        log = asyncio.run(run())
        prefix = log[:20]
        assert prefix.count("a") >= 8 and prefix.count("b") >= 8

    def test_run_until_idle_and_driver_restart(self):
        async def run():
            service = _cdas(48).async_service(max_in_flight=2)
            first = service.submit(
                "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
            )
            await service.wait_idle()
            assert first.done
            # The driver exited on drain; a new submission restarts it.
            second = service.submit(
                "twitter-sentiment", movie_query("beta", 0.9), **_tsa_inputs()
            )
            result = await second.result()
            await service.aclose()
            return first.state, second.state, len(result.records)

        first_state, second_state, records = asyncio.run(run())
        assert first_state is QueryState.DONE
        assert second_state is QueryState.DONE
        assert records == 12

    def test_mux_run_until_idle(self):
        async def run():
            mux = ServiceMux()
            a = mux.add("a", _cdas(50).async_service(max_in_flight=2))
            handle = a.submit(
                "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
            )
            async with mux:
                await mux.run_until_idle()
                assert handle.done
                return await handle.result()

        assert len(asyncio.run(run()).records) == 12


class TestUpdateFanout:
    """Bounded-queue fan-out: slow, abandoned and tiny-buffer consumers
    never grow memory without bound and never stall the driver — the
    contract the gateway's SSE endpoint leans on (DESIGN.md §13).

    :class:`TestRemoteUpdateFanout` reruns every test on a remote handle
    by overriding the two hooks below."""

    @contextlib.asynccontextmanager
    async def _query(self, seed: int):
        """A freshly submitted TSA query's handle: the local async one."""
        async with _cdas(seed).async_service(max_in_flight=2) as service:
            yield service.submit(
                "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
            )

    @staticmethod
    def _verdicts(result) -> int:
        return len(result.records)

    def test_abandoned_subscriber_queue_stays_bounded(self):
        """Subscribe, never consume: the driver finishes anyway and the
        unread queue holds at most ``max_pending`` snapshots, the last
        of them terminal."""

        async def run():
            async with self._query(60) as handle:
                queue = handle.subscribe(max_pending=2)
                result = await handle.result()
                pending = []
                while not queue.empty():
                    pending.append(queue.get_nowait())
                handle.unsubscribe(queue)
                return result, pending

        result, pending = asyncio.run(run())
        assert self._verdicts(result) == 12
        assert 1 <= len(pending) <= 2
        # Eviction drops the *oldest*: the terminal snapshot survives.
        assert pending[-1].state is QueryState.DONE

    def test_slow_consumer_stream_coalesces_but_reaches_terminal(self):
        """A consumer that yields to the driver between reads with a
        one-slot buffer observes a coalesced but monotone stream whose
        final snapshot is terminal."""

        async def run():
            async with self._query(60) as handle:
                snapshots = []
                async for snapshot in handle.updates(max_pending=1):
                    snapshots.append(snapshot)
                    # Let the driver publish several times per read.
                    for _ in range(20):
                        await asyncio.sleep(0)
                return snapshots

        snapshots = asyncio.run(run())
        assert snapshots[-1].state is QueryState.DONE
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert earlier.items_answered <= later.items_answered
            assert earlier.spend <= later.spend

    def test_multiple_consumers_one_slow_one_fast(self):
        """The slow consumer's full queue never blocks publication to
        the fast one; both streams end on the same terminal snapshot."""

        async def run():
            async with self._query(61) as handle:

                async def fast():
                    return [s async for s in handle.updates()]

                async def slow():
                    collected = []
                    async for snapshot in handle.updates(max_pending=1):
                        collected.append(snapshot)
                        for _ in range(50):
                            await asyncio.sleep(0)
                    return collected

                return await asyncio.gather(fast(), slow())

        fast_stream, slow_stream = asyncio.run(run())
        assert fast_stream[-1].state is QueryState.DONE
        assert slow_stream[-1].state is QueryState.DONE
        assert fast_stream[-1] == slow_stream[-1]
        # Coalescing means the slow stream saw at most as much.
        assert len(slow_stream) <= len(fast_stream)

    def test_mid_stream_unsubscribe_does_not_stall_the_driver(self):
        """Walking away after one snapshot (the SSE disconnect path)
        leaves the query running to completion."""

        async def run():
            async with self._query(62) as handle:
                queue = handle.subscribe(max_pending=1)
                await queue.get()
                handle.unsubscribe(queue)
                handle.unsubscribe(queue)  # idempotent
                result = await handle.result()
                return result, len(handle._queues)

        result, open_queues = asyncio.run(run())
        assert self._verdicts(result) == 12
        assert open_queues == 0

    def test_subscribe_rejects_non_positive_bounds(self):
        async def run():
            async with self._query(63) as handle:
                with pytest.raises(ValueError):
                    handle.subscribe(max_pending=0)
                with pytest.raises(ValueError):
                    _ = [s async for s in handle.updates(max_pending=-1)]
                await handle.result()

        asyncio.run(run())


async def _forward(local, remote) -> None:
    """What a shard worker's pump does, minus the socket: each changed
    snapshot becomes a ``progress`` frame, the terminal one a full
    handle snapshot."""
    queue = local.subscribe()
    try:
        while True:
            snapshot = await queue.get()
            if snapshot.state in TERMINAL_STATES or local.stranded is not None:
                remote._absorb(handle_snapshot(local))
                return
            remote._apply(snapshot.to_dict())
    finally:
        local.unsubscribe(queue)


class TestRemoteUpdateFanout(TestUpdateFanout):
    """The same fan-out contract on a :class:`RemoteQueryHandle` — the
    router-side cache fed by pushed frames — built in process from a
    local query, with no subprocess or socket."""

    @contextlib.asynccontextmanager
    async def _query(self, seed: int):
        async with super()._query(seed) as local:
            remote = RemoteQueryHandle(
                RemoteShardService(None, "s0"), handle_snapshot(local)
            )
            forward = asyncio.get_running_loop().create_task(_forward(local, remote))
            try:
                yield remote
            finally:
                await forward

    @staticmethod
    def _verdicts(result) -> int:
        return len(result["verdicts"])


# -- watched-only publishing ---------------------------------------------------


class _PublishEveryHandle(AsyncQueryHandle):
    """The reference publish: a progress walk on every call, watched or
    not, deduplicated against the last snapshot taken."""

    subscribe = AsyncHandleBase.subscribe

    def _publish(self) -> None:
        if self._terminal.is_set():
            return
        snapshot = self.handle.progress()
        if snapshot != self._last_published:
            self._last_published = snapshot
            self._push(snapshot)
        if self.handle.done:
            self._terminal.set()


class _PublishEveryDriver(AsyncSchedulerService):
    """The reference driver: after every step it publishes every handle
    it ever issued."""

    def _add(self, handle):
        ahandle = super()._add(handle)
        ahandle.__class__ = _PublishEveryHandle
        return ahandle

    def _notify(self) -> None:
        for handle in self._handles:
            handle._publish()


async def _drain_raw(handle, queue, out: list) -> None:
    """A shard forwarder's loop: every queued snapshot, undeduplicated,
    up to the terminal one."""
    try:
        while True:
            snapshot = await queue.get()
            out.append(snapshot)
            if snapshot.state in TERMINAL_STATES or handle.stranded is not None:
                return
    finally:
        handle.unsubscribe(queue)


async def _pump_when_scheduled(handle, out: list) -> None:
    """Subscribes when the task first runs — after the driver's first
    step, as a forwarder subscribing in its own task would."""
    await _drain_raw(handle, handle.subscribe(), out)


async def _consume(stream, out: list) -> None:
    async for snapshot in stream:
        out.append(snapshot)


async def _sse(handle, out: list) -> None:
    never = asyncio.Event()

    async def receive():
        await never.wait()

    async def send(message):
        if message["type"] == "http.response.body":
            out.append(message["body"])

    await stream_updates(handle, send, receive, heartbeat=3600.0)


#: Driver steps after which the mid-run consumers join, and the step
#: after which ``gamma`` is cancelled.
JOIN_AT = 12
CANCEL_AT = 30


def _watched_run(driver_cls) -> tuple[dict, dict, int]:
    """Four queries under different watchers; ``gamma`` is cancelled
    mid-run.  Returns every consumer's stream, the outcomes and the
    number of driver steps.

    * ``alpha`` is watched throughout: a raw queue subscribed at submit
      and an ``updates()`` stream primed before the first step;
    * ``beta`` by a raw pump that subscribes when its task first runs,
      after the driver's first step — a shard worker's pump;
    * ``gamma`` by nobody until step ``JOIN_AT``, then by an
      ``updates()`` stream, an SSE stream and a raw queue;
    * ``delta`` by an ``updates()`` stream that leaves after three
      snapshots, then, from step ``JOIN_AT``, a raw queue.
    """

    async def run():
        service = driver_cls(_cdas(77).service(max_in_flight=2), name="svc")
        streams: dict[tuple[str, str], list] = {}
        tasks = []

        def spawn(coro):
            tasks.append(asyncio.get_running_loop().create_task(coro))

        handles = {
            name: service.submit(
                "twitter-sentiment",
                movie_query(name, 0.9),
                **_tsa_inputs(movies=(name,), per_movie=24, seed=20 + i),
            )
            for i, name in enumerate(("alpha", "beta", "gamma", "delta"))
        }
        alpha, beta, gamma, delta = handles.values()
        streams["alpha", "raw-at-submit"] = []
        spawn(_drain_raw(alpha, alpha.subscribe(), streams["alpha", "raw-at-submit"]))
        updates = alpha.updates()
        streams["alpha", "updates-first"] = [await updates.__anext__()]
        spawn(_consume(updates, streams["alpha", "updates-first"]))
        streams["beta", "pump"] = []
        spawn(_pump_when_scheduled(beta, streams["beta", "pump"]))

        async def leave_early(out):
            stream = delta.updates()
            async for snapshot in stream:
                out.append(snapshot)
                if len(out) == 3:
                    break
            await stream.aclose()

        streams["delta", "updates-leaves"] = []
        spawn(leave_early(streams["delta", "updates-leaves"]))

        def on_step(svc) -> None:
            if svc.steps_taken == JOIN_AT:
                joins = {
                    ("gamma", "updates-mid"): lambda out: _consume(gamma.updates(), out),
                    ("gamma", "sse-mid"): lambda out: _sse(gamma, out),
                    ("gamma", "raw-mid"): lambda out: _pump_when_scheduled(gamma, out),
                    ("delta", "raw-mid"): lambda out: _pump_when_scheduled(delta, out),
                }
                for key, consume in joins.items():
                    streams[key] = []
                    spawn(consume(streams[key]))
            elif svc.steps_taken == CANCEL_AT:
                spawn(gamma.cancel())

        service.on_step = on_step
        outcomes = {}
        for name, handle in handles.items():
            try:
                outcomes[name] = len((await handle.result()).records)
            except QueryCancelled:
                outcomes[name] = "cancelled"
        await asyncio.gather(*tasks)
        await service.aclose()
        return streams, outcomes, service.steps_taken

    return asyncio.run(run())


class TestWatchedOnlyPublish:
    def test_every_consumer_sees_the_publish_everything_stream(self):
        """Streams that subscribe before the first step, after it (as a
        late forwarder), mid-run on a query nobody watched (``updates()``,
        SSE and a raw queue, on the query cancelled mid-run), and after
        an earlier stream left: each receives exactly the sequence of a
        driver that publishes every handle after every step."""
        streams, outcomes, steps = _watched_run(AsyncSchedulerService)
        expected, expected_outcomes, expected_steps = _watched_run(
            _PublishEveryDriver
        )
        assert CANCEL_AT < steps == expected_steps
        assert outcomes == expected_outcomes
        assert outcomes == {
            "alpha": 24, "beta": 24, "gamma": "cancelled", "delta": 24,
        }
        assert streams.keys() == expected.keys()
        for key, stream in streams.items():
            assert stream == expected[key], key
            assert len(stream) >= 3, key
        assert streams["gamma", "raw-mid"][-1].state is QueryState.CANCELLED
        assert streams["delta", "raw-mid"][-1].state is QueryState.DONE
        # The mid-run consumers joined a query already under way.
        assert streams["gamma", "updates-mid"][0].items_answered > 0

    def test_unwatched_steps_never_walk_progress(self, monkeypatch):
        """Nobody subscribed: no driver step (nor the cancel) computes a
        progress snapshot, and every query still finishes."""
        calls = []
        progress = QueryHandle.progress

        def counted(handle):
            calls.append(handle.seq)
            return progress(handle)

        monkeypatch.setattr(QueryHandle, "progress", counted)

        async def run():
            async with _cdas(78).async_service(max_in_flight=2) as service:
                kept = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
                )
                doomed = service.submit(
                    "twitter-sentiment", movie_query("beta", 0.9), **_tsa_inputs()
                )
                while service.steps_taken < 10:
                    await asyncio.sleep(0)
                assert await doomed.cancel()
                await service.wait_idle()
                return kept.state, doomed.state, service.steps_taken

        kept, doomed, steps = asyncio.run(run())
        assert (kept, doomed) == (QueryState.DONE, QueryState.CANCELLED)
        assert steps > 10
        assert calls == []

    def test_result_wakes_unwatched_waiters_on_done_and_cancel(self):
        """``await result()`` needs no subscriber: the unwatched publish
        still latches DONE and CANCELLED."""

        async def run():
            async with _cdas(79).async_service(max_in_flight=2) as service:
                kept = service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9), **_tsa_inputs()
                )
                doomed = service.submit(
                    "twitter-sentiment", movie_query("beta", 0.9), **_tsa_inputs()
                )
                done_waiter = asyncio.ensure_future(kept.result())
                cancel_waiter = asyncio.ensure_future(doomed.result())
                while service.steps_taken < 10:
                    await asyncio.sleep(0)
                assert await doomed.cancel()
                with pytest.raises(QueryCancelled):
                    await asyncio.wait_for(cancel_waiter, timeout=5)
                result = await asyncio.wait_for(done_waiter, timeout=5)
                assert not kept._queues and not doomed._queues
                return result

        assert len(asyncio.run(run()).records) == 12
