"""Async and cluster lifetime: a closed, dropped owner frees itself
(DESIGN.md §7, §14).

The ownership rule of ``tests/test_service_lifetime.py`` holds one layer
up: an owner holds what it built strongly, and nothing it owns points
back at it strongly.  An ``AsyncSchedulerService`` owns its handles, a
``ServiceMux`` its services, a ``ShardRouter`` its shard services (and
each of those its RPC client, process and handles), a shard ``_Worker``
its service.  Every back-reference — a handle's service, a shard
service's router, the RPC client's callbacks, the mux's step hook, the
worker's driver hooks — is weak.  So after ``aclose()`` and ``del``
reference counting frees the whole graph.

Every test here runs with the cyclic collector disabled: an object that
outlives ``del`` is held by a reference cycle, not by anything live.  A
handle held alone stays readable after its owner is gone.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest
from deadlines import wait_until
from in_loop_shard import InLoopWorker

import repro.cluster.router as router_module
from repro.amt.market import SimulatedMarket
from repro.cluster import ShardRouter
from repro.cluster import worker as worker_module
from repro.engine.aio import ServiceMux
from repro.engine.service import QueryCancelled, QueryState
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 41
#: The cluster recipe's seed (``workload="bench"``).
CLUSTER_SEED = 2012


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


def _tsa(subject: str, per_movie: int = 12, seed: int = SEED) -> dict:
    return dict(
        tweets=generate_tweets([subject], per_movie=per_movie, seed=seed + 2),
        gold_tweets=generate_tweets(["gold-movie"], per_movie=8, seed=seed + 1),
        worker_count=5,
        batch_size=4,
    )


async def _collect(stream) -> list:
    return [snapshot async for snapshot in stream]


async def _drive(service) -> list[weakref.ref]:
    """A finished query, a streamed one and one cancelled mid-flight on
    an async service, run to idle.  Drops every handle; returns weak
    references to them."""
    service.register_tenant("acme", priority=2.0)
    done = service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
        reserve=True, **_tsa("rio"),
    )
    watched = service.submit(
        "twitter-sentiment", movie_query("solaris", 0.9), **_tsa("solaris")
    )
    doomed = service.submit(
        "twitter-sentiment", movie_query("alpha", 0.9), **_tsa("alpha", per_movie=24)
    )
    stream = asyncio.ensure_future(_collect(watched.updates()))
    await wait_until(
        lambda: doomed.progress().hits_in_flight,
        interval=0,
        what="the doomed query's first HIT",
    )
    assert await doomed.cancel()
    await service.wait_idle()
    assert (await stream)[-1].state is QueryState.DONE
    assert await done.result() is not None
    assert [h.state for h in service.handles] == [
        QueryState.DONE, QueryState.DONE, QueryState.CANCELLED,
    ]
    return [weakref.ref(h) for h in (done, watched, doomed)]


def _dead(refs: list[weakref.ref]) -> list[bool]:
    return [ref() is None for ref in refs]


async def _turn() -> None:
    """Let the task step that resumed the caller end.  An ``aclose()``
    that cancelled a task resumes holding that task's CancelledError,
    whose traceback holds the task's frames, until the caller yields."""
    await asyncio.sleep(0)


@pytest.mark.parametrize("journaled", [False, True], ids=["plain", "durable"])
def test_async_service_is_freed_on_del(small_pool, tmp_path, journaled):
    journal = tmp_path / "svc.journal.jsonl" if journaled else None

    async def run():
        service = _system(small_pool).async_service(max_in_flight=2, journal=journal)
        refs = await _drive(service)
        await service.aclose()
        if journaled:
            service.service.close()
        refs += [weakref.ref(service), weakref.ref(service.service)]
        del service
        await _turn()
        return _dead(refs)

    assert asyncio.run(run()) == [True] * 5


def test_service_mux_is_freed_on_del(small_pool):
    async def run():
        mux = ServiceMux()
        first = mux.add("a", _system(small_pool).async_service(max_in_flight=2))
        second = mux.add("b", _system(small_pool).service(max_in_flight=2))
        refs = await _drive(first)
        handle = second.submit(
            "twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio")
        )
        await mux.run_until_idle()
        assert handle.done and set(mux.step_log) == {"a", "b"}
        await mux.aclose()
        refs += [weakref.ref(o) for o in (mux, first, second, handle)]
        del mux, first, second, handle
        await _turn()
        return _dead(refs)

    assert asyncio.run(run()) == [True] * 7


class _RecordedWorker(worker_module._Worker):
    """The shard worker, recording a weak reference to each one made."""

    made: list[weakref.ref] = []

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.made.append(weakref.ref(self))


def _cluster_inputs(subject: str, per_movie: int = 12) -> dict:
    return _tsa(subject, per_movie=per_movie, seed=CLUSTER_SEED)


@pytest.mark.parametrize("launch", ["forked", "in-loop"])
def test_router_is_freed_on_del(monkeypatch, launch):
    """A 1-shard router after ``aclose()``: the router, its service, the
    service's handles (one streamed, one cancelled), RPC clients and
    process.  In loop, the shard's worker and its async service too."""
    if launch == "in-loop":
        monkeypatch.setattr(router_module, "_fork_worker", InLoopWorker)
        monkeypatch.setattr(worker_module, "_Worker", _RecordedWorker)
        _RecordedWorker.made.clear()

    async def run():
        router = ShardRouter(1, workload="bench", seed=CLUSTER_SEED)
        await router.start()
        await router.register_tenant("acme")
        service = router["shard0"]
        watched = await service.submit(
            "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
            **_cluster_inputs("rio"),
        )
        doomed = await service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), tenant="acme",
            **_cluster_inputs("alpha", per_movie=300),
        )
        snapshots = await asyncio.wait_for(_collect(watched.updates()), 120)
        assert snapshots[-1].state is QueryState.DONE
        assert await doomed.cancel()
        refs = [
            weakref.ref(o)
            for o in (router, service, watched, doomed, service.rpc, service.proc)
        ]
        if launch == "in-loop":
            (made,) = _RecordedWorker.made
            refs += [made, weakref.ref(made().service)]
        await router.aclose()
        del router, service, watched, doomed
        await _turn()
        return _dead(refs)

    dead = asyncio.run(run())
    assert dead == [True] * len(dead)


# -- a handle held alone outlives its owner -----------------------------------


def test_an_async_handle_outlives_its_service(small_pool):
    async def run():
        service = _system(small_pool).async_service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio")
        )
        result = await handle.result()
        before = (handle.progress(), handle.result_summary(), handle.plan)
        await service.aclose()
        ref = weakref.ref(service)
        del service
        await _turn()
        assert ref() is None
        assert (handle.progress(), handle.result_summary(), handle.plan) == before
        assert await handle.result() is result
        await handle.refresh()
        assert not await handle.cancel()
        assert handle.state is QueryState.DONE

    asyncio.run(run())


def test_a_live_handle_strands_when_its_service_is_dropped(small_pool):
    """Nothing can pump a live query whose service is gone: awaiting it
    raises instead of parking forever, and the stream ends."""

    async def run():
        service = _system(small_pool).async_service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio")
        )
        await service.aclose()
        del service
        await _turn()
        with pytest.raises(RuntimeError, match="service dropped"):
            await handle.result()
        assert handle.stranded is not None and not handle.done
        assert len(await _collect(handle.updates())) == 1

    asyncio.run(run())

    # Submitted outside a loop, a query has no driver task to keep its
    # service alive: with only the handle kept, the first await strands.
    service = _system(small_pool).async_service(max_in_flight=2)
    handle = service.submit(
        "twitter-sentiment", movie_query("solaris", 0.9), **_tsa("solaris")
    )
    ref = weakref.ref(service)
    del service
    assert ref() is None

    async def await_alone():
        with pytest.raises(RuntimeError, match="service dropped"):
            await handle.result()

    asyncio.run(await_alone())
    assert handle.stranded is not None and not handle.done


def test_a_remote_handle_outlives_its_router():
    async def run():
        router = ShardRouter(1, workload="bench", seed=CLUSTER_SEED)
        await router.start()
        await router.register_tenant("acme")
        service = router["shard0"]
        handle = await service.submit(
            "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
            **_cluster_inputs("rio"),
        )
        doomed = await service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), tenant="acme",
            **_cluster_inputs("alpha", per_movie=300),
        )
        result = await handle.result(timeout=120)
        assert await doomed.cancel()
        before = (handle.progress(), handle.result_summary(), doomed.progress())
        await router.aclose()
        refs = [weakref.ref(router), weakref.ref(service)]
        del router, service
        await _turn()
        assert _dead(refs) == [True, True]
        assert (handle.progress(), handle.result_summary(), doomed.progress()) == before
        assert await handle.result() == result
        with pytest.raises(QueryCancelled):
            await doomed.result()
        await handle.refresh()
        assert not await handle.cancel()
        assert len(await _collect(handle.updates())) == 1

    asyncio.run(run())
