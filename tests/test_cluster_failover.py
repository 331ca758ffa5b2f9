"""Shard failure: ``kill -9`` a worker mid-workload (DESIGN.md §14).

Two contracts, by journal presence:

* **unjournaled** shard death — the router strands the shard's
  non-terminal handles as FAILED (``ShardDied``) instead of letting
  clients hang, marks the shard unroutable, and rendezvous re-homes its
  tenants to the survivors on their next request;
* **journaled** shard death — the router respawns the process on the
  same journal; recovery reattaches every handle by ``seq`` (the public
  query id survives), the interrupted query runs to completion, and the
  next submission continues the seq sequence.
"""

from __future__ import annotations

import asyncio

import pytest
from deadlines import wait_until

from repro.cluster import ShardRouter
from repro.cluster.rpc import ShardDied
from repro.engine.service import QueryState
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

SEED = 2012

#: Big enough that the query is still mid-flight when SIGKILL lands
#: (the kill is sent immediately after the submit ack).
SLOW_TWEETS = 300


def _inputs(per_movie: int):
    return dict(
        tweets=generate_tweets(["rio"], per_movie=per_movie, seed=SEED + 2),
        gold_tweets=generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1),
        worker_count=5,
        batch_size=4,
    )


def _monotone(snapshots: list) -> bool:
    """Each progress snapshot is at or past the one before it: no earlier
    state, and no fewer items, HITs or spend."""
    order = list(QueryState)
    counters = ("items_answered", "items_finalized", "hits_completed", "spend")
    return all(
        order.index(after.state) >= order.index(before.state)
        and all(getattr(after, key) >= getattr(before, key) for key in counters)
        for before, after in zip(snapshots, snapshots[1:])
    )


def test_unjournaled_kill_strands_handles_and_rehomes_tenants():
    async def run():
        async with ShardRouter(2, workload="bench", seed=SEED) as router:
            await router.register_tenant("acme", priority=2.0)
            home = router.route("acme")
            handle = await home.submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant="acme",
                **_inputs(SLOW_TWEETS),
            )
            assert not handle.done  # genuinely mid-workload
            await home.refresh()
            assert not home.idle
            router.kill_shard(home.name)
            await wait_until(
                lambda: handle.done or handle.stranded is not None,
                interval=0.05,
                what="the stranded handle to settle",
            )

            # The handle reports FAILED, never hangs.
            assert handle.state.value == "failed"
            assert isinstance(handle.stranded, ShardDied)
            with pytest.raises(ShardDied):
                await handle.result(timeout=1)

            # The dead shard is out of the routing table; the tenant's
            # new home is a survivor, and new work runs there.
            assert not home.routable
            assert home.idle  # its last stats said busy; it runs nothing
            survivor = router.route("acme")
            assert survivor.name != home.name
            replacement = await survivor.submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant="acme",
                **_inputs(6),
            )
            result = await replacement.result(timeout=120)
            assert replacement.state.value == "done"
            assert result is not None

            # Submitting straight to the dead shard reports the death
            # instead of hanging.
            with pytest.raises(ShardDied):
                await home.submit(
                    "twitter-sentiment",
                    movie_query("rio", 0.9),
                    tenant="acme",
                    **_inputs(6),
                )

    asyncio.run(run())


def test_journaled_kill_respawns_and_preserves_query_ids(tmp_path):
    async def run():
        base = str(tmp_path / "wal")
        async with ShardRouter(
            2, workload="bench", seed=SEED, journal=base
        ) as router:
            await router.register_tenant("acme", priority=2.0)
            home = router.route("acme")
            handle = await home.submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant="acme",
                **_inputs(SLOW_TWEETS),
            )
            seq = handle.seq
            assert not handle.done
            router.kill_shard(home.name)

            # Same handle object, same seq: respawn + journal recovery
            # finish the interrupted query behind the same public id.
            result = await handle.result(timeout=180)
            assert handle.seq == seq
            assert handle.state.value == "done"
            assert result is not None and "report" in result
            assert home.routable and home.alive

            # The seq sequence continues where the journal left off.
            follow_up = await home.submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant="acme",
                **_inputs(6),
            )
            assert follow_up.seq == seq + 1
            await follow_up.result(timeout=120)
            assert follow_up.state.value == "done"

    asyncio.run(run())


def test_journaled_kill_under_an_open_stream_rewatches(tmp_path):
    """A router ``updates()`` stream open across a journaled shard's
    death: the respawned worker is asked to watch the query again, so
    progress keeps arriving from the new process, and the stream ends on
    the terminal snapshot.  Neither the stream nor polls move backwards
    while the recovered run re-executes from the journal."""

    async def run():
        async with ShardRouter(
            1, workload="bench", seed=SEED, journal=str(tmp_path / "wal")
        ) as router:
            await router.register_tenant("acme")
            home = router.route("acme")
            handle = await home.submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant="acme",
                **_inputs(SLOW_TWEETS),
            )
            first_pid = home.pid
            polls = []

            async def poll():
                while not handle.done:
                    await handle.refresh()
                    polls.append(handle.progress())
                    await asyncio.sleep(0.005)

            poller = asyncio.get_running_loop().create_task(
                asyncio.wait_for(poll(), 180)
            )
            seen = []

            async def watch():
                killed = False
                async for snapshot in handle.updates():
                    seen.append((home.pid, snapshot))
                    if not killed and snapshot.items_answered > 0:
                        router.kill_shard(home.name)
                        killed = True

            await asyncio.wait_for(watch(), 180)
            result = await handle.result(timeout=180)
            await poller
            return first_pid, seen, polls, handle.progress(), result

    first_pid, seen, polls, final, result = asyncio.run(run())
    assert result is not None and "report" in result
    assert _monotone([snapshot for _pid, snapshot in seen])
    assert _monotone(polls + [final])
    assert seen[-1][1] == final
    assert final.state.value == "done"
    respawned = [s for pid, s in seen[:-1] if pid != first_pid]
    assert any(s.state.value == "running" for s in respawned)


def test_worker_aclose_cancels_watch_forwarders():
    from repro.cluster.worker import _Worker
    from repro.durability import codec as dcodec

    async def run():
        outbox: asyncio.Queue = asyncio.Queue()
        worker = _Worker("s0", outbox)
        worker.init({"workload": "bench", "config": {"seed": SEED}})
        inputs = _inputs(SLOW_TWEETS)
        worker.submit({
            "job": "twitter-sentiment",
            "query": dcodec.encode(movie_query("rio", 0.9)),
            "inputs": {k: dcodec.encode(v) for k, v in inputs.items()},
            "tenant": "default",
        })
        worker.watch({"seq": 0})

        async def progress_frame():
            while (await outbox.get()).get("event") != "progress":
                pass

        await asyncio.wait_for(progress_frame(), 30)
        ahandle = worker.service.handle_for(0)
        _queue, forwarder = worker._watches[0]
        assert not forwarder.done() and ahandle._queues
        await worker.aclose()
        # Checked before the loop closes: asyncio.run would cancel it too.
        assert forwarder.cancelled()
        assert ahandle._queues == []

    asyncio.run(run())


def test_router_aclose_settles_watch_calls(tmp_path):
    """Watch exchanges still in flight at shutdown — an unwatch sent to a
    live shard, a watch parked on a dead journaled shard's respawn — are
    settled by ``aclose()``: no task is left pending.

    The live query is watched right after its submit, before the kill,
    and is ten times the usual slow workload, so it is still running
    long after the router has seen the other shard die."""

    async def run():
        router = ShardRouter(
            2, workload="bench", seed=SEED, journal=str(tmp_path / "wal")
        )
        await router.start()
        await router.register_tenant("acme")
        await router.register_tenant("globex")
        handles = []
        for tenant, tweets in (("acme", 10 * SLOW_TWEETS), ("globex", SLOW_TWEETS)):
            handles.append(await router.route(tenant).submit(
                "twitter-sentiment",
                movie_query("rio", 0.9),
                tenant=tenant,
                **_inputs(tweets),
            ))
        live, doomed = handles
        queue = live.subscribe()
        await wait_until(lambda: live._watched, what="the live shard's watch reply")
        dead = router.route("globex")
        router.kill_shard(dead.name)
        await wait_until(lambda: not dead.alive, what="the router to see the kill")
        live.unsubscribe(queue)  # an unwatch, sent before aclose runs
        doomed.subscribe()  # a watch parked on the respawn
        await asyncio.sleep(0)
        in_flight = [
            task for service in router.services for task in service._watch_tasks
        ]
        assert len(in_flight) == 2 and not live.done
        await router.aclose()
        current = asyncio.current_task()
        return in_flight, [t for t in asyncio.all_tasks() if t is not current]

    in_flight, pending = asyncio.run(run())
    assert all(task.done() for task in in_flight)
    assert pending == []
