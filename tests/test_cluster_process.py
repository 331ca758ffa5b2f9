"""Shard processes are forked from the router (DESIGN.md §14).

A forked child starts with a copy of everything the router holds, so
these tests pin what it must not keep, and how it ends:

* it shares no socket with the router, whether started with the router
  or respawned later (while the router holds more connections);
* an SSE client whose connection was open across a respawn still reads
  the stream to its end and then EOF;
* a shard never outlives its router, and a SIGINT stops it cleanly;
* the router holds one socket per shard and no listener, closing that
  socket stops the shard with exit code 0, and a shard that has exited
  is never signalled again.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading

import pytest
from deadlines import wait_until

from repro.cluster import ShardRouter
from repro.gateway import GatewayServer
from repro.gateway.app import GatewayApp
from repro.gateway.auth import TokenAuth
from repro.gateway.testing import InProcessClient, parse_sse
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

SEED = 2012
SLOW_TWEETS = 300
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _inputs(per_movie: int) -> dict:
    return dict(
        tweets=generate_tweets(["rio"], per_movie=per_movie, seed=SEED + 2),
        gold_tweets=generate_tweets(["gold-movie"], per_movie=8, seed=SEED + 1),
        worker_count=5,
        batch_size=4,
    )


def _sockets(pid: int) -> set[str]:
    """The ``socket:[inode]`` links among a process's open descriptors."""
    fd_dir = f"/proc/{pid}/fd"
    links = set()
    for fd in os.listdir(fd_dir):
        try:
            link = os.readlink(os.path.join(fd_dir, fd))
        except FileNotFoundError:  # closed while listing
            continue
        if link.startswith("socket:["):
            links.add(link)
    return links


def _exited(pid: int) -> bool:
    """Has ``pid`` exited: gone, or a zombie nobody has reaped yet?"""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


def test_forked_shards_share_no_socket_with_the_router(tmp_path):
    """Neither a shard started with the router nor one respawned later
    holds any socket of the router process: not the RPC listener, not
    another shard's connection, not a listener the caller opened.  The
    router waits for the dead shard on its loop, so the respawn forks a
    process that still has one thread."""

    async def run():
        listener = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        async with ShardRouter(
            2, workload="bench", seed=SEED, journal=str(tmp_path / "wal")
        ) as router:
            started = {s.name: _sockets(s.pid) for s in router.services}
            router_side = _sockets(os.getpid())
            victim = router["shard0"]
            old_pid = victim.pid
            router.kill_shard(victim.name)
            await wait_until(
                lambda: victim.alive and victim.pid != old_pid,
                what="the killed shard's respawn",
            )
            respawned = _sockets(victim.pid)
            after = _sockets(os.getpid())
            assert threading.active_count() == 1
        listener.close()
        await listener.wait_closed()
        return started, router_side, respawned, after

    started, router_side, respawned, after = asyncio.run(run())
    assert all(started.values()) and respawned  # each holds its RPC socket
    for name, shard_side in started.items():
        assert not shard_side & router_side, name
    assert not respawned & after


def test_sse_stream_closes_after_its_terminal_frame_across_a_respawn(tmp_path):
    """An SSE connection served over a real socket while its journaled
    shard is killed and respawned: the stream ends with its ``end``
    frame, and the client then reads EOF."""
    body = {
        "job": "twitter-sentiment",
        "query": {
            "keywords": ["rio"], "required_accuracy": 0.9,
            "domain": ["positive", "neutral", "negative"], "subject": "rio",
        },
        "inputs": {"$preset": "slow"},
    }

    async def run():
        async with ShardRouter(
            1, workload="bench", seed=SEED, journal=str(tmp_path / "wal")
        ) as router:
            await router.register_tenant("acme")
            app = GatewayApp(
                router, TokenAuth({"acme-token": "acme"}),
                presets={"slow": _inputs(SLOW_TWEETS)},
            )
            client = InProcessClient(app, token="acme-token")
            query_id = (await client.post("/v1/queries", body)).json()["id"]
            async with GatewayServer(app) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    f"GET /v1/queries/{query_id}/events HTTP/1.1\r\n"
                    "host: localhost\r\nauthorization: Bearer acme-token\r\n"
                    "\r\n".encode("latin-1")
                )
                await writer.drain()
                head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
                first = await asyncio.wait_for(reader.readuntil(b"\n\n"), 30)
                shard = router["shard0"]
                old_pid = shard.pid
                router.kill_shard(shard.name)
                # read() returns only at EOF: the server closed the
                # connection and no shard holds a copy of it.
                rest = await asyncio.wait_for(reader.read(), 120)
                respawned = shard.pid != old_pid
                writer.close()
                await writer.wait_closed()
        return head, first + rest, respawned

    head, stream, respawned = asyncio.run(run())
    assert head.startswith(b"HTTP/1.1 200 ")
    assert respawned
    frames = [(event, data) for event, data in parse_sse(stream) if event]
    assert frames[-1][0] == "end"
    assert frames[-1][1]["progress"]["state"] == "done"


_ROUTER = """
import asyncio, os, sys
from repro.cluster import ShardRouter

async def main(path):
    async with ShardRouter(2, workload="bench", seed=2012) as router:
        with open(path + ".tmp", "w") as fh:
            fh.write(" ".join(str(s.pid) for s in router.services))
        os.replace(path + ".tmp", path)
        await asyncio.sleep(3600)

asyncio.run(main(sys.argv[1]))
"""


def test_shards_exit_when_their_router_is_killed(tmp_path):
    """SIGKILL the router process: every shard it forked sees its RPC
    connection close and exits, orphaned for no longer than that."""
    pid_file = tmp_path / "shard-pids"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    router = subprocess.Popen([sys.executable, "-c", _ROUTER, str(pid_file)], env=env)

    async def run():
        try:
            await wait_until(
                pid_file.exists, what="the router's shard pids", timeout=120
            )
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 2 and not any(_exited(pid) for pid in pids)
            router.kill()
            await wait_until(
                lambda: router.poll() is not None, what="the router to die"
            )
            await wait_until(
                lambda: all(_exited(pid) for pid in pids),
                what="every orphaned shard to exit",
            )
        finally:
            if router.poll() is None:
                router.kill()
                await wait_until(
                    lambda: router.poll() is not None, what="the router to die"
                )

    asyncio.run(run())
    assert router.returncode == -signal.SIGKILL


def test_shard_exits_zero_on_sigint():
    """A shard's SIGINT handler is the interpreter's default, not the
    router's: the worker stops serving and exits with code 0."""

    async def run():
        async with ShardRouter(1, workload="bench", seed=SEED) as router:
            shard = router["shard0"]
            router.kill_shard(shard.name, signal.SIGINT)
            await wait_until(
                lambda: shard.proc.poll() is not None,
                what="the shard to exit on SIGINT",
            )
            return shard.proc.returncode

    assert asyncio.run(run()) == 0


@pytest.mark.parametrize("journaled", [False, True], ids=["unjournaled", "journaled"])
def test_shards_exit_zero_when_the_router_closes(tmp_path, journaled):
    """Closing the router closes each shard's connection; every worker
    reads EOF, closes its service (flushing a journal) and exits 0."""
    journal = str(tmp_path / "wal") if journaled else None

    async def run():
        async with ShardRouter(
            2, workload="bench", seed=SEED, journal=journal
        ) as router:
            await router.register_tenant("acme")
            handle = await router.route("acme").submit(
                "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
                **_inputs(20),
            )
            await asyncio.wait_for(handle.result(), 60)
            assert handle.state.value == "done"
        return [service.proc.returncode for service in router.services]

    assert asyncio.run(run()) == [0, 0]


def test_router_holds_one_socket_per_shard():
    """Starting the router adds exactly one socket per shard to the
    router process: its end of the shard's socketpair, and no listener."""

    async def run():
        before = _sockets(os.getpid())
        async with ShardRouter(2, workload="bench", seed=SEED) as router:
            added = _sockets(os.getpid()) - before
            return len(added), len(router)

    added, shards = asyncio.run(run())
    assert added == shards


def test_kill_shard_after_close_signals_nothing(monkeypatch):
    """A closed router has reaped its shards, so their pids may belong
    to other processes by now: ``kill_shard`` sends them nothing."""

    async def run():
        async with ShardRouter(2, workload="bench", seed=SEED) as router:
            pass
        return router

    router = asyncio.run(run())
    signalled = []
    monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append((pid, sig)))
    for service in router.services:
        router.kill_shard(service.name)
    assert signalled == []
