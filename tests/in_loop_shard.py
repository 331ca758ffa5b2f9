"""An in-loop stand-in for the router's worker launch.

:class:`InLoopWorker` replaces :func:`repro.cluster.router._fork_worker`
(monkeypatch it in): it runs the worker's main coroutine on the shard's
end of its socketpair as a task on the running loop, so a test can read
the shard's own objects while the router talks to it over a real socket.
"""

from __future__ import annotations

import asyncio
import os


class InLoopWorker:
    def __init__(self, sock, shard: str) -> None:
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
