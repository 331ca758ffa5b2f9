"""Deadline-bounded waiting for the async tests.

Flag polls in the cluster tests go through :func:`wait_until`, so a test
that loses a race fails with a message naming what it waited for
instead of hanging the suite.  Loops that drain a queue or a stream stay
plain loops, each bounded by ``asyncio.wait_for``.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable


async def wait_until(
    condition: Callable[[], object],
    *,
    what: str,
    timeout: float = 30.0,
    interval: float = 0.01,
) -> None:
    """Poll until ``condition()`` is truthy; fail after ``timeout`` s.

    ``interval`` is the pause between checks (``0`` just yields).
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, f"timed out after {timeout}s waiting for {what}"
        await asyncio.sleep(interval)
