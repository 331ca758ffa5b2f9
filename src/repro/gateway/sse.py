"""Server-Sent Events framing for the gateway's progress streams.

``GET /v1/queries/{id}/events`` is :meth:`AsyncQueryHandle.updates`
pushed over HTTP.  The stream is built directly on the handle's
``subscribe()`` / ``unsubscribe()`` queue rather than wrapping the
``updates()`` async generator: the loop below races the queue against a
heartbeat timeout and the client's disconnect message, and cancelling a
generator's ``__anext__`` would break the generator — a bare
``queue.get()`` coroutine cancels cleanly.

Framing (https://html.spec.whatwg.org/multipage/server-sent-events.html):

* ``event: progress`` + ``data: <canonical JSON>`` per changed snapshot
  (the same ``QueryProgress.to_dict()`` the poll endpoint serves);
* ``event: end`` + the terminal snapshot (or the stranding error) as the
  final frame — after it the server closes the connection;
* ``: heartbeat`` comment lines while the query is quiet, so proxies
  and clients can distinguish a slow crowd from a dead connection.

Slow consumers are safe by construction: the per-consumer queue is
bounded (oldest snapshot evicted first — snapshots are cumulative, so
eviction only coalesces) and the driver never blocks on anyone's queue.
A disconnected or abandoned consumer is detected either by the ASGI
``http.disconnect`` message or by the send failing, and unsubscribes in
a ``finally`` — it can never stall the driver or leak its queue.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.engine.service import TERMINAL_STATES

from repro.gateway.codec import dumps

__all__ = ["format_event", "HEARTBEAT_SECONDS", "stream_updates"]

#: Comment-frame cadence while no snapshot arrives.
HEARTBEAT_SECONDS = 5.0


def format_event(event: str | None, data: Any | None = None) -> bytes:
    """One SSE frame.  ``event=None`` emits a comment (heartbeat)."""
    if event is None:
        return b": heartbeat\n\n"
    lines = [f"event: {event}".encode("utf-8")]
    if data is not None:
        # canonical_json never contains raw newlines, so one data line.
        lines.append(b"data: " + dumps(data))
    return b"\n".join(lines) + b"\n\n"


async def stream_updates(
    ahandle: Any,
    send: Any,
    receive: Any,
    heartbeat: float = HEARTBEAT_SECONDS,
) -> None:
    """Stream one handle's progress as SSE until terminal or disconnect.

    The response start must not have been sent yet; this owns the whole
    response.  Returns normally on clean completion *and* on client
    disconnect — the caller cannot tell and does not need to.
    """
    # The first frame is as fresh as a poll.  Everything the queue
    # receives is published after it is read.
    await ahandle.refresh()
    queue = ahandle.subscribe()
    last = ahandle.progress()
    disconnected = asyncio.Event()

    async def _watch_disconnect() -> None:
        # Per ASGI, receive() yields http.disconnect exactly once when
        # the client goes away; anything else (stray body frames) is
        # drained and ignored.
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                disconnected.set()
                return

    watcher = asyncio.ensure_future(_watch_disconnect())
    disconnect_wait = asyncio.ensure_future(disconnected.wait())
    try:
        await send(
            {
                "type": "http.response.start",
                "status": 200,
                "headers": [
                    (b"content-type", b"text/event-stream; charset=utf-8"),
                    (b"cache-control", b"no-cache"),
                ],
            }
        )

        async def emit(chunk: bytes, more: bool = True) -> bool:
            try:
                await send(
                    {
                        "type": "http.response.body",
                        "body": chunk,
                        "more_body": more,
                    }
                )
            except Exception:
                # The transport is gone; treat exactly like a disconnect.
                disconnected.set()
                return False
            return True

        if not await emit(format_event("progress", last.to_dict())):
            return
        while (
            last.state not in TERMINAL_STATES
            and ahandle.stranded is None
            and not disconnected.is_set()
        ):
            getter = asyncio.ensure_future(queue.get())
            done, _ = await asyncio.wait(
                {getter, disconnect_wait},
                timeout=heartbeat,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if getter not in done:
                getter.cancel()
                try:
                    await getter
                except asyncio.CancelledError:
                    pass
                if disconnected.is_set():
                    return
                if not await emit(format_event(None)):
                    return
                continue
            snapshot = getter.result()
            if snapshot == last:
                continue
            last = snapshot
            if last.state in TERMINAL_STATES:
                break
            if not await emit(format_event("progress", last.to_dict())):
                return
        if disconnected.is_set():
            return
        final: dict[str, Any] = {"progress": last.to_dict()}
        if ahandle.stranded is not None and last.state not in TERMINAL_STATES:
            final["error"] = str(ahandle.stranded)
        await emit(format_event("end", final), more=False)
    finally:
        ahandle.unsubscribe(queue)
        for task in (watcher, disconnect_wait):
            task.cancel()
        for task in (watcher, disconnect_wait):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
