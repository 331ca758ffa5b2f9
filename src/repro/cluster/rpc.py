"""Stdlib socket RPC between the shard router and its worker processes.

Framing is deliberately primitive (DESIGN.md §14): a 4-byte big-endian
length prefix followed by a UTF-8 JSON object.  Rich values inside a
frame — submitted :class:`~repro.engine.query.Query` objects, tweet and
image corpora — ride the durability layer's type-tagged codec
(:mod:`repro.durability.codec`), the exact encoding the write-ahead
journal already round-trips, so the wire format introduces **zero** new
serialisation of engine objects.

Three frame shapes flow over one connection, a socketpair the router
makes before it forks the shard:

* request  — ``{"id": n, "method": str, "params": {...}}`` (router → worker)
* response — ``{"id": n, "result": {...}}`` or
  ``{"id": n, "error": {"kind": str, "message": str, "data": {...}}}``
* event    — ``{"event": str, ...}`` (worker → router push: progress,
  terminal results, stats)

There is no shutdown frame: the router closes its end, and the worker
stops on EOF.

:class:`RpcClient` is the router's half: it serialises concurrent
``call()``\\ s onto the stream, matches responses to futures by id, and
hands pushed events to a callback.  The worker's half is a plain
read-dispatch loop (:mod:`repro.cluster.worker`) — requests are handled
strictly in arrival order, which is what makes a shard's submission
sequence (and therefore its journal and its golden trace) deterministic.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Callable
from typing import Any

from repro.util.records import canonical_json

__all__ = [
    "MAX_FRAME_BYTES",
    "RpcError",
    "ShardDied",
    "encode_frame",
    "read_frame",
    "write_frame",
    "RpcClient",
]

#: Upper bound on one frame (a DoS guard mirroring the gateway's body
#: cap; demo corpora encode to well under it).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class RpcError(RuntimeError):
    """A worker answered a request with a structured error."""

    def __init__(self, kind: str, message: str, data: dict[str, Any] | None = None):
        super().__init__(message)
        self.kind = kind
        self.data = data or {}


class ShardDied(RuntimeError):
    """The shard's process (or its connection) went away mid-call."""


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One wire frame: length prefix + canonical JSON."""
    body = canonical_json(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return len(body).to_bytes(4, "big") + body


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"incoming frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("rpc frame must be a JSON object")
    return payload


async def write_frame(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


class RpcClient:
    """The router's end of one worker connection.

    Owns the stream: a reader task dispatches responses to their
    awaiting futures and pushes events to ``on_event``; a lock
    serialises concurrent writers.  When the connection drops, every
    pending call fails with :class:`ShardDied` and ``on_close`` fires
    exactly once — the router's failure-detection hook.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        on_close: Callable[[], None] | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._on_event = on_event
        self._on_close = on_close
        self._lock = asyncio.Lock()
        self._pending: dict[int, asyncio.Future[dict[str, Any]]] = {}
        self._next_id = 0
        self._closed = False
        self._closing = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name="cdas-rpc-reader"
        )

    @property
    def closed(self) -> bool:
        return self._closed

    async def call(self, method: str, **params: Any) -> dict[str, Any]:
        """One request/response round trip; raises on worker error/death."""
        if self._closed:
            raise ShardDied(f"connection closed before call {method!r}")
        self._next_id += 1
        call_id = self._next_id
        future: asyncio.Future[dict[str, Any]] = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[call_id] = future
        try:
            async with self._lock:
                await write_frame(
                    self._writer,
                    {"id": call_id, "method": method, "params": params},
                )
        except (ConnectionError, RuntimeError):
            self._pending.pop(call_id, None)
            raise ShardDied(f"connection lost sending {method!r}") from None
        return await future

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(self._reader)
                except (ValueError, ConnectionError):
                    frame = None
                if frame is None:
                    return
                if "event" in frame:
                    if self._on_event is not None:
                        self._on_event(frame)
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is None or future.done():
                    continue
                error = frame.get("error")
                if error is not None:
                    future.set_exception(
                        RpcError(
                            error.get("kind", "error"),
                            error.get("message", "worker error"),
                            error.get("data"),
                        )
                    )
                else:
                    future.set_result(frame.get("result", {}))
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        if self._closed:
            return
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ShardDied("shard connection lost"))
        self._pending.clear()
        if self._on_close is not None:
            self._on_close()

    async def aclose(self) -> None:
        """Close the stream and cancel the reader (idempotent)."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending()
        # Only the first call waits: one cancelled in wait_closed() took
        # the stream's close waiter with it, so a second wait would raise
        # CancelledError.
        if self._closing:
            return
        self._closing = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
