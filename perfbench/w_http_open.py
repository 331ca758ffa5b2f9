"""``http_open``: the online path, an open-loop HTTP client against the
gateway in its own process.

The server (``server.py``) mirrors ``serve --http`` with a file journal.
One asyncio client process sends queries at a fixed rate, on a schedule
that does not wait for replies, over at most ``nproc`` concurrent
connections (the server closes each connection after one response):

* mostly small sentiment queries plus a tail of large ones (a fixed
  cycle of sizes, ``PATTERN``), their tweets inline and encoded with
  the program's codec;
* polls every ``POLL_INTERVAL`` until a terminal state;
* one query in each cycle cancelled right after its submit;
* one submit in each cycle from a tenant over its budget cap, which
  must draw a 402 (counted apart from failures, and checked against
  their count in the schedule).

Every timing starts at the request's due time, so a stalled server or
a full connection pool shows as latency.  A run whose backlog has not
drained ``DRAIN_TIMEOUT`` seconds after the last arrival is invalid.

Checks: after the run the server's journal is re-executed offline with
``recover()``, and every DONE result the server returned must equal the
re-executed query's result summary; no acknowledged query may be
missing from the journal.

Below saturation the span ``hits_per_s`` divides by is fixed by the
arrival schedule, so here it reads the offered rate and moves only when
the server falls behind; the server's figure is ``cpu_ms_per_query``,
its event-loop CPU per accepted query.

Stresses ``gateway``, ``aio``, the journal's flush-before-201 and codec
decode; ``cluster`` does no work.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any

import inputs
from common import (
    HERE, OUT, ROOT, Result, add_latencies, median, nproc, percentile, untraced,
)
from server import BROKE, POOL_SIZE, TENANTS

RATE = 4.0
#: One cycle of arrivals: ``(kind, tweets, cancel)``.  The issue's
#: 80/20 mix of 60- and 300-tweet queries: fifteen small ones (one
#: cancelled right after its submit), four large ones, and one submit
#: from the over-budget tenant.
PATTERN = (
    ("query", 60, False), ("query", 60, False), ("query", 300, False),
    ("query", 60, False), ("query", 60, False), ("query", 60, False),
    ("query", 60, True), ("query", 300, False), ("query", 60, False),
    ("query", 60, False), ("query", 60, False), ("query", 300, False),
    ("query", 60, False), ("query", 60, False), ("query", 60, False),
    ("query", 60, False), ("query", 300, False), ("query", 60, False),
    ("query", 60, False), ("broke", 60, False),
)
#: Poll period.  The repository's own clients follow progress over SSE,
#: so none gives a polling rate; this one is set by measurement on a
#: 2-vCPU host.  At 10 ms a query takes 8-12 polls, polling costs about
#: 13% of the server's CPU (6.9 s against 6.0 s at 50 ms per 20-s run),
#: and a small query's latency (50-100 ms) is read to within 10 ms;
#: at 50 ms most small queries were read only at their first or second
#: poll.
POLL_INTERVAL = 0.01
SETUP_REPEATS = 5
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 10.0
QUERY_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0
TERMINAL = ("done", "cancelled", "failed")


class Server:
    """One ``server.py`` child process."""

    def __init__(self, seed: int, journal: Path, spans: Path | None) -> None:
        self.seed = seed
        self.journal = journal
        self.spans = spans
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0
        self.stats: dict[str, Any] = {}

    async def start(self) -> float:
        """Spawn and wait for READY; returns the seconds that took."""
        self.journal.unlink(missing_ok=True)
        argv = [
            sys.executable, str(HERE / "server.py"),
            "--seed", str(self.seed), "--journal", str(self.journal),
        ]
        if self.spans is not None:
            argv += ["--spans", str(self.spans)]

        begin = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=str(ROOT), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), READY_TIMEOUT)
        if not line.startswith(b"READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        return time.perf_counter() - begin

    async def stop(self) -> None:
        """Close stdin (the stop signal), collect STATS, reap."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            out = await asyncio.wait_for(proc.stdout.read(), READY_TIMEOUT)
            await asyncio.wait_for(proc.wait(), READY_TIMEOUT)
        finally:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()
        for line in out.splitlines():
            if line.startswith(b"STATS "):
                self.stats = json.loads(line[6:])


class Client:
    """Open-loop HTTP/1.1 client: one connection per request, at most
    ``connections`` at once; requests waiting for one are the backlog."""

    def __init__(self, port: int, connections: int, tracer: Any) -> None:
        self.port = port
        self.slots = asyncio.Semaphore(connections)
        self.tracer = tracer
        self.backlog = 0
        self.backlog_max = 0
        self.late: list[float] = []
        self.timings: dict[str, list[float]] = {"submit": [], "poll": [], "query": []}
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.refused = 0
        self.accepted = 0
        self.results: dict[str, Any] = {}
        self.hits = 0
        self.last_terminal = 0.0
        self.requests = {"submit": 0, "poll": 0, "cancel": 0}

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    async def request(
        self, method: str, path: str, tenant: str, body: bytes, due: float, rid: str
    ) -> tuple[int, bytes, float] | None:
        """Send one request once a connection is free; ``None`` (and a
        counted failure) on connection errors, timeouts and 5xx."""
        route = "submit" if method == "POST" else "cancel" if method == "DELETE" else "poll"
        self.requests[route] += 1
        self.attempted += 1
        self.backlog += 1
        self.backlog_max = max(self.backlog_max, self.backlog)
        async with self.slots:
            sent = time.perf_counter()
            self.backlog -= 1
            self.late.append(sent - due)
            head = (
                f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
                f"authorization: Bearer {tenant}-token\r\nx-request-id: {rid}\r\n"
                f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            try:
                data = await asyncio.wait_for(self._exchange(head + body), REQUEST_TIMEOUT)
            except asyncio.TimeoutError:
                self.fail("timeout")
                return None
            except OSError:
                self.fail("connection")
                return None
        done = time.perf_counter()
        try:
            status = int(data.split(b" ", 2)[1])
        except (IndexError, ValueError):
            self.fail("connection")
            return None
        if status >= 500:
            self.fail("5xx")
            return None
        if self.tracer is not None:
            self.tracer.count(f"client.{route}", qid=rid, latency_s=done - due)
        return status, data.split(b"\r\n\r\n", 1)[1], done

    async def _exchange(self, request: bytes) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(request)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def flow(self, arrival: inputs.Arrival, t0: float) -> None:
        """One query's life: submit, maybe cancel, poll to terminal."""
        due = t0 + arrival.due
        await asyncio.sleep(max(due - time.perf_counter(), 0.0))
        tag = f"a{arrival.index}"
        reply = await self.request("POST", "/v1/queries", arrival.tenant, arrival.body, due, f"{tag}-s")
        if reply is None:
            return
        status, payload, at = reply
        if arrival.tenant == BROKE:
            if status == 402:
                self.refused += 1
            else:
                self.fail(f"status {status} for an over-budget submit")
            return
        if status != 201:
            self.fail(f"status {status} on submit")
            return
        self.accepted += 1
        self.timings["submit"].append(at - due)
        query_id = json.loads(payload)["id"]
        path = f"/v1/queries/{query_id}"
        if arrival.cancel:
            reply = await self.request("DELETE", path, arrival.tenant, b"", at, f"{tag}-c")
            if reply is None:
                return
            if reply[0] != 200:
                self.fail(f"status {reply[0]} on cancel")
                return
        poll_due = at + POLL_INTERVAL
        polls = 0
        while True:
            await asyncio.sleep(max(poll_due - time.perf_counter(), 0.0))
            polls += 1
            reply = await self.request("GET", path, arrival.tenant, b"", poll_due, f"{tag}-p{polls}")
            if reply is None:
                return
            status, payload, at = reply
            if status != 200:
                self.fail(f"status {status} on poll")
                return
            self.timings["poll"].append(at - poll_due)
            body = json.loads(payload)
            progress = body["progress"]
            if progress["state"] in TERMINAL:
                break
            if at - due > QUERY_TIMEOUT:
                self.fail("stranded")  # never reached a terminal state
                return
            poll_due += POLL_INTERVAL
        self.timings["query"].append(at - due)
        self.hits += progress["hits_completed"]
        self.last_terminal = max(self.last_terminal, at)
        state = progress["state"]
        if state == "done":
            self.results[query_id] = body["result"]
        elif state == "failed" or (state == "cancelled" and not arrival.cancel):
            self.fail(f"query ended {state}")


async def drive(seed: int, seconds: float, tracer: Any, result: Result) -> tuple[Client, Server]:
    count = max(int(RATE * seconds), 1)
    with untraced(tracer):
        arrivals = inputs.http_arrivals(seed, count, RATE, PATTERN, BROKE, TENANTS)
    journal = OUT / f"http-{seed}.journal.jsonl"
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        probe = Server(seed, journal, None)
        try:
            setups.append(await probe.start())
        finally:
            await probe.stop()
    spans = None if tracer is None else OUT / f"spans-http_open-{seed}-server.jsonl"
    server = Server(seed, journal, spans)
    try:
        setups.append(await server.start())
        client = Client(server.port, nproc(), tracer)
        t0 = time.perf_counter() + 0.1
        flows = [asyncio.ensure_future(client.flow(a, t0)) for a in arrivals]
        drain_by = t0 + arrivals[-1].due + DRAIN_TIMEOUT
        _, pending = await asyncio.wait(flows, timeout=max(drain_by - time.perf_counter(), 0.0))
        for task in pending:
            task.cancel()
        await asyncio.gather(*flows, return_exceptions=True)
        for task in flows:
            if not task.cancelled() and task.exception() is not None:
                raise task.exception()
        result.check(
            not pending,
            f"invalid run: {len(pending)} queries still open {DRAIN_TIMEOUT}s after the last arrival",
        )
    finally:
        await server.stop()
    result.add("setup_s", median(setups), "s", len(setups))
    expected_402 = sum(1 for a in arrivals if a.tenant == BROKE)
    result.check(
        client.refused == expected_402,
        f"{client.refused} over-budget submits refused with 402, expected {expected_402}",
    )
    result.attempted = client.attempted
    result.failed = sum(client.failures.values())
    if client.failures:
        result.note(f"failures: {client.failures}")
    if client.timings["query"]:
        result.add(
            "hits_per_s", client.hits / (client.last_terminal - t0), "1/s",
            len(client.timings["query"]),
        )
    add_latencies(result, client.timings)
    result.check("peak_rss_mb" in server.stats, "server exited without its STATS line")
    if "cpu_s" in server.stats:
        result.add(
            "cpu_ms_per_query", 1000.0 * server.stats["cpu_s"] / max(client.accepted, 1),
            "ms", client.accepted,
        )
    if "peak_rss_mb" in server.stats:
        result.add("peak_rss_mb", server.stats["peak_rss_mb"], "MiB", 1)
    late_p99 = 1000.0 * percentile(client.late, 99)
    result.note(
        f"{count} arrivals at {RATE}/s, {client.accepted} accepted, {client.refused} refused (402); "
        f"loadgen late p99 {late_p99:.3f} ms, backlog max {client.backlog_max}"
    )
    result.note(
        f"requests {client.requests}, {client.requests['poll'] / max(client.accepted, 1):.1f} "
        f"polls per accepted submit at {1000 * POLL_INTERVAL:g} ms; server CPU "
        f"{server.stats.get('cpu_s', 0.0):.3f} s"
    )
    if tracer is not None:
        tracer.count("loadgen.summary", late_ms_p99=late_p99, backlog_max=client.backlog_max)
        result.span_files.append(spans)
    return client, server


def verify(seed: int, client: Client, journal: Path, result: Result) -> None:
    """Re-execute the server's journal offline; every DONE result served
    must equal the re-executed query's result summary."""
    from repro.amt.trace import canonical_json
    from repro.durability import recover
    from repro.scenarios import result_summary

    system = inputs.build(seed, POOL_SIZE)
    begin = time.perf_counter()
    recovered = recover(journal, system)
    result.add("recover_s", time.perf_counter() - begin, "s", 1)
    recovered.close()
    by_id = {f"svc-{h.seq}": h for h in recovered.handles}
    result.check(
        len(by_id) == client.accepted,
        f"journal holds {len(by_id)} queries, server acknowledged {client.accepted}",
    )
    mismatched = [
        qid for qid, served in client.results.items()
        if qid not in by_id
        or json.loads(canonical_json(result_summary(by_id[qid].result()))) != served
    ]
    result.check(not mismatched, f"served results differ from re-execution: {mismatched}")
    result.note(f"{len(client.results)} served DONE results re-executed and matched")


def run(seed: int, seconds: float, tracer: Any = None) -> Result:
    result = Result("http_open")
    client, server = asyncio.run(drive(seed, seconds, tracer, result))
    with untraced(tracer):
        verify(seed, client, server.journal, result)
    server.journal.unlink(missing_ok=True)
    return result
