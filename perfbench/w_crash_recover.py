"""``crash_recover``: a journaled service crashes and is recovered.

Each round builds a journaled in-process service, submits many small
sentiment queries across many tenants, cancels a fixed few early, and
crashes at a fixed step: the journal is left with its synced prefix
plus a torn half-record, and the service is abandoned.  A fresh system
then ``recover()``\\ s the journal with the defaults and runs it to
completion.

Checks: every query ends DONE except the cancelled ones, which end
CANCELLED; the recovered-and-finished digest equals that of the same
run without a crash (and, at the default seed, the pinned digest).

Stresses ``durability`` (writes in the run phase; journal reads, codec
decode and re-execution in recovery) over ``amt``/``core``/``engine``;
``aio``, ``gateway`` and ``cluster`` do no work.
"""

from __future__ import annotations

import time
from typing import Any

import inputs
from common import (
    DEFAULT_SEED, OUT, Result, add_latencies, load_pins, median, peak_rss_mb, untraced,
)
from w_batch import POOL_SIZE

QUERIES = 48
TENANTS = 12
SLOTS = 4
#: Queries cancelled (by submission index) once the run reaches CANCEL_AT.
CANCELLED = (41, 44, 47)
CANCEL_AT = 40
#: The crash comes at this share of the uncrashed run's steps.
CRASH_SHARE = 0.6


def start(seed: int, journal: Any) -> Any:
    service = inputs.build(seed, POOL_SIZE).service(
        max_in_flight=SLOTS, track_trajectories=False, journal=journal,
        journal_meta={"seed": seed},
    )
    for index in range(TENANTS):
        service.register_tenant(f"t{index:02d}", priority=1.0 + index % 2)
    return service


def pump(service: Any, handles: list[Any], submitted: list[float], stop_at: int | None,
         timings: dict[str, list[float]], cancel: bool) -> int:
    """Step until idle or ``stop_at`` steps, timing each query from its
    submit until it is terminal; with ``cancel``, cancel the chosen few
    at step CANCEL_AT (a recovered service replays those cancels)."""
    open_ = [i for i, h in enumerate(handles) if not h.done]
    steps = 0
    while stop_at is None or steps < stop_at:
        if cancel and steps == CANCEL_AT:
            for index in CANCELLED:
                handles[index].cancel()
        if not service.step():
            break
        steps += 1
        still = []
        for index in open_:
            if handles[index].done:
                timings["query"].append(time.perf_counter() - submitted[index])
            else:
                still.append(index)
        open_ = still
    return steps


def submit_all(service: Any, subs: list[inputs.Submission],
               timings: dict[str, list[float]]) -> tuple[list[Any], list[float]]:
    handles = []
    submitted = []
    for sub in subs:
        begin = time.perf_counter()
        handles.append(service.submit(sub.job, sub.query(), tenant=sub.tenant, **sub.inputs))
        timings["submit"].append(time.perf_counter() - begin)
        submitted.append(begin)
    return handles, submitted


def crash(service: Any, path: Any) -> None:
    """Kill the service mid-write: keep the synced prefix and leave half
    of one more record torn at the end of the file."""
    service.flush_journal()
    service.store.close()
    with open(path, "ab") as fh:
        fh.write(b'{"k":"ev","t":')


def expected_states(handles: list[Any]) -> dict[str, str]:
    want = {h.query.subject: "done" for h in handles}
    for index in CANCELLED:
        want[f"m{index}"] = "cancelled"
    return want


def run(seed: int, seconds: float, tracer: Any = None) -> Result:
    from repro.durability import outcome_digest, recover

    result = Result("crash_recover")
    subs = inputs.small_submissions(seed, QUERIES, TENANTS)
    with untraced(tracer):
        # The same run, journaled, without a crash: the reference outcome
        # and the step count that places the crash.
        scratch: dict[str, list[float]] = {"submit": [], "query": []}
        path = OUT / f"crash-{seed}-ref.journal.jsonl"
        path.unlink(missing_ok=True)
        reference = start(seed, path)
        ref_handles, submitted = submit_all(reference, subs, scratch)
        total_steps = pump(reference, ref_handles, submitted, None, scratch, cancel=True)
        reference.close()
        ref_digest = outcome_digest(reference)
        path.unlink()
    result.check(
        {h.query.subject: h.state.value for h in ref_handles} == expected_states(ref_handles),
        "uncrashed reference run: queries not in their expected states",
    )
    crash_at = int(total_steps * CRASH_SHARE)

    timings: dict[str, list[float]] = {"submit": [], "query": []}
    setups: list[float] = []
    rates: list[float] = []
    recoveries: list[float] = []
    cpus: list[float] = []
    digests: set[str] = set()
    deadline = time.perf_counter() + seconds
    round_index = 0
    while time.perf_counter() < deadline or not rates:
        path = OUT / f"crash-{seed}-{round_index}.journal.jsonl"
        path.unlink(missing_ok=True)
        round_index += 1
        begin = time.perf_counter()
        service = start(seed, path)
        setups.append(time.perf_counter() - begin)

        begin, cpu0 = time.perf_counter(), time.process_time()
        handles, submitted = submit_all(service, subs, timings)
        pump(service, handles, submitted, crash_at, timings, cancel=True)
        wall = time.perf_counter() - begin
        rates.append(sum(h.progress().hits_completed for h in handles) / wall)
        result.attempted += len(handles)
        crash(service, path)
        cpu = time.process_time() - cpu0

        # Restart: rebuild the system, recover, finish.  Queries the crash
        # interrupted are timed from their original submit to terminal.
        system = inputs.build(seed, POOL_SIZE)
        begin, cpu0 = time.perf_counter(), time.process_time()
        recovered = recover(path, system)
        recoveries.append(time.perf_counter() - begin)
        pump(recovered, list(recovered.handles), submitted, None, timings, cancel=False)
        recovered.close()
        cpus.append(1000.0 * (cpu + time.process_time() - cpu0) / len(handles))
        path.unlink()

        with untraced(tracer):
            states = {h.query.subject: h.state.value for h in recovered.handles}
            want = expected_states(handles)
            wrong = {s: v for s, v in states.items() if v != want.get(s)}
            result.failed += len(wrong) + abs(len(states) - len(want))
            result.check(
                not wrong and len(states) == len(want),
                f"recovered queries not in their expected states: {wrong}",
            )
            digests.add(outcome_digest(recovered))

    result.check(
        digests == {ref_digest},
        f"recovered digests {sorted(digests)} != uncrashed run's {ref_digest}",
    )
    if seed == DEFAULT_SEED:
        pinned = load_pins()["crash_recover"]
        result.check(ref_digest == pinned, f"digest {ref_digest} != pinned {pinned}")
    result.note(
        f"digest {ref_digest}; crash at step {crash_at} of {total_steps}; "
        f"{len(rates)} rounds"
    )
    result.add("setup_s", median(setups), "s", len(setups))
    result.add("hits_per_s", median(rates), "1/s", len(rates))
    result.add("cpu_ms_per_query", median(cpus), "ms", len(cpus))
    result.add("recover_s", median(recoveries), "s", len(recoveries))
    add_latencies(result, timings)
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    return result
