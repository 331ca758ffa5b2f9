"""``batch``: the offline analytics path.

An in-process :class:`SchedulerService` (no journal) runs eight tenants'
sentiment queries (three of 100 tweets each per tenant) and four
image-tagging queries to idle.
Each round builds a fresh system from the same seed, so every round
must reproduce the same outcome digest; rounds repeat until the run's
time is up and each timing is the median over rounds (or the
percentile over all queries of all rounds).

Stresses ``amt``, ``core`` and ``engine``; ``aio``, ``gateway``,
``durability`` and ``cluster`` do no work.
"""

from __future__ import annotations

import time
from typing import Any

import inputs
from common import DEFAULT_SEED, Result, add_latencies, load_pins, median, peak_rss_mb

SLOTS = 8
POOL_SIZE = 300


def drive(service: Any, subs: list[inputs.Submission], timings: dict[str, list[float]]) -> list[Any]:
    """Submit every query, then pump to idle, timing the submits and
    each query's submit-to-terminal time."""
    clock = time.perf_counter
    handles = []
    submitted = []
    for sub in subs:
        start = clock()
        handles.append(
            service.submit(sub.job, sub.query(), tenant=sub.tenant, **sub.inputs)
        )
        end = clock()
        timings["submit"].append(end - start)
        submitted.append(start)
    open_ = list(range(len(handles)))
    while service.step():
        still = []
        for index in open_:
            if handles[index].done:
                timings["query"].append(clock() - submitted[index])
            else:
                still.append(index)
        open_ = still
    now = clock()
    for index in open_:  # terminal at idle; none left normally
        timings["query"].append(now - submitted[index])
    return handles


def run(seed: int, seconds: float, tracer: Any = None) -> Result:
    from repro.durability import outcome_digest

    result = Result("batch")
    subs = inputs.batch_submissions(seed)
    timings: dict[str, list[float]] = {"submit": [], "query": []}
    setups: list[float] = []
    rates: list[float] = []
    cpus: list[float] = []
    digests: set[str] = set()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not rates:
        start = time.perf_counter()
        cdas = inputs.build(seed, POOL_SIZE)
        service = cdas.service(max_in_flight=SLOTS, track_trajectories=False)
        for index, tenant in enumerate(inputs.TENANTS):
            service.register_tenant(tenant, priority=1.0 + index % 3)
        setups.append(time.perf_counter() - start)

        begin, cpu = time.perf_counter(), time.process_time()
        handles = drive(service, subs, timings)
        wall = time.perf_counter() - begin
        cpus.append(1000.0 * (time.process_time() - cpu) / len(handles))
        hits = sum(h.progress().hits_completed for h in handles)
        rates.append(hits / wall)
        result.attempted += len(handles)
        not_done = {h.query.subject: h.state.value for h in handles if h.state.value != "done"}
        result.failed += len(not_done)
        result.check(not not_done, f"queries not DONE: {not_done}")
        digests.add(outcome_digest(service))

    result.check(len(digests) == 1, f"rounds disagree: digests {sorted(digests)}")
    if seed == DEFAULT_SEED:
        pinned = load_pins()["batch"]
        result.check(digests == {pinned}, f"digest {sorted(digests)} != pinned {pinned}")
    result.note(f"digest {sorted(digests)[0]} over {len(rates)} rounds, {hits} HITs each")
    result.add("setup_s", median(setups), "s", len(setups))
    result.add("hits_per_s", median(rates), "1/s", len(rates))
    result.add("cpu_ms_per_query", median(cpus), "ms", len(cpus))
    add_latencies(result, timings)
    result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    return result
