"""Canned, seed-deterministic workloads for trace record/replay.

A trace file fixes what the *market* served; reproducing a recorded run
also needs the *engine side* re-driven identically — same queries, same
seeds, same submission script.  This module holds that script: named
scenarios that run a fixed workload against any
:class:`~repro.amt.backend.MarketBackend`, so the same function drives

* the recording run (against a simulated or slow market wrapped in a
  :class:`~repro.amt.trace.TraceRecorder`), and
* every replay (against a :class:`~repro.amt.trace.TraceReplayBackend`),

with the scenario name and seed stored in the trace header — a trace
file is self-describing and :func:`replay_scenario` needs nothing else.

Each scenario returns a *canonical outcome*: a JSON-serialisable summary
of every query's verdicts, progress and spend plus the ledger totals.
The recording pins its outcome inside the trace (``expect`` record); a
replay whose outcome differs bit-for-bit raises an
``outcome-mismatch`` :class:`~repro.amt.trace.TraceDivergence`.  That
equality — across interpreter versions — is the CI determinism gate.

Scenarios
---------
``mixed-service``
    Calibration plus three queries (two TSA movies, one IT batch) from
    two tenants through one weighted-priority scheduler service — the
    DESIGN.md §7 serving surface end to end.
``cancel-mid-flight``
    Two TSA queries; one is cancelled after a fixed number of pump
    steps while its HITs are still collecting, exercising the
    charge-final cancel path (withdrawn batches, forfeited assignments)
    through the backend.
``preadmission``
    The plan-first lifecycle (DESIGN.md §10): one query is planned,
    reserved and run to completion; a second, whose §3.1 projection
    exceeds the tenant's remaining budget, is refused at admission with
    a counter-offer — touching the market not at all, which is exactly
    what makes the trace replayable: a refused query leaves no record.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.amt.backend import MarketBackend
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.slow import SlowBackend
from repro.amt.trace import TraceDivergence, TraceRecorder, TraceReplayBackend
from repro.util.records import canonical_json

__all__ = [
    "SCENARIOS",
    "ScenarioReport",
    "build_market",
    "handle_summary",
    "ledger_summary",
    "record_scenario",
    "replay_scenario",
    "result_summary",
    "run_scenario",
]

#: Pool size every scenario's simulated market draws from.
_POOL_SIZE = 120


@dataclass(frozen=True)
class ScenarioReport:
    """What a record or replay run produced.

    Attributes
    ----------
    scenario / seed:
        The workload identity (also in the trace header).
    outcome:
        The canonical outcome summary (pinned in the trace on record,
        compared against the pin on replay).
    fingerprint:
        The interaction-stream digest (recorder's on record, the
        replayed-and-verified digest on replay).
    trace_path:
        Where the trace lives.
    """

    scenario: str
    seed: int
    outcome: dict[str, Any]
    fingerprint: str
    trace_path: Path


# -- outcome canonicalisation -------------------------------------------------


def _round6(value: float) -> float:
    """Stabilise float *presentation* without losing bit-exactness concerns:
    every value passing through here is produced by identical arithmetic on
    record and replay, so rounding is cosmetic — it only keeps the JSON
    compact."""
    return round(value, 6)


def _records_summary(records) -> list[list[Any]]:
    """Per-question verdicts: ``[question_id, answer, confidence]``."""
    return [
        [
            r.question.question_id,
            r.verdict.answer,
            None if r.verdict.confidence is None else _round6(r.verdict.confidence),
        ]
        for r in records
    ]


def _hits_summary(hit_results) -> list[list[Any]]:
    return [
        [
            h.hit_id,
            h.workers_hired,
            h.assignments_collected,
            h.assignments_cancelled,
            h.terminated_early,
            _round6(h.cost),
        ]
        for h in hit_results
    ]


def _result_summary(result: Any) -> dict[str, Any]:
    """Canonicalise a TSAResult / ITResult (duck-typed on shape)."""
    summary: dict[str, Any] = {
        "verdicts": _records_summary(result.records),
        "hits": _hits_summary(result.hit_results),
        "cost": _round6(result.cost),
    }
    report = getattr(result, "report", None)
    if report is not None:
        summary["report"] = {
            "subject": report.subject,
            "question_count": report.question_count,
            "rows": [
                [row.label, _round6(row.percentage), list(row.reasons)]
                for row in report.rows
            ],
        }
    return summary


#: The projection of :meth:`QueryProgress.to_dict` a canonical outcome pins.
#: Golden traces hash the *key set* (``canonical_json`` sorts keys), so the
#: outcome deliberately keeps the original subset even as ``to_dict`` grows
#: transient fields (``hits_in_flight``, ``budget_exhausted``).
_PROGRESS_OUTCOME_KEYS = (
    "state",
    "items_answered",
    "items_finalized",
    "hits_completed",
    "accuracy_estimate",
    "spend",
)


def _handle_summary(handle) -> dict[str, Any]:
    """Canonicalise one query handle's terminal observation."""
    progress = handle.progress().to_dict()
    summary: dict[str, Any] = {
        "job": handle.job_name,
        "subject": handle.query.subject,
        "tenant": handle.tenant,
    }
    summary.update({key: progress[key] for key in _PROGRESS_OUTCOME_KEYS})
    if summary["state"] == "done":
        summary["result"] = _result_summary(handle.result())
    return summary


def _ledger_summary(ledger) -> dict[str, Any]:
    return {
        "charged_assignments": ledger.charged_assignments,
        "cancelled_assignments": ledger.cancelled_assignments,
        "total_cost": _round6(ledger.total_cost),
        "avoided_cost": _round6(ledger.avoided_cost),
    }


# Public aliases: the gateway's JSON codec serves the *same* canonical shapes
# the determinism gate pins, so HTTP results fingerprint-compare against
# in-process runs byte for byte.
result_summary = _result_summary
handle_summary = _handle_summary
ledger_summary = _ledger_summary


# -- the scenarios ------------------------------------------------------------


def _run_mixed_service(backend: MarketBackend, seed: int) -> dict[str, Any]:
    """Calibration + mixed TSA/IT queries from two tenants on one service."""
    from repro.it.images import generate_images
    from repro.system import CDAS
    from repro.tsa.app import movie_query
    from repro.tsa.tweets import generate_tweets, tweet_to_question

    cdas = CDAS.with_default_jobs(backend, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=seed + 1)
    cdas.calibrate(
        [tweet_to_question(t) for t in gold], workers_per_hit=6, hits=1
    )
    tweets = generate_tweets(["rio", "solaris"], per_movie=12, seed=seed + 2)
    images = generate_images(per_subject=1, seed=seed + 3)[:3]
    gold_images = generate_images(per_subject=1, seed=seed + 4)

    service = cdas.service(max_in_flight=3)
    service.register_tenant("acme", priority=2.0)
    service.register_tenant("globex", priority=1.0)
    handles = [
        service.submit(
            "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
            tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=6,
        ),
        service.submit(
            "twitter-sentiment", movie_query("solaris", 0.9), tenant="globex",
            tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=6,
        ),
        service.submit(
            "image-tagging", movie_query("images", 0.9), tenant="globex",
            images=images, gold_images=gold_images, worker_count=4,
        ),
    ]
    service.run_until_idle()
    return {
        "scenario": "mixed-service",
        "seed": seed,
        "handles": [_handle_summary(h) for h in handles],
        "tenants": {
            name: _round6(service.tenant_spend(name))
            for name in ("acme", "globex")
        },
        "ledger": _ledger_summary(backend.ledger),
    }


#: Submission events processed before the first query is cancelled in
#: ``cancel-mid-flight``.  Counting *events* (not pump steps) keeps the
#: trigger pacing-invariant: a SlowBackend recording and a compressed
#: replay interleave dormant steps differently, but the Nth submission
#: is the same submission everywhere.
_CANCEL_AFTER_EVENTS = 9


def _run_cancel_mid_flight(backend: MarketBackend, seed: int) -> dict[str, Any]:
    """Cancel one of two TSA queries while its HITs are still collecting."""
    from repro.engine.scheduler import sleep_until_arrival
    from repro.system import CDAS
    from repro.tsa.app import movie_query
    from repro.tsa.tweets import generate_tweets

    cdas = CDAS.with_default_jobs(backend, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=seed + 1)
    tweets = generate_tweets(["rio", "solaris"], per_movie=12, seed=seed + 2)

    service = cdas.service(max_in_flight=2)
    doomed = service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
        tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=4,
    )
    survivor = service.submit(
        "twitter-sentiment", movie_query("solaris", 0.9), tenant="acme",
        tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=6,
    )
    cancelled = False
    while True:
        progressed = service.step()
        if (
            not cancelled
            and service.scheduler.events_processed >= _CANCEL_AFTER_EVENTS
        ):
            doomed.cancel()
            cancelled = True
        if progressed:
            continue
        eta = service.next_arrival_eta()
        if eta is None:
            break
        sleep_until_arrival(eta)
    service.run_until_idle()
    return {
        "scenario": "cancel-mid-flight",
        "seed": seed,
        "cancelled_after_events": _CANCEL_AFTER_EVENTS if cancelled else None,
        "handles": [_handle_summary(doomed), _handle_summary(survivor)],
        "ledger": _ledger_summary(backend.ledger),
    }


def _run_preadmission(backend: MarketBackend, seed: int) -> dict[str, Any]:
    """Plan-gated admission: reserve-and-run one query, refuse another.

    The refused query's projection exceeds the tenant's remaining
    (committed-adjusted) budget, so ``submit(plan=...)`` raises
    :class:`~repro.engine.planner.PlanInfeasible` with a counter-offer
    and performs **zero** market interactions — the outcome pins the
    refusal's numbers and that nothing was spent or scheduled for it.
    """
    from repro.engine.planner import PlanInfeasible
    from repro.system import CDAS
    from repro.tsa.app import movie_query
    from repro.tsa.tweets import generate_tweets, tweet_to_question

    cdas = CDAS.with_default_jobs(backend, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=8, seed=seed + 1)
    cdas.calibrate(
        [tweet_to_question(t) for t in gold], workers_per_hit=6, hits=1
    )
    tweets = generate_tweets(["rio", "solaris"], per_movie=12, seed=seed + 2)

    service = cdas.service(max_in_flight=2)
    service.register_tenant("acme", budget_cap=0.40)
    admitted_plan = service.plan(
        "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
        tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=6,
    )
    admitted = service.submit(plan=admitted_plan)

    refused_plan = service.plan(
        "twitter-sentiment", movie_query("solaris", 0.9), tenant="acme",
        tweets=tweets, gold_tweets=gold, worker_count=7, batch_size=2,
    )
    events_before = service.scheduler.events_processed
    spend_before = backend.ledger.total_cost
    refusal: dict[str, Any] | None = None
    try:
        service.submit(plan=refused_plan)
    except PlanInfeasible as exc:
        offer = exc.counter_offer
        refusal = {
            "subject": refused_plan.query.subject,
            "projected_cost": _round6(refused_plan.projected_cost),
            "projected_hits": refused_plan.projected_hits,
            "tenant_remaining": _round6(exc.decision.tenant_remaining),
            "counter_offer": {
                "budget": _round6(offer.budget),
                "workers_per_item": offer.workers_per_item,
                "achievable_accuracy": (
                    None
                    if offer.achievable_accuracy is None
                    else _round6(offer.achievable_accuracy)
                ),
                "affordable_windows": offer.affordable_windows,
            },
            "events_during_refusal": (
                service.scheduler.events_processed - events_before
            ),
            "spend_during_refusal": _round6(
                backend.ledger.total_cost - spend_before
            ),
        }
    service.run_until_idle()
    return {
        "scenario": "preadmission",
        "seed": seed,
        "plan": {
            "workers_per_item": admitted_plan.workers_per_item,
            "projected_hits": admitted_plan.projected_hits,
            "projected_cost": _round6(admitted_plan.projected_cost),
            "expected_accuracy": _round6(admitted_plan.expected_accuracy),
            "mean_accuracy": _round6(admitted_plan.mean_accuracy),
        },
        "handles": [_handle_summary(admitted)],
        "refusal": refusal,
        "tenants": {"acme": _round6(service.tenant_spend("acme"))},
        "ledger": _ledger_summary(backend.ledger),
    }


#: name → workload; each drives a full run against any backend.
SCENARIOS: dict[str, Callable[[MarketBackend, int], dict[str, Any]]] = {
    "mixed-service": _run_mixed_service,
    "cancel-mid-flight": _run_cancel_mid_flight,
    "preadmission": _run_preadmission,
}


def run_scenario(name: str, backend: MarketBackend, seed: int) -> dict[str, Any]:
    """Run one named scenario against ``backend``; returns its outcome."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    return runner(backend, seed)


def build_market(seed: int, delay: float | None = None) -> MarketBackend:
    """The market every recording run uses: simulated, optionally slowed.

    ``delay`` wraps the simulated market in a
    :class:`~repro.amt.slow.SlowBackend` so submissions take real
    wall-clock time — recorded offsets then carry real waiting for
    replay to compress (or reproduce, at ``time_scale=1``).
    """
    pool = WorkerPool.from_config(PoolConfig(size=_POOL_SIZE), seed=seed)
    market: MarketBackend = SimulatedMarket(pool, seed=seed)
    if delay is not None:
        market = SlowBackend(market, delay=delay)
    return market


def record_scenario(
    name: str,
    path: str | Path,
    seed: int = 0,
    delay: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> ScenarioReport:
    """Run a scenario against a fresh simulated market, recording a trace.

    The trace header stores the scenario name, seed and delay; the
    outcome is pinned in an ``expect`` record, so the file alone suffices
    for :func:`replay_scenario`.
    """
    market = build_market(seed, delay=delay)
    meta = {"scenario": name, "seed": seed, "delay": delay}
    with TraceRecorder(market, path, meta=meta, clock=clock) as recorder:
        outcome = run_scenario(name, recorder, seed)
        recorder.record_expectation(outcome)
        fingerprint = recorder.fingerprint()
    return ScenarioReport(
        scenario=name,
        seed=seed,
        outcome=outcome,
        fingerprint=fingerprint,
        trace_path=Path(path),
    )


def replay_scenario(
    path: str | Path,
    time_scale: float = 0.0,
    clock: Callable[[], float] = time.monotonic,
) -> ScenarioReport:
    """Replay a recorded scenario trace through a fresh engine.

    Reads the scenario name and seed from the trace header, re-drives
    the workload against a :class:`~repro.amt.trace.TraceReplayBackend`,
    verifies the whole recording was consumed, and compares the outcome
    against the recording's pinned expectation.

    Raises
    ------
    TraceError
        The file is truncated, corrupt, or not a trace.
    TraceDivergence
        The engine deviated from the recording, stopped short of it, or
        produced a different outcome (``outcome-mismatch``).
    """
    backend = TraceReplayBackend.load(path, time_scale=time_scale, clock=clock)
    meta = backend.trace.meta
    name = meta.get("scenario")
    if name is None:
        raise TraceDivergence(
            "outcome-mismatch",
            f"trace {path} carries no scenario in its header meta; replay "
            "it manually through TraceReplayBackend",
        )
    outcome = run_scenario(name, backend, meta.get("seed", 0))
    fingerprint = backend.verify_complete()
    expected = backend.trace.expect
    if expected is not None and canonical_json(outcome) != canonical_json(expected):
        raise TraceDivergence(
            "outcome-mismatch",
            _first_outcome_difference(expected, outcome),
        )
    return ScenarioReport(
        scenario=name,
        seed=meta.get("seed", 0),
        outcome=outcome,
        fingerprint=fingerprint,
        trace_path=Path(path),
    )


def _first_outcome_difference(
    expected: Mapping[str, Any], actual: Mapping[str, Any]
) -> str:
    """Human-readable pointer at the first key whose value drifted."""
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        a, b = expected.get(key), actual.get(key)
        if canonical_json(a) != canonical_json(b):
            return (
                f"outcome[{key!r}] drifted: recorded {canonical_json(a)[:200]} "
                f"… replayed {canonical_json(b)[:200]}"
            )
    return "outcomes differ (key sets match — nested drift)"
