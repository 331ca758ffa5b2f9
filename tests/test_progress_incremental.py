"""Differential test: incremental query progress == a from-scratch walk.

``QueryHandle.progress()`` and ``_QueryRecord.spend()`` read a cached
aggregate of each query's leading run of sealed sessions and walk only the
sessions past it.  This file keeps the plain reference — every session,
every ledger cost term, every confidence recomputed from Equation 4 — and
checks, after every ``step()`` of one seeded durable run, that both agree
exactly (``==`` on every field, including the float accuracy estimate,
and the same ``type()`` of spend).  The run mixes everything that moves
the sealed prefix: a capped tenant, a budget-exhausted query, a reserved
standing query, a mid-flight cancel, a cancel that withdraws a granted but
unpublished session, and a snapshot + ``recover()`` round-trip whose
restored records carry their pickled aggregates.

A query's record lets go of its sessions once the query is terminal, so
the reference walks the sessions each service's grant log holds.
"""

from __future__ import annotations

from grant_log import GrantLog, services_logged

from repro.amt.market import SimulatedMarket
from repro.durability import recover
from repro.engine.query import Query
from repro.engine.service import QueryProgress, QueryState
from repro.engine.session import SessionState
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 4242


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


# -- the from-scratch reference ----------------------------------------------


def _granted(handle) -> list:
    """Every session granted to the handle's query, in grant order.  A
    withdrawn one is never published and adds nothing below."""
    return handle._service.observer.of(handle.seq)


def reference_spend(handle) -> float:
    """Every published session's ledger cost, in session order."""
    ledger = handle._service.engine.market.ledger
    return sum(
        ledger.cost_of(session.hit_id)
        for session in _granted(handle)
        if session.handle is not None
    )


def reference_progress(handle) -> QueryProgress:
    """Walk every session; recompute each live best confidence."""
    record = handle._record
    answered = finalized = completed = in_flight = 0
    confidences: list[float] = []
    for session in _granted(handle):
        answered += session.questions_answered
        if session.result is not None:
            completed += 1
            finalized += len(session.result.records)
            confidences.extend(
                r.verdict.confidence
                for r in session.result.records
                if r.verdict.confidence is not None
            )
            continue
        if session.state is SessionState.COLLECTING:
            in_flight += 1
        confidences.extend(
            max(session.confidences(qid).values())
            for qid, votes in session._votes.items()
            if votes
        )
    return QueryProgress(
        state=record.state,
        items_answered=answered,
        items_finalized=finalized,
        hits_completed=completed,
        hits_in_flight=in_flight,
        accuracy_estimate=(
            sum(confidences) / len(confidences) if confidences else None
        ),
        spend=reference_spend(handle),
        budget_exhausted=record.budget_exhausted,
    )


def _check(service) -> None:
    for handle in service.handles:
        expected = reference_progress(handle)
        got = handle.progress()
        assert got == expected, (handle.seq, got, expected)
        assert type(got.spend) is type(expected.spend)
        assert handle.spend == expected.spend
        assert type(handle.spend) is type(expected.spend)


def _step_checked(service) -> bool:
    stepped = service.step()
    _check(service)
    return stepped


def _tsa(subject: str, **inputs) -> dict:
    return {
        "job_name": "twitter-sentiment",
        "query": Query(keywords=(subject,), required_accuracy=0.9,
                       domain="movies", subject=subject),
        "batch_size": 4,
        "worker_count": 5,
        **inputs,
    }


def _snapshots(path) -> int:
    return len(list(path.parent.glob(f"{path.name}.snap-*")))


def _run_until_snapshot_then_crash(service, path):
    """Drive the mixed workload; return a journal copy cut just after the
    first auto-snapshot that follows the cancels."""
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    images = generate_images(per_subject=1, seed=SEED + 3)[:6]
    service.register_tenant("acme", budget_cap=0.9, priority=2.0)
    service.register_tenant("beta")
    standing = service.submit(
        tenant="acme", gold_tweets=gold, reserve=True, windows=3,
        stream=TweetStream(
            tweets=tuple(generate_tweets(["rio"], per_movie=36, seed=SEED + 2)),
            unit_seconds=43200.0,
        ),
        **_tsa("rio"),
    )
    capped = service.submit(
        tenant="acme", gold_tweets=gold,
        tweets=generate_tweets(["up"], per_movie=24, seed=SEED + 5),
        **_tsa("up"),
    )
    frugal = service.submit(
        "image-tagging",
        Query(keywords=("tags",), required_accuracy=0.85, domain="images",
              subject="frugal"),
        tenant="beta", budget=0.3, images=images, gold_images=images[:1],
        images_per_hit=1, worker_count=5,
    )
    doomed = service.submit(
        tenant="beta", gold_tweets=gold,
        tweets=generate_tweets(["solaris"], per_movie=12, seed=SEED + 4),
        **_tsa("solaris"),
    )
    _check(service)
    while doomed.progress().items_answered == 0:
        assert _step_checked(service)
    assert doomed.state is QueryState.RUNNING
    assert doomed.cancel()
    _check(service)

    # Cancel between the slot grant and the publish: the only moment a
    # granted session is unpublished, so cancel withdraws it.
    withdrawn = service.submit(
        tenant="beta", gold_tweets=gold,
        tweets=generate_tweets(["heat"], per_movie=8, seed=SEED + 6),
        **_tsa("heat"),
    )
    while not any(s.handle is None for s in withdrawn._record.sessions):
        service.scheduler.reap()
        service._admit_queued()
        service._fill_slots()
        _check(service)
        if not any(s.handle is None for s in withdrawn._record.sessions):
            assert _step_checked(service)
    granted = len(withdrawn._record.sessions)
    assert withdrawn.cancel()
    assert len(withdrawn._record.sessions) < granted
    _check(service)

    snapshots_before = _snapshots(path)
    while _snapshots(path) == snapshots_before:
        assert _step_checked(service)
    service.flush_journal()
    crashed = path.with_name("crashed.journal.jsonl")
    crashed.write_bytes(path.read_bytes())
    return crashed, (standing, capped, frugal, doomed, withdrawn)


def _hold_finished_sessions(recovered, uncrashed) -> None:
    """A query terminal in the snapshot comes back without sessions; its
    reference walks the ones the uncrashed run granted it."""
    for handle in recovered.handles:
        if handle.done and not _granted(handle):
            recovered.observer.by_seq[handle.seq] = _granted(uncrashed.handles[handle.seq])


def test_incremental_progress_matches_reference_every_step(small_pool, tmp_path):
    path = tmp_path / "svc.journal.jsonl"
    service = _system(small_pool).service(
        max_in_flight=2, journal=path, snapshot_every=6
    )
    GrantLog(service)
    crashed, handles = _run_until_snapshot_then_crash(service, path)
    standing, capped, frugal, doomed, withdrawn = handles
    # The uninterrupted run finishes under the same check...
    while _step_checked(service):
        pass
    service.close()
    assert standing.state is QueryState.DONE
    assert capped.progress().budget_exhausted
    assert frugal.progress().budget_exhausted
    assert doomed.state is withdrawn.state is QueryState.CANCELLED
    assert standing.progress().hits_completed > 2
    expected = {h.seq: h.progress() for h in service.handles}

    # ...and so does the recovered one, from its pickled aggregates on.
    with services_logged():
        recovered = recover(crashed, _system(small_pool))
    _hold_finished_sessions(recovered, service)
    assert any(h._record._sealed.length for h in recovered.handles)
    _check(recovered)
    while _step_checked(recovered):
        pass
    recovered.close()
    assert {h.seq: h.progress() for h in recovered.handles} == expected


def test_record_unpickled_without_the_aggregate_starts_it_empty(small_pool):
    """A record pickled before the aggregate existed (it held an id-keyed
    cache instead) rebuilds the aggregate on its first poll."""
    service = _system(small_pool).service(max_in_flight=2)
    log = GrantLog(service)
    handle = service.submit(
        gold_tweets=generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1),
        tweets=generate_tweets(["rio"], per_movie=12, seed=SEED + 2),
        **_tsa("rio"),
    )
    service.run_until_idle()
    expected = handle.progress()
    record = handle._record
    # Such a record also still held its sessions.
    state = dict(
        record.__dict__, _sealed_progress={}, sessions=log.of(handle.seq)
    )
    del state["_sealed"]
    old = object.__new__(type(record))
    old.__setstate__(state)
    assert not hasattr(old, "_sealed_progress")
    handle._record = old
    assert handle.progress() == expected
    assert old._sealed.length == expected.hits_completed
