"""Service lifetime: a dropped service frees itself (DESIGN.md §7, §12).

The synchronous service's ownership graph is acyclic: the service owns
its records, a handle is a view that owns its service, and engine-layer
hooks (the journal observer) point back at the service only weakly.  So
a service nobody references is freed by reference counting alone, with
everything it built — records, sessions, verdicts, published HITs.

Every test here runs with the cyclic collector disabled: a service that
outlives ``del`` is held by a reference cycle, not by anything live.

A live service lets go of what it no longer reads, too: a sealed HIT
keeps its verdicts, not its raw votes, and a done market handle keeps
its counts, not its assignments (DESIGN.md §11).
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
import weakref

import pytest
from grant_log import services_logged

from repro.amt.hit import HIT, Assignment
from repro.amt.market import PublishedHIT, SimulatedMarket
from repro.durability import outcome_digest, recover
from repro.engine.query import Query
from repro.engine.service import QueryHandle, QueryState
from repro.engine.session import HITSession, SessionState
from repro.it.images import generate_images
from repro.scenarios import handle_summary
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 41


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(autouse=True)
def grant_logs():
    """Every service here holds the sessions it grants in a grant log,
    which :func:`_sessions` reads: a terminal query's record lets go of
    its own (DESIGN.md §7)."""
    with services_logged():
        yield


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


def _gold():
    return generate_tweets(["gold-movie"], per_movie=10, seed=SEED + 1)


def _tsa(subject: str, per_movie: int = 12) -> dict:
    return dict(
        tweets=generate_tweets([subject], per_movie=per_movie, seed=SEED + 2),
        gold_tweets=_gold(),
        worker_count=5,
        batch_size=4,
    )


def _standing() -> dict:
    tweets = generate_tweets(["kungfu"], per_movie=16, seed=SEED + 3)
    return dict(
        stream=TweetStream(tweets=tuple(tweets), unit_seconds=43200.0),
        windows=2,
        gold_tweets=_gold(),
        worker_count=5,
        batch_size=4,
    )


def _drive(service) -> None:
    """Every kind of query the service records: a plan-path reserved
    one, a plan-less one whose deferred plan is never read, a standing
    window query, an image query and a query cancelled mid-flight.
    Drops every handle before returning."""
    service.register_tenant("acme", priority=2.0)
    service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
        reserve=True, **_tsa("rio"),
    )
    service.submit("twitter-sentiment", movie_query("solaris", 0.9), **_tsa("solaris"))
    service.submit(
        "twitter-sentiment", movie_query("kungfu", 0.9, window=1), **_standing()
    )
    images = generate_images(per_subject=1, seed=SEED + 4)[:4]
    service.submit(
        "image-tagging",
        Query(keywords=("tags",), required_accuracy=0.85, domain="images", subject="tags"),
        images=images[:2], gold_images=images[:1], images_per_hit=2, worker_count=5,
    )
    doomed = service.submit(
        "twitter-sentiment", movie_query("alpha", 0.9), **_tsa("alpha", per_movie=24)
    )
    while doomed.progress().hits_in_flight == 0:
        service.step()
    assert doomed.cancel()
    service.run_until_idle()
    states = [h.state for h in service.handles]
    assert states.count(QueryState.CANCELLED) == 1
    assert states.count(QueryState.DONE) == 4


def test_plain_service_is_freed_on_del(small_pool):
    service = _system(small_pool).service(max_in_flight=2)
    _drive(service)
    ref = weakref.ref(service)
    del service
    assert ref() is None


def test_durable_service_is_freed_on_del(small_pool, tmp_path):
    service = _system(small_pool).service(
        max_in_flight=2, journal=tmp_path / "svc.journal.jsonl"
    )
    _drive(service)
    service.close()
    ref = weakref.ref(service)
    del service
    assert ref() is None


def test_crashed_and_recovered_services_are_freed_on_del(small_pool, tmp_path):
    path = tmp_path / "svc.journal.jsonl"
    service = _system(small_pool).service(max_in_flight=2, journal=path)
    survivor = service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio", per_movie=24)
    )
    doomed = service.submit(
        "twitter-sentiment", movie_query("alpha", 0.9), **_tsa("alpha", per_movie=24)
    )
    while doomed.progress().hits_in_flight == 0:
        service.step()
    assert doomed.cancel()
    for _ in range(4):
        service.step()
    assert not survivor.done  # crashed mid-run
    service.flush_journal()
    service.store.close()
    crashed = weakref.ref(service)
    del service, survivor, doomed
    assert crashed() is None

    recovered = recover(path, _system(small_pool))
    assert recovered.replayed_records > 0
    recovered.run_until_idle()
    recovered.close()
    assert [h.state for h in recovered.handles] == [
        QueryState.DONE, QueryState.CANCELLED,
    ]
    ref = weakref.ref(recovered)
    del recovered
    assert ref() is None


@pytest.fixture()
def built(monkeypatch):
    """Weak references to every service ``CDAS.service`` builds."""
    refs: list[weakref.ref] = []
    service = CDAS.service

    def recording(self, *args, **kwargs):
        made = service(self, *args, **kwargs)
        refs.append(weakref.ref(made))
        return made

    monkeypatch.setattr(CDAS, "service", recording)
    return refs


def test_facade_submit_frees_its_service(small_pool, built):
    result = _system(small_pool).submit(
        "twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio")
    )
    assert result is not None
    assert len(built) == 1 and built[0]() is None


def test_facade_submit_many_frees_its_service(small_pool, built):
    results = _system(small_pool).submit_many(
        [
            ("twitter-sentiment", movie_query("rio", 0.9), _tsa("rio")),
            ("twitter-sentiment", movie_query("solaris", 0.9), _tsa("solaris")),
        ],
        max_in_flight=2,
    )
    assert len(results) == 2
    assert len(built) == 1 and built[0]() is None


def test_a_held_handle_keeps_its_service_usable(small_pool):
    service = _system(small_pool).service(max_in_flight=2)
    handle = service.submit("twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio"))
    ref = weakref.ref(service)
    del service
    assert ref() is not None  # the handle owns it
    assert handle.progress().state is QueryState.QUEUED
    result = handle.result()
    assert result is not None and handle.state is QueryState.DONE
    progress = handle.progress()
    assert progress.hits_completed > 0 and progress.spend > 0
    # The deferred auto-plan resolves through the handle's own service.
    assert handle.plan is not None and handle.plan.job_name == "twitter-sentiment"
    del handle
    assert ref() is None


def test_handles_come_back_by_identity_in_order(small_pool):
    service = _system(small_pool).service(max_in_flight=2)
    subjects = ("rio", "solaris", "alpha")
    first, _, last = [
        service.submit("twitter-sentiment", movie_query(s, 0.9), **_tsa(s))
        for s in subjects
    ]
    views = service.handles
    assert views[0] is first and views[2] is last
    assert [h.seq for h in views] == [0, 1, 2]
    assert [h.query.subject for h in views] == list(subjects)
    middle = views[1]
    del views
    assert service.handles[1] is middle  # held again, so cached again
    service.run_until_idle()
    assert service.handles == (first, middle, last)


def test_record_unpickled_with_a_plan_thunk_reads_no_plan(small_pool):
    """A record snapshotted while the deferred plan was a closure holds
    ``plan_thunk = None`` (snapshots strip it) and no ``plan_args``: it
    loads without the closure's slot and its plan reads ``None``."""
    service = _system(small_pool).service(max_in_flight=2)
    handle = service.submit("twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio"))
    service.run_until_idle()
    record = handle._record
    state = dict(record.__dict__, plan_thunk=None)
    del state["plan_args"]
    old = object.__new__(type(record))
    old.__setstate__(state)
    assert not hasattr(old, "plan_thunk")
    assert old.plan_args is None
    assert QueryHandle(service, old).plan is None


# -- a sealed HIT keeps its verdicts, not its raw votes -----------------------


def _sessions(service) -> list[HITSession]:
    return service.observer.sessions


def _assert_released(service) -> None:
    """No sealed session holds a vote list; no done handle, assignments."""
    sealed = [s for s in _sessions(service) if s.state is SessionState.DONE]
    assert sealed
    for session in sealed:
        assert session._votes
        assert all(type(answered) is bool for answered in session._votes.values())
    # The market forgets a released query's HITs; its sessions, held by
    # the grant log, still hold their handles.
    done = [s.handle for s in sealed if s.handle.done]
    assert done
    assert all(h._assignments == () for h in done)


def test_sealed_sessions_and_done_hits_let_go_of_votes_and_assignments(small_pool):
    service = _system(small_pool).service(max_in_flight=2)
    _drive(service)
    _assert_released(service)
    assert any(s.questions_answered for s in _sessions(service))


def test_a_done_market_handle_reads_as_it_did_with_its_assignments(small_pool):
    market = SimulatedMarket(small_pool, seed=SEED)
    questions = tuple(
        tweet_to_question(t) for t in generate_tweets(["rio"], per_movie=3, seed=SEED)
    )
    drained = market.publish(HIT(hit_id="drained", questions=questions, assignments=3))
    workers = [w.worker_id for w in drained.workers]
    pulled = drained.collect_all()
    assert len(pulled) == 3 and drained._assignments == ()
    assert (drained.collected, drained.outstanding, drained.done) == (3, 0, True)
    assert drained.peek_time() is None and drained.next_arrival_eta() is None
    assert drained.next_submission() is None and drained.cancel() == 0
    assert drained.collected == 3
    assert [drained.worker_profile(w).worker_id for w in workers] == workers

    cancelled = market.publish(HIT(hit_id="cancelled", questions=questions, assignments=4))
    assert cancelled.next_submission() is not None
    assert cancelled.cancel() == 3 and cancelled._assignments == ()
    assert (cancelled.collected, cancelled.outstanding, cancelled.done) == (1, 0, True)
    assert cancelled.peek_time() is None and cancelled.next_submission() is None
    assert market.handle("cancelled") is cancelled and market.published_hits == 2
    assert market.ledger.charged_assignments == 4
    assert market.ledger.cancelled_assignments == 3


def _tracked_reads(pool) -> tuple[list, list, list, object]:
    """Every handle's progress after each step of a tracked run, then its
    terminal summary and every session's per-question reads."""
    service = _system(pool).service(max_in_flight=2, track_trajectories=True)
    service.register_tenant("acme", priority=2.0)
    service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), tenant="acme",
        reserve=True, **_tsa("rio"),
    )
    service.submit(
        "twitter-sentiment", movie_query("kungfu", 0.9, window=1), **_standing()
    )
    doomed = service.submit(
        "twitter-sentiment", movie_query("alpha", 0.9), **_tsa("alpha", per_movie=24)
    )
    steps = []
    while service.step():
        steps.append([h.progress() for h in service.handles])
        if not doomed.done and doomed.progress().hits_in_flight:
            assert doomed.cancel()
    assert [h.state for h in service.handles] == [
        QueryState.DONE, QueryState.DONE, QueryState.CANCELLED,
    ]
    summaries = [handle_summary(h) for h in service.handles]
    sessions = [
        (
            s.questions_answered,
            s.live_best_confidences(),
            [(qid, s.trajectory(qid), s.confidences(qid)) for qid in s._votes],
        )
        for s in _sessions(service)
    ]
    return steps, summaries, sessions, service


def test_released_reads_equal_a_twin_that_keeps_its_votes(small_pool, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(HITSession, "_release_votes", lambda self: None)
        *kept, twin = _tracked_reads(small_pool)
    assert any(
        isinstance(votes, list) and votes
        for s in _sessions(twin) for votes in s._votes.values()
    )
    *released, service = _tracked_reads(small_pool)
    _assert_released(service)
    assert released == kept
    assert outcome_digest(service) == outcome_digest(twin)


#: Bytes a finished query of :func:`_waves` may leave behind, tracked or
#: not, with its sessions held by the grant log.  It takes about 19 KB
#: untracked and 26 KB tracked, now that the service seals its result and
#: the market forgets its HITs; with the verified records' observations
#: and the market's handles it took about 32 and 40 KB.  Keeping the raw
#: votes and market assignments as well took about 57 KB, and a tracked
#: session's fold log of whole assignments about 49 KB.
RETAINED_PER_QUERY = 32_000


def _waves(service, tweets, gold, waves: int) -> None:
    """``waves`` rounds of one sentiment query per subject, each round
    run to idle.  Every round submits the same input objects, so what
    grows is what the service keeps per finished query."""
    for _ in range(waves):
        for subject, subject_tweets in tweets.items():
            service.submit(
                "twitter-sentiment", movie_query(subject, 0.9),
                tweets=subject_tweets, gold_tweets=gold,
                worker_count=5, batch_size=4,
            )
        service.run_until_idle()


def _retained_per_query(pool, track: bool) -> float:
    service = _system(pool).service(max_in_flight=8, track_trajectories=track)
    tweets = {
        subject: generate_tweets([subject], per_movie=20, seed=SEED + 2)
        for subject in (f"movie-{i}" for i in range(4))
    }
    gold = _gold()
    _waves(service, tweets, gold, 1)  # warm every cache first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        _waves(service, tweets, gold, 1)
        before = tracemalloc.get_traced_memory()[0]
        _waves(service, tweets, gold, 3)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(h.state is QueryState.DONE for h in service.handles)
    return grown / (3 * len(tweets))


def test_a_finished_query_keeps_a_bounded_footprint(small_pool):
    """Nobody reads these sessions' trajectories, so a tracked session's
    fold log outlives it: it must hold no more than the fold needs."""
    for track in (False, True):
        retained = _retained_per_query(small_pool, track)
        assert retained < RETAINED_PER_QUERY, (track, retained)


def test_a_snapshot_that_kept_votes_and_assignments_still_recovers(
    small_pool, tmp_path, monkeypatch
):
    """Snapshots written before sealed HITs let go of their votes and
    assignments carry both.  They install, drop them, and recover to the
    same outcome digest."""
    path = tmp_path / "old.journal.jsonl"
    published: list[tuple[PublishedHIT, tuple]] = []
    publish = SimulatedMarket.publish

    def keeping(market, hit):
        handle = publish(market, hit)
        published.append((handle, handle._assignments))
        return handle

    with monkeypatch.context() as patch:
        patch.setattr(HITSession, "_release_votes", lambda self: None)
        patch.setattr(SimulatedMarket, "publish", keeping)
        service = _system(small_pool).service(max_in_flight=1, journal=path)
        service.submit("twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio"))
        service.run_until_idle()
        standing = service.submit(
            "twitter-sentiment", movie_query("kungfu", 0.9, window=1), **_standing()
        )
        # Between two of the standing query's HITs: the snapshot holds a
        # sealed session of a query whose source it must regenerate.
        while not (service.quiescent and standing._record.sessions):
            assert service.step()
            service.scheduler.reap()
        assert not standing.done
        for handle, assignments in published:
            handle._assignments = assignments  # as the old code kept them
        service.snapshot()
    doomed = service.submit(
        "twitter-sentiment", movie_query("alpha", 0.9), **_tsa("alpha", per_movie=24)
    )
    while doomed.progress().hits_in_flight == 0:
        service.step()
    assert doomed.cancel()
    service.run_until_idle()
    service.close()
    digest = outcome_digest(service)

    recovered = recover(path, _system(small_pool))
    recovered.run_until_idle()
    recovered.close()
    assert 0 < recovered.replayed_events < service.scheduler.events_processed
    assert outcome_digest(recovered) == digest
    _assert_released(recovered)


def test_a_session_pickled_with_whole_assignments_loads_compact(small_pool):
    """Tracked sessions used to log ``(assignment, accuracy)`` per arrival,
    gold answers included.  Pickled that way, a session loads with the
    compact log and reads the same trajectories."""
    service = _system(small_pool).service(max_in_flight=1, track_trajectories=True)
    service.submit("twitter-sentiment", movie_query("rio", 0.9), **_tsa("rio"))
    service.run_until_idle()
    session = _sessions(service)[0]
    compact = list(session._unfolded)
    assert compact
    gold = [q for q in session._hit.questions if q.is_gold]
    assert gold
    session._unfolded = [
        (
            Assignment(
                hit_id=session.hit_id,
                worker_id=worker_id,
                answers={
                    **{q.question_id: q.options[0] for q in gold},
                    **{
                        q.question_id: answer
                        for q, answer in zip(session._real, answers)
                        if answer is not None
                    },
                },
                keywords={
                    q.question_id: reasons
                    for q, reasons in zip(session._real, keywords)
                    if reasons
                },
                submit_time=submit_time,
            ),
            accuracy,
        )
        for worker_id, accuracy, submit_time, answers, keywords in compact
    ]
    copy = pickle.loads(pickle.dumps(session))
    session._unfolded = compact
    assert copy._unfolded == compact
    for q in session._real:
        assert copy.trajectory(q.question_id) == session.trajectory(q.question_id)
