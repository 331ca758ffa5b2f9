"""Service lifetime: a dropped service frees itself (DESIGN.md §7, §12).

The synchronous service's ownership graph is acyclic: the service owns
its records, a handle is a view that owns its service, and engine-layer
hooks (the journal observer) point back at the service only weakly.  So
a service nobody references is freed by reference counting alone, with
everything it built — records, sessions, verdicts, published HITs.

Every test here runs with the cyclic collector disabled: a service that
outlives ``del`` is held by a reference cycle, not by anything live.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.amt.market import SimulatedMarket
from repro.durability import recover
from repro.engine.query import Query
from repro.engine.service import QueryHandle, QueryState
from repro.it.images import generate_images
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
