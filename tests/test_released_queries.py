"""A finished query lets go of its HIT sessions (DESIGN.md §7, §11).

A standing service takes queries for as long as it runs, so what it
keeps of a finished one has to stay small.  Once a query is terminal —
DONE, FAILED, or CANCELLED with its forfeited HITs sealed — its record
keeps state, progress, spend and the result, and drops its sessions
(with their tracked aggregators, trajectories, arrival logs and HIT
questions); the scheduler stops listing them too.  The result keeps its
verdicts without their evidence, the service's own plan drops its job
inputs, and the market forgets the query's HITs.

The traffic here has the gateway's shape: queries arrive in waves while
others run, and every live handle's ``progress()`` is read between
steps, as the poll route reads it, so tracked sessions build and feed
their aggregators.  The checks run with the cyclic collector off: what
outlives a query is held by something live, not by a cycle.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import pickle
import tracemalloc
import weakref

import pytest
from grant_log import EvidenceLog, GrantLog

from repro.amt.hit import HIT
from repro.amt.market import SimulatedMarket
from repro.durability import DurableSchedulerService, codec, outcome_digest, recover
from repro.engine.scheduler import HITScheduler
from repro.engine.service import TERMINAL_STATES, QueryState
from repro.gateway import InProcessClient
from repro.scenarios import result_summary
from repro.system import CDAS, _tsa_submitter
from repro.tsa.app import TSAResult, build_tsa_spec, movie_query
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 2012

#: Bytes a finished query of :func:`_wave` may leave behind.  Its record
#: and its sealed result take about 14 KB, or 21 KB after the whole suite
#: ran in the same process; keeping the verdicts' evidence and the
#: market's HITs as well took about 23 KB (28 KB), and keeping its read
#: sessions too (aggregators, trajectories, fold logs, HIT questions)
#: about 61 KB.
RETAINED_PER_QUERY = 26_000

#: One wave of gateway traffic: http_open's mix of query sizes in small,
#: as ``(tweets, cancelled right after its submit)``.
GATEWAY_WAVE = ((60, False), (60, False), (300, False), (60, False), (60, True))

#: Bytes a finished query of a :data:`GATEWAY_WAVE` may leave behind.
#: About 72 KB are its record, its sealed result (questions and
#: verdicts) and the async and journal layers' bookkeeping; keeping the
#: verdicts' evidence, its plan's decoded tweets and the market's HITs
#: as well took about 178 KB.
GATEWAY_RETAINED_PER_QUERY = 100_000


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _failing_submitter(engine, sink, plan, inputs):
    """The sentiment job, whose result assembly raises: the query runs
    every HIT and then turns FAILED."""
    finalize = _tsa_submitter(engine, sink, plan, inputs)

    def fail():
        finalize()
        raise RuntimeError("result assembly failed")

    return fail


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    cdas.register_job(
        dataclasses.replace(build_tsa_spec(), name="failing-sentiment"),
        submitter=_failing_submitter,
    )
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


class _Inputs:
    """One set of input objects every wave submits again, so what grows
    across waves is what the service keeps per finished query."""

    def __init__(self) -> None:
        self.gold = generate_tweets(["gold-movie"], per_movie=10, seed=SEED + 1)
        self.tweets = {
            subject: generate_tweets([subject], per_movie=16, seed=SEED + 2)
            for subject in ("rio", "solaris", "alpha", "heat")
        }

    def submit(self, service, job: str, subject: str):
        return service.submit(
            job, movie_query(subject, 0.9),
            tweets=self.tweets[subject], gold_tweets=self.gold,
            worker_count=5, batch_size=4,
        )


def _wave(service, inputs: _Inputs, each_step=lambda handles: None) -> list:
    """Two queries that finish DONE, one that turns FAILED and one
    cancelled with HITs in flight, run to idle; every live handle is
    polled between steps, and ``each_step`` sees the handles after each."""
    handles = [
        inputs.submit(service, "twitter-sentiment", "rio"),
        inputs.submit(service, "twitter-sentiment", "solaris"),
        inputs.submit(service, "failing-sentiment", "alpha"),
        inputs.submit(service, "twitter-sentiment", "heat"),
    ]
    doomed = handles[-1]
    while True:
        for handle in handles:
            if not handle.done:
                handle.progress()
        if not doomed.done and doomed.progress().hits_in_flight:
            assert doomed.cancel()
        each_step(handles)
        if not service.step():
            break
    assert [h.state for h in handles] == [
        QueryState.DONE, QueryState.DONE, QueryState.FAILED, QueryState.CANCELLED,
    ]
    return handles


def test_a_finished_query_leaves_a_bounded_footprint(small_pool):
    service = _system(small_pool).service(max_in_flight=4)
    inputs = _Inputs()
    _wave(service, inputs)  # warm every cache first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        _wave(service, inputs)
        before = tracemalloc.get_traced_memory()[0]
        waves = 3
        finished = sum(len(_wave(service, inputs)) for _ in range(waves))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert grown / finished < RETAINED_PER_QUERY, grown / finished


def test_a_gateway_query_leaves_a_bounded_footprint(small_pool, tmp_path):
    """Waves of gateway traffic through a journaled service: every
    request body is decoded afresh, so each query holds its own tweets,
    as in a server."""
    app = _system(small_pool).gateway(
        {"acme-token": "acme"}, name="svc", max_in_flight=4,
        journal=tmp_path / "gateway.journal.jsonl",
    )
    service = app.mux["svc"]
    service.register_tenant("acme")
    gold = codec.encode(generate_tweets(["gold-movie"], per_movie=10, seed=SEED + 1))
    bodies = [
        {
            "job": "twitter-sentiment",
            "query": codec.encode(movie_query("rio", 0.9)),
            "inputs": {
                "tweets": codec.encode(
                    generate_tweets(["rio"], per_movie=size, seed=SEED + index)
                ),
                "gold_tweets": gold,
                "worker_count": 5,
                "batch_size": 6,
            },
        }
        for index, (size, _) in enumerate(GATEWAY_WAVE)
    ]

    async def wave(client) -> int:
        """Submit a wave (cancelling as it says), then poll every query
        to its terminal state."""
        polling = []
        for body, (_, cancel) in zip(bodies, GATEWAY_WAVE):
            response = await client.post("/v1/queries", body)
            assert response.status == 201, response.body
            query_id = response.json()["id"]
            if cancel:
                assert (await client.delete(f"/v1/queries/{query_id}")).status == 200
            polling.append(query_id)
        states = []
        while polling:
            await asyncio.sleep(0)
            for query_id in list(polling):
                state = (await client.get(f"/v1/queries/{query_id}")).json()
                if state["progress"]["state"] in ("done", "cancelled", "failed"):
                    states.append(state["progress"]["state"])
                    polling.remove(query_id)
        assert sorted(states) == ["cancelled"] + ["done"] * (len(bodies) - 1)
        return len(states)

    async def run() -> float:
        client = InProcessClient(app, token="acme-token")
        await wave(client)  # warm every cache first
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            await wave(client)
            before = tracemalloc.get_traced_memory()[0]
            finished = 0
            for _ in range(3):
                finished += await wave(client)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        await service.aclose()
        service.service.close()
        return grown / finished

    retained = asyncio.run(run())
    assert retained < GATEWAY_RETAINED_PER_QUERY, retained


def _evidence(result) -> list:
    """Each record's verdict and the evidence behind it."""
    return [
        (
            r.question.question_id, r.verdict.answer, r.verdict.confidence,
            r.verdict.method, dict(r.verdict.scores), r.observation,
        )
        for r in result.records
    ]


def _summary_and_evidence(record) -> tuple | None:
    """A DONE query's result summary and evidence, read as it completes:
    before the service releases it."""
    result = record.result_value
    return None if result is None else (result_summary(result), _evidence(result))


def test_a_released_query_keeps_its_verdicts_not_their_evidence(small_pool):
    service = _system(small_pool).service(max_in_flight=4)
    completions = EvidenceLog(service, _summary_and_evidence)
    inputs = _Inputs()
    handles = _wave(service, inputs)
    auto = service.submit(
        "twitter-sentiment", movie_query("rio", 0.9), reserve=True,
        tweets=inputs.tweets["rio"], gold_tweets=inputs.gold,
        worker_count=5, batch_size=4,
    )
    own_plan = service.plan(
        "twitter-sentiment", movie_query("solaris", 0.9),
        tweets=inputs.tweets["solaris"], gold_tweets=inputs.gold,
        worker_count=5, batch_size=4,
    )
    planned = service.submit(plan=own_plan)
    early_plan = auto.plan
    service.run_until_idle()
    for handle in [*handles[:2], auto, planned]:
        summary, evidence = completions.evidence[handle.seq]
        assert all(votes and scores for *_, scores, votes in evidence)
        result = handle.result()
        assert result_summary(result) == summary
        assert [
            (r.question.question_id, r.verdict.answer, r.verdict.confidence,
             r.verdict.method)
            for r in result.records
        ] == [fields[:4] for fields in evidence]
        assert all(r.observation == () and r.verdict.scores == {} for r in result.records)
        assert all(r.records for r in result.hit_results)
        assert result.accuracy == sum(
            answer == record.question.truth
            for (_, answer, *_), record in zip(evidence, result.records)
        ) / len(evidence)
    # The service's own plan drops the decoded tweets; a plan read
    # earlier, and one the caller passed in, keep them.
    assert auto.plan.job_inputs == {} and auto.plan.to_dict() == early_plan.to_dict()
    assert early_plan.job_inputs["tweets"] is inputs.tweets["rio"]
    assert planned.plan is own_plan and own_plan.job_inputs
    # A plan-less query's lazy plan, first read after its release, too.
    assert handles[0].plan.job_inputs == {}


def test_the_market_forgets_the_hits_of_a_released_query(small_pool, monkeypatch):
    service = _system(small_pool).service(max_in_flight=4)
    market = service.engine.market
    remembered = [h for h in market._published.values() if h is not None]
    published: dict[str, weakref.ref] = {}
    publish = SimulatedMarket.publish

    def tracked(market, hit):
        handle = publish(market, hit)
        published[hit.hit_id] = weakref.ref(handle)
        return handle

    monkeypatch.setattr(SimulatedMarket, "publish", tracked)
    inputs = _Inputs()
    for _ in range(3):
        _wave(service, inputs)
        assert published and all(ref() is None for ref in published.values())
        assert market.published_hits == len(remembered) + len(published)
        assert [h for h in market._published.values() if h is not None] == remembered
        assert market.next_arrival_eta() is None
    hit_id = next(iter(published))
    with pytest.raises(KeyError, match="forgotten"):
        market.handle(hit_id)
    question = tweet_to_question(inputs.tweets["rio"][0])
    with pytest.raises(ValueError, match="already published"):
        market.publish(HIT(hit_id=hit_id, questions=(question,), assignments=1))
    assert market.published_hits == len(remembered) + len(published)


class _GrantRefs(GrantLog):
    """A grant log that holds each session weakly."""

    def on_grant(self, record, session, group_index) -> None:
        self.of(record.seq).append(weakref.ref(session))
        if self._inner is not None:
            self._inner.on_grant(record, session, group_index)


@pytest.mark.parametrize("journaled", [False, True], ids=["plain", "journaled"])
def test_sessions_die_when_their_query_turns_terminal(small_pool, tmp_path, journaled):
    journal = tmp_path / "svc.journal.jsonl" if journaled else None
    service = _system(small_pool).service(max_in_flight=4, journal=journal)
    grants = _GrantRefs(service)
    inputs = _Inputs()

    def terminal_ones_are_dead(handles):
        for handle in handles:
            if handle.done:
                assert all(ref() is None for ref in grants.of(handle.seq))

    handles = [
        handle
        for _ in range(2)
        for handle in _wave(service, inputs, terminal_ones_are_dead)
    ]
    assert all(grants.of(handle.seq) for handle in handles)
    terminal_ones_are_dead(handles)
    assert service.scheduler.sessions == ()
    with pytest.raises(RuntimeError, match="result assembly failed"):
        handles[2].result()
    if journaled:
        assert service._grant_groups == {}
        service.close()


def test_a_cancel_releases_at_once_and_running_queries_keep_theirs(small_pool):
    service = _system(small_pool).service(max_in_flight=4)
    grants = _GrantRefs(service)
    inputs = _Inputs()
    kept = inputs.submit(service, "twitter-sentiment", "rio")
    doomed = inputs.submit(service, "twitter-sentiment", "heat")
    while not doomed.progress().hits_in_flight:
        assert service.step()
    assert doomed.cancel()
    assert all(ref() is None for ref in grants.of(doomed.seq))
    assert not kept.done
    live = [ref() for ref in grants.of(kept.seq)]
    assert live and all(session is not None for session in live)
    assert list(service.scheduler.sessions) == live
    before = kept.progress()
    service.run_until_idle()
    assert kept.state is QueryState.DONE
    after = kept.progress()
    assert after.hits_completed >= before.hits_completed
    assert after == kept.progress()  # read from the aggregate alone


# -- snapshots of released records --------------------------------------------


def _snapshot_state(path) -> dict:
    """The pickled service state of the journal's one snapshot."""
    (snapshot,) = path.parent.glob(f"{path.name}.snap-*")
    return pickle.loads(pickle.loads(snapshot.read_bytes())["state"])


def _run_with_a_snapshot(pool, path):
    """A journaled run whose snapshot falls after a wave of terminal
    queries, between two HITs of a standing query; then a second wave."""
    service = _system(pool).service(max_in_flight=1, journal=path)
    inputs = _Inputs()
    _wave(service, inputs)
    standing = service.submit(
        "twitter-sentiment", movie_query("kungfu", 0.9, window=1),
        stream=TweetStream(
            tweets=tuple(generate_tweets(["kungfu"], per_movie=16, seed=SEED + 3)),
            unit_seconds=43200.0,
        ),
        windows=2, gold_tweets=inputs.gold, worker_count=5, batch_size=4,
    )
    while not (service.quiescent and standing._record.sessions):
        assert service.step()
        service.scheduler.reap()
    service.snapshot()
    assert not standing.done
    _wave(service, inputs)
    assert standing.state is QueryState.DONE
    service.close()
    return service


def _recovers_to(path, pool, service) -> None:
    recovered = recover(path, _system(pool))
    # Every query was terminal at the tail's end, so nothing is held.
    assert all(h.done for h in recovered.handles)
    assert recovered.scheduler.sessions == ()
    assert all(h._record.sessions == () for h in recovered.handles)
    recovered.run_until_idle()
    recovered.close()
    assert 0 < recovered.replayed_events < service.scheduler.events_processed
    assert outcome_digest(recovered) == outcome_digest(service)


def test_a_snapshot_of_released_records_recovers(small_pool, tmp_path):
    path = tmp_path / "svc.journal.jsonl"
    service = _run_with_a_snapshot(small_pool, path)
    state = _snapshot_state(path)
    terminal = [r for r in state["records"] if r.state in TERMINAL_STATES]
    active = [r for r in state["records"] if r.state not in TERMINAL_STATES]
    assert {r.state for r in terminal} == {
        QueryState.DONE, QueryState.FAILED, QueryState.CANCELLED,
    }
    assert all(r.sessions == () and r.groups == () for r in terminal)
    assert len(active) == 1 and active[0].sessions
    assert list(state["scheduler"].sessions) == list(active[0].sessions)
    _recovers_to(path, small_pool, service)


def test_a_snapshot_that_kept_unsealed_results_still_recovers(
    small_pool, tmp_path, monkeypatch
):
    """Snapshots written before a released query let go of its evidence,
    its plan's inputs and its market HITs hold all three.  They recover
    to the same outcome digest."""
    path = tmp_path / "old.journal.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(TSAResult, "seal", lambda self: None)
        patch.setattr(SimulatedMarket, "forget", lambda self, hit_ids: None)
        service = _run_with_a_snapshot(small_pool, path)
    state = _snapshot_state(path)
    done = [r for r in state["records"] if r.state is QueryState.DONE]
    assert done and all(
        r.observation for rec in done for r in rec.result_value.records
    )
    assert all(h is not None for h in state["engine"].market._published.values())
    _recovers_to(path, small_pool, service)


def test_a_snapshot_that_kept_every_session_still_recovers(
    small_pool, tmp_path, monkeypatch
):
    """Snapshots written before terminal records let go of their sessions
    hold them in the records and in the scheduler's list of every session.
    They install, drop them, and recover to the same outcome digest."""
    path = tmp_path / "old.journal.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(DurableSchedulerService, "_release", lambda self, record: None)
        patch.setattr(
            HITScheduler, "__getstate__",
            lambda self: dict(vars(self), _all=list(self._all)), raising=False,
        )
        service = _run_with_a_snapshot(small_pool, path)
    state = _snapshot_state(path)
    records = state["records"]
    assert all(r.sessions for r in records)
    every = [s for r in records for s in r.sessions]
    assert type(state["scheduler"]._all) is dict  # loaded as the ordered set
    assert sorted(map(id, state["scheduler"]._all)) == sorted(map(id, every))
    _recovers_to(path, small_pool, service)
