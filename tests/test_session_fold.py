"""Fold-on-read live accuracy equals feeding every arrival as it comes.

A tracked :class:`HITSession` logs each arrival with its worker's
accuracy, and builds and feeds its per-question ``OnlineAggregator``\\ s
only when a read asks: ``progress()`` (through ``live_best_confidences``),
``confidences(qid)`` or ``trajectory(qid)``.  This file keeps the eager
reference — :class:`EagerSession`, the session as it was before reads
folded: aggregators built at publish with that moment's ``μ``, each
arrival fed to them inside ``on_submission`` — and checks that

* every read, at any schedule of reads (including none), equals the same
  read of the reference, and so does every folded aggregator's state;
* a run nobody reads builds no aggregator and feeds none, and a read
  feeds exactly the reference's answers in the reference's order;
* the two errors ``OnlineAggregator.submit`` raises still raise from the
  ``on_submission`` that delivered the bad arrival;
* snapshots of sessions pickled before the log existed, and of sessions
  never read, recover to the uncrashed run's trajectories.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from grant_log import GrantLog, services_logged
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.hit import Assignment, Question
from repro.amt.market import SimulatedMarket
from repro.core.domain import AnswerDomain
from repro.core.online import OnlineAggregator, TrajectoryPoint
from repro.core.types import WorkerAnswer
from repro.durability import outcome_digest, recover
from repro.engine.engine import CrowdsourcingEngine, EngineConfig
from repro.engine.query import Query
from repro.engine.service import QueryState
from repro.engine.session import HITSession, SessionState
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 2323


# -- the eager reference -------------------------------------------------------


class EagerSession(HITSession):
    """The session before reads folded: aggregators built at publish,
    each arrival fed to them as it is delivered.  Its aggregators live in
    ``_eager``, apart from the ones the fold builds."""

    def publish(self):
        handle = super().publish()
        if self._track:
            mean = self._engine.mean_accuracy()
            self._eager = {
                q.question_id: OnlineAggregator(
                    domain=AnswerDomain.closed(q.options),
                    hired_workers=self._hit.assignments,
                    mean_accuracy=mean,
                )
                for q in self._real
            }
        return handle

    def on_submission(self, assignment: Assignment) -> None:
        if self.state is not SessionState.COLLECTING:
            raise ValueError(f"cannot step a session in state {self.state.value!r}")
        engine = self._engine
        self._collected += 1
        allowed = True
        if engine.privacy is not None:
            profile = self.handle.worker_profile(assignment.worker_id)
            allowed = engine.privacy.worker_allowed(profile)
        if allowed:
            engine.score_gold(
                self._hit.questions, assignment.worker_id, assignment.answers
            )
            accuracy = engine.estimator.accuracy(assignment.worker_id)
            for q in self._real:
                answer = assignment.answers.get(q.question_id)
                if answer is None:
                    continue
                vote = (
                    assignment.worker_id,
                    answer,
                    assignment.keywords.get(q.question_id, ()),
                )
                self._votes[q.question_id].append(vote)
                if self._track:
                    self._eager[q.question_id].submit(
                        WorkerAnswer(
                            worker_id=vote[0],
                            answer=vote[1],
                            accuracy=accuracy,
                            keywords=vote[2],
                            timestamp=assignment.submit_time,
                        )
                    )
            if (
                self._strategy is not None
                and not self._terminated_early
                and self._all_questions_stable()
            ):
                self.handle.cancel()
                self._terminated_early = True
        if self.handle.done:
            self._finish()

    def live_best_confidences(self):
        if not self._track:
            return ()
        aggregators = getattr(self, "_eager", {})
        return tuple(
            aggregators[qid].best_confidence
            for qid, votes in self._votes.items()
            if votes
        )

    def confidences(self, question_id):
        return self._eager_for(question_id).confidences()

    def trajectory(self, question_id):
        return self._eager_for(question_id).trajectory

    def _eager_for(self, question_id):
        if not self._track:
            raise ValueError("session was created with track_trajectories=False")
        try:
            return getattr(self, "_eager", {})[question_id]
        except KeyError:
            raise KeyError(f"no real question {question_id!r} in this HIT") from None


def _make_eager(service) -> None:
    """Make every session ``service``'s scheduler spawns from now on an
    :class:`EagerSession` (before it is published)."""
    scheduler = service.scheduler
    spawn = scheduler._spawn

    def spawn_eager(spec, group):
        session = spawn(spec, group)
        session.__class__ = EagerSession
        return session

    scheduler._spawn = spawn_eager


# -- workload ------------------------------------------------------------------


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


def _tsa(subject: str, per_movie: int, seed: int, **inputs) -> dict:
    return {
        "job_name": "twitter-sentiment",
        "query": Query(keywords=(subject,), required_accuracy=0.9,
                       domain="movies", subject=subject),
        "gold_tweets": generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1),
        "tweets": generate_tweets([subject], per_movie=per_movie, seed=seed),
        "batch_size": 4,
        "worker_count": 5,
        **inputs,
    }


def _sessions(service) -> list[HITSession]:
    """Every session the service granted, as its grant log holds them: a
    terminal query's record lets go of its own (DESIGN.md §7)."""
    return service.observer.sessions


def _outcome(read):
    """A read's value, or the type and text of what it raised."""
    try:
        return ("ok", read())
    except (KeyError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


class _Pair:
    """The same seeded tracked service twice, stepped in lockstep: ``lazy``
    runs the code under test, ``eager`` the reference sessions."""

    def __init__(self, pool) -> None:
        self.lazy = _system(pool).service(max_in_flight=2)
        self.eager = _system(pool).service(max_in_flight=2)
        GrantLog(self.lazy)
        GrantLog(self.eager)
        _make_eager(self.eager)

    def both(self, op):
        a, b = op(self.lazy), op(self.eager)
        assert a == b
        return a

    def read(self, kind: str, pick: int, question: int) -> None:
        if kind == "progress":
            handles = (self.lazy.handles, self.eager.handles)
            h = pick % len(handles[0])
            assert handles[0][h].progress() == handles[1][h].progress()
        else:
            sessions = (_sessions(self.lazy), _sessions(self.eager))
            if not sessions[0]:
                return
            s = pick % len(sessions[0])
            lazy, eager = sessions[0][s], sessions[1][s]
            inputs = lazy._input_questions
            qid = inputs[question % len(inputs)].question_id
            assert _outcome(lambda: getattr(lazy, kind)(qid)) == _outcome(
                lambda: getattr(eager, kind)(qid)
            )
        self.check_folded()

    def check_folded(self) -> None:
        """Every folded aggregator equals its reference twin, field for
        field — domain, hired count, ``μ``, answers, sums, trajectory."""
        for lazy, eager in zip(_sessions(self.lazy), _sessions(self.eager)):
            if not lazy._aggregators or lazy._unfolded:
                continue
            assert list(lazy._aggregators) == list(eager._eager)
            for qid, aggregator in lazy._aggregators.items():
                assert vars(aggregator) == vars(eager._eager[qid])


def _run(pair: _Pair, schedule: dict[int, list[tuple[str, int, int]]]) -> _Pair:
    """Drive the mixed workload, reading at the scheduled checkpoints.

    Three queries share two publish slots; one is cancelled mid-flight,
    and a reserved query is held with a granted but unpublished (PLANNED)
    session for a few checkpoints before it runs to the end.
    """
    checkpoint = 0

    def tick() -> None:
        nonlocal checkpoint
        for read in schedule.get(checkpoint, ()):
            pair.read(*read)
        checkpoint += 1

    pair.both(lambda s: s.register_tenant("acme", priority=2.0) is not None)
    pair.both(lambda s: s.submit(**_tsa("alpha", 20, SEED + 2), tenant="acme").seq)
    pair.both(lambda s: s.submit(**_tsa("beta", 8, SEED + 3)).seq)
    images = generate_images(per_subject=1, seed=SEED + 4)[:3]
    pair.both(lambda s: s.submit(
        "image-tagging",
        Query(keywords=("tags",), required_accuracy=0.85, domain="images",
              subject="tags"),
        images=images, gold_images=images[:1], images_per_hit=1, worker_count=5,
    ).seq)
    tick()
    doomed = (pair.lazy.handles[1], pair.eager.handles[1])
    # Watched on the reference side only: an unread run stays unread.
    while doomed[1].progress().items_answered == 0:
        assert pair.both(lambda s: s.step())
        tick()
    assert pair.both(lambda s: s.handles[1].cancel())
    tick()

    pair.both(lambda s: s.submit(**_tsa("gamma", 8, SEED + 5), reserve=True).seq)
    held = (pair.lazy.handles[-1], pair.eager.handles[-1])

    def unpublished(service):
        return any(s.handle is None for s in service.handles[-1]._record.sessions)

    while not pair.both(unpublished):
        def grant(service):
            service.scheduler.reap()
            service._admit_queued()
            service._fill_slots()
            return unpublished(service)

        if not pair.both(grant):
            assert pair.both(lambda s: s.step())
        tick()
    planned = [s for s in held[0]._record.sessions if s.handle is None]
    assert planned and planned[0].state is SessionState.PLANNED
    tick()
    tick()
    while pair.both(lambda s: s.step()):
        tick()
    assert held[0].state is QueryState.DONE
    assert doomed[0].state is QueryState.CANCELLED
    tick()
    return pair


# -- read schedules ------------------------------------------------------------


READ = st.tuples(
    st.sampled_from(["progress", "trajectory", "confidences"]),
    st.integers(0, 10_000),
    st.integers(0, 100),
)


@settings(max_examples=10, deadline=None)
@given(
    reads=st.lists(st.tuples(st.integers(0, 90), READ), max_size=30),
    final=st.booleans(),
)
def test_any_read_schedule_equals_the_eager_reference(small_pool, reads, final):
    """Reads at random checkpoints (sometimes none at all), and optionally
    every read at the end: each equals the eager reference's read."""
    schedule: dict[int, list] = {}
    for checkpoint, read in reads:
        schedule.setdefault(checkpoint, []).append(read)
    pair = _run(_Pair(small_pool), schedule)
    if final:
        for h in range(len(pair.lazy.handles)):
            pair.read("progress", h, 0)
        for s, session in enumerate(_sessions(pair.lazy)):
            for q in range(len(session._input_questions)):
                pair.read("trajectory", s, q)
                pair.read("confidences", s, q)
        assert all(not s._unfolded for s in _sessions(pair.lazy))


def test_planned_session_reads_as_empty(small_pool):
    """Reads of a granted, unpublished session: no live confidences, and
    its questions are unknown to the live view — as before the fold."""
    seen = []

    class Probe(_Pair):
        def read(self, kind, pick, question):
            planned = [
                (i, s) for i, s in enumerate(_sessions(self.lazy))
                if s.state is SessionState.PLANNED
            ]
            for i, session in planned:
                seen.append(session)
                assert session.live_best_confidences() == ()
                for q in range(len(session._input_questions)):
                    super().read("trajectory", i, q)
                    super().read("confidences", i, q)
            for h in range(len(self.lazy.handles)):
                super().read("progress", h, 0)

    _run(Probe(small_pool), {c: [("progress", 0, 0)] for c in range(200)})
    assert seen


# -- cost: nothing unread is folded --------------------------------------------


def _count_aggregator_work(monkeypatch) -> dict:
    counts = {"built": 0, "fed": []}
    init, submit = OnlineAggregator.__init__, OnlineAggregator.submit

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_submit(self, answer):
        counts["fed"].append((self, answer))
        return submit(self, answer)

    monkeypatch.setattr(OnlineAggregator, "__init__", counting_init)
    monkeypatch.setattr(OnlineAggregator, "submit", counting_submit)
    return counts


def test_an_unread_tracked_run_builds_and_feeds_nothing(small_pool, monkeypatch):
    counts = _count_aggregator_work(monkeypatch)
    # An unread lazy run, results and all.
    lazy = _system(small_pool).service(max_in_flight=2)
    lazy.submit(**_tsa("alpha", 12, SEED + 2))
    lazy.submit(**_tsa("beta", 8, SEED + 3))
    lazy.run_until_idle()
    assert [h.result() for h in lazy.handles]
    assert counts == {"built": 0, "fed": []}

    # In the unread lockstep run only the reference builds and feeds.
    pair = _run(_Pair(small_pool), {})
    eager_owner = {
        id(aggregator): (i, qid)
        for i, session in enumerate(_sessions(pair.eager))
        for qid, aggregator in session._eager.items()
    }
    assert counts["built"] == len(eager_owner) > 0
    assert all(not s._aggregators for s in _sessions(pair.lazy))
    eager_feed = [(eager_owner[id(agg)], answer) for agg, answer in counts["fed"]]
    counts["built"], counts["fed"] = 0, []

    # Reading every trajectory folds exactly what the reference fed on
    # arrival: per session, the same answers in the same order (arrival
    # order, then the HIT's question order).
    sessions = _sessions(pair.lazy)
    for session in sessions:
        for qid in session._votes:
            session.trajectory(qid)
    lazy_owner = {
        id(aggregator): (i, qid)
        for i, session in enumerate(sessions)
        for qid, aggregator in session._aggregators.items()
    }
    assert counts["built"] == len(lazy_owner) == len(eager_owner)
    lazy_feed = [(lazy_owner[id(agg)], answer) for agg, answer in counts["fed"]]
    assert len(lazy_feed) == len(eager_feed)
    for i in range(len(sessions)):
        assert [f for f in lazy_feed if f[0][0] == i] == [
            f for f in eager_feed if f[0][0] == i
        ]


# -- arrival-time errors -------------------------------------------------------


class _Misbehaving:
    """A HIT handle that corrupts what its inner handle delivers: the
    second assignment answers ``q0`` outside its options (``bogus``), or
    the last assignment is delivered twice (``extra``)."""

    def __init__(self, inner, mode: str) -> None:
        self.inner = inner
        self.mode = mode
        self.delivered = 0
        self.last: Assignment | None = None
        self.extra_sent = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def done(self) -> bool:
        if self.mode == "extra":
            return self.inner.done and self.extra_sent
        return self.inner.done

    def next_submission(self) -> Assignment | None:
        if self.mode == "extra" and self.inner.done:
            self.extra_sent = True
            return self.last
        assignment = self.inner.next_submission()
        self.delivered += 1
        if self.mode == "bogus" and self.delivered == 2:
            assignment = dataclasses.replace(
                assignment, answers={**assignment.answers, "q0": "bogus"}
            )
        self.last = assignment
        return assignment


def _deliver(
    session_class, pool, mode: str, track: bool = True
) -> tuple[ValueError, HITSession]:
    """Publish one session over a misbehaving handle and feed it until
    ``on_submission`` raises; nothing reads it meanwhile."""
    options = ("pos", "neu", "neg")
    engine = CrowdsourcingEngine(
        SimulatedMarket(pool, seed=5), seed=5, config=EngineConfig()
    )
    questions = [
        Question(question_id=f"q{i}", options=options, truth=options[i % 3])
        for i in range(3)
    ]
    gold = [
        Question(question_id=f"g{i}", options=options, truth=options[i % 3],
                 is_gold=True)
        for i in range(4)
    ]
    session = session_class(
        engine, questions, 0.9, gold_pool=gold, worker_count=4,
        track_trajectories=track,
    )
    session.publish()
    session.handle = _Misbehaving(session.handle, mode)
    with pytest.raises(ValueError) as caught:
        while True:
            assignment = session.handle.next_submission()
            assert assignment is not None, "the bad arrival never raised"
            session.on_submission(assignment)
    return caught.value, session


@pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
@pytest.mark.parametrize(
    ("mode", "message"),
    [
        ("bogus", "answer 'bogus' outside the closed domain"),
        ("extra", "received more answers than the 4 hired workers"),
    ],
)
def test_bad_arrivals_raise_from_on_submission(
    small_pool, monkeypatch, mode, message, track
):
    counts = _count_aggregator_work(monkeypatch)
    error, session = _deliver(HITSession, small_pool, mode, track)
    assert message in str(error)
    # Raised at arrival, tracked or not, before anything was read or
    # folded: the bad answer never finishes the session...
    assert counts == {"built": 0, "fed": []}
    assert session.state is SessionState.COLLECTING
    # ...with the type and text the eager tracked path raised.
    reference, _ = _deliver(EagerSession, small_pool, mode)
    assert type(error) is type(reference) and str(error) == str(reference)
    if track:
        # Arrivals logged before the bad one still fold and read normally.
        assert session.trajectory("q1")


# -- snapshots -----------------------------------------------------------------


def _snapshots(path) -> int:
    return len(list(path.parent.glob(f"{path.name}.snap-*")))


def _crash_and_recover(pool, tmp_path, before_crash=lambda service: None):
    """A ``snapshot_every=6`` durable run of a standing query, copied
    mid-flight just after a snapshot (the crash), run on to the end, then
    recovered from the copy and finished the same way."""
    path = tmp_path / "svc.journal.jsonl"
    service = _system(pool).service(max_in_flight=1, journal=path, snapshot_every=6)
    GrantLog(service)
    standing = service.submit(
        "twitter-sentiment",
        Query(keywords=("rio",), required_accuracy=0.9, domain="movies",
              subject="rio"),
        gold_tweets=generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1),
        stream=TweetStream(
            tweets=tuple(generate_tweets(["rio"], per_movie=24, seed=SEED + 6)),
            unit_seconds=43200.0,
        ),
        batch_size=4, worker_count=3, windows=3,
    )
    while not (_snapshots(path) and standing.state is QueryState.RUNNING):
        assert service.step()
    before_crash(service)
    service.flush_journal()
    crashed = path.with_name("crashed.journal.jsonl")
    crashed.write_bytes(path.read_bytes())
    service.run_until_idle()
    service.close()
    with services_logged():
        recovered = recover(crashed, _system(pool))
    assert recovered.replayed_records == 0  # everything came from the snapshot
    restored = _sessions(recovered)
    recovered.run_until_idle()
    recovered.close()
    assert outcome_digest(recovered) == outcome_digest(service)
    return service, recovered, restored


def _trajectories(service) -> list[tuple[TrajectoryPoint, ...]]:
    return [
        session.trajectory(q.question_id)
        for session in _sessions(service)
        for q in session._real
    ]


def test_snapshot_of_eagerly_fed_sessions_recovers(small_pool, tmp_path, monkeypatch):
    """Sessions pickled in the shape older code wrote — aggregators fed
    on arrival, no arrival log, no stored ``μ`` — load as fully folded."""
    pickled = []

    def older_shape(session):
        if session._track:
            session._folded()
        pickled.append(session)
        state = dict(vars(session))
        del state["_unfolded"], state["_mean_accuracy"]
        return state

    monkeypatch.setattr(HITSession, "__getstate__", older_shape, raising=False)
    service, recovered, restored = _crash_and_recover(small_pool, tmp_path)
    monkeypatch.undo()
    assert pickled and restored
    assert all(s._aggregators and not s._unfolded for s in restored)
    assert _trajectories(recovered) == _trajectories(service)


def test_snapshot_of_unread_sessions_recovers(small_pool, tmp_path, monkeypatch):
    """A snapshot taken while no session was ever read pickles the arrival
    logs; the recovered run's trajectories equal the uncrashed run's."""
    counts = _count_aggregator_work(monkeypatch)

    def nothing_read_yet(service):
        assert counts == {"built": 0, "fed": []}

    service, recovered, restored = _crash_and_recover(
        small_pool, tmp_path, before_crash=nothing_read_yet
    )
    assert restored and all(
        s._unfolded and not s._aggregators for s in restored
    )
    assert _trajectories(recovered) == _trajectories(service)


def test_pickled_session_round_trips_its_log(small_pool):
    """A sealed, unread session pickles its log and μ, and reads the same
    after the round trip as before it."""
    service = _system(small_pool).service(max_in_flight=1)
    GrantLog(service)
    service.submit(**_tsa("alpha", 8, SEED + 2))
    service.run_until_idle()
    session = _sessions(service)[0]
    copy = pickle.loads(pickle.dumps(session))
    assert copy._unfolded and copy._mean_accuracy == session._mean_accuracy
    for q in session._real:
        assert copy.trajectory(q.question_id) == session.trajectory(q.question_id)
