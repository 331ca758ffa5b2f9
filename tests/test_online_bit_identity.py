"""The online path's incremental math equals its from-scratch definitions.

The worker-accuracy estimator stores each known worker's estimate as
gold outcomes arrive, and ``μ`` sums those stored floats; a tracked
session's aggregators evaluate Equation 4 on running per-label sums.
Both must equal, bit for bit, what re-deriving everything from the raw
tallies and votes gives — on every interpreter, including 3.12's
compensated float ``sum``.  The reference formulas below are the
estimator's definitions written out independently of it.
"""

from __future__ import annotations

import pickle

from grant_log import GrantLog
from hypothesis import given
from hypothesis import strategies as st

from repro.amt.market import SimulatedMarket
from repro.core.confidence import answer_confidences
from repro.core.sampling import WorkerAccuracyEstimator
from repro.engine.session import HITSession
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

WORKERS = ("w0", "w1", "w2", "w3", "w4", "w5")


def _reference_accuracy(correct, total, prior, smoothing, worker) -> float:
    """``â = (correct + s·p₀) / (total + s)``; the prior for an unseen
    worker when ``s = 0``."""
    seen = total.get(worker, 0)
    if seen == 0 and smoothing == 0.0:
        return prior
    hits = correct.get(worker, 0)
    return (hits + smoothing * prior) / (seen + smoothing)


def _reference_mean(correct, total, prior, smoothing) -> float:
    """``μ``: every known worker's estimate, in first-seen order, summed."""
    workers = list(total)
    if not workers:
        return prior
    return sum(
        _reference_accuracy(correct, total, prior, smoothing, w) for w in workers
    ) / len(workers)


@given(
    outcomes=st.lists(
        st.tuples(st.sampled_from(WORKERS), st.booleans()), max_size=80
    ),
    prior=st.one_of(
        st.sampled_from([0.0, 0.5, 0.55, 0.7, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    smoothing=st.one_of(
        st.just(0.0),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.floats(min_value=1e-3, max_value=50.0),
    ),
)
def test_stored_estimates_equal_the_reference_formulas(outcomes, prior, smoothing):
    estimator = WorkerAccuracyEstimator(prior_accuracy=prior, smoothing=smoothing)
    correct: dict[str, int] = {}
    total: dict[str, int] = {}
    assert estimator.mean_accuracy() == _reference_mean(
        correct, total, prior, smoothing
    )
    for worker, ok in outcomes:
        estimator.record(worker, ok)
        correct[worker] = correct.get(worker, 0) + (1 if ok else 0)
        total[worker] = total.get(worker, 0) + 1
        assert estimator.mean_accuracy() == _reference_mean(
            correct, total, prior, smoothing
        )
    for worker in (*WORKERS, "never-seen"):
        assert estimator.accuracy(worker) == _reference_accuracy(
            correct, total, prior, smoothing, worker
        )
    assert estimator.known_workers() == list(total)
    assert estimator.as_mapping() == {
        w: _reference_accuracy(correct, total, prior, smoothing, w) for w in total
    }


def test_pickle_without_stored_estimates_loads_identically(monkeypatch):
    """A pickle written before the stored estimates existed (only the
    tallies) rebuilds them on load."""
    estimator = WorkerAccuracyEstimator(prior_accuracy=0.6, smoothing=1.5)
    for i in range(40):
        estimator.record(WORKERS[(i * 7) % len(WORKERS)], i % 3 != 0)
    monkeypatch.setattr(
        WorkerAccuracyEstimator,
        "__getstate__",
        lambda self: {k: v for k, v in vars(self).items() if k != "_estimates"},
        raising=False,
    )
    blob = pickle.dumps(estimator)
    monkeypatch.undo()
    loaded = pickle.loads(blob)
    assert loaded == estimator
    assert loaded.mean_accuracy() == estimator.mean_accuracy()
    for worker in (*WORKERS, "never-seen"):
        assert loaded.accuracy(worker) == estimator.accuracy(worker)
    # Constructed from tallies, the stored estimates are rebuilt too.
    rebuilt = WorkerAccuracyEstimator(
        prior_accuracy=0.6,
        smoothing=1.5,
        _correct=dict(estimator._correct),
        _total=dict(estimator._total),
    )
    assert rebuilt.as_mapping() == estimator.as_mapping()


def test_tracked_trajectories_equal_a_from_scratch_rebuild(small_pool, monkeypatch):
    """Every trajectory point of every question of a tracked service run
    equals Equation 4 re-evaluated from scratch over the answers that
    had arrived by then, each answer weighted by its worker's accuracy
    as the estimator reads it once that assignment's gold is scored."""
    on_submission = HITSession.on_submission
    weighted = []

    def checked(session, assignment):
        # Read through the session's read path, which folds the arrivals
        # logged since the last read into the aggregators.
        seen = {qid: len(session.trajectory(qid)) for qid in session._votes}
        on_submission(session, assignment)
        accuracy = session._engine.estimator.accuracy(assignment.worker_id)
        for qid in session._votes:
            session.trajectory(qid)
            aggregator = session._aggregators[qid]
            for answer in aggregator._answers[seen[qid]:]:
                assert answer.accuracy == accuracy
                weighted.append(answer)

    monkeypatch.setattr(HITSession, "on_submission", checked)
    cdas = CDAS.with_default_jobs(SimulatedMarket(small_pool, seed=31), seed=31)
    service = cdas.service(max_in_flight=3)
    # Each record lets go of its sessions once DONE; the log keeps them.
    log = GrantLog(service)
    gold = generate_tweets(["gold-movie"], per_movie=10, seed=32)
    handles = [
        service.submit(
            "twitter-sentiment",
            movie_query(movie, 0.9),
            tweets=generate_tweets([movie], per_movie=18, seed=33 + i),
            gold_tweets=gold,
            batch_size=6,
            worker_count=5,
        )
        for i, movie in enumerate(("alpha", "beta", "gamma"))
    ]
    service.run_until_idle()
    points = 0
    for handle in handles:
        for session in log.of(handle.seq):
            for aggregator in session._aggregators.values():
                answers = aggregator._answers
                for k, point in enumerate(aggregator.trajectory, start=1):
                    expected = answer_confidences(answers[:k], aggregator.domain)
                    assert point.answers_received == k
                    assert list(point.confidences) == list(expected)
                    for label, value in expected.items():
                        assert point.confidences[label] == value
                    best = max(aggregator.domain.labels, key=expected.__getitem__)
                    assert point.best_answer == best
                    assert point.best_confidence == expected[best]
                    points += 1
    assert points == len(weighted) > 100
