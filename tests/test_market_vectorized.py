"""Fast paths change *nothing* but time: the pins that outlived the batch path.

* ``publish_many`` is a loop over ``publish``; on a duplicate id it
  registers the prefix and raises exactly as per-HIT publishes do;
* the memoized confidence math returns bit-identical values, and the
  incremental aggregator's running sums equal a from-scratch rebuild;
* re-recording every golden scenario reproduces the pinned
  interaction-stream fingerprints — the engine-wide end-to-end pin that
  the lean publish lane, the memoized confidence math and incremental
  aggregation all sit behind.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.hit import HIT, Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import WorkerPool
from repro.amt.worker import WorkerProfile
from repro.core.confidence import answer_confidences, worker_confidence
from repro.core.domain import AnswerDomain
from repro.core.online import OnlineAggregator
from repro.core.types import WorkerAnswer
from repro.util.rng import substream

OPTIONS = ("pos", "neu", "neg")


def _pool(seed: int, spam_frac: float, collude_frac: float, size: int = 40) -> WorkerPool:
    rng = substream(seed, "pool")
    profiles = []
    for i in range(size):
        r = rng.random()
        if r < collude_frac:
            behaviour, clique = "colluder", int(rng.integers(3))
        elif r < collude_frac + spam_frac:
            behaviour, clique = "spammer", 0
        else:
            behaviour, clique = "reliable", 0
        profiles.append(
            WorkerProfile(
                worker_id=f"w{i:05d}",
                true_accuracy=float(0.55 + 0.4 * rng.random()),
                behaviour=behaviour,
                clique=clique,
                approval_rate=float(0.9 + 0.1 * rng.random()),
                skills=(("sentiment", float(rng.random() * 0.1 - 0.05)),),
            )
        )
    return WorkerPool(profiles)


def _hits(
    count: int,
    questions: int,
    with_reasons: bool,
    with_difficulty: bool,
) -> list[HIT]:
    hits = []
    for h in range(count):
        qs = tuple(
            Question(
                question_id=f"hit{h:03d}-q{q}",
                options=OPTIONS,
                truth=OPTIONS[q % 3],
                difficulty=(q % 5 - 2) * 0.2 if with_difficulty else 0.0,
                is_gold=(q % 4 == 3),
                topic="sentiment",
                reason_keywords=("because", "since") if with_reasons and q == 0 else (),
            )
            for q in range(questions)
        )
        hits.append(HIT(hit_id=f"hit-{h:05d}", questions=qs, assignments=7))
    return hits


def test_publish_many_duplicate_id_falls_back_like_reference():
    pool = _pool(3, 0.1, 0.1)
    hits = _hits(3, 4, False, False)
    market = SimulatedMarket(pool, seed=3)
    market.publish_many(hits)
    clash = SimulatedMarket(pool, seed=3)
    with pytest.raises(ValueError, match="already published"):
        clash.publish_many(hits + [hits[0]])


# -- memoized confidence math -------------------------------------------------


def _observation(count: int) -> list[WorkerAnswer]:
    return [
        WorkerAnswer(
            worker_id=f"w{i}",
            answer=OPTIONS[i % 3],
            accuracy=0.55 + (i % 7) * 0.05,
            keywords=(),
            timestamp=float(i),
        )
        for i in range(count)
    ]


def test_worker_confidence_cache_hits_are_bit_identical():
    worker_confidence.cache_clear()
    domain = AnswerDomain.closed(OPTIONS)
    observation = _observation(30)
    cold = answer_confidences(observation, domain)
    baseline = worker_confidence.cache_info()
    warm = answer_confidences(observation, domain)
    assert worker_confidence.cache_info().hits > baseline.hits
    assert list(warm) == list(cold)
    for label in cold:
        assert math.isclose(warm[label], cold[label], rel_tol=0.0, abs_tol=0.0)
    # The cached value equals Definition 2 evaluated from scratch.
    cached = worker_confidence(0.7, 3)
    assert cached == math.log(2) + math.log(0.7) - math.log(0.3)


@settings(max_examples=20, deadline=None)
@given(
    answers=st.lists(
        st.sampled_from(OPTIONS + ("novel-a", "novel-b")),
        min_size=1,
        max_size=12,
    ),
    accuracies=st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=12, max_size=12
    ),
    closed=st.booleans(),
)
def test_incremental_aggregator_matches_rebuilt_weights(answers, accuracies, closed):
    """The running per-label sums equal a from-scratch Equation 4 rebuild
    after every arrival, including open-domain growth (which re-estimates
    the effective m and forces a rebuild)."""
    if closed:
        answers = [a if a in OPTIONS else OPTIONS[0] for a in answers]
        domain = AnswerDomain.closed(OPTIONS)
    else:
        domain = AnswerDomain.open_ended([answers[0]])
    aggregator = OnlineAggregator(domain, hired_workers=len(answers), mean_accuracy=0.7)
    seen: list[WorkerAnswer] = []
    for i, answer in enumerate(answers):
        wa = WorkerAnswer(
            worker_id=f"w{i}",
            answer=answer,
            accuracy=accuracies[i],
            keywords=(),
            timestamp=float(i),
        )
        point = aggregator.submit(wa)
        seen.append(wa)
        expected = answer_confidences(seen, aggregator.domain)
        assert list(point.confidences) == list(expected)
        for label, value in expected.items():
            assert point.confidences[label] == value


# -- golden re-pins ------------------------------------------------------------


def test_rerecorded_golden_scenarios_keep_pinned_fingerprints(tmp_path):
    """Recording the golden scenarios *today* — through the memoized
    confidence math, the incremental aggregators, the wake-heap pump and
    the batch-capable scheduler — must reproduce the pinned fingerprints.
    These pins must NOT change in a perf PR; a mismatch means an
    optimisation altered engine-visible behaviour."""
    from repro.scenarios import record_scenario
    from tests.test_golden_traces import GOLDEN, TRACES

    from repro.amt.trace import load_trace

    for filename, (scenario, pinned) in sorted(GOLDEN.items()):
        meta = load_trace(TRACES / filename).meta
        report = record_scenario(
            scenario, tmp_path / filename, seed=meta.get("seed", 0)
        )
        assert report.fingerprint == pinned, (
            f"{scenario}: re-recorded fingerprint drifted from the pin"
        )
