"""The lean scalar publish lane is the reference publish, draw for draw.

``SimulatedMarket.publish`` draws its answers through ``_answer_lane``
rather than through ``publish_reference``'s per-question behaviour
dispatch.  These tests hold it to the oracle on fresh markets: the same
workers, answers and keywords *in dict insertion order*, the same submit
times and assignment order, and the same errors with the same markets
left behind.  The last test covers the one-keyword branch of the
vectorised batch path, which stops sending those lanes to replay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.hit import HIT, Question
from repro.amt.latency import ExponentialLatency, FixedLatency, LognormalLatency
from repro.amt.market import SimulatedMarket
from repro.amt.pool import WorkerPool
from repro.amt.worker import WorkerProfile
from repro.util.rng import substream

LATENCIES = (LognormalLatency, ExponentialLatency, lambda: FixedLatency(30.0))
TOPICS = ("sentiment", "imaging", "general")
REASONS = ("plot", "acting", "score")


def _pool(seed: int, spam_frac: float, collude_frac: float, size: int = 40) -> WorkerPool:
    rng = substream(seed, "lane-pool")
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
                true_accuracy=float(0.5 + 0.45 * rng.random()),
                behaviour=behaviour,
                clique=clique,
                approval_rate=float(0.9 + 0.1 * rng.random()),
                skills=(
                    ("sentiment", float(rng.random() * 0.2 - 0.1)),
                    ("imaging", float(rng.random() * 0.2 - 0.1)),
                ),
            )
        )
    return WorkerPool(profiles)


def _hits(
    count: int,
    questions: int,
    pool_sizes: list[int],
    difficulty: float,
    two_options: bool,
    mixed_topics: bool,
    assignments: int = 7,
) -> list[HIT]:
    hits = []
    for h in range(count):
        qs = []
        for q in range(questions):
            options = ("yes", "no") if two_options and q % 2 else ("pos", "neu", "neg")
            qs.append(
                Question(
                    question_id=f"hit{h:03d}-q{q}",
                    options=options,
                    truth=options[q % len(options)],
                    difficulty=difficulty * ((q % 5) - 2) / 2,
                    topic=TOPICS[q % 3] if mixed_topics else "sentiment",
                    reason_keywords=REASONS[: pool_sizes[q % len(pool_sizes)]],
                )
            )
        hits.append(HIT(hit_id=f"hit-{h:05d}", questions=tuple(qs), assignments=assignments))
    return hits


def _ordered_facts(handle):
    """Everything a handle exposes, with dicts kept in insertion order."""
    return (
        handle.hit.hit_id,
        tuple(w.worker_id for w in handle.workers),
        tuple(
            (
                a.hit_id,
                a.worker_id,
                tuple(a.answers.items()),
                tuple(a.keywords.items()),
                a.submit_time,
            )
            for a in handle._assignments
        ),
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    spam_frac=st.floats(min_value=0.0, max_value=0.35),
    collude_frac=st.floats(min_value=0.0, max_value=0.3),
    latency_idx=st.integers(min_value=0, max_value=len(LATENCIES) - 1),
    pool_sizes=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    difficulty=st.sampled_from([0.0, 0.3, 1.0]),
    two_options=st.booleans(),
    mixed_topics=st.booleans(),
    n_questions=st.integers(min_value=1, max_value=8),
    n_hits=st.integers(min_value=1, max_value=4),
)
def test_publish_matches_reference_in_insertion_order(
    seed, spam_frac, collude_frac, latency_idx, pool_sizes, difficulty,
    two_options, mixed_topics, n_questions, n_hits,
):
    pool = _pool(seed, spam_frac, collude_frac)
    hits = _hits(n_hits, n_questions, pool_sizes, difficulty, two_options, mixed_topics)
    latency = LATENCIES[latency_idx]
    reference = SimulatedMarket(pool, seed=seed, latency=latency())
    lean = SimulatedMarket(pool, seed=seed, latency=latency())
    for hit in hits:
        expected = reference.publish_reference(hit)
        actual = lean.publish(hit)
        assert _ordered_facts(actual) == _ordered_facts(expected)
    assert lean.published_hits == reference.published_hits == n_hits


def _pool_with_unknown_behaviour() -> WorkerPool:
    profiles = [
        WorkerProfile(
            worker_id=f"w{i:02d}",
            true_accuracy=0.8,
            approval_rate=0.95,
            behaviour=("spammer", "colluder", "reliable")[i % 3],
        )
        for i in range(9)
    ]
    profiles.append(
        WorkerProfile(
            worker_id="w-odd", true_accuracy=0.8, approval_rate=0.95, behaviour="sleeper"
        )
    )
    return WorkerPool(profiles)


def test_unknown_behaviour_raises_like_reference():
    pool = _pool_with_unknown_behaviour()
    # Every worker accepts, so the unknown one is always reached.
    (hit,) = _hits(1, 4, [1], 0.0, False, False, assignments=len(pool.profiles))
    outcomes = []
    for method in ("publish_reference", "publish"):
        market = SimulatedMarket(pool, seed=11)
        for _ in range(2):  # nothing registered, so a retry fails alike
            with pytest.raises(ValueError, match="unknown behaviour") as info:
                getattr(market, method)(hit)
        outcomes.append((str(info.value), market.published_hits))
    assert outcomes[0] == outcomes[1]
    assert "'w-odd'" in outcomes[0][0] and outcomes[0][1] == 0


def test_duplicate_id_raises_like_reference():
    pool = _pool(5, 0.1, 0.1)
    (hit,) = _hits(1, 3, [1], 0.3, False, False)
    messages = []
    for method in ("publish_reference", "publish"):
        market = SimulatedMarket(pool, seed=5)
        first = getattr(market, method)(hit)
        with pytest.raises(ValueError, match="already published") as info:
            getattr(market, method)(hit)
        messages.append(str(info.value))
        assert market.published_hits == 1
        assert market.handle(hit.hit_id) is first
    assert messages[0] == messages[1]


@pytest.mark.parametrize("seed", [3, 2012])
def test_publish_many_one_keyword_pools_skip_replay(seed):
    """One-keyword pools draw nothing, so reliable lanes stay vectorised."""
    pool = _pool(seed, 0.15, 0.15)
    hits = _hits(6, 8, [1, 0, 1], 0.3, True, True)
    reference = SimulatedMarket(pool, seed=seed)
    batched = SimulatedMarket(pool, seed=seed)
    expected = [reference.publish_reference(h) for h in hits]
    actual = batched.publish_many(hits)
    assert batched.fallback_batches == 0
    assert batched.batch_lanes == 6 * 7
    assert batched.replay_lanes == 0
    for ref, vec in zip(expected, actual):
        assert _ordered_facts(vec) == _ordered_facts(ref)
