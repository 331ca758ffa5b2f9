"""Scheduler equivalence and concurrency tests.

The contract under test (ISSUE 1): ``run_batch`` must stay bit-for-bit
identical to the historical blocking engine, while ``HITScheduler`` runs
many HITs concurrently with submissions processed in global arrival order,
deterministically for a fixed seed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from grant_log import EvidenceLog, services_logged
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.hit import Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.engine.engine import CrowdsourcingEngine, EngineConfig
from repro.engine.scheduler import BatchSpec, HITScheduler
from repro.engine.session import SessionState
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

GOLDEN_PATH = Path(__file__).parent / "data_golden_run_batch.json"

OPTIONS = ("pos", "neu", "neg")


def _questions(count: int, prefix: str = "q", difficulty: float = 0.0) -> list[Question]:
    return [
        Question(
            question_id=f"{prefix}{i}",
            options=OPTIONS,
            truth=OPTIONS[i % 3],
            difficulty=difficulty,
        )
        for i in range(count)
    ]


def _gold(count: int) -> list[Question]:
    return [
        Question(question_id=f"gold{i}", options=OPTIONS, truth=OPTIONS[i % 3])
        for i in range(count)
    ]


def _engine(pool, market_seed=21, engine_seed=21, **config) -> CrowdsourcingEngine:
    market = SimulatedMarket(pool, seed=market_seed)
    return CrowdsourcingEngine(market, seed=engine_seed, config=EngineConfig(**config))


def _result_fingerprint(result):
    """Every externally observable field, floats kept exact."""
    return (
        result.hit_id,
        result.workers_hired,
        result.assignments_collected,
        result.assignments_cancelled,
        result.terminated_early,
        result.cost,
        tuple(
            (
                r.question.question_id,
                r.verdict.answer,
                r.verdict.confidence,
                tuple(sorted((r.verdict.scores or {}).items())),
                tuple((wa.worker_id, wa.answer, wa.accuracy) for wa in r.observation),
            )
            for r in result.records
        ),
    )


class TestGoldenEquivalence:
    """``run_batch`` replays the pre-refactor engine bit for bit.

    The golden file was generated by the *historical* blocking loop (before
    the scheduler existed); these assertions are what "byte-identical
    verdicts, costs, and RNG behaviour" means concretely.
    """

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize(
        "key,termination,verifier",
        [
            ("plain", None, "verification"),
            ("expmax", "expmax", "verification"),
            ("minmax-half", "minmax", "half-voting"),
        ],
    )
    def test_run_batch_matches_golden(self, golden, key, termination, verifier):
        pool = WorkerPool.from_config(PoolConfig(size=120), seed=7)
        market = SimulatedMarket(pool, seed=21)
        engine = CrowdsourcingEngine(
            market,
            seed=21,
            config=EngineConfig(termination=termination, verifier=verifier),
        )
        engine.calibrate(_gold(12), workers_per_hit=15, hits=2)
        expected_batches, expected_ledger = golden[key][:2], golden[key][2]
        for b, expected in enumerate(expected_batches):
            res = engine.run_batch(
                _questions(6, prefix=f"b{b}q"),
                0.9,
                gold_pool=_gold(10),
                worker_count=9 if b == 0 else None,
            )
            assert res.hit_id == expected["hit_id"]
            assert res.workers_hired == expected["workers_hired"]
            assert res.assignments_collected == expected["collected"]
            assert res.assignments_cancelled == expected["cancelled"]
            assert res.terminated_early == expected["terminated_early"]
            assert res.cost.hex() == expected["cost"]
            assert len(res.records) == len(expected["verdicts"])
            for record, want in zip(res.records, expected["verdicts"]):
                assert record.question.question_id == want["qid"]
                assert record.verdict.answer == want["answer"]
                if want["confidence"] is None:
                    assert record.verdict.confidence is None
                else:
                    assert record.verdict.confidence.hex() == want["confidence"]
                assert {
                    k: v.hex() for k, v in (record.verdict.scores or {}).items()
                } == want["scores"]
        assert market.ledger.total_cost.hex() == expected_ledger["ledger_total"]
        assert market.ledger.charged_assignments == expected_ledger["ledger_charged"]
        assert market.ledger.cancelled_assignments == expected_ledger["ledger_cancelled"]
        assert engine.mean_accuracy().hex() == expected_ledger["mu"]


class TestSingleSlotEquivalence:
    """A one-slot scheduler multiplexing N sessions == N serial run_batch calls."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batches=st.integers(min_value=1, max_value=3),
        termination=st.sampled_from([None, "expmax", "minmax", "minexp"]),
    )
    def test_property(self, seed, batches, termination):
        pool = WorkerPool.from_config(PoolConfig(size=120), seed=7)
        serial = _engine(pool, market_seed=seed, engine_seed=seed, termination=termination)
        multiplexed = _engine(
            pool, market_seed=seed, engine_seed=seed, termination=termination
        )
        serial_results = [
            serial.run_batch(
                _questions(4, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=7
            )
            for b in range(batches)
        ]
        scheduler = HITScheduler(multiplexed, max_in_flight=1)
        for b in range(batches):
            scheduler.submit(
                _questions(4, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=7
            )
        scheduled_results = scheduler.run()
        assert [_result_fingerprint(r) for r in serial_results] == [
            _result_fingerprint(r) for r in scheduled_results
        ]
        assert (
            serial.market.ledger.total_cost == multiplexed.market.ledger.total_cost
        )
        assert serial.mean_accuracy() == multiplexed.mean_accuracy()


class TestConcurrentScheduling:
    def _run(self, pool, max_in_flight, sessions=6, on_event=None, **config):
        engine = _engine(pool, **config)
        scheduler = HITScheduler(
            engine, max_in_flight=max_in_flight, on_event=on_event
        )
        for b in range(sessions):
            scheduler.submit(
                _questions(4, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=7
            )
        results = scheduler.run()
        return engine, scheduler, results

    def test_runs_four_hits_concurrently_in_arrival_order(self, small_pool):
        events = []
        engine, scheduler, results = self._run(
            small_pool, max_in_flight=4, on_event=lambda e, s: events.append(e)
        )
        assert scheduler.peak_in_flight == 4
        assert len(results) == 6
        assert all(len(r.records) == 4 for r in results)
        # Global arrival order: times never go backwards, sequence is dense.
        assert [e.time for e in events] == sorted(e.time for e in events)
        assert [e.sequence for e in events] == list(range(len(events)))
        # Genuine interleaving: submissions from concurrent HITs mix rather
        # than draining one HIT at a time (a serial drain of 6 HITs would
        # switch hit ids exactly 5 times).
        hit_ids = [e.hit_id for e in events]
        switches = sum(1 for a, b in zip(hit_ids, hit_ids[1:]) if a != b)
        assert switches > len(results) - 1
        assert len(set(hit_ids[:10])) >= 2

    def test_deterministic_for_fixed_seed(self, small_pool):
        _, _, first = self._run(small_pool, max_in_flight=4)
        _, _, second = self._run(small_pool, max_in_flight=4)
        assert [_result_fingerprint(r) for r in first] == [
            _result_fingerprint(r) for r in second
        ]

    def test_results_in_submission_order(self, small_pool):
        _, scheduler, results = self._run(small_pool, max_in_flight=4)
        assert [r.hit_id for r in results] == sorted(r.hit_id for r in results)
        assert [s.result for s in scheduler.sessions] == results

    def test_total_work_independent_of_in_flight(self, small_pool):
        engines = {}
        for k in (1, 4, 6):
            engine, _, results = self._run(small_pool, max_in_flight=k)
            engines[k] = (
                sum(r.assignments_collected for r in results),
                engine.market.ledger.total_cost,
            )
        assert engines[1] == engines[4] == engines[6]

    def test_concurrent_makespan_shrinks(self, small_pool):
        """Overlapping HITs finish sooner in simulated time (the throughput win)."""
        clocks = {}
        for k in (1, 4, 6):
            _, scheduler, _ = self._run(small_pool, max_in_flight=k)
            clocks[k] = scheduler.clock
        assert clocks[4] < clocks[1]
        assert clocks[6] <= clocks[4]

    def test_early_termination_in_flight(self, small_pool):
        """Cancelling sessions retire cleanly without stalling the pump."""
        engine = _engine(small_pool, market_seed=33, engine_seed=33, termination="expmax")
        engine.calibrate(_gold(12), workers_per_hit=15, hits=2)
        scheduler = HITScheduler(engine, max_in_flight=4)
        for b in range(4):
            scheduler.submit(
                _questions(1, prefix=f"b{b}q", difficulty=-0.5),
                0.9,
                gold_pool=_gold(8),
                worker_count=31,
            )
        results = scheduler.run()
        assert len(results) == 4
        assert all(r.terminated_early for r in results)
        assert all(r.assignments_collected < 31 for r in results)
        assert engine.market.ledger.cancelled_assignments > 0

    def test_externally_finished_handle_is_sealed(self, small_pool):
        """A handle completed outside the pump (live-backend expiry or
        external cancellation) is still finalized instead of deadlocking."""
        engine = _engine(small_pool)
        state = {"cancelled": None}

        def on_event(event, session):
            if state["cancelled"] is None:
                victim = next(
                    s
                    for s in scheduler.sessions
                    if s is not session and s.handle is not None and not s.done
                )
                victim.handle.cancel()  # behind the scheduler's back
                state["cancelled"] = victim

        scheduler = HITScheduler(engine, max_in_flight=2, on_event=on_event)
        for b in range(2):
            scheduler.submit(
                _questions(4, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=7
            )
        results = scheduler.run()
        assert len(results) == 2
        victim = state["cancelled"]
        assert victim.done and victim.result is not None
        assert victim.result.assignments_collected < 7
        assert victim.result.assignments_cancelled > 0
        assert not victim.result.terminated_early  # not the engine's decision
        assert len(victim.result.records) == 4  # verdicts (or abstentions) exist
        survivor = next(s for s in scheduler.sessions if s is not victim)
        assert survivor.result.assignments_collected == 7

    def test_sealing_releases_slot_promptly(self, small_pool):
        """An externally-finished HIT frees its publish slot while other
        HITs are still streaming — not only when the pump runs dry."""
        engine = _engine(small_pool)
        events = []
        state = {"victim": None}

        def on_event(event, session):
            events.append(event.hit_id)
            if state["victim"] is None:
                victim = next(
                    s
                    for s in scheduler.sessions
                    if s is not session and s.handle is not None and not s.done
                )
                victim.handle.cancel()  # external expiry mid-stream
                state["victim"] = victim

        scheduler = HITScheduler(engine, max_in_flight=2, on_event=on_event)
        for b in range(3):
            scheduler.submit(
                _questions(4, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=7
            )
        results = scheduler.run()
        assert len(results) == 3
        victim = state["victim"]
        # The third session must have been published into the freed slot
        # while the first survivor was still streaming: its first event
        # lands before the survivor's last one (deferred sealing would
        # serialize them instead).
        survivor = next(s for s in scheduler.sessions[:2] if s is not victim)
        third = scheduler.sessions[2]
        first_third = events.index(third.hit_id)
        last_survivor = len(events) - 1 - events[::-1].index(survivor.hit_id)
        assert first_third < last_survivor

    def test_lazy_source_materialises_on_demand(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=1)
        built = []

        def specs():
            for b in range(3):
                built.append((b, scheduler.events_processed))
                yield BatchSpec(
                    real_questions=tuple(_questions(4, prefix=f"b{b}q")),
                    required_accuracy=0.9,
                    gold_pool=tuple(_gold(8)),
                    worker_count=7,
                )

        group = scheduler.add_source(specs())
        assert built == []  # nothing pulled until the pump needs a session
        results = scheduler.run()
        assert len(results) == 3 and len(group.results) == 3
        # Each later batch was materialised only after the previous HIT's
        # 7 submissions were fully pumped — not all up front.
        assert [b for b, _ in built] == [0, 1, 2]
        assert built[1][1] >= 7
        assert built[2][1] >= 14

    def test_sources_rotate_round_robin(self, small_pool):
        """Two lazy sources share publish slots alternately, not FIFO."""
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=2)
        def batches(s):
            return (_questions(4, prefix=f"s{s}b{b}") for b in range(2))

        groups = [
            scheduler.add_batches(
                batches(s), required_accuracy=0.9, gold_pool=_gold(8), worker_count=7
            )
            for s in range(2)
        ]
        scheduler.run()
        spawn_order = [
            session._input_questions[0].question_id[:4]
            for session in scheduler.sessions
        ]
        assert spawn_order == ["s0b0", "s1b0", "s0b1", "s1b1"]
        assert all(len(g.results) == 2 for g in groups)

    def test_mixed_eager_and_lazy_sources(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=2)
        eager = scheduler.submit(
            _questions(4, prefix="eager"), 0.9, gold_pool=_gold(8), worker_count=7
        )
        group = scheduler.add_source(
            BatchSpec(
                real_questions=tuple(_questions(4, prefix=f"lazy{b}q")),
                required_accuracy=0.9,
                gold_pool=tuple(_gold(8)),
                worker_count=7,
            )
            for b in range(2)
        )
        results = scheduler.run()
        assert len(results) == 3
        assert eager.result is results[0]
        assert len(group.results) == 2


class TestSessionLifecycle:
    def test_states_progress(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=1)
        session = scheduler.submit(
            _questions(3), 0.9, gold_pool=_gold(8), worker_count=5
        )
        assert session.state is SessionState.PLANNED
        scheduler.run()
        assert session.state is SessionState.DONE
        assert session.result is not None
        assert session.assignments_collected == 5

    def test_cannot_publish_twice(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=1)
        session = scheduler.submit(
            _questions(3), 0.9, gold_pool=_gold(8), worker_count=5
        )
        scheduler.run()
        with pytest.raises(ValueError, match="publish"):
            session.publish()

    def test_failed_publish_orphans_no_published_hit(self, small_pool):
        """A publish that raises loses only its own session: every HIT the
        market registered is being collected, and sessions not yet
        reached stay queued."""

        class FailingSecondPublish:
            """A market without ``publish_many`` whose 2nd publish raises."""

            def __init__(self, inner: SimulatedMarket) -> None:
                self._inner = inner
                self.ledger = inner.ledger
                self.calls = 0

            def publish(self, hit):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("market refused the HIT")
                return self._inner.publish(hit)

            def __getattr__(self, name):
                if name == "publish_many":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        inner = SimulatedMarket(small_pool, seed=21)
        engine = CrowdsourcingEngine(FailingSecondPublish(inner), seed=21)
        scheduler = HITScheduler(engine, max_in_flight=3)
        sessions = [
            scheduler.submit(
                _questions(3, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=5
            )
            for b in range(3)
        ]
        with pytest.raises(RuntimeError, match="refused"):
            scheduler.step()
        assert inner.published_hits == 1
        assert scheduler.in_flight == 1
        first = sessions[0]
        assert first.state is SessionState.COLLECTING
        assert first.handle is inner.handle(first.handle.hit.hit_id)
        assert scheduler.pending_count == 1
        assert sessions[2].state is SessionState.PLANNED
        # The untouched session still runs; only the failed one has no result.
        with pytest.raises(RuntimeError, match="1 sessions finished without a result"):
            scheduler.run()
        assert sessions[0].result is not None and sessions[2].result is not None
        assert sessions[1].result is None

    def test_empty_batch_rejected_at_submission(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine)
        with pytest.raises(ValueError, match="empty"):
            scheduler.submit([], 0.9)

    def test_invalid_max_in_flight(self, small_pool):
        with pytest.raises(ValueError, match="max_in_flight"):
            HITScheduler(_engine(small_pool), max_in_flight=0)

    def test_group_results_before_run(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine)
        group = scheduler.add_source(
            iter(
                [
                    BatchSpec(
                        real_questions=tuple(_questions(3)),
                        required_accuracy=0.9,
                        gold_pool=tuple(_gold(8)),
                        worker_count=5,
                    )
                ]
            )
        )
        scheduler.step()  # publishes the session, processes one arrival
        with pytest.raises(ValueError, match="run the scheduler"):
            group.results


class TestTrajectories:
    def test_online_aggregators_track_live_confidences(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=2, track_trajectories=True)
        sessions = [
            scheduler.submit(
                _questions(3, prefix=f"b{b}q"), 0.9, gold_pool=_gold(8), worker_count=5
            )
            for b in range(2)
        ]
        scheduler.run()
        for b, session in enumerate(sessions):
            for i in range(3):
                qid = f"b{b}q{i}"
                trajectory = session.trajectory(qid)
                assert len(trajectory) == 5  # one point per arrival
                assert [p.answers_received for p in trajectory] == [1, 2, 3, 4, 5]
                confidences = session.confidences(qid)
                assert set(confidences) == set(OPTIONS)
                assert sum(confidences.values()) == pytest.approx(1.0)

    def test_trajectory_requires_tracking(self, small_pool):
        engine = _engine(small_pool)
        scheduler = HITScheduler(engine, max_in_flight=1)
        session = scheduler.submit(
            _questions(3), 0.9, gold_pool=_gold(8), worker_count=5
        )
        scheduler.run()
        with pytest.raises(ValueError, match="track_trajectories"):
            session.trajectory("q0")


class TestSubmitMany:
    def _tweets_and_gold(self, seed=5):
        tweets = generate_tweets(["alpha", "beta"], per_movie=30, seed=seed)
        gold = generate_tweets(["gold-movie"], per_movie=10, seed=seed + 1)
        return tweets, gold

    def test_mixed_jobs_share_one_scheduler(self, small_pool):
        market = SimulatedMarket(small_pool, seed=41)
        cdas = CDAS.with_default_jobs(market, seed=41)
        tweets, gold = self._tweets_and_gold()
        images = generate_images(per_subject=1, seed=3)
        gold_images = generate_images(per_subject=1, seed=4)
        tsa_result, it_result = cdas.submit_many(
            [
                (
                    "twitter-sentiment",
                    movie_query("alpha", 0.9),
                    {"tweets": tweets, "gold_tweets": gold, "worker_count": 5},
                ),
                (
                    "image-tagging",
                    movie_query("ignored", 0.9),
                    {
                        "images": images,
                        "gold_images": gold_images,
                        "worker_count": 5,
                    },
                ),
            ],
            max_in_flight=4,
        )
        assert tsa_result.records and it_result.records
        assert tsa_result.report.subject == "alpha"
        assert it_result.images == tuple(images)
        assert cdas.total_cost > 0

    def test_single_slot_submit_many_matches_serial_submit(self, small_pool):
        tweets, gold = self._tweets_and_gold(seed=9)
        query = movie_query("alpha", 0.9)

        # Each service seals its finished query's records, so the
        # evidence is compared as each query completes.
        def hits(record):
            return [_result_fingerprint(h) for h in record.result_value.hit_results]

        with services_logged(functools.partial(EvidenceLog, fingerprint=hits)) as logs:
            serial = CDAS.with_default_jobs(SimulatedMarket(small_pool, seed=41), seed=41)
            serial_result = serial.submit(
                "twitter-sentiment",
                query,
                tweets=tweets,
                gold_tweets=gold,
                worker_count=5,
            )

            shared = CDAS.with_default_jobs(SimulatedMarket(small_pool, seed=41), seed=41)
            (many_result,) = shared.submit_many(
                [
                    (
                        "twitter-sentiment",
                        query,
                        {"tweets": tweets, "gold_tweets": gold, "worker_count": 5},
                    )
                ],
                max_in_flight=1,
            )
        serial_log, many_log = logs
        (evidence,) = serial_log.evidence.values()
        records = [r for fingerprint in evidence for r in fingerprint[-1]]
        assert records and all(scores and votes for *_, scores, votes in records)
        assert serial_log.evidence == many_log.evidence
        assert [_result_fingerprint(r) for r in serial_result.hit_results] == [
            _result_fingerprint(r) for r in many_result.hit_results
        ]
        assert all(
            r.observation == () and r.verdict.scores == {}
            for r in serial_result.records
        )
        assert serial_result.report == many_result.report
        assert serial.total_cost == shared.total_cost

    def test_unregistered_submitter_rejected(self, small_pool):
        market = SimulatedMarket(small_pool, seed=41)
        cdas = CDAS.with_default_jobs(market, seed=41)
        from repro.engine.jobs import JobSpec
        from repro.engine.templates import QueryTemplate

        cdas.register_job(
            JobSpec(
                name="runner-only",
                template=QueryTemplate(
                    job_name="runner-only",
                    instructions="x",
                    item_label="Item",
                    prompt="?",
                ),
                computer_tasks=("noop",),
                human_tasks=("noop",),
            ),
            runner=lambda engine, plan, inputs: None,
        )
        with pytest.raises(ValueError, match="submitter"):
            cdas.submit_many([("runner-only", movie_query("alpha", 0.9), {})])
