"""Per-step and per-HIT engine bookkeeping stays proportional to live work.

A service step walks only the queries not yet terminal (the live index),
the grant scan visits only each tenant's live records, a query's sealed
sessions are tracked by a forward-only cursor, and a HIT's verification
reads each worker's accuracy once.  These tests pin that finished history
is never touched again, that the cursor and the snapshot-restored live
index give the same outcomes as before, and that memoised verification
equals the memo-less reference under the quality screen.
"""

from __future__ import annotations

import pytest
from grant_log import GrantLog

from repro.amt.hit import Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.core.sampling import WorkerAccuracyEstimator
from repro.durability import outcome_digest, recover
from repro.engine.engine import CrowdsourcingEngine, EngineConfig
from repro.engine.query import Query
from repro.engine.scheduler import HITScheduler
from repro.engine.service import (
    TERMINAL_STATES,
    AdmissionController,
    QueryState,
    _QueryRecord,
)
from repro.engine.session import HITSession
from repro.system import CDAS
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 2020


def _system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    return cdas


def _gold():
    return generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)


def _tsa(subject: str, **inputs):
    return {
        "job_name": "twitter-sentiment",
        "query": Query(keywords=(subject,), required_accuracy=0.9,
                       domain="movies", subject=subject),
        "gold_tweets": _gold(),
        "batch_size": 4,
        "worker_count": 3,
        **inputs,
    }


def _tweets(subject: str, count: int, seed: int = SEED + 2):
    """A one-shot TSA query over ``count`` tweets (``count / 4`` HITs)."""
    return _tsa(subject, tweets=generate_tweets([subject], per_movie=count, seed=seed))


class TestFinishedHistoryIsNotWalked:
    def test_terminal_records_are_never_touched(self, small_pool, monkeypatch):
        service = _system(small_pool).service(max_in_flight=4)
        finished = [
            service.submit(**_tweets(f"m{i}", 4, seed=SEED + 10 + i)) for i in range(20)
        ]
        service.run_until_idle()
        assert all(h.state is QueryState.DONE for h in finished)
        terminal = {id(h._record) for h in finished}

        def untouchable(*_args):
            raise AssertionError("a terminal record was walked")

        for handle in finished:
            handle._record.peek_batch = untouchable
        work_done = _QueryRecord.work_done.fget
        grantable = AdmissionController._grantable

        def guarded_work_done(record):
            if id(record) in terminal:
                untouchable()
            return work_done(record)

        def guarded_grantable(controller, record, ledger):
            if record.state in TERMINAL_STATES:
                untouchable()
            return grantable(controller, record, ledger)

        monkeypatch.setattr(_QueryRecord, "work_done", property(guarded_work_done))
        monkeypatch.setattr(AdmissionController, "_grantable", guarded_grantable)

        late = service.submit(**_tweets("late", 8, seed=SEED + 99))
        service.run_until_idle()
        assert late.state is QueryState.DONE
        assert service.idle
        assert service._live == []
        assert all(live == [] for live in service.admission._live.values())

    def test_cancelled_record_leaves_the_live_index(self, small_pool):
        service = _system(small_pool).service(max_in_flight=2)
        doomed = service.submit(**_tweets("doomed", 12))
        kept = service.submit(**_tweets("kept", 8, seed=SEED + 3))
        while doomed.progress().items_answered == 0:
            assert service.step()
        assert doomed.cancel()
        assert doomed._record in service._live  # dropped by the next sweep
        service.step()
        assert doomed._record not in service._live
        service.run_until_idle()
        assert kept.state is QueryState.DONE
        assert service._live == []


class TestSealedCursor:
    def test_out_of_order_seals_finalise_on_the_last_seal(self, small_pool):
        service = _system(small_pool).service(max_in_flight=4)
        # The record lets go of its sessions once DONE; the log keeps them.
        log = GrantLog(service)
        handle = service.submit(**_tweets("order", 16, seed=SEED + 7))
        record = handle._record
        out_of_order = False
        while service.step():
            sessions = log.of(handle.seq)
            sealed = [s.done for s in sessions]
            # A later session sealed while an earlier one still collects.
            out_of_order |= any(
                not earlier and later
                for i, earlier in enumerate(sealed)
                for later in sealed[i + 1:]
            )
            drained = record._peeked is None and not record.sources
            finished = drained and all(sealed)
            assert (record.state is QueryState.DONE) == finished
            assert record._first_unsealed <= len(sessions)
            assert all(s.done for s in sessions[: record._first_unsealed])
        assert out_of_order, "the run never sealed sessions out of order"
        assert len(sessions) == 4
        assert handle.state is QueryState.DONE

    def test_old_records_restart_the_cursor(self, small_pool):
        service = _system(small_pool).service(max_in_flight=2)
        handle = service.submit(**_tweets("old", 8))
        service.run_until_idle()
        state = dict(handle._record.__dict__)
        del state["_first_unsealed"]
        old = object.__new__(_QueryRecord)
        old.__setstate__(state)
        assert old._first_unsealed == 0
        assert old.work_done
        assert old._first_unsealed == len(old.sessions)

    def test_old_admission_rebuilds_its_live_index(self, small_pool):
        service = _system(small_pool).service(max_in_flight=2)
        done = service.submit(**_tweets("done", 4))
        service.run_until_idle()
        queued = service.submit(**_tweets("queued", 4, seed=SEED + 3))
        state = dict(service.admission.__dict__)
        del state["_live"]
        old = object.__new__(AdmissionController)
        old.__setstate__(state)
        assert old._live == {"default": [queued._record]}
        assert done._record in old._records["default"]


def _snapshots(path) -> int:
    return len(list(path.parent.glob(f"{path.name}.snap-*")))


def _standing(service):
    return service.submit(
        windows=3,
        stream=TweetStream(
            tweets=tuple(generate_tweets(["rio"], per_movie=24, seed=SEED + 4)),
            unit_seconds=43200.0,
        ),
        **_tsa("rio"),
    )


def _crash_and_recover(pool, tmp_path):
    """A ``snapshot_every=6`` durable run copied mid-flight (the crash),
    run on to the end, then recovered from the copy and finished the
    same way; returns the (finished) original and recovered services."""
    path = tmp_path / "svc.journal.jsonl"
    service = _system(pool).service(max_in_flight=1, journal=path, snapshot_every=6)
    standing = _standing(service)
    while not (_snapshots(path) and standing.state is QueryState.RUNNING):
        assert service.step()
    service.flush_journal()
    crashed = path.with_name("crashed.journal.jsonl")
    crashed.write_bytes(path.read_bytes())
    # The uninterrupted run: finish, then one more query.
    service.run_until_idle()
    service.submit(**_tweets("after", 8, seed=SEED + 5))
    service.run_until_idle()
    service.close()
    assert all(h.state is QueryState.DONE for h in service.handles)

    recovered = recover(crashed, _system(pool))
    assert recovered.replayed_records == 0  # everything came from the snapshot
    live = recovered.handles[0]
    assert live.state is QueryState.RUNNING
    recovered.run_until_idle()
    assert live.state is QueryState.DONE
    after = recovered.submit(**_tweets("after", 8, seed=SEED + 5))
    recovered.run_until_idle()
    assert after.state is QueryState.DONE
    recovered.close()
    return service, recovered


class TestSnapshotRestore:
    def test_restored_live_index_finishes_every_query(self, small_pool, tmp_path):
        service, recovered = _crash_and_recover(small_pool, tmp_path)
        assert outcome_digest(recovered) == outcome_digest(service)

    def test_snapshot_without_stored_estimates_keeps_the_digest(
        self, small_pool, tmp_path, monkeypatch
    ):
        """Snapshots pickled as older code wrote them — the estimator's
        tallies without its stored estimates — recover to the same
        outcome digest, the estimates rebuilt on load."""
        pickled = []

        def tallies_only(estimator):
            pickled.append(estimator)
            return {k: v for k, v in vars(estimator).items() if k != "_estimates"}

        monkeypatch.setattr(
            WorkerAccuracyEstimator, "__getstate__", tallies_only, raising=False
        )
        service, recovered = _crash_and_recover(small_pool, tmp_path)
        assert pickled
        assert outcome_digest(recovered) == outcome_digest(service)
        estimator = recovered.engine.estimator
        assert estimator.as_mapping() == service.engine.estimator.as_mapping()
        assert estimator.mean_accuracy() == service.engine.estimator.mean_accuracy()


# -- verification under the quality screen ------------------------------------

_OPTIONS = ("pos", "neu", "neg")


def _questions(prefix: str, count: int) -> list[Question]:
    return [
        Question(question_id=f"{prefix}{i}", options=_OPTIONS,
                 truth=_OPTIONS[i % 3])
        for i in range(count)
    ]


class TestVerificationEquivalence:
    @pytest.mark.parametrize(
        "verifier", ["verification", "half-voting", "majority-voting"]
    )
    def test_memoised_verification_matches_memo_less(self, verifier, monkeypatch):
        pool = WorkerPool.from_config(
            PoolConfig(size=60, spammer_fraction=0.35), seed=5
        )
        engine = CrowdsourcingEngine(
            SimulatedMarket(pool, seed=5),
            seed=5,
            config=EngineConfig(
                flag_threshold=0.6,
                flag_min_observations=2,
                verifier=verifier,
                sampling_rate=0.3,
            ),
        )
        gold = _questions("g", 12)
        engine.calibrate(gold, workers_per_hit=30, hits=1)
        seen = {"questions": 0, "flagged": 0, "all_flagged": 0, "decided": 0}
        finish = HITSession._finish

        def checked_finish(session):
            finish(session)
            # The reference: one fresh estimator read per vote, one fresh
            # verifier per question, at the same estimator state.
            expected = tuple(
                engine.finalize_question(q, session._votes[q.question_id])
                for q in session._real
            )
            assert session.result.records == expected
            for q, record in zip(session._real, expected):
                votes = session._votes[q.question_id]
                flagged = sum(engine.is_flagged(w) for w, _, _ in votes)
                seen["questions"] += 1
                seen["flagged"] += flagged
                if votes and flagged == len(votes):
                    seen["all_flagged"] += 1
                    assert record.observation == ()
                    assert record.verdict.answer is None
                    assert record.verdict.confidence is None
                seen["decided"] += record.verdict.answer is not None

        monkeypatch.setattr(HITSession, "_finish", checked_finish)
        scheduler = HITScheduler(engine, max_in_flight=3)
        real = _questions("q", 40)
        for i in range(0, len(real), 4):
            scheduler.submit(real[i:i + 4], 0.8, gold_pool=gold, worker_count=3)
        scheduler.run()
        assert seen["questions"] == 40
        assert seen["flagged"] > 0
        assert seen["all_flagged"] > 0
        assert seen["decided"] > 0

    def test_one_verifier_per_option_set(self):
        engine = CrowdsourcingEngine(
            SimulatedMarket(
                WorkerPool.from_config(PoolConfig(size=10), seed=1), seed=1
            )
        )
        first, second = _questions("a", 2)
        other = Question(question_id="yn", options=("yes", "no"), truth="yes")
        assert engine.verifier_for(first, 3) is engine.verifier_for(second, 5)
        assert engine.verifier_for(other, 3) is not engine.verifier_for(first, 3)
        assert engine.verifier_for(other, 3).domain.labels == ("yes", "no")
