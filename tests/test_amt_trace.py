"""Trace record/replay: round trips, divergence detection, file hygiene.

DESIGN.md §9: the recorder logs every market interaction of a run; the
replay backend serves the recording back through the unchanged engine,
raising a structured :class:`TraceDivergence` the moment the engine's
requests deviate.  These tests pin the contract from both sides — happy
round trips (simulated, slow, async, paced) and every divergence /
corruption class.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.amt.hit import HIT, Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.slow import SlowBackend
from repro.amt.trace import (
    TraceDivergence,
    TraceError,
    TraceRecorder,
    TraceReplayBackend,
    load_trace,
)
from repro.scenarios import (
    SCENARIOS,
    canonical_json,
    record_scenario,
    replay_scenario,
    run_scenario,
)
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets


def _market(seed: int = 11) -> SimulatedMarket:
    pool = WorkerPool.from_config(PoolConfig(size=80), seed=seed)
    return SimulatedMarket(pool, seed=seed)


def _question(qid: str = "q0") -> Question:
    return Question(
        question_id=qid, options=("yes", "no"), truth="yes", topic="general"
    )


def _hit(hit_id: str = "hit-t", n: int = 3, qid: str = "q0") -> HIT:
    return HIT(hit_id=hit_id, questions=(_question(qid),), assignments=n)


# -- raw recorder / replay ----------------------------------------------------


class TestRecorder:
    def test_records_publish_collect_cancel(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(_market(), path) as recorder:
            handle = recorder.publish(_hit(n=4))
            assert handle.next_submission() is not None
            assert handle.next_submission() is not None
            avoided = handle.cancel()
            assert avoided == 2
        trace = load_trace(path)
        assert len(trace.hits) == 1
        recorded = trace.hits[0]
        assert len(recorded.submissions) == 2
        assert recorded.cancel is not None
        assert recorded.cancel["outstanding"] == 2
        assert recorded.total_assignments == 4
        assert trace.end["submissions"] == 2

    def test_recorder_is_transparent(self, tmp_path):
        """Recording never changes what the inner backend serves."""
        market_a, market_b = _market(3), _market(3)
        plain = market_a.publish(_hit(n=3)).collect_all()
        with TraceRecorder(market_b, tmp_path / "t.jsonl") as recorder:
            handle = recorder.publish(_hit(n=3))
            recorded = []
            while (a := handle.next_submission()) is not None:
                recorded.append(a)
        assert recorded == plain
        assert market_a.ledger.total_cost == market_b.ledger.total_cost

    def test_recorder_delegates_profiles_and_peek(self, tmp_path):
        with TraceRecorder(_market(), tmp_path / "t.jsonl") as recorder:
            handle = recorder.publish(_hit(n=2))
            peek = handle.peek_time()
            assert peek is not None
            assignment = handle.next_submission()
            profile = handle.worker_profile(assignment.worker_id)
            assert profile.worker_id == assignment.worker_id
            assert handle.outstanding == 1
            assert not handle.done

    def test_unclosed_recorder_leaves_truncated_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(_market(), path)  # never closed
        with pytest.raises(TraceError, match="truncated"):
            load_trace(path)
        recorder.close()
        assert load_trace(path).end["publishes"] == 0

    def test_crashed_recording_is_not_sealed(self, tmp_path):
        """A run that raises mid-recording leaves a truncated trace, not
        one stamped complete with an end record."""
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with TraceRecorder(_market(), path) as recorder:
                recorder.publish(_hit(n=2)).next_submission()
                raise RuntimeError("boom")
        with pytest.raises(TraceError, match="truncated"):
            load_trace(path)

    def test_failed_inner_publish_leaves_no_phantom_record(self, tmp_path):
        """A publish the inner backend rejects is not written to the trace."""
        path = tmp_path / "t.jsonl"
        market = _market()
        with TraceRecorder(market, path) as recorder:
            recorder.publish(_hit(n=2))
            with pytest.raises(ValueError, match="already published"):
                recorder.publish(_hit(n=2))  # duplicate id → inner rejects
        trace = load_trace(path)
        assert len(trace.hits) == 1
        assert trace.end["publishes"] == 1


class TestReplayBackend:
    def _recorded(self, tmp_path, n=4, collect=None, cancel=False):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(_market(), path) as recorder:
            handle = recorder.publish(_hit(n=n))
            for _ in range(n if collect is None else collect):
                handle.next_submission()
            if cancel:
                handle.cancel()
        return path

    def test_replays_assignments_and_ledger(self, tmp_path):
        path = self._recorded(tmp_path, n=3)
        market = _market()
        plain = market.publish(_hit(n=3)).collect_all()
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=3))
        served = []
        while (a := handle.next_submission()) is not None:
            served.append(a)
        assert served == plain
        assert replay.ledger.total_cost == market.ledger.total_cost
        assert replay.verify_complete() == load_trace(path).fingerprint

    def test_empty_trace_drains_immediately(self, tmp_path):
        """A trace with no publishes replays to an immediately idle run."""
        path = tmp_path / "empty.jsonl"
        TraceRecorder(_market(), path).close()
        replay = TraceReplayBackend.load(path)
        assert replay.next_arrival_eta() is None
        assert replay.verify_complete() == load_trace(path).fingerprint
        with pytest.raises(TraceDivergence) as excinfo:
            replay.publish(_hit())
        assert excinfo.value.kind == "extra-publish"

    def test_extra_publish_diverges(self, tmp_path):
        path = self._recorded(tmp_path)
        replay = TraceReplayBackend.load(path)
        replay.publish(_hit(n=4))  # the one recorded publish
        with pytest.raises(TraceDivergence) as excinfo:
            replay.publish(_hit(hit_id="hit-extra"))
        assert excinfo.value.kind == "extra-publish"
        assert "hit-extra" in str(excinfo.value)

    def test_mismatched_batch_diverges(self, tmp_path):
        path = self._recorded(tmp_path)
        replay = TraceReplayBackend.load(path)
        with pytest.raises(TraceDivergence) as excinfo:
            replay.publish(_hit(n=5))  # recorded 4 assignments
        assert excinfo.value.kind == "hit-mismatch"
        assert excinfo.value.hit_id == "hit-t"
        assert "assignments" in str(excinfo.value)

    def test_mismatched_question_diverges_with_detail(self, tmp_path):
        path = self._recorded(tmp_path)
        replay = TraceReplayBackend.load(path)
        other = HIT(
            hit_id="hit-t", questions=(_question("q-other"),), assignments=4
        )
        with pytest.raises(TraceDivergence) as excinfo:
            replay.publish(other)
        assert excinfo.value.kind == "hit-mismatch"
        assert "question 0 differs" in str(excinfo.value)

    def test_premature_cancel_diverges_naming_hit(self, tmp_path):
        """Replay-after-cancel divergence: cancelling earlier than the
        recording did raises a TraceDivergence naming the offending HIT."""
        path = self._recorded(tmp_path, n=4, collect=3, cancel=True)
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=4))
        handle.next_submission()  # 1 of the 3 recorded collections
        with pytest.raises(TraceDivergence) as excinfo:
            handle.cancel()
        assert excinfo.value.kind == "premature-cancel"
        assert excinfo.value.hit_id == "hit-t"
        assert "hit-t" in str(excinfo.value)

    def test_unexpected_cancel_diverges(self, tmp_path):
        path = self._recorded(tmp_path, n=4)  # ran to completion
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=4))
        handle.next_submission()
        with pytest.raises(TraceDivergence) as excinfo:
            handle.cancel()
        assert excinfo.value.kind == "unexpected-cancel"
        assert excinfo.value.hit_id == "hit-t"

    def test_missing_cancel_reported_on_stall(self, tmp_path):
        path = self._recorded(tmp_path, n=4, collect=2, cancel=True)
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=4))
        handle.next_submission()
        handle.next_submission()
        # The recording cancelled here; the "engine" instead keeps waiting.
        assert handle.peek_time() is None
        assert not handle.done
        with pytest.raises(TraceDivergence) as excinfo:
            handle.next_arrival_eta()
        assert excinfo.value.kind == "missing-cancel"
        assert excinfo.value.hit_id == "hit-t"

    def test_replayed_cancel_matches_recording(self, tmp_path):
        path = self._recorded(tmp_path, n=4, collect=2, cancel=True)
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=4))
        handle.next_submission()
        handle.next_submission()
        assert handle.outstanding == 2
        assert handle.cancel() == 2
        assert handle.done
        assert replay.ledger.cancelled_assignments == 2
        assert replay.verify_complete() == load_trace(path).fingerprint

    def test_incomplete_replay_detected(self, tmp_path):
        path = self._recorded(tmp_path, n=4)
        replay = TraceReplayBackend.load(path)
        with pytest.raises(TraceDivergence) as excinfo:
            replay.verify_complete()  # never published anything
        assert excinfo.value.kind == "incomplete-replay"
        handle = replay.publish(_hit(n=4))
        handle.next_submission()
        with pytest.raises(TraceDivergence) as excinfo:
            replay.verify_complete()  # 3 recorded submissions unserved
        assert excinfo.value.kind == "incomplete-replay"

    def test_stalled_replay_behind_unpublished_hit(self, tmp_path):
        """A handle gated behind submissions of a HIT the engine never
        published reports a stalled-replay divergence, not a hot loop."""
        path = tmp_path / "t.jsonl"
        market = _market()
        with TraceRecorder(market, path) as recorder:
            first = recorder.publish(_hit(hit_id="hit-a", n=2, qid="qa"))
            first.next_submission()
            second = recorder.publish(_hit(hit_id="hit-b", n=2, qid="qb"))
            # Interleave: b's submission lands between a's two.
            second.next_submission()
            first.next_submission()
            second.next_submission()
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(hit_id="hit-a", n=2, qid="qa"))
        assert handle.next_submission() is not None
        # The engine "forgets" to publish hit-b; a's second submission is
        # gated behind b's first, which can never be served.
        assert handle.peek_time() is None
        with pytest.raises(TraceDivergence) as excinfo:
            handle.next_arrival_eta()
        assert excinfo.value.kind == "stalled-replay"
        assert excinfo.value.hit_id == "hit-b"
        assert "hit-a" in str(excinfo.value)

    def test_unknown_worker_profile_rejected(self, tmp_path):
        path = self._recorded(tmp_path, n=2)
        replay = TraceReplayBackend.load(path)
        handle = replay.publish(_hit(n=2))
        with pytest.raises(KeyError, match="never submitted"):
            handle.worker_profile("nobody")


class TestTraceFileHygiene:
    def _valid_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceRecorder(_market(), path) as recorder:
            recorder.publish(_hit(n=2)).next_submission()
        return path

    def test_truncated_file_is_a_clear_error(self, tmp_path):
        path = self._valid_trace(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the end record
        with pytest.raises(TraceError, match="truncated"):
            load_trace(path)

    def test_corrupt_json_names_the_line(self, tmp_path):
        path = self._valid_trace(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # cut mid-record
        with pytest.raises(TraceError, match="not valid JSON"):
            load_trace(path)

    def test_tampered_record_fails_fingerprint(self, tmp_path):
        path = self._valid_trace(tmp_path)
        path.write_text(path.read_text().replace('"yes"', '"no"', 1))
        with pytest.raises(TraceError, match="fingerprint mismatch"):
            load_trace(path)

    def test_wrong_format_and_version_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"header","format":"other","version":1}\n')
        with pytest.raises(TraceError, match="format"):
            load_trace(path)
        path.write_text(
            '{"type":"header","format":"cdas-trace","version":99,'
            '"price":{"worker_reward":0.01,"platform_fee":0.005}}\n'
        )
        with pytest.raises(TraceError, match="version"):
            load_trace(path)

    def test_not_a_trace_at_all(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"publish"}\n')
        with pytest.raises(TraceError, match="header"):
            load_trace(path)
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path)

    def test_tampered_expect_record_fails_to_load(self, tmp_path):
        """The pinned outcome is sealed into the end record: tampering
        with it is a load-time TraceError, not a fake divergence."""
        path = tmp_path / "t.jsonl"
        with TraceRecorder(_market(), path) as recorder:
            recorder.publish(_hit(n=2)).next_submission()
            recorder.record_expectation({"answered": 1})
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("type") == "expect":
                record["outcome"]["answered"] = 99
                lines[i] = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="expect record was modified"):
            load_trace(path)

    def test_count_mismatch_detected(self, tmp_path):
        path = self._valid_trace(tmp_path)
        lines = path.read_text().splitlines()
        end = json.loads(lines[-1])
        end["submissions"] += 1
        lines[-1] = json.dumps(end, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="corrupt"):
            load_trace(path)


# -- scenario round trips -----------------------------------------------------


class TestScenarioRoundTrips:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_record_then_replay_bit_for_bit(self, tmp_path, name):
        report = record_scenario(name, tmp_path / "t.jsonl", seed=7)
        replayed = replay_scenario(tmp_path / "t.jsonl")
        assert canonical_json(replayed.outcome) == canonical_json(report.outcome)
        assert replayed.fingerprint == report.fingerprint

    def test_recording_is_transparent_to_the_run(self, tmp_path):
        """The same scenario on a bare market produces the same outcome."""
        bare = run_scenario("mixed-service", _scenario_market(7), 7)
        recorded = record_scenario("mixed-service", tmp_path / "t.jsonl", seed=7)
        assert canonical_json(bare) == canonical_json(recorded.outcome)

    def test_slow_recording_replays_compressed(self, tmp_path):
        """Recorder round-trips a SlowBackend run; compressed replay is
        wall-clock faster and bit-identical."""
        started = time.monotonic()
        report = record_scenario(
            "cancel-mid-flight", tmp_path / "t.jsonl", seed=7, delay=0.01
        )
        slow_wall = time.monotonic() - started
        started = time.monotonic()
        replayed = replay_scenario(tmp_path / "t.jsonl")  # time_scale=0
        fast_wall = time.monotonic() - started
        assert canonical_json(replayed.outcome) == canonical_json(report.outcome)
        assert fast_wall < slow_wall
        # Recorded offsets really carry the waiting: the trace spans at
        # least one delay's worth of wall clock.
        trace = load_trace(tmp_path / "t.jsonl")
        last_at = max(s["at"] for h in trace.hits for s in h.submissions)
        assert last_at >= 0.01

    def test_paced_replay_sleeps_on_recorded_timestamps(self, tmp_path):
        report = record_scenario(
            "cancel-mid-flight", tmp_path / "t.jsonl", seed=7, delay=0.01
        )
        started = time.monotonic()
        replayed = replay_scenario(tmp_path / "t.jsonl", time_scale=0.5)
        paced_wall = time.monotonic() - started
        assert canonical_json(replayed.outcome) == canonical_json(report.outcome)
        assert paced_wall > 0.01  # it really waited

    def test_divergent_outcome_is_reported(self, tmp_path):
        """A trace pinning a different outcome fails the gate loudly.

        Models a trace recorded by an *older engine* whose outcome
        genuinely drifted: the expect record and its sealed digest are
        rewritten consistently (a tampered expect without a matching
        digest refuses to load instead — see TestTraceFileHygiene).
        """
        from repro.util.records import digest as _expect_digest

        record_scenario("cancel-mid-flight", tmp_path / "t.jsonl", seed=7)
        path = tmp_path / "t.jsonl"
        lines = path.read_text().splitlines()
        drifted = None
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("type") == "expect":
                record["outcome"]["ledger"]["total_cost"] += 1.0
                drifted = record["outcome"]
                lines[i] = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
            elif record.get("type") == "end":
                assert drifted is not None
                record["expect_digest"] = _expect_digest(drifted)
                lines[i] = json.dumps(
                    record, sort_keys=True, separators=(",", ":")
                )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceDivergence) as excinfo:
            replay_scenario(path)
        assert excinfo.value.kind == "outcome-mismatch"
        assert "ledger" in str(excinfo.value)


def _scenario_market(seed):
    from repro.scenarios import build_market

    return build_market(seed)


# -- stack wiring -------------------------------------------------------------


class TestServiceBackendWiring:
    def _record_single_query(self, tmp_path, seed=13):
        """Record a one-query service run (no calibration) and return
        (trace path, result canonical form)."""
        path = tmp_path / "t.jsonl"
        market = _scenario_market(seed)
        gold = generate_tweets(["gold-movie"], per_movie=8, seed=seed + 1)
        tweets = generate_tweets(["rio"], per_movie=10, seed=seed + 2)
        with TraceRecorder(market, path) as recorder:
            cdas = CDAS.with_default_jobs(recorder, seed=seed)
            service = cdas.service(max_in_flight=2)
            handle = service.submit(
                "twitter-sentiment", movie_query("rio", 0.9),
                tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=5,
            )
            service.run_until_idle()
            result = handle.result()
        return path, result, gold, tweets

    def test_cdas_service_accepts_replay_backend(self, tmp_path):
        """`CDAS.service(backend=...)` runs the job registry against a
        replay backend on a fresh engine — results match the recording."""
        path, recorded_result, gold, tweets = self._record_single_query(tmp_path)
        cdas = CDAS.with_default_jobs(_scenario_market(13), seed=13)
        replay = TraceReplayBackend.load(path)
        service = cdas.service(max_in_flight=2, backend=replay)
        assert service.engine is not cdas.engine
        assert service.engine.market is replay
        handle = service.submit(
            "twitter-sentiment", movie_query("rio", 0.9),
            tweets=tweets, gold_tweets=gold, worker_count=4, batch_size=5,
        )
        service.run_until_idle()
        assert handle.result() == recorded_result
        assert replay.ledger.total_cost == pytest.approx(
            sum(h.cost for h in recorded_result.hit_results)
        )
        replay.verify_complete()

    def test_cdas_async_service_accepts_replay_backend(self, tmp_path):
        """Replay through the asyncio front door, paced so the driver's
        dormant sleeps are exercised by the recorded ETAs."""
        path, recorded_result, gold, tweets = self._record_single_query(tmp_path)

        async def drive():
            replay = TraceReplayBackend.load(path, time_scale=0.2)
            cdas = CDAS.with_default_jobs(_scenario_market(13), seed=13)
            async with cdas.async_service(
                max_in_flight=2, backend=replay
            ) as service:
                handle = service.submit(
                    "twitter-sentiment", movie_query("rio", 0.9),
                    tweets=tweets, gold_tweets=gold,
                    worker_count=4, batch_size=5,
                )
                result = await handle.result()
            replay.verify_complete()
            return result

        assert asyncio.run(drive()) == recorded_result

    def test_slow_recording_paced_replay_etas_positive(self, tmp_path):
        """With pacing, the replay backend really declares waits."""
        path = tmp_path / "t.jsonl"
        market = SlowBackend(_market(5), delay=0.02)
        with TraceRecorder(market, path) as recorder:
            handle = recorder.publish(_hit(n=2))
            while handle.next_submission() is None and not handle.done:
                time.sleep(0.005)
            while not handle.done:
                if handle.next_submission() is None:
                    time.sleep(0.005)
        replay = TraceReplayBackend.load(path, time_scale=1.0)
        handle = replay.publish(_hit(n=2))
        eta = handle.next_arrival_eta()
        assert eta is not None and eta > 0
        assert handle.peek_time() is None  # dormant until the recorded time
