"""Tests for the handle-based query lifecycle service (DESIGN.md §7).

Covers the QueryHandle state machine, per-tenant admission control
(budget caps + weighted-priority slot allocation), cancellation charge
semantics, standing queries, and the blocking facade wrappers' equivalence
to the service path.
"""

from __future__ import annotations

import pytest
from grant_log import GrantLog

from repro.amt.market import SimulatedMarket
from repro.engine.query import Query
from repro.engine.scheduler import BatchSink, HITScheduler
from repro.engine.service import (
    AdmissionRejected,
    QueryCancelled,
    QueryIntake,
    QueryState,
    TenantPolicy,
)
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets


def _cdas(small_pool, seed=41) -> CDAS:
    return CDAS.with_default_jobs(SimulatedMarket(small_pool, seed=seed), seed=seed)


def _tsa_inputs(movies=("alpha", "beta"), per_movie=18, seed=5, workers=5):
    tweets = generate_tweets(list(movies), per_movie=per_movie, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=10, seed=seed + 1)
    return {"tweets": tweets, "gold_tweets": gold, "worker_count": workers}


class TestLifecycle:
    def test_submit_returns_queued_handle_immediately(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        assert handle.state is QueryState.QUEUED
        assert not handle.done
        # Eager planning/validation, but nothing published or charged yet.
        assert handle.spend == 0.0
        assert service.engine.market.published_hits == 0

    def test_states_are_monotone_to_done(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        order = [
            QueryState.QUEUED, QueryState.ADMITTED,
            QueryState.RUNNING, QueryState.DONE,
        ]
        seen = [handle.state]
        while service.step():
            if handle.state is not seen[-1]:
                seen.append(handle.state)
        assert seen == [s for s in order if s in seen]
        assert seen[-1] is QueryState.DONE
        result = handle.result()
        assert result.report.subject == "alpha"
        assert len(result.records) == 18

    def test_result_pumps_the_service(self, small_pool):
        service = _cdas(small_pool).service()
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        # No explicit stepping: result() drives the pump itself.
        result = handle.result()
        assert handle.state is QueryState.DONE
        assert len(result.records) == 18
        # Idempotent once terminal.
        assert handle.result() is result

    def test_result_timeout_expires(self, small_pool):
        service = _cdas(small_pool).service()
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.0)

    def test_validation_failures_raise_before_anything_runs(self, small_pool):
        service = _cdas(small_pool).service()
        with pytest.raises(KeyError):
            service.submit("ghost", movie_query("alpha", 0.9))
        with pytest.raises(ValueError, match="gold_tweets"):
            service.submit("twitter-sentiment", movie_query("alpha", 0.9))
        with pytest.raises(ValueError, match="matched no tweets"):
            service.submit(
                "twitter-sentiment", movie_query("nomatch", 0.9), **_tsa_inputs()
            )
        assert service.engine.market.published_hits == 0
        assert service.engine.market.ledger.total_cost == 0.0

    def test_submit_while_running(self, small_pool):
        """The service accepts new queries after the pump has started."""
        service = _cdas(small_pool).service(max_in_flight=2)
        first = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        for _ in range(12):
            assert service.step()
        assert first.state is QueryState.RUNNING
        second = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        assert second.state is QueryState.QUEUED
        service.run_until_idle()
        assert first.state is QueryState.DONE
        assert second.state is QueryState.DONE
        assert second.result().report.subject == "beta"


class TestProgress:
    def test_progress_counts_and_estimate(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        mid_flight_estimates = 0
        while service.step():
            progress = handle.progress()
            if progress.hits_in_flight and progress.accuracy_estimate is not None:
                mid_flight_estimates += 1
        # Live aggregators produced estimates while HITs were collecting.
        assert mid_flight_estimates > 0
        final = handle.progress()
        assert final.items_answered == 18
        assert final.items_finalized == 18
        assert final.hits_completed == 3
        assert final.hits_in_flight == 0
        assert 0.0 < final.accuracy_estimate <= 1.0
        assert final.spend == pytest.approx(service.engine.market.ledger.total_cost)

    def test_progress_is_monotone(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        last = handle.progress()
        while service.step():
            current = handle.progress()
            assert current.items_answered >= last.items_answered
            assert current.items_finalized >= last.items_finalized
            assert current.hits_completed >= last.hits_completed
            assert current.spend >= last.spend
            last = current


class TestCancellation:
    def test_cancel_before_publish_costs_nothing(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        first = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        second = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        assert second.cancel()
        assert second.state is QueryState.CANCELLED
        assert second.spend == 0.0
        service.run_until_idle()
        # The cancelled query never reached the market: every published HIT
        # (and every charged cent) belongs to the survivor.
        assert second.spend == 0.0
        assert first.spend == pytest.approx(
            service.engine.market.ledger.total_cost
        )
        with pytest.raises(QueryCancelled):
            second.result()
        # cancel() is idempotent and reports the no-op.
        assert not second.cancel()

    def test_cancel_mid_flight_stops_charges(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs(movies=("alpha",), per_movie=30)
        )
        while handle.progress().spend == 0.0:
            assert service.step()
        assert handle.state is QueryState.RUNNING
        spend_at_cancel = handle.spend
        cancelled_before = service.engine.market.ledger.cancelled_assignments
        assert handle.cancel()
        assert handle.state is QueryState.CANCELLED
        # The backend forfeited the outstanding assignments...
        assert (
            service.engine.market.ledger.cancelled_assignments > cancelled_before
        )
        # ...and pumping on collects (and charges) nothing further for it.
        service.run_until_idle()
        assert handle.spend == spend_at_cancel
        assert service.engine.market.ledger.total_cost == pytest.approx(
            spend_at_cancel
        )
        # Cancelled HITs released their slots: the scheduler is fully idle.
        assert service.scheduler.in_flight == 0

    def test_cancel_frees_slots_for_other_queries(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        hog = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs(movies=("alpha",), per_movie=30)
        )
        other = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        for _ in range(3):
            service.step()
        hog.cancel()
        service.run_until_idle()
        assert other.state is QueryState.DONE
        assert len(other.result().records) == 18


class TestAdmissionControl:
    def test_submit_rejected_when_tenant_budget_exhausted(self, small_pool):
        cdas = _cdas(small_pool)
        service = cdas.service(max_in_flight=2)
        service.register_tenant("acme", budget_cap=0.05)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            tenant="acme", batch_size=6, **_tsa_inputs()
        )
        service.run_until_idle()
        assert service.tenant_spend("acme") >= 0.05
        with pytest.raises(AdmissionRejected, match="acme"):
            service.submit(
                "twitter-sentiment", movie_query("beta", 0.9),
                tenant="acme", batch_size=6, **_tsa_inputs()
            )
        # Another tenant is unaffected by acme's exhaustion.
        ok = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            tenant="fresh", batch_size=6, **_tsa_inputs()
        )
        service.run_until_idle()
        assert ok.state is QueryState.DONE
        # The first query stopped early: its remaining batches were dropped.
        assert handle.state is QueryState.DONE
        assert handle.progress().budget_exhausted

    def test_queued_query_fails_when_cap_fills_before_admission(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        service.register_tenant("acme", budget_cap=0.03)
        first = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            tenant="acme", batch_size=6, **_tsa_inputs()
        )
        second = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            tenant="acme", batch_size=6, **_tsa_inputs()
        )
        service.run_until_idle()
        assert second.state is QueryState.FAILED
        with pytest.raises(AdmissionRejected):
            second.result()
        assert second.spend == 0.0
        assert first.done

    def test_per_query_budget_stops_further_batches(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            budget=0.08, batch_size=6,
            **_tsa_inputs(movies=("alpha",), per_movie=30)
        )
        result = handle.result()
        progress = handle.progress()
        assert progress.budget_exhausted
        # 30 tweets / batch 6 = 5 batches; the budget admitted fewer.
        assert 0 < progress.hits_completed < 5
        assert len(result.records) == progress.items_finalized
        # Spend overshoots the cap by at most the one in-flight HIT.
        assert progress.spend >= 0.08

    def test_budget_spent_on_last_batch_is_not_flagged_exhausted(self, small_pool):
        """Crossing the budget while the final batch collects is just
        completion — the flag means remaining batches were dropped."""
        service = _cdas(small_pool).service(max_in_flight=1)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            budget=0.20, batch_size=6, **_tsa_inputs()
        )
        # A second query keeps the pump granting after the first drains.
        service.submit(
            "twitter-sentiment", movie_query("beta", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        result = handle.result()
        progress = handle.progress()
        assert len(result.records) == 18  # all 3 batches ran
        assert progress.spend >= 0.20
        assert not progress.budget_exhausted

    def test_equal_priorities_grant_round_robin(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        for movie in ("alpha", "beta"):
            service.submit(
                "twitter-sentiment", movie_query(movie, 0.9),
                batch_size=6, **_tsa_inputs()
            )
        service.run_until_idle()
        # 3 batches each, one tenant, equal priority: strict alternation
        # (the scheduler's historical multi-source round-robin).
        assert [seq for _, seq in service.admission.grant_log] == [
            0, 1, 0, 1, 0, 1
        ]

    def test_weighted_priorities_skew_grants(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        service.register_tenant("heavy", priority=3.0)
        service.register_tenant("light", priority=1.0)
        service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), tenant="heavy",
            batch_size=3, **_tsa_inputs(movies=("alpha",), per_movie=24)
        )
        service.submit(
            "twitter-sentiment", movie_query("beta", 0.9), tenant="light",
            batch_size=3, **_tsa_inputs(movies=("beta",), per_movie=24)
        )
        service.run_until_idle()
        first_eight = [t for t, _ in service.admission.grant_log[:8]]
        assert first_eight.count("heavy") == 6
        assert first_eight.count("light") == 2

    def test_fifo_allocation_serves_in_submission_order(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1, allocation="fifo")
        for movie in ("alpha", "beta"):
            service.submit(
                "twitter-sentiment", movie_query(movie, 0.9),
                batch_size=6, **_tsa_inputs()
            )
        service.run_until_idle()
        # FIFO: the first query monopolises slots until it runs dry.
        assert [seq for _, seq in service.admission.grant_log] == [
            0, 0, 0, 1, 1, 1
        ]

    def test_tenant_policy_validation(self):
        with pytest.raises(ValueError, match="priority"):
            TenantPolicy(name="x", priority=0.0)
        with pytest.raises(ValueError, match="budget cap"):
            TenantPolicy(name="x", budget_cap=-1.0)

    def test_per_query_priority_and_budget_validated_at_submit(self, small_pool):
        service = _cdas(small_pool).service()
        for bad_priority in (0.0, -2.0):
            with pytest.raises(ValueError, match="priority"):
                service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    priority=bad_priority, **_tsa_inputs()
                )
        with pytest.raises(ValueError, match="budget"):
            service.submit(
                "twitter-sentiment", movie_query("alpha", 0.9),
                budget=-0.01, **_tsa_inputs()
            )
        assert service.engine.market.published_hits == 0


class TestMultiTenantIntegration:
    def test_two_tenants_three_queries_interleave_cancel_one(self, small_pool):
        """The acceptance scenario: ≥3 queries from 2 tenants on one
        running service — interleaved RUNNING states, monotone progress,
        one mid-flight cancellation with no further spend."""
        cdas = _cdas(small_pool)
        service = cdas.service(max_in_flight=3)
        service.register_tenant("acme", priority=2.0)
        service.register_tenant("globex", priority=1.0)
        images = generate_images(per_subject=1, seed=3)
        gold_images = generate_images(per_subject=1, seed=4)
        h_alpha = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9), tenant="acme",
            batch_size=6, **_tsa_inputs(movies=("alpha",), per_movie=30)
        )
        h_beta = service.submit(
            "twitter-sentiment", movie_query("beta", 0.9), tenant="globex",
            batch_size=6, **_tsa_inputs(movies=("beta",), per_movie=30)
        )
        h_images = service.submit(
            "image-tagging", movie_query("img", 0.9), tenant="globex",
            images=images, gold_images=gold_images, worker_count=5,
        )
        handles = (h_alpha, h_beta, h_images)
        last = {h: h.progress() for h in handles}
        concurrent_running = 0
        cancelled_spend = None
        while service.step():
            running = [h for h in handles if h.state is QueryState.RUNNING]
            if len(running) >= 2:
                concurrent_running += 1
            for h in handles:
                current = h.progress()
                assert current.items_answered >= last[h].items_answered
                assert current.spend >= last[h].spend
                last[h] = current
            if (
                cancelled_spend is None
                and h_beta.state is QueryState.RUNNING
                and h_beta.spend > 0
            ):
                h_beta.cancel()
                cancelled_spend = h_beta.spend
        # Queries from both tenants were genuinely in flight together.
        assert concurrent_running > 0
        assert cancelled_spend is not None
        assert h_beta.state is QueryState.CANCELLED
        assert h_beta.spend == cancelled_spend  # nothing further charged
        assert h_alpha.state is QueryState.DONE
        assert h_images.state is QueryState.DONE
        assert len(h_alpha.result().records) == 30
        assert h_images.result().decision_accuracy > 0.5
        # Ledger consistency: every charged cent is attributed to a handle.
        assert cdas.total_cost == pytest.approx(
            sum(h.spend for h in handles)
        )
        # Both tenants appear in the grant interleaving before the cancel.
        tenants_granted = {t for t, _ in service.admission.grant_log}
        assert tenants_granted == {"acme", "globex"}


class TestStandingQuery:
    def _stream(self, per_window=8, window_count=3, unit_seconds=60.0):
        import dataclasses

        tweets = generate_tweets(["kungfu"], per_movie=per_window * window_count, seed=11)
        spaced = []
        for i, tweet in enumerate(tweets):
            window_index, slot = divmod(i, per_window)
            spaced.append(
                dataclasses.replace(
                    tweet, timestamp=window_index * unit_seconds + slot
                )
            )
        return TweetStream.from_corpus(spaced, unit_seconds=unit_seconds)

    def test_standing_query_spans_windows_through_one_handle(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        stream = self._stream()
        gold = generate_tweets(["gold-movie"], per_movie=10, seed=12)
        query = movie_query("kungfu", 0.9, window=1)
        handle = service.submit(
            "twitter-sentiment", query,
            stream=stream, windows=3, gold_tweets=gold,
            worker_count=5, batch_size=4,
        )
        result = handle.result()
        assert handle.state is QueryState.DONE
        # 3 windows × 8 tweets, 2 HITs per window at batch_size=4.
        assert len(result.records) == 24
        assert handle.progress().hits_completed == 6

    def test_standing_query_follows_stream_to_the_end(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        stream = self._stream(window_count=2)
        gold = generate_tweets(["gold-movie"], per_movie=10, seed=12)
        handle = service.submit(
            "twitter-sentiment", movie_query("kungfu", 0.9, window=1),
            stream=stream, windows=None, gold_tweets=gold,
            worker_count=5, batch_size=4,
        )
        result = handle.result()
        assert len(result.records) == 16

    def test_standing_query_requires_stream(self, small_pool):
        service = _cdas(small_pool).service()
        gold = generate_tweets(["gold-movie"], per_movie=10, seed=12)
        with pytest.raises(ValueError, match="stream"):
            service.submit(
                "twitter-sentiment", movie_query("kungfu", 0.9),
                windows=2, gold_tweets=gold,
            )


class TestBatchSinkProtocol:
    def test_scheduler_and_intake_both_satisfy_it(self, small_pool):
        from repro.engine.engine import CrowdsourcingEngine

        engine = CrowdsourcingEngine(SimulatedMarket(small_pool, seed=1))
        assert isinstance(HITScheduler(engine), BatchSink)
        assert isinstance(QueryIntake(), BatchSink)

    def test_intake_records_without_running(self):
        intake = QueryIntake()
        group = intake.add_batches(
            iter([[]]), required_accuracy=0.9
        )
        assert group.sessions == []
        assert len(intake.sources) == 1


class TestFacadeWrappers:
    def test_submit_matches_service_path(self, small_pool):
        """The blocking wrapper is literally the service run to idle."""
        inputs = _tsa_inputs()
        query = movie_query("alpha", 0.9)

        blocking = _cdas(small_pool).submit("twitter-sentiment", query, **inputs)

        cdas = _cdas(small_pool)
        service = cdas.service(max_in_flight=1, track_trajectories=False)
        handle = service.submit("twitter-sentiment", query, **inputs)
        service.run_until_idle()
        via_service = handle.result()

        assert blocking.report == via_service.report
        assert [h.hit_id for h in blocking.hit_results] == [
            h.hit_id for h in via_service.hit_results
        ]
        assert [h.cost for h in blocking.hit_results] == [
            h.cost for h in via_service.hit_results
        ]

    def test_runner_only_jobs_still_submit(self, small_pool):
        from repro.engine.jobs import JobSpec
        from repro.engine.templates import QueryTemplate

        cdas = _cdas(small_pool)
        spec = JobSpec(
            name="runner-only",
            template=QueryTemplate(
                job_name="runner-only", instructions="i",
                item_label="Item", prompt="p",
            ),
            computer_tasks=("t",),
            human_tasks=("h",),
        )
        cdas.register_job(spec, runner=lambda engine, plan, inputs: "ran")
        out = cdas.submit(
            "runner-only",
            Query(keywords=("x",), required_accuracy=0.9, domain=("a", "b")),
        )
        assert out == "ran"
        # ...but the service refuses them with a pointed error.
        with pytest.raises(ValueError, match="submitter"):
            cdas.service().submit(
                "runner-only",
                Query(keywords=("x",), required_accuracy=0.9, domain=("a", "b")),
            )

    def test_explicit_runner_beats_submitter_on_blocking_submit(self, small_pool):
        """A job registered with BOTH keeps its explicit runner on
        submit() (historical precedence); the submitter serves the
        service/submit_many surface."""
        from repro.engine.jobs import JobSpec
        from repro.engine.templates import QueryTemplate

        cdas = _cdas(small_pool)
        spec = JobSpec(
            name="both",
            template=QueryTemplate(
                job_name="both", instructions="i",
                item_label="Item", prompt="p",
            ),
            computer_tasks=("t",),
            human_tasks=("h",),
        )

        def submitter(engine, sink, plan, inputs):
            sink.add_batches(iter(()), required_accuracy=0.9)
            return lambda: "via-submitter"

        cdas.register_job(
            spec,
            runner=lambda engine, plan, inputs: "via-runner",
            submitter=submitter,
        )
        query = Query(keywords=("x",), required_accuracy=0.9, domain=("a", "b"))
        assert cdas.submit("both", query) == "via-runner"
        handle = cdas.service().submit("both", query)
        assert handle.result() == "via-submitter"


class TestSlowBackendBlocking:
    """The sync surfaces sleep through dormant spells instead of spinning
    (ISSUE-3 satellite: result(timeout) hot-spin fix)."""

    DELAY = 0.02

    def _slow_service(self, small_pool, seed=41, delay=DELAY):
        from repro.amt.slow import SlowBackend

        market = SlowBackend(SimulatedMarket(small_pool, seed=seed), delay=delay)
        cdas = CDAS.with_default_jobs(market, seed=seed)
        return cdas.service(max_in_flight=2)

    def test_result_sleeps_instead_of_spinning(self, small_pool):
        service = self._slow_service(small_pool)
        steps = 0
        original_step = service.step

        def counting_step():
            nonlocal steps
            steps += 1
            return original_step()

        service.step = counting_step
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs(workers=3)
        )
        result = handle.result()
        assert len(result.records) == 18
        # 3 batches × 3 workers = 9 events arriving ~DELAY apart; a
        # spinning result() would re-enter step() thousands of times
        # while dormant, a sleeping one a few times per event.
        assert steps <= 8 * 9

    def test_result_timeout_fires_while_dormant(self, small_pool):
        service = self._slow_service(small_pool, delay=0.2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs(workers=3)
        )
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.05)
        # The query is not lost: it survives the timeout and completes.
        assert not handle.done

    def test_run_until_idle_sleeps_through_dormancy(self, small_pool):
        service = self._slow_service(small_pool)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs(workers=3)
        )
        service.run_until_idle()
        assert handle.done
        assert len(handle.result().records) == 18


class TestProgressCaching:
    """The leading run of sealed sessions is aggregated once, not
    re-scanned per poll: progress walks only the sessions past it."""

    def test_sealed_sessions_cached_and_reused(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=2)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        result = handle.result()
        assert len(result.records) == 18
        fresh = handle.progress()  # extends the sealed-prefix aggregate
        prefix = handle._record._sealed
        assert prefix.length == fresh.hits_completed > 0
        # Repeated polls reproduce the same observation...
        assert handle.progress() == fresh
        # ...and actually read the aggregate: poisoning it shows up in
        # the next snapshot (the sealed records are NOT re-walked).
        prefix.finalized += 1000
        assert handle.progress().items_finalized == fresh.items_finalized + 1000

    def test_cache_only_covers_sealed_sessions(self, small_pool):
        service = _cdas(small_pool).service(max_in_flight=1)
        # The record lets go of its sessions once DONE; the log keeps them.
        log = GrantLog(service)
        handle = service.submit(
            "twitter-sentiment", movie_query("alpha", 0.9),
            batch_size=6, **_tsa_inputs()
        )
        record = handle._record
        sessions = log.of(handle.seq)
        while not handle.done:
            if not service.step():
                break
            progress = handle.progress()
            # The aggregate never covers an unsealed session, and live
            # counters stay monotone while it grows.
            sealed = sum(1 for s in sessions if s.result is not None)
            assert all(
                s.result is not None
                for s in sessions[: record._sealed.length]
            )
            assert record._sealed.length <= sealed
            assert progress.hits_completed == sealed
