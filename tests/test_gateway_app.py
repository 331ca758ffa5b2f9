"""In-process tests for the HTTP/ASGI gateway (DESIGN.md §13).

Everything here drives :class:`repro.gateway.GatewayApp` directly as an
ASGI callable on the test's own event loop — no sockets, fully
deterministic — via :class:`repro.gateway.InProcessClient`.  The suite
pins the wire contract: auth, plan-gated submit (402 + counter-offer
parity with explain), idempotent retries, the frozen-ledger cancel view,
SSE framing, and bit-identical outcomes versus a direct in-process
``AsyncSchedulerService`` run of the same submissions.
"""

from __future__ import annotations

import asyncio
import errno
import json

import pytest
from ack_probe import AckProbeStore
from deadlines import wait_until

from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.slow import SlowBackend
from repro.durability.journal import FileJournalStore
from repro.engine.aio import AsyncQueryHandle
from repro.engine.service import QueryState
from repro.gateway import GatewayApp, InProcessClient, TokenAuth, parse_sse
from repro.scenarios import canonical_json, result_summary
from repro.system import CDAS
from repro.tsa.app import movie_query
from repro.tsa.tweets import generate_tweets

TOKENS = {"acme-token": "acme", "globex-token": "globex"}

#: Wall-clock delay for the heartbeat test's dormant spells.
DELAY = 0.02


def _cdas(seed: int, slow: float | None = None) -> CDAS:
    pool = WorkerPool.from_config(PoolConfig(size=120), seed=7)
    market = SimulatedMarket(pool, seed=seed)
    if slow is not None:
        market = SlowBackend(market, delay=slow)
    return CDAS.with_default_jobs(market, seed=seed)


def _tsa_inputs(movies=("alpha", "beta"), per_movie=12, seed=5, workers=5):
    tweets = generate_tweets(list(movies), per_movie=per_movie, seed=seed)
    gold = generate_tweets(["gold-movie"], per_movie=10, seed=seed + 1)
    return {
        "tweets": tweets,
        "gold_tweets": gold,
        "worker_count": workers,
        "batch_size": 6,
    }


def _make_app(
    seed: int = 52,
    budget: float | None = None,
    heartbeat: float | None = None,
    journal=None,
    slow: float | None = None,
) -> GatewayApp:
    cdas = _cdas(seed, slow=slow)
    app = cdas.gateway(
        TOKENS,
        name="svc",
        presets={"demo-tsa": _tsa_inputs()},
        max_in_flight=2,
        heartbeat=heartbeat,
        journal=journal,
    )
    service = app.mux["svc"]
    service.register_tenant("acme", priority=2.0, budget_cap=budget)
    service.register_tenant("globex", priority=1.0, budget_cap=budget)
    return app


def _query_body(movie: str, accuracy: float = 0.9) -> dict:
    """The JSON shape a client posts for ``movie_query(movie, accuracy)``."""
    return {
        "job": "twitter-sentiment",
        "query": {
            "keywords": [movie],
            "required_accuracy": accuracy,
            "domain": ["positive", "neutral", "negative"],
            "window": 24,
            "subject": movie,
        },
        "inputs": {"$preset": "demo-tsa"},
    }


async def _run_to_end(client: InProcessClient, query_id: str, **kwargs):
    """Stream a query's SSE to its ``end`` frame (drives it terminal)."""
    response = await client.get(f"/v1/queries/{query_id}/events", **kwargs)
    assert response.status == 200
    frames = parse_sse(response.body)
    assert frames[-1][0] == "end"
    return frames


class TestAuth:
    def test_healthz_is_unauthenticated(self):
        async def run():
            client = InProcessClient(_make_app())
            return await client.get("/v1/healthz")

        response = asyncio.run(run())
        assert response.status == 200
        assert response.json()["status"] == "ok"
        assert response.json()["services"]["svc"]["idle"] is True

    def test_missing_and_unknown_tokens_answer_401(self):
        async def run():
            client = InProcessClient(_make_app())
            missing = await client.post("/v1/queries", _query_body("alpha"))
            unknown = await client.post(
                "/v1/queries", _query_body("alpha"), token="wrong"
            )
            return missing, unknown

        missing, unknown = asyncio.run(run())
        for response in (missing, unknown):
            assert response.status == 401
            assert response.json()["error"] == "unauthorized"
            assert response.header("www-authenticate") == "Bearer"

    def test_token_auth_rejects_malformed_header(self):
        auth = TokenAuth(TOKENS)
        assert auth.authenticate([(b"authorization", b"Bearer acme-token")]) == "acme"
        from repro.gateway import AuthError

        for header in (b"acme-token", b"Basic acme-token", b"Bearer"):
            with pytest.raises(AuthError):
                auth.authenticate([(b"authorization", header)])


class TestSubmitLifecycle:
    def test_submit_poll_result_roundtrip(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post(
                "/v1/queries", _query_body("alpha")
            )
            assert submitted.status == 201, submitted.body
            payload = submitted.json()
            query_id = payload["id"]
            assert submitted.header("location") == f"/v1/queries/{query_id}"
            # Plan-first is the default mode: the 201 carries the plan.
            assert payload["plan"]["tenant"] == "acme"
            await _run_to_end(client, query_id)
            final = await client.get(f"/v1/queries/{query_id}")
            return query_id, final

        query_id, final = asyncio.run(run())
        assert query_id == "svc-0"
        payload = final.json()
        assert payload["progress"]["state"] == "done"
        assert payload["progress"]["spend"] > 0
        assert payload["result"]["cost"] > 0
        assert payload["result"]["verdicts"]

    def test_gateway_outcome_bit_identical_to_direct_run(self):
        """The tentpole equivalence: the same submissions through HTTP
        and through a plain in-process async service produce the same
        canonical progress + result JSON, byte for byte."""

        async def via_gateway():
            app = _make_app(seed=53)
            client = InProcessClient(app, token="acme-token")
            outcomes = []
            for movie in ("alpha", "beta"):
                submitted = await client.post("/v1/queries", _query_body(movie))
                assert submitted.status == 201, submitted.body
                query_id = submitted.json()["id"]
                await _run_to_end(client, query_id)
                final = (await client.get(f"/v1/queries/{query_id}")).json()
                outcomes.append(
                    {"progress": final["progress"], "result": final["result"]}
                )
            return outcomes

        async def direct():
            async with _cdas(53).async_service(
                max_in_flight=2, name="svc"
            ) as service:
                service.register_tenant("acme", priority=2.0)
                service.register_tenant("globex", priority=1.0)
                outcomes = []
                for movie in ("alpha", "beta"):
                    handle = service.submit(
                        "twitter-sentiment",
                        movie_query(movie, 0.9),
                        tenant="acme",
                        budget=None,
                        priority=None,
                        reserve=True,
                        **_tsa_inputs(),
                    )
                    result = await handle.result()
                    outcomes.append(
                        {
                            "progress": handle.progress().to_dict(),
                            "result": result_summary(result),
                        }
                    )
                return outcomes

        http_outcomes = asyncio.run(via_gateway())
        direct_outcomes = asyncio.run(direct())
        assert canonical_json(http_outcomes) == canonical_json(direct_outcomes)

    def test_idempotency_key_replays_the_original(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            headers = {"Idempotency-Key": "retry-1"}
            first = await client.post(
                "/v1/queries", _query_body("alpha"), headers=headers
            )
            second = await client.post(
                "/v1/queries", _query_body("alpha"), headers=headers
            )
            metrics = await client.get("/v1/metrics")
            return first, second, metrics

        first, second, metrics = asyncio.run(run())
        assert first.status == 201 and second.status == 200
        assert first.json()["id"] == second.json()["id"]
        counters = metrics.json()["gateway"]
        assert counters["submits"] == 1
        assert counters["idempotent_replays"] == 1

    def test_idempotency_keys_are_scoped_per_tenant(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app)
            headers = {"Idempotency-Key": "shared"}
            acme = await client.post(
                "/v1/queries", _query_body("alpha"),
                headers=headers, token="acme-token",
            )
            globex = await client.post(
                "/v1/queries", _query_body("beta"),
                headers=headers, token="globex-token",
            )
            return acme, globex

        acme, globex = asyncio.run(run())
        assert acme.status == 201 and globex.status == 201
        assert acme.json()["id"] != globex.json()["id"]

    def test_cancel_freezes_the_ledger_view(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            query_id = submitted.json()["id"]
            cancelled = await client.delete(f"/v1/queries/{query_id}")
            # Give the driver room to (incorrectly) keep charging.
            await app.mux["svc"].wait_idle()
            first = await client.get(f"/v1/queries/{query_id}")
            second = await client.get(f"/v1/queries/{query_id}")
            metrics = await client.get("/v1/metrics")
            repeat = await client.delete(f"/v1/queries/{query_id}")
            return cancelled, first, second, metrics, repeat

        cancelled, first, second, metrics, repeat = asyncio.run(run())
        assert cancelled.status == 200
        payload = cancelled.json()
        assert payload["cancelled"] is True
        assert payload["progress"]["state"] == "cancelled"
        # Frozen: later polls observe the exact bytes of the cancel-time
        # snapshot, and the service ledger totals match the cancel view.
        assert first.body == second.body
        assert first.json()["progress"] == payload["progress"]
        ledger_now = metrics.json()["services"]["svc"]["ledger"]
        assert ledger_now["total_cost"] == payload["ledger"]["total_cost"]
        # Deleting an already-terminal query is idempotent.
        assert repeat.status == 200
        assert repeat.json()["cancelled"] is False

    def test_submit_plain_mode_skips_the_reservation(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            body = dict(_query_body("alpha"), mode="plain")
            plain = await client.post("/v1/queries", body)
            plain_reserved = app.mux["svc"].service.tenant_reserved("acme")

            reserving = _make_app()
            rclient = InProcessClient(reserving, token="acme-token")
            reserved = await rclient.post("/v1/queries", _query_body("alpha"))
            upfront = reserving.mux["svc"].service.tenant_reserved("acme")
            return plain, plain_reserved, reserved, upfront

        plain, plain_reserved, reserved, upfront = asyncio.run(run())
        assert plain.status == 201 and reserved.status == 201
        # Reserve mode books the plan's upfront cost against the tenant
        # at admission; plain mode books nothing until publish time.
        assert plain_reserved == 0.0
        assert upfront > 0.0


class TestPlanGating:
    BUDGET = 0.05

    def test_infeasible_plan_answers_402_with_counter_offer(self):
        async def run():
            app = _make_app(budget=self.BUDGET)
            client = InProcessClient(app, token="acme-token")
            refused = await client.post("/v1/queries", _query_body("alpha"))
            explained = await client.post("/v1/explain", _query_body("alpha"))
            metrics = await client.get("/v1/metrics")
            return refused, explained, metrics

        refused, explained, metrics = asyncio.run(run())
        assert refused.status == 402
        payload = refused.json()
        assert payload["error"] == "plan-infeasible"
        decision = payload["decision"]
        assert decision["admitted"] is False
        counter = decision["counter_offer"]
        assert counter is not None
        # Parity: the 402's plan and decision are exactly what explain
        # (and hence `cdas-repro explain`) serves for the same request.
        assert explained.status == 200
        assert canonical_json(payload["plan"]) == canonical_json(
            explained.json()["plan"]
        )
        assert canonical_json(decision) == canonical_json(
            explained.json()["decision"]
        )
        # Negotiated refusal costs nothing: zero market spend.
        ledger = metrics.json()["services"]["svc"]["ledger"]
        assert ledger["total_cost"] == 0.0

    def test_counter_offer_matches_direct_preadmit(self):
        async def run():
            app = _make_app(budget=self.BUDGET)
            client = InProcessClient(app, token="acme-token")
            refused = await client.post("/v1/queries", _query_body("alpha"))
            return refused.json()

        payload = asyncio.run(run())
        service = _cdas(52).service(max_in_flight=2)
        service.register_tenant("acme", priority=2.0, budget_cap=self.BUDGET)
        plan = service.plan(
            "twitter-sentiment",
            movie_query("alpha", 0.9),
            tenant="acme",
            **_tsa_inputs(),
        )
        decision = service.preadmit(plan)
        assert decision.admitted is False
        assert canonical_json(payload["decision"]) == canonical_json(
            decision.to_dict()
        )


class TestErrors:
    def test_unknown_and_foreign_query_ids_answer_404(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app)
            submitted = await client.post(
                "/v1/queries", _query_body("alpha"), token="acme-token"
            )
            query_id = submitted.json()["id"]
            foreign = await client.get(
                f"/v1/queries/{query_id}", token="globex-token"
            )
            unknown = await client.get(
                "/v1/queries/svc-99", token="acme-token"
            )
            unparsable = await client.get(
                "/v1/queries/nonsense", token="acme-token"
            )
            return foreign, unknown, unparsable

        for response in asyncio.run(run()):
            assert response.status == 404
            assert response.json()["error"] == "unknown-query"

    def test_requests_never_read_finished_queries(self):
        """With 200 finished queries, a submit, a poll and the 404s read
        none of their handles: resolution is a seq lookup, and the
        driver kick looks only at live queries."""

        class Finished(AsyncQueryHandle):
            def _untouchable(self):
                raise AssertionError("a finished handle was read")

            state = done = seq = tenant = property(_untouchable)

        async def run():
            app = _make_app()
            service = app.mux["svc"]
            small = _tsa_inputs(movies=("alpha",), per_movie=4, workers=3)
            finished = [
                service.submit(
                    "twitter-sentiment", movie_query("alpha", 0.9),
                    tenant="acme", **small,
                )
                for _ in range(200)
            ]
            await service.wait_idle()
            assert all(h.state is QueryState.DONE for h in finished)
            for handle in finished:
                handle.__class__ = Finished
            client = InProcessClient(app)
            submitted = await client.post(
                "/v1/queries", _query_body("beta"), token="acme-token"
            )
            query_id = submitted.json()["id"]
            polled = await client.get(f"/v1/queries/{query_id}", token="acme-token")
            foreign = await client.get(f"/v1/queries/{query_id}", token="globex-token")
            unknown = await client.get("/v1/queries/svc-9999", token="acme-token")
            await service.aclose()
            return submitted, polled, foreign, unknown

        submitted, polled, foreign, unknown = asyncio.run(run())
        assert submitted.status == 201
        assert submitted.json()["id"] == "svc-200"
        assert polled.status == 200
        assert polled.json()["id"] == "svc-200"
        for response in (foreign, unknown):
            assert response.status == 404
            assert response.json()["error"] == "unknown-query"

    def test_method_path_and_body_errors(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            method = await client.delete("/v1/healthz")
            path = await client.get("/v2/anything")
            empty = await client.request("POST", "/v1/queries")
            bad_job = await client.post(
                "/v1/queries", dict(_query_body("alpha"), job="no-such-job")
            )
            bad_field = await client.post(
                "/v1/queries", dict(_query_body("alpha"), surprise=1)
            )
            bad_preset = await client.post(
                "/v1/queries",
                dict(_query_body("alpha"), inputs={"$preset": "nope"}),
            )
            return method, path, empty, bad_job, bad_field, bad_preset

        method, path, empty, bad_job, bad_field, bad_preset = asyncio.run(run())
        assert method.status == 405
        assert path.status == 404
        assert empty.status == 400
        assert bad_job.status == 400
        assert bad_field.status == 400
        assert bad_preset.status == 400


class TestSse:
    def test_stream_frames_progress_to_end(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            return await _run_to_end(client, submitted.json()["id"])

        frames = asyncio.run(run())
        assert frames[0][0] == "progress"
        progress_frames = [data for event, data in frames if event == "progress"]
        assert len(progress_frames) > 1
        for earlier, later in zip(progress_frames, progress_frames[1:]):
            assert earlier["items_answered"] <= later["items_answered"]
            assert earlier["spend"] <= later["spend"]
        end = frames[-1][1]
        assert end["progress"]["state"] == "done"

    def test_heartbeats_fill_dormant_spells(self):
        async def run():
            app = _make_app(seed=54, slow=DELAY, heartbeat=DELAY / 10)
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            return await _run_to_end(client, submitted.json()["id"])

        frames = asyncio.run(run())
        heartbeats = [frame for frame in frames if frame == (None, None)]
        assert heartbeats, "no heartbeat comments during a slow-backend run"

    def test_disconnected_consumer_does_not_stall_the_query(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            query_id = submitted.json()["id"]
            # Walk away after two SSE chunks; the app must notice the
            # http.disconnect and return instead of streaming to the end.
            partial = await client.get(
                f"/v1/queries/{query_id}/events", disconnect_after=2
            )
            await app.mux["svc"].wait_idle()
            final = await client.get(f"/v1/queries/{query_id}")
            metrics = await client.get("/v1/metrics")
            return partial, final, metrics

        partial, final, metrics = asyncio.run(run())
        assert partial.status == 200
        assert b"event: end" not in partial.body
        # The abandoned stream cost nothing: the query still finished.
        assert final.json()["progress"]["state"] == "done"
        assert metrics.json()["gateway"]["sse_streams"] == 1

    def test_sse_on_terminal_query_ends_immediately(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            query_id = submitted.json()["id"]
            await _run_to_end(client, query_id)
            return await _run_to_end(client, query_id)

        frames = asyncio.run(run())
        assert [event for event, _ in frames] == ["progress", "end"]


def _resume_app(journal) -> GatewayApp:
    cdas = _cdas(52)
    return cdas.gateway(
        TOKENS,
        name="svc",
        presets={"demo-tsa": _tsa_inputs()},
        max_in_flight=2,
        journal=journal,
        resume=True,
    )


class TestDurableGateway:
    def test_submit_is_journaled_before_the_201(self, journal_path, tmp_path):
        store = AckProbeStore(journal_path)

        async def run():
            app = _make_app(journal=store)
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            assert submitted.status == 201
            # Crash the moment the client holds its id: only what was
            # synced before the 201 left survives.
            crashed = store.crash_copy(tmp_path / "acked.journal.jsonl")
            query_id = submitted.json()["id"]
            frames = await _run_to_end(client, query_id)
            metrics = await client.get("/v1/metrics")
            journal = metrics.json()["services"]["svc"]["journal"]
            assert journal is not None
            assert journal["records"] > 0
            app.mux["svc"].service.close()
            return query_id, frames[-1][1], crashed

        query_id, end, crashed = asyncio.run(run())

        async def resume(journal):
            app = _resume_app(journal)
            client = InProcessClient(app, token="acme-token")
            polled = await client.get(f"/v1/queries/{query_id}")
            frames = await _run_to_end(client, query_id)
            app.mux["svc"].service.close()
            return polled, frames[-1][1]

        # The acknowledged id resolves after the crash, and the query it
        # names finishes exactly as the uninterrupted run finished it.
        polled, resumed_end = asyncio.run(resume(crashed))
        assert polled.status == 200
        assert resumed_end == end
        polled, _ = asyncio.run(resume(journal_path))
        assert polled.status == 200
        assert polled.json()["progress"]["state"] == "done"

    def test_unflushed_submit_ack_is_lost_in_the_crash(
        self, journal_path, tmp_path
    ):
        """The crash copy is not vacuous: without the durable service's
        own commit of the action, the id a client holds is gone after a
        crash."""
        store = AckProbeStore(journal_path)

        async def run():
            app = _make_app(journal=store)
            # Journal the action but skip its commit.
            durable = app.mux["svc"].service
            durable._commit_action = durable._observed
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            crashed = store.crash_copy(tmp_path / "unflushed.journal.jsonl")
            await app.mux["svc"].aclose()
            app.mux["svc"].service.close()
            return submitted, crashed

        submitted, crashed = asyncio.run(run())
        assert submitted.status == 201

        def submits(path):
            lines = path.read_text().splitlines()
            return [r for r in map(json.loads, lines) if r["k"] == "submit"]

        # The submit reached the journal, but no sync covered it before
        # the 201: a crash at the ack loses the id the client was given.
        assert len(submits(journal_path)) == 1
        assert submits(crashed) == []

    def test_cancel_is_journaled_before_the_200(self, journal_path, tmp_path):
        store = AckProbeStore(journal_path)

        async def run():
            app = _make_app(journal=store)
            client = InProcessClient(app, token="acme-token")
            # A second query keeps the driver busy, so it never drains
            # (and syncs) between the cancel and the DELETE's 200.
            kept = await client.post("/v1/queries", _query_body("alpha"))
            doomed = await client.post("/v1/queries", _query_body("beta"))
            doomed_id = doomed.json()["id"]
            deleted = await client.delete(f"/v1/queries/{doomed_id}")
            crashed = store.crash_copy(tmp_path / "cancelled.journal.jsonl")
            await app.mux["svc"].aclose()
            app.mux["svc"].service.close()
            return kept.json()["id"], doomed_id, deleted, crashed

        kept_id, doomed_id, deleted, crashed = asyncio.run(run())
        assert deleted.status == 200
        assert deleted.json()["cancelled"] is True

        async def resume():
            app = _resume_app(crashed)
            client = InProcessClient(app, token="acme-token")
            polled = [
                await client.get(f"/v1/queries/{query_id}")
                for query_id in (kept_id, doomed_id)
            ]
            app.mux["svc"].service.close()
            return polled

        kept, doomed = asyncio.run(resume())
        assert kept.status == 200
        assert doomed.status == 200
        assert doomed.json()["progress"]["state"] == "cancelled"

    def test_recovered_live_query_resumes_without_a_request(
        self, journal_path, tmp_path
    ):
        """A gateway built inside a running loop starts the driver of a
        recovered live query itself: nobody has to call an endpoint."""
        crashed, query_id = _crashed_with_a_live_query(journal_path, tmp_path)

        async def resume():
            app = _resume_app(crashed)
            _, handle = app.resolve("acme", query_id)
            assert not handle.done
            await wait_until(lambda: handle.done, what="the recovered query")
            app.mux["svc"].service.close()
            return app.counters["requests"], handle.state

        requests, state = asyncio.run(resume())
        assert requests == 0
        assert state is QueryState.DONE

    def test_recovered_live_query_resumes_after_one_poll(
        self, journal_path, tmp_path
    ):
        """Built outside any loop, the gateway cannot start a driver;
        the first poll does, and no further request is needed."""
        crashed, query_id = _crashed_with_a_live_query(journal_path, tmp_path)
        app = _resume_app(crashed)
        _, handle = app.resolve("acme", query_id)

        async def resume():
            client = InProcessClient(app, token="acme-token")
            polled = await client.get(f"/v1/queries/{query_id}")
            await wait_until(lambda: handle.done, what="the recovered query")
            app.mux["svc"].service.close()
            return polled

        polled = asyncio.run(resume())
        assert polled.status == 200
        assert polled.json()["progress"]["state"] != "done"
        assert app.counters["requests"] == 1
        assert handle.state is QueryState.DONE


def _crashed_with_a_live_query(journal_path, tmp_path):
    """``(crash copy, query id)``: the journal a crash leaves the moment
    a submit is acknowledged, its query still live."""
    store = AckProbeStore(journal_path)

    async def run():
        app = _make_app(journal=store)
        client = InProcessClient(app, token="acme-token")
        submitted = await client.post("/v1/queries", _query_body("alpha"))
        crashed = store.crash_copy(tmp_path / "live.journal.jsonl")
        await app.mux["svc"].aclose()
        app.mux["svc"].service.close()
        return crashed, submitted.json()["id"]

    return asyncio.run(run())


class _EioAtFirstSubmit(FileJournalStore):
    """A journal store whose first ``submit`` record fails with EIO."""

    def append(self, record):
        if record["k"] == "submit":
            raise OSError(errno.EIO, "injected I/O error")
        super().append(record)


class TestJournalFailure:
    def test_journal_error_answers_503_and_stays_stopped(self, journal_path):
        async def run():
            app = _make_app(journal=_EioAtFirstSubmit(journal_path))
            client = InProcessClient(app, token="acme-token")
            first = await client.post("/v1/queries", _query_body("alpha"))
            again = await client.post("/v1/queries", _query_body("beta"))
            listed = app.mux["svc"].handles
            app.mux["svc"].service.store.close()
            return first, again, listed

        first, again, listed = asyncio.run(run())
        for response in (first, again):
            assert response.status == 503
            assert response.json()["error"] == "journal-failed"
        # No query id was ever handed out for the unjournaled submit.
        assert listed == ()


class TestMetrics:
    def test_metrics_counts_requests_and_drains(self):
        async def run():
            app = _make_app()
            client = InProcessClient(app, token="acme-token")
            submitted = await client.post("/v1/queries", _query_body("alpha"))
            await _run_to_end(client, submitted.json()["id"])
            return await client.get("/v1/metrics")

        metrics = asyncio.run(run())
        payload = metrics.json()
        assert payload["gateway"]["submits"] == 1
        assert payload["gateway"]["requests"] >= 3
        service = payload["services"]["svc"]
        assert service["queries"] == {"done": 1}
        assert service["steps_taken"] > 0
        assert service["drains"] >= 1
        assert service["journal"] is None
        assert service["ledger"]["total_cost"] > 0
