"""Endpoint semantics: what each gateway route means against the engine.

Free functions over the :class:`~repro.gateway.app.GatewayApp` — kept
out of the ASGI plumbing so the request/response contract reads in one
place.  Every function returns plain JSON-able data (the app serialises
canonically); failures raise :class:`~repro.gateway.app.HttpError` or
let engine exceptions (``PlanInfeasible``, ``AdmissionRejected``,
eager validation errors) propagate for the app's status mapping.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any

from repro.engine.service import TERMINAL_STATES

from repro.gateway.codec import (
    BadRequest,
    handle_payload,
    parse_inputs,
    parse_query,
)

if TYPE_CHECKING:
    from repro.gateway.app import GatewayApp, GatewayService

__all__ = ["healthz", "metrics", "explain", "submit", "poll", "cancel"]


async def _maybe_await(value: Any) -> Any:
    """Tolerate both service flavours: in-process services answer
    ``plan``/``submit`` synchronously, remote shard services return a
    coroutine (an RPC round trip).  One seam keeps every route working
    against either."""
    if asyncio.iscoroutine(value):
        return await value
    return value


async def _refresh_services(app: "GatewayApp") -> None:
    """Bring every service's metrics and ``idle`` up to date: a remote
    shard pulls its stats, a local service returns without yielding."""
    for service in app.mux.services:
        await service.refresh()


async def healthz(app: "GatewayApp") -> dict[str, Any]:
    """Liveness: the mux's services and their driver state."""
    await _refresh_services(app)
    return {
        "status": "ok",
        "services": {
            (service.name or "svc"): {
                "queries": len(service.handles),
                "idle": service.idle,
            }
            for service in app.mux.services
        },
    }


async def metrics(app: "GatewayApp") -> dict[str, Any]:
    """Scheduler / ledger / journal counters, per service, plus the
    gateway's own request counters.  Read-only: a remote shard's entry
    costs one ``stats`` round trip."""
    await _refresh_services(app)
    services = {
        (service.name or "svc"): service.metrics_snapshot()
        for service in app.mux.services
    }
    return {"gateway": dict(app.counters), "services": services}


def _parse_submission(
    app: "GatewayApp", tenant: str, body: dict[str, Any]
) -> tuple["GatewayService", str, Any, dict[str, Any], dict[str, Any]]:
    """Shared request parsing for ``explain`` and ``submit``:
    ``(service, job, query, inputs, options)``."""
    unknown = set(body) - {
        "service", "job", "query", "inputs", "budget", "priority", "mode",
    }
    if unknown:
        raise BadRequest(f"unknown field(s): {sorted(unknown)}")
    job = body.get("job")
    if not isinstance(job, str) or not job:
        raise BadRequest("'job' must be a job name string")
    query = parse_query(body.get("query"))
    inputs = parse_inputs(body.get("inputs"), app.presets)
    budget = body.get("budget")
    if budget is not None:
        budget = float(budget)
    priority = body.get("priority")
    if priority is not None:
        priority = float(priority)
    mode = body.get("mode", "reserve")
    if mode not in ("reserve", "plain"):
        raise BadRequest(f"mode must be 'reserve' or 'plain', got {mode!r}")
    service = app.service_for(tenant, body.get("service"))
    options = {"budget": budget, "priority": priority, "mode": mode}
    return service, job, query, inputs, options


async def explain(app: "GatewayApp", tenant: str, body: dict[str, Any]) -> dict[str, Any]:
    """``POST /v1/explain`` — the plan-first preview, side-effect-free.

    Projects the request into a :class:`QueryPlan` and previews
    admission for the *authenticated* tenant.  Rejections answer 200
    here (the preview succeeded); only ``POST /v1/queries`` turns the
    same decision into a 402.  The ``decision.counter_offer`` numbers
    are exactly what `cdas-repro explain` prints.
    """
    service, job, query, inputs, options = _parse_submission(app, tenant, body)
    plan = await _maybe_await(service.plan(
        job,
        query,
        tenant=tenant,
        budget=options["budget"],
        priority=options["priority"],
        **inputs,
    ))
    decision = service.preadmit(plan)
    return {
        "service": service.name or "svc",
        "plan": plan.to_dict(),
        "decision": decision.to_dict(),
    }


async def submit(
    app: "GatewayApp", tenant: str, body: dict[str, Any], idempotency_key: str | None
) -> tuple[int, dict[str, Any]]:
    """``POST /v1/queries`` — plan-gated submit; returns (status, payload).

    Admission is plan-first by default (``mode: "reserve"``): the
    request is projected, reserved against the tenant's remaining
    budget, and an unaffordable plan raises
    :class:`~repro.engine.planner.PlanInfeasible` — the app answers 402
    with the counter-offer and **zero** market spend.  ``mode:
    "plain"`` keeps the historical reactive path.

    A repeated ``Idempotency-Key`` from the same tenant returns the
    original query (200, not 201) without submitting anything — safe
    retries for clients that lost the first response.

    A durable service commits the submit record before ``submit``
    returns, so an acknowledged submission survives a crash and
    ``recover()`` resolves the same id.
    """
    key = None
    if idempotency_key is not None:
        key = (tenant, idempotency_key)
        existing = app.idempotency.get(key)
        if existing is not None:
            app.counters["idempotent_replays"] += 1
            _, handle = app.resolve(tenant, existing)
            await handle.refresh()
            return 200, handle_payload(existing, handle)
    service, job, query, inputs, options = _parse_submission(app, tenant, body)
    handle = await _maybe_await(service.submit(
        job,
        query,
        tenant=tenant,
        budget=options["budget"],
        priority=options["priority"],
        reserve=options["mode"] == "reserve",
        **inputs,
    ))
    app.counters["submits"] += 1
    query_id = app.query_id(service, handle)
    if key is not None:
        app.idempotency[key] = query_id
    payload = handle_payload(query_id, handle)
    plan = handle.plan
    if plan is not None:
        payload["plan"] = plan.to_dict()
    # Let the freshly-started driver schedule before the response goes
    # out; keeps submit-then-poll clients from observing a never-pumped
    # service on single-request event loops.
    await asyncio.sleep(0)
    return 201, payload


async def poll(app: "GatewayApp", tenant: str, query_id: str) -> dict[str, Any]:
    """``GET /v1/queries/{id}`` — one progress snapshot (plus the
    canonical result summary once DONE), refreshed first: a remote
    handle nobody streams pulls its shard's current snapshot."""
    _, handle = app.resolve(tenant, query_id)
    await handle.refresh()
    return handle_payload(query_id, handle)


async def cancel(app: "GatewayApp", tenant: str, query_id: str) -> dict[str, Any]:
    """``DELETE /v1/queries/{id}`` — charge-final cancel.

    Unpublished batches are dropped, in-flight HITs forfeited through
    the backend; nothing further is ever charged.  The response freezes
    the moment of cancellation: the final progress snapshot plus the
    ledger totals, which later polls must agree with (the frozen-ledger
    contract the gateway tests assert).  Cancelling an already-terminal
    query answers ``cancelled: false`` with the same frozen view —
    idempotent deletes.
    """
    service, handle = app.resolve(tenant, query_id)
    cancelled = await handle.cancel()
    payload = handle_payload(query_id, handle)
    payload["cancelled"] = cancelled
    payload["ledger"] = service.ledger_summary()
    assert handle.state in TERMINAL_STATES
    return payload
