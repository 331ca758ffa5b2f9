"""The gateway's pure-ASGI application object.

:class:`GatewayApp` is a plain ASGI-3 callable — ``await app(scope,
receive, send)`` — over a :class:`~repro.engine.aio.ServiceMux`.  No
framework, no middleware stack, no socket assumption: the in-process
test client (:mod:`repro.gateway.testing`) calls it directly, and the
stdlib HTTP/1.1 server (:mod:`repro.gateway.server`) is just one way to
reach it.  The split of responsibilities:

* this module owns the ASGI mechanics — scope handling, request-body
  assembly, routing table, error → status mapping, JSON responses;
* :mod:`repro.gateway.routes` owns the endpoint semantics (what a
  submit, poll, cancel, explain or metrics request *means* against the
  engine);
* :mod:`repro.gateway.sse` owns the one streaming response.

Error taxonomy (every error body is ``{"error": kind, "message": ...}``):

=====================================  ======
condition                              status
=====================================  ======
missing/unknown bearer token           401
plan refused at admission              402 (+ ``plan`` and ``decision``)
tenant cap refuses plan-less submit    403
unknown path / id / foreign tenant id  404
method not allowed on a known path     405
undecodable body, bad query/inputs     400
unexpected server failure              500
=====================================  ======
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from typing import Any, Protocol

from repro.cluster.rpc import ShardDied
from repro.durability.journal import JournalFailed
from repro.engine.aio import AsyncHandleBase, AsyncSchedulerService, ServiceMux
from repro.engine.planner import PlanInfeasible
from repro.engine.service import AdmissionRejected

from repro.gateway import routes
from repro.gateway.auth import AuthError, TokenAuth
from repro.gateway.codec import BadRequest, dumps
from repro.gateway.sse import stream_updates

__all__ = ["GatewayApp", "GatewayService", "HttpError"]

#: Public query ids look like ``<service>-<seq>``.
_QUERY_ID = re.compile(r"^(?P<service>.+)-(?P<seq>\d+)$")

#: Submit bodies may not exceed this (a DoS guard, not a protocol limit;
#: the demo corpora encode to well under it).
MAX_BODY_BYTES = 8 * 1024 * 1024


class GatewayService(Protocol):
    """The service members the gateway uses, and the only ones: what
    :class:`~repro.engine.aio.AsyncSchedulerService` and the cluster's
    ``RemoteShardService`` offer.  ``plan`` and ``submit`` may answer
    with an awaitable (an RPC round trip); the routes take either."""

    @property
    def name(self) -> str | None: ...

    @property
    def handles(self) -> tuple[AsyncHandleBase, ...]: ...

    def handle_for(self, seq: int) -> AsyncHandleBase | None: ...

    @property
    def idle(self) -> bool: ...

    async def refresh(self) -> None: ...

    def metrics_snapshot(self) -> dict[str, Any]: ...

    def ledger_summary(self) -> dict[str, Any]: ...

    def plan(
        self,
        job_name: str,
        query: Any,
        *,
        tenant: str,
        budget: float | None,
        priority: float | None,
        **job_inputs: Any,
    ) -> Any: ...

    def preadmit(self, plan: Any) -> Any: ...

    def submit(
        self,
        job_name: str,
        query: Any,
        *,
        tenant: str,
        budget: float | None,
        priority: float | None,
        reserve: bool,
        **job_inputs: Any,
    ) -> Any: ...


class HttpError(Exception):
    """A structured failure a route raises to produce an error response."""

    def __init__(
        self, status: int, kind: str, message: str, extra: dict[str, Any] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.extra = extra or {}

    def body(self) -> dict[str, Any]:
        payload = {"error": self.kind, "message": str(self)}
        payload.update(self.extra)
        return payload


class GatewayApp:
    """ASGI front door over a :class:`ServiceMux`.

    Parameters
    ----------
    mux:
        The services to expose, each a :class:`GatewayService`: a
        :class:`ServiceMux` or a sharded router.  A bare
        :class:`AsyncSchedulerService` is accepted and wrapped in a
        one-entry mux (named after the service, or ``"svc"``).
    auth:
        Bearer-token → tenant resolver.
    routes:
        Optional ``{tenant: service name}`` submission routing.  A
        tenant with no route uses the mux's sole service; with several
        services and no route, the request must name one (``service``
        body field).
    presets:
        Named job-input bundles ``{name: {kwarg: value}}`` reachable
        from request bodies as ``{"inputs": {"$preset": name}}``.
    heartbeat:
        SSE heartbeat cadence in seconds.
    """

    def __init__(
        self,
        mux: ServiceMux | AsyncSchedulerService,
        auth: TokenAuth,
        routes: Mapping[str, str] | None = None,
        presets: Mapping[str, Mapping[str, Any]] | None = None,
        heartbeat: float | None = None,
    ) -> None:
        if isinstance(mux, AsyncSchedulerService):
            only = mux
            mux = ServiceMux()
            mux.add(only.name or "svc", only)
        self.mux = mux
        self.auth = auth
        self.routes = dict(routes or {})
        self.presets = {name: dict(inputs) for name, inputs in (presets or {}).items()}
        self.heartbeat = heartbeat
        #: ``(tenant, idempotency key) → query id`` — retried submits
        #: return the original query instead of running it twice.
        self.idempotency: dict[tuple[str, str], str] = {}
        #: Gateway-level counters served by ``GET /v1/metrics``.
        self.counters = {
            "requests": 0,
            "submits": 0,
            "idempotent_replays": 0,
            "cancels": 0,
            "sse_streams": 0,
        }

    # -- service / handle resolution -----------------------------------------

    def service_for(self, tenant: str, requested: str | None) -> GatewayService:
        """Pick the service a submission runs on (explicit > route > sole)."""
        name = requested if requested is not None else self.routes.get(tenant)
        if name is None:
            if len(self.mux) == 1:
                return self.mux.services[0]
            router = getattr(self.mux, "route", None)
            if router is not None:
                # A sharded mux (ShardRouter) picks the tenant's home
                # deterministically; "no live shard" is a 503, not a 400.
                try:
                    return router(tenant)
                except LookupError as exc:
                    raise HttpError(503, "no-shard", str(exc)) from None
            raise HttpError(
                400,
                "service-required",
                f"several services are registered and tenant {tenant!r} has "
                "no route; name one in the request's 'service' field",
            )
        try:
            return self.mux[name]
        except KeyError:
            raise HttpError(404, "unknown-service", f"no service {name!r}") from None

    def query_id(self, service: GatewayService, handle: AsyncHandleBase) -> str:
        """The public id of one handle: ``<service>-<seq>``.

        ``seq`` is the submission ordinal the durability layer journals,
        so ids remain resolvable after a crash and ``recover()``.
        """
        return f"{service.name or 'svc'}-{handle.seq}"

    def resolve(self, tenant: str, query_id: str) -> tuple[GatewayService, AsyncHandleBase]:
        """Find a query by public id, enforcing tenant ownership.

        Foreign-tenant and unknown ids both read as 404 — the gateway
        never confirms another tenant's query exists.
        """
        match = _QUERY_ID.match(query_id)
        if match is not None:
            name = match.group("service")
            seq = int(match.group("seq"))
            try:
                service = self.mux[name]
            except KeyError:
                service = None
            if service is not None:
                handle = service.handle_for(seq)
                if handle is not None and handle.tenant == tenant:
                    return service, handle
        raise HttpError(404, "unknown-query", f"no query {query_id!r}")

    # -- ASGI ------------------------------------------------------------------

    async def __call__(self, scope: dict[str, Any], receive: Any, send: Any) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")
        self.counters["requests"] += 1
        method = scope["method"].upper()
        path = scope["path"]
        headers: list[tuple[bytes, bytes]] = list(scope.get("headers", ()))
        try:
            await self._dispatch(method, path, headers, receive, send)
        except HttpError as exc:
            await self._send_json(send, exc.status, exc.body())
        except AuthError as exc:
            await self._send_json(
                send,
                401,
                {"error": "unauthorized", "message": str(exc)},
                extra_headers=[(b"www-authenticate", b"Bearer")],
            )
        except BadRequest as exc:
            await self._send_json(
                send, 400, {"error": "bad-request", "message": str(exc)}
            )
        except PlanInfeasible as exc:
            # The negotiated-refusal contract: a 402 carries the same
            # plan and decision payloads `explain` serves, counter-offer
            # included, so clients renegotiate instead of parsing text.
            await self._send_json(
                send,
                402,
                {
                    "error": "plan-infeasible",
                    "message": str(exc),
                    "plan": exc.plan.to_dict(),
                    "decision": exc.decision.to_dict(),
                },
            )
        except AdmissionRejected as exc:
            await self._send_json(
                send, 403, {"error": "admission-rejected", "message": str(exc)}
            )
        except (KeyError, ValueError) as exc:
            # Eager submit/plan validation (unknown job, bad inputs).
            await self._send_json(
                send, 400, {"error": "bad-request", "message": str(exc)}
            )
        except ShardDied as exc:
            # A sharded backend lost the query's process mid-request.
            await self._send_json(
                send, 503, {"error": "shard-unavailable", "message": str(exc)}
            )
        except JournalFailed as exc:
            # The journal store failed: the service is stopped until it is
            # recovered from its on-disk journal (fail-stop, DESIGN.md §12).
            await self._send_json(
                send, 503, {"error": "journal-failed", "message": str(exc)}
            )
        except Exception as exc:  # pragma: no cover - last resort
            await self._send_json(
                send, 500, {"error": "internal", "message": str(exc)}
            )

    async def _lifespan(self, receive: Any, send: Any) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: list[tuple[bytes, bytes]],
        receive: Any,
        send: Any,
    ) -> None:
        if path == "/v1/healthz":
            self._allow(method, ("GET",))
            await self._send_json(send, 200, await routes.healthz(self))
            return
        if path == "/v1/metrics":
            self._allow(method, ("GET",))
            await self._send_json(send, 200, await routes.metrics(self))
            return
        if path == "/v1/explain":
            self._allow(method, ("POST",))
            tenant = self.auth.authenticate(headers)
            body = await self._read_json(receive)
            await self._send_json(send, 200, await routes.explain(self, tenant, body))
            return
        if path == "/v1/queries":
            self._allow(method, ("POST",))
            tenant = self.auth.authenticate(headers)
            body = await self._read_json(receive)
            key = self._header(headers, b"idempotency-key")
            status, payload = await routes.submit(self, tenant, body, key)
            extra = [(b"location", f"/v1/queries/{payload['id']}".encode("latin-1"))]
            await self._send_json(send, status, payload, extra_headers=extra)
            return
        match = re.match(r"^/v1/queries/([^/]+)$", path)
        if match is not None:
            self._allow(method, ("GET", "DELETE"))
            tenant = self.auth.authenticate(headers)
            if method == "GET":
                await self._send_json(
                    send, 200, await routes.poll(self, tenant, match.group(1))
                )
            else:
                self.counters["cancels"] += 1
                await self._send_json(
                    send, 200, await routes.cancel(self, tenant, match.group(1))
                )
            return
        match = re.match(r"^/v1/queries/([^/]+)/events$", path)
        if match is not None:
            self._allow(method, ("GET",))
            tenant = self.auth.authenticate(headers)
            _, handle = self.resolve(tenant, match.group(1))
            self.counters["sse_streams"] += 1
            kwargs = {} if self.heartbeat is None else {"heartbeat": self.heartbeat}
            await stream_updates(handle, send, receive, **kwargs)
            return
        raise HttpError(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _allow(method: str, allowed: tuple[str, ...]) -> None:
        if method not in allowed:
            raise HttpError(
                405, "method-not-allowed", f"use {' or '.join(allowed)}"
            )

    @staticmethod
    def _header(
        headers: list[tuple[bytes, bytes]], name: bytes
    ) -> str | None:
        for key, value in headers:
            if key.lower() == name:
                return value.decode("latin-1")
        return None

    async def _read_json(self, receive: Any) -> dict[str, Any]:
        chunks: list[bytes] = []
        total = 0
        while True:
            message = await receive()
            if message["type"] == "http.disconnect":
                raise BadRequest("client disconnected before the body arrived")
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > MAX_BODY_BYTES:
                raise HttpError(413, "body-too-large", "request body too large")
            chunks.append(chunk)
            if not message.get("more_body", False):
                break
        raw = b"".join(chunks)
        if not raw:
            raise BadRequest("empty request body; expected a JSON object")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequest("body must be a JSON object")
        return body

    @staticmethod
    async def _send_json(
        send: Any,
        status: int,
        payload: Any,
        extra_headers: list[tuple[bytes, bytes]] | None = None,
    ) -> None:
        body = dumps(payload)
        headers = [
            (b"content-type", b"application/json; charset=utf-8"),
            (b"content-length", str(len(body)).encode("latin-1")),
        ]
        if extra_headers:
            headers.extend(extra_headers)
        await send(
            {"type": "http.response.start", "status": status, "headers": headers}
        )
        await send(
            {"type": "http.response.body", "body": body, "more_body": False}
        )
