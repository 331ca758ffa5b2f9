"""HTTP/ASGI service gateway: CDAS's network front door (DESIGN.md §13).

The paper's §2 architecture is a *service* — jobs arrive from many
users, get planned against the §3.1 cost model and admitted under
per-tenant budgets — and this package is the boundary that makes the
reproduction reachable as one: a pure-ASGI application
(:class:`GatewayApp`) over the async serving stack
(:class:`~repro.engine.aio.ServiceMux`), plus a stdlib asyncio HTTP/1.1
server (:class:`GatewayServer`) so `cdas-repro serve --http :8080`
stands it up on a real socket.  No framework, no new dependency.

Surface (all under ``/v1``, bearer-token tenant auth)::

    POST   /v1/queries              plan-gated submit → 201 + query id
    GET    /v1/queries/{id}         progress snapshot (+ result when DONE)
    DELETE /v1/queries/{id}         charge-final cancel, frozen ledger
    GET    /v1/queries/{id}/events  SSE progress stream
    POST   /v1/explain              QueryPlan + admission preview
    GET    /v1/healthz              liveness (unauthenticated)
    GET    /v1/metrics              scheduler/ledger/journal counters

Composes with the durability layer: a journaled service commits each
submit and cancel before the gateway acknowledges it, and after
``recover()`` the same public query ids resolve
(ids are ``<service>-<seq>``, and ``seq`` is journaled).
"""

from repro.gateway.app import GatewayApp, HttpError
from repro.gateway.auth import AuthError, TokenAuth
from repro.gateway.codec import BadRequest
from repro.gateway.server import GatewayServer
from repro.gateway.testing import InProcessClient, parse_sse

__all__ = [
    "AuthError",
    "BadRequest",
    "GatewayApp",
    "GatewayServer",
    "HttpError",
    "InProcessClient",
    "TokenAuth",
    "parse_sse",
]
