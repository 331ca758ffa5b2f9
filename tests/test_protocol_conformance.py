"""Protocol conformance: every implementor of a duck-typed seam matches it.

``MarketBackend``, ``HITHandle`` and ``JournalStore`` are typing
Protocols that the engine and the durable service consume without
subclassing, so an implementor that drifts (a renamed method, a dropped
parameter) fails only in whichever code path reaches it first.  For each
public member of each protocol, every implementor must offer the same
kind of member — a method, or data (a property or an attribute) — and,
for a method, the same parameters: names, kinds and defaults.

Members are looked up on live instances with
:func:`inspect.getattr_static`, so inherited members count (the sqlite
journal store inherits ``append`` and ``commit``) and attributes set in
``__init__`` count as data.

``GatewayService`` is a contract the other way round: it lists only what
the gateway calls, so an implementor must offer each member as the same
kind (method or data, an ``async`` one where the gateway awaits it) and
accept every declared parameter by name; it may take more, and its
defaults are its own.
"""

from __future__ import annotations

import inspect
from types import FunctionType
from typing import Any

import pytest

from repro.amt.backend import HITHandle, MarketBackend
from repro.amt.hit import HIT, Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.slow import SlowBackend
from repro.amt.trace import TraceRecorder, TraceReplayBackend
from repro.cluster.router import RemoteShardService
from repro.durability.journal import (
    FileJournalStore,
    JournalStore,
    SqliteJournalStore,
)
from repro.engine.aio import AsyncSchedulerService
from repro.gateway.app import GatewayService
from repro.system import CDAS

#: Protocol → the class names of every implementor in the tree.
IMPLEMENTORS = {
    MarketBackend: (
        "SimulatedMarket",
        "SlowBackend",
        "TraceRecorder",
        "TraceReplayBackend",
    ),
    HITHandle: ("PublishedHIT", "SlowHITHandle", "_RecordingHandle", "_ReplayHandle"),
    JournalStore: ("FileJournalStore", "SqliteJournalStore"),
}

CASES = [
    pytest.param(protocol, name, id=f"{protocol.__name__}-{name}")
    for protocol, names in IMPLEMENTORS.items()
    for name in names
]


def _signature(fn: Any) -> str:
    """``fn``'s parameter list without annotations, e.g. ``(self, *, x=1)``."""
    sig = inspect.signature(fn)
    bare = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))


def _shape(member: Any) -> str:
    """A method's parameter list, or ``"data"`` for properties/attributes."""
    return _signature(member) if inspect.isfunction(member) else "data"


def protocol_members(protocol: type) -> dict[str, str]:
    """Every public member a protocol declares, by name."""
    members = {
        name: "data"
        for name in vars(protocol).get("__annotations__", {})
        if not name.startswith("_")
    }
    for name, value in vars(protocol).items():
        if not name.startswith("_") and isinstance(value, (property, FunctionType)):
            members[name] = _shape(value)
    return members


def mismatches(protocol: type, obj: object) -> list[str]:
    """Where ``obj`` breaks ``protocol`` (empty when it conforms)."""
    problems = []
    for name, expected in protocol_members(protocol).items():
        try:
            actual = _shape(inspect.getattr_static(obj, name))
        except AttributeError:
            problems.append(f"missing {name!r}")
            continue
        if actual != expected:
            problems.append(f"{name!r}: protocol {expected}, implementor {actual}")
    return problems


def _hit() -> HIT:
    question = Question(
        question_id="q0", options=("yes", "no"), truth="yes", topic="general"
    )
    return HIT(hit_id="hit-c", questions=(question,), assignments=2)


def _market() -> SimulatedMarket:
    pool = WorkerPool.from_config(PoolConfig(size=40), seed=5)
    return SimulatedMarket(pool, seed=5)


@pytest.fixture
def implementors(tmp_path):
    """One live instance of every implementor, by class name."""
    market = _market()
    slow = SlowBackend(_market(), delay=0.0)
    trace_path = tmp_path / "t.jsonl"
    recorder = TraceRecorder(_market(), trace_path)
    recording = recorder.publish(_hit())
    while recording.next_submission() is not None:
        pass
    recorder.close()
    replay = TraceReplayBackend.load(trace_path)
    stores = [
        FileJournalStore(tmp_path / "j.jsonl"),
        SqliteJournalStore(tmp_path / "j.sqlite"),
    ]
    objects = [market, slow, recorder, replay, recording, *stores]
    objects += [market.publish(_hit()), slow.publish(_hit()), replay.publish(_hit())]
    yield {type(obj).__name__: obj for obj in objects}
    for store in stores:
        store.close()


@pytest.mark.parametrize("protocol,name", CASES)
def test_implementor_conforms(implementors, protocol, name):
    obj = implementors[name]
    assert mismatches(protocol, obj) == []
    assert isinstance(obj, protocol)


def test_every_protocol_member_is_checked():
    """The member table sees methods, properties and annotated data."""
    assert protocol_members(MarketBackend).keys() == {"ledger", "publish"}
    assert protocol_members(HITHandle).keys() == {
        "hit", "outstanding", "done", "peek_time", "next_submission",
        "cancel", "worker_profile",
    }
    assert protocol_members(JournalStore).keys() == {
        "path", "append", "commit", "read_records", "close",
    }


class _Drifted:
    """A store whose ``commit`` gained a keyword-only parameter and whose
    ``close`` became a property."""

    path = None

    def append(self, record):
        pass

    def commit(self, *, force=False):
        pass

    def read_records(self):
        return []

    @property
    def close(self):
        return None


def test_drift_is_reported():
    problems = mismatches(JournalStore, _Drifted())
    assert len(problems) == 2
    assert problems[0] == "'commit': protocol (self), implementor (self, *, force=False)"
    assert problems[1] == "'close': protocol (self), implementor data"
    assert mismatches(JournalStore, object()) == [
        f"missing {name!r}" for name in protocol_members(JournalStore)
    ]


# -- the gateway's service contract ------------------------------------------


def contract_mismatches(protocol: type, obj: object) -> list[str]:
    """Where ``obj`` fails a contract ``protocol`` (empty when it offers
    every member as the same kind and accepts every declared parameter)."""
    problems = []
    for name in protocol_members(protocol):
        declared = inspect.getattr_static(protocol, name, None)
        try:
            actual = inspect.getattr_static(obj, name)
        except AttributeError:
            problems.append(f"missing {name!r}")
            continue
        if inspect.isfunction(declared) != inspect.isfunction(actual):
            problems.append(f"{name!r}: protocol {_kind(declared)}, implementor {_kind(actual)}")
            continue
        if not inspect.isfunction(declared):
            continue
        if inspect.iscoroutinefunction(declared) and not inspect.iscoroutinefunction(actual):
            problems.append(f"{name!r} must be async")
        accepted = inspect.signature(actual).parameters
        takes_any_keyword = any(p.kind is p.VAR_KEYWORD for p in accepted.values())
        for param in list(inspect.signature(declared).parameters.values())[1:]:
            if param.kind is param.VAR_KEYWORD:
                ok = takes_any_keyword
            else:
                match = accepted.get(param.name)
                ok = match is not None and match.kind in (
                    match.POSITIONAL_OR_KEYWORD,
                    match.KEYWORD_ONLY,
                )
            if not ok:
                problems.append(f"{name!r} does not accept {param.name!r}")
    return problems


def _kind(member: Any) -> str:
    return "method" if inspect.isfunction(member) else "data"


@pytest.fixture(scope="module")
def gateway_services(small_pool):
    """One live instance of every :class:`GatewayService` implementor."""
    cdas = CDAS.with_default_jobs(SimulatedMarket(small_pool, seed=5), seed=5)
    local = AsyncSchedulerService(cdas.service(), name="svc")
    remote = RemoteShardService(None, "shard0")
    return {type(obj).__name__: obj for obj in (local, remote)}


@pytest.mark.parametrize("name", ["AsyncSchedulerService", "RemoteShardService"])
def test_gateway_service_is_offered(gateway_services, name):
    assert contract_mismatches(GatewayService, gateway_services[name]) == []


def test_gateway_service_members():
    assert protocol_members(GatewayService).keys() == {
        "name", "handles", "handle_for", "idle", "refresh",
        "metrics_snapshot", "ledger_summary", "plan", "preadmit", "submit",
    }


class _DriftedService:
    """A service that lost ``refresh``, turned ``idle`` into a method
    and dropped ``submit``'s ``reserve``; an async ``plan`` and its own
    name for the job inputs are allowed."""

    name = "drifted"
    handles = ()

    def handle_for(self, seq):
        return None

    def idle(self):
        return True

    def metrics_snapshot(self):
        return {}

    def ledger_summary(self):
        return {}

    async def plan(self, job_name, query, *, tenant, budget, priority, **inputs):
        return None

    def preadmit(self, plan):
        return None

    def submit(self, job_name, query, *, tenant, budget, priority, **inputs):
        return None


def test_gateway_service_drift_is_reported():
    assert contract_mismatches(GatewayService, _DriftedService()) == [
        "'idle': protocol data, implementor method",
        "missing 'refresh'",
        "'submit' does not accept 'reserve'",
    ]
