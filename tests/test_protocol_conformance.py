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
from repro.durability.journal import (
    FileJournalStore,
    JournalStore,
    SqliteJournalStore,
)

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
