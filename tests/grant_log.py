"""A test's own hold on the sessions a service grants.

A query's record lets go of its sessions once the query is terminal
(DESIGN.md §7), and the scheduler stops listing them.  A test that reads
a finished query's sessions holds them itself: :class:`GrantLog` sits in
the service's lifecycle-observer seat, keeps each granted session under
its query's seq, and forwards every hook to the observer it replaced (a
journaled service's), so the journal is written exactly as without it.

The release also seals the query's result, in place, and the sessions'
HIT results share its records: a test that compares the evidence
(observations, verdict scores) reads it at completion, before the
release, as :class:`EvidenceLog` does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

import pytest

from repro.durability import recovery
from repro.engine.session import HITSession
from repro.system import CDAS


class GrantLog:
    """Every session ``service`` grants from now on, by query seq."""

    def __init__(self, service: Any) -> None:
        self.by_seq: dict[int, list[HITSession]] = {}
        self._inner = service.observer
        service.observer = self

    def of(self, seq: int) -> list[HITSession]:
        """One query's sessions, in grant order (withdrawn ones too)."""
        return self.by_seq.setdefault(seq, [])

    @property
    def sessions(self) -> list[HITSession]:
        """Every query's sessions: queries in seq order, each in grant
        order."""
        return [s for seq in sorted(self.by_seq) for s in self.by_seq[seq]]

    def on_grant(self, record: Any, session: Any, group_index: int) -> None:
        self.of(record.seq).append(session)
        if self._inner is not None:
            self._inner.on_grant(record, session, group_index)

    def on_complete(self, record: Any) -> None:
        if self._inner is not None:
            self._inner.on_complete(record)

    def on_window(self, record: Any, index: int) -> None:
        if self._inner is not None:
            self._inner.on_window(record, index)

    def on_reserve(self, record: Any, amount: float) -> None:
        if self._inner is not None:
            self._inner.on_reserve(record, amount)


class EvidenceLog(GrantLog):
    """A grant log that also keeps ``fingerprint(record)`` of each query
    as it completes, while its result still holds its evidence."""

    def __init__(self, service: Any, fingerprint: Callable[[Any], Any]) -> None:
        super().__init__(service)
        self.fingerprint = fingerprint
        self.evidence: dict[int, Any] = {}

    def on_complete(self, record: Any) -> None:
        self.evidence[record.seq] = self.fingerprint(record)
        super().on_complete(record)


@contextmanager
def services_logged(
    log: Callable[[Any], GrantLog] = GrantLog,
) -> Iterator[list[GrantLog]]:
    """While open, every service a system builds — through
    ``CDAS.service`` or ``recover()`` — gets a grant log (``log(service)``)
    before its first submit or replayed grant; the context yields every
    log made, in build order.  A recovered service's log starts with the
    sessions its snapshot restored to each query (none for a query
    already terminal in the snapshot)."""
    build = CDAS._build_service
    install = recovery.install_snapshot
    logs: list[GrantLog] = []

    def logged(self: CDAS, *args: Any, **kwargs: Any) -> Any:
        service = build(self, *args, **kwargs)
        logs.append(log(service))
        return service

    def seeded(durable: Any, *args: Any) -> None:
        install(durable, *args)
        for record in durable._records:
            durable.observer.by_seq[record.seq] = list(record.sessions)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CDAS, "_build_service", logged)
        patch.setattr(recovery, "install_snapshot", seeded)
        yield logs
