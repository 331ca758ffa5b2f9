"""The market backend protocol and the global submission-event merge.

The engine historically hard-wired :class:`~repro.amt.market.SimulatedMarket`
and drained each HIT to completion before publishing the next.  Both limits
fall away here (see DESIGN.md §3):

* :class:`MarketBackend` / :class:`HITHandle` name the *minimal* surface the
  engine actually consumes — publish a HIT, peek/pull submissions in arrival
  order, cancel the remainder, account costs.  ``SimulatedMarket`` is one
  implementation; a live-AMT client or a trace-replay backend satisfies the
  same protocol without touching the engine.
* :class:`EventPump` merges the submission streams of many in-flight HITs
  into one globally arrival-ordered stream of :class:`SubmissionEvent`\\ s,
  so answers from concurrent HITs interleave exactly as they would on the
  real platform.  The scheduler pumps this stream; each pop *collects* (and
  therefore pays for) exactly one assignment.

Determinism: a handle's arrival times are fixed at publish time, peeking
never charges or consumes anything, and cross-HIT ties are broken by
publication order — the merged stream is a pure function of the market
seeds and the publish sequence.

Waiting (the asyncio pump's wake hook, DESIGN.md §8): backends whose
submissions take real wall-clock time to arrive may additionally expose
``next_arrival_eta()`` — side-effect-free like ``peek_time``, returning
how many wall-clock seconds until the next submission *can* be collected
(``0.0`` when one is pending now, ``None`` when nothing further will
arrive or the backend cannot say).  :func:`arrival_eta` probes a handle
leniently, and :meth:`EventPump.next_arrival_eta` folds the per-handle
answers into one number a driver can sleep on — the simulated market
always answers ``0.0`` (virtual time, nothing to wait for), so only
slow/live backends ever make a driver sleep.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.amt.hit import HIT, Assignment
from repro.amt.pricing import CostLedger
from repro.amt.worker import WorkerProfile

__all__ = [
    "SubmissionEvent",
    "HITHandle",
    "MarketBackend",
    "EventPump",
    "arrival_eta",
]


@dataclass(frozen=True, slots=True)
class SubmissionEvent:
    """One collected assignment, stamped with its place in the merged stream.

    Attributes
    ----------
    hit_id:
        The HIT this submission belongs to (routes the event to its session).
    assignment:
        The worker's completed assignment.
    time:
        Global simulated arrival time: the handle's publication time plus
        the assignment's submit latency.
    sequence:
        0-based position in the merged stream (strictly increasing across
        every event one pump emits).
    """

    hit_id: str
    assignment: Assignment
    time: float
    sequence: int


@runtime_checkable
class HITHandle(Protocol):
    """Handle to one published HIT: peek, pull, or cancel its submissions.

    ``peek_time`` must be free of side effects (no charge, no consumption);
    ``next_submission`` collects — and charges for — exactly one assignment;
    ``cancel`` forfeits whatever was not collected yet.

    ``peek_time() is None`` with ``done`` False means *nothing pending yet*
    (a live backend waiting on its first worker); the pump parks such
    handles and re-polls them.  Pre-generated handles like the simulator's
    always have a head until drained or cancelled.

    ``cancel`` must flip ``done`` to True before returning — the scheduler
    treats a cancelled handle as finished immediately.  A live backend
    whose platform-side cancellation is asynchronous should still report
    ``done`` locally and discard (not deliver) any in-transit submissions.

    Handles *may* additionally implement ``next_arrival_eta() -> float |
    None`` — wall-clock seconds until the next submission can be
    collected (``0.0`` = pending now, ``None`` = unknown or nothing
    further coming).  It must be side-effect-free, like ``peek_time``.
    It is deliberately not a required protocol member (existing handle
    implementations stay valid); use :func:`arrival_eta` to probe it.
    """

    @property
    def hit(self) -> HIT: ...

    @property
    def outstanding(self) -> int: ...

    @property
    def done(self) -> bool: ...

    def peek_time(self) -> float | None: ...

    def next_submission(self) -> Assignment | None: ...

    def cancel(self) -> int: ...

    def worker_profile(self, worker_id: str) -> WorkerProfile: ...


@runtime_checkable
class MarketBackend(Protocol):
    """What the engine requires of a crowdsourcing platform.

    Implementations own worker recruitment, answer generation (or real
    collection), latency, and pricing; the engine only publishes HITs and
    consumes the resulting handles and ledger.

    Backends may additionally implement ``next_arrival_eta() -> float |
    None`` across all their published HITs (same contract as the handle
    method, see :class:`HITHandle`); like there, it is optional so
    existing backends remain valid — probe with :func:`arrival_eta`.
    A backend that keeps its handles may implement ``forget(hit_ids)``,
    which a service calls with a released query's done HITs.
    """

    ledger: CostLedger

    def publish(self, hit: HIT) -> HITHandle: ...


def arrival_eta(source: object) -> float | None:
    """Probe a handle or backend for its next-arrival ETA, leniently.

    Returns ``source.next_arrival_eta()`` clamped to ``>= 0`` when the
    method exists, ``None`` (unknown — callers must poll, not sleep
    unboundedly) when it does not.
    """
    probe = getattr(source, "next_arrival_eta", None)
    if probe is None:
        return None
    eta = probe()
    if eta is None:
        return None
    return max(0.0, eta)


class EventPump:
    """Merge many in-flight HIT handles into one arrival-ordered event stream.

    Handles are registered with :meth:`add` (at any point — the scheduler
    publishes new HITs while earlier ones are still collecting) together
    with their simulated publication time; an assignment's global arrival
    time is ``published_at + submit_time``.  :meth:`next_event` pops the
    globally earliest pending submission across every live handle.

    A min-heap keyed by ``(arrival time, publication order)`` keeps each pop
    ``O(log h)`` in the number of in-flight handles.  Heap entries are
    per-handle *heads*, refreshed after each pop; entries of cancelled or
    drained handles are dropped lazily when they surface.

    Dormant handles sit in a second heap keyed by the wall-clock time
    their declared ``next_arrival_eta`` elapses, so a pop touches only
    the dormant handles that are actually due instead of re-polling all
    of them — with thousands of in-flight HITs each pop stays amortized
    ``O(log n)``.  Handles that cannot declare an ETA keep wake time
    ``-inf`` (probed every sweep, as before), and whenever the event
    heap runs dry or an ETA is requested the whole dormant set is probed
    regardless of wake times, so backends on a different clock (tests
    inject fake ones) are still picked up promptly.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._order = 0
        self._clock = clock
        # (global arrival time of the handle's head, publication order,
        #  handle, published_at)
        self._heap: list[tuple[float, int, HITHandle, float]] = []
        # Live handles with nothing pending *yet* (a live backend before its
        # first worker submits), keyed by earliest wall-clock re-poll time.
        self._dormant: list[tuple[float, int, HITHandle, float]] = []
        self._sequence = 0

    def add(self, handle: HITHandle, published_at: float = 0.0) -> None:
        """Register a handle published at simulated time ``published_at``."""
        order = self._order
        self._order += 1
        self._push(handle, published_at, order)

    def _push(self, handle: HITHandle, published_at: float, order: int) -> None:
        head = handle.peek_time()
        if head is not None:
            heapq.heappush(self._heap, (published_at + head, order, handle, published_at))
        elif not handle.done:
            self._park(handle, published_at, order)

    def _park(self, handle: HITHandle, published_at: float, order: int) -> None:
        """Queue a dormant handle until its declared ETA elapses."""
        eta = self._quiet_arrival_eta(handle)
        wake = self._clock() + eta if eta is not None else -math.inf
        heapq.heappush(self._dormant, (wake, order, handle, published_at))

    @staticmethod
    def _quiet_arrival_eta(handle: HITHandle) -> float | None:
        """ETA probe for internal bookkeeping: unknown on error.

        A replay backend's probe may *raise* to diagnose a stalled
        replay, but mid-pop that diagnosis is premature — the event
        being delivered may be the very one whose processing unstalls
        it.  Park such handles as unknown-ETA; a genuine stall still
        surfaces through the driver-facing :meth:`next_arrival_eta`,
        which probes directly.
        """
        try:
            return arrival_eta(handle)
        except Exception:
            return None

    def _poll_dormant(self, force: bool = False) -> None:
        """Move dormant handles that now have a pending head onto the heap.

        Probes only the handles whose wake time has passed; ``force``
        probes every dormant handle (used when the event heap is empty
        and by :meth:`next_arrival_eta`, where staleness would translate
        into a wrong wait instead of a merely deferred promotion).
        """
        if not self._dormant:
            return
        now = self._clock()
        if force:
            due = self._dormant
            self._dormant = []
        else:
            if self._dormant[0][0] > now:
                return
            due = []
            while self._dormant and self._dormant[0][0] <= now:
                due.append(heapq.heappop(self._dormant))
        reparked: list[tuple[float, int, HITHandle, float]] = []
        for _wake, order, handle, published_at in due:
            if handle.done:
                continue
            head = handle.peek_time()
            if head is not None:
                heapq.heappush(
                    self._heap, (published_at + head, order, handle, published_at)
                )
                continue
            eta = self._quiet_arrival_eta(handle)
            reparked.append(
                (now + eta if eta is not None else -math.inf, order, handle, published_at)
            )
        for entry in reparked:
            heapq.heappush(self._dormant, entry)

    @property
    def pending(self) -> bool:
        """Whether any registered handle still has submissions to deliver
        (or is live but dormant — nothing pending *yet*)."""
        return any(
            not handle.done for _, _, handle, _ in self._heap
        ) or any(not handle.done for _, _, handle, _ in self._dormant)

    def next_arrival_eta(self) -> float | None:
        """Wall-clock seconds until :meth:`next_event` could deliver.

        Side-effect-free with respect to the handles (only ``peek_time``
        and their optional ``next_arrival_eta`` are consulted — nothing
        is collected or charged).  Returns ``0.0`` when an event is
        poppable right now, the minimum of the dormant handles' declared
        ETAs when every live handle is waiting on a future arrival, and
        ``None`` when nothing further is coming *or* no waiting handle
        can say (drivers must then poll rather than sleep unboundedly —
        the dormant-handle re-polling in :meth:`next_event` covers them).
        """
        self._poll_dormant(force=True)
        if self._heap:
            # Fast path: the earliest entry's head is still valid — an
            # event is poppable right now, no need to peek the rest.
            head_time, _, head_handle, head_published = self._heap[0]
            head = head_handle.peek_time()
            if head is not None and head_published + head == head_time:
                return 0.0
        best: float | None = None
        for _, _, handle, _ in self._heap:
            if handle.peek_time() is not None:
                return 0.0
            if not handle.done:
                # Stale entry of a live handle (advanced externally):
                # treat it like a dormant one for ETA purposes.
                eta = arrival_eta(handle)
                if eta is not None and (best is None or eta < best):
                    best = eta
        for _, _, handle, _ in self._dormant:
            if handle.done:
                continue
            eta = arrival_eta(handle)
            if eta is not None and (best is None or eta < best):
                best = eta
        return best

    def next_event(self) -> SubmissionEvent | None:
        """Collect the globally earliest pending submission.

        ``None`` means nothing is pending *right now*: every registered
        handle is drained, cancelled, or dormant (live with no submission
        yet — check :attr:`pending` to distinguish; a synchronous caller
        would poll or sleep, the planned asyncio pump awaits).
        """
        self._poll_dormant(force=not self._heap)
        while self._heap:
            arrival, order, handle, published_at = heapq.heappop(self._heap)
            head = handle.peek_time()
            if head is None:
                # Cancelled or drained since queued — or live with nothing
                # pending anymore (its head was pulled externally): park
                # live handles for re-polling instead of evicting them.
                if not handle.done:
                    self._park(handle, published_at, order)
                continue
            if published_at + head != arrival:
                # The handle was advanced outside the pump (e.g. a direct
                # ``next_submission`` call); re-queue its current head.
                self._push(handle, published_at, order)
                continue
            assignment = handle.next_submission()
            assert assignment is not None  # peek said one was pending
            self._push(handle, published_at, order)
            event = SubmissionEvent(
                hit_id=handle.hit.hit_id,
                assignment=assignment,
                time=arrival,
                sequence=self._sequence,
            )
            self._sequence += 1
            return event
        return None

    def drain(self) -> Iterator[SubmissionEvent]:
        """Iterate events until every registered handle is exhausted."""
        while (event := self.next_event()) is not None:
            yield event
