"""Event-driven HIT scheduling: many in-flight sessions, one arrival stream.

:class:`HITScheduler` is the pump at the heart of the refactored engine
(DESIGN.md §3).  It keeps up to ``max_in_flight`` :class:`HITSession`\\ s
published at once, merges their submission streams through an
:class:`~repro.amt.backend.EventPump`, and steps each session with its own
events in *global* arrival order — so a submission to HIT B lands between
two submissions to HIT A exactly as it would on the live platform, and
gold evidence from any in-flight HIT sharpens the shared accuracy
estimator for all of them.

Work arrives two ways:

* :meth:`submit` — enqueue one batch eagerly and get its session back;
* :meth:`add_source` — hand over a *lazy* iterable of :class:`BatchSpec`\\ s;
  the scheduler materialises the next spec only when a publish slot frees
  up, which is how the program executor streams an unbounded filtered feed
  without building every batch up front.

Everything is deterministic for fixed seeds: sessions publish in
submission order, the merged stream is a pure function of the market seeds
and publish times, and the scheduler's simulated clock advances only on
popped events.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.amt.backend import EventPump, SubmissionEvent
from repro.amt.hit import Question
from repro.engine.engine import HITRunResult
from repro.engine.session import HITSession

if TYPE_CHECKING:
    from repro.engine.engine import CrowdsourcingEngine

__all__ = [
    "BatchSpec",
    "BatchSink",
    "SessionGroup",
    "HITScheduler",
    "specs_from_batches",
    "sleep_until_arrival",
    "MIN_ARRIVAL_SLEEP",
]

#: Floor for dormant waits whose declared ETA is zero — the unlock raced
#: a peek; waiting a hair and retrying keeps the caller from busy-spinning.
MIN_ARRIVAL_SLEEP = 1e-4


def sleep_until_arrival(eta: float) -> None:
    """Block until a dormant backend's next declared arrival unlocks.

    The one blocking primitive the sync surfaces share (the async driver
    awaits the same quantity instead); ``eta`` may be zero or negative
    (deadline-clamped), in which case the floor applies.
    """
    time.sleep(eta if eta > 0 else MIN_ARRIVAL_SLEEP)


@dataclass(frozen=True)
class BatchSpec:
    """A not-yet-published batch: the arguments of one ``run_batch`` call."""

    real_questions: tuple[Question, ...]
    required_accuracy: float
    gold_pool: tuple[Question, ...] = ()
    worker_count: int | None = None


def specs_from_batches(
    batches: Iterable[Sequence[Question]],
    required_accuracy: float,
    gold_pool: Sequence[Question] = (),
    worker_count: int | None = None,
) -> Iterator[BatchSpec]:
    """Wrap question batches in :class:`BatchSpec`\\ s, one lazily per batch.

    The single construction site behind every sink's ``add_batches`` —
    scheduler and service paths must build identical specs.
    """
    gold = tuple(gold_pool)
    for batch in batches:
        yield BatchSpec(
            real_questions=tuple(batch),
            required_accuracy=required_accuracy,
            gold_pool=gold,
            worker_count=worker_count,
        )


@runtime_checkable
class BatchSink(Protocol):
    """Anything that accepts lazy batch sources and yields session groups.

    This is the surface job submitters actually consume: the scheduler
    itself satisfies it (batches run directly), and so does the service
    layer's :class:`~repro.engine.service.QueryIntake` (batches are routed
    through admission control before reaching a scheduler).  Submitters
    written against this protocol work on both paths unchanged.
    """

    def add_source(self, specs: Iterable[BatchSpec]) -> "SessionGroup": ...

    def add_batches(
        self,
        batches: Iterable[Sequence[Question]],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
    ) -> "SessionGroup": ...


class SessionGroup:
    """The sessions spawned for one logical unit of work (e.g. one query).

    ``add_source`` returns a group; after :meth:`HITScheduler.run` the
    group's :attr:`results` hold the per-HIT outcomes in spawn order, which
    is how a job assembles its query-level report from a shared scheduler.
    """

    def __init__(self) -> None:
        self.sessions: list[HITSession] = []

    @property
    def results(self) -> tuple[HITRunResult, ...]:
        """Per-HIT results in spawn order (raises if any session is unrun)."""
        out = []
        for session in self.sessions:
            if session.result is None:
                raise ValueError(
                    f"session {session.state.value!r} has no result yet — "
                    "run the scheduler first"
                )
            out.append(session.result)
        return tuple(out)


class HITScheduler:
    """Pump submissions across many concurrent HIT sessions.

    Parameters
    ----------
    engine:
        The engine whose policy and estimator every session shares.
    max_in_flight:
        Publish-slot budget: how many HITs may collect concurrently.  ``1``
        reproduces the historical serial engine exactly; the default keeps
        four HITs in flight.
    track_trajectories:
        Forwarded to every spawned session (live Algorithm-5 trajectories).
    on_event:
        Optional observer called with ``(event, session)`` after each
        submission is applied — dashboards and tests use it to watch the
        interleaving without disturbing it.
    """

    def __init__(
        self,
        engine: "CrowdsourcingEngine",
        max_in_flight: int = 4,
        track_trajectories: bool = False,
        on_event: Callable[[SubmissionEvent, HITSession], None] | None = None,
    ) -> None:
        if max_in_flight <= 0:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.engine = engine
        self.max_in_flight = max_in_flight
        self._track = track_trajectories
        self._on_event = on_event
        self._pump = EventPump()
        self._pending: deque[HITSession] = deque()
        self._sources: deque[tuple[Iterator[BatchSpec], SessionGroup]] = deque()
        self._in_flight: dict[str, HITSession] = {}
        #: Every session spawned and not forgotten, in spawn order (a dict
        #: used as an ordered set): what :meth:`run` and :attr:`sessions`
        #: read.
        self._all: dict[HITSession, None] = {}
        #: Simulated time of the last processed event — new HITs publish "now".
        self.clock = 0.0
        #: High-water mark of concurrently collecting HITs.
        self.peak_in_flight = 0
        #: Total submissions processed across all sessions.
        self.events_processed = 0

    # -- enqueueing ----------------------------------------------------------

    def submit(
        self,
        real_questions: Sequence[Question],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
    ) -> HITSession:
        """Enqueue one batch; returns its (not yet published) session."""
        spec = BatchSpec(
            real_questions=tuple(real_questions),
            required_accuracy=required_accuracy,
            gold_pool=tuple(gold_pool),
            worker_count=worker_count,
        )
        session = self._spawn(spec, group=None)
        self._pending.append(session)
        return session

    def add_source(self, specs: Iterable[BatchSpec]) -> SessionGroup:
        """Enqueue a lazy batch source; specs are drawn as slots free up.

        Publish slots rotate round-robin across registered sources (after
        any eagerly submitted sessions, which drain first), so several
        queries sharing one scheduler genuinely interleave instead of the
        first source monopolising every slot until it runs dry.  Returns
        the :class:`SessionGroup` collecting the spawned sessions.
        """
        group = SessionGroup()
        self._sources.append((iter(specs), group))
        return group

    def add_batches(
        self,
        batches: Iterable[Sequence[Question]],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
    ) -> SessionGroup:
        """Lazy convenience over :meth:`add_source`: one spec per batch.

        ``batches`` may be any (possibly unbounded) iterable of question
        batches sharing one accuracy target and gold pool; each is wrapped
        in a :class:`BatchSpec` only when a publish slot frees up.
        """
        return self.add_source(
            specs_from_batches(
                batches, required_accuracy, gold_pool, worker_count
            )
        )

    def add_event_observer(
        self, observer: Callable[[SubmissionEvent, HITSession], None]
    ) -> None:
        """Chain another ``(event, session)`` observer after any existing
        one.  Observation order is registration order; observers must not
        mutate scheduler state (same contract as ``on_event``)."""
        previous = self._on_event
        if previous is None:
            self._on_event = observer
            return

        def chained(
            event: SubmissionEvent,
            session: HITSession,
            _prev: Callable[[SubmissionEvent, HITSession], None] = previous,
            _next: Callable[[SubmissionEvent, HITSession], None] = observer,
        ) -> None:
            _prev(event, session)
            _next(event, session)

        self._on_event = chained

    # -- the pump ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """How many HITs are currently collecting."""
        return len(self._in_flight)

    @property
    def pending_count(self) -> int:
        """Eagerly submitted sessions waiting for a publish slot."""
        return len(self._pending)

    def withdraw(self, session: HITSession) -> bool:
        """Remove a not-yet-published session from the queue.

        Returns ``True`` when the session was still pending (it is dropped
        entirely — never published, never charged); ``False`` when it was
        already published, in which case the caller should cancel its
        handle instead.
        """
        try:
            self._pending.remove(session)
        except ValueError:
            return False
        del self._all[session]
        return True

    def forget(self, sessions: Iterable[HITSession]) -> None:
        """Stop listing sealed sessions in :attr:`sessions`.

        The service calls this for a query that turned terminal: nothing
        reads its sessions through the scheduler, and holding them here
        would keep every finished query's sessions alive.
        """
        for session in sessions:
            self._all.pop(session, None)

    def __setstate__(self, state: dict[str, Any]) -> None:
        # A scheduler pickled while ``_all`` was a list loads as the
        # ordered set.
        if isinstance(state["_all"], list):
            state["_all"] = dict.fromkeys(state["_all"])
        self.__dict__.update(state)

    def reap(self) -> int:
        """Seal in-flight sessions whose handles finished out-of-band.

        The pump does this on every :meth:`step`; callers that cancel
        handles directly (the service layer's ``QueryHandle.cancel``) call
        this to release the publish slots immediately instead of waiting
        for the next step.  Returns how many sessions were sealed.
        """
        return self._seal_finished()

    @property
    def sessions(self) -> tuple[HITSession, ...]:
        """Every session this scheduler has spawned, in submission order."""
        return tuple(self._all)

    def _spawn(self, spec: BatchSpec, group: SessionGroup | None) -> HITSession:
        """Create (but do not publish) one session — the single construction
        site for both eager submissions and source-drawn specs."""
        session = HITSession(
            self.engine,
            spec.real_questions,
            spec.required_accuracy,
            gold_pool=spec.gold_pool,
            worker_count=spec.worker_count,
            track_trajectories=self._track,
        )
        if group is not None:
            group.sessions.append(session)
        self._all[session] = None
        return session

    def _next_session(self) -> HITSession | None:
        """The next session to publish: eager queue first, then lazy
        sources in round-robin order."""
        if self._pending:
            return self._pending.popleft()
        while self._sources:
            specs, group = self._sources[0]
            spec = next(specs, None)
            if spec is None:
                self._sources.popleft()
                continue
            # Round-robin: the next pull comes from the next source.
            self._sources.rotate(-1)
            return self._spawn(spec, group)
        return None

    def _fill(self) -> None:
        """Publish queued sessions until slots or work run out.

        One session at a time: take the next session, publish it through
        the market's ``publish``, then register its handle in the flight
        table and the pump before the next session is drawn.  A publish
        that raises therefore loses only its own session; every HIT
        already live in the market is being collected, and sessions not
        yet reached stay queued.
        """
        while len(self._in_flight) < self.max_in_flight:
            session = self._next_session()
            if session is None:
                return
            handle = session.publish()
            self._in_flight[handle.hit.hit_id] = session
            self._pump.add(handle, published_at=self.clock)
            self.peak_in_flight = max(self.peak_in_flight, len(self._in_flight))

    def _seal_finished(self) -> int:
        """Retire in-flight sessions whose handles finished without a final
        event (live-backend HIT expiry or external cancellation); their
        collected votes are verified as-is.  Returns how many were sealed."""
        finished = [
            hit_id
            for hit_id, session in self._in_flight.items()
            if session.handle is not None and session.handle.done
        ]
        for hit_id in finished:
            self._in_flight.pop(hit_id).seal()
        return len(finished)

    def next_arrival_eta(self) -> float | None:
        """Wall-clock seconds until the merged stream could deliver.

        Delegates to :meth:`EventPump.next_arrival_eta` (side-effect-free
        — derived from the handles' free ``peek_time`` / optional
        ``next_arrival_eta``): ``0.0`` when an event is poppable now, a
        positive wait when every in-flight handle is dormant but declares
        when its next submission unlocks, ``None`` when nothing further
        is coming or no dormant handle can say.
        """
        return self._pump.next_arrival_eta()

    @property
    def waiting(self) -> bool:
        """HITs are in flight but nothing is deliverable *right now*.

        Meaningful immediately after :meth:`try_step` returns ``None``:
        distinguishes "dormant — wait for :meth:`next_arrival_eta`" from
        "drained — no work remains".  Always False on pre-generated
        backends like the simulator.
        """
        return bool(self._in_flight) and self._pump.next_arrival_eta() != 0.0

    def try_step(self) -> SubmissionEvent | None:
        """One *non-blocking* pump iteration: publish up to capacity, then
        process at most one submission event.

        Returns the processed event, or ``None`` when nothing is
        deliverable right now — either the scheduler is drained (no work
        remains) or every in-flight handle is dormant, waiting on a
        future arrival (:attr:`waiting`; sleep for
        :meth:`next_arrival_eta` and retry).  Never sleeps and never
        raises on dormancy: this is the sans-IO core the async driver
        (``repro.engine.aio``) pumps, owning all waiting itself.
        """
        while True:
            # Seal before filling so an externally-finished handle releases
            # its slot immediately instead of occupying it until the pump
            # next runs dry.
            self._seal_finished()
            self._fill()
            if not self._in_flight:
                return None
            event = self._pump.next_event()
            if event is not None:
                break
            if not self._seal_finished():
                # Every in-flight handle is dormant (live, nothing pending
                # yet): the caller decides how to wait.
                return None
        self.clock = max(self.clock, event.time)
        self.events_processed += 1
        session = self._in_flight[event.hit_id]
        session.on_submission(event.assignment)
        if self._on_event is not None:
            self._on_event(event, session)
        if session.done:
            del self._in_flight[event.hit_id]
        return event

    def step(self) -> SubmissionEvent | None:
        """Blocking :meth:`try_step`: sleeps through dormant spells.

        Identical to :meth:`try_step` on pre-generated backends (which
        are never dormant — bit-for-bit the historical behaviour).  When
        every in-flight handle is waiting on a future arrival, sleeps
        until :meth:`next_arrival_eta` says the next submission unlocks,
        then retries; raises when the backend cannot say how long to wait
        (a polling loop would spin — use the async driver or a backend
        with an ETA).
        """
        while True:
            event = self.try_step()
            if event is not None or not self._in_flight:
                return event
            eta = self.next_arrival_eta()
            if eta is None:
                raise RuntimeError(
                    f"{len(self._in_flight)} HITs in flight but nothing "
                    "pending yet and no arrival ETA; the synchronous "
                    "scheduler needs handles with pre-generated, blocking "
                    "or ETA-declaring submissions"
                )
            sleep_until_arrival(eta)

    def run(self) -> list[HITRunResult]:
        """Pump until every queued and sourced session completes.

        Returns the per-HIT results in submission order (the order
        :attr:`sessions` reports, not completion order).
        """
        while self.step() is not None:
            pass
        unfinished = sum(1 for session in self._all if session.result is None)
        if unfinished:  # cannot happen after a clean pump; never mask it
            raise RuntimeError(f"{unfinished} sessions finished without a result")
        return [session.result for session in self._all]
