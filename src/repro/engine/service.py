"""Handle-based query lifecycle on a long-lived scheduler service.

The paper frames a CDAS query (Definition 1) as a *standing* analytics job:
users deploy it, then observe progress while the crowd works.  The blocking
``CDAS.submit`` cannot serve that shape — it occupies the caller until the
last verdict lands — so this module turns submission inside out:

* :class:`SchedulerService` wraps one shared
  :class:`~repro.engine.scheduler.HITScheduler` and stays alive across
  queries.  ``submit`` validates and plans eagerly (bad requests fail
  before anything is published) but returns immediately with a
  :class:`QueryHandle`; the service pumps all admitted queries' HITs on one
  merged arrival stream via :meth:`step` / :meth:`run_until_idle`, and new
  queries may be submitted *while it runs*.
* :class:`QueryHandle` exposes the query lifecycle
  (``QUEUED → ADMITTED → RUNNING → DONE | CANCELLED | FAILED``), live
  :meth:`~QueryHandle.progress` (items answered, a confidence-based
  accuracy estimate from the sessions' online aggregators, per-query spend
  from the market ledger), blocking :meth:`~QueryHandle.result`, and
  :meth:`~QueryHandle.cancel` — unpublished batches are dropped, in-flight
  HITs are cancelled through the backend, and nothing further is charged.
* :class:`AdmissionController` sits between handles and the scheduler:
  per-tenant budget caps (admission is refused once a tenant's spend
  reaches its cap) and weighted-priority allocation of the scheduler's
  ``max_in_flight`` publish slots via two-level stride scheduling, so
  contending tenants get service proportional to priority instead of FIFO.
  With a single tenant and equal priorities the grant order degenerates to
  the scheduler's historical round-robin, which is what keeps the blocking
  ``CDAS.submit`` / ``submit_many`` wrappers bit-for-bit identical to the
  pre-service engine.
* The **plan-first lifecycle** (DESIGN.md §10) sits in front of all of
  it: :meth:`SchedulerService.plan` projects a request into an immutable
  EXPLAIN-style :class:`~repro.engine.planner.QueryPlan` (the §3.1 cost
  model, per window for standing queries) without touching anything;
  ``submit(plan=...)`` *reserves* the projection against the tenant's
  remaining budget — refusing infeasible plans with a structured
  :class:`~repro.engine.planner.PlanInfeasible` counter-offer before any
  market spend — and the reservation settles to actual spend on
  completion or cancel.  Plan-less ``submit`` never reserves, keeping
  the reactive path bit-for-bit intact.

The service is single-threaded, cooperative and **sans-IO**: ``step()``
performs one non-blocking pump iteration (admission, slot grants, one
submission event) and never sleeps, so a caller interleaves submissions,
progress reads and cancellations between steps.  When every in-flight HIT
is dormant (a slow/live backend whose next submission has not arrived
yet), ``step()`` returns False while :meth:`SchedulerService.waiting` is
True and :meth:`SchedulerService.next_arrival_eta` says how long until
the next arrival unlocks — the blocking surfaces (``result``,
``run_until_idle``) sleep exactly that long, and the asyncio front door
(``repro.engine.aio``, DESIGN.md §8) awaits it instead.
"""

from __future__ import annotations

import time
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any

from repro.amt.backend import SubmissionEvent
from repro.amt.hit import Question
from repro.engine.jobs import ProcessingPlan
from repro.engine.planner import (
    COST_EPSILON,
    JobProjector,
    PlanDecision,
    PlanInfeasible,
    QueryPlan,
    build_query_plan,
    make_counter_offer,
)
from repro.engine.query import Query
from repro.engine.scheduler import (
    BatchSpec,
    HITScheduler,
    SessionGroup,
    sleep_until_arrival,
    specs_from_batches,
)
from repro.engine.session import HITSession, SessionState

if TYPE_CHECKING:
    from repro.engine.engine import CrowdsourcingEngine, HITRunResult

__all__ = [
    "QueryState",
    "QueryProgress",
    "QueryHandle",
    "TenantPolicy",
    "AdmissionRejected",
    "QueryCancelled",
    "QueryIntake",
    "AdmissionController",
    "SchedulerService",
    # Re-exported from repro.engine.planner for the service's callers.
    "QueryPlan",
    "PlanDecision",
    "PlanInfeasible",
]

#: A submitter enqueues a plan's batches on a sink and returns a finalizer
#: (same shape as :data:`repro.system.JobSubmitter`, duplicated here to
#: avoid a circular import with the facade).
Submitter = Callable[..., Callable[[], Any]]


class QueryState(Enum):
    """Lifecycle of a submitted query (monotone, left to right)."""

    QUEUED = "queued"  # planned + validated, waiting for admission
    ADMITTED = "admitted"  # eligible for publish slots, none granted yet
    RUNNING = "running"  # at least one batch handed to the scheduler
    DONE = "done"  # every batch verified, result assembled
    CANCELLED = "cancelled"  # caller cancelled; no further charges
    FAILED = "failed"  # admission starved or finalization raised


#: States from which a query never moves again.  A tuple, not a set: its
#: ``in`` tests compare members by identity, without ``Enum.__hash__``.
TERMINAL_STATES = (QueryState.DONE, QueryState.CANCELLED, QueryState.FAILED)

#: States that draw publish slots and can complete.  Bound once: looking
#: a member up on the enum class costs more than the test itself.
_ACTIVE_STATES = (QueryState.ADMITTED, QueryState.RUNNING)


class AdmissionRejected(RuntimeError):
    """A tenant's budget cap refuses this submission (or starves it)."""


class QueryCancelled(RuntimeError):
    """``result()`` was asked for a query that was cancelled."""


@dataclass(frozen=True, slots=True)
class TenantPolicy:
    """Admission policy for one tenant.

    Attributes
    ----------
    name:
        Tenant key; queries are submitted under it.
    budget_cap:
        Ceiling on the tenant's cumulative market spend across all its
        queries, or ``None`` for uncapped.  Once spend reaches the cap, new
        submissions are rejected and running queries stop receiving publish
        slots (their in-flight HITs finish; unpublished batches drop).
    priority:
        Stride-scheduling weight: slots are granted proportionally to it
        when tenants contend.
    """

    name: str
    budget_cap: float | None = None
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.priority <= 0:
            raise ValueError(f"priority must be positive, got {self.priority}")
        if self.budget_cap is not None and self.budget_cap < 0:
            raise ValueError(f"budget cap must be ≥ 0, got {self.budget_cap}")


@dataclass(frozen=True, slots=True)
class QueryProgress:
    """One observation of a handle's progress (all counters monotone).

    Attributes
    ----------
    state:
        The query's lifecycle state at observation time.
    items_answered:
        Real questions with at least one collected worker vote.
    items_finalized:
        Real questions whose HIT completed and verdict is sealed.
    hits_completed / hits_in_flight:
        The query's sessions by phase.
    accuracy_estimate:
        Mean best-answer confidence over every question with data — live
        online-aggregator confidences for collecting HITs, verified verdict
        confidences for sealed ones; ``None`` before any answer arrives.
    spend:
        Market dollars attributed to this query's HITs by the ledger.
    budget_exhausted:
        Whether a budget limit stopped the query short of its full batch
        list (remaining batches were dropped).
    """

    state: QueryState
    items_answered: int
    items_finalized: int
    hits_completed: int
    hits_in_flight: int
    accuracy_estimate: float | None
    spend: float
    budget_exhausted: bool

    def to_dict(self) -> dict[str, Any]:
        """The snapshot as plain JSON-able data.

        The one projection shared by every serialising surface — the
        scenario outcome summaries (whose digests golden traces pin),
        the CLI progress tables, and the HTTP gateway codec — so the
        field set and float presentation cannot drift between them.
        Floats are rounded to 6 places: cosmetic (every consumer
        compares values produced by identical arithmetic), it only
        keeps the JSON compact and stable.
        """
        return {
            "state": self.state.value,
            "items_answered": self.items_answered,
            "items_finalized": self.items_finalized,
            "hits_completed": self.hits_completed,
            "hits_in_flight": self.hits_in_flight,
            "accuracy_estimate": (
                None
                if self.accuracy_estimate is None
                else round(self.accuracy_estimate, 6)
            ),
            "spend": round(self.spend, 6),
            "budget_exhausted": self.budget_exhausted,
        }


class _PlainSource:
    """One lazy run of batch specs, optionally carrying a reservation.

    ``reserve_cost`` is the projected spend of this source's batches
    (set by window-aware submitters) — a float, or a zero-argument
    callable evaluated only if a reservation is actually needed, so
    plan-less (``reserve=False``) queries never pay for pricing they
    ignore.  A plan-reserved query must reserve it against its tenant's
    budget before the source's first batch is granted a publish slot.
    """

    __slots__ = ("specs", "group", "reserve_cost", "reserved")

    def __init__(
        self,
        specs: Iterator[BatchSpec],
        group: SessionGroup,
        reserve_cost: float | Callable[[], float] | None = None,
    ) -> None:
        self.specs = specs
        self.group = group
        self.reserve_cost = reserve_cost
        self.reserved = False


class _WindowStream:
    """A lazy stream of ``(projected cost, specs)`` windows.

    Standing queries register one of these: each pulled window becomes a
    :class:`_PlainSource` carrying its projected cost, which is where
    per-window re-reservation hooks in.
    """

    __slots__ = ("windows", "group")

    def __init__(
        self,
        windows: Iterator[tuple[float | Callable[[], float], Iterable[BatchSpec]]],
        group: SessionGroup,
    ) -> None:
        self.windows = windows
        self.group = group


class QueryIntake:
    """The :class:`~repro.engine.scheduler.BatchSink` submitters fill.

    Job submitters call ``add_batches`` / ``add_source`` exactly as they
    would on a raw scheduler; here the lazy spec sources are only
    *recorded*, and the service materialises and publishes them one at a
    time as the admission controller grants slots.  Window-aware
    submitters (standing queries) use :meth:`add_window_source` so each
    window's projected cost can be re-reserved before it publishes.
    """

    def __init__(self) -> None:
        self.sources: deque[_PlainSource | _WindowStream] = deque()

    def add_source(self, specs: Iterable[BatchSpec]) -> SessionGroup:
        group = SessionGroup()
        self.sources.append(_PlainSource(iter(specs), group))
        return group

    def add_window_source(
        self,
        windows: Iterable[tuple[float | Callable[[], float], Iterable[BatchSpec]]],
    ) -> SessionGroup:
        """Register a lazy stream of costed windows under one group.

        Each window's cost may be a float or a zero-argument callable
        (priced only if a reservation is actually needed).  Submitters
        detect this method by duck typing: a raw scheduler sink does not
        offer it, so the same submitter degrades to :meth:`add_source`
        (no admission layer there to reserve against).
        """
        group = SessionGroup()
        self.sources.append(_WindowStream(iter(windows), group))
        return group

    def add_batches(
        self,
        batches: Iterable[Sequence[Question]],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
    ) -> SessionGroup:
        return self.add_source(
            specs_from_batches(
                batches, required_accuracy, gold_pool, worker_count
            )
        )


def _verdict_confidences(result: HITRunResult) -> list[float]:
    """A sealed session's verdict confidences, in record order."""
    return [
        record.verdict.confidence
        for record in result.records
        if record.verdict.confidence is not None
    ]


class _SealedPrefix:
    """Progress and spend terms of a query's leading run of sealed sessions.

    A sealed session's votes and verdicts never change, and its handle is
    done, so the market charges its HIT nothing further.  Caching its
    terms once lets every later poll walk only the sessions past
    :attr:`length` — a standing query accumulates hundreds of sealed
    windows.  Sessions are only ever removed while unpublished (cancel's
    withdraw), never from inside the prefix, so it is keyed by position
    and survives a snapshot's pickle round-trip.
    """

    def __init__(self) -> None:
        #: How many leading sessions the aggregate covers.
        self.length = 0
        #: ``ledger.cost_of`` per covered session, in session order.
        self.costs: list[float] = []
        #: Their verdict confidences, in session then record order.
        self.confidences: list[float] = []
        self.answered = 0
        self.finalized = 0


class _QueryRecord:
    """Service-internal state of one submitted query."""

    def __init__(
        self,
        seq: int,
        job_name: str,
        plan: ProcessingPlan,
        tenant: TenantPolicy,
        priority: float,
        budget: float | None,
        sources: deque[_PlainSource | _WindowStream],
        finalize: Callable[[], Any],
        query_plan: QueryPlan | None = None,
        reserve: bool = False,
    ) -> None:
        self.seq = seq
        self.job_name = job_name
        self.plan = plan
        self.tenant = tenant
        self.priority = priority
        self.budget = budget
        self.sources = sources
        self.groups = [entry.group for entry in sources]
        self.finalize = finalize
        self.query_plan = query_plan
        #: Whether :attr:`query_plan` is the service's own projection
        #: (auto-planned or resolved from :attr:`plan_args`), not one the
        #: caller passed in: a terminal record swaps its own for a copy
        #: without job inputs.
        self.plan_owned = False
        #: Deferred auto-plan for plan-less submissions: the
        #: ``(job_name, query, plan kwargs)`` that :meth:`SchedulerService.plan`
        #: is called with, once, on the first ``QueryHandle.plan`` read
        #: (pure observability).  Data, not a closure over the service:
        #: the record must not point back at its owner.
        self.plan_args: tuple[str, Query, dict[str, Any]] | None = None
        #: Whether this query participates in reservation accounting
        #: (plan-path submissions).  Plan-less queries stay reactive.
        self.reserve = reserve
        #: Outstanding reservation (cumulative over granted windows);
        #: settled to actual spend when the record turns terminal.
        self.reserved = 0.0
        #: The plan-time estimate of the first window, replaced by the
        #: grant-time figure when its costed source is actually reserved.
        self.upfront_reservation = 0.0
        self.state = QueryState.QUEUED
        #: Grant order.  Emptied, with :attr:`groups`, :attr:`sources` and
        #: :attr:`finalize`, once the query is terminal (:meth:`release`).
        self.sessions: Sequence[HITSession] = []
        #: Windows materialised from window streams so far (standing
        #: queries); indexes the observer's ``on_window`` notifications.
        self.windows_pulled = 0
        #: The owning service's lifecycle observer (see
        #: :attr:`SchedulerService.observer`), mirrored here so batch
        #: materialisation and reservation events can be reported from
        #: the record itself.
        self.observer: Any = None
        self.result_value: Any = None
        self.error: BaseException | None = None
        self.budget_exhausted = False
        #: Stride-scheduling pass value within the tenant.
        self.pass_value = 0.0
        self._peeked: BatchSpec | None = None
        self._peeked_group: SessionGroup | None = None
        self._peeked_source: _PlainSource | None = None
        self._final_spend: float | None = None
        #: What the leading run of sealed sessions contributes to
        #: :meth:`spend` and :meth:`QueryHandle.progress`, extended
        #: lazily by :meth:`sealed_prefix`.
        self._sealed = _SealedPrefix()
        #: Index of the first session :meth:`work_done` has not seen
        #: sealed; every session before it is sealed for good.
        self._first_unsealed = 0

    def __setstate__(self, state: dict[str, Any]) -> None:
        # A snapshot written before the aggregate existed holds an
        # id-keyed cache instead; its records start the aggregate empty.
        # One written before the sealed cursor re-checks every session.
        state.pop("_sealed_progress", None)
        # One written while the deferred plan was a closure held it
        # stripped (``None``); the arguments are gone with it.
        state.pop("plan_thunk", None)
        state.setdefault("plan_args", None)
        state.setdefault("plan_owned", False)
        state.setdefault("_sealed", _SealedPrefix())
        state.setdefault("_first_unsealed", 0)
        self.__dict__.update(state)

    # -- batch source --------------------------------------------------------

    def peek_batch(self) -> BatchSpec | None:
        """Materialise (once) the next batch, or ``None`` when drained.

        Sources registered by one submitter drain sequentially; distinct
        *queries* interleave via the admission controller, which is where
        fairness belongs.  Window streams expand lazily: pulling the
        next window pushes a costed :class:`_PlainSource` in front of
        the stream, so its batches drain before the following window is
        even materialised.
        """
        while self._peeked is None and self.sources:
            entry = self.sources[0]
            if isinstance(entry, _WindowStream):
                window = next(entry.windows, None)
                if window is None:
                    self.sources.popleft()
                    continue
                cost, specs = window
                self.sources.appendleft(
                    _PlainSource(iter(specs), entry.group, reserve_cost=cost)
                )
                index = self.windows_pulled
                self.windows_pulled += 1
                if self.observer is not None:
                    self.observer.on_window(self, index)
                continue
            spec = next(entry.specs, None)
            if spec is None:
                self.sources.popleft()
                continue
            self._peeked = spec
            self._peeked_group = entry.group
            self._peeked_source = entry
        return self._peeked

    def take_batch(self) -> tuple[BatchSpec, SessionGroup]:
        spec, group = self._peeked, self._peeked_group
        assert spec is not None and group is not None
        self._peeked = self._peeked_group = self._peeked_source = None
        return spec, group

    def drop_remaining_batches(self) -> None:
        self.sources.clear()
        self._peeked = self._peeked_group = self._peeked_source = None

    # -- reservations --------------------------------------------------------

    def pending_reservation(self) -> float | None:
        """The peeked source's not-yet-reserved projected cost, if any.

        ``None`` for plan-less queries (reservation accounting off), for
        un-costed sources, and once the source's cost is reserved.
        Lazy costs are priced here — the first time a reservation is
        actually contemplated — and memoised on the source.
        """
        if not self.reserve:
            return None
        source = self._peeked_source
        if source is None or source.reserve_cost is None or source.reserved:
            return None
        if callable(source.reserve_cost):
            source.reserve_cost = float(source.reserve_cost())
        return source.reserve_cost

    def take_reservation(self, amount: float) -> None:
        """Reserve ``amount`` for the peeked source (replacing the
        plan-time upfront estimate the first time a grant-time figure
        arrives)."""
        assert self._peeked_source is not None
        self.reserved -= self.upfront_reservation
        self.upfront_reservation = 0.0
        self.reserved += amount
        self._peeked_source.reserved = True
        if self.observer is not None:
            self.observer.on_reserve(self, amount)

    def committed(self, ledger) -> float:
        """What this query pins of its tenant's budget right now.

        Active queries commit the larger of their outstanding
        reservation and their actual spend; terminal queries settle to
        actual spend alone — over-projection is refunded the moment the
        query completes or is cancelled.
        """
        spend = self.spend(ledger)
        if self.state in TERMINAL_STATES:
            return spend
        return max(self.reserved, spend)

    # -- observations --------------------------------------------------------

    def sealed_prefix(self, ledger) -> _SealedPrefix:
        """The aggregate of the leading run of sealed sessions, first
        extended over any sessions that sealed since the last call."""
        prefix = self._sealed
        sessions = self.sessions
        while prefix.length < len(sessions):
            session = sessions[prefix.length]
            result = session.result
            if result is None:
                break
            prefix.costs.append(ledger.cost_of(session.hit_id))
            prefix.confidences.extend(_verdict_confidences(result))
            prefix.answered += session.questions_answered
            prefix.finalized += len(result.records)
            prefix.length += 1
        return prefix

    def spend(self, ledger) -> float:
        """Market dollars charged to this query's published HITs.

        Memoised once terminal: nothing charges a DONE / CANCELLED /
        FAILED query again, and admission sums spend across every record a
        tenant ever ran on each grant — without the cache a long-lived
        service would re-walk the whole ledger history per slot.  Until
        then only the sessions past the sealed prefix are read from the
        ledger, but every cost term still goes, in session order, into
        one ``sum()`` (``0`` when nothing is published).
        """
        if self._final_spend is not None:
            return self._final_spend
        prefix = self.sealed_prefix(ledger)
        total = sum(
            prefix.costs
            + [
                ledger.cost_of(session.hit_id)
                for session in self.sessions[prefix.length:]
                if session.handle is not None
            ]
        )
        if self.state in TERMINAL_STATES:
            self._final_spend = total
        return total

    def release(self, ledger) -> Sequence[HITSession]:
        """Let go of what a terminal query's readers no longer use.

        Called once, when the query is terminal and every session it
        still lists has sealed.  The sealed-prefix aggregate is first
        extended over every session and the spend memoised, so
        :meth:`QueryHandle.progress` and :meth:`spend` go on reading the
        same values from the aggregate alone; then the sessions, their
        groups, the batch sources and the ``finalize`` closure are
        dropped.  A result that can ``seal()`` keeps its verdicts
        without their evidence, and the service's own plan its
        projection without the job inputs.  Returns the dropped
        sessions.
        """
        prefix = self.sealed_prefix(ledger)
        sessions = self.sessions
        assert prefix.length == len(sessions), "released an unsealed session"
        self.spend(ledger)
        self.sessions = self.groups = ()
        self.sources = ()
        self.finalize = None
        seal = getattr(self.result_value, "seal", None)
        if seal is not None:
            seal()
        self.drop_plan_inputs()
        return sessions

    def drop_plan_inputs(self) -> None:
        """Swap the service's own plan for a copy without job inputs.

        A copy, so that a plan a reader took from ``handle.plan`` earlier
        keeps its inputs.  A plan the caller passed in stays as given.
        """
        plan = self.query_plan
        if self.plan_owned and plan is not None and plan.job_inputs:
            self.query_plan = replace(plan, job_inputs={})

    @property
    def work_done(self) -> bool:
        """No batches left to publish and every granted session sealed.

        Sessions never un-seal and are only appended while the query
        runs, so the sealed run is tracked by a cursor that only moves
        forward: each call checks just the sessions past it.
        """
        if self.peek_batch() is not None:
            return False
        sessions = self.sessions
        index = self._first_unsealed
        while index < len(sessions) and sessions[index].done:
            index += 1
        self._first_unsealed = index
        return index == len(sessions)


class AdmissionController:
    """Per-tenant budget caps + weighted-priority slot allocation.

    Slot grants use two-level stride scheduling: tenants advance a pass
    value by ``1/priority`` per granted slot, and each tenant's queries do
    the same within the tenant.  Ties break by registration order, so equal
    priorities reproduce strict round-robin — the scheduler's historical
    multi-source behaviour, which the blocking facade wrappers rely on.

    ``allocation="fifo"`` disables the strides (earliest submitted
    grantable query always wins) and exists as the baseline the service
    throughput benchmark contrasts against.
    """

    def __init__(self, allocation: str = "weighted") -> None:
        if allocation not in ("weighted", "fifo"):
            raise ValueError(f"unknown allocation policy {allocation!r}")
        self.allocation = allocation
        self._tenants: dict[str, TenantPolicy] = {}
        self._tenant_pass: dict[str, float] = {}
        self._tenant_seq: dict[str, int] = {}
        self._records: dict[str, list[_QueryRecord]] = {}
        #: Each tenant's records not yet seen terminal, in seq order — the
        #: only ones a grant scan visits.
        self._live: dict[str, list[_QueryRecord]] = {}
        #: ``(tenant, query seq)`` per granted slot — benchmarks and tests
        #: read the interleaving from here.
        self.grant_log: list[tuple[str, int]] = []

    def __setstate__(self, state: dict[str, Any]) -> None:
        # A snapshot written before the live index existed rebuilds it.
        if "_live" not in state:
            state["_live"] = {
                name: [r for r in records if r.state not in TERMINAL_STATES]
                for name, records in state["_records"].items()
            }
        self.__dict__.update(state)

    # -- tenants -------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
    ) -> TenantPolicy:
        """Declare (or redeclare) a tenant's cap and priority."""
        policy = TenantPolicy(name=name, budget_cap=budget_cap, priority=priority)
        self._tenants[name] = policy
        self._tenant_seq.setdefault(name, len(self._tenant_seq))
        self._tenant_pass.setdefault(name, 0.0)
        self._records.setdefault(name, [])
        self._live.setdefault(name, [])
        return policy

    def tenant(self, name: str) -> TenantPolicy:
        """The named tenant, auto-registered with defaults on first use."""
        if name not in self._tenants:
            return self.register_tenant(name)
        return self._tenants[name]

    @property
    def tenants(self) -> tuple[TenantPolicy, ...]:
        return tuple(self._tenants.values())

    def records_of(self, name: str) -> tuple[_QueryRecord, ...]:
        return tuple(self._records.get(name, ()))

    # -- admission -----------------------------------------------------------

    def check_submit(self, policy: TenantPolicy, tenant_committed: float) -> None:
        """Refuse a new submission once the tenant's cap is committed.

        ``tenant_committed`` is actual spend plus outstanding
        reservations — without reservations (plan-less workloads) it
        degenerates to spend, the historical behaviour.
        """
        if policy.budget_cap is not None and tenant_committed >= policy.budget_cap:
            raise AdmissionRejected(
                f"tenant {policy.name!r} has committed ${tenant_committed:.4f} "
                f"of its ${policy.budget_cap:.4f} budget cap; submission refused"
            )

    def register(self, record: _QueryRecord) -> None:
        self.tenant(record.tenant.name)
        self._records[record.tenant.name].append(record)
        self._live[record.tenant.name].append(record)

    def tenant_headroom(self, policy: TenantPolicy, tenant_committed: float) -> bool:
        return policy.budget_cap is None or tenant_committed < policy.budget_cap

    def tenant_committed(self, name: str, ledger) -> float:
        """Actual spend plus outstanding reservations across the tenant's
        queries (settled queries contribute spend only)."""
        return sum(r.committed(ledger) for r in self._records.get(name, ()))

    def tenant_reserved(self, name: str, ledger) -> float:
        """Outstanding reservation headroom the tenant's active plans
        pin beyond their incurred spend."""
        return sum(
            max(0.0, r.committed(ledger) - r.spend(ledger))
            for r in self._records.get(name, ())
        )

    # -- slot allocation -----------------------------------------------------

    def _grantable(self, record: _QueryRecord, ledger) -> bool:
        """Budget-enforce then test whether ``record`` can take a slot.

        A query whose own budget is spent has its remaining batches dropped
        here (it completes with what it ran, flagged ``budget_exhausted``).
        Plan-reserved queries additionally re-reserve each costed window
        before its first batch can be granted; a window that no longer
        fits the tenant's (or the query's) remaining budget is refused
        cleanly — the query completes with the windows already run.
        """
        if record.state not in _ACTIVE_STATES:
            return False
        if (
            record.budget is not None
            and not record.budget_exhausted
            # Only a query with batches still to publish can be stopped
            # short; one that spent its budget on its *last* batch simply
            # completes (the flag means "remaining batches were dropped").
            and record.peek_batch() is not None
            and record.spend(ledger) >= record.budget
        ):
            record.budget_exhausted = True
            record.drop_remaining_batches()
        if record.peek_batch() is None:
            return False
        pending = record.pending_reservation()
        if pending is not None:
            if not self._window_reservation_fits(record, ledger, pending):
                record.budget_exhausted = True
                record.drop_remaining_batches()
                return False
            record.take_reservation(pending)
        return True

    def _window_reservation_fits(
        self, record: _QueryRecord, ledger, amount: float
    ) -> bool:
        """Would reserving ``amount`` for the peeked window keep the
        record inside its own budget and its tenant's cap?"""
        reserved_after = record.reserved - record.upfront_reservation + amount
        if (
            record.budget is not None
            and reserved_after > record.budget + COST_EPSILON
        ):
            return False
        policy = self._tenants[record.tenant.name]
        if policy.budget_cap is None:
            return True
        others = sum(
            r.committed(ledger)
            for r in self._records[record.tenant.name]
            if r is not record
        )
        committed_after = others + max(reserved_after, record.spend(ledger))
        return committed_after <= policy.budget_cap + COST_EPSILON

    def next_grant(self, ledger) -> _QueryRecord | None:
        """Pick the next query to receive a publish slot, or ``None``.

        Tenant caps are enforced per grant: a tenant at its cap yields no
        further slots, and its still-grantable queries have their remaining
        batches dropped (marked ``budget_exhausted``) so they complete with
        the work already in flight.
        """
        candidates: dict[str, list[_QueryRecord]] = {}
        for name, live in self._live.items():
            # A terminal record is never grantable (``_grantable`` returns
            # False untouched), so it leaves the index the first time a
            # scan sees it.
            live[:] = [r for r in live if r.state not in TERMINAL_STATES]
            grantable = [r for r in live if self._grantable(r, ledger)]
            if not grantable:
                continue
            policy = self._tenants[name]
            records = self._records[name]
            # Only a capped tenant's committed total can refuse a slot.
            if policy.budget_cap is not None and not self.tenant_headroom(
                policy, sum(r.committed(ledger) for r in records)
            ):
                # Tenant at its cap.  A plan-reserved query whose spend
                # has not yet consumed its reservation is pre-approved —
                # its projected work is exactly what filled the cap — so
                # it keeps drawing slots; everything else stops short.
                # Deliberately conservative for mixed workloads: a
                # plan-less query sharing the tenant is truncated while
                # the reservation peaks even if settlement later refunds
                # part of it — reserved headroom is *promised*, and the
                # drop must be eager for the service to ever drain.
                covered = [
                    r
                    for r in grantable
                    if r.committed(ledger) > r.spend(ledger) + COST_EPSILON
                ]
                for record in grantable:
                    if record not in covered:
                        record.budget_exhausted = True
                        record.drop_remaining_batches()
                if not covered:
                    continue
                grantable = covered
            candidates[name] = grantable
        if not candidates:
            return None
        if self.allocation == "fifo":
            record = min(
                (r for rs in candidates.values() for r in rs),
                key=lambda r: r.seq,
            )
            self.grant_log.append((record.tenant.name, record.seq))
            return record
        name = min(
            candidates,
            key=lambda n: (self._tenant_pass[n], self._tenant_seq[n]),
        )
        policy = self._tenants[name]
        record = min(candidates[name], key=lambda r: (r.pass_value, r.seq))
        self._tenant_pass[name] += 1.0 / policy.priority
        record.pass_value += 1.0 / record.priority
        self.grant_log.append((name, record.seq))
        return record


class QueryHandle:
    """Non-blocking view of one submitted query.

    Returned immediately by :meth:`SchedulerService.submit`; the query
    advances whenever the service is pumped (by anyone — ``step``,
    ``run_until_idle``, or another handle's blocking :meth:`result`).

    A handle is a view: it owns its service (so a handle held alone keeps
    the service usable), while the service owns only the query's record
    and caches the view weakly.  Nothing the service holds points back at
    a handle, so a service nobody references is freed at once.
    """

    def __init__(self, service: "SchedulerService", record: _QueryRecord) -> None:
        self._service = service
        self._record = record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryHandle(job={self.job_name!r}, subject="
            f"{self.query.subject!r}, tenant={self.tenant!r}, "
            f"state={self.state.value!r})"
        )

    # -- identity ------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Submission ordinal within the service (stable across recovery
        — the durability layer journals it, and the gateway derives its
        public query ids from it)."""
        return self._record.seq

    @property
    def job_name(self) -> str:
        return self._record.job_name

    @property
    def query(self) -> Query:
        return self._record.plan.query

    @property
    def tenant(self) -> str:
        return self._record.tenant.name

    @property
    def plan(self) -> QueryPlan | None:
        """The EXPLAIN-style plan this query ran under.

        Set for plan-path submissions; plan-less submissions project one
        lazily (and purely) on first read.  ``None`` when projection is
        impossible — e.g. no projector registered, or an uncalibrated
        engine with no forced worker count.
        """
        record = self._record
        if record.query_plan is None and record.plan_args is not None:
            (job_name, query, kwargs), record.plan_args = record.plan_args, None
            try:
                record.query_plan = self._service.plan(job_name, query, **kwargs)
            except Exception:
                record.query_plan = None
            record.plan_owned = True
            if record.state in TERMINAL_STATES:
                record.drop_plan_inputs()
        return record.query_plan

    @property
    def reserved(self) -> float:
        """Budget this query still pins *beyond* its incurred spend
        (0 once terminal — the reservation settles to actual spend)."""
        record = self._record
        ledger = self._service.engine.market.ledger
        return max(0.0, record.committed(ledger) - record.spend(ledger))

    # -- lifecycle -----------------------------------------------------------

    @property
    def state(self) -> QueryState:
        return self._record.state

    @property
    def done(self) -> bool:
        """Terminal in any way: DONE, CANCELLED or FAILED."""
        return self._record.state in TERMINAL_STATES

    def progress(self) -> QueryProgress:
        """Snapshot the query's progress (cheap; safe at any state).

        The leading run of sealed sessions is read from the record's
        cached aggregate (their results never change), so polling a
        standing query with hundreds of completed windows walks only the
        sessions past it, not O(sessions × records).
        """
        record = self._record
        ledger = self._service.engine.market.ledger
        prefix = record.sealed_prefix(ledger)
        answered = prefix.answered
        finalized = prefix.finalized
        completed = prefix.length
        in_flight = 0
        confidences = prefix.confidences.copy()
        for session in record.sessions[prefix.length:]:
            answered += session.questions_answered
            result = session.result
            if result is not None:
                completed += 1
                finalized += len(result.records)
                confidences.extend(_verdict_confidences(result))
            else:
                if session.state is SessionState.COLLECTING:
                    in_flight += 1
                confidences.extend(session.live_best_confidences())
        return QueryProgress(
            state=record.state,
            items_answered=answered,
            items_finalized=finalized,
            hits_completed=completed,
            hits_in_flight=in_flight,
            accuracy_estimate=(
                sum(confidences) / len(confidences) if confidences else None
            ),
            spend=record.spend(ledger),
            budget_exhausted=record.budget_exhausted,
        )

    @property
    def spend(self) -> float:
        """Market dollars this query has been charged so far."""
        return self._record.spend(self._service.engine.market.ledger)

    def result(self, timeout: float | None = None) -> Any:
        """Pump the service until this query is terminal; return its result.

        Parameters
        ----------
        timeout:
            Wall-clock seconds to keep pumping before raising
            :class:`TimeoutError`; ``None`` waits until terminal or idle.

        On a slow/live backend whose next submission has not arrived yet,
        this sleeps until the backend's declared arrival ETA instead of
        re-entering ``step()`` in a tight loop; on pre-generated backends
        (never dormant) it never sleeps — identical to the historical
        behaviour.

        Raises
        ------
        QueryCancelled
            The query was cancelled (partial observations remain readable
            through :meth:`progress`).
        AdmissionRejected / Exception
            Whatever failed the query (budget starvation at admission, or
            an error raised while assembling the result).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done:
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"query {self.query.subject!r} still "
                    f"{self._record.state.value} after {timeout}s"
                )
            if self._service.step():
                continue
            # Nothing deliverable right now.  Dormant in-flight work means
            # a future arrival: sleep until it unlocks (capped by the
            # deadline) rather than spinning.  No ETA means truly idle.
            eta = self._service.next_arrival_eta()
            if eta is None:
                break
            if deadline is not None:
                eta = min(eta, deadline - time.monotonic())
            sleep_until_arrival(eta)
        record = self._record
        if record.state is QueryState.DONE:
            return record.result_value
        if record.state is QueryState.CANCELLED:
            raise QueryCancelled(f"query {self.query.subject!r} was cancelled")
        if record.error is not None:
            raise record.error
        if self._service.waiting:
            raise RuntimeError(
                "HITs in flight but nothing pending yet and no arrival "
                "ETA; blocking result() needs a backend with "
                "pre-generated, blocking or ETA-declaring submissions"
            )
        raise RuntimeError(  # cannot happen after a clean pump; never mask it
            f"service went idle with query {self.query.subject!r} "
            f"{record.state.value}"
        )

    def cancel(self) -> bool:
        """Stop the query: drop unpublished batches, cancel in-flight HITs.

        Cancellation is charge-final: batches never granted a slot are
        dropped before publication (zero spend if nothing was published),
        and published HITs are cancelled through the market backend so
        their outstanding assignments are forfeited, never collected, never
        charged.  Returns ``False`` when the query was already terminal.
        """
        return self._service._cancel(self._record)


class SchedulerService:
    """Long-lived submission front-end over one shared scheduler.

    Parameters
    ----------
    engine:
        The crowdsourcing engine all queries share (one estimator, one
        market, one ledger).
    planner:
        ``(job_name, query) → ProcessingPlan`` — the job manager's bind
        step, injected to keep this module independent of the facade.
    submitters:
        Per-job scheduler-aware submitters (see :data:`Submitter`).
    max_in_flight:
        Publish-slot budget across every admitted query.
    track_trajectories:
        Maintain per-question online aggregators in each session so
        :meth:`QueryHandle.progress` can report live accuracy estimates
        (costs per-arrival confidence work; verdicts are unaffected).
    allocation:
        ``"weighted"`` (stride scheduling, the default) or ``"fifo"``
        (baseline for benchmarks).
    on_event:
        Optional observer forwarded to the scheduler, called with
        ``(event, session)`` after each submission is applied.
    """

    def __init__(
        self,
        engine: "CrowdsourcingEngine",
        planner: Callable[[str, Query], ProcessingPlan],
        submitters: Mapping[str, Submitter],
        max_in_flight: int = 4,
        track_trajectories: bool = False,
        allocation: str = "weighted",
        on_event: Callable[[SubmissionEvent, HITSession], None] | None = None,
        projectors: Mapping[str, JobProjector] | None = None,
    ) -> None:
        self.engine = engine
        self._planner = planner
        self._submitters = dict(submitters)
        self._projectors = dict(projectors) if projectors is not None else {}
        self.max_in_flight = max_in_flight
        self.scheduler = HITScheduler(
            engine,
            max_in_flight=max_in_flight,
            track_trajectories=track_trajectories,
            on_event=on_event,
        )
        self.admission = AdmissionController(allocation=allocation)
        self._records: list[_QueryRecord] = []
        #: The records not yet seen terminal, in seq order: what each step
        #: walks.  Anything that assigns :attr:`_records` rebuilds it.
        self._live: list[_QueryRecord] = []
        #: Each record's handle while someone holds it (see
        #: :attr:`handles`).  Weak: a handle owns its service, so a strong
        #: cache here would make every service a reference cycle.
        self._views: weakref.WeakValueDictionary[_QueryRecord, QueryHandle] = (
            weakref.WeakValueDictionary()
        )
        #: Optional lifecycle observer (duck-typed; see the durability
        #: layer's ``_JournalObserver``).  Called ``on_grant(record,
        #: session, group_index)`` when a batch takes a publish slot,
        #: ``on_complete(record)`` when a query turns DONE / FAILED,
        #: ``on_window(record, index)`` when a standing query
        #: materialises a window and ``on_reserve(record, amount)`` when
        #: a window reservation is taken.  ``None`` costs nothing.
        self.observer: Any = None

    # -- tenants ---------------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        budget_cap: float | None = None,
        priority: float = 1.0,
    ) -> TenantPolicy:
        """Declare a tenant's budget cap and slot priority."""
        return self.admission.register_tenant(
            name, budget_cap=budget_cap, priority=priority
        )

    def tenant_spend(self, name: str) -> float:
        """Cumulative market spend of one tenant's queries."""
        ledger = self.engine.market.ledger
        return sum(r.spend(ledger) for r in self.admission.records_of(name))

    def tenant_reserved(self, name: str) -> float:
        """Outstanding reservations the tenant's active plans pin beyond
        incurred spend (0 for purely plan-less workloads)."""
        return self.admission.tenant_reserved(name, self.engine.market.ledger)

    def tenant_committed(self, name: str) -> float:
        """Spend plus outstanding reservations — what admission compares
        against the tenant's cap."""
        return self.admission.tenant_committed(name, self.engine.market.ledger)

    # -- planning --------------------------------------------------------------

    def plan(
        self,
        job_name: str,
        query: Query,
        *,
        tenant: str = "default",
        budget: float | None = None,
        priority: float | None = None,
        **job_inputs: Any,
    ) -> QueryPlan:
        """Project a query into an EXPLAIN-style :class:`QueryPlan`.

        Pure: validates the request (same eager errors as :meth:`submit`),
        runs the job's cost projector, and prices the work at the
        engine's current ``μ`` — without touching the scheduler, the
        market, or the admission ledger.  Inspect the plan (``describe``,
        :meth:`preadmit`), then execute it with ``submit(plan=...)``.

        Raises
        ------
        KeyError
            Unknown job name.
        ValueError
            No submitter/projector registered, or invalid job inputs /
            budget / priority.
        PredictionInfeasibleError
            ``worker_count`` was not forced and the engine's ``μ``
            cannot support the required accuracy (e.g. uncalibrated).
        """
        processing = self._planner(job_name, query)
        self._validate_request(job_name, budget, priority)
        projector = self._projectors.get(job_name)
        if projector is None:
            raise ValueError(
                f"job {job_name!r} has no cost projector; register one "
                "to use plan-first submission"
            )
        projection = projector(self.engine, processing, dict(job_inputs))
        return build_query_plan(
            self.engine,
            processing,
            projection,
            tenant=tenant,
            budget=budget,
            priority=priority,
            job_inputs=dict(job_inputs),
        )

    def preadmit(self, plan: QueryPlan) -> PlanDecision:
        """Preview admission of ``plan`` without reserving anything.

        Compares the plan's upfront reservation (full projection for
        one-shot queries, first window for standing ones) against the
        binding limit — the smaller of the tenant's remaining
        (committed-adjusted) budget and the plan's own per-query budget.
        A rejection carries the counter-offer; ``submit(plan=...)``
        raises :class:`PlanInfeasible` built from this same decision.
        """
        policy = self.admission.tenant(plan.tenant)
        ledger = self.engine.market.ledger
        remaining: float | None = None
        if policy.budget_cap is not None:
            committed = self.admission.tenant_committed(plan.tenant, ledger)
            remaining = max(0.0, policy.budget_cap - committed)
        limits = [v for v in (remaining, plan.budget) if v is not None]
        limit = min(limits) if limits else None
        upfront = plan.upfront_reservation
        if limit is None or upfront <= limit + COST_EPSILON:
            return PlanDecision(
                admitted=True,
                upfront=upfront,
                tenant_remaining=remaining,
                limit=limit,
            )
        constraint = (
            "per-query budget"
            if plan.budget is not None and limit == plan.budget
            else f"tenant {plan.tenant!r} remaining budget"
        )
        return PlanDecision(
            admitted=False,
            upfront=upfront,
            tenant_remaining=remaining,
            limit=limit,
            reason=(
                f"projected ${upfront:.4f} exceeds the {constraint} "
                f"${limit:.4f}"
            ),
            counter_offer=make_counter_offer(
                limit, plan, ledger.schedule
            ),
        )

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        job_name: str | None = None,
        query: Query | None = None,
        *,
        plan: QueryPlan | None = None,
        tenant: str | None = None,
        budget: float | None = None,
        priority: float | None = None,
        reserve: bool | None = None,
        **job_inputs: Any,
    ) -> QueryHandle:
        """Plan and validate a query now; run it as the service is pumped.

        Two entry shapes:

        * ``submit(job_name, query, **inputs)`` — the historical plan-less
          call.  The job manager plans eagerly and the job's submitter
          validates its inputs eagerly (bad requests raise *here*, before
          any HIT exists); admission stays reactive (no reservation), and
          a :class:`QueryPlan` is attached to the handle best-effort for
          observability.  Bit-for-bit the pre-planner behaviour.
        * ``submit(plan=query_plan)`` — the plan-first call.  Admission is
          reservation-based: the plan's upfront projection (full cost for
          one-shot queries, first window for standing ones) is reserved
          against the tenant's remaining budget *before* anything is
          published; an unaffordable plan raises :class:`PlanInfeasible`
          carrying a counter-offer and incurs **zero** market spend.  The
          reservation settles to actual spend on completion or cancel.

        ``reserve=True`` on the plan-less shape auto-plans and then takes
        the plan-first path (what ``serve --pre-admit`` does).

        Parameters
        ----------
        job_name / query / job_inputs:
            As for the blocking facade (``gold_tweets=…``, ``images=…``).
            Mutually exclusive with ``plan``.
        plan:
            A :class:`QueryPlan` from :meth:`plan`; carries its own
            tenant / budget / priority / job inputs.
        tenant:
            Admission-control tenant (auto-registered, uncapped, priority 1
            if never declared).
        budget:
            Optional per-query spend ceiling: once reached, remaining
            batches are dropped and the query completes with the work
            already in flight (``progress().budget_exhausted``).
        priority:
            Per-query stride weight within the tenant; defaults to the
            tenant's own priority.
        reserve:
            Force reservation-based admission on (``True``) or off
            (``False``); defaults to on for the plan shape, off for the
            plan-less shape.

        Raises
        ------
        KeyError
            Unknown job name.
        ValueError
            The job has no scheduler-aware submitter, or its inputs are
            invalid.
        AdmissionRejected
            The tenant's budget cap is already committed.
        PlanInfeasible
            Reservation-based admission refused the plan's projection
            (carries the counter-offer; nothing was published).
        """
        if plan is None and reserve:
            if job_name is None or query is None:
                raise ValueError(
                    "submit(reserve=True) needs a job_name and query to "
                    "auto-plan, or an explicit plan=..."
                )
            return self._submit_plan(
                self.plan(
                    job_name,
                    query,
                    tenant="default" if tenant is None else tenant,
                    budget=budget,
                    priority=priority,
                    **job_inputs,
                ),
                reserve=True,
                owned=True,
            )
        if plan is not None:
            if (
                job_name is not None
                or query is not None
                or job_inputs
                or tenant is not None
                or budget is not None
                or priority is not None
            ):
                raise ValueError(
                    "submit(plan=...) binds job, query, inputs, tenant, "
                    "budget and priority inside the plan; pass nothing else "
                    "(re-plan to change any of them)"
                )
            return self._submit_plan(plan, reserve=reserve is not False)
        if job_name is None or query is None:
            raise ValueError("submit() needs a job_name and query, or plan=...")
        tenant = "default" if tenant is None else tenant
        processing = self._planner(job_name, query)
        self._validate_request(job_name, budget, priority)
        policy = self.admission.tenant(tenant)
        self.admission.check_submit(policy, self.tenant_committed(tenant))
        intake = QueryIntake()
        finalize = self._submitters[job_name](
            self.engine, intake, processing, dict(job_inputs)
        )
        record = _QueryRecord(
            seq=len(self._records),
            job_name=job_name,
            plan=processing,
            tenant=policy,
            priority=policy.priority if priority is None else priority,
            budget=budget,
            sources=intake.sources,
            finalize=finalize,
            query_plan=None,
            reserve=False,
        )
        record.observer = self.observer
        # Lazy auto-plan for observability (resolved on first
        # ``handle.plan`` read): keeps the legacy submit path free of a
        # second candidate-resolution pass, and a projection failure
        # (no projector, uncalibrated μ) reads as ``None`` rather than
        # breaking the plan-less surface.  Planning is pure, so deferring
        # it changes nothing but *when* μ is sampled.  The record pins
        # the job inputs for its lifetime, as a plan-path record's
        # ``QueryPlan.job_inputs`` does.
        record.plan_args = (
            job_name,
            query,
            dict(tenant=tenant, budget=budget, priority=priority, **job_inputs),
        )
        return self._enqueue(record)

    def _validate_request(
        self, job_name: str, budget: float | None, priority: float | None
    ) -> None:
        """The submission checks shared by plan(), plan-less submit()
        and the plan path — one site, so the rules cannot drift."""
        if job_name not in self._submitters:
            raise ValueError(
                f"job {job_name!r} has no scheduler-aware submitter; "
                "register one to use the service"
            )
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be ≥ 0, got {budget}")
        if priority is not None and priority <= 0:
            raise ValueError(f"priority must be positive, got {priority}")

    def _submit_plan(
        self, qplan: QueryPlan, reserve: bool, owned: bool = False
    ) -> QueryHandle:
        """Execute a :class:`QueryPlan`: reserve, then hand to the pump.
        ``owned`` marks a plan the service projected itself."""
        job_name = qplan.job_name
        self._validate_request(job_name, qplan.budget, qplan.priority)
        policy = self.admission.tenant(qplan.tenant)
        decision: PlanDecision | None = None
        if reserve:
            decision = self.preadmit(qplan)
            if not decision.admitted:
                message = (
                    f"query {qplan.query.subject!r} refused at admission: "
                    f"{decision.reason}"
                )
                if decision.counter_offer is not None:
                    message += f"; {decision.counter_offer.describe()}"
                raise PlanInfeasible(message, qplan, decision)
        else:
            self.admission.check_submit(
                policy, self.tenant_committed(qplan.tenant)
            )
        intake = QueryIntake()
        finalize = self._submitters[job_name](
            self.engine, intake, qplan.plan, dict(qplan.job_inputs)
        )
        record = _QueryRecord(
            seq=len(self._records),
            job_name=job_name,
            plan=qplan.plan,
            tenant=policy,
            priority=(
                policy.priority if qplan.priority is None else qplan.priority
            ),
            budget=qplan.budget,
            sources=intake.sources,
            finalize=finalize,
            query_plan=qplan,
            reserve=reserve,
        )
        record.plan_owned = owned
        record.observer = self.observer
        if decision is not None:
            record.reserved = decision.upfront
            record.upfront_reservation = decision.upfront
        return self._enqueue(record)

    def _enqueue(self, record: _QueryRecord) -> QueryHandle:
        """Hand a new record to the pump; returns its handle."""
        self._records.append(record)
        self._live.append(record)
        self.admission.register(record)
        return self._view(record)

    def _view(self, record: _QueryRecord) -> QueryHandle:
        """The record's live handle, or a fresh one (cached weakly)."""
        handle = self._views.get(record)
        if handle is None:
            handle = self._views[record] = QueryHandle(self, record)
        return handle

    @property
    def handles(self) -> tuple[QueryHandle, ...]:
        """A handle for every query submitted, in submission order.

        A handle someone still holds comes back by identity; one nobody
        holds any more is rebuilt as a fresh view of the same record.
        """
        return tuple(self._view(record) for record in self._records)

    # -- the pump --------------------------------------------------------------

    def step(self) -> bool:
        """One *non-blocking* pump iteration; ``False`` when nothing is
        deliverable right now.

        Admits queued queries, grants free publish slots by weighted
        priority, and processes one submission event.  Callers interleave
        ``submit`` / ``progress`` / ``cancel`` between steps.

        ``False`` does not always mean *idle*: on a slow/live backend the
        in-flight HITs may merely be dormant — check :attr:`waiting` /
        :meth:`next_arrival_eta` to tell (the blocking surfaces sleep on
        it, the async driver awaits it).  Never sleeps itself: this is
        the sans-IO core.
        """
        self.scheduler.reap()
        self._admit_queued()
        granted = self._fill_slots()
        event = self.scheduler.try_step()
        self._sweep_completions()
        return granted or event is not None

    def next_arrival_eta(self) -> float | None:
        """Wall-clock seconds until the scheduler could deliver again.

        ``0.0`` when an event is poppable now, positive when every
        in-flight HIT is dormant but declares its next arrival, ``None``
        when nothing further is coming (or no dormant handle can say —
        :attr:`waiting` distinguishes).  Side-effect-free.
        """
        return self.scheduler.next_arrival_eta()

    @property
    def waiting(self) -> bool:
        """HITs in flight but nothing deliverable right now (dormant)."""
        return self.scheduler.waiting

    def run_until_idle(self) -> int:
        """Pump until no admitted query has work left; returns step count.

        Sleeps through dormant spells on slow/live backends (like
        :meth:`QueryHandle.result`); never sleeps on pre-generated ones.
        """
        steps = 0
        while True:
            if self.step():
                steps += 1
                continue
            eta = self.next_arrival_eta()
            if eta is None:
                if self.waiting:
                    # Dormant with no declared ETA: refuse loudly (the
                    # historical scheduler behaviour) rather than return
                    # as if drained with queries stuck RUNNING.
                    raise RuntimeError(
                        "HITs in flight but nothing pending yet and no "
                        "arrival ETA; run_until_idle needs a backend with "
                        "pre-generated, blocking or ETA-declaring "
                        "submissions"
                    )
                break
            sleep_until_arrival(eta)
        return steps

    @property
    def idle(self) -> bool:
        """Nothing in flight and nothing grantable right now."""
        return self.scheduler.in_flight == 0 and all(
            record.state in TERMINAL_STATES for record in self._live
        )

    # -- durability surface (no-ops without a journal) -------------------------

    def flush_journal(self) -> None:
        """Durability barrier; nothing to flush without a journal
        (the journaled subclass fsyncs here)."""

    def journal_stats(self) -> dict[str, Any] | None:
        """Journal counters, or ``None`` for an unjournaled service."""
        return None

    def _admit_queued(self) -> None:
        """QUEUED → ADMITTED while the tenant has budget headroom.

        A queued query whose tenant cap filled up *after* submission fails
        here with :class:`AdmissionRejected` (stored, raised by
        ``result()``) rather than starving silently.  Plan-reserved
        queries admit unconditionally: their budget claim was taken at
        submit time and already counts toward the cap every other
        admission checks.
        """
        queued = QueryState.QUEUED
        for record in self._live:
            if record.state is not queued:
                continue
            policy = record.tenant
            if record.reserve or self.admission.tenant_headroom(
                policy, self.tenant_committed(policy.name)
            ):
                record.state = QueryState.ADMITTED
            else:
                record.error = AdmissionRejected(
                    f"tenant {policy.name!r} exhausted its budget cap before "
                    f"query {record.plan.query.subject!r} was admitted"
                )
                record.state = QueryState.FAILED
                record.drop_remaining_batches()
                if self.observer is not None:
                    self.observer.on_complete(record)
                self._release(record)

    def _fill_slots(self) -> bool:
        """Grant free publish slots to admitted queries; True if any."""
        granted = False
        free = (
            self.max_in_flight
            - self.scheduler.in_flight
            - self.scheduler.pending_count
        )
        ledger = self.engine.market.ledger
        while free > 0:
            record = self.admission.next_grant(ledger)
            if record is None:
                break
            spec, group = record.take_batch()
            session = self.scheduler.submit(
                spec.real_questions,
                spec.required_accuracy,
                gold_pool=spec.gold_pool,
                worker_count=spec.worker_count,
            )
            group.sessions.append(session)
            record.sessions.append(session)
            if self.observer is not None:
                self.observer.on_grant(record, session, record.groups.index(group))
            if record.state is QueryState.ADMITTED:
                record.state = QueryState.RUNNING
            free -= 1
            granted = True
        return granted

    def _sweep_completions(self) -> None:
        """Finalize queries whose batches are all published and sealed,
        and rebuild the live index without the records now terminal.

        A record whose next batch is already peeked cannot be done, so
        it skips :attr:`_QueryRecord.work_done`; every other running
        record still materialises its next batch here, in seq order,
        because window materialisation is journaled.  A record appended
        during the pass is visited by the same iterator and kept.
        """
        live = []
        for record in self._live:
            if (
                record._peeked is None
                and record.state in _ACTIVE_STATES
                and record.work_done
            ):
                self._complete(record)
            if record.state not in TERMINAL_STATES:
                live.append(record)
        self._live = live

    def _release(self, record: _QueryRecord) -> None:
        """Drop a terminal query's sessions from its record and from the
        scheduler, and its HITs from a market that can forget them:
        readers keep state, progress, spend and the sealed result."""
        market = self.engine.market
        sessions = record.release(market.ledger)
        self.scheduler.forget(sessions)
        forget = getattr(market, "forget", None)
        if forget is not None:
            forget([session.hit_id for session in sessions])

    def _complete(self, record: _QueryRecord) -> None:
        """Assemble a finished query's result (or its failure)."""
        if record.budget_exhausted and not record.sessions:
            record.error = AdmissionRejected(
                f"budget exhausted before any batch of query "
                f"{record.plan.query.subject!r} was published"
            )
            record.state = QueryState.FAILED
        else:
            try:
                record.result_value = record.finalize()
                record.state = QueryState.DONE
            except Exception as exc:  # surfaced via handle.result()
                # Without its traceback: the frames hold the finalizer,
                # its sessions and this service.
                record.error = exc.with_traceback(None)
                record.state = QueryState.FAILED
        if self.observer is not None:
            self.observer.on_complete(record)
        self._release(record)

    # -- cancellation ----------------------------------------------------------

    def _cancel(self, record: _QueryRecord) -> bool:
        if record.state in TERMINAL_STATES:
            return False
        record.drop_remaining_batches()
        for session in list(record.sessions):
            if session.handle is None:
                # Spawned but never published: withdraw before any charge.
                # The session also vanishes from its group — it can never
                # hold a result, and SessionGroup.results must stay
                # well-defined for observers still holding the group.
                if self.scheduler.withdraw(session):
                    record.sessions.remove(session)
                    for group in record.groups:
                        if session in group.sessions:
                            group.sessions.remove(session)
            elif not session.handle.done:
                # Published: forfeit the outstanding assignments through
                # the backend; collected ones stay charged (AMT semantics).
                session.handle.cancel()
        record.state = QueryState.CANCELLED
        # Release the cancelled HITs' publish slots immediately.
        self.scheduler.reap()
        # ``cancel`` flips a handle done, so the reap sealed every published
        # session; one whose publish raised never seals, and keeps them all.
        if all(session.done for session in record.sessions):
            self._release(record)
        return True
