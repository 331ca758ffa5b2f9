"""The CDAS system facade (paper Figure 2).

Wires the three architecture components — job manager, crowdsourcing
engine, program executor — behind one object, so deploying an analytics
job looks like the paper describes: register the job type once, then
submit Definition-1 queries against it.

The primary surface is the handle-based service (DESIGN.md §7)::

    cdas = CDAS.with_default_jobs(market, seed=7)
    cdas.calibrate(gold_questions)
    service = cdas.service(max_in_flight=8)
    handle = service.submit("twitter-sentiment", query, tenant="acme",
                            tweets=tweets, gold_tweets=gold)
    while service.step():
        print(handle.progress())
    report = handle.result()

On an event loop, :meth:`CDAS.async_service` serves the same surface
with awaitable handles (``await handle.result()``, ``async for snapshot
in handle.updates()``); many async services multiplex on one loop via
:class:`~repro.engine.aio.ServiceMux` (DESIGN.md §8).

Each registered job binds a :class:`~repro.engine.jobs.JobSpec` (the
human/computer split and HIT template) to a *submitter* that enqueues the
job's batches on any :class:`~repro.engine.scheduler.BatchSink` — a raw
shared :class:`~repro.engine.scheduler.HITScheduler`, or the service
layer's admission-controlled intake.  The two paper applications ship as
default bindings; new job types register the same way (the extensibility
§2.2 advertises).

The historical blocking calls remain as thin wrappers over the service:
``submit`` runs a one-slot service to idle and returns the result;
``submit_many`` shares one service (one scheduler, one worker pool, one
merged arrival stream) across requests.  Both are bit-for-bit identical to
the pre-service engine (the ``run_batch`` golden pins the substrate, and
equal-priority admission degenerates to the scheduler's historical
round-robin).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from repro.amt.backend import MarketBackend
from repro.amt.hit import Question
from repro.engine.engine import CrowdsourcingEngine, EngineConfig
from repro.engine.jobs import JobManager, JobSpec, ProcessingPlan
from repro.engine.planner import JobProjector, Projection
from repro.engine.privacy import PrivacyManager
from repro.engine.query import Query
from repro.engine.scheduler import BatchSink
from repro.engine.service import SchedulerService

if TYPE_CHECKING:
    from repro.engine.aio import AsyncSchedulerService
    from repro.gateway import GatewayApp

__all__ = ["JobRunner", "JobSubmitter", "CDAS"]

#: A runner executes a processing plan: (engine, plan, job inputs) → result.
JobRunner = Callable[[CrowdsourcingEngine, ProcessingPlan, dict[str, Any]], Any]

#: A submitter enqueues a plan's HITs on a *shared* batch sink (a scheduler
#: or the service layer's intake) and returns a finalizer that assembles
#: the job-level result once the batches have run.
JobSubmitter = Callable[
    [CrowdsourcingEngine, BatchSink, ProcessingPlan, dict[str, Any]],
    Callable[[], Any],
]


class CDAS:
    """Figure 2: job manager + crowdsourcing engine + program executor.

    Parameters
    ----------
    market:
        The crowdsourcing platform (simulated here; a live AMT client
        would satisfy the same interface).
    seed / engine_config / privacy:
        Forwarded to the embedded :class:`CrowdsourcingEngine`.
    """

    def __init__(
        self,
        market: MarketBackend,
        seed: int = 0,
        engine_config: EngineConfig | None = None,
        privacy: PrivacyManager | None = None,
    ) -> None:
        self.market = market
        self.engine = CrowdsourcingEngine(
            market, seed=seed, config=engine_config, privacy=privacy
        )
        self.job_manager = JobManager()
        self._runners: dict[str, JobRunner] = {}
        self._submitters: dict[str, JobSubmitter] = {}
        self._projectors: dict[str, JobProjector] = {}

    # -- job registration ----------------------------------------------------

    def register_job(
        self,
        spec: JobSpec,
        runner: JobRunner | None = None,
        submitter: JobSubmitter | None = None,
        projector: JobProjector | None = None,
    ) -> None:
        """Bind a job type to its execution logic.

        ``submitter`` lets the job run on the service, on
        :meth:`submit_many`'s shared scheduler and on the blocking
        :meth:`submit` (a one-slot service), so every surface accepts
        identical inputs.  Pass an explicit ``runner`` only for jobs that
        cannot express their work as scheduler batches — such jobs
        support :meth:`submit` but not the service; a job with both runs
        :meth:`submit` through its runner.

        ``projector`` (optional) is the job's cost-projection half:
        ``(engine, plan, inputs) → Projection`` counting the job's items
        and HITs without touching the market.  Jobs with a projector gain
        the plan-first surface (``service.plan`` / ``submit(plan=…)`` /
        EXPLAIN); jobs without one still submit plan-lessly.
        """
        if runner is None and submitter is None:
            raise ValueError(
                f"job {spec.name!r} needs a runner, a submitter, or both"
            )
        self.job_manager.register(spec)
        if runner is not None:
            self._runners[spec.name] = runner
        if submitter is not None:
            self._submitters[spec.name] = submitter
        if projector is not None:
            if submitter is None:
                raise ValueError(
                    f"job {spec.name!r} has a projector but no submitter; "
                    "plans can only gate service submissions"
                )
            self._projectors[spec.name] = projector

    @property
    def jobs(self) -> tuple[str, ...]:
        return self.job_manager.registered_jobs

    @classmethod
    def with_default_jobs(
        cls,
        market: MarketBackend,
        seed: int = 0,
        engine_config: EngineConfig | None = None,
        privacy: PrivacyManager | None = None,
    ) -> "CDAS":
        """A system with the paper's two applications pre-registered."""
        system = cls(
            market, seed=seed, engine_config=engine_config, privacy=privacy
        )
        from repro.it.app import build_it_spec
        from repro.tsa.app import build_tsa_spec

        system.register_job(
            build_tsa_spec(), submitter=_tsa_submitter, projector=_tsa_projector
        )
        system.register_job(
            build_it_spec(), submitter=_it_submitter, projector=_it_projector
        )
        return system

    # -- operations ------------------------------------------------------------

    def calibrate(
        self,
        gold_questions: Sequence[Question],
        workers_per_hit: int = 20,
        hits: int = 2,
    ) -> float:
        """Bootstrap the engine's worker-accuracy estimates (§3.3)."""
        return self.engine.calibrate(
            gold_questions, workers_per_hit=workers_per_hit, hits=hits
        )

    def service(
        self,
        max_in_flight: int = 4,
        track_trajectories: bool = True,
        allocation: str = "weighted",
        on_event: Callable[..., None] | None = None,
        backend: MarketBackend | None = None,
        journal: Any = None,
        journal_meta: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
    ) -> SchedulerService:
        """A long-lived scheduler service over this system's engine.

        The service accepts submissions while running and hands back
        :class:`~repro.engine.service.QueryHandle`\\ s; see
        :class:`~repro.engine.service.SchedulerService`.  Every job
        registered with a submitter is available on it.

        ``backend`` swaps the market the service runs against — typically
        a :class:`~repro.amt.trace.TraceReplayBackend` replaying a
        recorded run, or a :class:`~repro.amt.slow.SlowBackend` rehearsal
        — on a *fresh* engine (same seed, config and privacy policy as
        this system's).  The fresh engine matters for replay: the
        replayed run must rebuild estimator state from the recorded
        submissions alone, exactly as the recording run built it.
        Calibration traffic for such a service goes through
        ``service.engine.calibrate`` (it is part of the recording).

        ``journal`` attaches a write-ahead journal (DESIGN.md §12): the
        service is then the journaled subclass
        :class:`~repro.durability.service.DurableSchedulerService`.  Pass a path (``.jsonl`` file store, ``.sqlite`` store) or an
        open :class:`~repro.durability.journal.JournalStore`.  The
        journal must be fresh — resume an existing one with
        :meth:`recover`.  ``journal_meta`` stamps free-form JSON into the
        header (recovery tooling reads it to pick a workload factory);
        ``snapshot_every`` enables quiescent-point snapshot compaction.
        """
        knobs: dict[str, Any] = {
            "max_in_flight": max_in_flight,
            "track_trajectories": track_trajectories,
            "allocation": allocation,
            "on_event": on_event,
        }
        if journal is None:
            return self._build_service(SchedulerService, backend, **knobs)
        from repro.durability import DurableSchedulerService, open_store

        return self._build_service(
            DurableSchedulerService,
            backend,
            store=open_store(journal),
            meta=journal_meta,
            snapshot_every=snapshot_every,
            **knobs,
        )

    def _build_service(
        self, cls: type[SchedulerService], backend: MarketBackend | None, **kwargs: Any
    ) -> Any:
        """Construct ``cls`` (the service or its journaled subclass) over
        this system's engine, or over a fresh one on ``backend``."""
        engine = self.engine
        if backend is not None:
            engine = CrowdsourcingEngine(
                backend,
                seed=self.engine.seed,
                config=self.engine.config,
                privacy=self.engine.privacy,
            )
        return cls(
            engine,
            self.job_manager.plan,
            self._submitters,
            projectors=self._projectors,
            **kwargs,
        )

    def recover(
        self,
        journal: Any,
        *,
        backend: MarketBackend | None = None,
        use_snapshot: bool = True,
    ) -> SchedulerService:
        """Resume the service a journal describes (DESIGN.md §12).

        This system must be built the same way as the one that wrote the
        journal (seed, config, calibration, job registrations) — recovery
        verifies its deterministic re-execution record-by-record and
        raises :class:`~repro.durability.RecoveryDivergence` on drift.
        See :func:`repro.durability.recover`.
        """
        from repro.durability import recover as _recover

        return _recover(
            journal, self, backend=backend, use_snapshot=use_snapshot
        )

    def async_service(
        self,
        max_in_flight: int = 4,
        track_trajectories: bool = True,
        allocation: str = "weighted",
        on_event: Callable[..., None] | None = None,
        name: str | None = None,
        backend: MarketBackend | None = None,
        journal: Any = None,
        journal_meta: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
    ) -> AsyncSchedulerService:
        """An async-native service over this system's engine (DESIGN.md §8).

        Wraps :meth:`service` in an
        :class:`~repro.engine.aio.AsyncSchedulerService`: same submission
        surface, but handles are awaitable (``await handle.result()``,
        ``async for snapshot in handle.updates()``) and one driver task
        pumps the service cooperatively on the running event loop.
        Several async services — typically one per tenant group —
        multiplex on one loop through
        :class:`~repro.engine.aio.ServiceMux`.  ``backend`` swaps the
        market as for :meth:`service`; a replay backend with
        ``time_scale > 0`` serves its recorded arrival ETAs through
        ``next_arrival_eta()``, so the driver's sleeping is exercised by
        replay exactly as a slow/live market would.  ``journal`` attaches
        a write-ahead journal exactly as for :meth:`service`; the driver
        keeps the fsync barrier off its hot loop by flushing whenever it
        goes dormant or drains (DESIGN.md §12).
        """
        from repro.engine.aio import AsyncSchedulerService

        return AsyncSchedulerService(
            self.service(
                max_in_flight=max_in_flight,
                track_trajectories=track_trajectories,
                allocation=allocation,
                on_event=on_event,
                backend=backend,
                journal=journal,
                journal_meta=journal_meta,
                snapshot_every=snapshot_every,
            ),
            name=name,
        )

    def gateway(
        self,
        tokens: Mapping[str, str],
        *,
        name: str = "svc",
        presets: Mapping[str, Mapping[str, Any]] | None = None,
        routes: Mapping[str, str] | None = None,
        max_in_flight: int = 4,
        track_trajectories: bool = True,
        allocation: str = "weighted",
        journal: Any = None,
        journal_meta: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
        resume: bool = False,
        heartbeat: float | None = None,
    ) -> GatewayApp:
        """An HTTP/ASGI gateway over one service of this system (§13).

        Builds the async serving stack — one
        :class:`~repro.engine.aio.AsyncSchedulerService` named ``name``
        over :meth:`service` (journaled when ``journal`` is given) —
        and fronts it with a :class:`~repro.gateway.GatewayApp`:
        bearer-token tenant auth (``tokens`` maps token → tenant),
        named job-input ``presets`` reachable from request bodies, and
        the full ``/v1`` endpoint surface.  Serve it in-process (call
        the ASGI app directly) or on a socket via
        :class:`~repro.gateway.GatewayServer`.

        ``resume=True`` recovers the service from the (non-empty)
        ``journal`` instead of starting fresh: the recovered handles
        are adopted into the async layer, so every query id the crashed
        gateway acknowledged resolves again — same ids, no re-charge.

        Multi-service deployments (one service per tenant group) build
        their own :class:`~repro.engine.aio.ServiceMux` and construct
        :class:`~repro.gateway.GatewayApp` directly; this helper covers
        the common single-service shape the CLI serves.
        """
        from repro.engine.aio import AsyncSchedulerService
        from repro.gateway import GatewayApp, TokenAuth

        if resume:
            if journal is None:
                raise ValueError("resume=True needs a journal to recover from")
            inner = self.recover(journal)
        else:
            inner = self.service(
                max_in_flight=max_in_flight,
                track_trajectories=track_trajectories,
                allocation=allocation,
                journal=journal,
                journal_meta=journal_meta,
                snapshot_every=snapshot_every,
            )
        return GatewayApp(
            AsyncSchedulerService(inner, name=name),
            auth=TokenAuth(tokens),
            routes=routes,
            presets=presets,
            heartbeat=heartbeat,
        )

    def submit(self, job_name: str, query: Query, **job_inputs: Any) -> Any:
        """Run one query end to end through the registered job (blocking).

        A thin wrapper over the service: submit, run a one-slot service to
        idle, return ``handle.result()``.  Jobs registered with a runner
        keep executing through it, as they always did.
        """
        if job_name in self._runners or job_name not in self._submitters:
            # Plans here; the service path plans inside service.submit
            # (both raise KeyError for unknown job names).
            plan = self.job_manager.plan(job_name, query)
            runner = self._runners[job_name]
            return runner(self.engine, plan, dict(job_inputs))
        service = self.service(max_in_flight=1, track_trajectories=False)
        handle = service.submit(job_name, query, **job_inputs)
        service.run_until_idle()
        return handle.result()

    def submit_many(
        self,
        requests: Sequence[tuple[str, Query, dict[str, Any]]],
        max_in_flight: int = 4,
    ) -> list[Any]:
        """Run several queries — possibly of different job types — at once.

        A blocking wrapper over one shared service (one scheduler, one
        worker pool, one merged arrival stream): HITs from different
        queries interleave, gold evidence from any of them sharpens the
        shared accuracy estimator, and up to ``max_in_flight`` HITs collect
        concurrently.  Results come back in request order.

        Failure semantics are all-or-nothing: unknown job names are
        rejected before anything is planned, and if any submitter raises
        (missing inputs, unmatched query) it does so during the eager
        ``service.submit`` validation — before the service is pumped, so
        nothing has been published to the market, no cost is incurred and
        no request executes partially.

        Parameters
        ----------
        requests:
            ``(job_name, query, job_inputs)`` triples; each job must have
            been registered with a scheduler-aware submitter.
        max_in_flight:
            Concurrent-HIT budget across *all* requests.
        """
        missing = sorted({name for name, _, _ in requests if name not in self._submitters})
        if missing:
            raise ValueError(
                f"job(s) {missing!r} have no scheduler-aware submitter; "
                "register one to use submit_many"
            )
        service = self.service(max_in_flight=max_in_flight, track_trajectories=False)
        handles = [
            service.submit(job_name, query, **job_inputs)
            for job_name, query, job_inputs in requests
        ]
        service.run_until_idle()
        return [handle.result() for handle in handles]

    @property
    def total_cost(self) -> float:
        """Everything this system has spent on the market so far."""
        return self.market.ledger.total_cost


def _tsa_submitter(
    engine: CrowdsourcingEngine,
    sink: BatchSink,
    plan: ProcessingPlan,
    inputs: dict[str, Any],
) -> Callable[[], Any]:
    """Default submitter for the twitter-sentiment job.

    Expected inputs: ``gold_tweets`` (required), plus either ``stream``
    (a :class:`~repro.tsa.stream.TweetStream`) or ``tweets`` (an explicit
    corpus); optional ``batch_size`` and ``worker_count``.  Passing
    ``windows=N`` (requires ``stream``) turns the query into a *standing*
    query: N consecutive ``(t + i·w)`` windows of the stream flow through
    the one handle (``windows=None`` with the key present follows the
    stream to its end).
    """
    from repro.tsa.app import TSAJob

    if "gold_tweets" not in inputs:
        raise ValueError("twitter-sentiment requires gold_tweets")
    job = TSAJob(
        engine,
        stream=inputs.get("stream"),
        batch_size=inputs.get("batch_size", 20),
    )
    if "windows" in inputs:
        group = job.submit_standing(
            sink,
            plan.query,
            gold_tweets=inputs["gold_tweets"],
            windows=inputs["windows"],
            worker_count=inputs.get("worker_count"),
        )
    else:
        group = job.submit(
            sink,
            plan.query,
            gold_tweets=inputs["gold_tweets"],
            tweets=inputs.get("tweets"),
            worker_count=inputs.get("worker_count"),
        )
    return lambda: job.assemble(plan.query, group)


def _tsa_projector(
    engine: CrowdsourcingEngine,
    plan: ProcessingPlan,
    inputs: dict[str, Any],
) -> Projection:
    """Cost projector for the twitter-sentiment job.

    Accepts the same inputs as :func:`_tsa_submitter` and applies the
    same validation, but only *counts* the work: items and HITs per
    window.  Touches neither the market nor a scheduler.
    """
    from repro.tsa.app import TSAJob

    if "gold_tweets" not in inputs:
        raise ValueError("twitter-sentiment requires gold_tweets")
    job = TSAJob(
        engine,
        stream=inputs.get("stream"),
        batch_size=inputs.get("batch_size", 20),
    )
    if "windows" in inputs:
        return job.project_standing(plan.query, windows=inputs["windows"])
    return job.project(plan.query, tweets=inputs.get("tweets"))


def _it_projector(
    engine: CrowdsourcingEngine,
    plan: ProcessingPlan,
    inputs: dict[str, Any],
) -> Projection:
    """Cost projector for the image-tagging job (counterpart of
    :func:`_it_submitter`; counts tag questions and HITs only)."""
    from repro.it.app import ITJob

    if "images" not in inputs:
        raise ValueError("image-tagging requires images")
    job = ITJob(engine, images_per_hit=inputs.get("images_per_hit", 5))
    return job.project(inputs["images"])


def _it_submitter(
    engine: CrowdsourcingEngine,
    sink: BatchSink,
    plan: ProcessingPlan,
    inputs: dict[str, Any],
) -> Callable[[], Any]:
    """Default submitter for the image-tagging job.

    Expected inputs: ``images`` (required), optional ``gold_images``,
    ``images_per_hit`` and ``worker_count``.  The query's required
    accuracy drives prediction.
    """
    from repro.it.app import ITJob

    if "images" not in inputs:
        raise ValueError("image-tagging requires images")
    job = ITJob(engine, images_per_hit=inputs.get("images_per_hit", 5))
    group = job.submit(
        sink,
        inputs["images"],
        required_accuracy=plan.query.required_accuracy,
        gold_images=inputs.get("gold_images", ()),
        worker_count=inputs.get("worker_count"),
    )
    return lambda: job.assemble(inputs["images"], group)
