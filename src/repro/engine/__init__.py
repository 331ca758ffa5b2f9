"""The CDAS system around the model (paper Figure 2).

Job manager, program executor, privacy manager, query templates, and the
two-phase crowdsourcing engine that embeds the quality-sensitive answering
model.
"""

from repro.engine.engine import (
    CrowdsourcingEngine,
    EngineConfig,
    HITRunResult,
    QuestionRecord,
)
from repro.engine.executor import ProgramExecutor, batched
from repro.engine.jobs import JobManager, JobSpec, ProcessingPlan
from repro.engine.planner import (
    CounterOffer,
    PlanDecision,
    PlanInfeasible,
    Projection,
    QueryPlan,
    WindowProjection,
)
from repro.engine.privacy import MASK, PrivacyManager
from repro.engine.query import Query
from repro.engine.scheduler import BatchSink, BatchSpec, HITScheduler, SessionGroup
from repro.engine.service import (
    AdmissionController,
    AdmissionRejected,
    QueryCancelled,
    QueryHandle,
    QueryProgress,
    QueryState,
    SchedulerService,
    TenantPolicy,
)
from repro.engine.session import HITSession, SessionState
from repro.engine.templates import QueryTemplate, render_hit_description

__all__ = [
    "CrowdsourcingEngine",
    "EngineConfig",
    "HITRunResult",
    "QuestionRecord",
    "ProgramExecutor",
    "batched",
    "BatchSink",
    "BatchSpec",
    "HITScheduler",
    "SessionGroup",
    "AdmissionController",
    "AdmissionRejected",
    "QueryCancelled",
    "QueryHandle",
    "QueryProgress",
    "QueryState",
    "SchedulerService",
    "TenantPolicy",
    "HITSession",
    "SessionState",
    "JobManager",
    "JobSpec",
    "ProcessingPlan",
    "CounterOffer",
    "PlanDecision",
    "PlanInfeasible",
    "Projection",
    "QueryPlan",
    "WindowProjection",
    "MASK",
    "PrivacyManager",
    "Query",
    "QueryTemplate",
    "render_hit_description",
]
