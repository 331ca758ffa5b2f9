"""The crowdsourcing engine: two-phase query processing (paper Algorithm 1).

Phase 1 — *plan and publish*: compose a HIT from a batch of questions (with
§3.3 gold probes injected at the sampling rate), ask the prediction model
for the worker count ``n = g(C)``, and publish to the market.

Phase 2 — *collect and verify*: pull submissions as they arrive; score each
worker's gold answers into the accuracy estimator; keep per-question
confidences updated online (Theorem 6); optionally cancel the outstanding
assignments once a §4.2.2 stopping rule holds for every real question; and
finally accept each question's best answer by probability-based
verification (§4.1).

Since the event-driven refactor (DESIGN.md §3) this module holds only the
engine-wide state and policy: the accuracy estimator, the configuration,
the privacy screen, and the phase-1 planning helpers.  The per-HIT
collect/verify machinery lives in :class:`~repro.engine.session.HITSession`,
and :class:`~repro.engine.scheduler.HITScheduler` pumps many sessions
concurrently over one merged arrival stream.  :meth:`CrowdsourcingEngine.run_batch`
remains the blocking entry point — now a thin wrapper that runs a
single-session scheduler, with results identical to the historical loop.

The engine deliberately never reads simulator-only oracles (true worker
accuracies, non-gold truths): everything it learns comes through gold
sampling, exactly like the deployed system.  Experiments compare its output
against ground truth from the outside.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.amt.backend import MarketBackend
from repro.amt.hit import HIT, Question
from repro.core.domain import AnswerDomain
from repro.core.prediction import WorkerCountPredictor
from repro.core.presentation import QuestionOutcome
from repro.core.sampling import DEFAULT_SAMPLING_RATE, WorkerAccuracyEstimator
from repro.core.termination import strategy_by_name
from repro.core.types import Verdict, WorkerAnswer
from repro.core.verification import (
    HalfVoting,
    MajorityVoting,
    ProbabilisticVerification,
    Verifier,
)
from repro.engine.privacy import PrivacyManager

__all__ = [
    "EngineConfig",
    "QuestionRecord",
    "HITRunResult",
    "CrowdsourcingEngine",
    "seal_records",
]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tunable engine policy.

    Attributes
    ----------
    sampling_rate:
        §3.3's ``α`` — share of gold probes in each HIT (0 disables
        sampling; the estimator then never learns and falls back to its
        prior).
    termination:
        ``"minmax"`` / ``"minexp"`` / ``"expmax"`` to cancel outstanding
        assignments early, or ``None`` to wait for every answer.
    refined_prediction:
        Use Algorithm 2's binary search (True, the paper's choice) or the
        conservative Chernoff count.
    verifier:
        ``"verification"`` (the paper's model), ``"half-voting"`` or
        ``"majority-voting"`` — the latter two exist for the baseline
        sweeps of Figures 7-10.
    prior_accuracy:
        Estimator prior for never-sampled workers.
    estimator_smoothing:
        Laplace pseudo-counts pulling per-worker estimates toward the
        prior; keeps one-gold-question estimates from saturating at 0/1.
    min_answers_before_termination:
        Never cancel before this many assignments arrived (guards the
        degenerate first-answer stop).
    flag_threshold:
        Quality-management screen (§6's Ipeirotis-style worker ranking):
        a worker whose gold accuracy falls below this after at least
        ``flag_min_observations`` gold outcomes is *flagged* and their
        votes are excluded from verification.  ``None`` disables
        screening — the probability model already down-weights them, so
        flagging mainly guards against colluder-sized vote blocks.
    flag_min_observations:
        Minimum gold evidence before a worker can be flagged (prevents
        banning honest workers on one unlucky probe).
    """

    sampling_rate: float = DEFAULT_SAMPLING_RATE
    termination: str | None = None
    refined_prediction: bool = True
    verifier: str = "verification"
    prior_accuracy: float = 0.5
    estimator_smoothing: float = 1.0
    min_answers_before_termination: int = 2
    flag_threshold: float | None = None
    flag_min_observations: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.sampling_rate < 1.0:
            raise ValueError(f"sampling rate {self.sampling_rate} not in [0, 1)")
        if self.verifier not in ("verification", "half-voting", "majority-voting"):
            raise ValueError(f"unknown verifier {self.verifier!r}")
        if self.min_answers_before_termination < 1:
            raise ValueError("min answers before termination must be ≥ 1")
        if self.termination is not None:
            strategy_by_name(self.termination)  # validate eagerly
        if self.flag_threshold is not None and not 0.0 <= self.flag_threshold <= 1.0:
            raise ValueError(f"flag threshold {self.flag_threshold} not in [0, 1]")
        if self.flag_min_observations < 1:
            raise ValueError("flag_min_observations must be ≥ 1")


@dataclass(frozen=True)
class QuestionRecord:
    """Final state of one real (non-gold) question after a HIT run.

    ``observation`` is the evidence the verdict was drawn from.  A
    service seals a finished query's records (:func:`seal_records`):
    they keep the question and the verdict's answer, confidence and
    method, and read ``observation == ()`` and ``verdict.scores == {}``.
    """

    question: Question
    verdict: Verdict
    observation: tuple[WorkerAnswer, ...]

    @property
    def correct(self) -> bool:
        """Whether the accepted answer matches the simulator's ground truth
        (an *evaluation* convenience; the engine itself never branched on
        it)."""
        return self.verdict.answer == self.question.truth

    def outcome(self) -> QuestionOutcome:
        """Adapter to the §4.3 presentation layer."""
        return QuestionOutcome(
            question_id=self.question.question_id,
            verdict=self.verdict,
            accepted=self.verdict.answer is not None,
            observation=self.observation,
        )


#: The ``scores`` every sealed verdict shares; like every verdict field,
#: read-only.
_SEALED_SCORES: Mapping[str, float] = {}


def seal_records(records: Iterable[QuestionRecord]) -> None:
    """Drop each record's evidence in place: its ``observation`` and its
    verdict's ``scores``.

    What stays is what a finished query's readers use: the question and
    the verdict's answer, confidence and method (``correct``,
    ``outcome()`` and the result summaries read nothing else).  In place,
    because the records are shared by the result's ``records`` and its
    ``hit_results``.
    """
    for record in records:
        object.__setattr__(record, "observation", ())
        object.__setattr__(record.verdict, "scores", _SEALED_SCORES)


@dataclass(frozen=True)
class HITRunResult:
    """Everything a caller learns from processing one batch."""

    hit_id: str
    workers_hired: int
    assignments_collected: int
    assignments_cancelled: int
    terminated_early: bool
    cost: float
    records: tuple[QuestionRecord, ...]

    @property
    def accuracy(self) -> float:
        """Fraction of real questions answered correctly (ground-truth
        evaluation; abstentions count as wrong, as in the paper's
        figures)."""
        if not self.records:
            raise ValueError("no records to score")
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def no_answer_ratio(self) -> float:
        """Fraction of questions where the verifier abstained (Figures 9-10)."""
        if not self.records:
            raise ValueError("no records to score")
        return sum(not r.verdict.decided for r in self.records) / len(self.records)


class CrowdsourcingEngine:
    """Two-phase crowdsourcing query processing over a market.

    Parameters
    ----------
    market:
        Any :class:`~repro.amt.backend.MarketBackend` — the simulated
        platform by default; live or replay backends satisfy the same
        protocol.
    seed:
        Seeds gold injection shuffles; independent of the market's seed.
    config:
        Engine policy; defaults follow the paper's deployment choices.
    privacy:
        Optional :class:`PrivacyManager`; submissions from rejected workers
        are discarded (their assignment was still consumed — AMT charges
        for collected work even when the requester rejects it).
    """

    def __init__(
        self,
        market: MarketBackend,
        seed: int = 0,
        config: EngineConfig | None = None,
        privacy: PrivacyManager | None = None,
    ) -> None:
        self.market = market
        self.config = config if config is not None else EngineConfig()
        self.privacy = privacy
        self.estimator = WorkerAccuracyEstimator(
            prior_accuracy=self.config.prior_accuracy,
            smoothing=self.config.estimator_smoothing,
        )
        self.seed = seed
        self._hit_counter = 0

    # -- phase 1 helpers -----------------------------------------------------

    @property
    def hit_counter(self) -> int:
        """How many HIT ids this engine has minted (sessions read it to
        derive their compose substream before consuming an id)."""
        return self._hit_counter

    def next_hit_id(self, kind: str) -> str:
        """Mint the next engine-unique HIT id (``hit-00042`` style)."""
        hit_id = f"{kind}-{self._hit_counter:05d}"
        self._hit_counter += 1
        return hit_id

    def mean_accuracy(self) -> float:
        """The engine's current ``μ``: mean of gold-sampled estimates."""
        return self.estimator.mean_accuracy()

    def predict_workers(self, required_accuracy: float) -> int:
        """``g(C)`` with the current ``μ`` (Algorithm 1 line 7)."""
        predictor = WorkerCountPredictor(
            mean_accuracy=self.mean_accuracy(),
            refined=self.config.refined_prediction,
        )
        return predictor.predict(required_accuracy)

    def calibrate(
        self,
        gold_questions: Sequence[Question],
        workers_per_hit: int = 15,
        hits: int = 3,
    ) -> float:
        """Bootstrap the accuracy estimator with gold-only HITs.

        The paper seeds its models with "the distribution of all workers'
        historical performances"; a fresh engine has no history, so it buys
        some: ``hits`` gold-only HITs of ``workers_per_hit`` assignments
        each.  Returns the resulting ``μ``.
        """
        if not gold_questions:
            raise ValueError("calibration needs at least one gold question")
        for _ in range(hits):
            hit = HIT(
                hit_id=self.next_hit_id("calibration"),
                questions=tuple(
                    _as_gold(q) for q in gold_questions
                ),
                assignments=workers_per_hit,
            )
            handle = self.market.publish(hit)
            while (assignment := handle.next_submission()) is not None:
                self.score_gold(hit.questions, assignment.worker_id, assignment.answers)
        return self.mean_accuracy()

    def compose_questions(
        self,
        real_questions: Sequence[Question],
        gold_pool: Sequence[Question],
        rng: np.random.Generator,
    ) -> tuple[Question, ...]:
        """Inject gold probes at rate ``α`` and shuffle (§3.3).

        For ``B`` real questions the composed HIT carries
        ``round(α·B/(1-α))`` gold probes so gold is an ``α`` share of the
        total, and the order is shuffled so workers cannot spot probes.
        """
        alpha = self.config.sampling_rate
        b = len(real_questions)
        gold_count = round(alpha * b / (1.0 - alpha)) if b else 0
        if gold_count > len(gold_pool):
            raise ValueError(
                f"sampling rate {alpha} over {b} questions needs {gold_count} "
                f"gold probes; pool has {len(gold_pool)}"
            )
        chosen: list[Question] = []
        if gold_count:
            picks = rng.choice(len(gold_pool), size=gold_count, replace=False)
            chosen = [_as_gold(gold_pool[i]) for i in picks]
        combined = [*real_questions, *chosen]
        order = rng.permutation(len(combined))
        return tuple(combined[i] for i in order)

    # -- phase 2: blocking entry point ----------------------------------------

    def run_batch(
        self,
        real_questions: Sequence[Question],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
    ) -> HITRunResult:
        """Process one batch end-to-end (Algorithm 1 + Algorithm 5).

        A thin wrapper that runs one :class:`~repro.engine.session.HITSession`
        to completion on a single-slot :class:`~repro.engine.scheduler.HITScheduler`;
        verdicts, costs and RNG consumption are identical to the historical
        blocking loop.

        Parameters
        ----------
        real_questions:
            The batch's actual work items.
        required_accuracy:
            The query's ``C``; drives prediction when ``worker_count`` is
            not forced.
        gold_pool:
            Gold probes available for injection (required when the
            sampling rate is positive).
        worker_count:
            Override ``n`` (experiments sweeping worker counts use this);
            ``None`` asks the prediction model.
        """
        from repro.engine.scheduler import HITScheduler

        scheduler = HITScheduler(self, max_in_flight=1)
        session = scheduler.submit(
            real_questions,
            required_accuracy,
            gold_pool=gold_pool,
            worker_count=worker_count,
        )
        scheduler.run()
        assert session.result is not None
        return session.result

    # -- shared per-submission policy (used by sessions) -----------------------

    def score_gold(
        self,
        questions: Sequence[Question],
        worker_id: str,
        answers: Mapping[str, str],
    ) -> None:
        """Algorithm 4: fold one assignment's gold outcomes into the estimator."""
        for q in questions:
            if q.is_gold and q.question_id in answers:
                self.estimator.record(worker_id, answers[q.question_id] == q.truth)

    def is_flagged(self, worker_id: str) -> bool:
        """Whether the quality screen excludes this worker's votes."""
        threshold = self.config.flag_threshold
        if threshold is None:
            return False
        if self.estimator.observations(worker_id) < self.config.flag_min_observations:
            return False
        return self.estimator.accuracy(worker_id) < threshold

    def flagged_workers(self) -> list[str]:
        """All currently flagged workers (insertion order of first gold)."""
        return [w for w in self.estimator.known_workers() if self.is_flagged(w)]

    def observation_of(
        self,
        votes: Sequence[tuple[str, str, tuple[str, ...]]],
        facts: dict[str, float | None] | None = None,
    ) -> tuple[WorkerAnswer, ...]:
        """Build an observation with the estimator's *current* accuracies,
        dropping flagged workers' votes (quality screen).

        ``facts`` memoises each worker's accuracy (``None`` when flagged)
        across calls that see the same estimator state — a HIT's
        verification reads each of its workers once, not once per
        question.  Without it every worker is read afresh.
        """
        if facts is None:
            facts = {}
        observation = []
        for worker_id, answer, keywords in votes:
            try:
                accuracy = facts[worker_id]
            except KeyError:
                accuracy = facts[worker_id] = (
                    None
                    if self.is_flagged(worker_id)
                    else self.estimator.accuracy(worker_id)
                )
            if accuracy is not None:
                observation.append(
                    WorkerAnswer(
                        worker_id=worker_id,
                        answer=answer,
                        accuracy=accuracy,
                        keywords=keywords,
                    )
                )
        return tuple(observation)

    def verifier_for(self, question: Question, collected: int) -> Verifier:
        """The configured §4.1 verifier, sized for one question."""
        if self.config.verifier == "half-voting":
            return HalfVoting(hired_workers=collected)
        if self.config.verifier == "majority-voting":
            return MajorityVoting()
        return _probabilistic_verifier(tuple(question.options))

    def finalize_question(
        self,
        question: Question,
        votes: Sequence[tuple[str, str, tuple[str, ...]]],
        facts: dict[str, float | None] | None = None,
    ) -> QuestionRecord:
        """Accept the final answer for one question (§4.1).

        ``facts`` is :meth:`observation_of`'s per-worker memo, shared by
        the questions of one HIT.
        """
        observation = self.observation_of(votes, facts)
        if not observation:
            # Every submission was privacy-rejected: abstain explicitly.
            verdict = Verdict(answer=None, confidence=None, method=self.config.verifier)
        else:
            # Half-voting is judged against the answers actually collected —
            # after early termination the cancelled workers cannot vote.
            verifier = self.verifier_for(question, len(observation))
            verdict = verifier.verify(observation)
        return QuestionRecord(
            question=question, verdict=verdict, observation=observation
        )


@functools.lru_cache(maxsize=None)
def _probabilistic_verifier(options: tuple[str, ...]) -> ProbabilisticVerification:
    """The §4.1 verifier over one closed option set.

    Frozen and stateless, so one instance serves every question with
    these options; cached like ``worker_confidence`` — questions take
    few distinct option sets.
    """
    return ProbabilisticVerification(domain=AnswerDomain.closed(options))


def _as_gold(question: Question) -> Question:
    """Clone a question flagged as a gold probe."""
    if question.is_gold:
        return question
    return Question(
        question_id=f"gold:{question.question_id}",
        options=question.options,
        truth=question.truth,
        difficulty=question.difficulty,
        is_gold=True,
        reason_keywords=question.reason_keywords,
        payload=question.payload,
    )
