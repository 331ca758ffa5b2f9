"""Online aggregation of asynchronously arriving answers (paper §4.2).

AMT workers finish at different times, so CDAS reports an *approximate*
answer as soon as the first submission lands and refines it with every
arrival.  Theorem 6 makes this cheap: under random arrival order, the
confidence of a partial result is just Equation 4 evaluated on the partial
observation — no marginalisation over the unseen workers is needed.

:class:`OnlineAggregator` implements Algorithm 5: feed it answers one at a
time; after each it exposes the current confidences, and (when configured
with a §4.2.2 stopping rule) says whether the outstanding assignments can be
cancelled.  The full trajectory is recorded so experiments like Figure 11
(answer-arrival sequences) can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.confidence import (
    answer_log_weights,
    confidences_from_log_weights,
    worker_confidence,
)
from repro.core.domain import AnswerDomain
from repro.core.termination import TerminationSnapshot, TerminationStrategy
from repro.core.types import Observation, Verdict, WorkerAnswer

__all__ = ["TrajectoryPoint", "OnlineResult", "OnlineAggregator", "run_online"]


@dataclass(frozen=True, slots=True)
class TrajectoryPoint:
    """State after the ``answers_received``-th arrival."""

    answers_received: int
    best_answer: str
    best_confidence: float
    confidences: dict[str, float]


@dataclass(frozen=True, slots=True)
class OnlineResult:
    """Outcome of driving one question to termination.

    Attributes
    ----------
    verdict:
        The final accepted answer with its confidence.
    answers_used:
        ``n'`` — how many answers were consumed before stopping.
    terminated_early:
        ``True`` when a stopping rule fired before all hired workers
        replied (their assignments would be cancelled, capping cost).
    trajectory:
        Per-arrival snapshots, for arrival-order experiments.
    """

    verdict: Verdict
    answers_used: int
    terminated_early: bool
    trajectory: tuple[TrajectoryPoint, ...]


class OnlineAggregator:
    """Algorithm 5: continuous confidence refinement with optional stopping.

    Parameters
    ----------
    domain:
        The question's answer domain.  Open-ended domains grow as novel
        answers arrive (re-estimating the effective ``m``).
    hired_workers:
        ``n`` — how many assignments were published.
    mean_accuracy:
        ``E[a]`` used for outstanding workers in stopping rules (§4.2.2's
        approximation).
    strategy:
        A :class:`TerminationStrategy`, or ``None`` to always wait for all
        answers.
    """

    def __init__(
        self,
        domain: AnswerDomain,
        hired_workers: int,
        mean_accuracy: float,
        strategy: TerminationStrategy | None = None,
    ) -> None:
        if hired_workers <= 0:
            raise ValueError(f"hired workers must be positive, got {hired_workers}")
        if not 0.0 <= mean_accuracy <= 1.0:
            raise ValueError(f"mean accuracy {mean_accuracy} not in [0, 1]")
        self._domain = domain
        self._hired = hired_workers
        self._mean_accuracy = mean_accuracy
        self._strategy = strategy
        self._answers: list[WorkerAnswer] = []
        self._trajectory: list[TrajectoryPoint] = []
        # Running Σ c_j per label (Equation 4's numerator sums), updated in
        # place on each arrival instead of rebuilt from the whole vote list.
        # Keys stay in domain-label order — the order answer_log_weights
        # would produce — so the logsumexp fold order (and hence every
        # float) is unchanged.
        self._log_weights: dict[str, float] = {label: 0.0 for label in domain.labels}

    # -- state -------------------------------------------------------------

    @property
    def domain(self) -> AnswerDomain:
        """The (possibly grown) answer domain."""
        return self._domain

    @property
    def answers_received(self) -> int:
        return len(self._answers)

    @property
    def remaining_workers(self) -> int:
        return self._hired - len(self._answers)

    @property
    def trajectory(self) -> tuple[TrajectoryPoint, ...]:
        return tuple(self._trajectory)

    @property
    def best_confidence(self) -> float:
        """The best answer's confidence after the latest arrival (needs
        ≥ 1 answer).  Stored by :meth:`submit`, so reading it costs no
        Equation 4 work; equal, bit for bit, to
        ``max(self.confidences().values())``."""
        if not self._trajectory:
            raise ValueError("no answers received yet")
        return self._trajectory[-1].best_confidence

    def snapshot(self) -> TerminationSnapshot:
        """The current :class:`TerminationSnapshot` (needs ≥ 1 answer)."""
        if not self._answers:
            raise ValueError("no answers received yet")
        return TerminationSnapshot(
            log_weights=dict(self._log_weights),
            domain=self._domain,
            remaining_workers=self.remaining_workers,
            mean_accuracy=self._mean_accuracy,
        )

    def confidences(self) -> dict[str, float]:
        """Theorem 6: Equation 4 over the partial observation Ω′."""
        return self.snapshot().current_confidences()

    # -- updates -----------------------------------------------------------

    def submit(self, answer: WorkerAnswer) -> TrajectoryPoint:
        """Fold in one arrival and return the refreshed state.

        Raises
        ------
        ValueError
            If more answers arrive than workers were hired — a market
            bookkeeping bug that must not pass silently.
        """
        if len(self._answers) >= self._hired:
            raise ValueError(
                f"received more answers than the {self._hired} hired workers"
            )
        if answer.answer not in self._domain.labels:
            self._domain = self._domain.with_label(answer.answer)
            self._answers.append(answer)
            # Domain growth re-estimates the effective m, which re-weights
            # every earlier vote — rebuild the sums under the new domain.
            self._log_weights = answer_log_weights(self._answers, self._domain)
        else:
            self._answers.append(answer)
            self._log_weights[answer.answer] += worker_confidence(
                answer.accuracy, self._domain.m
            )
        # Equation 4 on the running sums themselves: the dict, in label
        # order, that a snapshot() would copy and evaluate, whose checks
        # hold here by construction.
        confidences = confidences_from_log_weights(self._log_weights, self._domain)
        best = max(self._domain.labels, key=lambda lab: confidences[lab])
        point = TrajectoryPoint(
            answers_received=len(self._answers),
            best_answer=best,
            best_confidence=confidences[best],
            confidences=confidences,
        )
        self._trajectory.append(point)
        return point

    def should_terminate(self) -> bool:
        """Whether to stop now (strategy fired, or nothing outstanding)."""
        if self.remaining_workers <= 0:
            return True
        if self._strategy is None or not self._answers:
            return False
        return self._strategy.should_stop(self.snapshot())

    def verdict(self) -> Verdict:
        """The current best answer as a :class:`Verdict`."""
        confidences = self.confidences()
        best = max(self._domain.labels, key=lambda lab: confidences[lab])
        return Verdict(
            answer=best,
            confidence=confidences[best],
            scores=confidences,
            method="verification-online",
        )


def run_online(
    answers: Observation,
    domain: AnswerDomain,
    mean_accuracy: float,
    strategy: TerminationStrategy | None = None,
    hired_workers: int | None = None,
) -> OnlineResult:
    """Drive a question end-to-end: feed ``answers`` in order until stopping.

    Parameters
    ----------
    answers:
        The full answer sequence in arrival order (the simulator provides
        it; in production it would stream from the market).
    domain, mean_accuracy, strategy:
        See :class:`OnlineAggregator`.
    hired_workers:
        Defaults to ``len(answers)`` — i.e. every hired worker eventually
        replies, the setting of the paper's Figures 11-13.
    """
    hired = hired_workers if hired_workers is not None else len(answers)
    if hired < len(answers):
        raise ValueError(
            f"{len(answers)} answers exceed the {hired} hired workers"
        )
    if not answers:
        raise ValueError("cannot run online aggregation without any answers")
    aggregator = OnlineAggregator(domain, hired, mean_accuracy, strategy)
    used = 0
    for wa in answers:
        aggregator.submit(wa)
        used += 1
        if aggregator.should_terminate():
            break
    return OnlineResult(
        verdict=aggregator.verdict(),
        answers_used=used,
        terminated_early=used < hired,
        trajectory=aggregator.trajectory,
    )
