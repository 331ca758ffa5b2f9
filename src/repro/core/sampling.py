"""Gold-sampling worker-accuracy estimation (paper §3.3, Algorithm 4).

Crowd platforms do not expose usable per-worker accuracies: AMT's approval
rate diverges badly from task accuracy (paper Figure 14).  CDAS therefore
embeds *testing samples* — questions with known ground truth — into every
HIT: a fraction ``α`` of the ``B`` questions are gold, the rest are real
work.  A worker's accuracy estimate is their fraction of correct gold
answers, optionally pooled across HITs and smoothed.

This module owns three things:

* :func:`compose_hit_questions` — the αB/(1-α)B interleaving of gold and
  real questions, shuffled so workers cannot spot the samples.
* :class:`WorkerAccuracyEstimator` — incremental per-worker tallies with
  Laplace smoothing and a population-mean fallback for unseen workers
  (exactly what §4.2's online model needs for workers who have not yet
  answered a gold question).
* :func:`score_gold_answers` — Algorithm 4: fold one HIT's submissions into
  the estimator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_SAMPLING_RATE",
    "GoldQuestion",
    "SampledQuestion",
    "compose_hit_questions",
    "WorkerAccuracyEstimator",
    "score_gold_answers",
]

#: The paper's deployment uses α = 0.2 (and finds ≥ 20 % necessary for the
#: verification model to meet its requirement in Figure 16).
DEFAULT_SAMPLING_RATE = 0.2


@dataclass(frozen=True, slots=True)
class GoldQuestion:
    """A testing sample: a question whose true answer is known upfront."""

    question_id: str
    truth: str


@dataclass(frozen=True, slots=True)
class SampledQuestion:
    """One slot of a composed HIT: a payload question or a gold probe."""

    question_id: str
    payload: object
    is_gold: bool
    truth: str | None = None

    def __post_init__(self) -> None:
        if self.is_gold and self.truth is None:
            raise ValueError(f"gold question {self.question_id!r} lacks a truth")
        if not self.is_gold and self.truth is not None:
            raise ValueError(
                f"non-gold question {self.question_id!r} must not carry a truth"
            )


def compose_hit_questions(
    real_questions: Sequence[tuple[str, object]],
    gold_pool: Sequence[GoldQuestion],
    sampling_rate: float,
    rng: np.random.Generator,
) -> list[SampledQuestion]:
    """Interleave gold probes into a HIT at rate ``α`` (§3.3).

    For ``B`` real questions, ``round(α·B / (1-α))`` gold probes are drawn
    without replacement from ``gold_pool`` so that gold makes up an ``α``
    fraction of the composed HIT, and the combined list is shuffled.

    Parameters
    ----------
    real_questions:
        ``(question_id, payload)`` pairs of actual work.
    gold_pool:
        Available ground-truthed probes; must be large enough.
    sampling_rate:
        ``α ∈ [0, 1)``; 0 disables sampling.
    rng:
        Source of shuffle/draw randomness (a :mod:`repro.util.rng` substream).
    """
    if not 0.0 <= sampling_rate < 1.0:
        raise ValueError(f"sampling rate must be in [0, 1), got {sampling_rate}")
    b = len(real_questions)
    gold_count = round(sampling_rate * b / (1.0 - sampling_rate)) if b else 0
    if gold_count > len(gold_pool):
        raise ValueError(
            f"need {gold_count} gold questions but the pool has {len(gold_pool)}"
        )
    chosen = (
        [gold_pool[i] for i in rng.choice(len(gold_pool), size=gold_count, replace=False)]
        if gold_count
        else []
    )
    slots: list[SampledQuestion] = [
        SampledQuestion(question_id=qid, payload=payload, is_gold=False)
        for qid, payload in real_questions
    ]
    slots.extend(
        SampledQuestion(
            question_id=g.question_id, payload=g, is_gold=True, truth=g.truth
        )
        for g in chosen
    )
    order = rng.permutation(len(slots))
    return [slots[i] for i in order]


@dataclass
class WorkerAccuracyEstimator:
    """Per-worker accuracy estimates from gold-question outcomes.

    Maintains ``(correct, total)`` tallies per worker.  The point estimate is
    Laplace-smoothed,

        â = (correct + s·p₀) / (total + s),

    where ``p₀`` is the prior accuracy and ``s`` the smoothing strength in
    pseudo-counts; with the default ``s = 0`` the estimator is exactly the
    paper's raw rate from Algorithm 4.  Unseen workers fall back to the
    population prior, mirroring §4.2's treatment of not-yet-profiled
    workers.

    Attributes
    ----------
    prior_accuracy:
        ``p₀`` — fallback and smoothing target.  Defaults to 0.5, the
        no-information logit midpoint.
    smoothing:
        ``s`` — pseudo-count mass pulled toward the prior.
    """

    prior_accuracy: float = 0.5
    smoothing: float = 0.0
    _correct: dict[str, int] = field(default_factory=dict, repr=False)
    _total: dict[str, int] = field(default_factory=dict, repr=False)
    #: Each known worker's current estimate, in ``_total``'s insertion
    #: order: stored by :meth:`record`, so reading an estimate or ``μ``
    #: re-derives nothing.  Derived state: rebuilt from the tallies at
    #: construction and when an older pickle lacks it.
    _estimates: dict[str, float] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.prior_accuracy <= 1.0:
            raise ValueError(f"prior accuracy {self.prior_accuracy} not in [0, 1]")
        if self.smoothing < 0.0:
            raise ValueError(f"smoothing must be non-negative, got {self.smoothing}")
        self._rebuild_estimates()

    def __setstate__(self, state: dict[str, object]) -> None:
        # A pickle written before the stored estimates existed lacks them.
        self.__dict__.update(state)
        if "_estimates" not in state:
            self._rebuild_estimates()

    def _rebuild_estimates(self) -> None:
        self._estimates = {
            worker_id: self._estimate(self._correct.get(worker_id, 0), total)
            for worker_id, total in self._total.items()
        }

    def _estimate(self, correct: int, total: int) -> float:
        """``â = (correct + s·p₀) / (total + s)`` — the one formula."""
        return (correct + self.smoothing * self.prior_accuracy) / (
            total + self.smoothing
        )

    def record(self, worker_id: str, correct: bool) -> None:
        """Fold one gold-question outcome into the worker's tally."""
        hits = self._correct.get(worker_id, 0) + (1 if correct else 0)
        total = self._total.get(worker_id, 0) + 1
        self._correct[worker_id] = hits
        self._total[worker_id] = total
        self._estimates[worker_id] = self._estimate(hits, total)

    def observations(self, worker_id: str) -> int:
        """How many gold outcomes have been recorded for the worker."""
        return self._total.get(worker_id, 0)

    def accuracy(self, worker_id: str) -> float:
        """Point estimate ``â`` for the worker (prior if never seen)."""
        estimate = self._estimates.get(worker_id)
        if estimate is not None:
            return estimate
        if self.smoothing == 0.0:
            return self.prior_accuracy
        return self._estimate(0, 0)

    def known_workers(self) -> list[str]:
        """Workers with at least one recorded gold outcome, insertion order."""
        return list(self._total.keys())

    def mean_accuracy(self) -> float:
        """Mean of the per-worker estimates (prior when nobody was seen).

        This is the ``μ`` the prediction model consumes.  It sums the
        stored estimates in ``_total``'s order — the floats, and the
        order, a per-worker :meth:`accuracy` walk would sum.
        """
        estimates = self._estimates
        if not estimates:
            return self.prior_accuracy
        return sum(estimates.values()) / len(estimates)

    def as_mapping(self) -> dict[str, float]:
        """Snapshot of all known workers' estimates."""
        return dict(self._estimates)


def score_gold_answers(
    questions: Sequence[SampledQuestion],
    answers_by_worker: Mapping[str, Mapping[str, str]],
    estimator: WorkerAccuracyEstimator,
) -> dict[str, float]:
    """Algorithm 4: update ``estimator`` from one HIT's submissions.

    Parameters
    ----------
    questions:
        The composed HIT (real + gold slots).
    answers_by_worker:
        ``worker_id -> {question_id -> answer}`` for every submitted
        assignment.  Workers may skip questions; only answered gold slots
        count toward their tally.
    estimator:
        Mutated in place.

    Returns
    -------
    The post-update accuracy estimates of the scored workers.
    """
    gold = [q for q in questions if q.is_gold]
    for worker_id, sheet in answers_by_worker.items():
        for q in gold:
            if q.question_id in sheet:
                estimator.record(worker_id, sheet[q.question_id] == q.truth)
    return {w: estimator.accuracy(w) for w in answers_by_worker}
