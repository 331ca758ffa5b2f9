"""Per-HIT state machine: plan → publish → collect → verify.

:class:`HITSession` is one batch's journey through Algorithm 1 + 5,
re-expressed as an event consumer: where the old engine drove a blocking
``while next_submission()`` loop, a session is *stepped* one
:class:`~repro.amt.backend.SubmissionEvent` at a time by the scheduler, so
many sessions can interleave on a single merged arrival stream.

The session owns everything that is per-HIT — the composed questions, the
vote log, the termination strategy, the final records — and borrows
everything that is engine-wide (worker-accuracy estimator, config, privacy
manager, HIT-id counter) from its :class:`~repro.engine.engine.CrowdsourcingEngine`.
The vote log lives only until the HIT is verified: a sealed session
keeps its records and, per question, whether it was answered.
Stepping a session performs *exactly* the operations of the legacy blocking
loop in the same order, which is what keeps ``run_batch`` (now a one-session
scheduler run) bit-for-bit identical to the pre-scheduler engine.

When ``track_trajectories`` is set, the session additionally exposes live
confidences and full §4.2 trajectories from a per-question
:class:`~repro.core.online.OnlineAggregator` (Algorithm 5) while the HIT is
still collecting.  An arrival only logs its worker, accuracy, submit
time and the answers and keywords of the real questions; the
aggregators are built on the first read (with the publish-time ``μ``) and
each read folds the arrivals logged since the last one into them, in
arrival order — so a session nobody reads pays no Equation 4 work, and a
read returns exactly what feeding every arrival as it came would have.
The log freezes each vote's worker accuracy at arrival time; the
authoritative verdicts instead re-read the estimator at verification time
(so later gold evidence retroactively re-weights early votes, and flagged
workers drop out) — identical to the legacy behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING

from repro.amt.backend import HITHandle
from repro.amt.hit import HIT, Assignment, Question
from repro.core.confidence import answer_log_weights
from repro.core.domain import AnswerDomain
from repro.core.online import OnlineAggregator, TrajectoryPoint
from repro.core.termination import TerminationSnapshot, strategy_by_name
from repro.core.types import WorkerAnswer
from repro.engine.engine import HITRunResult
from repro.util.rng import substream

if TYPE_CHECKING:
    from repro.engine.engine import CrowdsourcingEngine

__all__ = ["SessionState", "HITSession"]

#: A raw vote as logged by the session: (worker id, answer, reason keywords).
Vote = tuple[str, str, tuple[str, ...]]

#: One arrival in a tracked session's fold log: (worker id, accuracy at
#: arrival, submit time, then the answer — ``None`` if none — and the
#: reason keywords for each real question in HIT order).
Arrival = tuple[
    str, float, float, tuple[str | None, ...], tuple[tuple[str, ...], ...]
]


class SessionState(Enum):
    """Lifecycle of a session (monotone, left to right)."""

    PLANNED = "planned"
    COLLECTING = "collecting"
    DONE = "done"


class HITSession:
    """One batch's plan → publish → collect → verify lifecycle.

    Parameters
    ----------
    engine:
        The engine whose policy (config, estimator, privacy) governs this
        session.  Sessions share the engine's estimator, so gold evidence
        collected by one in-flight HIT immediately sharpens the accuracy
        estimates every other session verifies with.
    real_questions:
        The batch's actual work items.
    required_accuracy:
        The query's ``C``; drives worker-count prediction when
        ``worker_count`` is not forced.
    gold_pool:
        Gold probes available for §3.3 injection.
    worker_count:
        Force ``n`` instead of asking the prediction model.
    track_trajectories:
        Serve per-question :class:`OnlineAggregator` confidences and
        trajectories while collecting (off by default).  Arrivals are
        logged and folded into the aggregators only when a read asks.
    """

    def __init__(
        self,
        engine: "CrowdsourcingEngine",
        real_questions: Sequence[Question],
        required_accuracy: float,
        gold_pool: Sequence[Question] = (),
        worker_count: int | None = None,
        track_trajectories: bool = False,
    ) -> None:
        if not real_questions:
            raise ValueError("cannot run an empty batch")
        self._engine = engine
        self._input_questions = tuple(real_questions)
        self._required_accuracy = required_accuracy
        self._gold_pool = tuple(gold_pool)
        self._worker_count = worker_count
        self._track = track_trajectories
        self.state = SessionState.PLANNED
        self.handle: HITHandle | None = None
        self.result: HITRunResult | None = None
        self._hit: HIT | None = None
        self._real: list[Question] = []
        # Each real question's votes while collecting; once sealed, only
        # whether it was answered (the verdicts live in ``result``).
        self._votes: dict[str, list[Vote]] | dict[str, bool] = {}
        # Tracked sessions only: the publish-time μ, the per-question
        # aggregators (built by the first read) and the arrivals, each with
        # its worker's accuracy at arrival, not yet folded into them.
        self._mean_accuracy: float | None = None
        self._aggregators: dict[str, OnlineAggregator] = {}
        self._unfolded: list[Arrival] = []
        self._strategy = (
            strategy_by_name(engine.config.termination)
            if engine.config.termination is not None
            else None
        )
        self._collected = 0
        self._terminated_early = False

    # -- state ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state is SessionState.DONE

    @property
    def hit_id(self) -> str:
        if self._hit is None:
            raise ValueError("session not published yet")
        return self._hit.hit_id

    @property
    def assignments_collected(self) -> int:
        return self._collected

    @property
    def questions_answered(self) -> int:
        """Real questions with at least one collected vote.

        Monotone over the session's lifetime (votes only accumulate), so
        the service layer can report query progress from it while the HIT
        is still collecting.
        """
        return sum(1 for votes in self._votes.values() if votes)

    def live_best_confidences(self) -> tuple[float, ...]:
        """Best-answer confidence per answered question, from the live
        :class:`OnlineAggregator`\\ s (empty without ``track_trajectories``
        — callers degrade to finalized verdicts only).  Each is the value
        the aggregator stored at its latest arrival, not a recomputation."""
        if not self._track:
            return ()
        aggregators = self._folded()
        return tuple(
            aggregators[qid].best_confidence
            for qid, votes in self._votes.items()
            if votes
        )

    # -- plan + publish ------------------------------------------------------

    def publish(self) -> HITHandle:
        """Phase 1: compose, predict ``n``, publish; returns the handle.

        Replays the legacy engine's exact call sequence: the compose RNG is
        the ``compose:<counter>`` substream of the engine seed *before* the
        counter is consumed by the HIT id.
        """
        if self.state is not SessionState.PLANNED:
            raise ValueError(f"cannot publish a session in state {self.state.value!r}")
        engine = self._engine
        rng = substream(engine.seed, f"compose:{engine.hit_counter}")
        questions = engine.compose_questions(
            self._input_questions, self._gold_pool, rng
        )
        n = (
            self._worker_count
            if self._worker_count is not None
            else engine.predict_workers(self._required_accuracy)
        )
        self._hit = HIT(
            hit_id=engine.next_hit_id("hit"),
            questions=questions,
            assignments=n,
        )
        self.handle = engine.market.publish(self._hit)
        self._real = [q for q in questions if not q.is_gold]
        self._votes = {q.question_id: [] for q in self._real}
        if self._track:
            # μ as it stands at publish; the aggregators that use it are
            # built by the first read.
            self._mean_accuracy = engine.mean_accuracy()
        self.state = SessionState.COLLECTING
        return self.handle

    # -- collect -------------------------------------------------------------

    def on_submission(self, assignment: Assignment) -> None:
        """Step the state machine with one arrived assignment.

        Mirrors one iteration of the legacy blocking loop: count the
        collection, apply the privacy screen, score gold, log votes, then
        evaluate the termination rule (cancelling the handle's outstanding
        assignments when it fires).  Transitions to ``DONE`` — finalising
        verdicts — once the handle has nothing left to deliver.
        """
        if self.state is not SessionState.COLLECTING:
            raise ValueError(f"cannot step a session in state {self.state.value!r}")
        assert self.handle is not None and self._hit is not None
        engine = self._engine
        self._collected += 1
        allowed = True
        if engine.privacy is not None:
            profile = self.handle.worker_profile(assignment.worker_id)
            allowed = engine.privacy.worker_allowed(profile)
        if allowed:
            engine.score_gold(
                self._hit.questions, assignment.worker_id, assignment.answers
            )
            # Scored above and untouched below: one accuracy read serves
            # every question this assignment answered.
            accuracy = engine.estimator.accuracy(assignment.worker_id)
            hired = self._hit.assignments
            for q in self._real:
                answer = assignment.answers.get(q.question_id)
                if answer is None:
                    continue
                votes = self._votes[q.question_id]
                votes.append(
                    (
                        assignment.worker_id,
                        answer,
                        assignment.keywords.get(q.question_id, ()),
                    )
                )
                if len(votes) > hired or answer not in q.options:
                    _reject_arrival(q, answer, len(votes), hired)
            if self._track:
                self._unfolded.append(_logged(assignment, accuracy, self._real))
            # not self._terminated_early: once the rule fired and we
            # cancelled, never re-evaluate or re-cancel (the legacy loop
            # broke out immediately; a misbehaving handle delivering
            # post-cancel events must not diverge from that).
            if (
                self._strategy is not None
                and not self._terminated_early
                and self._all_questions_stable()
            ):
                self.handle.cancel()
                self._terminated_early = True
        if self.handle.done:
            self._finish()
            self._release_votes()

    def _all_questions_stable(self) -> bool:
        """Early-termination gate: every real question's rule must hold."""
        engine = self._engine
        assert self.handle is not None
        if self._strategy is None:
            return False
        mean_acc = engine.mean_accuracy()
        outstanding = self.handle.outstanding
        for q in self._real:
            observation = engine.observation_of(self._votes[q.question_id])
            if len(observation) < engine.config.min_answers_before_termination:
                return False
            domain = AnswerDomain.closed(q.options)
            snapshot = TerminationSnapshot(
                log_weights=answer_log_weights(observation, domain),
                domain=domain,
                remaining_workers=outstanding,
                mean_accuracy=mean_acc,
            )
            if not self._strategy.should_stop(snapshot):
                return False
        return True

    def seal(self) -> None:
        """Finalize a collecting session whose handle is already done.

        The normal path finishes inside :meth:`on_submission` when the
        final event is processed.  A live backend, however, can complete a
        handle *without* delivering another event — HIT expiry, external
        cancellation — leaving the session collecting with nothing left to
        pump.  Sealing verifies whatever was collected (zero votes yield
        explicit abstentions, like the all-privacy-rejected case).
        """
        if self.state is SessionState.DONE:
            return
        if self.state is not SessionState.COLLECTING:
            raise ValueError(f"cannot seal a session in state {self.state.value!r}")
        assert self.handle is not None
        if not self.handle.done:
            raise ValueError("cannot seal a session whose handle is still delivering")
        self._finish()
        self._release_votes()

    # -- live view (Algorithm 5 reuse) ---------------------------------------

    def confidences(self, question_id: str) -> dict[str, float]:
        """Live per-answer confidences for one question (needs tracking)."""
        return self._aggregator_for(question_id).confidences()

    def trajectory(self, question_id: str) -> tuple[TrajectoryPoint, ...]:
        """The question's §4.2 arrival trajectory so far (needs tracking)."""
        return self._aggregator_for(question_id).trajectory

    def _aggregator_for(self, question_id: str) -> OnlineAggregator:
        if not self._track:
            raise ValueError("session was created with track_trajectories=False")
        try:
            return self._folded()[question_id]
        except KeyError:
            raise KeyError(f"no real question {question_id!r} in this HIT") from None

    def _folded(self) -> dict[str, OnlineAggregator]:
        """The per-question aggregators, fed every arrival logged so far.

        Built on the first read of a published session, from the
        publish-time ``μ``; every read then folds the logged arrivals, in
        arrival order and each to the real questions in HIT order, exactly
        as feeding them one by one on arrival would have.  A session not
        yet published has no aggregators.
        """
        aggregators = self._aggregators
        if self.state is SessionState.PLANNED:
            return aggregators
        if not aggregators:
            assert self._hit is not None and self._mean_accuracy is not None
            hired = self._hit.assignments
            for q in self._real:
                aggregators[q.question_id] = OnlineAggregator(
                    domain=AnswerDomain.closed(q.options),
                    hired_workers=hired,
                    mean_accuracy=self._mean_accuracy,
                )
        for worker_id, accuracy, submit_time, answers, keywords in self._unfolded:
            for q, answer, reasons in zip(self._real, answers, keywords):
                if answer is None:
                    continue
                aggregators[q.question_id].submit(
                    WorkerAnswer(
                        worker_id=worker_id,
                        answer=answer,
                        accuracy=accuracy,
                        keywords=reasons,
                        timestamp=submit_time,
                    )
                )
        self._unfolded.clear()
        return aggregators

    def __setstate__(self, state: dict) -> None:
        # Sessions pickled before arrivals were logged carry aggregators
        # fed on arrival and neither the log nor the stored μ: they read
        # as fully folded.
        state.setdefault("_unfolded", [])
        state.setdefault("_mean_accuracy", None)
        self.__dict__.update(state)
        # Sessions pickled while the log held whole assignments, as
        # ``(assignment, accuracy)`` pairs, load in the compact form.
        self._unfolded = [
            _logged(*entry, self._real) if len(entry) == 2 else entry
            for entry in self._unfolded
        ]
        # Sealed sessions pickled while they still kept their vote lists
        # load in the released form.
        if self.state is SessionState.DONE:
            self._release_votes()

    # -- verify --------------------------------------------------------------

    def _finish(self) -> None:
        """Phase 2 epilogue: verify every real question and seal the result."""
        assert self._hit is not None
        engine = self._engine
        n = self._hit.assignments
        # Nothing touches the estimator while the HIT is verified, so each
        # worker's accuracy (or flag) is read once for all its questions.
        facts: dict[str, float | None] = {}
        records = tuple(
            engine.finalize_question(q, self._votes[q.question_id], facts)
            for q in self._real
        )
        self.result = HITRunResult(
            hit_id=self._hit.hit_id,
            workers_hired=n,
            assignments_collected=self._collected,
            assignments_cancelled=n - self._collected,
            terminated_early=self._terminated_early,
            cost=engine.market.ledger.cost_of(self._hit.hit_id),
            records=records,
        )
        self.state = SessionState.DONE

    def _release_votes(self) -> None:
        """Drop the raw votes of a verified HIT, keeping which questions
        were answered: ``result`` holds everything verification made of
        them, and no read of a sealed session needs them again."""
        self._votes = {qid: bool(votes) for qid, votes in self._votes.items()}


def _logged(
    assignment: Assignment, accuracy: float, real: Sequence[Question]
) -> Arrival:
    """The tracked log's entry for one arrival: what the fold needs of the
    assignment, and nothing of its gold answers."""
    return (
        assignment.worker_id,
        accuracy,
        assignment.submit_time,
        tuple(assignment.answers.get(q.question_id) for q in real),
        tuple(assignment.keywords.get(q.question_id, ()) for q in real),
    )


def _reject_arrival(question: Question, answer: str, answered: int, hired: int) -> None:
    """Raise what :meth:`OnlineAggregator.submit` raises for the
    ``answered``-th answer to ``question`` when it exceeds the hired
    workers or falls outside the question's closed domain.  Raised at
    arrival, so a misbehaving backend still fails the step that delivered
    it, and a later fold can never fail half-way.
    """
    if answered > hired:
        raise ValueError(f"received more answers than the {hired} hired workers")
    # with_label raises for a closed domain, with the aggregator's message.
    AnswerDomain.closed(question.options).with_label(answer)
