"""The simulated Mechanical-Turk market.

:class:`SimulatedMarket` is the substrate standing in for AMT (see
DESIGN.md §2).  It reproduces the observable behaviour the paper's engine
depends on and nothing more:

* ``publish(hit)`` broadcasts a HIT; ``n`` random pool workers accept.
* Each accepted assignment is completed according to the worker's
  behaviour model and submitted after a sampled latency — so submissions
  arrive asynchronously and out of publication order.
* Collected assignments are charged ``m_c + m_s`` each; cancelling a HIT's
  outstanding assignments (early termination, §4.2.2 footnote 3) avoids
  their cost entirely.

Everything is pre-generated at publish time from the market seed, so a
given ``(pool, seed, HIT)`` triple always produces the same workers, the
same answers and the same arrival order, regardless of how the engine
interleaves its pulls.

Publishing takes one of two paths with one observable behaviour
(DESIGN.md §11):

* :meth:`SimulatedMarket.publish_reference` is the straight-line scalar
  oracle — one private generator per worker substream, one behaviour
  dispatch per question.  It *defines* the market's draw sequences and
  stays the bit-identity reference for tests.
* :meth:`SimulatedMarket.publish` is the lean scalar lane every publish
  takes: the same generators and draws in the same order, with
  per-question facts read once per HIT, the behaviour resolved once per
  worker, and no ``Generator.choice`` call for a one-keyword reason
  pool, where it would draw nothing.

:class:`SimulatedMarket` is the reference implementation of the
:class:`repro.amt.backend.MarketBackend` protocol (and its handles of
:class:`repro.amt.backend.HITHandle`); the engine depends only on that
protocol, never on this class.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.amt.hit import HIT, Assignment, validate_assignment
from repro.amt.latency import LatencyModel, LognormalLatency
from repro.amt.pool import WorkerPool
from repro.amt.pricing import CostLedger, PriceSchedule
from repro.amt.worker import WorkerProfile, _reasons_for, behaviour_for
from repro.util.rng import derive_seed, substream

__all__ = ["PublishedHIT", "SimulatedMarket"]

# Worker behaviour tiers, resolved once per profile (see ``_answer_lane``).
_T_RELIABLE = 0
_T_SPAMMER = 1
_T_COLLUDER = 2
_T_UNKNOWN = 3

_SUBMIT_KEY = attrgetter("submit_time")


@dataclass
class PublishedHIT:
    """Handle to one in-flight HIT: pull submissions, or cancel the rest.

    Submissions are yielded in arrival-time order.  Every pulled
    assignment is charged to the market ledger at pull time (AMT charges on
    collection); :meth:`cancel` forfeits — and therefore never pays for —
    whatever has not been pulled yet.

    A drained or cancelled handle drops its assignments: the cursor still
    counts what was collected, and nothing else reads them again.  The
    worker profiles stay, for :meth:`worker_profile` reads after the last
    pull.
    """

    hit: HIT
    workers: tuple[WorkerProfile, ...]
    _assignments: tuple[Assignment, ...]
    _ledger: CostLedger
    _cursor: int = 0
    _cancelled: bool = False

    def __post_init__(self) -> None:
        self._profiles = {profile.worker_id: profile for profile in self.workers}

    @property
    def collected(self) -> int:
        """Assignments pulled (and paid) so far."""
        return self._cursor

    @property
    def outstanding(self) -> int:
        """Assignments still pending (0 once drained or cancelled)."""
        if self.done:
            return 0
        return len(self._assignments) - self._cursor

    @property
    def done(self) -> bool:
        return self._cancelled or self._cursor >= len(self._assignments)

    def peek_time(self) -> float | None:
        """Arrival time of the next submission, without collecting it.

        Free of side effects — nothing is consumed and nothing is charged —
        so event mergers (:class:`repro.amt.backend.EventPump`) can order
        concurrent HITs' submissions before committing to (and paying for)
        a pull.  ``None`` when the HIT is drained or cancelled.
        """
        if self.done:
            return None
        return self._assignments[self._cursor].submit_time

    def next_arrival_eta(self) -> float | None:
        """Wall-clock wait before the next submission: always ``0.0``.

        Everything is pre-generated at publish time and arrival times are
        *simulated*, so a pending submission is collectable immediately —
        an async driver never sleeps on this backend.  ``None`` once the
        HIT is drained or cancelled (nothing further is coming).
        """
        return None if self.done else 0.0

    def next_submission(self) -> Assignment | None:
        """Collect (and pay for) the next submission, ``None`` when done."""
        if self.done:
            return None
        assignments = self._assignments
        assignment = assignments[self._cursor]
        self._cursor += 1
        if self._cursor == len(assignments):
            self._assignments = ()
        self._ledger.charge(self.hit.hit_id, 1)
        return assignment

    def collect_all(self) -> list[Assignment]:
        """Drain every remaining submission (no early termination)."""
        out = []
        while (assignment := self.next_submission()) is not None:
            out.append(assignment)
        return out

    def cancel(self) -> int:
        """Cancel outstanding assignments; returns how many were avoided."""
        avoided = self.outstanding
        if avoided:
            self._ledger.cancel(self.hit.hit_id, avoided)
        self._cancelled = True
        self._assignments = ()
        return avoided

    def __setstate__(self, state: dict) -> None:
        # Handles pickled while they still kept a done HIT's assignments
        # load in the released form.
        self.__dict__.update(state)
        if self.done:
            self._assignments = ()

    def worker_profile(self, worker_id: str) -> WorkerProfile:
        try:
            return self._profiles[worker_id]
        except KeyError:
            raise KeyError(
                f"worker {worker_id!r} did not accept HIT {self.hit.hit_id!r}"
            ) from None


# (options, truth, difficulty) → (wrongs, c1, c2): question templates recur
# across HITs far more often than they vary, so the derived per-question
# facts are shared process-wide (pure values, bounded by distinct shapes).
_QUESTION_FACTS: dict[tuple, tuple] = {}

# Interned topics tuples: HITs built from one question template share a
# single tuple object, so ``_accuracy_rows`` key comparisons reduce to
# identity.
_TOPICS_INTERN: dict[tuple, tuple] = {}


def _behaviour_tier(profile: WorkerProfile) -> int:
    """The profile's behaviour tier, cached per profile object."""
    behaviour = profile.behaviour
    if behaviour == "reliable":
        tier = _T_RELIABLE
    elif behaviour == "spammer":
        tier = _T_SPAMMER
    elif behaviour == "colluder":
        tier = _T_COLLUDER
    else:
        tier = _T_UNKNOWN  # _answer_lane lets behaviour_for raise
    return tier


class _HITMeta:
    """Per-HIT question facts the lean publish lane reads repeatedly."""

    __slots__ = (
        "questions",
        "qids",
        "options",
        "truth_dict",
        "wrongs",
        "reasons",
        "topics",
        "trivial",
        "c1",
        "c2",
    )

    def __init__(self, hit: HIT) -> None:
        questions = self.questions = hit.questions
        qids = self.qids = []
        options = self.options = []
        wrongs = self.wrongs = []
        # effective_accuracy as p = c1·a + c2 with per-question constants,
        # preserving the scalar op order ((1±d)·a) + (d/m or -d) exactly;
        # ``trivial`` marks the d == 0 everywhere case where p == a to the
        # last bit ((1−0)·a + 0/m ≡ a for a ≥ 0).
        c1 = self.c1 = []
        c2 = self.c2 = []
        reasons = self.reasons = []
        truths = []
        topics = []
        trivial = True
        facts_cache = _QUESTION_FACTS
        qid_push = qids.append
        opt_push = options.append
        truth_push = truths.append
        wrong_push = wrongs.append
        topic_push = topics.append
        c1_push = c1.append
        c2_push = c2.append
        for q in questions:
            opts = q.options
            truth = q.truth
            d = q.difficulty
            key = (opts, truth, d)
            facts = facts_cache.get(key)
            if facts is None:
                w = tuple(o for o in opts if o != truth)
                if d >= 0.0:
                    facts = (w, 1.0 - d, d / len(opts))
                else:
                    facts = (w, 1.0 + d, -d)
                facts_cache[key] = facts
            w = facts[0]
            qid_push(q.question_id)
            opt_push(opts)
            truth_push(truth)
            wrong_push(w)
            topic_push(q.topic)
            c1_push(facts[1])
            c2_push(facts[2])
            if d != 0.0:
                trivial = False
            reasons.append(q.reason_keywords)
        # Prototype all-correct answers dict, in the reference path's
        # insertion order; reliable lanes copy it and overwrite misses.
        self.truth_dict = dict(zip(qids, truths))
        t = tuple(topics)
        self.topics = _TOPICS_INTERN.setdefault(t, t)
        self.trivial = trivial


class SimulatedMarket:
    """AMT stand-in: broadcast HITs to a pool, collect priced submissions.

    Parameters
    ----------
    pool:
        The worker population.
    seed:
        Root seed; every published HIT derives private substreams from it.
    schedule:
        Per-assignment prices (``m_c``, ``m_s``).
    latency:
        Submission-latency model shaping the asynchronous arrival order.
    """

    def __init__(
        self,
        pool: WorkerPool,
        seed: int,
        schedule: PriceSchedule | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.pool = pool
        self._seed = seed
        self.schedule = schedule if schedule is not None else PriceSchedule()
        self.latency = latency if latency is not None else LognormalLatency()
        self.ledger = CostLedger(schedule=self.schedule)
        # HIT id → handle, or ``None`` once forgotten: the id stays, so a
        # republication still raises and ``published_hits`` still counts it.
        self._published: dict[str, PublishedHIT | None] = {}
        # (clique, question_id) → the colluders' agreed digest value.
        self._colluder_digests: dict[tuple[int, str], int] = {}
        # (worker_id, topics tuple) → per-question topic accuracies.
        self._accuracy_rows: dict[tuple[str, tuple], list[float]] = {}
        # id(profile) → behaviour tier.  Profiles live as long as the
        # pool (which outlives the market), so ids are stable keys.
        self._profile_info: dict[int, int] = {}

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # ``_profile_info`` is keyed by ``id(profile)``; after unpickling
        # the pool's profiles get fresh ids, and a recycled id could
        # silently alias a different worker.  Drop the cache — it refills
        # lazily and affects performance only, never draws.
        state = self.__dict__.copy()
        state["_profile_info"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        # A market pickled with its open-HIT stack drops it.
        state.pop("_maybe_open", None)
        self.__dict__.update(state)

    # -- publishing ----------------------------------------------------------

    def publish(self, hit: HIT) -> PublishedHIT:
        """Broadcast ``hit``; returns the handle streaming its submissions.

        The lean scalar lane: the same generators, draws and order as
        :meth:`publish_reference`, with the per-question facts read once
        from :class:`_HITMeta` and the answers drawn by
        :meth:`_answer_lane`.  Every engine publish comes through here,
        one HIT at a time (DESIGN.md §11).

        Raises
        ------
        ValueError
            If a HIT id is reused — silent republication would corrupt the
            ledger's per-HIT attribution — or a worker's behaviour is
            unknown (nothing is registered then).
        """
        hit_id = hit.hit_id
        if hit_id in self._published:
            raise ValueError(f"HIT id {hit_id!r} already published")
        seed = self._seed
        workers = tuple(
            self.pool.sample(hit.assignments, substream(seed, f"accept:{hit_id}"))
        )
        meta = _HITMeta(hit)
        latency_sample = self.latency.sample
        assignments = []
        for position, profile in enumerate(workers):
            worker_id = profile.worker_id
            answer_seed = derive_seed(seed, f"answers:{hit_id}:{worker_id}")
            answers, keywords = self._answer_lane(
                meta, profile, substream(answer_seed, "answers")
            )
            # Position epsilon breaks exact latency ties deterministically.
            submit_time = (
                latency_sample(substream(answer_seed, "latency")) + position * 1e-9
            )
            # validate_assignment is skipped: answers are drawn from each
            # question's own options by construction.
            assignments.append(
                Assignment(
                    hit_id=hit_id,
                    worker_id=worker_id,
                    answers=answers,
                    keywords=keywords,
                    submit_time=submit_time,
                )
            )
        assignments.sort(key=_SUBMIT_KEY)
        handle = self._published[hit_id] = PublishedHIT(
            hit=hit,
            workers=workers,
            _assignments=tuple(assignments),
            _ledger=self.ledger,
        )
        return handle

    def publish_reference(self, hit: HIT) -> PublishedHIT:
        """The scalar reference publish: defines the market's draw sequences.

        One private generator per ``accept:<hit>`` / ``answers:…`` /
        ``latency:…`` substream, one python draw per worker per question.
        :meth:`publish` must reproduce its output bit-for-bit;
        ``tests/test_market_publish_lane.py`` holds it to that.
        """
        if hit.hit_id in self._published:
            raise ValueError(f"HIT id {hit.hit_id!r} already published")
        assign_rng = substream(self._seed, f"accept:{hit.hit_id}")
        workers = tuple(self.pool.sample(hit.assignments, assign_rng))

        assignments = []
        for position, profile in enumerate(workers):
            answer_seed = derive_seed(self._seed, f"answers:{hit.hit_id}:{profile.worker_id}")
            answer_rng = substream(answer_seed, "answers")
            latency_rng = substream(answer_seed, "latency")
            behaviour = behaviour_for(profile)
            answers: dict[str, str] = {}
            keywords: dict[str, tuple[str, ...]] = {}
            for question in hit.questions:
                chosen, reasons = behaviour.answer(profile, question, answer_rng)
                answers[question.question_id] = chosen
                if reasons:
                    keywords[question.question_id] = reasons
            # Position epsilon breaks exact latency ties deterministically.
            submit_time = self.latency.sample(latency_rng) + position * 1e-9
            assignment = Assignment(
                hit_id=hit.hit_id,
                worker_id=profile.worker_id,
                answers=answers,
                keywords=keywords,
                submit_time=submit_time,
            )
            validate_assignment(hit, assignment)
            assignments.append(assignment)

        assignments.sort(key=lambda a: a.submit_time)
        handle = self._published[hit.hit_id] = PublishedHIT(
            hit=hit,
            workers=workers,
            _assignments=tuple(assignments),
            _ledger=self.ledger,
        )
        return handle

    def publish_many(self, hits) -> list[PublishedHIT]:
        """Publish ``hits`` in order through :meth:`publish`."""
        return [self.publish(hit) for hit in hits]

    def _colluder_row(self, meta: _HITMeta, clique: int) -> dict[str, str]:
        """The clique's agreed wrong answers — pure hashing, cached.

        Callers share one cached dict per (HIT, clique) and hand each
        assignment its own shallow copy, matching the reference path's
        fresh-dict-per-worker object graph.
        """
        digests = self._colluder_digests
        row: dict[str, str] = {}
        for q, qid in enumerate(meta.qids):
            key = (clique, qid)
            value = digests.get(key)
            if value is None:
                value = int.from_bytes(
                    hashlib.sha256(f"{clique}:{qid}".encode("utf-8")).digest()[:4],
                    "big",
                )
                digests[key] = value
            row[qid] = meta.wrongs[q][value % len(meta.wrongs[q])]
        return row

    def _answer_lane(
        self, meta: _HITMeta, profile: WorkerProfile, rng: np.random.Generator
    ) -> tuple[dict[str, str], dict[str, tuple[str, ...]]]:
        """One worker's answers and keywords, drawn exactly as the reference.

        ``rng`` must sit at the worker's ``answers`` substream origin; the
        draws are :meth:`publish_reference`'s, question by question, with
        the behaviour resolved once per lane.  A correct answer to a
        one-keyword pool attaches the pool without the ``choice`` call
        that would draw nothing; larger pools draw through
        ``_reasons_for``.  An unknown behaviour raises ``behaviour_for``'s
        ``ValueError`` before any draw.
        """
        tier = self._profile_info.get(id(profile))
        if tier is None:
            tier = self._profile_info[id(profile)] = _behaviour_tier(profile)
        if tier == _T_COLLUDER:
            return dict(self._colluder_row(meta, profile.clique)), {}
        qids = meta.qids
        if tier == _T_SPAMMER:
            integers = rng.integers
            return {
                qid: opts[integers(len(opts))]
                for qid, opts in zip(qids, meta.options)
            }, {}
        if tier != _T_RELIABLE:
            behaviour_for(profile)  # raises: the behaviour is unknown
        key = (profile.worker_id, meta.topics)
        p_row = self._accuracy_rows.get(key)
        if p_row is None:
            p_row = [profile.topic_accuracy(t) for t in meta.topics]
            self._accuracy_rows[key] = p_row
        if not meta.trivial:
            # effective_accuracy's ((1±d)·a) + (d/m or −d), op for op.
            p_row = [c1 * a + c2 for c1, a, c2 in zip(meta.c1, p_row, meta.c2)]
        random = rng.random
        integers = rng.integers
        answers = meta.truth_dict.copy()
        keywords: dict[str, tuple[str, ...]] = {}
        for q, (qid, pool) in enumerate(zip(qids, meta.reasons)):
            if random() < p_row[q]:
                if not pool:
                    continue
                if len(pool) == 1:
                    keywords[qid] = pool
                else:
                    question = meta.questions[q]
                    keywords[qid] = _reasons_for(question, question.truth, rng)
            else:
                # integers(1) draws nothing, so one wrong option is taken
                # as is (tests/test_market_publish_lane.py pins the fact).
                wrong = meta.wrongs[q]
                answers[qid] = wrong[integers(len(wrong))] if len(wrong) > 1 else wrong[0]
        return answers, keywords

    # -- introspection -------------------------------------------------------

    def next_arrival_eta(self) -> float | None:
        """``0.0`` while any published HIT still has submissions pending
        (virtual time — collectable immediately), else ``None``.

        Scans every handle not forgotten; the pump reads its handles'
        ETAs (:class:`~repro.amt.backend.EventPump`), not this.
        """
        for handle in self._published.values():
            if handle is not None and not handle.done:
                return 0.0
        return None

    def handle(self, hit_id: str) -> PublishedHIT:
        handle = self._published.get(hit_id)
        if handle is None:
            fate = "forgotten" if hit_id in self._published else "never published"
            raise KeyError(f"HIT {hit_id!r} was {fate}")
        return handle

    def forget(self, hit_ids: Iterable[str]) -> None:
        """Let go of done HITs' handles, keeping only their ids.

        A service calls this for a query it released (DESIGN.md §7): the
        query's sessions, which held the handles, are gone, and nothing
        reads them here.  :attr:`published_hits` still counts each HIT,
        republishing its id still raises, and :meth:`handle` raises
        ``KeyError`` for it.  The blocking paths never call this.
        """
        published = self._published
        for hit_id in hit_ids:
            published[hit_id] = None

    @property
    def published_hits(self) -> int:
        return len(self._published)
