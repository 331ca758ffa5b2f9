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

Publishing takes one of three paths with one observable behaviour
(DESIGN.md §11):

* :meth:`SimulatedMarket.publish_reference` is the straight-line scalar
  oracle — one private generator per worker substream, one behaviour
  dispatch per question.  It *defines* the market's draw sequences and
  stays the bit-identity reference for tests and benchmarks.
* :meth:`SimulatedMarket.publish` is the lean scalar lane every
  steady-state publish takes: the same generators and draws in the same
  order, with per-question facts read once per HIT, the behaviour
  resolved once per worker, and no ``Generator.choice`` call for a
  one-keyword reason pool, where it would draw nothing.
* :meth:`SimulatedMarket.publish_many` generates the same assignments for
  a whole batch of HITs with vectorised arithmetic
  (:mod:`repro.util.fastrng` replays NumPy's seeding + PCG64 pipeline
  over arrays of substream seeds), falling back per-worker to the lean
  lane or per-batch to the oracle whenever the vectorised
  word-consumption model cannot be applied.  Vectorisation batches
  *within* each worker's own substream, never across substreams, so
  draw sequences per named substream are untouched.

:class:`SimulatedMarket` is the reference implementation of the
:class:`repro.amt.backend.MarketBackend` protocol (and its handles of
:class:`repro.amt.backend.HITHandle`); the engine depends only on that
protocol, never on this class.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import exp as _exp
from operator import attrgetter
from time import perf_counter

import numpy as np

from repro.amt.hit import HIT, Assignment, validate_assignment
from repro.amt.latency import FixedLatency, LatencyModel, LognormalLatency
from repro.amt.pool import WorkerPool
from repro.amt.pricing import CostLedger, PriceSchedule
from repro.amt.worker import WorkerProfile, _reasons_for, behaviour_for
from repro.util import fastrng
from repro.util.rng import derive_seed, substream

__all__ = ["PublishedHIT", "SimulatedMarket"]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Worker tiers on the vectorised path (see ``_publish_batch``).
_T_RELIABLE = 0
_T_SPAMMER = 1
_T_COLLUDER = 2
_T_REPLAY = 3

_SUBMIT_KEY = attrgetter("submit_time")


@dataclass
class PublishedHIT:
    """Handle to one in-flight HIT: pull submissions, or cancel the rest.

    Submissions are yielded in arrival-time order.  Every pulled
    assignment is charged to the market ledger at pull time (AMT charges on
    collection); :meth:`cancel` forfeits — and therefore never pays for —
    whatever has not been pulled yet.
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
        """Assignments still pending (0 after cancel)."""
        if self._cancelled:
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
        assignment = self._assignments[self._cursor]
        self._cursor += 1
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
        return avoided

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

# Interned topics tuples: batches built from one question template share a
# single tuple object, so "same topics?" checks reduce to identity.
_TOPICS_INTERN: dict[tuple, tuple] = {}


def _profile_entry(profile: WorkerProfile) -> tuple[bytes, int]:
    """Encoded worker id + behaviour tier, cached per profile object."""
    behaviour = profile.behaviour
    if behaviour == "reliable":
        tier = _T_RELIABLE
    elif behaviour == "spammer":
        tier = _T_SPAMMER
    elif behaviour == "colluder":
        tier = _T_COLLUDER
    else:
        tier = _T_REPLAY  # behaviour_for raises, scalar-style
    return profile.worker_id.encode(), tier


class _HITMeta:
    """Per-HIT question facts both fast publish paths read repeatedly."""

    __slots__ = (
        "questions",
        "qids",
        "options",
        "truth_dict",
        "wrongs",
        "reasons",
        "keyword_dict",
        "topics",
        "draws_reasons",
        "trivial",
        "c1",
        "c2",
        "nw",
        "m",
        "count",
    )

    def __init__(self, hit: HIT) -> None:
        questions = self.questions = hit.questions
        self.count = len(questions)
        qids = self.qids = []
        options = self.options = []
        wrongs = self.wrongs = []
        # effective_accuracy as p = c1·a + c2 with per-question constants,
        # preserving the scalar op order ((1±d)·a) + (d/m or -d) exactly;
        # ``trivial`` marks the d == 0 everywhere case where p == a to the
        # last bit ((1−0)·a + 0/m ≡ a for a ≥ 0).
        c1 = self.c1 = []
        c2 = self.c2 = []
        nw = self.nw = []
        m = self.m = []
        reasons = self.reasons = []
        truths = []
        topics = []
        draws_reasons = False
        trivial = True
        facts_cache = _QUESTION_FACTS
        qid_push = qids.append
        opt_push = options.append
        truth_push = truths.append
        wrong_push = wrongs.append
        topic_push = topics.append
        nw_push = nw.append
        m_push = m.append
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
            nw_push(len(w))
            m_push(len(opts))
            c1_push(facts[1])
            c2_push(facts[2])
            if d != 0.0:
                trivial = False
            pool = q.reason_keywords
            reasons.append(pool)
            if len(pool) > 1:
                draws_reasons = True
        # Prototype all-correct answers dict, in the reference path's
        # insertion order; reliable lanes copy it and overwrite misses.
        self.truth_dict = dict(zip(qids, truths))
        # Likewise the all-correct keywords dict when no pool draws: a
        # one-keyword pool's rng.choice(1, size=1, replace=False) consumes
        # nothing (tests/test_fastrng.py pins it), so a correct answer
        # attaches the pool as-is.  Reliable lanes copy it and drop misses.
        self.keyword_dict = {qid: pool for qid, pool in zip(qids, reasons) if pool}
        t = tuple(topics)
        self.topics = _TOPICS_INTERN.setdefault(t, t)
        self.draws_reasons = draws_reasons
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
        self._published: dict[str, PublishedHIT] = {}
        # Open-HIT stack behind next_arrival_eta: a handle is popped (once,
        # amortised O(1)) when observed done; ``done`` is monotone.
        self._maybe_open: list[PublishedHIT] = []
        # One shared generator re-pointed at any substream via a state
        # transplant (~2µs) instead of a fresh Generator construction
        # (~25µs) — the single biggest scalar-path cost.
        # cdas-lint: disable=CDAS001 scratch PCG64 state is transplanted from a named substream before every draw; its construction seed is never observed, so replay stays bit-identical
        self._scratch_bg = np.random.PCG64()
        self._scratch_gen = np.random.Generator(self._scratch_bg)
        # (clique, question_id) → the colluders' agreed digest value.
        self._colluder_digests: dict[tuple[int, str], int] = {}
        # (worker_id, topics tuple) → per-question topic accuracies.
        self._accuracy_rows: dict[tuple[str, tuple], list[float]] = {}
        # topics tuple → (pool size × questions) accuracy table, for
        # batches where every HIT shares one topics tuple.
        self._pool_acc: dict[tuple, np.ndarray] = {}
        # id(profile) → (utf-8 worker_id, behaviour tier).  Profiles live
        # as long as the pool (which outlives the market), so ids are
        # stable keys.
        self._profile_info: dict[int, tuple[bytes, int]] = {}
        #: Batches publish_many re-ran through the scalar path (duplicate
        #: ids, behaviour errors, or vectorisation bailouts).  Profiling
        #: and tests read this to confirm the fast path actually ran.
        self.fallback_batches = 0
        #: Wall-clock seconds per vectorised-publish phase, cumulative
        #: across batches; ``cdas-repro profile`` reports these.
        self.phase_seconds: dict[str, float] = {
            "meta": 0.0,
            "accept": 0.0,
            "seeding": 0.0,
            "answers": 0.0,
            "latency": 0.0,
            "assembly": 0.0,
        }
        #: Lanes (worker-assignments) generated vectorised vs. replayed
        #: through the scalar per-lane path inside a batch.
        self.batch_lanes = 0
        self.replay_lanes = 0

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
        self.__dict__.update(state)

    # -- publishing ----------------------------------------------------------

    def publish(self, hit: HIT) -> PublishedHIT:
        """Broadcast ``hit``; returns the handle streaming its submissions.

        The lean scalar lane: the same generators, draws and order as
        :meth:`publish_reference`, with the per-question facts read once
        from :class:`_HITMeta` and the answers drawn by
        :meth:`_answer_lane`.  A one-HIT vectorised publish would cost
        nearly 3× as much, since ``fastrng.pcg64_init`` alone has a fixed
        cost of about half a scalar publish (DESIGN.md §11).

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
            # validate_assignment is skipped, as on the batch path: answers
            # are drawn from each question's own options by construction.
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
        handle = PublishedHIT(
            hit=hit,
            workers=workers,
            _assignments=tuple(assignments),
            _ledger=self.ledger,
        )
        self._register(handle)
        return handle

    def publish_reference(self, hit: HIT) -> PublishedHIT:
        """The scalar reference publish: defines the market's draw sequences.

        One private generator per ``accept:<hit>`` / ``answers:…`` /
        ``latency:…`` substream, one python draw per worker per question.
        :meth:`publish_many` must reproduce its output bit-for-bit; tests
        and ``benchmarks/bench_hot_paths.py`` hold it to that.
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
        handle = PublishedHIT(
            hit=hit,
            workers=workers,
            _assignments=tuple(assignments),
            _ledger=self.ledger,
        )
        self._register(handle)
        return handle

    def publish_many(self, hits) -> list[PublishedHIT]:
        """Publish a batch of HITs; bit-identical to sequential ``publish``.

        Pays off only for large batches: chunks of 2 or 4 HITs cost more
        per HIT than :meth:`publish`, and break-even lies around 8 to 16
        (DESIGN.md §11).  A worker lane replays through the lean scalar
        lane only where the vectorised model stops: a reason pool of two
        or more keywords or a rejected bounded draw.  A duplicate id or
        an unknown behaviour re-runs the batch through
        :meth:`publish_reference` sequentially, so error behaviour —
        including which HITs end up registered when a publish raises —
        matches per-HIT publishes exactly.
        """
        hits = list(hits)
        if len(hits) < 2:
            return [self.publish_reference(hit) for hit in hits]
        ids = [hit.hit_id for hit in hits]
        if len(set(ids)) != len(ids) or any(i in self._published for i in ids):
            self.fallback_batches += 1
            return [self.publish_reference(hit) for hit in hits]
        try:
            handles = self._publish_batch(hits)
        except Exception:
            # The batch path registers nothing until fully assembled, so a
            # clean sequential re-run reproduces the exact scalar outcome:
            # HITs before the faulty one registered, the same error raised.
            self.fallback_batches += 1
            return [self.publish_reference(hit) for hit in hits]
        for handle in handles:
            self._register(handle)
        return handles

    def _register(self, handle: PublishedHIT) -> None:
        self._published[handle.hit.hit_id] = handle
        self._maybe_open.append(handle)

    # -- the vectorised batch path -------------------------------------------

    def _publish_batch(self, hits: list[HIT]) -> list[PublishedHIT]:
        """Assemble handles for ``hits`` vectorised; pure until it returns.

        No market state is touched before the return (the caller
        registers), so any exception can be retried through the scalar
        path without cleanup.

        The per-lane python that remains below is deliberate: dict/object
        assembly and SHA-256 calls (hardware-accelerated in OpenSSL) do
        not profit from NumPy, so the fast path batches *around* them —
        every draw, conversion and seed extraction is array-at-a-time, and
        objects are filled through ``__dict__`` writes that skip dataclass
        constructor overhead without changing the constructed values.
        """
        seed = self._seed
        bg = self._scratch_bg
        gen = self._scratch_gen
        pool = self.pool
        profiles_list = pool.profiles
        profile_at = profiles_list.__getitem__
        pop = len(profiles_list)
        prof_info = self._profile_info
        _sha = hashlib.sha256
        phases = self.phase_seconds
        mark = perf_counter()
        metas = [_HITMeta(hit) for hit in hits]
        now = perf_counter()
        phases["meta"] += now - mark
        mark = now

        # --- worker acceptance --------------------------------------------
        # The accept stream draws choice(pop, size=n, replace=False): n
        # Floyd draws (bounds pop−n+1 … pop, a collision at draw k yields
        # pop−n+k) then an n−1-draw Fisher–Yates tail shuffle (bounds
        # n … 2), all buffered-Lemire on 32-bit half-words.  Bounds do not
        # depend on collisions, so the whole draw table vectorises; any
        # Lemire rejection (odds ~pop/2³²) re-runs that HIT's accept
        # through the real generator via a state transplant.
        acc_digests = [
            _sha(f"{seed}:accept:{hit.hit_id}".encode()).digest() for hit in hits
        ]
        acc_state, acc_inc = fastrng.pcg64_init(
            fastrng.seeds_from_digests(b"".join(acc_digests))
        )
        counts = [hit.assignments for hit in hits]
        max_c = max(counts)
        n_draws = max(2 * max_c - 1, 0)
        _, acc_words = fastrng.next_words(acc_state, acc_inc, (n_draws + 2) // 2)
        acc_halves = np.empty((len(hits), acc_words.shape[1] * 2), dtype=np.uint64)
        acc_halves[:, 0::2] = acc_words & _MASK32
        acc_halves[:, 1::2] = acc_words >> _SHIFT32
        bounds_rows: dict[int, np.ndarray] = {}
        for c in counts:
            if c not in bounds_rows and 0 < c <= pop:
                row = np.ones(n_draws, dtype=np.uint64)
                row[:c] = np.arange(pop - c + 1, pop + 1, dtype=np.uint64)
                row[c : 2 * c - 1] = np.arange(c, 1, -1, dtype=np.uint64)
                bounds_rows[c] = row
        fallback_row = np.ones(n_draws, dtype=np.uint64)
        bounds = np.stack(
            [bounds_rows.get(c, fallback_row) for c in counts]
        )
        acc_vals, acc_rej = fastrng.lemire32(acc_halves[:, :n_draws], bounds)
        acc_bad = acc_rej.any(axis=1).tolist()
        uniform = 0 < max_c <= pop and min(counts) == max_c
        picks_lists: list[list[int]] | None = None
        acc_vals_l: list[list[int]] | None = None
        if uniform:
            # Same assignment count everywhere — the shape every scheduler
            # batch has.  Patch Floyd collisions in python only for the few
            # HITs whose draws actually collide, then run the Fisher–Yates
            # tail as c−1 column-at-a-time swap steps across all HITs.
            c = max_c
            picks_mat = acc_vals[:, :c].astype(np.int64)
            srt = np.sort(picks_mat, axis=1)
            dup_rows = np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0]
            base = pop - c
            for r in dup_rows.tolist():
                vals = picks_mat[r]
                seen: set[int] = set()
                for k in range(c):
                    v = int(vals[k])
                    if v in seen:
                        v = base + k
                        vals[k] = v
                    seen.add(v)
            rows = np.arange(len(hits))
            p = c - 1
            for i in range(c - 1, 0, -1):
                p += 1
                tgt = acc_vals[:, p].astype(np.int64)
                at_i = picks_mat[rows, i].copy()
                picks_mat[rows, i] = picks_mat[rows, tgt]
                picks_mat[rows, tgt] = at_i
            picks_lists = picks_mat.tolist()
        else:
            acc_vals_l = acc_vals.tolist()

        lane_hit: list[int] | np.ndarray = []
        lane_widx: list[int] | np.ndarray = []  # pool index; -1 = fallback
        tiers: list[int] = []
        workers_per_hit: list[tuple[WorkerProfile, ...]] = []
        l1_digests: list[bytes] = []
        digest_push = l1_digests.append
        tier_push = tiers.append
        for idx, hit in enumerate(hits):
            c = counts[idx]
            if c <= 0 or c > pop or acc_bad[idx]:
                s, i = fastrng.state_ints(acc_state, acc_inc, idx)
                bg.state = fastrng.pcg64_state_dict(s, i)
                workers = tuple(pool.sample(c, gen))
                if uniform:
                    picks_mat[idx, :] = -1
                else:
                    picks = [-1] * len(workers)
            elif uniform:
                workers = tuple(map(profile_at, picks_lists[idx]))
            else:
                vals = acc_vals_l[idx]
                base = pop - c
                seen = set()
                picks = []
                for k in range(c):
                    v = vals[k]
                    if v in seen:
                        v = base + k
                    seen.add(v)
                    picks.append(v)
                p = c - 1
                for i in range(c - 1, 0, -1):
                    p += 1
                    v = vals[p]
                    picks[i], picks[v] = picks[v], picks[i]
                workers = tuple(map(profile_at, picks))
            workers_per_hit.append(workers)
            if not uniform:
                lane_hit.extend([idx] * len(workers))
                lane_widx.extend(picks)

            # Per-worker substream seeds share the per-HIT label prefix:
            # hash it once, fork per worker; extract ints in one pass below.
            prefix = _sha(f"{seed}:answers:{hit.hit_id}:".encode())
            if metas[idx].draws_reasons:
                # _reasons_for draws from the answers stream when a correct
                # answer meets a pool of two or more keywords — data-
                # dependent consumption the word model does not cover:
                # replay reliable lanes through the real generator.
                for profile in workers:
                    info = prof_info.get(id(profile))
                    if info is None:
                        info = _profile_entry(profile)
                        prof_info[id(profile)] = info
                    forked = prefix.copy()
                    forked.update(info[0])
                    digest_push(forked.digest())
                    tier = info[1]
                    tier_push(_T_REPLAY if tier == _T_RELIABLE else tier)
            else:
                for profile in workers:
                    info = prof_info.get(id(profile))
                    if info is None:
                        info = _profile_entry(profile)
                        prof_info[id(profile)] = info
                    forked = prefix.copy()
                    forked.update(info[0])
                    digest_push(forked.digest())
                    tier_push(info[1])
        if uniform:
            # Lane → hit/pool-index maps fall straight out of the pick
            # matrix; no per-lane python list building or re-conversion.
            lane_hit = np.repeat(np.arange(len(hits), dtype=np.intp), max_c)
            lane_widx = picks_mat.reshape(-1)

        now = perf_counter()
        phases["accept"] += now - mark
        mark = now

        # --- substream seeding, batched -----------------------------------
        # derive_seed(seed, label) == sha256(f"{seed}:{label}")[:8] mod 2⁶³.
        answer_seeds = fastrng.seeds_from_digests(b"".join(l1_digests)).tolist()
        seed_dec = [b"%d" % s for s in answer_seeds]
        ans_digests = [_sha(d + b":answers").digest() for d in seed_dec]
        lat_digests = [_sha(d + b":latency").digest() for d in seed_dec]
        # Interleaved [answers, latency] streams: lane L sits at 2L / 2L+1.
        stream_seeds = np.empty(2 * len(answer_seeds), dtype=np.uint64)
        stream_seeds[0::2] = fastrng.seeds_from_digests(b"".join(ans_digests))
        stream_seeds[1::2] = fastrng.seeds_from_digests(b"".join(lat_digests))
        state, inc = fastrng.pcg64_init(stream_seeds)

        now = perf_counter()
        phases["seeding"] += now - mark
        mark = now

        tarr = np.asarray(tiers, dtype=np.int64)
        rel_arr = np.flatnonzero(tarr == _T_RELIABLE)
        spam_arr = np.flatnonzero(tarr == _T_SPAMMER)
        replay_extra: set[int] = set()
        q_max = max(meta.count for meta in metas)
        rel_data, spam_rows = self._vector_answers(
            metas,
            lane_hit,
            lane_widx,
            workers_per_hit,
            rel_arr,
            spam_arr,
            state,
            inc,
            q_max,
            replay_extra,
        )

        now = perf_counter()
        phases["answers"] += now - mark
        mark = now

        # --- latency ------------------------------------------------------
        # Lognormal is exp(loc + scale·z) with one ziggurat word per z on
        # the common path; the ~1.4 % tail/wedge draws — and every other
        # stochastic model — replay through a state transplant instead.
        latency = self.latency
        lat_exp: list[float] | None = None
        lat_common: list[bool] | None = None
        fixed_latency: float | None = None
        if type(latency) is LognormalLatency:
            lat_state = [limb[1::2] for limb in state]
            lat_inc = [limb[1::2] for limb in inc]
            _, lat_words = fastrng.next_words(lat_state, lat_inc, 1)
            z, common = fastrng.standard_normal_common(lat_words[:, 0])
            lat_t = (np.log(latency.median_seconds) + latency.sigma * z).tolist()
            # math.exp over the whole batch at C speed; non-common lanes
            # hold bounded garbage (|z| < 4), so no overflow — their entry
            # is simply never read.
            lat_exp = list(map(_exp, lat_t))
            lat_common = common.tolist()
        elif type(latency) is FixedLatency:
            # sample() never touches the generator, so the constant is the
            # exact per-lane value and no transplant is needed.
            fixed_latency = latency.seconds

        now = perf_counter()
        phases["latency"] += now - mark
        mark = now

        # --- assembly, lane by lane in publish order ----------------------
        replayed = 0
        state_ints = fastrng.state_ints
        state_dict = fastrng.pcg64_state_dict
        latency_sample = latency.sample
        new_assignment = Assignment.__new__
        new_handle = PublishedHIT.__new__
        set_attr = object.__setattr__
        get_spam = spam_rows.get
        m_cols, m_vals, miss_counts = rel_data
        ledger = self.ledger
        handles: list[PublishedHIT] = []
        lane = 0
        rel_i = 0  # index into reliable-lane-major miss data
        mp = 0  # running pointer into m_cols/m_vals
        for idx, hit in enumerate(hits):
            meta = metas[idx]
            hit_id = hit.hit_id
            truth_dict = meta.truth_dict
            keyword_dict = meta.keyword_dict
            qids = meta.qids
            wrongs = meta.wrongs
            colluder_rows: dict[int, dict[str, str]] = {}
            assignments: list[Assignment] = []
            append = assignments.append
            workers = workers_per_hit[idx]
            for position, profile in enumerate(workers):
                tier = tiers[lane]
                keywords: dict[str, tuple[str, ...]] = {}
                if tier == _T_RELIABLE:
                    end = mp + miss_counts[rel_i]
                    rel_i += 1
                    if lane in replay_extra:
                        mp = end
                        answers = None
                    else:
                        answers = truth_dict.copy()
                        if keyword_dict:
                            keywords = keyword_dict.copy()
                            for k in range(mp, end):
                                keywords.pop(qids[m_cols[k]], None)
                        while mp < end:
                            c = m_cols[mp]
                            answers[qids[c]] = wrongs[c][m_vals[mp]]
                            mp += 1
                elif tier == _T_SPAMMER:
                    answers = get_spam(lane)
                elif tier == _T_COLLUDER:
                    row = colluder_rows.get(profile.clique)
                    if row is None:
                        row = self._colluder_row(meta, profile.clique)
                        colluder_rows[profile.clique] = row
                    answers = dict(row)
                else:
                    answers = None
                if answers is None:  # replay tier, or a vectorisation bailout
                    replayed += 1
                    s, i = state_ints(state, inc, 2 * lane)
                    bg.state = state_dict(s, i)
                    answers, keywords = self._answer_lane(meta, profile, gen)
                if lat_common is not None and lat_common[lane]:
                    submit_time = lat_exp[lane] + position * 1e-9
                elif fixed_latency is not None:
                    submit_time = fixed_latency + position * 1e-9
                else:
                    s, i = state_ints(state, inc, 2 * lane + 1)
                    bg.state = state_dict(s, i)
                    submit_time = latency_sample(gen) + position * 1e-9
                # validate_assignment is skipped here: batch-path answers are
                # drawn from each question's own options by construction, so
                # the check cannot fire (property tests pin the equivalence).
                assignment = new_assignment(Assignment)
                set_attr(
                    assignment,
                    "__dict__",
                    {
                        "hit_id": hit_id,
                        "worker_id": profile.worker_id,
                        "answers": answers,
                        "keywords": keywords,
                        "submit_time": submit_time,
                    },
                )
                append(assignment)
                lane += 1
            assignments.sort(key=_SUBMIT_KEY)
            handle = new_handle(PublishedHIT)
            handle.__dict__ = {
                "hit": hit,
                "workers": workers,
                "_assignments": tuple(assignments),
                "_ledger": ledger,
                "_cursor": 0,
                "_cancelled": False,
                "_profiles": {p.worker_id: p for p in workers},
            }
            handles.append(handle)
        phases["assembly"] += perf_counter() - mark
        self.batch_lanes += lane
        self.replay_lanes += replayed
        return handles

    def _vector_answers(
        self,
        metas: list[_HITMeta],
        lane_hit: list[int] | np.ndarray,
        lane_widx: list[int] | np.ndarray,
        workers_per_hit: list[tuple[WorkerProfile, ...]],
        rel_arr: np.ndarray,
        spam_arr: np.ndarray,
        state: list[np.ndarray],
        inc: list[np.ndarray],
        q_max: int,
        replay_extra: set[int],
    ) -> tuple[tuple[list[int], list[int], list[int]], dict[int, dict[str, str]]]:
        """Vectorised answer draws for reliable and spammer lanes.

        Returns ``(rel_data, spam_rows)``: ``spam_rows`` maps
        ``{lane: {question_id: chosen}}`` (reference insertion order);
        ``rel_data`` is ``(miss_cols, miss_values, miss_counts)`` in
        reliable-lane-major order, which the assembly loop turns into
        answer dicts with a running pointer.  Lanes whose draw sequence
        the model cannot reproduce (Lemire rejection — odds ~m/2³²) are
        added to ``replay_extra`` instead.

        The word-consumption model mirrors NumPy's buffered bit stream:
        ``random()`` always consumes one fresh 64-bit word; ``integers(n)``
        (option counts fit 32 bits) consumes the *low* half of a fresh
        word and buffers the high half for the next bounded draw — and
        that buffer survives interleaved ``random()`` calls.  So in a
        reliable lane, the miss-draw word positions depend on which
        questions missed, which depends on words to the *left* only — one
        left-to-right column sweep resolves every position exactly.
        """
        n_rel = int(rel_arr.size)
        if n_rel + spam_arr.size == 0:
            return ([], [], []), {}
        word_lanes = np.concatenate((rel_arr, spam_arr))
        # State arrays hold interleaved [answers, latency] streams per lane;
        # the answer stream of lane ``l`` sits at index ``2l``.
        ans_idx = 2 * word_lanes
        sub = [limb[ans_idx] for limb in state]
        sub_inc = [limb[ans_idx] for limb in inc]
        # Exact worst case per reliable lane: the random at question q sits
        # at word q + ⌈icum/2⌉ (icum ≤ q misses so far), a pair word for an
        # even bounded draw j at question c sits at c+1+j//2 (j ≤ c) — both
        # bounded by q_max + ⌈q_max/2⌉ − 1.
        n_words = q_max + (q_max + 1) // 2
        _, words = fastrng.next_words(sub, sub_inc, n_words)
        lane_hit_arr = np.asarray(lane_hit, dtype=np.intp)

        rel_data: tuple[list[int], list[int], list[int]] = ([], [], [])
        spam_rows: dict[int, dict[str, str]] = {}

        if n_rel:
            w_rel = words[:n_rel]
            # Per-HIT fact matrices, expanded to lanes with one gather each.
            # Batches of same-sized HITs (the scheduler shape) have no
            # inactive cells at all — skip the activity mask entirely.
            n_hits = len(metas)
            nw_h = np.ones((n_hits, q_max), dtype=np.int64)
            trivial = True
            if all(meta.count == q_max for meta in metas):
                active_h = None
                for i, meta in enumerate(metas):
                    nw_h[i] = meta.nw
                    trivial &= meta.trivial
            else:
                active_h = np.zeros((n_hits, q_max), dtype=bool)
                for i, meta in enumerate(metas):
                    q = meta.count
                    active_h[i, :q] = True
                    nw_h[i, :q] = meta.nw
                    trivial &= meta.trivial
            hit_of = lane_hit_arr[rel_arr]
            active = None if active_h is None else active_h[hit_of]
            nw_mat = nw_h[hit_of]
            nw_gt1 = nw_mat > 1

            # Accuracy rows.  When the whole batch shares one topics tuple
            # and no lane came from a fallback accept (the scheduler-batch
            # shape), one pool-wide table gathered by pool index replaces
            # any per-lane python.  Otherwise fall back to a per-(worker,
            # topics) row cache walked lane by lane.
            rel_widx = np.asarray(lane_widx, dtype=np.intp)[rel_arr]
            topics0 = metas[0].topics
            # ``is`` suffices: _HITMeta interns topics tuples process-wide.
            if rel_widx.min() >= 0 and all(m.topics is topics0 for m in metas):
                pool_table = self._pool_acc.get(topics0)
                if pool_table is None:
                    pool_table = np.zeros((len(self.pool.profiles), q_max))
                    for w, prof in enumerate(self.pool.profiles):
                        for t, topic in enumerate(topics0):
                            pool_table[w, t] = prof.topic_accuracy(topic)
                    self._pool_acc[topics0] = pool_table
                acc = pool_table[rel_widx]
            else:
                lane_profile = [p for ws in workers_per_hit for p in ws]
                table: list[list[float]] = []
                batch_ids: dict[tuple[str, tuple], int] = {}
                row_ids = np.empty(n_rel, dtype=np.intp)
                acc_cache = self._accuracy_rows
                pad = [0.0] * q_max
                for i, lane in enumerate(rel_arr.tolist()):
                    profile = lane_profile[lane]
                    meta = metas[lane_hit_arr[lane]]
                    key = (profile.worker_id, meta.topics)
                    idx = batch_ids.get(key)
                    if idx is None:
                        row = acc_cache.get(key)
                        if row is None:
                            row = [profile.topic_accuracy(t) for t in meta.topics]
                            acc_cache[key] = row
                        idx = len(table)
                        batch_ids[key] = idx
                        table.append(row + pad[len(row) :])
                    row_ids[i] = idx
                acc = np.asarray(table, dtype=np.float64)[row_ids]
            if trivial:
                # d == 0 everywhere ⇒ p == a to the last bit; skip the
                # (1−d)·a + d/m arithmetic entirely.
                p_mat = acc
            else:
                c1_h = np.ones((n_hits, q_max))
                c2_h = np.zeros((n_hits, q_max))
                for i, meta in enumerate(metas):
                    q = meta.count
                    c1_h[i, :q] = meta.c1
                    c2_h[i, :q] = meta.c2
                p_mat = c1_h[hit_of] * acc + c2_h[hit_of]

            # One left-to-right column sweep: question q's word position is
            # q plus ⌈(miss-draw words consumed at questions < q)⌉ — fully
            # known by the time column q is evaluated.
            lane_arange = np.arange(n_rel)
            icum = np.zeros(n_rel, dtype=np.int64)
            miss = np.zeros((n_rel, q_max), dtype=bool)
            if active is None:
                for q in range(q_max):
                    draws = fastrng.doubles_from_words(
                        w_rel[lane_arange, q + ((icum + 1) >> 1)]
                    )
                    # ``~(draws < p)`` rather than ``draws >= p`` keeps NaN
                    # difficulty handling faithful to the scalar branch.
                    miss_q = ~(draws < p_mat[:, q])
                    miss[:, q] = miss_q
                    icum += miss_q & nw_gt1[:, q]
            else:
                for q in range(q_max):
                    draws = fastrng.doubles_from_words(
                        w_rel[lane_arange, q + ((icum + 1) >> 1)]
                    )
                    miss_q = active[:, q] & ~(draws < p_mat[:, q])
                    miss[:, q] = miss_q
                    icum += miss_q & nw_gt1[:, q]

            # Miss cells in lane-major order: the assembly loop visits
            # reliable lanes in exactly this order, so it materialises each
            # lane's answers dict with one running pointer (copy the
            # all-correct prototype, overwrite the missed cells) without
            # any intermediate per-lane structure.  nw == 1 misses keep
            # value 0 (``wrongs[c][0]`` — the only wrong option).
            all_int = bool(nw_gt1.all())
            int_active = miss if all_int else (miss & nw_gt1)
            rows, cols = np.nonzero(int_active)
            int_counts = int_active.sum(axis=1)
            if all_int:
                m_cols = cols
                miss_counts = int_counts
            else:
                m_cols = np.nonzero(miss)[1]
                miss_counts = miss.sum(axis=1)
            m_vals = np.zeros(m_cols.size, dtype=np.int64)
            if rows.size:
                # Bounded-draw ordinal within each lane, without a 2-D
                # cumsum: nonzero() is row-major, so each lane's cells are
                # a contiguous run starting at the exclusive prefix sum.
                starts = np.zeros(n_rel, dtype=np.int64)
                np.cumsum(int_counts[:-1], out=starts[1:])
                draw_no = np.arange(rows.size, dtype=np.int64) - np.repeat(
                    starts, int_counts
                )
                even = (draw_no & 1) == 0
                # A bounded-draw *pair* consumes one word when its even
                # draw runs: after cols+1 randoms and draw_no//2 earlier
                # pair words.  The odd draw reuses its even partner's word
                # — the immediately preceding cell in this same row-major
                # order (draw 0 is always even, so prev[0] is never read).
                wcol = cols + 1 + (draw_no >> 1)
                prev = np.empty_like(wcol)
                prev[0] = 0
                prev[1:] = wcol[:-1]
                wcol = np.where(even, wcol, prev)
                cell_words = w_rel[rows, wcol]
                halves = np.where(even, cell_words & _MASK32, cell_words >> _SHIFT32)
                values, rejected = fastrng.lemire32(halves, nw_mat[rows, cols])
                if rejected.any():
                    for r in np.unique(rows[rejected]):
                        replay_extra.add(int(rel_arr[int(r)]))
                if all_int:
                    m_vals = values.astype(np.int64)
                else:
                    m_vals[int_active[miss]] = values.astype(np.int64)

            rel_data = (
                m_cols.tolist(),
                m_vals.tolist(),
                miss_counts.tolist(),
            )

        if spam_arr.size:
            w_spam = words[n_rel:]
            n_spam = int(spam_arr.size)
            q_idx = np.arange(q_max)
            m_mat = np.ones((n_spam, q_max), dtype=np.int64)
            hit_of_spam = lane_hit_arr[spam_arr].tolist()
            for i, h in enumerate(hit_of_spam):
                meta = metas[h]
                m_mat[i, : meta.count] = meta.m
            # Draw q is bounded draw number q (no random() interleaving):
            # pairs (2p, 2p+1) split word p into low/high halves.
            cell_words = w_spam[:, q_idx >> 1]
            halves = np.where((q_idx & 1) == 0, cell_words & _MASK32, cell_words >> _SHIFT32)
            values, rejected = fastrng.lemire32(halves, m_mat)
            # Padding columns use m == 1, whose Lemire threshold is 0 —
            # they never reject, so full-row any() equals any() over [:q].
            rej_any = rejected.any(axis=1).tolist()
            vals_l = values.tolist()
            for i, lane in enumerate(spam_arr.tolist()):
                meta = metas[hit_of_spam[i]]
                if rej_any[i]:
                    replay_extra.add(lane)
                    continue
                picks = vals_l[i][: meta.count]
                options = meta.options
                spam_rows[lane] = dict(
                    zip(meta.qids, [options[c][v] for c, v in enumerate(picks)])
                )
        return rel_data, spam_rows

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
        info = self._profile_info.get(id(profile))
        if info is None:
            info = self._profile_info[id(profile)] = _profile_entry(profile)
        tier = info[1]
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
                # as is (the vectorised model relies on the same fact).
                wrong = meta.wrongs[q]
                answers[qid] = wrong[integers(len(wrong))] if len(wrong) > 1 else wrong[0]
        return answers, keywords

    # -- introspection -------------------------------------------------------

    def next_arrival_eta(self) -> float | None:
        """``0.0`` while any published HIT still has submissions pending
        (virtual time — collectable immediately), else ``None``.

        Amortised O(1): finished handles pop off the open stack exactly
        once (``done`` is monotone), instead of rescanning every published
        HIT per call.
        """
        maybe_open = self._maybe_open
        while maybe_open:
            if not maybe_open[-1].done:
                return 0.0
            maybe_open.pop()
        return None

    def handle(self, hit_id: str) -> PublishedHIT:
        try:
            return self._published[hit_id]
        except KeyError:
            raise KeyError(f"HIT {hit_id!r} was never published") from None

    @property
    def published_hits(self) -> int:
        return len(self._published)
