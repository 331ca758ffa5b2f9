"""Application 1: Twitter Sentiment Analytics deployed on CDAS (paper §2.2, §5.1).

Wires the whole Figure-2 pipeline for sentiment queries: the job manager
holds the TSA spec, the program executor filters the tweet stream by the
query keywords and batches candidates, the crowdsourcing engine runs each
batch through prediction → HIT → verification, and the executor summarises
the per-tweet verdicts into the §4.3 opinion report.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

from repro.core.presentation import OpinionReport
from repro.engine.engine import (
    CrowdsourcingEngine,
    HITRunResult,
    QuestionRecord,
    seal_records,
)
from repro.engine.executor import ProgramExecutor, batched
from repro.engine.jobs import JobSpec
from repro.engine.planner import Projection, ceil_div, window_cost
from repro.engine.query import Query
from repro.engine.scheduler import (
    BatchSink,
    BatchSpec,
    HITScheduler,
    SessionGroup,
    specs_from_batches,
)
from repro.engine.templates import QueryTemplate
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import Tweet, tweet_to_question

__all__ = ["build_tsa_spec", "TSAResult", "TSAJob", "movie_query"]


def build_tsa_spec(text_filter=None) -> JobSpec:
    """The TSA job specification registered with the job manager."""
    template = QueryTemplate(
        job_name="twitter-sentiment",
        instructions=(
            "Read each tweet about the movie and select the opinion it "
            "expresses. Add one or two keywords explaining your choice."
        ),
        item_label="Tweet",
        prompt="What is the opinion of this review?",
        text_filter=text_filter,
    )
    return JobSpec(
        name="twitter-sentiment",
        template=template,
        computer_tasks=(
            "retrieve the twitter stream",
            "filter tweets by the query keywords",
            "buffer candidates and build HITs from the query template",
            "summarise verified answers into the opinion report",
        ),
        human_tasks=(
            "classify each tweet as positive / neutral / negative",
            "attach reason keywords for the chosen opinion",
        ),
    )


def movie_query(
    movie: str, required_accuracy: float, window: int = 24, timestamp: float = 0.0
) -> Query:
    """Convenience: the paper's per-movie query (one-day window)."""
    return Query(
        keywords=(movie,),
        required_accuracy=required_accuracy,
        domain=("positive", "neutral", "negative"),
        timestamp=timestamp,
        window=window,
        subject=movie,
    )


@dataclass(frozen=True)
class TSAResult:
    """Outcome of one TSA query.

    Attributes
    ----------
    report:
        The §4.3 opinion summary (percentages + reasons).
    records:
        Per-tweet verdicts with their backing observations (without them
        once :meth:`seal` ran).
    hit_results:
        The engine-level result of every HIT the query ran.
    """

    report: OpinionReport
    records: tuple[QuestionRecord, ...]
    hit_results: tuple[HITRunResult, ...]

    def seal(self) -> None:
        """Keep the verdicts, drop their evidence (:func:`seal_records`)."""
        seal_records(self.records)

    @property
    def accuracy(self) -> float:
        """Ground-truth accuracy over all processed tweets."""
        if not self.records:
            raise ValueError("no records")
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def cost(self) -> float:
        return sum(h.cost for h in self.hit_results)

    @property
    def workers_per_hit(self) -> float:
        if not self.hit_results:
            raise ValueError("no HITs were run")
        return sum(h.workers_hired for h in self.hit_results) / len(self.hit_results)


class TSAJob:
    """Run sentiment queries end-to-end on a crowdsourcing engine.

    Parameters
    ----------
    engine:
        A calibrated :class:`CrowdsourcingEngine` (calibrate first or let
        :meth:`run` do it from the gold tweets).
    stream:
        The tweet stream to query; may be omitted when tweets are passed
        to :meth:`run` directly.
    batch_size:
        Tweets per HIT (the paper's ``B``; deployment used 100, the
        default here is smaller to keep simulations quick).
    max_in_flight:
        How many of the query's HITs may collect concurrently when
        :meth:`run` drives its own scheduler.  The default of 1 reproduces
        the historical serial behaviour exactly; raising it interleaves
        the query's batches on one merged arrival stream.
    """

    def __init__(
        self,
        engine: CrowdsourcingEngine,
        stream: TweetStream | None = None,
        batch_size: int = 20,
        max_in_flight: int = 1,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        if max_in_flight <= 0:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.engine = engine
        self.stream = stream
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self.executor = ProgramExecutor(text_of=lambda t: t.text)
        self.spec = build_tsa_spec()

    def run(
        self,
        query: Query,
        gold_tweets: Sequence[Tweet],
        tweets: Sequence[Tweet] | None = None,
        worker_count: int | None = None,
    ) -> TSAResult:
        """Process one movie query (Algorithm 1 at application level).

        Parameters
        ----------
        query:
            Definition 1 query; the subject's tweets must exist in the
            stream (or in ``tweets``).
        gold_tweets:
            Labelled tweets used as §3.3 gold probes (never scored as
            results).
        tweets:
            Explicit candidate list, bypassing the stream (used by
            experiments that control the corpus directly).
        worker_count:
            Force ``n`` instead of asking the prediction model.
        """
        scheduler = HITScheduler(self.engine, max_in_flight=self.max_in_flight)
        group = self.submit(
            scheduler,
            query,
            gold_tweets=gold_tweets,
            tweets=tweets,
            worker_count=worker_count,
        )
        scheduler.run()
        return self.assemble(query, group)

    def submit(
        self,
        sink: BatchSink,
        query: Query,
        gold_tweets: Sequence[Tweet],
        tweets: Sequence[Tweet] | None = None,
        worker_count: int | None = None,
    ) -> SessionGroup:
        """Enqueue the query's batches on a shared scheduler or service sink.

        Candidates are resolved eagerly (so an unmatched query still fails
        fast), but batches are fed lazily: each HIT's questions are built
        only when the sink opens a publish slot for it.  Assemble the
        query's report from the returned group with :meth:`assemble` after
        the sink has run.
        """
        if tweets is None:
            if self.stream is None:
                raise ValueError("no stream configured and no tweets passed")
            candidates = list(self.stream.window(query))
        else:
            candidates = list(self.executor.filter_stream(tweets, query))
        if not candidates:
            raise ValueError(
                f"query {query.subject!r} matched no tweets in its window"
            )
        gold_questions = tuple(tweet_to_question(t) for t in gold_tweets)
        return sink.add_batches(
            (
                [tweet_to_question(t) for t in batch]
                for batch in batched(candidates, self.batch_size)
            ),
            required_accuracy=query.required_accuracy,
            gold_pool=gold_questions,
            worker_count=worker_count,
        )

    def submit_standing(
        self,
        sink: BatchSink,
        query: Query,
        gold_tweets: Sequence[Tweet],
        windows: int | None = None,
        worker_count: int | None = None,
    ) -> SessionGroup:
        """Deploy the query as a *standing* query over consecutive windows.

        Definition 1 queries are standing jobs: the window ``(t, w)`` keeps
        sliding forward while the user observes.  This feeds window
        ``i = 0, 1, 2, …`` — each covering
        ``[t + i·w·unit, t + (i+1)·w·unit)`` of the configured stream —
        through one lazy source, so a single
        :class:`~repro.engine.service.QueryHandle` tracks the whole
        standing query while earlier windows' HITs are still collecting.

        Parameters
        ----------
        windows:
            How many consecutive windows to follow; ``None`` follows the
            stream until no tweet lies at or beyond the next window start.
            Windows that match no tweets are skipped (an idle stream costs
            nothing); a standing query whose *every* window is empty fails
            at assembly like an unmatched one-shot query.
        """
        if self.stream is None:
            raise ValueError("standing queries need a configured stream")
        gold_questions = tuple(tweet_to_question(t) for t in gold_tweets)

        def window_specs(candidates: Sequence[Tweet]) -> Iterator[BatchSpec]:
            return specs_from_batches(
                (
                    [tweet_to_question(t) for t in batch]
                    for batch in batched(candidates, self.batch_size)
                ),
                query.required_accuracy,
                gold_questions,
                worker_count,
            )

        if hasattr(sink, "add_window_source"):
            # Service intake: hand each window over with its projected
            # cost so plan-reserved standing queries re-reserve per
            # window (and are refused cleanly when the budget runs dry
            # mid-stream).  The cost is a thunk: plan-less standing
            # queries never evaluate it, and reserved ones price it at
            # reservation time — the engine's μ then, like the publishes
            # that follow.
            schedule = self.engine.market.ledger.schedule

            def cost_of(hits: int) -> Callable[[], float]:
                def price() -> float:
                    workers = (
                        worker_count
                        if worker_count is not None
                        else self.engine.predict_workers(query.required_accuracy)
                    )
                    return window_cost(schedule, workers, hits)

                return price

            def costed_windows() -> Iterator[
                tuple[Callable[[], float], Iterator[BatchSpec]]
            ]:
                for candidates in self._standing_windows(query, windows):
                    if not candidates:
                        continue
                    hits = ceil_div(len(candidates), self.batch_size)
                    yield cost_of(hits), window_specs(candidates)

            return sink.add_window_source(costed_windows())

        def specs() -> Iterator[BatchSpec]:
            for candidates in self._standing_windows(query, windows):
                yield from window_specs(candidates)

        return sink.add_source(specs())

    def _standing_windows(
        self, query: Query, windows: int | None
    ) -> Iterator[list[Tweet]]:
        """Materialise each standing window's candidate list (possibly
        empty), window ``i`` covering ``[t + i·w·unit, t + (i+1)·w·unit)``
        of the configured stream — shared by submission and projection so
        the two can never disagree on what a window contains."""
        stream = self.stream
        assert stream is not None
        start = (
            float(query.timestamp)
            if not isinstance(query.timestamp, str)
            else 0.0
        )
        horizon = stream.tweets[-1].timestamp if len(stream) else start
        index = 0
        while True:
            if windows is not None and index >= windows:
                return
            window_start = start + index * query.window * stream.unit_seconds
            if windows is None and window_start > horizon:
                return
            shifted = replace(query, timestamp=window_start)
            yield list(stream.window(shifted))
            index += 1

    # -- cost projection -----------------------------------------------------

    def project(
        self, query: Query, tweets: Sequence[Tweet] | None = None
    ) -> Projection:
        """Count a one-shot query's work (items, HITs) without running it.

        Mirrors :meth:`submit`'s candidate resolution and validation but
        touches neither the market nor a scheduler — the planner's view
        of the query.
        """
        if tweets is None:
            if self.stream is None:
                raise ValueError("no stream configured and no tweets passed")
            candidates = list(self.stream.window(query))
        else:
            candidates = list(self.executor.filter_stream(tweets, query))
        if not candidates:
            raise ValueError(
                f"query {query.subject!r} matched no tweets in its window"
            )
        hits = ceil_div(len(candidates), self.batch_size)
        return Projection(windows=((len(candidates), hits),))

    def project_standing(
        self, query: Query, windows: int | None = None
    ) -> Projection:
        """Per-window ``(items, hits)`` counts of a standing query
        (empty windows skipped, exactly as submission skips them)."""
        if self.stream is None:
            raise ValueError("standing queries need a configured stream")
        counts = []
        for candidates in self._standing_windows(query, windows):
            if not candidates:
                continue
            counts.append(
                (len(candidates), ceil_div(len(candidates), self.batch_size))
            )
        return Projection(windows=tuple(counts), standing=True)

    def assemble(self, query: Query, group: SessionGroup) -> TSAResult:
        """Fold a completed group's per-HIT results into the query report."""
        hit_results = group.results
        records = tuple(r for h in hit_results for r in h.records)
        outcomes = [r.outcome() for r in records]
        report = self.executor.summarize(query, outcomes)
        return TSAResult(
            report=report, records=records, hit_results=tuple(hit_results)
        )
