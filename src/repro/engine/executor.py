"""Program executor (paper §2.1): the computer half of a CDAS job.

For TSA the executor "is responsible for retrieving the twitter stream and
checking whether the query keyword exists in a tweet"; matching tweets are
buffered and handed to the crowdsourcing engine in batches, and on the way
back the executor "summarizes the results of crowdsourcing engine".  The
implementation is generic over any text-bearing item so the IT application
reuses it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

from repro.core.domain import AnswerDomain
from repro.core.presentation import OpinionReport, QuestionOutcome, build_report
from repro.engine.query import Query

__all__ = ["ProgramExecutor", "batched"]

T = TypeVar("T")


def batched(items: Iterable[T], size: int) -> Iterator[list[T]]:
    """Yield consecutive batches of up to ``size`` items.

    The trailing partial batch is yielded too — a short final HIT is
    preferable to dropping tweets.
    """
    if size <= 0:
        raise ValueError(f"batch size must be positive, got {size}")
    batch: list[T] = []
    for item in items:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


class ProgramExecutor:
    """Keyword filtering, batching, and result summarisation.

    Parameters
    ----------
    text_of:
        How to read the match-able text out of a stream item (for tweets,
        the tweet body).
    """

    def __init__(self, text_of: Callable[[object], str] = str) -> None:
        self._text_of = text_of

    def filter_stream(self, items: Iterable[T], query: Query) -> Iterator[T]:
        """Candidate items: those whose text matches any query keyword."""
        for item in items:
            if query.matches(self._text_of(item)):
                yield item

    def buffer_batches(
        self, items: Iterable[T], query: Query, batch_size: int
    ) -> Iterator[list[T]]:
        """Filter then batch — the executor→engine hand-off of Algorithm 1."""
        return batched(self.filter_stream(items, query), batch_size)

    def summarize(
        self,
        query: Query,
        outcomes: Sequence[QuestionOutcome],
        domain: AnswerDomain | None = None,
    ) -> OpinionReport:
        """Fold the crowd's per-item verdicts into the query's report.

        Uses §4.3's ``h`` scoring via :func:`repro.core.presentation.build_report`.
        """
        if domain is None:
            domain = query.answer_domain()
        return build_report(query.subject, outcomes, domain)
