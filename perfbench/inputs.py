"""Seeded input generation: every tweet, image and query the workloads
submit is made here from ``--seed``; the program receives only these.

Sizes are fixed per workload and only the content varies with the seed,
so the amount of work a run does is (nearly) seed-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: 8 tenant names; rendezvous hashing balances them 4/4 over two shards.
TENANTS = (
    "tenant-000", "tenant-001", "tenant-002", "tenant-003",
    "tenant-004", "tenant-005", "tenant-006", "tenant-008",
)


@dataclass(frozen=True)
class Submission:
    """One query as a caller hands it to the service."""

    tenant: str
    job: str
    subject: str
    inputs: dict[str, Any]

    def query(self) -> Any:
        from repro.tsa.app import movie_query

        return movie_query(self.subject, 0.9)


def gold_tweets(seed: int) -> list[Any]:
    from repro.tsa.tweets import generate_tweets

    return generate_tweets(["gold-movie"], per_movie=12, seed=seed + 1)


def build(seed: int, pool_size: int) -> Any:
    """System build and calibration (what ``setup_s`` times): the demo
    system ``serve`` builds, over ``pool_size`` simulated workers,
    calibrated with one gold HIT of 10 workers."""
    from repro.amt.market import SimulatedMarket
    from repro.amt.pool import PoolConfig, WorkerPool
    from repro.system import CDAS
    from repro.tsa.tweets import tweet_to_question

    pool = WorkerPool.from_config(PoolConfig(size=pool_size), seed=seed)
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=seed), seed=seed)
    cdas.calibrate(
        [tweet_to_question(t) for t in gold_tweets(seed)], workers_per_hit=10, hits=1
    )
    return cdas


def batch_submissions(
    seed: int, per_tenant: int = 3, tweets_per_query: int = 100, images: int = 4
) -> list[Submission]:
    """Offline analytics: ``per_tenant`` sentiment queries per tenant and
    ``images`` image tagging queries spread over the first tenants."""
    from repro.it.images import generate_images
    from repro.tsa.tweets import generate_tweets

    gold = gold_tweets(seed)
    subs = []
    for round_ in range(per_tenant):
        for index, tenant in enumerate(TENANTS):
            subject = f"movie{index}-{round_}"
            tweets = generate_tweets(
                [subject], per_movie=tweets_per_query, seed=seed + 10 + 8 * round_ + index
            )
            subs.append(Submission(
                tenant, "twitter-sentiment", subject,
                dict(tweets=tweets, gold_tweets=gold, worker_count=5, batch_size=6),
            ))
    gold_images = generate_images(per_subject=1, seed=seed + 30)
    for index in range(images):
        subs.append(Submission(
            TENANTS[index], "image-tagging", f"images{index}",
            dict(
                images=generate_images(per_subject=1, seed=seed + 50 + index),
                gold_images=gold_images,
                worker_count=5,
            ),
        ))
    return subs


def small_submissions(seed: int, count: int, tenants: int) -> list[Submission]:
    """Many small TSA queries over many tenants (the crash workload)."""
    from repro.tsa.tweets import generate_tweets

    gold = gold_tweets(seed)
    names = [f"t{i:02d}" for i in range(tenants)]
    return [
        Submission(
            names[index % tenants],
            "twitter-sentiment",
            f"m{index}",
            dict(
                tweets=generate_tweets([f"m{index}"], per_movie=24, seed=seed + 100 + index),
                gold_tweets=gold,
                worker_count=5,
                batch_size=6,
            ),
        )
        for index in range(count)
    ]


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival: when it is due and what it sends."""

    due: float
    index: int
    tenant: str
    cancel: bool
    body: bytes


def http_arrivals(
    seed: int,
    count: int,
    rate: float,
    pattern: tuple[tuple[str, int, bool], ...],
    broke_tenant: str,
    tenants: tuple[str, ...],
) -> list[Arrival]:
    """The open-loop schedule: arrivals every ``1/rate`` seconds.

    Arrival ``i`` takes ``pattern[i % len(pattern)]``, a ``(kind, tweets,
    cancel)`` triple where ``kind`` is ``"query"`` or ``"broke"`` (a
    submit from the over-budget tenant), so every seed offers the same
    load; the seed makes the tweets.  Request bodies carry the corpora
    inline, encoded with the program's codec, and are built here, before
    any timing.
    """
    import json

    from repro.durability import codec
    from repro.tsa.app import movie_query
    from repro.tsa.tweets import generate_tweets

    kinds = [pattern[index % len(pattern)] for index in range(count)]
    gold = codec.encode(gold_tweets(seed))
    arrivals = []
    for index, (kind, size, cancel) in enumerate(kinds):
        tenant = broke_tenant if kind == "broke" else tenants[index % len(tenants)]
        subject = f"q{index}"
        body = {
            "job": "twitter-sentiment",
            "query": codec.encode(movie_query(subject, 0.9)),
            "inputs": {
                "tweets": codec.encode(
                    generate_tweets([subject], per_movie=size, seed=seed + 1000 + index)
                ),
                "gold_tweets": gold,
                "worker_count": 5,
                "batch_size": 6,
            },
        }
        arrivals.append(
            Arrival(
                due=index / rate,
                index=index,
                tenant=tenant,
                cancel=cancel,
                body=json.dumps(body, separators=(",", ":")).encode("utf-8"),
            )
        )
    return arrivals
