"""Worker populations with configurable accuracy/approval distributions.

The paper's models consume exactly two population-level facts: the
distribution of worker accuracies (drives prediction via its mean ``μ`` and
verification via per-worker estimates) and the fact that the public AMT
approval rate is *not* that distribution (Figure 14).  :class:`PoolConfig`
captures both, plus the malicious-worker mix the paper warns about.

Default calibration (see DESIGN.md §5): reliable accuracies are
Beta(7, 3)-distributed (mean 0.70, sd 0.14 — matching Figure 14's "real
accuracy" histogram spread over 40–95 %), approval rates are a high,
accuracy-independent mixture (most requesters auto-approve), spammers make
up 5 % and colluders 0 % unless an experiment injects them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.amt.worker import WorkerProfile
from repro.util.rng import substream

__all__ = ["PoolConfig", "WorkerPool"]


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """Recipe for building a worker population.

    Attributes
    ----------
    size:
        Total number of workers.
    accuracy_alpha / accuracy_beta:
        Beta parameters of the reliable workers' latent accuracy.
    accuracy_floor / accuracy_ceiling:
        Clip range keeping latent accuracies away from 0/1.
    spammer_fraction:
        Share of the pool answering uniformly at random.
    colluder_fraction:
        Share of the pool organised into colluding cliques.
    colluder_clique_size:
        Workers per clique (consecutive colluders share a clique id).
    approval_high_fraction:
        Share of workers whose public approval rate is drawn from the
        near-1.0 spike (auto-approving requesters).
    skill_topics:
        Job domains workers may be differentially good at.
    skill_sigma:
        Standard deviation of the per-topic accuracy offsets (0 disables
        skill variation).  Models §3.3's cross-job accuracy spread.
    """

    size: int = 400
    accuracy_alpha: float = 7.0
    accuracy_beta: float = 3.0
    accuracy_floor: float = 0.05
    accuracy_ceiling: float = 0.98
    spammer_fraction: float = 0.05
    colluder_fraction: float = 0.0
    colluder_clique_size: int = 3
    approval_high_fraction: float = 0.6
    skill_topics: tuple[str, ...] = ()
    skill_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"pool size must be positive, got {self.size}")
        if self.accuracy_alpha <= 0 or self.accuracy_beta <= 0:
            raise ValueError("Beta parameters must be positive")
        if not 0.0 <= self.accuracy_floor < self.accuracy_ceiling <= 1.0:
            raise ValueError(
                f"invalid clip range [{self.accuracy_floor}, {self.accuracy_ceiling}]"
            )
        if not 0.0 <= self.spammer_fraction <= 1.0:
            raise ValueError(f"spammer fraction {self.spammer_fraction} not in [0, 1]")
        if not 0.0 <= self.colluder_fraction <= 1.0:
            raise ValueError(f"colluder fraction {self.colluder_fraction} not in [0, 1]")
        if self.spammer_fraction + self.colluder_fraction > 1.0:
            raise ValueError("spammers + colluders exceed the whole pool")
        if self.colluder_clique_size < 2:
            raise ValueError("a collusion clique needs at least 2 workers")
        if not 0.0 <= self.approval_high_fraction <= 1.0:
            raise ValueError(
                f"approval high fraction {self.approval_high_fraction} not in [0, 1]"
            )
        if self.skill_sigma < 0.0:
            raise ValueError(f"skill sigma must be non-negative: {self.skill_sigma}")
        if len(set(self.skill_topics)) != len(self.skill_topics):
            raise ValueError(f"duplicate skill topics: {self.skill_topics!r}")


@dataclass
class WorkerPool:
    """A concrete worker population plus sampling helpers.

    Build with :meth:`from_config`; direct construction is for tests that
    need hand-crafted profiles.
    """

    profiles: list[WorkerProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [p.worker_id for p in self.profiles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate worker ids in pool")
        self._by_id = {p.worker_id: p for p in self.profiles}

    @classmethod
    def from_config(cls, config: PoolConfig, seed: int) -> "WorkerPool":
        """Materialise a population deterministically from ``(config, seed)``."""
        rng = substream(seed, "worker-pool")
        profiles: list[WorkerProfile] = []
        n_spam = round(config.size * config.spammer_fraction)
        n_collude = round(config.size * config.colluder_fraction)
        n_reliable = config.size - n_spam - n_collude

        accuracies = np.clip(
            rng.beta(config.accuracy_alpha, config.accuracy_beta, size=n_reliable),
            config.accuracy_floor,
            config.accuracy_ceiling,
        )
        approvals = _approval_rates(rng, config, config.size)

        idx = 0
        for i in range(n_reliable):
            skills: tuple[tuple[str, float], ...] = ()
            if config.skill_topics and config.skill_sigma > 0.0:
                deltas = rng.normal(0.0, config.skill_sigma, len(config.skill_topics))
                skills = tuple(
                    (topic, float(delta))
                    for topic, delta in zip(config.skill_topics, deltas)
                )
            profiles.append(
                WorkerProfile(
                    worker_id=f"w{idx:05d}",
                    true_accuracy=float(accuracies[i]),
                    approval_rate=float(approvals[idx]),
                    behaviour="reliable",
                    skills=skills,
                )
            )
            idx += 1
        for _ in range(n_spam):
            profiles.append(
                WorkerProfile(
                    worker_id=f"w{idx:05d}",
                    # Nominal latent accuracy of a uniform guesser over a
                    # 3-option domain; their behaviour ignores it anyway.
                    true_accuracy=1.0 / 3.0,
                    approval_rate=float(approvals[idx]),
                    behaviour="spammer",
                )
            )
            idx += 1
        for j in range(n_collude):
            profiles.append(
                WorkerProfile(
                    worker_id=f"w{idx:05d}",
                    true_accuracy=0.0,
                    approval_rate=float(approvals[idx]),
                    behaviour="colluder",
                    clique=j // config.colluder_clique_size,
                )
            )
            idx += 1
        return cls(profiles=profiles)

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.profiles)

    # -- sharding ----------------------------------------------------------

    def partition(self, weights: "Mapping[str, float]") -> dict[str, "WorkerPool"]:
        """Split the pool into disjoint per-shard sub-pools by weight.

        The scale-out seam (DESIGN.md §14): each service process owns a
        contiguous, non-overlapping slice of the population, sized by
        largest-remainder apportionment over ``weights`` (iteration
        order of ``weights`` breaks remainder ties, so a ``{name:
        weight}`` dict built from an ordered shard list partitions
        deterministically).  Every shard is guaranteed at least one
        worker; worker ids never overlap across shards, so per-shard
        ledgers and accuracy estimates can be aggregated without
        double-counting.

        Pure and deterministic: ``from_config(cfg, seed).partition(w)``
        is a function of ``(cfg, seed, w)`` only — the property that
        lets a shard's run be reproduced bit-for-bit by rebuilding just
        that shard's slice in a single process.
        """
        if not weights:
            raise ValueError("partition needs at least one shard weight")
        names = list(weights)
        if len(names) > len(self.profiles):
            raise ValueError(
                f"cannot split {len(self.profiles)} workers into "
                f"{len(names)} shards (every shard needs at least one)"
            )
        total = 0.0
        for name, weight in weights.items():
            if weight <= 0:
                raise ValueError(
                    f"shard {name!r} weight must be positive, got {weight}"
                )
            total += float(weight)
        size = len(self.profiles)
        quotas = [size * float(weights[name]) / total for name in names]
        counts = [int(q) for q in quotas]
        # Largest remainder, then a floor of one worker per shard.
        remainders = sorted(
            range(len(names)),
            key=lambda i: (-(quotas[i] - counts[i]), i),
        )
        short = size - sum(counts)
        for i in remainders[:short]:
            counts[i] += 1
        for i, count in enumerate(counts):
            if count == 0:
                donor = max(range(len(names)), key=lambda j: counts[j])
                counts[donor] -= 1
                counts[i] = 1
        shards: dict[str, WorkerPool] = {}
        start = 0
        for name, count in zip(names, counts):
            shards[name] = WorkerPool(profiles=self.profiles[start:start + count])
            start += count
        return shards

    def profile(self, worker_id: str) -> WorkerProfile:
        try:
            return self._by_id[worker_id]
        except KeyError:
            raise KeyError(f"no worker {worker_id!r} in pool") from None

    def mean_true_accuracy(self) -> float:
        """Latent population mean — the simulator-side ``μ`` oracle.

        Experiments use it to *calibrate*; CDAS itself must estimate ``μ``
        through gold-sampling (§3.3), never from this.
        """
        if not self.profiles:
            raise ValueError("empty pool")
        return float(np.mean([p.true_accuracy for p in self.profiles]))

    # -- sampling ----------------------------------------------------------

    def sample(
        self,
        count: int,
        rng: np.random.Generator,
        exclude: frozenset[str] = frozenset(),
    ) -> list[WorkerProfile]:
        """Draw ``count`` distinct workers uniformly, skipping ``exclude``.

        Models AMT's broadcast: any candidate worker may accept, so the
        requester effectively gets random workers (§3.1).
        """
        candidates = (
            [p for p in self.profiles if p.worker_id not in exclude]
            if exclude
            else self.profiles
        )
        if count > len(candidates):
            raise ValueError(
                f"requested {count} workers but only {len(candidates)} are eligible"
            )
        picked = rng.choice(len(candidates), size=count, replace=False)
        return [candidates[i] for i in picked]


def _approval_rates(
    rng: np.random.Generator, config: PoolConfig, count: int
) -> np.ndarray:
    """Sample public approval rates: a near-1.0 spike plus a high Beta tail.

    Independent of true accuracy by construction — the whole point of
    Figure 14.
    """
    spike = rng.uniform(0.95, 1.0, size=count)
    tail = rng.beta(8.0, 2.0, size=count)
    use_spike = rng.random(count) < config.approval_high_fraction
    return np.where(use_spike, spike, tail)
