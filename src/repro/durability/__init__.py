"""Durable service state: write-ahead journal, snapshots, crash recovery.

The service core (``repro.engine.service``) is deliberately in-memory and
sans-IO; this package subclasses it with a versioned write-ahead journal
of service-state events so a killed process can be reconstructed exactly:

* :mod:`repro.durability.journal` — the record taxonomy and the pluggable
  :class:`JournalStore` protocol (JSONL file store, sqlite store) with
  fsync-batched group commit.
* :mod:`repro.durability.codec` — a type-tagged JSON codec so submission
  descriptors (queries, tweet streams, images) round-trip losslessly.
* :mod:`repro.durability.snapshot` — quiescent-point snapshot compaction:
  recovery loads the snapshot and replays only the journal tail.
* :mod:`repro.durability.service` — :class:`DurableSchedulerService`, the
  journaling subclass of :class:`~repro.engine.service.SchedulerService`
  whose handles are plain ``QueryHandle`` objects.  A store error is
  fail-stop: the service raises :class:`JournalFailed` from then on.
* :mod:`repro.durability.recovery` — :func:`recover`, which rebuilds a
  service from its journal (plus optional snapshot) and resumes standing
  queries exactly where they stopped.

Recovery is deterministic re-execution: the journal records every
*external* action (tenant registration, submit, cancel) stamped with the
service tick it happened at, and replay interleaves those actions with
``step()`` calls in exactly the recorded order.  Because the simulated
market is a pure function of its seed and publish order (DESIGN.md §9),
re-execution regenerates every grant, submission event and settlement
bit-for-bit — which the replay engine *verifies* against the journaled
progress records, raising :class:`RecoveryDivergence` on the first
mismatch.
"""

from repro.durability.journal import (
    ACTION_KINDS,
    DURABLE_KINDS,
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    FileJournalStore,
    JournalError,
    JournalFailed,
    JournalStore,
    SqliteJournalStore,
    open_store,
)
from repro.durability.recovery import (
    RecoveryDivergence,
    RecoveryError,
    outcome_digest,
    outcome_summary,
    recover,
)
from repro.durability.service import DurableSchedulerService
from repro.durability.snapshot import SNAPSHOT_VERSION, SnapshotError

__all__ = [
    "ACTION_KINDS",
    "DURABLE_KINDS",
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "SNAPSHOT_VERSION",
    "DurableSchedulerService",
    "FileJournalStore",
    "JournalError",
    "JournalFailed",
    "JournalStore",
    "RecoveryDivergence",
    "RecoveryError",
    "SnapshotError",
    "SqliteJournalStore",
    "open_store",
    "outcome_digest",
    "outcome_summary",
    "recover",
]
