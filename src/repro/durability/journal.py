"""Write-ahead journal stores and the service-event record taxonomy.

Records are plain JSON-able dicts.  Every record carries:

``k``
    The record kind (see below).
``t``
    The service *tick* — the count of ``DurableSchedulerService.step()``
    calls at the moment the record was emitted.  Ticks are what lets
    recovery interleave re-applied actions with ``step()`` calls in
    exactly the original order.

Kinds fall in two classes:

**Actions** (``tenant`` / ``submit`` / ``cancel``) are the external
inputs the service cannot re-derive; recovery re-applies them.  They are
committed (fsync'd) before the call returns — an acknowledged action is
never lost.

**Progress marks** (``grant`` / ``ev`` / ``window`` / ``reserve`` /
``done``) are re-derivable by deterministic re-execution; the journal
keeps them so recovery can *verify* the re-execution bit-for-bit and so
operators can see how far a crashed run got.  They are group-committed
(one fsync per ``fsync_every`` appends); a crash loses at most the
un-synced tail, which re-execution simply regenerates.

``header`` opens every journal (format + version + service config);
``snapshot`` points at a snapshot file taken at that offset.  Both are
committed immediately.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.util.records import RecordFormat, read_frames

JOURNAL_FORMAT = "cdas-journal"
JOURNAL_VERSION = 1

#: Records recovery re-applies (external inputs).
ACTION_KINDS = frozenset({"tenant", "submit", "cancel"})

#: Records whose loss is unacceptable: committed before the append returns.
#: Everything else rides the group-commit batch.
DURABLE_KINDS = frozenset({"header", "tenant", "submit", "cancel", "done", "snapshot"})

#: Default group-commit batch: one fsync per this many progress marks.
#: Marks are recoverable by re-execution from the last durable action, so
#: losing a batch costs replay time, never data — which is why the default
#: batch is generous (a sync barrier costs ~1ms on container filesystems).
DEFAULT_FSYNC_EVERY = 256

#: One encoder for every appended line: ``json.dumps`` with arguments
#: builds a fresh encoder per call.  Same bytes, compact and NaN-free.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


class JournalError(RuntimeError):
    """A journal could not be read, parsed or version-matched."""


class JournalFailed(JournalError):
    """A store append or commit raised: the service is poisoned (fail-stop).

    Memory may now be ahead of disk, so the service refuses every further
    action; recovering the on-disk prefix is the only way forward.
    """


#: The journal's header rule (:class:`~repro.util.records.RecordFormat`).
JOURNAL = RecordFormat(JOURNAL_FORMAT, JOURNAL_VERSION, kind_key="k", error=JournalError)

#: Validate a journal's first record; returns it.
check_header = JOURNAL.check_header


def make_header(
    *,
    seed: int | None,
    service: dict[str, Any],
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The record that opens every journal."""
    return JOURNAL.header(
        {"t": 0}, seed=seed, service=dict(service), meta=dict(meta or {})
    )


@runtime_checkable
class JournalStore(Protocol):
    """Pluggable append-only record log.

    Implementations must make :meth:`commit` a durability barrier (records
    appended before it survive a crash after it) and :meth:`read_records`
    tolerant of a torn tail — a crash mid-append must read as "that record
    never happened", never as corruption.
    """

    path: Path

    def append(self, record: dict[str, Any]) -> None:
        """Buffer one record; auto-commits per the store's batch policy."""
        ...

    def commit(self) -> None:
        """Durability barrier: flush and fsync everything appended."""
        ...

    def read_records(self) -> list[dict[str, Any]]:
        """Every committed record, in append order."""
        ...

    def close(self) -> None: ...


class FileJournalStore:
    """JSONL journal with fsync-batched group commit.

    One record per line, framed by :func:`~repro.util.records.read_frames`.
    A torn final line (crash mid-write) is detected at read time and
    truncated away before the next append, so the file is always a clean
    prefix of the logical journal.

    The batching policy lives here; :class:`SqliteJournalStore` inherits
    it and overrides only the storage primitives (``_write_line``,
    ``_sync``, ``read_records``, ``close``).
    """

    def __init__(self, path: str | Path, fsync_every: int = DEFAULT_FSYNC_EVERY) -> None:
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._fh: io.BufferedWriter | None = None
        self._unsynced = 0
        #: fsync calls issued — benchmarks read this to prove batching.
        self.syncs = 0
        self.appended = 0
        #: Wall-clock seconds spent in append/commit — the journal's true
        #: cost inside a run, read by the overhead gate in bench_journal.
        self.write_seconds = 0.0

    # -- reading -------------------------------------------------------------

    def read_records(self) -> list[dict[str, Any]]:
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        frames = read_frames(data)
        if frames.end < len(data) and self._fh is None:
            # Drop the torn garbage now so a later append continues the
            # clean prefix (requires the file not be open for append yet).
            with open(self.path, "r+b") as fh:
                fh.truncate(frames.end)
        return frames.records

    # -- writing -------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        start = time.perf_counter()
        self._write_line(_ENCODER.encode(record))
        self.appended += 1
        self._unsynced += 1
        if record.get("k") in DURABLE_KINDS or self._unsynced >= self.fsync_every:
            self._commit()
        self.write_seconds += time.perf_counter() - start

    def commit(self) -> None:
        start = time.perf_counter()
        self._commit()
        self.write_seconds += time.perf_counter() - start

    def _commit(self) -> None:
        if self._unsynced == 0:
            return
        self._sync()
        self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "FileJournalStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- storage primitives --------------------------------------------------

    def _write_line(self, line: str) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                # Clear any torn tail before continuing the journal.
                self.read_records()
            self._fh = open(self.path, "ab")
        self._fh.write(line.encode("utf-8") + b"\n")

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        # fdatasync is the journal barrier of choice where the platform has
        # it: record data hits the platter without a metadata flush (the
        # file is append-only; size is re-derived at recovery anyway).
        getattr(os, "fdatasync", os.fsync)(self._fh.fileno())


class SqliteJournalStore(FileJournalStore):
    """The same journal behind stdlib :mod:`sqlite3`.

    Appends accumulate in one open transaction; a commit is a real
    transaction commit (sqlite's own durability barrier), so group-commit
    batching and torn-tail tolerance come for free — an uncommitted
    transaction simply never happened.
    """

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS journal ("
        " id INTEGER PRIMARY KEY AUTOINCREMENT,"
        " record TEXT NOT NULL)"
    )

    def __init__(self, path: str | Path, fsync_every: int = DEFAULT_FSYNC_EVERY) -> None:
        import sqlite3  # only this store uses it; file journals never load it

        super().__init__(path, fsync_every)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._con = sqlite3.connect(str(self.path))
        self._con.execute(self._SCHEMA)
        self._con.commit()

    def read_records(self) -> list[dict[str, Any]]:
        rows = self._con.execute("SELECT record FROM journal ORDER BY id").fetchall()
        return [json.loads(row[0]) for row in rows]

    def _write_line(self, line: str) -> None:
        self._con.execute("INSERT INTO journal (record) VALUES (?)", (line,))

    def _sync(self) -> None:
        self._con.commit()

    def close(self) -> None:
        self.commit()
        self._con.close()


#: Path suffixes routed to the sqlite store by :func:`open_store`.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(
    journal: "str | Path | JournalStore",
    fsync_every: int = DEFAULT_FSYNC_EVERY,
) -> "FileJournalStore | SqliteJournalStore | JournalStore":
    """Resolve a path (or pass through a store) to a :class:`JournalStore`.

    Paths ending in ``.sqlite`` / ``.sqlite3`` / ``.db`` get the sqlite
    store; everything else gets the JSONL file store.
    """
    if isinstance(journal, (str, Path)):
        path = Path(journal)
        if path.suffix.lower() in _SQLITE_SUFFIXES:
            return SqliteJournalStore(path, fsync_every=fsync_every)
        return FileJournalStore(path, fsync_every=fsync_every)
    return journal


def iter_actions(records: Iterable[dict[str, Any]]) -> Iterable[dict[str, Any]]:
    """The action records (external inputs) of a journal, in order."""
    return (r for r in records if r.get("k") in ACTION_KINDS)
