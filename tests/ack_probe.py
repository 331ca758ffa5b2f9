"""A journal store that makes nothing durable until it is told to commit.

The gateway and durability tests share :class:`AckProbeStore` to check
where an acknowledged action becomes durable: the stock stores sync an
action record as they append it, so only a store that defers every sync
shows whether the service itself commits before it returns.
"""

from __future__ import annotations

import json

from repro.durability.journal import FileJournalStore


class AckProbeStore(FileJournalStore):
    """A JSONL journal that syncs only when told to commit.

    The :class:`~repro.durability.journal.JournalStore` protocol lets
    ``append`` defer every sync, so this is a legal store: nothing is
    durable until something calls ``commit``.  It records how many bytes
    each sync made durable, which is exactly what survives a crash.
    """

    def __init__(self, path):
        super().__init__(path)
        self.synced = 0

    def append(self, record):
        self._write_line(json.dumps(record, separators=(",", ":")))
        self.appended += 1
        self._unsynced += 1

    def _sync(self):
        super()._sync()
        self.synced = self._fh.tell()

    def synced_bytes(self) -> bytes:
        """The journal a crash right now would leave: the synced prefix."""
        return self.path.read_bytes()[: self.synced]

    def synced_records(self) -> list[dict]:
        """The records of :meth:`synced_bytes`."""
        return [json.loads(line) for line in self.synced_bytes().splitlines()]

    def crash_copy(self, path):
        """Write :meth:`synced_bytes` to ``path``; returns ``path``."""
        path.write_bytes(self.synced_bytes())
        return path
