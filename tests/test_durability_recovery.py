"""Crash-recovery tests for the durable service (DESIGN.md §12).

The module baseline runs one journaled mixed workload — a terminal IT
query, a standing TSA query (whose window boundaries produce quiescent
auto-snapshot points), a reserved query cancelled mid-flight, and a final
IT query — then every test "crashes" it by truncating a copy of the
journal at some record boundary (plus torn garbage) and recovers.

The kill-and-recover property under test: every query whose submission
reached the journal finishes **bit-identically** to the uninterrupted
run, and once the truncation point is past the last journaled action the
whole outcome digest (results, ledger, reservations, grant log) matches.
Snapshot recovery must additionally be O(delta): the ``replayed_records``
/ ``replayed_events`` counters prove only the post-snapshot tail was
re-executed.
"""

from __future__ import annotations

import asyncio
import errno
import json
import sqlite3

import pytest
from ack_probe import AckProbeStore
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.market import PublishedHIT, SimulatedMarket
from repro.durability import (
    DurableSchedulerService,
    RecoveryDivergence,
    RecoveryError,
    open_store,
    outcome_digest,
    outcome_summary,
    recover,
)
from repro.durability.journal import (
    ACTION_KINDS,
    DURABLE_KINDS,
    FileJournalStore,
    JournalError,
    JournalFailed,
)
from repro.engine.query import Query
from repro.engine.service import QueryHandle, QueryState, SchedulerService
from repro.it.images import generate_images
from repro.system import CDAS
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import generate_tweets, tweet_to_question

SEED = 41

#: Crash-file suffixes a torn final write could leave behind.
TORN_TAILS = (b"", b'{"k":"ev","t":', b"\x00\x00garbage")


def _build_system(pool) -> CDAS:
    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=SEED), seed=SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    cdas.calibrate(
        [tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1
    )
    return cdas


def _image_query(subject: str) -> Query:
    return Query(
        keywords=("tags",), required_accuracy=0.85,
        domain="images", subject=subject,
    )


def _drive_workload(service) -> None:
    """The canonical journaled run: IT, standing TSA (auto-snapshots at
    its window boundaries), a reserved query cancelled mid-flight, IT."""
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
    rio = generate_tweets(["rio"], per_movie=24, seed=SEED + 2)
    solaris = generate_tweets(["solaris"], per_movie=12, seed=SEED + 4)
    images = generate_images(per_subject=1, seed=SEED + 3)[:4]
    service.register_tenant("acme", budget_cap=60.0, priority=2.0)
    service.submit(
        "image-tagging", _image_query("tags-a"), tenant="acme",
        images=images[:2], gold_images=images[:1],
        images_per_hit=2, worker_count=5,
    )
    service.run_until_idle()
    service.submit(
        "twitter-sentiment",
        Query(keywords=("rio",), required_accuracy=0.9,
              domain="movies", subject="rio"),
        tenant="acme", gold_tweets=gold,
        stream=TweetStream(tweets=tuple(rio), unit_seconds=43200.0),
        batch_size=4, worker_count=5, windows=2,
    )
    service.run_until_idle()
    doomed = service.submit(
        "twitter-sentiment",
        Query(keywords=("solaris",), required_accuracy=0.9,
              domain="movies", subject="solaris"),
        tenant="acme", gold_tweets=gold, tweets=solaris,
        batch_size=4, worker_count=5, reserve=True,
    )
    while doomed.progress().hits_in_flight == 0:
        service.step()
    service.step()  # let the first HIT charge some assignments
    assert doomed.state is QueryState.RUNNING
    assert doomed.cancel()
    service.submit(
        "image-tagging", _image_query("tags-b"), tenant="beta",
        images=images[2:], gold_images=images[2:3],
        images_per_hit=2, worker_count=5,
    )
    service.run_until_idle()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory, small_pool):
    """One journaled baseline run; tests truncate copies of its journal."""
    root = tmp_path_factory.mktemp("durable")
    path = root / "svc.journal.jsonl"
    service = _build_system(small_pool).service(
        max_in_flight=1, journal=path, snapshot_every=6
    )
    _drive_workload(service)
    service.close()
    records = [json.loads(line) for line in path.read_bytes().split(b"\n") if line]
    lines = path.read_bytes().split(b"\n")
    snaps = [i for i, r in enumerate(records) if r["k"] == "snapshot"]
    actions = [i for i, r in enumerate(records) if r["k"] in ACTION_KINDS]
    summary = outcome_summary(service)
    # The workload must produce what the tests rely on: snapshots (some
    # while the standing query is mid-flight), a journaled cancel, and a
    # submission after the cancel.
    cancel_at = next(i for i, r in enumerate(records) if r["k"] == "cancel")
    tsa_done_t = next(r["t"] for r in records if r["k"] == "done" and r["q"] == 1)
    tsa_submit_t = next(
        r["t"] for r in records if r["k"] == "submit" and r["q"] == 1
    )
    assert any(tsa_submit_t < records[i]["t"] < tsa_done_t for i in snaps)
    assert cancel_at < actions[-1]
    return {
        "root": root,
        "path": path,
        "lines": lines,
        "records": records,
        "snaps": snaps,
        "actions": actions,
        "cancel_at": cancel_at,
        "digest": outcome_digest(service),
        "queries": summary["queries"],
        "summary": summary,
        "tenants": service.admission.tenants,
        "pool": small_pool,
    }


def _crash_copy(baseline, cut: int, torn: bytes = b"", tag: str = "t") -> object:
    """A copy of the journal truncated to its first ``cut`` records, with
    ``torn`` appended the way a crash mid-write would leave it.  Lives in
    the baseline dir so snapshot files resolve."""
    path = baseline["root"] / f"crash-{tag}-{cut}-{len(torn)}.journal.jsonl"
    path.write_bytes(b"\n".join(baseline["lines"][:cut]) + b"\n" + torn)
    return path


def _expected_tail(baseline, cut: int) -> int:
    """How many records recovery must re-execute for a cut: everything
    after the newest snapshot before the cut (snapshot pointers aside)."""
    used = max((s for s in baseline["snaps"] if s < cut), default=0)
    return sum(
        1 for r in baseline["records"][used + 1 : cut] if r["k"] != "snapshot"
    )


def _recover_and_finish(baseline, path, **kwargs):
    service = recover(path, _build_system(baseline["pool"]), **kwargs)
    service.run_until_idle()
    service.close()
    return service


class TestKillAndRecover:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_crash_point_recovers_bit_identically(self, baseline, data):
        cut = data.draw(
            st.integers(min_value=1, max_value=len(baseline["records"]))
        )
        torn = data.draw(st.sampled_from(TORN_TAILS))
        service = _recover_and_finish(
            baseline, _crash_copy(baseline, cut, torn, tag="hyp")
        )
        # Every journaled submission finishes exactly as the uninterrupted
        # run finished it.  One legitimate exception: a query whose CANCEL
        # fell past the cut was never durably cancelled, so the recovered
        # run (correctly) lets it finish instead.
        lost_cancels = {
            r["q"]
            for i, r in enumerate(baseline["records"])
            if r["k"] == "cancel" and i >= cut
        }
        queries = outcome_summary(service)["queries"]
        for seq, got in enumerate(queries):
            if seq in lost_cancels:
                assert got["state"] == "done"
                continue
            assert got == baseline["queries"][seq]
        # ...the re-executed tail is exactly the post-snapshot delta...
        assert service.replayed_records == _expected_tail(baseline, cut)
        # ...and once every action is in the prefix the whole world —
        # ledger, reservations, grant log — is bit-identical.
        if cut > baseline["actions"][-1]:
            assert outcome_digest(service) == baseline["digest"]

    def test_clean_shutdown_recovers_identically(self, baseline):
        service = _recover_and_finish(baseline, _crash_copy(
            baseline, len(baseline["records"]), tag="clean"
        ))
        assert outcome_digest(service) == baseline["digest"]
        assert outcome_summary(service) == baseline["summary"]

    def test_recovered_service_keeps_journaling_and_recovers_again(
        self, baseline
    ):
        # Crash once mid-run, recover, run to idle (which appends the
        # re-executed suffix to the same journal)...
        cut = baseline["actions"][-1] + 1
        path = _crash_copy(baseline, cut, tag="twice")
        first = _recover_and_finish(baseline, path)
        digest = outcome_digest(first)
        assert digest == baseline["digest"]
        # ...then crash the *recovered* run and recover that: the journal
        # a recovery writes must itself be recoverable.
        data = path.read_bytes().split(b"\n")
        data = data[: len(data) - 4]
        path.write_bytes(b"\n".join(data) + b"\n" + b'{"k":"grant","to')
        second = _recover_and_finish(baseline, path)
        assert outcome_digest(second) == digest


class TestCancelAcrossRestart:
    def test_journaled_cancel_survives_crash(self, baseline):
        # Crash immediately after the cancel hit the journal — before any
        # of the cancellation's market effects were re-journaled.  The
        # write-ahead ordering makes this the worst case: recovery must
        # re-apply the cancel, never re-admit or re-charge the query.
        service = _recover_and_finish(baseline, _crash_copy(
            baseline, baseline["cancel_at"] + 1, tag="cancel"
        ))
        doomed = service.handles[2]
        assert doomed.state is QueryState.CANCELLED
        base_doomed = baseline["queries"][2]
        assert outcome_summary(service)["queries"][2] == base_doomed
        # Charge-final: the spend is exactly the pre-cancel charges.
        assert doomed.spend == base_doomed["spend"]
        # Nothing was re-granted to the dead query during recovery's
        # continuation, and its reservation settled back to zero.
        baseline_grants = [
            seq for _, seq in baseline["summary"]["grant_log"]
        ].count(2)
        assert [
            seq for _, seq in service.admission.grant_log
        ].count(2) == baseline_grants
        assert doomed.reserved == 0.0
        assert service.tenant_reserved("acme") == 0.0

    @pytest.mark.parametrize("probe", [False, True], ids=["stock", "ack-probe"])
    def test_cancel_is_committed_before_the_market_forfeits(
        self, small_pool, journal_path, monkeypatch, probe
    ):
        # Write-ahead: by the time the backend is told to forfeit a HIT,
        # the cancel record is already committed, so no crash can leave
        # a forfeited HIT behind a query that recovery would re-admit.
        # The probe store syncs only on commit, so there the service's
        # own commit is all that can cover the record.
        store = AckProbeStore(journal_path) if probe else open_store(journal_path)
        committed = store.synced_records if probe else store.read_records
        service = _build_system(small_pool).service(max_in_flight=1, journal=store)
        images = generate_images(per_subject=1, seed=SEED + 3)[:2]
        handle = service.submit(
            "image-tagging", _image_query("tags-a"),
            images=images, gold_images=images[:1],
            images_per_hit=2, worker_count=5,
        )
        while handle.progress().hits_in_flight == 0:
            service.step()
        committed_at_forfeit = []
        forfeit = PublishedHIT.cancel

        def probe(hit):
            if not committed_at_forfeit:
                committed_at_forfeit.append(committed())
            return forfeit(hit)

        monkeypatch.setattr(PublishedHIT, "cancel", probe)
        assert handle.cancel()
        (records,) = committed_at_forfeit
        assert any(
            record["k"] == "cancel" and record["q"] == handle.seq
            for record in records
        )
        service.close()


class TestSnapshotCompaction:
    def test_recovery_from_snapshot_is_o_delta(self, baseline):
        last_snap = baseline["snaps"][-1]
        cut = last_snap + 1
        service = _recover_and_finish(
            baseline, _crash_copy(baseline, cut, tag="odelta")
        )
        # The snapshot absorbed the whole prefix: nothing to re-execute.
        assert service.replayed_records == 0
        assert service.replayed_events == 0
        queries = outcome_summary(service)["queries"]
        assert queries == baseline["queries"][: len(queries)]

    def test_full_replay_matches_and_replays_strictly_more(self, baseline):
        cut = len(baseline["records"])
        path = _crash_copy(baseline, cut, tag="full")
        with_snap = _recover_and_finish(baseline, path)
        without = _recover_and_finish(baseline, path, use_snapshot=False)
        assert outcome_digest(with_snap) == baseline["digest"]
        assert outcome_digest(without) == baseline["digest"]
        # Tenant policies are inputs too: a registration that never
        # reached the journal comes back from a full replay as a default
        # tenant (a snapshot would mask it).
        assert without.admission.tenants == baseline["tenants"]
        assert with_snap.admission.tenants == baseline["tenants"]
        assert without.replayed_records > with_snap.replayed_records
        assert without.replayed_events >= with_snap.replayed_events
        assert without.replayed_records == sum(
            1 for r in baseline["records"][1:] if r["k"] != "snapshot"
        )

    def test_mid_standing_snapshot_resumes_the_standing_query(self, baseline):
        # A snapshot taken while the standing TSA query was between
        # windows: recovery must regenerate its batch sources, fast-forward
        # them past the granted specs, and pull the remaining windows.
        records, snaps = baseline["records"], baseline["snaps"]
        tsa_done_t = next(
            r["t"] for r in records if r["k"] == "done" and r["q"] == 1
        )
        mid = [s for s in snaps if records[s]["t"] < tsa_done_t and records[s]["t"] > 0]
        mid_snap = next(
            s for s in mid
            if any(r["k"] == "submit" and r["q"] == 1 for r in records[:s])
        )
        service = _recover_and_finish(baseline, _crash_copy(
            baseline, mid_snap + 1, tag="midsnap"
        ))
        standing = service.handles[1]
        assert standing.state is QueryState.DONE
        assert outcome_summary(service)["queries"][1] == baseline["queries"][1]

    def test_missing_snapshot_file_falls_back(self, baseline):
        # Corrupt the newest snapshot's file: recovery must fall back to
        # an older snapshot (or a full replay) rather than fail or trust
        # a file whose digest does not match the journal pointer.
        cut = len(baseline["records"])
        path = _crash_copy(baseline, cut, tag="nosnap")
        last_snap_rec = baseline["records"][baseline["snaps"][-1]]
        snap_file = baseline["root"] / last_snap_rec["path"]
        original = snap_file.read_bytes()
        try:
            snap_file.write_bytes(original[:-7] + b"\x00torn\x00")
            service = _recover_and_finish(baseline, path)
            assert outcome_digest(service) == baseline["digest"]
            assert service.replayed_records > 0  # older snapshot + longer tail
        finally:
            snap_file.write_bytes(original)

    def test_snapshot_requires_quiescence(self, baseline, small_pool, tmp_path):
        from repro.durability.snapshot import SnapshotError

        gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
        solaris = generate_tweets(["solaris"], per_movie=12, seed=SEED + 4)
        service = _build_system(small_pool).service(
            max_in_flight=1, journal=tmp_path / "q.journal.jsonl"
        )
        handle = service.submit(
            "twitter-sentiment",
            Query(keywords=("solaris",), required_accuracy=0.9,
                  domain="movies", subject="solaris"),
            gold_tweets=gold, tweets=solaris, batch_size=4, worker_count=5,
        )
        while handle.progress().hits_in_flight == 0:
            service.step()
        with pytest.raises(SnapshotError, match="quiescence"):
            service.snapshot()
        service.run_until_idle()
        service.snapshot()  # idle service: always quiescent
        service.close()


class TestSqliteStore:
    def test_sqlite_journal_recovers_after_row_loss(self, small_pool, tmp_path):
        path = tmp_path / "svc.journal.sqlite"
        service = _build_system(small_pool).service(
            max_in_flight=1, journal=path, snapshot_every=6
        )
        _drive_workload(service)
        service.close()
        digest = outcome_digest(service)
        count = len(open_store(path).read_records())
        # Same workload, same seed: the backing store must not leak into
        # the outcomes.
        # Crash simulation: drop the uncommitted tail (sqlite's analogue
        # of a torn JSONL tail is rows that never committed).
        con = sqlite3.connect(path)
        keep = con.execute(
            "SELECT id FROM journal ORDER BY id"
        ).fetchall()[count - 5][0]
        con.execute("DELETE FROM journal WHERE id > ?", (keep,))
        con.commit()
        con.close()
        service = recover(path, _build_system(small_pool))
        service.run_until_idle()
        service.close()
        assert outcome_digest(service) == digest

    def test_sqlite_and_file_journals_agree(self, baseline, small_pool, tmp_path):
        service = _build_system(small_pool).service(
            max_in_flight=1,
            journal=tmp_path / "svc.journal.sqlite",
            snapshot_every=6,
        )
        _drive_workload(service)
        service.close()
        assert outcome_digest(service) == baseline["digest"]


class TestReplayBackendSeam:
    def test_recover_against_a_recorded_market_trace(self, small_pool, tmp_path):
        from repro.amt.pool import PoolConfig, WorkerPool
        from repro.amt.trace import TraceRecorder, TraceReplayBackend

        trace_path = tmp_path / "market.trace.jsonl"
        journal = tmp_path / "svc.journal.jsonl"
        pool = WorkerPool.from_config(PoolConfig(size=120), seed=7)
        system = _build_system(small_pool)
        with TraceRecorder(
            SimulatedMarket(pool, seed=SEED), trace_path
        ) as recorder:
            service = system.service(
                max_in_flight=1, backend=recorder, journal=journal
            )
            _drive_workload(service)
            service.close()
        digest = outcome_digest(service)
        # Crash the journal, then re-arm the in-flight work from the
        # recorded trace instead of the simulated market.
        data = journal.read_bytes().split(b"\n")
        journal.write_bytes(b"\n".join(data[: len(data) - 4]) + b"\n")
        recovered = recover(
            journal,
            _build_system(small_pool),
            backend=TraceReplayBackend.load(trace_path),
        )
        recovered.run_until_idle()
        recovered.close()
        assert outcome_digest(recovered) == digest


class TestAsyncDriver:
    def test_async_durable_run_recovers_identically(self, small_pool, tmp_path):
        path = tmp_path / "aio.journal.jsonl"
        gold = generate_tweets(["gold-movie"], per_movie=12, seed=SEED + 1)
        rio = generate_tweets(["rio"], per_movie=24, seed=SEED + 2)
        images = generate_images(per_subject=1, seed=SEED + 3)[:2]

        async def run() -> str:
            aservice = _build_system(small_pool).async_service(
                max_in_flight=1, journal=path
            )
            async with aservice:
                aservice.register_tenant("acme", budget_cap=60.0, priority=2.0)
                h1 = aservice.submit(
                    "twitter-sentiment",
                    Query(keywords=("rio",), required_accuracy=0.9,
                          domain="movies", subject="rio"),
                    tenant="acme", gold_tweets=gold,
                    stream=TweetStream(tweets=tuple(rio), unit_seconds=43200.0),
                    batch_size=4, worker_count=5, windows=2,
                )
                h2 = aservice.submit(
                    "image-tagging", _image_query("tags-a"),
                    images=images, gold_images=images[:1],
                    images_per_hit=2, worker_count=5,
                )
                await h1.result()
                await h2.result()
            aservice.service.close()
            return outcome_digest(aservice.service)

        digest = asyncio.run(run())
        # The driver flushed at dormancy/drain; the journal on disk must
        # replay to the exact same world, torn tail and all.
        with open(path, "ab") as fh:
            fh.write(b'{"k":"ev","t"')
        recovered = recover(path, _build_system(small_pool))
        recovered.run_until_idle()
        recovered.close()
        assert outcome_digest(recovered) == digest


class TestFailureModes:
    def test_empty_journal_refused(self, small_pool, journal_path):
        journal_path.write_bytes(b"")
        with pytest.raises(RecoveryError, match="empty"):
            recover(journal_path, _build_system(small_pool))

    def test_seed_mismatch_refused(self, baseline, small_pool):
        path = _crash_copy(baseline, len(baseline["records"]), tag="seed")
        other = CDAS.with_default_jobs(
            SimulatedMarket(small_pool, seed=SEED + 1), seed=SEED + 1
        )
        with pytest.raises(RecoveryError, match="seed"):
            recover(path, other)

    def test_tampered_journal_raises_divergence(self, baseline):
        records = [json.loads(line) for line in baseline["lines"] if line]
        tampered = next(
            i for i, r in enumerate(records)
            if r["k"] == "ev" and i > baseline["actions"][1]
        )
        records[tampered]["w"] = str(records[tampered]["w"]) + "x"
        path = baseline["root"] / "tampered.journal.jsonl"
        path.write_bytes(
            b"\n".join(
                json.dumps(r, separators=(",", ":")).encode() for r in records
            )
            + b"\n"
        )
        with pytest.raises(RecoveryDivergence, match="diverged"):
            recover(path, _build_system(baseline["pool"]), use_snapshot=False)

    def test_fresh_service_refuses_existing_journal(self, baseline, small_pool):
        path = _crash_copy(baseline, 5, tag="fresh")
        with pytest.raises(JournalError, match="recover"):
            _build_system(small_pool).service(journal=path)

    def test_refused_submission_journals_nothing(self, small_pool, journal_path):
        service = _build_system(small_pool).service(journal=journal_path)
        before = service.journal_offset
        with pytest.raises(KeyError):
            service.submit("no-such-job", _image_query("x"))
        assert service.journal_offset == before
        service.close()

    def test_invalid_tenant_journals_nothing(self, small_pool, journal_path):
        """A refused registration leaves no record: one that raises on
        replay would make every later recover() of the journal fail."""
        service = _build_system(small_pool).service(journal=journal_path)
        service.register_tenant("acme", budget_cap=1.0)
        with pytest.raises(ValueError, match="priority"):
            service.register_tenant("bad", priority=0)
        with pytest.raises(ValueError, match="budget cap"):
            service.register_tenant("bad", budget_cap=-1.0)
        service.flush_journal()
        service.close()
        tenants = [
            record["name"]
            for record in open_store(journal_path).read_records()
            if record["k"] == "tenant"
        ]
        assert tenants == ["acme"]
        recovered = recover(journal_path, _build_system(small_pool))
        assert [t.name for t in recovered.admission.tenants] == ["acme"]
        recovered.close()

    def test_durable_wrapper_exposes_the_service_surface(
        self, small_pool, journal_path
    ):
        service = _build_system(small_pool).service(journal=journal_path)
        assert isinstance(service, DurableSchedulerService)
        assert isinstance(service, SchedulerService)
        assert service.max_in_flight == 4
        assert service.idle
        assert service.handles == ()
        assert service.next_arrival_eta() is None
        plan = service.plan(
            "image-tagging", _image_query("tags-a"),
            images=generate_images(per_subject=1, seed=SEED + 3)[:2],
            gold_images=generate_images(per_subject=1, seed=SEED + 3)[:1],
            images_per_hit=2, worker_count=5,
        )
        assert service.preadmit(plan).admitted
        assert service.journal_offset == 1  # planning journals nothing
        service.close()


# ---------------------------------------------------------------------------
# Fail-stop: a journal store error stops the service before memory runs
# ahead of disk
# ---------------------------------------------------------------------------


class _FaultyStore(FileJournalStore):
    """A JSONL store that raises ``OSError(EIO)`` once, at record ``k``
    (1-based append count): before writing it (``phase="append"``) or in
    the group commit that append triggers (``phase="commit"``)."""

    def __init__(self, path, k: int, phase: str = "append", fsync_every: int = 4):
        super().__init__(path, fsync_every=fsync_every)
        self.k = k
        self.phase = phase
        self.fired: dict | None = None
        self._pending: dict | None = None

    def _fault(self, record) -> None:
        self.fired = record
        raise OSError(errno.EIO, "injected I/O error")

    def append(self, record):
        if self.fired is None and self.appended + 1 == self.k:
            if self.phase == "append":
                self._fault(record)
            self._pending = record
        super().append(record)

    def _commit(self):
        if self.fired is None and self._pending is not None:
            self._fault(self._pending)
        super()._commit()


def _fail_stop_workload(service, acked: list[str]) -> None:
    """Tenant, a submit, a few steps, a second submit, run to idle;
    ``acked`` collects the subjects whose submit was acknowledged."""
    images = generate_images(per_subject=1, seed=SEED + 3)[:4]
    service.register_tenant("acme", budget_cap=60.0, priority=2.0)
    for subject, pics in (("tags-a", images[:2]), ("tags-b", images[2:])):
        service.submit(
            "image-tagging", _image_query(subject), tenant="acme",
            images=pics, gold_images=pics[:1],
            images_per_hit=2, worker_count=5,
        )
        acked.append(subject)
        for _ in range(6):
            service.step()
    service.run_until_idle()


@pytest.fixture(scope="module")
def fail_stop_records(tmp_path_factory, small_pool):
    """The fault-free journal of the fail-stop workload (to pick k from)."""
    path = tmp_path_factory.mktemp("failstop") / "clean.journal.jsonl"
    service = _build_system(small_pool).service(max_in_flight=1, journal=path)
    _fail_stop_workload(service, [])
    service.close()
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def _fault_point(records, where: str) -> tuple[int, str]:
    """(k, phase) for one of the three failure points."""
    if where == "submit":
        index = [i for i, r in enumerate(records) if r["k"] == "submit"][1]
        return index + 1, "append"
    if where == "mark":
        index = [i for i, r in enumerate(records) if r["k"] == "ev"][4]
        return index + 1, "append"
    # The first group commit: a progress mark that fills a 4-record batch.
    unsynced = 0
    for index, record in enumerate(records):
        unsynced += 1
        if record["k"] in DURABLE_KINDS:
            unsynced = 0
        elif unsynced >= 4:
            return index + 1, "commit"
    raise AssertionError("workload never group-commits")


class TestFailStop:
    @pytest.mark.parametrize("where", ["submit", "mark", "commit"])
    def test_store_error_poisons_the_service(
        self, fail_stop_records, small_pool, tmp_path, where
    ):
        k, phase = _fault_point(fail_stop_records, where)
        path = tmp_path / "svc.journal.jsonl"
        store = _FaultyStore(path, k, phase)
        service = _build_system(small_pool).service(max_in_flight=1, journal=store)
        acked: list[str] = []
        with pytest.raises(JournalFailed) as failure:
            _fail_stop_workload(service, acked)
        cause = failure.value.__cause__
        assert isinstance(cause, OSError) and cause.errno == errno.EIO
        assert store.fired == fail_stop_records[k - 1]
        # The crash: only what reached the file survives.
        crashed = tmp_path / "crashed.journal.jsonl"
        crashed.write_bytes(path.read_bytes())

        ledger = service.engine.market.ledger
        cost = ledger.total_cost
        handle = next(h for h in service.handles if not h.done)
        attempts = [
            lambda: service.register_tenant("late"),
            lambda: service.submit(
                "image-tagging", _image_query("late"), tenant="acme",
                images=generate_images(per_subject=1, seed=SEED + 3)[:2],
                worker_count=5,
            ),
            handle.cancel,
            handle.result,
            service.step,
            service.run_until_idle,
            service.flush_journal,
            service.snapshot,
        ]
        for attempt in attempts:
            with pytest.raises(JournalFailed):
                attempt()
        assert ledger.total_cost == cost
        assert isinstance(service.failure, OSError)
        store.close()

        recovered = recover(crashed, _build_system(small_pool))
        recovered.run_until_idle()
        subjects = [h.query.subject for h in recovered.handles]
        # Every acknowledged submit survives; the unacknowledged one
        # (its record never reached the journal) does not exist.
        assert subjects[: len(acked)] == acked
        if where == "submit":
            assert subjects == ["tags-a"]
        assert all(h.state is QueryState.DONE for h in recovered.handles)
        # A journaled service issues the base class's plain handles.
        assert all(type(h) is QueryHandle for h in recovered.handles)
        recovered.close()
