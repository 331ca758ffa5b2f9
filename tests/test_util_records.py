"""The shared record layer under traces and journals (repro.util.records).

One framing rule serves both append-only logs, so one torn-tail suite
runs every damaged-tail case against both readers: the journal store
returns the clean prefix and truncates the file to it, while the trace
loader refuses the file with a :class:`TraceError` naming the line.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.amt.hit import HIT, Question
from repro.amt.market import SimulatedMarket
from repro.amt.pool import PoolConfig, WorkerPool
from repro.amt.trace import TraceError, TraceRecorder, load_trace
from repro.durability.journal import FileJournalStore, make_header
from repro.util.records import RecordFormat, canonical_json, digest, read_frames

#: A damaged last line, as a crash or a bad edit leaves it.
TORN_TAILS = [
    pytest.param(b'{"k":"ev","t":', "not valid JSON", id="torn-mid-line"),
    pytest.param(b"not json at all", "not valid JSON", id="garbage"),
    pytest.param(b'{"k":"ev","t":9}', "unterminated", id="unterminated-but-parsable"),
    pytest.param(b"[1,2]\n", "not a JSON object", id="non-object-json"),
]


def _valid_trace(tmp_path):
    pool = WorkerPool.from_config(PoolConfig(size=40), seed=3)
    question = Question(
        question_id="q0", options=("yes", "no"), truth="yes", topic="general"
    )
    path = tmp_path / "t.jsonl"
    with TraceRecorder(SimulatedMarket(pool, seed=3), path) as recorder:
        handle = recorder.publish(
            HIT(hit_id="hit-r", questions=(question,), assignments=2)
        )
        handle.next_submission()
    return path


class TestTornTail:
    @pytest.mark.parametrize("tail,reason", TORN_TAILS)
    def test_journal_keeps_the_clean_prefix(self, tmp_path, tail, reason):
        path = tmp_path / "j.jsonl"
        records = [make_header(seed=1, service={})] + [
            {"k": "ev", "t": i} for i in range(3)
        ]
        with FileJournalStore(path) as store:
            for record in records:
                store.append(record)
        clean = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(tail)
        assert FileJournalStore(path).read_records() == records
        assert path.read_bytes() == clean  # truncated back to the prefix

    @pytest.mark.parametrize("tail,reason", TORN_TAILS)
    def test_trace_names_the_line(self, tmp_path, tail, reason):
        path = _valid_trace(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + tail)  # damage the end record
        with pytest.raises(TraceError, match=f":{len(lines)}: {reason}"):
            load_trace(path)


class TestMalformedTrace:
    def test_non_object_line_is_refused(self, tmp_path):
        path = _valid_trace(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "[1,2]\n"
        path.write_text("".join(lines))
        with pytest.raises(TraceError, match=":2: not a JSON object"):
            load_trace(path)

    def test_string_header_is_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('"cdas-trace"\n')
        with pytest.raises(TraceError, match=":1: not a JSON object"):
            load_trace(path)

    def test_record_missing_a_field_names_the_line(self, tmp_path):
        path = _valid_trace(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        publish = json.loads(lines[1])
        assert publish["type"] == "publish"
        del publish["index"]
        lines[1] = canonical_json(publish) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(TraceError, match=":2: publish record has no 'index'"):
            load_trace(path)


    def test_end_record_without_newline_is_truncated(self, tmp_path):
        """The recorder always ends a line with ``\\n``; a trace whose
        last record lacks it was cut short and is refused."""
        path = _valid_trace(tmp_path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with pytest.raises(TraceError, match="unterminated last line"):
            load_trace(path)


class TestReadFrames:
    def test_clean_input(self):
        data = b'{"a":1}\n\n{"b":2}\n'
        frames = read_frames(data)
        assert frames.records == [{"a": 1}, {"b": 2}]
        assert frames.lines == [1, 3]  # the blank line is skipped
        assert frames.end == len(data)
        assert frames.fault is None

    def test_nothing_after_a_bad_line_is_trusted(self):
        data = b'{"a":1}\nnope\n{"b":2}\n'
        frames = read_frames(data)
        assert frames.records == [{"a": 1}]
        assert frames.end == 8
        assert frames.fault is not None and frames.fault[0] == 2

    def test_empty_input(self):
        frames = read_frames(b"")
        assert (frames.records, frames.end, frames.fault) == ([], 0, None)


class TestRecordFormat:
    FMT = RecordFormat("demo-log", 2, kind_key="kind", error=ValueError)

    def test_header_key_order(self):
        header = self.FMT.header({"t": 0}, seed=7)
        assert list(header) == ["kind", "t", "format", "version", "seed"]
        assert self.FMT.check_header(header) is header

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"kind": "ev"}, "does not open with a header"),
            ({"format": "other"}, "not a demo-log file"),
            ({"version": 3}, "demo-log version 3 unsupported"),
        ],
    )
    def test_check_header_rejects(self, change, message):
        header = {**self.FMT.header(), **change}
        with pytest.raises(ValueError, match=f"^x: {message}"):
            self.FMT.check_header(header, "x: ")


def test_digest_is_sha256_of_canonical_json():
    value = {"b": [1.5, None], "a": "é"}
    expected = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    assert digest(value) == expected
    assert canonical_json(value) == '{"a":"\\u00e9","b":[1.5,null]}'
