"""Tests for the write-ahead journal layer (DESIGN.md §12).

Covers the record codec (type-tagged JSON for submission descriptors),
both journal stores (JSONL file + sqlite behind one protocol), the
fsync group-commit policy, torn-tail tolerance, and header versioning.
Recovery semantics live in ``test_durability_recovery.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import codec
from repro.durability.journal import (
    ACTION_KINDS,
    DURABLE_KINDS,
    FileJournalStore,
    JournalError,
    SqliteJournalStore,
    check_header,
    iter_actions,
    make_header,
    open_store,
)
from repro.engine.query import Query
from repro.it.images import SyntheticImage, generate_images
from repro.tsa.stream import TweetStream
from repro.tsa.tweets import SENTIMENTS, Tweet, generate_tweets


class TestCodec:
    def test_scalars_and_containers_round_trip(self):
        value = {
            "a": [1, 2.5, "x", None, True],
            "b": ("t", ("nested", 3)),
            "c": {"d": [("p", 1)]},
        }
        assert codec.decode(codec.encode(value)) == value

    def test_tuples_come_back_as_tuples_lists_as_lists(self):
        out = codec.decode(codec.encode({"t": (1, 2), "l": [1, 2]}))
        assert out["t"] == (1, 2) and isinstance(out["t"], tuple)
        assert out["l"] == [1, 2] and isinstance(out["l"], list)

    def test_query_round_trips_exactly(self):
        query = Query(
            keywords=("rio", "movie"), required_accuracy=0.9,
            domain=("pos", "neg"), timestamp=12.5, window=2, subject="rio",
        )
        assert codec.decode(codec.encode(query)) == query

    def test_registered_dataclasses_round_trip(self):
        tweets = generate_tweets(["rio"], per_movie=4, seed=3)
        stream = TweetStream(tweets=tuple(tweets), unit_seconds=60.0)
        images = generate_images(per_subject=1, seed=4)[:2]
        value = {"stream": stream, "tweets": tweets, "images": images}
        out = codec.decode(codec.encode(value))
        assert out["stream"] == stream
        assert out["tweets"] == tweets
        assert out["images"] == images

    def test_boundary_modules_register_every_dataclass(self):
        # Once one dataclass of a module rides the journal, its siblings
        # are one refactor away from riding it too; an unregistered one
        # would fail only on the recovery path.  So every top-level
        # dataclass of a registered class's module must be registered.
        registered = set(codec._REGISTRY.values())
        boundary = {cls.__module__ for cls in registered}
        assert boundary >= {
            "repro.engine.query", "repro.it.images",
            "repro.tsa.stream", "repro.tsa.tweets",
        }
        unregistered = [
            f"{name}.{value.__qualname__}"
            for name in sorted(boundary)
            for value in vars(importlib.import_module(name)).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__ == name
            and value not in registered
        ]
        assert unregistered == []

    def test_encoded_form_is_json_serialisable(self):
        tweets = generate_tweets(["rio"], per_movie=2, seed=3)
        encoded = codec.encode({"gold_tweets": tweets, "batch_size": 4})
        assert codec.decode(json.loads(json.dumps(encoded))) == {
            "gold_tweets": tweets, "batch_size": 4,
        }

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class Local:
            x: int

        with pytest.raises(codec.CodecError, match="not journal-codec registered"):
            codec.encode(Local(x=1))

    def test_decode_never_imports_unknown_types(self):
        with pytest.raises(codec.CodecError, match="unregistered type"):
            codec.decode({"__dc__": "os.system", "f": {}})

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(codec.CodecError, match="str keys"):
            codec.encode({1: "x"})

    def test_tag_collision_rejected(self):
        with pytest.raises(codec.CodecError, match="collides"):
            codec.encode({"__tuple__": [1]})

    def test_register_requires_dataclass(self):
        with pytest.raises(codec.CodecError, match="not a dataclass"):
            codec.register(int)

    def test_columnar_sequences_round_trip(self):
        # Long homogeneous dataclass sequences go columnar (one type tag +
        # field list for the whole batch); list/tuple-ness is preserved.
        tweets = generate_tweets(["rio"], per_movie=8, seed=3)
        encoded = codec.encode({"as_list": tweets, "as_tuple": tuple(tweets)})
        assert encoded["as_list"]["__dcs__"] == "repro.tsa.tweets.Tweet"
        assert "rows" in encoded["as_list"]
        out = codec.decode(json.loads(json.dumps(encoded)))
        assert out["as_list"] == tweets and isinstance(out["as_list"], list)
        assert out["as_tuple"] == tuple(tweets)
        assert isinstance(out["as_tuple"], tuple)

    def test_mixed_sequences_stay_elementwise(self):
        tweets = generate_tweets(["rio"], per_movie=4, seed=3)
        mixed = list(tweets) + [42]
        encoded = codec.encode(mixed)
        assert isinstance(encoded, list)  # no columnar tag for mixed types
        assert codec.decode(encoded) == mixed

    def test_columnar_decode_rejects_unregistered(self):
        with pytest.raises(codec.CodecError, match="unregistered type"):
            codec.decode({"__dcs__": "os.system", "fields": [], "rows": []})

    def test_columnar_tag_collision_rejected(self):
        with pytest.raises(codec.CodecError, match="collides"):
            codec.encode({"__dcs__": [1]})


# -- the recursive codec, one call per cell: the reference the inline
# columnar fast path must reproduce exactly ----------------------------------


def _reference_columnar(value):
    cls = type(value[0])
    plan = codec._ENCODE_PLAN.get(cls)
    if plan is None or any(type(v) is not cls for v in value):
        return None
    name, field_names = plan
    rows = [[_reference_encode(getattr(v, f)) for f in field_names] for v in value]
    out = {codec._DCS_TAG: name, "fields": list(field_names), "rows": rows}
    if isinstance(value, tuple):
        out["t"] = 1
    return out


def _reference_encode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        if len(value) >= codec._COLUMNAR_MIN:
            columnar = _reference_columnar(value)
            if columnar is not None:
                return columnar
        items = [_reference_encode(v) for v in value]
        return {codec._TUPLE_TAG: items} if isinstance(value, tuple) else items
    if isinstance(value, dict):
        return {key: _reference_encode(item) for key, item in value.items()}
    name, field_names = codec._ENCODE_PLAN[type(value)]
    fields = {f: _reference_encode(getattr(value, f)) for f in field_names}
    return {codec._DC_TAG: name, "f": fields}


def _reference_decode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_reference_decode(v) for v in value]
    if codec._TUPLE_TAG in value:
        return tuple(_reference_decode(v) for v in value[codec._TUPLE_TAG])
    if codec._DCS_TAG in value:
        cls = codec._REGISTRY[value[codec._DCS_TAG]]
        items = [
            cls(**{f: _reference_decode(v) for f, v in zip(value["fields"], row)})
            for row in value["rows"]
        ]
        return tuple(items) if value.get("t") else items
    if codec._DC_TAG in value:
        cls = codec._REGISTRY[value[codec._DC_TAG]]
        return cls(**{k: _reference_decode(v) for k, v in value["f"].items()})
    return {k: _reference_decode(v) for k, v in value.items()}


class _Label(str):
    """A ``str`` subclass: not a plain cell, so it takes the recursive call."""


_text = st.text(max_size=12)
_label = st.one_of(_text, _text.map(_Label))
_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**40), 2**40),
)
_tweets = st.builds(
    Tweet,
    tweet_id=_text,
    movie=_label,
    text=_text,
    sentiment=st.sampled_from(SENTIMENTS),
    difficulty=st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0, 1, True, False])
    ),
    aspects=st.lists(_text, max_size=3).map(tuple),
    timestamp=_number,
)


@st.composite
def _images(draw):
    true_tags = tuple(draw(st.lists(_label, min_size=1, max_size=3)))
    extra = tuple(draw(st.lists(_text, max_size=3)))
    return SyntheticImage(
        image_id=draw(_text),
        subject=draw(_label),
        true_tags=true_tags,
        candidate_tags=draw(st.permutations(true_tags + extra)),
        features=tuple(draw(st.lists(_number, max_size=6))),
    )


_queries = st.builds(
    Query,
    keywords=st.lists(_text, min_size=1, max_size=3).map(tuple),
    required_accuracy=st.floats(0.01, 0.99),
    domain=st.lists(_text, min_size=2, max_size=4, unique=True).map(tuple),
    timestamp=st.one_of(_number, _text),
    window=st.integers(1, 50),
    subject=_text,
)


def _corpus(items):
    # Lengths on both sides of the columnar threshold, as list or tuple.
    return st.tuples(
        st.lists(items, max_size=codec._COLUMNAR_MIN * 3), st.booleans()
    ).map(lambda t: tuple(t[0]) if t[1] else t[0])


_submissions = st.fixed_dictionaries(
    {"query": _queries, "worker_count": st.integers(1, 9)},
    optional={
        "tweets": _corpus(_tweets),
        "gold_tweets": _corpus(_tweets),
        "images": _corpus(_images()),
        "mixed": st.lists(st.one_of(_tweets, _images(), _number), max_size=6),
    },
)


class TestColumnarFastPath:
    @settings(max_examples=150, deadline=None)
    @given(submission=_submissions)
    def test_inline_cells_equal_the_recursive_codec(self, submission):
        """Encoding and decoding a tweet, image or query submission give
        exactly what one recursive call per cell gives: same JSON text
        (``true`` vs ``1`` and ``1`` vs ``1.0`` stay apart), and decoded
        values equal field for field, types included."""
        encoded = codec.encode(submission)
        reference = _reference_encode(submission)
        assert json.dumps(encoded, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        wire = json.loads(json.dumps(encoded))
        for form in (encoded, wire):
            decoded = codec.decode(form)
            expected = _reference_decode(form)
            assert decoded == expected
            assert repr(decoded) == repr(expected)
        assert codec.decode(wire) == submission


class TestHeader:
    def test_make_and_check(self):
        header = make_header(seed=7, service={"max_in_flight": 2}, meta={"x": 1})
        assert check_header(header) is header
        assert header["seed"] == 7
        assert header["service"] == {"max_in_flight": 2}
        assert header["meta"] == {"x": 1}

    def test_non_header_rejected(self):
        with pytest.raises(JournalError, match="does not open with a header"):
            check_header({"k": "ev", "t": 1})

    def test_wrong_format_rejected(self):
        header = make_header(seed=None, service={})
        header["format"] = "other-journal"
        with pytest.raises(JournalError, match="not a cdas-journal"):
            check_header(header)

    def test_future_version_rejected(self):
        header = make_header(seed=None, service={})
        header["version"] = 99
        with pytest.raises(JournalError, match="version 99"):
            check_header(header)


def _marks(n, kind="ev"):
    return [{"k": kind, "t": i, "n": i} for i in range(n)]


class TestFileStore:
    def test_append_read_round_trip(self, journal_path):
        with FileJournalStore(journal_path) as store:
            records = [make_header(seed=1, service={})] + _marks(5)
            for record in records:
                store.append(record)
        assert FileJournalStore(journal_path).read_records() == records

    def test_missing_file_reads_empty(self, journal_path):
        assert FileJournalStore(journal_path).read_records() == []

    def test_durable_kinds_commit_immediately(self, journal_path):
        store = FileJournalStore(journal_path, fsync_every=100)
        store.append({"k": "submit", "t": 0, "q": 0})
        assert store.syncs == 1  # no batching for actions
        store.append({"k": "ev", "t": 1})
        assert store.syncs == 1  # marks ride the batch
        store.close()

    def test_group_commit_batches_marks(self, journal_path):
        store = FileJournalStore(journal_path, fsync_every=4)
        for mark in _marks(8):
            store.append(mark)
        assert store.syncs == 2  # 8 marks / batch of 4
        store.append(_marks(1)[0])
        assert store.syncs == 2  # ninth mark still buffered
        store.commit()
        assert store.syncs == 3
        store.commit()
        assert store.syncs == 3  # barrier with nothing pending is free
        store.close()

    @pytest.mark.parametrize(
        "garbage",
        [b'{"k":"ev","t":', b"not json at all", b'{"k":"ev","t":9}'],
        ids=["torn-mid-record", "garbage", "unterminated-but-parsable"],
    )
    def test_torn_tail_dropped_on_read(self, journal_path, garbage):
        records = [make_header(seed=1, service={})] + _marks(3)
        with FileJournalStore(journal_path) as store:
            for record in records:
                store.append(record)
        with open(journal_path, "ab") as fh:
            fh.write(garbage)  # crash mid-write: no trailing newline
        assert FileJournalStore(journal_path).read_records() == records

    def test_append_after_torn_tail_continues_clean_prefix(self, journal_path):
        records = [make_header(seed=1, service={})] + _marks(3)
        with FileJournalStore(journal_path) as store:
            for record in records:
                store.append(record)
        with open(journal_path, "ab") as fh:
            fh.write(b'{"k":"ev","torn')
        store = FileJournalStore(journal_path)
        store.append({"k": "done", "t": 9, "q": 0})
        store.close()
        assert FileJournalStore(journal_path).read_records() == records + [
            {"k": "done", "t": 9, "q": 0}
        ]

    def test_fsync_every_must_be_positive(self, journal_path):
        with pytest.raises(ValueError, match="fsync_every"):
            FileJournalStore(journal_path, fsync_every=0)


class TestSqliteStore:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "svc.journal.sqlite"
        records = [make_header(seed=1, service={})] + _marks(5)
        with SqliteJournalStore(path) as store:
            for record in records:
                store.append(record)
        with SqliteJournalStore(path) as store:
            assert store.read_records() == records

    def test_uncommitted_batch_never_happened(self, tmp_path):
        path = tmp_path / "svc.journal.sqlite"
        store = SqliteJournalStore(path, fsync_every=100)
        store.append({"k": "submit", "t": 0, "q": 0})  # committed (durable kind)
        for mark in _marks(3):
            store.append(mark)  # buffered in the open transaction
        # A crash == the connection dying without commit.
        store._con.rollback()
        store._con.close()
        with SqliteJournalStore(path) as fresh:
            assert fresh.read_records() == [{"k": "submit", "t": 0, "q": 0}]

    def test_group_commit_counts(self, tmp_path):
        store = SqliteJournalStore(tmp_path / "j.sqlite", fsync_every=4)
        for mark in _marks(8):
            store.append(mark)
        assert store.syncs == 2
        store.close()


class TestOpenStore:
    def test_routes_by_suffix(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.jsonl"), FileJournalStore)
        assert isinstance(open_store(tmp_path / "a.journal"), FileJournalStore)
        for suffix in (".sqlite", ".sqlite3", ".db"):
            assert isinstance(
                open_store(tmp_path / f"a{suffix}"), SqliteJournalStore
            )

    def test_passes_stores_through(self, journal_path):
        store = FileJournalStore(journal_path)
        assert open_store(store) is store

    def test_fsync_every_propagates(self, journal_path):
        assert open_store(journal_path, fsync_every=3).fsync_every == 3


class TestTaxonomy:
    def test_actions_are_durable(self):
        assert ACTION_KINDS < DURABLE_KINDS

    def test_iter_actions_filters(self):
        records = [
            {"k": "header"}, {"k": "tenant"}, {"k": "ev"},
            {"k": "submit"}, {"k": "grant"}, {"k": "cancel"},
        ]
        assert [r["k"] for r in iter_actions(records)] == [
            "tenant", "submit", "cancel",
        ]


# ---------------------------------------------------------------------------
# Journal bytes pin: a refactor of the durable service must not move a byte
# ---------------------------------------------------------------------------

PIN_SEED = 43

#: SHA-256 (snapshot digests masked) and size of the journal
#: :func:`_pinned_run` writes, taken from the wrapper-based durable service
#: the subclass replaced.  Any change to record content, order, ticks or
#: snapshot placement moves them.
JOURNAL_PIN_SHA256 = "0ac6cb1b7d9542d977d177acc270bc868ed55130770c7540e7281132f12da52a"
JOURNAL_PIN_BYTES = 17086


def _pinned_run(pool, path) -> None:
    """A fixed seeded journaled run: tenants, a plain IT submit, a reserved
    standing TSA query (per-window reservations; window boundaries give
    quiescent auto-snapshot points), a reserved submit cancelled
    mid-flight, and a last plain submit."""
    from repro.amt.market import SimulatedMarket
    from repro.engine.service import QueryState
    from repro.system import CDAS
    from repro.tsa.tweets import tweet_to_question

    cdas = CDAS.with_default_jobs(SimulatedMarket(pool, seed=PIN_SEED), seed=PIN_SEED)
    gold = generate_tweets(["gold-movie"], per_movie=12, seed=PIN_SEED + 1)
    cdas.calibrate([tweet_to_question(t) for t in gold], workers_per_hit=10, hits=1)
    service = cdas.service(
        max_in_flight=2, journal=path, journal_meta={"pin": 1}, snapshot_every=6
    )
    images = generate_images(per_subject=1, seed=PIN_SEED + 3)[:4]
    service.register_tenant("acme", budget_cap=60.0, priority=2.0)
    service.register_tenant("beta", priority=1.0)
    service.submit(
        "image-tagging",
        Query(keywords=("tags",), required_accuracy=0.85, domain="images",
              subject="tags-a"),
        tenant="acme", images=images[:2], gold_images=images[:1],
        images_per_hit=2, worker_count=5,
    )
    service.submit(
        "twitter-sentiment",
        Query(keywords=("rio",), required_accuracy=0.9, domain="movies",
              subject="rio"),
        tenant="acme", gold_tweets=gold,
        stream=TweetStream(
            tweets=tuple(generate_tweets(["rio"], per_movie=24, seed=PIN_SEED + 2)),
            unit_seconds=43200.0,
        ),
        batch_size=4, worker_count=5, windows=2, reserve=True,
    )
    doomed = service.submit(
        "twitter-sentiment",
        Query(keywords=("solaris",), required_accuracy=0.9, domain="movies",
              subject="solaris"),
        tenant="beta", gold_tweets=gold,
        tweets=generate_tweets(["solaris"], per_movie=12, seed=PIN_SEED + 4),
        batch_size=4, worker_count=5, reserve=True,
    )
    while doomed.progress().hits_in_flight == 0:
        service.step()
    service.step()
    assert doomed.state is QueryState.RUNNING
    assert doomed.cancel()
    service.submit(
        "image-tagging",
        Query(keywords=("tags",), required_accuracy=0.85, domain="images",
              subject="tags-b"),
        tenant="beta", images=images[2:], gold_images=images[2:3],
        images_per_hit=2, worker_count=5,
    )
    service.run_until_idle()
    service.close()


class TestJournalBytesPin:
    def test_seeded_run_writes_pinned_bytes(self, small_pool, tmp_path):
        import hashlib
        import re

        path = tmp_path / "pin.journal.jsonl"
        _pinned_run(small_pool, path)
        data = path.read_bytes()
        records = [json.loads(line) for line in data.splitlines()]
        # The run exercises every record kind the pin is meant to cover.
        assert {"tenant", "submit", "cancel", "window", "reserve", "snapshot",
                "grant", "ev", "done"} <= {r["k"] for r in records}
        # A snapshot's digest hashes pickle bytes, which follow the
        # process's string-hash seed; check it against its file, then mask
        # it so the pin covers every other byte.
        for record in records:
            if record["k"] == "snapshot":
                snap = (tmp_path / record["path"]).read_bytes()
                assert hashlib.sha256(snap).hexdigest() == record["digest"]
        masked = re.sub(rb'"digest":"[0-9a-f]{64}"', b'"digest":"-"', data)
        assert (hashlib.sha256(masked).hexdigest(), len(data)) == (
            JOURNAL_PIN_SHA256, JOURNAL_PIN_BYTES,
        )
