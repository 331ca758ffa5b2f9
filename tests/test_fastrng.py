"""Pin `repro.util.fastrng` against NumPy's own generators, bit for bit.

The vectorized market path is only sound if every primitive here equals
what ``np.random.default_rng(seed)`` produces.  These tests compare raw
words, doubles, bounded integers (including the buffered 32-bit Lemire
path and its buffer's survival across interleaved ``random()`` calls),
and the state-transplant dict, across adversarial seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import fastrng
from repro.util.rng import derive_seed

# Edge seeds: zero entropy, 32-bit boundary straddlers, max derive_seed
# output, plus real substream seeds the market actually uses.
SEEDS = [
    0,
    1,
    2**32 - 1,
    2**32,
    2**32 + 1,
    2**63 - 1,
    2**64 - 1,
    derive_seed(2012, "answers:hit-00000:w00042"),
    derive_seed(7, "accept:hit-00003"),
    123456789,
]


def _lanes(seeds, count):
    state, inc = fastrng.pcg64_init(np.array(seeds, dtype=np.uint64))
    _, words = fastrng.next_words(state, inc, count)
    return words


def test_raw_words_match_numpy() -> None:
    words = _lanes(SEEDS, 64)
    for lane, seed in enumerate(SEEDS):
        expected = np.random.default_rng(seed).bit_generator.random_raw(64)
        assert words[lane].tolist() == expected.tolist(), f"seed {seed}"


def test_doubles_match_generator_random() -> None:
    words = _lanes(SEEDS, 32)
    doubles = fastrng.doubles_from_words(words)
    for lane, seed in enumerate(SEEDS):
        rng = np.random.default_rng(seed)
        expected = [rng.random() for _ in range(32)]
        assert doubles[lane].tolist() == expected, f"seed {seed}"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 26, 100, 255])
def test_lemire32_matches_integers(n: int) -> None:
    # One scalar Generator.integers(n) consumes the LOW 32-bit half of a
    # fresh word and buffers the HIGH half for the next call; replicate
    # that split and compare 40 consecutive draws per seed.
    words = _lanes(SEEDS, 20)
    for lane, seed in enumerate(SEEDS):
        halves = np.empty(40, dtype=np.uint64)
        halves[0::2] = words[lane] & np.uint64(0xFFFFFFFF)
        halves[1::2] = words[lane] >> np.uint64(32)
        values, rejected = fastrng.lemire32(halves, n)
        rng = np.random.default_rng(seed)
        expected = [int(rng.integers(n)) for _ in range(40)]
        for k in range(40):
            if rejected[k]:
                # Rejection desynchronizes the half-word stream; stop
                # comparing this lane (the market falls back to scalar
                # replay in this case).
                break
            assert int(values[k]) == expected[k], f"seed {seed} draw {k}"


def test_lemire32_rejection_probability_is_tiny() -> None:
    # For the option counts HITs use, the threshold is a few units out of
    # 2**32 — the fallback path should essentially never trigger.
    for n in (2, 3, 4, 5, 10):
        assert fastrng.lemire32_threshold(n) < n


def test_buffer_survives_interleaved_random() -> None:
    # integers(n) buffers a 32-bit half; random() consumes a full fresh
    # word WITHOUT clearing that buffer.  The market's word-position
    # algebra depends on this exact behaviour.
    for seed in (0, 3, 42):
        rng = np.random.default_rng(seed)
        raw = np.random.default_rng(seed).bit_generator.random_raw(200)
        halves = []
        for w in raw:
            halves.append(int(w) & 0xFFFFFFFF)
            halves.append(int(w) >> 32)
        word_pos = 0  # next unconsumed full word
        buffered: int | None = None
        for step in range(100):
            if step % 3 == 2:
                expected = (int(raw[word_pos]) >> 11) * (1.0 / 2**53)
                word_pos += 1
                assert rng.random() == expected, f"seed {seed} step {step}"
            else:
                if buffered is None:
                    half = int(raw[word_pos]) & 0xFFFFFFFF
                    buffered = int(raw[word_pos]) >> 32
                    word_pos += 1
                else:
                    half = buffered
                    buffered = None
                values, rejected = fastrng.lemire32(
                    np.array([half], dtype=np.uint64), 26
                )
                assert not rejected[0]
                assert int(rng.integers(26)) == int(values[0]), (
                    f"seed {seed} step {step}"
                )


def test_state_transplant_reproduces_default_rng() -> None:
    state, inc = fastrng.pcg64_init(np.array(SEEDS, dtype=np.uint64))
    shared = np.random.Generator(np.random.PCG64())
    for lane, seed in enumerate(SEEDS):
        s, i = fastrng.state_ints(state, inc, lane)
        shared.bit_generator.state = fastrng.pcg64_state_dict(s, i)
        reference = np.random.default_rng(seed)
        assert shared.random() == reference.random()
        assert int(shared.integers(7)) == int(reference.integers(7))
        assert shared.lognormal(mean=2.0, sigma=0.8) == reference.lognormal(
            mean=2.0, sigma=0.8
        )


def test_pack_states_matches_state_ints() -> None:
    state, inc = fastrng.pcg64_init(np.array(SEEDS, dtype=np.uint64))
    blob = fastrng.pack_states(state, inc)
    for lane in range(len(SEEDS)):
        s, i = fastrng.state_ints(state, inc, lane)
        assert fastrng.state_dict_at(blob, lane) == fastrng.pcg64_state_dict(s, i)


def test_standard_normal_common_matches_generator() -> None:
    # The ziggurat common path (~98.6 % of draws) consumes exactly one
    # word and must reproduce Generator.standard_normal bit for bit; at
    # the first non-common word the scalar path enters a variable-length
    # rejection loop, so comparison stops there (the market transplants
    # state and replays such lanes).
    words = _lanes(SEEDS, 48)
    values, common = fastrng.standard_normal_common(words)
    for lane, seed in enumerate(SEEDS):
        rng = np.random.default_rng(seed)
        compared = 0
        for k in range(48):
            if not common[lane, k]:
                break
            assert float(values[lane, k]) == rng.standard_normal(), (
                f"seed {seed} draw {k}"
            )
            compared += 1
        assert compared > 0, f"seed {seed}: no common-path draws at all"


def test_seeds_from_digests_matches_derive_seed() -> None:
    import hashlib

    labels = [f"answers:hit-{i:05d}:w{i:05d}" for i in range(12)]
    blob = b"".join(
        hashlib.sha256(f"2012:{label}".encode()).digest() for label in labels
    )
    seeds = fastrng.seeds_from_digests(blob)
    assert seeds.tolist() == [derive_seed(2012, label) for label in labels]


def test_integers_one_consumes_nothing() -> None:
    # n == 1 short-circuits to 0 without touching the stream; the word
    # consumption model counts such draws as zero-width.
    rng = np.random.default_rng(5)
    before = np.random.default_rng(5).bit_generator.random_raw(1)[0]
    assert int(rng.integers(1)) == 0
    assert rng.bit_generator.random_raw(1)[0] == before


# -- Generator.choice draw consumption ------------------------------------------
#
# The market's lean publish lane attaches a one-keyword reason pool without
# calling _reasons_for's ``choice(1, size=1, replace=False)``, and the
# vectorised path keeps such lanes off replay, because that call consumes
# no randomness.  Pools of two or more keywords still draw.  If a NumPy
# release changes either fact, these fail by name instead of a golden
# trace digest.


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_of_one_leaves_state_unchanged(seed: int) -> None:
    rng = np.random.default_rng(seed)
    rng.integers(3)  # primes the buffered 32-bit half-word
    before = rng.bit_generator.state
    assert before["has_uint32"] == 1
    assert rng.choice(1, size=1, replace=False).tolist() == [0]
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_choice_of_two_or_more_draws(seed: int, k: int) -> None:
    rng = np.random.default_rng(seed)
    rng.integers(3)
    before = rng.bit_generator.state
    rng.choice(k, size=2, replace=False)
    assert rng.bit_generator.state != before
