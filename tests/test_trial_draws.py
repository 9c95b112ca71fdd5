"""The trial streams read off raw PCG64 words against numpy's Generator.

The stream of trial ``trial`` that ``harness._draw_chunk(seed, trials,
...)`` hands out must return exactly what
``np.random.default_rng([seed, trial])`` returns for the same calls in the
same order: ``integers(0, q, size=k)`` (Lemire's method on the buffered
32-bit stream, a half left over carried to the next call) and
``choice(n, size=k, replace=False)`` (Floyd's algorithm and a shuffle, or a
tail shuffle for large n).  Every simulation digest rests on this.

The streams are seeded without numpy's ``SeedSequence``:
``harness._seed_hash`` redoes its hash for many entropies at once, one in
each 64-bit lane of Python ints, and ``_draw_chunk`` hands each stream's
words to a PCG64 of its own; a single stream is a chunk of one.  The hash,
chunks of every size, a chunk across 2**32 (where a trial's entropy grows a
word) and streams read in turn are pinned here.

``_draw_chunk`` also draws every trial's first values, a trial's X, for a
power-of-two q in one numpy pass over the chunk's raw words, and hands
each trial its stream after them; those values and the draws that follow
them are pinned too, for moduli with and without redraws, values past the raw
words read ahead and any read-ahead size.
"""

import numpy as np
import pytest
from conftest import build

from iccsi import field_new
from iccsi.codec import HAMMING, RANK, coset_encoder
from iccsi import harness
from iccsi.harness import (
    SimConfig,
    _draw_chunk,
    _pcg64_from_state,
    _seed_hash,
    _seed_states,
    _seed_words,
    run_simulation,
)
from iccsi.harness import _u64_int as _lanes

MODULI = (2, 3, 4, 5, 7, 8, 9, 16, 256, 65536)
SEEDS = (0, 1, 2**32 - 1, 2**32 + 3, 10**15)


def chunk(seed, trials):
    # The streams of a chunk of trials with no values drawn first.
    return _draw_chunk(seed, trials, 2, 0)[1]


def pair(seed, trial):
    [ours] = chunk(seed, range(trial, trial + 1))
    return ours, np.random.default_rng([seed, trial])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("q", MODULI)
def test_integers_match_numpy(seed, q):
    # Sizes 0..40 in one stream: every odd size leaves a half that the
    # next call must take first.
    ours, ref = pair(seed, 0)
    for k in range(41):
        assert ours.integers(q, k) == ref.integers(0, q, size=k).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_moduli_match_numpy(seed):
    for trial in (0, 1, 7):
        ours, ref = pair(seed, trial)
        for step in range(60):
            q, k = MODULI[step % len(MODULI)], (step * 7) % 41
            assert ours.integers(q, k) == ref.integers(0, q, size=k).tolist()


def test_redraws_match_numpy():
    # 2**32 mod q is q - 29 here, so about one draw in 66,000 is redrawn.
    q = 65175
    assert (1 << 32) % q == q - 29
    ours, ref = pair(3, 4)
    assert ours.integers(q, 300_000) == ref.integers(0, q, size=300_000).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_matches_numpy_for_every_k(seed):
    ours, ref = pair(seed, 0)
    for n in range(1, 17):
        for k in range(n + 1):
            assert ours.choice(n, k) == ref.choice(n, size=k, replace=False).tolist()
            # An odd draw count between choices keeps the halves in step.
            assert ours.integers(5, 1) == ref.integers(0, 5, size=1).tolist()


@pytest.mark.parametrize("k", [200, 201])
def test_choice_tail_shuffle_matches_numpy(k):
    # n > 10,000 with k > n // 50 takes numpy's tail shuffle; k = 200 does not.
    n = 10_001
    ours, ref = pair(10**15, 0)
    assert ours.choice(n, k) == ref.choice(n, size=k, replace=False).tolist()
    assert ours.integers(9, 7) == ref.integers(0, 9, size=7).tolist()


def test_rows_match_a_shaped_draw():
    ours, ref = pair(2**32 + 3, 5)
    for q, nrows, ncols in [(2, 8, 4), (3, 1, 5), (16, 3, 3), (65536, 2, 7)]:
        assert ours.rows(q, nrows, ncols) == [
            tuple(r) for r in ref.integers(0, q, size=(nrows, ncols)).tolist()
        ]


@pytest.mark.parametrize("words", [1, 2, 3, 64])
def test_block_size_changes_no_value(words, monkeypatch):
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    ours, ref = pair(1, 2)
    for q in MODULI:
        assert ours.integers(q, 13) == ref.integers(0, q, size=13).tolist()
        assert ours.choice(9, 4) == ref.choice(9, size=4, replace=False).tolist()


@pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1)])
def test_negative_seed_refused_like_numpy(seed, trial):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([seed, trial])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        chunk(seed, range(trial, trial + 1))


@pytest.mark.parametrize("metric", [HAMMING, RANK])
def test_negative_seed_raises_in_both_metrics(metric):
    f = field_new(2)
    inst = build(f, 1, 2, [([[0, 1]], [1, 0]), ([[1, 0]], [0, 1])])
    enc = coset_encoder(inst)
    cfg = SimConfig("inline", metric=metric, trials=3, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_simulation(cfg, inst=inst, encoder=enc)


def seed_hash(words):
    # One entropy is one lane: the ints are the words themselves.
    return _seed_hash(words, 1)


@pytest.mark.parametrize("nwords", range(1, 10))
def test_seed_hash_matches_seed_sequence(nwords):
    # Past 4 words the entropy runs the extra mixing loop.  Random words
    # in 20 lanes at once: no lane may carry or borrow into the next.
    rng = np.random.default_rng([nwords, 26])
    words = rng.integers(0, 2**32, size=(nwords, 20), dtype=np.uint64)
    words[:, 0], words[:, 1] = 0, 2**32 - 1
    hashed = _seed_hash([_lanes(row) for row in words], _lanes([1] * 20))
    for j in range(20):
        ref = np.random.SeedSequence(words[:, j].tolist()).generate_state(4, np.uint64)
        assert [w >> 64 * j & (2**64 - 1) for w in hashed] == ref.tolist()


@pytest.mark.parametrize("seed", SEEDS + (2**200 + 7,))
def test_seed_hash_of_seed_and_trial_words(seed):
    for trial in (0, 5, 2**32 - 1, 2**32, 2**64 + 9):
        words = _seed_words(seed) + _seed_words(trial)
        ref = np.random.SeedSequence(words).generate_state(4, np.uint64).tolist()
        assert seed_hash(words) == ref


def assert_chunk_matches(seed, trials, reads=((2, 9), (65536, 3), (7, 40))):
    streams = chunk(seed, trials)
    assert len(streams) == len(trials)
    for trial, ours in zip(trials, streams):
        ref = np.random.default_rng([seed, trial])
        for q, k in reads:
            assert ours.integers(q, k) == ref.integers(0, q, size=k).tolist()


@pytest.mark.parametrize("size", [1, 2, 50, 256, 257])
@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_streams_match_numpy(seed, size):
    assert_chunk_matches(seed, range(11, 11 + size))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("top", [1, 2])
def test_chunk_across_a_multiple_of_two_to_the_32(seed, top):
    # Trials 2**32 - 2 .. 2**32 + 1: the entropy has one trial word, then
    # two.  Around 2 * 2**32 it keeps two, but the low word wraps to 0.
    edge = top << 32
    assert_chunk_matches(seed, range(edge - 2, edge + 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_long_streams_of_a_chunk(seed):
    # 300 halves each, several blocks of _DRAW_WORDS words, one stream
    # after the other.
    assert_chunk_matches(seed, range(4), reads=((16, 150), (3, 150), (2, 1)))


@pytest.mark.parametrize("words", [1, 32])
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_of_a_chunk_read_in_turn(seed, words, monkeypatch):
    # Two streams read alternately past their first blocks must each keep
    # their own position.  Streams sharing one generator, each setting its
    # state only on its first read, hand one stream the other's words.
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    ours = chunk(seed, range(6, 8))
    refs = [np.random.default_rng([seed, 6]), np.random.default_rng([seed, 7])]
    # A long run first, so the two streams stand 500 words apart.
    assert ours[0].integers(65536, 1000) == refs[0].integers(0, 65536, size=1000).tolist()
    for step in range(12):
        q = MODULI[step % len(MODULI)]
        for a, b in zip(ours, refs):
            assert a.integers(q, 23) == b.integers(0, q, size=23).tolist()
        k = step % 2
        assert ours[k].choice(12, 5) == refs[k].choice(12, size=5, replace=False).tolist()


def test_strided_state_rows_seed_as_numpy():
    # numpy reads the seed words through a raw pointer: the rows of an
    # F-ordered state array, strided, must still seed each PCG64 from
    # their own words.
    trials = range(3, 9)
    states = _seed_states(5, trials)
    assert states.flags.c_contiguous and states.dtype == np.uint64
    strided = np.asfortranarray(states)
    pcg64s = _pcg64_from_state()
    for trial, row, gen in zip(trials, strided, pcg64s(strided)):
        assert not row.flags.c_contiguous
        [alone] = pcg64s(row[None])
        ref = np.random.default_rng([5, trial]).bit_generator.random_raw(8).tolist()
        assert gen.random_raw(8).tolist() == ref
        assert alone.random_raw(8).tolist() == ref


# 2**32 mod q is 2**30 for 3 * 2**30, so a quarter of the halves are
# redrawn, and few rows hold all their values; 2**32 reads halves as they are.
CHUNK_MODULI = MODULI + (65175, 3 << 30, 1 << 32)
SHAPES = [(1, 1), (3, 5), (8, 4), (5, 30)]


def assert_chunk_draw(seed, trials, q, shapes=SHAPES):
    for n, t in shapes:
        values, streams = _draw_chunk(seed, trials, q, n * t)
        assert values.shape == (len(trials), n * t) and len(streams) == len(trials)
        for trial, row, ours in zip(trials, values, streams):
            ref = np.random.default_rng([seed, trial])
            assert row.reshape(n, t).tolist() == ref.integers(0, q, size=(n, t)).tolist()
            assert ours.integers(q, 9) == ref.integers(0, q, size=9).tolist()
            assert ours.choice(12, 4) == ref.choice(12, size=4, replace=False).tolist()
            assert ours.integers(7, 3) == ref.integers(0, 7, size=3).tolist()


@pytest.mark.parametrize("words", [1, 2, 3, 32])
@pytest.mark.parametrize("q", CHUNK_MODULI)
def test_chunk_draw_matches_numpy(q, words, monkeypatch):
    # 5 x 30 values are more than the 64 halves read ahead; with 1 to 3
    # words read ahead, most shapes are.
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    assert_chunk_draw(1, range(0, 9), q)
    # Across 2**32 a trial's entropy grows a word.
    assert_chunk_draw(2**32 + 3, range(2**32 - 3, 2**32 + 3), q)


@pytest.mark.parametrize("words", [1, 32])
def test_chunk_draw_redraws_like_numpy(words, monkeypatch):
    # For q = 65175 about one half in 66,000 is redrawn.  Of seed 3's
    # trials 920 to 929, trial 922 redraws its 52nd half and trial 925 its
    # 21st, in X for some shapes and after it for others; with 64 values
    # trial 925 reads its last from past the words read ahead.
    q = 65175
    for trial, at in [(922, 51), (925, 20)]:
        raw = np.random.default_rng([3, trial]).bit_generator.random_raw(32)
        halves = raw.astype("<u8").view("<u4").astype(np.uint64)
        assert np.flatnonzero(halves * q % 2**32 < 2**32 % q).tolist() == [at]
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    assert_chunk_draw(3, range(920, 930), q, [(4, 5), (8, 4), (2, 26), (8, 8), (3, 25)])

