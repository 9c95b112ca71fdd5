"""The trial streams read off raw PCG64 words against numpy's Generator.

The stream of trial ``trial`` in ``galois._Draws.chunk(seed, trials)`` must
return exactly what ``np.random.default_rng([seed, trial])`` returns for the same calls in the
same order: ``integers(0, q, size=k)`` (Lemire's method on the buffered
32-bit stream, a half left over carried to the next call) and
``choice(n, size=k, replace=False)`` (Floyd's algorithm and a shuffle, or a
tail shuffle for large n).  Every simulation digest rests on this.

The streams are seeded without numpy's ``SeedSequence``:
``galois._seed_hash`` redoes its hash for many entropies at once, one in
each 64-bit lane of Python ints, and ``_Draws.chunk`` hands each stream's
words to a PCG64 of its own; a single stream is a chunk of one.  The hash,
chunks of every size, a chunk across 2**32 (where a trial's entropy grows a
word) and streams read in turn are pinned here.
"""

import numpy as np
import pytest
from conftest import build

from iccsi import field_new
from iccsi.codec import HAMMING, RANK, coset_encoder
from iccsi import galois
from iccsi.galois import _Draws, _lanes, _seed_hash, _seed_words
from iccsi.harness import SimConfig, run_simulation

MODULI = (2, 3, 4, 5, 7, 8, 9, 16, 256, 65536)
SEEDS = (0, 1, 2**32 - 1, 2**32 + 3, 10**15)


def pair(seed, trial):
    [ours] = _Draws.chunk(seed, range(trial, trial + 1))
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
    monkeypatch.setattr(galois, "_DRAW_WORDS", words)
    ours, ref = pair(1, 2)
    for q in MODULI:
        assert ours.integers(q, 13) == ref.integers(0, q, size=13).tolist()
        assert ours.choice(9, 4) == ref.choice(9, size=4, replace=False).tolist()


@pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1)])
def test_negative_seed_refused_like_numpy(seed, trial):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([seed, trial])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _Draws.chunk(seed, range(trial, trial + 1))


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
    streams = _Draws.chunk(seed, trials)
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
    monkeypatch.setattr(galois, "_DRAW_WORDS", words)
    ours = _Draws.chunk(seed, range(6, 8))
    refs = [np.random.default_rng([seed, 6]), np.random.default_rng([seed, 7])]
    # A long run first, so the two streams stand 500 words apart.
    assert ours[0].integers(65536, 1000) == refs[0].integers(0, 65536, size=1000).tolist()
    for step in range(12):
        q = MODULI[step % len(MODULI)]
        for a, b in zip(ours, refs):
            assert a.integers(q, 23) == b.integers(0, q, size=23).tolist()
        k = step % 2
        assert ours[k].choice(12, 5) == refs[k].choice(12, size=5, replace=False).tolist()
