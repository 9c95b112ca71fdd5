"""The trial streams read off raw PCG64 words against numpy's Generator.

``galois._Draws(seed, trial)`` must return exactly what
``np.random.default_rng([seed, trial])`` returns for the same calls in the
same order: ``integers(0, q, size=k)`` (Lemire's method on the buffered
32-bit stream, a half left over carried to the next call) and
``choice(n, size=k, replace=False)`` (Floyd's algorithm and a shuffle, or a
tail shuffle for large n).  Every simulation digest and sampled certificate
rests on this.
"""

import numpy as np
import pytest
from conftest import build

from iccsi import field_new
from iccsi.codec import HAMMING, RANK, coset_encoder
from iccsi import galois
from iccsi.galois import _Draws
from iccsi.harness import SimConfig, run_simulation

MODULI = (2, 3, 4, 5, 7, 8, 9, 16, 256, 65536)
SEEDS = (0, 1, 2**32 - 1, 2**32 + 3, 10**15)


def pair(seed, trial):
    return _Draws(seed, trial), np.random.default_rng([seed, trial])


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
        _Draws(seed, trial)


@pytest.mark.parametrize("metric", [HAMMING, RANK])
def test_negative_seed_raises_in_both_metrics(metric):
    f = field_new(2)
    inst = build(f, 1, 2, [([[0, 1]], [1, 0]), ([[1, 0]], [0, 1])])
    enc = coset_encoder(inst)
    cfg = SimConfig("inline", metric=metric, trials=3, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_simulation(cfg, inst=inst, encoder=enc)
