"""A chunk's error draws against the per-trial stream.

Each trial draws X and then its error from its own stream,
``default_rng([seed, trial])``.  ``harness._hamming_errors`` and
``harness._rank_errors`` read every trial's first attempt at its error off
the raw halves the chunk draw read ahead, right after X, and run
``_hamming_error`` or ``_rank_error`` on a trial's stream only when that
trial must redraw.  For every trial of a chunk the error must be what the
per-trial function draws from that trial's stream after X: with 1, 2, 3
and 32 words read ahead, over GF(3) and GF(9), where nothing is read off
the array, over GF(2) at t = 1, where half of the Hamming rows are zero
and redraw, at rank 2 in GF(2) 2 x 2, where most first attempts are
rank-deficient, for chunks of 1 and 257 trials and for a Hamming weight
equal to N.  A trial whose choice draws hit Lemire's rejection, or whose
choice is numpy's tail shuffle, must take its error from its stream, and
only trials that redraw may read their streams.  ``run_simulation`` on
the same kinds of cases gives the reports that the per-trial draw gave,
pinned as a digest.

The rank error is uniform over the matrices of rank r: enumerating every
factor pair (a, b), each matrix of rank r is the product of equally many
pairs whose product has rank r, and every one of them is.  The stacked
product of the factors is the ``Matrix`` product.
"""

import hashlib
from collections import Counter
from itertools import product

import numpy as np
import pytest
from test_packed_decode import random_instance as hamming_instance
from test_rank_trial import cases

from iccsi import field_new, harness
from iccsi.codec import HAMMING, RANK, coset_encoder
from iccsi.galois import Matrix, _rank_count, _row_rank, _stack_mul
from iccsi.harness import (
    SimConfig,
    _chunk_X,
    _draw_chunk,
    _hamming_error,
    _hamming_errors,
    _rank_error,
    _rank_errors,
    run_simulation,
)


def stream_after_X(field, seed, trial, size):
    # The trial's own stream, with nothing read ahead for a chunk, after
    # its X: the per-trial path that every value must match.
    [stream] = _draw_chunk(seed, range(trial, trial + 1), 2, 0)[1]
    stream.integers(field.q, size)
    return stream


def redraws(monkeypatch, name):
    # Counts the trials that run the per-trial function on their stream.
    calls = Counter()
    real = getattr(harness, name)

    def spy(*args):
        calls["trials"] += 1
        return real(*args)

    monkeypatch.setattr(harness, name, spy)
    return calls


# (p, e, n, t, N, weight): X is n x t and the error N x t.
HAMMING_CASES = [
    (2, 1, 8, 4, 6, 2),  # sim-hamming's shape: 1 row in 16 is zero
    (2, 1, 2, 4, 6, 6),  # weight N: Floyd's first pick draws nothing
    (2, 1, 2, 1, 5, 2),  # GF(2) at t = 1: half of the rows redraw
    (2, 1, 2, 1, 5, 0),
    (2, 2, 3, 2, 7, 3),
    (2, 4, 2, 3, 4, 4),  # lanes of 4 bits
    (2, 5, 2, 2, 3, 2),  # tuple rows in characteristic 2
    (3, 1, 2, 2, 4, 2),  # odd q: every trial from its stream
    (3, 2, 1, 2, 3, 1),
]

# (p, e, n, t, nrows, ncols, r): X is n x t and the error nrows x ncols.
RANK_CASES = [
    (2, 2, 6, 2, 5, 4, 2),  # sim-rank's shapes, shared and private
    (2, 2, 6, 2, 6, 11, 3),  # 12 + 51 halves: the most sim-rank reads ahead
    (2, 2, 6, 2, 6, 5, 0),
    (2, 1, 2, 1, 2, 2, 2),  # GF(2) 2 x 2 at rank 2: most attempts redraw
    (2, 1, 3, 2, 4, 3, 1),
    (2, 4, 2, 2, 3, 3, 2),
    (2, 5, 2, 1, 3, 3, 2),
    (3, 1, 2, 2, 3, 3, 2),
    (3, 2, 2, 1, 3, 3, 1),
]


def case_id(case):
    return "-".join(map(str, case))


def assert_hamming_chunk(p, e, n, t, N, weight, trials, seed=5):
    f = field_new(p, e)
    _, streams = _chunk_X(f, seed, trials, n, t)
    E, width = _hamming_errors(streams, f, N, t, weight), t * len(trials)
    for k, trial in enumerate(trials):
        block = f._fmt.block(k * t, (k + 1) * t, width)
        want = _hamming_error(stream_after_X(f, seed, trial, n * t), f, N, t, weight)
        assert list(map(block, E)) == want, trial


def assert_rank_chunk(p, e, n, t, nrows, ncols, r, trials, seed=5):
    f = field_new(p, e)
    _, streams = _chunk_X(f, seed, trials, n, t)
    for trial, W in zip(trials, _rank_errors(streams, f, nrows, ncols, r), strict=True):
        if r:
            want = _rank_error(stream_after_X(f, seed, trial, n * t), f, nrows, ncols, r)
        else:
            want = [f._fmt.zero(ncols)] * nrows
        assert W == want, trial


@pytest.mark.parametrize("words", [1, 2, 3, 32], ids="words{}".format)
@pytest.mark.parametrize("case", HAMMING_CASES, ids=case_id)
def test_hamming_chunk_matches_the_stream(case, words, monkeypatch):
    # With 1 to 3 words read ahead most first attempts do not fit.
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    assert_hamming_chunk(*case, range(30, 70))


@pytest.mark.parametrize("words", [1, 2, 3, 32], ids="words{}".format)
@pytest.mark.parametrize("case", RANK_CASES, ids=case_id)
def test_rank_chunk_matches_the_stream(case, words, monkeypatch):
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    assert_rank_chunk(*case, range(30, 70))


@pytest.mark.parametrize("size", [1, 257])
def test_chunks_of_one_and_257_trials(size):
    trials = range(2**32 - 100, 2**32 - 100 + size)
    for case in HAMMING_CASES[:3]:
        assert_hamming_chunk(*case, trials, seed=11)
    for case in RANK_CASES[:4]:
        assert_rank_chunk(*case, trials, seed=11)


def test_hamming_tail_shuffle_redraws_from_the_stream(monkeypatch):
    # Past 10,000 rows numpy's choice of more than N // 50 picks is a tail
    # shuffle, not Floyd's: with 420 words read ahead the first attempt, 803
    # halves after an X of 2, fits, and each trial must still take it from
    # its stream.  GF(256) rows at t = 2 are rarely zero.
    monkeypatch.setattr(harness, "_DRAW_WORDS", 420)
    calls = redraws(monkeypatch, "_hamming_error")
    assert_hamming_chunk(2, 8, 1, 2, 10_001, 201, range(3))
    assert calls["trials"] == 3


def test_only_redrawing_trials_read_their_streams(monkeypatch):
    # 40 trials each: in these cases a few first attempts redraw, in odd
    # fields all of them come from the stream, and in GF(2) 2 x 2 at rank 2
    # most do.
    seen = {}
    for name, check, cases_of in [
        ("_hamming_error", assert_hamming_chunk, HAMMING_CASES),
        ("_rank_error", assert_rank_chunk, RANK_CASES),
    ]:
        for case in cases_of:
            with monkeypatch.context() as mp:
                calls = redraws(mp, name)
                check(*case, range(30, 70))
            seen[case] = calls["trials"]
    assert [seen[c] for c in HAMMING_CASES] == [4, 6, 34, 0, 6, 0, 0, 40, 40]
    assert [seen[c] for c in RANK_CASES] == [1, 0, 0, 31, 7, 1, 0, 40, 40]


def simulations():
    """Hamming and rank runs of 41 trials over GF(2), GF(3), GF(4) and
    GF(9): every error weight up to N at t = 1 and 2, and every pad up to 2
    at rank 1 and at the largest rank, shared and private."""
    for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        f = field_new(p, e)
        rng = np.random.default_rng([p, e, 38])
        for t in (1, 2):
            inst = hamming_instance(rng, f, 3, t)
            enc = coset_encoder(inst)
            for weight in range(enc.N + 1):
                cfg = SimConfig("inline", metric=HAMMING, delta=1, error_weight=weight,
                                trials=41, seed=t)
                yield cfg, inst, enc
        for _, inst, enc in cases(p, e, 38):
            for shared, v in product((True, False), (1, 2)):
                ell = inst.t if shared else inst.d_S + inst.t
                for r in sorted({1, min(v + enc.N, v + ell)}):
                    cfg = SimConfig("inline", metric=RANK, error_weight=r, trap_pad=v,
                                    trials=41, seed=v, lvs_shared=shared)
                    yield cfg, inst, enc


# sha256 of the runs' stable_json lines, as every trial's error was drawn
# from its stream alone.
SIMULATION_DIGEST = "581324af33e059c31b74738a6a62e01ee269d1e7fc4b51e16ffe171d2ed09f5d"


@pytest.mark.parametrize("words", [1, 2, 3, 32], ids="words{}".format)
def test_simulation_reports_unchanged(words, monkeypatch):
    # Chunks of 20 trials, so each run ends on a chunk of one.
    monkeypatch.setattr(harness, "_TRIAL_CHUNK", 20)
    monkeypatch.setattr(harness, "_DRAW_WORDS", words)
    lines = [run_simulation(*sim).stable_json() for sim in simulations()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SIMULATION_DIGEST


@pytest.mark.parametrize("p,e,size,r", [(2, 1, 3, 1), (2, 1, 3, 2), (2, 2, 2, 1)])
def test_rank_error_is_uniform_over_rank_r(p, e, size, r):
    # _rank_error keeps a uniform pair (a, b) exactly when a b has rank r.
    f = field_new(p, e)
    pairs = np.array(list(product(range(f.q), repeat=2 * size * r)))
    a = pairs[:, :size * r].reshape(-1, size, r)
    b = pairs[:, size * r:].reshape(-1, r, size)
    W = _stack_mul(f, a, b)
    rows = f._fmt.from_flat(W.ravel(), size)
    hits = Counter()
    for k, w in enumerate(W):
        assert Matrix(f, a[k].tolist()) * Matrix(f, b[k].tolist()) == Matrix(f, w.tolist())
        if _row_rank(f, rows[k * size:(k + 1) * size], size) == r:
            hits[w.tobytes()] += 1
    assert len(hits) == _rank_count(size, size, r, f.q)
    assert len(set(hits.values())) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 4), (2, 5), (2, 8)])
def test_stack_mul_matches_matrix_product(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 38])
    for m, r, c in [(1, 1, 1), (3, 2, 4), (5, 3, 2), (2, 0, 3)]:
        a = rng.integers(0, f.q, size=(7, m, r))
        b = rng.integers(0, f.q, size=(7, r, c))
        W = _stack_mul(f, a, b)
        assert W.shape == (7, m, c)
        for k in range(7):
            want = Matrix(f, a[k].tolist(), r) * Matrix(f, b[k].tolist(), c)
            assert W[k].tolist() == [list(row) for row in want.rows]


def test_hamming_choice_redraws_from_the_stream(monkeypatch):
    # Lemire's method redraws a half u below b when (u b) mod 2**32 is below
    # 2**32 mod b, for b near 60,000 about one draw in 100,000.  After an X
    # of one half, seed 7's trial 28355 redraws Floyd's first draw and trial
    # 19294 its second; GF(256) rows at t = 1 are rarely zero.
    calls = redraws(monkeypatch, "_hamming_error")
    for trials in (range(28350, 28360), range(19290, 19300)):
        assert_hamming_chunk(2, 8, 1, 1, 60_000, 3, trials, seed=7)
    assert calls["trials"] == 2
