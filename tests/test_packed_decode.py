"""Row-format syndrome decoding and Hamming trials against the Matrix
pipeline they replaced.

``syndrome_decode`` and the Hamming trials of ``run_simulation`` run on
rows (ints of e-bit lanes over GF(2^e) up to GF(16), tuples otherwise)
with a per-user demand map and per-support products built once per
decoder; ``run_simulation`` runs a call's trials as blocks of one wide
row, in chunks, and the reports must not depend on that.  The references below restate the earlier change-of-basis
decoder in ``Matrix`` arithmetic: M from a right inverse and a kernel of
(cache; request), h from a left solve and H_upper from a left kernel of
L' = L V_S M, the syndrome H (Y - C lam), and a scan of error supports by
size, then lexicographically, each solved by the canonical left solve
against its RREF (``ref_solve_left_rref``).  Seeded GF(2), GF(3), GF(4)
and GF(9) instances (users with an empty cache among them, delta 0-2, error
weights 0..delta+1), and GF(8) and GF(16) ones in simulation, must give the
same outcomes and the same ``stable_json``, wrong decodes and
``SyndromeNotFound`` included; both decoders must refuse the same encoders
and find the same dependent supports, and each support's rows must be the
ones ``Matrix`` arithmetic gives.
"""

import functools
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field
from itertools import combinations, product

import numpy as np
import pytest
from conftest import SYN_L, random_matrix
from test_elimination_reference import ref_solve_left_rref

from iccsi import field_new
from iccsi.codec import HAMMING, make_encoder
from iccsi.decoders import (
    SYNDROME_NOT_FOUND,
    DecodeOutcome,
    UserDecoder,
    build_user_decoder,
    syndrome_decode,
)
from iccsi.galois import (
    Matrix,
    _Draws,
    hstack,
    mat_rref,
    null_space,
    solve_left,
    vstack,
)
from iccsi.harness import (
    _TRIAL_CHUNK,
    SimConfig,
    SimReport,
    UserTally,
    _hamming_error,
    run_simulation,
)
from iccsi.instance import InstanceError, make_instance


@dataclass(frozen=True)
class RefDecoder:
    """User i's earlier decoder: the cache columns C of L' = L V_S M and
    the parity H = [h; H_upper].

    ``supports`` maps each scanned error support to the RREF of its columns
    of H_upper, transposed; a rank below the support size marks a dependent
    support.
    """

    C: Matrix
    H: Matrix
    supports: dict = dc_field(default_factory=dict, compare=False)

    @property
    def h(self):
        return self.H.take_rows((0,))

    @property
    def H_upper(self):
        return self.H.take_rows(range(1, self.H.nrows))

    def dependent(self):
        return {k for k, res in self.supports.items() if res.rank < len(k)}


def ref_match_syndrome(ctx, beta, delta):
    """First error pattern with <= delta nonzero rows whose syndrome is beta."""
    h_upper = ctx.H_upper
    f = h_upper.field
    n_rows = h_upper.ncols
    t = beta.ncols
    if beta.is_zero():
        return Matrix.zeros(f, n_rows, t)
    beta_t = beta.transpose()
    for size in range(1, delta + 1):
        for support in combinations(range(n_rows), size):
            res = ctx.supports.get(support)
            if res is None:
                res = ctx.supports[support] = mat_rref(h_upper.take_cols(support).transpose())
            sol = ref_solve_left_rref(res, beta_t)
            if sol is None:
                continue
            values = sol.transpose().rows
            rows = [(0,) * t] * n_rows
            for k, r in enumerate(support):
                rows[r] = values[k]
            return Matrix(f, rows, t)
    return None


def ref_syndrome_decode(ctx, Y, lam, delta):
    diff = Y - ctx.C * lam if ctx.C.ncols else Y
    syndrome = ctx.H * diff
    alpha = syndrome.take_rows((0,))
    beta = syndrome.take_rows(range(1, syndrome.nrows))
    eps = ref_match_syndrome(ctx, beta, delta)
    if eps is None:
        return DecodeOutcome(None, SYNDROME_NOT_FOUND)
    return DecodeOutcome(alpha - ctx.h * eps)


def ref_user_decoder(inst, L, i):
    """User i's decoder from a right inverse, a kernel, a left solve and a
    left kernel; raises ValueError when L does not serve user i."""
    u, f = inst.users[i], inst.field
    g = vstack(u.V, u.R)
    A = solve_left(g.transpose(), Matrix.identity(f, u.d + 1)).transpose()
    B = null_space(g)
    M = hstack(A, B) if B.ncols else A
    lp = L * inst.V_S * M
    block = lp.take_cols(range(u.d, inst.n))
    h = solve_left(block, Matrix(f, [[1] + [0] * (block.ncols - 1)]))
    if h is None:
        raise ValueError(f"user {i}: L does not realize the instance")
    H = vstack(h, null_space(block.transpose()).transpose())
    return RefDecoder(lp.take_cols(range(u.d)), H)


def ref_hamming_error(rng, field, N, t, weight):
    rows = [(0,) * t] * N
    if weight:
        for r in rng.choice(N, size=weight, replace=False):
            vec = rng.integers(0, field.q, size=t)
            while not vec.any():
                vec = rng.integers(0, field.q, size=t)
            rows[int(r)] = tuple(vec.tolist())
    return Matrix(field, rows, t)


def ref_hamming_report(cfg, inst, enc):
    """The Hamming trial loop of run_simulation in Matrix arithmetic."""
    decoders = [ref_user_decoder(inst, enc.L, i) for i in range(inst.m)]
    tallies = [[0, 0, 0] for _ in range(inst.m)]
    for trial in range(cfg.trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, trial])))
        X = random_matrix(rng, inst.field, inst.n, inst.t)
        Y = enc.lvs * X + ref_hamming_error(rng, inst.field, enc.N, inst.t, cfg.error_weight)
        for i, u in enumerate(inst.users):
            out = ref_syndrome_decode(decoders[i], Y, u.V * X, cfg.delta)
            if out.demand is None:
                tallies[i][1] += 1
            elif out.demand == u.R * X:
                tallies[i][0] += 1
            else:
                tallies[i][2] += 1
    users = tuple(UserTally(*row) for row in tallies)
    return SimReport(asdict(cfg), cfg.trials, users, 0.0).stable_json()


def random_instance(rng, field, n, t):
    """A valid instance with 2-4 users, one of them with an empty cache."""
    q = field.q
    while True:
        users = [([], rng.integers(0, q, size=n).tolist())]
        for _ in range(int(rng.integers(1, 4))):
            d = int(rng.integers(0, n))
            users.append((rng.integers(0, q, size=(d, n)).tolist(), rng.integers(0, q, size=n).tolist()))
        try:
            return make_instance(field, t, n, np.eye(n, dtype=int).tolist(), users)
        except InstanceError:
            continue


def user_decoders(inst, L, build):
    """build(inst, L, i) for every user, or None when one of them raises."""
    try:
        return [build(inst, L, i) for i in range(inst.m)]
    except ValueError:
        return None


def realizing_encoders(rng, inst, count, seen=None):
    """Random L of length d_S .. d_S + 4 that every user can decode, with
    their decoders built both ways.  Both ways refuse the same encoders,
    which ``seen`` counts."""
    out = []
    while len(out) < count:
        N = inst.d_S + int(rng.integers(0, 5))
        L = Matrix(inst.field, rng.integers(0, inst.q, size=(N, inst.d_S)).tolist())
        decoders = user_decoders(inst, L, build_user_decoder)
        refs = user_decoders(inst, L, ref_user_decoder)
        assert (decoders is None) == (refs is None)
        if decoders is not None:
            out.append((make_encoder(L, inst, "manual"), decoders, refs))
        elif seen is not None:
            seen["refused"] += 1
    return out


def every_error(field, N, t, weight):
    """Every N x t error with exactly ``weight`` nonzero rows."""
    nonzero = [r for r in product(range(field.q), repeat=t) if any(r)]
    for support in combinations(range(N), weight):
        for values in product(nonzero, repeat=weight):
            rows = [(0,) * t] * N
            for r, v in zip(support, values):
                rows[r] = v
            yield Matrix(field, rows, t)


FIELDS = [(2, 1), (3, 1), (2, 2)]
# GF(9) adds odd characteristic over an extension field, at t <= 2.
CASES = [(p, e, t) for p, e in FIELDS for t in (1, 2, 3, 4)] + [(3, 2, 1), (3, 2, 2)]


@functools.cache
def decode_sweep(p, e, t):
    """Compare both decoders on seeded cases; count the outcomes met."""
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 21])
    seen = Counter()
    for n in (3, 4):
        inst = random_instance(rng, field, n, t)
        for enc, decoders, refs in realizing_encoders(rng, inst, 2, seen):
            for delta in (0, 1, 2):
                for weight in range(min(delta + 1, enc.N) + 1):
                    X = Matrix(field, rng.integers(0, field.q, size=(n, t)).tolist())
                    Y = enc.lvs * X + ref_hamming_error(rng, field, enc.N, t, weight)
                    for i, u in enumerate(inst.users):
                        lam = u.V * X
                        got = syndrome_decode(decoders[i], Y, lam, delta)
                        assert got == ref_syndrome_decode(refs[i], Y, lam, delta)
                        seen["correct"] += got.ok and got.demand == u.R * X
                        seen["not_found"] += got.failure == SYNDROME_NOT_FOUND
                        seen["wrong"] += got.ok and got.demand != u.R * X
                        seen["empty_cache"] += u.d == 0
                    if t == 1 and (field.q <= 4 or weight <= 1):
                        # The syndrome depends on the error alone and the
                        # message only adds R_i X, so at t = 1 every error
                        # of this weight, with one message, covers them all.
                        for W in every_error(field, enc.N, t, weight):
                            Y = enc.lvs * X + W
                            for i, u in enumerate(inst.users):
                                got = syndrome_decode(decoders[i], Y, u.V * X, delta)
                                assert got == ref_syndrome_decode(refs[i], Y, u.V * X, delta)
                                seen["every_error"] += 1
            for ctx, ref in zip(decoders, refs):
                # Both scan the same supports and stop at the same match.
                assert ctx.support_rref.keys() == ref.supports.keys()
                dependent = {k for k, rows in ctx.support_rref.items() if rows == ()}
                assert dependent == ref.dependent()
                seen["dependent"] += len(dependent)
    return seen


@pytest.mark.parametrize("p,e,t", CASES)
def test_syndrome_decode_matches_reference(p, e, t):
    decode_sweep(p, e, t)


def test_reference_cases_cover_every_outcome():
    seen = sum((decode_sweep(*case) for case in CASES), Counter())
    kinds = ("correct", "not_found", "wrong", "dependent", "refused", "empty_cache", "every_error")
    assert all(seen[k] for k in kinds), seen


@pytest.mark.parametrize("p,e", FIELDS)
def test_row_format_matches_matrix(p, e):
    # Tallies can hide a changed draw or product, so both are compared directly.
    f = field_new(p, e)
    pack = f._fmt.pack
    assert f._fmt.to_rows([(0, 0, 0)]) == [f._fmt.zero(3)]
    for seed in range(10):
        [a], b = _Draws.chunk(seed, range(1)), np.random.default_rng([seed, 0])
        A, B = random_matrix(b, f, 4, 5), random_matrix(b, f, 5, 3)
        rows = f._fmt.to_rows(B.rows)
        assert rows == list(map(pack, B.rows))
        assert [f._fmt.unpacker(3)(r) for r in rows] == list(B.rows)
        assert f._fmt.mul(A.rows, rows, 3) == f._fmt.to_rows((A * B).rows)
        a.integers(f.q, 4 * 5 + 5 * 3)
        for weight in range(4):
            got = _hamming_error(a, f, 6, 3, weight)
            assert got == list(map(pack, ref_hamming_error(b, f, 6, 3, weight).rows))


# GF(8) and GF(16) put blocks of e t bits with e > 1 in the wide rows.
HAMMING_CASES = CASES + [(2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 3)]


@pytest.mark.parametrize("p,e,t", HAMMING_CASES)
def test_hamming_simulation_matches_reference(p, e, t):
    # A call runs its trials as blocks of one wide row, in chunks of
    # _TRIAL_CHUNK: one trial, a dozen, and one more than a chunk.
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 22])
    inst = random_instance(rng, field, 3, t)
    for k, (enc, _, _) in enumerate(realizing_encoders(rng, inst, 2)):
        for delta in (0, 1, 2):
            for weight in range(min(delta + 1, enc.N) + 1):
                counts = (1, 12) if k or delta != 1 else (1, 12, _TRIAL_CHUNK + 1)
                for trials in counts:
                    cfg = SimConfig(
                        "inline", metric=HAMMING, delta=delta, error_weight=weight,
                        trials=trials, seed=delta * 10 + weight,
                    )
                    got = run_simulation(cfg, inst, enc).stable_json()
                    assert got == ref_hamming_report(cfg, inst, enc)


def test_dependent_support_is_skipped():
    # The cache column of [V; L] at the request is 0 and rows 1 and 2 of L
    # are the only ones with a 1 there, so Q, which annihilates [V; L], has
    # equal columns at Y positions 1 and 2: the support (1, 2) is dependent
    # and gets an empty entry.
    f = field_new(2)
    inst = make_instance(f, 1, 2, [[1, 0], [0, 1]], [([[1, 0]], [0, 1])])
    L = Matrix(f, [[1, 0], [0, 1], [0, 1], [1, 0], [1, 0]])
    ctx, ref = build_user_decoder(inst, L, 0), ref_user_decoder(inst, L, 0)
    assert ctx._support_rows((1, 2)) == ()
    lam = Matrix(f, [[1]])
    for err in ((0, 1, 1, 0, 0), (1, 0, 0, 1, 0), (0, 0, 0, 1, 1), (1, 1, 1, 1, 1)):
        Y = L * Matrix(f, [[1], [0]]) + Matrix(f, [[x] for x in err])
        assert syndrome_decode(ctx, Y, lam, 2) == ref_syndrome_decode(ref, Y, lam, 2)
    assert ctx.support_rref[(1, 2)] == ()
    assert (1, 2) in ref.dependent()


def test_dependent_support_is_reached_by_simulation(monkeypatch):
    # The instance and L of test_dependent_support_is_skipped: at delta 2
    # and error weight 2 the blocks the supports (0, 1) and (0, 2) leave
    # pending reach the dependent (1, 2), and the tallies match the
    # reference's.
    f = field_new(2)
    inst = make_instance(f, 1, 2, [[1, 0], [0, 1]], [([[1, 0]], [0, 1])])
    enc = make_encoder(Matrix(f, [[1, 0], [0, 1], [0, 1], [1, 0], [1, 0]]), inst, "manual")
    dependent = []
    support_rows = UserDecoder._support_rows

    def spy(ctx, support):
        rows = support_rows(ctx, support)
        if not rows:
            dependent.append(support)
        return rows

    monkeypatch.setattr(UserDecoder, "_support_rows", spy)
    for trials in (1, 40):
        cfg = SimConfig("inline", metric=HAMMING, delta=2, error_weight=2, trials=trials, seed=3)
        assert run_simulation(cfg, inst, enc).stable_json() == ref_hamming_report(cfg, inst, enc)
    assert (1, 2) in dependent


def ref_support_rows(ctx, support):
    """The rows of UserDecoder._support_rows by Matrix arithmetic: the RREF
    of the columns of Q at the support, its transform split into P_S and
    Q_S, and the row (1, -c_S P_S)."""
    size, width = len(support), ctx.d + ctx.N
    cols = [ctx.d + j for j in support]
    res = mat_rref(Matrix(ctx.field, ctx.rows[1:], width).take_cols(cols))
    if res.rank < size:
        return ()
    P = res.transform.take_rows(range(size))
    c_S = Matrix(ctx.field, ctx.rows[:1], width).take_cols(cols)
    first = (1,) + (-(c_S * P)).rows[0]
    return (first,) + tuple((0,) + q for q in res.transform.rows[size:])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_support_rows_match_matrix_construction(p, e):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, 23])
    seen = Counter()
    for n, t in ((3, 1), (4, 2)):
        inst = random_instance(rng, field, n, t)
        for enc, decoders, _ in realizing_encoders(rng, inst, 2):
            for ctx in decoders:
                for size in (1, 2, 3):
                    for support in combinations(range(ctx.N), size):
                        rows = ctx._support_rows(support)
                        assert rows == ref_support_rows(ctx, support)
                        seen[size, bool(rows)] += 1
    # Every size, with independent supports, and dependent ones at 2 and 3.
    assert all(seen[size, True] for size in (1, 2, 3)), seen
    assert seen[2, False] and seen[3, False], seen


@pytest.mark.parametrize("p,e", FIELDS)
def test_syndrome_decode_of_zero_width_broadcast(p, e):
    f = field_new(p, e)
    inst = make_instance(f, 1, 2, [[1, 0], [0, 1]], [([[1, 0]], [0, 1])])
    ctx = build_user_decoder(inst, Matrix(f, [[1, 0], [0, 1], [0, 1], [1, 0], [1, 0]]), 0)
    got = syndrome_decode(ctx, Matrix(f, [[]] * 5, 0), Matrix(f, [[]], 0), 1)
    assert got == DecodeOutcome(Matrix(f, [[]], 0))


def test_syndrome_decode_rejects_bad_shapes(syn_inst):
    L = Matrix(field_new(2), SYN_L)
    X = Matrix.column_vector(L.field, (1, 0, 1, 1))
    ctx, Y, lam = build_user_decoder(syn_inst, L, 3), L * X, syn_inst.users[3].V * X
    assert syndrome_decode(ctx, Y, lam, 1).ok
    f3 = field_new(3)
    bad = [
        (Y.take_rows(range(4)), lam),  # one row short in Y
        (Matrix.zeros(Y.field, 6, 1), lam),  # one row over in Y
        (Y, lam.take_rows((0,))),  # one row short in lam
        (Y, Matrix.zeros(lam.field, 2, 2)),  # lam wider than Y
        (Matrix(f3, Y.rows), lam),  # Y over another field
        (Y, Matrix(f3, lam.rows)),  # lam over another field
    ]
    for y, lm in bad:
        with pytest.raises(ValueError):
            syndrome_decode(ctx, y, lm, 1)
