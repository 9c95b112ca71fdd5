"""The certificates' support test and rank witness against the code they replaced.

``codec._support_check`` tests each error support by reducing the demand
row at the support against the echelon of the annihilator rows there, and
``codec._rank_witness`` grows its witness's columns in one echelon.  The
references below restate the earlier ``Matrix``-level code: per support a
null space of Q_S and the product c_S times it, and per unit vector a fresh
``mat_rank``.  Both must give the same supports tested and the same
witnesses, not just genuine ones: over GF(2), GF(3), GF(4), GF(5), GF(8),
GF(9) and GF(16), at delta 0 to 3 and N up to 7, for the support test, and
over the rank-certificate cases of ``test_confusable_walk`` at every
``need`` a user's kernel and t allow, for the rank witness.
"""

from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from test_confusable_walk import (
    CASES,
    SUPPORT_FIELDS,
    WALK_START_CASES,
    kernel_instance,
    random_encoders,
    random_instance,
)

from iccsi import field_new
from iccsi.codec import _rank_witness, _support_check
from iccsi.decoders import _demand_maps
from iccsi.galois import Matrix, mat_rank, null_space, solve_left, vstack
from iccsi.instance import one_symbol_view


def ref_support_check(inst, i, lvs, delta):
    """(supports tested, witness) with a null space per support."""
    u, f, N = inst.users[i], inst.field, lvs.nrows
    dmap = _demand_maps(inst, lvs)[i]
    if not dmap:
        K = u.kernel
        return 0, ref_rank_witness(lvs * K, u.R * K, K, 1, 1)
    width, size = u.d + N, min(2 * delta, N)
    rows = Matrix(f, dmap, width)
    for tested, S in enumerate(combinations(range(u.d, width), size), 1):
        at_S = rows.take_cols(S)
        xs = null_space(at_S.take_rows(range(1, at_S.nrows)))
        hits = (at_S.take_rows([0]) * xs).rows[0]
        first = next((j for j, h in enumerate(hits) if h), None)
        if first is not None:
            e = [0] * width
            for j, x in zip(S, xs.col(first)):
                e[j] = x
            z = solve_left(vstack(u.V, lvs).transpose(), Matrix(f, (tuple(e),), width))
            return tested, z.transpose()
    return comb(N, size), None


def ref_rank_witness(M, rk, K, need, t):
    """The rank witness with one ``mat_rank`` per unit vector tried."""
    f, k = K.field, K.ncols
    xs = null_space(M)
    if not xs.ncols:
        return None
    hits = (rk * xs).rows[0]
    first = next((j for j, h in enumerate(hits) if h), None)
    if first is None and need == 1:
        return None
    cols = [xs.col(0 if first is None else first)]
    units = Matrix.identity(f, k).rows
    if first is None:
        cols.append(next(e for e, r in zip(units, rk.rows[0]) if r))
    for e in units:
        if len(cols) == need:
            break
        if mat_rank(Matrix(f, (*cols, e), k)) > len(cols):
            cols.append(e)
    ct = Matrix(f, (*cols, *[(0,) * k] * (t - need)), k)
    return K * ct.transpose()


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("p,e", SUPPORT_FIELDS + [(2, 4)])
def test_support_check_matches_reference(p, e, t):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 35])
    seen = Counter()
    for _ in range(3):
        inst = random_instance(rng, f, t)
        view = one_symbol_view(inst)
        for L in random_encoders(rng, inst, 6, max_len=7):
            lvs = L * view.V_S
            for delta in range(4):
                dmaps = _demand_maps(view, lvs)
                for i in range(view.m):
                    got = _support_check(view, i, lvs, delta, dmaps[i])
                    assert got == ref_support_check(view, i, lvs, delta)
                    tested, z = got
                    seen["pass" if z is None else "fail" if tested else "unserved"] += 1
    assert seen["pass"] and seen["fail"], seen


def rank_instances():
    """The instances of the rank-certificate cases of ``test_confusable_walk``,
    each with its generator."""
    for p, e, t, seed in CASES:
        rng = np.random.default_rng([p, e, t, seed, 35])
        yield random_instance(rng, field_new(p, e), t), rng
    for seed in range(2):
        rng = np.random.default_rng([seed, 35])
        yield random_instance(rng, field_new(2, 1), 3, d_min=1), rng
    for p, e, t, ks in WALK_START_CASES:
        rng = np.random.default_rng([p, e, t, 35])
        yield kernel_instance(rng, field_new(p, e), t, ks), rng


def test_rank_witness_matches_reference():
    # Every user's rank witness, at every need its kernel and t allow,
    # equals the reference's for random encoders of at most d_S rows, which
    # leave L V_S K a kernel more often than longer ones do.
    found = Counter()
    for inst, rng in rank_instances():
        for L in random_encoders(rng, inst, 6, max_len=inst.d_S):
            lvs = L * inst.V_S
            for u in inst.users:
                K, rk = u.kernel, u.R * u.kernel
                if rk.is_zero():
                    continue
                M = lvs * K
                for need in range(1, min(K.ncols, inst.t) + 1):
                    got = _rank_witness(M, rk, K, need, inst.t)
                    assert got == ref_rank_witness(M, rk, K, need, inst.t)
                    found[got is not None and min(need, 2)] += 1
    # Witnesses at need 1 and above it, where the unit vectors are tried.
    assert found[1] and found[2], found
