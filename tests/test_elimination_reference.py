"""Solves, ranks and the realization test against the loops they replaced.

``solve_left``, ``mat_rank`` and ``minrank._realization_check`` now all
reduce through the row format's ``reduce`` and ``insert``.  The
references below restate the earlier code: the solve as its own loop that
reduces a row against the RREF while summing the transform rows, the rank
as tuple insertion that stops at ``ncols`` pivots, and the realization test
as tuple insertion of V^(i), L V_S and then R_i.  Seeded matrices of every
rank, empty ones included, over GF(2), GF(3), GF(4) and GF(9), must give
the same solutions (or None), ranks and per-user flags.  The demand
fallback, the other reduction that moved, is compared with the full RREF of
the stacked system in ``test_rank_trial``.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from conftest import random_matrix
from test_rank_trial import encoders, random_instance

from iccsi import field_new
from iccsi.galois import (
    Matrix,
    _row_rank,
    _TupleRows,
    mat_rank,
    mat_rref,
    solve_left,
)
from iccsi.minrank import realizes_ic

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 3)]


def ref_solve_left_rref(res, b):
    f = res.rref.field
    if b.field != f or b.ncols != res.rref.ncols:
        raise ValueError("solve_left shape or field mismatch")
    add, sub, scaler = f.add, f.sub, f.scaler
    red = res.rref.rows
    trans = res.transform.rows
    zero = (0,) * res.transform.ncols
    out_rows = []
    for brow in b.rows:
        vec = brow
        xrow = zero
        for i, pc in enumerate(res.pivots):
            c = vec[pc]
            if c:
                if c == 1:
                    rr, tr = red[i], trans[i]
                else:
                    scale = scaler(c)
                    rr, tr = map(scale, red[i]), map(scale, trans[i])
                vec = tuple(map(sub, vec, rr))
                xrow = tuple(map(add, xrow, tr))
        if any(vec):
            return None
        out_rows.append(xrow)
    return Matrix._trusted(f, tuple(out_rows), res.transform.ncols)


def ref_mat_rank(m):
    insert = _TupleRows(m.field).insert(m.ncols)
    basis = []
    for row in m.rows:
        pair = insert(basis, row)
        if pair is not None:
            basis.append(pair)
            if len(basis) == m.ncols:
                break
    return len(basis)


def ref_realizes_ic(L, inst):
    insert, lvs = _TupleRows(inst.field).insert(inst.n), L * inst.V_S
    flags = []
    for u in inst.users:
        basis = []
        for row in itertools.chain(u.V.rows, lvs.rows):
            pair = insert(basis, row)
            if pair is not None:
                basis.append(pair)
        flags.append(insert(basis, u.R.rows[0]) is None)
    return flags


def low_rank(rng, f, nrows, ncols, r):
    """A random nrows x ncols matrix of rank at most r."""
    return random_matrix(rng, f, nrows, r) * random_matrix(rng, f, r, ncols)


@pytest.mark.parametrize("p,e", FIELDS)
def test_solve_and_rank_match_reference(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 51])
    seen = Counter()
    for (nr, nc), _ in itertools.product(SHAPES, range(3)):
        for r in range(min(nr, nc) + 1):
            a = low_rank(rng, f, nr, nc, r)
            rank = mat_rank(a)
            assert rank == ref_mat_rank(a) == _row_rank(f, f._fmt.to_rows(a.rows), nc)
            seen["deficient" if rank < min(nr, nc) else "full"] += 1
            res = mat_rref(a)
            for k in (0, 1, 3):
                inside = random_matrix(rng, f, k, nr) * a
                # Random rows escape a deficient row space, mostly.
                for b in (inside, random_matrix(rng, f, k, nc)):
                    want = ref_solve_left_rref(res, b)
                    assert solve_left(a, b) == want
                    seen["none" if want is None else "solved"] += 1
    assert all(seen[k] for k in ("deficient", "full", "none", "solved")), seen


@pytest.mark.parametrize("p,e", FIELDS)
def test_solve_rejects_what_the_reference_rejects(p, e):
    f = field_new(p, e)
    res = mat_rref(Matrix.identity(f, 3))
    for b in (Matrix.zeros(f, 1, 4), Matrix.zeros(field_new(5, 1), 1, 3)):
        with pytest.raises(ValueError, match="shape or field mismatch"):
            ref_solve_left_rref(res, b)
        with pytest.raises(ValueError, match="shape or field mismatch"):
            solve_left(Matrix.identity(f, 3), b)


@pytest.mark.parametrize("p,e", FIELDS)
def test_realizes_ic_matches_reference(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 52])
    seen = Counter()
    for n, d_S, t in [(3, 3, 1), (4, 3, 2), (5, 4, 1)]:
        for _ in range(3):
            inst = random_instance(rng, f, n, d_S, t)
            for enc in encoders(rng, inst):
                want = ref_realizes_ic(enc.L, inst)
                assert realizes_ic(enc.L, inst) == want
                seen.update(want)
    assert seen[True] and seen[False], seen
