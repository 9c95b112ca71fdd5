"""Shared fixtures: the worked-example instances exercised across the suite.

All instances live over GF(2) with the sender holding the full space, so
``sender`` is always an identity block.  Matrices are given row by row
exactly as in the source material; construction canonicalizes cache bases,
so tests that need the original (non-reduced) rows keep their own copies.
"""

import contextlib
import itertools
import signal

import numpy as np
import pytest

from iccsi import (
    BudgetExceeded,
    IccsiInstance,
    Matrix,
    alpha,
    field_new,
    make_instance,
    realizes_ic,
)
from iccsi.galois import gaussian_binomial, iter_vectors, mat_rank
from iccsi.instance import DEFAULT_BUDGET

F2 = field_new(2, 1)


def ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def build(field, t, n, users):
    return make_instance(field, t, n, ident(n), users)


@pytest.fixture
def f2():
    return F2


@pytest.fixture
def syn_inst():
    """Four users over GF(2)**4, two cached combinations each; kappa = 2.

    The length-5 matrix SYN_L below is a distance-3 encoder for it, used by
    the syndrome-decoder walkthrough.
    """
    users = [
        ([[0, 1, 1, 0], [0, 0, 1, 0]], [1, 0, 0, 0]),
        ([[1, 0, 0, 0], [0, 0, 1, 1]], [0, 1, 0, 0]),
        ([[1, 0, 0, 0], [0, 0, 0, 1]], [0, 0, 1, 0]),
        ([[1, 1, 0, 1], [0, 1, 1, 0]], [0, 0, 0, 1]),
    ]
    return build(F2, 1, 4, users)


# The walkthrough matrices for user 4 of syn_inst.  SYN_V4 is the cache
# basis as originally written (construction stores its reduced form), and
# SYN_M4 / SYN_H4 are the walkthrough's change of basis M and parity H for
# that basis, checked as plain Matrix arithmetic; the library decoder does
# not use them.
SYN_L = ((1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 1, 0))
SYN_V4 = ((1, 1, 0, 1), (0, 1, 1, 0))
SYN_M4 = ((1, 0, 1, 1), (0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0))
SYN_H4 = ((0, 0, 0, 1, 1), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1), (0, 0, 1, 1, 1))


@pytest.fixture
def trap_inst():
    """Four users, one cached packet each in a cycle; kappa = 3."""
    users = [
        ([[0, 1, 0, 0]], [1, 0, 0, 0]),
        ([[0, 0, 1, 0]], [0, 1, 0, 0]),
        ([[0, 0, 0, 1]], [0, 0, 1, 0]),
        ([[1, 0, 0, 0]], [0, 0, 0, 1]),
    ]
    return build(F2, 1, 4, users)


TRAP_L = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
TRAP_X = (1, 0, 1, 0)
# Received word after a rank-2 error on the padded broadcast (v=2, ell=1)
# together with the unique cancellation matrix T it forces.
TRAP_RECEIVED = ((1, 0, 1), (1, 1, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
TRAP_T = ((0, 0), (1, 1), (1, 0))


@pytest.fixture
def ex_k3_inst():
    """Six users with 2-dimensional caches over GF(2)**4; min-rank 3."""
    users = [
        ([[0, 0, 1, 0], [0, 0, 0, 1]], [1, 0, 0, 0]),
        ([[1, 0, 0, 0], [0, 0, 0, 1]], [0, 1, 0, 0]),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 0, 1, 0]),
        ([[0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0, 1]),
        ([[1, 0, 0, 0], [0, 0, 1, 0]], [0, 1, 0, 0]),
        ([[0, 1, 0, 0], [0, 0, 0, 1]], [1, 0, 0, 0]),
    ]
    return build(F2, 1, 4, users)


@pytest.fixture
def ex_k2_inst():
    """Same shape as ex_k3_inst but with coded caches; min-rank 2."""
    users = [
        ([[1, 0, 1, 0], [0, 0, 0, 1]], [1, 1, 0, 0]),
        ([[1, 0, 0, 0], [0, 0, 1, 1]], [0, 1, 1, 1]),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], [1, 0, 1, 0]),
        ([[0, 1, 0, 1], [0, 0, 1, 0]], [1, 0, 0, 1]),
        ([[1, 0, 1, 0], [0, 0, 0, 1]], [0, 1, 0, 0]),
        ([[0, 1, 0, 0], [0, 0, 0, 1]], [1, 1, 1, 1]),
    ]
    return build(F2, 1, 4, users)


@pytest.fixture
def alpha3_inst():
    """Six users over GF(2)**5 where the confusable-union bound is tight:

    alpha = kappa = 3, so the optimal 1-error block length is exactly the
    shortest [*, 3, 3] binary code length, 6.
    """
    users = [
        ([[0, 1, 1, 1, 0], [0, 0, 1, 1, 1]], [1, 0, 0, 0, 0]),
        ([[1, 0, 0, 0, 1], [0, 0, 1, 1, 0]], [1, 0, 0, 0, 0]),
        ([[1, 1, 1, 1, 0], [0, 0, 0, 1, 1]], [0, 0, 1, 0, 1]),
        ([[1, 0, 0, 1, 0], [0, 1, 1, 1, 1]], [1, 0, 0, 0, 1]),
        ([[0, 0, 1, 1, 0], [0, 0, 0, 1, 1]], [1, 1, 0, 0, 0]),
        ([[1, 0, 0, 1, 0], [0, 0, 1, 1, 0]], [0, 0, 1, 1, 1]),
    ]
    return build(F2, 1, 5, users)


# Basis of a 3-dimensional space contained (minus zero) in the union of
# confusable sets of alpha3_inst.
ALPHA3_SPAN = ((1, 0, 1, 1, 0), (1, 0, 0, 1, 1), (0, 1, 1, 0, 0))


@pytest.fixture
def mds_inst():
    """Single-row coded caches defeating the classic MDS-code argument.

    The distance-2 MDS generator MDS_G cannot serve user 1 while MDS_L,
    which generates a code of distance 1 only, serves everyone.
    """
    users = [
        ([[1, 0, 0, 1]], [1, 1, 1, 0]),
        ([[0, 0, 0, 1]], [0, 1, 0, 0]),
        ([[0, 1, 0, 0]], [0, 0, 1, 0]),
        ([[0, 0, 1, 0]], [0, 0, 0, 1]),
    ]
    return build(F2, 1, 4, users)


MDS_G = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
MDS_L = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1))


def random_instances(seed, count, n_max=4, m_max=4):
    """Yield ``count`` random valid GF(2), t=1 instances, full sender space.

    Cache rows and requests are rejection-sampled until construction
    accepts them, so every yielded instance satisfies the usual demands
    (request nonzero, outside the cache, inside the sender space).
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        users = []
        for _ in range(m):
            d = int(rng.integers(1, n))
            v_rows = rng.integers(0, 2, size=(d, n)).tolist()
            r = rng.integers(0, 2, size=n).tolist()
            users.append((v_rows, r))
        try:
            inst = build(F2, 1, n, users)
        except Exception:
            continue
        made += 1
        yield inst


def iter_subspace_bases(field, ambient, dim):
    """Canonical RREF bases of every dim-dimensional subspace of F_q^ambient.

    Enumerates pivot column choices lexicographically, then the free entries
    in odometer order, so each subspace appears exactly once.
    """
    if dim == 0:
        yield Matrix(field, (), ambient)
        return
    if dim > ambient:
        return
    for pivots in itertools.combinations(range(ambient), dim):
        # Free slots: entries (i, j) right of pivot i, excluding pivot columns
        # of later rows (those are forced to 0 by reducedness).
        slots = []
        pivset = set(pivots)
        for i in range(dim):
            for j in range(pivots[i] + 1, ambient):
                if j not in pivset:
                    slots.append((i, j))
        base = [[0] * ambient for _ in range(dim)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for vals in iter_vectors(field, len(slots)):
            for (i, j), v in zip(slots, vals):
                base[i][j] = v
            yield Matrix(field, base, ambient)


def min_rank_bruteforce_oracle(inst, budget=DEFAULT_BUDGET):
    """Independent min-rank: smallest k with a realizing k-dimensional code.

    Whether L realizes the instance depends only on the row space of L V_S,
    and enlarging the space never breaks realization, so it suffices to try
    each subspace dimension in turn and test every canonical basis.
    """
    d_S = inst.d_S
    r_rank = mat_rank(inst.request_matrix())
    for k in range(1, r_rank + 1):
        if gaussian_binomial(d_S, k, inst.q) > budget:
            raise BudgetExceeded(f"subspace enumeration at dimension {k} exceeds budget")
        for L in iter_subspace_bases(inst.field, d_S, k):
            if all(realizes_ic(L, inst)):
                return k
    return r_rank


def confusable_union(inst):
    """Every z in F_q^n, as an entry tuple, with V^(i) z = 0 and R_i z != 0
    for some user i: the union of the confusable sets in the t = 1 view."""
    f = inst.field
    union = set()
    for v in iter_vectors(f, inst.n):
        z = Matrix.column_vector(f, v)
        if any((u.V * z).is_zero() and not (u.R * z).is_zero() for u in inst.users):
            union.add(v)
    return union


def alpha_bruteforce_oracle(inst):
    """Independent alpha: the largest dimension of a subspace of F_q^n whose
    nonzero vectors are all confusable for some user in the t = 1 view.

    A vector z is confusable for user i when V^(i) z = 0 and R_i z != 0.
    Tests every canonical subspace basis from the top dimension down, so it
    is meant for n <= 5.
    """
    f, n = inst.field, inst.n
    union = confusable_union(inst)
    for dim in range(n, 0, -1):
        for basis in iter_subspace_bases(f, n, dim):
            span = (
                (Matrix(f, [coef]) * basis).rows[0]
                for coef in iter_vectors(f, dim)
                if any(coef)
            )
            if all(v in union for v in span):
                return dim
    return 0


def assert_alpha_budget_edge(inst, got):
    """``got`` is ``alpha(inst)``.  One budget bounds both each user's
    kernel walk, q^k vectors in the t = 1 view, and the search's nodes, so
    the smallest budget that passes is the larger of the two: there
    ``alpha`` gives ``got``, and one less raises, from the search when the
    node count is the larger."""
    walk = max(inst.q ** (inst.n - u.d) for u in inst.users)
    edge = max(got.node_count, walk)
    assert alpha(inst, budget=edge) == got
    with pytest.raises(BudgetExceeded) as exc:
        alpha(inst, budget=edge - 1)
    if got.node_count > walk:
        assert str(exc.value) == f"alpha search exceeded budget {edge - 1}"


def random_matrix(rng, field, nrows, ncols):
    """Uniform nrows x ncols matrix drawn from a numpy Generator, the
    reference for the package's own reader of numpy's streams."""
    return Matrix(field, rng.integers(0, field.q, size=(nrows, ncols)).tolist(), ncols)


def mat(field, rows):
    return Matrix(field, rows)


def col(field, entries):
    return Matrix.column_vector(field, entries)
