"""The min-rank search that decides spans against a plain odometer walk.

``_reference_min_rank`` is the depth-first walk over choice indices that
``min_rank`` replaced: it descends to every leaf that can still beat the
best rank and records the choice tuple of each improving leaf.  The search
in ``iccsi.minrank`` must return the identical result (kappa, witness and
coset size) on every instance and every ``lower_bound``, including bounds
above the min-rank, where both stop at the same non-minimal choice.

Instances are built valid by construction over GF(2), GF(3), GF(4), GF(5)
and GF(9): partial sender spaces, users caching nothing (a single, forced
candidate), and caches that may or may not meet the sender space.  Examples
are derandomized, so a run is reproducible and writes no example database.
"""

import random

from hypothesis import given, settings, strategies as st

from iccsi import Matrix, field_new, make_instance, min_rank
from iccsi.galois import (
    _from_rows,
    iter_vectors,
    row_basis,
    row_space_contains,
    solve_left,
)
from iccsi.minrank import MinRankResult

FIELDS = [field_new(2), field_new(3), field_new(2, 2), field_new(5), field_new(3, 2)]
# Largest n per field order: a user has at most q^(n - 1) candidates, and
# these keep the reference walk's cosets small.
MAX_N = {2: 5, 3: 4, 4: 3, 5: 3, 9: 3}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _reference_min_rank(inst, lower_bound=1) -> MinRankResult:
    """The walk over choice indices, with user 0 fastest: every candidate of
    every user is inserted, and a branch stops only once its rank cannot
    beat the best."""
    f, m, n = inst.field, inst.m, inst.n
    cands = [
        f._fmt.mul(((1,) + c for c in iter_vectors(f, len(g) - 1)), g, n)
        for g in inst._coset_rows
    ]
    total = 1
    for c in cands:
        total *= len(c)
    insert = f._fmt.insert(n)
    forced: list = []
    for row in (c[0] for c in cands if len(c) == 1):
        pair = insert(forced, row)
        if pair is not None:
            forced.append(pair)
    free = [i for i in range(m) if len(cands[i]) > 1]
    best_rank = m + 1
    best_choice: tuple = ()
    choice = [0] * m

    def walk(k, pivrows) -> bool:
        nonlocal best_rank, best_choice
        if k < 0:
            best_rank = len(pivrows)
            best_choice = tuple(choice)
            return best_rank <= lower_bound
        user = free[k]
        for idx, row in enumerate(cands[user]):
            if len(pivrows) >= best_rank:
                return False
            choice[user] = idx
            pair = insert(pivrows, row)
            if pair is None:
                if walk(k - 1, pivrows):
                    return True
            elif len(pivrows) + 1 < best_rank:
                pivrows.append(pair)
                done = walk(k - 1, pivrows)
                pivrows.pop()
                if done:
                    return True
        return False

    walk(len(free) - 1, forced)
    chosen = _from_rows(f, (cands[i][best_choice[i]] for i in range(m)), n)
    return MinRankResult(best_rank, solve_left(inst.V_S, row_basis(chosen)), total)


@st.composite
def instances(draw):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, MAX_N[f.q]))
    # The shape comes from a drawn seed: hypothesis's own draws lean to
    # zeros, which left most users caching nothing.
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))

    def vector(k):
        return [rnd.randrange(f.q) for _ in range(k)]

    # The full space or a random, usually partial, sender space.
    if rnd.random() < 0.5:
        sender = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        sender = [vector(n) for _ in range(rnd.randint(1, n))]
        sender[0][rnd.randrange(n)] = 1
    S = Matrix(f, sender, n)

    def sendable():
        return list((Matrix.row_vector(f, vector(S.nrows)) * S).rows[0])

    users = []
    for _ in range(rnd.randint(2, 5)):
        R = sendable()
        if not any(R):
            R = sender[0]
        # A quarter of the users cache nothing (one forced candidate); the
        # others cache sender-space vectors or random ones, so that a cache
        # may still meet the sender space in 0.  Rows are dropped from the
        # end until R lies outside the cache.
        d = 0 if rnd.random() < 0.25 else rnd.randint(1, n - 1)
        V = [sendable() if rnd.random() < 0.75 else vector(n) for _ in range(d)]
        while V and row_space_contains(Matrix(f, V, n), Matrix.row_vector(f, R)):
            V.pop()
        users.append((V, R))
    return make_instance(f, 1, n, sender, users)


@PROPERTY
@given(instances())
def test_min_rank_matches_reference_walk(inst):
    ref = _reference_min_rank(inst)
    assert min_rank(inst) == ref
    for lower_bound in range(1, ref.kappa + 2):
        assert min_rank(inst, lower_bound=lower_bound) == _reference_min_rank(inst, lower_bound)


def test_lower_bound_above_min_rank_returns_first_choice_at_most_it():
    # User 0 caches nothing and requests e_1 + e_2; user 1 caches e_2 and
    # requests e_1, so it picks e_1 first and then e_1 + e_2.  The first
    # choice has rank 2 and the second the min-rank 1; a bound of 2 stops at
    # the first.
    f = field_new(2)
    inst = make_instance(f, 1, 2, [[1, 0], [0, 1]], [([], [1, 1]), ([[0, 1]], [1, 0])])
    exact = min_rank(inst)
    assert (exact.kappa, exact.witness.rows) == (1, ((1, 1),))
    loose = min_rank(inst, lower_bound=2)
    assert (loose.kappa, loose.witness.rows) == (2, ((1, 0), (0, 1)))
    assert loose == _reference_min_rank(inst, 2)
