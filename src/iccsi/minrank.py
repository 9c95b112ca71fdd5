"""Min-rank, realization checks, and the confusable-subspace number alpha.

An encoding matrix L (N x d_S) realizes an instance when every user can
recover its request from L V_S X plus its own cache, i.e. when each request
row lies in the span of the broadcast rows and the user's cached rows.  The
shortest realizable N equals the min-rank: the smallest rank of A + R where
R stacks the request rows and row i of A ranges over the intersection of the
user's cached space with the sender space.

alpha is the largest dimension of a subspace whose nonzero vectors are all
confusable for some user (t = 1 view); it lower-bounds the min-rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .galois import Matrix, _echelon_insert, iter_vectors, row_basis, solve_left
from .instance import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    IccsiInstance,
    UserSpec,
    intersection_basis,
    iter_confusable,
    one_symbol_view,
)


def realizes_ic(L: Matrix, inst: IccsiInstance) -> list[bool]:
    """Per-user flags: can user i decode its request from L V_S X and V^(i) X.

    User i succeeds exactly when R_i lies in rowspace([V^(i); L V_S]).  The
    kernel form of the same criterion, L V_S Z != 0 for every confusable Z,
    is ``codec.verify_ecic(L, inst, 0)``.
    """
    if L.ncols != inst.d_S:
        raise ValueError(f"L has {L.ncols} columns, expected d_S={inst.d_S}")
    lvs = L * inst.V_S
    return [_user_realized(u, lvs) for u in inst.users]


def _user_realized(u: UserSpec, lvs: Matrix) -> bool:
    """R_i in rowspace([V^(i); lvs]), by echelon insertion of the rows."""
    f = lvs.field
    sub, scaler, inv = f.sub, f.scaler, f.inv
    basis: list = []
    for row in itertools.chain(u.V.rows, lvs.rows):
        pair = _echelon_insert(basis, row, sub, scaler, inv)
        if pair is not None:
            basis.append(pair)
    return _echelon_insert(basis, u.R.rows[0], sub, scaler, inv) is None


@dataclass(frozen=True)
class MinRankResult:
    kappa: int
    witness: Matrix
    coset_size: int


def min_rank(
    inst: IccsiInstance,
    budget: int | None = None,
    lower_bound: int = 1,
) -> MinRankResult:
    """Exact min-rank by scanning the coset R + (per-user intersections).

    Enumerates, for each user, every vector of the intersection of its cached
    space with the sender space, added to its request row; the minimum rank
    over all row choices is the min-rank.  The scan is a depth-first product
    over users with user 0 varying fastest, pruned by the fact that adding
    rows never lowers the rank, so the reported witness is the first minimal
    element in odometer order.  Stops early when ``lower_bound`` is reached.

    The witness is the canonical encoding matrix: rows of the reduced echelon
    basis of the minimizing A + R, re-expressed over V_S.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = inst.field
    q = f.q
    # Candidate rows per user: R_i plus each vector of X^(i) meet X^(S),
    # listed in coefficient odometer order (first basis vector fastest).
    per_user_rows: list[list[tuple[int, ...]]] = []
    total = 1
    for u in inst.users:
        w = intersection_basis(u.V, inst.V_S)
        total *= q**w.nrows
        if total > budget:
            raise BudgetExceeded(
                f"coset size exceeds budget {budget}; got at least {total}"
            )
        rows = []
        for coef in iter_vectors(f, w.nrows):
            a = u.R
            if any(coef):
                a = a + Matrix._trusted(f, (coef,), w.nrows) * w
            rows.append(a.rows[0])
        per_user_rows.append(rows)
    m, n = inst.m, inst.n
    sub, scaler, inv = f.sub, f.scaler, f.inv

    best = [None, None]  # rank, chosen row indices

    # Depth-first over users from the last down to user 0 so that user 0 is
    # the innermost (fastest) index, matching odometer order.
    choice = [0] * m

    def walk(user: int, pivrows) -> bool:
        if best[0] is not None and len(pivrows) >= best[0]:
            return False
        if user < 0:
            best[0] = len(pivrows)
            best[1] = tuple(choice)
            return best[0] <= lower_bound
        for idx, row in enumerate(per_user_rows[user]):
            choice[user] = idx
            pair = _echelon_insert(pivrows, row, sub, scaler, inv)
            if pair is None:
                if walk(user - 1, pivrows):
                    return True
            else:
                pivrows.append(pair)
                done = walk(user - 1, pivrows)
                pivrows.pop()
                if done:
                    return True
        return False

    walk(m - 1, [])
    assert best[0] is not None
    chosen = Matrix._trusted(
        f, tuple(per_user_rows[i][best[1][i]] for i in range(m)), n
    )
    basis = row_basis(chosen)
    witness = solve_left(inst.V_S, basis)
    assert witness is not None, "witness rows must lie in the sender space"
    return MinRankResult(best[0], witness, total)


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: Matrix  # rows span the witness subspace, canonical basis
    node_count: int


def alpha(inst: IccsiInstance, budget: int | None = None) -> AlphaResult:
    """Largest dimension of a subspace inside the union of confusable sets.

    Works in the t = 1 view: collects every confusable vector of every user,
    then depth-first searches for the largest subspace all of whose nonzero
    vectors belong to the union.  Candidates are tried in encoded order, so
    the reported witness is deterministic.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = inst.field
    q = f.q
    one_view = one_symbol_view(inst)
    union: set[tuple[int, ...]] = set()
    for i in range(inst.m):
        for z in iter_confusable(one_view, i, budget=budget):
            union.add(z.col(0))
    cands = sorted(union)
    index = {v: k for k, v in enumerate(cands)}
    add, scaler = f.add, f.scaler
    n = inst.n
    nodes = 0

    def vec_add(a, b):
        return tuple(map(add, a, b))

    def vec_scale(c, a):
        return a if c == 1 else tuple(map(scaler(c), a))

    best_basis: list[list[tuple[int, ...]]] = [[]]

    def extend(start: int, span: list[tuple[int, ...]], basis: list[tuple[int, ...]]):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"alpha search exceeded budget {budget}")
        if len(basis) > len(best_basis[0]):
            best_basis[0] = list(basis)
        for j in range(start, len(cands)):
            z = cands[j]
            if z in span_set:
                continue
            new_elems = []
            ok = True
            for c in range(1, q):
                cz = vec_scale(c, z)
                for s in span:
                    e = vec_add(cz, s)
                    if e not in union:
                        ok = False
                        break
                    new_elems.append(e)
                if not ok:
                    break
            if not ok:
                continue
            for e in new_elems:
                span.append(e)
                span_set.add(e)
            basis.append(z)
            extend(j + 1, span, basis)
            basis.pop()
            for e in new_elems:
                span_set.discard(e)
            del span[len(span) - len(new_elems):]

    zero = (0,) * n
    span_set: set[tuple[int, ...]] = {zero}
    extend(0, [zero], [])
    basis_rows = best_basis[0]
    witness = (
        row_basis(Matrix._trusted(f, tuple(basis_rows), n))
        if basis_rows
        else Matrix._trusted(f, (), n)
    )
    return AlphaResult(len(basis_rows), witness, nodes)
