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

import functools
import itertools
from dataclasses import dataclass

from .galois import (
    Matrix,
    _echelon_insert,
    _echelon_insert_gf2,
    _pack,
    _unpack,
    iter_vectors,
    row_basis,
    solve_left,
)
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
    # Over GF(2) the search inserts packed rows; it visits the same nodes.
    if q == 2:
        cands = [list(map(_pack, rows)) for rows in per_user_rows]
        insert = _echelon_insert_gf2
    else:
        cands = per_user_rows
        insert = functools.partial(
            _echelon_insert, sub=f.sub, scaler=f.scaler, inv=f.inv
        )

    # Depth-first over users from the last down to user 0 so that user 0 is
    # the innermost (fastest) index, matching odometer order.  Adding rows
    # never lowers the rank, so a branch stops once it cannot beat the best.
    best_rank = m + 1  # above the rank of any choice
    best_choice: tuple[int, ...] = ()
    choice = [0] * m

    def walk(user: int, pivrows) -> bool:
        nonlocal best_rank, best_choice
        if user < 0:
            best_rank = len(pivrows)
            best_choice = tuple(choice)
            return best_rank <= lower_bound
        for idx, row in enumerate(cands[user]):
            if len(pivrows) >= best_rank:
                return False
            choice[user] = idx
            pair = insert(pivrows, row)
            if pair is None:
                if walk(user - 1, pivrows):
                    return True
            elif len(pivrows) + 1 < best_rank:
                pivrows.append(pair)
                done = walk(user - 1, pivrows)
                pivrows.pop()
                if done:
                    return True
        return False

    walk(m - 1, [])
    chosen = Matrix._trusted(
        f, tuple(per_user_rows[i][best_choice[i]] for i in range(m)), n
    )
    basis = row_basis(chosen)
    witness = solve_left(inst.V_S, basis)
    assert witness is not None, "witness rows must lie in the sender space"
    return MinRankResult(best_rank, witness, total)


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
    the reported witness is deterministic.  Over GF(2) the search runs on
    packed rows, whose int order is the tuple order, so it visits the same
    nodes.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = inst.field
    n = inst.n
    one_view = one_symbol_view(inst)
    union: set[tuple[int, ...]] = set()
    for i in range(inst.m):
        for z in iter_confusable(one_view, i, budget=budget):
            union.add(z.col(0))
    if f.q == 2:
        packed, nodes = _alpha_dfs_gf2(set(map(_pack, union)), budget)
        basis_rows = [_unpack(x, n) for x in packed]
    else:
        basis_rows, nodes = _alpha_dfs(union, f, n, budget)
    witness = (
        row_basis(Matrix._trusted(f, tuple(basis_rows), n))
        if basis_rows
        else Matrix._trusted(f, (), n)
    )
    return AlphaResult(len(basis_rows), witness, nodes)


def _alpha_dfs(union: set, f, n: int, budget: int) -> tuple[list, int]:
    """The alpha DFS over F_q: the first largest basis found, and the nodes."""
    q = f.q
    cands = sorted(union)
    add, scaler = f.add, f.scaler
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
    return best_basis[0], nodes


def _alpha_dfs_gf2(union: set[int], budget: int) -> tuple[list[int], int]:
    """:func:`_alpha_dfs` over GF(2) on packed rows.

    The only nonzero scalar is 1, so adding z to the span adds z ^ s for
    each span element s.  A z already in the span meets z ^ z = 0, which
    is never confusable, so the union test rejects it without a span set.
    Candidates are the sorted packed union, which is the tuple search's
    order: the nodes and the witness are the same.
    """
    cands = sorted(union)
    span = [0]
    best: list[int] = []
    nodes = 0

    def extend(start: int, basis: list[int]) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"alpha search exceeded budget {budget}")
        if len(basis) > len(best):
            best = list(basis)
        for j in range(start, len(cands)):
            z = cands[j]
            new_elems = [z ^ s for s in span]
            if not union.issuperset(new_elems):
                continue
            span.extend(new_elems)
            basis.append(z)
            extend(j + 1, basis)
            basis.pop()
            del span[len(span) - len(new_elems):]

    extend(0, [])
    return best, nodes
