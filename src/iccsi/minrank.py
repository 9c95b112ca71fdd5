"""Min-rank, realization checks, and the confusable-subspace number alpha.

An encoding matrix L (N x d_S) realizes an instance when every user can
recover its request from L V_S X plus its own cache, i.e. when each request
row lies in the span of the broadcast rows and the user's cached rows.  The
shortest realizable N equals the min-rank: the smallest rank of A + R where
R stacks the request rows and row i of A ranges over the intersection of the
user's cached space with the sender space.

alpha is the largest dimension of a subspace whose nonzero vectors are all
confusable for some user (t = 1 view); it lower-bounds the min-rank.  One
candidate-set depth-first search finds it over every field, with the
pruning of exact clique search (Carraghan and Pardalos, 1990).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .galois import (
    Matrix,
    _from_rows,
    _row_add,
    _row_insert,
    _row_mul,
    _row_scale,
    _to_rows,
    iter_vectors,
    row_basis,
    solve_left,
)
from .instance import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    IccsiInstance,
    _WalkBlocks,
    _confusable_walk,
    intersection_basis,
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
    if L.field != inst.field:
        raise ValueError("fields differ")
    return list(_realization_check(inst)(L.rows))


def _realization_check(inst: IccsiInstance):
    """The function that takes the entry rows of an N x d_S matrix L and
    yields the flags of :func:`realizes_ic`, lazily, in user order.

    Each user's echelon pairs of V^(i), its R_i row and the V_S rows are
    built once, in the row format.  A call forms L V_S by :func:`_row_mul`
    and, per user, inserts its rows into a copy of the user's pairs; R_i is
    realized when its insert returns None.
    """
    f, n = inst.field, inst.n
    insert = _row_insert(f, n)
    vs = _to_rows(f, inst.V_S.rows)
    users = []
    for u in inst.users:
        pairs: list = []
        for row in _to_rows(f, u.V.rows):
            pair = insert(pairs, row)
            if pair is not None:
                pairs.append(pair)
        users.append((pairs, _to_rows(f, u.R.rows)[0]))

    def flags(L_rows) -> Iterator[bool]:
        lvs = _row_mul(f, L_rows, vs, n)
        for pairs, r in users:
            basis = pairs.copy()
            for row in lvs:
                pair = insert(basis, row)
                if pair is not None:
                    basis.append(pair)
            yield insert(basis, r) is None

    return flags


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
    m, n = inst.m, inst.n
    # Candidate rows per user in the row format: R_i plus each vector of
    # X^(i) meet X^(S), the coefficient vectors in odometer order (first
    # basis vector fastest), all as one product [1 | c] [R_i; W].
    cands: list[list] = []
    total = 1
    for u in inst.users:
        w = intersection_basis(u.V, inst.V_S)
        total *= q**w.nrows
        if total > budget:
            raise BudgetExceeded(
                f"coset size exceeds budget {budget}; got at least {total}"
            )
        coeffs = ((1,) + c for c in iter_vectors(f, w.nrows))
        cands.append(_row_mul(f, coeffs, _to_rows(f, u.R.rows + w.rows), n))
    insert = _row_insert(f, n)
    # A user whose cache meets the sender space only in 0 has the one
    # candidate R_i, which every choice holds: insert those rows once, and
    # walk the others, each of which at least doubles the coset, so the
    # depth is at most log2(budget).
    forced: list = []
    for row in (c[0] for c in cands if len(c) == 1):
        pair = insert(forced, row)
        if pair is not None:
            forced.append(pair)
    free = [i for i in range(m) if len(cands[i]) > 1]

    # Depth-first over users from the last down to user 0 so that user 0 is
    # the innermost (fastest) index, matching odometer order.  Adding rows
    # never lowers the rank, so a branch stops once it cannot beat the best.
    best_rank = m + 1  # above the rank of any choice
    best_choice: tuple[int, ...] = ()
    choice = [0] * m

    def walk(k: int, pivrows) -> bool:
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

    Works in the t = 1 view: walks every user's confusable set and collects
    the Z vectors, rows in the :mod:`iccsi.galois` row format, into the
    union U.  A depth-first search then grows bases z_1 < z_2 < ... in
    encoded order.  A node with basis B keeps its candidate set C(B), the
    vectors c with c + s in U for every s in span(B), so the root's set is
    U; adding z keeps the c with c + a z in C(B) for every a != 0.  U is
    closed under nonzero scalars, so z lies in C(B) exactly when every new
    vector of span(B + z) lies in U.  The children of a node are its
    candidates after its last basis vector, and the witness is the first
    largest basis found, so it is deterministic.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = inst.field
    n = inst.n
    view = one_symbol_view(inst)
    z_vec = _WalkBlocks(view).z_vec
    union = {
        z_vec(cols[0]) for i in range(inst.m) for cols in _confusable_walk(view, i, budget)
    }
    # narrow(C(B), z) is C(B + z).  A step by s keeps the c whose c - s is
    # in the set too, so steps by s_1, s_2, ... keep the c with c - v in
    # C(B) for every sum v of some s_i; p - 1 steps by a z for each a in the
    # F_p-basis p^j of F_q make the v every b z.  Each s is kept as an
    # endless repeat, for ``map`` to pair with every c.
    add = _row_add(f)
    shifts = {
        z: [itertools.repeat(_row_scale(f, f.p**j, z)) for j in range(f.e)] * (f.p - 1)
        for z in union
    }

    def narrow(cset: set, z) -> set:
        for s in shifts[z]:
            cset = cset.intersection(map(add, cset, s))
        return cset

    best: list = []
    basis: list = []
    nodes = 0

    def extend(cset: set, children: list) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"alpha search exceeded budget {budget}")
        if len(basis) > len(best):
            best = list(basis)
        for j, z in enumerate(children):
            # The last child has no children, so it needs no candidate set.
            sub = narrow(cset, z) if j + 1 < len(children) else cset
            basis.append(z)
            extend(sub, [c for c in children[j + 1:] if c in sub])
            basis.pop()

    extend(union, sorted(union))
    return AlphaResult(len(best), row_basis(_from_rows(f, best, n)), nodes)
