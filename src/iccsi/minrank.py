"""Min-rank, realization checks, and the confusable-subspace number alpha.

An encoding matrix L (N x d_S) realizes an instance when every user can
recover its request from L V_S X plus its own cache, i.e. when each request
row lies in the span of the broadcast rows and the user's cached rows.  The
shortest realizable N equals the min-rank: the smallest rank of A + R where
R stacks the request rows and row i of A ranges over the intersection of the
user's cached space with the sender space.

alpha is the largest dimension of a subspace whose nonzero vectors are all
confusable for some user (t = 1 view); it lower-bounds the min-rank.  One
candidate-set depth-first search over greedy bases, one node per subspace,
finds it over every field, with the size pruning of exact clique search
counted in lines (Carraghan and Pardalos, 1990; Östergård, 2002).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .galois import (
    Matrix,
    _from_rows,
    _row_echelon,
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
    the instance's cached ``_realization_rows``.  A call forms L V_S by
    one product and, per user, extends the user's pairs by its rows
    (:func:`~iccsi.galois._row_echelon`); R_i is realized when its insert
    returns None.
    """
    f, n = inst.field, inst.n
    insert = f._fmt.insert(n)
    vs, users = inst._realization_rows

    def flags(L_rows) -> Iterator[bool]:
        lvs = f._fmt.mul(L_rows, vs, n)
        for pairs, r in users:
            yield insert(_row_echelon(f, lvs, n, pairs), r) is None

    return flags


@dataclass(frozen=True)
class MinRankResult:
    kappa: int
    witness: Matrix
    coset_size: int


def min_rank(inst: IccsiInstance, budget: int | None = None) -> MinRankResult:
    """Exact min-rank by scanning the coset R + (per-user intersections).

    Enumerates, for each user, every vector of the intersection of its cached
    space with the sender space, added to its request row; the minimum rank
    over all row choices is the min-rank.  The scan is a depth-first product
    over users with user 0 varying fastest, pruned by the fact that adding
    rows never lowers the rank, so the reported witness is the first minimal
    element in odometer order.

    The search state is the span P of the rows chosen so far, not the
    choice indices.  A node whose P is one below the best rank can only win
    with a leaf of span P, and one exists exactly when every user u still to
    choose has R_u in P + W_u ([R_u; W_u] its coset generators): such a
    node is decided by one span test per user instead of a descent, and so
    is each child P + c of a node two below the best rank.  A candidate
    that already lies in P is the last one a node explores, because every
    choice under a later candidate spans a superset of a choice already
    explored.

    A choice of rank 1 ends the search, since every request row is nonzero.

    The witness is the canonical encoding matrix: rows of the reduced echelon
    basis of the minimizing A + R, re-expressed over V_S.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f, fmt = inst.field, inst.field._fmt
    q = f.q
    m, n = inst.m, inst.n
    # Candidate rows per user in the row format: R_i plus each vector of
    # X^(i) meet X^(S), the coefficient vectors in odometer order (first
    # basis vector fastest), all as one product [1 | c] [R_i; W], the
    # instance's cached generators.
    cands: list[list] = []
    total = 1
    for gens in inst._coset_rows:
        w = len(gens) - 1
        total *= q**w
        if total > budget:
            raise BudgetExceeded(
                f"coset size exceeds budget {budget}; got at least {total}"
            )
        coeffs = ((1,) + c for c in iter_vectors(f, w))
        cands.append(fmt.mul(coeffs, gens, n))
    insert, reduce = fmt.insert(n), fmt.reduce
    zero = fmt.zero(n)
    # The span P as echelon pairs and, beside them, the rows they came from,
    # which the witness is built from.  A user whose cache meets the sender
    # space only in 0 has the one candidate R_i, which every choice holds:
    # insert those rows once, and walk the others, each of which at least
    # doubles the coset, so the depth is at most log2(budget).
    pairs: list = []
    rows: list = []
    for row in (c[0] for c in cands if len(c) == 1):
        pair = insert(pairs, row)
        if pair is not None:
            pairs.append(pair)
            rows.append(row)
    free = [i for i in range(m) if len(cands[i]) > 1]

    best_rank = m + 1  # above the rank of any choice
    best_rows: list = []

    def settle(memo: dict, j: int) -> tuple:
        """(pairs extending P to P + W_u, pair of R_u reduced by P + W_u or
        None) for u = free[j], built once per span P."""
        got = memo.get(j)
        if got is None:
            r, *w = inst._coset_rows[free[j]]
            basis = _row_echelon(f, w, n, pairs)
            got = memo[j] = (basis[len(pairs):], insert(basis, r))
        return got

    def win(extra: tuple = ()) -> bool:
        nonlocal best_rank, best_rows
        best_rows = rows + list(extra)
        best_rank = len(best_rows)
        return best_rank <= 1

    # Depth-first over users from the last down to user 0 so that user 0 is
    # the innermost (fastest) index, matching odometer order.  Adding rows
    # never lowers the rank, so once P is one below the best rank only a
    # candidate inside P can lead to a better choice, and the span tests
    # decide whether one does.  ``memo`` holds settle's results for P.
    def walk(k: int, memo: dict) -> bool:
        if best_rank - len(pairs) == 1:
            return all(settle(memo, j)[1] is None for j in range(k + 1)) and win()
        if k < 0:
            return win()
        for c in cands[free[k]]:
            r = reduce(pairs, c)
            if r == zero:
                return walk(k - 1, memo)
            slack = best_rank - len(pairs)
            if slack == 2:
                # R_u lies in P + W_u + <c> exactly when its remainder mod
                # P + W_u is zero or a multiple of the nonzero remainder of c.
                for j in range(k):
                    extra, rem = settle(memo, j)
                    if rem is not None:
                        d = reduce(extra, r)
                        if d == zero or reduce((rem,), d) != zero:
                            break
                else:
                    if win((c,)):
                        return True
            elif slack > 2:
                pairs.append(insert((), r))
                rows.append(c)
                done = walk(k - 1, {})
                pairs.pop()
                rows.pop()
                if done:
                    return True
        return False

    walk(len(free) - 1, {})
    basis = row_basis(_from_rows(f, best_rows, n))
    witness = solve_left(inst.V_S, basis)
    assert witness is not None, "witness rows must lie in the sender space"
    return MinRankResult(best_rank, witness, total)


@dataclass(frozen=True)
class AlphaResult:
    alpha: int
    witness: Matrix  # rows span the witness subspace, canonical basis
    node_count: int


def alpha(
    inst: IccsiInstance, budget: int | None = None, upper: int | None = None
) -> AlphaResult:
    """Largest dimension of a subspace inside the union of confusable sets.

    Works in the t = 1 view: walks every user's confusable set and collects
    the Z vectors, rows in the :mod:`iccsi.galois` row format, into the
    union U.  A depth-first search then visits each subspace inside
    U + {0} once, through its greedy basis: z_k is the smallest vector, in
    encoded order, of the subspace outside span(z_1..z_(k-1)).  A sequence
    is such a basis exactly when it is increasing and each z_k has leading
    entry 1 and is zero in the leading columns of z_1..z_(k-1), so those
    are the conditions on a child.  A node with basis B keeps its candidate
    set C(B), the vectors c with c + s in U for every s in span(B), so the
    root's set is U; U is closed under nonzero scalars, so span(B + z) lies
    in U + {0} exactly when z is in C(B).  The children of B are listed in
    order, and a child z's own list is the later children c that are zero
    in z's leading column and have c + a z in C(B) for every a != 0; only
    a child that goes on to search gets C(B + z) built.  The witness is the
    first largest basis found, the first in lex order, so it is
    deterministic.

    Two counts in lines (1-dimensional subspaces, (q^r - 1) / (q - 1) of
    them in an r-dimensional one) prune, as in exact clique search.
    Beating the best basis from B needs r = len(best) + 1 - len(B) more
    vectors, whose span's lines all have their leading-1 vector among B's
    children from z on, and r - 1 more from B + z, whose lines all lie in
    z's list.  The loop over B's children stops at the first with too few
    lines from it on, and a child whose list is too short is not searched.

    ``node_count`` counts the root and every extension B + z whose list is
    built, the work that ``budget`` bounds.  ``upper``, an upper bound on
    alpha such as the min-rank, stops the search once the best basis
    reaches it.  The best basis is replaced only by a strictly larger one,
    so alpha and the witness are those of the full search; only
    ``node_count`` is smaller.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = inst.field
    n, q = inst.n, f.q
    view = one_symbol_view(inst)
    z_vec = _WalkBlocks(view).z_vec
    union = {
        z_vec(cols[0]) for i in range(inst.m) for cols in _confusable_walk(view, i, budget)
    }
    # The possible children, the vectors with leading entry 1, in order,
    # each with the reader of its leading column and its q - 1 nonzero
    # scalings b z.
    line = f._fmt.line(n)
    steps = {}
    for z in sorted(union):
        got = line(z)
        if got is not None:
            steps[z] = got
    # narrow(C(B), zs), for zs the scalings of z, is C(B + z).  A step by s
    # keeps the c whose c - s is in the set too, so steps by s_1, s_2, ...
    # keep the c with c - v in C(B) for every sum v of some s_i; p - 1 steps
    # by a z, zs[a - 1], for each a in the F_p-basis p^j of F_q make the v
    # every b z.
    add = f._fmt.add
    powers = [f.p**j for j in range(f.e)] * (f.p - 1)

    def narrow(cset: set, zs: list) -> set:
        for a in powers:
            cset = cset.intersection(map(add, cset, itertools.repeat(zs[a - 1])))
        return cset

    lines = [(q**r - 1) // (q - 1) for r in range(n + 2)]
    best: list = []
    basis: list = []
    nodes = 1  # the root
    if nodes > budget:
        raise BudgetExceeded(f"alpha search exceeded budget {budget}")

    def extend(cset: set, children: list) -> bool:
        nonlocal nodes, best
        size, depth = len(children), len(basis)
        for j, z in enumerate(children):
            if size - j < lines[len(best) + 1 - depth]:
                return False
            at, zs = steps[z]
            cands = list(itertools.filterfalse(at, children[j + 1:]))
            for w in zs:
                keep = map(cset.__contains__, map(add, cands, itertools.repeat(w)))
                cands = list(itertools.compress(cands, keep))
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"alpha search exceeded budget {budget}")
            if depth == len(best):
                best = basis + [z]
                if upper is not None and depth + 1 >= upper:
                    return True
            if len(cands) >= lines[len(best) - depth]:
                # A list of one has no later child to test against C(B + z).
                basis.append(z)
                if extend(narrow(cset, zs) if len(cands) > 1 else cset, cands):
                    return True
                basis.pop()
        return False

    extend(union, list(steps))
    return AlphaResult(len(best), row_basis(_from_rows(f, best, n)), nodes)
