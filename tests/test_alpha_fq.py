"""alpha over F_q against the span search it replaced.

``alpha`` runs one candidate-set search for every field.  The reference
below is the earlier F_q search: it keeps span(B) as a list and accepts a
candidate z when c z + s lies in the union for every nonzero scalar c and
every span element s, reaching a subspace through each of its increasing
bases.  Seeded GF(3), GF(4) and GF(5) instances (n 3-5, t 1-2, full or
proper sender space) and GF(9) ones (n = 2) must give the same value and
witness in no more nodes, and pass exactly the budgets that cover both its
node count and its kernel walks; ``alpha_bruteforce_oracle`` (conftest)
checks the value at n <= 4.
``alpha`` visits each subspace inside the union at most once, which a
brute-force list of those subspaces checks on tiny instances.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    alpha_bruteforce_oracle,
    assert_alpha_budget_edge,
    build,
    confusable_union,
    ident,
    iter_subspace_bases,
)
from test_confusable_walk import ref_iter_confusable

from iccsi import BudgetExceeded, InstanceError, Matrix, alpha, field_new, make_instance
from iccsi.galois import iter_vectors, null_space, row_basis
from iccsi.instance import DEFAULT_BUDGET, one_symbol_view
from iccsi.minrank import AlphaResult


def ref_alpha(inst, budget=DEFAULT_BUDGET):
    """The span-list alpha DFS over the union of the reference confusables."""
    f, n, q = inst.field, inst.n, inst.q
    view = one_symbol_view(inst)
    union = set()
    for i in range(inst.m):
        for z in ref_iter_confusable(view, i, budget):
            union.add(z.col(0))
    cands = sorted(union)
    nodes = 0
    best = [[]]
    zero = (0,) * n
    span, span_set = [zero], {zero}

    def extend(start, basis):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"alpha search exceeded budget {budget}")
        if len(basis) > len(best[0]):
            best[0] = list(basis)
        for j in range(start, len(cands)):
            z = cands[j]
            if z in span_set:
                continue
            new = []
            for c in range(1, q):
                cz = tuple(f.mul(c, x) for x in z)
                new.extend(tuple(map(f.add, cz, s)) for s in span)
            if not all(e in union for e in new):
                continue
            span.extend(new)
            span_set.update(new)
            basis.append(z)
            extend(j + 1, basis)
            basis.pop()
            span_set.difference_update(new)
            del span[len(span) - len(new):]

    extend(0, [])
    rows = best[0]
    witness = row_basis(Matrix(f, rows, n)) if rows else Matrix(f, [], n)
    return AlphaResult(len(rows), witness, nodes)


def fq_instance(rng, field, n, t, k_max, proper):
    """A valid instance over ``field``: 2-3 users, every cache kernel of
    dimension at most k_max, and the full sender space or a random
    (n-1)-row one."""
    q = field.q
    while True:
        if proper:
            sender = rng.integers(0, q, size=(n - 1, n)).tolist()
        else:
            sender = np.eye(n, dtype=int).tolist()
        users = []
        for _ in range(int(rng.integers(2, 4))):
            d = int(rng.integers(max(1, n - k_max), n))
            coef = rng.integers(0, q, size=len(sender)).tolist()
            r = (Matrix(field, [coef]) * Matrix(field, sender)).rows[0]
            users.append((rng.integers(0, q, size=(d, n)).tolist(), r))
        try:
            inst = make_instance(field, t, n, sender, users)
        except InstanceError:
            continue
        if all(n - u.d <= k_max for u in inst.users):
            return inst


# Kernels up to q^3 vectors keep the reference search quick at q = 5.
# Over GF(9) it can take minutes at n = 3, so GF(9) runs at n = 2.
FIELDS = [(3, 1), (2, 2), (5, 1), (3, 2)]
CASES = [
    (p, e, n, t, proper)
    for p, e in FIELDS
    for n in ((2,) if p**e == 9 else (3, 4, 5))
    for t in (1, 2)
    for proper in (False, True)
]


@pytest.mark.parametrize("p,e,n,t,proper", CASES)
def test_alpha_matches_span_search(p, e, n, t, proper):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, n, t, proper, 5])
    inst = fq_instance(rng, field, n, t, 3, proper)
    got = alpha(inst)
    ref = ref_alpha(inst)
    assert (got.alpha, got.witness) == (ref.alpha, ref.witness)
    assert got.node_count <= ref.node_count
    if n <= 4:
        assert got.alpha == alpha_bruteforce_oracle(inst)
    assert_alpha_budget_edge(inst, got)


def subspace_dims(inst):
    """The dimension of every subspace of F_q^n inside the confusable union
    and {0}, {0} included, one entry per subspace."""
    f, n = inst.field, inst.n
    union = confusable_union(inst)
    return [
        dim
        for dim in range(n + 1)
        for basis in iter_subspace_bases(f, n, dim)
        if all((Matrix(f, [c]) * basis).rows[0] in union for c in iter_vectors(f, dim) if any(c))
    ]


def lines_and_plane(field):
    """One user per line, over F_q^4: the q lines through (0, 0, 1, b),
    which span no plane inside the union, and the q + 1 lines of the plane
    span{e1, e2}, which come later in encoded order.  Each user's kernel is
    its line, so its walk has q vectors, and alpha examines the q lines
    before the plane's two: q + 3 nodes."""
    q = field.q
    lines = [(0, 0, 1, b) for b in range(q)] + [(0, 1, 0, 0)] + [(1, a, 0, 0) for a in range(q)]
    users = []
    for v in lines:
        lead = next(k for k, a in enumerate(v) if a)
        users.append((null_space(Matrix(field, [v])).transpose().rows, ident(4)[lead]))
    return build(field, 1, 4, users)


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2)]


def small_instances():
    """Per field of SMALL_FIELDS: lines_and_plane, then the first three
    seeded instances at n = 3 and at n = 4 with a 2-dimensional subspace
    inside the union, where an increasing-basis search visits one subspace
    more than once."""
    for p, e in SMALL_FIELDS:
        field = field_new(p, e)
        yield lines_and_plane(field)
        for n in (3, 4):
            found = 0
            for seed in itertools.count():
                rng = np.random.default_rng([p, e, n, seed, 7])
                inst = fq_instance(rng, field, n, 1, 3, False)
                if max(subspace_dims(inst)) >= 2:
                    yield inst
                    found += 1
                    if found == 3:
                        break


def test_alpha_visits_each_subspace_at_most_once():
    searched = 0
    for inst in small_instances():
        dims = subspace_dims(inst)
        assert max(dims) >= 2
        got = alpha(inst)
        assert got.node_count <= len(dims)
        assert got.alpha == max(dims)
        assert_alpha_budget_edge(inst, got)
        searched += got.node_count > max(inst.q ** (inst.n - u.d) for u in inst.users)
    # lines_and_plane takes the budget edge into the search itself.
    assert searched >= len(SMALL_FIELDS)
