"""alpha over F_q against the span search it replaced.

``alpha`` runs one candidate-set search for every field.  The reference
below is the earlier F_q search: it keeps span(B) as a list and accepts a
candidate z when c z + s lies in the union for every nonzero scalar c and
every span element s.  Seeded GF(3), GF(4) and GF(5) instances (n 3-5,
t 1-2, full or proper sender space) must give the same value, witness,
node count and budget errors; ``alpha_bruteforce_oracle`` (conftest)
checks the value at n <= 4.
"""

import numpy as np
import pytest

from conftest import alpha_bruteforce_oracle
from test_confusable_walk import outcome, ref_iter_confusable

from iccsi import BudgetExceeded, InstanceError, Matrix, alpha, field_new, make_instance
from iccsi.galois import row_basis
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
FIELDS = [(3, 1), (2, 2), (5, 1)]
CASES = [
    (p, e, n, t, proper)
    for p, e in FIELDS
    for n in (3, 4, 5)
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
    assert (got.alpha, got.witness, got.node_count) == (ref.alpha, ref.witness, ref.node_count)
    if n <= 4:
        assert got.alpha == alpha_bruteforce_oracle(inst)
    small = got.node_count - 1
    assert outcome(alpha, inst, small) == outcome(ref_alpha, inst, small)
