"""The packed GF(2) paths of the L2 searches against the tuple code they
replaced.

Over GF(2), ``alpha``, the ``min_rank`` DFS and the confusable walk under
``iter_confusable`` and ``verify_ecic`` run on int bitmasks.  The reference
functions below are the tuple searches as they stood before, and
``alpha_bruteforce_oracle`` (conftest) defines alpha from scratch.  Seeded
GF(2) instances (n 3-6, t 1-3, full or proper sender space) must give the
same values, witnesses, search counts, sequences, certificates and budget
errors, except that ``alpha`` visits each subspace once where the
reference reaches it through every increasing basis: its node count may
only be smaller, and it passes exactly the budgets that cover both that
count and its kernel walks.
"""

import numpy as np
import pytest

from conftest import alpha_bruteforce_oracle, assert_alpha_budget_edge
from test_confusable_walk import (
    assert_hamming_budget_edge,
    assert_rank_matches_reference,
    outcome,
    random_encoders,
    ref_iter_confusable,
    ref_verify_ecic,
)

from iccsi import (
    BudgetExceeded,
    InstanceError,
    Matrix,
    alpha,
    field_new,
    make_instance,
    min_rank,
    verify_ecic,
)
from iccsi.codec import HAMMING, RANK
from iccsi.galois import (
    _row_rank,
    _TupleRows,
    iter_vectors,
    mat_rank,
    row_basis,
    solve_left,
)
from iccsi.instance import DEFAULT_BUDGET, intersection_basis, iter_confusable, one_symbol_view
from iccsi.minrank import AlphaResult, MinRankResult

F2 = field_new(2, 1)


def ref_min_rank(inst, budget=DEFAULT_BUDGET, lower_bound=1):
    """The tuple min-rank DFS: the first minimal coset choice in odometer order."""
    f = inst.field
    per_user_rows = []
    total = 1
    for u in inst.users:
        w = intersection_basis(u.V, inst.V_S)
        total *= f.q**w.nrows
        if total > budget:
            raise BudgetExceeded(f"coset size exceeds budget {budget}; got at least {total}")
        rows = []
        for coef in iter_vectors(f, w.nrows):
            a = u.R
            if any(coef):
                a = a + Matrix(f, [coef], w.nrows) * w
            rows.append(a.rows[0])
        per_user_rows.append(rows)
    m, insert = inst.m, _TupleRows(f).insert(inst.n)
    best = [None, None]
    choice = [0] * m

    def walk(user, pivrows):
        if best[0] is not None and len(pivrows) >= best[0]:
            return False
        if user < 0:
            best[0], best[1] = len(pivrows), tuple(choice)
            return best[0] <= lower_bound
        for idx, row in enumerate(per_user_rows[user]):
            choice[user] = idx
            pair = insert(pivrows, row)
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
    chosen = Matrix(f, [per_user_rows[i][best[1][i]] for i in range(m)], inst.n)
    return MinRankResult(best[0], solve_left(inst.V_S, row_basis(chosen)), total)


def ref_alpha(inst, budget=DEFAULT_BUDGET):
    """The tuple alpha DFS over the union of the reference confusables."""
    f, n = inst.field, inst.n
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
            new = [tuple(map(f.add, z, s)) for s in span]
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


def gf2_instance(rng, n, t, k_max):
    """A valid GF(2) instance: 2-4 users, every cache kernel of dimension
    at most k_max, and the full sender space or a random (n-1)-row one."""
    while True:
        if rng.integers(2):
            sender = np.eye(n, dtype=int).tolist()
        else:
            sender = rng.integers(0, 2, size=(n - 1, n)).tolist()
        users = []
        for _ in range(int(rng.integers(2, 5))):
            d = int(rng.integers(max(1, n - k_max), n))
            coef = rng.integers(0, 2, size=len(sender)).tolist()
            r = (Matrix(F2, [coef]) * Matrix(F2, sender)).rows[0]
            users.append((rng.integers(0, 2, size=(d, n)).tolist(), r))
        try:
            inst = make_instance(F2, t, n, sender, users)
        except InstanceError:
            continue
        if all(n - u.d <= k_max for u in inst.users):
            return inst


# t = 1 instances keep every kernel (n <= 6); larger t keeps q^(k t) small.
K_MAX = {1: 6, 2: 4, 3: 3}
CASES = [(n, t, seed) for n in (3, 4, 5, 6) for t in (1, 2, 3) for seed in range(2)]


def test_pack_order_and_round_trip():
    # Entry 0 is the most significant bit, so int order is tuple order;
    # rows up to length 8 unpack from a table, longer ones bit by bit.
    for n in range(0, 11):
        rows = list(iter_vectors(F2, n))
        masks = [F2._fmt.pack(r) for r in rows]
        assert sorted(masks) == [F2._fmt.pack(r) for r in sorted(rows)]
        assert [F2._fmt.unpacker(n)(x) for x in masks] == rows
    assert F2._fmt.pack((1, 0, 0)) == 4 and F2._fmt.unpacker(3)(1) == (0, 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_echelon_insert_gf2_matches_tuple_insert(seed):
    # Same pivots (bit n-1-c for column c), same rows, same rank.
    rng = np.random.default_rng([seed, 11])
    for _ in range(20):
        n = int(rng.integers(1, 9))
        rows = [tuple(r) for r in rng.integers(0, 2, size=(int(rng.integers(1, 9)), n)).tolist()]
        basis, packed = [], []
        for row in rows:
            pair = _TupleRows(F2).insert(n)(basis, row)
            got = F2._fmt.insert(n)(packed, F2._fmt.pack(row))
            assert got == (None if pair is None else (n - 1 - pair[0], F2._fmt.pack(pair[1])))
            if pair is not None:
                basis.append(pair)
                packed.append(got)
        rank = _row_rank(F2, F2._fmt.to_rows(rows), n)
        assert rank == len(basis) == mat_rank(Matrix(F2, rows, n))


@pytest.mark.parametrize("n,t,seed", CASES)
def test_alpha_matches_reference(n, t, seed):
    rng = np.random.default_rng([n, t, seed, 1])
    inst = gf2_instance(rng, n, t, K_MAX[t])
    got = alpha(inst)
    ref = ref_alpha(inst)
    assert (got.alpha, got.witness) == (ref.alpha, ref.witness)
    assert got.node_count <= ref.node_count
    if n <= 5:
        assert got.alpha == alpha_bruteforce_oracle(inst)
    assert_alpha_budget_edge(inst, got)


@pytest.mark.parametrize("n,t,seed", CASES)
def test_min_rank_matches_reference(n, t, seed):
    rng = np.random.default_rng([n, t, seed, 2])
    inst = gf2_instance(rng, n, t, K_MAX[t])
    for lower in (1, 2):
        got = min_rank(inst, lower_bound=lower)
        ref = ref_min_rank(inst, lower_bound=lower)
        assert (got.kappa, got.witness, got.coset_size) == (
            ref.kappa, ref.witness, ref.coset_size
        )
    small = got.coset_size - 1
    assert outcome(min_rank, inst, small) == outcome(ref_min_rank, inst, small)


@pytest.mark.parametrize("n,t,seed", CASES)
def test_iter_confusable_matches_reference(n, t, seed):
    rng = np.random.default_rng([n, t, seed, 3])
    inst = gf2_instance(rng, n, t, K_MAX[t])
    for i in range(inst.m):
        assert list(iter_confusable(inst, i)) == list(ref_iter_confusable(inst, i))
        small = 2 ** ((n - inst.d(i)) * t) - 1
        assert outcome(list, iter_confusable(inst, i, small)) == outcome(
            list, ref_iter_confusable(inst, i, small)
        )


@pytest.mark.parametrize("n,t,seed", CASES)
def test_verify_ecic_matches_reference(n, t, seed):
    rng = np.random.default_rng([n, t, seed, 4])
    inst = gf2_instance(rng, n, t, K_MAX[t])
    largest = max(2 ** ((n - u.d) * t) for u in inst.users)
    verdicts = set()
    for L in random_encoders(rng, inst, 3):
        for metric in (HAMMING, RANK):
            for delta in (0, 1, 2):
                got = verify_ecic(L, inst, delta, metric)
                if metric == RANK:
                    assert_rank_matches_reference(got, L, inst, delta)
                    verdicts.add(got.passed)
                    continue
                assert got.to_dict() == ref_verify_ecic(L, inst, delta, metric).to_dict()
                verdicts.add(got.passed)
                assert_hamming_budget_edge(L, inst, delta, largest - 1)
    assert False in verdicts
