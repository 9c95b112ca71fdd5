"""The incremental confusable walk and the echelon realizability test
against the loops they replaced.

The reference functions below restate the earlier enumeration and check
loops: a K * C triple loop per confusable, rank(Z) then weight(L V_S Z) per
confusable, and a linear solve per user for realizability.  Seeded
instances over GF(2), GF(3), GF(4) and GF(9), with a full or a proper
sender space, must give identical sequences, certificates (violations and
budget errors included) and flags.
"""

import numpy as np
import pytest

from iccsi import (
    BudgetExceeded,
    InstanceError,
    Matrix,
    field_new,
    make_instance,
    realizes_ic,
    verify_ecic,
)
from iccsi.codec import HAMMING, RANK, EcicCertificate, random_ic_search
from iccsi.galois import iter_vectors, null_space, rank_weight, solve_left, vstack, weight
from iccsi.instance import (
    _LAP_BITS,
    DEFAULT_BUDGET,
    _confusable_walk,
    _WalkBlocks,
    iter_confusable,
    one_symbol_view,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


def ref_iter_confusable(inst, i, budget=None):
    """Every K C with R_i K C != 0, C in odometer order, one matrix each."""
    if budget is None:
        budget = DEFAULT_BUDGET
    u = inst.users[i]
    K = null_space(u.V)
    k, t, q, n = K.ncols, inst.t, inst.q, inst.n
    if q ** (k * t) > budget:
        raise BudgetExceeded(
            f"user {i}: kernel enumeration size {q}^{k * t} exceeds budget {budget}"
        )
    f = inst.field
    RK = (u.R * K).rows[0]
    for flat in iter_vectors(f, k * t):
        C = [[flat[c * k + j] for c in range(t)] for j in range(k)]
        rk = [0] * t
        for c in range(t):
            for j in range(k):
                rk[c] = f.add(rk[c], f.mul(RK[j], C[j][c]))
        if not any(rk):
            continue
        rows = [[0] * t for _ in range(n)]
        for r in range(n):
            for c in range(t):
                for j in range(k):
                    rows[r][c] = f.add(rows[r][c], f.mul(K[r, j], C[j][c]))
        yield Matrix(f, rows, t)


def ref_verify_ecic(L, inst, delta, metric, budget=DEFAULT_BUDGET):
    """Exhaustive certificate: rank_weight(z), then weight(lvs * z), per z."""
    view = one_symbol_view(inst) if metric == HAMMING else inst
    lvs = L * view.V_S
    need = 2 * delta + 1
    violations = []
    trials = 0
    for i in range(view.m):
        size = view.q ** ((view.n - view.users[i].d) * view.t)
        if size > budget:
            raise BudgetExceeded(
                f"user {i}: confusable set size {size} exceeds budget {budget}"
            )
        for z in ref_iter_confusable(view, i, budget):
            if metric == RANK and rank_weight(z) < need:
                continue
            trials += 1
            if weight(lvs * z, metric) < need:
                violations.append((i, z))
                break
    return EcicCertificate(delta, metric, "exhaustive", trials, tuple(violations))


def ref_realizes_ic(L, inst):
    lvs = L * inst.V_S
    return [solve_left(vstack(u.V, lvs), u.R) is not None for u in inst.users]


def random_instance(rng, field, t, d_min=None):
    """A valid instance on n = 4 messages with 2 or 3 users.

    The sender space is the full space or a random 3-dimensional one; users
    cache d_min to 3 random rows, by default 1 at t = 1 and 2 above, which
    keeps q^(k t) small.
    """
    if d_min is None:
        d_min = 1 if t == 1 else 2
    n = 4
    q = field.q
    while True:
        if rng.integers(2):
            sender = np.eye(n, dtype=int).tolist()
        else:
            sender = rng.integers(0, q, size=(3, n)).tolist()
        users = []
        for _ in range(int(rng.integers(2, 4))):
            d = int(rng.integers(d_min, 4))
            v_rows = rng.integers(0, q, size=(d, n)).tolist()
            coef = rng.integers(0, q, size=len(sender)).tolist()
            r = (Matrix(field, [coef]) * Matrix(field, sender)).rows[0]
            users.append((v_rows, r))
        try:
            return make_instance(field, t, n, sender, users)
        except InstanceError:
            continue


def random_encoders(rng, inst, count, max_len=None):
    """Random L of lengths 1 .. max_len (default 2 d_S + 1)."""
    if max_len is None:
        max_len = 2 * inst.d_S + 1
    out = []
    for _ in range(count):
        N = int(rng.integers(1, max_len + 1))
        out.append(Matrix(inst.field, rng.integers(0, inst.q, size=(N, inst.d_S)).tolist()))
    return out


def outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


CASES = [(p, e, t, seed) for p, e in FIELDS for t in (1, 2) for seed in range(3)]
# Over GF(9) the reference certificates take seconds each at t = 2, and
# realizability does not depend on t, so those two tests take GF(9) at
# t = 1 only.
SHORT_CASES = [c for c in CASES if c[:3] != (3, 2, 2)]


@pytest.mark.parametrize("p,e,t,seed", CASES)
def test_iter_confusable_matches_reference(p, e, t, seed):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, seed])
    inst = random_instance(rng, f, t)
    for i in range(inst.m):
        assert list(iter_confusable(inst, i)) == list(ref_iter_confusable(inst, i))
        k = inst.n - inst.d(i)
        small = f.q ** (k * t) - 1
        assert outcome(list, iter_confusable(inst, i, budget=small)) == outcome(
            list, ref_iter_confusable(inst, i, budget=small)
        )


@pytest.mark.parametrize("p,e,t,seed", SHORT_CASES)
def test_verify_ecic_matches_reference(p, e, t, seed):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, seed, 1])
    inst = random_instance(rng, f, t)
    # A budget below the largest confusable set: the same error from the
    # same user, after the same earlier users.
    largest = max(f.q ** ((inst.n - u.d) * t) for u in inst.users)
    passed = set()
    for L in random_encoders(rng, inst, 3):
        for metric in (HAMMING, RANK):
            for delta in (0, 1, 2):
                got = verify_ecic(L, inst, delta, metric)
                assert got.to_dict() == ref_verify_ecic(L, inst, delta, metric).to_dict()
                passed.add(got.passed)
                small = dict(mode="exhaustive", budget=largest - 1)
                assert outcome(verify_ecic, L, inst, delta, metric, **small) == outcome(
                    ref_verify_ecic, L, inst, delta, metric, largest - 1
                )
    assert False in passed


@pytest.mark.parametrize("seed", range(2))
def test_verify_ecic_rank_t3(seed):
    # At t = 3 and delta = 1 a block of rank < 3 is a violation or a skipped
    # confusable depending on rank(Z), which needs k >= 3 kernel columns.
    f = field_new(2, 1)
    rng = np.random.default_rng([seed, 7])
    inst = random_instance(rng, f, 3, d_min=1)
    kinds = set()
    for L in random_encoders(rng, inst, 4):
        cert = verify_ecic(L, inst, 1, RANK)
        assert cert.to_dict() == ref_verify_ecic(L, inst, 1, RANK).to_dict()
        kinds.add(cert.passed)
    assert kinds == {True, False}


@pytest.mark.parametrize("p,e,t,seed", SHORT_CASES)
def test_realizes_ic_matches_reference(p, e, t, seed):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, seed, 2])
    inst = random_instance(rng, f, t)
    flags = []
    for L in random_encoders(rng, inst, 8, max_len=inst.d_S):
        got = realizes_ic(L, inst)
        assert got == ref_realizes_ic(L, inst)
        flags.extend(got)
    assert True in flags and False in flags


@pytest.mark.parametrize("p,e", FIELDS)
def test_random_search_delta0_matches_reference(p, e):
    # The search draws from its own stream; the first draw the reference
    # realizability accepts must be the one it returns, after as many draws.
    # At t = 2 the rows of V_S, V^(i) and R_i are the same: realizability
    # does not depend on t, and the search must not either.
    f = field_new(p, e)
    for t in (1, 2):
        rng = np.random.default_rng([p, e, 3] if t == 1 else [p, e, 3, t])
        inst = random_instance(rng, f, t)
        for N in range(1, inst.d_S + 1):
            res = random_ic_search(inst, N, 0, max_attempts=20, seed=N)
            draws = np.random.Generator(np.random.PCG64(np.random.SeedSequence([N])))
            for attempt in range(1, 21):
                L = Matrix(f, draws.integers(0, f.q, size=(N, inst.d_S)).tolist())
                if all(ref_realizes_ic(L, inst)):
                    assert res.found and res.attempts == attempt and res.encoder.L == L
                    break
            else:
                assert not res.found and res.attempts == 20


def kernel_instance(rng, field, t, ks):
    """An instance on n = 4 messages with the full sender space whose user j
    has a kernel of dimension ks[j] (caches 4 - ks[j] rows)."""
    n = 4
    while True:
        users = [
            (rng.integers(0, field.q, size=(n - k, n)).tolist(),
             rng.integers(0, field.q, size=n).tolist())
            for k in ks
        ]
        try:
            inst = make_instance(field, t, n, np.eye(n, dtype=int).tolist(), users)
        except InstanceError:
            continue
        if [n - u.d for u in inst.users] == list(ks):
            return inst


# (p, e, t, kernel dimensions).  A rank check at delta = 1 starts the walk
# at the lap holding the C of odometer index s = 1 + q^k + q^(2 k), the
# first with 3 nonzero columns; laps take the low 6 digits over GF(2) and
# the low 3 over GF(3) and GF(4).  So s lies past the first lap for k = 3
# over GF(2) and k = 2 over GF(3) and GF(4), and inside it below that.
# delta = 0 needs one column (s = 1), and delta = 2 five, more than t.
WALK_START_CASES = [
    (2, 1, 3, (3, 2)),
    (2, 1, 4, (3, 1)),
    (3, 1, 3, (2, 1)),
    (3, 1, 4, (2, 1)),
    (2, 2, 3, (2, 1)),
    (2, 2, 4, (1,)),
]


def nonzero_cols(inst, cols):
    """The number of nonzero columns of the Z of walk columns ``cols``."""
    return sum(map(any, zip(*_WalkBlocks(inst).z(cols).rows)))


@pytest.mark.parametrize("p,e,t,ks", WALK_START_CASES)
def test_walk_start_skips_only_too_narrow_confusables(p, e, t, ks):
    # The walk with min_cols = c is a suffix of the full walk, and every
    # confusable it leaves out has Z of fewer than c nonzero columns (Z = K C
    # with K of independent columns, so Z and C have the same nonzero
    # columns).  Past the first lap the suffix is a proper one.
    f = field_new(p, e)
    inst = kernel_instance(np.random.default_rng([p, e, t, 5]), f, t, ks)
    low_states = f.q ** (_LAP_BITS // (f.q - 1).bit_length())
    for i, k in enumerate(ks):
        full = [list(cols) for cols in _confusable_walk(inst, i)]
        for c in range(t + 2):
            short = [list(cols) for cols in _confusable_walk(inst, i, min_cols=c)]
            cut = len(full) - len(short)
            assert full[cut:] == short
            assert all(nonzero_cols(inst, cols) < c for cols in full[:cut])
            s = sum(f.q ** (j * k) for j in range(c))
            if c > t:
                assert short == []
            elif s >= low_states:
                assert cut > 0


@pytest.mark.parametrize("p,e,t,ks", WALK_START_CASES)
def test_rank_verify_from_walk_start_matches_reference(p, e, t, ks):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 6])
    inst = kernel_instance(rng, f, t, ks)
    largest = max(f.q ** (k * t) for k in ks)
    # One encoder per delta keeps the reference loops short.
    for delta, L in zip((0, 1, 2), random_encoders(rng, inst, 3)):
        got = verify_ecic(L, inst, delta, RANK)
        want = ref_verify_ecic(L, inst, delta, RANK)
        assert got.to_dict() == want.to_dict()
        if delta == 2:
            assert got.passed and got.trials == 0
        small = dict(mode="exhaustive", budget=largest - 1)
        assert outcome(verify_ecic, L, inst, delta, RANK, **small) == outcome(
            ref_verify_ecic, L, inst, delta, RANK, largest - 1
        )
