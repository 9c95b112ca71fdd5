"""The incremental confusable walk, the closed-form rank certificate and
the echelon realizability test against the loops they replaced.

The reference functions below restate the earlier enumeration and check
loops: a K * C triple loop per confusable, rank(Z) then weight(L V_S Z) per
confusable, and a linear solve per user for realizability.  Seeded
instances over GF(2), GF(3), GF(4) and GF(9), and over GF(8) and GF(16)
for the walk and the Hamming certificate, with a full or a proper
sender space, must give identical sequences, Hamming certificates
(violations and budget errors included) and flags.  The rank certificate
takes one rank computation per user, and a Hamming user past the walk's
budget is decided by its demand map's supports; the exhaustive walk stays
the oracle for their verdicts and failing users, and their witnesses are
checked against the definition.
"""

from math import comb

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
from iccsi.codec import HAMMING, RANK, EcicCertificate, _support_check, random_ic_search
from iccsi.galois import null_space, rank_weight, solve_left, vstack, weight
from iccsi.instance import DEFAULT_BUDGET, iter_confusable, one_symbol_view

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


def gray_vectors(f, n):
    """Every vector of F_q^n in the modular p-ary Gray code, in closed form:
    the s-th has base-p digit d equal to (s_d - s_(d+1)) mod p, for s_d
    those of s, and entry m is digits m e .. m e + e - 1."""
    p, e = f.p, f.e
    for s in range(f.q**n):
        sd = [s // p**d % p for d in range(n * e + 1)]
        g = [(sd[d] - sd[d + 1]) % p for d in range(n * e)]
        yield tuple(sum(g[m * e + b] * p**b for b in range(e)) for m in range(n))


def ref_iter_confusable(inst, i, budget=None):
    """Every K C with R_i K C != 0, C in Gray order, one matrix each."""
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
    for flat in gray_vectors(f, k * t):
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


def count_tested_users(inst, delta):
    """The number of users a rank check at ``delta`` tests: those with
    kernel dimension and t at least 2 delta + 1 and R_i K_i != 0.  The
    others have no confusable of rank >= 2 delta + 1."""
    need = 2 * delta + 1
    kernels = [(u, null_space(u.V)) for u in inst.users]
    return sum(min(K.ncols, inst.t) >= need and not (u.R * K).is_zero() for u, K in kernels)


def failing_users(cert):
    return [i for i, _ in cert.violations]


def assert_rank_certificate(cert, L, inst, delta):
    """``cert`` is the closed-form rank certificate of L at ``delta``.

    It is exhaustive, ``trials`` counts the tested users, every witness Z
    is a genuine violation by definition (V^(i) Z = 0, R_i Z != 0,
    rank(Z) >= 2 delta + 1 and rank(L V_S Z) <= 2 delta), and no budget
    changes it or raises BudgetExceeded.
    """
    assert (cert.delta, cert.metric, cert.mode) == (delta, RANK, "exhaustive")
    assert cert.trials == count_tested_users(inst, delta)
    lvs = L * inst.V_S
    for i, z in cert.violations:
        u = inst.users[i]
        assert (u.V * z).is_zero() and not (u.R * z).is_zero()
        assert rank_weight(z) >= 2 * delta + 1
        assert rank_weight(lvs * z) <= 2 * delta
    assert verify_ecic(L, inst, delta, RANK, budget=1) == cert


def assert_rank_matches_reference(cert, L, inst, delta):
    """The rank certificate against the walk oracle: the same verdict and
    the same failing users, in order, and the checks above."""
    want = ref_verify_ecic(L, inst, delta, RANK)
    assert cert.passed == want.passed
    assert failing_users(cert) == failing_users(want)
    assert_rank_certificate(cert, L, inst, delta)


def assert_hamming_witness(z, L, inst, i, delta):
    """Z is a genuine Hamming violation for user i at ``delta``, by
    definition: V^(i) Z = 0, R_i Z != 0 and wt(L V_S Z) <= 2 delta."""
    u = inst.users[i]
    assert z.ncols == 1
    assert (u.V * z).is_zero() and not (u.R * z).is_zero()
    assert weight(L * inst.V_S * z, HAMMING) <= 2 * delta


def assert_hamming_budget_edge(L, inst, delta, budget):
    """The Hamming ``verify_ecic`` at ``budget`` against the unbudgeted walk.

    Users whose q^(n - d_i) confusables fit the budget are walked and keep
    the walk's witnesses; the others are decided by their C(N, min(2 delta,
    N)) supports, or, when those exceed the budget too, the first of them
    raises BudgetExceeded.  Either way the verdict and the failing users
    are the walk's, and every witness is genuine.
    """
    want = ref_verify_ecic(L, inst, delta, HAMMING)
    view = one_symbol_view(inst)
    over = [i for i, u in enumerate(view.users) if view.q ** (view.n - u.d) > budget]
    supports = comb(L.nrows, min(2 * delta, L.nrows))
    got = outcome(verify_ecic, L, inst, delta, HAMMING, budget)
    if over and supports > budget:
        size = view.q ** (view.n - view.users[over[0]].d)
        assert got == ("BudgetExceeded", f"user {over[0]}: confusable set size {size} and "
                       f"{supports} supports both exceed budget {budget}")
        return
    if not over:
        assert got.to_dict() == want.to_dict()
        return
    assert (got.passed, got.mode) == (want.passed, "exhaustive")
    assert failing_users(got) == failing_users(want)
    walked = dict(want.violations)
    for i, z in got.violations:
        assert_hamming_witness(z, L, inst, i, delta)
        if i not in over:
            assert z == walked[i]


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
# GF(8) and GF(16) at t = 1 take the walk onto 3- and 4-bit lanes, where a
# digit's raise scales a g_j by x^b for b up to 3; n = 4 and k <= 3 keep
# each set within 4,096 C.
WIDE_CASES = [(2, e, 1, seed) for e in (3, 4) for seed in range(3)]


@pytest.mark.parametrize("p,e,t,seed", CASES + WIDE_CASES)
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


@pytest.mark.parametrize("p,e,t,seed", SHORT_CASES + WIDE_CASES)
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
                if metric == RANK:
                    assert_rank_matches_reference(got, L, inst, delta)
                    passed.add(got.passed)
                    continue
                assert got.to_dict() == ref_verify_ecic(L, inst, delta, metric).to_dict()
                passed.add(got.passed)
                assert_hamming_budget_edge(L, inst, delta, largest - 1)
    assert False in passed


# The support check's fields: GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9).
SUPPORT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("p,e", SUPPORT_FIELDS)
def test_support_check_matches_walk(p, e, t):
    # Every user is decided by its supports, whatever the budget, and must
    # get the walk's verdict with a genuine witness.  A passing user tests
    # all C(N, min(2 delta, N)) supports; a failing one stops at its first
    # failing support, or tests none when L does not serve it.
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 5])
    verdicts = set()
    for _ in range(2):
        inst = random_instance(rng, f, t)
        view = one_symbol_view(inst)
        for L in random_encoders(rng, inst, 3):
            lvs = L * view.V_S
            for delta in (0, 1, 2):
                failing = failing_users(ref_verify_ecic(L, inst, delta, HAMMING))
                supports = comb(L.nrows, min(2 * delta, L.nrows))
                for i in range(view.m):
                    tested, z = _support_check(view, i, lvs, delta)
                    verdicts.add(z is None)
                    assert (z is None) == (i not in failing)
                    if z is None:
                        assert tested == supports
                    else:
                        assert tested <= supports
                        assert_hamming_witness(z, L, inst, i, delta)
    assert verdicts == {True, False}


def test_verify_ecic_walks_within_budget_and_tests_supports_past_it():
    # GF(3), n = 4: user 0 caches three rows (3 C in the one-symbol view),
    # user 1 one row (27 C).  With N = 5 broadcast rows a delta = 1 check
    # has C(5, 2) = 10 supports per user.
    f = field_new(3, 1)
    users = [
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0, 1]),
        ([[1, 1, 0, 0]], [1, 0, 0, 0]),
    ]
    inst = make_instance(f, 2, 4, np.eye(4, dtype=int).tolist(), users)
    good = Matrix(f, [[1, 0, 0, 2], [1, 2, 2, 1], [2, 1, 0, 0], [1, 0, 0, 1], [1, 1, 1, 2]])
    bad = vstack(good.take_rows([0, 1, 2, 3]), Matrix(f, [[0, 0, 0, 0]]))
    # Both users walked; user 1 past the walk's budget; user 1 past both.
    for L in (good, bad):
        for budget in (27, 26, 9):
            assert_hamming_budget_edge(L, inst, 1, budget)
    # Only user 1 fails, decided by its supports.
    assert failing_users(verify_ecic(bad, inst, 1, HAMMING, budget=26)) == [1]
    # User 0 walks its 2 confusables, user 1 tests its 10 supports.
    cert = verify_ecic(good, inst, 1, HAMMING, budget=26)
    assert cert.passed and cert.trials == 2 + 10
    assert ref_verify_ecic(good, inst, 1, HAMMING).trials == 2 + 18
    with pytest.raises(BudgetExceeded, match="^user 1: confusable set size 27 and 10 supports"):
        verify_ecic(good, inst, 1, HAMMING, budget=9)


@pytest.mark.parametrize("seed", range(2))
def test_verify_ecic_rank_t3(seed):
    # At t = 3 and delta = 1 a user with k >= 3 kernel columns is tested,
    # and the walk skips its confusables of rank < 3 whatever their image.
    f = field_new(2, 1)
    rng = np.random.default_rng([seed, 7])
    inst = random_instance(rng, f, 3, d_min=1)
    kinds = set()
    for L in random_encoders(rng, inst, 4):
        cert = verify_ecic(L, inst, 1, RANK)
        assert_rank_matches_reference(cert, L, inst, 1)
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


# (p, e, t, kernel dimensions), t >= 3.  At delta = 1 a user with k >= 3
# is tested and one with k < 3 is vacuous; delta = 0 tests every user, and
# delta = 2 needs five columns, more than t, so it tests none.
WALK_START_CASES = [
    (2, 1, 3, (3, 2)),
    (2, 1, 4, (3, 1)),
    (3, 1, 3, (2, 1)),
    (3, 1, 4, (2, 1)),
    (2, 2, 3, (2, 1)),
    (2, 2, 4, (1,)),
]


@pytest.mark.parametrize("p,e,t,ks", WALK_START_CASES)
def test_rank_verify_from_walk_start_matches_reference(p, e, t, ks):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 6])
    inst = kernel_instance(rng, f, t, ks)
    # One encoder per delta keeps the reference loops short.
    for delta, L in zip((0, 1, 2), random_encoders(rng, inst, 3)):
        got = verify_ecic(L, inst, delta, RANK)
        assert_rank_matches_reference(got, L, inst, delta)
        if delta == 2:
            assert got.passed and got.trials == 0
