"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single summary line (visible with ``pytest -s``); the
pass/fail status of the test itself is the criterion verdict.  Known-answer
values live in this file on purpose: these are the frozen regression
targets for the whole package.
"""

import time
from decimal import Decimal
from fractions import Fraction

import numpy as np

from conftest import (
    MDS_G,
    MDS_L,
    SYN_H4,
    SYN_L,
    SYN_M4,
    SYN_V4,
    TRAP_RECEIVED,
    TRAP_T,
    min_rank_bruteforce_oracle,
    random_instances,
)
from iccsi import (
    Matrix,
    alpha,
    concat_kappa_bound,
    coset_encoder,
    field_new,
    iter_confusable,
    make_instance,
    min_rank,
    rank_trap_decode,
    realizes_ic,
    subspace_existence_prob,
    syndrome_decode,
    trap_pad,
    verify_ecic,
    zippel_ic_prob,
)
from iccsi.bounds import alpha_kappa_bracket, rank_random_ecic_prob
from iccsi.decoders import build_user_decoder
from iccsi.galois import iter_vectors, mat_rank, rank_weight, solve_left, vstack

F2 = field_new(2, 1)


def matches_printed(value: Fraction, printed: str) -> bool:
    """True when ``value`` prints as ``printed`` at that string's precision.

    Accepts both round-to-nearest and truncation of the exact value, i.e.
    value in [printed - ulp/2, printed + ulp).
    """
    d = Decimal(printed)
    ulp = Fraction(10) ** d.as_tuple().exponent
    p = Fraction(d)
    return p - ulp / 2 <= value < p + ulp


# -- criterion 1: min-rank and alpha known answers --------------------


def test_c1_minrank_regressions(ex_k3_inst, ex_k2_inst, alpha3_inst, syn_inst):
    t0 = time.perf_counter()
    checks = (
        (ex_k3_inst, 3, None),
        (ex_k2_inst, 2, None),
        (alpha3_inst, 3, 3),
        (syn_inst, 2, 2),
    )
    for inst, kappa, alpha_val in checks:
        start = time.perf_counter()
        assert min_rank(inst).kappa == kappa
        if alpha_val is not None:
            assert alpha(inst).alpha == alpha_val
        assert time.perf_counter() - start < 5.0
    print(
        f"criterion 1 PASS: kappa 3/2/3/2 and alpha 3/2 exact on the four "
        f"reference instances in {time.perf_counter() - t0:.2f}s"
    )


# -- criterion 2: coset scan against the brute-force oracle -----------


def test_c2_minrank_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for inst in random_instances(seed=20, count=200):
        assert min_rank(inst).kappa == min_rank_bruteforce_oracle(inst)
        count += 1
    dt = time.perf_counter() - t0
    assert count == 200
    assert dt < 60.0
    print(f"criterion 2 PASS: coset scan == oracle on {count} instances in {dt:.2f}s")


# -- criterion 3: the two realization criteria agree ------------------


def test_c3_realization_criteria_agree(mds_inst):
    rng = np.random.default_rng(31)
    seen = {True: 0, False: 0}
    pairs = 0
    for inst in random_instances(seed=31, count=40):
        candidates = [coset_encoder(inst).L]
        for length in (1, inst.n):
            candidates.append(
                Matrix(F2, rng.integers(0, 2, size=(length, inst.d_S)).tolist())
            )
        for L in candidates:
            by_span = realizes_ic(L, inst)
            cert = verify_ecic(L, inst, 0)
            failed = {j for j, _ in cert.violations}
            assert [i not in failed for i in range(inst.m)] == by_span
            pairs += 1
            for flag in by_span:
                seen[flag] += 1
    assert seen[True] > 0 and seen[False] > 0
    # single-row coded caches where a distance-2 generator fails exactly
    # at user 1 while a distance-1 matrix serves everyone
    assert realizes_ic(Matrix(F2, MDS_G), mds_inst) == [False, True, True, True]
    assert realizes_ic(Matrix(F2, MDS_L), mds_inst) == [True, True, True, True]
    print(
        f"criterion 3 PASS: span and kernel criteria identical on {pairs} "
        f"encoder/instance pairs plus the coded-cache counterexample"
    )


# -- criterion 4: reference probability tables ------------------------

# (N, d, m, random-encoder bound, random-subspace bound); None marks an
# inapplicable cell (the random-encoder bound needs q > m).  The d=6, m=2
# row is listed under its correct length N=4.
TABLE2 = (
    (1, 9, 2, "0.001", "0.500"),
    (1, 9, 3, "9.536e-7", "0.250"),
    (1, 9, 4, None, "2.861e-6"),
    (2, 8, 2, "9.536e-7", "0.523"),
    (2, 8, 3, "9.094e-13", "0.285"),
    (2, 8, 4, None, "0.046"),
    (3, 7, 2, "9.313e-10", "0.528"),
    (3, 7, 3, "8.673e-19", "0.293"),
    (3, 7, 4, None, "0.057"),
    (4, 6, 2, "9.094e-13", "0.530"),
    (4, 6, 3, "8.271e-25", "0.295"),
    (4, 6, 4, None, "0.060"),
    (5, 5, 2, "8.881e-16", "0.532"),
    (5, 5, 3, "7.888e-31", "0.296"),
    (5, 5, 4, None, "0.061"),
    (6, 4, 2, "8.673e-19", "0.532"),
    (6, 4, 3, "7.523e-37", "0.298"),
    (6, 4, 4, None, "0.064"),
    (7, 3, 2, "8.470e-22", "0.536"),
    (7, 3, 3, "7.174e-43", "0.304"),
    (7, 3, 4, None, "0.072"),
    (8, 2, 2, "8.271e-25", "0.553"),
    (8, 2, 3, "6.842e-49", "0.329"),
    (8, 2, 4, None, "0.106"),
    (9, 1, 2, "8.077e-28", "0.624"),
    (9, 1, 3, "6.525e-55", "0.437"),
    (9, 1, 4, None, "0.249"),
    (9, 1, 5, None, "0.062"),
)

# q -> ((N, m, value), ...) with d = 11 - N throughout
TABLE3 = {
    4: (
        (2, 16, "1.4305e-5"), (3, 16, "0.0117"), (4, 16, "0.0148"),
        (5, 16, "0.0162"), (6, 16, "0.0191"), (7, 16, "0.0299"),
        (8, 17, "0.0155"), (9, 21, "0.0156"),
    ),
    8: (
        (2, 64, "5.8673e-8"), (3, 64, "0.0017"), (4, 64, "0.0019"),
        (5, 64, "0.0019"), (6, 64, "0.0021"), (7, 64, "0.0038"),
        (8, 65, "0.0019"), (9, 73, "0.0019"),
    ),
    16: (
        (2, 256, "2.3192e-10"), (3, 256, "0.0002"), (4, 256, "0.0002"),
        (5, 256, "0.0002"), (6, 256, "0.0002"), (7, 256, "0.0004"),
        (8, 257, "0.0002"), (9, 273, "0.0002"),
    ),
}

# (t, d, N, delta) rows certified to admit a 1/2/3-error code at n=20, q=2,
# evaluated for a single user equivalence class
TABLE4 = (
    (6, 11, 16, 1), (7, 11, 15, 1), (8, 12, 13, 1), (11, 12, 12, 1),
    (20, 12, 11, 1),
    (10, 11, 20, 2), (11, 11, 19, 2), (12, 11, 18, 2), (14, 11, 17, 2),
    (17, 11, 16, 2), (9, 12, 19, 2), (10, 12, 18, 2), (11, 12, 17, 2),
    (13, 12, 16, 2), (16, 12, 15, 2),
    (16, 12, 19, 3), (19, 12, 18, 3), (13, 13, 20, 3), (14, 13, 19, 3),
    (15, 13, 18, 3), (16, 13, 18, 3), (17, 13, 17, 3), (18, 13, 18, 3),
    (19, 13, 17, 3),
)


def test_c4_reference_tables():
    t0 = time.perf_counter()
    mismatches = []
    for N, d, m, rand_ref, sub_ref in TABLE2:
        zr = zippel_ic_prob(4, m, N, 10)
        if rand_ref is None:
            assert zr.note is not None and zr.note.startswith("inapplicable")
        elif not matches_printed(zr.value, rand_ref):
            mismatches.append((N, d, m, "random", rand_ref, zr.decimal))
        sr = subspace_existence_prob([d] * m, 10, N, 4)
        if not matches_printed(sr.value, sub_ref):
            mismatches.append((N, d, m, "subspace", sub_ref, sr.decimal))
    # one reference cell disagrees in its last digit: the exact value at
    # N=5, d=5, m=2 renders as 0.531, not the listed 0.532
    assert mismatches == [(5, 5, 2, "subspace", "0.532", "0.531")]
    assert subspace_existence_prob([5, 5], 10, 5, 4).decimal == "0.531"
    for q, rows in TABLE3.items():
        for N, m, ref in rows:
            rep = subspace_existence_prob([11 - N] * m, 10, N, q)
            assert matches_printed(rep.value, ref), (q, N, m, ref, rep.decimal)
    for t, d, N, delta in TABLE4:
        rep = rank_random_ecic_prob([d], 20, t, N, delta, 2)
        assert rep.verdict is True, (t, d, N, delta)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(
        f"criterion 4 PASS: 28 table-2 rows (one known off-by-last-digit "
        f"cell), 24 table-3 cells, 24 table-4 verdicts in {dt:.2f}s"
    )


# -- criterion 5: random-encoder success rate meets its lower bound ---


def test_c5_random_encoder_rate():
    f4 = field_new(2, 2)
    users = [
        ([[1, 0, 0], [0, 1, 0]], [0, 0, 1]),
        ([[0, 1, 0], [0, 0, 1]], [1, 0, 0]),
    ]
    inst = make_instance(f4, 1, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], users)
    N = max(inst.n - u.d for u in inst.users)
    assert N == 1
    bound = Fraction(1, 2) ** (N * inst.d_S)
    assert zippel_ic_prob(4, 2, N, inst.d_S).value == bound
    trials = 10_000
    rng = np.random.default_rng(55)
    hits = 0
    for _ in range(trials):
        L = Matrix(f4, rng.integers(0, 4, size=(N, inst.d_S)).tolist())
        if all(realizes_ic(L, inst)):
            hits += 1
    frac = hits / trials
    sigma = float(bound * (1 - bound) / trials) ** 0.5
    assert frac >= float(bound) - 3 * sigma
    print(
        f"criterion 5 PASS: empirical realization rate {frac:.4f} >= "
        f"{float(bound):.4f} - 3 sigma over {trials} uniform GF(4) encoders"
    )


# -- criterion 6: syndrome decoder walkthrough and sweep --------------


def test_c6_syndrome_walkthrough_and_sweep(syn_inst):
    t0 = time.perf_counter()
    # The walkthrough's M and H for user 4, with L' = L V_S M.
    lp = Matrix(F2, SYN_L) * syn_inst.V_S * Matrix(F2, SYN_M4)
    H = Matrix(F2, SYN_H4)
    h, H_upper = H.take_rows([0]), H.take_rows([1, 2, 3])
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    Y = Matrix(F2, SYN_L) * X + Matrix.column_vector(F2, (0, 0, 0, 1, 0))
    lam = Matrix(F2, SYN_V4) * X
    # h maps the request column to 1 and H kills the trailing one
    assert (h * lp.take_cols([2])).rows == ((1,),)
    assert (H * lp.take_cols([3])).is_zero()
    syndrome = H * (Y - lp.take_cols([0, 1]) * lam)
    assert syndrome.col(0) == (0, 1, 1, 1)  # alpha = 0, beta = (1,1,1)
    beta = syndrome.take_rows([1, 2, 3])
    # parity columns 3 and 4 coincide, so exactly two single-position
    # corrections explain beta: the injected one and (0,0,0,0,1); both
    # yield the same demand
    solutions = set()
    for j in range(5):
        eps = Matrix(F2, tuple((1,) if r == j else (0,) for r in range(5)))
        if H_upper * eps == beta:
            solutions.add(j)
            assert (syndrome.take_rows([0]) - h * eps).rows[0][0] == 1
    assert solutions == {3, 4}
    ctx = build_user_decoder(syn_inst, Matrix(F2, SYN_L), 3)
    out = syndrome_decode(ctx, Y, syn_inst.users[3].V * X, delta=1)
    assert out.failure is None and out.demand.rows == ((1,),)
    assert out.demand.rows[0][0] == X.col(0)[3]  # output equals X_4

    L = Matrix(F2, SYN_L)
    decoders = [build_user_decoder(syn_inst, L, i) for i in range(4)]
    errors = [Matrix.zeros(F2, 5, 1)] + [
        Matrix(F2, tuple((1,) if r == j else (0,) for r in range(5)))
        for j in range(5)
    ]
    checked = 0
    for x in iter_vectors(F2, 4):
        Xv = Matrix.column_vector(F2, x)
        word = L * Xv
        for W in errors:
            for i in range(4):
                got = syndrome_decode(decoders[i], word + W, syn_inst.users[i].V * Xv, 1)
                assert got.failure is None
                assert got.demand == syn_inst.users[i].R * Xv
                checked += 1
    dt = time.perf_counter() - t0
    assert checked == 16 * 6 * 4
    assert dt < 10.0
    print(
        f"criterion 6 PASS: alpha/beta/correction-pair/demand exact, "
        f"{checked}-case sweep 100% in {dt:.2f}s (corrections 4 and 5 tie)"
    )


# -- criterion 7: rank trap walkthrough, exhaustive, Monte-Carlo ------


def test_c7_rank_trap():
    t0 = time.perf_counter()
    received = Matrix(F2, TRAP_RECEIVED)
    res = rank_trap_decode(received, v=2, N=3, ell=1)
    assert res.failure is None
    assert res.Q.col(0) == (1, 1, 1)
    w11 = received.take_rows([0, 1]).take_cols([0, 1])
    w21 = received.take_rows([2, 3, 4]).take_cols([0, 1])
    T = solve_left(w11, w21)
    assert T is not None and T * w11 == w21
    assert T.rows == TRAP_T

    v, N, ell = 2, 3, 1
    Q = Matrix(F2, ((1,), (0,), (1,)))
    P = trap_pad(Q, v)
    trapped = escaped = 0
    for flat in iter_vectors(F2, (v + N) * (v + ell)):
        W = Matrix(
            F2,
            [flat[i * (v + ell) : (i + 1) * (v + ell)] for i in range(v + N)],
        )
        b11 = W.take_rows(range(v)).take_cols(range(v))
        b21 = W.take_rows(range(v, v + N)).take_cols(range(v))
        escape = mat_rank(vstack(b11, b21)) > mat_rank(b11)
        out = rank_trap_decode(P + W, v=v, N=N, ell=ell)
        assert (out.failure is not None) == escape
        if escape:
            escaped += 1
        elif mat_rank(b11) == rank_weight(W):
            trapped += 1
            assert out.Q == Q
    assert trapped > 0 and escaped > 0

    trials = 100_000
    r = 1
    bound = 2 * r / 2 ** (1 + v - r)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([77])))
    P_np = np.array([list(row) for row in P.rows], dtype=np.uint8)
    undetected = 0
    for _ in range(trials):
        a = rng.integers(0, 2, size=v + N, dtype=np.uint8)
        while not a.any():
            a = rng.integers(0, 2, size=v + N, dtype=np.uint8)
        b = rng.integers(0, 2, size=v + ell, dtype=np.uint8)
        while not b.any():
            b = rng.integers(0, 2, size=v + ell, dtype=np.uint8)
        out = rank_trap_decode(
            Matrix(F2, (P_np ^ np.outer(a, b)).tolist(), v + ell), v, N, ell
        )
        if out.failure is None and out.Q != Q:
            undetected += 1
    rate = undetected / trials
    sigma = (bound * (1 - bound) / trials) ** 0.5
    assert rate <= bound + 3 * sigma
    dt = time.perf_counter() - t0
    print(
        f"criterion 7 PASS: T and Q exact, 32768-case trap equivalence, "
        f"undetected rate {rate:.4f} <= {bound} bound in {dt:.2f}s"
    )


# -- criterion 8: error-correction check equals ball disjointness -----


def _balls_disjoint(lvs, inst, i, delta):
    """No two error patterns of weight <= delta can map confusable
    messages to the same received word."""
    N = lvs.nrows
    shifts = [Matrix.zeros(F2, N, 1)] + [
        Matrix(F2, tuple((1,) if r == j else (0,) for r in range(N)))
        for j in range(N)
    ]
    assert delta == 1
    for z in iter_confusable(inst, i):
        c = lvs * z
        for w1 in shifts:
            for w2 in shifts:
                if c == w1 - w2:
                    return False
    return True


def test_c8_ecic_criterion_equivalence(syn_inst):
    rng = np.random.default_rng(47)
    outcomes = {True: 0, False: 0}
    cases = 0
    insts = list(random_instances(seed=47, count=12, n_max=3, m_max=3))
    work = []
    for inst in insts:
        kappa = min_rank(inst).kappa
        work.append((inst, coset_encoder(inst).L))
        work.append(
            (inst, Matrix(F2, rng.integers(0, 2, size=(kappa + 2, inst.d_S)).tolist()))
        )
    work.append((syn_inst, Matrix(F2, SYN_L)))
    for inst, L in work:
        cert = verify_ecic(L, inst, 1, "hamming")
        lvs = L * inst.V_S
        oracle = [_balls_disjoint(lvs, inst, i, 1) for i in range(inst.m)]
        assert cert.passed == all(oracle)
        assert {u for u, _ in cert.violations} == {
            i for i, ok in enumerate(oracle) if not ok
        }
        outcomes[cert.passed] += 1
        cases += 1
    assert outcomes[True] > 0 and outcomes[False] > 0
    print(
        f"criterion 8 PASS: weight check == ball disjointness on {cases} "
        f"encoder/instance pairs ({outcomes[True]} pass, {outcomes[False]} fail)"
    )


# -- criterion 9: length brackets sandwich every achieved encoder -----


def test_c9_bound_sandwich(syn_inst, alpha3_inst, ex_k3_inst, ex_k2_inst):
    # distance-3 concatenations against the [alpha, kappa] brackets
    outer_syn = Matrix(F2, ((1, 0, 1, 1, 0), (0, 1, 0, 1, 1))).transpose()
    enc_syn = concat_kappa_bound(syn_inst, 1, outer_syn)
    br_syn = alpha_kappa_bracket(syn_inst, 1)
    assert br_syn.lower <= enc_syn.N <= br_syn.upper
    assert (br_syn.lower, br_syn.upper) == (5, 5)
    assert verify_ecic(enc_syn.L, syn_inst, 1, "hamming").passed
    assert min_rank(syn_inst).kappa + 2 <= enc_syn.N

    outer_a3 = Matrix(
        F2, ((1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1))
    ).transpose()
    enc_a3 = concat_kappa_bound(alpha3_inst, 1, outer_a3)
    br_a3 = alpha_kappa_bracket(alpha3_inst, 1)
    assert br_a3.lower <= enc_a3.N <= br_a3.upper
    assert (br_a3.lower, br_a3.upper) == (6, 6)
    assert verify_ecic(enc_a3.L, alpha3_inst, 1, "hamming").passed
    assert min_rank(alpha3_inst).kappa + 2 <= enc_a3.N

    # delta = 0: the bracket collapses onto [alpha, kappa] and the coset
    # encoder achieves kappa
    fixtures = [syn_inst, alpha3_inst, ex_k3_inst, ex_k2_inst]
    checked = 0
    for inst in fixtures + list(random_instances(seed=91, count=25)):
        al = alpha(inst).alpha
        ka = min_rank(inst).kappa
        assert al <= ka
        br = alpha_kappa_bracket(inst, 0, alpha_value=al, kappa_value=ka)
        achieved = coset_encoder(inst).N
        assert br.lower == al <= achieved == ka == br.upper
        checked += 1
    print(
        f"criterion 9 PASS: brackets [5,5] and [6,6] hold with verified "
        f"distance-3 encoders; alpha <= length <= kappa on {checked} instances"
    )
