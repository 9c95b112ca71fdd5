"""Exact rational probability bounds and block-length estimates."""

from fractions import Fraction

import pytest

from conftest import build, ident, iter_subspace_bases, random_instances
from iccsi import (
    Matrix,
    confusable_count,
    field_new,
    make_instance,
    subspace_avoid_count,
    subspace_existence_prob,
    z_delta_size,
    zippel_ic_prob,
)
from iccsi.bounds import (
    alpha_kappa_bracket,
    block_length_estimate,
    entropy_volume_bound_holds,
    equiv_counts,
    griesmer_lb,
    hamming_random_ecic_prob,
    hom_count,
    instance_d_list,
    instance_w_list,
    q_entropy,
    rank_random_ecic_prob,
    rank_singleton,
    render_decimal,
    singleton_lb,
)
from iccsi.cli import main
from iccsi.galois import (
    gaussian_binomial,
    iter_vectors,
    mat_rank,
    sphere_vol_hamming,
    sphere_vol_rank,
    vstack,
)

F2 = field_new(2, 1)


def test_render_decimal():
    assert render_decimal(Fraction(1, 1024)) == "0.0009766"
    assert render_decimal(Fraction(1, 2)) == "0.5"
    assert render_decimal(Fraction(1, 2**20)) == "9.537e-7"
    assert render_decimal(Fraction(0)) == "0"
    assert render_decimal(Fraction(1)) == "1"
    assert render_decimal(Fraction(5321, 10000)) == "0.5321"


def test_zippel_exact_values():
    rep = zippel_ic_prob(4, 2, 1, 10)
    assert rep.value == Fraction(1, 1024)
    assert rep.verdict is True
    assert rep.note is None
    rep = zippel_ic_prob(4, 3, 1, 10)
    assert rep.value == Fraction(1, 4**10)
    rep = zippel_ic_prob(4, 2, 9, 10)
    assert rep.value == Fraction(1, 2) ** 90


def test_zippel_inapplicable_when_field_too_small():
    rep = zippel_ic_prob(4, 4, 1, 10)
    assert rep.value == 0
    assert rep.verdict is None
    assert "inapplicable" in rep.note
    rep = zippel_ic_prob(2, 3, 2, 4)
    assert "inapplicable" in rep.note


@pytest.mark.parametrize("flag", ["--N", "--dS"])
def test_zippel_empty_broadcast_serves_no_user(flag, capsys):
    # (1 - m'/q)^0 = 1, but a request lies outside its cache, so an empty
    # broadcast serves no user: value 0 and verdict false, as the Hamming,
    # rank and subspace bounds give at N = 0.
    assert main(["bounds", "--bound", "zippel", "--q", "4", "--m", "2", flag, "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",0,false")
    rep = zippel_ic_prob(4, 2, 0, 10) if flag == "--N" else zippel_ic_prob(4, 2, 3, 0)
    assert (rep.value, rep.verdict) == (0, False)
    assert "empty broadcast" in rep.note


def _avoid_count_brute(w, ell, s, N, q=2):
    """Count N-dim subspaces U of F_q^s with U meet V inside W, where
    V = <e_1..e_ell> and W = <e_1..e_w>."""
    f = field_new(q, 1)
    count = 0
    for basis in iter_subspace_bases(f, s, N):
        ok = True
        for coeffs in iter_vectors(f, N):
            vec = (Matrix.row_vector(f, coeffs) * basis).rows[0]
            if any(vec):
                in_v = all(x == 0 for x in vec[ell:])
                in_w = all(x == 0 for x in vec[w:])
                if in_v and not in_w:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def test_subspace_avoid_count_exhaustive_q2_s4():
    for ell in range(0, 5):
        for w in range(0, ell + 1):
            for N in range(0, 5):
                assert subspace_avoid_count(w, ell, 4, N, 2) == _avoid_count_brute(
                    w, ell, 4, N
                ), (w, ell, N)


def test_subspace_avoid_count_spot_s5():
    assert subspace_avoid_count(2, 3, 5, 2, 2) == _avoid_count_brute(2, 3, 5, 2)
    assert subspace_avoid_count(0, 1, 5, 3, 2) == _avoid_count_brute(0, 1, 5, 3)


def test_subspace_avoid_count_validation():
    with pytest.raises(ValueError):
        subspace_avoid_count(3, 2, 5, 1, 2)
    with pytest.raises(ValueError):
        subspace_avoid_count(1, 2, 5, 6, 2)


def test_subspace_existence_prob_hand_value():
    # ten-dimensional sender space over GF(4), two users with 9-dim caches,
    # one broadcast dimension
    rep = subspace_existence_prob([9, 9], 10, 1, 4)
    per_user = subspace_avoid_count(9, 10, 10, 1, 4)
    denom = gaussian_binomial(10, 1, 4)
    assert rep.raw == 1 - Fraction(2 * per_user, denom)
    assert rep.decimal == "0.5"
    assert rep.verdict is True


def test_subspace_existence_prob_clamps():
    rep = subspace_existence_prob([1] * 16, 4, 1, 2)
    assert rep.raw < 0
    assert rep.value == 0
    assert rep.verdict is False


def test_equiv_counts_distinct_and_duplicate():
    users = [
        ([[1, 0, 0]], [0, 1, 0]),
        ([[1, 0, 0]], [0, 1, 0]),  # duplicate of user 0 in every respect
        ([[1, 0, 0]], [0, 0, 1]),  # same cache, different request
        ([[0, 1, 0]], [1, 0, 0]),
    ]
    inst = build(F2, 1, 3, users)
    counts = equiv_counts(inst)
    assert counts.m_prime == 2
    assert counts.m_dprime == 3
    assert counts.m_tprime == 3


def test_equiv_counts_filtered_classes_merge():
    # at t=1 no confusable matrix has rank >= 3, so with delta=1 every
    # user's filtered set is empty and all users share one class
    users = [([[1, 0, 0]], [0, 1, 0]), ([[0, 1, 0]], [0, 0, 1])]
    inst = build(F2, 1, 3, users)
    assert equiv_counts(inst, delta=1).m_tprime == 1


def test_hamming_random_ecic_prob_formula():
    d_list, n, N, delta, q = [2, 2, 1], 4, 5, 1, 2
    vol = sphere_vol_hamming(N, 2 * delta, q)
    expect = 1 - sum(
        Fraction(q ** (n - d - 1) * (q - 1) * vol, q**N) for d in d_list
    )
    rep = hamming_random_ecic_prob(d_list, n, N, delta, q)
    assert rep.raw == expect
    strong = hamming_random_ecic_prob([3] * 2, 4, 7, 1, 2)
    assert strong.verdict is True
    assert 0 < strong.value < 1


@pytest.mark.parametrize("d", [5, 10], ids=["d=n", "d=n+5"])
def test_random_ecic_probs_refuse_cache_as_large_as_message_space(d, capsys):
    # A request lies outside its cache, so every d_i < n: d_i >= n names no
    # user and must not yield a value or an existence verdict.
    with pytest.raises(ValueError, match="0 <= d_i < n"):
        hamming_random_ecic_prob([d], 5, 3, 0, 2)
    with pytest.raises(ValueError, match="0 <= d_i < n"):
        rank_random_ecic_prob([1, d], 5, 2, 3, 0, 2)
    for bound in ("hamming", "rank"):
        assert main(["bounds", "--bound", bound, "--n", "5", "--d", str(d)]) == 2
        assert f"error: d_i must satisfy 0 <= d_i < n, got {d}" in capsys.readouterr().err


def test_q_entropy():
    assert q_entropy(Fraction(1, 2), 2) == pytest.approx(1.0)
    assert q_entropy(Fraction(1, 4), 2) == pytest.approx(0.811278, abs=1e-5)
    # increasing on (0, 1 - 1/q)
    values = [q_entropy(Fraction(k, 20), 4) for k in range(1, 15)]
    assert values == sorted(values)


def test_entropy_volume_bound():
    # V_q(n, lambda n) <= q^(n H_q(lambda)) on a few admissible points
    assert entropy_volume_bound_holds(10, Fraction(2, 10), 2)
    assert entropy_volume_bound_holds(12, Fraction(3, 12), 2)
    assert entropy_volume_bound_holds(8, Fraction(2, 8), 4)


def test_singleton_and_griesmer():
    assert singleton_lb(2, 1) == 4
    assert singleton_lb(3, 2) == 7
    assert griesmer_lb(2, 3, 2) == 5
    assert griesmer_lb(3, 3, 2) == 6
    assert griesmer_lb(4, 3, 2) == 7
    assert griesmer_lb(2, 3, 4) == 4
    assert griesmer_lb(1, 5, 2) == 5
    with pytest.raises(ValueError):
        griesmer_lb(0, 3, 2)


def test_block_length_estimates():
    est = block_length_estimate(2, 3, 2)
    assert (est.lower, est.upper, est.exact) == (5, 5, True)
    est = block_length_estimate(3, 3, 2)
    assert (est.lower, est.upper, est.exact) == (6, 6, True)
    # Reed-Solomon regime: q large enough for an MDS code of length k+d-1
    est = block_length_estimate(2, 3, 4)
    assert (est.lower, est.upper, est.exact) == (4, 4, True)
    est = block_length_estimate(3, 3, 4)
    assert est.upper == 5
    # distance 1 needs exactly k columns
    est = block_length_estimate(4, 1, 2)
    assert (est.lower, est.upper) == (4, 4)
    # no certified upper bound for this binary case
    est = block_length_estimate(4, 3, 2)
    assert est.lower == 7 and est.upper is None


def test_alpha_kappa_bracket_walkthroughs(syn_inst, alpha3_inst):
    br = alpha_kappa_bracket(syn_inst, 1)
    assert (br.alpha, br.kappa) == (2, 2)
    assert (br.lower, br.upper, br.exact) == (5, 5, True)
    br = alpha_kappa_bracket(alpha3_inst, 1)
    assert (br.alpha, br.kappa) == (3, 3)
    assert (br.lower, br.upper, br.exact) == (6, 6, True)
    br = alpha_kappa_bracket(syn_inst, 0)
    assert (br.lower, br.upper) == (2, 2)
    # precomputed values skip the searches but land identically
    br = alpha_kappa_bracket(syn_inst, 1, alpha_value=2, kappa_value=2)
    assert (br.lower, br.upper) == (5, 5)


def test_z_delta_size_zero_delta_counts_all_confusables():
    for inst in random_instances(seed=77, count=10):
        for i in range(inst.m):
            assert z_delta_size(inst.n, inst.d(i), inst.t, 0, inst.q) == (
                confusable_count(inst, i)
            )
    # and for a block length above 1
    inst = make_instance(F2, 3, 4, ident(4), [([[0, 1, 0, 0]], [1, 0, 0, 0])])
    assert z_delta_size(4, 1, 3, 0, 2) == confusable_count(inst, 0)


def test_z_delta_size_brute_force():
    """Count confusable matrices of rank >= 2 delta + 1 directly."""
    f = F2
    n, d, t = 4, 1, 2
    v = Matrix(f, ((0, 1, 0, 0),))
    r = Matrix(f, ((1, 0, 0, 0),))
    by_rank = {}
    for flat in iter_vectors(f, n * t):
        z = Matrix(f, [flat[i * t : (i + 1) * t] for i in range(n)])
        if (v * z).is_zero() and not (r * z).is_zero():
            rk = mat_rank(z)
            by_rank[rk] = by_rank.get(rk, 0) + 1
    for delta in (0, 1):
        want = sum(c for rk, c in by_rank.items() if rk >= 2 * delta + 1)
        assert z_delta_size(n, d, t, delta, 2) == want


def test_hom_count():
    # rank-1 column spaces over GF(2): family of r=1 spaces, t columns each
    assert hom_count(3, 2, 1, 2) == 3 * (2**2 - 1)
    assert hom_count(1, 3, 2, 2) == (2**3 - 1) * (2**3 - 2)


def test_rank_random_ecic_prob_formula_and_verdict():
    d_list, n, t, N, delta, q = [11], 20, 6, 16, 1, 2
    vol = sphere_vol_rank(N, t, 2 * delta, q)
    z_total = z_delta_size(n, 11, t, delta, q)
    rep = rank_random_ecic_prob(d_list, n, t, N, delta, q)
    assert rep.raw == 1 - Fraction(z_total * vol, q ** (N * t))
    assert rep.verdict is True
    assert rep.decimal == "0.3742"


def test_rank_random_ecic_prob_failing_verdict():
    rep = rank_random_ecic_prob([1], 8, 4, 2, 1, 2)
    assert rep.verdict is False
    assert rep.value == 0


def test_rank_singleton_cases():
    rep = rank_singleton(6, 3, 1, 2)  # t >= n_est: short-code case
    assert rep.value == 4  # ceil(6/3 + 2)
    rep = rank_singleton(6, 3, 1, 10)  # long-code case: ceil(6/(3-2))
    assert rep.value == 6
    with pytest.raises(ValueError):
        rank_singleton(6, 2, 1, 10)


def test_instance_lists(syn_inst):
    assert instance_d_list(syn_inst) == [2, 2, 2, 2]
    assert instance_w_list(syn_inst) == [2, 2, 2, 2]
    # a user whose cache leaves the sender space intersects it in less
    inst = make_instance(
        F2, 1, 3, [[1, 0, 0], [0, 1, 0]], [([[0, 1, 1]], [1, 0, 0])]
    )
    assert instance_w_list(inst) == [0]
