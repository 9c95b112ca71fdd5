"""Min-rank search, realization criteria, and the confusable-union bound."""

import pytest

from conftest import (
    ALPHA3_SPAN,
    MDS_G,
    MDS_L,
    SYN_L,
    TRAP_L,
    build,
    deadline,
    ident,
    min_rank_bruteforce_oracle,
    random_instances,
)
from iccsi import (
    Matrix,
    alpha,
    field_new,
    make_instance,
    min_rank,
    parse_instance,
    realizes_ic,
    save_instance,
    verify_ecic,
)
from iccsi.cli import main
from iccsi.galois import iter_vectors, mat_rank, row_space_contains

F2 = field_new(2, 1)


def test_min_rank_regressions(syn_inst, trap_inst, ex_k3_inst, ex_k2_inst, alpha3_inst):
    assert min_rank(syn_inst).kappa == 2
    assert min_rank(trap_inst).kappa == 3
    assert min_rank(ex_k3_inst).kappa == 3
    assert min_rank(ex_k2_inst).kappa == 2
    assert min_rank(alpha3_inst).kappa == 3


def test_min_rank_witness_realizes(syn_inst, trap_inst, ex_k2_inst):
    for inst in (syn_inst, trap_inst, ex_k2_inst):
        res = min_rank(inst)
        w = res.witness
        assert w.nrows == res.kappa
        assert mat_rank(w) == res.kappa
        assert all(realizes_ic(w, inst))


def test_witness_rows_live_in_allowed_cosets(syn_inst):
    """Each request plus some cached-and-sendable row appears in the span of
    the witness broadcast: the defining membership of the search."""
    res = min_rank(syn_inst)
    span = res.witness * syn_inst.V_S
    for u in syn_inst.users:
        found = False
        for coeffs in iter_vectors(F2, u.V.nrows):
            cached = Matrix.row_vector(F2, coeffs) * u.V
            if row_space_contains(span, u.R + cached):
                found = True
                break
        assert found


def test_known_encoders_realize(syn_inst, trap_inst):
    assert all(realizes_ic(Matrix(F2, SYN_L), syn_inst))
    assert all(realizes_ic(Matrix(F2, TRAP_L), trap_inst))


def test_mds_remark_realization(mds_inst):
    """A distance-2 MDS generator misses user 1's demand while a weaker
    code reaches everyone."""
    assert realizes_ic(Matrix(F2, MDS_G), mds_inst) == [False, True, True, True]
    assert realizes_ic(Matrix(F2, MDS_L), mds_inst) == [True, True, True, True]


def test_too_short_encoders_fail(trap_inst):
    two_rows = Matrix(F2, ((1, 1, 0, 0), (0, 1, 1, 0)))
    assert not all(realizes_ic(two_rows, trap_inst))


def test_oracle_equivalence_sample():
    for inst in random_instances(seed=41, count=30):
        assert min_rank(inst).kappa == min_rank_bruteforce_oracle(inst)


def test_kernel_criterion_agrees_exhaustive():
    """Span membership and kernel avoidance pick out the same encoders."""
    import numpy as np

    rng = np.random.default_rng(17)
    seen_false = 0
    for inst in random_instances(seed=29, count=25):
        nrows = int(rng.integers(1, inst.n + 1))
        L = Matrix(F2, rng.integers(0, 2, size=(nrows, inst.d_S)).tolist())
        by_span = realizes_ic(L, inst)
        cert = verify_ecic(L, inst, 0)
        failed = {j for j, _ in cert.violations}
        assert [i not in failed for i in range(inst.m)] == by_span
        assert cert.mode == "exhaustive"
        seen_false += by_span.count(False)
    assert seen_false > 0


def test_min_rank_lower_bound_argument(ex_k3_inst):
    assert min_rank(ex_k3_inst, lower_bound=3).kappa == 3


def test_min_rank_many_users_without_cached_sender_vectors(tmp_path, capsys):
    # 1,200 users over GF(2), n = 2, each caching nothing and requesting e_1:
    # each has the one candidate R_i, so the search depth must not grow with
    # the user count.
    inst = make_instance(F2, 1, 2, ident(2), [([], [1, 0])] * 1200)
    res = min_rank(inst)
    assert (res.kappa, res.witness.rows, res.coset_size) == (1, ((1, 0),), 1)
    path = tmp_path / "many.json"
    save_instance(inst, path)
    assert main(["minrank", "--instance", str(path)]) == 0
    assert "kappa: 1\n" in capsys.readouterr().out


def test_alpha_walkthroughs(syn_inst, alpha3_inst):
    assert alpha(syn_inst).alpha == 2
    res = alpha(alpha3_inst)
    assert res.alpha == 3
    assert res.witness.nrows == 3
    assert mat_rank(res.witness) == 3


def _in_some_confusable(inst, vec):
    z = Matrix.column_vector(inst.field, vec)
    for u in inst.users:
        if (u.V * z).is_zero() and not (u.R * z).is_zero():
            return True
    return False


def test_alpha_witness_subspace_is_confusable(syn_inst, alpha3_inst):
    for inst in (syn_inst, alpha3_inst):
        w = alpha(inst).witness
        for coeffs in iter_vectors(inst.field, w.nrows):
            v = (Matrix.row_vector(inst.field, coeffs) * w).rows[0]
            if any(v):
                assert _in_some_confusable(inst, v)


def test_alpha3_fixture_span_is_confusable(alpha3_inst):
    span = Matrix(F2, ALPHA3_SPAN)
    assert mat_rank(span) == 3
    for coeffs in iter_vectors(F2, 3):
        v = (Matrix.row_vector(F2, coeffs) * span).rows[0]
        if any(v):
            assert _in_some_confusable(alpha3_inst, v)


def test_alpha_never_exceeds_kappa():
    for inst in random_instances(seed=57, count=25):
        assert alpha(inst).alpha <= min_rank(inst).kappa


def test_alpha_upper_keeps_value_and_witness(syn_inst, alpha3_inst):
    # Stopping at kappa changes only the node count: the best basis is
    # replaced only by a strictly larger one.
    stopped = 0
    for inst in [syn_inst, alpha3_inst, *random_instances(seed=57, count=25)]:
        full = alpha(inst)
        cut = alpha(inst, upper=min_rank(inst).kappa)
        assert (cut.alpha, cut.witness) == (full.alpha, full.witness)
        assert cut.node_count <= full.node_count
        stopped += cut.node_count < full.node_count
    assert stopped > 0


def _minrank_lines(path, capsys):
    assert main(["minrank", "--instance", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_cli_minrank_prints_the_full_alpha_search(alpha3_inst, tmp_path, capsys):
    path = tmp_path / "alpha3.json"
    save_instance(alpha3_inst, path)
    lines = _minrank_lines(path, capsys)
    full = alpha(alpha3_inst)
    assert f"alpha: {full.alpha}" in lines
    basis = lines[lines.index("confusable subspace basis rows:") + 1:-1]
    assert basis == ["  " + " ".join(map(str, row)) for row in full.witness.rows]


# GF(9), n = 4, 3 users, alpha = kappa = 2.  An alpha search that reached
# each subspace through every increasing basis took 73-90 s (2 cores,
# Python 3.11) and 122,713 nodes without a stop; it reaches kappa within 3
# nodes.
GF9_SLOW_ALPHA = (
    '{"p": 3, "e": 2, "t": 1, "n": 4, "modulus": [1, 0, 1],'
    ' "sender": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],'
    ' "users": [{"V": [[1, 2, 0, 4]], "R": [0, 4, 7, 6]},'
    ' {"V": [[1, 0, 3, 0]], "R": [1, 7, 0, 5]},'
    ' {"V": [[0, 1, 4, 1]], "R": [2, 0, 6, 1]}]}'
)


def test_cli_minrank_alpha_stops_at_kappa(tmp_path, capsys):
    path = tmp_path / "gf9.json"
    path.write_text(GF9_SLOW_ALPHA)
    with deadline(5):
        lines = _minrank_lines(path, capsys)
    assert lines == [
        "kappa: 2",
        "alpha: 2",
        "encoder rows (over the sender basis):",
        "  1 0 3 2",
        "  0 1 5 8",
        "confusable subspace basis rows:",
        "  1 1 3 0",
        "  0 0 0 1",
        "length bracket at delta=0: [2, 2]",
    ]
    assert alpha(parse_instance(GF9_SLOW_ALPHA), upper=2).node_count == 3


def test_alpha_full_search_on_gf9_slow_alpha():
    with deadline(5):
        got = alpha(parse_instance(GF9_SLOW_ALPHA))
    assert got.alpha == 2
    assert got.witness.rows == ((1, 1, 3, 0), (0, 0, 0, 1))


# GF(9), n = 5, 3 users, alpha = 1 < kappa = 2, so the search stopped at
# kappa runs in full: 9.3-9.9 s and 1,921 nodes with increasing bases.
GF9_ALPHA_BELOW_KAPPA = (
    '{"p": 3, "e": 2, "t": 1, "n": 5, "modulus": [1, 0, 1],'
    ' "sender": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],'
    ' [0, 0, 0, 0, 1]],'
    ' "users": [{"V": [[1, 0, 1, 6, 2], [0, 1, 0, 6, 2]], "R": [3, 0, 0, 5, 5]},'
    ' {"V": [[1, 0, 6, 5, 7], [0, 1, 1, 5, 8]], "R": [8, 6, 3, 7, 1]},'
    ' {"V": [[1, 0, 3, 7, 1], [0, 1, 6, 1, 6]], "R": [7, 3, 6, 8, 5]}]}'
)


def test_cli_minrank_alpha_below_kappa(tmp_path, capsys):
    path = tmp_path / "gf9-below.json"
    path.write_text(GF9_ALPHA_BELOW_KAPPA)
    with deadline(5):
        lines = _minrank_lines(path, capsys)
    assert lines[:2] == ["kappa: 2", "alpha: 1"]


def test_syndrome_instance_alpha_pair(syn_inst):
    # the 2-dimensional witness claimed for this instance: span{e2, e3}
    for vec in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)):
        assert _in_some_confusable(syn_inst, vec)
