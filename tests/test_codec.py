"""Encoder constructions and error-correction certificates."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import SYN_L, TRAP_L, build, ident, random_instances
from iccsi import (
    Matrix,
    coset_encoder,
    field_new,
    make_encoder,
    make_instance,
    min_rank,
    realizes_ic,
    verify_ecic,
)
from iccsi.codec import (
    HAMMING,
    RANK,
    concat_kappa_bound,
    encoder_from_dict,
    encoder_to_dict,
    extended_rs_generator,
    load_encoder,
    min_distance_cols,
    one_symbol_view,
    random_ic_search,
    save_encoder,
)
from iccsi.galois import hamming_weight, iter_vectors, mat_rank, rank_weight

F2 = field_new(2, 1)


def test_coset_encoder_optimal(syn_inst, trap_inst, ex_k2_inst, ex_k3_inst):
    for inst, kappa in [(syn_inst, 2), (trap_inst, 3), (ex_k2_inst, 2), (ex_k3_inst, 3)]:
        enc = coset_encoder(inst)
        assert enc.N == kappa
        assert mat_rank(enc.L) == kappa
        assert enc.provenance == "coset"
        assert enc.lvs == enc.L * inst.V_S
        assert all(realizes_ic(enc.L, inst))


def test_make_encoder_checks_width(syn_inst):
    with pytest.raises(ValueError):
        make_encoder(Matrix(F2, ((1, 0, 1),)), syn_inst, "coset")


def test_verify_delta0_matches_realization():
    rng = np.random.default_rng(13)
    disagreements = 0
    passes = fails = 0
    for inst in random_instances(seed=71, count=25):
        nrows = int(rng.integers(1, inst.n + 1))
        L = Matrix(F2, rng.integers(0, 2, size=(nrows, inst.d_S)).tolist())
        cert = verify_ecic(L, inst, 0)
        ok = all(realizes_ic(L, inst))
        if cert.passed != ok:
            disagreements += 1
        passes += cert.passed
        fails += not cert.passed
    assert disagreements == 0
    assert passes > 0 and fails > 0


def test_verify_hamming_delta1_walkthrough(syn_inst):
    L = Matrix(F2, SYN_L)
    cert = verify_ecic(L, syn_inst, 1)
    assert cert.passed
    assert cert.metric == HAMMING
    assert cert.delta == 1
    # the certificate really checked something
    assert cert.trials > 0


def test_verify_hamming_checks_weight_not_just_nonzero(syn_inst):
    """Every confusable image of the walkthrough encoder has weight >= 3,
    and dropping any two broadcast rows destroys that margin."""
    L = Matrix(F2, SYN_L)
    for i in range(syn_inst.m):
        from iccsi.instance import iter_confusable

        for z in iter_confusable(syn_inst, i):
            assert hamming_weight(L * syn_inst.V_S * z) >= 3
    for keep in itertools.combinations(range(5), 3):
        sub = L.take_rows(list(keep))
        assert not verify_ecic(sub, syn_inst, 1).passed


def test_verify_records_violations(syn_inst):
    short = Matrix(F2, SYN_L).take_rows([0, 1, 2])
    cert = verify_ecic(short, syn_inst, 1)
    assert not cert.passed
    assert cert.violations
    for user, z in cert.violations:
        img = short * syn_inst.V_S * z
        assert hamming_weight(img) <= 2
        assert (syn_inst.users[user].V * z).is_zero()


RANK_USERS = [
    ([[0, 1, 0, 0]], [1, 0, 0, 0]),
    ([[0, 0, 1, 0]], [0, 1, 0, 0]),
    ([[0, 0, 0, 1]], [0, 0, 1, 0]),
    ([[1, 0, 0, 0]], [0, 0, 0, 1]),
]


def test_verify_rank_metric_delta1():
    inst = make_instance(F2, 3, 4, ident(4), RANK_USERS)
    ok = verify_ecic(Matrix.identity(F2, 4), inst, 1, RANK)
    assert ok.passed and ok.trials > 0
    # collapsing two coordinates caps some rank-3 image at rank 2
    bad = Matrix(F2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)))
    cert = verify_ecic(bad, inst, 1, RANK)
    assert not cert.passed
    user, z = cert.violations[0]
    assert rank_weight(z) >= 3
    assert rank_weight(bad * inst.V_S * z) < 3


def test_verify_rank_skips_low_rank_confusables(trap_inst):
    # t=1 confusables all have rank 1 < 2*1+1; the filtered check is empty
    cert = verify_ecic(Matrix(F2, TRAP_L), trap_inst, 1, RANK)
    assert cert.passed and cert.trials == 0


def test_one_symbol_view(alpha3_inst):
    view = one_symbol_view(alpha3_inst)
    assert view.t == 1
    assert view.n == alpha3_inst.n
    assert view.users[0].V == alpha3_inst.users[0].V


def test_random_search_deterministic_and_counted(syn_inst):
    a = random_ic_search(syn_inst, 5, delta=1, seed=3)
    b = random_ic_search(syn_inst, 5, delta=1, seed=3)
    assert a.found and b.found
    assert a.encoder.L == b.encoder.L
    assert a.attempts == b.attempts
    c = random_ic_search(syn_inst, 5, delta=1, seed=4)
    assert c.found
    assert a.encoder.provenance == "random"
    assert a.encoder.certificate is not None and a.encoder.certificate.passed


def test_random_search_zero_length_and_impossible(syn_inst):
    res = random_ic_search(syn_inst, 0)
    assert not res.found and res.attempts == 0
    # length 4 < the proven distance-3 optimum 5, so no attempt can succeed
    res = random_ic_search(syn_inst, 4, delta=1, max_attempts=200, seed=0)
    assert not res.found and res.attempts == 200


def test_random_search_delta0(trap_inst):
    res = random_ic_search(trap_inst, 3, seed=1)
    assert res.found
    assert all(realizes_ic(res.encoder.L, trap_inst))
    assert res.encoder.certificate.delta == 0


def test_random_search_rank_metric_requires_realization():
    # The 3-user cycle over GF(2) at t = 3: each user's kernel has dimension
    # 2 = 2 delta, so the rank check at delta = 1 tests no confusable and
    # passes every draw.  The search once skipped the realization filter at
    # delta > 0 and returned encoders that serve no user (11 of these seeds).
    users = [([[1, 0, 0]], [0, 1, 0]), ([[0, 1, 0]], [0, 0, 1]), ([[0, 0, 1]], [1, 0, 0])]
    inst = build(F2, 3, 3, users)
    for seed in range(40):
        res = random_ic_search(inst, 4, 1, RANK, seed=seed)
        assert res.found and all(realizes_ic(res.encoder.L, inst)), seed


def test_min_distance_cols():
    g = Matrix(F2, ((1, 0), (0, 1), (1, 1), (1, 0), (0, 1))).transpose()
    # columns span the [5,2,3] code used by the concatenation walkthrough
    assert min_distance_cols(g.transpose()) == 3
    rep = Matrix(F2, ((1,), (1,), (1,)))
    assert min_distance_cols(rep) == 3


def test_min_distance_cols_rank_deficient_is_zero():
    # u = (1, 1) gives the zero codeword; an early stop at weight 1 once
    # returned 1.
    assert min_distance_cols(Matrix(F2, ((1, 1), (0, 0)))) == 0
    assert min_distance_cols(Matrix(field_new(3, 1), ((1, 2), (2, 1), (0, 0)))) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_min_distance_cols_matches_definition(q):
    # Minimum over nonzero u of the nonzero rows of g u, rank-deficient
    # generators included.
    f = field_new(*{4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}.get(q, (q, 1)))
    rng = np.random.default_rng([q, 7])
    for _ in range(12):
        N, k = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        g = Matrix(f, rng.integers(0, q, size=(N, k)).tolist(), k)
        want = min(
            hamming_weight(g * Matrix.column_vector(f, u))
            for u in iter_vectors(f, k) if any(u)
        )
        assert min_distance_cols(g) == want


def test_concat_kappa_bound_walkthrough(syn_inst):
    outer = Matrix(F2, ((1, 0), (0, 1), (1, 1), (1, 0), (0, 1)))
    enc = concat_kappa_bound(syn_inst, 1, outer)
    assert enc.N == 5
    assert enc.provenance == "concatenated"
    assert enc.certificate is not None and enc.certificate.passed
    assert enc.certificate.delta == 1
    inner = coset_encoder(syn_inst)
    assert enc.L == outer * inner.L


def test_concat_identity_outer_recovers_coset(syn_inst):
    outer = Matrix.identity(F2, 2)
    enc = concat_kappa_bound(syn_inst, 0, outer)
    assert enc.L == coset_encoder(syn_inst).L


def test_concat_rejects_bad_outer(syn_inst):
    with pytest.raises(ValueError):
        # wrong inner width: kappa is 2, not 3
        concat_kappa_bound(syn_inst, 1, Matrix.identity(F2, 3))
    with pytest.raises(ValueError):
        # rank-deficient outer
        concat_kappa_bound(syn_inst, 1, Matrix(F2, ((1, 0), (1, 0), (0, 0))))
    with pytest.raises(ValueError):
        # distance 2 < 2*1+1
        concat_kappa_bound(syn_inst, 1, Matrix(F2, ((1, 0), (0, 1), (1, 1))))


def test_encoders_take_the_callers_min_rank_result(syn_inst, trap_inst, monkeypatch):
    # The [6, 3, 3] code for trap_inst's kappa = 3.
    outer = Matrix(F2, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)))
    for inst, g in [(syn_inst, Matrix(F2, ((1, 0), (0, 1), (1, 1), (1, 0), (0, 1)))),
                    (trap_inst, outer)]:
        mr = min_rank(inst)
        enc, cat = coset_encoder(inst), concat_kappa_bound(inst, 1, g)
        # With the result passed the search does not run again.
        with monkeypatch.context() as m:
            m.setattr("iccsi.codec.min_rank", None)
            assert coset_encoder(inst, min_rank_result=mr) == enc
            given = concat_kappa_bound(inst, 1, g, min_rank_result=mr)
        assert given == cat and given.certificate == cat.certificate


def test_encoders_reject_a_min_rank_result_of_another_width(syn_inst, trap_inst):
    # trap_inst's witness has d_S = 4 columns; a 3-column one cannot be it.
    mr = min_rank(trap_inst)
    narrow = dataclasses.replace(mr, witness=mr.witness.take_cols(range(3)))
    for call in (lambda: coset_encoder(trap_inst, min_rank_result=narrow),
                 lambda: concat_kappa_bound(trap_inst, 0, Matrix.identity(F2, 3),
                                            min_rank_result=narrow)):
        with pytest.raises(ValueError, match="3 columns, expected d_S=4"):
            call()
    # A witness of the right width that does not realize the instance trips
    # the realization assert, as a bad search result would.
    wrong = min_rank(syn_inst)
    with pytest.raises(AssertionError):
        coset_encoder(syn_inst, min_rank_result=dataclasses.replace(
            wrong, witness=Matrix(F2, ((1, 0, 0, 0), (0, 1, 0, 0)))))


def test_extended_rs_generator_mds():
    g = extended_rs_generator(4, 5, 2)
    assert g.shape == (2, 5)
    # infinity column is the last standard basis vector
    assert g.col(4) == (0, 1)
    f = g.field
    for cols in itertools.combinations(range(5), 2):
        assert mat_rank(g.take_cols(list(cols))) == 2
    assert min_distance_cols(g.transpose()) == 4  # MDS: d = N - k + 1


def test_extended_rs_generator_larger():
    g = extended_rs_generator(8, 9, 3)
    for cols in itertools.combinations(range(9), 3):
        assert mat_rank(g.take_cols(list(cols))) == 3


def test_extended_rs_generator_validation():
    with pytest.raises(ValueError):
        extended_rs_generator(4, 6, 2)  # N > q + 1
    with pytest.raises(ValueError):
        extended_rs_generator(4, 2, 3)  # k > N
    with pytest.raises(ValueError):
        extended_rs_generator(6, 4, 2)  # not a prime power


def test_concat_with_rs_outer_over_f4():
    # a GF(4) instance with kappa 2 concatenated against a [4,2,3] code
    f4 = field_new(2, 2)
    users = [
        ([[1, 0, 0]], [0, 1, 0]),
        ([[0, 1, 0]], [0, 0, 1]),
        ([[0, 0, 1]], [1, 0, 0]),
    ]
    inst = make_instance(f4, 1, 3, ident(3), users)
    kappa = min_rank(inst).kappa
    outer = extended_rs_generator(4, kappa + 2, kappa).transpose()
    enc = concat_kappa_bound(inst, 1, outer)
    assert enc.N == kappa + 2
    assert enc.certificate.passed


def test_encoder_round_trip(tmp_path, syn_inst):
    L = Matrix(F2, SYN_L)
    enc = make_encoder(L, syn_inst, "coset")
    cert = verify_ecic(L, syn_inst, 1)
    enc = dataclasses.replace(enc, certificate=cert)
    doc = encoder_to_dict(enc)
    assert doc["N"] == 5
    assert doc["provenance"] == "coset"
    assert doc["certificate"]["delta"] == 1
    back = encoder_from_dict(doc, syn_inst)
    assert back.L == enc.L
    assert back.lvs == enc.lvs
    assert back.certificate.passed
    path = tmp_path / "enc.json"
    save_encoder(enc, str(path))
    again = load_encoder(str(path), syn_inst)
    assert again.L == enc.L
    assert again.certificate.delta == 1


def test_encoder_from_dict_rejects_wrong_width(syn_inst):
    doc = {"N": 1, "L": [[1, 0]], "provenance": "coset", "certificate": None}
    with pytest.raises(ValueError):
        encoder_from_dict(doc, syn_inst)


def certified_doc(inst, **changes):
    """The dict form of SYN_L with its delta = 1 certificate, whose fields
    ``changes`` replaces."""
    L = Matrix(F2, SYN_L)
    enc = make_encoder(L, inst, "coset", verify_ecic(L, inst, 1))
    doc = encoder_to_dict(enc)
    doc["certificate"].update(changes)
    return doc


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"delta": -3}, "got -3, "),
        ({"metric": "foo"}, "and 'foo'"),
        ({"trials": -1}, ", -1 and"),
        ({"violations": [[99, [[0], [0], [0], [0]]]]}, r"user is not in range\(4\)"),
        ({"violations": [[-1, [[0], [0], [0], [0]]]]}, r"user is not in range\(4\)"),
    ],
)
def test_encoder_from_dict_refuses_malformed_certificate(syn_inst, changes, message):
    with pytest.raises(ValueError, match="malformed encoder certificate: .*" + message):
        encoder_from_dict(certified_doc(syn_inst, **changes), syn_inst)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_encoder_from_dict_ignores_mode(syn_inst, mode):
    # Files written while certificates carried a mode still load, and the
    # mode is dropped.
    doc = certified_doc(syn_inst, mode=mode)
    enc = encoder_from_dict(doc, syn_inst)
    assert enc.certificate.passed
    del doc["certificate"]["mode"]
    assert encoder_to_dict(enc) == doc
