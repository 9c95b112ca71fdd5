"""Sampled ``verify_ecic`` and ``sample_confusable`` against the Matrix
pipeline they replaced.

Sampled draws now arrive as walk columns and go through the same check as
the exhaustive walk.  The references below restate the earlier code: each
draw is a uniform C on the (seed, i) stream, redrawn while R_i K C = 0, and
yielded as K C; each sampled confusable is tested with rank_weight(z) and
weight(L V_S z).  Seeded GF(2), GF(3) and GF(4) instances (n 3-5, t 1-3,
full or proper sender space) must give the same draws and certificates,
failing ones included.
"""

import numpy as np
import pytest

from test_alpha_fq import fq_instance
from test_confusable_walk import random_encoders

from iccsi import field_new, verify_ecic
from iccsi.codec import HAMMING, RANK, EcicCertificate
from iccsi.galois import _random_matrix, null_space, rank_weight, weight
from iccsi.instance import one_symbol_view, sample_confusable


def ref_sample_confusable(inst, i, count, seed):
    """``count`` draws K C with R_i K C != 0, C uniform on the (seed, i) stream."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
    u = inst.users[i]
    K = null_space(u.V)
    k = K.ncols
    produced = 0
    while produced < count:
        C = _random_matrix(rng, inst.field, k, inst.t)
        if (u.R * K * C).is_zero():
            continue
        produced += 1
        yield K * C


def ref_sampled_verify(L, inst, delta, metric, samples, seed):
    """Sampled certificate: rank_weight(z), then weight(lvs * z), per draw."""
    view = one_symbol_view(inst) if metric == HAMMING else inst
    lvs = L * view.V_S
    need = 2 * delta + 1
    violations = []
    trials = 0
    for i in range(view.m):
        for z in ref_sample_confusable(view, i, samples, seed):
            if metric == RANK and rank_weight(z) < need:
                continue
            trials += 1
            if weight(lvs * z, metric) < need:
                violations.append((i, z))
                break
    return EcicCertificate(delta, metric, "sampled", trials, tuple(violations))


FIELDS = [(2, 1), (3, 1), (2, 2)]
CASES = [(p, e, n, t) for p, e in FIELDS for n in (3, 4, 5) for t in (1, 2, 3)]


@pytest.mark.parametrize("p,e,n,t", CASES)
def test_sample_confusable_matches_reference(p, e, n, t):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, n, t, 11])
    inst = fq_instance(rng, field, n, t, n, bool(rng.integers(2)))
    for i in range(inst.m):
        for seed in (0, 5):
            got = [z.rows for z in sample_confusable(inst, i, 30, seed)]
            assert got == [z.rows for z in ref_sample_confusable(inst, i, 30, seed)]


@pytest.mark.parametrize("p,e,n,t", CASES)
def test_sampled_verify_matches_reference(p, e, n, t):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, n, t, 12])
    inst = fq_instance(rng, field, n, t, n, bool(rng.integers(2)))
    passed = set()
    for L in random_encoders(rng, inst, 3):
        for metric in (HAMMING, RANK):
            for delta in (0, 1):
                got = verify_ecic(L, inst, delta, metric, mode="sampled", samples=40, seed=3)
                want = ref_sampled_verify(L, inst, delta, metric, 40, 3)
                assert got.to_dict() == want.to_dict()
                passed.add(got.passed)
    assert False in passed
