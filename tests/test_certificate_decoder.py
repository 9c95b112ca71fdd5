"""Each Hamming certificate against the syndrome decoder, exhaustively.

A Hamming certificate at delta passes user i exactly when weight(L V_S Z)
>= 2 delta + 1 for every Z confusable for i.  The decoder's side of that
claim: user i passes exactly when ``syndrome_decode`` returns R_i X for
every error of weight <= delta.  Over GF(2), GF(3) and GF(4), on tiny t = 1
instances with random encoders and ``concat_kappa_bound`` ones, both sides
are compared for every user at delta 0, 1 and 2.

The decoder's outcome depends on the error alone: the syndrome of
[lam; L V_S X + W] is that of [0; W], and the demand it corrects differs
from R_i X by a function of W.  That is checked first, on a random X per
error, so that X = 0 then stands for every X.  For a failing user with
witness z, L V_S z = e1 - e2 with both of weight <= delta; (X = 0, error e1)
and (X = z, error e2) give the same received word and cache but different
demands, so the decoder must fail one of them.  A user that L does not
serve has no decoder at all, and its certificate must fail.
"""

from collections import Counter

import numpy as np
import pytest
from conftest import random_matrix
from test_outcome_oracle import outer_generator
from test_packed_decode import every_error, random_instance

from iccsi import concat_kappa_bound, field_new, min_rank, verify_ecic
from iccsi.decoders import build_user_decoder, syndrome_decode
from iccsi.galois import Matrix, hamming_weight

FIELDS = [(2, 1), (3, 1), (2, 2)]
DELTAS = (0, 1, 2)


def encoders(rng, inst):
    """Random L of lengths 1 .. 2 d_S + 1, which often fail, and one
    concatenated encoder, which passes at delta = 1."""
    out = [
        Matrix(inst.field, rng.integers(0, inst.q, size=(N, inst.d_S)).tolist())
        for N in rng.integers(1, 2 * inst.d_S + 2, size=3)
    ]
    outer = outer_generator(inst.field, min_rank(inst).kappa)
    return out + [concat_kappa_bound(inst, 1, outer).L]


def decodes(out, demand) -> bool:
    return out.ok and out.demand == demand


def split(f, c, delta):
    """(e1, e2) with c = e1 - e2 and both of weight <= delta, for a column
    c of weight <= 2 delta: e1 keeps the first delta nonzero entries."""
    support = [r for r, (x,) in enumerate(c.rows) if x][:delta]
    e1 = Matrix(f, [row if r in support else (0,) for r, row in enumerate(c.rows)], 1)
    return e1, e1 - c


@pytest.mark.parametrize("p,e", FIELDS, ids=[f"GF({p ** e})" for p, e in FIELDS])
def test_hamming_certificate_matches_syndrome_decoder(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 37])
    seen = Counter()
    for n in (3, 4) * 2:
        inst = random_instance(rng, f, n, 1)
        for L in encoders(rng, inst):
            lvs = L * inst.V_S
            for delta in DELTAS:
                cert = verify_ecic(L, inst, delta)
                witness = dict(cert.violations)
                errors = [W for w in range(delta + 1) for W in every_error(f, L.nrows, 1, w)]
                for i, u in enumerate(inst.users):
                    try:
                        ctx = build_user_decoder(inst, L, i)
                    except ValueError:
                        assert i in witness
                        seen["unserved"] += 1
                        continue
                    zero_cache = Matrix.zeros(f, u.d, 1)
                    at_zero = [syndrome_decode(ctx, W, zero_cache, delta) for W in errors]
                    for W, out in zip(errors, at_zero):
                        X = random_matrix(rng, f, n, 1)
                        got = syndrome_decode(ctx, lvs * X + W, u.V * X, delta)
                        assert got.failure == out.failure
                        if out.ok:
                            assert got.demand == out.demand + u.R * X
                    zero_demand = Matrix.zeros(f, 1, 1)
                    passed = all(decodes(out, zero_demand) for out in at_zero)
                    assert passed == (i not in witness), (n, L, delta, i)
                    seen[(delta > 0, passed)] += 1
                    if passed:
                        continue
                    z = witness[i]
                    e1, e2 = split(f, lvs * z, delta)
                    assert max(hamming_weight(e1), hamming_weight(e2)) <= delta
                    # (X = 0, e1) and (X = z, e2): one received word and
                    # cache, two demands.
                    assert lvs * z + e2 == e1 and u.V * z == zero_cache
                    assert not (
                        decodes(syndrome_decode(ctx, e1, zero_cache, delta), zero_demand)
                        and decodes(syndrome_decode(ctx, lvs * z + e2, u.V * z, delta), u.R * z)
                    )
    # Users pass and fail at delta >= 1, and some are not served at all.
    assert seen[(True, True)] and seen[(True, False)] and seen["unserved"], seen
