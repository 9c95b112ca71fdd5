"""Hamming simulation tallies against the exact outcome distribution.

The other simulation tests replay the same draws through a reference, so a
biased error sampler or a tally fault that both share would pass them.
Here the reference is the distribution itself.  The syndrome Q [lam; Y]
depends on the error alone, and the corrected demand differs from R_i X by
a function of the error alone, so a trial's outcome (success, detected,
undetected) depends on its error and not on X.  A trial's error of weight
w is uniform over the C(N, w) (q^t - 1)^w patterns with exactly w nonzero
rows, so one ``syndrome_decode`` per pattern, with X = 0, gives the exact
fraction of each outcome.  A fixed-seed ``run_simulation`` of 4,000 trials
must put each of them inside the z = 3.29 Wilson interval of its tally.
About a hundred of the tallies can fall either side, so a fixed seed fails
such a check by chance a few times in a hundred; a failure is worth a
look at the sampler before a look at the seed.

The encoders are ``concat_kappa_bound`` ones at delta = 1 over GF(2) and
GF(3), so weights 0 and 1 always decode and weights 2 and 3 mix the three
outcomes.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from test_packed_decode import every_error, random_instance

from iccsi import concat_kappa_bound, field_new, min_rank
from iccsi.codec import HAMMING
from iccsi.decoders import build_user_decoder, syndrome_decode
from iccsi.galois import Matrix
from iccsi.harness import SimConfig, run_simulation, wilson_interval

TRIALS = 4000
Z = 3.29
# (p, t): the GF(2) instances carry two symbols per row, so that errors of
# weight 3 take 27 values per support.
CASES = [(2, 2), (3, 1)]


def outer_generator(field, k):
    """(k + r) x k generator [I; P] of a distance-3 code over ``field``:
    the columns of P are distinct 0/1 vectors of weight >= 2, so no two are
    proportional and no codeword has weight below 3."""
    r = 2
    while 2**r - r - 1 < k:
        r += 1
    cols = [v for v in itertools.product((0, 1), repeat=r) if sum(v) >= 2][:k]
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    rows += [[cols[j][i] for j in range(k)] for i in range(r)]
    return Matrix(field, rows, k)


def exact_outcomes(inst, enc, weight):
    """Per user, the (success, detected, undetected) counts over every error
    pattern of ``weight`` nonzero rows, decoded at delta = 1 with X = 0."""
    f, t = inst.field, inst.t
    decoders = [build_user_decoder(inst, enc.L, i) for i in range(inst.m)]
    zero = Matrix.zeros(f, 1, t)
    counts = [[0, 0, 0] for _ in range(inst.m)]
    for W in every_error(f, enc.N, t, weight):
        for i, (u, ctx) in enumerate(zip(inst.users, decoders)):
            out = syndrome_decode(ctx, W, Matrix.zeros(f, u.d, t), 1)
            counts[i][0 if out.ok and out.demand == zero else 1 if not out.ok else 2] += 1
    return counts


@pytest.mark.parametrize("p,t", CASES, ids=[f"GF({p})-t{t}" for p, t in CASES])
def test_hamming_tallies_match_exact_outcomes(p, t):
    field = field_new(p)
    rng = np.random.default_rng([p, t, 10])
    seen = Counter()
    for k in range(3):
        inst = random_instance(rng, field, 4, t)
        enc = concat_kappa_bound(inst, 1, outer_generator(field, min_rank(inst).kappa))
        assert enc.certificate.passed
        for weight in range(min(3, enc.N) + 1):
            exact = exact_outcomes(inst, enc, weight)
            cfg = SimConfig(
                "inline", metric=HAMMING, delta=1, error_weight=weight, trials=TRIALS,
                seed=1000 + 10 * k + weight,
            )
            report = run_simulation(cfg, inst, enc)
            for counts, tally in zip(exact, report.users):
                total = sum(counts)
                for count, got in zip(counts, (tally.success, tally.detected, tally.undetected)):
                    lo, hi = wilson_interval(got, TRIALS, Z)
                    assert lo - 1e-12 <= count / total <= hi + 1e-12, (weight, counts, tally)
                if weight <= 1:
                    assert counts[1] == counts[2] == 0
                seen[weight, sum(c > 0 for c in counts)] += 1
    # Past the design weight some user meets all three outcomes.
    assert seen[2, 3] and seen[3, 3], seen

