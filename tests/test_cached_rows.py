"""The row data cached per user and per instance, and the random search's
block draws, against the formulas and loops they replaced.

``_walk_setup`` once built G = [R_i K; K; extra K] with ``Matrix`` products
on every walk, ``min_rank`` ran a Zassenhaus RREF per user on every call,
and ``random_ic_search`` made one numpy draw per attempt.  The references
below restate those; seeded instances over GF(2), GF(3), GF(4), GF(5),
GF(9) and GF(16) must give identical rows and results, whether the
instance's caches are cold or warmed by earlier calls with another L.
"""

import json

import numpy as np
import pytest

from iccsi import (
    alpha,
    bounds,
    min_rank,
    parse_instance,
    random_ic_search,
    realizes_ic,
    serialize_instance,
    verify_ecic,
)
from iccsi import codec
from iccsi.codec import HAMMING, RANK
from iccsi.galois import field_new, null_space, vstack
from iccsi.instance import DEFAULT_BUDGET, _walk_setup, intersection_basis

from conftest import random_matrix
from test_confusable_walk import random_encoders, random_instance

# (p, e, t): t = 1 from GF(5) on, with caches of dimension >= 2, keeps
# every confusable set and alpha search small.
FIELDS = [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1), (3, 2, 1), (2, 4, 1)]
FIELD_IDS = [f"GF({p ** e})" for p, e, _ in FIELDS]


def seeded_instances(p, e, t, count=3, d_min=None):
    """The generator and ``count`` seeded instances whose min-rank coset
    fits the default budget; caches of dimension >= 2 from GF(5) on."""
    f = field_new(p, e)
    rng = np.random.default_rng([41, p, e])
    if d_min is None and f.q >= 5:
        d_min = 2
    out = []
    while len(out) < count:
        inst = random_instance(rng, f, t, d_min)
        w = sum(intersection_basis(u.V, inst.V_S).nrows for u in inst.users)
        if f.q**w <= DEFAULT_BUDGET:
            out.append(inst)
    return rng, out


def fresh(inst):
    """An equal instance with cold caches, through the JSON form."""
    return parse_instance(json.dumps(serialize_instance(inst)))


@pytest.mark.parametrize("p,e,t", FIELDS, ids=FIELD_IDS)
def test_walk_setup_matches_matrix_formula(p, e, t):
    rng, insts = seeded_instances(p, e, t)
    for inst in insts:
        f = inst.field
        encoders = random_encoders(rng, inst, 2)
        for i, u in enumerate(inst.users):
            K = null_space(u.V)
            for extra in [None] + [L * inst.V_S for L in encoders]:
                blocks = [u.R * K, K] + ([] if extra is None else [extra * K])
                G = vstack(*blocks)
                [top] = f._fmt.to_rows([(1,) + (0,) * (G.nrows - 1)])
                want = (tuple(f._fmt.to_rows(G.transpose().rows)), top, G.nrows)
                if extra is not None:
                    extra = (extra.nrows, f._fmt.to_rows(extra.transpose().rows))
                assert _walk_setup(inst, i, extra) == want


@pytest.mark.parametrize("p,e,t", FIELDS, ids=FIELD_IDS)
def test_coset_rows_match_intersection_basis(p, e, t):
    _, insts = seeded_instances(p, e, t)
    for inst in insts:
        f = inst.field
        ws = [intersection_basis(u.V, inst.V_S) for u in inst.users]
        assert inst._coset_rows == tuple(
            tuple(f._fmt.to_rows(u.R.rows + w.rows)) for u, w in zip(inst.users, ws)
        )
        assert bounds.instance_w_list(inst) == [w.nrows for w in ws]


def search_results(inst, L):
    mr = min_rank(inst)
    return (
        mr,
        alpha(inst),
        random_ic_search(inst, mr.kappa, 0, max_attempts=20, seed=3),
        realizes_ic(L, inst),
        [verify_ecic(L, inst, delta, metric) for delta in (0, 1) for metric in (HAMMING, RANK)],
    )


@pytest.mark.parametrize("p,e,t", FIELDS, ids=FIELD_IDS)
def test_warm_instance_gives_the_cold_results(p, e, t):
    rng, insts = seeded_instances(p, e, t, count=2)
    for inst in insts:
        first, L = random_encoders(rng, inst, 2)
        warm = fresh(inst)
        search_results(warm, first)
        assert search_results(warm, L) == search_results(fresh(inst), L)


@pytest.mark.parametrize("p,e,t", FIELDS, ids=FIELD_IDS)
def test_warm_instance_equals_its_json_round_trip(p, e, t):
    rng, insts = seeded_instances(p, e, t, count=1)
    [inst] = insts
    [L] = random_encoders(rng, inst, 1)
    search_results(inst, L)
    assert "_coset_rows" in vars(inst) and "_walk_rows" in vars(inst.users[0])
    back = fresh(inst)
    assert inst == back and hash(inst) == hash(back)
    assert inst.users == back.users and hash(inst.users) == hash(back.users)


# -- block draws ---------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 65521])
def test_joined_integer_draw_equals_split_draws(q):
    # random_ic_search draws a block of attempts at once; numpy must fill
    # it from the stream one draw per attempt would read, and leave the
    # bit generator in the same state (odd sizes leave a half of a 64-bit
    # output buffered).
    for splits in ([1], [1, 1], [3, 5], [1, 2, 4, 8], [7, 1, 13, 2]):
        joined_rng = np.random.default_rng([5, q])
        split_rng = np.random.default_rng([5, q])
        joined = joined_rng.integers(0, q, size=sum(splits)).tolist()
        split = [x for s in splits for x in split_rng.integers(0, q, size=s).tolist()]
        assert joined == split
        assert joined_rng.bit_generator.state == split_rng.bit_generator.state


def ref_random_ic_search(inst, N, delta, max_attempts, seed):
    """(attempts, L or None) with one ``random_matrix`` draw per attempt."""
    rng = np.random.default_rng([seed])
    for attempt in range(1, max_attempts + 1):
        L = random_matrix(rng, inst.field, N, inst.d_S)
        passed = (
            all(realizes_ic(L, inst)) if delta == 0 else verify_ecic(L, inst, delta).passed
        )
        if passed:
            return attempt, L
    return max_attempts, None


def search_outcome(inst, N, delta, max_attempts, seed):
    res = random_ic_search(inst, N, delta, max_attempts=max_attempts, seed=seed)
    return res.attempts, (res.encoder.L if res.found else None)


@pytest.mark.parametrize("p,e,t", FIELDS[:4], ids=FIELD_IDS[:4])
def test_block_draws_match_one_draw_per_attempt(p, e, t):
    # Caches of dimension 1 make the searches run longer.
    _, insts = seeded_instances(p, e, t, count=2, d_min=1)
    attempts = set()
    for inst in insts:
        kappa = min_rank(inst).kappa
        for max_attempts in (1, 2, 3, 7, 70):
            for seed in range(12):
                got = search_outcome(inst, kappa, 0, max_attempts, seed)
                assert got == ref_random_ic_search(inst, kappa, 0, max_attempts, seed)
                attempts.add(got[0])
        got = search_outcome(inst, kappa + 2, 1, 7, 1)
        assert got == ref_random_ic_search(inst, kappa + 2, 1, 7, 1)
    # Found in later blocks too: past the block ends after attempts 1, 3,
    # 7 and 15, not only at the first draws.
    assert max(attempts) > 15


def test_block_draw_entry_cap_keeps_the_attempts(monkeypatch):
    _, insts = seeded_instances(2, 1, 3, count=2)
    for inst in insts:
        N = min_rank(inst).kappa
        want = [search_outcome(inst, N, 0, 70, seed) for seed in range(6)]
        # Blocks of at most 3 attempts, then of 1.
        for cap in (3 * N * inst.d_S, 1):
            monkeypatch.setattr(codec, "_DRAW_BLOCK_ENTRIES", cap)
            assert [search_outcome(inst, N, 0, 70, seed) for seed in range(6)] == want
