"""Row-format rank trials, trap decoding and demand maps against the Matrix
pipeline they replaced.

The rank trials of ``run_simulation`` now run on rows (ints of e-bit lanes
over GF(2^e) up to GF(16), tuples otherwise), the trap decoder reduces the
pad rows on their first v columns, and each user's demand is read off its
map of the encoder's L V_S when the map's consistency rows Q vanish on the
system.  Otherwise, and for a wrongly decoded L, it is the demand solve of
``solve_demand``: [R_i | 0] reduced against one echelon of that trial's
[L V_S | Y], which the users share, with the user's cache rows inserted.
The references below restate the earlier code: the trap by a
solve against W_11, the demand by one RREF of the stacked system, and the
trial in ``Matrix`` arithmetic.  Seeded GF(2), GF(3), GF(4), GF(8), GF(9)
and GF(16) instances, one of them with a coded sender (d_S < n), with shared and
private L V_S, pads 0-3 and every error rank the harness accepts, must give
the same ``stable_json``; ``solve_demand`` must give the same value or the
same error on every single-entry corruption of its input.
"""

import functools
from collections import Counter
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest
from conftest import random_matrix

from iccsi import field_new, harness
from iccsi.codec import RANK, coset_encoder, make_encoder
from iccsi.decoders import (
    TRAP_FAILURE_DETECTED,
    TrapResult,
    rank_trap_decode,
    solve_demand,
    trap_pad,
)
from iccsi.galois import (
    Matrix,
    hstack,
    mat_rank,
    mat_rref,
    rank_weight,
    solve_left,
    vstack,
)
from iccsi.harness import SimConfig, SimReport, UserTally, run_simulation
from iccsi.instance import InstanceError, make_instance


def ref_rank_trap_decode(received, v, N, ell):
    payload = received.take_rows(range(v, v + N)).take_cols(range(v, v + ell))
    if v == 0:
        return TrapResult(payload)
    w11 = received.take_rows(range(v)).take_cols(range(v))
    w12 = received.take_rows(range(v)).take_cols(range(v, v + ell))
    w21 = received.take_rows(range(v, v + N)).take_cols(range(v))
    res = mat_rref(w11)
    T = solve_left(w11, w21)
    if T is None:
        return TrapResult(None, TRAP_FAILURE_DETECTED)
    return TrapResult(payload - T * w12, risk_flag=res.rank == v)


def ref_solve_demand(inst, i, lvs, Y, lam):
    """The demand read off one RREF of (V^(i) | lam; lvs | Y)."""
    u = inst.users[i]
    if lam.nrows != u.d or Y.nrows != lvs.nrows:
        raise ValueError("side information or broadcast shape mismatch")
    left = vstack(u.V, lvs)
    right = vstack(lam, Y) if u.d else Y
    res = mat_rref(hstack(left, right))
    n, f, r = inst.n, inst.field, u.R.rows[0]
    acc = (0,) * (n + Y.ncols)
    for row, pc in zip(res.rref.rows, res.pivots):
        if pc >= n:
            break
        if r[pc]:
            acc = tuple(map(f.add, acc, map(f.scaler(r[pc]), row)))
    if acc[:n] != r:
        raise ValueError(f"user {i}: request not in the decoded span")
    return Matrix._trusted(f, (acc[n:],), Y.ncols)


def ref_rank_error(rng, field, nrows, ncols, r):
    if r == 0:
        return Matrix.zeros(field, nrows, ncols)
    while True:
        w = random_matrix(rng, field, nrows, r) * random_matrix(rng, field, r, ncols)
        if rank_weight(w) == r:
            return w


def ref_rank_report(cfg, inst, enc):
    """The rank trial loop of run_simulation in Matrix arithmetic."""
    f, v = inst.field, cfg.trap_pad
    tallies = [[0, 0, 0] for _ in range(inst.m)]
    for trial in range(cfg.trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, trial])))
        X = random_matrix(rng, f, inst.n, inst.t)
        if cfg.lvs_shared:
            Q, ell = enc.lvs * X, inst.t
        else:
            Q, ell = hstack(enc.L, enc.lvs * X), inst.d_S + inst.t
        W = ref_rank_error(rng, f, v + enc.N, v + ell, cfg.error_weight)
        received = trap_pad(Q, v) + W
        tr = ref_rank_trap_decode(received, v, enc.N, ell)
        assert rank_trap_decode(received, v, enc.N, ell) == tr
        if not tr.ok:
            for row in tallies:
                row[1] += 1
            continue
        if cfg.lvs_shared:
            lvs, Y = enc.lvs, tr.Q
        else:
            lvs = tr.Q.take_cols(range(inst.d_S)) * inst.V_S
            Y = tr.Q.take_cols(range(inst.d_S, ell))
        for i, u in enumerate(inst.users):
            try:
                dem = ref_solve_demand(inst, i, lvs, Y, u.V * X)
            except ValueError:
                tallies[i][1] += 1
                continue
            tallies[i][0 if dem == u.R * X else 2] += 1
    users = tuple(UserTally(*row) for row in tallies)
    return SimReport(asdict(cfg), cfg.trials, users, 0.0).stable_json()


def random_instance(rng, field, n, d_S, t):
    """A valid instance with 2-3 users, one of them with an empty cache,
    over a random sender space of dimension d_S (coded when d_S < n)."""
    q = field.q
    while True:
        sender = Matrix(field, rng.integers(0, q, size=(d_S, n)).tolist())
        if mat_rank(sender) < d_S:
            continue

        def in_sender(rows):
            return (Matrix(field, rng.integers(0, q, size=(rows, d_S)).tolist(), d_S) * sender).rows

        users = [([], in_sender(1)[0])]
        for _ in range(int(rng.integers(1, 3))):
            users.append((in_sender(int(rng.integers(1, d_S))), in_sender(1)[0]))
        try:
            return make_instance(field, t, n, sender.rows, users)
        except InstanceError:
            continue


def encoders(rng, inst):
    """The coset encoder, which serves every user, and random L of one row
    and of d_S + 1 rows, which may serve only some of them."""
    out = [coset_encoder(inst)]
    for N in (1, inst.d_S + 1):
        L = Matrix(inst.field, rng.integers(0, inst.q, size=(N, inst.d_S)).tolist())
        out.append(make_encoder(L, inst, "manual"))
    return out


# GF(8) and GF(16) run the trap, the demand maps and the fallback on 3- and
# 4-bit lanes.
FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4)]
# (n, d_S, t): the sender holds everything, or a coded 3-dimensional space.
SHAPES = [(3, 3, 1), (4, 3, 2)]


def cases(p, e, salt):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, salt])
    for n, d_S, t in SHAPES:
        inst = random_instance(rng, field, n, d_S, t)
        for enc in encoders(rng, inst):
            yield rng, inst, enc


@functools.cache
def rank_sweep(p, e):
    """Compare both trial loops on every pad and rank; count how often a
    demand of the encoder's L is solved alone (the stacked solve the map
    falls back to), how often R_i lies outside the span of a decoded
    L V_S, how many trials trap an L other than the encoder's, and how many
    demand maps the calls build.  At rank 0 the fallback must not run."""
    seen = Counter()
    real_map = harness._demand_map
    real_echelon, real_stacked = harness._row_echelon, harness._stacked_demand
    # The echelons of [L V_S | Y] built for the encoder's L, by id; kept
    # alive so that no id is reused.
    own_echelons = {}

    def map_spy(*args):
        dmap = real_map(*args)
        seen["maps"] += 1
        seen["demand_maps"] += 1
        seen["not_in_span"] += not dmap
        return dmap

    # The harness row-reduces [L V_S | Y] once for each trial that traps an
    # L other than the encoder's, and for each trial of the encoder's L
    # that some user's map cannot decode; each user solves its demand from
    # it.  An echelon is the encoder's L's when the left blocks of its rows
    # are the encoder's L V_S, which no other L has, V_S being of full row
    # rank; ``inst`` and ``enc`` are those of the case the loop below runs.
    def echelon_spy(field, rows, width):
        rows = list(rows)
        basis = real_echelon(field, rows, width)
        left = field._fmt.block(0, inst.n, width)
        if list(map(left, rows)) == field._fmt.to_rows(enc.lvs.rows):
            own_echelons[id(basis)] = basis
        else:
            seen["wrong_L"] += 1
        return basis

    def stacked_spy(*args):
        dem = real_stacked(*args)
        seen["maps"] += 1
        seen["not_in_span"] += dem is None
        seen["fallback"] += id(args[1]) in own_echelons
        return dem

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_demand_map", map_spy)
        mp.setattr(harness, "_row_echelon", echelon_spy)
        mp.setattr(harness, "_stacked_demand", stacked_spy)
        for k, (_, inst, enc) in enumerate(cases(p, e, 41)):
            for shared, v in product((True, False), range(4)):
                ell = inst.t if shared else inst.d_S + inst.t
                for r in range(min(v + enc.N, v + ell) + 1):
                    cfg = SimConfig(
                        "inline", metric=RANK, error_weight=r, trap_pad=v, trials=6,
                        seed=100 * k + 10 * v + r, lvs_shared=shared,
                    )
                    before = seen["fallback"]
                    assert run_simulation(cfg, inst, enc).stable_json() == ref_rank_report(
                        cfg, inst, enc
                    )
                    # Without an error every system is consistent, and the
                    # map alone must decode it.
                    assert r or seen["fallback"] == before
                    seen["configs"] += 1
                    # One demand map per user, of the encoder's L V_S.
                    seen["own_maps"] += inst.m
    return seen


@pytest.mark.parametrize("p,e", FIELDS)
def test_rank_simulation_matches_reference(p, e):
    assert rank_sweep(p, e)["configs"]


def test_rank_sweep_reaches_every_branch():
    seen = sum((rank_sweep(*case) for case in FIELDS), Counter())
    assert seen["fallback"] and seen["not_in_span"], seen
    assert seen["maps"] > seen["not_in_span"], seen
    # Trials trap a wrong L, and none of them builds a demand map.
    assert seen["wrong_L"], seen
    assert seen["demand_maps"] == seen["own_maps"], seen


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("p,e", FIELDS)
def test_solve_demand_matches_reference_on_single_entry_errors(p, e):
    # A corrupted entry of lam or Y makes the system inconsistent, which
    # sends the demand map to its fallback; an L that does not serve a user
    # raises in both.
    seen = Counter()
    for rng, inst, enc in cases(p, e, 42):
        f, t = inst.field, inst.t
        X = Matrix(f, rng.integers(0, f.q, size=(inst.n, t)).tolist())
        for i, u in enumerate(inst.users):
            lam, Y = u.V * X, enc.lvs * X
            want = outcome(ref_solve_demand, inst, i, enc.lvs, Y, lam)
            assert outcome(solve_demand, inst, i, enc.lvs, Y, lam) == want
            stacked = vstack(lam, Y).rows
            for row, col, a in product(range(len(stacked)), range(t), range(1, f.q)):
                rows = [list(r) for r in stacked]
                rows[row][col] = f.add(rows[row][col], a)
                bad = Matrix(f, rows, t)
                lam_bad = bad.take_rows(range(u.d))
                Y_bad = bad.take_rows(range(u.d, bad.nrows))
                got = outcome(solve_demand, inst, i, enc.lvs, Y_bad, lam_bad)
                assert got == outcome(ref_solve_demand, inst, i, enc.lvs, Y_bad, lam_bad)
                seen["raised" if isinstance(got, tuple) else "solved"] += 1
    assert seen["raised"] and seen["solved"], seen


@pytest.mark.parametrize("p,e", FIELDS)
def test_rank_trap_decode_matches_reference(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 43])
    seen = Counter()
    for v, N, ell in product(range(4), (1, 3), (1, 2, 4)):
        for r in range(min(v + N, v + ell) + 1):
            Q = random_matrix(rng, f, N, ell)
            received = trap_pad(Q, v) + ref_rank_error(rng, f, v + N, v + ell, r)
            got = rank_trap_decode(received, v, N, ell)
            assert got == ref_rank_trap_decode(received, v, N, ell)
            seen[(got.ok, got.risk_flag)] += 1
    assert len(seen) == 3, seen
