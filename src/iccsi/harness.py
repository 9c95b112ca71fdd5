"""Monte-Carlo simulation of noisy broadcasts, end to end.

Each trial draws a uniform message, encodes it, injects an error of exact
weight (Hamming: that many nonzero rows; rank: a product of uniform factors
resampled to exact rank), decodes at every user, and tallies successes,
detected failures, and silently wrong answers.

Every trial derives its own random stream from (seed, trial index), so
reports are bit-identical across runs and independent of evaluation order;
``SimReport.stable_json`` excludes the wall time for that comparison.  The
stream is numpy's ``default_rng([seed, trial])``: ``galois._Draws.chunk``
redoes numpy's ``SeedSequence`` hash for a chunk of trials at once, seeds
each trial's PCG64 from it, and reads the Generator's ``integers`` and
``choice`` off its raw words, so a trial draws the values a Generator would
without numpy's per-trial seeding and per-call overhead.

Trials run in chunks of at most ``_TRIAL_CHUNK``, each seeded at once, and
both metrics run a chunk through one step, :func:`_trial_chunk`: trial k of
a chunk holds entries [k t, (k+1) t) of every row (the galois row format),
so the chunk's X comes from its trials' flat draws in one row helper, one
product gives every user's cache and demand, and the tally compares the
decoded demands block by block; every trial still draws X and then its
error from its own stream.  Hamming trials share each user's syndrome
search.  Rank trials trap each payload on its own and decode their demands
in two ways: one product per user with its demand map of the encoder's
L V_S, for the trials that trap that L and whose systems the map solves;
and, for every other decoded block, the demand solve of
:func:`~iccsi.decoders.solve_demand` against one echelon of that trial's
[L V_S | Y], which its users share.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time
from dataclasses import asdict, dataclass

from .bounds import singleton_lb
from .codec import (
    HAMMING,
    RANK,
    EncodingMatrix,
    coset_encoder,
    load_encoder,
    random_ic_search,
    require_rank_testable,
    verify_ecic,
)
from .decoders import (
    _charge_supports,
    _decode_rows,
    _demand_maps,
    _payload_width,
    _stacked_demand,
    _trap_rows,
    _user_decoder,
)
from .galois import (
    Matrix,
    _Draws,
    _row_block_bits,
    _row_echelon,
    _row_rank,
    _rows_of_blocks,
    hstack,
    vstack,
)
from .instance import IccsiInstance, load_instance
from .minrank import min_rank

# Trials run in chunks of at most this many, each chunk's streams seeded at
# once, as blocks of one wide row: joining a trial's error or payload onto
# rows of k blocks costs their width, so a chunk of k trials costs time
# quadratic in k.
_TRIAL_CHUNK = 256


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: what to load, how to corrupt, how much to run.

    ``encoder`` names the source: "coset", "random", or a path to an
    encoder JSON file.  ``error_weight`` is the injected magnitude (nonzero
    rows for Hamming, rank for rank) and may exceed the design ``delta`` to
    measure failure behavior.  ``trap_pad`` is the rank-mode pad size v,
    and ``lvs_shared`` whether rank-mode receivers know L V_S; a Hamming
    run reads neither and refuses any but their defaults.
    """

    instance: str
    encoder: str = "coset"
    metric: str = HAMMING
    delta: int = 0
    error_weight: int = 0
    trap_pad: int = 0
    trials: int = 1000
    seed: int = 0
    lvs_shared: bool = True
    guarantee: bool = False


# Slotted: a caller that keeps many reports keeps m tallies for each.
@dataclass(frozen=True, slots=True)
class UserTally:
    success: int
    detected: int
    undetected: int


@dataclass(frozen=True)
class SimReport:
    config: dict
    trials: int
    users: tuple[UserTally, ...]
    wall_time: float

    def to_dict(self, with_wall_time: bool = True) -> dict:
        users = []
        for u in self.users:
            rate = u.success / self.trials if self.trials else 0.0
            lo, hi = wilson_interval(u.success, self.trials)
            users.append(
                {
                    "success": u.success,
                    "detected": u.detected,
                    "undetected": u.undetected,
                    "rate": rate,
                    "wilson": [lo, hi],
                }
            )
        doc = {"config": self.config, "trials": self.trials, "users": users}
        if with_wall_time:
            doc["wall_time"] = self.wall_time
        return doc

    def stable_json(self) -> str:
        return json.dumps(self.to_dict(with_wall_time=False), sort_keys=True)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def resolve_encoder(cfg: SimConfig, inst: IccsiInstance) -> EncodingMatrix:
    """Build or load the encoder a config names."""
    if cfg.encoder == "coset":
        return coset_encoder(inst)
    if cfg.encoder == "random":
        length = singleton_lb(min_rank(inst).kappa, cfg.delta)
        res = random_ic_search(
            inst, length, cfg.delta, cfg.metric, max_attempts=1000, seed=cfg.seed
        )
        if not res.found:
            raise ValueError(
                f"random search found no length-{length} encoder in {res.attempts} attempts"
            )
        return res.encoder
    return load_encoder(cfg.encoder, inst)


def run_simulation(
    cfg: SimConfig,
    inst: IccsiInstance | None = None,
    encoder: EncodingMatrix | None = None,
) -> SimReport:
    """Run the configured trials and tally outcomes per user.

    ``inst`` and ``encoder`` may be passed directly to skip file loading.
    With ``guarantee`` set the encoder must verify at the design delta
    before any trial runs.  A rank check that would test nothing, for a
    random search or a guarantee, raises ValueError (see
    :func:`~iccsi.codec.require_rank_testable`), and so does a Hamming run
    with a rank-mode ``trap_pad`` or ``lvs_shared`` other than the default.
    """
    t0 = time.perf_counter()
    if cfg.metric not in (HAMMING, RANK):
        raise ValueError(f"unknown metric {cfg.metric!r}")
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.error_weight < 0 or cfg.delta < 0 or cfg.trap_pad < 0:
        raise ValueError("delta, error_weight, and trap_pad must be >= 0")
    if cfg.metric == HAMMING and (cfg.trap_pad or not cfg.lvs_shared):
        raise ValueError(
            f"trap_pad and lvs_shared are rank-mode settings, got trap_pad={cfg.trap_pad} "
            f"and lvs_shared={cfg.lvs_shared} for a Hamming run"
        )
    if inst is None:
        inst = load_instance(cfg.instance)
    if cfg.metric == RANK and (cfg.encoder == "random" or cfg.guarantee):
        require_rank_testable(inst, cfg.delta)
    enc = encoder if encoder is not None else resolve_encoder(cfg, inst)
    if cfg.guarantee:
        cert = verify_ecic(enc.L, inst, cfg.delta, cfg.metric)
        if not cert.passed:
            raise ValueError(
                f"encoder fails {cfg.metric} verification at delta={cfg.delta}"
            )
    tallies = [[0, 0, 0] for _ in range(inst.m)]
    setup = _hamming_setup if cfg.metric == HAMMING else _rank_setup
    error, decode = setup(cfg, inst, enc)
    # The stacked (V^(i); R_i) times X gives each user's cache and then its
    # demand.
    recv = vstack(*(vstack(u.V, u.R) for u in inst.users)).rows
    for trials in _chunks(cfg.trials):
        _trial_chunk(inst, cfg.seed, trials, recv, error, decode, tallies)
    report = SimReport(
        asdict(cfg),
        cfg.trials,
        tuple(UserTally(*t3) for t3 in tallies),
        time.perf_counter() - t0,
    )
    for u in report.users:
        assert u.success + u.detected + u.undetected == cfg.trials
    return report


def _chunks(trials: int):
    """The trial ranges of a call, ``_TRIAL_CHUNK`` trials at a time."""
    return (
        range(start, min(start + _TRIAL_CHUNK, trials))
        for start in range(0, trials, _TRIAL_CHUNK)
    )


def _trial_chunk(inst, seed, trials, recv, error, decode, tallies) -> None:
    """The trials of the range ``trials`` as blocks of one wide row: the
    k-th of them holds entries [k t, (k + 1) t) of every row, so one
    product serves them all.  Each trial draws X, then its error by
    ``error(draws)``, from its own stream, as a single trial would.

    ``decode(X, errors, caches)`` gets the chunk's X rows, the trials'
    errors and each user's cache rows lam = V^(i) X, and yields each
    user's demand row and the block mask of its detected failures (see
    :class:`~iccsi.galois._RowFormat`); a block outside the mask
    succeeds when it equals R_i X.
    """
    f, fmt, n, t, count = inst.field, inst.field._fmt, inst.n, inst.t, len(trials)
    flats, errors = [], []
    for draws in _Draws.chunk(seed, trials):
        flats.append(draws.integers(f.q, n * t))
        errors.append(error(draws))
    X = _rows_of_blocks(f, flats, n, t)
    known = fmt.mul(recv, X, t * count)
    caches, wants, start = [], [], 0
    for u in inst.users:
        caches.append(known[start:start + u.d])
        wants.append(known[start + u.d])
        start += u.d + 1
    nonzero, add, minus_one = fmt.nonzero_blocks(t, count), fmt.add, f.neg(1)
    for row, want, (demand, missed) in zip(tallies, wants, decode(X, errors, caches)):
        wrong = nonzero(add(demand, fmt.scale(minus_one, want))) & ~missed
        missed, wrong = missed.bit_count(), wrong.bit_count()
        row[0] += count - missed - wrong
        row[1] += missed
        row[2] += wrong


def _hamming_setup(cfg, inst, enc) -> tuple:
    """The ``error`` and ``decode`` of :func:`_trial_chunk` for Hamming
    trials: each user's syndrome decoder, built once per call, decodes the
    chunk's systems side by side.  The decoders are built from work they
    share: every demand map from one echelon of L V_S
    (:func:`~iccsi.decoders._demand_maps`), and one dict of support
    eliminations, so a support whose columns of Q are the same for several
    users is eliminated once per call.  Nothing outlives the call.  A
    support search past the budget raises
    :class:`~iccsi.instance.BudgetExceeded` before any trial, as
    :func:`~iccsi.decoders.syndrome_decode` does."""
    if cfg.error_weight > enc.N:
        raise ValueError("error weight exceeds the code length")
    _charge_supports(enc.N, cfg.delta)
    f, fmt, t = inst.field, inst.field._fmt, inst.t
    eliminations = {}
    decoders = [
        _user_decoder(inst, i, rows, enc.N, eliminations)
        for i, rows in enumerate(_demand_maps(inst, enc.lvs))
    ]
    # [L V_S | I] times X stacked over the error is Y.
    send = hstack(enc.lvs, Matrix.identity(f, enc.N)).rows
    join = fmt.join(t)

    def error(draws):
        return _hamming_error(draws, f, enc.N, t, cfg.error_weight)

    def decode(X, errors, caches):
        count = len(errors)
        E = [functools.reduce(join, rows) for rows in zip(*errors)]
        Y = fmt.mul(send, X + E, t * count)
        for ctx, lam in zip(decoders, caches):
            yield _decode_rows(ctx, lam + Y, cfg.delta, t, count)

    return error, decode


def _hamming_error(draws: _Draws, field, N: int, t: int, weight: int) -> list:
    """N rows, ``weight`` of them nonzero, in the row format."""
    rows = [field._fmt.zero(t)] * N
    for r in draws.choice(N, weight):
        vec = draws.integers(field.q, t)
        while not any(vec):
            vec = draws.integers(field.q, t)
        rows[r] = field._fmt.pack(vec)
    return rows


def _rank_error(draws: _Draws, field, nrows: int, ncols: int, r: int) -> list:
    """Uniform factors a (nrows x r) * b (r x ncols), resampled to rank r,
    as rows in the row format.

    Terminates only for r <= min(nrows, ncols); run_simulation rejects
    larger ranks before any trial.
    """
    fmt = field._fmt
    if r == 0:
        return [fmt.zero(ncols)] * nrows
    while True:
        a = draws.rows(field.q, nrows, r)
        w = fmt.mul(a, fmt.to_rows(draws.rows(field.q, r, ncols)), ncols)
        if _row_rank(field, w, ncols) == r:
            return w


def _rank_setup(cfg, inst, enc) -> tuple:
    """The ``error`` and ``decode`` of :func:`_trial_chunk` for rank trials.

    Each trial's padded payload is trapped on its own, and its payload Y
    joins the chunk's wide rows.  Each user applies its demand map of the
    encoder's L V_S to all of them in one product; the maps are built once
    per call, from one echelon of L V_S that the users share
    (:func:`~iccsi.decoders._demand_maps`).  The product decodes the blocks
    whose trap gave the encoder's L (every trial when L V_S is shared) and
    whose Q [lam; Y] is zero.  Every other decoded block goes to
    :func:`~iccsi.decoders._stacked_demand`, against its trial's
    [L V_S | Y], row-reduced at most once per trial for every user: the
    trapped L's, or the encoder's when it is that trial's L.
    """
    f, fmt, n, t, v, N = inst.field, inst.field._fmt, inst.n, inst.t, cfg.trap_pad, enc.N
    ell = _payload_width(inst, cfg.lvs_shared)
    # A (v+N) x (v+ell) error cannot have rank above its smaller side.
    if cfg.error_weight > min(v + N, v + ell):
        raise ValueError(
            f"error rank {cfg.error_weight} exceeds min(v+N, v+ell) = "
            f"{min(v + N, v + ell)} for v={v}, N={N}, ell={ell}"
        )
    # A sent row is the pad's v zeros, then in private mode the row of L,
    # then the row of L V_S X: each row of ``send`` X after its row of
    # ``head``.  A payload row is [L | Y], L empty when shared.
    send = enc.lvs.rows
    rows_of_L = ((),) * N if cfg.lvs_shared else enc.L.rows
    head = fmt.to_rows((0,) * v + row for row in rows_of_L)
    own_L, V_S, d_S = fmt.to_rows(rows_of_L), fmt.to_rows(inst.V_S.rows), ell - t
    own_lvs = fmt.to_rows(send)
    L_of, Y_of = fmt.block(0, d_S, ell), fmt.block(d_S, ell, ell)
    dmaps = _demand_maps(inst, enc.lvs)
    join, add, unpack_L = fmt.join(t), fmt.add, fmt.unpacker(d_S)
    zero = fmt.zero(t)
    # Per user, the rows of V^(i) and the row [R_i | 0].
    users = [(fmt.to_rows(u.V.rows), join(fmt.pack(u.R.rows[0]), zero)) for u in inst.users]

    def error(draws):
        return _rank_error(draws, f, v + N, v + ell, cfg.error_weight)

    def decode(X, errors, caches):
        count = len(errors)
        w = t * count
        blocks = [fmt.block(k * t, (k + 1) * t, w) for k in range(count)]
        bits = _row_block_bits(f, t, count)
        sent = fmt.mul(send, X, w)
        # Per trial its payload Y, zero when the trap failed, and per trial
        # that trapped another L the rows of that L V_S.
        Ys, missed, lvs_of = [], 0, {}
        for k, W in enumerate(errors):
            received = W[:v] + list(map(add, map(join, head, map(blocks[k], sent)), W[v:]))
            trapped = _trap_rows(f, received, v, ell)
            if trapped is None:
                missed |= bits[k]
                Ys.append([zero] * N)
                continue
            Ys.append(list(map(Y_of, trapped[0])))
            if list(map(L_of, trapped[0])) != own_L:
                L = list(map(unpack_L, map(L_of, trapped[0])))
                lvs_of[k] = fmt.mul(L, V_S, n)
        Yw = [functools.reduce(join, rows) for rows in zip(*Ys)]
        every, wrong = sum(bits), sum(bits[k] for k in lvs_of)
        own = every ^ missed ^ wrong
        nonzero, keep = fmt.nonzero_blocks(t, count), fmt.keep_blocks(t, count)
        echelons = {}
        for (V, request), dmap, lam in zip(users, dmaps, caches):
            if dmap:
                out = fmt.mul(dmap, lam + Yw, w)
                demand, user_missed = out[0], missed
                fallback = functools.reduce(operator.or_, map(nonzero, out[1:]), 0) & own | wrong
            else:
                demand, user_missed, fallback = fmt.zero(w), missed | own, wrong
            # Blocks solved alone, then spliced into the demand row.
            solved = {}
            for k in range(count):
                if fallback & bits[k]:
                    if k not in echelons:
                        lvs_Y = map(join, lvs_of.get(k, own_lvs), Ys[k])
                        echelons[k] = _row_echelon(f, lvs_Y, n + t)
                    cache = map(join, V, map(blocks[k], lam))
                    dem = _stacked_demand(f, echelons[k], cache, request, n, t)
                    if dem is None:
                        user_missed |= bits[k]
                    else:
                        solved[k] = dem
            if solved:
                patch = functools.reduce(join, (solved.get(k, zero) for k in range(count)))
                demand = add(keep(demand, every ^ sum(bits[k] for k in solved)), patch)
            yield demand, user_missed

    return error, decode
