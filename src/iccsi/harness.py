"""Monte-Carlo simulation of noisy broadcasts, end to end.

Each trial draws a uniform message, encodes it, injects an error of exact
weight (Hamming: that many nonzero rows; rank: a product of uniform factors
resampled to exact rank), decodes at every user, and tallies successes,
detected failures, and silently wrong answers.

Every trial derives its own random stream from (seed, trial index), so
reports are bit-identical across runs and independent of evaluation order;
``SimReport.stable_json`` excludes the wall time for that comparison.  The
stream is numpy's ``default_rng([seed, trial])``: ``galois._Draws`` seeds
numpy's PCG64 as numpy does and reads the Generator's ``integers`` and
``choice`` off its raw words, so a trial draws the values a Generator would
without numpy's per-call overhead.

Hamming trials run as blocks of one wide row, in chunks of at most
``_HAMMING_CHUNK`` trials: trial k of a chunk holds entries [k t, (k+1) t)
of every row (the galois row format), so the chunk shares each product
and each user's syndrome search, and every trial still draws from its own
stream.  Rank trials run one at a time.
"""

from __future__ import annotations

import json
import math
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
    _decode_rows,
    _demand_map,
    _demand_rows,
    _payload_width,
    _trap_rows,
    _user_decoder,
)
from .galois import (
    Matrix,
    _Draws,
    _from_row,
    _row_add,
    _row_block,
    _row_join,
    _row_mul,
    _row_nonzero_blocks,
    _row_rank,
    _row_scale,
    _to_rows,
    _zero_row,
    hstack,
    vstack,
)
from .instance import IccsiInstance, load_instance
from .minrank import min_rank

# Hamming trials run in chunks of at most this many, as blocks of one wide
# row: joining a trial onto rows of k blocks costs their width, so a chunk
# of k trials costs time quadratic in k.
_HAMMING_CHUNK = 256


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: what to load, how to corrupt, how much to run.

    ``encoder`` names the source: "coset", "random", or a path to an
    encoder JSON file.  ``error_weight`` is the injected magnitude (nonzero
    rows for Hamming, rank for rank) and may exceed the design ``delta`` to
    measure failure behavior.  ``trap_pad`` is the rank-mode pad size v.
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
    :func:`~iccsi.codec.require_rank_testable`).
    """
    t0 = time.perf_counter()
    if cfg.metric not in (HAMMING, RANK):
        raise ValueError(f"unknown metric {cfg.metric!r}")
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.error_weight < 0 or cfg.delta < 0 or cfg.trap_pad < 0:
        raise ValueError("delta, error_weight, and trap_pad must be >= 0")
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
    m = inst.m
    tallies = [[0, 0, 0] for _ in range(m)]
    # The stacked (V^(i); R_i) times X gives each user's cache and then its
    # demand.
    recv = vstack(*(vstack(u.V, u.R) for u in inst.users)).rows
    if cfg.metric == HAMMING:
        if cfg.error_weight > enc.N:
            raise ValueError("error weight exceeds the code length")
        decoders = [_user_decoder(inst, enc.lvs, i) for i in range(m)]
        # [L V_S | I] times X stacked over the error is Y.
        send = hstack(enc.lvs, Matrix.identity(inst.field, enc.N)).rows
        for start in range(0, cfg.trials, _HAMMING_CHUNK):
            trials = range(start, min(start + _HAMMING_CHUNK, cfg.trials))
            _hamming_trials(cfg, inst, enc, trials, decoders, send, recv, tallies)
    else:
        # A (v+N) x (v+ell) error cannot have rank above its smaller side.
        v = cfg.trap_pad
        ell = _payload_width(inst, cfg.lvs_shared)
        if cfg.error_weight > min(v + enc.N, v + ell):
            raise ValueError(
                f"error rank {cfg.error_weight} exceeds min(v+N, v+ell) = "
                f"{min(v + enc.N, v + ell)} for v={v}, N={enc.N}, ell={ell}"
            )
        # A sent row is the pad's v zeros, then in private mode the row of
        # L, then the row of L V_S X: each row of ``send`` X after its row
        # of ``head``.
        send = enc.lvs.rows
        rows_of_L = ((),) * enc.N if cfg.lvs_shared else enc.L.rows
        head = _to_rows(inst.field, ((0,) * v + row for row in rows_of_L))
        # The users' demand maps, keyed by the decoded L (None when shared).
        # A trapped error leaves L the encoder's, so most trials share one
        # entry; the dict lives for this call only.
        maps: dict = {}
        for trial in range(cfg.trials):
            draws = _Draws(cfg.seed, trial)
            _rank_trial(cfg, inst, enc, draws, send, head, recv, maps, tallies)
    report = SimReport(
        asdict(cfg),
        cfg.trials,
        tuple(UserTally(*t3) for t3 in tallies),
        time.perf_counter() - t0,
    )
    for u in report.users:
        assert u.success + u.detected + u.undetected == cfg.trials
    return report


def _hamming_trials(cfg, inst, enc, trials, decoders, send, recv, tallies) -> None:
    """The Hamming trials of the range ``trials`` as blocks of one wide row:
    the k-th of them holds entries [k t, (k + 1) t) of every row, so one
    product and one syndrome search per user serve them all.  Each trial
    draws X and its error from its own stream, as a single trial would."""
    f, q, t, count = inst.field, inst.field.q, inst.t, len(trials)
    join = _row_join(f, t)
    X, E = [_zero_row(f, 0)] * inst.n, [_zero_row(f, 0)] * enc.N
    for trial in trials:
        draws = _Draws(cfg.seed, trial)
        X = list(map(join, X, _to_rows(f, draws.rows(q, inst.n, t))))
        E = list(map(join, E, _hamming_error(draws, f, enc.N, t, cfg.error_weight)))
    w = t * count
    Y = _row_mul(f, send, X + E, w)
    known = _row_mul(f, recv, X, w)
    nonzero, add, minus_one = _row_nonzero_blocks(f, t, count), _row_add(f), f.neg(1)
    start = 0
    for i, u in enumerate(inst.users):
        stop = start + u.d
        demand, missed = _decode_rows(decoders[i], known[start:stop] + Y, cfg.delta, t, count)
        wrong = nonzero(add(demand, _row_scale(f, minus_one, known[stop]))) & ~missed
        missed, wrong = missed.bit_count(), wrong.bit_count()
        row = tallies[i]
        row[0] += count - missed - wrong
        row[1] += missed
        row[2] += wrong
        start = stop + 1


def _hamming_error(draws: _Draws, field, N: int, t: int, weight: int) -> list:
    """N rows, ``weight`` of them nonzero, in the format of ``galois._row_mul``."""
    rows = [_zero_row(field, t)] * N
    for r in draws.choice(N, weight):
        vec = draws.integers(field.q, t)
        while not any(vec):
            vec = draws.integers(field.q, t)
        [rows[r]] = _to_rows(field, [vec])
    return rows


def _rank_error(draws: _Draws, field, nrows: int, ncols: int, r: int) -> list:
    """Uniform factors a (nrows x r) * b (r x ncols), resampled to rank r,
    as rows in the format of ``galois._row_mul``.

    Terminates only for r <= min(nrows, ncols); run_simulation rejects
    larger ranks before any trial.
    """
    if r == 0:
        return [_zero_row(field, ncols)] * nrows
    while True:
        a = draws.rows(field.q, nrows, r)
        b = _to_rows(field, draws.rows(field.q, r, ncols))
        w = _row_mul(field, a, b, ncols)
        if _row_rank(field, w, ncols) == r:
            return w


def _rank_trial(cfg, inst, enc, draws, send, head, recv, maps, tallies) -> None:
    """One rank trial on rows in the format of ``galois._row_mul``."""
    f, t, v = inst.field, inst.t, cfg.trap_pad
    ell = _payload_width(inst, cfg.lvs_shared)
    X = _to_rows(f, draws.rows(f.q, inst.n, t))
    W = _rank_error(draws, f, v + enc.N, v + ell, cfg.error_weight)
    sent = map(_row_join(f, t), head, _row_mul(f, send, X, t))
    received = W[:v] + list(map(_row_add(f), sent, W[v:]))
    trapped = _trap_rows(f, received, v, ell)
    if trapped is None:
        for row in tallies:
            row[1] += 1
        return
    L, Y = None, trapped[0]
    if not cfg.lvs_shared:
        # A private payload is [L | Y], L in its first d_S columns; L is
        # kept as a tuple of entry rows, the key of ``maps``.
        d_S = inst.d_S
        L = tuple(_from_row(f, r, d_S) for r in map(_row_block(f, 0, d_S, ell), Y))
        Y = list(map(_row_block(f, d_S, ell, ell), Y))
    dmaps = maps.get(L)
    if dmaps is None:
        lvs = enc.lvs if L is None else Matrix._trusted(f, L, inst.d_S) * inst.V_S
        dmaps = maps[L] = [_demand_map(inst, i, lvs) for i in range(inst.m)]
    known = _row_mul(f, recv, X, t)
    start = 0
    for i, u in enumerate(inst.users):
        stop = start + u.d
        try:
            dem = _demand_rows(inst, i, dmaps[i], known[start:stop] + Y, t)
        except ValueError:
            tallies[i][1] += 1
        else:
            tallies[i][0 if dem == known[stop] else 2] += 1
        start = stop + 1
