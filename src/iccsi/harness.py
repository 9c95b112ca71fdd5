"""Monte-Carlo simulation of noisy broadcasts, end to end.

Each trial draws a uniform message, encodes it, injects an error of exact
weight (Hamming: that many nonzero rows; rank: a product of uniform factors
resampled to exact rank), decodes at every user, and tallies successes,
detected failures, and silently wrong answers.

Every trial derives its own random stream from (seed, trial index), so
reports are bit-identical across runs and independent of evaluation order;
``SimReport.stable_json`` excludes the wall time for that comparison.  The
stream is numpy's ``default_rng([seed, trial])``, and this module, its one
reader, holds it (the trial streams at the end): :func:`_seed_states`
redoes numpy's ``SeedSequence`` hash for a chunk of trials at once and
seeds each trial's PCG64 from it, :func:`_draw_chunk` draws every trial's X
from the chunk's raw words in one numpy pass (for q a power of two), and
:class:`_Draws` reads the Generator's ``integers`` and ``choice`` off the
rest of each trial's words, so a trial draws the values a Generator would
without numpy's per-trial seeding and per-call overhead.

Trials run in chunks of at most ``_TRIAL_CHUNK``, each drawn at once, and
both metrics run a chunk through one step, :func:`_trial_chunk`: trial k of
a chunk holds entries [k t, (k+1) t) of every row (the galois row format),
so the chunk's X is one array of draws packed into rows (:func:`_chunk_X`),
one product gives every user's cache and demand, and the tally compares the
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
import itertools
import json
import math
import operator
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

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
from .galois import Matrix, _row_block_bits, _row_echelon, _row_rank, hstack, vstack
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
    f, fmt, t, count = inst.field, inst.field._fmt, inst.t, len(trials)
    X, streams = _chunk_X(f, seed, trials, inst.n, t)
    errors = list(map(error, streams))
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


def _chunk_X(field, seed: int, trials: range, n: int, t: int) -> tuple:
    """The X of the chunk ``trials`` and each trial's stream after it: the
    ``n`` rows in the row format whose block k, entries [k t, (k + 1) t),
    is row r of trial k's ``integers(0, q, size=(n, t))``, which numpy
    fills in row-major order."""
    values, streams = _draw_chunk(seed, trials, field.q, n * t)
    entries = values.reshape(len(trials), n, t).transpose(1, 0, 2).ravel()
    return field._fmt.from_flat(entries, t * len(trials)), streams


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


# -- trial streams -------------------------------------------------------

# Raw 64-bit words read ahead for each trial of a chunk, and then at a time
# by a stream that runs past them: 64 draws below 2**32, for most instances
# a trial's X and its error.
_DRAW_WORDS = 32

# numpy's SeedSequence (numpy/random/bit_generator.pyx): the pool size, the
# first constant and multiplier of the hash constants of the pool and of the
# state it hands out, and mix's two multipliers.
_POOL_SIZE = 4
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_MULT = (0xCA01F9DD, 0x4973F715)
_MASK_32 = (1 << 32) - 1


def _seed_words(n: int) -> list[int]:
    """numpy's coercion of a seed int to 32-bit words: low word first, 0 as
    one word, and a negative int refused as numpy refuses it."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK_32]
    while n > _MASK_32:
        n >>= 32
        words.append(n & _MASK_32)
    return words


def _u64_int(values) -> int:
    """The int whose 64-bit lane j, bits [64 j, 64 j + 64), holds
    ``values[j]``, each below 2**64."""
    return int.from_bytes(np.asarray(values, dtype="<u8").tobytes(), "little")


@functools.cache
def _seed_hash_steps(nwords: int) -> tuple:
    """The hash steps of :func:`_seed_hash` for ``nwords`` entropy words, in
    numpy's order: (xor, multiply) for the pool's first hash of each of its
    4 words; (source, destination, xor, multiply) for each mixing step, a
    source past the pool being that entropy word; and (xor, multiply) for
    each of the 8 hashes of the state.  Each hash xors the current constant
    of its sequence and multiplies by the next."""

    def pairs(init: int, mult: int, count: int) -> list:
        consts = [init]
        for _ in range(count):
            consts.append(consts[-1] * mult & _MASK_32)
        return list(zip(consts, consts[1:]))

    moves = [(s, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if s != d]
    moves += [(s, d) for s in range(_POOL_SIZE, nwords) for d in range(_POOL_SIZE)]
    pool = pairs(*_POOL_HASH, _POOL_SIZE + len(moves))
    mixing = [move + pair for move, pair in zip(moves, pool[_POOL_SIZE:])]
    return pool[:_POOL_SIZE], mixing, pairs(*_STATE_HASH, 2 * _POOL_SIZE)


def _seed_hash(entropy: Sequence[int], ones: int) -> list[int]:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for k entropies
    at once, held in the 64-bit lanes of ints (see :func:`_u64_int`): lane
    j of ``entropy[w]`` is word w of entropy j, lane j of output word i is
    word i of its state, and ``ones`` holds 1 in each of the k lanes (for
    one entropy, the ints are the words and ``ones`` is 1).

    numpy hashes each entropy word into a pool of 4 (zeros past the
    entropy), mixes the hash of every pool word into the others, mixes in
    the words past the pool, and hashes the pool out twice, 8 words of 32
    bits.  A lane's 32-bit value times a 32-bit constant stays in its lane,
    so every step is a few int operations for all k lanes; mix adds the
    negation of its subtrahend mod 2**32, so no lane borrows from the next.
    """
    low = _MASK_32 * ones
    left, right = _MIX_MULT[0], -_MIX_MULT[1] & _MASK_32
    first, mixing, state = _seed_hash_steps(len(entropy))
    # The pool, then the entropy words past it.
    regs = list(entropy) + [0] * (_POOL_SIZE - len(entropy))
    for i, (xor, mult) in enumerate(first):
        x = (regs[i] ^ xor * ones) * mult & low
        regs[i] = x ^ x >> 16 & low
    for src, dst, xor, mult in mixing:
        y = (regs[src] ^ xor * ones) * mult & low
        y ^= y >> 16 & low
        x = (left * regs[dst] & low) + (right * y & low) & low
        regs[dst] = x ^ x >> 16 & low
    out = []
    for i, (xor, mult) in enumerate(state):
        x = (regs[i % _POOL_SIZE] ^ xor * ones) * mult & low
        out.append(x ^ x >> 16 & low)
    # numpy views the 32-bit words little-endian as 64-bit ones.
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def _seed_states(seed: int, trials: range) -> np.ndarray:
    """``SeedSequence([seed, trial]).generate_state(4, np.uint64)`` for each
    trial of ``trials`` (step 1), the rows of one C-contiguous (k, 4)
    uint64 array: the words ``default_rng([seed, trial])`` seeds its PCG64
    from.

    The entropy is the words of seed then of trial.  Trials are hashed in
    groups that share every trial word but the lowest, whose lanes then
    count up from the group's first trial.
    """
    head = _seed_words(seed)
    start, groups = trials.start, []
    while start < trials.stop:
        stop = min(trials.stop, ((start >> 32) + 1) << 32)
        k = stop - start
        # 1 in each of the k lanes: 2**(64 k) = (2**64 - 1) ones + 1.
        ones = (1 << 64 * k) // ((1 << 64) - 1)
        entropy = [w * ones for w in head + _seed_words(start)]
        base = start & _MASK_32
        entropy[len(head)] = _u64_int(np.arange(base, base + k, dtype=np.uint64))
        raw = b"".join(w.to_bytes(8 * k, "little") for w in _seed_hash(entropy, ones))
        groups.append(np.frombuffer(raw, "<u8").reshape(4, k))
        start = stop
    return np.concatenate(groups, axis=1).T.astype(np.uint64, order="C")


@functools.cache
def _pcg64_from_state():
    """The function that makes a ``np.random.PCG64`` from each row of a
    (k, 4) uint64 array, the words a ``SeedSequence`` would hand it.

    They reach PCG64 through numpy's ``ISeedSequence`` interface, so numpy's
    own ``pcg64_set_seed`` turns them into (state, inc), and a generator
    costs about 1 µs, a tenth of seeding one from an int.  numpy reads the
    words through a raw pointer, as if C-contiguous, so a strided array (a
    row of a transposed one, say) is copied into C order first: read in
    place, it would seed every generator from the wrong words.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's 4 uint64 words are precomputed")
            return self.words

    def pcg64s(states) -> list:
        rows = np.ascontiguousarray(states, dtype=np.uint64)
        return [np.random.PCG64(Hashed(words)) for words in rows]

    return pcg64s


def _draw_chunk(seed: int, trials: range, q: int, size: int) -> tuple:
    """For every trial of ``trials`` (step 1), ``integers(0, q, size=size)``
    of ``numpy.random.default_rng([seed, trial])``, 2 <= q <= 2**32, as one
    row of a (k, size) int64 array, and the trial's :class:`_Draws` stream
    after them.

    Each trial's PCG64 fills one row of a (k, ``_DRAW_WORDS``) raw-word
    array, read as its 32-bit halves, low first.  For q a power of two a
    value is the top bits of a half (see :meth:`_Draws.integers`), so every
    row's first values come from it in one shift.  A stream reads its row's
    halves past those, then its own PCG64, and draws whatever values its
    row did not give: all of them for any other q, whose draws may redraw.
    """
    words = _DRAW_WORDS
    gens = _pcg64_from_state()(_seed_states(seed, trials))
    k, width = len(gens), 2 * words
    raw = np.concatenate([gen.random_raw(words) for gen in gens]).astype("<u8", copy=False)
    halves = raw.view("<u4").reshape(k, width)
    take = 0 if q & (q - 1) else min(size, width)
    values = np.empty((k, size), np.int64)
    values[:, :take] = halves[:, :take] >> 33 - q.bit_length()
    # Each stream's halves past its values, as ints off a flat view of the
    # array: a memoryview yields an int per native uint32 as it is read.
    flat = memoryview(halves.astype(np.uint32, copy=False).reshape(-1))
    streams = [
        _Draws(itertools.chain(flat[a + take:a + width], _raw_halves(gen)))
        for a, gen in zip(range(0, k * width, width), gens)
    ]
    if take < size:
        for row, stream in zip(values, streams):
            row[take:] = stream.integers(q, size - take)
    return values, streams


def _raw_halves(gen) -> Iterator[int]:
    """The 32-bit halves of the raw words ``gen`` gives from here on, the
    low then the high half of each, read ``_DRAW_WORDS`` words at a time;
    nothing is read before the first half is asked for."""
    while True:
        yield from gen.random_raw(_DRAW_WORDS).astype("<u8", copy=False).view("<u4").tolist()


class _Draws:
    """The draws of ``numpy.random.default_rng([seed, trial])``, read off
    its raw PCG64 words as Python ints.

    :func:`_draw_chunk` seeds the streams of a range of trials at once:
    numpy's ``SeedSequence`` hash of [seed, trial] redone for all of them
    (see :func:`_seed_states`), each trial's words handed to a PCG64 of its
    own.  The Generator's bounded integers below 2**32 read the bit
    generator's 32-bit stream, the low then the high half of each 64-bit
    word, a half left over by one call going to the next; :meth:`integers`
    and :meth:`choice` return what ``integers(0, q, size=k)`` and
    ``choice(n, size=k, replace=False)`` return when called in the same
    order (the tests pin this).  Words are read ahead of use; nothing else
    draws from the bit generator, so that changes no value.
    """

    __slots__ = ("_halves",)

    def __init__(self, halves: Iterator[int]):
        self._halves = halves

    def integers(self, q: int, k: int) -> list[int]:
        """``integers(0, q, size=k)`` for 2 <= q <= 2**32, by Lemire's
        method (see :meth:`_below`)."""
        if not q & (q - 1):
            # 2**32 mod q is 0, so no redraw; (u q) >> 32 is the top bits.
            shift = 33 - q.bit_length()
            return [u >> shift for u in itertools.islice(self._halves, k)]
        below = self._below
        return [below(q) for _ in range(k)]

    def rows(self, q: int, nrows: int, ncols: int) -> list[tuple[int, ...]]:
        """``integers(0, q, size=(nrows, ncols))`` as entry rows, ncols >= 1:
        numpy fills a shaped draw in row-major order."""
        return list(zip(*[iter(self.integers(q, nrows * ncols))] * ncols))

    def choice(self, n: int, k: int) -> list[int]:
        """``choice(n, size=k, replace=False)`` for 0 <= k <= n <= 2**32."""
        below = self._below
        if n > 10_000 and k > n // 50:
            # numpy's tail shuffle: Fisher-Yates over range(n), down to the
            # first of the last k places, which it returns.
            pool = list(range(n))
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = below(i + 1)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[n - k:]
        # Floyd's algorithm (no draw on [0, 0]; a repeat takes j itself),
        # then numpy's Fisher-Yates shuffle of the picks.
        picks: list[int] = []
        seen = set()
        for j in range(n - k, n):
            x = below(j + 1) if j else 0
            if x in seen:
                x = j
            seen.add(x)
            picks.append(x)
        for i in range(k - 1, 0, -1):
            j = below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def _below(self, q: int) -> int:
        """One ``integers(0, q)`` for 2 <= q <= 2**32: (u q) >> 32, with u
        redrawn while (u q) mod 2**32 < 2**32 mod q."""
        halves, floor = self._halves, (1 << 32) % q
        m = next(halves) * q
        while m & 0xFFFFFFFF < floor:
            m = next(halves) * q
        return m >> 32
