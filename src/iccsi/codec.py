"""Encoder construction and error-correction verification.

An encoding matrix L (N x d_S) turns the sender's coded rows into the N
broadcast rows L V_S X.  Three constructions live here: the coset-derived
encoder of optimal length (the min-rank witness), uniform random search,
and concatenation of a realizing encoder with an outer code of minimum
distance 2 delta + 1.

Error-correction verification follows the confusable-set criterion: L
corrects any error of weight <= delta at every user exactly when each
confusable difference Z maps to weight(L V_S Z) >= 2 delta + 1.  In the
Hamming metric the check reduces to the one-symbol-per-row view of the
instance; in the rank metric it ranges over confusables of rank at least
2 delta + 1, with the message space taken as the full space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .galois import (
    Matrix,
    _as_int,
    _row_mul,
    _row_weight,
    _to_rows,
    field_of_order,
    iter_vectors,
    mat_rank,
)
from .instance import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    IccsiInstance,
    _WalkBlocks,
    _confusable_draws,
    _confusable_walk,
    _parse_json,
    dump_compact,
    one_symbol_view,
)
from .minrank import MinRankResult, _realization_check, min_rank, realizes_ic

HAMMING = "hamming"
RANK = "rank"

DEFAULT_SAMPLES = 100_000
# Most entries one block draw of :func:`random_ic_search` holds.
_DRAW_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EcicCertificate:
    """Outcome of an error-correction check of one encoder.

    ``violations`` holds (user, Z) witnesses with Z confusable for that user
    and weight(L V_S Z) <= 2 delta; scanning a user stops at its first
    witness.  ``trials`` is the number of confusables tested; in sampled
    mode the certificate is evidence, not proof.

    A Hamming certificate that passes means that every user corrects every
    error of Hamming weight <= delta.  A rank certificate certifies less:
    every confusable Z of rank >= 2 delta + 1 has rank(L V_S Z) >=
    2 delta + 1, so two messages whose difference has rank >= 2 delta + 1
    are told apart under errors of rank <= delta.  It does not claim that
    every error of rank <= delta is corrected: for delta >= 1, a
    confusable Z of rank 1 makes X = 0 with error L V_S Z and X = Z with
    no error look alike to the user.  At t <= 2 delta no Z has rank
    2 delta + 1, so a rank check passes with 0 trials.
    """

    delta: int
    metric: str
    mode: str
    trials: int
    violations: tuple[tuple[int, Matrix], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "metric": self.metric,
            "mode": self.mode,
            "trials": self.trials,
            "violations": [
                [i, [list(r) for r in z.rows]] for i, z in self.violations
            ],
        }


@dataclass(frozen=True)
class EncodingMatrix:
    """An encoder L with its cached broadcast matrix L V_S.

    ``provenance`` records how the encoder was obtained: "coset" (min-rank
    witness), "random", or "concatenated".
    """

    L: Matrix
    lvs: Matrix
    provenance: str
    certificate: EcicCertificate | None = None

    @property
    def N(self) -> int:
        return self.L.nrows


def make_encoder(
    L: Matrix,
    inst: IccsiInstance,
    provenance: str,
    certificate: EcicCertificate | None = None,
) -> EncodingMatrix:
    if L.ncols != inst.d_S:
        raise ValueError(f"L has {L.ncols} columns, expected d_S={inst.d_S}")
    return EncodingMatrix(L, L * inst.V_S, provenance, certificate)


def coset_encoder(
    inst: IccsiInstance,
    budget: int | None = None,
    min_rank_result: MinRankResult | None = None,
) -> EncodingMatrix:
    """Shortest realizing encoder, derived from the min-rank witness.

    The broadcast rows span the row space of the minimizing A + R, so the
    length equals the min-rank and every user can decode.  A caller that
    already ran :func:`min_rank` on the instance passes its result, so the
    search is not run again; a witness without d_S columns raises
    ValueError, and the witness must still realize the instance.
    """
    res = min_rank_result
    if res is None:
        res = min_rank(inst, budget=budget)
    elif res.witness.ncols != inst.d_S:
        raise ValueError(
            f"min-rank witness has {res.witness.ncols} columns, expected d_S={inst.d_S}"
        )
    L = res.witness
    assert mat_rank(L) == L.nrows == res.kappa
    assert all(realizes_ic(L, inst))
    return make_encoder(L, inst, "coset")


@dataclass(frozen=True)
class RandomSearchResult:
    encoder: EncodingMatrix | None
    attempts: int

    @property
    def found(self) -> bool:
        return self.encoder is not None


def random_ic_search(
    inst: IccsiInstance,
    N: int,
    delta: int = 0,
    metric: str = HAMMING,
    max_attempts: int = 1000,
    seed: int = 0,
    budget: int | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> RandomSearchResult:
    """Draw uniform N x d_S matrices until one passes, or give up.

    Attempts are sequential on a single seeded stream, so a fixed seed
    reproduces the same encoder.  A length-0 code can never satisfy any
    user, so N <= 0 reports not-found without drawing.

    The attempts are drawn in blocks of 1, 2, 4, ... attempts, capped at
    the attempts left and at ``_DRAW_BLOCK_ENTRIES`` entries, with one
    ``rng.integers(0, q, size)`` call per block cut into N x d_S entry rows
    per attempt.  numpy fills a joined draw from the same stream as split
    ones, so attempt a gets the entries the a-th of one draw per attempt
    would (the tests pin this).  Every attempt must first serve every user
    (:func:`~iccsi.minrank.realizes_ic`), in every metric: a rank check
    tests nothing for a user whose kernel has dimension <= 2 delta.  Only
    an attempt that serves them all is built as a ``Matrix``.
    """
    if N <= 0:
        return RandomSearchResult(None, 0)
    rng = np.random.default_rng([seed])
    f, q, d_S = inst.field, inst.q, inst.d_S
    served = _realization_check(inst)
    per = N * d_S
    most = max(1, _DRAW_BLOCK_ENTRIES // per)
    attempt, block = 0, 1
    while attempt < max_attempts:
        count = min(block, max_attempts - attempt)
        # The block's entry rows of d_S entries each, N per attempt.
        rows = list(zip(*[iter(rng.integers(0, q, size=count * per).tolist())] * d_S))
        for start in range(0, count * N, N):
            attempt += 1
            L_rows = tuple(rows[start:start + N])
            if not all(served(L_rows)):
                continue
            L = Matrix._trusted(f, L_rows, d_S)
            if delta == 0:
                cert = EcicCertificate(0, metric, "exhaustive", 0, ())
            else:
                cert = verify_ecic(
                    L, inst, delta, metric, budget=budget, samples=samples, seed=seed
                )
                if not cert.passed:
                    continue
            return RandomSearchResult(make_encoder(L, inst, "random", cert), attempt)
        block = min(2 * block, most)
    return RandomSearchResult(None, max_attempts)


def require_rank_testable(inst: IccsiInstance, delta: int) -> None:
    """Raise ValueError when a rank check at ``delta`` would test nothing.

    No confusable has rank 2 delta + 1 > t, so at t <= 2 delta a rank
    certificate would pass with 0 trials, and a random search take its
    first realizing draw.
    """
    if inst.t <= 2 * delta:
        raise ValueError(
            f"--metric rank needs t > 2 delta, got t={inst.t} and 2 delta={2 * delta}: "
            "the rank certificate would test no confusable"
        )


def verify_ecic(
    L: Matrix,
    inst: IccsiInstance,
    delta: int,
    metric: str = HAMMING,
    mode: str = "auto",
    budget: int | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> EcicCertificate:
    """Check that L corrects every error of weight <= delta at every user.

    Hamming checks run on the one-symbol view, which is equivalent for any
    t.  Rank checks keep the instance's t and only confusables of rank at
    least 2 delta + 1 are constrained.  ``mode`` is "exhaustive", "sampled",
    or "auto" (exhaustive per user while the set fits the budget).  A
    sampled user is charged ``samples`` times its k t kernel digits, and
    :class:`BudgetExceeded` is raised before any draw when that exceeds the
    budget, as it is for an exhaustive set larger than the budget.
    """
    if metric not in (HAMMING, RANK):
        raise ValueError(f"unknown metric {metric!r}")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if budget is None:
        budget = DEFAULT_BUDGET
    if L.ncols != inst.d_S:
        raise ValueError(f"L has {L.ncols} columns, expected d_S={inst.d_S}")
    view = one_symbol_view(inst) if metric == HAMMING else inst
    lvs = L * view.V_S
    # Every user's walk appends the L V_S K block, from the rows of (L V_S)^T.
    extra = (lvs.nrows, _to_rows(view.field, lvs.transpose().rows))
    need = 2 * delta + 1
    violations: list[tuple[int, Matrix]] = []
    trials = 0
    out_mode = "exhaustive"
    for i in range(view.m):
        size = view.q ** ((view.n - view.users[i].d) * view.t)
        if mode == "exhaustive" and size > budget:
            raise BudgetExceeded(
                f"user {i}: confusable set size {size} exceeds budget {budget}"
            )
        if mode == "sampled" or (mode == "auto" and size > budget):
            # A draw costs k t kernel digits, so the draws are charged
            # samples * k t against the budget before any is made.
            kt = (view.n - view.users[i].d) * view.t
            if samples * kt > budget:
                raise BudgetExceeded(
                    f"user {i}: {samples} samples of k t = {kt} kernel digits each "
                    f"exceed budget {budget}"
                )
            out_mode = "sampled"
            source = _confusable_draws(view, i, samples, seed, extra=extra)
        else:
            # A rank check skips C with fewer than ``need`` nonzero columns.
            min_cols = need if metric == RANK else 0
            source = _confusable_walk(view, i, budget, extra=extra, min_cols=min_cols)
        tested, z = _walk_user(view, source, lvs.nrows, metric, need)
        trials += tested
        if z is not None:
            violations.append((i, z))
    return EcicCertificate(delta, metric, out_mode, trials, tuple(violations))


def _walk_user(
    view: IccsiInstance, source: Iterator[list], N: int, metric: str, need: int
) -> tuple[int, Matrix | None]:
    """Check one user's confusables: (tested, first violation or None).

    ``source`` yields walk columns with an N-row L V_S block, from
    :func:`_confusable_walk` (exhaustive) or :func:`_confusable_draws`
    (sampled), and weight(L V_S Z) is read off that L V_S K C block.
    Hamming checks run on the one-symbol view, so the block is one column.
    In the rank metric the block is the transpose of L V_S Z, and K has
    independent columns, so rank(L V_S Z) <= rank(C) = rank(Z) <= the number
    of nonzero columns of C, which are the nonzero walk columns.  So too few
    nonzero columns skip the confusable unranked, a block of rank >= need
    is a tested confusable that passes, and rank(Z) is needed only below.
    """
    t = view.t
    blocks = _WalkBlocks(view, N)
    extra_weight, extra_rank, zero = blocks.extra_weight, blocks.extra_rank, blocks.zero
    tested = 0
    for cols in source:
        if metric == HAMMING:
            w = extra_weight(cols[0])
        elif t - cols.count(zero) < need:
            continue
        else:
            w = extra_rank(cols)
        if w < need:
            if metric == RANK and blocks.z_rank(cols) < need:
                continue
            return tested + 1, blocks.z(cols)
        tested += 1
    return tested, None


def min_distance_cols(g: Matrix, budget: int | None = None) -> int:
    """Minimum Hamming weight of g u over nonzero coefficient vectors u;
    0 when the columns of g are dependent.

    The code here is the column span of g, matching the outer-code role in
    concatenation where codewords multiply the inner encoder from the left.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    f = g.field
    k = g.ncols
    if k == 0:
        raise ValueError("empty generator")
    if f.q**k > budget:
        raise BudgetExceeded(f"codeword enumeration size {f.q}^{k} exceeds budget")
    # Codeword g u is the row u g^T, weighed in the row format.
    N = g.nrows
    gt = _to_rows(f, g.transpose().rows)
    weigh = _row_weight(f, 0, N, N)
    return min(weigh(_row_mul(f, (u,), gt, N)[0]) for u in iter_vectors(f, k) if any(u))


def concat_kappa_bound(
    inst: IccsiInstance,
    delta: int,
    outer_generator: Matrix,
    budget: int | None = None,
    min_rank_result: MinRankResult | None = None,
) -> EncodingMatrix:
    """Concatenate the coset encoder with an outer distance-(2 delta + 1) code.

    ``outer_generator`` is N x kappa: its columns span the outer code, one
    column per inner broadcast row.  The product corrects delta errors
    because every nonzero inner output is carried by an outer codeword.
    ``min_rank_result`` is passed to :func:`coset_encoder`.
    """
    inner = coset_encoder(inst, budget=budget, min_rank_result=min_rank_result)
    kappa = inner.N
    g = outer_generator
    if g.field != inst.field:
        raise ValueError("outer generator field mismatch")
    if g.ncols != kappa:
        raise ValueError(
            f"outer generator has {g.ncols} columns, expected the min-rank {kappa}"
        )
    if mat_rank(g) != kappa:
        raise ValueError("outer generator must have full column rank")
    dist = min_distance_cols(g, budget=budget)
    if dist < 2 * delta + 1:
        raise ValueError(f"outer code distance {dist} < {2 * delta + 1}")
    L = g * inner.L
    cert = verify_ecic(L, inst, delta, HAMMING, budget=budget)
    return make_encoder(L, inst, "concatenated", cert)


def extended_rs_generator(q: int, N: int, k: int) -> Matrix:
    """k x N generator evaluating degree-<k polynomials, any k columns free.

    Columns evaluate at the first N - 1 field elements in encoded order,
    then at infinity (leading coefficient); N may reach q + 1.
    """
    f = field_of_order(q)
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if N > q + 1:
        raise ValueError(f"length {N} exceeds q + 1 = {q + 1}")
    rows = tuple(
        tuple(f.pow(x, r) for x in range(N - 1)) + (1 if r == k - 1 else 0,)
        for r in range(k)
    )
    g = Matrix._trusted(f, rows, N)
    if N <= 8:
        assert all(
            mat_rank(g.take_cols(cols)) == k for cols in combinations(range(N), k)
        )
    return g


def encoder_to_dict(enc: EncodingMatrix) -> dict:
    cert = enc.certificate.to_dict() if enc.certificate is not None else None
    return {
        "N": enc.N,
        "L": [list(r) for r in enc.L.rows],
        "provenance": enc.provenance,
        "certificate": cert,
    }


def encoder_to_json(enc: EncodingMatrix) -> str:
    return dump_compact(encoder_to_dict(enc))


def encoder_from_dict(doc: dict, inst: IccsiInstance) -> EncodingMatrix:
    """Encoder from its dict form; ValueError names what is malformed."""
    if not isinstance(doc, dict) or "L" not in doc:
        raise ValueError('encoder must be an object with an "L" matrix')
    N = doc.get("N")
    if not isinstance(N, int) or isinstance(N, bool):
        raise ValueError(f'encoder "N" must be an integer, got {N!r}')
    L = Matrix(inst.field, doc["L"], inst.d_S)
    if L.nrows != N:
        raise ValueError(f"declared N={N} but L has {L.nrows} rows")
    cert_doc = doc.get("certificate")
    cert = None
    if cert_doc is not None:
        try:
            cert = EcicCertificate(
                _as_int(cert_doc["delta"]),
                cert_doc["metric"],
                cert_doc["mode"],
                _as_int(cert_doc["trials"]),
                tuple(
                    (_as_int(i), Matrix(inst.field, rows, len(rows[0])))
                    for i, rows in cert_doc["violations"]
                ),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed encoder certificate: {exc!r}") from None
    return make_encoder(L, inst, doc.get("provenance", "file"), cert)


def load_encoder(path: str, inst: IccsiInstance) -> EncodingMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return encoder_from_dict(_parse_json(fh.read()), inst)


def save_encoder(enc: EncodingMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encoder_to_json(enc))
        fh.write("\n")
