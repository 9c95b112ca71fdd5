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
instance.  It walks each user's confusables while their number fits the
budget, and past it decides the user from its demand map: the user passes
exactly when, on every set S of min(2 delta, N) broadcast positions, the
map's demand row at S lies in the row space of its annihilator rows at S,
which one reduction in the row format against their echelon decides.
In the rank metric it ranges over confusables of rank at least
2 delta + 1, with the message space taken as the full space, and takes one
rank per user in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .decoders import _demand_maps
from .galois import (
    Matrix,
    _as_int,
    _row_echelon,
    _row_weight,
    _span_walk,
    field_of_order,
    mat_rank,
    null_space,
    solve_left,
    vstack,
)
from .instance import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    IccsiInstance,
    _WalkBlocks,
    _confusable_walk,
    _parse_json,
    dump_compact,
    one_symbol_view,
)
from .minrank import MinRankResult, _realization_check, min_rank, realizes_ic

HAMMING = "hamming"
RANK = "rank"

# Most entries one block draw of :func:`random_ic_search` holds.
_DRAW_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EcicCertificate:
    """Outcome of an error-correction check of one encoder.

    ``violations`` holds (user, Z) witnesses with Z confusable for that user
    and weight(L V_S Z) <= 2 delta, at most one per user.  ``trials`` is,
    in the Hamming metric, the number of confusables walked plus the number
    of supports tested for users past the walk's budget, and in the rank
    metric the number of users tested: ``trials`` < m there means that the
    other users are vacuous, with no confusable of rank 2 delta + 1.  Every
    check is exact, so ``mode`` is always "exhaustive"; encoder files
    written when the Hamming check could sample may still say "sampled",
    and still load.

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
    an attempt that serves them all is built as a ``Matrix``, and at
    delta >= 1 checked by :func:`verify_ecic` under ``budget``.
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
                cert = verify_ecic(L, inst, delta, metric, budget=budget)
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
    budget: int | None = None,
) -> EcicCertificate:
    """Check that L corrects every error of weight <= delta at every user.

    Hamming checks run on the one-symbol view, which is equivalent for any
    t.  A user whose q^(n - d_i) confusables fit the budget is walked; any
    other is decided by :func:`_support_check`, whose C(N, min(2 delta, N))
    supports are charged against the budget, and :class:`BudgetExceeded` is
    raised when they exceed it too.  Both are exact.  Rank checks keep the
    instance's t and take one rank per user (:func:`_rank_witness`);
    ``budget`` does not apply to them.
    """
    if metric not in (HAMMING, RANK):
        raise ValueError(f"unknown metric {metric!r}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if budget is None:
        budget = DEFAULT_BUDGET
    if L.ncols != inst.d_S:
        raise ValueError(f"L has {L.ncols} columns, expected d_S={inst.d_S}")
    need = 2 * delta + 1
    violations: list[tuple[int, Matrix]] = []
    trials = 0
    if metric == RANK:
        lvs = L * inst.V_S
        for i, u in enumerate(inst.users):
            K, rk = u.kernel, u.R * u.kernel
            # A vacuous user has no confusable of rank need.
            if min(K.ncols, inst.t) >= need and not rk.is_zero():
                trials += 1
                z = _rank_witness(lvs * K, rk, K, need, inst.t)
                if z is not None:
                    violations.append((i, z))
        return EcicCertificate(delta, metric, "exhaustive", trials, tuple(violations))
    view = one_symbol_view(inst)
    lvs = L * view.V_S
    # Every user's walk appends the L V_S K block, from the rows of (L V_S)^T.
    extra = (lvs.nrows, view.field._fmt.to_rows(lvs.transpose().rows))
    blocks = _WalkBlocks(view, lvs.nrows)
    supports = comb(lvs.nrows, min(2 * delta, lvs.nrows))
    # Every user's demand map, built at the first user past the budget.
    dmaps = None
    for i in range(view.m):
        size = view.q ** (view.n - view.users[i].d)
        if size > budget:
            if supports > budget:
                raise BudgetExceeded(
                    f"user {i}: confusable set size {size} and {supports} "
                    f"supports both exceed budget {budget}"
                )
            if dmaps is None:
                dmaps = _demand_maps(view, lvs)
            tested, z = _support_check(view, i, lvs, delta, dmaps[i])
            trials += tested
            if z is not None:
                violations.append((i, z))
            continue
        for cols in _confusable_walk(view, i, budget, extra=extra):
            trials += 1
            if blocks.extra_weight(cols[0]) < need:
                violations.append((i, blocks.z(cols)))
                break
    return EcicCertificate(delta, metric, "exhaustive", trials, tuple(violations))


def _support_check(
    inst: IccsiInstance, i: int, lvs: Matrix, delta: int, dmap: tuple | None = None
) -> tuple[int, Matrix | None]:
    """(supports tested, a violating confusable Z or None) for user i of a
    t = 1 instance, read off its demand map [c; Q] of ``lvs`` = L V_S,
    ``dmap``, built here when not given (see
    :func:`~iccsi.decoders._demand_maps`).

    Z violates when V^(i) Z = 0, R_i Z != 0 and wt(L V_S Z) <= 2 delta.
    That is [V^(i); L V_S] Z = [0; e] for an e of weight <= 2 delta with
    Q [0; e] = 0 and c [0; e] != 0 (Q spans the left kernel of the stack).
    So user i passes exactly when the map is non-empty and, on every set S
    of min(2 delta, N) positions of the broadcast, c_S lies in the row
    space of Q_S: c_S reduced against the echelon of Q_S's rows in the row
    format is zero.  Supports are taken in lexicographic order; at the
    first failing S, e is the first null-space vector of Q_S with
    c_S e != 0, and Z is solved from [0; e].  An empty map (L does not
    serve the user) tests no support, and its witness has L V_S Z = 0
    (:func:`_rank_witness`).
    """
    u, f, N = inst.users[i], inst.field, lvs.nrows
    if dmap is None:
        dmap = _demand_maps(inst, lvs)[i]
    if not dmap:
        K = u.kernel
        return 0, _rank_witness(lvs * K, u.R * K, K, 1, 1)
    # The map's rows are d_i + N wide; S runs over the last N columns.
    fmt, width, size = f._fmt, u.d + N, min(2 * delta, N)
    for tested, S in enumerate(combinations(range(u.d, width), size), 1):
        c, *Q = (fmt.pack(tuple(map(row.__getitem__, S))) for row in dmap)
        if fmt.reduce(_row_echelon(f, Q, size), c) != fmt.zero(size):
            at_S = Matrix._trusted(f, dmap, width).take_cols(S)
            xs = null_space(at_S.take_rows(range(1, at_S.nrows)))
            hits = (at_S.take_rows([0]) * xs).rows[0]
            first = next(j for j, h in enumerate(hits) if h)
            e = [0] * width
            for j, x in zip(S, xs.col(first)):
                e[j] = x
            z = solve_left(vstack(u.V, lvs).transpose(), Matrix._trusted(f, (tuple(e),), width))
            return tested, z.transpose()
    return comb(N, size), None


def _rank_witness(M: Matrix, rk: Matrix, K: Matrix, need: int, t: int) -> Matrix | None:
    """A confusable Z of rank ``need`` with rank(L V_S Z) < need, or None.

    K (n x k) is a user's kernel basis, M = L V_S K and rk = R_i K != 0,
    with k and t at least ``need``.  For Z = K C, rank(Z), rank(L V_S Z)
    and whether R_i Z = rk C is 0 depend only on the column space W of C.
    So Z exists exactly when ker M holds an x != 0 in some W of dimension
    ``need`` outside ker(rk): any x != 0 at need >= 2, and at need = 1
    (the realization test) an x with rk x != 0.

    The witness C: first x, the first vector of the canonical basis of
    ker M with rk x != 0, else its first; then, if rk x = 0, the first
    unit vector outside ker(rk); then the unit vectors that raise the rank,
    up to ``need`` columns; then t - need zero columns.
    """
    f, k = K.field, K.ncols
    xs = null_space(M)
    if not xs.ncols:
        return None
    hits = (rk * xs).rows[0]
    first = next((j for j, h in enumerate(hits) if h), None)
    if first is None and need == 1:
        return None
    cols = [xs.col(0 if first is None else first)]
    units = Matrix.identity(f, k).rows
    if first is None:
        cols.append(next(e for e, r in zip(units, rk.rows[0]) if r))
    # The columns are independent: a unit vector outside their echelon adds one.
    basis, insert = _row_echelon(f, f._fmt.to_rows(cols), k), f._fmt.insert(k)
    for e in units:
        if len(cols) == need:
            break
        pair = insert(basis, f._fmt.pack(e))
        if pair is not None:
            basis.append(pair)
            cols.append(e)
    ct = Matrix._trusted(f, (*cols, *[(0,) * k] * (t - need)), k)
    return K * ct.transpose()


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
    # Codeword g u is the row u g^T, the sum of u_j times row j of g^T:
    # the walk of the rows of g^T at t = 1 visits every u != 0 once, and
    # with the zero row as ``top`` it yields each, so dependent columns
    # give 0.
    N = g.nrows
    gt = f._fmt.to_rows(g.transpose().rows)
    weigh = _row_weight(f, 0, N, N)
    return min(weigh(cols[0]) for cols in _span_walk(f, gt, 1, N, f._fmt.zero(N)))


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
