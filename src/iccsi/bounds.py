"""Closed-form bounds and existence probabilities, evaluated exactly.

Probability-type bounds are computed as exact rationals (Fraction over big
integers) and clamped to [0,1]; the pre-clamp value is kept so uninformative
negative bounds remain visible.  Decimal rendering is fixed at 4 significant
figures.  Existence conditions are decided by exact integer comparisons,
never through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .galois import (
    MAX_POWER_BITS,
    _rank_count,
    gaussian_binomial,
    sphere_vol_hamming,
    sphere_vol_rank,
    row_basis,
    vstack,
)
from .instance import IccsiInstance


def _check_power(q: int, exponent: int, what: str) -> None:
    """ValueError when q^exponent has more than MAX_POWER_BITS bits."""
    if exponent * math.log2(q) > MAX_POWER_BITS:
        raise ValueError(
            f"{what} = {q}^{exponent} exceeds the {MAX_POWER_BITS}-bit cap on exact powers"
        )


def render_decimal(x: Fraction, sig: int = 4) -> str:
    """Decimal string of an exact rational at ``sig`` significant figures."""
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = sig
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return format(d.normalize(), "f") if -4 <= d.adjusted() < sig + 2 else format(d.normalize(), "e")


@dataclass(frozen=True)
class BoundReport:
    name: str
    params: dict
    value: Fraction          # clamped to [0,1] for probability bounds
    raw: Fraction            # pre-clamp value
    decimal: str
    verdict: bool | None = None
    note: str | None = None

    @classmethod
    def probability(cls, name, params, raw, verdict=None, note=None) -> "BoundReport":
        value = min(max(raw, Fraction(0)), Fraction(1))
        return cls(name, params, value, raw, render_decimal(value), verdict, note)


@dataclass(frozen=True)
class EquivClassCounts:
    m_prime: int
    m_dprime: int
    m_tprime: int


def equiv_counts(inst: IccsiInstance, delta: int = 0) -> EquivClassCounts:
    """Class counts of users under equality of caches and confusable sets.

    m_prime groups users with equal cached spaces.  m_dprime additionally
    separates by the request hyperplane: the confusable sets agree exactly
    when the pairs (kernel of V, kernel of [V; R]) agree, equivalently when
    the row-space pairs agree.  m_tprime applies the rank filter of the
    error-correcting setting: users whose filtered sets are empty fall into
    one shared class regardless of their unfiltered data.
    """
    caches = {u.V for u in inst.users}
    pairs = {(u.V, row_basis(vstack(u.V, u.R))) for u in inst.users}
    filtered = set()
    for u in inst.users:
        if z_delta_size(inst.n, u.d, inst.t, delta, inst.q) == 0:
            filtered.add("empty")
        else:
            filtered.add((u.V, row_basis(vstack(u.V, u.R))))
    return EquivClassCounts(len(caches), len(pairs), len(filtered))


def zippel_ic_prob(q: int, m_prime: int, N: int, d_S: int) -> BoundReport:
    """Success probability of a uniformly random N x d_S encoding matrix.

    Lower bound (1 - m'/q)^(N d_S), valid only for q > m'.  A positive value
    certifies existence of a realizing L of length N.  At N d_S = 0 the
    broadcast is empty and serves no user, so the value is 0, verdict false.
    """
    params = {"q": q, "m_prime": m_prime, "N": N, "d_S": d_S}
    if N * d_S == 0:
        return BoundReport.probability(
            "zippel_ic_prob", params, Fraction(0), verdict=False,
            note=f"empty broadcast: N d_S = 0 (N={N}, d_S={d_S}) serves no user",
        )
    if q <= m_prime:
        return BoundReport.probability(
            "zippel_ic_prob", params, Fraction(0),
            note=f"inapplicable: requires q > m_prime, got q={q}, m_prime={m_prime}",
        )
    _check_power(q, N * d_S, "q^(N d_S)")
    raw = Fraction(q - m_prime, q) ** (N * d_S)
    return BoundReport.probability("zippel_ic_prob", params, raw, verdict=raw > 0)


def subspace_avoid_count(w: int, ell: int, s: int, N: int, q: int) -> int:
    """N-dim subspaces U of F_q^s meeting a fixed ell-dim V only inside W.

    W is a w-dim subspace of V.  Exact count, summed over the possible
    intersection dimensions r.
    """
    if not 0 <= w <= ell <= s or N < 0 or N > s:
        raise ValueError("need 0 <= w <= ell <= s and 0 <= N <= s")
    total = 0
    for r in range(w + 1):
        if r > N:
            break
        total += (
            q ** ((ell - r) * (N - r))
            * gaussian_binomial(w, r, q)
            * gaussian_binomial(s - ell, N - r, q)
        )
    return total


def subspace_existence_prob(
    w_list: Sequence[int], d_S: int, N: int, q: int
) -> BoundReport:
    """Probability that a uniform N-dim subspace of the sender space realizes.

    w_list holds dim(cached space meet sender space) per user.  The failure
    term for user i counts N-dim subspaces meeting the (w_i+1)-dim span of
    the intersection and the request only inside the intersection.  The
    strict-inequality verdict is the existence condition for length N.
    """
    params = {"w_list": list(w_list), "d_S": d_S, "N": N, "q": q}
    if N <= d_S:  # else no N-dim subspace exists and no power is built
        _check_power(q, N * d_S, "q^(N d_S)")
    denom = gaussian_binomial(d_S, N, q)
    bad = 0
    for w in w_list:
        if not 0 <= w < d_S:
            raise ValueError(f"w_i must satisfy 0 <= w_i < d_S, got {w}")
        bad += subspace_avoid_count(w, w + 1, d_S, N, q)
    raw = 1 - Fraction(bad, denom)
    return BoundReport.probability(
        "subspace_existence_prob", params, raw, verdict=bad < denom
    )


def hamming_random_ecic_prob(
    d_list: Sequence[int],
    n: int,
    N: int,
    delta: int,
    q: int,
    class_count: int | None = None,
) -> BoundReport:
    """Random-matrix success bound for Hamming-metric error correction.

    Value 1 - sum_i q^(n-d_i-1) (q-1) V_q(N, 2delta) / q^N over the supplied
    users (pass class representatives to use the refined bound).  The verdict
    is the exact existence condition with d = min d_i and the class count.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    for d in d_list:  # a request lies outside its cache, so d_i < n
        if not 0 <= d < n:
            raise ValueError(f"d_i must satisfy 0 <= d_i < n, got {d}")
    _check_power(q, N, "q^N")
    _check_power(q, n - min(d_list) - 1, "q^(n-d-1)")
    params = {
        "d_list": list(d_list), "n": n, "N": N, "delta": delta, "q": q,
        "class_count": class_count,
    }
    vol = sphere_vol_hamming(N, 2 * delta, q)
    raw = 1 - sum(
        Fraction(q ** (n - d - 1) * (q - 1) * vol, q**N) for d in d_list
    )
    if class_count is None:
        class_count = len(d_list)
    d_min = min(d_list)
    verdict = q**N > q ** (n - d_min - 1) * class_count * (q - 1) * vol
    return BoundReport.probability("hamming_random_ecic_prob", params, raw, verdict=verdict)


def q_entropy(x, q: int) -> float:
    """q-ary entropy x log_q(q-1) - x log_q x - (1-x) log_q(1-x) on (0,1)."""
    x = float(x)
    if not 0 < x < 1:
        raise ValueError(f"q_entropy defined on (0,1), got {x}")
    if q < 2:
        raise ValueError("q must be >= 2")
    lq = math.log(q)
    return (
        x * math.log(q - 1) / lq
        - x * math.log(x) / lq
        - (1 - x) * math.log(1 - x) / lq
    )


def entropy_volume_bound_holds(n: int, lam, q: int) -> bool:
    """Check V_q(n, lam*n) <= q^(H_q(lam) n) for a rational lam with lam*n integral.

    The radius lam*n must be an integer; valid for 0 < lam <= 1 - 1/q.
    """
    lam = Fraction(lam)
    radius = lam * n
    if radius.denominator != 1:
        raise ValueError("lam * n must be an integer")
    vol = sphere_vol_hamming(n, int(radius), q)
    return float(vol) <= q ** (q_entropy(lam, q) * n) * (1 + 1e-12)


def singleton_lb(kappa: int, delta: int) -> int:
    """Least possible error-correcting code length: kappa + 2 delta."""
    return kappa + 2 * delta


def griesmer_lb(k: int, d: int, q: int) -> int:
    """Griesmer lower bound on the length of a [n, k, d] linear code."""
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    return sum(math.ceil(d / q**i) for i in range(k))


# Known optimal binary lengths used by the worked examples: N(k, d) -> length.
_OPTIMAL_LENGTH_LOOKUP = {
    (2, 2, 3): 5,
    (2, 3, 3): 6,
}


@dataclass(frozen=True)
class BlockLengthEstimate:
    k: int
    d: int
    q: int
    lower: int
    upper: int | None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.upper == self.lower


def block_length_estimate(k: int, d: int, q: int) -> BlockLengthEstimate:
    """Bracket the optimal length of a k-dimensional distance-d code over F_q.

    Lower bound is Griesmer.  Upper bound: k for d = 1, a shortened extended
    Reed-Solomon length k + d - 1 when q >= k + d - 2, or a shipped lookup
    for the small binary cases; otherwise absent rather than guessed.
    """
    lower = griesmer_lb(k, d, q)
    if d == 1:
        upper = k
    elif q >= k + d - 2:
        upper = k + d - 1
    else:
        upper = _OPTIMAL_LENGTH_LOOKUP.get((q, k, d))
    return BlockLengthEstimate(k, d, q, lower, upper)


@dataclass(frozen=True)
class BracketResult:
    """Sandwich on the optimal error-correcting index code length."""

    alpha: int
    kappa: int
    delta: int
    lower: int
    upper: int | None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.upper == self.lower


def alpha_kappa_bracket(
    inst: IccsiInstance,
    delta: int,
    alpha_value: int | None = None,
    kappa_value: int | None = None,
) -> BracketResult:
    """Bracket the optimal (instance, delta) code length via alpha and kappa.

    The optimal length is at least the best length of a code with dimension
    alpha and distance 2 delta + 1, and at most the corresponding kappa
    length.  Precomputed alpha/kappa values may be passed in to skip the
    searches.  kappa is found first, so that the alpha search can stop
    once it reaches kappa.
    """
    from .minrank import alpha as alpha_search, min_rank

    if kappa_value is None:
        kappa_value = min_rank(inst).kappa
    if alpha_value is None:
        alpha_value = alpha_search(inst, upper=kappa_value).alpha
    d = 2 * delta + 1
    if delta == 0:
        return BracketResult(alpha_value, kappa_value, 0, alpha_value, kappa_value)
    lower = block_length_estimate(alpha_value, d, inst.q).lower
    upper = block_length_estimate(kappa_value, d, inst.q).upper
    return BracketResult(alpha_value, kappa_value, delta, lower, upper)


def hom_count(family_size: int, t: int, r: int, q: int) -> int:
    """Matrices with t columns whose column space lies in a family of r-spaces."""
    return family_size * _rank_count(t, r, r, q)


def z_delta_size(n: int, d_i: int, t: int, delta: int, q: int) -> int:
    """|Z_delta|: confusable n x t matrices of rank at least 2 delta + 1.

    Counts by rank r: column spaces inside the cache kernel but not inside
    the request-restricted kernel, times full-rank maps from F_q^t.
    """
    k = n - d_i
    return sum(
        _rank_count(k, t, r, q) - _rank_count(k - 1, t, r, q)
        for r in range(2 * delta + 1, min(t, k) + 1)
    )


def rank_random_ecic_prob(
    d_list: Sequence[int],
    n: int,
    t: int,
    N: int,
    delta: int,
    q: int,
) -> BoundReport:
    """Random-matrix success bound for rank-metric error correction.

    Value 1 - q^(-N t) sum_i |Z_delta(i)| V(N, t, 2 delta) over the supplied
    users (pass one entry per equivalence class for the refined bound).  The
    verdict is the exact existence condition sum |Z_delta| V < q^(N t).

    The union bound needs P(rank(L V_S Z) <= 2 delta) <= V(N, t, 2 delta)
    q^(-N t) for every confusable Z, which holds for L uniform among the
    F_{q^t}-linear encoders, not for the F_q-linear N x d_S matrices that
    :mod:`iccsi.codec` builds and searches.  For those, a Z of rank r maps
    like a uniform N x r matrix, and the value can exceed the true success
    probability: for two users with d = 1 at q = 2, n = 3, t = 2,
    delta = 0 and N = 4 it is 0.906, while the exact fraction of passing
    F_2-linear L on random such instances is 0.824 or 0.769.
    """
    params = {"d_list": list(d_list), "n": n, "t": t, "N": N, "delta": delta, "q": q}
    for d in d_list:  # a request lies outside its cache, so d_i < n
        if not 0 <= d < n:
            raise ValueError(f"d_i must satisfy 0 <= d_i < n, got {d}")
    _check_power(q, N * t, "q^(N t)")
    _check_power(q, (n - min(d_list, default=n)) * t, "q^((n-d) t)")
    vol = sphere_vol_rank(N, t, 2 * delta, q)
    z_total = sum(z_delta_size(n, d, t, delta, q) for d in d_list)
    raw = 1 - Fraction(z_total * vol, q ** (N * t))
    return BoundReport.probability(
        "rank_random_ecic_prob", params, raw, verdict=z_total * vol < q ** (N * t)
    )


def rank_singleton(alpha_exp: int, t: int, delta: int, n_est: int) -> BoundReport:
    """Rank-metric Singleton lower bound on the optimal code length.

    ``alpha_exp`` is the log_q size of the largest pairwise-confusable set,
    ``n_est`` an estimate of the optimal length used to select the case of
    the rank-distance Singleton bound.  Ceiling-rounded integer result.
    """
    params = {"alpha_exp": alpha_exp, "t": t, "delta": delta, "n_est": n_est}
    if t >= n_est:
        val = Fraction(alpha_exp, t) + 2 * delta
    else:
        if t <= 2 * delta:
            raise ValueError("t <= 2 delta: the long-code case needs t > 2 delta")
        val = Fraction(alpha_exp, t - 2 * delta)
    bound = math.ceil(val)
    return BoundReport(
        "rank_singleton", params, Fraction(bound), val, render_decimal(Fraction(bound))
    )


def instance_w_list(inst: IccsiInstance) -> list[int]:
    """Per-user dimensions of the cache-meet-sender intersection, read off
    the instance's cached coset generators [R_i; W_i]."""
    return [len(gens) - 1 for gens in inst._coset_rows]


def instance_d_list(inst: IccsiInstance) -> list[int]:
    return [u.d for u in inst.users]
