"""Problem instances for index coding with coded side information.

An instance bundles the field, the message shape (n rows of t symbols each),
the sender's row space V_S (d_S x n), and per-user data: a cache matrix V
(d_i x n, the rows whose combinations the user already holds) and a request
row R (1 x n) describing the linear combination the user wants.  A valid
request lies inside the sender space but outside the user's cached space.

V_S and every V are normalized to canonical reduced-echelon bases on
construction, so two instances describing the same spaces compare equal and
rank-deficient inputs are silently deduplicated.

The JSON file format::

    {
      "p": 2, "e": 1,            # field F_{p^e}
      "t": 1,                    # symbols per message row
      "n": 4,
      "sender": [[1,0,0,0], ...],
      "users": [{"V": [[...], ...], "R": [...]}, ...],
      "modulus": [1,1,1]         # optional, little-endian, extension fields
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator, Sequence

from .galois import (
    MAX_POWER_BITS,
    Field,
    Matrix,
    _gf2_rank,
    _pack,
    _random_matrix,
    _unpack,
    field_new,
    mat_rank,
    mat_rref,
    null_space,
    row_basis,
    row_space_contains,
    vstack,
)

# Default cap on elements visited by exhaustive enumerations.
DEFAULT_BUDGET = 1 << 22


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would visit more elements than allowed."""


class InstanceError(ValueError):
    """The instance data violates the format or the validity conditions."""


@dataclass(frozen=True)
class UserSpec:
    """One user's cached space basis V and requested combination R."""

    V: Matrix
    R: Matrix

    @property
    def d(self) -> int:
        return self.V.nrows


@dataclass(frozen=True)
class IccsiInstance:
    field: Field
    t: int
    n: int
    V_S: Matrix
    users: tuple[UserSpec, ...]

    @property
    def m(self) -> int:
        return len(self.users)

    @property
    def d_S(self) -> int:
        return self.V_S.nrows

    @property
    def q(self) -> int:
        return self.field.q

    def d(self, i: int) -> int:
        return self.users[i].d

    def request_matrix(self) -> Matrix:
        """All user requests stacked into an m x n matrix."""
        return vstack(*(u.R for u in self.users))


def make_instance(
    field: Field,
    t: int,
    n: int,
    sender_rows: Iterable[Iterable[int]],
    users: Sequence[tuple[Iterable[Iterable[int]], Iterable[int]]],
) -> IccsiInstance:
    """Build and validate an instance from raw row data.

    ``users`` is a sequence of (V rows, R row) pairs.  Raises
    :class:`InstanceError` with the offending user index on bad data.
    """
    if t < 1:
        raise InstanceError(f"t must be >= 1, got {t}")
    if n < 1:
        raise InstanceError(f"n must be >= 1, got {n}")
    # Message spaces are q^(n t), and the checks build powers up to that
    # size.  Divided, not multiplied, so that no huge n t meets a float.
    if n * t > MAX_POWER_BITS / math.log2(field.q):
        raise InstanceError(
            f"instance size q^(n t) = {field.q}^{n * t} exceeds the "
            f"{MAX_POWER_BITS}-bit cap on exact powers"
        )
    try:
        vs_raw = Matrix(field, sender_rows, n)
    except ValueError as exc:
        raise InstanceError(f"sender matrix: {exc}") from None
    if vs_raw.ncols != n:
        raise InstanceError(f"sender matrix has {vs_raw.ncols} columns, expected {n}")
    V_S = row_basis(vs_raw)
    specs = []
    for i, (v_rows, r_row) in enumerate(users):
        try:
            v_raw = Matrix(field, v_rows, n)
            r = Matrix(field, (r_row,), n)
        except ValueError as exc:
            raise InstanceError(f"user {i}: {exc}") from None
        if v_raw.ncols != n or r.ncols != n:
            raise InstanceError(f"user {i}: row length does not match n={n}")
        V = row_basis(v_raw)
        if r.is_zero():
            raise InstanceError(f"user {i}: request row is zero")
        if not row_space_contains(V_S, r):
            raise InstanceError(f"user {i}: request outside the sender space")
        if row_space_contains(V, r):
            raise InstanceError(f"user {i}: request already in the cached space")
        specs.append(UserSpec(V, r))
    if not specs:
        raise InstanceError("instance needs at least one user")
    return IccsiInstance(field, t, n, V_S, tuple(specs))


def parse_instance(source: str | dict) -> IccsiInstance:
    """Parse an instance from a JSON string or an already-decoded dict."""
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise InstanceError("top-level JSON value must be an object")
    required = {"p", "e", "t", "n", "sender", "users"}
    missing = required - doc.keys()
    if missing:
        raise InstanceError(f"missing keys: {sorted(missing)}")
    try:
        p, e, t, n = (int(doc[k]) for k in ("p", "e", "t", "n"))
    except (TypeError, ValueError):
        raise InstanceError("p, e, t, n must be integers") from None
    modulus = doc.get("modulus")
    if modulus is not None and not (
        isinstance(modulus, list) and all(isinstance(c, int) for c in modulus)
    ):
        raise InstanceError("modulus must be a list of integers")
    try:
        fld = field_new(p, e, modulus)
    except ValueError as exc:
        raise InstanceError(str(exc)) from None
    users_doc = doc["users"]
    if not isinstance(users_doc, list):
        raise InstanceError("users must be a list")
    users = []
    for i, u in enumerate(users_doc):
        if not isinstance(u, dict) or "V" not in u or "R" not in u:
            raise InstanceError(f"user {i}: must be an object with V and R")
        users.append((u["V"], u["R"]))
    return make_instance(fld, t, n, doc["sender"], users)


def load_instance(path: str) -> IccsiInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def serialize_instance(inst: IccsiInstance) -> dict:
    """Dict form of the instance; json.dumps of it parses back to equality."""
    doc = {
        "p": inst.field.p,
        "e": inst.field.e,
        "t": inst.t,
        "n": inst.n,
        "sender": [list(r) for r in inst.V_S.rows],
        "users": [
            {"V": [list(r) for r in u.V.rows], "R": list(u.R.rows[0])} for u in inst.users
        ],
    }
    if inst.field.e > 1:
        doc["modulus"] = list(inst.field.modulus)
    return doc


def save_instance(inst: IccsiInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_compact(serialize_instance(inst)))
        fh.write("\n")


def dump_compact(doc: dict) -> str:
    """JSON with one top-level key per line and compact values."""
    parts = [f'"{k}": {json.dumps(v)}' for k, v in doc.items()]
    return "{\n " + ",\n ".join(parts) + "\n}"


def from_icsi(
    n: int,
    demands: Sequence[int],
    side_sets: Sequence[Iterable[int]],
    p: int = 2,
    e: int = 1,
    t: int = 1,
) -> IccsiInstance:
    """Classical index coding instance: uncoded caches and unit demands.

    ``demands[i]`` is the 0-based message index user i wants; ``side_sets[i]``
    the set of message indices it holds.  The sender knows everything.
    """
    if len(demands) != len(side_sets):
        raise InstanceError("demands and side_sets length mismatch")
    fld = field_new(p, e)
    users = []
    for i, (f_i, xs) in enumerate(zip(demands, side_sets)):
        xs = sorted(set(xs))
        if not 0 <= f_i < n:
            raise InstanceError(f"user {i}: demand index {f_i} out of range")
        if any(not 0 <= j < n for j in xs):
            raise InstanceError(f"user {i}: side information index out of range")
        if f_i in xs:
            raise InstanceError(f"user {i}: demand {f_i} already in side information")
        v_rows = [[1 if c == j else 0 for c in range(n)] for j in xs]
        r_row = [1 if c == f_i else 0 for c in range(n)]
        users.append((v_rows, r_row))
    ident = [[1 if c == j else 0 for c in range(n)] for j in range(n)]
    return make_instance(fld, t, n, ident, users)


def intersection_basis(a: Matrix, b: Matrix) -> Matrix:
    """Canonical basis of rowspace(a) meet rowspace(b), one basis row per line.

    Zassenhaus: one RREF of [a a; b 0].  Its rows with a pivot in the
    right half are zero on the left, and their right halves are the reduced
    echelon basis of the intersection.
    """
    if a.field != b.field or a.ncols != b.ncols:
        raise ValueError("intersection shape or field mismatch")
    n = a.ncols
    zero = (0,) * n
    rows = tuple(r + r for r in a.rows) + tuple(r + zero for r in b.rows)
    res = mat_rref(Matrix._trusted(a.field, rows, 2 * n))
    return Matrix._trusted(
        a.field,
        tuple(res.rref.rows[k][n:] for k, col in enumerate(res.pivots) if col >= n),
        n,
    )


def one_symbol_view(inst: IccsiInstance) -> IccsiInstance:
    """The t = 1 instance with the same spaces and requests."""
    if inst.t == 1:
        return inst
    return IccsiInstance(inst.field, 1, inst.n, inst.V_S, inst.users)


def confusable_count(inst: IccsiInstance, i: int) -> int:
    """|Z^(i)|: matrices Z with V^(i) Z = 0 and R_i Z != 0, counted exactly."""
    q, t = inst.q, inst.t
    k = inst.n - inst.users[i].d
    return q ** (k * t) - q ** ((k - 1) * t)


def _walk_setup(
    inst: IccsiInstance, i: int, extra: Matrix | None = None
) -> tuple[Matrix, int]:
    """G = [R_i K; K; extra K] and k, for K (n x k) the canonical kernel
    basis of V^(i); the column G c holds R_i Z, Z and ``extra`` Z for
    Z = K c.
    """
    u = inst.users[i]
    K = null_space(u.V)
    G = vstack(u.R * K, K, extra * K) if extra is not None else vstack(u.R * K, K)
    return G, K.ncols


def _confusable_walk(
    inst: IccsiInstance,
    i: int,
    budget: int | None = None,
    extra: Matrix | None = None,
) -> Iterator[list]:
    """Walk user i's confusable set Z = K C, one column add per step.

    K is the canonical kernel basis of V^(i) (n x k) and C runs over
    F_q^{k x t} in :func:`iter_vectors` order, column-major with entry
    (0, 0) fastest.  The walk keeps the t columns of G C, where G stacks
    R_i K (one row), K (n rows) and, when given, ``extra`` K.  Raising one
    digit of C from a to a + 1 (mod q) adds the precomputed column
    (a + 1 - a) g_j to one column of G C, so a step costs q / (q - 1)
    column adds on average, and no matrix is built.

    Yields the list of the t columns whenever R_i K C is nonzero; each
    column holds R_i Z, Z and ``extra`` Z, tuples over F_q and packed rows
    over GF(2), read through :func:`_walk_blocks`.  The list is updated in
    place by the next step.  Raises :class:`BudgetExceeded` when q^(k t)
    exceeds the budget.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    G, k = _walk_setup(inst, i, extra)
    t = inst.t
    f = inst.field
    q = f.q
    if q ** (k * t) > budget:
        raise BudgetExceeded(
            f"user {i}: kernel enumeration size {q}^{k * t} exceeds budget {budget}"
        )
    if q == 2:
        yield from _confusable_walk_gf2(G, k, t)
        return
    add, sub, scaler = f.add, f.sub, f.scaler
    # steps[j][a]: the column added when a digit on g_j moves from a to a + 1.
    steps = [
        [tuple(map(scaler(sub((a + 1) % q, a)), g)) for a in range(q)]
        for g in G.transpose().rows
    ]
    plan = [(c, steps[j]) for c in range(t) for j in range(k)]
    digits = [0] * (k * t)
    cols = [(0,) * G.nrows] * t
    while True:
        if any(col[0] for col in cols):
            yield cols
        for pos, (c, step) in enumerate(plan):
            a = digits[pos]
            cols[c] = tuple(map(add, cols[c], step[a]))
            if a + 1 < q:
                digits[pos] = a + 1
                break
            digits[pos] = 0
        else:
            return


def _confusable_walk_gf2(G: Matrix, k: int, t: int) -> Iterator[list[int]]:
    """:func:`_confusable_walk` over GF(2), with the columns of G C packed.

    C counts in binary, digit 0 lowest, so the step to count s flips digits
    0..p, p the lowest set bit of s, and the column a digit on g_j adds is
    g_j whichever way it flips.  ``flips[p]`` holds the XOR each column
    takes for those digits.  The R_i K C entry is the top bit.
    """
    top = G.nrows - 1
    gs = [_pack(g) for g in G.transpose().rows]
    flips = []
    acc = [0] * t
    for p in range(k * t):
        acc[p // k] ^= gs[p % k]
        flips.append(list(enumerate(acc[: p // k + 1])))
    cols = [0] * t
    for s in range(1, 1 << (k * t)):
        for c, x in flips[(s & -s).bit_length() - 1]:
            cols[c] ^= x
        if max(cols) >> top:
            yield cols


class _WalkBlocks:
    """Reads the blocks of the columns :func:`_confusable_walk` yields.

    A column holds R_i Z, then Z (n entries), then the ``extra`` Z block
    (N entries).  The readers take one column or the walk's list of t
    columns; consumers use them and never index a column themselves.
    """

    def __init__(self, inst: IccsiInstance, N: int = 0):
        self.field, self.n, self.t, self.N = inst.field, inst.n, inst.t, N
        self.zero = (0,) * (1 + inst.n + N)  # a zero column

    def z_vec(self, col):
        """One column's Z block: a tuple here, a packed int over GF(2),
        hashable and ordered as the tuple either way."""
        return col[1:self.n + 1]

    def z(self, cols: list) -> Matrix:
        """Z, from the Z blocks of the t columns."""
        return Matrix._trusted(self.field, tuple(zip(*map(self.z_vec, cols))), self.t)

    def z_rank(self, cols: list) -> int:
        """rank(Z), from the Z blocks of the t columns."""
        return mat_rank(Matrix._trusted(self.field, tuple(map(self.z_vec, cols)), self.n))

    def extra_weight(self, col) -> int:
        """Hamming weight of one column's extra block."""
        return self.N - col[self.n + 1:].count(0)

    def extra_rank(self, cols: list) -> int:
        """Rank of the t extra blocks, the transpose of extra Z."""
        stop = self.n + 1
        return mat_rank(Matrix._trusted(self.field, tuple(col[stop:] for col in cols), self.N))


class _PackedWalkBlocks(_WalkBlocks):
    """:class:`_WalkBlocks` over GF(2), where the walk packs each column
    (see :mod:`iccsi.galois`): R_i Z is bit n + N, Z the next n bits and
    the extra block the low N bits.
    """

    def __init__(self, inst: IccsiInstance, N: int = 0):
        super().__init__(inst, N)
        self.zero = 0
        self._low = (1 << N) - 1
        self._zmask = (1 << inst.n) - 1

    def z_vec(self, col: int) -> int:
        return col >> self.N & self._zmask

    def z(self, cols: list) -> Matrix:
        # Row r of Z packs bit n - 1 - r of each column's Z block.
        zcols = [col >> self.N for col in cols]
        rows = tuple(
            _unpack(_pack([x >> s & 1 for x in zcols]), self.t)
            for s in range(self.n - 1, -1, -1)
        )
        return Matrix._trusted(self.field, rows, self.t)

    def z_rank(self, cols: list) -> int:
        N, zmask = self.N, self._zmask
        return _gf2_rank([col >> N & zmask for col in cols])

    def extra_weight(self, col: int) -> int:
        return (col & self._low).bit_count()

    def extra_rank(self, cols: list) -> int:
        low = self._low
        return _gf2_rank([col & low for col in cols])


def _walk_blocks(inst: IccsiInstance, N: int = 0) -> _WalkBlocks:
    """The block readers for walks of ``inst`` with an N-row ``extra``."""
    return _PackedWalkBlocks(inst, N) if inst.q == 2 else _WalkBlocks(inst, N)


def iter_confusable(
    inst: IccsiInstance, i: int, budget: int | None = None
) -> Iterator[Matrix]:
    """Yield every confusable matrix Z for user i in a deterministic order.

    Z ranges over n x t matrices with V^(i) Z = 0 and R_i Z != 0.  They are
    generated as K * C where the columns of K form the canonical kernel basis
    of V^(i) and C runs over F_q^{k x t} in odometer order (entry (0, 0)
    fastest, column-major).  Raises :class:`BudgetExceeded` when q^(k t)
    exceeds the budget.
    """
    blocks = _walk_blocks(inst)
    for cols in _confusable_walk(inst, i, budget):
        yield blocks.z(cols)


def _confusable_draws(
    inst: IccsiInstance, i: int, count: int, seed: int, extra: Matrix | None = None
) -> Iterator[list]:
    """``count`` uniform draws from user i's confusable set, as walk columns.

    Each draw is a uniform C in F_q^{k x t}, redrawn while R_i K C = 0, and
    is yielded as the t columns of G C in :func:`_confusable_walk`'s format
    (G as there), so :func:`_walk_blocks` reads them.  Each user gets its
    own deterministic stream derived from (seed, i), so per-user checks stay
    reproducible regardless of evaluation order.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
    G, k = _walk_setup(inst, i, extra)
    f, t = inst.field, inst.t
    pack = _pack if f.q == 2 else tuple
    top = pack((1,) + (0,) * (G.nrows - 1))  # the least column with R_i Z != 0
    while count > 0:
        cols = list(map(pack, (G * _random_matrix(rng, f, k, t)).transpose().rows))
        if max(cols) >= top:
            count -= 1
            yield cols


def sample_confusable(
    inst: IccsiInstance, i: int, count: int, seed: int
) -> Iterator[Matrix]:
    """Yield ``count`` uniform draws from user i's confusable set.

    Reads Z off :func:`_confusable_draws`, where each user gets its own
    deterministic stream derived from (seed, i), so per-user checks stay
    reproducible regardless of evaluation order.
    """
    return map(_walk_blocks(inst).z, _confusable_draws(inst, i, count, seed))
