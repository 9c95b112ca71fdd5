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
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .galois import (
    MAX_POWER_BITS,
    Field,
    Matrix,
    _as_int,
    _from_rows,
    _row_echelon,
    _row_weight,
    _span_walk,
    field_new,
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
    """One user's cached space basis V and requested combination R.

    The kernel of V and the walk's rows derived from it are cached on the
    user, built on first use; they are not fields, so they never take part
    in equality or hashing.
    """

    V: Matrix
    R: Matrix

    @property
    def d(self) -> int:
        return self.V.nrows

    @cached_property
    def kernel(self) -> Matrix:
        """The canonical kernel basis of V, the columns of an n x (n - d)
        matrix, computed once per user."""
        return null_space(self.V)

    @cached_property
    def _walk_rows(self) -> tuple[tuple, object, tuple]:
        """(cols, top, kt) for the kernel K, computed once per user.

        ``cols`` are the k columns of [R K; K] in the row format, ``top`` is
        the row (1, 0, ..., 0) of their width, and ``kt`` holds the rows of
        K^T as entry tuples, so that :func:`_walk_setup` forms the columns
        of extra K with one product.
        """
        fmt, K = self.V.field._fmt, self.kernel
        G = vstack(self.R * K, K)
        top = fmt.pack((1,) + (0,) * (G.nrows - 1))
        return tuple(fmt.to_rows(G.transpose().rows)), top, K.transpose().rows


@dataclass(frozen=True)
class IccsiInstance:
    """A validated instance: field, t, n, the sender basis V_S and the users.

    The searches' fixed row data, each user's coset generators and
    realization-check rows, is cached on the instance in the row format,
    built on first use; it is not a field, so it never takes part in
    equality or hashing.
    """

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

    @cached_property
    def _coset_rows(self) -> tuple[tuple, ...]:
        """Per user, the rows [R_i; W_i] in the row format, for W_i the
        canonical basis of V^(i) meet V_S (:func:`intersection_basis`): the
        generators of the user's min-rank coset, not its q^w members."""
        fmt, V_S = self.field._fmt, self.V_S
        return tuple(
            tuple(fmt.to_rows(u.R.rows + intersection_basis(u.V, V_S).rows))
            for u in self.users
        )

    @cached_property
    def _realization_rows(self) -> tuple[tuple, tuple]:
        """(V_S rows, per user (echelon pairs of V^(i), R_i row)), all in
        the row format, the pairs made by :func:`_row_echelon`."""
        f, fmt = self.field, self.field._fmt
        users = tuple(
            (tuple(_row_echelon(f, fmt.to_rows(u.V.rows), self.n)), fmt.pack(u.R.rows[0]))
            for u in self.users
        )
        return tuple(fmt.to_rows(self.V_S.rows)), users


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
    V_S = row_basis(vs_raw)
    specs = []
    for i, (v_rows, r_row) in enumerate(users):
        try:
            v_raw = Matrix(field, v_rows, n)
            r = Matrix(field, (r_row,), n)
        except ValueError as exc:
            raise InstanceError(f"user {i}: {exc}") from None
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


def _parse_json(text: str):
    """The JSON value of text; malformed or too deeply nested text raises
    InstanceError, not JSONDecodeError or RecursionError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from None


def parse_instance(source: str | dict) -> IccsiInstance:
    """Parse an instance from a JSON string or an already-decoded dict."""
    doc = _parse_json(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise InstanceError("top-level JSON value must be an object")
    required = {"p", "e", "t", "n", "sender", "users"}
    missing = required - doc.keys()
    if missing:
        raise InstanceError(f"missing keys: {sorted(missing)}")
    try:
        p, e, t, n = (_as_int(doc[k]) for k in ("p", "e", "t", "n"))
    except TypeError:
        raise InstanceError("p, e, t, n must be integers") from None
    modulus = doc.get("modulus")
    if modulus is not None and not (
        isinstance(modulus, list)
        and all(isinstance(c, int) and not isinstance(c, bool) for c in modulus)
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
    f, fmt, n = a.field, a.field._fmt, a.ncols
    zero = (0,) * n
    rows = [r + r for r in a.rows] + [r + zero for r in b.rows]
    work, pivots, _ = fmt.rref(fmt.to_rows(rows), 2 * n)
    right = fmt.block(n, 2 * n, 2 * n)
    return _from_rows(f, [right(work[k]) for k, col in enumerate(pivots) if col >= n], n)


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
    inst: IccsiInstance, i: int, extra: tuple[int, Sequence] | None = None
) -> tuple[Sequence, object, int]:
    """The g_j, ``top`` and the width of G = [R_i K; K; extra K], for K
    (n x k) the canonical kernel basis of V^(i).

    The g_j are the k columns of G in the row format, so column c of G C is
    the sum of C[j][c] g_j and holds R_i Z, Z and ``extra`` Z for Z = K C.
    ``top`` is the row (1, 0, ..., 0): a column is at least ``top`` exactly
    when its R_i Z entry is nonzero, in either format.  The columns of
    [R_i K; K] are the user's cached ``_walk_rows``; only extra K depends on
    the call, its columns the rows of K^T extra^T.  ``extra`` comes as
    (N, the n rows of extra^T in the row format), converted once by the
    caller for all its users.
    """
    cols, top, kt = inst.users[i]._walk_rows
    width = 1 + inst.n
    if extra is None:
        return cols, top, width
    fmt, (N, extra_t) = inst.field._fmt, extra
    join = fmt.join(N)
    ek = fmt.mul(kt, extra_t, N)
    return tuple(map(join, cols, ek)), join(top, fmt.zero(N)), width + N


def _confusable_walk(
    inst: IccsiInstance,
    i: int,
    budget: int | None = None,
    extra: tuple[int, Sequence] | None = None,
) -> Iterator[list]:
    """Walk user i's confusable set Z = K C, one precomputed row add per step.

    K is the canonical kernel basis of V^(i) (n x k) and C runs over
    F_q^{k x t} in :func:`~iccsi.galois._span_walk`'s modular p-ary Gray
    code, which keeps the t columns of G C (G and the g_j as in
    :func:`_walk_setup`) and changes one of them per step.

    Yields the list of the t columns whenever R_i K C is nonzero;
    :class:`_WalkBlocks` reads them.  The list is updated in place by the
    next step.  Raises :class:`BudgetExceeded` when q^(k t) exceeds the
    budget, on the first ``next``.  The Hamming check of
    :func:`~iccsi.codec.verify_ecic` is its one certificate consumer.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    gs, top, width = _walk_setup(inst, i, extra)
    q, kt = inst.q, len(gs) * inst.t
    if q**kt > budget:
        raise BudgetExceeded(
            f"user {i}: kernel enumeration size {q}^{kt} exceeds budget {budget}"
        )
    yield from _span_walk(inst.field, gs, inst.t, width, top)


class _WalkBlocks:
    """Reads the blocks of the columns :func:`_confusable_walk` yields.

    A column holds R_i Z, then Z (n entries), then the ``extra`` Z block
    (N entries), as one row in the row format.  The readers take one
    column or the walk's list of t columns; consumers use them and never
    index a column themselves.
    """

    def __init__(self, inst: IccsiInstance, N: int = 0):
        f = inst.field
        self.field, self.n, self.t = f, inst.n, inst.t
        width = 1 + inst.n + N
        # One column's Z block: a row in the row format, hashable and
        # ordered as its entry tuple.
        self.z_vec = f._fmt.block(1, 1 + inst.n, width)
        # extra_weight(col): the Hamming weight of one column's extra block.
        self.extra_weight = _row_weight(f, 1 + inst.n, width, width)

    def z(self, cols: list) -> Matrix:
        """Z, from the Z blocks of the t columns."""
        f, fmt = self.field, self.field._fmt
        entries = zip(*map(fmt.unpacker(self.n), map(self.z_vec, cols)))
        # The round trip through the row format keeps short GF(2) rows
        # shared, so kept matrices hold no copies of them.
        return _from_rows(f, fmt.to_rows(entries), self.t)


def iter_confusable(
    inst: IccsiInstance, i: int, budget: int | None = None
) -> Iterator[Matrix]:
    """Yield every confusable matrix Z for user i in a deterministic order.

    Z ranges over n x t matrices with V^(i) Z = 0 and R_i Z != 0.  They are
    generated as K * C where the columns of K form the canonical kernel basis
    of V^(i) and C runs over F_q^{k x t} in the modular p-ary Gray code of
    :func:`~iccsi.galois._span_walk`: after step s, base-p digit d of C is
    (s_d - s_(d+1)) mod p for s_d those of s, and entry m of C, column-major
    with m = c k + j, is digits m e .. m e + e - 1.  Raises
    :class:`BudgetExceeded` when q^(k t) exceeds the budget.
    """
    return map(_WalkBlocks(inst).z, _confusable_walk(inst, i, budget))
