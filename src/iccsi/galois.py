"""Finite-field arithmetic and exact linear algebra over F_q, q = p^e.

Field elements are plain Python ints in ``range(q)``.  An element encodes the
coefficient vector of a residue polynomial in base p, least significant digit
first: the integer ``d0 + d1*p + ... + d_{e-1}*p^(e-1)`` stands for
``d0 + d1*x + ... + d_{e-1}*x^(e-1)`` modulo the field's irreducible modulus.
For prime fields (e = 1) this is ordinary arithmetic mod p.  For p = 2 the
encoding makes addition a bitwise XOR.

Multiplication uses exp/log tables built from a generator of the
multiplicative group, so q is capped at 2**16; for p = 2 the tables are
filled by shift-and-XOR multiplication by the generator.  The moduli
shipped for the fields used throughout the package are

    F_4 : x^2 + x + 1
    F_8 : x^3 + x + 1
    F_9 : x^2 + 1
    F_16: x^4 + x + 1

and any other modulus passed in is checked for irreducibility.  When no
modulus is given for an extension field outside the table, the
lexicographically smallest monic irreducible polynomial is used, which keeps
element encodings reproducible across runs.

Matrices are immutable row-major tuples of tuples over a fixed field.  The
solvers are canonical: RREF, solve and null space scan columns left to right,
and underdetermined systems are resolved by setting every free variable to
zero, so equal inputs always produce identical outputs.  Beside the RREF
there is one reduction, :func:`_echelon_reduce`, of a row against an echelon
basis.  Solves run it against the RREF rows widened by their transform
rows, and :func:`_row_insert` (over GF(2) in its packed form) on each new
row, for rank, the min-rank search and the realization test alike.

Hot loops keep their rows in one row format, chosen in this module alone:
over GF(2) a 0/1 row is an int bitmask with entry 0 the most significant
bit, so int order is tuple order, add is ``^`` and Hamming weight is
``int.bit_count()``; over F_q it is an entry tuple.  :func:`_to_rows`,
:func:`_from_row`, :func:`_from_rows`, :func:`_zero_row` and the
``_row_*`` helpers are the only code that branches on the format (over
GF(2) they run :func:`_pack`, :func:`_unpack` and
:func:`_echelon_insert_gf2`), so the confusable walk and its reader, ``alpha``,
``min_rank``, the syndrome decoder, the rank-trap decoder, the demand solve
and both kinds of trial hold one body for every field.
:func:`_tuple_mul` is the tuple product under both ``_row_mul`` and
``Matrix.__mul__``.  ``Matrix`` and every public result stay tuple-based.

Validation happens once, at the I/O boundary.  The public ``Matrix(...)``
constructor checks every row length and entry, and it is what parsers, file
loaders and callers outside the package use.  Every matrix this module
computes (sums, products, slices, stacks, eliminations, solutions) is built
with the unchecked :meth:`Matrix._trusted`, because its entries come from
field operations on already-valid matrices; so are the matrices other
modules of the package compute the same way.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_FIELD_ORDER = 1 << 16
# Cap on the bit length of an exact power q^k: of the bounds' q^(N t) and
# the like, and of an instance's q^(n t).  Exact arithmetic past this size
# takes seconds to hours.
MAX_POWER_BITS = 1 << 15
# Largest extension degree below the order cap (p >= 2).
_MAX_DEGREE = MAX_FIELD_ORDER.bit_length() - 1
# Largest field whose q x q product table Field.scaler keeps.
_SCALE_TABLE_MAX = 256

# Shipped moduli, little-endian coefficient tuples including the leading 1.
_CANONICAL_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomials over F_p, little-endian digit lists."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[dd], p - 2, p) if p > 2 else den[dd]
    quot = [0] * max(1, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        f = (c * inv_lead) % p
        quot[k - dd] = f
        for j in range(dd + 1):
            num[k - dd + j] = (num[k - dd + j] - f * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(mod) - 1
    if deg < 1 or mod[deg] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod(list(mod), den, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _clmul_mod(a: int, b: int, mod: int) -> int:
    """Product of GF(2)[x] bitmasks a * b, bit i the x^i coefficient.

    a must be reduced; mod is the modulus with its leading bit.
    """
    top = mod.bit_length() - 1
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> top & 1:
            a ^= mod
    return out


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    for tail in itertools.product(range(p), repeat=e):
        cand = list(tail) + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """Arithmetic in F_q with precomputed multiplication tables.

    Instances are cached by (p, e, modulus); use :func:`field_new`.
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        # Size caps first: the primality test and p**e cost time and memory
        # that grow with p and e.
        if p > MAX_FIELD_ORDER:
            raise ValueError(
                f"field characteristic {p} exceeds supported maximum {MAX_FIELD_ORDER}"
            )
        if e > _MAX_DEGREE:
            raise ValueError(
                f"field extension degree {e} exceeds supported maximum {_MAX_DEGREE}"
            )
        if not _is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"field extension degree {e} must be >= 1")
        q = p**e
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
        if e == 1:
            if modulus is not None and tuple(modulus) not in ((0, 1),):
                raise ValueError("prime fields take no modulus")
            modulus = (0, 1)
        elif modulus is None:
            modulus = _CANONICAL_MODULI.get((p, e)) or _smallest_irreducible(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[e] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            if not _poly_is_irreducible(modulus, p):
                raise ValueError("modulus polynomial is reducible")
        self.p = p
        self.e = e
        self.q = q
        self.modulus: tuple[int, ...] = tuple(modulus)
        self._build_tables()
        if p == 2:
            # Characteristic 2: the base-2 digit encoding makes + and - XOR,
            # and every element is its own negative.
            self.add = operator.xor
            self.sub = operator.xor
            self.neg = operator.pos
            if q == 2:
                self.mul = operator.and_
        elif e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: (-a) % p
        else:
            self.add = self._add_digits
            self.sub = self._sub_digits
            self.neg = self._neg_digits

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product of encoded elements, reduced by the modulus."""
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        da = [(a // p**i) % p for i in range(e)]
        db = [(b // p**i) % p for i in range(e)]
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        _, rem = _poly_divmod(prod, list(self.modulus), p)
        out = 0
        for i, c in enumerate(rem):
            out += c * p**i
        return out

    def _pow_raw(self, a: int, k: int) -> int:
        """a^k by square-and-multiply on :meth:`_mul_raw`, k >= 0."""
        out = 1
        while k:
            if k & 1:
                out = self._mul_raw(out, a)
            k >>= 1
            if k:
                a = self._mul_raw(a, a)
        return out

    def _build_tables(self) -> None:
        q = self.q
        # The first candidate of multiplicative order q - 1 generates the
        # group: g^((q-1)/r) != 1 for every prime r dividing q - 1.
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        gen = next(
            cand
            for cand in range(1, q)
            if all(self._pow_raw(cand, k) != 1 for k in cofactors)
        )
        if self.p == 2:
            # Shift-and-XOR by the generator, reduced by the modulus bitmask.
            mod = sum(c << i for i, c in enumerate(self.modulus))
            times_gen = functools.partial(_clmul_mod, b=gen, mod=mod)
        else:
            times_gen = functools.partial(self._mul_raw, b=gen)
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = times_gen(x)
        self.generator = gen
        self._exp = exp
        self._log = log
        self._scale_rows = None
        if q <= _SCALE_TABLE_MAX:
            # Row a of the product table: a * x = exp[log a + log x] for x != 0.
            ext = exp + exp
            logs = log[1:]
            self._scale_rows = ((0,) * q,) + tuple(
                (0, *[ext[la + lx] for lx in logs]) for la in logs
            )
            # scaler(a) is then itself one C call, a tuple lookup.
            self.scaler = tuple(row.__getitem__ for row in self._scale_rows).__getitem__

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _sub_digits(self, a: int, b: int) -> int:
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((a - b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _neg_digits(self, a: int) -> int:
        p = self.p
        out, shift = 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * shift
            a //= p
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def scaler(self, a: int):
        """The map x -> a * x.  For q <= 256 an instance attribute set by
        the table build replaces this method; its maps are product-table
        row lookups, in C."""
        return functools.partial(self.mul, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if k else 1
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"Field(GF({self.p}))"
        return f"Field(GF({self.p}^{self.e}), modulus={list(self.modulus)})"


_FIELD_CACHE: dict[tuple, Field] = {}


def field_new(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Return the field F_{p^e}, cached so repeated calls share tables."""
    key = (p, e, tuple(modulus) if modulus is not None else None)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = Field(p, e, modulus)
        _FIELD_CACHE[key] = f
    return f


def field_of_order(q: int) -> Field:
    """Return F_q for a prime power q, factoring q as p^e."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p**e < q:
        e += 1
    return field_new(p, e)


_new = object.__new__
_setattr = object.__setattr__


def _as_int(x) -> int:
    """x as an int when it is an integer (a numpy integer too); TypeError
    for a bool, a float, a string or anything else."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not an integer")
    return operator.index(x)


class Matrix:
    """Immutable matrix over a :class:`Field`, rows stored as tuples of ints.

    ``Matrix(field, rows, ncols)`` validates its input and raises ValueError
    unless the rows are integer sequences of equal length with every entry in
    ``range(q)``; see :func:`_as_int` for what counts as an integer.  Kernels
    build their results with :meth:`_trusted`, which skips those checks.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]], ncols: int | None = None):
        try:
            data = tuple(tuple(map(_as_int, r)) for r in rows)
        except TypeError:
            raise ValueError("rows must be a list of lists of integers") from None
        if data:
            ncols_seen = len(data[0])
            if any(len(r) != ncols_seen for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != ncols_seen:
                raise ValueError("ncols does not match row length")
            ncols = ncols_seen
        elif ncols is None:
            ncols = 0
        q = field.q
        for r in data:
            for x in r:
                if not 0 <= x < q:
                    raise ValueError(f"entry {x} outside field of order {q}")
        _setattr(self, "field", field)
        _setattr(self, "rows", data)
        _setattr(self, "nrows", len(data))
        _setattr(self, "ncols", ncols)

    @classmethod
    def _trusted(cls, field: Field, rows: tuple[tuple[int, ...], ...], ncols: int) -> "Matrix":
        """Unchecked constructor for results of field operations.

        ``rows`` must already be a tuple of int tuples, each of length
        ``ncols``, with entries in ``range(field.q)``.
        """
        self = _new(cls)
        _setattr(self, "field", field)
        _setattr(self, "rows", rows)
        _setattr(self, "nrows", len(rows))
        _setattr(self, "ncols", ncols)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._trusted(field, ((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._trusted(field, _unit_rows(n), n)

    @classmethod
    def row_vector(cls, field: Field, entries: Iterable[int]) -> "Matrix":
        return cls(field, (tuple(entries),))

    @classmethod
    def column_vector(cls, field: Field, entries: Iterable[int]) -> "Matrix":
        return cls(field, ((x,) for x in entries), 1)

    # -- basic accessors ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {[list(r) for r in self.rows]})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        add = self.field.add
        rows = tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        return Matrix._trusted(self.field, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        sub = self.field.sub
        rows = tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        return Matrix._trusted(self.field, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        rows = tuple(tuple(map(neg, r)) for r in self.rows)
        return Matrix._trusted(self.field, rows, self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Product by row combination: row i is the sum of a_ik * row_k(other)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        f = self.field
        if f != other.field:
            raise ValueError("fields differ")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        out = _tuple_mul(f, self.rows, other.rows, other.ncols)
        return Matrix._trusted(f, tuple(out), other.ncols)

    def scale(self, c: int) -> "Matrix":
        scale = self.field.scaler(c)
        rows = tuple(tuple(map(scale, r)) for r in self.rows)
        return Matrix._trusted(self.field, rows, self.ncols)

    def transpose(self) -> "Matrix":
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Matrix._trusted(self.field, rows, self.nrows)

    # -- slicing -------------------------------------------------------

    def take_rows(self, idx: Sequence[int]) -> "Matrix":
        rows = self.rows
        return Matrix._trusted(self.field, tuple(rows[i] for i in idx), self.ncols)

    def take_cols(self, idx: Sequence[int]) -> "Matrix":
        rows = tuple(tuple(r[j] for j in idx) for r in self.rows)
        return Matrix._trusted(self.field, rows, len(idx))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("fields differ")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the n x n identity."""
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def _random_matrix(rng, field: Field, nrows: int, ncols: int) -> Matrix:
    """Uniform nrows x ncols matrix drawn from a numpy Generator.

    ``rng.integers(0, q)`` draws only from ``range(q)``, so the result is
    built unchecked.
    """
    entries = rng.integers(0, field.q, size=(nrows, ncols)).tolist()
    return Matrix._trusted(field, tuple(map(tuple, entries)), ncols)


def vstack(*mats: Matrix) -> Matrix:
    field = mats[0].field
    ncols = mats[0].ncols
    rows: list[tuple[int, ...]] = []
    for m in mats:
        if m.field != field or m.ncols != ncols:
            raise ValueError("vstack shape or field mismatch")
        rows.extend(m.rows)
    return Matrix._trusted(field, tuple(rows), ncols)


def hstack(*mats: Matrix) -> Matrix:
    field = mats[0].field
    nrows = mats[0].nrows
    for m in mats:
        if m.field != field or m.nrows != nrows:
            raise ValueError("hstack shape or field mismatch")
    rows = tuple(sum((m.rows[i] for m in mats), ()) for i in range(nrows))
    return Matrix._trusted(field, rows, sum(m.ncols for m in mats))


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form together with the applied row transform.

    ``transform`` is invertible with ``transform * input == rref``; ``pivots``
    lists the pivot column of each nonzero row in order.
    """

    rref: Matrix
    pivots: tuple[int, ...]
    transform: Matrix

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _clear_column(work: list, col: int, r: int, sub, scaler) -> None:
    """Zero column col in every row of work except pivot row r.

    Each row op is a whole-row map.  In characteristic 2 sub is XOR, so the
    map runs in C, and so does the scaling by a multiplier other than 1
    for q <= 256 (a product-table row lookup).
    """
    rowr = work[r]
    for i in range(len(work)):
        if i != r:
            x = work[i][col]
            if x:
                scaled = rowr if x == 1 else map(scaler(x), rowr)
                work[i] = tuple(map(sub, work[i], scaled))


def mat_rref(m: Matrix, stop: int | None = None) -> RrefResult:
    """Canonical reduced row echelon form, scanning columns left to right.

    With ``stop`` the pivots are sought in the first ``stop`` columns only,
    so the result is the transform of the RREF of those columns times all
    of ``m``.
    """
    f = m.field
    sub, scaler, inv = f.sub, f.scaler, f.inv
    n, c = m.nrows, m.ncols
    work = [r + u for r, u in zip(m.rows, _unit_rows(n))]
    pivots: list[int] = []
    r = 0
    for col in range(c if stop is None else stop):
        sel = next((i for i in range(r, n) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        piv = work[r][col]
        if piv != 1:
            work[r] = tuple(map(scaler(inv(piv)), work[r]))
        _clear_column(work, col, r, sub, scaler)
        pivots.append(col)
        r += 1
        if r == n:
            break
    red = Matrix._trusted(f, tuple(w[:c] for w in work), c)
    tr = Matrix._trusted(f, tuple(w[c:] for w in work), n)
    return RrefResult(red, tuple(pivots), tr)


def _echelon_reduce(basis: Iterable, row: tuple, sub, scaler) -> tuple:
    """Row minus the combination of the ``basis`` rows, (pivot column, row)
    pairs, that clears every pivot column.

    Each pair's row is 1 at its pivot and 0 at the earlier pivots, so one
    pass in order clears them all.
    """
    for col, prow in basis:
        x = row[col]
        if x:
            row = tuple(map(sub, row, prow if x == 1 else map(scaler(x), prow)))
    return row


def _echelon_insert(basis: list, row: tuple, sub, scaler, inv) -> tuple | None:
    """Reduce row against ``basis``, (pivot column, row) pairs in insertion
    order, by :func:`_echelon_reduce`.

    Returns the remainder as a new pair with pivot entry 1, or None when
    row lies in the span of the basis.
    """
    row = _echelon_reduce(basis, row, sub, scaler)
    for col, x in enumerate(row):
        if x:
            return col, (row if x == 1 else tuple(map(scaler(inv(x)), row)))
    return None


def mat_rank(m: Matrix) -> int:
    """Rank by inserting the rows one by one into an echelon basis."""
    return _row_rank(m.field, _to_rows(m.field, m.rows))


# -- packed GF(2) rows ------------------------------------------------


def _pack(row: Iterable[int]) -> int:
    """A 0/1 row as an int bitmask, entry 0 the most significant bit."""
    x = 0
    for b in row:
        x = x << 1 | b
    return x


# Every 0/1 row of length n <= 8, indexed by its packed value (itertools
# order is packed order).  Short rows unpack to these shared tuples, so
# results that are kept, such as certificates, hold no copies of them.
_BIT_ROWS = [tuple(itertools.product((0, 1), repeat=n)) for n in range(9)]


def _unpack(x: int, n: int) -> tuple[int, ...]:
    """The length-n 0/1 row of the bitmask x; inverse of :func:`_pack`."""
    if n < len(_BIT_ROWS):
        return _BIT_ROWS[n][x]
    return tuple(x >> s & 1 for s in range(n - 1, -1, -1))


def _echelon_insert_gf2(basis: list, x: int) -> tuple | None:
    """:func:`_echelon_insert` over GF(2) on packed rows.

    Pivots are bit positions.  The leading bit is the first nonzero entry,
    so the pairs, and the rows they span, match the tuple version's.
    """
    for bit, prow in basis:
        if x >> bit & 1:
            x ^= prow
    return (x.bit_length() - 1, x) if x else None


def _tuple_mul(field: Field, a: Iterable[Sequence[int]], b: Sequence, ncols: int) -> list:
    """Rows of the product A B on entry tuples: row i is the sum of
    a_ik * b_k over the ``ncols``-wide rows b_k of B."""
    add, scaler = field.add, field.scaler
    zero = (0,) * ncols
    out = []
    for ra in a:
        acc = zero
        for x, rb in zip(ra, b):
            if x:
                acc = tuple(map(add, acc, rb if x == 1 else map(scaler(x), rb)))
        out.append(acc)
    return out


# -- the row format (see the module docstring) --------------------------
#
# A helper that a loop calls per row returns a function of the row, picked
# once per loop.


def _to_rows(field: Field, rows: Iterable[Sequence[int]]) -> list:
    """Rows of entries (a ``Matrix``'s ``rows``, say) in the row format."""
    return list(map(_pack if field.q == 2 else tuple, rows))


def _from_row(field: Field, row, ncols: int) -> tuple[int, ...]:
    """The ``ncols`` entries of a row in the row format; inverse of :func:`_to_rows`."""
    return _unpack(row, ncols) if field.q == 2 else row


def _from_rows(field: Field, rows: Iterable, ncols: int) -> Matrix:
    """The ``Matrix`` of ``ncols``-wide rows in the row format."""
    return Matrix._trusted(field, tuple(_from_row(field, r, ncols) for r in rows), ncols)


def _zero_row(field: Field, ncols: int):
    """The zero row of width ``ncols`` in the row format."""
    return 0 if field.q == 2 else (0,) * ncols


def _row_mul(field: Field, a: Iterable[Sequence[int]], b: Sequence, ncols: int) -> list:
    """Rows of the product A B, with B and the result in the row format.

    A comes as rows of entries and B as ``ncols``-wide rows.  Over GF(2) a
    product row is the XOR of the B rows its A row selects.
    """
    if field.q == 2:
        return [functools.reduce(operator.xor, itertools.compress(b, r), 0) for r in a]
    return _tuple_mul(field, a, b, ncols)


def _row_add(field: Field):
    """The function (a, b) -> a + b on rows in the row format."""
    if field.q == 2:
        return operator.xor
    add = field.add
    return lambda a, b: tuple(map(add, a, b))


def _row_scale(field: Field, a: int, row):
    """The row a * row, for a field element a and a row in the row format."""
    if field.q == 2:
        return row if a else 0
    return tuple(map(field.scaler(a), row))


def _row_block(field: Field, start: int, stop: int, width: int):
    """The function that reads entries [start, stop) of a ``width``-wide row
    in the row format, as a row in the row format."""
    if field.q == 2:
        shift, mask = width - stop, (1 << (stop - start)) - 1
        return lambda x: x >> shift & mask
    return operator.itemgetter(slice(start, stop))


def _row_weight(field: Field, start: int, stop: int, width: int):
    """The function that gives the Hamming weight of entries [start, stop)
    of a ``width``-wide row in the row format."""
    if field.q == 2:
        shift, mask = width - stop, (1 << (stop - start)) - 1
        return lambda x: (x >> shift & mask).bit_count()
    return lambda row: stop - start - row[start:stop].count(0)


def _row_insert(field: Field):
    """:func:`_echelon_insert` on rows in the row format, as f(basis, row)."""
    if field.q == 2:
        return _echelon_insert_gf2
    return functools.partial(
        _echelon_insert, sub=field.sub, scaler=field.scaler, inv=field.inv
    )


def _row_rank(field: Field, rows: Iterable) -> int:
    """Rank of rows in the row format, by :func:`_row_insert`."""
    insert = _row_insert(field)
    basis: list = []
    for row in rows:
        pair = insert(basis, row)
        if pair is not None:
            basis.append(pair)
    return len(basis)


def row_basis(m: Matrix) -> Matrix:
    """Nonzero rows of the RREF: the canonical basis of the row space."""
    res = mat_rref(m)
    return res.rref.take_rows(range(res.rank))


def null_space(m: Matrix) -> Matrix:
    """Canonical right kernel basis, returned as columns of an ncols x k matrix.

    Basis vector for free column j has a 1 in position j, zeros in the other
    free positions, and pivot entries filled in from the RREF.  ``m * result``
    is always the zero matrix and the columns are linearly independent.
    """
    f = m.field
    res = mat_rref(m)
    piv = set(res.pivots)
    free = [j for j in range(m.ncols) if j not in piv]
    neg = f.neg
    red = res.rref.rows
    cols = []
    for j in free:
        v = [0] * m.ncols
        v[j] = 1
        for i, pc in enumerate(res.pivots):
            v[pc] = neg(red[i][j])
        cols.append(v)
    if not cols:
        return Matrix._trusted(f, ((),) * m.ncols, 0)
    return Matrix._trusted(f, tuple(zip(*cols)), len(cols))


def solve_left(a: Matrix, b: Matrix) -> Matrix | None:
    """Canonical solution X of X * a == b, or None when no solution exists.

    Free variables are set to zero, so X uses only the pivot rows of ``a``.
    Solves row by row: each row of ``b`` must lie in the row space of ``a``.
    """
    return _solve_left_rref(mat_rref(a), b)


def _solve_left_rref(res: RrefResult, b: Matrix) -> Matrix | None:
    """:func:`solve_left` for an ``a`` whose :func:`mat_rref` is ``res``.

    Lets a caller that solves many systems with the same ``a`` eliminate it
    once.  A row [b_row | 0] reduced against the rows [rref | transform]
    leaves [0 | -x] with x a = b_row, or a nonzero left part.  Raises
    ValueError unless ``b`` has ``a.ncols`` columns over the same field: the
    reduction zips rows, and would silently drop the extra columns of a
    wider ``b``.
    """
    f = res.rref.field
    c = res.rref.ncols
    if b.field != f or b.ncols != c:
        raise ValueError("solve_left shape or field mismatch")
    basis = list(zip(res.pivots, map(operator.add, res.rref.rows, res.transform.rows)))
    zero = (0,) * res.transform.ncols
    out_rows = []
    for brow in b.rows:
        vec = _echelon_reduce(basis, brow + zero, f.sub, f.scaler)
        if any(vec[:c]):
            return None
        out_rows.append(tuple(map(f.neg, vec[c:])))
    return Matrix._trusted(f, tuple(out_rows), res.transform.ncols)


def row_space_contains(a: Matrix, v: Matrix) -> bool:
    """True when every row of v lies in the row space of a."""
    return solve_left(a, v) is not None


# -- counting ---------------------------------------------------------


def gaussian_binomial(s: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^s, exact integer."""
    if r < 0 or s < 0:
        raise ValueError("negative dimension")
    if r > s:
        return 0
    num = 1
    den = 1
    for j in range(r):
        num *= q**s - q**j
        den *= q**r - q**j
    return num // den


def hamming_weight(m: Matrix) -> int:
    """Number of nonzero rows; for column vectors, the usual Hamming weight."""
    return sum(1 for r in m.rows if any(r))


def rank_weight(m: Matrix) -> int:
    return mat_rank(m)


def weight(m: Matrix, metric: str) -> int:
    """Weight of a matrix under ``metric`` in {"hamming", "rank"}."""
    if metric == "hamming":
        return hamming_weight(m)
    if metric == "rank":
        return rank_weight(m)
    raise ValueError(f"unknown metric {metric!r}")


def sphere_vol_hamming(n: int, radius: int, q: int) -> int:
    """Number of vectors in F_q^n within Hamming distance ``radius`` of a point."""
    radius = min(radius, n)
    if radius < 0:
        return 0
    # term j is comb(n, j) (q - 1)^j, each from the last by one exact division.
    total = term = 1
    for j in range(radius):
        term = term * (n - j) * (q - 1) // (j + 1)
        total += term
    return total


def sphere_vol_rank(nrows: int, ncols: int, radius: int, q: int) -> int:
    """Number of nrows x ncols matrices over F_q of rank at most ``radius``.

    Counts rank-r matrices as (choices of column space) x (full-rank maps
    onto it): prod_{j<r} (q^nrows - q^j) * qbinom(ncols, r).
    """
    radius = min(radius, nrows, ncols)
    if radius < 0:
        return 0
    total = 0
    for r in range(radius + 1):
        surj = 1
        for j in range(r):
            surj *= q**nrows - q**j
        total += surj * gaussian_binomial(ncols, r, q)
    return total


# -- enumeration helpers ----------------------------------------------


def iter_vectors(field: Field, n: int) -> Iterator[tuple[int, ...]]:
    """All vectors of F_q^n in odometer order, first coordinate fastest."""
    return (v[::-1] for v in itertools.product(range(field.q), repeat=n))
