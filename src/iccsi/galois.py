"""Finite-field arithmetic and exact linear algebra over F_q, q = p^e.

Field elements are plain Python ints in ``range(q)``.  An element encodes the
coefficient vector of a residue polynomial in base p, least significant digit
first: the integer ``d0 + d1*p + ... + d_{e-1}*p^(e-1)`` stands for
``d0 + d1*x + ... + d_{e-1}*x^(e-1)`` modulo the field's irreducible modulus.

Multiplication uses exp/log tables built from a generator g of the
multiplicative group, so q is capped at 2**16.  The exp table steps from
g^k to g^(k+1) through a table of g y for every y, in every field one
vectorised product of base-p digits and one reduction.  Addition takes one
path per kind of field: a bitwise XOR in characteristic 2, where the encoding
adds digit by digit without carries; ordinary arithmetic mod p in prime
fields; and in odd extension fields a Zech-logarithm table, 1 + g^k = g^z(k),
built once from the exp/log tables, so a + b = a (1 + b/a) is three lookups,
and so is a - b, log(-b) being log(b) + (q-1)/2.
Odd fields negate by one table lookup, -1 being g^((q-1)/2).  The moduli
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
zero, so equal inputs always produce identical outputs.  Every rank and
kernel decision runs one RREF on rows, the row format's ``rref``, or one
echelon of its ``insert`` pairs, :func:`_row_echelon`, and reduces rows
against it by its ``reduce``: rank, the solves, the min-rank search, the
realization test, both certificates, the demand maps and the trap decoder
alike.  Every null space is read off an RREF by :func:`_free_kernel`.

Hot loops keep their rows in one row format per field, a record of row
operations (:class:`_RowFormat`) that ``Field`` picks once, as
``field._fmt``; nothing else chooses a format.  There are three records:

- ``_LaneRows``, GF(4) to GF(16): a row of w entries is one int of e w bits,
  e-bit lanes, entry 0 in the top lane, so int order is tuple order and add
  is ``^``.  The q multiples a r of a row r come from e - 1 lane-wise
  multiplications by x, each a shift plus the modulus's low bits in every
  lane whose top bit it shifted out, and q - 2 XORs (``lane_ops``; rows of
  a width with few values share one table of them).  A product XORs one
  multiple per term, and a basis row keeps its multiples, scaled to 1 at
  its pivot lane, so reducing a row by it is one XOR with the multiple the
  row's pivot lane selects.
- ``_BitRows``, GF(2): lanes of one bit, with Hamming weight
  ``int.bit_count()``; its product and its basis pairs select whole rows
  by a bit.
- ``_TupleRows``, every other field: entry tuples and the field's own
  arithmetic.  Odd fields and characteristic-2 fields above GF(16) keep
  them, since there building q multiples per row costs more than
  entrywise arithmetic does (see ``_LANE_MAX_ORDER``).

The confusable walk and its reader, ``alpha``, ``min_rank``, the syndrome
decoder, the rank-trap decoder, the demand solve and both kinds of trial
call the record's methods and hold one body for every field; a new format
is one new record.  What is the same in every format is one function over
the record: :func:`_from_rows`, :func:`_row_weight`,
:func:`_row_block_bits`, :func:`_row_echelon`, :func:`_row_rank` and
:func:`_span_walk`, the Gray-code walk of the confusable sets and of an
outer code's codewords.  Two methods and
:func:`_row_block_bits` read a row as blocks of equal size, which the
trials use to run side by side in one wide row: ``nonzero_blocks``
gives the mask of the nonzero blocks (on lanes a nonzero-lane test on
lanes of e times the block size bits;
:func:`_row_weight` counts blocks of one entry), :func:`_row_block_bits`
the mask of each block alone, and ``keep_blocks`` zeroes the blocks
outside a mask (on lanes one AND).  The record's ``mul`` is the only
matrix product on rows, ``Matrix.__mul__`` included; :func:`_stack_mul`
multiplies a stack of small matrices held as one numpy array, in
characteristic 2, for a chunk of the simulation's rank errors at once,
by lookups in the log and exp tables as numpy arrays, which a field
builds on first use.  ``Matrix`` and every public result stay
tuple-based.

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
# Largest characteristic-2 field whose rows are e-bit lanes in one int.  A
# product or an elimination builds all q multiples of a row, q - 2 XORs, so
# past GF(16) that costs more than the entry tuples save: rank trials took
# 0.54-0.72x the time of tuples over GF(4) to GF(16) on dense matrices and
# 0.80-0.91x on unit-vector ones, but 1.37x and 2.00x over GF(32) and 3.74x
# and 5.75x over GF(256).
_LANE_MAX_ORDER = 16
# Largest table, in entries, of the multiples of every row of one width.
# Shared, not rebuilt per product or pivot: without it sim-rank lost ~12%.
_LANE_TABLE_MAX = 4096
# :func:`_span_walk` lists fewer than 2**_LAP_BITS steps ahead.
_LAP_BITS = 6

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
    if mod[0] == 0:
        return False  # x divides it
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
        # The row format (see the module docstring), chosen here alone.
        lanes = p == 2 and q <= _LANE_MAX_ORDER
        self._fmt = (_BitRows if q == 2 else _LaneRows if lanes else _TupleRows)(self)
        if p == 2:
            # Characteristic 2: the base-2 digit encoding makes + and - XOR,
            # and every element is its own negative.
            self.add = operator.xor
            self.sub = operator.xor
            self.neg = operator.pos
            if q == 2:
                self.mul = operator.and_
            return
        # -1 = g^((q-1)/2) in every odd field, so -a is one table lookup.
        exp, log, half = self._exp, self._log, (q - 1) // 2
        self.neg = ((0,) + tuple(exp[(la + half) % (q - 1)] for la in log[1:])).__getitem__
        if e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            return
        # Zech logarithms: 1 + g^k = g^zech[k], None where 1 + g^k = 0.
        # Adding 1 raises the low base-p digit of g^k by one, mod p.  Then
        # a + b = g^la (1 + g^(lb - la)): lb - la lies in (-(q-1), q-1), so
        # it indexes zech mod q - 1, and la + zech[.] < 2(q-1) indexes the
        # doubled exp table.
        zech = [None] * (q - 1)
        for k, x in enumerate(exp):
            y = x - x % p + (x + 1) % p
            if y:
                zech[k] = log[y]
        ext = exp + exp

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else ext[la + z]

        # a - b = a + (-b), and log(-b) = log(b) + (q-1)/2: lb - la lies in
        # (-(q-1), 3(q-1)/2), which the doubled zech table indexes.
        zech2 = zech + zech

        def sub(a: int, b: int) -> int:
            if not b:
                return a
            lb = log[b] + half
            if not a:
                return ext[lb]
            la = log[a]
            z = zech2[lb - la]
            return 0 if z is None else ext[la + z]

        self.add = add
        self.sub = sub

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

    def _times_table(self, g: int) -> list[int]:
        """The products g * y for every y in range(q): every element's
        base-p digits times those of g in one vectorised polynomial
        product, then one reduction by the monic modulus, top digit first.
        int64, as in GF(65521) a digit product g y can reach 2^32."""
        import numpy as np

        p, e, q = self.p, self.e, self.q
        powers = p ** np.arange(e, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // powers % p
        prod = np.zeros((q, 2 * e - 1), dtype=np.int64)
        for j in range(e):
            c = g // p**j % p
            if c:
                prod[:, j:j + e] += c * digits
        low = np.array(self.modulus[:e], dtype=np.int64)
        for k in range(2 * e - 2, e - 1, -1):
            prod[:, k - e:k] -= (prod[:, k] % p)[:, None] * low
        return ((prod[:, :e] % p) @ powers).tolist()

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
        times_gen = self._times_table(gen)
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = times_gen[x]
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

    @functools.cached_property
    def _log_exp(self) -> tuple:
        """The log and exp tables as numpy arrays for :func:`_stack_mul`,
        built on first use: log[0] is 2(q - 1) and exp is zero from there
        on, so exp[log x + log y] is x y for every x and y."""
        import numpy as np

        zero = 2 * (self.q - 1)
        log = np.array(self._log, dtype=np.intp)
        log[0] = zero
        exp = np.zeros(2 * zero + 1, dtype=np.int64)
        exp[:zero] = self._exp * 2
        return log, exp

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
        """Product by row combination, the row format's ``mul``."""
        if not isinstance(other, Matrix):
            return NotImplemented
        f = self.field
        if f != other.field:
            raise ValueError("fields differ")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        n, fmt = other.ncols, f._fmt
        return _from_rows(f, fmt.mul(self.rows, fmt.to_rows(other.rows), n), n)

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


def mat_rref(m: Matrix) -> RrefResult:
    """Canonical reduced row echelon form, scanning columns left to right.

    The work is :func:`_rref_transform`'s.
    """
    f, fmt = m.field, m.field._fmt
    n, c = m.nrows, m.ncols
    work, pivots, _ = _rref_transform(m)
    red = _from_rows(f, map(fmt.block(0, c, c + n), work), c)
    tr = _from_rows(f, map(fmt.block(c, c + n, c + n), work), n)
    return RrefResult(red, tuple(pivots), tr)


def _rref_transform(m: Matrix) -> tuple:
    """(rows, pivots, pairs) of the RREF of [m | I] in the row format, pivots
    sought in the columns of m: the RREF of m beside its transform."""
    fmt = m.field._fmt
    return fmt.rref(fmt.with_identity(fmt.to_rows(m.rows)), m.ncols + m.nrows, m.ncols)


def mat_rank(m: Matrix) -> int:
    """Rank by inserting the rows one by one into an echelon basis."""
    return _row_rank(m.field, m.field._fmt.to_rows(m.rows), m.ncols)


# -- the row formats (see the module docstring) ---------------------------
#
# A method that a loop calls per row returns a function of the row, picked
# once per loop.


class _RowFormat:
    """The row operations of one row format; ``Field`` keeps one as ``_fmt``.

    ``pack(row)`` gives a row of entries in the format and ``unpacker(n)``
    the function back to its n entries; ``zero(n)`` is the zero row and
    ``add`` adds two rows.  ``join(width)`` gives (a, b) -> [a | b] for b
    ``width`` entries wide, ``block(start, stop, width)`` the reader of
    entries [start, stop) of a ``width``-wide row, ``scale(a, row)`` the
    row a row, and ``with_identity(rows)`` the rows of [m | I] for m's n
    rows.  ``mul(a, b, ncols)`` gives the rows of A B, A as rows of entries
    and B as ``ncols``-wide rows in the format.

    ``insert(width)`` gives f(basis, row): the remainder of row against
    ``basis``, echelon pairs in insertion order, as a new pair 1 at its
    pivot, or None when it is zero; ``reduce(basis, row)`` is that
    remainder.  ``rref(rows, width, stop)`` is the RREF of ``rows``, pivots
    sought in the first ``stop`` columns (all by default): the rows, the
    pivot columns and the pairs of the pivot rows as they stood when they
    were chosen, which ``reduce`` takes.  Each is 1 at its pivot and 0 at
    the earlier ones, and later pivots change each RREF row by a
    unitriangular combination of them, so they span the RREF rows; a
    remainder against them is zero at every pivot, which makes it unique in
    its coset: the remainder against the RREF.  ``line(width)`` gives, for
    a nonzero row z, None unless z's leading entry is 1, and otherwise
    (at, zs): ``at(c)`` reads row c in z's leading column, zero exactly
    when the entry is, in C, and zs lists the multiples b z, b = 1, ...,
    q - 1.

    Three readers treat a row as ``count`` blocks of ``size`` entries,
    block k being entries [k size, (k + 1) size), which the trials use to
    run side by side in one wide row.  A block mask is an int with one bit
    per block, block 0's the highest, ``block_stride(size)`` bits apart, so
    ``bit_count()`` counts blocks and masks combine by ``&``, ``|`` and
    ``^``.  ``nonzero_blocks(size, count)`` gives the mask of a row's
    nonzero blocks and ``keep_blocks(size, count)`` the function
    (row, mask) -> the row with the blocks outside the mask zeroed.
    ``from_flat(entries, width)`` reads a 1-D numpy integer array of
    entries as rows of ``width``.
    """

    def to_rows(self, rows: Iterable[Sequence[int]]) -> list:
        """Rows of entries (a ``Matrix``'s ``rows``, say) in the format."""
        return list(map(self.pack, rows))


class _TupleRows(_RowFormat):
    """Rows as entry tuples, with the field's own arithmetic: odd fields and
    GF(2^e) above GF(16)."""

    pack = tuple

    def __init__(self, field: Field):
        self.field = field

    def unpacker(self, n: int):
        return tuple

    def zero(self, n: int) -> tuple:
        return (0,) * n

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self.field.add, a, b))

    def join(self, width: int):
        return operator.add

    def block(self, start: int, stop: int, width: int):
        return operator.itemgetter(slice(start, stop))

    def scale(self, a: int, row: tuple) -> tuple:
        return row if a == 1 else tuple(map(self.field.scaler(a), row))

    def with_identity(self, rows: list) -> list:
        return list(map(operator.add, rows, _unit_rows(len(rows))))

    def from_flat(self, entries, width: int) -> list:
        entries = entries.tolist()
        return [tuple(entries[s:s + width]) for s in range(0, len(entries), width)]

    def block_stride(self, size: int) -> int:
        return 1

    def nonzero_blocks(self, size: int, count: int):
        zero = (0,) * size
        spans = [(k * size, (k + 1) * size, 1 << (count - 1 - k)) for k in range(count)]
        return lambda row: sum(bit for a, b, bit in spans if row[a:b] != zero)

    def keep_blocks(self, size: int, count: int):
        # Each entry's block bit.
        bits = [1 << (count - 1 - k) for k in range(count) for _ in range(size)]
        return lambda row, mask: tuple(x if mask & bit else 0 for x, bit in zip(row, bits))

    def mul(self, a: Iterable[Sequence[int]], b: Sequence, ncols: int) -> list:
        add, scaler = self.field.add, self.field.scaler
        zero = (0,) * ncols
        out = []
        for ra in a:
            acc = zero
            for x, rb in zip(ra, b):
                if x:
                    acc = tuple(map(add, acc, rb if x == 1 else map(scaler(x), rb)))
            out.append(acc)
        return out

    def line(self, width: int):
        scalers = [self.field.scaler(b) for b in range(2, self.field.q)]

        def line(row: tuple):
            i = next(i for i, a in enumerate(row) if a)
            if row[i] != 1:
                return None
            return operator.itemgetter(i), [row, *(tuple(map(g, row)) for g in scalers)]

        return line

    def reduce(self, basis: Iterable, row: tuple) -> tuple:
        # Each pair's row is 1 at its pivot and 0 at the earlier pivots, so
        # one pass in order clears them all.
        sub, scaler = self.field.sub, self.field.scaler
        for col, prow in basis:
            x = row[col]
            if x:
                row = tuple(map(sub, row, prow if x == 1 else map(scaler(x), prow)))
        return row

    def insert(self, width: int):
        reduce, scaler, inv = self.reduce, self.field.scaler, self.field.inv

        def insert(basis: Iterable, row: tuple) -> tuple | None:
            row = reduce(basis, row)
            for col, x in enumerate(row):
                if x:
                    return col, (row if x == 1 else tuple(map(scaler(inv(x)), row)))
            return None

        return insert

    def rref(self, rows: Iterable, width: int, stop: int | None = None) -> tuple:
        """See :class:`_RowFormat`: for each column, the first row at or
        below the next pivot row that is nonzero there is swapped up,
        scaled to 1 at the column, and subtracted from every other row as
        often as it has the column's entry."""
        work = list(rows)
        n = len(work)
        pivots: list[int] = []
        pairs: list = []
        insert = self.insert(width)
        r = 0
        for col in range(width if stop is None else stop):
            if r == n:
                break
            sel = next((i for i in range(r, n) if work[i][col]), None)
            if sel is None:
                continue
            work[r], work[sel] = work[sel], work[r]
            # The rows from r on are zero before col, so this is 1 at col.
            pairs.append(insert((), work[r]))
            work[r] = pairs[-1][1]
            last = pairs[-1:]
            for i in range(n):
                if i != r and work[i][col]:
                    work[i] = self.reduce(last, work[i])
            pivots.append(col)
            r += 1
        return work, pivots, pairs


def _lane_ones(e: int, width: int) -> int:
    """The int with bit 0 of each of ``width`` e-bit lanes set."""
    return ((1 << e * width) - 1) // ((1 << e) - 1)


class _LaneRows(_RowFormat):
    """Rows of GF(2^e) up to GF(16) as ints of e-bit lanes, entry 0 in the
    top lane, so int order is tuple order and add is XOR.

    A basis pair is the shift of its pivot lane and the q multiples of its
    row scaled to 1 there, so reducing a row by it is one XOR with the
    multiple that the row's pivot lane selects, whatever the width.
    """

    add = operator.xor
    # Entries below 16 as digits of an int in base q.
    _DIGITS = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")

    def __init__(self, field: Field):
        e, q = field.e, field.q
        self.e, self.mask = e, q - 1
        # x^e = the modulus below its leading term, as a lane.
        self._low = sum(c << i for i, c in enumerate(field.modulus[:e]))
        # The product-table row of 1/a, x -> x / a, for each a != 0.
        self._inv_rows = (None,) + tuple(field._scale_rows[field.inv(a)] for a in range(1, q))
        self._ops: dict = {}
        # Every row of n <= 8 // e entries, indexed by its packed value
        # (itertools order is packed order).  Short rows pack by one lookup
        # in the inverse table and unpack to the shared tuples, so kept
        # results, certificates say, hold no copies of them.
        k = 8 // e
        self._short = [tuple(itertools.product(range(q), repeat=n)) for n in range(k + 1)]
        index = {row: x for rows in self._short for x, row in enumerate(rows)}

        def pack(row: Sequence[int]) -> int:
            if len(row) <= k:
                return index[tuple(row)]
            x = 0
            for a in row:
                x = x << e | a
            return x

        self.pack = pack

    def unpacker(self, n: int):
        # Longer rows unpack through the short-row table in chunks of
        # 8 // e lanes.
        short, k = self._short, len(self._short) - 1
        if n <= k:
            return short[n].__getitem__
        bits, (full, first) = self.e * k, divmod(n, k)
        shift, head, chunk, mask = bits * full, short[first], short[k], (1 << bits) - 1

        def unpack(x: int) -> tuple[int, ...]:
            out = head[x >> shift]
            for s in range(shift - bits, -1, -bits):
                out += chunk[x >> s & mask]
            return out

        return unpack

    def zero(self, n: int) -> int:
        return 0

    def join(self, width: int):
        shift = self.e * width
        return lambda a, b: a << shift | b

    def block(self, start: int, stop: int, width: int):
        e = self.e
        shift, mask = e * (width - stop), (1 << e * (stop - start)) - 1
        return lambda x: x >> shift & mask

    def scale(self, a: int, row: int) -> int:
        if a == 1:
            return row
        # Lanes above the row's are zero, so its bit length gives a width.
        return self.lane_ops(-(-row.bit_length() // self.e))[0](row)[a]

    def with_identity(self, rows: list) -> list:
        e, n = self.e, len(rows)
        return [x << e * n | 1 << e * i for i, x in zip(range(n - 1, -1, -1), rows)]

    def from_flat(self, entries, width: int) -> list:
        # A row is its entries read as the digits of an int in base q,
        # entry 0 the most significant.
        digits = entries.astype("u1").tobytes().translate(self._DIGITS)
        q = self.mask + 1
        return [int(digits[s:s + width], q) for s in range(0, len(digits), width)]

    def block_stride(self, size: int) -> int:
        # Blocks of no entries are zero, and read as lanes of one zero bit.
        return self.e * size or 1

    def nonzero_blocks(self, size: int, count: int):
        # Adding the low b - 1 bits of each b-bit lane to all-ones there
        # carries into the top bit exactly when they are nonzero; the top
        # bits then mark the nonzero lanes.
        b = self.block_stride(size)
        ones = _lane_ones(b, count)
        low, top = ones * ((1 << (b - 1)) - 1), ones << (b - 1)
        return lambda x: (((x & low) + low | x) & top) >> (b - 1)

    def keep_blocks(self, size: int, count: int):
        fill = (1 << self.e * size) - 1
        return lambda x, mask: x & mask * fill

    def lane_ops(self, width: int) -> tuple:
        """(multiples, insert) on ``width``-lane rows, e >= 2, built once
        per width.

        ``multiples(r)`` is the list whose entry a is a * r, read-only: when
        the width has at most _LANE_TABLE_MAX / q rows, all of them are
        built once and every row shares its list.  x^j r is x^(j-1) r
        shifted up one bit in every lane, plus the modulus's low bits in
        each lane whose top bit it shifted out, and entry a is the XOR of
        x^j r over the bits j of a, built in doubling steps, m[a + 2^j] =
        m[a] ^ x^j r for a < 2^j: e - 1 lane shifts and q - 2 XORs.  A new
        pair's multiples are those of its row permuted, (b / a) x =
        m[b a^-1] for the leading entry a.
        """
        ops = self._ops.get(width)
        if ops is not None:
            return ops
        e, mask, inv_rows, low, down = self.e, self.mask, self._inv_rows, self._low, self.e - 1
        top = _lane_ones(e, width) << down

        def multiples(r: int) -> list:
            t = r & top
            xr = (r ^ t) << 1 ^ (t >> down) * low
            m = [0, r, xr, r ^ xr]
            for _ in range(e - 2):
                t = xr & top
                xr = (xr ^ t) << 1 ^ (t >> down) * low
                m += [y ^ xr for y in m]
            return m

        if mask + 1 << e * width <= _LANE_TABLE_MAX:
            multiples = list(map(multiples, range(1 << e * width))).__getitem__

        def insert(basis, x: int) -> tuple | None:
            for s, m in basis:
                x ^= m[x >> s & mask]
            if not x:
                return None
            s = (x.bit_length() - 1) // e * e
            m = multiples(x)
            a = x >> s
            return s, (m if a == 1 else list(map(m.__getitem__, inv_rows[a])))

        ops = self._ops[width] = (multiples, insert)
        return ops

    def mul(self, a: Iterable[Sequence[int]], b: Sequence, ncols: int) -> list:
        # Row i XORs entry a_ik of the multiples of each b_k, built once.
        mults = list(map(self.lane_ops(ncols)[0], b))
        pick = list.__getitem__
        return [functools.reduce(operator.xor, map(pick, mults, r), 0) for r in a]

    def line(self, width: int):
        e, fill = self.e, self.mask
        multiples = self.lane_ops(width)[0]

        def line(x: int):
            s = (x.bit_length() - 1) // e * e
            return ((fill << s).__and__, multiples(x)[1:]) if x >> s == 1 else None

        return line

    def reduce(self, basis: Iterable, x: int) -> int:
        mask = self.mask
        for s, m in basis:
            x ^= m[x >> s & mask]
        return x

    def insert(self, width: int):
        return self.lane_ops(width)[1]

    def _clear(self, work: list, pair: tuple) -> tuple:
        """``work`` less the multiples of the new pivot pair that clear its
        pivot lane, and the pivot row."""
        s, m = pair
        mask = self.mask
        return [x ^ m[x >> s & mask] for x in work], m[1]

    def rref(self, rows: Iterable, width: int, stop: int | None = None) -> tuple:
        """See :class:`_RowFormat`.  The rows from the next pivot row on are
        zero before the column scanned, so the largest of them leads in the
        next column that is nonzero in any, and the columns between hold
        no pivot."""
        work = list(rows)
        n = len(work)
        pivots: list[int] = []
        pairs: list = []
        e, insert, stop = self.e, self.insert(width), width if stop is None else stop
        r = 0
        while r < n:
            lead = max(work[r:]).bit_length() - 1
            col = width - 1 - lead // e
            if lead < 0 or col >= stop:
                break
            s = lead - lead % e
            sel = r
            while not work[sel] >> s:
                sel += 1
            pairs.append(insert((), work[sel]))
            work[sel] = work[r]
            work, row = self._clear(work, pairs[-1])
            work[r] = row
            pivots.append(col)
            r += 1
        return work, pivots, pairs


class _BitRows(_LaneRows):
    """GF(2): lanes of one bit, with Hamming weight ``int.bit_count()``.

    A product XORs the B rows its A row selects, and a basis pair is the
    pivot bit and its row, which a reduction XORs into the rows with that
    bit set: lane multiples at e = 1 cost sim-hamming ~5% of trials/s, and
    a lane pivot per insert design ~14% of ops/s.
    """

    def mul(self, a: Iterable[Sequence[int]], b: Sequence, ncols: int) -> list:
        return [functools.reduce(operator.xor, itertools.compress(b, r), 0) for r in a]

    def scale(self, a: int, row: int) -> int:
        return row if a == 1 else 0

    def line(self, width: int):
        return lambda x: ((1 << (x.bit_length() - 1)).__and__, [x])

    @staticmethod
    def reduce(basis: Iterable, x: int) -> int:
        for bit, prow in basis:
            if x >> bit & 1:
                x ^= prow
        return x

    @staticmethod
    def _insert(basis: Iterable, x: int) -> tuple | None:
        # The leading bit is the first nonzero entry, so the pairs, and the
        # rows they span, match the tuple format's.
        for bit, prow in basis:
            if x >> bit & 1:
                x ^= prow
        return (x.bit_length() - 1, x) if x else None

    def insert(self, width: int):
        return self._insert

    def _clear(self, work: list, pair: tuple) -> tuple:
        s, row = pair
        return [x ^ row if x >> s & 1 else x for x in work], row


def _from_rows(field: Field, rows: Iterable, ncols: int) -> Matrix:
    """The ``Matrix`` of ``ncols``-wide rows in the row format."""
    return Matrix._trusted(field, tuple(map(field._fmt.unpacker(ncols), rows)), ncols)


def _row_weight(field: Field, start: int, stop: int, width: int):
    """The function that gives the Hamming weight of entries [start, stop)
    of a ``width``-wide row in the row format: the number of its nonzero
    blocks of one entry."""
    block = field._fmt.block(start, stop, width)
    nonzero = field._fmt.nonzero_blocks(1, stop - start)
    return lambda row: nonzero(block(row)).bit_count()


def _row_block_bits(field: Field, size: int, count: int) -> list:
    """The block masks (see :class:`_RowFormat`) of blocks 0, ..., count - 1
    of ``size`` entries alone, one per block."""
    stride = field._fmt.block_stride(size)
    return [1 << stride * k for k in range(count - 1, -1, -1)]


def _row_echelon(field: Field, rows: Iterable, width: int, basis: Iterable = ()) -> list:
    """The insertion pairs of ``basis`` followed by those of the
    ``width``-wide rows in the row format inserted after it in order;
    ``basis`` itself is not changed."""
    insert = field._fmt.insert(width)
    basis = list(basis)
    for row in rows:
        pair = insert(basis, row)
        if pair is not None:
            basis.append(pair)
    return basis


def _row_rank(field: Field, rows: Iterable, width: int) -> int:
    """Rank of ``width``-wide rows in the row format, by insertion."""
    return len(_row_echelon(field, rows, width))


def _stack_mul(field: Field, a, b):
    """The products a[k] b[k] of a stack of matrices over a field of
    characteristic 2: numpy integer arrays of elements a (k, m, r) and
    b (k, r, c) give the (k, m, c) array, each entry the XOR of its r
    products, looked up in the field's log and exp arrays."""
    import numpy as np

    log, exp = field._log_exp
    terms = exp[log[a][:, :, :, None] + log[b][:, None, :, :]]
    return np.bitwise_xor.reduce(terms, axis=2)


def row_basis(m: Matrix) -> Matrix:
    """Nonzero rows of the RREF: the canonical basis of the row space."""
    f = m.field
    work, pivots, _ = f._fmt.rref(f._fmt.to_rows(m.rows), m.ncols)
    return _from_rows(f, work[: len(pivots)], m.ncols)


def null_space(m: Matrix) -> Matrix:
    """Canonical right kernel basis, returned as columns of an ncols x k matrix.

    Basis vector for free column j has a 1 in position j, zeros in the other
    free positions, and pivot entries filled in from the RREF
    (:func:`_free_kernel`).  ``m * result`` is always the zero matrix and
    the columns are linearly independent.
    """
    f = m.field
    work, pivots, _ = f._fmt.rref(f._fmt.to_rows(m.rows), m.ncols)
    red = _from_rows(f, work[: len(pivots)], m.ncols).rows
    cols = _free_kernel(f, red, pivots, m.ncols)
    if not cols:
        return Matrix._trusted(f, ((),) * m.ncols, 0)
    return Matrix._trusted(f, tuple(zip(*cols)), len(cols))


def _free_kernel(field: Field, red: Sequence[tuple], pivots: Sequence[int], width: int) -> list:
    """The canonical right kernel basis of a ``width``-column RREF, its
    nonzero rows ``red`` as entry tuples with pivot columns ``pivots``: per
    free column j in order, 1 at j, 0 at the other free columns and minus
    column j of the RREF at the pivots."""
    neg, out = field.neg, []
    for j in sorted(set(range(width)) - set(pivots)):
        v = [0] * width
        v[j] = 1
        for row, pc in zip(red, pivots):
            v[pc] = neg(row[j])
        out.append(tuple(v))
    return out


def solve_left(a: Matrix, b: Matrix) -> Matrix | None:
    """Canonical solution X of X * a == b, or None when no solution exists.

    Free variables are set to zero, so X uses only the pivot rows of ``a``.
    Solves row by row against one elimination of [a | I] by
    :func:`_rref_transform`: a row [b_row | 0] reduced against its pivot
    pairs, which span the pivot rows [rref | transform], leaves [0 | -x]
    with x a = b_row, or a nonzero left part when b_row is outside the row
    space of ``a``.  Raises ValueError unless ``b`` has ``a.ncols`` columns
    over the same field.
    """
    f, c, k = a.field, a.ncols, a.nrows
    if b.field != f or b.ncols != c:
        raise ValueError("solve_left shape or field mismatch")
    basis = _rref_transform(a)[2]
    fmt, width = f._fmt, c + k
    left, right = fmt.block(0, c, width), fmt.block(c, width, width)
    zero, minus = fmt.zero(c), f.neg(1)
    x = []
    for row in map(fmt.join(k), fmt.to_rows(b.rows), itertools.repeat(fmt.zero(k))):
        row = fmt.reduce(basis, row)
        if left(row) != zero:
            return None
        x.append(fmt.scale(minus, right(row)))
    return _from_rows(f, x, k)


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


def _rank_count(nrows: int, ncols: int, r: int, q: int) -> int:
    """Number of nrows x ncols matrices over F_q of rank exactly r.

    (Choices of an r-space of F_q^ncols, the row space) x (full-rank maps
    onto it): prod_{j<r} (q^nrows - q^j) * qbinom(ncols, r).
    """
    out = gaussian_binomial(ncols, r, q)
    for j in range(r):
        out *= q**nrows - q**j
    return out


def sphere_vol_rank(nrows: int, ncols: int, radius: int, q: int) -> int:
    """Number of nrows x ncols matrices over F_q of rank at most ``radius``."""
    radius = min(radius, nrows, ncols)
    return sum(_rank_count(nrows, ncols, r, q) for r in range(radius + 1))


# -- enumeration helpers ----------------------------------------------


def iter_vectors(field: Field, n: int) -> Iterator[tuple[int, ...]]:
    """All vectors of F_q^n in odometer order, first coordinate fastest."""
    return (v[::-1] for v in itertools.product(range(field.q), repeat=n))


def _span_walk(field: Field, gens: Sequence, t: int, width: int, top) -> Iterator[list]:
    """Walk the t columns of G C, C over F_q^{k x t}, one row add per step.

    The g_j, the k columns of G, are ``width``-wide rows in the row format,
    so column c of G C is the sum of C[j][c] g_j.  C runs over its e k t
    base-p digits in the modular p-ary Gray code: entry m = c k + j of C
    (column-major) is digits m e .. m e + e - 1, its element encoding, and
    step s raises digit v_p(s), the lowest nonzero base-p digit of s, by 1
    mod p.  Raising digit m e + b adds x^b g_j to column c, x^b being the
    element p^b, so each step is one precomputed add.  After step s digit
    d of C is (s_d - s_(d+1)) mod p, for s_d the base-p digits of s.

    Yields the list of the t columns after each step that leaves some
    column at least ``top``; C = 0 comes before the first step and is
    never yielded.  The list is updated in place by the next step.
    """
    fmt, p = field._fmt, field.p
    add = fmt.add
    ups = [(c, fmt.scale(p**b, g)) for c in range(t) for g in gens for b in range(field.e)]
    # ``lap`` is steps 1 .. p^low - 1: the lap below digit d, then p - 1
    # times the raise of d and the lap below d again.  The walk runs it
    # after each step p^low h, which raises digit low + v_p(h).
    low = min(len(ups), _LAP_BITS // (p - 1).bit_length())
    lap: list = []
    for up in ups[:low]:
        lap += ([up] + lap) * (p - 1)
    cols = [fmt.zero(width)] * t  # G C for C = 0
    step: list = []  # no step into the first lap
    for h in range(1, p ** (len(ups) - low) + 1):
        for c, x in itertools.chain(step, lap):
            cols[c] = add(cols[c], x)
            if max(cols) >= top:
                yield cols
        d, r = low, h
        while r % p == 0:
            d, r = d + 1, r // p
        step = ups[d : d + 1]  # past the last digit after the last lap
