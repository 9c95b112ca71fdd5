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
zero, so equal inputs always produce identical outputs.  They all run one
RREF on rows, the row format's ``rref``, and one reduction of a row against
an echelon basis, its ``reduce``, whose basis pairs its ``insert`` makes, or
the RREF for its pivot rows; rank, the min-rank search, the realization
test, the trap decoder and the solves alike.

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
the record: :func:`_from_rows`, :func:`_rows_of_blocks`,
:func:`_row_weight`, :func:`_row_block_bits`, :func:`_row_echelon` and
:func:`_row_rank`.  Two methods and :func:`_row_block_bits` read a row as
blocks of equal size, which the trials use to run side by side in one wide
row: ``nonzero_blocks`` gives the mask of the nonzero blocks (on lanes a
nonzero-lane test on lanes of e times the block size bits;
:func:`_row_weight` counts blocks of one entry), :func:`_row_block_bits`
the mask of each block alone, and ``keep_blocks`` zeroes the blocks
outside a mask (on lanes one AND).  The record's ``mul`` is the only
matrix product, ``Matrix.__mul__`` included.  ``Matrix`` and every public
result stay tuple-based.

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


# Raw 64-bit words a :class:`_Draws` stream reads at a time, 64 draws below
# 2**32: for most instances one read holds a trial's X and its error.
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


def _lanes(values) -> int:
    """The int whose 64-bit lane j, bits [64 j, 64 j + 64), holds
    ``values[j]``, each below 2**64."""
    import numpy as np

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
    at once, held in the 64-bit lanes of ints (see :func:`_lanes`): lane j
    of ``entropy[w]`` is word w of entropy j, lane j of output word i is
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


def _seed_states(seed: int, trials: range) -> Iterator:
    """``SeedSequence([seed, trial]).generate_state(4, np.uint64)`` for each
    trial of ``trials`` (step 1), each a native uint64 array: the words
    ``default_rng([seed, trial])`` seeds its PCG64 from.

    The entropy is the words of seed then of trial.  Trials are hashed in
    groups that share every trial word but the lowest, whose lanes then
    count up from the group's first trial.
    """
    import numpy as np

    head = _seed_words(seed)
    start = trials.start
    while start < trials.stop:
        stop = min(trials.stop, ((start >> 32) + 1) << 32)
        k = stop - start
        # 1 in each of the k lanes: 2**(64 k) = (2**64 - 1) ones + 1.
        ones = (1 << 64 * k) // ((1 << 64) - 1)
        entropy = [w * ones for w in head + _seed_words(start)]
        base = start & _MASK_32
        entropy[len(head)] = _lanes(np.arange(base, base + k, dtype=np.uint64))
        raw = b"".join(w.to_bytes(8 * k, "little") for w in _seed_hash(entropy, ones))
        yield from np.frombuffer(raw, "<u8").reshape(4, k).T.astype(np.uint64, order="C")
        start = stop


@functools.cache
def _pcg64_from_state():
    """The function that makes a ``np.random.PCG64`` from the 4 words, a
    native uint64 array, that a ``SeedSequence`` would hand it.

    They reach PCG64 through numpy's ``ISeedSequence`` interface, so numpy's
    own ``pcg64_set_seed`` turns them into (state, inc), and a generator
    costs about 1 µs, a tenth of seeding one from an int.
    """
    import numpy as np
    from numpy.random.bit_generator import ISeedSequence

    class Hashed(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's 4 uint64 words are precomputed")
            return self.words

    return lambda words: np.random.PCG64(Hashed(words))


def _stream_halves(seed: int, trials: range) -> list:
    """For each trial of ``trials``, the 32-bit stream of
    ``default_rng([seed, trial])``: the iterator of the low then the high
    half of each raw PCG64 word, read ``_DRAW_WORDS`` words at a time.

    Every stream has its own PCG64, so streams may be read in any
    interleaving.
    """
    pcg64 = _pcg64_from_state()

    def stream(words):
        raw = pcg64(words).random_raw

        def block() -> list:
            return raw(_DRAW_WORDS).astype("<u8", copy=False).view("<u4").tolist()

        return itertools.chain.from_iterable(iter(block, None))

    return list(map(stream, _seed_states(seed, trials)))


class _Draws:
    """The draws of ``numpy.random.default_rng([seed, trial])``, read off
    its raw PCG64 words as Python ints.

    :meth:`chunk` seeds the streams of a range of trials at once: numpy's
    ``SeedSequence`` hash of [seed, trial] redone for all of them (see
    :func:`_seed_states`), each trial's words handed to a PCG64 of its own.
    A single stream is a chunk of one.  The Generator's bounded integers
    below 2**32 read the bit generator's 32-bit stream, the low then the
    high half of each 64-bit word, a half left over by one call going to
    the next; :meth:`integers` and :meth:`choice` return what
    ``integers(0, q, size=k)`` and ``choice(n, size=k, replace=False)``
    return when called in the same order (the tests pin this).  Words are
    read ``_DRAW_WORDS`` at a time, ahead of use (see
    :func:`_stream_halves`); nothing else draws from the bit generator, so
    that changes no value.
    """

    __slots__ = ("_halves",)

    def __init__(self, halves: Iterator[int]):
        self._halves = halves

    @classmethod
    def chunk(cls, seed: int, trials: range) -> list["_Draws"]:
        """The streams of every trial of ``trials`` (step 1), seeded at once."""
        return list(map(cls, _stream_halves(seed, trials)))

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
    ``from_flat(entries, width)`` reads a list of entries as rows of
    ``width``.
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

    def from_flat(self, entries: list, width: int) -> list:
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

    def from_flat(self, entries: list, width: int) -> list:
        # A row is its entries read as the digits of an int in base q,
        # entry 0 the most significant.
        digits, q = bytes(entries).translate(self._DIGITS), self.mask + 1
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


def _rows_of_blocks(field: Field, flats: Sequence[Sequence[int]], nrows: int, ncols: int) -> list:
    """The ``nrows`` rows in the row format whose block k, entries
    [k ncols, (k + 1) ncols), is row r of the nrows x ncols matrix that
    ``flats[k]`` lists row-major, as a shaped draw gives it; ncols >= 1.

    One extended-slice assignment per entry position of a block moves that
    entry of every block into place.
    """
    size, width = nrows * ncols, ncols * len(flats)
    entries = list(itertools.chain.from_iterable(flats))
    out = [0] * (nrows * width)
    for r in range(nrows):
        for c in range(ncols):
            out[r * width + c:(r + 1) * width:ncols] = entries[r * ncols + c::size]
    return field._fmt.from_flat(out, width)


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


def row_basis(m: Matrix) -> Matrix:
    """Nonzero rows of the RREF: the canonical basis of the row space."""
    f = m.field
    work, pivots, _ = f._fmt.rref(f._fmt.to_rows(m.rows), m.ncols)
    return _from_rows(f, work[: len(pivots)], m.ncols)


def null_space(m: Matrix) -> Matrix:
    """Canonical right kernel basis, returned as columns of an ncols x k matrix.

    Basis vector for free column j has a 1 in position j, zeros in the other
    free positions, and pivot entries filled in from the RREF.  ``m * result``
    is always the zero matrix and the columns are linearly independent.
    """
    f = m.field
    work, pivots, _ = f._fmt.rref(f._fmt.to_rows(m.rows), m.ncols)
    piv = set(pivots)
    free = [j for j in range(m.ncols) if j not in piv]
    neg = f.neg
    red = _from_rows(f, work[: len(pivots)], m.ncols).rows
    cols = []
    for j in free:
        v = [0] * m.ncols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(red[i][j])
        cols.append(v)
    if not cols:
        return Matrix._trusted(f, ((),) * m.ncols, 0)
    return Matrix._trusted(f, tuple(zip(*cols)), len(cols))


def solve_left(a: Matrix, b: Matrix) -> Matrix | None:
    """Canonical solution X of X * a == b, or None when no solution exists.

    Free variables are set to zero, so X uses only the pivot rows of ``a``.
    Solves row by row: each row of ``b`` must lie in the row space of ``a``.
    Raises ValueError unless ``b`` has ``a.ncols`` columns over the same
    field.
    """
    x, _ = _solve_left_kernel(a, b)
    return None if x is None else Matrix._trusted(a.field, x, a.nrows)


def _solve_left_kernel(a: Matrix, b: Matrix) -> tuple:
    """(X, K) as rows of entries: X the canonical solution of X a = b, or
    None when there is none, and K the rows of the transform of the RREF of
    ``a`` past its rank, which span the left kernel of ``a``.

    One elimination of [a | I] by :func:`_rref_transform` gives both.  A
    row [b_row | 0] reduced against its pivot pairs, which span the pivot
    rows [rref | transform], leaves [0 | -x] with x a = b_row, or a
    nonzero left part.  Raises ValueError unless ``b`` has ``a.ncols``
    columns over the same field.
    """
    f, c, k = a.field, a.ncols, a.nrows
    if b.field != f or b.ncols != c:
        raise ValueError("solve_left shape or field mismatch")
    work, pivots, basis = _rref_transform(a)
    fmt, width = f._fmt, c + k
    left, right = fmt.block(0, c, width), fmt.block(c, width, width)
    zero, minus = fmt.zero(c), f.neg(1)
    x: list | None = []
    for row in map(fmt.join(k), fmt.to_rows(b.rows), itertools.repeat(fmt.zero(k))):
        row = fmt.reduce(basis, row)
        if left(row) != zero:
            x = None
            break
        x.append(fmt.scale(minus, right(row)))
    kernel = _from_rows(f, map(right, work[len(pivots):]), k).rows
    return (None if x is None else _from_rows(f, x, k).rows), kernel


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
