"""Receiver-side decoding and the binary broadcast frame format.

User i decodes from the stacked (cache | broadcast) system
[V^(i) | lam; L V_S | Y].  Its left block is fixed for a given L V_S, so
one RREF of it gives user i's demand map, :func:`_demand_map`: a row c with
c [V^(i); L V_S] = R_i over rows Q that annihilate the block.  The
syndrome decoder and the simulation's rank trials read that one map.

* Hamming syndrome decoding.  Times lam stacked over Y the map gives the
  demand part c [lam; Y] over the syndrome Q [lam; Y], which depends on the
  error alone.  The decoder matches the syndrome against error patterns of
  at most delta nonzero rows and corrects the demand part.  Its row form,
  :func:`_decode_rows`, decodes systems side by side as the blocks of one
  wide row, with one product per support for all of them.

* Rank error trapping.  The sender pads the payload with v zero rows and
  columns; a rank-r additive error W then exposes enough of its row space
  in the pad that the receiver can cancel it from the payload block, or
  detect that trapping failed.  The demand solve, :func:`solve_demand`,
  reduces [R_i | 0] against an echelon form of the whole system
  (:func:`_stacked_demand`): the echelon of [L V_S | Y], which users can
  share, with the user's rows [V^(i) | lam] inserted into a copy; the
  remainder's right block is minus the demand.  A simulation trial reads
  the demand off the map of the encoder's own L V_S, as c [lam; Y], when
  Q [lam; Y] = 0, where that is what the reduction gives; every other
  block, one whose Q [lam; Y] is nonzero or whose trap decoded another L,
  goes through :func:`_stacked_demand` too.

The broadcast frame is a little-endian binary format: magic ``ICC1``, the
field as (p, e), the pad/payload layout (v, N, ell), a flags word, then the
matrix entries row-major as base-p digits packed at (p-1).bit_length()
bits per digit.  Frames carry only fields with the canonical modulus.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass, field as dc_field
from io import BufferedIOBase
from itertools import combinations

from .galois import (
    Field,
    Matrix,
    field_new,
    hstack,
    _from_rows,
    _rref_transform,
    _row_echelon,
    _solve_left_kernel,
    vstack,
)
from .instance import IccsiInstance

SYNDROME_NOT_FOUND = "SyndromeNotFound"
TRAP_FAILURE_DETECTED = "TrapFailureDetected"


@dataclass(frozen=True)
class UserDecoder:
    """User i's syndrome decoder for one encoder L.

    ``rows`` is the demand map of L V_S (see :func:`_demand_map`): a row c
    over rows Q, each ``d`` + ``N`` wide, ``d`` being d_i and ``N`` the code
    length.  Times lam stacked over Y they give the demand c [lam; Y] over
    the syndrome Q [lam; Y], which depends on the error alone.

    ``support_rref`` maps an error support (a tuple of row indices of Y) to
    the rows that, times that product, give the corrected demand and then
    Q_S beta (see :meth:`_support_rows`); an empty tuple marks a support
    whose columns of Q are dependent.  The syndrome search fills it on first
    use, in scan order, so each support is eliminated once per decoder
    rather than once per call.  It takes no part in equality or hashing.
    """

    field: Field
    d: int
    N: int
    rows: tuple
    support_rref: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def _support_rows(self, support: tuple) -> tuple:
        """Rows of [1, -c_S P_S; 0, Q_S] for the columns B of Q at the Y
        positions d_i + S, or () when they are dependent.

        The transform T of the RREF of B has T B = [I; 0] when the columns
        are independent: its first |S| rows are a left inverse P_S, the rest
        a Q_S with Q_S B = 0 and full row rank, so beta lies in the column
        span of B exactly when Q_S beta = 0, and then the error values are
        P_S beta.  c_S is c at the same positions.  Times [alpha; beta] the
        rows give alpha - c_S P_S beta, the corrected demand, over Q_S beta.
        T comes from the RREF of [B | I] in the row format.
        """
        f, fmt, size = self.field, self.field._fmt, len(support)
        cols = [self.d + j for j in support]
        r = len(self.rows) - 1
        B = tuple(tuple(row[c] for c in cols) for row in self.rows[1:])
        work, pivots, _ = _rref_transform(Matrix._trusted(f, B, size))
        if len(pivots) < size:
            return ()
        T = list(map(fmt.block(size, size + r, size + r), work))
        neg_c = [[f.neg(self.rows[0][c]) for c in cols]]
        unpack = fmt.unpacker(r)
        first = (1,) + unpack(fmt.mul(neg_c, T[:size], r)[0])
        return (first,) + tuple((0,) + unpack(q) for q in T[size:])


def build_user_decoder(inst: IccsiInstance, L: Matrix, i: int) -> UserDecoder:
    """User i's decoder for the encoder L, built on its demand map of
    L V_S.  Raises ValueError when L does not serve user i."""
    return _user_decoder(inst, L * inst.V_S, i)


def _user_decoder(inst: IccsiInstance, lvs: Matrix, i: int) -> UserDecoder:
    """:func:`build_user_decoder` for the encoder whose L V_S is ``lvs``."""
    rows = _demand_map(inst, i, lvs)
    if not rows:
        raise ValueError(
            f"user {i}: request not in the span of L V_S; L does not realize the instance"
        )
    return UserDecoder(inst.field, inst.users[i].d, lvs.nrows, rows)


@dataclass(frozen=True)
class DecodeOutcome:
    """Either the recovered 1 x t demand or a named failure."""

    demand: Matrix | None
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.demand is not None


def syndrome_decode(
    ctx: UserDecoder,
    Y: Matrix,
    lam: Matrix,
    delta: int,
) -> DecodeOutcome:
    """Recover R_i X from Y = L V_S X + W assuming at most delta error rows.

    Applies the decoder's demand map to lam stacked over Y, which gives the
    demand part alpha over the syndrome beta, searches for an error pattern
    of at most delta nonzero rows matching beta (supports enumerated by size
    then lexicographically), and reads the demand off the corrected alpha.
    Raises ValueError unless Y has one row per code symbol, lam one per
    cached symbol and the width of Y, both over the decoder's field.  The
    work runs on rows, see :func:`_decode_rows`.
    """
    f, d = ctx.field, ctx.d
    if Y.field != f or lam.field != f:
        raise ValueError("fields differ")
    if Y.nrows != ctx.N or lam.nrows != d or (d and lam.ncols != Y.ncols):
        raise ValueError(
            f"Y is {Y.nrows}x{Y.ncols} and lam {lam.nrows}x{lam.ncols}; expected "
            f"{ctx.N} and {d} rows of equal width"
        )
    t = Y.ncols
    row, missed = _decode_rows(ctx, f._fmt.to_rows(lam.rows + Y.rows), delta, t, 1)
    if missed:
        return DecodeOutcome(None, SYNDROME_NOT_FOUND)
    return DecodeOutcome(_from_rows(f, (row,), t))


def _decode_rows(ctx: UserDecoder, right: list, delta: int, t: int, count: int) -> tuple:
    """:func:`syndrome_decode` of ``count`` systems at once, on rows of
    ``count`` blocks of t entries in the format of
    :mod:`~iccsi.galois`: block k of ``right`` is lam stacked over Y of
    system k.

    Returns the demand row, zero in the blocks that no error pattern
    matches, and the block mask of those blocks (see
    :class:`~iccsi.galois._RowFormat`).  The support scan multiplies
    each support's rows once for every block still pending, and a block
    keeps its first match.  That match has independent columns: a
    dependent support spans what a smaller subset spans, and the scan
    reaches that subset first.  So the matching error pattern is unique.
    """
    f, fmt, w = ctx.field, ctx.field._fmt, t * count
    nonzero, mul = fmt.nonzero_blocks(t, count), fmt.mul
    syn = mul(ctx.rows, right, w)
    pending = functools.reduce(operator.or_, map(nonzero, syn[1:]), 0)
    if not pending:
        return syn[0], 0
    add, keep = fmt.add, fmt.keep_blocks(t, count)
    # syn[0] less its pending blocks; each match adds its block back.
    demand = add(syn[0], fmt.scale(f.neg(1), keep(syn[0], pending)))
    memo = ctx.support_rref
    for size in range(1, delta + 1):
        for support in combinations(range(ctx.N), size):
            rows = memo.get(support)
            if rows is None:
                rows = memo[support] = ctx._support_rows(support)
            if rows:
                out = mul(rows, syn, w)
                hit = pending & ~functools.reduce(operator.or_, map(nonzero, out[1:]), 0)
                if hit:
                    demand = add(demand, keep(out[0], hit))
                    pending ^= hit
                    if not pending:
                        return demand, 0
    return demand, pending


@dataclass(frozen=True)
class TrapResult:
    """Recovered payload block, or a detected trapping failure."""

    Q: Matrix | None
    failure: str | None = None
    risk_flag: bool = False

    @property
    def ok(self) -> bool:
        return self.Q is not None


def trap_pad(Q: Matrix, v: int) -> Matrix:
    """Embed Q below and right of a v-row, v-column zero pad."""
    if v < 0:
        raise ValueError(f"pad size must be >= 0, got {v}")
    f = Q.field
    if v == 0:
        return Q
    top = Matrix.zeros(f, v, v + Q.ncols)
    bottom = hstack(Matrix.zeros(f, Q.nrows, v), Q)
    return vstack(top, bottom)


def rank_trap_decode(received: Matrix, v: int, N: int, ell: int) -> TrapResult:
    """Undo a trapped rank error on a padded payload.

    ``received`` is the padded payload plus an additive error W of rank at
    most v.  The pad region reads off W's left blocks directly; if the
    bottom-left rows escape the span of the top-left ones the failure is
    detected, otherwise the error's contribution to the payload block is
    cancelled.  A full-rank top-left block saturates the trap, so an error
    of rank above v could slip through; that case is only flagged.  The
    work runs on rows, see :func:`_trap_rows`.
    """
    if received.nrows != v + N or received.ncols != v + ell:
        raise ValueError(
            f"received shape {received.nrows}x{received.ncols} does not match "
            f"layout v={v}, N={N}, ell={ell}"
        )
    f = received.field
    out = _trap_rows(f, f._fmt.to_rows(received.rows), v, ell)
    if out is None:
        return TrapResult(None, TRAP_FAILURE_DETECTED)
    payload, risk = out
    return TrapResult(_from_rows(f, payload, ell), risk_flag=risk)


def _trap_rows(field, rows: list, v: int, ell: int) -> tuple | None:
    """:func:`rank_trap_decode` on the (v+ell)-wide rows of ``received`` in
    the row format of :mod:`~iccsi.galois`.

    Returns the payload rows and the risk flag, or None when the failure is
    detected.  The pad rows [W_11 | W_12] are row-reduced on their first v
    columns, which gives U [W_11 | W_12] for the transform U of the RREF of
    W_11.  Reducing a row [W_21 | payload] against the pairs of its pivot
    rows (see the row format's ``rref``) subtracts T [W_11 | W_12]
    for the canonical solution T of T W_11 = W_21; the row has no such T
    when its first v entries stay nonzero.
    """
    fmt, width = field._fmt, v + ell
    if v == 0:
        return rows, False
    basis = fmt.rref(rows[:v], width, v)[2]
    reduce = fmt.reduce
    pad, tail = fmt.block(0, v, width), fmt.block(v, width, width)
    zero = fmt.zero(v)
    payload = []
    for row in rows[v:]:
        row = reduce(basis, row)
        if pad(row) != zero:
            return None
        payload.append(tail(row))
    return payload, len(basis) == v


def _payload_width(inst: IccsiInstance, shared: bool) -> int:
    """The width ell of a trapped payload: Y alone, t wide, when the
    receivers share L V_S, else [L | Y], d_S + t wide."""
    return inst.t if shared else inst.d_S + inst.t


def _demand_map(inst: IccsiInstance, i: int, lvs: Matrix) -> tuple:
    """User i's demand map for one L V_S, which both decoders read.

    From the transform T of the RREF of [V^(i); lvs], the row c with
    c [V^(i); lvs] = R_i over the rows Q of T past the rank, which
    annihilate [V^(i); lvs]; empty when R_i is outside its row space.
    """
    u = inst.users[i]
    c, kernel = _solve_left_kernel(vstack(u.V, lvs), u.R)
    return () if c is None else c + kernel


def solve_demand(
    inst: IccsiInstance,
    i: int,
    lvs: Matrix,
    Y: Matrix,
    lam: Matrix,
) -> Matrix:
    """Noiseless recovery of R_i X from the system (V^(i) | lam; lvs | Y).

    Row-reduces [R_i | 0] against one echelon of the whole system, see
    :func:`_stacked_demand`.  Raises ValueError when R_i is not
    recoverable, i.e. the encoder does not serve user i, or when the shapes
    or fields do not fit together.
    """
    u, f = inst.users[i], inst.field
    if Y.field != f or lam.field != f or lvs.field != f:
        raise ValueError("fields differ")
    if lam.nrows != u.d or Y.nrows != lvs.nrows or (u.d and lam.ncols != Y.ncols):
        raise ValueError("side information or broadcast shape mismatch")
    n, w, fmt = inst.n, Y.ncols, f._fmt
    join = fmt.join(w)
    basis = _row_echelon(f, map(join, fmt.to_rows(lvs.rows), fmt.to_rows(Y.rows)), n + w)
    cache = map(join, fmt.to_rows(u.V.rows), fmt.to_rows(lam.rows))
    row = _stacked_demand(f, basis, cache, join(fmt.pack(u.R.rows[0]), fmt.zero(w)), n, w)
    if row is None:
        raise ValueError(f"user {i}: request not in the decoded span")
    return _from_rows(f, (row,), w)


def _stacked_demand(field, basis: list, cache, request, n: int, w: int):
    """A user's demand row from the stacked system [V^(i) | lam; L V_S | Y],
    or None when R_i is outside the row space of [V^(i); L V_S].

    ``basis`` holds the insertion pairs of the
    (n + w)-wide rows [L V_S | Y], which every user shares; ``cache`` gives
    user i's rows [V^(i) | lam] and ``request`` is [R_i | 0], all in the
    row format.  The cache rows go into a copy of the echelon, and
    [R_i | 0] is reduced against it.  A remainder against insertion-order
    pairs is zero at every pivot column, so it is the canonical one, the
    remainder against the RREF: when R_i = c [V^(i); L V_S] it is
    [0 | -c [lam; Y]] reduced against the rows of the RREF that have their
    pivot in the right block, so its right block is minus the demand:
    c [lam; Y], for the map c over Q of :func:`_demand_map`, reduced
    against the RREF of Q [lam; Y], which leaves it as it is when
    Q [lam; Y] = 0.  Otherwise its left block is nonzero.
    """
    fmt, width = field._fmt, n + w
    row = fmt.reduce(_row_echelon(field, cache, width, basis), request)
    if fmt.block(0, n, width)(row) != fmt.zero(n):
        return None
    return fmt.scale(field.neg(1), fmt.block(n, width, width)(row))


# -- broadcast frames -------------------------------------------------

FRAME_MAGIC = b"ICC1"
FLAG_LVS_SHARED = 1

_HEADER = struct.Struct("<4sIHHHHH")
_READ_CHUNK = 1 << 16


class FrameError(ValueError):
    """The byte stream is not a valid broadcast frame."""


def write_frame(
    out: BufferedIOBase,
    payload: Matrix,
    v: int,
    ell: int,
    flags: int = 0,
) -> None:
    """Serialize a (v+N) x (v+ell) broadcast matrix.

    Raises ValueError when the shape does not match the layout or a header
    field does not fit its 16 bits.
    """
    f = payload.field
    N = payload.nrows - v
    for name, value in (("v", v), ("N", N), ("ell", ell), ("flags", flags)):
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"frame field {name}={value} outside [0, 65535]")
    if payload.ncols != v + ell:
        raise ValueError(
            f"payload has {payload.ncols} columns, expected v+ell={v + ell}"
        )
    out.write(_HEADER.pack(FRAME_MAGIC, f.p, f.e, v, N, ell, flags))
    bits = (f.p - 1).bit_length()
    acc = 0
    pos = 0
    for row in payload.rows:
        for val in row:
            for _ in range(f.e):
                acc |= (val % f.p) << pos
                val //= f.p
                pos += bits
    out.write(acc.to_bytes((pos + 7) // 8, "little"))


def read_frame(inp: BufferedIOBase) -> tuple[Matrix, dict]:
    """Parse a broadcast frame; returns the matrix and the layout header.

    Raises :class:`FrameError` for a bad header, a truncated payload, a digit
    out of range or nonzero pad bits after the last digit.
    """
    head = inp.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise FrameError("truncated header")
    magic, p, e, v, N, ell, flags = _HEADER.unpack(head)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    try:
        f = field_new(p, e)
    except ValueError as exc:
        raise FrameError(str(exc)) from None
    bits = (p - 1).bit_length()
    ndigits = (v + N) * (v + ell) * e
    nbytes = (ndigits * bits + 7) // 8
    # In chunks: a file-backed read(n) allocates n bytes up front, and the
    # header alone can declare tens of gigabytes.
    data = bytearray()
    while len(data) < nbytes:
        chunk = inp.read(min(nbytes - len(data), _READ_CHUNK))
        if not chunk:
            raise FrameError("truncated payload")
        data += chunk
    acc = int.from_bytes(data, "little")
    mask = (1 << bits) - 1
    rows = []
    pos = 0
    for _ in range(v + N):
        row = []
        for _ in range(v + ell):
            val = 0
            scale = 1
            for _ in range(e):
                digit = (acc >> pos) & mask
                pos += bits
                if digit >= p:
                    raise FrameError(f"digit {digit} out of range for p={p}")
                val += digit * scale
                scale *= p
            row.append(val)
        rows.append(row)
    if acc >> pos:
        raise FrameError("nonzero pad bits after the last digit")
    payload = Matrix(f, rows, v + ell)
    return payload, {"v": v, "N": N, "ell": ell, "flags": flags}
