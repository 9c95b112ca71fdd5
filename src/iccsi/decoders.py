"""Receiver-side decoding and the binary broadcast frame format.

Two decoding paths:

* Hamming syndrome decoding.  User i changes basis with an invertible M so
  that its cache reads off the first d_i coordinates and its request the
  next one, then cancels the known part of the received word, matches the
  remaining syndrome against error patterns of at most delta nonzero rows,
  and extracts the requested symbol from the corrected word.

* Rank error trapping.  The sender pads the payload Q with v zero rows and
  columns; a rank-r additive error W then exposes enough of its row space
  in the pad that the receiver can cancel it from the payload block, or
  detect that trapping failed.

The demand solve, :func:`solve_demand`, recovers the request from the
stacked (cache | broadcast) system [V^(i) | lam; L V_S | Y].  Its left block
is fixed for a given L V_S, so one RREF of it gives a fixed map, a row c
with c [V^(i); L V_S] = R_i over rows Q that annihilate the block.  When
Q [lam; Y] = 0 the demand is c [lam; Y]; otherwise it is c [lam; Y]
reduced against the RREF of the w-wide rows Q [lam; Y].  Both are what one
RREF of the whole system gives.

The broadcast frame is a little-endian binary format: magic ``ICC1``, the
field as (p, e), the pad/payload layout (v, N, ell), a flags word, then the
matrix entries row-major as base-p digits packed at (p-1).bit_length()
bits per digit.  Frames carry only fields with the canonical modulus.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from io import BufferedIOBase
from itertools import combinations

from .galois import (
    Matrix,
    field_new,
    hstack,
    mat_rref,
    _from_row,
    _echelon_reduce,
    _from_rows,
    _row_block,
    _row_mul,
    _solve_left_rref,
    _to_rows,
    _zero_row,
    vstack,
)
from .instance import IccsiInstance

SYNDROME_NOT_FOUND = "SyndromeNotFound"
TRAP_FAILURE_DETECTED = "TrapFailureDetected"


@dataclass(frozen=True)
class UserTransform:
    """Invertible change of basis M for user i with M = [A | B].

    M is T^T for the transform T of the RREF of G^T, G the stacked
    (cache; request) matrix.  G has full row rank, so T G^T = [I; 0]:
    A, the first d_i+1 columns, is a right inverse of G, and B, the rest,
    spans its kernel.  Hence V^(i) M = [I | 0] and R_i M is the (d_i+1)-th
    unit row.  ``d`` is d_i; A and B are read-only views of M's columns.
    """

    i: int
    M: Matrix
    d: int

    @cached_property
    def A(self) -> Matrix:
        return self.M.take_cols(range(self.d + 1))

    @cached_property
    def B(self) -> Matrix:
        return self.M.take_cols(range(self.d + 1, self.M.ncols))


def build_user_transform(inst: IccsiInstance, i: int) -> UserTransform:
    u = inst.users[i]
    res = mat_rref(vstack(u.V, u.R).transpose())
    assert res.rank == u.d + 1, "instance validity guarantees full row rank of (V; R)"
    return UserTransform(i, res.transform.transpose(), u.d)


@dataclass(frozen=True)
class ParityData:
    """Per-user parity matrix for syndrome decoding an encoder L.

    ``L_prime`` is L V_S M.  The first row ``h`` of ``H`` annihilates the
    trailing columns d_i+1.. of L' and maps column d_i, the request, to 1;
    the other rows ``H_upper`` are a basis of the left kernel of columns
    d_i.., so the syndrome splits into a request part and an error-only
    part.
    """

    i: int
    L_prime: Matrix
    H: Matrix

    @cached_property
    def h(self) -> Matrix:
        return self.H.take_rows((0,))

    @cached_property
    def H_upper(self) -> Matrix:
        return self.H.take_rows(range(1, self.H.nrows))


def build_parity(
    inst: IccsiInstance,
    L: Matrix,
    i: int,
    transform: UserTransform | None = None,
) -> ParityData:
    """H read off the RREF transform T of [trailing | request] of L' = L V_S M.

    With the request column last, the last pivot falls on it exactly when
    it escapes the span of the trailing columns.  T's row at that pivot
    is then h, and the rows below it, which T maps to zero, are H_upper.
    Raises ValueError when L does not serve user i.
    """
    if transform is None:
        transform = build_user_transform(inst, i)
    lp = L * inst.V_S * transform.M
    d = inst.users[i].d
    res = mat_rref(lp.take_cols((*range(d + 1, inst.n), d)))
    if res.pivots[-1:] != (inst.n - d - 1,):
        raise ValueError(
            f"user {i}: request column lies in the trailing column span; "
            "L does not realize the instance"
        )
    return ParityData(i, lp, res.transform.take_rows(range(res.rank - 1, L.nrows)))


@dataclass(frozen=True)
class UserDecoder:
    """Bundle of the per-user precomputations both decode steps need.

    ``support_rref`` maps an error support (a tuple of row indices) to the
    rows that, times the syndrome, give the demand and then Q_S beta (see
    :meth:`_support_rows`); an empty tuple marks a support whose columns of
    ``H_upper`` are dependent.  The syndrome search fills it on first use,
    in scan order, so each support is eliminated once per decoder rather
    than once per call.  It takes no part in equality or hashing.
    """

    transform: UserTransform
    parity: ParityData
    support_rref: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def cache_cols(self) -> Matrix:
        """The first d_i columns of L', the ones the cached symbols multiply."""
        return self.parity.L_prime.take_cols(range(self.transform.d))

    @cached_property
    def syndrome_rows(self) -> tuple:
        """Rows of [H | -H C], C = ``cache_cols``: times Y stacked over the
        cached symbols lam it is H Y - (H C) lam, which is H (Y - C lam)."""
        H = self.parity.H
        return hstack(H, -(H * self.cache_cols)).rows

    def _support_rows(self, support: tuple) -> tuple:
        """Rows of [1, -h_S P_S; 0, Q_S] for the columns H_S of ``H_upper``
        on ``support``, or () when they are dependent.

        The transform T of the RREF of H_S has T H_S = [I; 0] when the
        columns are independent: its first |S| rows are a left inverse P_S,
        the rest a Q_S with Q_S H_S = 0 and full row rank, so beta lies in
        the column span of H_S exactly when Q_S beta = 0, and then the error
        values are P_S beta.  Times the syndrome [alpha; beta] the rows give
        alpha - h_S P_S beta, the corrected demand, over Q_S beta.
        """
        pd = self.parity
        size = len(support)
        res = mat_rref(pd.H_upper.take_cols(support))
        if res.rank < size:
            return ()
        P = res.transform.take_rows(range(size))
        first = (1,) + (-(pd.h.take_cols(support) * P)).rows[0]
        return (first,) + tuple((0,) + q for q in res.transform.rows[size:])


def build_user_decoder(inst: IccsiInstance, L: Matrix, i: int) -> UserDecoder:
    ut = build_user_transform(inst, i)
    return UserDecoder(ut, build_parity(inst, L, i, transform=ut))


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

    Cancels the cached coordinates from Y, splits the syndrome H (Y - known)
    into the request part alpha and the error-only part beta, searches for
    an error pattern of at most delta nonzero rows matching beta (supports
    enumerated by size then lexicographically), and reads the demand off
    the corrected request part.  Raises ValueError unless Y has one row per
    code symbol, lam one per cached symbol and the width of Y, both over
    the decoder's field.  The work runs on rows, see :func:`_decode_rows`.
    """
    f = ctx.parity.H.field
    if Y.field != f or lam.field != f:
        raise ValueError("fields differ")
    d = ctx.cache_cols.ncols
    if Y.nrows != ctx.parity.H.ncols or lam.nrows != d or (d and lam.ncols != Y.ncols):
        raise ValueError(
            f"Y is {Y.nrows}x{Y.ncols} and lam {lam.nrows}x{lam.ncols}; expected "
            f"{ctx.parity.H.ncols} and {d} rows of equal width"
        )
    t = Y.ncols
    row = _decode_rows(ctx, _to_rows(f, Y.rows + lam.rows), delta, t)
    if row is None:
        return DecodeOutcome(None, SYNDROME_NOT_FOUND)
    return DecodeOutcome(_from_rows(f, (row,), t))


def _decode_rows(ctx: UserDecoder, y_lam: list, delta: int, t: int) -> int | tuple | None:
    """:func:`syndrome_decode` on width-t rows in the format of
    :func:`~iccsi.galois._row_mul`: ``y_lam`` is Y stacked over lam, and
    the result is the demand row, or None when no error pattern matches.

    The first support that matches has independent columns: a dependent one
    spans what a smaller subset spans, and the scan reaches that subset
    first.  So the matching error pattern is unique.
    """
    f = ctx.parity.H.field
    syn = _row_mul(f, ctx.syndrome_rows, y_lam, t)
    zeros = [_zero_row(f, t)] * (len(syn) - 1)
    if syn[1:] == zeros:
        return syn[0]
    memo = ctx.support_rref
    for size in range(1, delta + 1):
        for support in combinations(range(ctx.parity.H.ncols), size):
            rows = memo.get(support)
            if rows is None:
                rows = memo[support] = ctx._support_rows(support)
            if rows:
                out = _row_mul(f, rows, syn, t)
                # An independent support leaves Q_S with r - size rows.
                if out[1:] == zeros[size:]:
                    return out[0]
    return None


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
    out = _trap_rows(f, _to_rows(f, received.rows), v, ell)
    if out is None:
        return TrapResult(None, TRAP_FAILURE_DETECTED)
    payload, risk = out
    return TrapResult(_from_rows(f, payload, ell), risk_flag=risk)


def _trap_rows(field, rows: list, v: int, ell: int) -> tuple | None:
    """:func:`rank_trap_decode` on the (v+ell)-wide rows of ``received`` in
    the format of :func:`~iccsi.galois._row_mul`.

    Returns the payload rows and the risk flag, or None when the failure is
    detected.  The pad rows [W_11 | W_12] are row-reduced on their first v
    columns, which gives U [W_11 | W_12] for the transform U of the RREF of
    W_11.  Reducing a row [W_21 | payload] against its pivot rows subtracts
    T [W_11 | W_12] for the canonical solution T of T W_11 = W_21; the row
    has no such T when its first v entries stay nonzero.
    """
    width = v + ell
    if v == 0:
        return rows, False
    res = mat_rref(_from_rows(field, rows[:v], width), stop=v)
    basis = list(zip(res.pivots, res.rref.rows))
    payload = []
    for row in _from_rows(field, rows[v:], width).rows:
        row = _echelon_reduce(basis, row, field.sub, field.scaler)
        if any(row[:v]):
            return None
        payload.append(row[v:])
    return _to_rows(field, payload), res.rank == v


def _split_payload(inst: IccsiInstance, Q: list, ell: int, shared_lvs: Matrix | None) -> tuple:
    """(L, Y) of the ``ell``-wide rows Q of a trapped payload, in the
    format of :func:`~iccsi.galois._row_mul`.

    ``shared_lvs`` is the encoder's L V_S when the receivers share it, and
    then Q is Y and L is None.  When it is None, Q is [L | Y] with L in its
    first d_S columns, and L comes as a tuple of entry rows, a dict key
    for :func:`_decoded_lvs`.
    """
    if shared_lvs is not None:
        return None, Q
    f, d_S = inst.field, inst.d_S
    head = _row_block(f, 0, d_S, ell)
    L = tuple(_from_row(f, head(r), d_S) for r in Q)
    return L, list(map(_row_block(f, d_S, ell, ell), Q))


def _decoded_lvs(inst: IccsiInstance, L: tuple | None, shared_lvs: Matrix | None) -> Matrix:
    """The L V_S of an L from :func:`_split_payload`."""
    if L is None:
        return shared_lvs
    return Matrix._trusted(inst.field, L, inst.d_S) * inst.V_S


def _demand_map(inst: IccsiInstance, i: int, lvs: Matrix) -> tuple:
    """User i's demand solve for one decoded L V_S.

    From the transform T of the RREF of [V^(i); lvs], the row c with
    c [V^(i); lvs] = R_i over the rows Q of T past the rank, which
    annihilate [V^(i); lvs]; empty when R_i is outside its row space.
    """
    u = inst.users[i]
    res = mat_rref(vstack(u.V, lvs))
    c = _solve_left_rref(res, u.R)
    return () if c is None else c.rows + res.transform.rows[res.rank:]


def solve_demand(
    inst: IccsiInstance,
    i: int,
    lvs: Matrix,
    Y: Matrix,
    lam: Matrix,
) -> Matrix:
    """Noiseless recovery of R_i X from the system (V^(i) | lam; lvs | Y).

    Builds user i's demand map for ``lvs`` and applies it, see
    :func:`_demand_rows`.  Raises ValueError when R_i is not recoverable,
    i.e. the encoder does not serve user i, or when the shapes or fields
    do not fit together.
    """
    u, f = inst.users[i], inst.field
    if Y.field != f or lam.field != f or lvs.field != f:
        raise ValueError("fields differ")
    if lam.nrows != u.d or Y.nrows != lvs.nrows or (u.d and lam.ncols != Y.ncols):
        raise ValueError("side information or broadcast shape mismatch")
    w = Y.ncols
    row = _demand_rows(inst, i, _demand_map(inst, i, lvs), _to_rows(f, lam.rows + Y.rows), w)
    return _from_rows(f, (row,), w)


def _demand_rows(inst: IccsiInstance, i: int, dmap: tuple, right: list, w: int):
    """:func:`solve_demand` on ``right``, the ``w``-wide rows of lam stacked
    over Y in the format of :func:`~iccsi.galois._row_mul`; returns the
    demand row.

    When Q [lam; Y] = 0 the RREF of the whole system is T applied to it,
    with no pivot in the right block, so its demand is c [lam; Y].
    """
    if not dmap:
        raise ValueError(f"user {i}: request not in the decoded span")
    f = inst.field
    out = _row_mul(f, dmap, right, w)
    if out[1:] == [_zero_row(f, w)] * (len(out) - 1):
        return out[0]
    return _inconsistent_demand(f, out, w)


def _inconsistent_demand(field, out: list, w: int):
    """The demand row from ``out``, the ``w``-wide rows c [lam; Y] over
    Q [lam; Y] != 0 in the row format: c [lam; Y] reduced against the RREF
    of Q [lam; Y].

    Past T, the RREF of the whole system row-reduces [0 | Q [lam; Y]] and
    clears their pivot columns from the rows above, which is unique and
    linear, as an RREF row is 1 at its pivot and 0 at the others.
    """
    res = mat_rref(_from_rows(field, out[1:], w))
    pairs = zip(res.pivots, res.rref.rows)
    row = _echelon_reduce(pairs, _from_row(field, out[0], w), field.sub, field.scaler)
    return _to_rows(field, (row,))[0]


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
