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

A noiseless fallback, :func:`solve_demand`, recovers the request by row
reduction of the stacked (cache | broadcast) system.

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
    mat_rank,
    mat_rref,
    null_space,
    right_inverse,
    _solve_left_rref,
    solve_left,
    vstack,
)
from .instance import IccsiInstance

SYNDROME_NOT_FOUND = "SyndromeNotFound"
TRAP_FAILURE_DETECTED = "TrapFailureDetected"


@dataclass(frozen=True)
class UserTransform:
    """Invertible change of basis M for user i with M = [A | B].

    A is a right inverse of the stacked (cache; request) matrix G, B spans
    its kernel, so V^(i) M = [I | 0] and R_i M is the (d_i+1)-th unit row.
    """

    i: int
    M: Matrix
    A: Matrix
    B: Matrix


def build_user_transform(inst: IccsiInstance, i: int) -> UserTransform:
    u = inst.users[i]
    g = vstack(u.V, u.R)
    a = right_inverse(g)
    assert a is not None, "instance validity guarantees full row rank of (V; R)"
    b = null_space(g)
    m = hstack(a, b) if b.ncols else a
    assert mat_rank(m) == inst.n
    return UserTransform(i, m, a, b)


@dataclass(frozen=True)
class ParityData:
    """Per-user parity matrices for syndrome decoding an encoder L.

    ``L_prime`` is L V_S M.  ``H`` stacks ``h`` (annihilates the trailing
    columns but not column d_i, normalized so s = h L'^{d_i+1} is 1) over
    ``H_upper`` (annihilates column d_i and the trailing columns), so the
    syndrome splits into a request part and an error-only part.
    """

    i: int
    L_prime: Matrix
    H: Matrix
    h: Matrix
    H_upper: Matrix
    s: int


def build_parity(
    inst: IccsiInstance,
    L: Matrix,
    i: int,
    transform: UserTransform | None = None,
) -> ParityData:
    if transform is None:
        transform = build_user_transform(inst, i)
    lvs = L * inst.V_S
    lp = lvs * transform.M
    d = inst.users[i].d
    request_col = lp.take_cols((d,))
    trailing = lp.take_cols(range(d + 1, inst.n))
    block = hstack(request_col, trailing) if trailing.ncols else request_col
    target = Matrix._trusted(inst.field, ((1,) + (0,) * trailing.ncols,), block.ncols)
    h = solve_left(block, target)
    if h is None:
        raise ValueError(
            f"user {i}: request column lies in the trailing column span; "
            "L does not realize the instance"
        )
    h_upper = null_space(block.transpose()).transpose()
    H = vstack(h, h_upper)
    s = (h * request_col).rows[0][0]
    assert s == 1
    assert (H * trailing).is_zero() if trailing.ncols else True
    assert (h_upper * request_col).is_zero()
    return ParityData(i, lp, H, h, h_upper, s)


@dataclass(frozen=True)
class UserDecoder:
    """Bundle of the per-user precomputations both decode steps need.

    ``support_rref`` maps an error support (a tuple of row indices) to the
    RREF of the transposed ``H_upper`` columns it selects.  The syndrome
    search fills it on first use, so each support is eliminated once per
    decoder rather than once per call.  It takes no part in equality or
    hashing.
    """

    transform: UserTransform
    parity: ParityData
    support_rref: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def cache_cols(self) -> Matrix:
        """The first d_i columns of L', the ones the cached symbols multiply."""
        return self.parity.L_prime.take_cols(range(self.transform.A.ncols - 1))


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
    enumerated by size then lexicographically, values solved canonically),
    and reads the demand off the corrected request part.
    """
    pd = ctx.parity
    f = pd.H.field
    d = ctx.transform.A.ncols - 1
    known = ctx.cache_cols * lam if d else None
    diff = Y - known if known is not None else Y
    syndrome = pd.H * diff
    alpha = syndrome.take_rows((0,))
    beta = syndrome.take_rows(range(1, syndrome.nrows))
    eps = _match_syndrome(ctx, beta, delta)
    if eps is None:
        return DecodeOutcome(None, SYNDROME_NOT_FOUND)
    corrected = alpha - pd.h * eps
    inv_s = f.inv(pd.s)
    demand = corrected if inv_s == 1 else corrected.scale(inv_s)
    return DecodeOutcome(demand)


def _match_syndrome(ctx: UserDecoder, beta: Matrix, delta: int) -> Matrix | None:
    """First error pattern with <= delta nonzero rows whose syndrome is beta.

    Supports are scanned by increasing size, then lexicographically; the
    per-support values come from the canonical linear solve, against the
    support eliminations memoized on ``ctx``.  Returns an N x t matrix or
    None.
    """
    h_upper = ctx.parity.H_upper
    f = h_upper.field
    n_rows = h_upper.ncols
    t = beta.ncols
    if beta.is_zero():
        return Matrix.zeros(f, n_rows, t)
    memo = ctx.support_rref
    beta_t = beta.transpose()
    for size in range(1, delta + 1):
        for support in combinations(range(n_rows), size):
            res = memo.get(support)
            if res is None:
                res = memo[support] = mat_rref(h_upper.take_cols(support).transpose())
            sol = _solve_left_rref(res, beta_t)
            if sol is None:
                continue
            values = sol.transpose().rows
            rows = [(0,) * t] * n_rows
            for k, r in enumerate(support):
                rows[r] = values[k]
            return Matrix._trusted(f, tuple(rows), t)
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
    of rank above v could slip through; that case is only flagged.
    """
    if received.nrows != v + N or received.ncols != v + ell:
        raise ValueError(
            f"received shape {received.nrows}x{received.ncols} does not match "
            f"layout v={v}, N={N}, ell={ell}"
        )
    payload = received.take_rows(range(v, v + N)).take_cols(range(v, v + ell))
    if v == 0:
        return TrapResult(payload)
    w11 = received.take_rows(range(v)).take_cols(range(v))
    w12 = received.take_rows(range(v)).take_cols(range(v, v + ell))
    w21 = received.take_rows(range(v, v + N)).take_cols(range(v))
    # w21 escapes the row space of w11 exactly when it has no solution.
    res = mat_rref(w11)
    T = _solve_left_rref(res, w21)
    if T is None:
        return TrapResult(None, TRAP_FAILURE_DETECTED)
    return TrapResult(payload - T * w12, risk_flag=res.rank == v)


def solve_demand(
    inst: IccsiInstance,
    i: int,
    lvs: Matrix,
    Y: Matrix,
    lam: Matrix,
) -> Matrix:
    """Noiseless recovery of R_i X by row reduction.

    Reduces the stacked system (V^(i) | lam; lvs | Y).  A reduced row with
    pivot column pc < n is the only one with a nonzero entry there, so if
    R_i lies in the left block's span it is the sum of R_i[pc] times those
    rows, and the demand is the same sum of their right blocks.  Raises
    ValueError when R_i is not recoverable, i.e. the encoder does not serve
    user i.
    """
    u = inst.users[i]
    if lam.nrows != u.d or Y.nrows != lvs.nrows:
        raise ValueError("side information or broadcast shape mismatch")
    left = vstack(u.V, lvs)
    right = vstack(lam, Y) if u.d else Y
    res = mat_rref(hstack(left, right))
    n, f, r = inst.n, inst.field, u.R.rows[0]
    acc = (0,) * (n + Y.ncols)
    for row, pc in zip(res.rref.rows, res.pivots):
        if pc >= n:
            break
        if r[pc]:
            acc = tuple(map(f.add, acc, map(f.scaler(r[pc]), row)))
    if acc[:n] != r:
        raise ValueError(f"user {i}: request not in the decoded span")
    return Matrix._trusted(f, (acc[n:],), Y.ncols)


# -- broadcast frames -------------------------------------------------

FRAME_MAGIC = b"ICC1"
FLAG_LVS_SHARED = 1

_HEADER = struct.Struct("<4sIHHHHH")


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
    data = inp.read(nbytes)
    if len(data) != nbytes:
        raise FrameError("truncated payload")
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
