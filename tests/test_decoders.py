"""Receiver-side decoding: syndrome path, rank error trapping, frames."""

import io
import itertools

import numpy as np
import pytest

from conftest import (
    SYN_H4,
    SYN_L,
    SYN_M4,
    SYN_V4,
    TRAP_L,
    TRAP_RECEIVED,
    TRAP_T,
    TRAP_X,
    build,
    ident,
)
from iccsi import (
    Matrix,
    build_user_decoder,
    field_new,
    make_instance,
    rank_trap_decode,
    read_frame,
    solve_demand,
    syndrome_decode,
    trap_pad,
    write_frame,
)
from iccsi.decoders import (
    FLAG_LVS_SHARED,
    SYNDROME_NOT_FOUND,
    TRAP_FAILURE_DETECTED,
    FrameError,
)
from iccsi.galois import (
    hstack,
    iter_vectors,
    mat_rank,
    mat_rref,
    rank_weight,
    solve_left,
    vstack,
)

F2 = field_new(2, 1)


# -- syndrome decoding ------------------------------------------------


def test_parity_degenerate_encoder_rejected(trap_inst):
    # a single broadcast row cannot separate the request from the rest of
    # the broadcast span for this instance
    L = Matrix(F2, ((1, 1, 1, 1),))
    with pytest.raises(ValueError, match="does not realize"):
        build_user_decoder(trap_inst, L, 0)


def test_parity_shape_and_identities(syn_inst):
    # The decoder's map [c; Q]: c [V^(i); L V_S] = R_i, and Q annihilates
    # [V^(i); L V_S] with full row rank, one row per dependency of its rows.
    L = Matrix(F2, SYN_L)
    lvs = L * syn_inst.V_S
    for i in range(syn_inst.m):
        u = syn_inst.users[i]
        ctx = build_user_decoder(syn_inst, L, i)
        G = vstack(u.V, lvs)
        c, Q = Matrix(F2, ctx.rows[:1]), Matrix(F2, ctx.rows[1:], G.nrows)
        assert (ctx.d, ctx.N) == (u.d, L.nrows)
        assert c * G == u.R
        assert (Q * G).is_zero()
        assert mat_rank(Q) == Q.nrows == G.nrows - mat_rank(G)


def test_parity_walkthrough_shape(syn_inst):
    # For user 4, [V^(4); L V_S] has rank 4 in 7 rows, so the map has c and
    # three rows of Q, and the Y part of Q spans what the walkthrough's
    # H_upper spans.
    ctx = build_user_decoder(syn_inst, Matrix(F2, SYN_L), 3)
    assert len(ctx.rows) == len(SYN_H4) and {len(r) for r in ctx.rows} == {7}
    q_y = Matrix(F2, ctx.rows[1:]).take_cols(range(2, 7))
    h_upper = Matrix(F2, SYN_H4[1:])
    assert mat_rank(q_y) == mat_rank(h_upper) == mat_rank(vstack(q_y, h_upper)) == 3


def _walkthrough_parity(syn_inst):
    """L' = L V_S M and H for user 4 from the walkthrough matrices."""
    m4 = Matrix(F2, SYN_M4)
    return Matrix(F2, SYN_L) * syn_inst.V_S * m4, Matrix(F2, SYN_H4)


def test_walkthrough_transform_and_parity_are_valid(syn_inst):
    """The walkthrough M and H satisfy the defining identities for the
    originally written cache basis."""
    v4 = Matrix(F2, SYN_V4)
    r4 = syn_inst.users[3].R
    m4 = Matrix(F2, SYN_M4)
    assert (v4 * m4) == hstack(Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 2))
    assert (r4 * m4).rows[0] == (0, 0, 1, 0)
    lp, H = _walkthrough_parity(syn_inst)
    request_col = lp.take_cols([2])
    trailing = lp.take_cols([3])
    assert (H * trailing).is_zero()
    assert (H * request_col).col(0) == (1, 0, 0, 0)


def test_walkthrough_step_values(syn_inst):
    lp, H = _walkthrough_parity(syn_inst)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    Y = Matrix(F2, SYN_L) * X + Matrix.column_vector(F2, (0, 0, 0, 1, 0))
    assert Y.col(0) == (0, 1, 0, 0, 1)
    lam = Matrix(F2, SYN_V4) * X
    assert lam.col(0) == (1, 0)
    syndrome = H * (Y - lp.take_cols([0, 1]) * lam)
    assert syndrome.col(0) == (0, 1, 1, 1)  # alpha = 0, beta = (1,1,1)
    ctx = build_user_decoder(syn_inst, Matrix(F2, SYN_L), 3)
    out = syndrome_decode(ctx, Y, syn_inst.users[3].V * X, delta=1)
    assert out.failure is None
    assert out.demand.rows == ((1,),)
    # exactly two single-position corrections explain beta; both give the
    # same demand
    h, H_upper = H.take_rows([0]), H.take_rows([1, 2, 3])
    solutions = []
    for j in range(5):
        eps = Matrix(F2, tuple((1,) if r == j else (0,) for r in range(5)))
        if H_upper * eps == syndrome.take_rows([1, 2, 3]):
            solutions.append(j)
            recomputed = (syndrome.take_rows([0]) - h * eps).rows[0][0]
            assert recomputed == 1
    assert solutions == [3, 4]


def test_syndrome_decode_with_canonical_context(syn_inst):
    L = Matrix(F2, SYN_L)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    Y = L * X + Matrix.column_vector(F2, (0, 0, 0, 1, 0))
    ctx = build_user_decoder(syn_inst, L, 3)
    lam = syn_inst.users[3].V * X
    out = syndrome_decode(ctx, Y, lam, delta=1)
    assert out.failure is None and out.demand.rows == ((1,),)


def test_support_memo_reused_and_outside_equality(syn_inst):
    L = Matrix(F2, SYN_L)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    Y = L * X + Matrix.column_vector(F2, (0, 0, 0, 1, 0))
    lam = syn_inst.users[3].V * X
    warm, cold = build_user_decoder(syn_inst, L, 3), build_user_decoder(syn_inst, L, 3)
    first = syndrome_decode(warm, Y, lam, delta=1)
    filled = dict(warm.support_rref)
    # the search stopped at support (3,), the first one that explains beta
    assert sorted(filled) == [(0,), (1,), (2,), (3,)]
    assert warm == cold and hash(warm) == hash(cold)
    assert syndrome_decode(warm, Y, lam, delta=1) == first
    assert all(warm.support_rref[k] is v for k, v in filled.items())
    assert syndrome_decode(cold, Y, lam, delta=1) == first


def test_syndrome_full_sweep(syn_inst):
    """All users, all messages, all errors of weight at most one."""
    L = Matrix(F2, SYN_L)
    decoders = [build_user_decoder(syn_inst, L, i) for i in range(4)]
    errors = [Matrix.zeros(F2, 5, 1)] + [
        Matrix(F2, tuple((1,) if r == j else (0,) for r in range(5)))
        for j in range(5)
    ]
    checked = 0
    for x in iter_vectors(F2, 4):
        X = Matrix.column_vector(F2, x)
        word = L * X
        for W in errors:
            Y = word + W
            for i in range(4):
                lam = syn_inst.users[i].V * X
                out = syndrome_decode(decoders[i], Y, lam, delta=1)
                assert out.failure is None
                assert out.demand == syn_inst.users[i].R * X
                checked += 1
    assert checked == 16 * 6 * 4


def test_syndrome_not_found_beyond_design(syn_inst):
    L = Matrix(F2, SYN_L)
    ctx = build_user_decoder(syn_inst, L, 3)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    lam = syn_inst.users[3].V * X
    Y = L * X + Matrix.column_vector(F2, (1, 0, 0, 1, 0))
    out = syndrome_decode(ctx, Y, lam, delta=1)
    assert out.failure == SYNDROME_NOT_FOUND
    assert out.demand is None


def test_syndrome_zero_error_all_users(syn_inst):
    L = Matrix(F2, SYN_L)
    X = Matrix.column_vector(F2, (0, 1, 1, 0))
    for i in range(4):
        ctx = build_user_decoder(syn_inst, L, i)
        out = syndrome_decode(ctx, L * X, syn_inst.users[i].V * X, delta=0)
        assert out.failure is None
        assert out.demand == syn_inst.users[i].R * X


def test_syndrome_decode_t2():
    """Block length 2: the correction is a matrix with one nonzero row."""
    users = [
        ([[0, 1, 1, 0], [0, 0, 1, 0]], [1, 0, 0, 0]),
        ([[1, 0, 0, 0], [0, 0, 1, 1]], [0, 1, 0, 0]),
    ]
    inst = build(F2, 2, 4, users)
    L = Matrix(F2, SYN_L)
    ctx = build_user_decoder(inst, L, 0)
    X = Matrix(F2, ((1, 0), (1, 1), (0, 1), (1, 1)))
    W = Matrix(F2, ((0, 0), (0, 0), (1, 1), (0, 0), (0, 0)))
    out = syndrome_decode(ctx, L * X + W, inst.users[0].V * X, delta=1)
    assert out.failure is None
    assert out.demand == inst.users[0].R * X


# -- rank error trapping ----------------------------------------------


def test_trap_pad_layout():
    Q = Matrix(F2, ((1,), (1,), (0,)))
    P = trap_pad(Q, 2)
    assert P.shape == (5, 3)
    assert all(P[r, c] == 0 for r in range(5) for c in range(3) if r < 2 or c < 2)
    assert P.take_rows([2, 3, 4]).take_cols([2]) == Q


def test_trap_walkthrough():
    received = Matrix(F2, TRAP_RECEIVED)
    res = rank_trap_decode(received, v=2, N=3, ell=1)
    assert res.failure is None
    assert res.Q.col(0) == (1, 1, 1)
    # and that equals L X for the broadcast message
    L = Matrix(F2, TRAP_L)
    X = Matrix.column_vector(F2, TRAP_X)
    assert res.Q == L * X
    # the cancellation matrix is forced here: W11 is invertible
    w11 = received.take_rows([0, 1]).take_cols([0, 1])
    w21 = received.take_rows([2, 3, 4]).take_cols([0, 1])
    T = solve_left(w11, w21)
    assert T is not None and T.rows == TRAP_T
    assert res.risk_flag  # rank(W11) = v saturates the trap


def test_trap_zero_error_passthrough():
    Q = Matrix(F2, ((1, 0), (0, 1), (1, 1)))
    res = rank_trap_decode(trap_pad(Q, 2), v=2, N=3, ell=2)
    assert res.failure is None and res.Q == Q
    assert not res.risk_flag
    res0 = rank_trap_decode(Q, v=0, N=3, ell=2)
    assert res0.failure is None and res0.Q == Q


def test_trap_detects_kernel_escape():
    Q = Matrix(F2, ((1,), (1,), (1,)))
    P = trap_pad(Q, 2)
    # an error whose third row is outside the row space of its pad rows
    W = Matrix(
        F2,
        ((1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0)),
    )
    res = rank_trap_decode(P + W, v=2, N=3, ell=1)
    assert res.failure == TRAP_FAILURE_DETECTED
    assert res.Q is None


def _trap_blocks(W, v, N, ell):
    w11 = W.take_rows(list(range(v))).take_cols(list(range(v)))
    w21 = W.take_rows(list(range(v, v + N))).take_cols(list(range(v)))
    return w11, w21


def test_trap_exhaustive_q2():
    """Every 5x3 error: trapped errors decode exactly, escapes are flagged.

    Also pins what every undetected outcome returns, silent failures
    included: the payload block minus solve_left(w11, w21) * w12, with the
    risk flag set exactly when the top-left block has full rank.
    """
    v, N, ell = 2, 3, 1
    Q = Matrix(F2, ((1,), (0,), (1,)))
    P = trap_pad(Q, v)
    trapped_seen = escaped_seen = undetected_bad = 0
    for flat in iter_vectors(F2, (v + N) * (v + ell)):
        W = Matrix(
            F2,
            [flat[i * (v + ell) : (i + 1) * (v + ell)] for i in range(v + N)],
        )
        w11, w21 = _trap_blocks(W, v, N, ell)
        r11 = mat_rank(w11)
        escaped = mat_rank(vstack(w11, w21)) > r11
        received = P + W
        res = rank_trap_decode(received, v=v, N=N, ell=ell)
        assert res.risk_flag == (r11 == v)
        if escaped:
            escaped_seen += 1
            assert res.failure == TRAP_FAILURE_DETECTED
            continue
        assert res.failure is None
        w12 = received.take_rows(range(v)).take_cols(range(v, v + ell))
        payload = received.take_rows(range(v, v + N)).take_cols(range(v, v + ell))
        assert res.Q == payload - solve_left(w11, w21) * w12
        if r11 == rank_weight(W):
            trapped_seen += 1
            assert res.Q == Q
        elif res.Q != Q:
            undetected_bad += 1
    assert trapped_seen > 0 and escaped_seen > 0
    # silent failures exist but only outside the trapped set
    assert undetected_bad > 0


def test_trap_shape_validation():
    with pytest.raises(ValueError):
        rank_trap_decode(Matrix.zeros(F2, 4, 3), v=2, N=3, ell=1)


# -- demand solving ---------------------------------------------------


def _two_step_demand(inst, i, lvs, Y, lam):
    """Reference for solve_demand: RREF of the stacked system, then the
    canonical solve of R_i over its left block, applied to the right block.
    None where R_i is not in the left block's row space."""
    u = inst.users[i]
    res = mat_rref(hstack(vstack(u.V, lvs), vstack(lam, Y)))
    S = res.rref.take_cols(range(inst.n))
    T = res.rref.take_cols(range(inst.n, inst.n + Y.ncols))
    z = solve_left(S, u.R)
    return None if z is None else z * T


def test_solve_demand_all_users(trap_inst):
    L = Matrix(F2, TRAP_L)
    lvs = L * trap_inst.V_S
    X = Matrix.column_vector(F2, TRAP_X)
    Y = lvs * X
    for i in range(trap_inst.m):
        lam = trap_inst.users[i].V * X
        got = solve_demand(trap_inst, i, lvs, Y, lam)
        assert got == trap_inst.users[i].R * X
    # Inconsistent broadcasts Y + E, E every single-entry error: the result
    # is the two-step reference, or ValueError exactly when the reference
    # finds no solution.  The second lvs repeats the sum of L's rows, so the
    # stacked system has dependent rows and the choice of solution shows in
    # the result; the one-row lvs serves user 1 only, so both outcomes occur.
    served = unserved = 0
    redundant = vstack(lvs, Matrix(F2, ((1, 0, 0, 1),)) * trap_inst.V_S)
    for lvs in (lvs, redundant, Matrix(F2, ((0, 1, 0, 0),))):
        clean = lvs * X
        for r in range(clean.nrows):
            Y = clean + Matrix(F2, [[int(k == r)] for k in range(clean.nrows)])
            for i in range(trap_inst.m):
                lam = trap_inst.users[i].V * X
                want = _two_step_demand(trap_inst, i, lvs, Y, lam)
                if want is None:
                    unserved += 1
                    with pytest.raises(ValueError):
                        solve_demand(trap_inst, i, lvs, Y, lam)
                else:
                    served += 1
                    assert solve_demand(trap_inst, i, lvs, Y, lam) == want
    assert served > 0 and unserved > 0


def test_solve_demand_block_length_two(syn_inst):
    L = Matrix(F2, SYN_L)
    users = [
        ([[0, 1, 1, 0], [0, 0, 1, 0]], [1, 0, 0, 0]),
    ]
    inst = build(F2, 2, 4, users)
    X = Matrix(F2, ((1, 1), (0, 1), (1, 0), (1, 1)))
    lvs = L * inst.V_S
    got = solve_demand(inst, 0, lvs, lvs * X, inst.users[0].V * X)
    assert got == inst.users[0].R * X


def test_solve_demand_requires_coverage(trap_inst):
    # a single broadcast row cannot reach user 0's demand
    lvs = Matrix(F2, ((0, 1, 0, 0),))
    X = Matrix.column_vector(F2, TRAP_X)
    with pytest.raises(ValueError):
        solve_demand(trap_inst, 0, lvs, lvs * X, trap_inst.users[0].V * X)


def test_solve_demand_mismatched_shapes(trap_inst):
    lvs = Matrix(F2, TRAP_L)
    with pytest.raises(ValueError):
        solve_demand(trap_inst, 0, lvs, Matrix.zeros(F2, 2, 1), Matrix.zeros(F2, 1, 1))


# -- broadcast frames -------------------------------------------------


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_frame_round_trip(p, e):
    f = field_new(p, e)
    rng = np.random.default_rng(p * 10 + e)
    payload = Matrix(f, rng.integers(0, f.q, size=(5, 3)).tolist())
    buf = io.BytesIO()
    write_frame(buf, payload, v=2, ell=1, flags=FLAG_LVS_SHARED)
    buf.seek(0)
    back, header = read_frame(buf)
    assert back == payload
    assert header["v"] == 2
    assert header["N"] == 3
    assert header["ell"] == 1
    assert header["flags"] == FLAG_LVS_SHARED
    assert back.field == f


def test_frame_hamming_layout():
    f = field_new(2, 1)
    y = Matrix.column_vector(f, (1, 0, 1, 1, 0))
    buf = io.BytesIO()
    write_frame(buf, y, v=0, ell=1)
    buf.seek(0)
    back, header = read_frame(buf)
    assert back == y
    assert header["v"] == 0 and header["N"] == 5 and header["ell"] == 1


def test_frame_compactness():
    # 15 GF(2) entries pack into two payload bytes after the 18-byte header
    f = field_new(2, 1)
    payload = Matrix.zeros(f, 5, 3)
    buf = io.BytesIO()
    write_frame(buf, payload, v=2, ell=1)
    raw = buf.getvalue()
    assert raw[:4] == b"ICC1"
    assert len(raw) == 18 + 2


def test_frame_bad_magic():
    buf = io.BytesIO(b"NOPE" + bytes(20))
    with pytest.raises(FrameError):
        read_frame(buf)


def test_frame_truncated():
    f = field_new(2, 1)
    buf = io.BytesIO()
    write_frame(buf, Matrix.zeros(f, 5, 3), v=2, ell=1)
    raw = buf.getvalue()
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(raw[:-1]))


def test_read_frame_allocates_only_the_bytes_present(tmp_path):
    # The header declares v = N = ell = 4000 over GF(2), an 8000 x 8000 bit
    # payload of 8 MB, and six bytes follow.  A file-backed read of the
    # declared size would allocate all 8 MB before finding the file short.
    import struct
    import tracemalloc

    path = tmp_path / "hostile.bin"
    path.write_bytes(struct.pack("<4sIHHHHH", b"ICC1", 2, 1, 4000, 4000, 4000, 0) + bytes(6))
    field_new(2, 1)
    with open(path, "rb") as fh:
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="truncated payload"):
                read_frame(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_frame_rejects_bad_digit():
    # a p=3 frame whose packed payload contains the digit value 3
    import struct

    header = struct.pack("<4sIHHHHH", b"ICC1", 3, 1, 0, 1, 1, 0)
    payload = bytes([0b11])
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(header + payload))


def test_frame_rejects_nonzero_pad_bits():
    # one GF(2) digit in a payload byte whose seven pad bits must be zero
    import struct

    header = struct.pack("<4sIHHHHH", b"ICC1", 2, 1, 0, 1, 1, 0)
    back, _ = read_frame(io.BytesIO(header + bytes([0b1])))
    assert back.rows == ((1,),)
    with pytest.raises(FrameError, match="pad bits"):
        read_frame(io.BytesIO(header + bytes([0b11])))


@pytest.mark.parametrize(
    "name,shape,v,ell",
    [("v", (2, 3), 65536, 0), ("N", (65536, 1), 0, 1), ("ell", (1, 65536), 0, 65536)],
)
def test_write_frame_rejects_oversized_field(name, shape, v, ell):
    # The header fields are checked before the payload shape, so v needs no
    # 65536-row payload.
    payload = Matrix.zeros(field_new(2, 1), *shape)
    with pytest.raises(ValueError, match=f"frame field {name}=65536"):
        write_frame(io.BytesIO(), payload, v=v, ell=ell)


def test_frame_rejects_bad_field():
    import struct

    header = struct.pack("<4sIHHHHH", b"ICC1", 6, 1, 0, 1, 1, 0)
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(header + bytes(2)))
