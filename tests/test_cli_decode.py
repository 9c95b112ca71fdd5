"""``iccsi decode`` against the simulation's row path.

The command decodes a frame through the public decoders: ``syndrome_decode``
at v = 0, and ``rank_trap_decode`` then ``solve_demand`` at v > 0.  The
simulation's rank trials decode the same frame on rows: ``_trap_rows``, the
payload split into L and Y, then the product with the user's map of
``_demand_maps`` when its rows Q give Q [lam; Y] = 0, and
``_stacked_demand`` otherwise.  Over
GF(2), GF(3), GF(4), GF(9) and GF(16), for shared and private payloads at
pads 0-3 and random errors of rank up to the frame's smaller side, with
encoders that serve the user and some that do not, the exit code and the
printed demand must be what the row path gives.  An encoder file that does
not serve the user of a shared frame, or whose certificate is malformed (a
witness that is no confusable too), is bad input (exit 2) whatever the
frame holds.
"""

import json

import numpy as np
import pytest
from conftest import SYN_L, random_matrix
from test_rank_trial import encoders, random_instance

from iccsi import field_new, make_encoder, save_encoder, save_instance
from iccsi.cli import main
from iccsi.codec import encoder_to_dict
from iccsi.decoders import (
    FLAG_LVS_SHARED,
    SYNDROME_NOT_FOUND,
    TRAP_FAILURE_DETECTED,
    _demand_maps,
    _stacked_demand,
    _trap_rows,
    trap_pad,
    write_frame,
)
from iccsi.galois import (
    Matrix,
    _row_echelon,
    hstack,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)]
# (n, d_S, t): the sender holds everything, or a coded 3-dimensional space.
SHAPES = [(3, 3, 1), (4, 3, 2)]
# (shared, v): a private payload [L | Y] needs a pad, as v = 0 means shared.
LAYOUTS = [(True, 0), (True, 1), (True, 2), (True, 3), (False, 1), (False, 2), (False, 3)]


def row_path(inst, enc, i, received, lam, v, ell, shared):
    """(exit code, demand entries or None, stderr text) of the row path."""
    f, t = inst.field, inst.t
    # A shared frame is decoded through the encoder's L V_S, so an encoder
    # that does not serve the user is bad input, at any pad.
    if shared and not _demand_maps(inst, enc.lvs)[i]:
        return 2, None, "does not realize"
    trapped = _trap_rows(f, f._fmt.to_rows(received.rows), v, ell)
    if trapped is None:
        return 3, None, TRAP_FAILURE_DETECTED
    Y = trapped[0]
    if shared:
        lvs = enc.lvs
    else:
        d_S = inst.d_S
        L = [f._fmt.unpacker(d_S)(r) for r in map(f._fmt.block(0, d_S, ell), Y)]
        lvs = Matrix(f, L, d_S) * inst.V_S
        Y = list(map(f._fmt.block(d_S, ell, ell), Y))
    dmap = _demand_maps(inst, lvs)[i]
    if not dmap:
        return 3, None, f"decode failed: user {i}: request not in the decoded span"
    out = f._fmt.mul(dmap, f._fmt.to_rows(lam.rows) + Y, t)
    if all(r == f._fmt.zero(t) for r in out[1:]):
        return 0, f._fmt.unpacker(t)(out[0]), ""
    # At v = 0 the syndrome decoder at delta 0 takes only a zero syndrome.
    if v == 0:
        return 3, None, SYNDROME_NOT_FOUND
    u, n, join = inst.users[i], inst.n, f._fmt.join(t)
    basis = _row_echelon(f, map(join, f._fmt.to_rows(lvs.rows), Y), n + t)
    cache = map(join, f._fmt.to_rows(u.V.rows), f._fmt.to_rows(lam.rows))
    request = join(f._fmt.to_rows(u.R.rows)[0], f._fmt.zero(t))
    return 0, f._fmt.unpacker(t)(_stacked_demand(f, basis, cache, request, n, t)), ""


@pytest.mark.parametrize("p,e", FIELDS, ids=[f"GF({p ** e})" for p, e in FIELDS])
def test_cli_decode_matches_row_path(p, e, tmp_path, capsys):
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 25])
    frame, side = tmp_path / "y.bin", tmp_path / "side.json"
    inst_path, enc_path = tmp_path / "inst.json", tmp_path / "enc.json"
    seen = set()
    for n, d_S, t in SHAPES:
        inst = random_instance(rng, f, n, d_S, t)
        save_instance(inst, inst_path)
        for enc in encoders(rng, inst):
            save_encoder(enc, enc_path)
            for shared, v in LAYOUTS * 3:
                i = int(rng.integers(inst.m))
                X = random_matrix(rng, f, n, t)
                lam = inst.users[i].V * X
                Q = enc.lvs * X if shared else hstack(enc.L, enc.lvs * X)
                ell = Q.ncols
                # Ranks above v too, so that the trap sometimes fails.
                r = int(rng.integers(0, min(v + enc.N, v + ell) + 1))
                W = random_matrix(rng, f, v + enc.N, r) * random_matrix(rng, f, r, v + ell)
                received = trap_pad(Q, v) + W
                with open(frame, "wb") as fh:
                    write_frame(fh, received, v=v, ell=ell, flags=FLAG_LVS_SHARED if shared else 0)
                side.write_text(json.dumps([list(row) for row in lam.rows]))
                code = main(["decode", "--frame", str(frame), "--instance", str(inst_path),
                             "--encoder", str(enc_path), "--user", str(i), "--side", str(side)])
                captured = capsys.readouterr()
                want_code, want_demand, want_err = row_path(
                    inst, enc, i, received, lam, v, ell, shared
                )
                assert code == want_code, (shared, v, r)
                assert want_err in captured.err
                if want_demand is None:
                    assert captured.out == ""
                else:
                    assert captured.out == "demand: " + " ".join(map(str, want_demand)) + "\n"
                seen.add(want_err.split(":")[0])
    # Every outcome shows up in the sweep.
    assert seen == {"", TRAP_FAILURE_DETECTED, "decode failed", SYNDROME_NOT_FOUND,
                    "does not realize"}


def decode_argv(tmp_path, inst, enc_doc, i, received, v, ell, shared, lam):
    """``iccsi decode`` arguments for user i, the encoder file ``enc_doc``
    and the frame ``received``, all written to tmp_path."""
    inst_path, enc_path = tmp_path / "inst.json", tmp_path / "enc.json"
    frame, side = tmp_path / "y.bin", tmp_path / "side.json"
    save_instance(inst, inst_path)
    enc_path.write_text(json.dumps(enc_doc))
    with open(frame, "wb") as fh:
        write_frame(fh, received, v=v, ell=ell, flags=FLAG_LVS_SHARED if shared else 0)
    side.write_text(json.dumps([list(row) for row in lam.rows]))
    return ["decode", "--frame", str(frame), "--instance", str(inst_path),
            "--encoder", str(enc_path), "--user", str(i), "--side", str(side)]


def test_cli_decode_refuses_malformed_certificate(syn_inst, tmp_path, capsys):
    # At v = 0 the certificate's delta is the syndrome search's radius: a
    # negative one is bad input, not a decode failure.
    f = syn_inst.field
    enc = make_encoder(Matrix(f, SYN_L), syn_inst, "coset")
    X = Matrix(f, [[1], [0], [1], [1]], 1)
    doc = encoder_to_dict(enc)
    doc["certificate"] = {
        "delta": -3, "metric": "hamming", "mode": "exhaustive", "trials": 0, "violations": []
    }
    argv = decode_argv(tmp_path, syn_inst, doc, 0, enc.lvs * X, 0, 1, True,
                       syn_inst.users[0].V * X)
    assert main(argv) == 2
    assert "malformed encoder certificate" in capsys.readouterr().err
    doc["certificate"].update(delta=1, mode="sampled")
    (tmp_path / "enc.json").write_text(json.dumps(doc))
    assert main(argv) == 0
    assert capsys.readouterr().out == "demand: 1\n"


def test_cli_decode_refuses_witness_not_confusable(syn_inst, tmp_path, capsys):
    # A violation [2, [[1, 1, 1]]] is no confusable of user 2 (n = 4, t = 1).
    f = syn_inst.field
    enc = make_encoder(Matrix(f, SYN_L), syn_inst, "coset")
    X = Matrix(f, [[1], [0], [1], [1]], 1)
    doc = encoder_to_dict(enc)
    doc["certificate"] = {
        "delta": 1, "metric": "hamming", "trials": 1, "violations": [[2, [[1, 1, 1]]]]
    }
    argv = decode_argv(tmp_path, syn_inst, doc, 0, enc.lvs * X, 0, 1, True,
                       syn_inst.users[0].V * X)
    assert main(argv) == 2
    assert "user 2's witness is 1 x 3, expected 4 x 1" in capsys.readouterr().err


def test_cli_decode_shared_frame_for_unserved_user_exits_2(syn_inst, tmp_path, capsys):
    # L = [1 1 0 0] serves users 0, 1 and 3 but not user 2.  A shared frame
    # is decoded through the encoder's L V_S, so at every pad and whatever
    # the payload holds, user 2's frame is bad input.
    f = syn_inst.field
    enc = make_encoder(Matrix(f, [[1, 1, 0, 0]]), syn_inst, "manual")
    rng = np.random.default_rng(37)
    X = Matrix(f, [[0], [1], [1], [0]], 1)
    lam = syn_inst.users[2].V * X
    for v in range(4):
        for rank in (0, 1, 2):
            W = random_matrix(rng, f, v + 1, rank) * random_matrix(rng, f, rank, v + 1)
            received = trap_pad(enc.lvs * X, v) + W
            argv = decode_argv(tmp_path, syn_inst, encoder_to_dict(enc), 2, received, v, 1,
                               True, lam)
            assert main(argv) == 2, (v, rank)
            assert "does not realize" in capsys.readouterr().err
