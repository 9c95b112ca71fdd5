"""``iccsi decode`` against the simulation's row path.

The command decodes a frame through the public decoders: ``syndrome_decode``
at v = 0, and ``rank_trap_decode`` then ``solve_demand`` at v > 0.  The
simulation's rank trials decode the same frame on rows: ``_trap_rows``, the
payload split into L and Y, then the product with the ``_demand_map`` when
its rows Q give Q [lam; Y] = 0, and ``_stacked_demand`` otherwise.  Over
GF(2), GF(3), GF(4), GF(9) and GF(16), for shared and private payloads at
pads 0-3 and random errors of rank up to the frame's smaller side, with
encoders that serve the user and some that do not, the exit code and the
printed demand must be what the row path gives.
"""

import json

import numpy as np
import pytest
from conftest import random_matrix
from test_rank_trial import encoders, random_instance

from iccsi import field_new, save_encoder, save_instance
from iccsi.cli import main
from iccsi.decoders import (
    FLAG_LVS_SHARED,
    SYNDROME_NOT_FOUND,
    TRAP_FAILURE_DETECTED,
    _demand_map,
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
    dmap = _demand_map(inst, i, lvs)
    if not dmap:
        # At v = 0 an encoder that does not serve the user is bad input.
        if v == 0:
            return 2, None, "does not realize"
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
