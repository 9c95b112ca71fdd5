"""Argument checks across the package: each call below must raise the
named error with the named message, and the two ``iccsi decode`` misuses
must exit 2.

The calls are the smallest that reach each check, one check per entry;
the instance is the two-user GF(2) cycle on n = 2 with the full sender
space, whose min-rank is 2.
"""

import io
import json

import pytest

from conftest import ident
from iccsi import (
    BudgetExceeded,
    Field,
    InstanceError,
    Matrix,
    SimConfig,
    concat_kappa_bound,
    field_new,
    from_icsi,
    hamming_random_ecic_prob,
    make_instance,
    parse_instance,
    q_entropy,
    read_frame,
    realizes_ic,
    run_simulation,
    solve_demand,
    subspace_existence_prob,
    trap_pad,
    verify_ecic,
    write_frame,
)
from iccsi.bounds import entropy_volume_bound_holds
from iccsi.cli import main
from iccsi.codec import encoder_from_dict, min_distance_cols
from iccsi.decoders import FrameError
from iccsi.galois import gaussian_binomial, hstack, vstack
from iccsi.harness import resolve_encoder

F2 = field_new(2, 1)
F3 = field_new(3, 1)
CYCLE = [([[1, 0]], [0, 1]), ([[0, 1]], [1, 0])]


def cycle():
    return make_instance(F2, 1, 2, ident(2), CYCLE)


def two_free_users():
    # Two users who cache nothing: at delta = 1 a length-4 encoder needs a
    # binary [4, 2, 3] code, which does not exist.
    return make_instance(F2, 1, 2, ident(2), [([], [1, 0]), ([], [0, 1])])


CHECKS = [
    # instance
    (lambda: make_instance(F2, 1, 0, [], CYCLE), InstanceError, "n must be >= 1"),
    (lambda: parse_instance([]), InstanceError, "top-level JSON value must be an object"),
    (lambda: parse_instance({"p": 2, "e": 1, "t": 1, "n": 2, "sender": ident(2),
                             "users": {"V": []}}),
     InstanceError, "users must be a list"),
    (lambda: parse_instance({"p": 2, "e": 1, "t": 1, "n": 2, "sender": ident(2),
                             "users": [{"V": [[1, 0]]}]}),
     InstanceError, "user 0: must be an object with V and R"),
    (lambda: from_icsi(2, [0], [[1], [0]]), InstanceError, "length mismatch"),
    (lambda: from_icsi(2, [2], [[1]]), InstanceError, "user 0: demand index 2 out of range"),
    (lambda: from_icsi(2, [0], [[5]]), InstanceError, "side information index out of range"),
    (lambda: from_icsi(2, [0], [[0]]), InstanceError, "demand 0 already in side information"),
    # codec
    (lambda: verify_ecic(Matrix.identity(F2, 2), cycle(), 1, "lee"),
     ValueError, "unknown metric 'lee'"),
    (lambda: verify_ecic(Matrix.identity(F2, 2), cycle(), -1),
     ValueError, "delta must be >= 0, got -1"),
    (lambda: verify_ecic(Matrix.identity(F2, 3), cycle(), 1),
     ValueError, "L has 3 columns, expected d_S=2"),
    (lambda: min_distance_cols(Matrix.zeros(F2, 3, 0)), ValueError, "empty generator"),
    (lambda: min_distance_cols(Matrix.identity(F2, 3), budget=7),
     BudgetExceeded, "codeword enumeration size 2\\^3 exceeds budget"),
    (lambda: concat_kappa_bound(cycle(), 0, Matrix.identity(F3, 2)),
     ValueError, "outer generator field mismatch"),
    (lambda: encoder_from_dict({"N": 3, "L": ident(2)}, cycle()),
     ValueError, "declared N=3 but L has 2 rows"),
    # decoders
    (lambda: trap_pad(Matrix.identity(F2, 2), -1), ValueError, "pad size must be >= 0, got -1"),
    (lambda: solve_demand(cycle(), 0, Matrix.identity(F2, 2), Matrix.zeros(F3, 2, 1),
                          Matrix.zeros(F2, 1, 1)),
     ValueError, "fields differ"),
    (lambda: write_frame(io.BytesIO(), Matrix.zeros(F2, 70000, 1), v=0, ell=1),
     ValueError, "frame field N=70000 outside \\[0, 65535\\]"),
    (lambda: write_frame(io.BytesIO(), Matrix.zeros(F2, 2, 1), v=0, ell=2),
     ValueError, "payload has 1 columns, expected v\\+ell=2"),
    (lambda: read_frame(io.BytesIO(b"ICC1")), FrameError, "truncated header"),
    # galois
    (lambda: Field(257, 2), ValueError, "field order 66049 exceeds supported maximum 65536"),
    (lambda: Field(3, 1, [1, 1]), ValueError, "prime fields take no modulus"),
    (lambda: F3.pow(0, -1), ZeroDivisionError, "inverse of 0"),
    (lambda: Matrix.identity(F2, 2) * Matrix.identity(F3, 2), ValueError, "fields differ"),
    (lambda: Matrix.identity(F2, 2) + Matrix.identity(F3, 2), ValueError, "fields differ"),
    (lambda: vstack(Matrix.identity(F2, 2), Matrix.identity(F2, 3)),
     ValueError, "vstack shape or field mismatch"),
    (lambda: hstack(Matrix.identity(F2, 2), Matrix.identity(F2, 3)),
     ValueError, "hstack shape or field mismatch"),
    (lambda: gaussian_binomial(-1, 0, 2), ValueError, "negative dimension"),
    # minrank and harness
    (lambda: realizes_ic(Matrix.identity(F2, 3), cycle()),
     ValueError, "L has 3 columns, expected d_S=2"),
    (lambda: realizes_ic(Matrix.identity(F3, 2), cycle()), ValueError, "fields differ"),
    (lambda: resolve_encoder(SimConfig("mem", encoder="random", delta=1), two_free_users()),
     ValueError, "random search found no length-4 encoder in 1000 attempts"),
    (lambda: run_simulation(SimConfig("mem", trap_pad=3)),
     ValueError, "rank-mode settings, got trap_pad=3 and lvs_shared=True for a Hamming run"),
    (lambda: run_simulation(SimConfig("mem", lvs_shared=False)),
     ValueError, "rank-mode settings, got trap_pad=0 and lvs_shared=False for a Hamming run"),
    # bounds
    (lambda: subspace_existence_prob([2], 2, 1, 2),
     ValueError, "w_i must satisfy 0 <= w_i < d_S, got 2"),
    (lambda: hamming_random_ecic_prob([1], 4, 3, -1, 2), ValueError, "delta must be >= 0"),
    (lambda: hamming_random_ecic_prob([4], 4, 3, 1, 2),
     ValueError, "d_i must satisfy 0 <= d_i < n, got 4"),
    (lambda: q_entropy(1, 2), ValueError, "q_entropy defined on \\(0,1\\), got 1.0"),
    (lambda: q_entropy(0.5, 1), ValueError, "q must be >= 2"),
    (lambda: entropy_volume_bound_holds(3, "1/2", 2),
     ValueError, "lam \\* n must be an integer"),
]


@pytest.mark.parametrize("call,error,message", CHECKS)
def test_argument_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "user,side,message",
    [
        ("0", [[0], [1]], "side file has 2 rows, user 0 caches 1"),
        ("2", [[0]], "user index 2 out of range"),
        ("-1", [[0]], "user index -1 out of range"),
    ],
)
def test_cli_decode_bad_user_or_side_exits_2(user, side, message, tmp_path, capsys):
    inst_path, side_path, frame = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "y.bin"
    inst_path.write_text(json.dumps({"p": 2, "e": 1, "t": 1, "n": 2, "sender": ident(2),
                                     "users": [{"V": v, "R": r} for v, r in CYCLE]}))
    side_path.write_text(json.dumps(side))
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix.zeros(F2, 2, 1), v=0, ell=1)
    argv = ["decode", "--frame", str(frame), "--instance", str(inst_path),
            "--user", user, "--side", str(side_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
