"""Monte-Carlo harness invariants and command line behavior."""

import csv
import io
import json

import pytest

from conftest import SYN_L, TRAP_L, deadline, ident
from iccsi import (
    Matrix,
    SimConfig,
    field_new,
    load_encoder,
    make_encoder,
    make_instance,
    parse_instance,
    random_ic_search,
    run_simulation,
    save_encoder,
    save_instance,
    subspace_existence_prob,
    verify_ecic,
    wilson_interval,
    zippel_ic_prob,
)
from iccsi.cli import main
from iccsi.decoders import FLAG_LVS_SHARED, trap_pad, write_frame
from iccsi.galois import hstack
from iccsi.harness import resolve_encoder

F2 = field_new(2, 1)


def _syn_encoder(syn_inst):
    return make_encoder(Matrix(F2, SYN_L), syn_inst, "manual")


# -- wilson interval --------------------------------------------------


def test_wilson_degenerate_and_extremes():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 50)
    assert hi == pytest.approx(1.0)
    assert 0.9 < lo < 1.0
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0)
    assert 0.0 < hi < 0.1


def test_wilson_contains_estimate_and_shrinks():
    for s, n in ((3, 10), (57, 100), (999, 1000)):
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    w100 = wilson_interval(60, 100)
    w10000 = wilson_interval(6000, 10000)
    assert w10000[1] - w10000[0] < w100[1] - w100[0]


# -- simulation invariants --------------------------------------------


def test_sim_within_design_all_succeed(syn_inst):
    cfg = SimConfig(
        instance="mem", metric="hamming", delta=1, error_weight=1,
        trials=200, seed=3,
    )
    rep = run_simulation(cfg, inst=syn_inst, encoder=_syn_encoder(syn_inst))
    assert rep.trials == 200
    for u in rep.users:
        assert (u.success, u.detected, u.undetected) == (200, 0, 0)


def test_sim_beyond_design_outcome_mix(syn_inst):
    cfg = SimConfig(
        instance="mem", metric="hamming", delta=1, error_weight=2,
        trials=150, seed=0,
    )
    rep = run_simulation(cfg, inst=syn_inst, encoder=_syn_encoder(syn_inst))
    for u in rep.users:
        assert u.success + u.detected + u.undetected == 150
        assert u.detected > 0
    assert any(u.undetected > 0 for u in rep.users)


def test_sim_deterministic_and_seed_sensitive(syn_inst):
    enc = _syn_encoder(syn_inst)
    base = dict(
        instance="mem", metric="hamming", delta=1, error_weight=2, trials=150
    )
    first = run_simulation(SimConfig(**base, seed=0), inst=syn_inst, encoder=enc)
    again = run_simulation(SimConfig(**base, seed=0), inst=syn_inst, encoder=enc)
    other = run_simulation(SimConfig(**base, seed=1), inst=syn_inst, encoder=enc)
    assert first.stable_json() == again.stable_json()
    assert first.stable_json() != other.stable_json()
    doc = first.to_dict()
    assert "wall_time" in doc
    assert "wall_time" not in json.loads(first.stable_json())
    assert doc["config"]["seed"] == 0


def test_sim_report_shape(syn_inst):
    cfg = SimConfig(instance="mem", trials=5, seed=9)
    rep = run_simulation(cfg, inst=syn_inst, encoder=_syn_encoder(syn_inst))
    doc = rep.to_dict()
    assert len(doc["users"]) == 4
    for u in doc["users"]:
        lo, hi = u["wilson"]
        assert 0.0 <= lo <= u["rate"] <= hi <= 1.0


def test_sim_guarantee_gate(syn_inst):
    # the length-2 coset encoder realizes the instance but corrects nothing
    cfg = SimConfig(
        instance="mem", encoder="coset", metric="hamming", delta=1,
        trials=5, guarantee=True,
    )
    with pytest.raises(ValueError, match="fails hamming verification"):
        run_simulation(cfg, inst=syn_inst)
    ok = SimConfig(
        instance="mem", metric="hamming", delta=1, error_weight=1,
        trials=5, guarantee=True,
    )
    rep = run_simulation(ok, inst=syn_inst, encoder=_syn_encoder(syn_inst))
    assert all(u.success == 5 for u in rep.users)


def test_sim_validation_errors(syn_inst):
    enc = _syn_encoder(syn_inst)
    with pytest.raises(ValueError):
        run_simulation(
            SimConfig(instance="mem", metric="euclid"), inst=syn_inst, encoder=enc
        )
    with pytest.raises(ValueError):
        run_simulation(
            SimConfig(instance="mem", trials=0), inst=syn_inst, encoder=enc
        )
    with pytest.raises(ValueError):
        run_simulation(
            SimConfig(instance="mem", error_weight=6), inst=syn_inst, encoder=enc
        )
    with pytest.raises(ValueError):
        run_simulation(
            SimConfig(instance="mem", delta=-1), inst=syn_inst, encoder=enc
        )


def test_sim_rank_mode_invariants(trap_inst):
    enc = make_encoder(Matrix(F2, TRAP_L), trap_inst, "manual")
    cfg = SimConfig(
        instance="mem", metric="rank", error_weight=1, trap_pad=2,
        trials=150, seed=5,
    )
    rep = run_simulation(cfg, inst=trap_inst, encoder=enc)
    detected = {u.detected for u in rep.users}
    # a trapping escape is a broadcast-level event, shared by every user
    assert len(detected) == 1 and detected.pop() > 0
    for u in rep.users:
        assert u.success + u.detected + u.undetected == 150
        assert u.success > 0


def test_sim_rank_noise_free_with_private_lvs(trap_inst):
    # The second instance has a coded sender (V_S is not the identity and
    # d_S < n), so the decoded L must go through V_S before the demand solve.
    coded = make_instance(
        F2, 1, 3, [[1, 0, 0], [0, 1, 1]],
        [([[1, 0, 0]], [0, 1, 1]), ([[0, 1, 1]], [1, 0, 0])],
    )
    for inst, L in ((trap_inst, TRAP_L), (coded, [[1, 1]])):
        enc = make_encoder(Matrix(F2, L), inst, "manual")
        cfg = SimConfig(
            instance="mem", metric="rank", error_weight=0, trap_pad=1,
            trials=40, seed=2, lvs_shared=False,
        )
        rep = run_simulation(cfg, inst=inst, encoder=enc)
        assert all(u.success == 40 for u in rep.users)


def test_sim_rank_weight_above_error_shape_rejected(trap_inst):
    # v=0, N=3, ell=t=1: no 3 x 1 error has rank 2, so sampling one would
    # never end; the config must be refused before the first trial.
    enc = make_encoder(Matrix(F2, TRAP_L), trap_inst, "manual")
    cfg = SimConfig(
        instance="mem", metric="rank", error_weight=2, trap_pad=0, trials=5,
    )
    with deadline(10), pytest.raises(ValueError, match="exceeds min"):
        run_simulation(cfg, inst=trap_inst, encoder=enc)


def test_sim_rank_weight_at_error_shape_runs(trap_inst):
    # Private L V_S widens the block to ell = d_S + t = 5, so rank 2 fits.
    enc = make_encoder(Matrix(F2, TRAP_L), trap_inst, "manual")
    cfg = SimConfig(
        instance="mem", metric="rank", error_weight=2, trap_pad=0, trials=5,
        lvs_shared=False,
    )
    with deadline(10):
        rep = run_simulation(cfg, inst=trap_inst, encoder=enc)
    assert all(u.success + u.detected + u.undetected == 5 for u in rep.users)


def test_cli_simulate_rank_weight_too_large_exits_2(tmp_path, trap_inst, capsys):
    path = tmp_path / "cycle.json"
    save_instance(trap_inst, path)
    with deadline(10):
        code = main([
            "simulate", "--instance", str(path), "--metric", "rank",
            "--pad", "0", "--error-weight", "2", "--trials", "5",
        ])
    assert code == 2
    assert "exceeds min(v+N, v+ell)" in capsys.readouterr().err


# -- encoder resolution -----------------------------------------------


def test_resolve_encoder_coset(syn_inst):
    enc = resolve_encoder(SimConfig(instance="mem"), syn_inst)
    assert enc.N == 2 and enc.provenance == "coset"


def test_resolve_encoder_random(syn_inst):
    enc = resolve_encoder(
        SimConfig(instance="mem", encoder="random", seed=1), syn_inst
    )
    assert enc.N == 2 and enc.provenance == "random"


def test_resolve_encoder_file(tmp_path, syn_inst):
    path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), path)
    enc = resolve_encoder(SimConfig(instance="mem", encoder=str(path)), syn_inst)
    assert enc.N == 5
    assert enc.L == Matrix(F2, SYN_L)


# -- command line -----------------------------------------------------


@pytest.fixture
def inst_file(tmp_path, syn_inst):
    path = tmp_path / "inst.json"
    save_instance(syn_inst, path)
    return str(path)


def test_cli_validate_ok(inst_file, capsys):
    assert main(["validate", "--instance", inst_file]) == 0
    out = capsys.readouterr().out
    assert "ok: m=4 users, n=4 rows of t=1 symbols over GF(2)" in out


def test_cli_validate_missing_file(inst_file, tmp_path, capsys):
    # A missing file, a directory given as the instance, and a directory
    # given as encode's --out: each is an OSError, refused with exit 2.
    for argv in (
        ["validate", "--instance", str(tmp_path / "nope.json")],
        ["validate", "--instance", str(tmp_path)],
        ["encode", "--instance", inst_file, "--out", str(tmp_path)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def test_cli_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 2, "e": 1, "t": 1}')
    assert main(["validate", "--instance", str(bad)]) == 2


def test_cli_minrank(inst_file, capsys):
    assert main(["minrank", "--instance", inst_file]) == 0
    out = capsys.readouterr().out
    assert "kappa: 2" in out
    assert "alpha: 2" in out
    assert "length bracket at delta=0: [2, 2]" in out


def test_cli_minrank_budget_exceeded(tmp_path, capsys):
    # one user caching a 23-dimensional space makes the coset scan
    # 2^23 > the default enumeration budget
    n = 24
    users = [([[1 if j == r else 0 for j in range(n)] for r in range(n - 1)],
              [1 if j == n - 1 else 0 for j in range(n)])]
    inst = make_instance(F2, 1, n, ident(n), users)
    path = tmp_path / "big.json"
    save_instance(inst, path)
    assert main(["minrank", "--instance", str(path)]) == 4
    assert "budget" in capsys.readouterr().err


def test_cli_bounds_single_query(capsys):
    code = main([
        "bounds", "--bound", "subspace", "--q", "4", "--dS", "10",
        "--N", "1", "--m", "2", "--d", "9",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,q,t,n,N,delta,m,value,verdict")
    cells = lines[1].split(",")
    assert cells[-2] == "0.5"
    assert cells[-1] == "true"


def test_cli_bounds_table4_to_file(tmp_path):
    out = tmp_path / "t4.csv"
    assert main(["bounds", "--table4", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + 24
    assert all(r.rsplit(",", 1)[1] == "true" for r in rows[1:])


def _csv_cells(rep):
    """The value and verdict cells of a bounds CSV row for ``rep``."""
    if rep.note and rep.note.startswith("inapplicable"):
        return ["-", ""]
    return [rep.decimal, "" if rep.verdict is None else str(rep.verdict).lower()]


@pytest.mark.parametrize("table,count", [("--table2", 56), ("--table3", 24)])
def test_cli_bounds_tables_2_and_3(table, count, capsys):
    # Every row is the direct bound call at q, N and m, on n = d_S = 10 and
    # caches of dimension 10 - N (table 2) or 11 - N (table 3).
    assert main(["bounds", table]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["name", "q", "t", "n", "N", "delta", "m", "value", "verdict"]
    assert len(rows) == count
    for name, q, t, n, N, delta, m, *cells in rows:
        assert (t, n, delta) == ("1", "10", "0")
        q, N, m = int(q), int(N), int(m)
        d = (10 if table == "--table2" else 11) - N
        if name == "zippel_ic_prob":
            rep = zippel_ic_prob(q, m, N, 10)
        else:
            rep = subspace_existence_prob([d] * m, 10, N, q)
        assert [name, *cells] == [rep.name, *_csv_cells(rep)]
    if table == "--table2":
        # One zippel and one subspace row per (N, m), at q = 4.
        names = [r[0] for r in rows]
        assert names == ["zippel_ic_prob", "subspace_existence_prob"] * 28
        assert {r[1] for r in rows} == {"4"}
    else:
        assert {r[0] for r in rows} == {"subspace_existence_prob"}
        assert [r[1] for r in rows] == ["4"] * 8 + ["8"] * 8 + ["16"] * 8


def test_cli_bounds_requires_selection(capsys):
    assert main(["bounds"]) == 2


def test_cli_encode_coset(inst_file, tmp_path, capsys):
    out = tmp_path / "enc.json"
    code = main([
        "encode", "--instance", inst_file, "--method", "coset",
        "--out", str(out),
    ])
    assert code == 0
    assert "N=2 provenance=coset" in capsys.readouterr().out
    assert json.loads(out.read_text())["N"] == 2


def test_cli_encode_random_impossible_length(inst_file, capsys):
    code = main([
        "encode", "--instance", inst_file, "--method", "random",
        "--length", "1", "--attempts", "50",
    ])
    assert code == 2
    assert "no length-1 encoder" in capsys.readouterr().err


def test_cli_decode_roundtrip(inst_file, tmp_path, capsys, syn_inst):
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    word = Matrix(F2, SYN_L) * X + Matrix.column_vector(F2, (0, 0, 0, 1, 0))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, word, v=0, ell=1)
    side = tmp_path / "side.json"
    lam = syn_inst.users[3].V * X
    side.write_text(json.dumps([list(r) for r in lam.rows]))
    code = main([
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side),
        "--delta", "1",
    ])
    assert code == 0
    assert "demand: 1" in capsys.readouterr().out


def test_cli_decode_failure_exit(inst_file, tmp_path, capsys, syn_inst):
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    word = Matrix(F2, SYN_L) * X + Matrix.column_vector(F2, (1, 0, 0, 1, 0))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, word, v=0, ell=1)
    side = tmp_path / "side.json"
    lam = syn_inst.users[3].V * X
    side.write_text(json.dumps([list(r) for r in lam.rows]))
    code = main([
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side),
        "--delta", "1",
    ])
    assert code == 3
    assert "SyndromeNotFound" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [["--delta", "0"], []], ids=["delta0", "default"])
@pytest.mark.parametrize(
    "error", [(0, 0, 0, 1, 0), (1, 0, 0, 1, 0), (1, 1, 0, 0, 0)], ids=str
)
def test_cli_decode_delta0_detects_error(inst_file, tmp_path, capsys, syn_inst, error, delta):
    # At delta 0 (the default of an encoder without a certificate) the
    # syndrome decoder accepts only a zero syndrome, so an error that moves
    # the syndrome is reported as detected, not decoded to a wrong demand.
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix(F2, SYN_L) * X + Matrix.column_vector(F2, error), v=0, ell=1)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([list(r) for r in (syn_inst.users[3].V * X).rows]))
    code = main([
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side), *delta,
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "SyndromeNotFound" in captured.err and "demand" not in captured.out


def test_cli_decode_delta0_encoder_not_serving_user_exits_2(inst_file, tmp_path, capsys, syn_inst):
    # The one broadcast row lies in user 3's cache, so the encoder does not
    # serve user 3: bad input at every delta, 0 included.
    enc_path = tmp_path / "enc.json"
    save_encoder(make_encoder(Matrix(F2, ((0, 1, 1, 0),)), syn_inst, "manual"), enc_path)
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix.zeros(F2, 1, 1), v=0, ell=1)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([[0], [0]]))
    code = main([
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side), "--delta", "0",
    ])
    assert code == 2
    assert "does not realize" in capsys.readouterr().err


def test_cli_syndrome_search_past_budget_exits_4(tmp_path, capsys):
    # An N = 100 encoder of the 3-user GF(3) cycle at delta 5: the syndrome
    # search would scan C(100, 1) + ... + C(100, 5) = 79,375,495 supports,
    # hours for an error that none matches.  decode and simulate refuse it
    # (exit 4) before the scan, as they refuse any search past the budget.
    f = field_new(3, 1)
    eye = ident(3)
    inst = make_instance(f, 1, 3, eye, [([eye[i]], eye[(i + 1) % 3]) for i in range(3)])
    inst_path, enc_path = tmp_path / "cycle.json", tmp_path / "enc.json"
    save_instance(inst, inst_path)
    enc = random_ic_search(inst, 100, seed=0).encoder
    save_encoder(enc, enc_path)
    X = Matrix.column_vector(f, (1, 2, 0))
    error = Matrix.column_vector(f, [1] * 6 + [0] * 94)
    frame, side = tmp_path / "y.bin", tmp_path / "side.json"
    with open(frame, "wb") as fh:
        write_frame(fh, enc.lvs * X + error, v=0, ell=1)
    side.write_text(json.dumps([list(r) for r in (inst.users[0].V * X).rows]))
    common = ["--instance", str(inst_path), "--encoder", str(enc_path), "--delta", "5"]
    with deadline(10):
        assert main(["decode", "--frame", str(frame), "--user", "0", "--side", str(side),
                     *common]) == 4
        assert main(["simulate", *common, "--error-weight", "6", "--trials", "1"]) == 4
    err = capsys.readouterr().err
    assert err.count("supports exceed budget 4194304") == 2 and "Traceback" not in err


def test_cli_decode_rejects_trailing_bytes(inst_file, tmp_path, capsys, syn_inst):
    # A frame file holds one frame; one more byte after it is malformed input.
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix(F2, SYN_L) * X, v=0, ell=1)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([list(r) for r in (syn_inst.users[3].V * X).rows]))
    argv = [
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side),
        "--delta", "1",
    ]
    assert main(argv) == 0
    assert "demand: 1" in capsys.readouterr().out
    with open(frame, "ab") as fh:
        fh.write(b"\x00")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: trailing bytes after the frame" in captured.err
    assert "demand" not in captured.out


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "private"])
def test_cli_decode_trapped_frame(shared, inst_file, tmp_path, capsys, syn_inst):
    # A rank-1 error that reaches the pad is trapped in either payload
    # layout: Y alone with the encoder's L V_S, or [L | Y] with no encoder.
    enc = _syn_encoder(syn_inst)
    X = Matrix.column_vector(F2, (1, 0, 1, 1))
    Y = enc.lvs * X
    Q = Y if shared else hstack(enc.L, Y)
    a = Matrix.column_vector(F2, (1, 0, 0, 1, 0, 1, 0))
    b = Matrix.row_vector(F2, (0, 1, 1) + (0,) * (Q.ncols - 1))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, trap_pad(Q, 2) + a * b, v=2, ell=Q.ncols,
                    flags=FLAG_LVS_SHARED if shared else 0)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([list(r) for r in (syn_inst.users[3].V * X).rows]))
    argv = ["decode", "--frame", str(frame), "--instance", inst_file,
            "--user", "3", "--side", str(side)]
    if shared:
        assert main(argv) == 2  # the shared layout needs the encoder
        assert "needs --encoder" in capsys.readouterr().err
        enc_path = tmp_path / "enc.json"
        save_encoder(enc, enc_path)
        argv += ["--encoder", str(enc_path)]
    assert main(argv) == 0
    want = (syn_inst.users[3].R * X).rows[0][0]
    assert capsys.readouterr().out == f"demand: {want}\n"
    if not shared:
        # A private frame needs no encoder, but one given is loaded and its
        # N checked: a missing file, malformed JSON and an encoder one row
        # shorter exit 2, and the right encoder decodes the same demand.
        bad, short, right = (tmp_path / name for name in ("bad.json", "short.json", "enc.json"))
        bad.write_text("{")
        save_encoder(make_encoder(Matrix(F2, SYN_L[1:]), syn_inst, "manual"), short)
        save_encoder(enc, right)
        for path, code in ((tmp_path / "nope.json", 2), (bad, 2), (short, 2), (right, 0)):
            assert main(argv + ["--encoder", str(path)]) == code
            out = capsys.readouterr().out
            assert out == (f"demand: {want}\n" if code == 0 else "")


@pytest.mark.parametrize("trap_fails", [True, False], ids=["trap-fails", "clean-pad"])
@pytest.mark.parametrize(
    "layout, message",
    [
        pytest.param("private-wide", "frame layout does not match", id="private-wide"),
        pytest.param("shared-no-encoder", "needs --encoder", id="shared-no-encoder"),
        pytest.param("shared-wrong-N", "frame layout does not match", id="shared-wrong-N"),
    ],
)
def test_cli_decode_layout_mismatch_exits_2(
    layout, message, trap_fails, inst_file, tmp_path, capsys, syn_inst
):
    # The frame is checked against the instance and the encoder before the
    # trap runs, so a frame that does not fit them exits 2 whatever its
    # payload holds: a private payload one column wider than d_S + t, a
    # shared frame without --encoder, and one whose N is not the encoder's.
    enc = _syn_encoder(syn_inst)
    v, t = 2, syn_inst.t
    N = enc.N + 1 if layout == "shared-wrong-N" else enc.N
    ell = syn_inst.d_S + t + 1 if layout == "private-wide" else t
    received = trap_pad(Matrix.zeros(F2, N, ell), v)
    if trap_fails:
        # A 1 in a pad column below the zero pad rows: no error in the pad
        # rows explains it, so the trap reports a failure.
        a = Matrix.column_vector(F2, tuple(int(r == v) for r in range(v + N)))
        b = Matrix.row_vector(F2, (1,) + (0,) * (v + ell - 1))
        received = received + a * b
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, received, v=v, ell=ell,
                    flags=0 if layout == "private-wide" else FLAG_LVS_SHARED)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([[0]] * syn_inst.users[3].d))
    argv = ["decode", "--frame", str(frame), "--instance", inst_file,
            "--user", "3", "--side", str(side)]
    if layout == "shared-wrong-N":
        enc_path = tmp_path / "enc.json"
        save_encoder(enc, enc_path)
        argv += ["--encoder", str(enc_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "demand:" not in captured.out


def test_cli_decode_field_mismatch(inst_file, tmp_path, capsys):
    f3 = field_new(3, 1)
    frame = tmp_path / "y3.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix.zeros(f3, 5, 1), v=0, ell=1)
    side = tmp_path / "side.json"
    side.write_text("[[0],[0]]")
    code = main([
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--user", "0", "--side", str(side),
    ])
    assert code == 2
    assert "field does not match" in capsys.readouterr().err


# Integers only: each edit below keeps the value an int() truncation would
# give, so only the integer check can refuse it.
_NOT_INTEGERS = [lambda x: x + 0.5, float, str, bool]


def _edit_entry(doc, where, spoil):
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = spoil(doc[where[-1]])


@pytest.mark.parametrize("spoil", _NOT_INTEGERS, ids=["x+0.5", "float", "str", "bool"])
@pytest.mark.parametrize(
    "where",
    [("sender", 0, 0), ("users", 1, "V", 0, 1), ("users", 0, "R", 0), ("t",), ("n",), ("e",)],
    ids=lambda w: ".".join(map(str, w)),
)
def test_cli_validate_rejects_non_integer_entries(inst_file, tmp_path, capsys, where, spoil):
    with open(inst_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    _edit_entry(doc, where, spoil)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("spoil", _NOT_INTEGERS, ids=["x+0.5", "float", "str", "bool"])
@pytest.mark.parametrize("target", ["encoder", "side"])
def test_cli_decode_rejects_non_integer_entries(
    inst_file, tmp_path, capsys, syn_inst, target, spoil
):
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    X = Matrix.column_vector(F2, (1, 1, 1, 1))
    frame = tmp_path / "y.bin"
    with open(frame, "wb") as fh:
        write_frame(fh, Matrix(F2, SYN_L) * X, v=0, ell=1)
    side = tmp_path / "side.json"
    side.write_text(json.dumps([list(r) for r in (syn_inst.users[3].V * X).rows]))
    argv = [
        "decode", "--frame", str(frame), "--instance", inst_file,
        "--encoder", str(enc_path), "--user", "3", "--side", str(side),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    path, where = (enc_path, ("L", 1, 0)) if target == "encoder" else (side, (1, 0))
    doc = json.loads(path.read_text())
    _edit_entry(doc, where, spoil)
    path.write_text(json.dumps(doc))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "integer" in captured.err and "demand" not in captured.out


_SYN_L_ROWS = [list(r) for r in SYN_L]


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["encode", "--method", "coset", "--delta", "1", "--metric", "rank"]],
    ids=["validate", "encode"],
)
def test_cli_huge_t_exits_2(argv, tmp_path, capsys):
    # q^(n t) = 3^60000000: the rank check once built it exactly and hung.
    doc = {"p": 3, "e": 1, "t": 20000000, "n": 3, "sender": ident(3),
           "users": [{"V": [[1, 0, 0]], "R": [0, 1, 0]}, {"V": [[0, 1, 0]], "R": [0, 0, 1]},
                     {"V": [[0, 0, 1]], "R": [1, 0, 0]}]}
    bad = tmp_path / "huge_t.json"
    bad.write_text(json.dumps(doc))
    with deadline(10):
        assert main([*argv, "--instance", str(bad)]) == 2
    assert "bit cap" in capsys.readouterr().err


_CYCLE3_USERS = [{"V": [[1, 0, 0]], "R": [0, 1, 0]}, {"V": [[0, 1, 0]], "R": [0, 0, 1]},
                 {"V": [[0, 0, 1]], "R": [1, 0, 0]}]


@pytest.mark.parametrize("method", ["coset", "random", "concat-rs"])
@pytest.mark.parametrize("t,delta", [(1, 1), (2, 1), (4, 2)])
def test_cli_encode_vacuous_rank_certificate_exits_2(method, t, delta, tmp_path, capsys):
    # At t <= 2 delta no confusable has rank 2 delta + 1: the coset and
    # concatenated certificates passed with 0 trials and the search took its
    # first draw.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"p": 3, "e": 1, "t": t, "n": 3, "sender": ident(3),
                                "users": _CYCLE3_USERS}))
    # Only the random search reads --attempts; the other methods refuse it.
    attempts = ["--attempts", "5"] if method == "random" else []
    argv = ["encode", "--instance", str(path), "--method", method, *attempts,
            "--delta", str(delta), "--metric", "rank"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: --metric rank needs t > 2 delta, got t={t} and 2 delta={2 * delta}" in (
        captured.err
    )
    assert "certificate" not in captured.out
    # The Hamming check, and the rank check at t = 3 > 2 delta, still run
    # (the search may find nothing in its 5 draws, which also exits 2).
    assert main([*argv[:-1], "hamming"]) in (0, 2)
    if delta == 1:
        path.write_text(path.read_text().replace(f'"t": {t}', '"t": 3'))
        assert main(argv) in (0, 2)
    assert "error: --metric rank" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--encoder", "random"], ["--encoder", "coset", "--guarantee", "--pad", "1"]],
    ids=["random", "guarantee"],
)
def test_cli_simulate_vacuous_rank_check_exits_2(flags, tmp_path, capsys):
    # At t = 1 <= 2 delta the rank check tests nothing: simulate once ran a
    # random draw that serves no user, and "verified" a coset encoder that
    # left tens of errors per user undetected.  It refuses both as encode
    # does, with the same message.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"p": 3, "e": 1, "t": 1, "n": 3, "sender": ident(3),
                                "users": _CYCLE3_USERS}))
    argv = ["simulate", "--instance", str(path), *flags, "--metric", "rank",
            "--delta", "1", "--error-weight", "0", "--trials", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: --metric rank needs t > 2 delta, got t=1 and 2 delta=2" in captured.err
    assert "success" not in captured.out
    cfg = SimConfig(str(path), encoder=flags[1], metric="rank", delta=1, trials=5,
                    trap_pad=1, guarantee="--guarantee" in flags)
    with pytest.raises(ValueError, match="needs t > 2 delta"):
        run_simulation(cfg)
    # Neither a random search nor a guarantee: nothing to refuse.
    assert main(["simulate", "--instance", str(path), "--metric", "rank", "--delta", "1",
                 "--trials", "5"]) == 0


def test_cli_simulate_random_rank_encoder_serves_every_user(tmp_path, capsys):
    # The 3-user cycle over GF(2) at t = 3, delta = 1: the rank check tests
    # no confusable, and the random search once returned a length-4 draw
    # that served no user, so no trial decoded.
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"p": 2, "e": 1, "t": 3, "n": 3, "sender": ident(3),
                                "users": _CYCLE3_USERS}))
    argv = ["simulate", "--instance", str(path), "--encoder", "random", "--metric", "rank",
            "--delta", "1", "--error-weight", "0", "--trials", "20", "--seed", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("success 20/20 ") == 3


def test_cli_encode_concat_rs_certifies_in_the_metric_asked_for(tmp_path, capsys, monkeypatch):
    # concat-rs printed the concatenation's Hamming certificate whatever
    # --metric asked for.  Here the [3, 1, 3] outer code over GF(4) passes
    # the Hamming check, and a confusable of rank 3 fails the rank one.
    doc = {"p": 2, "e": 2, "t": 3, "n": 4, "sender": ident(4),
           "users": [{"V": [[1, 0, 0, 0]], "R": [0, 1, 0, 0]}]}
    path, out = tmp_path / "one.json", tmp_path / "enc.json"
    path.write_text(json.dumps(doc))
    inst = parse_instance(doc)
    argv = ["encode", "--instance", str(path), "--method", "concat-rs", "--delta", "1",
            "--out", str(out)]
    # The command runs min_rank once, itself: the encoder takes its result.
    monkeypatch.setattr("iccsi.codec.min_rank", None)
    for metric in ("rank", "hamming"):
        assert main([*argv, "--metric", metric]) == 0
        enc = load_encoder(str(out), inst)
        cert = verify_ecic(enc.L, inst, 1, metric)
        assert enc.certificate == cert and cert.passed == (metric == "hamming")
        state = "pass" if cert.passed else "FAIL"
        assert (
            f"certificate: {state} delta=1 metric={metric} mode=exhaustive trials={cert.trials}"
            in capsys.readouterr().out
        )


# Near the power-bit cap for q = 3, n = 4: each user's confusable set has
# 3^15000 members (k = 3, t = 5000), an exact count of over 7,000 digits.
_CAP_T_RANK_DOC = {
    "p": 3, "e": 1, "t": 5000, "n": 4, "sender": ident(4),
    "users": [{"V": [ident(4)[i]], "R": ident(4)[(i + 1) % 4]} for i in range(4)],
}


def test_cli_encode_rank_check_near_cap_exits_0(tmp_path, capsys):
    # The rank check takes one rank computation per user and no budget.  At
    # delta = 1 it tests all four users, as k = 3 and t = 5000 are both at
    # least 2 delta + 1.
    path = tmp_path / "cap_t.json"
    path.write_text(json.dumps(_CAP_T_RANK_DOC))
    with deadline(5):
        code = main([
            "encode", "--instance", str(path), "--method", "coset",
            "--delta", "1", "--metric", "rank",
        ])
    assert code == 0
    assert "mode=exhaustive trials=4" in capsys.readouterr().out


_DEEP_JSON = "[" * 200_000


@pytest.mark.parametrize(
    "kind,doc",
    [
        ("instance", {"p": 2, "e": 1, "t": 1, "n": 2, "sender": ident(2),
                      "users": [{"V": 5, "R": [1, 0]}]}),
        ("encoder", {"N": 5, "provenance": "manual"}),
        ("encoder", {"N": None, "L": _SYN_L_ROWS}),
        ("encoder", {"N": 5, "L": _SYN_L_ROWS, "certificate": {}}),
        ("side", {}),
        ("side", {"rows": None}),
        # A prime far above the order cap: trial division would take hours.
        ("instance", {"p": 1000000000000000003, "e": 1, "t": 1, "n": 2,
                      "sender": ident(2), "users": [{"V": [[1, 0]], "R": [0, 1]}]}),
        # 2**400000000 is a 50 MB int.
        ("instance", {"p": 2, "e": 400000000, "t": 1, "n": 2,
                      "sender": ident(2), "users": [{"V": [[1, 0]], "R": [0, 1]}]}),
        ("instance", {"p": 2, "e": 2, "t": 1, "n": 2, "modulus": 5,
                      "sender": ident(2), "users": [{"V": [[1, 0]], "R": [0, 1]}]}),
        ("instance", {"p": 2, "e": 2, "t": 1, "n": 2, "modulus": [[1], [1], [1]],
                      "sender": ident(2), "users": [{"V": [[1, 0]], "R": [0, 1]}]}),
        # JSON nested deeper than the parser's recursion limit, as text:
        # json.dumps cannot build it.
        *(pytest.param(kind, _DEEP_JSON, id=f"{kind}-deep")
          for kind in ("instance", "encoder", "side")),
    ],
)
def test_cli_malformed_file_exits_2(kind, doc, inst_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(doc if doc is _DEEP_JSON else json.dumps(doc))
    if kind == "instance":
        argv = ["validate", "--instance", str(bad)]
    elif kind == "encoder":
        argv = ["simulate", "--instance", inst_file, "--encoder", str(bad), "--trials", "1"]
    else:
        frame = tmp_path / "y.bin"
        with open(frame, "wb") as fh:
            write_frame(fh, Matrix.zeros(F2, 5, 1), v=0, ell=1)
        argv = [
            "decode", "--frame", str(frame), "--instance", inst_file,
            "--user", "0", "--side", str(bad),
        ]
    with deadline(10):
        assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["minrank", "--instance", "inst.json", "--delta", "-1"], "--delta"),
        (["bounds", "--bound", "hamming", "--m", "0"], "--m"),
        (["bounds", "--bound", "hamming", "--n", "-3"], "--n"),
        (["bounds", "--bound", "hamming", "--q", "1"], "--q"),
        (["bounds", "--bound", "zippel", "--q", "6"], "--q"),
        (["bounds", "--bound", "rank", "--d", "-1"], "--d"),
        (["bounds", "--bound", "rank", "--t", "0"], "--t"),
        (["bounds", "--bound", "zippel", "--N", "-1"], "--N"),
        (["bounds", "--bound", "subspace", "--dS", "-1"], "--dS"),
        (["encode", "--instance", "i.json", "--method", "random", "--length", "-1"], "--length"),
        (["encode", "--instance", "i.json", "--method", "random", "--length", "0"], "--length"),
        (["encode", "--instance", "i.json", "--method", "concat-rs", "--length", "0"], "--length"),
        (["encode", "--instance", "i.json", "--method", "random", "--attempts", "0"], "--attempts"),
        # Flag values whose exact powers are too large to compute: each took
        # from 0.7 s to well over 20 s before the cap on exact powers.
        (["bounds", "--bound", "rank", "--N", "26000", "--t", "10"], "q^(N t)"),
        (["bounds", "--bound", "rank", "--n", "100000", "--t", "10"], "q^((n-d) t)"),
        (["bounds", "--bound", "hamming", "--N", "1000000"], "q^N"),
        (["bounds", "--bound", "hamming", "--n", "10000000", "--q", "3"], "q^(n-d-1)"),
        (["bounds", "--bound", "zippel", "--N", "100000"], "q^(N d_S)"),
        (["bounds", "--bound", "subspace", "--N", "1000", "--dS", "2000"], "q^(N d_S)"),
        # Seeds and simulate's counts, refused by the parser, which names
        # the flag, before numpy or run_simulation sees them.
        (["encode", "--instance", "i.json", "--method", "random", "--seed", "-1"], "--seed"),
        (["simulate", "--instance", "i.json", "--seed", "-1"], "--seed"),
        (["simulate", "--instance", "i.json", "--pad", "-1"], "--pad"),
        (["simulate", "--instance", "i.json", "--error-weight", "-1"], "--error-weight"),
        (["simulate", "--instance", "i.json", "--trials", "0"], "--trials"),
        # A flag the method does not read is refused, before the instance
        # (missing here) is loaded, not dropped: the coset encoder's length
        # is the min-rank, and only the random search draws.
        (["encode", "--instance", "i.json", "--method", "coset", "--length", "7"], "--length"),
        (["encode", "--instance", "i.json", "--method", "coset", "--attempts", "5"], "--attempts"),
        (["encode", "--instance", "i.json", "--method", "coset", "--seed", "9"], "--seed"),
        (["encode", "--instance", "i.json", "--method", "coset", "--seed", "0"], "--seed"),
        (["encode", "--instance", "i.json", "--method", "concat-rs", "--attempts", "5"],
         "--attempts"),
        (["encode", "--instance", "i.json", "--method", "concat-rs", "--seed", "9"], "--seed"),
        # So is a rank-mode flag given to a Hamming simulation (the default
        # metric), whatever its value.
        (["simulate", "--instance", "i.json", "--pad", "3"], "--pad"),
        (["simulate", "--instance", "i.json", "--metric", "hamming", "--pad", "0"], "--pad"),
        (["simulate", "--instance", "i.json", "--no-lvs-shared"], "--lvs-shared/--no-lvs-shared"),
        (["simulate", "--instance", "i.json", "--metric", "hamming", "--lvs-shared"],
         "--lvs-shared/--no-lvs-shared"),
        # Lengths above the 65,535 rows a frame's N field carries: 10^12
        # asked numpy for N d_S random entries and died with a traceback.
        (["encode", "--instance", "i.json", "--method", "random", "--length", "65536"],
         "--length"),
        (["encode", "--instance", "i.json", "--method", "random", "--length", "1000000000000"],
         "--length"),
        (["encode", "--instance", "i.json", "--method", "concat-rs", "--length", "65536"],
         "--length"),
    ],
)
def test_cli_out_of_range_flag_exits_2(argv, flag, capsys):
    # Of the encode flags only --length is read by a method other than
    # random; of the simulate flags --pad and --lvs-shared only by rank mode.
    if argv[0] == "simulate":
        mode = "--metric hamming"
        unused = flag in ("--pad", "--lvs-shared/--no-lvs-shared") and "-1" not in argv
    else:
        method = argv[argv.index("--method") + 1] if "--method" in argv else "random"
        mode = f"--method {method}"
        unused = method != "random" and (method, flag) != ("concat-rs", "--length")
    with deadline(10):
        if flag.startswith("q^") or unused:
            assert main(argv) == 2
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
    err = capsys.readouterr().err
    if flag.startswith("q^"):
        # Refused by the bound itself, before any exact power is built.
        assert f"error: {flag} = " in err and "-bit cap on exact powers" in err
    else:
        # --q is a field order and --length a frame's code length, refused
        # by range; the others by a lower bound.
        message = {
            "--q": "must be a prime power in [2, 65536]",
            "--length": "must be in [1, 65535]",
        }.get(flag, "must be >= ")
        if unused:
            message = f"not used by {mode}"
        assert f"error: argument {flag}: {message}" in err
    assert "Traceback" not in err


def test_cli_bounds_large_radius_finishes(capsys):
    # Under the cap the Hamming sphere volume still has 15,001 terms of
    # ~30,000 bits; summed term by term it took minutes.
    with deadline(10):
        code = main(["bounds", "--bound", "hamming", "--N", "30000", "--delta", "7500"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("hamming_random_ecic_prob,2,")


@pytest.mark.parametrize(
    "argv,row",
    [
        # Large flags whose big powers are never built: the cap lets them by.
        (["zippel", "--q", "2", "--m", "5", "--N", "100000"], "zippel_ic_prob,2,1,10,100000,0,5,-,"),
        (["hamming", "--n", "10000000", "--d", "9999999"], "hamming_random_ecic_prob,2,1,10000000,1,0,1,0.5,true"),
        (["rank", "--n", "100000", "--d", "99999", "--t", "10"], "rank_random_ecic_prob,2,10,100000,1,0,1,0.0009766,true"),
    ],
)
def test_cli_bounds_large_flags_without_large_powers(argv, row, capsys):
    with deadline(10):
        assert main(["bounds", "--bound", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[1] == row


def test_cli_simulate(inst_file, tmp_path, capsys, syn_inst):
    enc_path = tmp_path / "enc.json"
    save_encoder(_syn_encoder(syn_inst), enc_path)
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--instance", inst_file, "--encoder", str(enc_path),
        "--delta", "1", "--error-weight", "1", "--trials", "25",
        "--out", str(report),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "user 0: success 25/25" in out
    assert "wall time:" in out
    doc = json.loads(report.read_text())
    assert doc["trials"] == 25
    assert "wall_time" in doc
    assert all(u["success"] == 25 for u in doc["users"])
