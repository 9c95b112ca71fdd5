"""Command line front end.

Subcommands: ``validate`` (check an instance file), ``minrank`` (optimal
length and the confusable-subspace lower bound), ``bounds`` (CSV of
probability and length bounds, with presets regenerating the reference
tables), ``encode`` (build and export an encoder), ``decode`` (one-shot
decode of a broadcast frame), ``simulate`` (Monte-Carlo noisy broadcasts).

Exit codes: 0 success, 2 validation error, 3 decode failure, 4 enumeration
budget exceeded.  ``decode`` checks a frame against the instance and the
encoder, whenever one is given, before any decoding, so a mismatch exits 2
whatever the payload holds.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from .bounds import (
    BoundReport,
    alpha_kappa_bracket,
    hamming_random_ecic_prob,
    rank_random_ecic_prob,
    singleton_lb,
    subspace_existence_prob,
    zippel_ic_prob,
)
from .codec import (
    HAMMING,
    RANK,
    concat_kappa_bound,
    coset_encoder,
    encoder_to_json,
    extended_rs_generator,
    load_encoder,
    random_ic_search,
    require_rank_testable,
    save_encoder,
    verify_ecic,
)
from .decoders import (
    FLAG_LVS_SHARED,
    FrameError,
    _payload_width,
    build_user_decoder,
    rank_trap_decode,
    read_frame,
    solve_demand,
    syndrome_decode,
)
from .galois import MAX_FIELD_ORDER, Matrix, _prime_factors
from .harness import SimConfig, run_simulation
from .instance import BudgetExceeded, InstanceError, _parse_json, load_instance
from .minrank import alpha as alpha_search
from .minrank import min_rank

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DECODE = 3
EXIT_BUDGET = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _int_flag(ok, rule: str):
    """argparse type: an integer with ok(value), else "<flag>: must be <rule>"."""

    def parse(text: str) -> int:
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports non-integers as "invalid int value"
    return parse


def _int_at_least(low: int):
    return _int_flag(lambda value: value >= low, f">= {low}")


# A field order the package supports; the cap keeps _prime_factors short.
_field_order = _int_flag(
    lambda q: 2 <= q <= MAX_FIELD_ORDER and len(_prime_factors(q)) == 1,
    f"a prime power in [2, {MAX_FIELD_ORDER}]",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iccsi",
        description="Index coding with coded side information: solvers, "
        "bounds, encoders, decoders, and simulation.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("minrank", help="optimal length and lower bound")
    p.add_argument("--instance", required=True)
    p.add_argument("--delta", type=_int_at_least(0), default=0, help="errors to correct")
    p.set_defaults(func=_cmd_minrank)

    p = sub.add_parser("bounds", help="bound values as CSV")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--table2", action="store_true",
        help="random-search and subspace-existence columns, q=4 sweep",
    )
    group.add_argument(
        "--table3", action="store_true",
        help="subspace-existence at maximal user counts, q=4/8/16",
    )
    group.add_argument(
        "--table4", action="store_true",
        help="rank-metric existence verdicts per user class, q=2, n=20",
    )
    group.add_argument(
        "--bound", choices=tuple(_BOUNDS),
        help="single bound query",
    )
    p.add_argument("--q", type=_field_order, default=2)
    p.add_argument("--t", type=_int_at_least(1), default=1)
    p.add_argument("--n", type=_int_at_least(0), default=10, help="message rows")
    p.add_argument("--dS", type=_int_at_least(0), default=10, help="sender space dimension")
    p.add_argument("--N", type=_int_at_least(0), default=1, help="code length")
    p.add_argument("--delta", type=_int_at_least(0), default=0)
    p.add_argument("--m", type=_int_at_least(1), default=1, help="users or user classes")
    p.add_argument("--d", type=_int_at_least(0), default=0, help="per-user cache dimension")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("encode", help="build an encoder")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--method", choices=("coset", "random", "concat-rs"), default="coset"
    )
    p.add_argument("--delta", type=_int_at_least(0), default=0)
    p.add_argument("--metric", choices=(HAMMING, RANK), default=HAMMING)
    p.add_argument(
        # At most the rows a broadcast frame's 16-bit N field carries.
        "--length", type=_int_flag(lambda N: 1 <= N <= 0xFFFF, "in [1, 65535]"),
        help="code length, random and concat-rs only (default: shortest)",
    )
    p.add_argument("--seed", type=_int_at_least(0), help="random only (default: 0)")
    p.add_argument("--attempts", type=_int_at_least(1), help="random only (default: 1000)")
    p.add_argument("--out", help="encoder JSON output path")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode one broadcast frame")
    p.add_argument("--frame", required=True, help="broadcast frame path")
    p.add_argument("--instance", required=True)
    p.add_argument("--encoder", help="encoder JSON path")
    p.add_argument("--user", type=int, required=True)
    p.add_argument(
        "--side", required=True,
        help="JSON file with the user's cached values (list of rows)",
    )
    p.add_argument(
        "--delta", type=_int_at_least(0), help="errors to correct (default: from encoder)"
    )
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo noisy broadcasts")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--encoder", default="coset", help="coset | random | encoder JSON path"
    )
    p.add_argument("--metric", choices=(HAMMING, RANK), default=HAMMING)
    p.add_argument("--delta", type=_int_at_least(0), default=0, help="design delta of the decoder")
    p.add_argument(
        "--error-weight", type=_int_at_least(0), default=0, help="injected error magnitude"
    )
    p.add_argument("--pad", type=_int_at_least(0), help="rank mode: trap pad v (default: 0)")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument(
        "--lvs-shared", action=argparse.BooleanOptionalAction,
        help="rank mode: receivers already know L V_S (default: shared)",
    )
    p.add_argument(
        "--guarantee", action="store_true",
        help="verify the encoder at the design delta before running",
    )
    p.add_argument("--out", help="JSON report output path")
    p.set_defaults(func=_cmd_simulate)
    return parser


def _cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    print(
        f"ok: m={inst.m} users, n={inst.n} rows of t={inst.t} symbols "
        f"over GF({inst.q}), d_S={inst.d_S}"
    )
    for i, u in enumerate(inst.users):
        print(f"user {i}: d={u.d}")
    return EXIT_OK


def _cmd_minrank(args) -> int:
    inst = load_instance(args.instance)
    mr = min_rank(inst)
    al = alpha_search(inst, upper=mr.kappa)
    br = alpha_kappa_bracket(inst, args.delta, alpha_value=al.alpha, kappa_value=mr.kappa)
    print(f"kappa: {mr.kappa}")
    print(f"alpha: {al.alpha}")
    print("encoder rows (over the sender basis):")
    for row in mr.witness.rows:
        print("  " + " ".join(str(x) for x in row))
    print("confusable subspace basis rows:")
    for row in al.witness.rows:
        print("  " + " ".join(str(x) for x in row))
    upper = "?" if br.upper is None else br.upper
    print(f"length bracket at delta={args.delta}: [{br.lower}, {upper}]")
    return EXIT_OK


_TABLE3_M = {
    4: (16, 16, 16, 16, 16, 16, 17, 21),
    8: (64, 64, 64, 64, 64, 64, 65, 73),
    16: (256, 256, 256, 256, 256, 256, 257, 273),
}

_TABLE4 = (
    (6, 11, 16, 1), (7, 11, 15, 1), (8, 12, 13, 1), (11, 12, 12, 1),
    (20, 12, 11, 1),
    (10, 11, 20, 2), (11, 11, 19, 2), (12, 11, 18, 2), (14, 11, 17, 2),
    (17, 11, 16, 2), (9, 12, 19, 2), (10, 12, 18, 2), (11, 12, 17, 2),
    (13, 12, 16, 2), (16, 12, 15, 2),
    (16, 12, 19, 3), (19, 12, 18, 3), (13, 13, 20, 3), (14, 13, 19, 3),
    (15, 13, 18, 3), (16, 13, 18, 3), (17, 13, 17, 3), (18, 13, 18, 3),
    (19, 13, 17, 3),
)


def _bound_row(rep: BoundReport, q, t, n, N, delta, m) -> list:
    if rep.note and rep.note.startswith("inapplicable"):
        value, verdict = "-", ""
    else:
        value = rep.decimal
        verdict = "" if rep.verdict is None else str(rep.verdict).lower()
    return [rep.name, q, t, n, N, delta, m, value, verdict]


def _table2_rows() -> list[list]:
    rows = []
    for N in range(1, 10):
        d = 10 - N
        for m in (2, 3, 4, 5) if N == 9 else (2, 3, 4):
            rows.append(_bound_row(zippel_ic_prob(4, m, N, 10), 4, 1, 10, N, 0, m))
            rows.append(
                _bound_row(subspace_existence_prob([d] * m, 10, N, 4), 4, 1, 10, N, 0, m)
            )
    return rows


def _table3_rows() -> list[list]:
    rows = []
    for q in (4, 8, 16):
        for N, m in zip(range(2, 10), _TABLE3_M[q]):
            d = 11 - N
            rows.append(
                _bound_row(subspace_existence_prob([d] * m, 10, N, q), q, 1, 10, N, 0, m)
            )
    return rows


def _table4_rows() -> list[list]:
    rows = []
    for t, d, N, delta in _TABLE4:
        rows.append(
            _bound_row(rank_random_ecic_prob([d], 20, t, N, delta, 2), 2, t, 20, N, delta, 1)
        )
    return rows


# --bound queries: the call on the parsed flags, and whether the CSV shows --delta.
_BOUNDS = {
    "zippel": (lambda a: zippel_ic_prob(a.q, a.m, a.N, a.dS), False),
    "subspace": (lambda a: subspace_existence_prob([a.d] * a.m, a.dS, a.N, a.q), False),
    "hamming": (lambda a: hamming_random_ecic_prob([a.d] * a.m, a.n, a.N, a.delta, a.q), True),
    "rank": (lambda a: rank_random_ecic_prob([a.d] * a.m, a.n, a.t, a.N, a.delta, a.q), True),
}


def _cmd_bounds(args) -> int:
    if args.table2:
        rows = _table2_rows()
    elif args.table3:
        rows = _table3_rows()
    elif args.table4:
        rows = _table4_rows()
    elif args.bound:
        call, uses_delta = _BOUNDS[args.bound]
        delta = args.delta if uses_delta else 0
        rows = [_bound_row(call(args), args.q, args.t, args.n, args.N, delta, args.m)]
    else:
        raise ValueError("choose a preset table or --bound")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            _write_bounds_csv(fh, rows)
    else:
        _write_bounds_csv(sys.stdout, rows)
    return EXIT_OK


def _write_bounds_csv(fh, rows) -> None:
    writer = csv.writer(fh)
    writer.writerow(["name", "q", "t", "n", "N", "delta", "m", "value", "verdict"])
    writer.writerows(rows)


# The encode flags only some methods read, and those methods: the coset
# encoder's length is the min-rank, and only the random search draws.  A
# flag given to another method would be silently dropped.
_METHOD_FLAGS = {"length": ("random", "concat-rs"), "seed": ("random",), "attempts": ("random",)}


def _cmd_encode(args) -> int:
    for flag, methods in _METHOD_FLAGS.items():
        if getattr(args, flag) is not None and args.method not in methods:
            raise ValueError(f"argument --{flag}: not used by --method {args.method}")
    inst = load_instance(args.instance)
    delta = args.delta
    if args.metric == RANK:
        require_rank_testable(inst, delta)
    if args.method == "coset":
        enc = coset_encoder(inst)
        if delta > 0:
            enc = replace(enc, certificate=verify_ecic(enc.L, inst, delta, args.metric))
    elif args.method == "random":
        length = args.length
        if length is None:
            length = singleton_lb(min_rank(inst).kappa, delta)
        res = random_ic_search(
            inst, length, delta, args.metric,
            max_attempts=args.attempts or 1000, seed=args.seed or 0,
        )
        if not res.found:
            print(
                f"no length-{length} encoder found in {res.attempts} attempts",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        enc = res.encoder
        print(f"found after {res.attempts} attempts")
    else:
        mr = min_rank(inst)
        length = args.length
        if length is None:
            length = singleton_lb(mr.kappa, delta)
        outer = extended_rs_generator(inst.q, length, mr.kappa).transpose()
        enc = concat_kappa_bound(inst, delta, outer, min_rank_result=mr)
        # The concatenation certifies in the Hamming metric; a rank check
        # asked for replaces that certificate, as on the coset path.
        if args.metric == RANK:
            enc = replace(enc, certificate=verify_ecic(enc.L, inst, delta, RANK))
    print(f"N={enc.N} provenance={enc.provenance}")
    cert = enc.certificate
    if cert is not None:
        state = "pass" if cert.passed else "FAIL"
        print(
            f"certificate: {state} delta={cert.delta} metric={cert.metric} "
            f"mode={cert.mode} trials={cert.trials}"
        )
    if args.out:
        save_encoder(enc, args.out)
    else:
        print(encoder_to_json(enc))
    return EXIT_OK


def _load_side(path: str, inst, user: int) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = _parse_json(fh.read())
    rows = doc.get("rows") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise InstanceError('side file must hold a list of rows, bare or under "rows"')
    d = inst.users[user].d
    if len(rows) != d:
        raise InstanceError(f"side file has {len(rows)} rows, user {user} caches {d}")
    return Matrix(inst.field, rows, inst.t)


def _cmd_decode(args) -> int:
    inst = load_instance(args.instance)
    if not 0 <= args.user < inst.m:
        raise InstanceError(f"user index {args.user} out of range")
    with open(args.frame, "rb") as fh:
        payload, layout = read_frame(fh)
        # The file holds one frame and nothing after it.
        if fh.read(1):
            raise FrameError("trailing bytes after the frame")
    if payload.field != inst.field:
        raise InstanceError("frame field does not match the instance")
    lam = _load_side(args.side, inst, args.user)
    v, N, ell, flags = layout["v"], layout["N"], layout["ell"], layout["flags"]
    # The one frame check, before any decoding: a shared L V_S (always at
    # v = 0) needs the encoder, and an encoder, whenever given, fixes N.
    shared = v == 0 or bool(flags & FLAG_LVS_SHARED)
    if shared and not args.encoder:
        raise InstanceError("this frame needs --encoder")
    enc = load_encoder(args.encoder, inst) if args.encoder else None
    if ell != _payload_width(inst, shared) or (enc is not None and enc.N != N):
        against = "the instance" if enc is None else "the encoder and instance"
        raise InstanceError(f"frame layout does not match {against}")
    if v == 0:
        delta = args.delta
        if delta is None:
            delta = enc.certificate.delta if enc.certificate is not None else 0
        out = syndrome_decode(build_user_decoder(inst, enc.L, args.user), payload, lam, delta)
        if not out.ok:
            print(out.failure, file=sys.stderr)
            return EXIT_DECODE
        demand = out.demand
    else:
        trap = rank_trap_decode(payload, v, N, ell)
        if not trap.ok:
            print(trap.failure, file=sys.stderr)
            return EXIT_DECODE
        if shared:
            lvs, Y = enc.lvs, trap.Q
        else:
            # A private payload is [L | Y], L in its first d_S columns.
            lvs = trap.Q.take_cols(range(inst.d_S)) * inst.V_S
            Y = trap.Q.take_cols(range(inst.d_S, ell))
        try:
            demand = solve_demand(inst, args.user, lvs, Y, lam)
        except ValueError as exc:
            print(f"decode failed: {exc}", file=sys.stderr)
            return EXIT_DECODE
    print("demand: " + " ".join(map(str, demand.rows[0])))
    return EXIT_OK


# The simulate flags only rank mode reads; a Hamming run would drop them.
_RANK_FLAGS = {"pad": "--pad", "lvs_shared": "--lvs-shared/--no-lvs-shared"}


def _cmd_simulate(args) -> int:
    if args.metric == HAMMING:
        for flag, name in _RANK_FLAGS.items():
            if getattr(args, flag) is not None:
                raise ValueError(f"argument {name}: not used by --metric hamming")
    cfg = SimConfig(
        instance=args.instance,
        encoder=args.encoder,
        metric=args.metric,
        delta=args.delta,
        error_weight=args.error_weight,
        trap_pad=args.pad or 0,
        trials=args.trials,
        seed=args.seed,
        lvs_shared=args.lvs_shared is not False,
        guarantee=args.guarantee,
    )
    rep = run_simulation(cfg)
    doc = rep.to_dict()
    for i, u in enumerate(doc["users"]):
        lo, hi = u["wilson"]
        print(
            f"user {i}: success {u['success']}/{rep.trials} rate={u['rate']:.4f} "
            f"wilson=[{lo:.4f},{hi:.4f}] detected={u['detected']} "
            f"undetected={u['undetected']}"
        )
    print(f"wall time: {rep.wall_time:.2f}s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
