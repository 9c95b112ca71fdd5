"""The three benchmark workloads, their seeded inputs and their checks.

Each workload is built from the freshly imported ``iccsi`` package and the
benchmark seed.  It offers one *cycle* of call specs; the timed loop runs
whole cycles, so every run measures the same mix of calls.  ``run`` makes
one call into the public API, ``ops`` says how many ops the call holds,
``check`` tests a call's output against checks that hold for any seed, and
``stable`` renders the output as text that must repeat bit for bit.

The design checks use their own GF(2) arithmetic on int bitmasks, so they
do not rely on the code they check.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def _ident(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_instance(ic, rng, field, n: int, m: int, d: int, t: int):
    """Seeded valid instance: full sender space, m users with d-dim caches.

    Rejection-samples raw cache rows and requests until construction accepts
    them and every cache keeps dimension d, as the test suite's generator
    does.
    """
    q = field.q
    while True:
        users = [
            (rng.integers(0, q, size=(d, n)).tolist(), rng.integers(0, q, size=n).tolist())
            for _ in range(m)
        ]
        try:
            inst = ic.make_instance(field, t, n, _ident(n), users)
        except ic.InstanceError:
            continue
        if all(u.d == d for u in inst.users):
            return inst


def round_trip(ic, inst):
    """Pass the instance through the JSON I/O validation boundary."""
    back = ic.parse_instance(json.dumps(ic.serialize_instance(inst)))
    if back != inst:
        raise RuntimeError("serialize_instance/parse_instance round trip changed the instance")
    return back


def outer_generator(ic, field, k: int):
    """(k + r) x k binary generator [I; P] of a code with minimum distance 3.

    The columns of P are distinct vectors of weight >= 2, so no codeword has
    weight below 3; r is the least redundancy that has k such columns
    (k = 3 gives the [6, 3, 3] shortened Hamming code).
    """
    r = 2
    while 2**r - r - 1 < k:
        r += 1
    cols = [v for v in itertools.product((0, 1), repeat=r) if sum(v) >= 2][:k]
    rows = _ident(k) + [[cols[j][i] for j in range(k)] for i in range(r)]
    return ic.Matrix(field, rows, k)


# -- simulation workloads ------------------------------------------------


class _Simulation:
    """Calls are ``run_simulation`` batches; an op is one Monte-Carlo trial."""

    delta = 0
    setup_problems: tuple[str, ...] = ()

    def run(self, cfg):
        return self.ic.run_simulation(cfg, self.inst, self.enc)

    def ops(self, cfg) -> int:
        return cfg.trials

    def stable(self, cfg, report) -> str:
        return report.stable_json()

    def check(self, cfg, report) -> list[str]:
        problems = list(self.setup_problems)
        if report.trials != cfg.trials or len(report.users) != self.inst.m:
            problems.append("report shape does not match the config")
        for i, u in enumerate(report.users):
            if u.success + u.detected + u.undetected != cfg.trials:
                problems.append(f"user {i}: tallies do not sum to {cfg.trials}")
            if cfg.error_weight <= self.delta and u.success != cfg.trials:
                problems.append(
                    f"user {i}: {cfg.trials - u.success} failed trials at weight "
                    f"{cfg.error_weight} <= delta {self.delta}"
                )
        return problems


class SimHamming(_Simulation):
    """GF(2), n=8, m=6, d=3, t=4, kappa=3; delta=1 concatenated encoder.

    The encoder's Hamming certificate must pass (every call fails otherwise),
    and every batch of error weight <= 1 must decode all trials; weight 2
    exceeds the design and exercises the full support scan of the syndrome
    decoder.
    """

    delta = 1
    trials = 50
    trace_cycles = 5
    # One call in five at each end, so p50 and p90 fall inside a weight class.
    weights = (0, 1, 1, 1, 2)

    def __init__(self, ic, seed: int):
        self.ic = ic
        field = ic.field_new(2)
        rng = np.random.default_rng([seed, 1])
        while True:
            inst = random_instance(ic, rng, field, 8, 6, 3, 4)
            if ic.min_rank(inst).kappa == 3:
                break
        self.inst = round_trip(ic, inst)
        self.enc = ic.concat_kappa_bound(self.inst, self.delta, outer_generator(ic, field, 3))
        if not self.enc.certificate.passed:
            self.setup_problems = ("concatenated encoder failed its delta=1 Hamming certificate",)
        self.cycle = [
            ic.SimConfig(
                "perfbench", metric="hamming", delta=self.delta, error_weight=w,
                trials=self.trials, seed=seed * 1000 + s,
            )
            for s in range(2)
            for w in self.weights
        ]


class SimRank(_Simulation):
    """GF(4), n=6, m=5, d=2, t=2, kappa=3; coset encoder (N=3), rank mode.

    Pads v in {2, 3}, error ranks 0-3, shared and private L V_S.  With N=3
    and ell >= t=2 every rank stays <= min(v+N, v+ell): above that the
    harness's error sampler never returns.  Only rank-0 batches have a
    guaranteed outcome (all success).
    """

    trials = 50
    trace_cycles = 5

    def __init__(self, ic, seed: int):
        self.ic = ic
        field = ic.field_new(2, 2)
        rng = np.random.default_rng([seed, 2])
        while True:
            inst = random_instance(ic, rng, field, 6, 5, 2, 2)
            if ic.min_rank(inst).kappa == 3:
                break
        self.inst = round_trip(ic, inst)
        self.enc = ic.coset_encoder(self.inst)
        configs = itertools.product((2, 3), (0, 1, 2, 3), (True, False))
        self.cycle = [
            ic.SimConfig(
                "perfbench", metric="rank", error_weight=w, trap_pad=v,
                trials=self.trials, seed=seed * 1000 + k, lvs_shared=shared,
            )
            for k, (v, w, shared) in enumerate(configs)
        ]


# -- design workload -----------------------------------------------------


def _mask(row) -> int:
    return sum(1 << j for j, x in enumerate(row) if x)


def _gf2_rank(masks) -> int:
    basis: dict[int, int] = {}  # leading bit -> basis vector
    for x in masks:
        while x:
            lead = x.bit_length() - 1
            if lead not in basis:
                basis[lead] = x
                break
            x ^= basis[lead]
    return len(basis)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _rows(mat) -> list[list[int]]:
    return [list(r) for r in mat.rows]


class Design:
    """One op takes one GF(2) instance through the whole design pipeline.

    min_rank -> alpha -> random_ic_search at length kappa (delta 0, at most
    ``attempts`` draws) -> concat_kappa_bound (delta 1, Hamming certificate)
    -> verify_ecic in the rank metric at delta 1.  t=3 because at t <= 2
    delta the rank check tests no confusable at all.
    """

    count, n, m, d, t = 24, 7, 6, 3, 3
    attempts = 70
    trace_cycles = 2

    def __init__(self, ic, seed: int):
        self.ic = ic
        field = ic.field_new(2)
        rng = np.random.default_rng([seed, 3])
        self.insts = [
            round_trip(ic, random_instance(ic, rng, field, self.n, self.m, self.d, self.t))
            for _ in range(self.count)
        ]
        self.outer = {k: outer_generator(ic, field, k) for k in range(1, self.m + 1)}
        self.cycle = [(j, seed * 1000 + j) for j in range(self.count)]

    def run(self, spec):
        ic = self.ic
        inst = self.insts[spec[0]]
        mr = ic.min_rank(inst)
        al = ic.alpha(inst)
        rs = ic.random_ic_search(inst, mr.kappa, 0, max_attempts=self.attempts, seed=spec[1])
        enc = ic.concat_kappa_bound(inst, 1, self.outer[mr.kappa])
        rank_cert = ic.verify_ecic(enc.L, inst, 1, "rank")
        return mr, al, rs, enc, rank_cert

    def ops(self, spec) -> int:
        return 1

    def stable(self, spec, out) -> str:
        mr, al, rs, enc, rank_cert = out
        return json.dumps(
            {
                "kappa": mr.kappa,
                "min_rank_witness": _rows(mr.witness),
                "coset_size": mr.coset_size,
                "alpha": al.alpha,
                "alpha_witness": _rows(al.witness),
                "alpha_nodes": al.node_count,
                "search_attempts": rs.attempts,
                "search_L": _rows(rs.encoder.L) if rs.found else None,
                "concat_L": _rows(enc.L),
                "hamming_certificate": enc.certificate.to_dict(),
                "rank_certificate": rank_cert.to_dict(),
            },
            sort_keys=True,
        )

    def check(self, spec, out) -> list[str]:
        mr, al, rs, enc, rank_cert = out
        inst = self.insts[spec[0]]
        users = [([_mask(r) for r in u.V.rows], _mask(u.R.rows[0])) for u in inst.users]
        problems = []
        w = [_mask(r) for r in mr.witness.rows]
        if not (len(w) == mr.kappa == _gf2_rank(w)):
            problems.append("min-rank witness does not have rank kappa")
        if not self._realizes(inst, users, mr.witness):
            problems.append("min-rank witness does not realize the instance")
        basis = [_mask(r) for r in al.witness.rows]
        if al.alpha > mr.kappa or len(basis) != al.alpha or _gf2_rank(basis) != al.alpha:
            problems.append(f"alpha {al.alpha} witness inconsistent (kappa {mr.kappa})")
        for coef in range(1, 1 << len(basis)):
            z = 0
            for k, b in enumerate(basis):
                if coef >> k & 1:
                    z ^= b
            if not any(_parity(r & z) and not any(_parity(v & z) for v in vs) for vs, r in users):
                problems.append("alpha witness span holds a vector confusable for no user")
                break
        if rs.found and (rs.encoder.N != mr.kappa or not self._realizes(inst, users, rs.encoder.L)):
            problems.append("random-search encoder does not realize the instance")
        hc = enc.certificate
        if not hc.passed or hc.metric != "hamming" or hc.delta != 1:
            problems.append("concatenated encoder lacks a passed delta=1 Hamming certificate")
        for cert in (hc, rank_cert):
            for i, z in cert.violations:
                if not self._genuine(inst, users, enc.L, i, z, cert.metric, cert.delta):
                    problems.append(
                        f"{cert.metric} certificate violation for user {i} is not genuine"
                    )
        return problems

    @staticmethod
    def _lvs(inst, L) -> list[int]:
        vs = [_mask(r) for r in inst.V_S.rows]
        out = []
        for row in L.rows:
            x = 0
            for j, c in enumerate(row):
                if c:
                    x ^= vs[j]
            out.append(x)
        return out

    def _realizes(self, inst, users, L) -> bool:
        lvs = self._lvs(inst, L)
        return all(_gf2_rank(vs + lvs) == _gf2_rank(vs + lvs + [r]) for vs, r in users)

    def _genuine(self, inst, users, L, i, z, metric, delta) -> bool:
        """Z is confusable for user i and weight(L V_S Z) < 2 delta + 1."""
        cols = [_mask(z.col(c)) for c in range(z.ncols)]
        vs, r = users[i]
        if any(_parity(v & c) for v in vs for c in cols):
            return False
        if not any(_parity(r & c) for c in cols):
            return False
        image = [_mask([_parity(x & c) for c in cols]) for x in self._lvs(inst, L)]
        weight = _gf2_rank(image) if metric == "rank" else sum(1 for x in image if x)
        if metric == "rank" and _gf2_rank(cols) < 2 * delta + 1:
            return False
        return weight < 2 * delta + 1


WORKLOADS = {"sim-hamming": SimHamming, "sim-rank": SimRank, "design": Design}
