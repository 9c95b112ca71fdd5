"""Benchmark of the iccsi workbench, driven through its public Python API.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-hamming --seed 1 --seconds 25 --trace 0

It imports ``iccsi`` from ``src/`` next to this directory and fails when that
is missing.  One process, one thread.  Set-up (import, field tables, seeded
instances, the JSON round trip, encoder construction and certification) is
repeated several times and its median reported as ``setup_s``.  The timed
loop then runs whole cycles of calls until ``--seconds`` have passed, and
every output is checked afterwards.

Times are scaled to a reference host speed.  The speed of a shared host
swings by about 2x within seconds, and CPU time swings with it, so each
set-up and each call is followed by a fixed pure-Python kernel (about 2% of
the run) and its time is scaled by ``KERNEL_REF_S`` / kernel time.  The
unscaled figures are printed with the diagnostics.

With ``--trace 0`` the last line holds the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it holds the per-layer metrics: the
set-up is traced, the loop runs untraced for half of ``--seconds``, then a
fixed number of cycles traced, so work counts repeat exactly; the ratio of
the two throughputs is the tracing overhead.  The line before it holds run
diagnostics: output digest, fail ratio, versions, CPU count, unscaled times
and how much of the wall time the process was not running.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Host speed kernel: an 8x8 GF(16) table-lookup matrix product, the kind of
# work iccsi does, written here so that no change to iccsi can alter it.
# KERNEL_REF_S is its time on the reference host.
KERNEL_REF_S = 1.5e-3
_EXP = (1, 2, 4, 8, 3, 6, 12, 11, 5, 10, 7, 14, 15, 13, 9)
_LOG = (0, 0, 1, 4, 2, 8, 5, 10, 3, 14, 9, 7, 6, 13, 11, 12)
_A = tuple(tuple((i * 7 + j * 3) % 16 for j in range(8)) for i in range(8))


def host_kernel() -> tuple[float, float]:
    """Run the fixed kernel; returns its (wall, CPU) seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(20):
        bt = tuple(zip(*_A))
        out = []
        for ra in _A:
            row = []
            for cb in bt:
                s = 0
                for a, b in zip(ra, cb):
                    if a and b:
                        s ^= _EXP[(_LOG[a] + _LOG[b]) % 15]
                row.append(s)
            out.append(tuple(row))
    if out[3][5] != 1:
        raise RuntimeError("host speed kernel computed a wrong product")
    return time.perf_counter() - w0, time.process_time() - c0


def fresh_import():
    """Import iccsi from ``src/`` anew, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "iccsi" or k.startswith("iccsi.")]:
        del sys.modules[key]
    ic = importlib.import_module("iccsi")
    if Path(ic.__file__).resolve().parent != SRC / "iccsi":
        raise RuntimeError(f"imported iccsi from {ic.__file__}, not from {SRC}")
    return ic


def setup(name: str, seed: int, tracer: Tracer | None = None):
    """One full set-up; returns the workload, its wall time and the kernel's."""
    t0 = time.perf_counter()
    ic = fresh_import()
    if tracer is not None:
        tracer.install()
    bench = WORKLOADS[name](ic, seed)
    wall = time.perf_counter() - t0
    return bench, wall, host_kernel()[0]


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def timed_loop(bench, seconds: float, tracer: Tracer | None = None, cycles: int = 0) -> dict:
    """Run whole cycles of calls until ``seconds`` have passed.

    With ``cycles`` set, run exactly that many cycles instead, so that the
    traced run's work counts repeat exactly.

    Each record is (cycle position, output, error, wall, CPU, kernel wall,
    kernel CPU), the kernel being run right after the call.
    """
    records = []
    ticks0 = cpu_ticks()
    t0 = time.perf_counter()
    done = 0
    while True:
        for j, spec in enumerate(bench.cycle):
            span = tracer.open_call(len(records)) if tracer is not None else None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out, err = bench.run(spec), None
            except Exception as exc:  # a failing op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if span is not None:
                tracer.close(span)
            records.append((j, out, err, wall, cpu, *host_kernel()))
        done += 1
        if (done >= cycles) if cycles else (time.perf_counter() - t0 >= seconds):
            break
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return {"records": records, "steal": steal}


def judge(bench, records, verdicts: dict, stables: dict) -> tuple[int, int, list[str]]:
    """Check every call; returns (ops attempted, ops failed, problems).

    The first output of each cycle position gets the full checks; later
    ones must repeat it bit for bit.
    """
    attempted = failed = 0
    problems: list[str] = []
    for j, out, err, *_ in records:
        spec = bench.cycle[j]
        ops = bench.ops(spec)
        attempted += ops
        if err is not None:
            bad = [err]
        else:
            text = bench.stable(spec, out)
            if j not in stables:
                stables[j] = text
                verdicts[j] = bench.check(spec, out)
            bad = list(verdicts[j])
            if text != stables[j]:
                bad.append(f"call {j}: output differs from its first run")
        if bad:
            failed += ops
            problems.extend(bad)
    return attempted, failed, problems


def summarize(bench, run: dict) -> dict:
    """End-to-end figures of one timed loop, scaled and unscaled."""
    recs = run["records"]
    ops = sum(bench.ops(bench.cycle[r[0]]) for r in recs)
    wall = [r[3] for r in recs]
    cpu = [r[4] for r in recs]
    lat = [r[3] * KERNEL_REF_S / r[5] * 1000 for r in recs]
    cpu_scaled = sum(r[4] * KERNEL_REF_S / r[6] for r in recs)
    raw_lat = [w * 1000 for w in wall]

    def p90(xs):
        return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]

    return {
        "ops_per_s": ops / (sum(lat) / 1000),
        "cpu_ms_per_op": cpu_scaled * 1000 / ops,
        "call_p50_ms": statistics.median(lat),
        "call_p90_ms": p90(lat),
        "raw_ops_per_s": ops / sum(wall),
        "raw_cpu_ms_per_op": sum(cpu) * 1000 / ops,
        "raw_call_p50_ms": statistics.median(raw_lat),
        "raw_call_p90_ms": p90(raw_lat),
        "host_slowdown": statistics.median(r[5] for r in recs) / KERNEL_REF_S,
        "wall_minus_cpu_share": 1 - sum(cpu) / sum(wall),
        "steal_share": run["steal"],
        "calls": len(recs),
        "ops": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "iccsi" / "__init__.py").is_file():
        print(f"perfbench: no iccsi sources under {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    tracer = Tracer() if args.trace else None
    if tracer is None:
        setups = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        bench = setups[-1][0]
        runs = [timed_loop(bench, args.seconds)]
    else:
        setups = [setup(args.workload, args.seed, tracer)]
        bench = setups[-1][0]
        tracer.uninstall()
        runs = [timed_loop(bench, args.seconds / 2)]
        tracer.install()
        runs.append(timed_loop(bench, 0, tracer, cycles=bench.trace_cycles))
        tracer.uninstall()

    verdicts: dict = {}
    stables: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for run in runs:
        a, f, p = judge(bench, run["records"], verdicts, stables)
        attempted, failed = attempted + a, failed + f
        problems += p
    digest = hashlib.sha256("\n".join(stables[j] for j in sorted(stables)).encode()).hexdigest()

    summary = summarize(bench, runs[-1])
    if tracer is None:
        values = {
            **summary,
            "setup_s": statistics.median(s * KERNEL_REF_S / k for _, s, k in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        untraced = summarize(bench, runs[0])["ops_per_s"]
        values = tracer.layer_metrics(
            [KERNEL_REF_S / r[5] for r in runs[-1]["records"]], KERNEL_REF_S / setups[-1][2]
        )
        values["trace.untraced_ops_per_s"] = untraced
        values["trace.traced_ops_per_s"] = summary["ops_per_s"]
        values["trace.overhead"] = untraced / summary["ops_per_s"]
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definition[section]
    }
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "output_digest": digest,
        "fail_ratio": failed / attempted,
        "problems": problems[:5],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "raw_setup_s": statistics.median(s for _, s, _ in setups),
        **summary,
    }
    print(json.dumps(diagnostics))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
