"""Span tracing around the public iccsi functions, installed from outside.

The traced run records one span per call into each traced function: its
name, start, end, parent span and the benchmark call it belongs to.  Spans
are kept in flat arrays while the run lasts and written to an ``.npz`` file
when it ends.  Per-layer ``calls``/``self_s`` and the ratios are computed
from them; self time is a span's duration minus the time its child spans
cover.

iccsi modules bind names at import (``from .galois import mat_rank``), so
:meth:`Tracer.install` rebinds every name in every loaded ``iccsi`` module
that refers to a traced function, and patches ``Matrix.__init__`` and
``Matrix.__mul__`` on the class.  :meth:`Tracer.uninstall` puts the
originals back, so an untraced phase runs the program unchanged.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, attribute) of every traced function, with the span name.
TRACED = [
    ("galois", "field_new", "galois.field_new"),
    ("galois", "mat_rank", "galois.mat_rank"),
    ("galois", "mat_rref", "galois.mat_rref"),
    ("galois", "solve_left", "galois.solve_left"),
    ("galois", "null_space", "galois.null_space"),
    ("instance", "parse_instance", "instance.parse_instance"),
    ("instance", "iter_confusable", "instance.iter_confusable"),
    ("minrank", "min_rank", "minrank.min_rank"),
    ("minrank", "alpha", "minrank.alpha"),
    ("minrank", "realizes_ic", "minrank.realizes_ic"),
    ("codec", "verify_ecic", "codec.verify_ecic"),
    ("codec", "random_ic_search", "codec.random_ic_search"),
    ("codec", "min_distance_cols", "codec.min_distance_cols"),
    ("decoders", "build_user_decoder", "decoders.build_user_decoder"),
    ("decoders", "syndrome_decode", "decoders.syndrome_decode"),
    ("decoders", "rank_trap_decode", "decoders.rank_trap_decode"),
    ("decoders", "solve_demand", "decoders.solve_demand"),
    ("harness", "run_simulation", "harness.run_simulation"),
]
METHODS = [("__init__", "galois.Matrix.init"), ("__mul__", "galois.Matrix.mul")]
GENERATORS = {"instance.iter_confusable"}
CALL = "bench.call"  # root span of one benchmark call


def _count_min_rank(c: Counter, args, out) -> None:
    c["minrank.min_rank.coset_size"] += out.coset_size


def _count_alpha(c: Counter, args, out) -> None:
    c["minrank.alpha.nodes"] += out.node_count


def _count_verify(c: Counter, args, out) -> None:
    c["codec.verify_ecic.trials"] += out.trials


def _count_search(c: Counter, args, out) -> None:
    c["codec.random_ic_search.attempts"] += out.attempts
    c["codec.random_ic_search.found"] += out.found


def _count_syndrome(c: Counter, args, out) -> None:
    c["decoders.syndrome_decode.not_found"] += out.demand is None


def _count_trap(c: Counter, args, out) -> None:
    c["decoders.rank_trap_decode.detected"] += not out.ok
    c["decoders.rank_trap_decode.risk_flag"] += out.risk_flag


def _count_simulation(c: Counter, args, out) -> None:
    c["harness.run_simulation.trials"] += args[0].trials


# Work counts read off a traced function's arguments and result.
COUNTERS = {
    "minrank.min_rank": _count_min_rank,
    "minrank.alpha": _count_alpha,
    "codec.verify_ecic": _count_verify,
    "codec.random_ic_search": _count_search,
    "decoders.syndrome_decode": _count_syndrome,
    "decoders.rank_trap_decode": _count_trap,
    "harness.run_simulation": _count_simulation,
}


class Tracer:
    """Records spans in memory while installed; one instance per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.call_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.call = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call_id.append(self.call)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def open_call(self, call: int) -> int:
        self.call = call
        return self.open(self._id(CALL))

    def _inside(self, nid: int) -> bool:
        return any(self.name_id[i] == nid for i in self._stack)

    # -- installing wrappers -----------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counts = self.counts
        post = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self.close(idx)
            if post is not None:
                post(counts, args, out)
            return out

        return traced

    def _wrap_generator(self, name: str, fn):
        """Each ``next()`` is one span; yields are counted, also per verify."""
        nid = self._id(name)
        verify = self._id("codec.verify_ecic")
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                counts[name + ".yielded"] += 1
                if self._inside(verify):
                    counts[name + ".yielded_in_verify"] += 1
                yield item

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ``iccsi`` module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in list(sys.modules.items()) if k == "iccsi" or k.startswith("iccsi.")]
        for modname, attr, name in TRACED:
            orig = getattr(sys.modules[f"iccsi.{modname}"], attr)
            wrapped = (self._wrap_generator if name in GENERATORS else self._wrap)(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        matrix = sys.modules["iccsi.galois"].Matrix
        for attr, name in METHODS:
            orig = matrix.__dict__[attr]
            self._restore.append((matrix, attr, orig))
            setattr(matrix, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "call_id": np.frombuffer(self.call_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span: names[name_id], start, end, parent index, call id."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, call_scale, setup_scale: float) -> dict[str, float]:
        """Per-layer calls, self time, counts and ratios from the spans.

        Span times are multiplied by the host speed factor of their call
        (``call_scale[call id]``) or, for the set-up, by ``setup_scale``.
        Spans of the set-up carry call id -1 and count toward the
        per-function numbers; the shares use benchmark-call spans only.
        """
        a = self.arrays()
        nid, parent, call = a["name_id"], a["parent"], a["call_id"]
        scale = np.append(np.asarray(call_scale, dtype=float), setup_scale)
        dur = (a["end"] - a["start"]) * scale[call]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        out: dict[str, float] = {}
        names = [name for _, _, name in TRACED] + [name for _, name in METHODS]
        for name in names:
            i = self._ids[name]
            if name not in GENERATORS:
                out[name + ".calls"] = int(calls[i])
            out[name + ".self_s"] = float(self_s[i])
        c = self.counts
        for key in (
            "instance.iter_confusable.yielded",
            "minrank.min_rank.coset_size",
            "minrank.alpha.nodes",
            "codec.verify_ecic.trials",
            "codec.random_ic_search.attempts",
            "harness.run_simulation.trials",
        ):
            out[key] = int(c[key])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["codec.verify_ecic.tested_ratio"] = ratio(
            c["codec.verify_ecic.trials"], c["instance.iter_confusable.yielded_in_verify"]
        )
        out["codec.random_ic_search.found_ratio"] = ratio(
            c["codec.random_ic_search.found"], c["codec.random_ic_search.attempts"]
        )
        for name, key in (
            ("decoders.syndrome_decode", "not_found"),
            ("decoders.rank_trap_decode", "detected"),
            ("decoders.rank_trap_decode", "risk_flag"),
            ("decoders.solve_demand", "raised"),
        ):
            label = "failed" if key == "raised" else key
            out[f"{name}.{label}_ratio"] = ratio(c[f"{name}.{key}"], calls[self._ids[name]])

        # Shares of benchmark-call time, from spans inside calls only.
        in_call = call >= 0
        root = self._ids[CALL]
        call_time = float(dur[in_call & (nid == root)].sum())
        layer_self = float(self_t[in_call & (nid != root)].sum())
        out["trace.call_s"] = call_time
        out["trace.layer_share"] = ratio(layer_self, call_time)
        for name in ("minrank.alpha", "codec.random_ic_search", "codec.verify_ecic"):
            i = self._ids[name]
            # None of these three calls itself, so every span is outermost.
            out[f"share.{name}"] = ratio(float(dur[in_call & (nid == i)].sum()), call_time)
        return out
