"""Outside-in tracing of qlog's layers.

The tracer wraps public functions of the ``qlog`` modules from outside:
it rebinds every import site of a wrapped function (each loaded ``qlog``
module that holds the same function object), and replaces methods and
staticmethods on their class.  Each wrapped call records a span (target,
start, end, parent span) plus two size counts, in memory; self time is
computed from the spans afterwards.  A recursive function gets a span
only for its outermost activation.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute path, span name).  The span name is the metric
# prefix: "<layer>.<function>".
TARGETS: List[Tuple[str, str, str]] = [
    ("qlog.measures", "Dist.from_pairs", "measures.from_pairs"),
    ("qlog.measures", "kantorovich", "measures.kantorovich"),
    ("qlog.measures", "total_variation", "measures.total_variation"),
    ("qlog.transport", "solve_transport", "transport.solve_transport"),
    ("qlog.processes", "behavioral_distance", "processes.behavioral_distance"),
    ("qlog.processes", "bisimilarity_distance", "processes.bisimilarity_distance"),
    ("qlog.evaluator", "Evaluator.eval", "evaluator.eval"),
    ("qlog.evaluator", "Evaluator.distance_at", "evaluator.distance_at"),
    ("qlog.parser", "parse_file", "parser.parse_file"),
    ("qlog.typecheck", "Checker.check", "typecheck.check"),
    ("qlog.typecheck", "Checker.synthesize", "typecheck.synthesize"),
    ("qlog.logic", "check_derivation", "logic.check_derivation"),
    ("qlog.logic", "check_semantic", "logic.check_semantic"),
    ("qlog.sampling", "sample_envs", "sampling.sample_envs"),
    ("qlog.td", "td_contraction_check", "td.td_contraction_check"),
    ("qlog.imp", "eval_cmd", "imp.eval_cmd"),
    ("qlog.hoare", "triple_value", "hoare.triple_value"),
    ("qlog.hoare", "check_nth_unused", "hoare.check_nth_unused"),
    ("qlog.hoare", "prp_prf_check", "hoare.prp_prf_check"),
]

FROM_PAIRS = "measures.from_pairs"
SOLVE = "transport.solve_transport"
PROCESS_DISTANCES = ("processes.behavioral_distance", "processes.bisimilarity_distance")

# Size buckets for self time: Dist support (points out) and LP cells (m*n).
SUPPORT_BUCKETS = (("small", 16), ("mid", 256), ("large", None))
CELL_BUCKETS = (("small", 9), ("mid", 100), ("large", None))


def _qlog_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "qlog" or name.startswith("qlog."))
    ]


class Tracer:
    """Spans around the TARGETS, installed and removed on demand."""

    def __init__(self):
        self.names = [span for _, _, span in TARGETS]
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._depth = [0] * len(TARGETS)
        self._stack: List[int] = []
        self.target = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size_in = array("q")
        self.size_out = array("q")

    def reset(self) -> None:
        """Drop the recorded spans (installed wrappers keep recording)."""
        for spans in (self.target, self.parent, self.start, self.end,
                      self.size_in, self.size_out):
            del spans[:]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, tid: int, fn):
        depth, stack = self._depth, self._stack
        is_from_pairs = self.names[tid] == FROM_PAIRS
        is_solve = self.names[tid] == SOLVE
        target, parent, start, end = self.target, self.parent, self.start, self.end
        size_in, size_out = self.size_in, self.size_out

        def wrapper(*args, **kwargs):
            if depth[tid]:
                return fn(*args, **kwargs)
            depth[tid] = 1
            idx = len(start)
            target.append(tid)
            parent.append(stack[-1] if stack else -1)
            start.append(perf_counter())
            end.append(0.0)
            size_in.append(0)
            size_out.append(0)
            stack.append(idx)
            try:
                if is_from_pairs:
                    pairs = list(args[0]) if args else list(kwargs.pop("pairs"))
                    args = (pairs,) + args[1:]
                    size_in[idx] = len(pairs)
                    result = fn(*args, **kwargs)
                    size_out[idx] = len(result.points)
                    return result
                if is_solve:
                    size_in[idx] = len(args[0])
                    size_out[idx] = len(args[1])
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                depth[tid] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        self.reset()
        modules = _qlog_modules()
        for tid, (modname, path, span) in enumerate(TARGETS):
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = (
                owner.__dict__.get(attr)
                if isinstance(owner, type)
                else getattr(owner, attr, None)
            )
            if raw is None:
                self.missing.append(span)
                continue
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(tid, raw.__func__)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(tid, raw))
            else:
                wrapper = self._wrap(tid, raw)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._set(m, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics over the recorded spans."""
        own = self.self_times()
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        for tid, t in zip(self.target, own):
            calls[tid] += 1
            self_s[tid] += t
        out: Dict[str, float] = {}
        for tid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[tid]
            out[f"{name}.self_s"] = self_s[tid]

        fp = self.names.index(FROM_PAIRS)
        sv = self.names.index(SOLVE)
        fp_in = fp_out = fp_max = 0
        cells = cells_max = 0
        fp_buckets = {b: 0.0 for b, _ in SUPPORT_BUCKETS}
        lp_buckets = {b: 0.0 for b, _ in CELL_BUCKETS}
        proc_ids = [self.names.index(n) for n in PROCESS_DISTANCES]
        lp_under = {tid: 0 for tid in proc_ids}
        for idx, tid in enumerate(self.target):
            if tid == fp:
                fp_in += self.size_in[idx]
                fp_out += self.size_out[idx]
                fp_max = max(fp_max, self.size_out[idx])
                fp_buckets[_bucket(self.size_out[idx], SUPPORT_BUCKETS)] += own[idx]
            elif tid == sv:
                mn = self.size_in[idx] * self.size_out[idx]
                cells += mn
                cells_max = max(cells_max, mn)
                lp_buckets[_bucket(mn, CELL_BUCKETS)] += own[idx]
                p = self.parent[idx]
                while p >= 0 and self.target[p] not in lp_under:
                    p = self.parent[p]
                if p >= 0:
                    lp_under[self.target[p]] += 1
        out[f"{FROM_PAIRS}.pairs_in"] = fp_in
        out[f"{FROM_PAIRS}.points_out"] = fp_out
        out[f"{FROM_PAIRS}.merge_ratio"] = fp_out / fp_in if fp_in else 0.0
        out[f"{FROM_PAIRS}.max_points"] = fp_max
        for b, _ in SUPPORT_BUCKETS:
            out[f"{FROM_PAIRS}.self_s.{b}"] = fp_buckets[b]
        out[f"{SOLVE}.cells"] = cells
        out[f"{SOLVE}.max_cells"] = cells_max
        for b, _ in CELL_BUCKETS:
            out[f"{SOLVE}.self_s.{b}"] = lp_buckets[b]
        for tid in proc_ids:
            out[f"{self.names[tid]}.lp_per_call"] = (
                lp_under[tid] / calls[tid] if calls[tid] else 0.0
            )
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped CSV, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,size_in,size_out\n")
            for idx in range(len(self.start)):
                fh.write(
                    f"{idx},{self.names[self.target[idx]]},"
                    f"{self.start[idx] - t0:.9f},{self.end[idx] - t0:.9f},"
                    f"{self.parent[idx]},{self.size_in[idx]},{self.size_out[idx]}\n"
                )


def _bucket(size: int, buckets) -> str:
    for name, limit in buckets:
        if limit is None or size <= limit:
            return name
    raise AssertionError("last bucket is unbounded")
