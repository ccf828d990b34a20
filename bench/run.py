"""qlog benchmark: seeded, closed-loop verification workloads.

    python3 bench/run.py --workload {td,procdist,logic,prp} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program under test is
imported from the checkout's ``src/``.  One process, one caller, no
threads: each item is called only after the previous one returned.

Set-up (importing ``qlog``, generating the inputs, parsing, typechecking
and evaluating shared definitions) is repeated SETUPS times; ``setup_s``
is the median.  Then whole passes over the workload's item pool fill
about ``--seconds`` (at least MIN_PASSES passes).  Each timing metric is
computed per pass, and the run reports its third quartile over passes.
Every verdict is checked against the benchmark's own reference.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same items and reports per-layer
metrics from the first traced pass, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with the machine description goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
MIN_PASSES = 5
# Layer modules the tracer wraps; sampling is not imported by the package.
QLOG_MODULES = ["qlog", "qlog.sampling"]


def fresh_import():
    """Import qlog from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "qlog" or n.startswith("qlog.")]:
        del sys.modules[name]
    for name in QLOG_MODULES:
        importlib.import_module(name)
    return sys.modules["qlog"]


def run_pass(items, pass_index: int, digest=None) -> Tuple[List[float], List[str]]:
    """Run every item once.  Returns per-item seconds and failures."""
    gc.collect()  # outside the timer: no pass pays for the last one's garbage
    times, failures = [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            payload = item.run(pass_index)
        except Exception as e:  # an exception is a wrong verdict
            times.append(time.perf_counter() - t0)
            failures.append(f"{item.label}: raised {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            continue
        times.append(time.perf_counter() - t0)
        why = item.check(payload)
        if why is not None:
            failures.append(f"{item.label}: {why}")
        if digest is not None:
            digest.update(item.label.encode())
            digest.update(json.dumps(payload, sort_keys=True).encode())
    return times, failures


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(items, seconds: float, digest) -> Tuple[List[List[float]], List[str]]:
    """Whole passes filling about ``seconds``, at least MIN_PASSES: the
    pass count is fixed after the first pass."""
    t0 = time.perf_counter()
    times, failures = run_pass(items, 0, digest)
    per_pass = [times]
    passes = max(round(seconds / (time.perf_counter() - t0)), MIN_PASSES)
    for pass_index in range(1, passes):
        times, f = run_pass(items, pass_index)
        per_pass.append(times)
        failures += f
    return per_pass, failures


def slow_quartile(seconds: List[float]) -> float:
    """The third quartile of per-pass times.  The host runs at one speed
    with bursts, lasting seconds, up to 1.4x faster; this reads the
    normal speed unless bursts fill three quarters of the run."""
    return statistics.quantiles(seconds, n=4, method="inclusive")[2]


def measure_traced(items, seconds: float, tracer: Tracer, spans_path: str):
    """Pairs of an untraced and a traced pass over the same items, as
    many as fill about ``seconds``.  Layer metrics come from the first
    traced pass; the overhead is the median over pairs of traced /
    untraced program time - 1."""
    failures: List[str] = []
    ratios: List[float] = []
    layers = None
    attempted = 0
    pairs = 1
    t0 = time.perf_counter()
    while len(ratios) < pairs:
        pass_index = len(ratios)
        plain, f = run_pass(items, pass_index)
        failures += f
        tracer.install()
        try:
            traced, f = run_pass(items, pass_index)
        finally:
            tracer.uninstall()
        failures += f
        attempted += len(plain) + len(traced)
        ratios.append(sum(traced) / sum(plain) - 1.0)
        if layers is None:
            layers = tracer.layer_metrics()
            tracer.write_spans(spans_path)
            pairs = max(round(seconds / (time.perf_counter() - t0)), 1)
    layers["trace.overhead_frac"] = statistics.median(ratios)
    layers["trace.missing_targets"] = len(tracer.missing)
    return layers, failures, attempted, len(ratios), tracer.missing


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "qlog", "__init__.py")):
        print(f"no qlog sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)

    setup = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        q = fresh_import()
        items = setup(q, args.seed, ROOT)
        setup_times.append(time.perf_counter() - t0)

    result = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "pool_items": len(items),
        "setup_s_runs": setup_times,
    }
    if args.trace:
        tracer = Tracer()
        values, failures, attempted, pairs, missing = measure_traced(
            items, args.seconds, tracer,
            os.path.join(results_dir, f"{args.workload}.spans.csv.gz"),
        )
        declared = spec["per_layer"]
        result.update(pass_pairs=pairs, missing_targets=missing)
    else:
        digest = hashlib.sha256()
        per_pass, failures = measure(items, args.seconds, digest)
        attempted = sum(len(pass_times) for pass_times in per_pass)
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": 1 / slow_quartile([sum(t) / len(t) for t in per_pass]),
            "item_p50_ms": slow_quartile([1e3 * statistics.median(t) for t in per_pass]),
            # 90th percentile, exclusive method
            "item_p90_ms": slow_quartile([1e3 * statistics.quantiles(t, n=10)[8] for t in per_pass]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]
        result.update(
            passes=len(per_pass),
            samples=attempted,
            fail_frac=len(failures) / attempted,
            digest=digest.hexdigest(),
            item_labels=[item.label for item in items],
            pass_item_seconds=per_pass,
        )

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"samples = {attempted} items in {result['passes']} passes")
        print(f"fail_frac = {result['fail_frac']:.6g}")
        print(f"digest = {result['digest']}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")

    result["metrics"] = metrics
    result["failures"] = failures
    with open(
        os.path.join(results_dir, f"{args.workload}.trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
