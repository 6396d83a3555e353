"""Run one workload in this (fresh) process and write its measurements as
JSON. Started by run.py; not meant to be run by hand.

The warm-up pass runs at the reference seed and is checked against the
reference outputs in full. Then passes at the requested seed are timed until
``--seconds`` have elapsed (at least one, and with --trace 1 at least one
untraced and one traced, alternating). Peak RSS is read after the warm-up,
so it is the peak of a fresh process that ran one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    import raqr
    src = (ROOT / "src").resolve()
    if Path(raqr.__file__).resolve().parent.parent != src:
        raise SystemExit(f"raqr imported from {raqr.__file__}, not from {src}")


def run_pass(workload, seed):
    """Run every operation once; returns ([seconds per operation],
    [(op, raw, error)])."""
    results, seconds = [], []
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            results.append((op, op.run(seed), None))
        except Exception as exc:  # counted, reported, and the pass goes on
            results.append((op, None, exc))
        seconds.append(time.perf_counter() - t0)
    return seconds, results


class Checker:
    """Applies every output check to a pass and tallies the operations."""

    def __init__(self, workload, reference):
        import checks
        self.checks = checks
        self.reference = reference
        self.tally = checks.Tally(workload.known_failures)
        self.first: dict[tuple, dict] = {}  # (seed, op) -> artifacts

    def check(self, seed, results):
        for op, raw, error in results:
            misses = []
            if error is None:
                try:
                    misses = self._misses(op, raw, seed)
                except Exception as exc:  # a check that cannot run is a miss
                    misses = [f"check raised {type(exc).__name__}: {exc}"]
            self.tally.record(op.name, error, misses)

    def _misses(self, op, raw, seed):
        arts = {f"{op.name}/{k}": v for k, v in op.collect(raw).items()}
        misses = self.checks.check_artifacts(op.name, arts, self.reference,
                                              seed)
        if op.cross_check is not None:
            misses += op.cross_check(raw)
        # the same seed must give the same output on every pass
        first = self.first.setdefault((seed, op.name), arts)
        if first is not arts:
            misses += self.checks.compare(arts, first, rtol=0.0, path=op.name)
        return misses


def thread_speedup(nproc: int) -> tuple[float, list[str]]:
    """monte_carlo_terms at M=100, K=10, 10k realizations: time on one
    thread over time on ``nproc`` threads, and the terms that differ between
    the two (the engine promises identical output at any thread count)."""
    import numpy as np
    from raqr import defaults, frontend, mimo
    if nproc < 2:
        return 1.0, []
    system, chain, op = (defaults.cesium_system(), defaults.default_chain(),
                         defaults.bcod_point())
    gains = frontend.baseband_gains(op, chain, system)
    budget = frontend.noise_budget(op, chain, system, gains=gains)
    sc = defaults.default_scenario(100, 10, n_realizations=10_000)
    times, terms = [], []
    for threads in (1, nproc):
        t0 = time.perf_counter()
        terms.append(mimo.monte_carlo_terms(sc, gains, budget, "MRC",
                                            threads=threads))
        times.append(time.perf_counter() - t0)
    misses = [f"term {key} differs at {nproc} threads" for key in terms[0]
              if not np.array_equal(terms[0][key], terms[1][key])]
    return times[0] / times[1], misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    _import_package()
    import numpy
    import scipy

    import checks
    import tracer
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.out)
    checker = Checker(workload, checks.load_reference(args.workload))

    _, results = run_pass(workload, checks.REF_SEED)
    checker.check(checks.REF_SEED, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()  # raises here if any binding escapes the wrappers
        trace.uninstall()
    plain, traced, op_s = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if trace is not None and len(traced) < len(plain):
            trace.install()
            try:
                seconds, results = run_pass(workload, args.seed)
            finally:
                trace.uninstall()
            traced.append(sum(seconds))
        else:
            seconds, results = run_pass(workload, args.seed)
            plain.append(sum(seconds))
            op_s.append(seconds)
        checker.check(args.seed, results)
        if time.perf_counter() >= deadline and (trace is None or traced):
            break

    nproc = len(os.sched_getaffinity(0))
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": plain,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "threads": workloads.THREADS,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if trace is not None:
        layer = tracer.layer_metrics(trace.functions, trace.layers,
                                     trace.spans, trace.notes, len(traced))
        layer["trace.overhead_frac"] = (statistics.median(traced)
                                        / statistics.median(plain) - 1.0)
        speedup, misses = thread_speedup(nproc)
        layer["mimo.mc.thread_speedup"] = speedup
        checker.tally.record("thread-determinism", None, misses)
        spans_path = args.out / "spans.json"
        trace.dump(spans_path)
        out.update(traced_pass_s=traced, layer=layer, spans=str(spans_path))
    out["tally"] = checker.tally.as_dict()
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
