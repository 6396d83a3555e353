"""Benchmark for raqr: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload mc-rate-sweep --seed 3 --seconds 20 --trace 0

Run from anywhere; the package is imported from the ``src`` directory next
to this one. Each workload runs in fresh child processes at threads=1 (the
CLI default): cold-start probes for ``setup_s``, before and after one
worker that does a warm-up pass at the reference seed, checked in full
against the reference outputs, then timed passes at ``--seed`` for
``--seconds``.

With ``--trace 0`` the last line of output is a JSON object carrying
``wall_s`` (each operation's fastest time over the timed passes, summed),
``setup_s`` (the fastest cold start) and ``peak_rss_mb``; with ``--trace 1``
it carries the per-layer metrics of a run whose passes alternate between
untraced and traced. The lines before it give each metric with its unit and
sample count, the median pass time, the error rate, every failure, and the
versions, commit and seed.
Everything a run writes goes to ``.perfbench_out/`` at the repository root,
including the spans of a traced run. The benchmark's own tests run with
``python3 -m pytest perfbench/tests``; ``capture_reference.py`` rewrites the
reference outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170.0  # per workload, probes and worker together
SETUP_SAMPLES = 4  # cold starts per run, half before the worker, half after

# workload -> config its cold-start probe loads
SETUP_CONFIG = {
    "mc-rate-sweep": SRC / "raqr/configs/rate-vs-parameter.yaml",
    "atomic-response": BENCH_DIR / "configs/detuning-loss.yaml",
    "siso-design": SRC / "raqr/configs/waveform-overlay.yaml",
}

LABELS = {
    "mimo.mc.normals_drawn": "computed from the call sizes, not counted",
    "mimo.mc.thread_speedup": "M=100, K=10, 10k realizations, 1 vs nproc threads",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_start(config: Path, timeout: float) -> tuple[float, float, float]:
    """(seconds from process start to ready, import s, load_config ms).

    CLOCK_MONOTONIC is one clock for every process on the machine, so the
    probe's reading at ready minus ours before the spawn is its cold start.
    """
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(config)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError("cold-start probe timed out") from exc
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 5 or fields[0] != "ready":
        raise BenchError(f"cold-start probe failed: {proc.stderr.strip()[-2000:]}")
    if Path(fields[4]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"probe imported raqr from {fields[4]}, not {SRC}")
    return float(fields[1]) - t0, float(fields[2]), float(fields[3])


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               timeout: float) -> dict:
    out = OUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    result = out / "worker-result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} worker timed out") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, their order and why each was chosen,
    and the names and units of the metrics printed."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def measure(workload: str, seed: int, seconds: float, trace: int,
            units: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S

    def probe():
        return cold_start(SETUP_CONFIG[workload], deadline - time.monotonic())

    probes = [probe() for _ in range(SETUP_SAMPLES // 2)]
    res = run_worker(workload, seed, seconds, trace,
                     deadline - time.monotonic())
    probes += [probe() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    res["setup_s"] = [p[0] for p in probes]
    if trace:
        metrics = dict(res["layer"])
        metrics["setup.import_s"] = min(p[1] for p in probes)
        metrics["config.load_config_ms"] = min(p[2] for p in probes)
        res["metrics"] = {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}
        res["samples"] = {"traced passes": len(res["traced_pass_s"]),
                          "untraced passes": len(res["pass_s"])}
    else:
        # The host alternates between fast and slow phases lasting from
        # under a second to tens of seconds, and the share of a run spent
        # slow changes from run to run. A median tracks that share; the
        # fastest sample tracks the cost of the code, so both timings take
        # it: wall_s per operation, then summed over the pass.
        values = {"wall_s": sum(min(op) for op in zip(*res["op_s"])),
                  "setup_s": min(res["setup_s"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        res["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}
        res["samples"] = {"wall_s": len(res["pass_s"]),
                          "setup_s": len(res["setup_s"]), "peak_rss_mb": 1}
    return res


def report(res: dict, trace: int) -> None:
    tally = res["tally"]
    print(f"== {res['workload']}  seed={res['seed']} trace={trace} "
          f"threads={res['threads']} nproc={res['nproc']} "
          f"python={res['python']} numpy={res['numpy']} scipy={res['scipy']} "
          f"commit={res['commit']}")
    print(f"   why: {res['why']}")
    for name, m in res["metrics"].items():
        n = res["samples"].get(name)
        note = f"n={n}" if n is not None else LABELS.get(name)
        note = f"  ({note})" if note else ""
        print(f"   {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if trace:
        print("   samples: " + ", ".join(f"{k}={v}" for k, v in res["samples"].items()))
    else:
        print(f"   {'pass median (not a metric)':40s} "
              f"{statistics.median(res['pass_s']):.6g} s")
    rate = tally["failed"] / tally["attempted"]
    print(f"   {'error_rate':40s} {rate:.6g}  "
          f"({tally['failed']} failed of {tally['attempted']} attempted)")
    for reason, count in tally["reasons"].items():
        print(f"   failed x{count}: {reason[:300]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "raqr" / "__init__.py").is_file():
        print(f"error: no raqr package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in ["all", *whys]:
        ap.error(f"--workload must be 'all' or one of {', '.join(whys)}")
    names = list(whys) if args.workload == "all" else [args.workload]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    commit = git_commit()
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace, units)
            res.update(commit=commit, why=whys[name])
            (OUT_DIR / name / f"run-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(res, indent=1), encoding="utf-8")
            report(res, args.trace)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["tally"]["correct"] for r in results),
        "attempted": sum(r["tally"]["attempted"] for r in results),
        "failed": sum(r["tally"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
