"""Capture the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/capture_reference.py [workload ...]

Runs one pass of each workload at the reference seed and one at the next
seed. Artifacts that differ between the two are recorded as seed-dependent
(compared only at the reference seed); the rest are compared at every seed.
Run this only on a commit whose outputs are known to be right, and say in
the change that recaptures them why they moved.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import checks
import workloads


def artifacts(workload, seed) -> dict:
    out = {}
    for op in workload.ops:
        try:
            raw = op.run(seed)
        except Exception as exc:
            if workload.known_failures.get(op.name) != type(exc).__name__:
                raise
            continue
        out.update({f"{op.name}/{k}": v for k, v in op.collect(raw).items()})
    return out


def capture(name: str) -> None:
    out = Path(__file__).resolve().parent.parent / ".perfbench_out" / "capture"
    workload = workloads.build(name, out)
    ref = artifacts(workload, checks.REF_SEED)
    other = artifacts(workload, checks.REF_SEED + 1)
    shutil.rmtree(out)
    dependent = sorted(k for k in ref if other[k] != ref[k])
    checks.save_reference(name, {"seed": checks.REF_SEED, "artifacts": ref,
                                 "seed_dependent": dependent})
    print(f"{name}: {len(ref)} artifacts, {len(dependent)} seed-dependent")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.BUILDERS):
        capture(name)
