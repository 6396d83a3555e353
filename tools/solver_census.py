"""Run ``steady_state_numeric`` over a grid of drives, one drive at a time.

The grid takes each Rabi rate (probe, coupling, RF) from {0, 1, 1e3, 1e6,
2e6, 1e7, 1e9} rad/s and each detuning (probe, coupling, RF) from {0, 1e6,
-1e6, 2e6} rad/s: 7**3 * 4**3 = 21,952 drives, solved on the default cesium
system (no transit or Rydberg relaxation, so much of the grid has no unique
steady state). Each drive's outcome is ``returned`` or the name of the
exception it raised. The script prints one line per drive in
grid order, ``<omega_p> <omega_c> <omega_rf> <delta_p> <delta_c> <delta_rf>
<outcome>``. Two lines follow on how the solves went: ``fallback <n>``, the
number of drives the LU solve could not vouch for, those whose residual
failed or whose block held an exactly singular member, which the SVD
diagnostic decided (5,824, all from singular blocks), and
``max_cond_returned <c>``, the largest 1-norm condition number of the
trace-replaced real system among returned drives.
Then come a tally of the outcomes and the sha256 over the outcome names
alone, one per line. The package is imported from the ``src`` directory next to this
script, so running the script from two checkouts and diffing the outputs
shows whether a change moved any solver outcome:

    python3 tools/solver_census.py > solver_census.txt
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from raqr import atomic, defaults  # noqa: E402
from raqr.atomic import DriveConfig, steady_state_numeric  # noqa: E402

RABI = (0.0, 1.0, 1e3, 1e6, 2e6, 1e7, 1e9)  # rad/s
DETUNING = (0.0, 1e6, -1e6, 2e6)  # rad/s


def outcome(system, drive: DriveConfig) -> str:
    try:
        steady_state_numeric(system, drive)
    except Exception as exc:
        return type(exc).__name__
    return "returned"


def condition(system, drive: DriveConfig) -> float:
    """1-norm condition number of the drive's real system with its first row
    replaced by the trace row scaled to ||R||_F, as the solver builds it."""
    gen = atomic._real_liouvillian(system, atomic._hamiltonian(vars(drive)))
    a = gen.copy()
    a[0] = atomic._TRACE_X * atomic._norm(gen.reshape(256))
    return float(np.linalg.cond(a, 1))


def main() -> int:
    system = defaults.cesium_system()
    fallback, reached = atomic._fallback, []

    def count(gen, *args):
        reached.append(len(gen))
        return fallback(gen, *args)

    atomic._fallback = count
    names, worst = [], 0.0
    for wp, wc, wr, dp, dc, dr in itertools.product(RABI, RABI, RABI,
                                                    DETUNING, DETUNING, DETUNING):
        drive = DriveConfig(omega_p=wp, omega_c=wc, omega_rf=wr,
                            delta_p=dp, delta_c=dc, delta_rf=dr)
        names.append(outcome(system, drive))
        if names[-1] == "returned":
            worst = max(worst, condition(system, drive))
        print(wp, wc, wr, dp, dc, dr, names[-1])
    print(f"fallback {sum(reached)}")
    print(f"max_cond_returned {worst:.3e}")
    for kind, count in sorted(Counter(names).items()):
        print(f"tally {kind} {count}")
    digest = hashlib.sha256("".join(f"{n}\n" for n in names).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
