"""Run ``steady_state_numeric`` over a grid of drives, one drive at a time.

The grid takes each Rabi rate (probe, coupling, RF) from {0, 1, 1e3, 1e6,
2e6, 1e7, 1e9} rad/s and each detuning (probe, coupling, RF) from {0, 1e6,
-1e6, 2e6} rad/s: 7**3 * 4**3 = 21,952 drives, solved on the default cesium
system (no transit, Rydberg or collisional relaxation, so much of the grid
has no unique steady state). Each drive's outcome is ``returned`` or the
name of the exception it raised. The script prints a tally of the outcomes
and the sha256 over the per-drive outcome names, one per line in grid
order. The package is imported from the ``src`` directory next to this
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

from raqr import defaults  # noqa: E402
from raqr.atomic import DriveConfig, steady_state_numeric  # noqa: E402

RABI = (0.0, 1.0, 1e3, 1e6, 2e6, 1e7, 1e9)  # rad/s
DETUNING = (0.0, 1e6, -1e6, 2e6)  # rad/s


def outcome(system, drive: DriveConfig) -> str:
    try:
        steady_state_numeric(system, drive)
    except Exception as exc:
        return type(exc).__name__
    return "returned"


def main() -> int:
    system = defaults.cesium_system()
    names = [
        outcome(system, DriveConfig(omega_p=wp, omega_c=wc, omega_rf=wr,
                                    delta_p=dp, delta_c=dc, delta_rf=dr))
        for wp, wc, wr, dp, dc, dr in itertools.product(RABI, RABI, RABI,
                                                        DETUNING, DETUNING, DETUNING)
    ]
    for kind, count in sorted(Counter(names).items()):
        print(f"tally {kind} {count}")
    digest = hashlib.sha256("".join(f"{n}\n" for n in names).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
