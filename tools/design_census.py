"""Run ``design_report`` over a seeded census of operating points.

Draws 1,500 operating points log-uniform with ``numpy.random.default_rng(1)``
over p0 in [1e-6, 1e-1] W, pc in [1e-5, 0.32] W, p_lo in [1e-9, 1e-3] W and
pl in [1e-6, 1e-1] W (one row of four per point, pl used by the balanced
scheme only), alternating the direct and the balanced scheme, and calls
``design_report`` at each with the default chain, system and p0 bracket. It
prints one line per call, ``<index> <scheme> <outcome>``, where the outcome
is the repr of the returned report or ``<ExceptionType>: <message>``, then a
tally of the outcomes by type. The package is imported from the ``src``
directory next to this script, so running the script from two checkouts and
diffing the outputs shows whether a change moved any design result:

    python3 tools/design_census.py > census.txt
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from raqr import defaults  # noqa: E402
from raqr.optimize import design_report  # noqa: E402

POINTS = 1500
# decades of (p0, pc, p_lo, pl), W
LOW = np.log10([1e-6, 1e-5, 1e-9, 1e-6])
HIGH = np.log10([1e-1, 0.32, 1e-3, 1e-1])


def main() -> int:
    system, chain = defaults.cesium_system(), defaults.default_chain()
    draws = 10.0 ** np.random.default_rng(1).uniform(LOW, HIGH, size=(POINTS, 4))
    tally: Counter = Counter()
    for i, (p0, pc, p_lo, pl) in enumerate(draws.tolist()):
        scheme = "DIOD" if i % 2 == 0 else "BCOD"
        op = defaults.default_point(scheme, p0=p0, pc=pc, p_lo=p_lo,
                                    pl=pl if scheme == "BCOD" else 0.0)
        try:
            outcome = repr(design_report(op, chain, system))
            kind = "report"
        except Exception as exc:
            kind = type(exc).__name__
            outcome = f"{kind}: {exc}"
        tally[kind] += 1
        print(f"{i} {scheme} {outcome}")
    for kind, count in sorted(tally.items()):
        print(f"tally {kind} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
