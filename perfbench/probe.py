"""Cold-start probe: import raqr.recipes and load one config, then print
"ready <CLOCK_MONOTONIC at ready> <import s> <load_config ms> <recipes path>".

run.py subtracts its own CLOCK_MONOTONIC reading taken before the spawn.
The probe imports nothing else before the package, so the reading marks the
end of the set-up a ``raqr`` command pays before its first computation.
"""

import sys
import time

t0 = time.perf_counter()
import raqr.recipes  # noqa: E402
t1 = time.perf_counter()
from raqr.config import load_config  # noqa: E402

load_config(sys.argv[1])
t2 = time.perf_counter()
ready = time.clock_gettime(time.CLOCK_MONOTONIC)
print(f"ready {ready!r} {t1 - t0!r} {(t2 - t1) * 1e3!r} {raqr.recipes.__file__}")
