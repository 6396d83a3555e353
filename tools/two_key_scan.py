"""Set two config keys at once to random values and see whether validation
and the run agree.

Draws ``COUNT`` configs from ``random.Random(SEED)``. Each is a packaged
recipe config, the recipe drawn uniformly, with two distinct float keys of
the config schema set. Each value is one of 0, 1e-300 and 1e300 with
probability 0.3, and 10 ** U(-300, 300) otherwise. Each config is run at
``MIN_REALIZATIONS`` realizations and one thread into a temporary
directory, as ``tools/config_fuzz.py`` runs its single-key configs: an
outcome is ``ok``, ``rejected <key>`` (validation, the plan included,
failed naming that key) or the type name of the run failure's cause. The
script prints one line per config, ``<recipe> <key> <value> <key> <value>
<outcome>``, in draw order, then a tally of the outcomes and the sha256
over those lines. The package is imported from the ``src`` directory next
to this script, so running it from two checkouts and diffing the outputs
shows whether a change moved any outcome:

    python3 tools/two_key_scan.py > two_key_scan.txt

A config that validates and then fails its run is a bad input that
``raqr validate`` does not catch.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from config_fuzz import outcome  # noqa: E402
from raqr import config  # noqa: E402
from raqr.config import default_config_path  # noqa: E402
from raqr.mimo import MIN_REALIZATIONS  # noqa: E402
from raqr.recipes import list_recipes  # noqa: E402

SEED = 0
COUNT = 2000
EXTREMES = (0.0, 1e-300, 1e300)
FLOAT_KEYS = [(section, key) for section, schema in config._SECTIONS.items()
              for key, (kind, *_) in schema.items() if kind is float]


def draw(rng: random.Random) -> float:
    """An extreme with probability 0.3, else a log-uniform magnitude."""
    if rng.random() < 0.3:
        return rng.choice(EXTREMES)
    return 10.0 ** rng.uniform(-300.0, 300.0)


def outcomes(root: Path) -> list[tuple]:
    """(recipe, (dotted key, value), (dotted key, value), outcome) per
    drawn config, in draw order; the configs and runs go under ``root``,
    and warnings are ignored."""
    rng, recipes, found = random.Random(SEED), list_recipes(), []
    texts = {recipe: default_config_path(recipe).read_text(encoding="utf-8")
             for recipe in recipes}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(COUNT):
            recipe = rng.choice(recipes)
            settings = [(key, draw(rng)) for key in rng.sample(FLOAT_KEYS, 2)]
            raw = yaml.safe_load(texts[recipe])
            raw.setdefault("array", {})["realizations"] = MIN_REALIZATIONS
            for (section, key), value in settings:
                raw.setdefault(section, {})[key] = value
            path = root / "config.yaml"
            # a new file per config: rewriting one in place stalls on ext4
            path.unlink(missing_ok=True)
            path.write_text(yaml.safe_dump(raw), encoding="utf-8")
            found.append((recipe, *((f"{s}.{k}", v) for (s, k), v in settings),
                          outcome(path, root / "out")))
    return found


def main() -> int:
    lines, tally = [], Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for recipe, (key1, value1), (key2, value2), result in outcomes(Path(tmp)):
            tally[result.split()[0]] += 1
            lines.append(f"{recipe} {key1} {value1!r} {key2} {value2!r} {result}\n")
    print("".join(lines), end="")
    for kind, count in sorted(tally.items()):
        print(f"tally {kind} {count}")
    print(f"sha256 {hashlib.sha256(''.join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
