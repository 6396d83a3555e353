"""Set one config key at a time to an extreme and see whether validation
and the run agree.

For each packaged recipe config and each numeric key of the config schema
but ``array.realizations``, writes the config with that key set to each of
0, 1e-300 and 1e300 (a float key) or 0, 1 and 2 (an integer key): 7 recipes
times 32 keys times 3 values, 672 configs. Each one is loaded and run at
``MIN_REALIZATIONS`` realizations and one thread into a temporary
directory. ``run_recipe`` first checks the config and builds its plan, as
``raqr validate`` does; a config that fails there is ``rejected``. One that
passes is ``ok`` or the type name of the run failure's cause. The script
prints the per-config lines ``<recipe> <key> <value> <outcome>`` in grid
order, then a tally of the outcomes and the sha256 over those lines. The
package is imported from the ``src`` directory next to this script, so
running the script from two checkouts and diffing the outputs shows
whether a change moved any outcome:

    python3 tools/config_fuzz.py > config_fuzz.txt

A config where validation passes and the run fails is a bad input that
``raqr validate`` does not yet catch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from raqr import config  # noqa: E402
from raqr.config import ValidationError, default_config_path, load_config  # noqa: E402
from raqr.mimo import MIN_REALIZATIONS  # noqa: E402
from raqr.recipes import RecipeError, list_recipes, run_recipe  # noqa: E402

EXTREMES = {float: (0.0, 1e-300, 1e300), int: (0, 1, 2)}


def grid():
    """(section, key, value) per fuzzed setting, in schema order; every run
    holds the realization count at its least, so that key is not fuzzed."""
    for section, schema in config._SECTIONS.items():
        for key, (kind, *_) in schema.items():
            if kind in EXTREMES and (section, key) != ("array", "realizations"):
                for value in EXTREMES[kind]:
                    yield section, key, value


def outcome(path: Path, out_dir: Path) -> str:
    try:
        cfg = load_config(path)
        run_recipe(dataclasses.replace(cfg, output_dir=str(out_dir)))
    except ValidationError:
        return "rejected"
    except RecipeError as exc:
        return type(exc.__cause__).__name__
    except Exception as exc:
        return type(exc).__name__
    return "ok"


def main() -> int:
    lines, tally = [], Counter()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = Path(tmp)
        for recipe in list_recipes():
            text = default_config_path(recipe).read_text(encoding="utf-8")
            for section, key, value in grid():
                raw = yaml.safe_load(text)
                raw.setdefault("array", {})["realizations"] = MIN_REALIZATIONS
                raw.setdefault(section, {})[key] = value
                path = root / "config.yaml"
                # a new file per config: rewriting one in place stalls on ext4
                path.unlink(missing_ok=True)
                path.write_text(yaml.safe_dump(raw), encoding="utf-8")
                result = outcome(path, root / "out")
                tally[result] += 1
                lines.append(f"{recipe} {section}.{key} {value!r} {result}\n")
    print("".join(lines), end="")
    for kind, count in sorted(tally.items()):
        print(f"tally {kind} {count}")
    print(f"sha256 {hashlib.sha256(''.join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
