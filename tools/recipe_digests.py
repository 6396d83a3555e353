"""Print the sha256 of every artifact the packaged recipes write.

Runs each packaged recipe with its packaged config at one and at four worker
threads into a temporary directory and prints one line per artifact,
``<sha256>  threads-<n>/<recipe>/<file>``, sorted by path. The package is
imported from the ``src`` directory next to this script, so running the
script from two checkouts and diffing the outputs shows whether a change
moved any artifact byte:

    python3 tools/recipe_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from raqr import cli  # noqa: E402
from raqr.recipes import list_recipes  # noqa: E402

THREADS = (1, 4)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for threads in THREADS:
            for recipe in list_recipes():
                out = root / f"threads-{threads}" / recipe
                with redirect_stdout(io.StringIO()):
                    code = cli.main(["run", recipe, "--out", str(out),
                                     "--threads", str(threads)])
                if code != 0:
                    print(f"recipe {recipe} at {threads} threads exited {code}",
                          file=sys.stderr)
                    return code
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
