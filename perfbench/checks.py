"""Output checks: flatten each operation's outputs into named artifacts and
compare them with reference artifacts captured from a known-good commit.

An artifact is a JSON-ready value (number, string, bool, None, or a list or
dict of those). Numbers match when they agree to ``RTOL`` relative; the
recipes print 12 significant figures, so 1e-9 lets the 12th digit move and
nothing larger.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

RTOL = 1e-9
REF_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(got, want, rtol: float = RTOL, path: str = "") -> list[str]:
    """Differences between two artifacts, as readable lines; empty when
    they match. Bools and ints are compared exactly, floats to ``rtol``."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{path}: {got} != {want}"]
        if _close(float(got), float(want), rtol):
            return []
        return [f"{path}: {got!r} != {want!r} (rtol {rtol:g})"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in sorted(want):
            out.extend(compare(got[key], want[key], rtol, f"{path}.{key}"))
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(compare(g, w, rtol, f"{path}[{i}]"))
            if len(out) > 5:  # one broken column would repeat on every row
                return out
        return out
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _token(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_rows(text: str) -> list[list]:
    """CSV body as rows of floats and strings, without the fingerprint line
    (the fingerprint hashes the seed)."""
    return [[_token(t) for t in line.split(",")]
            for line in text.splitlines() if not line.startswith("#")]


def recipe_artifacts(out_dir: Path, recipe: str) -> dict:
    """Artifacts of one recipe run: the CSV rows, and each top-level key of
    the summary and the manifest apart from the fingerprint and seed."""
    out = {}
    csv = out_dir / f"{recipe}.csv"
    if csv.exists():
        out["csv"] = csv_rows(csv.read_text(encoding="utf-8"))
    for kind in ("summary", "manifest"):
        doc = json.loads((out_dir / f"{recipe}_{kind}.json").read_text())
        for key, value in doc.items():
            if key not in ("fingerprint", "seed"):
                out[f"{kind}.{key}"] = value
    return out


def to_jsonable(value):
    """Plain JSON value from numpy scalars, complex numbers and tuples."""
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (bool, str, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return to_jsonable(value.item())
    return float(value)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """{"seed": int, "artifacts": {name: value}, "seed_dependent": [name]}"""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, ref: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    text = json.dumps(ref, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical across captures of equal data
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))


def check_artifacts(op: str, artifacts: dict, reference: dict,
                    seed: int) -> list[str]:
    """Reference misses for the artifacts of operation ``op`` at ``seed``.

    Every artifact must exist in the reference, and every reference artifact
    of ``op`` (named ``op/...``) must be produced. At the reference seed all of
    them must match. At another seed the seed-independent ones must still
    match, and a seed-dependent one must differ: equal output at another
    seed means the seed never reached the computation.
    """
    want_all = reference["artifacts"]
    dependent = set(reference["seed_dependent"])
    misses = []
    for name, got in artifacts.items():
        if name not in want_all:
            misses.append(f"{name}: not in the reference")
        elif seed == reference["seed"] or name not in dependent:
            misses.extend(compare(got, want_all[name], path=name))
        elif got == want_all[name]:
            misses.append(f"{name}: identical to the seed-{reference['seed']} "
                          f"reference at seed {seed}")
    misses.extend(f"{name}: in the reference, missing from the run"
                  for name in sorted(want_all)
                  if name.startswith(f"{op}/") and name not in artifacts)
    return misses


class Tally:
    """Attempted and failed operation counts, with the reasons.

    An operation fails when it raises or when one of its output checks
    misses. ``known`` maps operation names to the exception type they are
    recorded as raising at the reference commit: such a failure is still
    counted, but does not make the run incorrect.
    """

    def __init__(self, known: dict[str, str] | None = None):
        self.known = dict(known or {})
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict[str, int] = {}

    def record(self, op: str, error: BaseException | None,
               misses: list[str]) -> None:
        self.attempted += 1
        if error is None and not misses:
            return
        self.failed += 1
        if error is not None:
            kind = type(error).__name__
            reason = f"{op}: raised {kind}: {error}"
            if self.known.get(op) != kind:
                self.unexpected += 1
        else:
            reason = f"{op}: " + "; ".join(misses[:3])
            self.unexpected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def correct(self) -> bool:
        return self.unexpected == 0

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "correct": self.correct, "reasons": self.reasons}
