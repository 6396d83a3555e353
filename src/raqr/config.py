"""Experiment configuration: unit-suffixed YAML merged onto shipped defaults.

Every physical key carries its unit in its name (``lo_power_w``,
``carrier_freq_ghz``); conversion to SI happens once, at load time. A user
file only needs the keys it changes: each section is block-merged onto the
packaged ``configs/default.yaml``. Unknown keys are rejected by name so a
typo cannot silently fall back to a default.

The fingerprint is a 64-bit blake2b of the canonical (sorted, merged,
pre-conversion) key set, excluding ``output_dir`` so relocating artifacts
does not change their contents.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .atomic import AtomicSystem
from .constants import elementary_charge, hbar, speed_of_light
from .frontend import DetectionChain, OperatingPoint, beam_coefficient
from .mimo import MIN_REALIZATIONS

_CONFIG_DIR = Path(__file__).with_name("configs")

# most points a sweep may ask for: ten times the largest sweep in use, and
# checked before any sweep array is built
MAX_SWEEP_POINTS = 10_000
# Largest arrays a config may ask for, checked before a run allocates. A
# Monte-Carlo worker holds about 4.9 kB per sensor-user pair (a 256-draw
# complex channel plus one 32-draw sub-batch), 1.3 GB at both limits; the
# sensor limit is twice the 4,096 that power-scaling sweeps to and binds both
# ends of a sensor sweep. The engine runs realizations in 256-draw chunks.
MAX_SENSORS = 8_192
MAX_USERS = 32
MAX_REALIZATIONS = 1_000_000

# one atomic unit of dipole moment e a0, C*m: a literal, e times the CODATA 2018
# Bohr radius to ten digits (6.1e-10 relative above CODATA 2022's 8.4783536198e-30)
E_A0 = 8.478353625e-30


def n_atoms(n0: float, fwhm_p: float, l_cell: float) -> float:
    """Atoms in the probe-illuminated column of the cell; inf past the float range."""
    try:
        return n0 * math.pi * (fwhm_p / 2.0) ** 2 * l_cell
    except OverflowError:  # float ** raises where * gives inf; AtomicSystem rejects inf
        return math.inf


def responsivity(eta: float, lambda_p: float) -> float:
    """Photodetector responsivity eta q / (h f) in A/W."""
    f_probe = speed_of_light / lambda_p
    return eta * elementary_charge / (2.0 * math.pi * hbar * f_probe)


class ParseError(Exception):
    """Malformed config text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """Well-formed text with an invalid key; ``key`` is the dotted path, or
    the derived quantity at fault where no one key is."""

    def __init__(self, key: str, message: str = "invalid value"):
        self.key = key
        super().__init__(f"{key}: {message}")


# Per-section scalar schema, the one map from a key to its model field:
# key -> (expected type, SI power-of-ten exponent, then the model fields set
# from the key; the first takes its value, and failed checks name the key).
# An exponent of None means the value passes through untouched
# (dimensionless, strings, counts). Floats accept ints; bools are never
# numbers. A negative exponent divides by the exact power of ten, so a
# written decimal lands on the double nearest its SI value.

_ATOMIC = {
    "probe_dipole_ea0": (float, None, "mu12"),
    "dressing_dipole_cm": (float, None, "mu23"),
    "rf_dipole_ea0": (float, None, "mu34"),
    "probe_linewidth_mhz": (float, None, "gamma2"),
    "density_per_m3": (float, None, "n0"),
    "cell_length_mm": (float, -3, "l_cell"),
    "probe_wavelength_nm": (float, -9, "lambda_p"),
    "dephasing_time_us": (float, -6, "t2"),
}

_OPERATING_POINT = {
    "scheme": (str, None),
    "probe_power_w": (float, None, "p0"),
    "coupling_power_w": (float, None, "pc"),
    "lo_power_w": (float, None, "p_lo"),
    "local_beam_power_w": (float, None, "pl"),
    "carrier_freq_ghz": (float, 9),
    "beat_freq_khz": (float, 3),
    # the atom count fails on the probe width: density and cell length come first
    "probe_fwhm_mm": (float, -3, "fwhm_p", "n_atoms"),
    "coupling_fwhm_mm": (float, -3, "fwhm_c"),
    "effective_area_cm2": (float, -4, "a_e"),
}

_DETECTION = {
    "gain": (float, None, "g"),
    "quantum_efficiency": (float, None),
    "impedance_ohm": (float, None, "z0"),
    "bandwidth_khz": (float, 3, "bw"),
    "temperature_k": (float, None, "temperature"),
    "saturation_current_ma": (float, -3, "i_sat"),
}

_ARRAY = {
    "n_sensors": (int, None),
    "n_users": (int, None),
    "realizations": (int, None),
    "region_center_m": (float, None),
    "region_radius_m": (float, None),
    "transmit_power": (float, None),
}

_BASELINE = {
    "rf_noise_w": (float, None),
}

_SWEEP = {
    "variable": (str, None),
    "start": (float, None),
    "stop": (float, None),
    "points": (int, None),
    "scale": (str, None),
}

_SECTIONS = {
    "atomic": _ATOMIC,
    "operating_point": _OPERATING_POINT,
    "detection": _DETECTION,
    "array": _ARRAY,
    "baseline": _BASELINE,
    "sweep": _SWEEP,
}

# model field -> the dotted key that sets it, for the model's ValueErrors
_FIELD_KEYS = {field: f"{name}.{key}" for name, schema in _SECTIONS.items()
               for key, (_, _, *fields) in schema.items() for field in fields}

_TOP_SCALARS = {
    "recipe": (str, None),
    "seed": (int, None),
    "output_dir": (str, None),
}

SWEEP_VARIABLES = (
    "lo_power_w",
    "probe_power_w",
    "coupling_power_w",
    "n_sensors",
    "ratio_db",
    "detuning_khz",
)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    scale: str

    def values(self) -> np.ndarray:
        if self.points == 0:
            return np.empty(0)
        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    system: AtomicSystem
    op: OperatingPoint
    chain: DetectionChain
    f_carrier: float
    f_delta: float
    n_sensors: int
    n_users: int
    realizations: int
    region_center_m: float
    region_radius_m: float
    transmit_power: float
    rf_noise_w: float
    sweep: SweepSpec
    recipe: str | None
    seed: int
    output_dir: str
    raw: dict = field(compare=False, repr=False)


# libyaml's scanner and parser where PyYAML was built with them; both loaders
# share the Python resolver, so YAML 1.1's "2.0e17 is a string" still holds
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _parse_yaml(text: str, source: str) -> dict:
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        if mark is None:
            raise ParseError(str(exc)) from exc
        raise ParseError(
            exc.problem or str(exc), mark.line + 1, mark.column + 1
        ) from exc
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be a mapping")
    return doc


# the packaged defaults, parsed once; _merge copies each section it merges into
_DEFAULT_PATH = _CONFIG_DIR / "default.yaml"
_DEFAULTS = _parse_yaml(_DEFAULT_PATH.read_text(encoding="utf-8"), str(_DEFAULT_PATH))


def _merge(base: dict, overlay: dict) -> dict:
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for key, value in overlay.items():
        if key in _SECTIONS:
            if value is None:
                raise ValidationError(key, "section must be a mapping, not null")
            if not isinstance(value, dict):
                raise ValidationError(key, "section must be a mapping")
            merged.setdefault(key, {}).update(value)
        else:
            merged[key] = value
    return merged


def _check_value(dotted: str, value, kind, exp):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(dotted, f"expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(dotted, f"expected a finite number, got {value!r}")
        if exp is None:
            return value
        return value * 10.0**exp if exp >= 0 else value / 10.0**-exp
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(dotted, f"expected an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ValidationError(dotted, f"expected a string, got {value!r}")
    return value


def _validate_raw(raw: dict) -> dict:
    """One pass over the merged keys: reject unknown ones, treat null as
    absent and convert to SI. Returns each section's values under their model
    field names (under the key where the schema lists none), and the top-level
    scalars under their keys. Every section key is required but the local
    beam power, which the direct scheme leaves out."""
    si: dict = {}
    for key, value in raw.items():
        if key in _TOP_SCALARS:
            if key != "recipe" or value is not None:
                si[key] = _check_value(key, value, *_TOP_SCALARS[key])
            continue
        if key not in _SECTIONS:
            raise ValidationError(key, "unknown key")
        schema = _SECTIONS[key]
        unknown = next((sub for sub in value if sub not in schema), None)
        if unknown is not None:
            raise ValidationError(f"{key}.{unknown}", "unknown key")
        out = si[key] = {}
        for sub, (kind, exp, *fields) in schema.items():
            dotted = f"{key}.{sub}"
            # an explicit null counts as absent
            if value.get(sub) is not None:
                out[fields[0] if fields else sub] = _check_value(
                    dotted, value[sub], kind, exp)
            elif sub != "local_beam_power_w":
                raise ValidationError(dotted, "required key missing")
    for name in _SECTIONS:
        if name not in si:
            raise ValidationError(name, "required section missing")
    return si


def _construct(cls, section: str, **fields):
    """``cls(**fields)``; a ValueError from its checks becomes a
    ValidationError under the offending key (else under the section)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        key = _FIELD_KEYS.get(str(exc).split()[0], section)
        raise ValidationError(key, str(exc)) from exc


def _beam_coefficient(mu: float, fwhm: float) -> float:
    """``frontend.beam_coefficient``, nan where it raises."""
    try:
        return beam_coefficient(mu, fwhm)
    except ArithmeticError:
        return math.nan


def _build(si: dict, raw: dict) -> ExperimentConfig:
    atomic, opv, det, arr, baseline, sw = (si[name] for name in _SECTIONS)

    if atomic["n0"] <= 0:
        raise ValidationError("atomic.density_per_m3", "must be > 0")
    # dipoles come in atomic units, the linewidth in MHz over 2 pi
    atomic["mu12"] *= E_A0
    atomic["mu34"] *= E_A0
    atomic["gamma2"] = 2.0 * math.pi * atomic["gamma2"] * 1e6

    scheme = opv["scheme"] = opv["scheme"].upper()
    if scheme not in ("DIOD", "BCOD"):
        raise ValidationError(
            "operating_point.scheme", f"must be 'diod' or 'bcod', got {scheme!r}"
        )
    f_carrier = opv.pop("carrier_freq_ghz")
    f_delta = opv.pop("beat_freq_khz")
    if not 0.0 < f_delta < f_carrier:
        raise ValidationError("operating_point.beat_freq_khz",
                              "must sit between zero and the carrier")

    system = _construct(
        AtomicSystem, "atomic", **atomic,
        # atom count illuminated by the probe column, derived not configured
        n_atoms=n_atoms(atomic["n0"], opv["fwhm_p"], atomic["l_cell"]),
    )
    op = _construct(OperatingPoint, "operating_point", **opv)
    # a width whose square under- or overflows leaves its beam no finite,
    # nonzero Rabi coefficient; it is the width's fault only where a 1 mm
    # beam on the same dipole has one
    for key, mu, fwhm in (("probe_fwhm_mm", system.mu12, op.fwhm_p),
                          ("coupling_fwhm_mm", system.mu23, op.fwhm_c)):
        a = _beam_coefficient(mu, fwhm)
        if not 0.0 < a < math.inf and 0.0 < _beam_coefficient(mu, 1e-3) < math.inf:
            raise ValidationError(f"operating_point.{key}",
                                  f"leaves a Rabi coefficient of {a:g}")

    eta = det.pop("quantum_efficiency")
    if not 0.0 < eta <= 1.0:
        raise ValidationError("detection.quantum_efficiency", "must be in (0, 1]")
    chain = _construct(DetectionChain, "detection", **det,
                       alpha=responsivity(eta, atomic["lambda_p"]))

    for key, most in (("n_sensors", MAX_SENSORS), ("n_users", MAX_USERS)):
        if not 1 <= arr[key] <= most:
            raise ValidationError(f"array.{key}", f"must be >= 1 and <= {most}")
    if not MIN_REALIZATIONS <= arr["realizations"] <= MAX_REALIZATIONS:
        raise ValidationError("array.realizations", f"must be >= {MIN_REALIZATIONS} "
                              f"and <= {MAX_REALIZATIONS}")
    if arr["region_center_m"] <= 0:
        raise ValidationError("array.region_center_m", "must be > 0")
    if not 0 <= arr["region_radius_m"] < arr["region_center_m"]:
        raise ValidationError("array.region_radius_m",
                              "must be >= 0 and inside the center distance")
    if arr["transmit_power"] < 0:
        raise ValidationError("array.transmit_power", "must be >= 0")

    if baseline["rf_noise_w"] <= 0:
        raise ValidationError("baseline.rf_noise_w", "must be > 0")

    if sw["variable"] not in SWEEP_VARIABLES:
        raise ValidationError(
            "sweep.variable", f"must be one of {', '.join(SWEEP_VARIABLES)}"
        )
    if sw["scale"] not in ("linear", "log"):
        raise ValidationError("sweep.scale", "must be 'linear' or 'log'")
    if not 0 <= sw["points"] <= MAX_SWEEP_POINTS:
        raise ValidationError("sweep.points", f"must be >= 0 and <= {MAX_SWEEP_POINTS}")
    if sw["scale"] == "log" and (sw["start"] <= 0 or sw["stop"] <= 0):
        key = "sweep.start" if sw["start"] <= 0 else "sweep.stop"
        raise ValidationError(key, "log sweeps need positive bounds")

    # Philox keys [seed, chunk] pass through float64 from 2**63 on, where
    # neighbouring seeds would share a stream
    seed = si.get("seed", 0)
    if not 0 <= seed < 2**63:
        raise ValidationError("seed", "must be >= 0 and < 2**63")

    return ExperimentConfig(
        system=system, op=op, chain=chain, f_carrier=f_carrier,
        f_delta=f_delta, **arr, **baseline, sweep=SweepSpec(**sw),
        recipe=si.get("recipe"), seed=seed,
        output_dir=si.get("output_dir", "out"), raw=raw,
    )


def load_config(path, *, recipe: str | None = None,
                seed: int | None = None) -> ExperimentConfig:
    """Parse, merge onto the shipped defaults, validate, convert to SI. The
    config is not judged against its recipe here: ``recipes.check_recipe``
    does that.

    ``recipe`` and ``seed`` are CLI-level overrides applied after the merge
    (they participate in the fingerprint like any other key).
    """
    path = Path(path)
    user = _parse_yaml(path.read_text(encoding="utf-8"), str(path))
    return _from_raw(user, recipe=recipe, seed=seed)


def _from_raw(user: dict, *, recipe: str | None = None,
              seed: int | None = None) -> ExperimentConfig:
    merged = _merge(_DEFAULTS, user)
    if recipe is not None:
        merged["recipe"] = recipe
    if seed is not None:
        merged["seed"] = seed
    si = _validate_raw(merged)
    return _build(si, merged)


def default_config_path(recipe: str | None = None) -> Path:
    """Packaged config for a recipe, falling back to the shared default."""
    if recipe is not None:
        candidate = _CONFIG_DIR / f"{recipe}.yaml"
        if candidate.exists():
            return candidate
    return _DEFAULT_PATH


def fingerprint(config: ExperimentConfig) -> str:
    """16 hex characters identifying everything that can change the science."""
    payload = {k: v for k, v in config.raw.items() if k != "output_dir"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=8).hexdigest()
