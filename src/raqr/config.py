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
from .defaults import E_A0, n_atoms, responsivity
from .frontend import DetectionChain, OperatingPoint

_CONFIG_DIR = Path(__file__).with_name("configs")


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
    """Well-formed text with an invalid key; ``key`` is the dotted path."""

    def __init__(self, key: str, message: str = "invalid value"):
        self.key = key
        super().__init__(f"{key}: {message}")


# Per-section scalar schema: key -> (expected type, SI scale factor).
# A scale of None means the value passes through untouched (dimensionless,
# strings, counts). Floats accept ints; bools are never numbers.

_ATOMIC = {
    "probe_dipole_ea0": (float, None),
    "dressing_dipole_cm": (float, None),
    "rf_dipole_ea0": (float, None),
    "probe_linewidth_mhz": (float, None),
    "density_per_m3": (float, None),
    "cell_length_mm": (float, 1e-3),
    "probe_wavelength_nm": (float, 1e-9),
    "dephasing_time_us": (float, 1e-6),
}

_OPERATING_POINT = {
    "scheme": (str, None),
    "probe_power_w": (float, None),
    "coupling_power_w": (float, None),
    "lo_power_w": (float, None),
    "local_beam_power_w": (float, None),
    "carrier_freq_ghz": (float, 1e9),
    "beat_freq_khz": (float, 1e3),
    "probe_fwhm_mm": (float, 1e-3),
    "coupling_fwhm_mm": (float, 1e-3),
    "effective_area_cm2": (float, 1e-4),
}

_DETECTION = {
    "gain": (float, None),
    "quantum_efficiency": (float, None),
    "impedance_ohm": (float, None),
    "bandwidth_khz": (float, 1e3),
    "temperature_k": (float, None),
    "saturation_current_ma": (float, 1e-3),
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


def _parse_yaml(text: str, source: str) -> dict:
    try:
        doc = yaml.safe_load(text)
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


def _defaults_raw() -> dict:
    path = _CONFIG_DIR / "default.yaml"
    return _parse_yaml(path.read_text(encoding="utf-8"), str(path))


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


def _check_value(dotted: str, value, kind, scale):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(dotted, f"expected a number, got {value!r}")
        value = float(value)
        return value if scale is None else value * scale
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(dotted, f"expected an integer, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ValidationError(dotted, f"expected a string, got {value!r}")
    return value


def _validate_raw(raw: dict) -> dict:
    """Reject unknown keys and convert to SI; returns {section: {key: value}}
    keyed by the raw names (converted values)."""
    converted: dict = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            schema = _SECTIONS[key]
            out = {}
            for sub, sub_value in value.items():
                dotted = f"{key}.{sub}"
                if sub not in schema:
                    raise ValidationError(dotted, "unknown key")
                if sub_value is None:
                    continue  # explicit null falls back to "absent"
                kind, scale = schema[sub]
                out[sub] = _check_value(dotted, sub_value, kind, scale)
            converted[key] = out
        elif key in _TOP_SCALARS:
            if key == "recipe" and value is None:
                converted[key] = None
                continue
            kind, scale = _TOP_SCALARS[key]
            converted[key] = _check_value(key, value, kind, scale)
        else:
            raise ValidationError(key, "unknown key")
    return converted


def _require(section: dict, section_name: str, key: str):
    if key not in section:
        raise ValidationError(f"{section_name}.{key}", "required key missing")
    return section[key]


def _build(si: dict, raw: dict) -> ExperimentConfig:
    for name in _SECTIONS:
        if name not in si:
            raise ValidationError(name, "required section missing")

    atomic = si["atomic"]
    lambda_p = _require(atomic, "atomic", "probe_wavelength_nm")
    l_cell = _require(atomic, "atomic", "cell_length_mm")
    n0 = _require(atomic, "atomic", "density_per_m3")
    if n0 <= 0:
        raise ValidationError("atomic.density_per_m3", "must be > 0")

    opv = si["operating_point"]
    scheme = opv.get("scheme")
    if scheme is None:
        raise ValidationError("operating_point.scheme", "required key missing")
    scheme = scheme.upper()
    if scheme not in ("DIOD", "BCOD"):
        raise ValidationError(
            "operating_point.scheme", f"must be 'diod' or 'bcod', got {scheme!r}"
        )
    fwhm_p = _require(opv, "operating_point", "probe_fwhm_mm")
    f_carrier = _require(opv, "operating_point", "carrier_freq_ghz")
    f_delta = _require(opv, "operating_point", "beat_freq_khz")
    if not 0.0 < f_delta < f_carrier:
        raise ValidationError("operating_point.beat_freq_khz",
                              "must sit between zero and the carrier")

    system = AtomicSystem(
        mu12=_require(atomic, "atomic", "probe_dipole_ea0") * E_A0,
        mu23=_require(atomic, "atomic", "dressing_dipole_cm"),
        mu34=_require(atomic, "atomic", "rf_dipole_ea0") * E_A0,
        gamma2=2.0 * math.pi * _require(atomic, "atomic", "probe_linewidth_mhz") * 1e6,
        gamma3=0.0,
        gamma4=0.0,
        gamma=0.0,
        gamma_c=0.0,
        n0=n0,
        l_cell=l_cell,
        lambda_p=lambda_p,
        t2=_require(atomic, "atomic", "dephasing_time_us"),
        # atom count illuminated by the probe column, derived not configured
        n_atoms=n_atoms(n0, fwhm_p, l_cell),
    )

    op = OperatingPoint(
        p0=_require(opv, "operating_point", "probe_power_w"),
        pc=_require(opv, "operating_point", "coupling_power_w"),
        p_lo=_require(opv, "operating_point", "lo_power_w"),
        pl=opv.get("local_beam_power_w", 0.0),
        scheme=scheme,
        f_lo=f_carrier - f_delta,
        fwhm_p=fwhm_p,
        fwhm_c=_require(opv, "operating_point", "coupling_fwhm_mm"),
        a_e=_require(opv, "operating_point", "effective_area_cm2"),
    )

    det = si["detection"]
    eta = _require(det, "detection", "quantum_efficiency")
    if not 0.0 < eta <= 1.0:
        raise ValidationError("detection.quantum_efficiency", "must be in (0, 1]")
    chain = DetectionChain(
        g=_require(det, "detection", "gain"),
        alpha=responsivity(eta, lambda_p),
        z0=_require(det, "detection", "impedance_ohm"),
        bw=_require(det, "detection", "bandwidth_khz"),
        temperature=_require(det, "detection", "temperature_k"),
        i_sat=_require(det, "detection", "saturation_current_ma"),
    )

    arr = si["array"]
    n_sensors = _require(arr, "array", "n_sensors")
    n_users = _require(arr, "array", "n_users")
    realizations = _require(arr, "array", "realizations")
    for dotted, n in (("array.n_sensors", n_sensors), ("array.n_users", n_users),
                      ("array.realizations", realizations)):
        if n < 1:
            raise ValidationError(dotted, "must be >= 1")
    region_center = _require(arr, "array", "region_center_m")
    region_radius = _require(arr, "array", "region_radius_m")
    if region_center <= 0:
        raise ValidationError("array.region_center_m", "must be > 0")
    if region_radius < 0 or region_radius >= region_center:
        raise ValidationError("array.region_radius_m",
                              "must be >= 0 and inside the center distance")
    transmit_power = _require(arr, "array", "transmit_power")
    if transmit_power < 0:
        raise ValidationError("array.transmit_power", "must be >= 0")

    rf_noise = _require(si["baseline"], "baseline", "rf_noise_w")
    if rf_noise <= 0:
        raise ValidationError("baseline.rf_noise_w", "must be > 0")

    sw = si["sweep"]
    variable = _require(sw, "sweep", "variable")
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(
            "sweep.variable", f"must be one of {', '.join(SWEEP_VARIABLES)}"
        )
    scale = _require(sw, "sweep", "scale")
    if scale not in ("linear", "log"):
        raise ValidationError("sweep.scale", "must be 'linear' or 'log'")
    start = _require(sw, "sweep", "start")
    stop = _require(sw, "sweep", "stop")
    points = _require(sw, "sweep", "points")
    if points < 0:
        raise ValidationError("sweep.points", "must be >= 0")
    if scale == "log" and (start <= 0 or stop <= 0):
        key = "sweep.start" if start <= 0 else "sweep.stop"
        raise ValidationError(key, "log sweeps need positive bounds")
    sweep = SweepSpec(variable=variable, start=start, stop=stop,
                      points=points, scale=scale)

    recipe = si.get("recipe")
    if recipe is not None:
        from .recipes import RECIPES

        if recipe not in RECIPES:
            raise ValidationError(
                "recipe", f"unknown recipe {recipe!r}; see `raqr list-recipes`"
            )

    seed = si.get("seed", 0)
    if seed < 0:
        raise ValidationError("seed", "must be >= 0")

    return ExperimentConfig(
        system=system,
        op=op,
        chain=chain,
        f_carrier=f_carrier,
        f_delta=f_delta,
        n_sensors=n_sensors,
        n_users=n_users,
        realizations=realizations,
        region_center_m=region_center,
        region_radius_m=region_radius,
        transmit_power=transmit_power,
        rf_noise_w=rf_noise,
        sweep=sweep,
        recipe=recipe,
        seed=seed,
        output_dir=si.get("output_dir", "out"),
        raw=raw,
    )


def load_config(path, *, recipe: str | None = None,
                seed: int | None = None) -> ExperimentConfig:
    """Parse, merge onto the shipped defaults, validate, convert to SI.

    ``recipe`` and ``seed`` are CLI-level overrides applied after the merge
    (they participate in the fingerprint like any other key).
    """
    path = Path(path)
    user = _parse_yaml(path.read_text(encoding="utf-8"), str(path))
    return _from_raw(user, recipe=recipe, seed=seed)


def _from_raw(user: dict, *, recipe: str | None = None,
              seed: int | None = None) -> ExperimentConfig:
    merged = _merge(_defaults_raw(), user)
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
    return _CONFIG_DIR / "default.yaml"


def serialize(config: ExperimentConfig) -> str:
    """Canonical YAML of the fully merged raw keys; reloading it rebuilds an
    equal config."""
    return yaml.safe_dump(config.raw, sort_keys=True, default_flow_style=False)


def fingerprint(config: ExperimentConfig) -> str:
    """16 hex characters identifying everything that can change the science."""
    payload = {k: v for k, v in config.raw.items() if k != "output_dir"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=8).hexdigest()
