"""Named experiments: each recipe turns a validated config into one
figure-analogue (tidy CSV, manifest, JSON summary).

Artifacts are byte-reproducible for identical (config, seed): all
randomness flows from the config seed through counter-based generators,
floats are formatted with a fixed precision, and no timestamps are
written. The worker-thread count changes wall time only.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.constants import speed_of_light

from . import defaults, mimo
from .atomic import steady_state_numeric
from .config import ExperimentConfig, ValidationError, fingerprint
from .frontend import baseband_gains, noise_budget, p1_of_lo, with_powers
from .optimize import (
    NoiseWeights,
    normalized_noise,
    optimal_pc_cn,
    optimal_pc_tn,
    optimal_pl,
    optimal_plo_cn,
    optimal_plo_tn,
)
from .waveform import WeakLO, effective_gain, simulate_waveform


class RecipeError(Exception):
    """A module failure inside a recipe; the original is the __cause__."""

    def __init__(self, recipe: str, cause: BaseException):
        self.recipe = recipe
        super().__init__(f"recipe {recipe}: {cause}")


@dataclass
class RecipeResult:
    name: str
    columns: list[str]
    rows: list[tuple]
    axes: dict
    series: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    annotations: list[dict] = field(default_factory=list)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_plotdata(result: RecipeResult, out_dir, fp: str, seed: int) -> dict:
    """Write the CSV (skipped when there are no rows), the plot manifest,
    and the scalar summary. Returns {kind: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_name = None
    if result.rows:
        csv_path = out / f"{result.name}.csv"
        lines = [f"# fingerprint={fp}", ",".join(result.columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in result.rows)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths["csv"] = csv_path
        csv_name = csv_path.name

    manifest = {
        "figure": result.name,
        "fingerprint": fp,
        "csv": csv_name,
        "axes": result.axes,
        "series": result.series,
        "annotations": result.annotations,
    }
    manifest_path = out / f"{result.name}_manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["manifest"] = manifest_path

    summary = {"recipe": result.name, "fingerprint": fp, "seed": seed}
    summary.update(result.summary)
    summary_path = out / f"{result.name}_summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    paths["summary"] = summary_path
    return paths


def run_recipe(config: ExperimentConfig, threads: int = 1) -> dict:
    name = config.recipe
    if name is None:
        raise ValidationError("recipe", "no recipe selected")
    if name not in RECIPES:
        raise ValidationError("recipe", f"unknown recipe {name!r}")
    try:
        result = RECIPES[name](config, threads)
    except (ValidationError, RecipeError):
        raise
    except Exception as exc:
        raise RecipeError(name, exc) from exc
    return emit_plotdata(result, config.output_dir, fingerprint(config),
                         seed=config.seed)


def list_recipes() -> list[str]:
    return sorted(RECIPES)


# --------------------------------------------------------------------------
# shared pieces


def place_users(cfg: ExperimentConfig) -> np.ndarray:
    """Seeded uniform placement in a disk of configured radius whose center
    sits at the configured range; returns per-user path-loss factors."""
    rng = np.random.default_rng(cfg.seed)
    u = rng.random(cfg.n_users)
    v = rng.random(cfg.n_users)
    r = cfg.region_radius_m * np.sqrt(u)
    phi = 2.0 * np.pi * v
    d = np.hypot(cfg.region_center_m + r * np.cos(phi), r * np.sin(phi))
    return np.array(
        [mimo.large_scale_fading(di, cfg.f_carrier) for di in d]
    )


def _scenario(cfg: ExperimentConfig, n_sensors: int, beta,
              p=None, realizations: int | None = None) -> mimo.MimoScenario:
    return mimo.MimoScenario(
        n_sensors=n_sensors,
        n_users=cfg.n_users,
        lambda_lo=speed_of_light / cfg.f_carrier,
        beta=beta,
        p=cfg.transmit_power if p is None else p,
        seed=cfg.seed,
        n_realizations=cfg.realizations if realizations is None else realizations,
    )


def _gains_budget(cfg: ExperimentConfig, op=None):
    op = cfg.op if op is None else op
    gains = baseband_gains(op, cfg.chain, cfg.system)
    return gains, noise_budget(op, cfg.chain, cfg.system, gains=gains)


def _expect_variable(cfg: ExperimentConfig, allowed: tuple, recipe: str):
    if cfg.sweep.variable not in allowed:
        raise ValidationError(
            "sweep.variable",
            f"recipe {recipe} sweeps {' or '.join(allowed)}",
        )


def _mean_se(se: np.ndarray) -> float:
    # per-user estimates share channel draws; treat as independent anyway
    # and report the optimistic mean-level error
    return float(np.sqrt((se**2).sum()) / len(se))


# --------------------------------------------------------------------------
# recipes


def waveform_overlay(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Exact vs linearized detector waveforms at a few LO-to-user ratios,
    noise generators off so the deviation column is pure model error."""
    _expect_variable(cfg, ("ratio_db",), "waveform-overlay")
    quiet = dataclasses.replace(cfg.chain, sigma_sq_sn=0.0)
    fs = 16.0 * cfg.f_delta
    duration = 150.0 / cfg.f_delta  # 150 beat periods
    rows, series, per_ratio = [], [], {}
    for ratio in cfg.sweep.values():
        user = defaults.weak_user(float(ratio), cfg.op, f_delta=cfg.f_delta)
        with warnings.catch_warnings():
            # sweeping through weak ratios is this figure's purpose
            warnings.simplefilter("ignore", WeakLO)
            wf = simulate_waveform(cfg.op, quiet, user, cfg.system,
                                   duration, fs, seed=cfg.seed)
        label = f"ratio_{_fmt(float(ratio))}db"
        dev = float(
            np.linalg.norm(wf.v_exact - wf.v_approx) / np.linalg.norm(wf.v_exact)
        )
        per_ratio[label] = dev
        series.append({"label": label, "filter": {"series": label}})
        for t, ve, va in zip(wf.t, wf.v_exact, wf.v_approx):
            rows.append((label, float(t), float(ve), float(va), float(va - ve)))
    return RecipeResult(
        name="waveform-overlay",
        columns=["series", "time_s", "exact_v", "approx_v", "deviation_v"],
        rows=rows,
        axes={"x": {"label": "time", "unit": "s"},
              "y": {"label": "detector output", "unit": "V"}},
        series=series,
        summary={"rms_deviation": per_ratio},
    )


def sn_vs_ratio(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Sampled variance of the signal-dependent shot component against its
    closed form, swept over the LO-to-user ratio for both detector schemes."""
    _expect_variable(cfg, ("ratio_db",), "sn-vs-ratio")
    fs = 16.0 * cfg.f_delta
    n_samples = 40_000
    rows, series = [], []
    worst, worst_strong = 0.0, 0.0
    for offset, op in ((0, defaults.diod_point(f_lo=cfg.op.f_lo, a_e=cfg.op.a_e)),
                       (1000, defaults.bcod_point(f_lo=cfg.op.f_lo, a_e=cfg.op.a_e))):
        label = op.scheme.lower()
        series.append({"label": label, "filter": {"series": label}})
        gains = baseband_gains(op, cfg.chain, cfg.system)
        geff = effective_gain(op, cfg.chain)
        for i, ratio in enumerate(cfg.sweep.values()):
            user = defaults.weak_user(float(ratio), op, f_delta=cfg.f_delta)
            wf = simulate_waveform(op, cfg.chain, user, cfg.system,
                                   n_samples / fs, fs,
                                   seed=cfg.seed + offset + i)
            measured = float(np.var(wf.sn) * (2.0 * cfg.chain.bw / fs))
            closed = (
                0.5 * cfg.chain.sigma_sq_sn * geff * cfg.chain.alpha
                * gains.p_sn_bar_sq * gains.kappa**2 * user.u_x**2
            )
            dev = abs(measured - closed) / closed
            worst = max(worst, dev)
            if ratio >= 20.0:
                worst_strong = max(worst_strong, dev)
            rows.append((label, float(ratio), measured, closed))
    return RecipeResult(
        name="sn-vs-ratio",
        columns=["series", "ratio_db", "mc_variance_v2", "closed_form_v2"],
        rows=rows,
        axes={"x": {"label": "LO-to-user field ratio", "unit": "dB"},
              "y": {"label": "in-band shot variance", "unit": "V^2"}},
        series=series,
        summary={"max_rel_deviation": worst,
                 "max_rel_deviation_20db_up": worst_strong,
                 "samples_per_point": n_samples},
    )


def siso_optima(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Single-cell objective sweeps over the coupling and LO powers in the
    dc-shot and thermal regimes, each annotated with its stationary-point
    closed form and checked against the swept grid."""
    wts = NoiseWeights.from_chain(cfg.chain, cfg.system)
    regimes = {
        "dc_shot": NoiseWeights(0.0, wts.dc_shot, 0.0, 0.0),
        "thermal": NoiseWeights(0.0, 0.0, wts.thermal, 0.0),
    }
    sweeps = {
        "coupling_power_w": ("pc", np.geomspace(1e-3, 1.0, 121)),
        "lo_power_w": ("p_lo", np.geomspace(1e-8, 1e-3, 121)),
    }
    formulas = {
        ("coupling_power_w", "dc_shot"): optimal_pc_cn,
        ("coupling_power_w", "thermal"): optimal_pc_tn,
        ("lo_power_w", "dc_shot"): optimal_plo_cn,
        ("lo_power_w", "thermal"): optimal_plo_tn,
    }
    rows, series, annotations, summary = [], [], [], {}
    for sweep_name, (attr, grid) in sweeps.items():
        for regime, weights in regimes.items():
            label = f"{sweep_name}:{regime}"
            series.append({"label": label, "filter": {"series": label}})
            values = np.array([
                normalized_noise(with_powers(cfg.op, **{attr: float(x)}),
                                 weights, cfg.system)
                for x in grid
            ])
            for x, w in zip(grid, values):
                rows.append((label, float(x), float(w)))
            star = formulas[(sweep_name, regime)](cfg.op, cfg.system)
            w_star = normalized_noise(
                with_powers(cfg.op, **{attr: float(star)}), weights, cfg.system
            )
            idx = int(np.argmin(values))
            gap_db = abs(10.0 * math.log10(w_star / values[idx]))
            annotations.append({"kind": "optimum", "series": label,
                                "power_w": float(star)})
            summary[label] = {
                "closed_form_w": float(star),
                "clamped": star.clamped,
                "grid_w": float(grid[idx]),
                "gap_db": gap_db,
            }
    if cfg.op.scheme == "BCOD":
        pl = optimal_pl(cfg.chain, p1_of_lo(cfg.op, cfg.system),
                        pl_max=math.inf)
        summary["local_beam_w"] = float(pl)
        annotations.append({"kind": "optimum", "series": "local_beam",
                            "power_w": float(pl)})
    return RecipeResult(
        name="siso-optima",
        columns=["series", "power_w", "objective"],
        rows=rows,
        axes={"x": {"label": "swept power", "unit": "W"},
              "y": {"label": "normalized noise", "unit": "W"}},
        series=series,
        summary=summary,
        annotations=annotations,
    )


def detuning_loss(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Numeric steady-state response versus RF detuning, normalized to the
    on-resonance coherence magnitude. Qualitative: peak location, symmetry,
    and half width."""
    _expect_variable(cfg, ("detuning_khz",), "detuning-loss")
    drive0 = defaults.drive_for(cfg.op, cfg.system)
    ref = abs(steady_state_numeric(cfg.system, drive0).rho21)
    detunings = cfg.sweep.values() * 1e3  # kHz -> Hz
    rows = []
    response = []
    for delta in detunings:
        drive = dataclasses.replace(drive0, delta_rf=2.0 * math.pi * float(delta))
        mag = abs(steady_state_numeric(cfg.system, drive).rho21) / ref
        response.append(mag)
        rows.append((float(delta), float(mag)))
    response = np.array(response)
    summary = {}
    if len(response):
        peak = int(np.argmax(response))
        summary["peak_detuning_hz"] = float(detunings[peak])
        summary["peak_response"] = float(response[peak])
        below = response <= 0.5
        summary["half_width_hz"] = (
            float(np.ptp(detunings[~below])) / 2.0 if (~below).any() else 0.0
        )
    return RecipeResult(
        name="detuning-loss",
        columns=["detuning_hz", "response_norm"],
        rows=rows,
        axes={"x": {"label": "RF detuning", "unit": "Hz"},
              "y": {"label": "normalized coherence", "unit": "1"}},
        series=[{"label": "numeric", "filter": {}}] if rows else [],
        summary=summary,
    )


def rate_vs_m(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Monte-Carlo per-user rate and its lower bound against the sensor
    count, for both combiners, with the conventional-array baseline."""
    _expect_variable(cfg, ("n_sensors",), "rate-vs-M")
    beta = place_users(cfg)
    gains, budget = _gains_budget(cfg)
    sizes = [int(round(m)) for m in cfg.sweep.values()]
    rows, series = [], []
    mc_minus_bound, within_3se = [], True
    for method in ("MRC", "ZF"):
        label = method.lower()
        if sizes:
            series.append({"label": label, "filter": {"series": label}})
        for m in sizes:
            sc = _scenario(cfg, m, beta)
            res = mimo.monte_carlo_rate(sc, gains, budget, method,
                                        threads=threads)
            base = mimo.rf_baseline(sc, cfg.rf_noise_w)[label]
            mc = float(res.rate.mean())
            se = _mean_se(res.standard_error)
            bound = float(res.bound.mean())
            mc_minus_bound.append(mc - bound)
            within_3se = within_3se and mc + 3.0 * se >= bound
            rows.append((label, m, mc, se, bound, float(base.rate.mean())))
    return RecipeResult(
        name="rate-vs-M",
        columns=["series", "n_sensors", "mc_rate_bpshz", "mc_se_bpshz",
                 "bound_bpshz", "baseline_bound_bpshz"],
        rows=rows,
        axes={"x": {"label": "sensors", "unit": "1"},
              "y": {"label": "per-user rate", "unit": "bps/Hz"}},
        series=series,
        summary={
            "mc_minus_bound_min": (min(mc_minus_bound) if mc_minus_bound
                                   else None),
            "bound_within_3se": within_3se,
            "realizations": cfg.realizations,
        },
    )


def power_scaling(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Closed-form rate bound when the per-user power is cut as 1/M, against
    the saturating large-array value."""
    _expect_variable(cfg, ("n_sensors",), "power-scaling")
    beta = mimo.large_scale_fading(cfg.region_center_m, cfg.f_carrier)
    gains, budget = _gains_budget(cfg)
    asym = mimo.asymptotic_rate(gains, budget, beta,
                                energy=cfg.transmit_power)
    rows = []
    for m in (int(round(x)) for x in cfg.sweep.values()):
        sc = _scenario(cfg, m, beta, p=cfg.transmit_power / m)
        bound = float(mimo.sinr_lb_mrc(sc, gains, budget).rate[0])
        rows.append((m, bound, asym))
    bounds = [r[1] for r in rows]
    summary = {"asymptotic_bpshz": asym}
    if bounds:
        summary["final_gap_rel"] = abs(bounds[-1] - asym) / asym
        summary["monotone"] = bool(
            all(a < b for a, b in zip(bounds, bounds[1:]))
        )
    return RecipeResult(
        name="power-scaling",
        columns=["n_sensors", "bound_bpshz", "asymptotic_bpshz"],
        rows=rows,
        axes={"x": {"label": "sensors", "unit": "1"},
              "y": {"label": "per-user rate", "unit": "bps/Hz"}},
        series=[{"label": "scaled-power bound", "filter": {}}] if rows else [],
        summary=summary,
        annotations=[{"kind": "asymptote", "rate_bpshz": asym}],
    )


_SWEEP_TO_POWER = {
    "lo_power_w": "p_lo",
    "probe_power_w": "p0",
    "coupling_power_w": "pc",
}


def rate_vs_parameter(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Rate against one optical power, atomic receiver vs the conventional
    baseline, with the noise-crossover threshold marked when it exists."""
    _expect_variable(cfg, tuple(_SWEEP_TO_POWER), "rate-vs-parameter")
    attr = _SWEEP_TO_POWER[cfg.sweep.variable]
    beta = place_users(cfg)
    sc = _scenario(cfg, cfg.n_sensors, beta)
    xs = [float(x) for x in cfg.sweep.values()]
    # the baseline and every sweep point share one set of channel draws
    tables = [mimo.rf_gains(cfg.rf_noise_w)] + [
        _gains_budget(cfg, with_powers(cfg.op, **{attr: x})) for x in xs]
    base_mc, *results = mimo.monte_carlo_rates(sc, tables, "MRC", threads)
    base_rate = float(base_mc.rate.mean())
    base_bound = float(base_mc.bound.mean())
    rows = [(x, float(res.rate.mean()), _mean_se(res.standard_error),
             float(res.bound.mean()), base_rate, base_bound)
            for x, res in zip(xs, results)]
    annotations = []
    summary = {"baseline_bound_bpshz": base_bound}
    if attr in ("p_lo", "p0"):
        try:
            root = mimo.crossover_threshold(
                cfg.op, cfg.chain, cfg.system, cfg.rf_noise_w, sweep=attr
            )
        except mimo.NoCrossing:
            summary["crossover_w"] = None
        else:
            summary["crossover_w"] = float(root)
            annotations.append({"kind": "crossover", "variable":
                                cfg.sweep.variable, "power_w": float(root)})
    return RecipeResult(
        name="rate-vs-parameter",
        columns=[cfg.sweep.variable, "mc_rate_bpshz", "mc_se_bpshz",
                 "bound_bpshz", "baseline_rate_bpshz", "baseline_bound_bpshz"],
        rows=rows,
        axes={"x": {"label": cfg.sweep.variable, "unit": "W"},
              "y": {"label": "per-user rate", "unit": "bps/Hz"}},
        series=([{"label": "atomic", "filter": {}}] if rows else []),
        summary=summary,
        annotations=annotations,
    )


RECIPES = {
    "waveform-overlay": waveform_overlay,
    "sn-vs-ratio": sn_vs_ratio,
    "siso-optima": siso_optima,
    "detuning-loss": detuning_loss,
    "rate-vs-M": rate_vs_m,
    "power-scaling": power_scaling,
    "rate-vs-parameter": rate_vs_parameter,
}
