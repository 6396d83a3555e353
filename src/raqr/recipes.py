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

from . import defaults, mimo
from .atomic import steady_state_numeric
from .config import (
    MAX_SENSORS,
    SWEEP_VARIABLES,
    ExperimentConfig,
    ValidationError,
    fingerprint,
)
from .frontend import baseband_gains, noise_budget, p1_of_lo, with_powers
from .optimize import (
    NoiseWeights,
    OpaqueGrid,
    normalized_noise,
    optimal_pl,
    optimal_power,
)
from .waveform import MIN_SAMPLES_PER_BEAT, WeakLO, simulate_waveform


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


def _csv_lines(rows) -> list[str]:
    """One CSV line per row: a float as %.12g, any other value as %s.

    A row is formatted with one %-format, built once per sequence of value
    types.
    """
    formats = {}
    lines = []
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                "%.12g" if issubclass(k, float) else "%s" for k in kinds)
        lines.append(fmt % row)
    return lines


def emit_plotdata(result: RecipeResult, out_dir, fp: str, seed: int) -> dict:
    """Write the CSV (skipped when there are no rows), the plot manifest,
    and the scalar summary. Returns {kind: path}.

    Both JSON files are strict JSON: a NaN or infinity raises ValueError
    before any file is written."""
    out = Path(out_dir)
    csv_name = f"{result.name}.csv" if result.rows else None
    manifest = {
        "figure": result.name,
        "fingerprint": fp,
        "csv": csv_name,
        "axes": result.axes,
        "series": result.series,
        "annotations": result.annotations,
    }
    summary = {"recipe": result.name, "fingerprint": fp, "seed": seed}
    summary.update(result.summary)
    texts = {kind: json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
             for kind, doc in (("manifest", manifest), ("summary", summary))}

    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    if csv_name is not None:
        lines = [f"# fingerprint={fp}", ",".join(result.columns)]
        lines.extend(_csv_lines(result.rows))
        paths["csv"] = out / csv_name
        paths["csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    for kind, text in texts.items():
        paths[kind] = out / f"{result.name}_{kind}.json"
        paths[kind].write_text(text, encoding="utf-8")
    return paths


def check_recipe(config: ExperimentConfig) -> None:
    """Raise ValidationError unless ``config.recipe`` is a recipe that sweeps
    ``config.sweep.variable`` over values it can run at the configured
    operating point and user power; ``raqr validate`` and ``run_recipe``
    each call this once.

    Every sweep value must be finite, and so must a detuning once converted
    to rad/s: a linear span of two finite ends can still overflow. A sensor
    sweep rounds each value to a count, which must be >= 1, and for
    ``rate-vs-M`` (zero forcing) above ``n_users``, and at most
    ``config.MAX_SENSORS``. A ratio sweep scales the LO field by
    10 ** (-ratio / 20) into the user field, a factor that must be finite
    and nonzero; ``sn-vs-ratio`` divides by the closed-form shot variance
    4 P_user sn_coeff at each of its two points, which must be finite and
    nonzero too; where it fails at every end of the sweep, or a point's
    budget is out of range, the error names sn_coeff rather than an end.
    The sweep is monotone, so its ends bound every count, factor and
    variance. The LO drives the RF transition and
    the probe beam carries the readout; without either the reception gain
    and the transduction slope vanish, so the LO and probe powers must be
    positive wherever the recipe reads them: everywhere but
    ``sn-vs-ratio``, which builds its own operating points, and a sweep of
    that power by ``rate-vs-parameter``, which sets it. Balanced detection
    has no gain without its local beam, so there the local beam power must
    be positive too, except for ``sn-vs-ratio`` and ``detuning-loss``,
    which never read the configured point's gains. ``power-scaling``
    reports its bound relative to the asymptotic rate, which is 0 without
    user power, so there ``transmit_power`` must be positive. ``siso-optima``
    minimizes a thermal-only objective, which is 0 everywhere at T = 0, so
    there the temperature must be positive.
    """
    name, sweep, op = config.recipe, config.sweep, config.op
    if name is None:
        raise ValidationError("recipe", "no recipe selected")
    if name not in RECIPES:
        raise ValidationError(
            "recipe", f"unknown recipe {name!r}; see `raqr list-recipes`")
    if sweep.variable not in RECIPE_SWEEPS[name]:
        raise ValidationError("sweep.variable", f"recipe {name} sweeps "
                              f"{' or '.join(RECIPE_SWEEPS[name])}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = sweep.values()
        if sweep.variable == "detuning_khz":  # in rad/s, as detuning_loss drives
            values = 2.0 * math.pi * (values * 1e3)
    if not np.isfinite(values).all():
        raise ValidationError(
            "sweep.start" if not np.isfinite(values[0]) else "sweep.stop",
            f"the sweep from {sweep.start:g} to {sweep.stop:g} overflows")
    ends = (("sweep.start", sweep.start), ("sweep.stop", sweep.stop))[:sweep.points]
    if RECIPE_SWEEPS[name] == ("ratio_db",):
        for key, value in ends:
            try:  # as defaults.weak_user scales the LO field
                factor = 10.0 ** (-value / 20.0)
            except OverflowError:
                factor = math.inf
            if not 0.0 < factor < math.inf:
                raise ValidationError(key, f"a ratio of {value:g} dB scales the "
                                      f"user field by {factor:g}")
    if name == "sn-vs-ratio":
        try:
            points = _ratio_points(config)
        except ArithmeticError:
            points = []  # a point without a budget fails its run, not its sweep
        for point, budget in points:
            failed = []
            for key, value in ends:
                try:
                    closed = _closed_sn(config, value, point, budget)[1]
                except OverflowError:  # the user field squared
                    closed = math.inf
                if not 0.0 < closed < math.inf:
                    failed.append((key, value, closed))
            if len(failed) == len(ends):  # no ratio of the sweep can run
                raise ValidationError(
                    "sn_coeff", f"the {point.scheme} point's closed-form shot "
                    f"variance is {' and '.join(f'{c:g}' for _, _, c in failed)} V^2 "
                    f"at {' and '.join(f'{v:g}' for _, v, _ in failed)} dB (sn_coeff "
                    f"{budget.sn_coeff:g}), so no ratio of the sweep can run")
            if failed:
                key, value, closed = failed[0]
                raise ValidationError(
                    key, f"at a ratio of {value:g} dB the {point.scheme} point's "
                    f"closed-form shot variance is {closed:g} V^2 (sn_coeff "
                    f"{budget.sn_coeff:g})")
    if RECIPE_SWEEPS[name] == ("n_sensors",):
        least = config.n_users + 1 if name == "rate-vs-M" else 1
        for key, value in ends:
            count = int(round(value))
            if count < least:
                raise ValidationError(key, f"rounds to {count} sensors; recipe "
                                      f"{name} needs at least {least}")
            if count > MAX_SENSORS:
                raise ValidationError(key, f"rounds to {count} sensors, above "
                                      f"the limit of {MAX_SENSORS}")
    for key, need in (("lo_power_w", "an RF LO drive"),
                      ("probe_power_w", "a probe beam")):
        sets_it = name == "sn-vs-ratio" or (
            name == "rate-vs-parameter" and sweep.variable == key)
        if getattr(op, _SWEEP_TO_POWER[key]) <= 0.0 and not sets_it:
            raise ValidationError(f"operating_point.{key}",
                                  f"must be > 0 for recipe {name}, which needs "
                                  f"{need}")
    if (op.scheme == "BCOD" and op.pl <= 0.0
            and name not in ("sn-vs-ratio", "detuning-loss")):
        raise ValidationError("operating_point.local_beam_power_w",
                              f"must be > 0 for recipe {name} with balanced "
                              "detection, which needs a local beam")
    if config.chain.temperature <= 0.0 and name == "siso-optima":
        raise ValidationError("detection.temperature_k",
                              f"must be > 0 for recipe {name}, whose thermal "
                              "regime has no noise to minimize without it")
    if config.transmit_power <= 0.0 and name == "power-scaling":
        raise ValidationError("array.transmit_power",
                              f"must be > 0 for recipe {name}, which divides "
                              "by the asymptotic rate")


def run_recipe(config: ExperimentConfig, threads: int = 1) -> dict:
    name = config.recipe
    check_recipe(config)
    try:
        result = RECIPES[name](config, threads)
        # a NaN or infinity in the JSON artifacts fails the run here
        return emit_plotdata(result, config.output_dir, fingerprint(config),
                             seed=config.seed)
    except (ValidationError, RecipeError):
        raise
    except Exception as exc:
        raise RecipeError(name, exc) from exc


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


def _scenario(cfg: ExperimentConfig, n_sensors: int, beta, p=None) -> mimo.MimoScenario:
    return mimo.MimoScenario(
        n_sensors=n_sensors,
        n_users=cfg.n_users,
        beta=beta,
        p=cfg.transmit_power if p is None else p,
        seed=cfg.seed,
        n_realizations=cfg.realizations,
    )


def _gains_budget(cfg: ExperimentConfig, op=None):
    op = cfg.op if op is None else op
    gains = baseband_gains(op, cfg.chain, cfg.system)
    return gains, noise_budget(op, cfg.chain, cfg.system, gains=gains)


def _mean_se(se: np.ndarray) -> float:
    # per-user estimates share channel draws; treat as independent anyway
    # and report the optimistic mean-level error
    return float(np.sqrt((se**2).sum()) / len(se))


# --------------------------------------------------------------------------
# recipes


def waveform_overlay(cfg: ExperimentConfig, threads: int) -> RecipeResult:
    """Exact vs linearized detector waveforms at a few LO-to-user ratios,
    noise generators off so the deviation column is pure model error."""
    quiet = dataclasses.replace(cfg.chain, sigma_sq_sn=0.0)
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    duration = 150.0 / cfg.f_delta  # 150 beat periods
    rows, series, per_ratio = [], [], {}
    for ratio in cfg.sweep.values():
        user = defaults.weak_user(float(ratio), cfg.op, f_delta=cfg.f_delta)
        with warnings.catch_warnings():
            # sweeping through weak ratios is this figure's purpose
            warnings.simplefilter("ignore", WeakLO)
            wf = simulate_waveform(cfg.op, quiet, user, cfg.system,
                                   duration, fs, seed=cfg.seed)
        label = f"ratio_{float(ratio):.12g}db"
        dev = float(
            np.linalg.norm(wf.v_exact - wf.v_approx) / np.linalg.norm(wf.v_exact)
        )
        per_ratio[label] = dev
        series.append({"label": label, "filter": {"series": label}})
        for t, ve, va in zip(wf.t.tolist(), wf.v_exact.tolist(), wf.v_approx.tolist()):
            rows.append((label, t, ve, va, va - ve))
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
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    n_samples = 40_000
    rows, series = [], []
    worst, worst_strong = 0.0, 0.0
    for offset, (op, budget) in zip((0, 1000), _ratio_points(cfg)):
        label = op.scheme.lower()
        series.append({"label": label, "filter": {"series": label}})
        for i, ratio in enumerate(cfg.sweep.values()):
            user, closed = _closed_sn(cfg, float(ratio), op, budget)
            wf = simulate_waveform(op, cfg.chain, user, cfg.system,
                                   n_samples / fs, fs,
                                   seed=cfg.seed + offset + i)
            measured = float(np.var(wf.sn) * (2.0 * cfg.chain.bw / fs))
            del wf  # the next point's simulation need not hold these arrays
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


def _ratio_points(cfg: ExperimentConfig) -> list:
    """sn-vs-ratio's direct and balanced operating points at the configured
    beam geometry, each with its noise budget; a budget out of range (NaN
    at an extreme config) raises ValidationError on sn_coeff."""
    geometry = {k: getattr(cfg.op, k) for k in ("f_lo", "a_e", "fwhm_p", "fwhm_c")}
    points = []
    for op in (defaults.diod_point(**geometry), defaults.bcod_point(**geometry)):
        try:
            points.append((op, noise_budget(op, cfg.chain, cfg.system)))
        except ValueError as exc:
            raise ValidationError("sn_coeff", f"the {op.scheme} point's noise "
                                  f"budget is out of range ({exc})") from exc
    return points


def _closed_sn(cfg: ExperimentConfig, ratio: float, op, budget):
    """The user ``ratio`` dB below the LO field, and the closed-form variance
    4 P_user sn_coeff of its in-band shot component: the budget's own
    coefficient, not a copy of its formula."""
    user = defaults.weak_user(ratio, op, f_delta=cfg.f_delta)
    return user, 4.0 * user.power(op.a_e) * budget.sn_coeff


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
        "coupling_power_w": np.geomspace(1e-3, 1.0, 121),
        "lo_power_w": np.geomspace(1e-8, 1e-3, 121),
    }
    rows, series, annotations, summary = [], [], [], {}
    for sweep_name, grid in sweeps.items():
        attr = _SWEEP_TO_POWER[sweep_name]
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
            star = optimal_power(cfg.op, cfg.system, attr, regime)
            w_star = normalized_noise(
                with_powers(cfg.op, **{attr: float(star)}), weights, cfg.system
            )
            idx = int(np.argmin(values))
            if values[idx] == math.inf:
                raise OpaqueGrid(f"series {label}: the normalized noise is "
                                 "infinite at every grid point")
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
    detunings = cfg.sweep.values() * 1e3  # kHz -> Hz
    # with delta_p = delta_c = 0 the state at -delta_rf is U rho* U,
    # U = diag(1, -1, 1, -1), of the one at +delta_rf, so |rho21| is even:
    # each |delta_rf| is solved once, the on-resonance reference (entry 0)
    # among them, and indexed back through the inverse
    distinct, inverse = np.unique(
        np.abs(np.append(0.0, 2.0 * math.pi * detunings)), return_inverse=True)
    drive = defaults.drive_for(cfg.op, cfg.system, delta_rf=distinct)
    mag = np.abs(steady_state_numeric(cfg.system, drive).rho21)[inverse]
    response = mag[1:] / mag[0]
    rows = list(zip(detunings.tolist(), response.tolist()))
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
            base = mimo.sinr_lb(sc, *mimo.rf_gains(cfg.rf_noise_w), method)
            mc = float(res.rate.mean())
            se = _mean_se(res.standard_error)
            bound = float(res.bound.mean())
            mc_minus_bound.append(mc - bound)
            within_3se = within_3se and not mimo.bound_violation_alarm(res)
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
    beta = mimo.large_scale_fading(cfg.region_center_m, cfg.f_carrier)
    gains, budget = _gains_budget(cfg)
    asym = mimo.asymptotic_rate(gains, budget, beta,
                                energy=cfg.transmit_power)
    rows = []
    for m in (int(round(x)) for x in cfg.sweep.values()):
        sc = _scenario(cfg, m, beta, p=cfg.transmit_power / m)
        bound = float(mimo.sinr_lb(sc, gains, budget, "MRC").rate[0])
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

# sweep variables each recipe accepts; ``check_recipe`` reads this table
RECIPE_SWEEPS = {
    "waveform-overlay": ("ratio_db",),
    "sn-vs-ratio": ("ratio_db",),
    "siso-optima": SWEEP_VARIABLES,  # sweeps its own fixed power grids
    "detuning-loss": ("detuning_khz",),
    "rate-vs-M": ("n_sensors",),
    "power-scaling": ("n_sensors",),
    "rate-vs-parameter": tuple(_SWEEP_TO_POWER),
}
