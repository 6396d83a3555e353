"""Named experiments: each recipe turns a validated config into one
figure-analogue (tidy CSV, manifest, JSON summary). A recipe plans, then
executes: ``RECIPES[name](config)`` computes everything closed-form and
returns ``execute(threads)``, which does the Monte-Carlo draws,
steady-state solves and waveform simulation and builds the result.

Artifacts are byte-reproducible for identical (config, seed): all
randomness flows from the config seed, through Philox for the Monte-Carlo
and waveform noise and PCG64 for user placement, floats are formatted
with a fixed precision, and no timestamps are written. The worker-thread
count changes wall time only.
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
from .constants import hbar
from .frontend import LN2, baseband_gains, noise_budget, p1_of_lo, with_powers
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
    before any file is touched. Each artifact is written as a new file:
    the previous run's file at that path is removed first, so a hard link
    or symlink there is replaced, not written through, and a run without
    rows leaves no CSV behind. Rewriting a file in place truncates it,
    which stalls tens of ms per file on ext4 (``auto_da_alloc``)."""
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
    if csv_name is not None:
        lines = [f"# fingerprint={fp}", ",".join(result.columns)]
        lines.extend(_csv_lines(result.rows))

    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out / f"{result.name}.csv"
    csv_path.unlink(missing_ok=True)
    if csv_name is not None:
        paths["csv"] = csv_path
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for kind, text in texts.items():
        paths[kind] = out / f"{result.name}_{kind}.json"
        paths[kind].unlink(missing_ok=True)
        paths[kind].write_text(text, encoding="utf-8")
    return paths


def check_recipe(config: ExperimentConfig):
    """Raise ValidationError unless ``config.recipe`` is a recipe that sweeps
    ``config.sweep.variable`` over values it can run at the configured
    operating point and its plan builds; return the plan's
    ``execute(threads)``. ``raqr validate`` and ``run_recipe`` each call
    this once.

    Every sweep value must be finite, and so must a detuning once converted
    to rad/s: a linear span of two finite ends can still overflow. A sensor
    sweep rounds each value to a count, which must be >= 1, and for
    ``rate-vs-M`` (zero forcing) above ``n_users``, and at most
    ``config.MAX_SENSORS``. A ratio sweep scales the LO field by
    10 ** (-ratio / 20) into the user field, a factor that must be finite
    and nonzero. The sweep is monotone, so its ends bound every count and
    factor. The LO drives the RF transition and the probe beam carries the
    readout; without either the reception gain and the transduction slope
    vanish, so the LO and probe powers must be positive wherever the
    recipe reads them: everywhere but
    ``sn-vs-ratio``, which builds its own operating points, and a sweep of
    that power by ``rate-vs-parameter``, which sets it. Balanced detection
    has no gain without its local beam, so there the local beam power must
    be positive too, except for ``sn-vs-ratio`` and ``detuning-loss``,
    which never read the configured point's gains. ``siso-optima``
    minimizes a thermal-only objective, which is 0 everywhere at T = 0, so
    there the temperature must be positive. No divisor a recipe reads may
    be 0; each is formed with ``*``, as ``**`` would raise on overflow.
    A plan names a key where it can (see each recipe); any other exception
    while planning is a ValidationError on ``recipe``.
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
    system, chain, mu23 = config.system, config.chain, config.system.mu23 / hbar
    weights = name == "siso-optima" or (  # crossover_threshold builds them
        name == "rate-vs-parameter" and sweep.variable in ("lo_power_w", "probe_power_w"))
    for key, reads, what, divisor in (  # of the noise budget, weights and pc optimum
            ("atomic.dephasing_time_us", name not in ("waveform-overlay", "detuning-loss"),
             "N_atoms T2 mu34^2", system.n_atoms * system.t2 * (system.mu34 * system.mu34)),
            ("detection.quantum_efficiency", weights, "z0 alpha^2",
             2.0 * chain.z0 * (chain.alpha * chain.alpha)),
            ("atomic.dressing_dipole_cm", name == "siso-optima",
             "the coupling Rabi coefficient", mu23 * mu23 * 8.0 * LN2)):
        if reads and divisor == 0.0:
            raise ValidationError(key, f"{what} is 0, and recipe {name} divides by it")
    try:
        return RECIPES[name](config)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError("recipe", f"{name} cannot plan this config: "
                              f"{type(exc).__name__}: {exc}") from exc


def run_recipe(config: ExperimentConfig, threads: int = 1) -> dict:
    """Check ``config`` and build its plan, execute it once and write its
    artifacts; returns {kind: path}. A failure past the plan is a RecipeError."""
    execute = check_recipe(config)
    try:
        # a NaN or infinity in the JSON artifacts fails the run here
        return emit_plotdata(execute(threads), config.output_dir,
                             fingerprint(config), seed=config.seed)
    except Exception as exc:
        raise RecipeError(config.recipe, exc) from exc


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


def waveform_overlay(cfg: ExperimentConfig):
    """Exact vs linearized detector waveforms at a few LO-to-user ratios,
    noise generators off so the deviation column is pure model error. The
    plan holds only constants: the waveform simulation is execution."""
    quiet = dataclasses.replace(cfg.chain, sigma_sq_sn=0.0)
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    duration = 150.0 / cfg.f_delta  # 150 beat periods

    def execute(threads: int) -> RecipeResult:
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
            rows.extend((label, t, ve, va, va - ve) for t, ve, va in zip(
                wf.t.tolist(), wf.v_exact.tolist(), wf.v_approx.tolist()))
        return RecipeResult(
            name="waveform-overlay",
            columns=["series", "time_s", "exact_v", "approx_v", "deviation_v"],
            rows=rows,
            axes={"x": {"label": "time", "unit": "s"},
                  "y": {"label": "detector output", "unit": "V"}},
            series=series,
            summary={"rms_deviation": per_ratio},
        )
    return execute


def sn_vs_ratio(cfg: ExperimentConfig):
    """Sampled variance of the signal-dependent shot component against its
    closed form, swept over the LO-to-user ratio for both detector schemes.

    The plan holds both schemes' points at the configured beam geometry,
    their noise budgets, and per ratio the user and the closed-form
    variance 4 P_user sn_coeff (the budget's own coefficient), which the
    run divides by. Where that is 0 or not finite at an end of the
    monotone sweep, the error names the end, or sn_coeff where it fails
    at every end or a budget is out of range."""
    geometry = {k: getattr(cfg.op, k) for k in ("a_e", "fwhm_p", "fwhm_c")}
    points = []
    for op in (defaults.diod_point(**geometry), defaults.bcod_point(**geometry)):
        try:
            points.append((op, noise_budget(op, cfg.chain, cfg.system)))
        except ValueError as exc:
            raise ValidationError("sn_coeff", f"the {op.scheme} point's noise "
                                  f"budget is out of range ({exc})") from exc
    ratios = [float(r) for r in cfg.sweep.values()]
    ends = (("sweep.start", 0), ("sweep.stop", len(ratios) - 1))[:len(ratios)]
    plans = []
    for op, budget in points:
        users, closed = [], []
        for ratio in ratios:
            users.append(defaults.weak_user(ratio, op, f_delta=cfg.f_delta))
            try:
                closed.append(4.0 * users[-1].power(op.a_e) * budget.sn_coeff)
            except OverflowError:  # the user field squared
                closed.append(math.inf)
        failed = [(key, i) for key, i in ends if not 0.0 < closed[i] < math.inf]
        if failed:
            every = len(failed) == len(ends)  # then no ratio of the sweep can run
            key, i = failed[0]
            raise ValidationError("sn_coeff" if every else key, (
                f"the {op.scheme} point's closed-form shot variance is "
                f"{closed[i]:g} V^2 at {ratios[i]:g} dB (sn_coeff "
                f"{budget.sn_coeff:g})" + (" and at every end" if every else "")))
        plans.append((op, users, closed))
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    n_samples = 40_000

    def execute(threads: int) -> RecipeResult:
        rows, series = [], []
        worst, worst_strong = 0.0, 0.0
        for offset, (op, users, closed) in zip((0, 1000), plans):
            label = op.scheme.lower()
            if ratios:
                series.append({"label": label, "filter": {"series": label}})
            for i, (ratio, user, var) in enumerate(zip(ratios, users, closed)):
                wf = simulate_waveform(op, cfg.chain, user, cfg.system, n_samples / fs,
                                       fs, seed=cfg.seed + offset + i)
                measured = float(np.var(wf.sn) * (2.0 * cfg.chain.bw / fs))
                del wf  # the next point's simulation need not hold these arrays
                dev = abs(measured - var) / var
                worst = max(worst, dev)
                if ratio >= 20.0:
                    worst_strong = max(worst_strong, dev)
                rows.append((label, ratio, measured, var))
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
    return execute


def siso_optima(cfg: ExperimentConfig):
    """Single-cell objective sweeps over the coupling and LO powers in the
    dc-shot and thermal regimes, each annotated with its stationary-point
    closed form and checked against the swept grid. The plan holds the four
    grids with W at each point, their stationary points with W at each, and
    the local beam optimum; the run compares each grid with its optimum."""
    wts = NoiseWeights.from_chain(cfg.chain, cfg.system)
    regimes = {
        "dc_shot": NoiseWeights(0.0, wts.dc_shot, 0.0, 0.0),
        "thermal": NoiseWeights(0.0, 0.0, wts.thermal, 0.0),
    }
    sweeps = {
        "coupling_power_w": np.geomspace(1e-3, 1.0, 121),
        "lo_power_w": np.geomspace(1e-8, 1e-3, 121),
    }
    grids = []
    for sweep_name, grid in sweeps.items():
        attr = _SWEEP_TO_POWER[sweep_name]
        for regime, weights in regimes.items():
            values = np.array([normalized_noise(
                with_powers(cfg.op, **{attr: float(x)}), weights, cfg.system)
                for x in grid])
            star = optimal_power(cfg.op, cfg.system, attr, regime)
            w_star = normalized_noise(
                with_powers(cfg.op, **{attr: float(star)}), weights, cfg.system)
            grids.append((f"{sweep_name}:{regime}", grid, values, star, w_star))
    pl = (optimal_pl(cfg.chain, p1_of_lo(cfg.op, cfg.system))
          if cfg.op.scheme == "BCOD" else None)

    def execute(threads: int) -> RecipeResult:
        rows, series, annotations, summary = [], [], [], {}
        for label, grid, values, star, w_star in grids:
            series.append({"label": label, "filter": {"series": label}})
            rows.extend((label, float(x), float(w)) for x, w in zip(grid, values))
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
        if pl is not None:
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
    return execute


def detuning_loss(cfg: ExperimentConfig):
    """Numeric steady-state response versus RF detuning, normalized to the
    on-resonance coherence magnitude. Qualitative: peak location, symmetry,
    and half width. The plan holds the drive stack, the run its solve."""
    detunings = cfg.sweep.values() * 1e3  # kHz -> Hz
    # with delta_p = delta_c = 0 the state at -delta_rf is U rho* U,
    # U = diag(1, -1, 1, -1), of the one at +delta_rf, so |rho21| is even:
    # each |delta_rf| is solved once, the on-resonance reference (entry 0)
    # among them, and indexed back through the inverse
    distinct, inverse = np.unique(
        np.abs(np.append(0.0, 2.0 * math.pi * detunings)), return_inverse=True)
    drive = defaults.drive_for(cfg.op, cfg.system, delta_rf=distinct)

    def execute(threads: int) -> RecipeResult:
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
                float(np.ptp(detunings[~below])) / 2.0 if (~below).any() else 0.0)
        return RecipeResult(
            name="detuning-loss",
            columns=["detuning_hz", "response_norm"],
            rows=rows,
            axes={"x": {"label": "RF detuning", "unit": "Hz"},
                  "y": {"label": "normalized coherence", "unit": "1"}},
            series=[{"label": "numeric", "filter": {}}] if rows else [],
            summary=summary,
        )
    return execute


def rate_vs_m(cfg: ExperimentConfig):
    """Monte-Carlo per-user rate and its lower bound against the sensor
    count, for both combiners, with the conventional-array baseline. The
    plan holds everything but the Monte-Carlo draws: the users' fading,
    the gain table and budget, the scenarios and the baseline bounds."""
    beta = place_users(cfg)
    gains, budget = _gains_budget(cfg)
    sizes = [int(round(m)) for m in cfg.sweep.values()]
    scenarios = [_scenario(cfg, m, beta) for m in sizes]
    rf = mimo.rf_gains(cfg.rf_noise_w)
    baselines = {method: [float(mimo.sinr_lb(sc, *rf, method).rate.mean())
                          for sc in scenarios]
                 for method in ("MRC", "ZF")}

    def execute(threads: int) -> RecipeResult:
        rows, series = [], []
        mc_minus_bound, within_3se = [], True
        for method, bases in baselines.items():
            label = method.lower()
            if sizes:
                series.append({"label": label, "filter": {"series": label}})
            for m, sc, base in zip(sizes, scenarios, bases):
                res = mimo.monte_carlo_rate(sc, gains, budget, method,
                                            threads=threads)
                mc = float(res.rate.mean())
                se = _mean_se(res.standard_error)
                bound = float(res.bound.mean())
                mc_minus_bound.append(mc - bound)
                within_3se = within_3se and not mimo.bound_violation_alarm(res)
                rows.append((label, m, mc, se, bound, base))
        return RecipeResult(
            name="rate-vs-M",
            columns=["series", "n_sensors", "mc_rate_bpshz", "mc_se_bpshz",
                     "bound_bpshz", "baseline_bound_bpshz"],
            rows=rows,
            axes={"x": {"label": "sensors", "unit": "1"},
                  "y": {"label": "per-user rate", "unit": "bps/Hz"}},
            series=series,
            summary={"mc_minus_bound_min": min(mc_minus_bound, default=None),
                     "bound_within_3se": within_3se,
                     "realizations": cfg.realizations},
        )
    return execute


def power_scaling(cfg: ExperimentConfig):
    """Closed-form rate bound when the per-user power is cut as 1/M, against
    the saturating large-array value. All closed form, so the plan is the
    whole result. It divides by the asymptotic rate, which must be finite
    and > 0: the error names ``array.transmit_power`` where that is 0, and
    ``asymptotic_rate`` otherwise."""
    beta = mimo.large_scale_fading(cfg.region_center_m, cfg.f_carrier)
    gains, budget = _gains_budget(cfg)
    asym = mimo.asymptotic_rate(gains, budget, beta, energy=cfg.transmit_power)
    if not 0.0 < asym < math.inf:
        raise ValidationError(
            "array.transmit_power" if cfg.transmit_power <= 0.0 else
            "asymptotic_rate", f"the configured point's asymptotic rate is "
            f"{asym:g} bps/Hz; recipe power-scaling divides by it")
    rows = []
    for m in (int(round(x)) for x in cfg.sweep.values()):
        sc = _scenario(cfg, m, beta, p=cfg.transmit_power / m)
        bound = float(mimo.sinr_lb(sc, gains, budget, "MRC").rate[0])
        rows.append((m, bound, asym))
    bounds = [r[1] for r in rows]
    summary = {"asymptotic_bpshz": asym}
    if bounds:
        summary["final_gap_rel"] = abs(bounds[-1] - asym) / asym
        summary["monotone"] = all(a < b for a, b in zip(bounds, bounds[1:]))
    result = RecipeResult(
        name="power-scaling",
        columns=["n_sensors", "bound_bpshz", "asymptotic_bpshz"],
        rows=rows,
        axes={"x": {"label": "sensors", "unit": "1"},
              "y": {"label": "per-user rate", "unit": "bps/Hz"}},
        series=[{"label": "scaled-power bound", "filter": {}}] if rows else [],
        summary=summary,
        annotations=[{"kind": "asymptote", "rate_bpshz": asym}],
    )
    return lambda threads: result


_SWEEP_TO_POWER = {
    "lo_power_w": "p_lo",
    "probe_power_w": "p0",
    "coupling_power_w": "pc",
}


def rate_vs_parameter(cfg: ExperimentConfig):
    """Rate against one optical power, atomic receiver vs the conventional
    baseline, with the noise-crossover threshold marked when it exists.
    The plan holds everything but the Monte-Carlo draws: the users'
    fading, the scenario, every gain table and budget, and the crossover."""
    attr = _SWEEP_TO_POWER[cfg.sweep.variable]
    beta = place_users(cfg)
    sc = _scenario(cfg, cfg.n_sensors, beta)
    xs = [float(x) for x in cfg.sweep.values()]
    # the baseline and every sweep point share one set of channel draws
    tables = [mimo.rf_gains(cfg.rf_noise_w)] + [
        _gains_budget(cfg, with_powers(cfg.op, **{attr: x})) for x in xs]
    crossover, annotations = {}, []
    if attr in ("p_lo", "p0"):
        try:
            root = mimo.crossover_threshold(cfg.op, cfg.chain, cfg.system,
                                            cfg.rf_noise_w, sweep=attr)
        except mimo.NoCrossing:
            crossover["crossover_w"] = None
        else:
            crossover["crossover_w"] = float(root)
            annotations.append({"kind": "crossover", "variable":
                                cfg.sweep.variable, "power_w": float(root)})

    def execute(threads: int) -> RecipeResult:
        base_mc, *results = mimo.monte_carlo_rates(sc, tables, "MRC", threads)
        base_rate = float(base_mc.rate.mean())
        base_bound = float(base_mc.bound.mean())
        rows = [(x, float(res.rate.mean()), _mean_se(res.standard_error),
                 float(res.bound.mean()), base_rate, base_bound)
                for x, res in zip(xs, results)]
        return RecipeResult(
            name="rate-vs-parameter",
            columns=[cfg.sweep.variable, "mc_rate_bpshz", "mc_se_bpshz",
                     "bound_bpshz", "baseline_rate_bpshz", "baseline_bound_bpshz"],
            rows=rows,
            axes={"x": {"label": cfg.sweep.variable, "unit": "W"},
                  "y": {"label": "per-user rate", "unit": "bps/Hz"}},
            series=([{"label": "atomic", "filter": {}}] if rows else []),
            summary={"baseline_bound_bpshz": base_bound, **crossover},
            annotations=annotations,
        )
    return execute


# name -> plan: plan(config) returns execute(threads) -> RecipeResult
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
