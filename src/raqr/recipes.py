"""Named experiments: each recipe turns a validated config into one
figure-analogue (tidy CSV, manifest, JSON summary). A recipe plans, then
executes: ``RECIPES[name](config)`` applies the rules the recipe needs,
computes everything deterministic and returns ``execute(threads)``, which
does only the random draws (Monte Carlo, noisy waveforms); a recipe that
draws nothing plans its whole result. A result holds only what the recipe
computed: ``emit_plotdata`` alone names the artifacts and lists the curves.

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
from .config import MAX_SENSORS, ExperimentConfig, ValidationError, fingerprint
from .constants import hbar
from .frontend import LN2, baseband_gains, noise_budget, p1_of_lo, with_powers
from .optimize import (
    NoiseWeights,
    OpaqueGrid,
    normalized_noise,
    optimal_pl,
    optimal_power,
)
from .waveform import MIN_SAMPLES_PER_BEAT, WeakLO, trough_current, simulate_waveform


class RecipeError(Exception):
    """A module failure inside a recipe; the original is the __cause__."""

    def __init__(self, recipe: str, cause: BaseException):
        self.recipe = recipe
        super().__init__(f"recipe {recipe}: {cause}")


@dataclass
class RecipeResult:
    """What a recipe computed; ``emit_plotdata`` lays it out as artifacts."""
    columns: list[str]
    rows: list[tuple]
    axes: dict
    label: str | None = None  # the one curve of a CSV with no series column
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


def emit_plotdata(result: RecipeResult, config: ExperimentConfig) -> dict:
    """Write ``config.recipe``'s CSV (none without rows), plot manifest and
    scalar summary into ``config.output_dir``; returns {kind: path}.

    The manifest lists one curve per label of the CSV's ``series`` column,
    in the order the rows first give it, each filtering on its label; a
    CSV without that column is the one curve ``result.label``. No rows, no
    curve. Both JSON files are strict JSON: a NaN or infinity raises
    ValueError before any file is touched. Each artifact is written as a
    new file: the previous run's file at that path is removed first, so a
    hard link or symlink there is replaced, not written through, and a run
    without rows leaves no CSV behind. Rewriting a file in place truncates it,
    which stalls tens of ms per file on ext4 (``auto_da_alloc``)."""
    name, fp, out = config.recipe, fingerprint(config), Path(config.output_dir)
    csv_name = f"{name}.csv" if result.rows else None
    if "series" in result.columns:
        col = result.columns.index("series")
        series = [{"label": label, "filter": {"series": label}}
                  for label in dict.fromkeys(row[col] for row in result.rows)]
    else:
        series = [{"label": result.label, "filter": {}}] if result.rows else []
    manifest = {
        "figure": name,
        "fingerprint": fp,
        "csv": csv_name,
        "axes": result.axes,
        "series": series,
        "annotations": result.annotations,
    }
    summary = {"recipe": name, "fingerprint": fp, "seed": config.seed}
    summary.update(result.summary)
    texts = {kind: json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
             for kind, doc in (("manifest", manifest), ("summary", summary))}
    if csv_name is not None:
        lines = [f"# fingerprint={fp}", ",".join(result.columns)]
        lines.extend(_csv_lines(result.rows))

    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out / f"{name}.csv"
    csv_path.unlink(missing_ok=True)
    if csv_name is not None:
        paths["csv"] = csv_path
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for kind, text in texts.items():
        paths[kind] = out / f"{name}_{kind}.json"
        paths[kind].unlink(missing_ok=True)
        paths[kind].write_text(text, encoding="utf-8")
    return paths


def check_recipe(config: ExperimentConfig):
    """Raise ValidationError unless ``config.recipe`` is a recipe whose plan
    builds; return the plan's ``execute(threads)``. ``raqr validate`` and
    ``run_recipe`` each call this once. Only a recipe that reads a sweep
    judges it: over a variable ``RECIPE_SWEEPS`` lists for it, accepted by
    ``SweepSpec.values``, and finite. A detuning must stay finite in rad/s,
    a sensor count in [1, ``MAX_SENSORS``] and a ratio's factor
    10 ** (-ratio / 20) on the LO field finite and nonzero; the sweep is
    monotone, so its ends bound them. Each plan checks the rest of what it
    reads, naming a key where it can; any other exception while planning is
    a ValidationError on ``recipe``."""
    name, sweep = config.recipe, config.sweep
    if name is None:
        raise ValidationError("recipe", "no recipe selected")
    if name not in RECIPES:
        raise ValidationError(
            "recipe", f"unknown recipe {name!r}; see `raqr list-recipes`")
    reads = RECIPE_SWEEPS[name]
    if reads and sweep.variable not in reads:
        raise ValidationError("sweep.variable", f"recipe {name} sweeps "
                              f"{' or '.join(reads)}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = sweep.values() if reads else np.empty(0)  # no sweep read, none judged
        if sweep.variable == "detuning_khz":  # in rad/s, as detuning_loss drives
            values = 2.0 * math.pi * (values * 1e3)
    if not np.isfinite(values).all():
        raise ValidationError(
            "sweep.start" if not np.isfinite(values[0]) else "sweep.stop",
            f"the sweep from {sweep.start:g} to {sweep.stop:g} overflows")
    ends = (("sweep.start", sweep.start), ("sweep.stop", sweep.stop))[:len(values)]
    for key, value in ends if sweep.variable == "ratio_db" else ():
        try:  # as defaults.weak_user scales the LO field
            factor = 10.0 ** (-value / 20.0)
        except OverflowError:
            factor = math.inf
        if not 0.0 < factor < math.inf:
            raise ValidationError(key, f"a ratio of {value:g} dB scales the "
                                  f"user field by {factor:g}")
    for key, value in ends if sweep.variable == "n_sensors" else ():
        count = int(round(value))
        if not 1 <= count <= MAX_SENSORS:
            raise ValidationError(key, f"rounds to {count} sensors, outside "
                                  f"[1, {MAX_SENSORS}]")
    try:
        return RECIPES[name](config)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError("recipe", f"{name} cannot plan this config: "
                              f"{type(exc).__name__}: {exc}") from exc


def run_recipe(config: ExperimentConfig, threads: int = 1) -> dict:
    """Check ``config`` and build its plan, execute it once and write its
    artifacts with ``emit_plotdata``; returns {kind: path}. A failure past
    the plan is a RecipeError."""
    execute = check_recipe(config)
    try:
        # a NaN or infinity in the JSON artifacts fails the run here
        return emit_plotdata(execute(threads), config)
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


# the configured point's powers, which a recipe that reads its gains needs
_POINT = ("operating_point.lo_power_w", "operating_point.probe_power_w",
          "operating_point.local_beam_power_w")


def _require(cfg: ExperimentConfig, *keys: str) -> None:
    """Raise ValidationError on the first rule below, of those ``keys``
    name, that the config fails; each message says why the recipe needs
    it. A divisor is formed with ``*``, as ``**`` would raise on overflow."""
    op, system, chain, name = cfg.op, cfg.system, cfg.chain, cfg.recipe
    mu23 = system.mu23 / hbar
    for key, fails, message in (
            ("operating_point.lo_power_w", op.p_lo <= 0.0,
             f"must be > 0 for recipe {name}, which needs an RF LO drive"),
            ("operating_point.probe_power_w", op.p0 <= 0.0,
             f"must be > 0 for recipe {name}, which needs a probe beam"),
            ("operating_point.local_beam_power_w", op.scheme == "BCOD" and op.pl <= 0.0,
             f"must be > 0 for recipe {name} with balanced detection, which "
             "needs a local beam"),
            ("detection.temperature_k", chain.temperature <= 0.0,
             f"must be > 0 for recipe {name}, whose thermal regime has no "
             "noise to minimize without it"),
            ("atomic.dephasing_time_us",
             system.n_atoms * system.t2 * (system.mu34 * system.mu34) == 0.0,
             f"N_atoms T2 mu34^2 is 0, and recipe {name} divides by it"),
            ("detection.quantum_efficiency",
             2.0 * chain.z0 * (chain.alpha * chain.alpha) == 0.0,
             f"z0 alpha^2 is 0, and recipe {name} divides by it"),
            ("atomic.dressing_dipole_cm", mu23 * mu23 * 8.0 * LN2 == 0.0,
             f"the coupling Rabi coefficient is 0, and recipe {name} divides by it")):
        if fails and key in keys:
            raise ValidationError(key, message)


# --------------------------------------------------------------------------
# recipes


def waveform_overlay(cfg: ExperimentConfig):
    """Exact vs linearized detector waveforms at a few LO-to-user ratios,
    noise generators off so the deviation column is pure model error and
    the plan, closed form, is the whole result. It fails where a relative
    deviation is not finite, which strict JSON cannot hold."""
    _require(cfg, *_POINT)
    quiet = dataclasses.replace(cfg.chain, sigma_sq_sn=0.0)
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    duration = 150.0 / cfg.f_delta  # 150 beat periods
    rows, per_ratio = [], {}
    for ratio in map(float, cfg.sweep.values()):
        user = defaults.weak_user(ratio, cfg.op, f_delta=cfg.f_delta)
        with warnings.catch_warnings():
            # sweeping through weak ratios is this figure's purpose
            warnings.simplefilter("ignore", WeakLO)
            wf = simulate_waveform(cfg.op, quiet, user, cfg.system,
                                   duration, fs, seed=cfg.seed)
        label = f"ratio_{ratio:.12g}db"
        dev = float(np.linalg.norm(wf.v_exact - wf.v_approx)
                    / np.linalg.norm(wf.v_exact))
        if not math.isfinite(dev):
            raise ValueError(f"the relative deviation at {ratio:g} dB is {dev:g}")
        per_ratio[label] = dev
        rows.extend((label, t, ve, va, va - ve) for t, ve, va in zip(
            wf.t.tolist(), wf.v_exact.tolist(), wf.v_approx.tolist()))
    result = RecipeResult(
        columns=["series", "time_s", "exact_v", "approx_v", "deviation_v"],
        rows=rows,
        axes={"x": {"label": "time", "unit": "s"},
              "y": {"label": "detector output", "unit": "V"}},
        summary={"rms_deviation": per_ratio},
    )
    return lambda threads: result


def sn_vs_ratio(cfg: ExperimentConfig):
    """Sampled variance of the signal-dependent shot component against its
    closed form, swept over the LO-to-user ratio for both detector schemes.

    The plan holds both schemes' points at the configured beam geometry,
    their noise budgets, and per ratio the user and the closed-form
    variance 4 P_user sn_coeff (the budget's own coefficient), which the
    run divides by. Where that is 0 or not finite at an end of the
    monotone sweep, the error names the end, or sn_coeff where it fails
    at every end or a budget is out of range. It rejects a saturation
    current the run's current reaches at a beat's trough."""
    _require(cfg, "atomic.dephasing_time_us")
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
    for op, users, _ in plans:  # sample 8 of each 16-sample beat is a trough
        peak = trough_current(op, cfg.chain, cfg.system, [u.u_x for u in users])
        if (peak > cfg.chain.i_sat).any():
            raise ValidationError("detection.saturation_current_ma", (
                f"the {op.scheme} point's photocurrent reaches {peak.max():.3e} A, "
                f"above i_sat {cfg.chain.i_sat:.3e} A"))
    fs = MIN_SAMPLES_PER_BEAT * cfg.f_delta
    n_samples = 40_000

    def execute(threads: int) -> RecipeResult:
        rows, worst, worst_strong = [], 0.0, 0.0
        # DIOD point i draws seed + i, and BCOD's seeds start past them all
        for offset, (op, users, closed) in zip((0, max(1000, len(ratios))), plans):
            label = op.scheme.lower()
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
            columns=["series", "ratio_db", "mc_variance_v2", "closed_form_v2"],
            rows=rows,
            axes={"x": {"label": "LO-to-user field ratio", "unit": "dB"},
                  "y": {"label": "in-band shot variance", "unit": "V^2"}},
            summary={"max_rel_deviation": worst,
                     "max_rel_deviation_20db_up": worst_strong,
                     "samples_per_point": n_samples},
        )
    return execute


def siso_optima(cfg: ExperimentConfig):
    """Single-cell objective sweeps over the coupling and LO powers in the
    dc-shot and thermal regimes, each annotated with its stationary-point
    closed form and checked against the swept grid. It draws nothing, so
    the plan is the whole result. It reads no configured sweep, and fails
    where the normalized noise is infinite over a whole grid."""
    _require(cfg, *_POINT, "detection.temperature_k", "atomic.dephasing_time_us",
             "detection.quantum_efficiency", "atomic.dressing_dipole_cm")
    wts = NoiseWeights.from_chain(cfg.chain, cfg.system)
    regimes = {
        "dc_shot": NoiseWeights(0.0, wts.dc_shot, 0.0, 0.0),
        "thermal": NoiseWeights(0.0, 0.0, wts.thermal, 0.0),
    }
    sweeps = {
        "coupling_power_w": np.geomspace(1e-3, 1.0, 121),
        "lo_power_w": np.geomspace(1e-8, 1e-3, 121),
    }
    rows, annotations, summary = [], [], {}
    for sweep_name, grid in sweeps.items():
        attr = _SWEEP_TO_POWER[sweep_name]
        for regime, weights in regimes.items():
            label = f"{sweep_name}:{regime}"
            values = np.array([normalized_noise(
                with_powers(cfg.op, **{attr: float(x)}), weights, cfg.system)
                for x in grid])
            star = optimal_power(cfg.op, cfg.system, attr, regime)
            w_star = normalized_noise(
                with_powers(cfg.op, **{attr: float(star)}), weights, cfg.system)
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
    if cfg.op.scheme == "BCOD":
        pl = optimal_pl(cfg.chain, p1_of_lo(cfg.op, cfg.system))
        summary["local_beam_w"] = float(pl)
        annotations.append({"kind": "optimum", "series": "local_beam",
                            "power_w": float(pl)})
    result = RecipeResult(
        columns=["series", "power_w", "objective"],
        rows=rows,
        axes={"x": {"label": "swept power", "unit": "W"},
              "y": {"label": "normalized noise", "unit": "W"}},
        summary=summary,
        annotations=annotations,
    )
    return lambda threads: result


def detuning_loss(cfg: ExperimentConfig):
    """Numeric steady-state response versus RF detuning, normalized to the
    on-resonance coherence magnitude. Qualitative: peak location, symmetry,
    and half width. It draws nothing: the plan, its solve too, is the result.
    It fails where a response is not finite, which strict JSON cannot hold."""
    _require(cfg, *_POINT[:2])  # it reads no gains, so needs no local beam
    detunings = cfg.sweep.values() * 1e3  # kHz -> Hz
    # with delta_p = delta_c = 0 the state at -delta_rf is U rho* U,
    # U = diag(1, -1, 1, -1), of the one at +delta_rf, so |rho21| is even:
    # each |delta_rf| is solved once, the on-resonance reference (entry 0)
    # among them, and indexed back through the inverse
    distinct, inverse = np.unique(
        np.abs(np.append(0.0, 2.0 * math.pi * detunings)), return_inverse=True)
    drive = defaults.drive_for(cfg.op, cfg.system, delta_rf=distinct)
    mag = np.abs(steady_state_numeric(cfg.system, drive).rho21)[inverse]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        response = mag[1:] / mag[0]
    if not np.isfinite(response).all():
        raise ValueError(f"the on-resonance |rho21| is {mag[0]:g}; a response is not finite")
    rows = list(zip(detunings.tolist(), response.tolist()))
    summary = {}
    if len(response):
        peak = int(np.argmax(response))
        summary["peak_detuning_hz"] = float(detunings[peak])
        summary["peak_response"] = float(response[peak])
        below = response <= 0.5
        summary["half_width_hz"] = (
            float(np.ptp(detunings[~below])) / 2.0 if (~below).any() else 0.0)
    result = RecipeResult(
        columns=["detuning_hz", "response_norm"],
        rows=rows,
        axes={"x": {"label": "RF detuning", "unit": "Hz"},
              "y": {"label": "normalized coherence", "unit": "1"}},
        label="numeric",
        summary=summary,
    )
    return lambda threads: result


def rate_vs_m(cfg: ExperimentConfig):
    """Monte-Carlo per-user rate and its lower bound against the sensor
    count, for both combiners, with the conventional-array baseline. The
    plan holds everything but the Monte-Carlo draws: the users' fading,
    the gain table and budget, the scenarios and the baseline bounds."""
    sizes = [int(round(m)) for m in cfg.sweep.values()]
    for key, m in zip(("sweep.start", "sweep.stop"), sizes[:1] + sizes[-1:]):
        if m <= cfg.n_users:  # zero forcing needs more sensors than users
            raise ValidationError(key, f"rounds to {m} sensors; recipe rate-vs-M "
                                  f"needs at least {cfg.n_users + 1}")
    _require(cfg, *_POINT, "atomic.dephasing_time_us")
    beta = place_users(cfg)
    gains, budget = _gains_budget(cfg)
    scenarios = [_scenario(cfg, m, beta) for m in sizes]
    rf = mimo.rf_gains(cfg.rf_noise_w)
    baselines = {method: [float(mimo.sinr_lb(sc, *rf, method).rate.mean())
                          for sc in scenarios]
                 for method in ("MRC", "ZF")}

    def execute(threads: int) -> RecipeResult:
        rows, mc_minus_bound, within_3se = [], [], True
        for method, bases in baselines.items():
            label = method.lower()
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
            columns=["series", "n_sensors", "mc_rate_bpshz", "mc_se_bpshz",
                     "bound_bpshz", "baseline_bound_bpshz"],
            rows=rows,
            axes={"x": {"label": "sensors", "unit": "1"},
                  "y": {"label": "per-user rate", "unit": "bps/Hz"}},
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
    ``asymptotic_rate`` otherwise. It fails where its last bound is not finite."""
    _require(cfg, *_POINT, "atomic.dephasing_time_us")
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
    if bounds and not math.isfinite(bounds[-1]):
        raise ValueError(f"the bound at {rows[-1][0]} sensors is {bounds[-1]:g} bps/Hz")
    summary = {"asymptotic_bpshz": asym}
    if bounds:
        summary["final_gap_rel"] = abs(bounds[-1] - asym) / asym
        summary["monotone"] = all(a < b for a, b in zip(bounds, bounds[1:]))
    result = RecipeResult(
        columns=["n_sensors", "bound_bpshz", "asymptotic_bpshz"],
        rows=rows,
        axes={"x": {"label": "sensors", "unit": "1"},
              "y": {"label": "per-user rate", "unit": "bps/Hz"}},
        label="scaled-power bound",
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
    swept = f"operating_point.{cfg.sweep.variable}"  # each point sets it
    _require(cfg, *(key for key in _POINT if key != swept), "atomic.dephasing_time_us")
    beta = place_users(cfg)
    sc = _scenario(cfg, cfg.n_sensors, beta)
    xs = [float(x) for x in cfg.sweep.values()]
    # the baseline and every sweep point share one set of channel draws
    tables = [mimo.rf_gains(cfg.rf_noise_w)] + [
        _gains_budget(cfg, with_powers(cfg.op, **{attr: x})) for x in xs]
    crossover, annotations = {}, []
    if attr in ("p_lo", "p0"):
        _require(cfg, "detection.quantum_efficiency")  # it builds noise weights
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
            columns=[cfg.sweep.variable, "mc_rate_bpshz", "mc_se_bpshz",
                     "bound_bpshz", "baseline_rate_bpshz", "baseline_bound_bpshz"],
            rows=rows,
            axes={"x": {"label": cfg.sweep.variable, "unit": "W"},
                  "y": {"label": "per-user rate", "unit": "bps/Hz"}},
            label="atomic",
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

# the one list of sweep variables: those each recipe's plan reads
RECIPE_SWEEPS = {
    "waveform-overlay": ("ratio_db",),
    "sn-vs-ratio": ("ratio_db",),
    "siso-optima": (),  # sweeps its own fixed power grids
    "detuning-loss": ("detuning_khz",),
    "rate-vs-M": ("n_sensors",),
    "power-scaling": ("n_sensors",),
    "rate-vs-parameter": tuple(_SWEEP_TO_POWER),
}
