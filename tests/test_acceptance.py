"""Acceptance gate: eleven end-to-end checks, one per criterion, each with
its stated tolerance and wall-clock budget. Every test prints a single
summary line on success; a failure carries the offending numbers."""

import dataclasses
import math
import warnings
from time import perf_counter

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from raqr import cli, defaults, mimo
from raqr.atomic import (
    DriveConfig,
    rho21_resonant,
    steady_state_numeric,
    susceptibility,
)
from raqr.frontend import (
    baseband_gains,
    noise_budget,
    p1_of_lo,
    with_powers,
)
from raqr.optimize import (
    NoiseWeights,
    newton_optimal_p0,
    normalized_noise,
    optimal_power,
)
from raqr.waveform import WeakLO, simulate_waveform

from conftest import central_diff, component_sn_variance, log_slope, rel_err
from oracles import chi_prime_resonant, dlnp1

FS = 16 * 75e3


def _finish(num: int, t0: float, cap_s: float, detail: str) -> None:
    elapsed = perf_counter() - t0
    assert elapsed < cap_s, f"criterion {num}: {elapsed:.1f}s over {cap_s}s cap"
    print(f"criterion {num:02d}: PASS {detail} ({elapsed:.1f} s)")


# Interior coupling-power optima need a thinned cell with a stronger dress
# transition and the LO near the absorption-balance point; see the matching
# note in the optimizer tests.
THIN = defaults.cesium_system(n0=1e13, mu23=4e-30)
P0_THIN = 4.64e-4
P_LO_THIN = P0_THIN * 1.322e-4 * 1.001
PC_NOM = 5e-3


def thin_diod(**overrides):
    kw = dict(p0=P0_THIN, pc=PC_NOM, p_lo=P_LO_THIN)
    kw.update(overrides)
    return defaults.diod_point(**kw)


def thin_bcod(**overrides):
    p1 = p1_of_lo(thin_diod(), THIN)
    kw = dict(p0=P0_THIN, pc=PC_NOM, p_lo=P_LO_THIN, pl=100.0 * p1)
    kw.update(overrides)
    return defaults.bcod_point(**kw)


def golden_min(f, lo, hi, n=1000):
    grid = np.geomspace(lo, hi, n)
    vals = np.array([f(x) for x in grid])
    i = int(vals.argmin())
    assert 0 < i < n - 1, "optimum pinned to the search edge"
    res = minimize_scalar(f, bounds=(grid[i - 1], grid[i + 1]),
                          method="bounded", options={"xatol": 1e-18})
    return float(res.x), float(res.fun)


def _gains_budget(op, chain, system):
    g = baseband_gains(op, chain, system)
    return g, noise_budget(op, chain, system, gains=g)


def test_criterion_01_coherence_formula_vs_null_space(system):
    t0 = perf_counter()
    omega_p, omega_c = 4e8, 8e6
    grid = np.geomspace(1e3, 1e9, 200)
    closed = rho21_resonant(omega_p, omega_c, grid, system.gamma2)
    worst = 0.0
    for w, expected in zip(grid, closed):
        rho = steady_state_numeric(
            system, DriveConfig(omega_p=omega_p, omega_c=omega_c, omega_rf=w)
        )
        worst = max(worst, abs(rho.rho21 - expected) / abs(expected))
    assert worst <= 1e-9
    _finish(1, t0, 10.0,
            f"closed form vs 16x16 null space, 200 pts, max rel {worst:.1e}")


def test_criterion_02_derivative_chain(system, diod):
    t0 = perf_counter()
    rng = np.random.default_rng(20240823)
    omega_p, omega_c = 4e8, 8e6

    def im_chi(w):
        r = rho21_resonant(omega_p, omega_c, w, system.gamma2)
        return susceptibility(r, system, omega_p).imag

    worst = 0.0
    for _ in range(100):
        w = 10.0 ** rng.uniform(6, 9)
        fd = central_diff(im_chi, w, 1e-5 * w)
        im, _ = chi_prime_resonant(system, omega_p, omega_c, w)
        worst = max(worst, rel_err(im, fd))
    assert worst <= 1e-6

    # transmitted-power log slopes; the coupling slope is conditioned only
    # near realistic powers, so it gets multiplicative perturbations
    worst_p = 0.0
    for _ in range(50):
        op = with_powers(diod, p0=10 ** rng.uniform(-3, -1),
                         pc=10 ** rng.uniform(-3, -1),
                         p_lo=10 ** rng.uniform(-8, -4))
        d_lo, _, d_p0 = dlnp1(op, system)
        fd_lo = log_slope(
            lambda v: math.log(p1_of_lo(with_powers(op, p_lo=v), system)
                               / op.p0), op.p_lo)
        fd_p0 = log_slope(
            lambda v: math.log(p1_of_lo(with_powers(op, p0=v), system)),
            op.p0)
        worst_p = max(worst_p, rel_err(d_lo, fd_lo), rel_err(d_p0, fd_p0))
    for _ in range(50):
        op = with_powers(diod, p0=diod.p0 * 2.0 ** rng.uniform(-1, 1),
                         pc=diod.pc * 2.0 ** rng.uniform(-1, 1),
                         p_lo=diod.p_lo * 2.0 ** rng.uniform(-1, 1))
        _, d_pc, _ = dlnp1(op, system)
        fd_pc = log_slope(
            lambda v: math.log(p1_of_lo(with_powers(op, pc=v), system)
                               / op.p0), op.pc)
        worst_p = max(worst_p, rel_err(d_pc, fd_pc))
    assert worst_p <= 1e-6
    _finish(2, t0, 5.0,
            f"dispersion slope rel {worst:.1e}, power slopes rel {worst_p:.1e}")


def test_criterion_03_waveform_overlay(system, diod, bcod, chain):
    t0 = perf_counter()
    quiet = dataclasses.replace(chain, sigma_sq_sn=0.0)
    at_20db = []
    for op in (diod, bcod):
        devs = []
        for ratio in (0.0, 10.0, 20.0):
            user = defaults.weak_user(ratio, op)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakLO)
                wf = simulate_waveform(op, quiet, user, system, 2e-3, FS,
                                       seed=1)
            devs.append(float(np.linalg.norm(wf.v_exact - wf.v_approx)
                              / np.linalg.norm(wf.v_exact)))
        assert devs[2] <= 0.01
        assert devs[0] > devs[1] > devs[2]
        at_20db.append(devs[2])
    _finish(3, t0, 60.0,
            "RMS at 20 dB: " + ", ".join(f"{d:.2%}" for d in at_20db)
            + "; deviation monotone in ratio")


def test_criterion_04_shot_variance(system, diod, bcod, chain):
    t0 = perf_counter()
    n = 100_000
    worst = 0.0
    for op in (diod, bcod):
        user = defaults.weak_user(20.0, op)
        wf = simulate_waveform(op, chain, user, system, n / FS, FS, seed=7)
        measured = float(np.var(wf.sn) * (2.0 * chain.bw / FS))
        closed = component_sn_variance(op, chain, system, user)
        worst = max(worst, abs(measured - closed) / closed)
    assert worst <= 0.05
    _finish(4, t0, 60.0,
            f"band-referred shot variance vs closed form, worst {worst:.2%}")


def test_criterion_05_stationary_points(chain, system, bcod):
    t0 = perf_counter()

    def gap_db(op, sys_, power, regime, lo, hi):
        # the optimum of the ``regime`` term alone, at unit weight
        star = optimal_power(op, sys_, power, regime)
        assert not star.clamped
        weights = dataclasses.replace(NoiseWeights(0.0, 0.0, 0.0, 0.0),
                                      **{regime: 1.0})

        def f(x):
            return normalized_noise(with_powers(op, **{power: x}), weights,
                                    sys_)
        _, w_min = golden_min(f, lo, hi)
        return abs(10.0 * math.log10(f(float(star)) / w_min))

    diod_thin = thin_diod()
    diod_real = defaults.diod_point()
    worst_diod = max(gap_db(op, sys_, power, regime, lo, hi)
                     for power, op, sys_, lo, hi in (
                         ("pc", diod_thin, THIN, 1e-6, 1e-1),
                         ("p_lo", diod_real, system, 1e-8, 1e-3))
                     for regime in ("dc_shot", "thermal"))
    assert worst_diod <= 0.1

    bcod_thin = thin_bcod()
    assert bcod_thin.pl >= 100.0 * p1_of_lo(bcod_thin, THIN)
    worst_bcod = max(gap_db(bcod_thin, THIN, power, regime, lo, hi)
                     for power, lo, hi in (("pc", 1e-6, 1e-1),
                                           ("p_lo", 1e-10, 1e-3))
                     for regime in ("dc_shot", "thermal"))
    assert worst_bcod <= 0.5

    wts = NoiseWeights.from_chain(chain, system)
    res = newton_optimal_p0(bcod, wts, system, p0_bounds=(1e-3, 1e-1))
    assert not res.boundary

    def w_of_p0(x):
        return normalized_noise(with_powers(bcod, p0=x), wts, system)

    grid_arg, _ = golden_min(w_of_p0, 1e-3, 1e-1, n=2000)
    newton_rel = abs(res.power - grid_arg) / grid_arg
    assert newton_rel <= 5e-3
    _finish(5, t0, 120.0,
            f"direct gaps <= {worst_diod:.3f} dB, balanced <= "
            f"{worst_bcod:.3f} dB, probe argmin rel {newton_rel:.1e}")


def test_criterion_06_local_beam_monotonicity(chain, system):
    t0 = perf_counter()
    rng = np.random.default_rng(6)
    wts = NoiseWeights.from_chain(chain, system)
    for _ in range(1000):
        op = defaults.bcod_point(
            p0=10 ** rng.uniform(-3, -1.4),
            pc=10 ** rng.uniform(-3, -1),
            p_lo=10 ** rng.uniform(-7, -5),
            pl=10 ** rng.uniform(-6, -2),
        )
        h = 1e-4 * op.pl
        w_up = normalized_noise(with_powers(op, pl=op.pl + h), wts, system)
        w_dn = normalized_noise(with_powers(op, pl=op.pl - h), wts, system)
        assert w_up < w_dn
    _finish(6, t0, 5.0,
            "objective strictly decreasing in local beam, 1000 random points")


def test_criterion_07_array_term_moments(chain, system, bcod):
    t0 = perf_counter()
    gains, budget = _gains_budget(bcod, chain, system)
    worst = {"MRC": 0.0, "ZF": 0.0}
    for m, k in ((32, 4), (100, 10)):
        sc = defaults.default_scenario(m, k, n_realizations=100_000, seed=3)
        for method in ("MRC", "ZF"):
            mc = mimo.monte_carlo_terms(sc, gains, budget, method)
            cf = mimo.closed_form_moments(sc, gains, budget, method)
            for key in cf:
                tol = 0.05 if (method == "ZF" and key == "sn") else 0.03
                if np.all(cf[key] > 0):
                    err = float(np.max(np.abs(mc[key] - cf[key]) / cf[key]))
                    assert err <= tol, (m, k, method, key, err)
                    worst[method] = max(worst[method], err)
                else:
                    # exact interference cancellation: the ZF coupling is
                    # constructed as the identity, so nothing leaks
                    assert np.all(mc[key] == 0.0), (m, k, method, key)
    _finish(7, t0, 300.0,
            f"five moments vs closed forms at 1e5 draws, worst "
            f"mrc {worst['MRC']:.2%} / zf {worst['ZF']:.2%}")


def test_criterion_08_rate_bounds(chain, system, bcod):
    t0 = perf_counter()
    gains, budget = _gains_budget(bcod, chain, system)
    gap_at_100 = {}
    for method in ("MRC", "ZF"):
        for m in (16, 32, 64, 128, 256, 100):
            sc = defaults.default_scenario(m, 10, n_realizations=10_000,
                                           seed=7)
            res = mimo.monte_carlo_rate(sc, gains, budget, method)
            # the sampled estimate fluctuates around the bound when the
            # bound is tight; three standard errors is the decision band
            assert np.all(res.rate + 3.0 * res.standard_error >= res.bound), (
                method, m)
            if m == 100:
                gap = abs(float(res.rate.mean()) - float(res.bound.mean()))
                gap_at_100[method] = gap / float(res.bound.mean())
                assert gap_at_100[method] <= 0.15
    _finish(8, t0, 600.0,
            "sampled rate >= bound within 3 SE for both combiners; gap at "
            f"M=100: mrc {gap_at_100['MRC']:.2%}, zf {gap_at_100['ZF']:.2%}")


def test_criterion_09_power_scaling(chain, system, bcod):
    t0 = perf_counter()
    gains, budget = _gains_budget(bcod, chain, system)
    beta = mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
    asym = mimo.asymptotic_rate(gains, budget, beta)
    rates = []
    for m in (64, 256, 1024, 4096):
        sc = defaults.default_scenario(m, 10, p=1.0 / m)
        rates.append(float(mimo.sinr_lb(sc, gains, budget, "MRC").rate[0]))
    gaps = [abs(r - asym) / asym for r in rates]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05
    _finish(9, t0, 120.0,
            f"1/M power scaling: monotone, gap at M=4096 {gaps[-1]:.2%} "
            f"of saturating rate {asym:.4f}")


def test_criterion_10_crossover(chain, system, bcod):
    t0 = perf_counter()
    sigma = 3e-12
    sc = defaults.default_scenario(100, 10)
    rf_rate = float(mimo.sinr_lb(sc, *mimo.rf_gains(sigma), "MRC").rate.mean())
    intervals = {}
    for attr, grid in (("p_lo", np.geomspace(1e-7, 1e-4, 41)),
                       ("p0", np.geomspace(1e-4, 1e-1, 41))):
        root = mimo.crossover_threshold(bcod, chain, system, sigma,
                                        sweep=attr)

        def raq_rate(x):
            gains, budget = _gains_budget(with_powers(bcod, **{attr: x}),
                                          chain, system)
            return float(mimo.sinr_lb(sc, gains, budget, "MRC").rate.mean())

        diff = np.array([raq_rate(float(x)) for x in grid]) - rf_rate
        flips = np.nonzero(np.diff(np.sign(diff)))[0]
        assert flips.size, f"{attr}: rate curves never intersect on the grid"
        containing = [i for i in flips if grid[i] <= root <= grid[i + 1]]
        assert containing, (
            f"{attr}: bisection root {root:.4e} outside every intersection "
            f"interval")
        intervals[attr] = (root, grid[containing[0]], grid[containing[0] + 1])
    detail = "; ".join(
        f"{k} root {v[0]:.3e} in [{v[1]:.3e}, {v[2]:.3e}]"
        for k, v in intervals.items())
    _finish(10, t0, 300.0, detail)


def test_criterion_11_thread_determinism(tmp_path, capsys):
    t0 = perf_counter()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "recipe: rate-vs-M\n"
        "array:\n  realizations: 1000\n"
        "sweep:\n  variable: n_sensors\n  start: 16\n  stop: 32\n"
        "  points: 2\n  scale: log\n",
        encoding="utf-8",
    )
    blobs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        rc = cli.main(["run", "rate-vs-M", "--config", str(cfg),
                       "--out", str(tmp_path / sub), "--threads", threads])
        assert rc == 0
        blobs.append((tmp_path / sub / "rate-vs-M.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    _finish(11, t0, 120.0,
            f"recipe CSV byte-identical at 1 vs 4 threads "
            f"({len(blobs[0])} bytes)")


def test_rate_vs_parameter_thread_determinism(tmp_path, capsys):
    # the sweep shares one set of draws across every gain table; the thread
    # count must not change the CSV either
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "recipe: rate-vs-parameter\n"
        "array:\n  realizations: 300\n"
        "sweep:\n  variable: lo_power_w\n  start: 1.0e-07\n"
        "  stop: 1.0e-04\n  points: 3\n  scale: log\n",
        encoding="utf-8",
    )
    blobs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        rc = cli.main(["run", "rate-vs-parameter", "--config", str(cfg),
                       "--out", str(tmp_path / sub), "--threads", threads])
        assert rc == 0
        blobs.append((tmp_path / sub / "rate-vs-parameter.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0].count(b"\n") == 5  # fingerprint, header, three points
    assert blobs[0] == blobs[1]
