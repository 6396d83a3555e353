"""Design-optimization layer: stationary-point formulas, the Newton probe
search, regime classification, and the report generator."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from raqr import defaults, frontend, optimize
from raqr.frontend import (
    MissingLocalBeam,
    NoiseBudget,
    SmallSignal,
    baseband_gains,
    drive_terms,
    noise_budget,
    p1_of_lo,
    scheme_powers,
    with_powers,
)
from raqr.optimize import (
    DivergentNoise,
    MaxIterations,
    NoiseWeights,
    SaturatedAtZero,
    StationaryPower,
    classify_at,
    classify_regime,
    design_report,
    newton_optimal_p0,
    normalized_noise,
    optimal_pl,
    optimal_power,
)

from conftest import box_points, default_point, rel_err

# The coupling-power stationary point has a floor near gamma2^2 / (2 a23),
# about 0.38 W for the shipped vapor parameters: far outside any sane
# coupling-laser budget, so the formula tests run on a thinned cell with a
# stronger dress transition that pulls the optimum into the milliwatt range.
# The LO power is set a hair above the absorption-balance point (L = S) since
# an interior coupling optimum only exists in that neighborhood.
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


def term_weights(regime):
    # the single NoiseWeights term ``regime`` at unit weight; the stationary
    # points do not depend on the overall scale of the retained weight
    return dataclasses.replace(NoiseWeights(0.0, 0.0, 0.0, 0.0), **{regime: 1.0})


REGIMES = ("dc_shot", "thermal")


def grid_refine(f, lo, hi, n=1000):
    """Log-grid argmin polished by bounded scalar minimization.

    Returns (argmin, hit_edge); a hit edge means the test configuration is
    wrong, not the formula.
    """
    grid = np.geomspace(lo, hi, n)
    vals = np.array([f(x) for x in grid])
    i = int(vals.argmin())
    res = minimize_scalar(
        f,
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, n - 1)]),
        method="bounded",
        options={"xatol": 1e-18},
    )
    return float(res.x), i in (0, n - 1)


class TestNoiseWeights:
    def test_from_chain_positive(self, chain, system):
        w = NoiseWeights.from_chain(chain, system)
        assert w.sig_shot > 0 and w.dc_shot > 0 and w.thermal > 0 and w.projection > 0

    def test_quantum_term_weight(self, chain, system):
        from scipy.constants import c, epsilon_0, hbar

        w = NoiseWeights.from_chain(chain, system)
        expected = (
            2.0 * c * epsilon_0 * chain.bw * hbar**2
            / (system.n_atoms * system.t2 * system.mu34**2)
        )
        assert rel_err(w.projection, expected) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseWeights(-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["sig_shot", "dc_shot", "thermal", "projection"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            dataclasses.replace(NoiseWeights(0.0, 0.0, 0.0, 0.0), **{name: math.nan})


class TestNormalizedNoise:
    def test_constant_term_only(self, diod, system):
        w = NoiseWeights(0.0, 0.0, 0.0, 3.25)
        assert normalized_noise(diod, w, system) == 3.25

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_terms_match_budget(self, scheme, chain, system):
        # Each weighted term, rescaled by half the demodulation gain, is one
        # of the budget entries: the functional is the budget divided by the
        # common signal gain.
        if scheme == "DIOD":
            op = defaults.diod_point(p0=8e-3, pc=4e-2, p_lo=9e-6)
        else:
            op = defaults.bcod_point(p0=8e-3, pc=4e-2, p_lo=2e-6, pl=3e-3)
        wts = NoiseWeights.from_chain(chain, system)
        gains = baseband_gains(op, chain, system)
        budget = noise_budget(op, chain, system, gains=gains)
        c_norm = gains.rho / 2.0
        sn = normalized_noise(op, NoiseWeights(wts.sig_shot, 0, 0, 0), system) * c_norm
        cn = normalized_noise(op, NoiseWeights(0, wts.dc_shot, 0, 0), system) * c_norm
        tn = normalized_noise(op, NoiseWeights(0, 0, wts.thermal, 0), system) * c_norm
        qpn = wts.projection * c_norm
        assert rel_err(sn, budget.n_sn) < 1e-12
        assert rel_err(cn, budget.n_cn) < 1e-12
        assert rel_err(tn, budget.n_tn) < 1e-12
        # both shipped points run with the servo locked, so no projection loss
        assert rel_err(qpn, budget.n_qpn) < 1e-12

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_weight_scale_homogeneity(self, scale):
        system = defaults.cesium_system()
        chain = defaults.default_chain()
        op = defaults.diod_point()
        base = NoiseWeights.from_chain(chain, system)
        scaled = NoiseWeights(base.sig_shot * scale, base.dc_shot * scale, base.thermal * scale, base.projection)
        w0 = normalized_noise(op, base, system)
        w1 = normalized_noise(op, scaled, system)
        assert rel_err(w1 - base.projection, scale * (w0 - base.projection)) < 1e-12

    def test_zero_slope_divergence(self, system):
        op = defaults.diod_point(p_lo=0.0)
        with pytest.raises(DivergentNoise):
            normalized_noise(op, NoiseWeights(0, 1.0, 0, 0), system)

    def test_zero_slope_sn_only_is_finite(self, system):
        op = defaults.diod_point(p_lo=0.0)
        w = normalized_noise(op, NoiseWeights(1.0, 0, 0, 0), system)
        assert math.isfinite(w) and w > 0

    def test_opaque_cell_is_inf(self, system):
        # a microwatt probe is fully absorbed by the shipped cell; grids must
        # be able to step through that region without raising
        op = defaults.diod_point(p0=1e-6)
        assert p1_of_lo(op, system) == 0.0
        w = normalized_noise(op, NoiseWeights(1.0, 0, 0, 0), system)
        assert w == math.inf


class TestStationaryFormulas:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_direct_coupling_optima_match_grid(self, regime):
        op = thin_diod()
        star = optimal_power(op, THIN, "pc", regime)
        w = term_weights(regime)

        def objective(pc):
            return normalized_noise(with_powers(op, pc=pc), w, THIN)

        ref, edge = grid_refine(objective, 1e-6, 1e-1)
        assert not edge
        assert not star.clamped
        assert rel_err(star.power, ref) < 1e-4

    def test_balanced_coupling_optimum_strong_local_beam(self):
        # the balanced closed form is exact only as Pl >> P1; at 100x the
        # residual argmin offset is far below the acceptance resolution
        op = thin_bcod()
        star = optimal_power(op, THIN, "pc", "dc_shot")
        w = term_weights("dc_shot")

        def objective(pc):
            return normalized_noise(with_powers(op, pc=pc), w, THIN)

        ref, edge = grid_refine(objective, 1e-6, 1e-1)
        assert not edge
        assert rel_err(star.power, ref) < 1e-3

    @pytest.mark.parametrize("regime", REGIMES)
    def test_direct_lo_optima_match_grid(self, diod, system, regime):
        star = optimal_power(diod, system, "p_lo", regime)
        w = term_weights(regime)

        def objective(p_lo):
            return normalized_noise(with_powers(diod, p_lo=p_lo), w, system)

        ref, edge = grid_refine(objective, 1e-8, 1e-3)
        assert not edge
        assert rel_err(star.power, ref) < 1e-6

    def test_balanced_lo_optimum_strong_local_beam(self):
        op = thin_bcod()
        star = optimal_power(op, THIN, "p_lo", "dc_shot")
        w = term_weights("dc_shot")

        def objective(p_lo):
            return normalized_noise(with_powers(op, p_lo=p_lo), w, THIN)

        ref, edge = grid_refine(objective, 1e-10, 1e-3)
        assert not edge
        assert rel_err(star.power, ref) < 1e-6

    def test_objective_within_tenth_db_of_grid(self, diod, system):
        # acceptance-style check: objective value at the closed form within
        # 0.1 dB of the polished grid minimum
        star = optimal_power(diod, system, "p_lo", "dc_shot")
        w = term_weights("dc_shot")

        def objective(p_lo):
            return normalized_noise(with_powers(diod, p_lo=p_lo), w, system)

        ref, _ = grid_refine(objective, 1e-8, 1e-3)
        gap_db = 10.0 * math.log10(objective(star.power) / objective(ref))
        assert abs(gap_db) < 0.1

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize(
        "power, box", [("pc", (1e-6, 1e-1)), ("p_lo", (1e-10, 1e-3))])
    def test_derivative_sign_change(self, power, box, regime):
        # a genuine interior minimum: the objective slopes down just below
        # the returned power and up just above it
        op = thin_diod()
        star = optimal_power(op, THIN, power, regime)
        assert box[0] < star.power < box[1]
        w = term_weights(regime)

        def objective(x):
            return normalized_noise(with_powers(op, **{power: x}), w, THIN)

        below = objective(star.power * 0.995)
        at = objective(star.power)
        above = objective(star.power * 1.005)
        assert below > at and above > at

    def test_clamped_at_vanishing_lo(self):
        star = optimal_power(thin_diod(p_lo=1e-12), THIN, "pc", "dc_shot")
        assert star.power == 0.0
        assert star.clamped

    def test_float_protocol(self):
        star = optimal_power(thin_diod(), THIN, "pc", "dc_shot")
        assert float(star) == star.power

    def test_fixed_point_raises_when_load_factor_oscillates(self, bcod, system):
        # a local beam of 10 p1 has load factor 10/11 and one of p1/10 has
        # 1/11; a candidate that answers each with the other never settles,
        # and map(g) - g jumps across zero at 0.5 without a root to bracket
        p1 = p1_of_lo(bcod, system)

        def candidate(gamma):
            return StationaryPower(p1 / 10.0 if gamma > 0.5 else 10.0 * p1)

        with pytest.raises(MaxIterations):
            optimize._fixed_point(bcod, system, candidate,
                                  lambda o, v: with_powers(o, pl=v))

    def test_fixed_point_brackets_a_two_cycle(self, system):
        # here the plain iteration swings between load factors near 0.012
        # and 0.57; the root of map(g) - g on [0, 1] is self-consistent
        op = defaults.bcod_point(p0=3.98e-3, pc=5.76e-2, p_lo=4.91e-8, pl=1.19e-5)
        terms = drive_terms(op, system)
        tried = []

        def candidate(gamma):
            tried.append(gamma)
            return optimize._plo_stationary(terms, system, gamma)

        star = optimize._fixed_point(op, system, candidate,
                                     lambda o, v: with_powers(o, p_lo=v))
        gamma = tried[-1]
        at_star = with_powers(op, p_lo=star.power)
        assert abs(-scheme_powers(at_star, p1_of_lo(at_star, system))[2][2]
                   - gamma) <= 1e-8 * gamma
        assert optimal_power(op, system, "p_lo", "dc_shot") == star

    # without a local beam the balanced receiver has no gain to optimize; at
    # the second point the load-factor search would also reach a fully
    # absorbed probe, where pl / (pl + p1) is 0 / 0
    @pytest.mark.parametrize("overrides", [
        {"pl": 0.0}, {"pl": 0.0, "p_lo": 1e300, "p0": 1e-100}])
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("power", ["pc", "p_lo"])
    def test_balanced_optima_need_a_local_beam(self, system, power, regime,
                                               overrides):
        with pytest.raises(MissingLocalBeam, match="requires pl > 0"):
            optimal_power(defaults.bcod_point(**overrides), system, power, regime)

    @pytest.mark.parametrize("power, regime, bad", [
        ("p0", "dc_shot", "power"), ("pl", "thermal", "power"),
        ("P_LO", "dc_shot", "power"), ("pc", "sig_shot", "regime"),
        ("p_lo", "projection", "regime"), ("pc", "cn", "regime")])
    def test_unknown_power_or_regime_rejected(self, diod, system, power,
                                              regime, bad):
        with pytest.raises(ValueError, match=f"^{bad} must be"):
            optimal_power(diod, system, power, regime)


class TestOneEvaluation:
    """Each reader of P1, kappa and their p0 slopes builds the drive terms
    of a point once."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return drive_terms(*args)

        # optimize reads the terms through frontend.SmallSignal only
        monkeypatch.setattr(frontend, "drive_terms", counted)
        return calls

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_one_build_per_call(self, builds, chain, system, scheme):
        op = default_point(scheme)
        weights = NoiseWeights.from_chain(chain, system)
        for call in (lambda: normalized_noise(op, weights, system),
                     lambda: optimize._dw_dp0(SmallSignal(op, system), weights),
                     lambda: baseband_gains(op, chain, system)):
            builds.clear()
            call()
            assert len(builds) == 1

    def test_design_report_builds(self, builds, chain, system):
        # 486 builds when each quantity built its own terms, 171 when Newton
        # evaluated W and dW/dp0 at each probe power apart
        design_report(defaults.bcod_point(), chain, system)
        assert len(builds) <= 140

    def test_newton_builds_once_per_probe_power(self, builds, bcod, chain, system):
        # the low end (its P1 test reads the same evaluation), the top end,
        # then each step's p0 and its two curvature points (the converged
        # step's p0 alone)
        weights = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(bcod, weights, system, p0_bounds=(1e-3, 1e-1))
        assert not res.boundary and res.iterations > 1
        assert len(builds) == 2 + 3 * (res.iterations - 1) + 1


class TestOptimalPl:
    def test_saturation_headroom(self, chain, diod, system):
        p1 = p1_of_lo(diod, system)
        pl = optimal_pl(chain, p1)
        assert rel_err(pl, chain.i_sat / chain.alpha - p1) < 1e-12

    def test_saturated_at_zero(self, chain, diod, system):
        p1 = p1_of_lo(diod, system)
        tight = dataclasses.replace(chain, i_sat=0.5 * chain.alpha * p1)
        with pytest.raises(SaturatedAtZero):
            optimal_pl(tight, p1)

    def test_noise_strictly_decreasing_in_local_beam(self, chain, system, rng):
        # the local beam only adds signal gain in the balanced scheme, so
        # more of it always helps until the detector saturates
        wts = NoiseWeights.from_chain(chain, system)
        for _ in range(200):
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


def _finite_ratios(op, system):
    """p1 > 0 and p_g^2 kappa^2 a normal float, so every ratio of W is
    finite and carries full precision."""
    p1 = p1_of_lo(op, system)
    if p1 <= 0.0:
        return False
    pg_sq = scheme_powers(op, p1)[0][0]
    return pg_sq * SmallSignal(op, system).kappa ** 2 >= sys.float_info.min


class TestDerivativeProperty:
    SYSTEM = defaults.cesium_system()
    WEIGHTS = NoiseWeights.from_chain(defaults.default_chain(), SYSTEM)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(op=box_points())
    def test_dw_dp0_matches_central_differences(self, op):
        system, wts = self.SYSTEM, self.WEIGHTS
        h = 1e-6 * op.p0
        up, dn = with_powers(op, p0=op.p0 + h), with_powers(op, p0=op.p0 - h)
        assume(all(_finite_ratios(o, system) for o in (op, up, dn)))
        fd = (normalized_noise(up, wts, system)
              - normalized_noise(dn, wts, system)) / (2.0 * h)
        got = optimize._dw_dp0(SmallSignal(op, system), wts)
        # relative to the slope, or to W / p0 where the terms cancel
        scale = max(abs(fd), normalized_noise(op, wts, system) / op.p0)
        assert abs(got - fd) <= 1e-5 * scale


class TestNewtonProbe:
    BOUNDS = (1e-3, 1e-1)

    def test_balanced_matches_grid(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(bcod, wts, system, p0_bounds=self.BOUNDS)
        assert not res.boundary

        def objective(p0):
            return normalized_noise(with_powers(bcod, p0=p0), wts, system)

        ref, edge = grid_refine(objective, *self.BOUNDS, n=2000)
        assert not edge
        assert rel_err(res.power, ref) < 5e-3
        assert res.w_value <= objective(ref) * (1.0 + 1e-12)

    def test_residual_tolerance(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(bcod, wts, system, p0_bounds=self.BOUNDS)
        assert res.residual <= 1e-8 * res.w_value / res.power

    def test_direct_thermal_interior(self, chain, system):
        # with a weak LO the transmitted power peaks inside the bracket, so
        # the thermal-only objective has an interior minimum
        op = defaults.diod_point(p_lo=1e-6)
        wts = NoiseWeights.from_chain(chain, system)
        thermal = NoiseWeights(0.0, 0.0, wts.thermal, wts.projection)
        res = newton_optimal_p0(op, thermal, system, p0_bounds=self.BOUNDS)
        assert not res.boundary

        def objective(p0):
            return normalized_noise(with_powers(op, p0=p0), thermal, system)

        ref, edge = grid_refine(objective, *self.BOUNDS, n=2000)
        assert not edge
        assert rel_err(res.power, ref) < 5e-3

    def test_boundary_flag_when_monotone(self, diod, chain, system):
        # at the shipped direct-detection point the objective keeps falling
        # through the top of the box; the solver must say so, not invent a root
        wts = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(diod, wts, system, p0_bounds=self.BOUNDS)
        assert res.boundary
        assert res.power == self.BOUNDS[1]

    def test_weight_scale_covariance(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        scaled = NoiseWeights(7.5 * wts.sig_shot, 7.5 * wts.dc_shot, 7.5 * wts.thermal, wts.projection)
        r1 = newton_optimal_p0(bcod, wts, system, p0_bounds=self.BOUNDS)
        r2 = newton_optimal_p0(bcod, scaled, system, p0_bounds=self.BOUNDS)
        assert rel_err(r1.power, r2.power) < 1e-9

    def test_rejects_bad_bracket(self, diod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        with pytest.raises(ValueError):
            newton_optimal_p0(diod, wts, system, p0_bounds=(1e-1, 1e-3))

    def test_shrinks_opaque_bracket_end(self, bcod, chain, system):
        # the cell absorbs the probe fully below ~1e-3 W: the low end moves
        # up to the first transmitting candidate instead of failing
        wts = NoiseWeights.from_chain(chain, system)
        assert p1_of_lo(with_powers(bcod, p0=1e-6), system) == 0.0
        res = newton_optimal_p0(bcod, wts, system, p0_bounds=(1e-6, 1e-1))
        assert not res.boundary
        ref = newton_optimal_p0(bcod, wts, system, p0_bounds=self.BOUNDS)
        assert rel_err(res.power, ref.power) < 1e-9

    def test_rejects_wholly_opaque_bracket(self, diod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        with pytest.raises(ValueError, match="across the whole p0 bracket"):
            newton_optimal_p0(diod, wts, system, p0_bounds=(1e-6, 1e-4))

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_matches_design_report(self, chain, system, scheme):
        # the report's p0 entry is this call, at the same bracket; at the
        # direct point both end in the same error
        op = default_point(scheme)
        wts = NoiseWeights.from_chain(chain, system)

        def outcome(call):
            try:
                return call()
            except Exception as exc:
                return type(exc), str(exc)

        direct = outcome(lambda: newton_optimal_p0(
            op, wts, system, p0_bounds=(1e-6, 1e-1)))
        report = outcome(lambda: design_report(
            op, chain, system, p0_bounds=(1e-6, 1e-1)))
        if isinstance(report, tuple):
            assert direct == report
        else:
            entry = report["optima"]["p0_newton"]
            assert entry == {"power_w": direct.power, "w_value": direct.w_value,
                             "iterations": direct.iterations,
                             "residual": direct.residual,
                             "boundary": direct.boundary}


def _budget(n_cn=0.0, n_tn=0.0, n_sn=0.0):
    return NoiseBudget(n_cn=n_cn, n_tn=n_tn, n_qpn=0.0, sn_coeff=n_sn / 2.0)


class TestClassifyRegime:
    def test_thermal_dominant(self):
        assert classify_regime(_budget(n_cn=1.0, n_tn=10.0, n_sn=0.5)) == "thermal"

    def test_dc_shot_dominant(self):
        assert classify_regime(_budget(n_cn=10.0, n_tn=1.0, n_sn=0.5)) == "dc-shot"

    def test_signal_noise_dominant(self):
        assert classify_regime(_budget(n_cn=1.0, n_tn=0.5, n_sn=10.0)) == (
            "user-signal-dependent"
        )

    def test_mixed_within_three_db(self):
        # ratio 1.9 is under 3 dB (2.0x), so no single mechanism dominates
        assert classify_regime(_budget(n_cn=1.9, n_tn=1.0, n_sn=0.1)) == "mixed"

    def test_clear_above_three_db(self):
        assert classify_regime(_budget(n_cn=2.1, n_tn=1.0, n_sn=0.1)) == "dc-shot"

    def test_all_zero_is_mixed(self):
        assert classify_regime(_budget()) == "mixed"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(_budget(n_cn=-1.0))

    def test_shipped_points(self, diod, bcod, chain, system):
        assert classify_at(diod, chain, system) == "thermal"
        assert classify_at(bcod, chain, system) == "user-signal-dependent"


class TestDesignReport:
    def test_json_round_trip(self, bcod, chain, system):
        rep = design_report(bcod, chain, system, p0_bounds=(1e-3, 1e-1))
        blob = json.loads(json.dumps(rep))
        assert blob["scheme"] == "BCOD"
        assert set(blob["optima"]) == {
            "pc_dc_shot", "plo_dc_shot", "pc_thermal", "plo_thermal",
            "pl", "p0_newton",
        }
        assert set(blob["sensitivity"]) == {"p0", "pc", "p_lo", "pl"}

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_optima_in_order(self, chain, system, scheme):
        # the census prints the report's repr, so the key order is output;
        # each stationary entry is the optimal_power call it names
        op = default_point(scheme)
        rep = design_report(op, chain, system, p0_bounds=(1e-3, 1e-1))
        pairs = [("pc", "dc_shot"), ("p_lo", "dc_shot"), ("pc", "thermal"),
                 ("p_lo", "thermal")]
        keys = ["pc_dc_shot", "plo_dc_shot", "pc_thermal", "plo_thermal"]
        tail = ["pl", "p0_newton"] if scheme == "BCOD" else ["p0_newton"]
        assert list(rep["optima"]) == keys + tail
        for key, (power, regime) in zip(keys, pairs):
            star = optimal_power(op, system, power, regime)
            assert rep["optima"][key] == {"power_w": star.power,
                                          "clamped": star.clamped}

    def test_direct_report_omits_local_beam(self, diod, chain, system):
        rep = design_report(diod, chain, system, p0_bounds=(1e-3, 1e-1))
        assert "pl" not in rep["optima"]
        assert "pl" not in rep["sensitivity"]

    def test_sensitivity_entries_are_finite(self, bcod, chain, system):
        rep = design_report(bcod, chain, system, p0_bounds=(1e-3, 1e-1))
        for entry in rep["sensitivity"].values():
            assert math.isfinite(entry["minus_10pct"])
            assert math.isfinite(entry["plus_10pct"])

    def test_bracket_autoshrink(self, bcod, chain, system):
        # the default bracket's low end is fully absorbed; the report must
        # shrink it rather than fail
        rep = design_report(bcod, chain, system)
        assert rep["optima"]["p0_newton"]["power_w"] > 0.0
