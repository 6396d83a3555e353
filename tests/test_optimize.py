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

from raqr import defaults, optimize
from raqr.frontend import (
    NoiseBudget,
    baseband_gains,
    kappa_of_point,
    noise_budget,
    p1_of_lo,
    scheme_powers,
    sn_reference_term,
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
    optimal_pc_cn,
    optimal_pc_tn,
    optimal_pl,
    optimal_plo_cn,
    optimal_plo_tn,
)

from conftest import rel_err

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


def term_weights(term):
    # single-term weight vectors; the stationary points do not depend on the
    # overall scale of the retained weight
    return {
        "sn": NoiseWeights(1.0, 0.0, 0.0, 0.0),
        "cn": NoiseWeights(0.0, 1.0, 0.0, 0.0),
        "tn": NoiseWeights(0.0, 0.0, 1.0, 0.0),
    }[term]


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
        assert rel_err(sn, sn_reference_term(gains, chain)) < 1e-12
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
    @pytest.mark.parametrize(
        "maker, solver, term",
        [
            (thin_diod, optimal_pc_cn, "cn"),
            (thin_diod, optimal_pc_tn, "tn"),
        ],
    )
    def test_direct_coupling_optima_match_grid(self, maker, solver, term):
        op = maker()
        star = solver(op, THIN)
        w = term_weights(term)

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
        star = optimal_pc_cn(op, THIN)
        w = term_weights("cn")

        def objective(pc):
            return normalized_noise(with_powers(op, pc=pc), w, THIN)

        ref, edge = grid_refine(objective, 1e-6, 1e-1)
        assert not edge
        assert rel_err(star.power, ref) < 1e-3

    @pytest.mark.parametrize(
        "solver, term",
        [(optimal_plo_cn, "cn"), (optimal_plo_tn, "tn")],
    )
    def test_direct_lo_optima_match_grid(self, diod, system, solver, term):
        star = solver(diod, system)
        w = term_weights(term)

        def objective(p_lo):
            return normalized_noise(with_powers(diod, p_lo=p_lo), w, system)

        ref, edge = grid_refine(objective, 1e-8, 1e-3)
        assert not edge
        assert rel_err(star.power, ref) < 1e-6

    def test_balanced_lo_optimum_strong_local_beam(self):
        op = thin_bcod()
        star = optimal_plo_cn(op, THIN)
        w = term_weights("cn")

        def objective(p_lo):
            return normalized_noise(with_powers(op, p_lo=p_lo), w, THIN)

        ref, edge = grid_refine(objective, 1e-10, 1e-3)
        assert not edge
        assert rel_err(star.power, ref) < 1e-6

    def test_objective_within_tenth_db_of_grid(self, diod, system):
        # acceptance-style check: objective value at the closed form within
        # 0.1 dB of the polished grid minimum
        star = optimal_plo_cn(diod, system)
        w = term_weights("cn")

        def objective(p_lo):
            return normalized_noise(with_powers(diod, p_lo=p_lo), w, system)

        ref, _ = grid_refine(objective, 1e-8, 1e-3)
        gap_db = 10.0 * math.log10(objective(star.power) / objective(ref))
        assert abs(gap_db) < 0.1

    @pytest.mark.parametrize(
        "solver, knob, box",
        [
            (optimal_pc_cn, "pc", (1e-6, 1e-1)),
            (optimal_pc_tn, "pc", (1e-6, 1e-1)),
            (optimal_plo_cn, "p_lo", (1e-10, 1e-3)),
            (optimal_plo_tn, "p_lo", (1e-10, 1e-3)),
        ],
    )
    def test_derivative_sign_change(self, solver, knob, box):
        # a genuine interior minimum: the objective slopes down just below
        # the returned power and up just above it
        op = thin_diod()
        star = solver(op, THIN)
        assert box[0] < star.power < box[1]
        term = "cn" if solver in (optimal_pc_cn, optimal_plo_cn) else "tn"
        w = term_weights(term)

        def objective(x):
            return normalized_noise(with_powers(op, **{knob: x}), w, THIN)

        below = objective(star.power * 0.995)
        at = objective(star.power)
        above = objective(star.power * 1.005)
        assert below > at and above > at

    def test_clamped_at_vanishing_lo(self):
        star = optimal_pc_cn(thin_diod(p_lo=1e-12), THIN)
        assert star.power == 0.0
        assert star.clamped

    def test_float_protocol(self):
        star = optimal_pc_cn(thin_diod(), THIN)
        assert float(star) == star.power

    def test_fixed_point_raises_when_load_factor_oscillates(self, bcod, system):
        # a local beam of 10 p1 has load factor 10/11 and one of p1/10 has
        # 1/11; a candidate that answers each with the other never settles
        p1 = p1_of_lo(bcod, system)

        def candidate(gamma):
            return StationaryPower(p1 / 10.0 if gamma > 0.5 else 10.0 * p1)

        with pytest.raises(MaxIterations):
            optimize._fixed_point(bcod, system, candidate,
                                  lambda o, v: with_powers(o, pl=v))


class TestOptimalPl:
    def test_saturation_headroom(self, chain, diod, system):
        p1 = p1_of_lo(diod, system)
        pl = optimal_pl(chain, p1, math.inf)
        assert rel_err(pl, chain.i_sat / chain.alpha - p1) < 1e-12

    def test_box_cap(self, chain, diod, system):
        p1 = p1_of_lo(diod, system)
        assert optimal_pl(chain, p1, 5e-3) == 5e-3

    def test_saturated_at_zero(self, chain, diod, system):
        p1 = p1_of_lo(diod, system)
        tight = dataclasses.replace(chain, i_sat=0.5 * chain.alpha * p1)
        with pytest.raises(SaturatedAtZero):
            optimal_pl(tight, p1, math.inf)

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


# the whole design box (W): the default Newton bracket in p0, the crossover
# sweep range in p_lo, 0.1-100 mW of coupling and 1 uW-100 mW of local beam
_BOX = {"p0": (-6.0, -1.0), "pc": (-4.0, -1.0), "p_lo": (-9.0, -3.0),
        "pl": (-6.0, -1.0)}


@st.composite
def box_points(draw):
    scheme = draw(st.sampled_from(["DIOD", "BCOD"]))
    names = ("p0", "pc", "p_lo") + (("pl",) if scheme == "BCOD" else ())
    return defaults.default_point(
        scheme, **{k: 10.0 ** draw(st.floats(*_BOX[k])) for k in names})


def _finite_ratios(op, system):
    """p1 > 0 and p_g^2 kappa^2 a normal float, so every ratio of W is
    finite and carries full precision."""
    p1 = p1_of_lo(op, system)
    if p1 <= 0.0:
        return False
    pg_sq = scheme_powers(op, p1)[0][0]
    return pg_sq * kappa_of_point(op, system) ** 2 >= sys.float_info.min


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
        got = optimize._dw_dp0(op, wts, system)
        # relative to the slope, or to W / p0 where the terms cancel
        scale = max(abs(fd), normalized_noise(op, wts, system) / op.p0)
        assert abs(got - fd) <= 1e-5 * scale


class TestNewtonProbe:
    BOUNDS = (1e-3, 1e-1)

    def test_balanced_matches_grid(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(bcod, wts, system, chain, p0_bounds=self.BOUNDS)
        assert not res.boundary

        def objective(p0):
            return normalized_noise(with_powers(bcod, p0=p0), wts, system)

        ref, edge = grid_refine(objective, *self.BOUNDS, n=2000)
        assert not edge
        assert rel_err(res.power, ref) < 5e-3
        assert res.w_value <= objective(ref) * (1.0 + 1e-12)

    def test_residual_tolerance(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        res = newton_optimal_p0(bcod, wts, system, chain, p0_bounds=self.BOUNDS)
        assert res.residual <= 1e-8 * res.w_value / res.power

    def test_direct_thermal_interior(self, chain, system):
        # with a weak LO the transmitted power peaks inside the bracket, so
        # the thermal-only objective has an interior minimum
        op = defaults.diod_point(p_lo=1e-6)
        wts = NoiseWeights.from_chain(chain, system)
        thermal = NoiseWeights(0.0, 0.0, wts.thermal, wts.projection)
        res = newton_optimal_p0(op, thermal, system, chain, p0_bounds=self.BOUNDS)
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
        res = newton_optimal_p0(diod, wts, system, chain, p0_bounds=self.BOUNDS)
        assert res.boundary
        assert res.power == self.BOUNDS[1]

    def test_weight_scale_covariance(self, bcod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        scaled = NoiseWeights(7.5 * wts.sig_shot, 7.5 * wts.dc_shot, 7.5 * wts.thermal, wts.projection)
        r1 = newton_optimal_p0(bcod, wts, system, chain, p0_bounds=self.BOUNDS)
        r2 = newton_optimal_p0(bcod, scaled, system, chain, p0_bounds=self.BOUNDS)
        assert rel_err(r1.power, r2.power) < 1e-9

    def test_quadratic_penalty_optimum(self, diod, chain, system):
        # constant physics weights plus a quadratic penalty: the minimizer
        # must land on the penalty's vertex
        wts = NoiseWeights.from_chain(chain, system)
        flat = NoiseWeights(0.0, 0.0, 0.0, wts.projection)
        target = 0.013
        res = newton_optimal_p0(
            diod, flat, system, chain,
            p0_bounds=self.BOUNDS,
            penalty=lambda p: 3.0e5 * (p - target) ** 2,
        )
        assert rel_err(res.power, target) < 1e-8

    def test_rejects_bad_bracket(self, diod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        with pytest.raises(ValueError):
            newton_optimal_p0(diod, wts, system, chain, p0_bounds=(1e-1, 1e-3))

    def test_rejects_opaque_bracket_end(self, diod, chain, system):
        wts = NoiseWeights.from_chain(chain, system)
        with pytest.raises(ValueError, match="absorbed"):
            newton_optimal_p0(diod, wts, system, chain, p0_bounds=(1e-6, 1e-1))


def _budget(n_cn=0.0, n_tn=0.0):
    return NoiseBudget(
        n_cn=n_cn, n_tn=n_tn, n_qpn=0.0,
        n_sum=0.5 * (n_cn + n_tn),
        sigma_sq_sn=0.0, sn_coeff=0.0,
    )


class TestClassifyRegime:
    def test_thermal_dominant(self):
        assert classify_regime(_budget(n_cn=1.0, n_tn=10.0), 0.5) == "thermal"

    def test_dc_shot_dominant(self):
        assert classify_regime(_budget(n_cn=10.0, n_tn=1.0), 0.5) == "dc-shot"

    def test_signal_noise_dominant(self):
        assert classify_regime(_budget(n_cn=1.0, n_tn=0.5), 10.0) == (
            "user-signal-dependent"
        )

    def test_mixed_within_three_db(self):
        # ratio 1.9 is under 3 dB (2.0x), so no single mechanism dominates
        assert classify_regime(_budget(n_cn=1.9, n_tn=1.0), 0.1) == "mixed"

    def test_clear_above_three_db(self):
        assert classify_regime(_budget(n_cn=2.1, n_tn=1.0), 0.1) == "dc-shot"

    def test_all_zero_is_mixed(self):
        assert classify_regime(_budget(), 0.0) == "mixed"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(_budget(n_cn=-1.0), 0.0)

    def test_shipped_points(self, diod, bcod, chain, system):
        assert classify_at(diod, chain, system) == "thermal"
        assert classify_at(bcod, chain, system) == "user-signal-dependent"


class TestDesignReport:
    def test_json_round_trip(self, bcod, chain, system):
        rep = design_report(bcod, chain, system, pl_max=2e-2, p0_bounds=(1e-3, 1e-1))
        blob = json.loads(json.dumps(rep))
        assert blob["scheme"] == "BCOD"
        assert set(blob["optima"]) == {
            "pc_dc_shot", "plo_dc_shot", "pc_thermal", "plo_thermal",
            "pl", "p0_newton",
        }
        assert set(blob["sensitivity"]) == {"p0", "pc", "p_lo", "pl"}

    def test_direct_report_omits_local_beam(self, diod, chain, system):
        rep = design_report(diod, chain, system, p0_bounds=(1e-3, 1e-1))
        assert "pl" not in rep["optima"]
        assert "pl" not in rep["sensitivity"]

    def test_sensitivity_entries_are_finite(self, bcod, chain, system):
        rep = design_report(bcod, chain, system, pl_max=2e-2, p0_bounds=(1e-3, 1e-1))
        for entry in rep["sensitivity"].values():
            assert math.isfinite(entry["minus_10pct"])
            assert math.isfinite(entry["plus_10pct"])

    def test_bracket_autoshrink(self, bcod, chain, system):
        # the default bracket's low end is fully absorbed; the report must
        # shrink it rather than fail
        rep = design_report(bcod, chain, system, pl_max=2e-2)
        assert rep["optima"]["p0_newton"]["power_w"] > 0.0
