"""Receive-chain statics: propagation, gain table, noise budget, derivatives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raqr import defaults
from raqr.constants import epsilon_0, hbar, speed_of_light
from raqr.atomic import steady_state_numeric, susceptibility
from raqr.frontend import (
    MissingLocalBeam,
    SmallSignal,
    UserSignal,
    baseband_gains,
    demod_phase,
    noise_budget,
    p1_of_lo,
    probe_output,
    rabi_coefficients,
    rf_field_amplitude,
    scheme_powers,
    with_powers,
)
from raqr.mimo import MimoScenario
from raqr.optimize import NoiseWeights, StationaryPower

from conftest import box_points, default_point, log_slope, rel_err
from oracles import dlnkappa, dlnp1, kappa_from_chi_prime


def numeric_p1(op, system):
    """Independent route: Liouvillian steady state -> chi -> attenuation."""
    drive = defaults.drive_for(op, system)
    rho = steady_state_numeric(system, drive)
    chi = susceptibility(rho.rho21, system, drive.omega_p)
    return op.p0 * math.exp(-2.0 * math.pi * system.l_cell / system.lambda_p * chi.imag)


class TestProbeOutput:
    def test_transparent_cell(self, system):
        p, phip = probe_output(3.0, 0.0 + 0.0j, system)
        assert p == 3.0 and phip == 0.0

    def test_half_amplitude_exponent(self, system):
        # (pi d / lambda) Im chi = ln 2  =>  field halves, power quarters
        im = math.log(2.0) * system.lambda_p / (math.pi * system.l_cell)
        p, _ = probe_output(2.0, 1j * im, system)
        assert p == pytest.approx(0.5, rel=1e-12)

    def test_phase_from_real_part(self, system):
        re = 0.3 * system.lambda_p / (math.pi * system.l_cell)
        _, phip = probe_output(1.0, re + 0.0j, system)
        assert phip == pytest.approx(0.3, rel=1e-12)

    def test_matches_p1_of_lo(self, system, diod):
        """Two independent code paths for the transmitted power."""
        drive = defaults.drive_for(diod, system)
        rho = steady_state_numeric(system, drive)
        chi = susceptibility(rho.rho21, system, drive.omega_p)
        p, _ = probe_output(diod.p0, chi, system)
        assert rel_err(p, p1_of_lo(diod, system)) <= 1e-9

    def test_arrays_match_scalars(self, system):
        chi = np.array([0.0, 1e-4 + 2e-3j, -3e-4 + 5e-2j])
        p, phase = probe_output(0.04, chi, system)
        for k, c in enumerate(chi):
            assert (p[k], phase[k]) == probe_output(0.04, complex(c), system)

    def test_rejects_negative_power(self, system):
        with pytest.raises(ValueError, match="p0"):
            probe_output(-1.0, 0j, system)


class TestP1:
    def test_no_lo_is_transparent(self, system, diod):
        assert p1_of_lo(with_powers(diod, p_lo=0.0), system) == diod.p0

    def test_bounded_by_input(self, system, diod, bcod):
        for op in (diod, bcod):
            p1 = p1_of_lo(op, system)
            assert 0.0 < p1 <= op.p0

    def test_monotone_decreasing_in_lo(self, system, diod):
        grid = np.geomspace(1e-12, 1e-3, 200)
        vals = [p1_of_lo(with_powers(diod, p_lo=p), system) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_full_chain_oracle(self, system, diod, bcod):
        for op in (diod, bcod):
            assert rel_err(p1_of_lo(op, system), numeric_p1(op, system)) <= 1e-6

    def test_log_derivatives_match_finite_differences(self, system, diod, rng):
        """Closed-form d ln P1 / d {P_LO, Pc, P0} at random operating points.

        The P_LO and P0 slopes are generically O(1) in log-log terms and are
        probed over wide power boxes.  The Pc slope is suppressed by the
        probe-to-coupling saturation ratio and only stays resolvable in
        double precision near realistic operating powers, so it is probed
        with multiplicative perturbations of the defaults.
        """
        for _ in range(30):
            op = with_powers(
                diod,
                p0=10 ** rng.uniform(-3, -1),
                pc=10 ** rng.uniform(-3, -1),
                p_lo=10 ** rng.uniform(-8, -4),
            )
            d_lo, _, d_p0 = dlnp1(op, system)
            fd_lo = log_slope(
                lambda v: math.log(p1_of_lo(with_powers(op, p_lo=v), system) / op.p0),
                op.p_lo,
            )
            fd_p0 = log_slope(
                lambda v: math.log(p1_of_lo(with_powers(op, p0=v), system)), op.p0
            )
            assert rel_err(d_lo, fd_lo) <= 1e-6
            assert rel_err(d_p0, fd_p0) <= 1e-6
        for _ in range(30):
            op = with_powers(
                diod,
                p0=diod.p0 * 2.0 ** rng.uniform(-1, 1),
                pc=diod.pc * 2.0 ** rng.uniform(-1, 1),
                p_lo=diod.p_lo * 2.0 ** rng.uniform(-1, 1),
            )
            _, d_pc, _ = dlnp1(op, system)
            fd_pc = log_slope(
                lambda v: math.log(p1_of_lo(with_powers(op, pc=v), system) / op.p0),
                op.pc,
            )
            assert rel_err(d_pc, fd_pc) <= 1e-6


class TestKappa:
    def test_zero_lo(self, system, diod):
        assert SmallSignal(with_powers(diod, p_lo=0.0), system).kappa == 0.0

    def test_vanishes_at_strong_lo(self, system, diod):
        k_mid = SmallSignal(diod, system).kappa
        k_hi = SmallSignal(with_powers(diod, p_lo=10.0), system).kappa
        assert k_hi < 1e-3 * k_mid

    @settings(max_examples=300, deadline=None)
    @given(p0=st.floats(-6.0, -1.0).map(lambda e: 10.0**e),
           pc=st.floats(-5.0, math.log10(0.32)).map(lambda e: 10.0**e),
           p_lo=st.floats(-9.0, -3.0).map(lambda e: 10.0**e))
    @example(p0=0.040, pc=0.06, p_lo=1.5e-5)  # shipped direct-detection powers
    @example(p0=0.03, pc=0.06, p_lo=1.32e-6)  # shipped balanced powers
    def test_definitional_cross_check(self, system, diod, p0, pc, p_lo):
        """kappa = (pi d mu34 / lambda hbar) Im chi' to 1e-12 over the
        whole power box, log-uniform in each power."""
        op = with_powers(diod, p0=p0, pc=pc, p_lo=p_lo)
        assert rel_err(
            SmallSignal(op, system).kappa, kappa_from_chi_prime(op, system)
        ) <= 1e-12

    def test_unimodal_in_lo(self, system, diod):
        grid = np.geomspace(1e-12, 1e-2, 200)
        vals = np.array(
            [SmallSignal(with_powers(diod, p_lo=p), system).kappa for p in grid]
        )
        d = np.diff(vals)
        # exactly one sign change: rises to one interior peak, then falls
        signs = np.sign(d)
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1
        assert vals.argmax() not in (0, len(vals) - 1)

    def test_log_derivatives_match_finite_differences(self, system, diod, rng):
        for _ in range(30):
            op = with_powers(
                diod,
                p0=10 ** rng.uniform(-3, -1),
                pc=10 ** rng.uniform(-3, -1),
                p_lo=10 ** rng.uniform(-8, -4),
            )
            d_lo, d_pc, d_p0 = dlnkappa(op, system)
            for name, val in (("p_lo", d_lo), ("pc", d_pc), ("p0", d_p0)):
                x = getattr(op, name)
                fd = log_slope(
                    lambda v: math.log(
                        SmallSignal(with_powers(op, **{name: v}), system).kappa
                    ),
                    x,
                )
                assert rel_err(val, fd) <= 1e-6


class TestGainTable:
    def test_diod_phase_identity(self, system, diod, chain):
        g = baseband_gains(diod, chain, system)
        assert g.phi == 1.0
        assert demod_phase(diod) == 0.0

    def test_bcod_servo_locked_full_modulus(self, system, bcod, chain):
        g = baseband_gains(bcod, chain, system)  # phi_l = 0 default
        assert abs(g.phi) == pytest.approx(1.0)
        assert demod_phase(bcod) == 0.0

    def test_bcod_projection_loss(self, system, bcod, chain):
        import dataclasses

        tilted = dataclasses.replace(bcod, phi_l=math.pi / 3)
        g = baseband_gains(tilted, chain, system)
        assert abs(g.phi) == pytest.approx(0.5, rel=1e-12)

    def test_missing_local_beam(self, system, bcod, chain):
        import dataclasses

        with pytest.raises(MissingLocalBeam):
            baseband_gains(dataclasses.replace(bcod, pl=0.0), chain, system)

    def test_gain_composites(self, system, diod, bcod, chain):
        for op in (diod, bcod):
            g = baseband_gains(op, chain, system)
            p1 = p1_of_lo(op, system)
            p_g_sq, p_sn_sq, _ = scheme_powers(op, p1)[0]
            p_g = math.sqrt(p_g_sq)
            if op.scheme == "DIOD":
                assert p_g == p1 and g.p_cn_bar == p1 and p_sn_sq == p1
            else:
                assert p_g == pytest.approx(math.sqrt(op.pl * p1))
                assert g.p_cn_bar == pytest.approx(op.pl + p1)
                assert p_sn_sq == pytest.approx(p1**2 / (op.pl + p1))
            kappa = SmallSignal(op, system).kappa
            assert g.rho == pytest.approx(
                4.0 * chain.g * chain.z0 * chain.alpha**2 * p_g**2 * kappa**2
            )

    def test_scheme_consistency_identity(self, system, diod, bcod, chain, rng):
        """rho * p_sn^2 * kappa^2 == 4 alpha * rho_sn * p_g^2 * kappa^2,
        i.e. rho_sn/rho = p_sn^2 / (4 alpha p_g^2): both sides built from
        raw parameters independently, at 100 random operating points."""
        for i in range(100):
            base = diod if i % 2 == 0 else bcod
            op = with_powers(
                base,
                p0=10 ** rng.uniform(-3, -1),
                pc=10 ** rng.uniform(-3, -1),
                p_lo=10 ** rng.uniform(-8, -4),
                **({} if base.scheme == "DIOD" else {"pl": 10 ** rng.uniform(-4, -2)}),
            )
            g = baseband_gains(op, chain, system)
            p1 = p1_of_lo(op, system)
            kap = SmallSignal(op, system).kappa
            lhs = g.rho_sn / g.rho
            if op.scheme == "DIOD":
                rhs = (p1 * kap**2) / (4.0 * chain.alpha * p1**2 * kap**2)
            else:
                rhs = (p1**2 / (op.pl + p1)) / (4.0 * chain.alpha * op.pl * p1)
            assert rel_err(lhs, rhs) <= 1e-12


_LOG_POWER = st.floats(-100.0, -1.0).map(lambda e: 10.0**e)


class TestSchemePowers:
    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(["DIOD", "BCOD"]), p1=_LOG_POWER,
           pl=st.floats(-6.0, -1.0).map(lambda e: 10.0**e))
    def test_elasticities_match_finite_differences(self, scheme, p1, pl):
        op = default_point(scheme, **({"pl": pl} if scheme == "BCOD" else {}))
        powers, (num, den), (e_g, de_sn, de_cn) = scheme_powers(op, p1)
        tau = 1e-4
        up = scheme_powers(op, p1 * math.exp(tau))[0]
        dn = scheme_powers(op, p1 * math.exp(-tau))[0]
        for e, u, d in zip((e_g, e_g + de_sn, e_g + de_cn), up, dn):
            fd = (math.log(u) - math.log(d)) / (2.0 * tau)
            assert abs(e - fd) <= 1e-7  # elasticities lie in [0, 2]
        assert rel_err(num / den, powers[1] / powers[0]) <= 1e-15

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_arrays_match_scalars(self, scheme):
        op = default_point(scheme)
        p1 = np.geomspace(1e-9, 1e-1, 7)
        powers, fraction, elasticities = scheme_powers(op, p1)
        for i, x in enumerate(p1):
            one = scheme_powers(op, float(x))
            for got, want in zip((powers, fraction, elasticities), one):
                assert [np.broadcast_to(g, p1.shape)[i] for g in got] == list(want)


class TestNoiseBudget:
    def test_zero_temperature(self, system, diod, chain):
        import dataclasses

        cold = dataclasses.replace(chain, temperature=0.0)
        b = noise_budget(diod, cold, system)
        assert b.n_tn == 0.0

    def test_zero_shot_prefactor(self, system, diod, chain):
        import dataclasses

        quiet = dataclasses.replace(chain, sigma_sq_sn=0.0)
        b = noise_budget(diod, quiet, system)
        assert b.n_cn == 0.0 and b.sn_coeff == 0.0

    def test_sum_identity(self, system, diod, bcod, chain):
        for op in (diod, bcod):
            b = noise_budget(op, chain, system)
            assert b.n_sum == (b.n_cn + b.n_qpn + b.n_tn) / 2.0

    def test_default_shot_prefactor(self, chain):
        q = 1.602176634e-19
        assert chain.sigma_sq_sn == pytest.approx(2.0 * q * chain.bw, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(op=box_points())
    def test_one_source_for_the_shot_coefficient(self, op):
        """sn_coeff is sigma_sn^2 rho_sn bit for bit, n_sn twice it, and
        N_QPN's |Phi|^2 the cos^2 of the demodulation phase, over the box
        with the local-beam phase drawn."""
        system, chain = defaults.cesium_system(), defaults.default_chain()
        gains = baseband_gains(op, chain, system)
        budget = noise_budget(op, chain, system, gains=gains)
        assert budget.sn_coeff == chain.sigma_sq_sn * gains.rho_sn
        assert budget.n_sn == 2.0 * budget.sn_coeff
        cos_form = (
            gains.rho * speed_of_light * epsilon_0 * math.cos(demod_phase(op)) ** 2
            * chain.bw * hbar**2 / (system.n_atoms * system.t2 * system.mu34**2)
        )
        assert abs(budget.n_qpn - cos_form) <= 1e-15 * cos_form

    def test_regime_ordering_at_defaults(self, system, diod, bcod, chain):
        """Direct scheme thermal-limited, balanced scheme limited by the
        user-signal-dependent shot term (reference at unit received power)."""
        bd = noise_budget(diod, chain, system)
        assert bd.n_tn > 3.0 * max(bd.n_cn, bd.n_sn)

        bb = noise_budget(bcod, chain, system)
        assert bb.n_sn > max(bb.n_cn, bb.n_tn)


class TestUserSignal:
    def test_power_through_aperture(self):
        u = UserSignal(u_x=2.0, f_delta=75e3)
        a_e = 1.5e-4
        expected = 0.5 * 2.99792458e8 * 8.8541878128e-12 * a_e * 4.0
        assert u.power(a_e) == pytest.approx(expected, rel=1e-6)

    def test_field_power_roundtrip(self):
        p = 1.32e-6
        a_e = 1.5e-4
        u = rf_field_amplitude(p, a_e)
        user = UserSignal(u_x=u, f_delta=defaults.F_DELTA)
        assert user.power(a_e) == pytest.approx(p, rel=1e-12)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            UserSignal(u_x=-1.0, f_delta=defaults.F_DELTA)


# every field that a model dataclass range-checks, by class
_RANGE_CHECKED = {
    "AtomicSystem": ("mu12", "mu23", "mu34", "gamma2", "gamma3", "gamma4", "gamma",
                     "n0", "l_cell", "lambda_p", "t2", "n_atoms"),
    "OperatingPoint": ("p0", "pc", "p_lo", "pl", "phi_l", "fwhm_p", "fwhm_c",
                       "a_e"),
    "DetectionChain": ("g", "alpha", "z0", "bw", "temperature", "i_sat",
                       "sigma_sq_sn"),
    "UserSignal": ("u_x", "f_delta", "theta_x"),
    "BasebandGains": ("rho", "rho_sn", "phi", "p_cn_bar"),
    "NoiseBudget": ("n_cn", "n_tn", "n_qpn", "sn_coeff"),
    "NoiseWeights": ("sig_shot", "dc_shot", "thermal", "projection"),
    "MimoScenario": ("n_sensors", "n_users", "beta", "p", "seed"),
    "StationaryPower": ("power",),
}


def _valid_models():
    """A valid instance of each model dataclass, by class name."""
    system, chain, bcod = (defaults.cesium_system(), defaults.default_chain(),
                           defaults.bcod_point())
    return {
        "AtomicSystem": system,
        "OperatingPoint": bcod,
        "DetectionChain": chain,
        "UserSignal": UserSignal(u_x=1.0, f_delta=defaults.F_DELTA),
        "BasebandGains": baseband_gains(bcod, chain, system),
        "NoiseBudget": noise_budget(bcod, chain, system),
        "NoiseWeights": NoiseWeights.from_chain(chain, system),
        "MimoScenario": MimoScenario(n_sensors=4, n_users=2),
        "StationaryPower": StationaryPower(1e-3),
    }


class TestNanRejected:
    """A NaN field fails its sign check as a negative one does, under the
    field's name (the config layer maps the error to its key by that word)."""

    @pytest.mark.parametrize("cls, name", [
        (cls, name) for cls, names in _RANGE_CHECKED.items() for name in names])
    def test_every_range_checked_field(self, cls, name):
        """Over the nine model dataclasses: a valid instance with one
        range-checked field set to NaN raises ValueError, so a NaN gain
        table cannot run on to a rate of 0."""
        valid = _valid_models()[cls]
        with pytest.raises(ValueError):
            dataclasses.replace(valid, **{name: math.nan})

    @pytest.mark.parametrize(
        "name", ["p0", "pc", "p_lo", "pl", "phi_l", "fwhm_p", "fwhm_c", "a_e"])
    def test_operating_point(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            defaults.bcod_point(**{name: math.nan})

    @pytest.mark.parametrize(
        "name", ["g", "alpha", "z0", "bw", "i_sat", "temperature", "sigma_sq_sn"])
    def test_detection_chain(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            defaults.default_chain(**{name: math.nan})

    @pytest.mark.parametrize("name", ["u_x", "f_delta", "theta_x"])
    def test_user_signal(self, name):
        fields = {"u_x": 1.0, "f_delta": defaults.F_DELTA, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            UserSignal(**fields)

