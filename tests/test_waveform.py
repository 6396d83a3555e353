"""Time-domain chain: simulation, decomposition, demodulation."""

import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raqr import atomic, defaults, waveform
from raqr.atomic import ZeroProbe, steady_state_numeric
from raqr.constants import epsilon_0, hbar
from raqr.frontend import (
    UserSignal,
    baseband_gains,
    SmallSignal,
    drive_for,
    p1_of_lo,
    rf_field_amplitude,
    scheme_powers,
)
from raqr.waveform import (
    InsufficientLength,
    Saturation,
    WeakLO,
    _lowpass_taps,
    _numtaps,
    baseband_estimate,
    demodulate_iq,
    down_convert,
    effective_gain,
    settling_samples,
    simulate_waveform,
)

from conftest import component_sn_variance, peak_bytes

FS = 16 * 75e3


@pytest.fixture(scope="session")
def quiet(chain):
    return dataclasses.replace(chain, sigma_sq_sn=0.0)


class TestSimulate:
    def test_no_signal_no_noise_is_flat_dc(self, system, diod, quiet):
        user = UserSignal(u_x=0.0, f_delta=75e3)
        wf = simulate_waveform(diod, quiet, user, system, 32 / FS, FS, seed=0)
        assert np.ptp(wf.v_exact) == 0.0
        assert wf.v_exact[0] == pytest.approx(wf.v_dc, rel=1e-12)
        # direct scheme pedestal is sqrt(G_eff) * alpha * P1
        from raqr.frontend import p1_of_lo

        level = math.sqrt(effective_gain(diod, quiet)) * quiet.alpha * p1_of_lo(
            diod, system
        )
        assert wf.v_dc == pytest.approx(level, rel=1e-12)

    def test_bit_reproducible(self, system, diod, chain):
        user = defaults.weak_user(20.0, diod)
        a = simulate_waveform(diod, chain, user, system, 512 / FS, FS, seed=42)
        b = simulate_waveform(diod, chain, user, system, 512 / FS, FS, seed=42)
        assert np.array_equal(a.v_exact, b.v_exact)
        assert np.array_equal(a.v_approx, b.v_approx)
        c = simulate_waveform(diod, chain, user, system, 512 / FS, FS, seed=43)
        assert not np.array_equal(a.v_exact, c.v_exact)

    def test_decomposition_identity(self, system, bcod, chain):
        """v = deterministic + cn + sn, so quiet run == noisy run minus noise."""
        user = defaults.weak_user(20.0, bcod)
        wf = simulate_waveform(bcod, chain, user, system, 256 / FS, FS, seed=9)
        quiet_chain = dataclasses.replace(chain, sigma_sq_sn=0.0)
        det = simulate_waveform(bcod, quiet_chain, user, system, 256 / FS, FS, seed=9)
        assert np.allclose(wf.v_exact - wf.cn - wf.sn, det.v_exact, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z0", [None, 1e300])
    def test_noise_off_draws_nothing(self, system, diod, bcod, quiet, monkeypatch, z0):
        """With shot noise off no generator is built and cn = sn = 0, also
        where the noise scale sqrt(G_eff * I) overflows (a 1e300 ohm load)."""
        def no_draw(*args, **kwargs):
            raise AssertionError("noise drawn with shot noise off")

        monkeypatch.setattr(np.random, "Philox", no_draw)
        chain = quiet if z0 is None else dataclasses.replace(quiet, z0=z0)
        for op in (diod, bcod):
            wf = simulate_waveform(op, chain, defaults.weak_user(20.0, op), system,
                                   64 / FS, FS, seed=0)
            assert not wf.cn.any() and not wf.sn.any()

    def test_weak_lo_warns_but_computes(self, system, diod, quiet):
        with pytest.warns(WeakLO):
            wf = simulate_waveform(
                diod, quiet, defaults.weak_user(9.5, diod), system, 32 / FS, FS, seed=0
            )
        assert np.all(np.isfinite(wf.v_exact))

    def test_strong_lo_does_not_warn(self, system, diod, quiet, recwarn):
        simulate_waveform(
            diod, quiet, defaults.weak_user(20.0, diod), system, 32 / FS, FS, seed=0
        )
        assert not [w for w in recwarn if issubclass(w.category, WeakLO)]

    @pytest.mark.parametrize("duration", [math.inf, math.nan, 0.0, -1e-3])
    def test_duration_must_be_positive_and_finite(self, system, diod, quiet, duration):
        with pytest.raises(ValueError, match="duration"):
            simulate_waveform(
                diod, quiet, defaults.weak_user(20.0, diod), system, duration, FS, 0
            )

    def test_saturation_is_hard_error(self, system, diod, chain):
        hot = dataclasses.replace(chain, i_sat=1e-3)
        with pytest.raises(Saturation):
            simulate_waveform(
                diod, hot, defaults.weak_user(20.0, diod), system, 32 / FS, FS, seed=0
            )

    def test_sample_rate_floor(self, system, diod, quiet):
        with pytest.raises(ValueError):
            simulate_waveform(
                diod, quiet, defaults.weak_user(20.0, diod), system, 1e-3, 8 * 75e3, 0
            )

    @pytest.mark.parametrize("f_delta", [0.0, math.inf, -math.inf, math.nan])
    def test_degenerate_beat_rejected(self, f_delta):
        # no beat, or none the receive chain can sample
        with pytest.raises(ValueError, match="^f_delta must be"):
            UserSignal(u_x=1e-3, f_delta=f_delta)

    def test_master_equation_solver_matches_closed_form(self, system, diod, quiet):
        user = defaults.weak_user(20.0, diod)
        cf = simulate_waveform(diod, quiet, user, system, 64 / FS, FS, seed=3)
        li = simulate_waveform(
            diod, quiet, user, system, 64 / FS, FS, seed=3, rho_solver="liouvillian"
        )
        assert np.max(np.abs(li.v_exact - cf.v_exact)) <= 1e-9 * np.max(
            np.abs(cf.v_exact)
        )

    @pytest.mark.parametrize("scheme, n, distinct", [
        ("DIOD", 1000, 11), ("BCOD", 1000, 10),
        ("DIOD", 40_000, 11), ("BCOD", 40_000, 10),
    ])
    def test_liouvillian_solves_each_envelope_once(
        self, system, quiet, monkeypatch, scheme, n, distinct
    ):
        """At 16 samples per beat the envelope is read as periodic: one LU
        solve per distinct envelope of the first beat period, however long
        the waveform, in blocks of at most BLOCK, and no explicit inverse."""
        op = defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point()
        solved, inverted, drives = [], [], []
        solve = np.linalg.solve

        def spy_solve(a, b):
            solved.append(len(a))
            return solve(a, b)

        def steady_state(system, drive):
            drives.append(drive)
            return steady_state_numeric(system, drive)

        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        monkeypatch.setattr(np.linalg, "inv", inverted.append)
        monkeypatch.setattr(waveform, "steady_state_numeric", steady_state)
        simulate_waveform(op, quiet, defaults.weak_user(20.0, op), system,
                          n / FS, FS, seed=0, rho_solver="liouvillian")
        [drive] = drives
        assert len(np.unique(drive.omega_rf)) == len(drive.omega_rf) == distinct
        assert sum(solved) == distinct <= 16  # at most one per sample of a period
        assert max(solved) <= atomic.BLOCK
        assert inverted == []

    def test_overlay_rms_small_and_monotone(self, system, diod, bcod, quiet):
        """Linearized chain tracks the exact one to 1% at a 20 dB ratio and
        degrades monotonically as the user field grows."""
        for op in (diod, bcod):
            devs = []
            for ratio in (0.0, 10.0, 20.0):
                user = defaults.weak_user(ratio, op)
                with pytest.warns(WeakLO) if ratio < 10.0 else _nullcontext():
                    wf = simulate_waveform(op, quiet, user, system, 2e-3, FS, seed=1)
                devs.append(
                    np.linalg.norm(wf.v_exact - wf.v_approx)
                    / np.linalg.norm(wf.v_exact)
                )
            assert devs[2] <= 0.01
            assert devs[0] > devs[1] > devs[2]


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TestNoiseStatistics:
    def test_sn_band_variance_both_schemes(self, system, diod, bcod, chain):
        """Sample variance of the signal-dependent component, referred to the
        detection bandwidth, against the closed-form band prediction."""
        n = 100_000
        for op in (diod, bcod):
            user = defaults.weak_user(20.0, op)
            wf = simulate_waveform(op, chain, user, system, n / FS, FS, seed=7)
            measured = np.var(wf.sn) * (2.0 * chain.bw / FS)
            pred = component_sn_variance(op, chain, system, user)
            assert abs(measured - pred) / pred <= 0.05

    def test_sn_variance_linear_in_user_power(self, system, diod, chain):
        n = 100_000
        user = defaults.weak_user(20.0, diod)
        doubled = dataclasses.replace(user, u_x=user.u_x * math.sqrt(2.0))
        v1 = np.var(
            simulate_waveform(diod, chain, user, system, n / FS, FS, seed=11).sn
        )
        v2 = np.var(
            simulate_waveform(diod, chain, doubled, system, n / FS, FS, seed=11).sn
        )
        assert v2 / v1 == pytest.approx(2.0, rel=0.03)

    def test_cn_band_variance(self, system, bcod, chain):
        n = 100_000
        user = defaults.weak_user(20.0, bcod)
        wf = simulate_waveform(bcod, chain, user, system, n / FS, FS, seed=13)
        measured = np.var(wf.cn) * (2.0 * chain.bw / FS)
        g = baseband_gains(bcod, chain, system)
        pred = chain.sigma_sq_sn * effective_gain(bcod, chain) * chain.alpha * g.p_cn_bar
        assert measured == pytest.approx(pred, rel=0.02)

    def test_diod_noise_is_the_first_draws_of_its_seed(self, system, diod, chain):
        # one detector, one noise stream: the first n normals of Philox(seed)
        n = 4096
        user = defaults.weak_user(20.0, diod)
        wf = simulate_waveform(diod, chain, user, system, n / FS, FS, seed=17)
        z = np.random.Generator(np.random.Philox(key=17)).standard_normal(n)
        g = baseband_gains(diod, chain, system)
        scale = math.sqrt(chain.sigma_sq_sn * FS / (2.0 * chain.bw)
                          * effective_gain(diod, chain) * chain.alpha * g.p_cn_bar)
        np.testing.assert_allclose(wf.cn, scale * z, rtol=1e-12, atol=0.0)

    def test_quiet_chain_has_zero_noise(self, system, diod, quiet):
        wf = simulate_waveform(
            diod, quiet, defaults.weak_user(20.0, diod), system, 64 / FS, FS, seed=0
        )
        assert not np.any(wf.sn) and not np.any(wf.cn)


class TestDemodulation:
    def test_cosine_identity(self):
        # the gain is the FIR's DC gain G0 = sum(taps), not 1
        fs, fd = 32 * 75e3, 75e3
        t = np.arange(int(fs * 2e-3)) / fs
        z = demodulate_iq(3.0 * np.cos(2 * math.pi * fd * t), fd, fs)
        est = baseband_estimate(z, fd, fs)
        ref = 3.0 * _lowpass_taps(fd, fs).sum() / (2.0 * math.sqrt(2.0))
        assert abs(est - ref) <= 1e-12 * ref

    def test_dc_rejection(self):
        fs, fd = 32 * 75e3, 75e3
        z = demodulate_iq(5.0 * np.ones(int(fs * 2e-3)), fd, fs)
        est = baseband_estimate(z, fd, fs)
        assert abs(est) / 5.0 <= 1e-3  # 60 dB

    def test_phase_offset_in_argument(self):
        fs, fd = 32 * 75e3, 75e3
        t = np.arange(int(fs * 2e-3)) / fs
        z = demodulate_iq(np.cos(2 * math.pi * fd * t + 0.8), fd, fs)
        ref = _lowpass_taps(fd, fs).sum() / (2.0 * math.sqrt(2.0)) * np.exp(0.8j)
        assert abs(baseband_estimate(z, fd, fs) - ref) <= 1e-12 * abs(ref)

    def test_too_short_series(self):
        with pytest.raises(InsufficientLength):
            demodulate_iq(np.ones(100), 75e3, FS)

    def test_beat_too_fast_for_rate(self):
        with pytest.raises(ValueError):
            demodulate_iq(np.ones(10_000), 75e3, 2.5 * 75e3)

    def test_settling_shorter_than_typical_run(self):
        assert settling_samples(75e3, FS) < 2000

    def test_estimate_needs_settled_period(self):
        fs, fd = 32 * 75e3, 75e3
        t = np.arange(int(8.2 * fs / fd)) / fs
        z = demodulate_iq(np.cos(2 * math.pi * fd * t), fd, fs)
        with pytest.raises(InsufficientLength):
            baseband_estimate(z, fd, fs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda fd, fs: demodulate_iq(np.ones(5000), fd, fs),
            lambda fd, fs: settling_samples(fd, fs),
            lambda fd, fs: baseband_estimate(np.ones(5000, complex), fd, fs),
        ],
        ids=["demodulate_iq", "settling_samples", "baseband_estimate"],
    )
    @pytest.mark.parametrize(
        "fd, fs",
        [(0.0, 2.4e6), (math.nan, 2.4e6), (math.inf, 2.4e6), (75e3, 0.0),
         (75e3, -2.4e6), (75e3, math.nan)],
    )
    def test_degenerate_beat_or_rate_is_a_value_error(self, call, fd, fs):
        with pytest.raises(ValueError):
            call(fd, fs)

    def test_multidimensional_series_is_a_value_error(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            demodulate_iq(np.ones((2, 5000)), 75e3, 2.4e6)

    @pytest.mark.parametrize("shape", [(2, 5000), (5000, 2)])
    def test_estimate_of_a_multidimensional_series_is_a_value_error(self, shape):
        with pytest.raises(ValueError, match="one-dimensional"):
            baseband_estimate(np.ones(shape, dtype=complex), 75e3, 2.4e6)


class TestScipyEquivalence:
    """The numpy filter design and filtering against the scipy calls they
    replace; scipy is a test-only dependency."""

    @staticmethod
    def _firwin2(fd, fs):
        from scipy.signal import firwin2

        freqs = np.linspace(0.0, fs / 2.0, 1024)
        gains = 1.0 / np.sqrt(1.0 + (freqs / (abs(fd) / 2.0)) ** 12)
        return firwin2(_numtaps(fd, fs), freqs, gains, fs=fs)

    @pytest.mark.parametrize("fd", [75e3, -5e4])
    def test_taps_equal_firwin2_at_every_length(self, fd):
        for numtaps in range(65, 512, 2):
            fs = abs(fd) * numtaps / 8.0
            assert _numtaps(fd, fs) == numtaps
            assert np.array_equal(_lowpass_taps(fd, fs), self._firwin2(fd, fs)), numtaps

    @pytest.mark.parametrize("fs", [FS, 2.4e6])
    def test_demodulation_equals_lfilter(self, fs, rng):
        from scipy.signal import lfilter

        fd = 75e3
        t = np.arange(6000) / fs
        v = np.cos(2 * math.pi * fd * t + 0.3) + rng.normal(0.0, 0.5, t.size)
        ph = 2.0 * math.pi * fd * t
        taps = self._firwin2(fd, fs)
        ref = (lfilter(taps, 1.0, v * np.cos(ph))
               + 1j * lfilter(taps, 1.0, v * (-np.sin(ph)))) / math.sqrt(2.0)
        assert np.array_equal(demodulate_iq(v, fd, fs), ref)


def _reference_waveform(op, chain, user, system, n, sample_rate, seed, rho_solver,
                        period=None):
    """The chain as plain numpy expressions, complex arithmetic and all, with
    the guards left out: the values simulate_waveform must give bit for
    bit. The Liouvillian solve at sample k takes the envelope of sample
    k mod period; by default period is the whole number of samples per beat
    where that is below n, else n."""
    f_delta = user.f_delta
    u_lo = rf_field_amplitude(op.p_lo, op.a_e)
    u_x = user.u_x
    t = np.arange(n) / sample_rate
    beta = 2.0 * math.pi * f_delta * t + user.theta_x
    cos_b = np.cos(beta)
    u_z = np.sqrt(u_lo**2 + 2.0 * u_lo * u_x * cos_b + u_x**2)
    omega_rf = system.mu34 * u_z / hbar
    drive = drive_for(op, system, omega_rf=omega_rf)
    omega_p, omega_c, gamma2 = drive.omega_p, drive.omega_c, system.gamma2
    if rho_solver == "closed-form":
        orf2 = np.square(omega_rf)
        den = ((2.0 * omega_p**2 + gamma2**2) * orf2 + 2.0 * omega_c**2 * omega_p**2
               + 2.0 * omega_p**4)
        r21 = -1j * gamma2 * omega_p * orf2 / den
    else:
        if period is None:
            spp = sample_rate / abs(f_delta)
            period = int(spp) if spp == round(spp) and spp < n else n
        solved = drive_for(op, system, omega_rf=omega_rf[np.arange(n) % period])
        r21 = steady_state_numeric(system, solved).rho21
    chi = -2.0 * system.n0 * system.mu12**2 / (epsilon_0 * hbar * omega_p) * r21
    arg = math.pi * system.l_cell / system.lambda_p
    p1_t, phase_t = op.p0 * np.exp(-2.0 * arg * chi.imag), arg * chi.real

    def current(p1, phase):
        if op.scheme == "DIOD":
            return chain.alpha * p1
        return 2.0 * chain.alpha * np.sqrt(op.pl * p1) * np.cos(op.phi_l - phase)

    i_exact = current(p1_t, phase_t)
    p1_lo = p1_of_lo(op, system)
    (_, _, p_cn_lo), _, (e_g, _, _) = scheme_powers(op, p1_lo)
    i_dc = current(p1_lo, 0.0)
    i_approx = i_dc * (1.0 - e_g * SmallSignal(op, system).kappa * u_x * cos_b)
    i_env = chain.alpha * scheme_powers(op, p1_t)[0][2]

    g_eff = effective_gain(op, chain)
    sigma_xi = math.sqrt(chain.sigma_sq_sn * sample_rate / (2.0 * chain.bw))
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.normal(0.0, sigma_xi, n)
    if op.scheme == "BCOD":
        xi = (xi - rng.normal(0.0, sigma_xi, n)) / math.sqrt(2.0)
    cn = xi * math.sqrt(g_eff * (chain.alpha * p_cn_lo))
    sn = xi * np.sqrt(g_eff * i_env) - cn
    sqrt_g = math.sqrt(g_eff)
    return {"t": t, "v_exact": sqrt_g * i_exact + cn + sn,
            "v_approx": sqrt_g * i_approx + cn + sn, "sn": sn, "cn": cn,
            "v_dc": sqrt_g * float(i_dc)}


def _reference_demodulation(v, f_delta, sample_rate):
    t = np.arange(len(v)) / sample_rate
    ph = 2.0 * math.pi * f_delta * t
    taps = _lowpass_taps(f_delta, sample_rate)
    i_br = np.convolve(taps, v * np.cos(ph))[: len(v)]
    q_br = np.convolve(taps, v * (-np.sin(ph)))[: len(v)]
    return (i_br + 1j * q_br) / math.sqrt(2.0)


class TestReferenceEquality:
    """The in-place, real-valued chain against its plain-expression form."""

    def _check(self, op, chain, user, system, n, seed, rho_solver):
        wf = simulate_waveform(op, chain, user, system, n / FS, FS, seed,
                               rho_solver=rho_solver)
        ref = _reference_waveform(op, chain, user, system, n, FS, seed, rho_solver)
        for name in ("t", "v_exact", "v_approx", "sn", "cn"):
            assert np.array_equal(getattr(wf, name), ref[name]), name
        assert wf.v_dc == ref["v_dc"]
        v = down_convert(wf.v_exact, wf.v_dc)
        z = demodulate_iq(v, wf.f_delta, FS)
        assert np.array_equal(z, _reference_demodulation(v, wf.f_delta, FS))
        est = baseband_estimate(z, wf.f_delta, FS)
        assert est == baseband_estimate(_reference_demodulation(v, wf.f_delta, FS),
                                        wf.f_delta, FS)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        ratio_db=st.floats(10.0, 40.0),
        scheme=st.sampled_from(["DIOD", "BCOD"]),
        rho_solver=st.sampled_from(["closed-form", "liouvillian"]),
        parity=st.sampled_from([0, 1]),
        phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 2),
        data=st.data(),
    )
    def test_equals_the_expression_chain(self, system, chain, seed, ratio_db, scheme,
                                         rho_solver, parity, phases, data):
        # n from 144 up: 8 beat periods for demodulation plus one settled one
        top = 999 if rho_solver == "liouvillian" else 20_000
        n = 2 * data.draw(st.integers(72, top), label="n // 2") + parity
        theta_x, phi_l = phases
        op = dataclasses.replace(
            defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point(),
            phi_l=phi_l)
        user = defaults.weak_user(ratio_db, op, theta_x=theta_x)
        self._check(op, chain, user, system, n, seed, rho_solver)

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_periodic_envelope_is_within_1e_12_of_per_sample_solves(
            self, system, chain, scheme):
        op = defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point()
        user = defaults.weak_user(20.0, op, theta_x=0.4)
        n = 4000
        wf = simulate_waveform(op, chain, user, system, n / FS, FS, 5,
                               rho_solver="liouvillian")
        ref = _reference_waveform(op, chain, user, system, n, FS, 5, "liouvillian",
                                  period=n)
        assert not np.array_equal(wf.v_exact, ref["v_exact"])  # the rule is in use
        assert np.all(np.abs(wf.v_exact - ref["v_exact"])
                      <= 1e-12 * np.abs(ref["v_exact"]))
        # sn is the small remainder of the shot noise xi sqrt(G_eff I) past cn
        assert np.all(np.abs(wf.sn - ref["sn"]) <= 1e-12 * np.abs(ref["sn"] + ref["cn"]))
        for name in ("t", "v_approx", "cn"):
            assert np.array_equal(getattr(wf, name), ref[name]), name

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_fractional_samples_per_beat_solve_every_envelope(self, system, chain,
                                                              scheme):
        op = defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point()
        user = defaults.weak_user(20.0, op, theta_x=-0.8)
        sample_rate, n = 16.5 * 75e3, 3000
        wf = simulate_waveform(op, chain, user, system, n / sample_rate, sample_rate,
                               6, rho_solver="liouvillian")
        ref = _reference_waveform(op, chain, user, system, n, sample_rate, 6,
                                  "liouvillian", period=n)
        for name in ("t", "v_exact", "v_approx", "sn", "cn"):
            assert np.array_equal(getattr(wf, name), ref[name]), name

    def test_weak_lo_warns_and_computes_the_same(self, system, chain, bcod):
        with pytest.warns(WeakLO):
            self._check(bcod, chain, defaults.weak_user(5.0, bcod), system,
                        4001, 3, "closed-form")

    def test_zero_probe(self, system, quiet, diod):
        off = dataclasses.replace(diod, p0=0.0)
        with pytest.raises(ZeroProbe):
            simulate_waveform(off, quiet, defaults.weak_user(20.0, off), system,
                              64 / FS, FS, seed=0)

    def test_saturation_raised_before_any_noise_draw(self, system, chain, bcod,
                                                     monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("noise drawn before the saturation check")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        hot = dataclasses.replace(chain, i_sat=1e-3)
        with pytest.raises(Saturation):
            simulate_waveform(bcod, hot, defaults.weak_user(20.0, bcod), system,
                              64 / FS, FS, seed=0)


class TestAllocation:
    """The chain builds little beyond what it returns: simulate_waveform's
    five output columns plus the noise draw, and demodulate_iq's complex
    result, its mixing buffer and one filter output. The cached beat phasors
    are built once and then retained."""

    N = 40_000

    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_simulation_peak(self, system, chain, scheme):
        op = defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point()
        user = defaults.weak_user(20.0, op)
        peak = peak_bytes(lambda: simulate_waveform(
            op, chain, user, system, self.N / FS, FS, seed=1))
        assert peak <= 6.5 * 8 * self.N

    def test_demodulation_peak(self, rng):
        v = rng.normal(0.0, 1.0, self.N)
        peak = peak_bytes(lambda: demodulate_iq(v, 75e3, FS))
        assert peak <= 4.5 * 8 * self.N

    def test_caches_retain_one_cosine_and_one_sine(self, system, chain, bcod):
        # with user phase 0 the simulator and the demodulator share one
        # cosine; the taps add a few kilobytes. A short chain first imports
        # what the chain imports lazily.
        user = defaults.weak_user(20.0, bcod)
        _demod_chain(bcod, chain, user, system, 1000, FS, seed=1)
        _clear_caches()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _demod_chain(bcod, chain, user, system, self.N, FS, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 2 * 8 * self.N + 8 * 1024


_CACHES = (waveform._beat_cos, waveform._beat_negsin, waveform._lowpass_taps)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


def _demod_chain(op, chain, user, system, n, sample_rate, seed):
    """Every output of one simulate/demodulate/estimate pass, as a dict."""
    wf = simulate_waveform(op, chain, user, system, n / sample_rate, sample_rate,
                           seed)
    out = {name: getattr(wf, name) for name in ("t", "v_exact", "v_approx", "sn",
                                                "cn", "v_dc", "f_delta")}
    out["z"] = demodulate_iq(down_convert(wf.v_exact, wf.v_dc), wf.f_delta,
                             sample_rate)
    out["estimate"] = baseband_estimate(out["z"], wf.f_delta, sample_rate)
    return out


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


@st.composite
def chain_specs(draw):
    """(op, user, n, sample_rate, seed) over both schemes, beats of either
    sign, 16-40 samples per beat period and user phases off 0."""
    scheme = draw(st.sampled_from(["DIOD", "BCOD"]))
    op = defaults.diod_point() if scheme == "DIOD" else defaults.bcod_point()
    f_delta = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2e4, 2e5))
    user = defaults.weak_user(draw(st.floats(15.0, 40.0)), op,
                              theta_x=draw(st.floats(-math.pi, math.pi)),
                              f_delta=f_delta)
    sample_rate = draw(st.floats(16.5, 40.0)) * abs(f_delta)
    return op, user, draw(st.integers(400, 4000)), sample_rate, draw(
        st.integers(0, 2**32))


class TestCaches:
    """The beat phasors and taps kept between calls change no output."""

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(chain_specs(), min_size=1, max_size=4), data=st.data())
    def test_interleaved_calls_equal_cold_calls_and_the_expressions(
            self, system, chain, specs, data):
        # a call repeated later in the list finds its arrays cached, unless
        # the calls between evicted them
        order = data.draw(st.lists(st.sampled_from(range(len(specs))),
                                   min_size=1, max_size=6), label="order")

        def run(i):
            op, user, n, sample_rate, seed = specs[i]
            return _demod_chain(op, chain, user, system, n, sample_rate, seed)

        warm = [run(i) for i in order]
        # the demodulations once more, in the reverse order
        for i, out in zip(order[::-1], warm[::-1]):
            v = down_convert(out["v_exact"], out["v_dc"])
            assert np.array_equal(demodulate_iq(v, out["f_delta"], specs[i][3]),
                                  out["z"])
        for i, out in zip(order, warm):
            _clear_caches()
            _assert_same(out, run(i))
            op, user, n, sample_rate, seed = specs[i]
            ref = _reference_waveform(op, chain, user, system, n, sample_rate,
                                      seed, "closed-form")
            for name in ("t", "v_exact", "v_approx", "sn", "cn", "v_dc"):
                assert np.array_equal(out[name], ref[name]), name
            v = down_convert(ref["v_exact"], ref["v_dc"])
            assert np.array_equal(
                out["z"], _reference_demodulation(v, out["f_delta"], sample_rate))

    def test_writing_into_outputs_leaves_the_next_call_alone(self, system, chain,
                                                             bcod):
        user = defaults.weak_user(20.0, bcod, theta_x=0.3)
        args = (bcod, chain, user, system, 4000, FS, 2)
        first = _demod_chain(*args)
        kept = {name: np.copy(value) for name, value in first.items()}
        for name in ("t", "v_exact", "v_approx", "sn", "cn", "z"):
            first[name][:] = 7.0
        _assert_same(_demod_chain(*args), kept)

    def test_cached_arrays_are_read_only(self):
        for arr in (waveform._beat_cos(64, FS, 75e3, 0.5),
                    waveform._beat_negsin(64, FS, 75e3),
                    _lowpass_taps(75e3, FS)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_threads_running_the_chain_at_once(self, system, chain):
        # more distinct keys than cache entries, so the threads also evict
        # each other's arrays
        specs = [(op, defaults.weak_user(ratio, op, theta_x=theta), n, FS, seed)
                 for seed, (op, ratio, theta, n) in enumerate([
                     (defaults.diod_point(), 20.0, 0.0, 4000),
                     (defaults.bcod_point(), 25.0, 0.7, 4000),
                     (defaults.diod_point(), 30.0, -1.1, 3001),
                     (defaults.bcod_point(), 15.0, 0.0, 2500),
                     (defaults.bcod_point(), 35.0, 2.0, 3001),
                 ])]

        def run(spec):
            op, user, n, sample_rate, seed = spec
            return _demod_chain(op, chain, user, system, n, sample_rate, seed)

        serial = [run(spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, spec) for spec in specs * 4]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            _assert_same(got, serial[k % len(specs)])


class TestEndToEnd:
    def test_demod_amplitude_matches_link_budget(self, system, diod, bcod, quiet):
        """Noiseless loopback: |demod| = sqrt(rho * P_x) * |Phi| within 1%
        at a 20 dB LO-to-user ratio, for both schemes."""
        for op in (diod, bcod):
            user = defaults.weak_user(20.0, op)
            wf = simulate_waveform(op, quiet, user, system, 2e-3, FS, seed=1)
            z = demodulate_iq(
                down_convert(wf.v_exact, wf.v_dc), wf.f_delta, wf.sample_rate
            )
            est = baseband_estimate(z, wf.f_delta, wf.sample_rate)
            g = baseband_gains(op, quiet, system)
            target = math.sqrt(g.rho * user.power(op.a_e)) * abs(g.phi)
            assert abs(abs(est) - target) / target <= 0.01

    def test_linearized_chain_is_exact_at_first_order(self, system, bcod, quiet):
        user = defaults.weak_user(20.0, bcod)
        wf = simulate_waveform(bcod, quiet, user, system, 2e-3, FS, seed=1)
        z = demodulate_iq(
            down_convert(wf.v_approx, wf.v_dc), wf.f_delta, wf.sample_rate
        )
        est = baseband_estimate(z, wf.f_delta, wf.sample_rate)
        g = baseband_gains(bcod, quiet, system)
        target = math.sqrt(g.rho * user.power(bcod.a_e)) * abs(g.phi)
        assert abs(abs(est) - target) / target <= 1e-3

    def test_phase_recovery_within_one_degree(self, system, diod, quiet):
        for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            user = defaults.weak_user(25.0, diod, theta_x=float(theta))
            wf = simulate_waveform(diod, quiet, user, system, 1.5e-3, FS, seed=1)
            z = demodulate_iq(
                down_convert(wf.v_exact, wf.v_dc), wf.f_delta, wf.sample_rate
            )
            recovered = np.angle(
                baseband_estimate(z, wf.f_delta, wf.sample_rate)) % (2.0 * math.pi)
            err = abs(recovered - theta)
            assert min(err, 2.0 * math.pi - err) <= math.radians(1.0)

    def test_balanced_projection_follows_local_phase(self, system, bcod, quiet):
        """Tilting the local-beam phase scales the recovered amplitude by
        cos(phi_l)."""
        user = defaults.weak_user(25.0, bcod)

        def amp(op):
            wf = simulate_waveform(op, quiet, user, system, 2e-3, FS, seed=1)
            z = demodulate_iq(
                down_convert(wf.v_exact, wf.v_dc), wf.f_delta, wf.sample_rate
            )
            return abs(baseband_estimate(z, wf.f_delta, wf.sample_rate))

        a0 = amp(bcod)
        a60 = amp(dataclasses.replace(bcod, phi_l=math.pi / 3.0))
        assert a60 / a0 == pytest.approx(0.5, rel=1e-3)

