"""Array model: channel statistics, detection decomposition, closed-form
bounds, Monte-Carlo agreement, baseline, and the crossover threshold."""

import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raqr import defaults, mimo
from raqr.frontend import baseband_gains, noise_budget, with_powers

from conftest import rel_err


@pytest.fixture(scope="module")
def gains():
    system = defaults.cesium_system()
    chain = defaults.default_chain()
    return baseband_gains(defaults.bcod_point(), chain, system)


@pytest.fixture(scope="module")
def budget(gains):
    system = defaults.cesium_system()
    chain = defaults.default_chain()
    return noise_budget(defaults.bcod_point(), chain, system, gains=gains)


def small_scenario(**overrides):
    kw = dict(n_sensors=32, n_users=4, n_realizations=20_000, seed=3)
    kw.update(overrides)
    return defaults.default_scenario(**kw)


class TestScenario:
    def test_broadcasts_scalars(self):
        sc = small_scenario()
        assert sc.beta.shape == (4,)
        assert sc.p.shape == (4,)
        assert np.all(sc.p == 1.0)

    def test_default_half_wave_spacing(self):
        sc = small_scenario()
        assert rel_err(sc.spacing, 0.5 * sc.lambda_lo) < 1e-12

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            defaults.default_scenario(n_sensors=0, n_users=4)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            small_scenario(p=-1.0)

    def test_rejects_negative_fading(self):
        with pytest.raises(ValueError):
            small_scenario(beta=-1e-12)


class TestLargeScaleFading:
    def test_formula(self):
        got_db = 10.0 * math.log10(mimo.large_scale_fading(1500.0, 6.9458e9))
        expected_db = -32.4 - 20.0 * math.log10(1500.0) - 20.0 * math.log10(6.9458)
        assert abs(got_db - expected_db) < 1e-9

    def test_nominal_range_value(self):
        # ~-112.8 dB at the shipped carrier and range
        got_db = 10.0 * math.log10(
            mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
        )
        assert abs(got_db - (-112.756)) < 1e-3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mimo.large_scale_fading(0.0, 1e9)


class TestChannel:
    def test_zero_fading_zero_column(self, rng):
        sc = small_scenario(beta=[1e-12, 0.0, 1e-12, 1e-12])
        h = mimo.gen_channel(sc, rng)
        assert np.all(h[:, 1] == 0.0)
        assert np.all(h[:, 0] != 0.0)

    def test_norm_moment(self, rng):
        sc = small_scenario()
        acc = np.zeros(sc.n_users)
        n = 10_000
        for _ in range(n):
            h = mimo.gen_channel(sc, rng)
            acc += (np.abs(h) ** 2).sum(axis=0)
        assert np.all(np.abs(acc / n / sc.n_sensors - sc.beta) < 0.02 * sc.beta)

    def test_component_variances(self, rng):
        sc = small_scenario(n_sensors=64, n_users=1)
        draws = np.stack([mimo.gen_channel(sc, rng)[:, 0] for _ in range(2000)])
        re_var = draws.real.var()
        im_var = draws.imag.var()
        assert rel_err(re_var, sc.beta[0] / 2.0) < 0.02
        assert rel_err(im_var, sc.beta[0] / 2.0) < 0.02


class TestBuildReceived:
    def test_noiseless_is_pure_signal(self, gains, budget, rng):
        sc = small_scenario()
        quiet = dataclasses.replace(
            budget, n_cn=0.0, n_tn=0.0, n_qpn=0.0, n_sum=0.0, sigma_sq_sn=0.0
        )
        h = mimo.gen_channel(sc, rng)
        s = np.ones(sc.n_users, dtype=complex)
        snap = mimo.build_received(h, sc, gains, quiet, s, rng)
        assert np.all(snap.shot == 0.0)
        assert np.all(snap.noise == 0.0)
        assert np.array_equal(snap.y, snap.signal)

    def test_silent_users_leave_awgn(self, gains, budget, rng):
        sc = small_scenario(n_sensors=16)
        s = np.zeros(sc.n_users, dtype=complex)
        h = mimo.gen_channel(sc, rng)
        acc = 0.0
        n = 10_000
        for _ in range(n):
            snap = mimo.build_received(h, sc, gains, budget, s, rng)
            acc += (np.abs(snap.y) ** 2).mean()
        assert rel_err(acc / n, budget.n_sum) < 0.02

    def test_per_entry_second_moment(self, gains, budget, rng):
        sc = small_scenario(n_sensors=16)
        pb_sum = float((sc.p * sc.beta).sum())
        expected = (
            gains.rho * abs(gains.phi) ** 2 * pb_sum
            + budget.sigma_sq_sn * gains.rho_sn * abs(gains.phi_sn) ** 2 * pb_sum
            + budget.n_sum
        )
        acc = 0.0
        n = 10_000
        for _ in range(n):
            h = mimo.gen_channel(sc, rng)
            s_raw = rng.standard_normal((2, sc.n_users))
            s = (s_raw[0] + 1j * s_raw[1]) / math.sqrt(2.0)
            acc += (np.abs(mimo.build_received(h, sc, gains, budget, s, rng).y) ** 2).mean()
        assert rel_err(acc / n, expected) < 0.02


class TestCombiner:
    def test_mrc_is_phased_channel(self, gains, rng):
        sc = small_scenario()
        h = mimo.gen_channel(sc, rng)
        c = mimo.combiner(h, sc, gains, "MRC")
        d = mimo.lo_phase_progression(sc)
        assert np.allclose(c, gains.phi * d[:, None] * h, rtol=0, atol=0)

    def test_zf_inverts(self, gains, rng):
        sc = small_scenario()
        h = mimo.gen_channel(sc, rng)
        c = mimo.combiner(h, sc, gains, "ZF")
        d = mimo.lo_phase_progression(sc)
        a = gains.phi * d[:, None] * h
        assert np.allclose(c.conj().T @ a, np.eye(sc.n_users), atol=1e-10)

    def test_zf_needs_tall_channel(self, gains, rng):
        sc = small_scenario(n_sensors=4, n_users=4)
        h = mimo.gen_channel(sc, rng)
        with pytest.raises(mimo.DimensionError):
            mimo.combiner(h, sc, gains, "ZF")

    def test_duplicate_column_rank_deficient(self, gains, rng):
        sc = small_scenario()
        h = mimo.gen_channel(sc, rng)
        h[:, 1] = h[:, 0]
        with pytest.raises(mimo.RankDeficient):
            mimo.combiner(h, sc, gains, "ZF")

    def test_unknown_method(self, gains, rng):
        sc = small_scenario()
        h = mimo.gen_channel(sc, rng)
        with pytest.raises(ValueError):
            mimo.combiner(h, sc, gains, "MMSE")

    def test_one_rank_policy_for_snapshot_and_engine(self, gains, budget, rng):
        # a user 140 dB below the other: invertible in exact arithmetic,
        # refused by both zero-forcing paths alike
        sc = defaults.default_scenario(16, 2, n_realizations=256,
                                       beta=[1.0, 1e-14])
        h = mimo.gen_channel(sc, rng)
        with pytest.raises(mimo.RankDeficient):
            mimo.combiner(h, sc, gains, "ZF")
        with pytest.raises(mimo.RankDeficient):
            mimo.monte_carlo_rate(sc, gains, budget, "ZF")


class TestDetect:
    def _snapshot(self, gains, budget, rng, sc):
        h = mimo.gen_channel(sc, rng)
        s_raw = rng.standard_normal((2, sc.n_users))
        s = (s_raw[0] + 1j * s_raw[1]) / math.sqrt(2.0)
        return h, mimo.build_received(h, sc, gains, budget, s, rng)

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    def test_five_way_split_sums_to_statistic(self, gains, budget, rng, method):
        sc = small_scenario()
        h, snap = self._snapshot(gains, budget, rng, sc)
        det = mimo.detect(snap, h, sc, gains, method)
        total = det.ds + det.ls + det.ui + det.sn + det.n
        scale = np.abs(det.r).max()
        assert np.all(np.abs(det.r - total) < 1e-12 * scale)

    def test_bare_vector_gives_statistic_only(self, gains, budget, rng):
        sc = small_scenario()
        h, snap = self._snapshot(gains, budget, rng, sc)
        det_full = mimo.detect(snap, h, sc, gains, "MRC")
        det_bare = mimo.detect(snap.y, h, sc, gains, "MRC")
        assert np.array_equal(det_bare.r, det_full.r)
        assert det_bare.ds is None

    def test_zf_noiseless_recovers_symbols(self, gains, budget, rng):
        sc = small_scenario()
        quiet = dataclasses.replace(
            budget, n_cn=0.0, n_tn=0.0, n_qpn=0.0, n_sum=0.0, sigma_sq_sn=0.0
        )
        h, snap = self._snapshot(gains, quiet, rng, sc)
        det = mimo.detect(snap, h, sc, gains, "ZF")
        expected = np.sqrt(gains.rho * sc.p) * snap.symbols
        assert np.all(np.abs(det.r - expected) < 1e-9 * np.abs(expected).max())
        # inversion leaves no self-leakage or cross-talk
        assert np.all(np.abs(det.ls) ** 2 <= 1e-20 * np.abs(det.ds) ** 2)
        assert np.all(np.abs(det.ui) ** 2 <= 1e-20 * np.abs(det.ds).max() ** 2)

    def test_energy_balance(self, gains, budget, rng):
        # sample mean of |r|^2 against the sum of the five closed-form
        # moments; cross terms must average out
        sc = small_scenario(n_sensors=16)
        cf = mimo.closed_form_moments(sc, gains, budget, "MRC")
        expected = sum(cf[k] for k in cf)
        acc = np.zeros(sc.n_users)
        n = 10_000
        for _ in range(n):
            h, snap = self._snapshot(gains, budget, rng, sc)
            acc += np.abs(mimo.detect(snap.y, h, sc, gains, "MRC").r) ** 2
        assert np.all(np.abs(acc / n - expected) < 0.05 * expected)

    def test_cross_moments_vanish(self, gains, budget, rng):
        sc = small_scenario(n_sensors=16)
        n = 10_000
        pairs = {"ds_ui": 0.0, "ds_n": 0.0, "ui_sn": 0.0, "sn_n": 0.0}
        moments = {k: np.zeros(sc.n_users) for k in ("ds", "ui", "sn", "n")}
        for _ in range(n):
            h, snap = self._snapshot(gains, budget, rng, sc)
            det = mimo.detect(snap, h, sc, gains, "MRC")
            pairs["ds_ui"] += (det.ds * det.ui.conj()).real
            pairs["ds_n"] += (det.ds * det.n.conj()).real
            pairs["ui_sn"] += (det.ui * det.sn.conj()).real
            pairs["sn_n"] += (det.sn * det.n.conj()).real
            for k in moments:
                moments[k] += np.abs(getattr(det, k)) ** 2
        for name, acc in pairs.items():
            a, b = name.split("_")
            scale = np.sqrt(moments[a] / n * moments[b] / n)
            assert np.all(np.abs(acc / n) < 0.1 * scale), name


class TestClosedFormBounds:
    def test_mrc_bound_is_moment_assembly(self, gains, budget):
        sc = small_scenario()
        cf = mimo.closed_form_moments(sc, gains, budget, "MRC")
        assembled = cf["ds"] / (cf["ls"] + cf["ui"] + cf["sn"] + cf["n"])
        bound = mimo.sinr_lb_mrc(sc, gains, budget)
        assert np.all(np.abs(bound.sinr - assembled) < 1e-12 * assembled)

    def test_zf_moment_form_is_moment_assembly(self, gains, budget):
        sc = small_scenario()
        cf = mimo.closed_form_moments(sc, gains, budget, "ZF")
        assembled = cf["ds"] / (cf["ls"] + cf["ui"] + cf["sn"] + cf["n"])
        bound = mimo.sinr_lb_zf(sc, gains, budget, form="moment")
        assert np.all(np.abs(bound.sinr - assembled) < 1e-12 * assembled)

    def test_zf_printed_is_four_times_moment(self, gains, budget):
        sc = small_scenario()
        printed = mimo.sinr_lb_zf(sc, gains, budget, form="printed")
        moment = mimo.sinr_lb_zf(sc, gains, budget, form="moment")
        assert np.allclose(printed.sinr, 4.0 * moment.sinr, rtol=1e-14)

    def test_mrc_single_user_no_shot_reduction(self, gains, budget):
        sc = small_scenario(n_users=1)
        quiet = dataclasses.replace(budget, sigma_sq_sn=0.0)
        bound = mimo.sinr_lb_mrc(sc, gains, quiet)
        pb = sc.p[0] * sc.beta[0]
        phi2 = abs(gains.phi) ** 2
        expected = (
            sc.n_sensors * gains.rho * phi2 * pb
            / (gains.rho * phi2 * pb + budget.n_sum)
        )
        assert rel_err(bound.sinr[0], expected) < 1e-12

    def test_zf_no_shot_reduction(self, gains, budget):
        sc = small_scenario()
        quiet = dataclasses.replace(budget, sigma_sq_sn=0.0)
        printed = mimo.sinr_lb_zf(sc, gains, quiet, form="printed")
        expected = (
            4.0 * (sc.n_sensors - sc.n_users) * gains.rho
            * abs(gains.phi) ** 2 * sc.p * sc.beta / budget.n_sum
        )
        assert np.allclose(printed.sinr, expected, rtol=1e-12)

    def test_zf_dimension_guard(self, gains, budget):
        sc = small_scenario(n_sensors=4, n_users=4)
        with pytest.raises(mimo.DimensionError):
            mimo.sinr_lb_zf(sc, gains, budget)

    def test_rf_baseline_values(self):
        sc = small_scenario()
        sigma = 4e-12
        base = mimo.rf_baseline(sc, sigma)
        pb = sc.p * sc.beta
        mrc_expected = sc.n_sensors * pb / (pb.sum() + sigma)
        zf_expected = (sc.n_sensors - sc.n_users) * pb / sigma
        assert np.allclose(base["mrc"].sinr, mrc_expected, rtol=1e-12)
        assert np.allclose(base["zf"].sinr, zf_expected, rtol=1e-12)

    def test_rf_reduction_identity(self, budget):
        # unit-gain shot-free front end reproduces the baseline exactly
        sc = small_scenario()
        sigma = 4e-12
        g, b = mimo.rf_gains(sigma)
        base = mimo.rf_baseline(sc, sigma)
        assert np.array_equal(mimo.sinr_lb_mrc(sc, g, b).sinr, base["mrc"].sinr)
        assert np.array_equal(
            mimo.sinr_lb_zf(sc, g, b, form="moment").sinr, base["zf"].sinr
        )


class TestAsymptoticRate:
    def test_floor_is_signal_free_normalized_noise(self, gains, budget):
        # the saturating rate is set by the same functional the optimizer
        # minimizes, with the user-signal-dependent weight removed
        from raqr.optimize import NoiseWeights, normalized_noise

        system = defaults.cesium_system()
        chain = defaults.default_chain()
        wts = NoiseWeights.from_chain(chain, system)
        floor_w = NoiseWeights(0.0, wts.dc_shot, wts.thermal, wts.projection)
        floor = normalized_noise(defaults.bcod_point(), floor_w, system)
        beta = 5e-12
        got = mimo.asymptotic_rate(gains, budget, beta)
        assert rel_err(got, math.log2(1.0 + 4.0 * beta / floor)) < 1e-9

    def test_matches_scaled_down_bound(self, gains, budget):
        beta = mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
        asym = mimo.asymptotic_rate(gains, budget, beta)
        sc = defaults.default_scenario(4096, 10, p=1.0 / 4096)
        bound = mimo.sinr_lb_mrc(sc, gains, budget).rate[0]
        assert rel_err(bound, asym) < 0.01

    def test_monotone_convergence(self, gains, budget):
        beta = mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
        asym = mimo.asymptotic_rate(gains, budget, beta)
        rates, gaps = [], []
        for m in (64, 256, 1024, 4096):
            sc = defaults.default_scenario(m, 10, p=1.0 / m)
            r = mimo.sinr_lb_mrc(sc, gains, budget).rate[0]
            rates.append(r)
            gaps.append(abs(r - asym))
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestCrossover:
    SIGMA = 3e-12

    @pytest.mark.parametrize("sweep", ["p_lo", "p0"])
    def test_root_sits_on_floor(self, sweep):
        from raqr.optimize import NoiseWeights, normalized_noise

        system = defaults.cesium_system()
        chain = defaults.default_chain()
        op = defaults.bcod_point()
        root = mimo.crossover_threshold(op, chain, system, self.SIGMA, sweep=sweep)
        wts = NoiseWeights.from_chain(chain, system)
        floor_w = NoiseWeights(0.0, wts.dc_shot, wts.thermal, wts.projection)
        floor = normalized_noise(with_powers(op, **{sweep: root}), floor_w, system)
        assert rel_err(floor, 4.0 * self.SIGMA) < 2e-3

    def test_root_is_degradation_edge(self):
        # upward crossing: favorable (below baseline) just under the root,
        # unfavorable just over it
        from raqr.optimize import NoiseWeights, normalized_noise

        system = defaults.cesium_system()
        chain = defaults.default_chain()
        op = defaults.bcod_point()
        root = mimo.crossover_threshold(op, chain, system, self.SIGMA, sweep="p_lo")
        wts = NoiseWeights.from_chain(chain, system)
        floor_w = NoiseWeights(0.0, wts.dc_shot, wts.thermal, wts.projection)

        def floor(x):
            return normalized_noise(with_powers(op, p_lo=x), floor_w, system)

        assert floor(0.9 * root) < 4.0 * self.SIGMA < floor(1.1 * root)

    def test_no_crossing_extremes(self):
        system = defaults.cesium_system()
        chain = defaults.default_chain()
        op = defaults.bcod_point()
        with pytest.raises(mimo.NoCrossing):
            mimo.crossover_threshold(op, chain, system, 1e6)
        with pytest.raises(mimo.NoCrossing):
            mimo.crossover_threshold(op, chain, system, 1e-30)

    def test_rejects_unknown_sweep(self):
        system = defaults.cesium_system()
        chain = defaults.default_chain()
        with pytest.raises(ValueError):
            mimo.crossover_threshold(
                defaults.bcod_point(), chain, system, self.SIGMA, sweep="pc"
            )

    def test_each_grid_point_evaluated_once(self, monkeypatch):
        from raqr.optimize import normalized_noise

        calls = []

        def counted(*args):
            calls.append(args)
            return normalized_noise(*args)

        monkeypatch.setattr(mimo, "normalized_noise", counted)
        mimo.crossover_threshold(defaults.bcod_point(), defaults.default_chain(),
                                 defaults.cesium_system(), self.SIGMA)
        # 128 grid points plus the bisection steps
        assert 128 < len(calls) <= 136


class TestMonteCarlo:
    def test_moments_match_closed_forms_mrc(self, gains, budget):
        sc = small_scenario()
        mc = mimo.monte_carlo_terms(sc, gains, budget, "MRC")
        cf = mimo.closed_form_moments(sc, gains, budget, "MRC")
        for key in cf:
            assert np.all(np.abs(mc[key] - cf[key]) <= 0.03 * cf[key]), key

    def test_moments_match_closed_forms_zf(self, gains, budget):
        sc = small_scenario()
        mc = mimo.monte_carlo_terms(sc, gains, budget, "ZF")
        cf = mimo.closed_form_moments(sc, gains, budget, "ZF")
        assert np.all(np.abs(mc["ds"] - cf["ds"]) <= 1e-12 * cf["ds"])
        assert np.all(mc["ls"] <= 1e-20 * cf["ds"])
        assert np.all(mc["ui"] <= 1e-20 * cf["ds"])
        assert np.all(np.abs(mc["sn"] - cf["sn"]) <= 0.05 * cf["sn"])
        assert np.all(np.abs(mc["n"] - cf["n"]) <= 0.03 * cf["n"])

    def test_thread_count_invariance(self, gains, budget):
        sc = small_scenario(n_realizations=2000)
        r1 = mimo.monte_carlo_rate(sc, gains, budget, "MRC", threads=1)
        r3 = mimo.monte_carlo_rate(sc, gains, budget, "MRC", threads=3)
        assert np.array_equal(r1.rate, r3.rate)
        assert np.array_equal(r1.standard_error, r3.standard_error)

    def test_seed_changes_result(self, gains, budget):
        sc = small_scenario(n_realizations=2000)
        other = small_scenario(n_realizations=2000, seed=4)
        r1 = mimo.monte_carlo_rate(sc, gains, budget, "MRC")
        r2 = mimo.monte_carlo_rate(other, gains, budget, "MRC")
        assert not np.array_equal(r1.rate, r2.rate)

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    def test_rate_respects_bound(self, gains, budget, method):
        sc = defaults.default_scenario(100, 10, n_realizations=10_000, seed=7)
        res = mimo.monte_carlo_rate(sc, gains, budget, method)
        assert np.all(res.rate + 3.0 * res.standard_error >= res.bound)
        assert np.all(np.abs(res.rate - res.bound) <= 0.15 * res.bound)
        assert not mimo.bound_violation_alarm(res)

    def test_printed_zf_bound_trips_alarm(self, gains, budget):
        sc = defaults.default_scenario(100, 10, n_realizations=10_000, seed=7)
        res = mimo.monte_carlo_rate(sc, gains, budget, "ZF")
        printed = mimo.sinr_lb_zf(sc, gains, budget, form="printed")
        assert mimo.bound_violation_alarm(res, printed.rate)

    def test_noiseless_zf_is_capped(self, gains, budget):
        sc = small_scenario(n_realizations=200)
        quiet = dataclasses.replace(
            budget, n_cn=0.0, n_tn=0.0, n_qpn=0.0, n_sum=0.0, sigma_sq_sn=0.0
        )
        res = mimo.monte_carlo_rate(sc, gains, quiet, "ZF")
        assert res.capped
        assert np.all(np.isinf(res.rate))

    def test_requires_minimum_draws(self, gains, budget):
        sc = small_scenario(n_realizations=50)
        with pytest.raises(ValueError):
            mimo.monte_carlo_rate(sc, gains, budget, "MRC")

    def test_interference_suppression_slope(self, gains, budget):
        # hardening: interference-to-signal ratio falls as 1/M
        ratios = []
        sizes = (16, 32, 64, 128)
        for m in sizes:
            sc = defaults.default_scenario(m, 10, n_realizations=4000, seed=5)
            mc = mimo.monte_carlo_terms(sc, gains, budget, "MRC")
            ratios.append(float(((mc["ls"] + mc["ui"]) / mc["ds"])[0]))
        slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
        assert abs(slope + 1.0) < 0.05


# The engine reads five numbers from a gain table, so the draws cover the
# whole complex plane for phi and phi_sn, not only the box BasebandGains
# enforces for physical chains (|phi| <= 1, |phi_sn| = 1).
_MAG = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_NONNEG = st.one_of(st.just(0.0), _MAG)
_ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def gain_tables(draw):
    gains = SimpleNamespace(
        rho=draw(_NONNEG), rho_sn=draw(_NONNEG),
        phi=draw(_MAG) * cmath.exp(1j * draw(_ANGLE)),
        phi_sn=draw(_NONNEG) * cmath.exp(1j * draw(_ANGLE)),
    )
    budget = SimpleNamespace(sigma_sq_sn=draw(_NONNEG), n_sum=draw(_NONNEG))
    return gains, budget


UNIT_TABLE = (SimpleNamespace(rho=1.0, rho_sn=1.0, phi=1.0 + 0j, phi_sn=1.0 + 0j),
              SimpleNamespace(sigma_sq_sn=1.0, n_sum=1.0))
# two chunks, so the batch-means standard error is exercised too
TABLE_SCENARIO = defaults.default_scenario(8, 2, n_realizations=300, seed=11,
                                           beta=1.0)


class TestGainTables:
    @settings(max_examples=40, deadline=None)
    @given(tables=st.lists(gain_tables(), min_size=1, max_size=4),
           method=st.sampled_from(["MRC", "ZF"]), data=st.data())
    def test_each_table_matches_a_single_table_run(self, tables, method, data):
        order = data.draw(st.permutations(range(len(tables))))
        batch = mimo.monte_carlo_rates(TABLE_SCENARIO,
                                       [tables[i] for i in order], method)
        assert len(batch) == len(tables)
        for i, res in zip(order, batch):
            one = mimo.monte_carlo_rate(TABLE_SCENARIO, *tables[i], method)
            for name in ("sinr", "rate", "bound", "standard_error"):
                assert np.array_equal(getattr(res, name), getattr(one, name),
                                      equal_nan=True), name
            assert (res.capped, res.n_samples) == (one.capped, one.n_samples)

    @settings(max_examples=60, deadline=None)
    @given(table=gain_tables(), method=st.sampled_from(["MRC", "ZF"]))
    def test_terms_scale_as_closed_form_exponents(self, table, method):
        gains, budget = table
        ref = mimo.monte_carlo_terms(TABLE_SCENARIO, *UNIT_TABLE, method)
        got = mimo.monte_carlo_terms(TABLE_SCENARIO, gains, budget, method)
        phi2 = abs(gains.phi) ** 2
        shot = gains.rho_sn * abs(gains.phi_sn) ** 2 * budget.sigma_sq_sn
        if method == "MRC":
            signal = gains.rho * phi2**2
            scale = {"ds": signal, "ls": signal, "ui": signal,
                     "sn": shot * phi2, "n": budget.n_sum * phi2}
        else:
            scale = {"ds": gains.rho, "sn": shot / phi2,
                     "n": budget.n_sum / phi2}
            # exact interference cancellation: only rounding is left
            assert np.all(got["ls"] <= 1e-12 * got["ds"])
            assert np.all(got["ui"] == 0.0)
        for key, factor in scale.items():
            expected = factor * ref[key]
            assert np.all(np.abs(got[key] - expected) <= 1e-12 * expected), key

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    def test_zero_signal_table_has_zero_rate(self, method):
        # no desired signal and a zero denominator: SINR 0, not inf or NaN,
        # on the sampled and the closed-form path alike
        gains = SimpleNamespace(rho=0.0, rho_sn=0.0, phi=1.0 + 0j, phi_sn=1.0 + 0j)
        budget = SimpleNamespace(sigma_sq_sn=0.0, n_sum=0.0)
        res = mimo.monte_carlo_rate(TABLE_SCENARIO, gains, budget, method)
        assert not res.capped
        for values in (res.sinr, res.rate, res.bound, res.standard_error):
            assert np.array_equal(values, np.zeros(TABLE_SCENARIO.n_users))
        bound = (mimo.sinr_lb_mrc(TABLE_SCENARIO, gains, budget) if method == "MRC"
                 else mimo.sinr_lb_zf(TABLE_SCENARIO, gains, budget))
        assert np.array_equal(bound.sinr, np.zeros(TABLE_SCENARIO.n_users))
