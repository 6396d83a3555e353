"""Array model: channel statistics, the model's properties on an independent
oracle, closed-form bounds, the Monte-Carlo engine against the oracle and the
closed forms, baseline, and the crossover threshold."""

import cmath
import dataclasses
import inspect
import math
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raqr import defaults, mimo
from raqr.frontend import baseband_gains, noise_budget, with_powers

from conftest import peak_bytes, rel_err, run_fresh


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


def test_all_lists_the_public_definitions():
    # a stale or missing name breaks `from raqr.mimo import *`
    public = [name for name, obj in vars(mimo).items()
              if not name.startswith("_")
              and (inspect.isclass(obj) or inspect.isfunction(obj))
              and obj.__module__ == mimo.__name__]
    assert sorted(mimo.__all__) == sorted(public)


class TestScenario:
    def test_broadcasts_scalars(self):
        sc = small_scenario()
        assert sc.beta.shape == (4,)
        assert sc.p.shape == (4,)
        assert np.all(sc.p == 1.0)

    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.1, math.pi / 2])
    def test_half_wave_lo_phase_progression(self, theta):
        """Half-wave spacing: the LO phase steps by pi sin(theta) per sensor."""
        sc = small_scenario(theta_arrival=theta)
        m = np.arange(sc.n_sensors)
        expected = np.exp(-1j * math.pi * m * math.sin(theta))
        assert np.allclose(mimo.lo_phase_progression(sc), expected, rtol=1e-12, atol=0.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            defaults.default_scenario(n_sensors=0, n_users=4)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            small_scenario(p=-1.0)

    def test_rejects_negative_fading(self):
        with pytest.raises(ValueError):
            small_scenario(beta=-1e-12)

    @pytest.mark.parametrize("per_user", [False, True], ids=["scalar", "per-user"])
    @pytest.mark.parametrize("name, what", [("beta", "large-scale fading"),
                                            ("p", "transmit powers")])
    def test_rejects_nan(self, name, what, per_user):
        value = np.array([1e-12, math.nan, 1e-12, 1e-12]) if per_user else math.nan
        with pytest.raises(ValueError, match=f"^{what} must be nonnegative"):
            small_scenario(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_rejects_seed_outside_a_philox_key_word(self, seed):
        with pytest.raises(ValueError, match="seed"):
            small_scenario(seed=seed)

    def test_largest_seed_runs(self, gains, budget):
        sc = small_scenario(seed=2**63 - 1, n_realizations=100)
        assert np.all(np.isfinite(mimo.monte_carlo_rate(sc, gains, budget, "MRC").rate))


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


# --------------------------------------------------------------------------
# An independent oracle: the array model written out from its definitions in
# plain numpy. It shares no kernel with the engine; the engine's draws and
# term moments are checked against it, and the model's properties on it.


def oracle_draws(scenario, chunk, n):
    """The first ``n`` realizations of chunk ``chunk``, from Philox keyed
    [seed, chunk] in the documented order: channel real then imaginary
    parts, symbols likewise, the shot diagonal, then AWGN likewise. The
    channel has variance beta per user, the rest unit variance."""
    rng = np.random.Generator(np.random.Philox(key=[scenario.seed, chunk]))
    m, k = scenario.n_sensors, scenario.n_users

    def complex_normal(shape):
        re = rng.standard_normal(shape)
        return re + 1j * rng.standard_normal(shape)

    h = complex_normal((n, m, k)) * np.sqrt(scenario.beta / 2.0)
    s = complex_normal((n, k)) / math.sqrt(2.0)
    b = rng.standard_normal((n, m))
    w = complex_normal((n, m)) / math.sqrt(2.0)
    return h, s, b, w


def oracle(scenario, gains, budget, method, n):
    """``n`` realizations of the model on chunk 0's ``oracle_draws``:

        y = √ρ·Φ·D·H·√p·s + √sn_coeff·Φ_sn·b⊙(D·H·√p·s) + √n_sum·w,

    combined with c = a (MRC) or c = a(aᴴa)⁻¹ (ZF), a = Φ·D·H, and each
    user's statistic r = cᴴy split into desired signal (at the hardening
    mean of the self-coupling cᴴa), leakage, interference, shot and AWGN."""
    h, s, b, w = oracle_draws(scenario, 0, n)
    sensor = np.arange(scenario.n_sensors)
    d = np.exp(-1j * math.pi * math.sin(scenario.theta_arrival) * sensor)
    dh = d[:, None] * h
    v = (dh @ (np.sqrt(scenario.p) * s)[..., None])[..., 0]
    signal = math.sqrt(gains.rho) * gains.phi * v
    shot = math.sqrt(budget.sn_coeff) * gains.phi_sn * b * v
    noise = math.sqrt(budget.n_sum) * w
    y = signal + shot + noise
    a = gains.phi * dh
    a_h = a.conj().swapaxes(-1, -2)
    c_h = a_h if method == "MRC" else np.linalg.solve(a_h @ a, a_h)
    t = c_h @ a
    coupling = np.diagonal(t, axis1=-2, axis2=-1)
    hardened = 1.0  # ZF: the self-coupling is 1
    if method == "MRC":
        hardened = abs(gains.phi) ** 2 * scenario.n_sensors * scenario.beta
    x = np.sqrt(gains.rho * scenario.p) * s

    def combine(col):
        return (c_h @ col[..., None])[..., 0]

    return SimpleNamespace(
        y=y, signal=signal, shot=shot, noise=noise, r=combine(y),
        coupling=coupling, x=x,
        ds=hardened * x, ls=(coupling - hardened) * x,
        ui=(t @ x[..., None])[..., 0] - coupling * x,
        sn=combine(shot), n=combine(noise))


def engine_draws(scenario, chunk, n):
    """The engine's ``_draw`` of chunk ``chunk`` into a workspace of ``n``."""
    ws = mimo._workspace(scenario, n)
    rng = np.random.Generator(np.random.Philox(key=[scenario.seed, chunk]))
    return mimo._draw(rng, scenario, ws["h"], ws["x"])


def quiet_budget(budget):
    return dataclasses.replace(budget, n_cn=0.0, n_tn=0.0, n_qpn=0.0, sn_coeff=0.0)


def engine_columns(scenario, a, s, b, w):
    """The shot and AWGN columns (..., M, 2) that the engine combines on a
    phased channel ``a``, formed as ``_chunk_stats`` forms them."""
    v = (a @ (np.sqrt(scenario.p) * s)[..., None])[..., 0]
    return np.stack([b * v, w], axis=-1)


def project(a, method, cols):
    """``_project`` into fresh arrays sized to its arguments."""
    lead, k, n = a.shape[:-2], a.shape[-1], cols.shape[-1]
    out = {"conj": np.empty(a.shape, complex),
           "gram": np.empty(lead + (k, k), complex),
           "z": np.empty(lead + (k, n), complex),
           "zf": np.empty(lead + (k, n), complex)}
    return mimo._project(a, method, cols, out)


@st.composite
def channel_stacks(draw, min_users=1):
    """A phased stack of channels (n, M, K) with M > K, and its shot and
    AWGN columns."""
    k = draw(st.integers(min_users, 4))
    sc = defaults.default_scenario(
        draw(st.integers(k + 1, k + 12)), k,
        theta_arrival=draw(st.floats(-math.pi / 2, math.pi / 2)),
        beta=draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    h, s, b, w = oracle_draws(sc, 0, draw(st.integers(1, 5)))
    a = mimo._phased(sc, h)
    return sc, a, engine_columns(sc, a, s, b, w)


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


class TestChannel:
    def test_zero_fading_zero_column(self):
        sc = small_scenario(beta=[1e-12, 0.0, 1e-12, 1e-12])
        h = engine_draws(sc, 0, 8)[0]
        assert np.all(h[..., 1] == 0.0)
        assert np.all(h[..., 0] != 0.0)

    def test_norm_moment(self):
        sc = small_scenario()
        h = engine_draws(sc, 0, 10_000)[0]
        norm = (np.abs(h) ** 2).sum(axis=1).mean(axis=0) / sc.n_sensors
        assert np.all(np.abs(norm - sc.beta) < 0.02 * sc.beta)

    def test_component_variances(self):
        sc = small_scenario(n_sensors=64, n_users=1)
        draws = engine_draws(sc, 0, 2000)[0][..., 0]
        assert rel_err(draws.real.var(), sc.beta[0] / 2.0) < 0.02
        assert rel_err(draws.imag.var(), sc.beta[0] / 2.0) < 0.02


class TestModel:
    """The model's properties, on the oracle that the engine is held to."""

    def test_noiseless_is_pure_signal(self, gains, budget):
        rx = oracle(small_scenario(), gains, quiet_budget(budget), "MRC", 64)
        assert np.all(rx.shot == 0.0)
        assert np.all(rx.noise == 0.0)
        assert np.array_equal(rx.y, rx.signal)

    def test_shot_follows_the_budget_coefficient(self, gains, budget):
        # sn_coeff is the one source of the shot noise: zeroing it alone
        # silences the model's shot addend and the engine's sn term
        sc = small_scenario(n_realizations=256)
        silent = dataclasses.replace(budget, sn_coeff=0.0)
        assert np.all(oracle(sc, gains, silent, "MRC", 64).shot == 0.0)
        for method in ("MRC", "ZF"):
            terms = mimo.monte_carlo_terms(sc, gains, silent, method)
            assert np.all(terms["sn"] == 0.0)

    def test_silent_users_leave_awgn(self, gains, budget):
        sc = small_scenario(n_sensors=16, p=0.0)
        rx = oracle(sc, gains, budget, "MRC", 10_000)
        assert rel_err((np.abs(rx.y) ** 2).mean(), budget.n_sum) < 0.02

    def test_per_entry_second_moment(self, gains, budget):
        sc = small_scenario(n_sensors=16)
        pb_sum = float((sc.p * sc.beta).sum())
        expected = (
            gains.rho * abs(gains.phi) ** 2 * pb_sum
            + budget.sn_coeff * abs(gains.phi_sn) ** 2 * pb_sum
            + budget.n_sum
        )
        rx = oracle(sc, gains, budget, "MRC", 10_000)
        assert rel_err((np.abs(rx.y) ** 2).mean(), expected) < 0.02

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    def test_five_way_split_sums_to_statistic(self, gains, budget, method):
        det = oracle(small_scenario(), gains, budget, method, 64)
        total = det.ds + det.ls + det.ui + det.sn + det.n
        assert np.all(np.abs(det.r - total) < 1e-12 * np.abs(det.r).max())

    def test_zf_noiseless_recovers_symbols(self, gains, budget):
        det = oracle(small_scenario(), gains, quiet_budget(budget), "ZF", 64)
        assert np.all(np.abs(det.r - det.x) < 1e-9 * np.abs(det.x).max())
        # inversion leaves no self-leakage or cross-talk
        assert np.all(np.abs(det.ls) ** 2 <= 1e-20 * np.abs(det.ds) ** 2)
        assert np.all(np.abs(det.ui) ** 2 <= 1e-20 * np.abs(det.ds).max() ** 2)

    def test_energy_balance(self, gains, budget):
        # sample mean of |r|^2 against the sum of the five closed-form
        # moments; cross terms must average out
        sc = small_scenario(n_sensors=16)
        cf = mimo.closed_form_moments(sc, gains, budget, "MRC")
        expected = sum(cf[k] for k in cf)
        det = oracle(sc, gains, budget, "MRC", 10_000)
        got = (np.abs(det.r) ** 2).mean(axis=0)
        assert np.all(np.abs(got - expected) < 0.05 * expected)

    def test_cross_moments_vanish(self, gains, budget):
        det = oracle(small_scenario(n_sensors=16), gains, budget, "MRC", 10_000)
        for a, b in (("ds", "ui"), ("ds", "n"), ("ui", "sn"), ("sn", "n")):
            x, y = getattr(det, a), getattr(det, b)
            cross = (x * y.conj()).real.mean(axis=0)
            scale = np.sqrt((np.abs(x) ** 2).mean(axis=0)
                            * (np.abs(y) ** 2).mean(axis=0))
            assert np.all(np.abs(cross) < 0.1 * scale), (a, b)


class TestCombiner:
    def test_mrc_is_phased_channel(self):
        # the MRC combiner is the phased channel a = D·H itself (Φ enters
        # through _scale): the coupling is aᴴa and the products aᴴ·cols
        sc = small_scenario(theta_arrival=0.5)
        h, s, b, w = oracle_draws(sc, 0, 8)
        d = mimo.lo_phase_progression(sc)
        a = mimo._phased(sc, h.copy())
        assert np.array_equal(a, d[:, None] * h)
        cols = engine_columns(sc, a, s, b, w)
        t, z = project(a, "MRC", cols)
        a_h = a.conj().swapaxes(-1, -2)
        assert np.array_equal(t, a_h @ a)
        assert np.array_equal(z, a_h @ cols)

    def test_zf_inverts(self):
        # combining the channel's own columns gives G⁻¹aᴴa, the identity,
        # beside the coupling that is the identity by construction
        sc = small_scenario(theta_arrival=0.5)
        a = mimo._phased(sc, oracle_draws(sc, 0, 8)[0])
        t, z = project(a, "ZF", a)
        eye = np.broadcast_to(np.eye(sc.n_users), t.shape)
        assert np.array_equal(t, eye)
        assert np.allclose(z, eye, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_statistic_and_noise_columns_match_the_combiner(
            self, gains, budget, method, batch):
        # the engine's coupling and stacked (shot, AWGN) block, scaled by
        # the combiner's factor c as _scale scales them, against the
        # oracle's per-column products cᴴa, cᴴ·shot and cᴴ·noise
        sc = small_scenario(theta_arrival=0.5)
        det = oracle(sc, gains, budget, method, 3)
        h, s, b, w = oracle_draws(sc, 0, 3)
        a = mimo._phased(sc, h)
        cols = engine_columns(sc, a, s, b, w)
        pick = slice(None) if batch else 0
        t, z = project(a[pick], method, cols[pick])
        c = np.conj(gains.phi) if method == "MRC" else 1.0 / gains.phi
        coupling = c * gains.phi * np.diagonal(t, axis1=-2, axis2=-1)
        shot = c * math.sqrt(budget.sn_coeff) * gains.phi_sn * z[..., 0]
        noise = c * math.sqrt(budget.n_sum) * z[..., 1]
        for got, want in ((coupling, det.coupling), (shot, det.sn), (noise, det.n)):
            assert got.shape == want[pick].shape
            assert _close(got, want[pick])

    def test_zf_needs_tall_channel(self, gains, budget):
        sc = small_scenario(n_sensors=4, n_users=4, n_realizations=256)
        with pytest.raises(mimo.DimensionError):
            mimo._zf_inverse(np.eye(4), 4)
        with pytest.raises(mimo.DimensionError):
            mimo.monte_carlo_rate(sc, gains, budget, "ZF")

    def test_duplicate_column_fails_the_projection(self):
        # one member of a sub-batch with two equal columns refuses the batch
        sc = small_scenario()
        h = oracle_draws(sc, 0, mimo._SUB)[0]
        h[5, :, 1] = h[5, :, 0]
        cols = np.zeros(h.shape[:2] + (2,), complex)
        with pytest.raises(mimo.RankDeficient):
            mimo._project(mimo._phased(sc, h), "ZF", cols,
                          mimo._workspace(sc, mimo._SUB))

    def test_zf_inverse_is_inv_under_the_cond_policy(self):
        # second columns from 1e-2 to 1e-9 away from the first, then an
        # exact copy: Gram condition numbers on both sides of 1e12
        rng = np.random.default_rng(5)
        a = rng.standard_normal((31, 8, 2)) + 1j * rng.standard_normal((31, 8, 2))
        gap = np.append(np.logspace(-2, -9, 30), 0.0)[:, None]
        a[:, :, 1] = a[:, :, 0] + gap * a[:, :, 1]
        grams = a.conj().swapaxes(-1, -2) @ a
        accepted = np.linalg.cond(grams, 1) <= 1e12
        assert accepted.any() and not accepted.all()
        for g, ok in zip(grams, accepted):
            if ok:
                assert np.array_equal(mimo._zf_inverse(g, 8), np.linalg.inv(g))
            else:
                with pytest.raises(mimo.RankDeficient):
                    mimo._zf_inverse(g, 8)
        kept = grams[accepted]
        assert np.array_equal(mimo._zf_inverse(kept, 8), np.linalg.inv(kept))
        with pytest.raises(mimo.RankDeficient):
            mimo._zf_inverse(grams, 8)
        with pytest.raises(mimo.RankDeficient):
            mimo._zf_inverse(np.full((2, 2), np.nan + 0j), 8)

    def test_unknown_method(self, gains, budget):
        sc = small_scenario(n_realizations=256)
        for call in (mimo.monte_carlo_rate, mimo.closed_form_moments):
            with pytest.raises(ValueError, match="unknown detection method"):
                call(sc, gains, budget, "MMSE")

    def test_engine_refuses_an_ill_conditioned_gram(self, gains, budget):
        # a user 140 dB below the other: invertible in exact arithmetic,
        # refused by the engine's rank policy
        sc = defaults.default_scenario(16, 2, n_realizations=256,
                                       beta=[1.0, 1e-14])
        with pytest.raises(mimo.RankDeficient):
            mimo.monte_carlo_rate(sc, gains, budget, "ZF")


def _ratio(num, den):
    # no desired signal is SINR 0; a positive one over nothing is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num > 0.0, num / den, 0.0)


def published_mrc_sinr(sc, gains, budget):
    """The published closed-form MRC bound, written out term by term."""
    pb = sc.p * sc.beta
    phi2 = abs(gains.phi) ** 2
    shot = budget.sn_coeff * abs(gains.phi_sn) ** 2
    num = sc.n_sensors * gains.rho * phi2 * pb
    den = pb.sum() * (gains.rho * phi2 + shot) + shot * pb + budget.n_sum
    return _ratio(num, den)


def published_zf_sinr(sc, gains, budget):
    """The published closed-form ZF bound at its printed numerator scale."""
    m, k = sc.n_sensors, sc.n_users
    pb = sc.p * sc.beta
    phi2 = abs(gains.phi) ** 2
    shot = budget.sn_coeff * abs(gains.phi_sn) ** 2 / m
    num = 4.0 * (m - k) * gains.rho * phi2 * pb
    den = shot * (pb * (m - k) + pb.sum() * (m - 1)) + budget.n_sum
    return _ratio(num, den)


_MAG = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_NONNEG = st.one_of(st.just(0.0), _MAG)
_ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def bound_cases(draw, method):
    """A physical gain table (|phi| <= 1, |phi_sn| = 1) and an array with
    M > K; MRC also takes phi = 0 and silent users, which ZF refuses."""
    m = draw(st.integers(2, 256))
    k = draw(st.integers(1, min(m - 1, 12)))
    fading = st.floats(-14.0, 0.0).map(lambda e: 10.0**e)
    magnitude = st.floats(-3.0, 0.0).map(lambda e: 10.0**e)
    if method == "MRC":
        fading, magnitude = (st.one_of(st.just(0.0), x) for x in (fading, magnitude))
    power = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    sc = mimo.MimoScenario(
        n_sensors=m, n_users=k,
        beta=draw(st.lists(fading, min_size=k, max_size=k)),
        p=draw(st.lists(power, min_size=k, max_size=k)))
    gains = SimpleNamespace(
        rho=draw(_NONNEG), phi=draw(magnitude) * cmath.exp(1j * draw(_ANGLE)),
        phi_sn=cmath.exp(1j * draw(_ANGLE)))
    budget = SimpleNamespace(sn_coeff=draw(_NONNEG), n_sum=draw(_NONNEG))
    return sc, gains, budget


class TestSnapshotBatch:
    """A leading axis on the channel makes a batch of independent snapshots."""

    @settings(max_examples=60, deadline=None)
    @given(stack=channel_stacks(), method=st.sampled_from(["MRC", "ZF"]))
    def test_each_member_matches_its_own_snapshot(self, stack, method):
        _, a, cols = stack
        t, z = project(a, method, cols)
        for i in range(len(a)):
            t_i, z_i = project(a[i], method, cols[i])
            assert _close(t[i], t_i) and _close(z[i], z_i)

    @settings(max_examples=30, deadline=None)
    @given(stack=channel_stacks(min_users=2), data=st.data())
    def test_one_ill_conditioned_member_fails_the_stack(self, stack, data):
        _, a, cols = stack
        bad = data.draw(st.integers(0, len(a) - 1))
        a[bad, :, 1] = a[bad, :, 0]
        project(a, "MRC", cols)  # MRC inverts nothing
        with pytest.raises(mimo.RankDeficient):
            project(a, "ZF", cols)


class TestClosedFormBounds:
    @settings(max_examples=200, deadline=None)
    @given(case=bound_cases("MRC"))
    def test_mrc_bound_matches_published_form(self, case):
        sc, gains, budget = case
        bound = mimo.sinr_lb(sc, gains, budget, "MRC")
        np.testing.assert_allclose(bound.sinr, published_mrc_sinr(sc, gains, budget),
                                   rtol=1e-12, atol=0.0)
        assert np.array_equal(bound.rate, np.log2(1.0 + bound.sinr))

    @settings(max_examples=200, deadline=None)
    @given(case=bound_cases("ZF"))
    def test_zf_bound_matches_published_form(self, case):
        sc, gains, budget = case
        cf = mimo.closed_form_moments(sc, gains, budget, "ZF")
        assert np.all(cf["ls"] == 0.0) and np.all(cf["ui"] == 0.0)
        bound = mimo.sinr_lb(sc, gains, budget, "ZF")
        # the published numerator scale is four times the moment bound
        reference = published_zf_sinr(sc, gains, budget)
        np.testing.assert_allclose(bound.sinr, reference / 4.0, rtol=1e-12, atol=0.0)
        assert np.array_equal(bound.rate, np.log2(1.0 + bound.sinr))

    def test_zf_refuses_zero_phi_and_zero_fading(self, gains, budget):
        # phi = 0 zeroes the phased channel, beta_k = 0 a column of it: the
        # engine and the closed form both refuse
        sc = small_scenario(n_realizations=256)
        dark = dataclasses.replace(gains, phi=0j)
        faded = small_scenario(n_realizations=256, beta=[1.0, 1.0, 1.0, 0.0])
        for call in (lambda: mimo.monte_carlo_rate(sc, dark, budget, "ZF"),
                     lambda: mimo.closed_form_moments(sc, dark, budget, "ZF"),
                     lambda: mimo.sinr_lb(sc, dark, budget, "ZF"),
                     lambda: mimo.monte_carlo_rate(faded, gains, budget, "ZF"),
                     lambda: mimo.sinr_lb(faded, gains, budget, "ZF")):
            with pytest.raises(mimo.RankDeficient):
                call()

    def test_mrc_bound_is_moment_assembly(self, gains, budget):
        sc = small_scenario()
        cf = mimo.closed_form_moments(sc, gains, budget, "MRC")
        assembled = cf["ds"] / (cf["ls"] + cf["ui"] + cf["sn"] + cf["n"])
        bound = mimo.sinr_lb(sc, gains, budget, "MRC")
        assert np.all(np.abs(bound.sinr - assembled) < 1e-12 * assembled)

    def test_zf_moment_form_is_moment_assembly(self, gains, budget):
        sc = small_scenario()
        cf = mimo.closed_form_moments(sc, gains, budget, "ZF")
        assembled = cf["ds"] / (cf["ls"] + cf["ui"] + cf["sn"] + cf["n"])
        bound = mimo.sinr_lb(sc, gains, budget, "ZF")
        assert np.all(np.abs(bound.sinr - assembled) < 1e-12 * assembled)

    def test_mrc_single_user_no_shot_reduction(self, gains, budget):
        sc = small_scenario(n_users=1)
        quiet = dataclasses.replace(budget, sn_coeff=0.0)
        bound = mimo.sinr_lb(sc, gains, quiet, "MRC")
        pb = sc.p[0] * sc.beta[0]
        phi2 = abs(gains.phi) ** 2
        expected = (
            sc.n_sensors * gains.rho * phi2 * pb
            / (gains.rho * phi2 * pb + budget.n_sum)
        )
        assert rel_err(bound.sinr[0], expected) < 1e-12

    def test_zf_no_shot_reduction(self, gains, budget):
        sc = small_scenario()
        quiet = dataclasses.replace(budget, sn_coeff=0.0)
        bound = mimo.sinr_lb(sc, gains, quiet, "ZF")
        expected = (
            (sc.n_sensors - sc.n_users) * gains.rho
            * abs(gains.phi) ** 2 * sc.p * sc.beta / budget.n_sum
        )
        assert np.allclose(bound.sinr, expected, rtol=1e-12)

    def test_zf_dimension_guard(self, gains, budget):
        sc = small_scenario(n_sensors=4, n_users=4)
        with pytest.raises(mimo.DimensionError):
            mimo.sinr_lb(sc, gains, budget, "ZF")

    def test_rf_baseline_values(self):
        # the RF baseline is the bound on the rf_gains table: the
        # conventional array's MRC and ZF SINRs
        sc = small_scenario()
        sigma = 4e-12
        rf = mimo.rf_gains(sigma)
        pb = sc.p * sc.beta
        mrc_expected = sc.n_sensors * pb / (pb.sum() + sigma)
        zf_expected = (sc.n_sensors - sc.n_users) * pb / sigma
        assert np.allclose(mimo.sinr_lb(sc, *rf, "MRC").sinr, mrc_expected, rtol=1e-12)
        assert np.allclose(mimo.sinr_lb(sc, *rf, "ZF").sinr, zf_expected, rtol=1e-12)

    def test_rf_reduction_identity(self, gains, budget):
        # a Rydberg gain table set to unit gain with its shot noise off gives
        # exactly the RF baseline: the bound reads nothing else of the table
        sc = small_scenario()
        sigma = 4e-12
        unit = dataclasses.replace(gains, rho=1.0, rho_sn=0.0, phi=1.0 + 0.0j)
        shot_free = dataclasses.replace(budget, n_cn=0.0, n_tn=2.0 * sigma,
                                        n_qpn=0.0, sn_coeff=0.0)
        rf = mimo.rf_gains(sigma)
        for method in ("MRC", "ZF"):
            assert np.array_equal(mimo.sinr_lb(sc, unit, shot_free, method).sinr,
                                  mimo.sinr_lb(sc, *rf, method).sinr)


class TestAsymptoticRate:
    @pytest.mark.parametrize("phi_l", [0.0, 0.5, -1.0, 1.2])
    def test_floor_is_signal_free_normalized_noise(self, phi_l):
        # the saturating rate is set by the same functional the optimizer
        # minimizes, with the user-signal-dependent weight removed, at any
        # demodulation phase
        from raqr.optimize import NoiseWeights, normalized_noise

        system = defaults.cesium_system()
        chain = defaults.default_chain()
        op = defaults.bcod_point(phi_l=phi_l)
        gains = baseband_gains(op, chain, system)
        budget = noise_budget(op, chain, system, gains=gains)
        wts = NoiseWeights.from_chain(chain, system)
        floor_w = NoiseWeights(0.0, wts.dc_shot, wts.thermal, wts.projection)
        floor = normalized_noise(op, floor_w, system)
        reception = gains.rho * abs(gains.phi) ** 2
        assert rel_err(floor, 4.0 * budget.n_sum / reception) < 1e-12
        beta = 5e-12
        got = mimo.asymptotic_rate(gains, budget, beta)
        assert rel_err(got, math.log2(1.0 + 4.0 * beta / floor)) < 1e-9

    def test_matches_scaled_down_bound(self, gains, budget):
        beta = mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
        asym = mimo.asymptotic_rate(gains, budget, beta)
        sc = defaults.default_scenario(4096, 10, p=1.0 / 4096)
        bound = mimo.sinr_lb(sc, gains, budget, "MRC").rate[0]
        assert rel_err(bound, asym) < 0.01

    def test_monotone_convergence(self, gains, budget):
        beta = mimo.large_scale_fading(defaults.USER_DISTANCE, defaults.F_CARRIER)
        asym = mimo.asymptotic_rate(gains, budget, beta)
        rates, gaps = [], []
        for m in (64, 256, 1024, 4096):
            sc = defaults.default_scenario(m, 10, p=1.0 / m)
            r = mimo.sinr_lb(sc, gains, budget, "MRC").rate[0]
            rates.append(r)
            gaps.append(abs(r - asym))
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


    @pytest.mark.parametrize("field, value", [("rho", 0.0), ("phi", 0j)])
    def test_zero_reception_gain_rejected(self, field, value):
        gains, budget = mimo.rf_gains(1.0)
        silent = dataclasses.replace(gains, **{field: value})
        with pytest.raises(ValueError, match="reception gain"):
            mimo.asymptotic_rate(silent, budget, 1e-11)


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
        printed = np.log2(1.0 + published_zf_sinr(sc, gains, budget))
        assert mimo.bound_violation_alarm(res, printed)

    def test_noiseless_zf_is_capped(self, gains, budget):
        sc = small_scenario(n_realizations=200)
        quiet = dataclasses.replace(
            budget, n_cn=0.0, n_tn=0.0, n_qpn=0.0, sn_coeff=0.0
        )
        res = mimo.monte_carlo_rate(sc, gains, quiet, "ZF")
        assert res.capped
        assert np.all(np.isinf(res.rate))

    def test_requires_minimum_draws(self, gains, budget):
        sc = small_scenario(n_realizations=50)
        with pytest.raises(ValueError):
            mimo.monte_carlo_rate(sc, gains, budget, "MRC")

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    @pytest.mark.parametrize("scheme", ["DIOD", "BCOD"])
    def test_engine_equals_the_oracle(self, scheme, method):
        """On chunk 0's draws, the oracle gives the engine's five term
        moments: the sample mean and variance of the self-coupling in ds and
        ls, and the energies of ui, sn and n."""
        point = defaults.diod_point if scheme == "DIOD" else defaults.bcod_point
        op = point(phi_l=0.7, theta_lo=-0.4)
        system, chain = defaults.cesium_system(), defaults.default_chain()
        gains = baseband_gains(op, chain, system)
        budget = noise_budget(op, chain, system, gains=gains)
        sc = defaults.default_scenario(12, 4, theta_arrival=0.5, seed=11,
                                       n_realizations=mimo.CHUNK)
        engine = mimo.monte_carlo_terms(sc, gains, budget, method)

        det = oracle(sc, gains, budget, method, mimo.CHUNK)
        want = {
            "ds": gains.rho * sc.p * np.abs(det.coupling.mean(axis=0)) ** 2,
            "ls": gains.rho * sc.p * det.coupling.var(axis=0),
            "ui": (np.abs(det.ui) ** 2).mean(axis=0),
            "sn": (np.abs(det.sn) ** 2).mean(axis=0),
            "n": (np.abs(det.n) ** 2).mean(axis=0),
        }
        assert gains.phi.imag != 0.0 and engine["sn"].min() > 0.0
        for key, got in engine.items():
            # ZF's coupling is exactly the identity in the engine, so its ls
            # and ui are 0; the oracle's solve leaves them a rounding error
            atol = 1e-11 * engine["ds"].max() if key in ("ls", "ui") else 0.0
            assert np.allclose(got, want[key], rtol=1e-11, atol=atol), key

    def test_zf_leakage_and_interference_are_exact_zeros(self, gains, budget):
        # the ZF coupling is the identity by construction, not a computed
        # G^-1 G, so the sampled ZF leakage and interference are exact zeros
        terms = mimo.monte_carlo_terms(small_scenario(n_realizations=256),
                                       gains, budget, "ZF")
        assert np.all(terms["ls"] == 0.0) and np.all(terms["ui"] == 0.0)

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


def whole_chunk_stats(scenario, method, chunk_index, n):
    """The engine's chunk statistics on the oracle's draws, phased and
    combined as one (n, M, K) batch: the reference that the sub-batched
    engine reproduces byte for byte, dtype included."""
    h, s, b, w = oracle_draws(scenario, chunk_index, n)
    a = mimo._phased(scenario, h)
    ps = (np.sqrt(scenario.p) * s)[..., None]
    cols = np.stack([b * (a @ ps)[..., 0], w], axis=-1)
    with mock.patch.object(mimo, "_SUB", n):
        whole = mimo._workspace(scenario, n)
    t, z = mimo._project(a, method, cols, whole)
    t_diag = np.diagonal(t, axis1=-2, axis2=-1)
    ui = (t @ ps)[..., 0] - t_diag * ps[..., 0]
    energy = mimo._abs_sq(np.stack([t_diag, ui, z[..., 0], z[..., 1]])).sum(axis=1)
    return np.vstack([t_diag.sum(axis=0), energy])


def _outcome(call):
    """A call's result as (dtype, bytes), or the type of what it raised."""
    try:
        x = call()
    except (mimo.RankDeficient, mimo.DimensionError) as exc:
        return type(exc)
    return x.dtype, x.tobytes()


class TestChunkWorkspace:
    """The engine draws and combines into one reused workspace per worker."""

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(2, 64), method=st.sampled_from(["MRC", "ZF"]),
           n=st.sampled_from([100, 2 * mimo.CHUNK, 3 * mimo.CHUNK + 17]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_thread_count_gives_identical_terms(
            self, gains, budget, m, method, n, seed, data):
        k = data.draw(st.integers(1, m - 1))
        sc = defaults.default_scenario(m, k, n_realizations=n, seed=seed)
        runs = [mimo.monte_carlo_terms(sc, gains, budget, method, threads=t)
                for t in (1, 2, 3)]
        for other in runs[1:]:
            for key, value in runs[0].items():
                assert np.array_equal(value, other[key]), key

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(2, 64), n=st.integers(1, mimo.CHUNK),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_draws_into_a_workspace_prefix_are_the_oracles(self, m, n, seed, data):
        k = data.draw(st.integers(1, m - 1))
        sc = defaults.default_scenario(m, k, seed=seed)
        # byte equality also compares the signs of zeros
        want = [x.tobytes() for x in oracle_draws(sc, 1, n)]
        for sub in (mimo._SUB, 1, 7, mimo.CHUNK):
            with mock.patch.object(mimo, "_SUB", sub):
                ws = mimo._workspace(sc, mimo.CHUNK)
            ws["x"].fill(np.nan)  # stale scratch must not leak into the draws
            rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
            into = mimo._draw(rng, sc, ws["h"][:n], ws["x"])
            assert np.shares_memory(into[0], ws["h"])
            assert [x.tobytes() for x in into] == want, sub

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux minor page-fault counts")
    def test_warm_pass_touches_few_fresh_pages(self):
        # a pass that allocated its temporaries per chunk took ~27.6k faults
        proc = run_fresh(
            "import resource\n"
            "from raqr import defaults, frontend, mimo\n"
            "system, chain, op = (defaults.cesium_system(), defaults.default_chain(),\n"
            "                     defaults.bcod_point())\n"
            "gains = frontend.baseband_gains(op, chain, system)\n"
            "budget = frontend.noise_budget(op, chain, system, gains=gains)\n"
            "sc = defaults.default_scenario(100, 10, n_realizations=2000, seed=1)\n"
            "mimo.monte_carlo_terms(sc, gains, budget, 'MRC')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "mimo.monte_carlo_terms(sc, gains, budget, 'MRC')\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 10_000

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 64), method=st.sampled_from(["MRC", "ZF"]),
           n=st.one_of(st.integers(1, mimo._SUB - 1), st.integers(1, mimo.CHUNK)),
           theta=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_sub_batches_reproduce_the_whole_chunk(
            self, m, method, n, theta, seed, data):
        k = data.draw(st.integers(1, m - 1))
        sc = defaults.default_scenario(m, k, theta_arrival=theta, seed=seed)
        want = _outcome(lambda: whole_chunk_stats(sc, method, 2, n))
        for sub in (mimo._SUB, 1, 7, mimo.CHUNK):
            with mock.patch.object(mimo, "_SUB", sub):
                ws = mimo._workspace(sc, mimo.CHUNK)
            got = _outcome(lambda: mimo._chunk_stats(sc, method, 2, n, ws)[0])
            assert got == want, sub

    def test_workspace_is_little_more_than_the_channel(self):
        m, k = 100, 10
        sc = defaults.default_scenario(m, k)
        ws = mimo._workspace(sc, mimo.CHUNK)
        # the channel's whole-chunk conjugate and float scratch made 2.64x
        assert sum(x.nbytes for x in ws.values()) <= 1.3 * mimo.CHUNK * m * k * 16

    def test_warm_draw_allocates_only_its_outputs(self):
        # the channel and the AWGN pass through the workspace's scratch, so
        # no (n, M) float block (204,800 bytes here) is allocated beside the
        # outputs
        m, k, n = 100, 10, mimo.CHUNK
        sc = defaults.default_scenario(m, k, seed=1)
        ws = mimo._workspace(sc, n)

        def draw():
            rng = np.random.Generator(np.random.Philox(key=[sc.seed, 0]))
            return mimo._draw(rng, sc, ws["h"], ws["x"])

        outputs = sum(x.nbytes for x in draw()[1:])  # s, b, w; h is the workspace's
        assert peak_bytes(draw) <= outputs + n * m * 8 // 8

    @pytest.mark.parametrize("method", ["MRC", "ZF"])
    def test_warm_chunk_allocates_little(self, method):
        m, k = 100, 10
        sc = defaults.default_scenario(m, k, seed=1)
        ws = mimo._workspace(sc, mimo.CHUNK)
        peak = peak_bytes(lambda: mimo._chunk_stats(sc, method, 0, mimo.CHUNK, ws))
        # whole-chunk temporaries peaked at 0.50x the channel's bytes
        assert peak <= 0.3 * mimo.CHUNK * m * k * 16


@st.composite
def gain_tables(draw):
    # the engine reads five numbers from a gain table and its budget, so
    # the draws cover the whole complex plane for phi and phi_sn, not only
    # the box BasebandGains enforces for physical chains (|phi| <= 1,
    # |phi_sn| = 1)
    gains = SimpleNamespace(
        rho=draw(_NONNEG),
        phi=draw(_MAG) * cmath.exp(1j * draw(_ANGLE)),
        phi_sn=draw(_NONNEG) * cmath.exp(1j * draw(_ANGLE)),
    )
    budget = SimpleNamespace(sn_coeff=draw(_NONNEG), n_sum=draw(_NONNEG))
    return gains, budget


UNIT_TABLE = (SimpleNamespace(rho=1.0, phi=1.0 + 0j, phi_sn=1.0 + 0j),
              SimpleNamespace(sn_coeff=1.0, n_sum=1.0))
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

    @settings(max_examples=40, deadline=None)
    @given(table=gain_tables(), method=st.sampled_from(["MRC", "ZF"]))
    def test_bound_is_the_closed_form_bound(self, table, method):
        # the engine scales the same closed-form moments the bounds use
        gains, budget = table
        res = mimo.monte_carlo_rate(TABLE_SCENARIO, gains, budget, method)
        bound = mimo.sinr_lb(TABLE_SCENARIO, gains, budget, method)
        assert np.array_equal(res.bound, bound.rate, equal_nan=True)

    def test_expectations_are_derived_once_per_call(self, monkeypatch):
        # every table's bound reuses the one set of closed-form statistics
        calls, expectations = [], mimo._expectations

        def spy(scenario, method):
            calls.append(method)
            return expectations(scenario, method)

        monkeypatch.setattr(mimo, "_expectations", spy)
        mimo.monte_carlo_rates(TABLE_SCENARIO, [UNIT_TABLE] * 3, "MRC")
        assert calls == ["MRC"]

    @settings(max_examples=60, deadline=None)
    @given(table=gain_tables(), method=st.sampled_from(["MRC", "ZF"]))
    def test_terms_scale_as_closed_form_exponents(self, table, method):
        gains, budget = table
        ref = mimo.monte_carlo_terms(TABLE_SCENARIO, *UNIT_TABLE, method)
        got = mimo.monte_carlo_terms(TABLE_SCENARIO, gains, budget, method)
        phi2 = abs(gains.phi) ** 2
        shot = budget.sn_coeff * abs(gains.phi_sn) ** 2
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
        gains = SimpleNamespace(rho=0.0, phi=1.0 + 0j, phi_sn=1.0 + 0j)
        budget = SimpleNamespace(sn_coeff=0.0, n_sum=0.0)
        res = mimo.monte_carlo_rate(TABLE_SCENARIO, gains, budget, method)
        assert not res.capped
        for values in (res.sinr, res.rate, res.bound, res.standard_error):
            assert np.array_equal(values, np.zeros(TABLE_SCENARIO.n_users))
        bound = mimo.sinr_lb(TABLE_SCENARIO, gains, budget, method)
        assert np.array_equal(bound.sinr, np.zeros(TABLE_SCENARIO.n_users))
