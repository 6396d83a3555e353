"""Master-equation core: generator structure, steady states, closed forms."""

import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from raqr import atomic, defaults, recipes
from raqr.atomic import (
    AtomicSystem,
    DegenerateNullSpace,
    DensityMatrix,
    DriveConfig,
    NonPhysical,
    ZeroDenominator,
    ZeroProbe,
    rho21_resonant,
    steady_state_numeric,
    susceptibility,
)
from raqr.config import default_config_path, load_config
from raqr.frontend import rabi_coefficients
from raqr.waveform import MIN_SAMPLES_PER_BEAT, simulate_waveform

from conftest import central_diff, rel_err
from oracles import (
    X_OF_VEC, assert_physical, chi_prime_resonant, complex_view, per_basis_liouvillian,
)


def random_hermitian_unit_trace(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2.0
    h = h + 4.0 * np.eye(4)  # push toward positive so it could be a state
    return h / h.trace()


# The box of the generator properties: zero Rabi rates drawn on purpose,
# where the null space can be degenerate, and the four relaxation rates the
# default system leaves at zero.
DRIVE_BOX = st.tuples(
    st.just(0.0) | st.floats(0.0, 1e9),
    st.just(0.0) | st.floats(0.0, 1e8),
    st.just(0.0) | st.floats(0.0, 1e9),
    st.floats(-1e8, 1e8),
    st.floats(-1e8, 1e8),
    st.floats(-1e8, 1e8),
)
RATE_BOX = st.tuples(*[st.floats(0.0, 1e6)] * 3)  # gamma, gamma3, gamma4


def generator(system, drive):
    """The solver's real generator R of a drive, (16, 16), or (..., 16, 16)
    for a stack: x(d rho/dt) = R @ x(rho), with x = (rho_ii, Re rho_ij,
    Im rho_ij), i < j."""
    return atomic._real_liouvillian(system, atomic._hamiltonian(vars(drive)))


class TestLiouvillian:
    """Properties of the generator, on the real R that the solver builds."""

    def test_no_drive_ground_state_is_steady(self, system):
        gen = generator(system, DriveConfig(omega_p=0.0, omega_c=0.0, omega_rf=0.0))
        x11 = atomic._to_x(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert np.linalg.norm(gen @ x11) == pytest.approx(0.0, abs=1e-20)

    def test_probe_only_block_matches_two_level_lindbladian(self, system):
        """Restricted to the {1,2} subspace, L = T R T^-1 must be the
        textbook optical Bloch generator with decay gamma2: built here by
        hand from the two-level H and the sigma- jump operator."""
        omega_p = 2.0 * math.pi * 3.1e6
        g2 = system.gamma2
        gen = generator(system, DriveConfig(omega_p=omega_p, omega_c=0.0, omega_rf=0.0))
        liou = complex_view(gen)
        sel = [0, 1, 4, 5]  # row-major vec indices of the 2x2 block
        block = liou[np.ix_(sel, sel)]

        h2 = 0.5 * np.array([[0.0, omega_p], [omega_p, 0.0]], dtype=complex)
        c = np.sqrt(g2) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        cols = []
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                drho = -1j * (h2 @ e - e @ h2)
                drho += c @ e @ c.conj().T - 0.5 * (
                    c.conj().T @ c @ e + e @ c.conj().T @ c
                )
                cols.append(drho.ravel())
        ref = np.array(cols).T
        assert np.allclose(block, ref, atol=1e-9 * np.linalg.norm(ref))

    def test_trace_preservation_on_states(self, system, rng):
        drive = DriveConfig(
            omega_p=1e7, omega_c=5e6, omega_rf=3e6, delta_p=2e6, delta_c=-1e6
        )
        gen = generator(system, drive)
        for _ in range(10):
            rho = random_hermitian_unit_trace(rng)
            out = gen @ atomic._to_x(rho)
            assert abs(atomic._TRACE_X @ out) <= 1e-12 * np.linalg.norm(gen)

    @settings(max_examples=40, deadline=None)
    @given(
        omega_p=st.floats(0.0, 1e9),
        omega_c=st.floats(0.0, 1e8),
        omega_rf=st.floats(0.0, 1e9),
        delta_p=st.floats(-1e8, 1e8),
        delta_rf=st.floats(-1e8, 1e8),
        rates=RATE_BOX,
    )
    def test_trace_preservation_property(
        self, omega_p, omega_c, omega_rf, delta_p, delta_rf, rates
    ):
        # every relaxation the model has conserves trace, transit included
        gamma, gamma3, gamma4 = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3, gamma4=gamma4)
        drive = DriveConfig(
            omega_p=omega_p,
            omega_c=omega_c,
            omega_rf=omega_rf,
            delta_p=delta_p,
            delta_rf=delta_rf,
        )
        gen = generator(sys_, drive)
        # trace-out row: the sum of the population rows must vanish as a
        # linear map
        tr_map = atomic._TRACE_X @ gen
        assert np.linalg.norm(tr_map) <= 1e-12 * max(np.linalg.norm(gen), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(drives=st.lists(DRIVE_BOX, min_size=1, max_size=8), rates=RATE_BOX)
    def test_each_stack_member_is_its_own_build(self, drives, rates):
        gamma, gamma3, gamma4 = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3, gamma4=gamma4)
        stack = _stack(drives)
        gen = generator(sys_, stack)
        assert gen.shape == (len(drives), 16, 16)
        for i, drive in enumerate(_members(stack, len(drives))):
            assert np.array_equal(gen[i], generator(sys_, drive))


class TestSteadyState:
    def test_no_drive_relaxes_to_ground(self):
        # small transit rate makes the no-drive steady state unique
        sys_ = defaults.cesium_system(gamma=2.0 * math.pi * 1e3)
        rho = steady_state_numeric(
            sys_, DriveConfig(omega_p=0.0, omega_c=0.0, omega_rf=0.0)
        )
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)

    def test_perfect_transparency_window(self, system, diod):
        """With no RF drive the probe coherence closes (transparency); the
        exact zero is the gamma -> 0 limit, approached linearly in the
        transit rate, so probe it at two small rates."""
        a12, a23, _ = rabi_coefficients(diod, system)

        def rho21_at(gamma):
            sys_ = defaults.cesium_system(gamma=gamma)
            return steady_state_numeric(
                sys_,
                DriveConfig(
                    omega_p=math.sqrt(a12 * diod.p0),
                    omega_c=math.sqrt(a23 * diod.pc),
                    omega_rf=0.0,
                ),
            ).rho21

        tiny = abs(rho21_at(2.0 * math.pi * 0.01))
        small = abs(rho21_at(2.0 * math.pi * 1.0))
        assert tiny < 1e-6
        assert tiny == pytest.approx(small / 100.0, rel=0.05)  # linear in gamma
        assert rho21_resonant(1e7, 1e6, 0.0, system.gamma2) == 0.0

    def test_degenerate_null_space_detected(self, system):
        # gamma4 = gamma = 0 and no RF drive: level 4 is fully decoupled and
        # undamped, so steady states form (at least) a two-parameter family.
        with pytest.raises(DegenerateNullSpace):
            steady_state_numeric(
                system, DriveConfig(omega_p=1e7, omega_c=1e6, omega_rf=0.0)
            )

    @pytest.mark.filterwarnings("error")
    def test_non_finite_real_solve_is_routed_without_a_warning(self, system):
        # a subnormal RF Rabi rate against a 1e8 rad/s detuning: the LU
        # solve holds NaN, and the flag that NaN raises sends the member to
        # the fallback, which names the outcome
        drive = DriveConfig(omega_p=1.0, omega_c=1.5,
                            omega_rf=2.2250738585072014e-308,
                            delta_p=1e-300, delta_c=-1.0, delta_rf=1e8)
        with pytest.raises(DegenerateNullSpace):
            steady_state_numeric(system, drive)

    @pytest.mark.filterwarnings("error")
    def test_norm_is_the_plain_sum_unless_it_overflows(self):
        """On finite stacks ``_norm`` is sqrt(x . x) bit for bit, also beside
        a member whose squares overflow; such a member, of entries near
        1e160 or 1e300, comes within 1e-15 of its true norm, and a member
        with an infinite entry is still inf."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 256)) * 10.0 ** rng.uniform(-150, 150, (64, 1))
        row = x[..., None, :]
        plain = np.sqrt(row @ row.swapaxes(-1, -2))[..., 0, 0]
        assert np.array_equal(atomic._norm(x), plain)
        huge = rng.standard_normal((6, 256)) * np.repeat([1e160, 1e300], 3)[:, None]
        stack = np.concatenate([huge, x[:4], np.full((1, 256), np.inf)])
        got = atomic._norm(stack)
        assert np.array_equal(got[6:10], plain[:4])
        for norm, member in zip(got[:6], huge):
            true = math.hypot(*member)
            assert abs(norm - true) <= 1e-15 * true
        assert got[-1] == np.inf

    @pytest.mark.filterwarnings("error")
    def test_far_detuned_drive_is_solved(self):
        """The packaged detuning-loss drive at |delta_rf| from 1e160 rad/s,
        where R's squared entries overflow, to 6.3e303, where R x does too:
        each has a unique steady state, returned without a warning. The
        coherence falls as 1 / delta_rf from 1e150 to 1e160, and no further
        drive's is larger."""
        cfg = load_config(default_config_path("detuning-loss"))
        delta_rf = np.array([1e150, 1e160, 1e200, 6.3e303])
        drive = defaults.drive_for(cfg.op, cfg.system, delta_rf=delta_rf)
        mag = np.abs(steady_state_numeric(cfg.system, drive).rho21)
        assert mag[1] == pytest.approx(mag[0] * 1e-10, rel=1e-9)
        assert (mag[2:] <= mag[1]).all()

    @pytest.mark.filterwarnings("error")
    def test_vanishing_coupling_is_solved_in_real_coordinates(self):
        """No decay but the probe's, and a coupling Rabi rate from 2e-49 to
        1e-6 rad/s: the solve returns rho21 within 1e-12 of a 50-digit solve
        of the same R, without a warning. The detuning-negated drive gives
        -conj(rho21). At zero coupling the SVD of R finds a three-dimensional
        null space."""
        sys_ = defaults.cesium_system(gamma=0.0, gamma3=0.0, gamma4=0.0)
        ref = 5.057058811907896e-13 - 8.293128220000435e-6j  # 50-digit solve
        for omega_c in (2.0187283633607474e-49, 1e-30, 1e-20, 1e-10, 1e-8, 1e-6):
            drive = DriveConfig(omega_p=272.0, omega_c=omega_c, omega_rf=1.0,
                                delta_p=1.0, delta_c=1.0, delta_rf=6.0)
            assert rel_err(steady_state_numeric(sys_, drive).rho21, ref) <= 1e-12
            negated = steady_state_numeric(sys_, _negated(drive)).rho21
            assert rel_err(negated, -ref.conjugate()) <= 1e-12
        drive = DriveConfig(omega_p=272.0, omega_c=0.0, omega_rf=1.0,
                            delta_p=1.0, delta_c=1.0, delta_rf=6.0)
        for d in (drive, _negated(drive)):
            with pytest.raises(DegenerateNullSpace, match="dimension 3"):
                steady_state_numeric(sys_, d)

    def test_matches_closed_form_at_representative_point(self, system, diod):
        drive = defaults.drive_for(diod, system)
        num = steady_state_numeric(system, drive).rho21
        ref = rho21_resonant(
            drive.omega_p, drive.omega_c, drive.omega_rf, system.gamma2
        )
        assert rel_err(num, ref) <= 1e-9

    def test_validates_invariants(self, system, diod):
        rho = steady_state_numeric(system, defaults.drive_for(diod, system))
        assert_physical(rho.matrix)
        assert rho.matrix.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-8

    def test_off_resonance_is_reachable(self, system, diod):
        drive = defaults.drive_for(
            diod, system, delta_p=2.0 * math.pi * 2e6, delta_rf=-2.0 * math.pi * 1e6
        )
        rho = steady_state_numeric(system, drive)
        assert_physical(rho.matrix)
        # detuned coherence picks up a real part
        assert abs(rho.rho21.real) > 0.0


class TestClosedForms:
    def test_rho21_zero_rf(self):
        assert rho21_resonant(1e7, 1e6, 0.0, 3e7) == 0.0

    def test_rho21_zero_gamma2_limit(self):
        assert rho21_resonant(1e7, 1e6, 1e6, 0.0) == 0.0

    def test_rho21_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            rho21_resonant(0.0, 1e6, 0.0, 3e7)

    def test_rho21_bounded_and_negative_imag(self):
        r = rho21_resonant(1e7, 1e6, 5e6, 3.3e7)
        assert abs(r) <= 1.0
        assert r.real == 0.0
        assert r.imag < 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        omega_p=st.floats(1e3, 1e10),
        omega_c=st.floats(0.0, 1e9),
        omega_rf=st.floats(1e0, 1e11),
        gamma2=st.floats(1e3, 1e9),
    )
    def test_rho21_even_in_rf(self, omega_p, omega_c, omega_rf, gamma2):
        plus = rho21_resonant(omega_p, omega_c, omega_rf, gamma2)
        minus = rho21_resonant(omega_p, omega_c, -omega_rf, gamma2)
        assert plus == minus
        assert abs(plus) <= 1.0

    def test_susceptibility_linearity(self, system):
        r = rho21_resonant(1e8, 1e7, 1e7, system.gamma2)
        chi = susceptibility(r, system, 1e8)
        assert susceptibility(0.0, system, 1e8) == 0.0
        doubled = defaults.cesium_system(n0=2.0 * system.n0)
        assert susceptibility(r, doubled, 1e8) == pytest.approx(2.0 * chi)
        assert chi.imag > 0.0  # absorption
        with pytest.raises(ZeroProbe):
            susceptibility(r, system, 0.0)

    def test_chi_prime_zero_lo(self, system):
        im, re = chi_prime_resonant(system, 1e8, 1e7, 0.0)
        assert im == 0.0 and re == 0.0

    def test_chi_prime_linearity_in_density(self, system):
        im, re = chi_prime_resonant(system, 1e8, 1e7, 5e7)
        assert re == 0.0 and im > 0.0
        im2, _ = chi_prime_resonant(
            defaults.cesium_system(n0=2.0 * system.n0), 1e8, 1e7, 5e7
        )
        assert im2 == pytest.approx(2.0 * im)

    def test_chi_prime_vanishes_at_extremes(self, system):
        mid, _ = chi_prime_resonant(system, 1e8, 1e7, 3e7)
        lo, _ = chi_prime_resonant(system, 1e8, 1e7, 1e-2)
        hi, _ = chi_prime_resonant(system, 1e8, 1e7, 1e14)
        assert lo < 1e-6 * mid
        assert hi < 1e-6 * mid

    def test_chi_prime_matches_closed_form_derivative(self, system):
        """d Im chi / d omega by central differences on the closed-form chi."""
        omega_p, omega_c = 4e8, 8e6

        def im_chi(w):
            r = rho21_resonant(omega_p, omega_c, w, system.gamma2)
            return susceptibility(r, system, omega_p).imag

        for w in (1e6, 1e7, 1e8, 1e9):
            fd = central_diff(im_chi, w, 1e-5 * w)
            im, _ = chi_prime_resonant(system, omega_p, omega_c, w)
            assert rel_err(im, fd) <= 1e-6

    def test_chi_prime_matches_numeric_solver_derivative(self, system, diod):
        """Central finite difference through the full Liouvillian chain."""
        drive = defaults.drive_for(diod, system)
        w = drive.omega_rf
        h = 1e-4 * w

        def im_chi(omega_rf):
            dr = DriveConfig(
                omega_p=drive.omega_p, omega_c=drive.omega_c, omega_rf=omega_rf
            )
            rho = steady_state_numeric(system, dr)
            return susceptibility(rho.rho21, system, drive.omega_p).imag

        fd = central_diff(im_chi, w, h)
        im, _ = chi_prime_resonant(system, drive.omega_p, drive.omega_c, w)
        assert rel_err(im, fd) <= 1e-5


class TestOracleEquivalence:
    def test_six_decade_grid(self, system, diod):
        drive = defaults.drive_for(diod, system)
        worst = 0.0
        for w in np.geomspace(1e5, 1e11, 60):
            num = steady_state_numeric(
                system,
                DriveConfig(
                    omega_p=drive.omega_p, omega_c=drive.omega_c, omega_rf=w
                ),
            ).rho21
            ref = rho21_resonant(drive.omega_p, drive.omega_c, w, system.gamma2)
            worst = max(worst, rel_err(num, ref))
        assert worst <= 1e-9


def _stack(rows):
    """A 1-D stack of drives from (omega_p, omega_c, omega_rf, delta_p,
    delta_c, delta_rf) rows."""
    cols = np.array(rows).T
    return DriveConfig(
        omega_p=cols[0], omega_c=cols[1], omega_rf=cols[2],
        delta_p=cols[3], delta_c=cols[4], delta_rf=cols[5],
    )


def _assert_members_match(system, stack, members):
    """The stack's solve equals each member's own call, or, where any member
    has no physical steady state, raises for the whole stack."""
    singles = []
    for drive in members:
        try:
            singles.append(steady_state_numeric(system, drive).matrix)
        except (DegenerateNullSpace, NonPhysical):
            singles.append(None)
    if any(m is None for m in singles):
        with pytest.raises((DegenerateNullSpace, NonPhysical)):
            steady_state_numeric(system, stack)
        return
    rho = steady_state_numeric(system, stack)
    assert rho.matrix.shape == (len(members), 4, 4)
    for i, single in enumerate(singles):
        assert np.array_equal(rho.matrix[i], single)
        assert rho.rho21[i] == complex(single[1, 0])


def _spy_fallback(monkeypatch):
    """Record the arguments of each call to the solver's fallback."""
    fallback, routed = atomic._fallback, []

    def spy(*args):
        routed.append(args)
        return fallback(*args)

    monkeypatch.setattr(atomic, "_fallback", spy)
    return routed


def _trace_replaced(gen):
    """The solver's square systems for a stack of R: the first row of each
    replaced by the trace row scaled to ||R||_F."""
    a = gen.copy()
    a[:, 0, :] = atomic._TRACE_X * atomic._norm(gen.reshape(-1, 256))[:, None]
    return a


def _members(drive, n):
    """The single drives of a 1-D stack of n drives."""
    return [
        DriveConfig(**{k: float(np.broadcast_to(x, (n,))[i])
                       for k, x in vars(drive).items()})
        for i in range(n)
    ]


class TestRealCoordinates:
    """The solver's real generator R acts on x = (rho_ii, Re rho_ij,
    Im rho_ij), i < j, as the complex Liouvillian acts on vec(rho)."""

    def test_tables_hold_halves_and_units(self):
        for table in (atomic._DRIVE_X, atomic._DECAY_X):
            assert np.isin(table, [0.0, 0.5, -0.5, 1.0, -1.0]).all()
        # each drive entry of R sums at most two of H's entries, so a stack
        # member's R is the same whatever order the product sums them in
        assert (atomic._DRIVE_X != 0).sum(axis=0).max() == 2

    def test_coordinate_change_is_exact(self):
        """T = _VEC_OF_X.T takes x to vec(rho); its inverse has entries 0, 1,
        1/2 and +-j/2, so both products are the identity bit for bit."""
        t, t_inv = atomic._VEC_OF_X.T, X_OF_VEC
        assert np.array_equal(t @ t_inv, np.eye(16))
        assert np.array_equal(t_inv @ t, np.eye(16))
        assert np.isin(t_inv, [0.0, 1.0, 0.5, 0.5j, -0.5j]).all()

    @settings(max_examples=60, deadline=None)
    @given(drives=st.lists(DRIVE_BOX, min_size=1, max_size=8), rates=RATE_BOX)
    def test_complex_view_of_r_is_the_per_basis_definition(self, drives, rates):
        """R's complex view L = T R T^-1 equals the generator's definition,
        ``_rhs`` on each basis matrix E_ij, to within 2 ulp of ||L||: each
        entry is one rounded sum of two exact terms."""
        gamma, gamma3, gamma4 = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3, gamma4=gamma4)
        stack = _stack(drives)
        view = complex_view(generator(sys_, stack))
        for i, drive in enumerate(_members(stack, len(drives))):
            liou = per_basis_liouvillian(sys_, drive)
            ulp = np.spacing(np.linalg.norm(liou))
            assert np.max(np.abs(view[i] - liou)) <= 2.0 * ulp

    @settings(max_examples=60, deadline=None)
    @given(
        drive=DRIVE_BOX,
        rates=RATE_BOX,
        x=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    )
    def test_real_generator_is_the_liouvillian_in_x(self, drive, rates, x):
        gamma, gamma3, gamma4 = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3, gamma4=gamma4)
        drive = _members(_stack([drive]), 1)[0]
        x = np.array(x)
        v = x @ atomic._VEC_OF_X
        rho = v.reshape(4, 4)
        # x <-> vec(rho) is exact both ways, and rho is Hermitian
        assert np.array_equal(rho, rho.conj().T)
        assert np.array_equal(atomic._to_x(rho), x)
        assert np.array_equal(atomic._to_x(rho) @ atomic._VEC_OF_X, v)
        liou = per_basis_liouvillian(sys_, drive)
        gen = generator(sys_, drive)
        expected = atomic._to_x((liou @ v).reshape(4, 4))
        tol = 1e-14 * np.linalg.norm(liou) * np.linalg.norm(v)
        assert np.max(np.abs(gen @ x - expected)) <= tol

    @pytest.mark.parametrize("delta_c", [1e6, -1e6])
    def test_ill_conditioned_member_is_returned_from_the_lu_solve(
            self, delta_c, monkeypatch):
        """ROADMAP item 8's drive: the real system's condition number is far
        above 1 / RESIDUAL_RTOL, but its residual passes, and a small
        residual bounds the backward error whichever solve gave x, so no
        member reaches the fallback. Its populations are (1/3, 0, 1/3, 1/3)
        to 1e-12, as a 50-digit solve of the same R gives them."""
        system = defaults.cesium_system()
        routed = _spy_fallback(monkeypatch)
        rho = steady_state_numeric(system, DriveConfig(
            omega_p=1.0, omega_c=1.0, omega_rf=2e6, delta_c=delta_c))
        assert routed == []
        assert np.allclose(np.diag(rho.matrix).real, [1 / 3, 0.0, 1 / 3, 1 / 3],
                           rtol=0.0, atol=1e-12)

    def test_member_whose_solve_holds_nan_alone_takes_the_fallback(
            self, system, diod, bcod, monkeypatch):
        """The LO-only drives at both shipped points, with NaN written into
        member 1 of the LU solve's output: its residual is NaN, which fails
        the test, so the fallback takes member 1 alone, on its own R. Member
        0 keeps the LU answer bit for bit, and member 1's SVD null vector is
        within 1e-10 of the clean LU state (the two routes differ by 6.4e-12
        in rho at DIOD and 6.1e-13 at BCOD)."""
        singles = [defaults.drive_for(op, system) for op in (diod, bcod)]
        stack = DriveConfig(**{k: np.array([getattr(d, k) for d in singles])
                               for k in vars(singles[0])})
        clean = steady_state_numeric(system, stack).matrix
        solve = np.linalg.solve

        def poisoned(a, b):
            out = solve(a, b)
            out[1] = np.nan
            return out

        routed = _spy_fallback(monkeypatch)
        monkeypatch.setattr(np.linalg, "solve", poisoned)
        rho = steady_state_numeric(system, stack).matrix
        [(gen, _)] = routed
        assert len(gen) == 1
        assert np.array_equal(gen[0], generator(system, singles[1]))
        assert np.array_equal(rho[0], clean[0])
        assert np.max(np.abs(rho[1] - clean[1])) <= 1e-10

    @pytest.mark.filterwarnings("error")
    def test_vanishing_linewidth_is_solved_by_lu_alone(self, tmp_path, monkeypatch):
        """detuning-loss at ``atomic.probe_linewidth_mhz: 1e-300`` (gamma2
        near 6e-294 rad/s) plans and executes. An explicit inverse of 14 of
        its 49 distinct drives' systems overflows; the LU solve returns all
        49 with a passing residual, so none reaches the fallback, and
        nothing warns."""
        raw = yaml.safe_load(default_config_path("detuning-loss").read_text())
        raw.setdefault("atomic", {})["probe_linewidth_mhz"] = 1e-300
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        solved = []
        steady_vectors = atomic._steady_vectors

        def solve(sys_, h):
            solved.append((sys_, h))
            return steady_vectors(sys_, h)

        routed = _spy_fallback(monkeypatch)
        monkeypatch.setattr(atomic, "_steady_vectors", solve)
        result = recipes.check_recipe(load_config(path))(1)
        assert len(result.rows) == 61
        assert np.isfinite([row[1] for row in result.rows]).all()
        assert routed == []

        [(sys_, h)] = solved
        gen = atomic._real_liouvillian(sys_, h)
        a = _trace_replaced(gen)
        scale = atomic._norm(gen.reshape(-1, 256))
        b = np.zeros((len(a), 16, 1))
        b[:, 0, 0] = scale
        x = np.linalg.solve(a, b)[..., 0]
        assert len(h) == 49
        assert (atomic._residual(gen, x, scale) <= atomic.RESIDUAL_RTOL).all()
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            overflowed = ~np.isfinite(np.linalg.inv(a)).all(axis=(-2, -1))
        assert overflowed.sum() == 14

    def test_no_recipe_or_workload_drive_takes_the_fallback(
            self, system, monkeypatch):
        """The packaged detuning-loss sweep, at its shipped points and at the
        benchmark's 1,001, the LO-only drives at both shipped points, and
        their 1,000-sample Liouvillian waveforms at 20 dB: no member is
        routed to the fallback, so every value is the LU solve's,
        whatever its condition number; the largest stays within
        1 / RESIDUAL_RTOL."""
        solved = []
        steady_vectors = atomic._steady_vectors

        def solve(sys_, h):
            solved.append((sys_, h))
            return steady_vectors(sys_, h)

        routed = _spy_fallback(monkeypatch)
        monkeypatch.setattr(atomic, "_steady_vectors", solve)
        cfg = load_config(default_config_path("detuning-loss"))
        recipes.detuning_loss(cfg)(1)
        recipes.detuning_loss(dataclasses.replace(
            cfg, sweep=dataclasses.replace(cfg.sweep, points=1001)))(1)
        chain = defaults.default_chain()
        fs = MIN_SAMPLES_PER_BEAT * defaults.F_DELTA
        for op in (defaults.diod_point(), defaults.bcod_point()):
            steady_state_numeric(system, defaults.drive_for(op, system))
            simulate_waveform(op, chain, defaults.weak_user(20.0, op), system,
                              1000 / fs, fs, seed=0, rho_solver="liouvillian")
        assert routed == []

        worst = 0.0
        for sys_, h in solved:
            a = _trace_replaced(atomic._real_liouvillian(sys_, h))
            worst = max(worst, np.linalg.cond(a, 1).max())
        # 573 distinct drives: 49 and 501 |delta_rf|, 2 LO-only, 11 + 10 envelopes
        assert sum(len(h) for _, h in solved) == 573
        assert worst <= 1.0 / atomic.RESIDUAL_RTOL


# The box of the solver property: Rabi rates in {0} U [1e-3, 1e9] rad/s and
# detunings in [-2e6, 2e6] rad/s, log-uniform in the rates and with the solver
# census's grid values drawn on purpose, where members reach the fallback.
SOLVER_RABI = (st.just(0.0) | st.sampled_from([1.0, 1e3, 1e6, 2e6, 1e7, 1e9])
               | st.floats(-3.0, 9.0).map(lambda e: 10.0 ** e))
SOLVER_DETUNING = st.sampled_from([0.0, 1e6, -1e6, 2e6]) | st.floats(-2e6, 2e6)
SOLVER_BOX = st.tuples(*[SOLVER_RABI] * 3, *[SOLVER_DETUNING] * 3)


class TestSolverProperty:
    """Over the drive box, on the default system (no relaxation but the
    probe's) and on one with transit and Rydberg decay: each drive returns
    a physical state that R vouches for or raises a named error, and a
    stack is its members' single calls, fallback members included."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(drives=st.lists(SOLVER_BOX, min_size=1, max_size=8), relaxed=st.booleans())
    def test_returned_states_are_vouched_for_by_r(self, drives, relaxed):
        sys_ = defaults.cesium_system(
            **({"gamma": 2e3, "gamma3": 1e4, "gamma4": 2e4} if relaxed else {}))
        stack = _stack(drives)
        for drive in _members(stack, len(drives)):
            try:
                rho = steady_state_numeric(sys_, drive).matrix
            except (DegenerateNullSpace, NonPhysical):
                continue
            gen = generator(sys_, drive)
            residual = np.linalg.norm(gen @ atomic._to_x(rho)) / np.linalg.norm(gen)
            assert residual <= atomic.RESIDUAL_RTOL
            assert np.linalg.eigvalsh(rho).min() >= DensityMatrix.EIG_FLOOR
        _assert_members_match(sys_, stack, _members(stack, len(drives)))


class TestDriveStack:
    """A stack of drives is the solver's batch: each member must be
    bit-identical to its own single-drive call, and one bad member must
    fail the whole stack."""

    @settings(max_examples=40, deadline=None)
    @given(
        drives=st.lists(
            st.tuples(
                st.floats(0.0, 1e9),
                st.floats(0.0, 1e8),
                st.floats(0.0, 1e9),
                st.floats(-1e8, 1e8),
                st.floats(-1e8, 1e8),
                st.floats(-1e8, 1e8),
            ),
            min_size=1,
            max_size=8,
        ),
        gamma=st.floats(0.0, 1e6),
    )
    def test_each_member_matches_its_own_call(self, drives, gamma):
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=1e4, gamma4=2e4)
        stack = _stack(drives)
        _assert_members_match(sys_, stack, _members(stack, len(drives)))

    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.lists(
            st.tuples(
                st.floats(0.0, 1e9),
                st.floats(0.0, 1e8),
                st.floats(0.0, 1e9),
                *[st.sampled_from([0.0, -0.0]) | st.floats(-1e8, 1e8)] * 3,
            ),
            min_size=1,
            max_size=4,
        ),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=16),
        gamma=st.floats(0.0, 1e6),
    )
    def test_repeated_members_match_their_own_calls(self, pool, picks, gamma):
        """Members drawn with repeats from a small pool, zeros of either
        sign among them: each must equal its own single-drive call, and one
        member with no physical steady state must fail the whole stack."""
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=1e4, gamma4=2e4)
        stack = _stack([pool[i % len(pool)] for i in picks])
        _assert_members_match(sys_, stack, _members(stack, len(picks)))

    def test_stack_across_block_edges(self, system, diod):
        # once as distinct drives, once with every drive repeated: the
        # stack spans three blocks, then six, each member solved as given
        n = 2 * atomic.BLOCK + 1
        for repeats in (1, 2):
            drive = defaults.drive_for(
                diod, system,
                omega_rf=np.tile(np.geomspace(1e5, 1e11, n), repeats),
                delta_rf=np.tile(np.linspace(-2e7, 2e7, n), repeats),
            )
            rho = steady_state_numeric(system, drive)
            assert rho.matrix.shape == (repeats * n, 4, 4)
            for i, single in enumerate(_members(drive, repeats * n)):
                assert np.array_equal(
                    rho.matrix[i], steady_state_numeric(system, single).matrix
                )

    @pytest.mark.parametrize(
        "omega_rf, delta_rf",
        [
            ([1e6, 2e6, 1e6, 1e6, 2e6], 0.0),
            ([1e6] * 4, [0.0, -0.0, 0.0, -0.0]),
            (np.tile([1e6, 2e6, 3e6], atomic.BLOCK), 0.0),
            (np.geomspace(1e5, 1e9, atomic.BLOCK + 3), 0.0),
            (np.full((3, 2), 1e6), [0.0, 5e5]),
            (np.zeros(0), 0.0),
        ],
    )
    def test_one_solve_per_member(self, system, monkeypatch, omega_rf, delta_rf):
        """One LU solve per member, repeated ones included, in blocks of at
        most BLOCK; no explicit inverse, and no member reaches the SVD."""
        solved, inverted, diagnosed = [], [], []
        solve = np.linalg.solve

        def spy_solve(a, b):
            solved.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        monkeypatch.setattr(np.linalg, "inv", inverted.append)
        monkeypatch.setattr(np.linalg, "svd", diagnosed.append)
        drive = DriveConfig(
            omega_p=1e7, omega_c=1e6, omega_rf=np.asarray(omega_rf), delta_rf=delta_rf
        )
        steady_state_numeric(system, drive)
        assert sum(solved) == np.broadcast(*vars(drive).values()).size
        assert max(solved, default=0) <= atomic.BLOCK
        assert inverted == diagnosed == []

    def test_solve_constructs_no_drive(self, system, diod, monkeypatch):
        """The caller's DriveConfig is the only check of its fields: the
        solver builds its blocks from them without constructing another."""
        n = 2 * atomic.BLOCK + 1
        drives = [defaults.drive_for(diod, system),
                  defaults.drive_for(diod, system, omega_rf=np.geomspace(1e5, 1e11, n))]
        constructed = []
        monkeypatch.setattr(DriveConfig, "__post_init__",
                            lambda self: constructed.append(self))
        for drive in drives:
            steady_state_numeric(system, drive)
        assert constructed == []

    def test_diagnostic_path_recovers_each_member(self, diod, monkeypatch):
        """With the LU solve failing, every member goes to the SVD
        diagnostic, which must still give each member
        its own single-drive result and the direct solve's state. Transit and
        Rydberg decay keep R well conditioned, so the two routes can be held
        to 1e-9."""
        system = defaults.cesium_system(gamma=2e3, gamma3=1e4, gamma4=2e4)
        pick = [0, 1, 0, 2, 3, 0, 4, 0, 4]  # five distinct drives, four repeats
        n = len(pick)
        drive = defaults.drive_for(
            diod, system, omega_rf=np.geomspace(1e6, 1e10, 5)[pick],
            delta_rf=np.linspace(-1e6, 1e6, 5)[pick],
        )
        direct = steady_state_numeric(system, drive).rho21

        def singular(a, *b):
            raise np.linalg.LinAlgError("Singular matrix")

        diagnosed = []
        svd = np.linalg.svd

        def spy_svd(a):
            diagnosed.append(len(a))
            return svd(a)

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        rho = steady_state_numeric(system, drive)
        assert sum(diagnosed) == n
        for i, single in enumerate(_members(drive, n)):
            assert np.array_equal(
                rho.matrix[i], steady_state_numeric(system, single).matrix
            )
        assert np.max(np.abs(rho.rho21 - direct) / np.abs(direct)) <= 1e-9

    def test_one_degenerate_member_fails_the_stack(self, system):
        # the case of test_degenerate_null_space_detected as the middle member
        drive = DriveConfig(
            omega_p=1e7, omega_c=1e6, omega_rf=np.array([1e6, 0.0, 2e6])
        )
        with pytest.raises(DegenerateNullSpace):
            steady_state_numeric(system, drive)

    def test_one_negative_rabi_rate_rejected(self):
        DriveConfig(omega_p=1e7, omega_c=np.array([1e6, 0.0]), omega_rf=0.0)
        with pytest.raises(ValueError, match="omega_c must be >= 0"):
            DriveConfig(omega_p=1e7, omega_c=np.array([1e6, -1.0]), omega_rf=0.0)

    def test_empty_stack(self, system):
        for shape in ((0,), (3, 0)):
            drive = DriveConfig(omega_p=1e7, omega_c=1e6, omega_rf=np.zeros(shape))
            assert steady_state_numeric(system, drive).matrix.shape == shape + (4, 4)


class TestDensityMatrixValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(Exception):
            assert_physical(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.2
        with pytest.raises(Exception):
            assert_physical(m)

    def test_accepts_pure_ground(self):
        assert_physical(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_steady_state_uses_the_same_eigenvalue_floor(self):
        """Solver vectors whose smallest eigenvalue lies on either side of
        the floor (-1e-8) and of the Cholesky certificate's shift (-5e-9),
        singly and as stacks that mix accepted members with a rejected one:
        each decision is that of ``eigvalsh`` against the floor. -1e-7 lies
        between the floor and the looser -1e-6 that the steady state once
        accepted."""
        lows = (-1e-7, -1.01e-8, -0.99e-8, -0.6e-8, -0.5e-8, -0.4e-8, -1e-9, 0.0)
        for stack in [(low,) for low in lows] + [lows, lows[2:], lows[:0:-1]]:
            v = np.array([np.diag([1.0 - low, 0.0, 0.0, low]).ravel() for low in stack],
                         dtype=complex)
            low = np.linalg.eigvalsh(v.reshape(-1, 4, 4)).min()
            if low < DensityMatrix.EIG_FLOOR:
                with pytest.raises(NonPhysical, match=f"eigenvalue {low:.3e}$"):
                    atomic._finalize(v)
            else:
                assert np.array_equal(atomic._finalize(v).matrix[:, 3, 3], stack)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            defaults.cesium_system(gamma2=-1.0)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            DriveConfig(omega_p=-1.0, omega_c=0.0, omega_rf=0.0)

    @pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stack"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["omega_p", "omega_c", "omega_rf", "delta_p", "delta_c", "delta_rf"]
    )
    def test_non_finite_drive_rejected(self, name, bad, stacked):
        fields = dict(omega_p=1e7, omega_c=1e6, omega_rf=1e6)
        fields[name] = np.array([1e6, bad, 2e6]) if stacked else bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            DriveConfig(**fields)

    def test_atomic_system_requires_positive_cell(self):
        with pytest.raises(ValueError):
            defaults.cesium_system(l_cell=0.0)

    @pytest.mark.parametrize("name", [
        "mu12", "mu23", "mu34", "gamma2", "gamma3", "gamma4", "gamma",
        "n0", "l_cell", "lambda_p", "t2"])
    def test_atomic_system_rejects_nan(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            defaults.cesium_system(**{name: math.nan})


_U = np.array([1.0, -1.0, 1.0, -1.0])  # U = diag(1, -1, 1, -1)


def _mirror(matrix):
    """U rho* U for a density matrix or a stack of them."""
    return _U[:, None] * matrix.conj() * _U


def _negated(drive):
    return dataclasses.replace(drive, delta_p=-drive.delta_p,
                               delta_c=-drive.delta_c, delta_rf=-drive.delta_rf)


class TestDetuningMirror:
    """The Hamiltonian is real, so negating every detuning maps the steady
    state rho to U rho* U; ``recipes.detuning_loss`` relies on it to solve
    each |delta_rf| once."""

    @settings(max_examples=100, deadline=None)
    @given(
        drive=st.tuples(
            st.just(0.0) | st.floats(0.0, 1e9),
            st.just(0.0) | st.floats(0.0, 1e8),
            st.just(0.0) | st.floats(0.0, 1e9),
            *[st.floats(-1e8, 1e8).filter(bool)] * 3,
        ),
        rates=st.tuples(*[st.just(0.0) | st.floats(1.0, 1e6)] * 3),
    )
    def test_negated_detunings_give_the_mirror_state(self, drive, rates):
        gamma, gamma3, gamma4 = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3, gamma4=gamma4)
        drive = _stack([drive])
        try:
            rho = steady_state_numeric(sys_, drive).matrix
        except (DegenerateNullSpace, NonPhysical) as exc:
            with pytest.raises(type(exc)):
                steady_state_numeric(sys_, _negated(drive))
            return
        flipped = steady_state_numeric(sys_, _negated(drive)).matrix
        assert np.max(np.abs(flipped - _mirror(rho))) <= 1e-10 * np.max(np.abs(rho))

    def test_benchmark_grid_mirrors_bit_for_bit(self, system, bcod):
        """The shipped point on the 1001-point detuning-loss grid of +-200 MHz:
        the solve at -delta_rf equals the mirror of the one at +delta_rf."""
        delta_rf = 2.0 * math.pi * (np.linspace(-2e5, 2e5, 1001) * 1e3)
        rho = steady_state_numeric(
            system, defaults.drive_for(bcod, system, delta_rf=delta_rf)).matrix
        flipped = steady_state_numeric(
            system, defaults.drive_for(bcod, system, delta_rf=-delta_rf)).matrix
        assert np.array_equal(flipped, _mirror(rho))
