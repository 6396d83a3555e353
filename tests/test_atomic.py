"""Master-equation core: generator structure, steady states, closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raqr import atomic, defaults
from raqr.atomic import (
    AtomicSystem,
    DegenerateNullSpace,
    DensityMatrix,
    DriveConfig,
    NonPhysical,
    ZeroDenominator,
    ZeroProbe,
    build_liouvillian,
    chi_prime_resonant,
    rho21_resonant,
    steady_state_numeric,
    susceptibility,
)
from raqr.frontend import rabi_coefficients

from conftest import central_diff, rel_err


def random_hermitian_unit_trace(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2.0
    h = h + 4.0 * np.eye(4)  # push toward positive so it could be a state
    return h / h.trace()


class TestLiouvillian:
    def test_no_drive_ground_state_is_steady(self, system):
        liou = build_liouvillian(
            system, DriveConfig(omega_p=0.0, omega_c=0.0, omega_rf=0.0)
        )
        e11 = np.zeros(16)
        e11[0] = 1.0
        assert np.linalg.norm(liou @ e11) == pytest.approx(0.0, abs=1e-20)

    def test_probe_only_block_matches_two_level_lindbladian(self, system):
        """Restricted to the {1,2} subspace, L must be the textbook optical
        Bloch generator with decay gamma2: built here by hand from the
        two-level H and the sigma- jump operator."""
        omega_p = 2.0 * math.pi * 3.1e6
        g2 = system.gamma2
        liou = build_liouvillian(
            system, DriveConfig(omega_p=omega_p, omega_c=0.0, omega_rf=0.0)
        )
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
        liou = build_liouvillian(system, drive)
        for _ in range(10):
            rho = random_hermitian_unit_trace(rng)
            out = (liou @ rho.ravel()).reshape(4, 4)
            assert abs(out.trace()) <= 1e-12 * np.linalg.norm(liou)

    @settings(max_examples=40, deadline=None)
    @given(
        omega_p=st.floats(0.0, 1e9),
        omega_c=st.floats(0.0, 1e8),
        omega_rf=st.floats(0.0, 1e9),
        delta_p=st.floats(-1e8, 1e8),
        delta_rf=st.floats(-1e8, 1e8),
        gamma=st.floats(0.0, 1e6),
    )
    def test_trace_preservation_property(
        self, omega_p, omega_c, omega_rf, delta_p, delta_rf, gamma
    ):
        # gamma_c = 0: the only trace-leaking knob. gamma itself must not leak.
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=1e4, gamma4=2e4)
        drive = DriveConfig(
            omega_p=omega_p,
            omega_c=omega_c,
            omega_rf=omega_rf,
            delta_p=delta_p,
            delta_rf=delta_rf,
        )
        liou = build_liouvillian(sys_, drive)
        # trace-out row: sum of rows 0, 5, 10, 15 must vanish as a linear map
        tr_map = liou[0] + liou[5] + liou[10] + liou[15]
        assert np.linalg.norm(tr_map) <= 1e-12 * max(np.linalg.norm(liou), 1.0)

    def test_collisional_dephasing_leaks_trace(self):
        sys_ = defaults.cesium_system(gamma_c=1e5)
        liou = build_liouvillian(
            sys_, DriveConfig(omega_p=1e7, omega_c=1e6, omega_rf=1e6)
        )
        tr_map = liou[0] + liou[5] + liou[10] + liou[15]
        # only the rho33 column leaks, at exactly -gamma_c
        expected = np.zeros(16)
        expected[10] = -1e5
        assert np.allclose(tr_map, expected, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        drives=st.lists(
            st.tuples(
                st.just(0.0) | st.floats(0.0, 1e9),
                st.just(0.0) | st.floats(0.0, 1e8),
                st.just(0.0) | st.floats(0.0, 1e9),
                st.floats(-1e8, 1e8),
                st.floats(-1e8, 1e8),
                st.floats(-1e8, 1e8),
            ),
            min_size=1,
            max_size=8,
        ),
        rates=st.tuples(*[st.floats(0.0, 1e6)] * 4),
    )
    def test_matches_the_per_basis_definition(self, drives, rates):
        """The decay part plus the Hamiltonian-times-table product is the
        right-hand side applied to each basis matrix at the full H."""
        gamma, gamma3, gamma4, gamma_c = rates
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=gamma3,
                                      gamma4=gamma4, gamma_c=gamma_c)
        cols = np.array(drives).T
        stack = DriveConfig(
            omega_p=cols[0], omega_c=cols[1], omega_rf=cols[2],
            delta_p=cols[3], delta_c=cols[4], delta_rf=cols[5],
        )
        basis = np.eye(16).reshape(16, 4, 4)
        for drive in (stack, _members(stack, len(drives))[0]):
            per_basis = atomic._rhs(
                sys_, atomic._hamiltonian(drive)[..., None, :, :], basis)
            expected = per_basis.reshape(per_basis.shape[:-3] + (16, 16))
            assert np.array_equal(build_liouvillian(sys_, drive),
                                  expected.swapaxes(-1, -2))


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

    def test_matches_closed_form_at_representative_point(self, system, diod):
        drive = defaults.drive_for(diod, system)
        num = steady_state_numeric(system, drive).rho21
        ref = rho21_resonant(
            drive.omega_p, drive.omega_c, drive.omega_rf, system.gamma2
        )
        assert rel_err(num, ref) <= 1e-9

    def test_validates_invariants(self, system, diod):
        rho = steady_state_numeric(system, defaults.drive_for(diod, system))
        rho.validate()
        assert rho.matrix.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-8

    def test_off_resonance_is_reachable(self, system, diod):
        drive = defaults.drive_for(
            diod, system, delta_p=2.0 * math.pi * 2e6, delta_rf=-2.0 * math.pi * 1e6
        )
        rho = steady_state_numeric(system, drive).validate()
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


def _members(drive, n):
    """The single drives of a 1-D stack of n drives."""
    return [
        DriveConfig(**{k: float(np.broadcast_to(x, (n,))[i])
                       for k, x in vars(drive).items()})
        for i in range(n)
    ]


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
        members = _members(stack, len(drives))
        liou = build_liouvillian(sys_, stack)
        assert liou.shape == (len(drives), 16, 16)
        for i, drive in enumerate(members):
            assert np.array_equal(liou[i], build_liouvillian(sys_, drive))
        _assert_members_match(sys_, stack, members)

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
        """Members drawn with repeats from a small pool share their solves;
        each must still equal its own single-drive call, and one member
        with no physical steady state must still fail the whole stack."""
        sys_ = defaults.cesium_system(gamma=gamma, gamma3=1e4, gamma4=2e4)
        stack = _stack([pool[i % len(pool)] for i in picks])
        _assert_members_match(sys_, stack, _members(stack, len(picks)))

    def test_stack_across_block_edges(self, system, diod):
        # once as distinct drives, once with every drive repeated: the
        # distinct drives span three blocks either way
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
        "omega_rf, delta_rf, distinct",
        [
            ([1e6, 2e6, 1e6, 1e6, 2e6], 0.0, 2),
            ([1e6] * 4, [0.0, -0.0, 0.0, -0.0], 2),  # zeros compare by bytes
            (np.tile([1e6, 2e6, 3e6], atomic.BLOCK), 0.0, 3),
            (np.geomspace(1e5, 1e9, atomic.BLOCK + 3), 0.0, atomic.BLOCK + 3),
            (np.full((3, 2), 1e6), [0.0, 5e5], 2),
            (np.zeros(0), 0.0, 0),
        ],
    )
    def test_one_solve_per_distinct_drive(
        self, system, monkeypatch, omega_rf, delta_rf, distinct
    ):
        """One solve plus two refinement passes per distinct member."""
        solved = []
        solve = np.linalg.solve

        def spy(a, b):
            solved.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        drive = DriveConfig(
            omega_p=1e7, omega_c=1e6, omega_rf=np.asarray(omega_rf), delta_rf=delta_rf
        )
        steady_state_numeric(system, drive)
        assert sum(solved) == 3 * distinct

    def test_diagnostic_path_recovers_each_member(self, diod, monkeypatch):
        """With the direct solve failing, every member goes to the SVD
        diagnostic, which must still give each member its own single-drive
        result and the direct solve's state. Transit and Rydberg decay keep
        L well conditioned, so the two routes can be held to 1e-9."""
        system = defaults.cesium_system(gamma=2e3, gamma3=1e4, gamma4=2e4)
        pick = [0, 1, 0, 2, 3, 0, 4, 0, 4]  # five distinct drives, four repeats
        n = len(pick)
        drive = defaults.drive_for(
            diod, system, omega_rf=np.geomspace(1e6, 1e10, 5)[pick],
            delta_rf=np.linspace(-1e6, 1e6, 5)[pick],
        )
        direct = steady_state_numeric(system, drive).rho21

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rho = steady_state_numeric(system, drive)
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
            DensityMatrix(np.eye(4, dtype=complex)).validate()

    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.2
        with pytest.raises(Exception):
            DensityMatrix(m).validate()

    def test_accepts_pure_ground(self):
        DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)).validate()

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
