"""Four-level ladder EIT: Lindblad steady states and resonance closed forms.

The level chain is ground |1> -- probe -- |2> -- coupling -- |3> -- RF -- |4>.
Density matrices are 4x4 complex with rho[i, j] = <i+1| rho |j+1>, so the
probe coherence rho21 is ``rho[1, 0]``. Rabi frequencies and decay rates are
rad/s throughout; converting from ordinary frequencies is the caller's job.

Two independent routes to the steady state are provided on purpose: a general
numeric Liouvillian null-space solve (any detuning, any relaxation set) and
the all-resonant closed form for rho21. Tests hold them to 1e-9 agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import epsilon_0, hbar


class DegenerateNullSpace(RuntimeError):
    """Steady-state null space is not one-dimensional at solver tolerance."""


class NonPhysical(RuntimeError):
    """Trace-normalized steady state has a significantly negative eigenvalue."""


class ZeroDenominator(ValueError):
    """Resonant rho21 closed form evaluated at omega_p = omega_rf = 0."""


class ZeroProbe(ValueError):
    """Susceptibility requested with no probe drive."""


@dataclass(frozen=True, kw_only=True)
class AtomicSystem:
    """Static atomic/vapor-cell parameters.

    Dipole moments in C*m, rates in rad/s, density in m^-3, lengths in m.
    ``gamma`` is the transition (transit) relaxation applied to every level
    with population-conserving repump to the ground state; ``gamma_c`` is
    collisional dephasing on level 3 and is the only knob that breaks trace
    conservation of the generator (population genuinely leaves the 4-level
    manifold). ``T2`` and ``n_atoms`` only enter the quantum-projection-noise
    floor downstream.
    """

    mu12: float
    mu23: float
    mu34: float
    gamma2: float
    gamma3: float = 0.0
    gamma4: float = 0.0
    gamma: float = 0.0
    gamma_c: float = 0.0
    n0: float
    l_cell: float
    lambda_p: float
    t2: float
    n_atoms: float

    def __post_init__(self) -> None:
        for name in ("mu12", "mu23", "mu34", "gamma2", "gamma3", "gamma4",
                     "gamma", "gamma_c", "n0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.l_cell <= 0:
            raise ValueError("l_cell must be > 0")
        if self.lambda_p <= 0:
            raise ValueError("lambda_p must be > 0")
        if self.t2 <= 0:
            raise ValueError("t2 must be > 0")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")


@dataclass(frozen=True, kw_only=True)
class DriveConfig:
    """Rabi frequencies and detunings of the three drives, rad/s."""

    omega_p: float
    omega_c: float
    omega_rf: float
    delta_p: float = 0.0
    delta_c: float = 0.0
    delta_rf: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_p", "omega_c", "omega_rf"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 steady-state density matrix with physicality checks."""

    matrix: np.ndarray

    TRACE_TOL = 1e-9
    EIG_FLOOR = -1e-8

    def validate(self) -> "DensityMatrix":
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not np.allclose(m, m.conj().T, atol=1e-9):
            raise NonPhysical("density matrix is not Hermitian")
        if abs(m.trace() - 1.0) > self.TRACE_TOL:
            raise NonPhysical(f"trace {m.trace():.12g} deviates from 1")
        diag = np.diag(m)
        if np.max(np.abs(diag.imag)) > 1e-9:
            raise NonPhysical("diagonal entries are not real")
        if diag.real.min() < -1e-9 or diag.real.max() > 1.0 + 1e-9:
            raise NonPhysical("population outside [0, 1]")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigs.min() < self.EIG_FLOOR:
            raise NonPhysical(f"negative eigenvalue {eigs.min():.3e}")
        return self

    @property
    def rho21(self) -> complex:
        return complex(self.matrix[1, 0])


def _hamiltonian(drive: DriveConfig) -> np.ndarray:
    """Rotating-frame Hamiltonian over hbar, rad/s, for the ladder chain."""
    op, oc, orf = drive.omega_p, drive.omega_c, drive.omega_rf
    d2 = drive.delta_p
    d3 = drive.delta_p + drive.delta_c
    d4 = d3 + drive.delta_rf
    return 0.5 * np.array(
        [
            [0.0, op, 0.0, 0.0],
            [op, -2.0 * d2, oc, 0.0],
            [0.0, oc, -2.0 * d3, orf],
            [0.0, 0.0, orf, -2.0 * d4],
        ],
        dtype=complex,
    )


def _rhs(system: AtomicSystem, drive: DriveConfig, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt = -j[H, rho] - 1/2 {G, rho} + repump(rho), as a linear map."""
    h = _hamiltonian(drive)
    g = np.diag(
        [
            system.gamma,
            system.gamma + system.gamma2,
            system.gamma + system.gamma3 + system.gamma_c,
            system.gamma + system.gamma4,
        ]
    ).astype(complex)
    out = -1j * (h @ rho - rho @ h) - 0.5 * (g @ rho + rho @ g)
    # Population feedback: decayed/transit population re-enters the chain.
    # The transit term is gamma * tr(rho) (linear, conserves trace); see the
    # module docstring for why this beats carrying an affine offset.
    out[0, 0] += (
        system.gamma * rho.trace()
        + system.gamma2 * rho[1, 1]
        + system.gamma4 * rho[3, 3]
    )
    out[3, 3] += system.gamma3 * rho[2, 2]
    return out


def build_liouvillian(system: AtomicSystem, drive: DriveConfig) -> np.ndarray:
    """16x16 complex superoperator L with vec(d rho/dt) = L @ vec(rho).

    vec() is the row-major flatten of the 4x4 matrix. Built column by column
    from the action on basis matrices E_ij, which keeps the vectorization
    identities out of the code entirely.
    """
    cols = []
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            cols.append(_rhs(system, drive, e).ravel())
    return np.array(cols).T


_TRACE_ROW = np.zeros(16)
_TRACE_ROW[[0, 5, 10, 15]] = 1.0


def steady_state_numeric(
    system: AtomicSystem,
    drive: DriveConfig,
    *,
    residual_rtol: float = 1e-10,
) -> DensityMatrix:
    """Unique physical null vector of the Liouvillian, as a density matrix.

    Replaces one row of L with the vectorized trace constraint and solves the
    square system (deterministic, no iteration to convergence), then applies
    one iterative-refinement pass. If the relative residual ||L v|| / ||L||
    still exceeds ``residual_rtol``, an SVD diagnostic decides between a
    genuinely degenerate null space and plain failure.
    """
    liou = build_liouvillian(system, drive)
    a = liou.astype(complex).copy()
    scale = np.linalg.norm(liou)
    if scale == 0.0:
        raise DegenerateNullSpace("zero generator: every state is steady")
    # Trace row scaled to the operator norm so it does not unbalance the solve.
    a[0, :] = _TRACE_ROW * scale
    b = np.zeros(16, dtype=complex)
    b[0] = scale

    try:
        v = np.linalg.solve(a, b)
        # One refinement pass: cheap, and recovers ~3 digits when the slow
        # population-exchange mode makes the system ill-conditioned.
        r = b - a @ v
        v = v + np.linalg.solve(a, r)
        r = b - a @ v
        v = v + np.linalg.solve(a, r)
    except np.linalg.LinAlgError:
        v = None

    if v is not None:
        residual = np.linalg.norm(liou @ v) / scale
        if residual <= residual_rtol:
            return _finalize(v)

    # Diagnostic path: inspect the spectrum of L itself.
    svals = np.linalg.svd(liou, compute_uv=False)
    nullity = int(np.sum(svals < residual_rtol * svals[0]))
    if nullity != 1:
        raise DegenerateNullSpace(
            f"null space dimension {nullity} at tolerance {residual_rtol:g}"
        )
    # Unique null direction exists; take it from the SVD and normalize trace.
    _, _, vh = np.linalg.svd(liou)
    v = vh[-1].conj()
    tr = v[[0, 5, 10, 15]].sum()
    if abs(tr) < 1e-12:
        raise DegenerateNullSpace("null vector is traceless; cannot normalize")
    v = v / tr
    residual = np.linalg.norm(liou @ v) / scale
    if residual > residual_rtol:
        raise DegenerateNullSpace(
            f"steady-state residual {residual:.3e} exceeds {residual_rtol:g}"
        )
    return _finalize(v)


def _finalize(v: np.ndarray) -> DensityMatrix:
    rho = v.reshape(4, 4)
    rho = (rho + rho.conj().T) / 2.0  # strip solver round-off asymmetry
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < DensityMatrix.EIG_FLOOR:
        raise NonPhysical(f"steady state has eigenvalue {eigs.min():.3e}")
    return DensityMatrix(rho)


def rho21_resonant(omega_p: float, omega_c: float, omega_rf, gamma2: float):
    """Probe coherence at zero detuning, closed form.

    rho21 = -j * gamma2 * O_p * O_rf^2
            / [(2 O_p^2 + gamma2^2) O_rf^2 + 2 O_c^2 O_p^2 + 2 O_p^4]

    Exact for gamma = gamma_c = gamma3 = gamma4 = 0. ``omega_rf`` may be an
    array; the result is then an array (used per-sample by the waveform
    simulator). Purely imaginary, non-positive imaginary part, |rho21| <= 1.
    """
    orf2 = np.square(omega_rf)
    den = (2.0 * omega_p**2 + gamma2**2) * orf2 + 2.0 * omega_c**2 * omega_p**2 + 2.0 * omega_p**4
    if np.any(den == 0.0):
        raise ZeroDenominator("omega_p = omega_rf = 0 somewhere in the input")
    return -1j * gamma2 * omega_p * orf2 / den


def susceptibility(rho21: complex, system: AtomicSystem, omega_p: float) -> complex:
    """Probe susceptibility chi = -2 N0 mu12^2 / (eps0 hbar O_p) * rho21."""
    if omega_p == 0.0:
        raise ZeroProbe("omega_p must be > 0")
    return -2.0 * system.n0 * system.mu12**2 / (epsilon_0 * hbar * omega_p) * rho21


def chi_prime_resonant(
    system: AtomicSystem, omega_p: float, omega_c: float, omega_lo: float
) -> tuple[float, float]:
    """(Im, Re) of d chi / d omega_rf at resonance, evaluated at omega_lo.

    Im part: (4 N0 mu12^2 / eps0 hbar) * omega_lo * gamma2 * (2 O_c^2 O_p^2 +
    2 O_p^4) / [(2 O_p^2 + gamma2^2) omega_lo^2 + 2 O_c^2 O_p^2 + 2 O_p^4]^2.
    The Re part is exactly 0 at resonance (the coherence stays on the
    imaginary axis for every RF amplitude).
    """
    if omega_p <= 0.0:
        raise ZeroProbe("omega_p must be > 0")
    a = 2.0 * omega_c**2 * omega_p**2 + 2.0 * omega_p**4
    den = (2.0 * omega_p**2 + system.gamma2**2) * omega_lo**2 + a
    im = (
        4.0 * system.n0 * system.mu12**2 / (epsilon_0 * hbar)
        * omega_lo * system.gamma2 * a / den**2
    )
    return im, 0.0
