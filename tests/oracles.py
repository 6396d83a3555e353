"""Reference definitions the tests hold the package to.

Each is a second route to a quantity the package computes another way: the
Liouvillian as its per-basis definition and the solver's real generator
mapped to the same vec(rho) coordinates, the susceptibility slope at
resonance, kappa through that slope, the closed-form log-derivatives of P1
and kappa in all three powers, and the physicality checks of a density
matrix. None is on a path the package runs.
"""

import math

import numpy as np

from raqr import atomic
from raqr.atomic import AtomicSystem, DriveConfig, NonPhysical, ZeroProbe
from raqr.constants import epsilon_0, hbar
from raqr.frontend import OperatingPoint, SmallSignal, drive_terms

TRACE_TOL = 1e-9


def per_basis_liouvillian(system: AtomicSystem, drive: DriveConfig) -> np.ndarray:
    """16x16 complex L with vec(d rho/dt) = L @ vec(rho), vec() the
    row-major flatten, for one drive: column 4i + j is ``_rhs`` acting on
    the basis matrix E_ij."""
    h = atomic._hamiltonian(vars(drive))
    cols = [atomic._rhs(system, h, e).ravel() for e in np.eye(16).reshape(16, 4, 4)]
    return np.array(cols).T


# T^-1 of T = atomic._VEC_OF_X.T, which takes the solver's real coordinates x
# to vec(rho), exact: T's columns are orthogonal with squared norms 1 and 2,
# so T^-1 = T^H over them.
X_OF_VEC = atomic._VEC_OF_X.conj() / np.abs(atomic._VEC_OF_X).sum(axis=1, keepdims=True)


def complex_view(gen: np.ndarray) -> np.ndarray:
    """L = T R T^-1 on vec(rho) of the real generator R (or a stack of them)."""
    return atomic._VEC_OF_X.T @ gen @ X_OF_VEC


def assert_physical(m: np.ndarray) -> None:
    """Raise unless ``m`` is a 4x4 density matrix: Hermitian, unit trace,
    real populations in [0, 1] and no eigenvalue below the solver's floor."""
    if m.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if not np.allclose(m, m.conj().T, atol=1e-9):
        raise NonPhysical("density matrix is not Hermitian")
    if abs(m.trace() - 1.0) > TRACE_TOL:
        raise NonPhysical(f"trace {m.trace():.12g} deviates from 1")
    diag = np.diag(m)
    if np.max(np.abs(diag.imag)) > 1e-9:
        raise NonPhysical("diagonal entries are not real")
    if diag.real.min() < -1e-9 or diag.real.max() > 1.0 + 1e-9:
        raise NonPhysical("population outside [0, 1]")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if eigs.min() < atomic.DensityMatrix.EIG_FLOOR:
        raise NonPhysical(f"negative eigenvalue {eigs.min():.3e}")


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


def kappa_from_chi_prime(op: OperatingPoint, system: AtomicSystem) -> float:
    """Second route to kappa via the susceptibility slope (cross-check)."""
    t = drive_terms(op, system)
    im, _ = chi_prime_resonant(system, math.sqrt(t.s), math.sqrt(t.u), math.sqrt(t.ell))
    return math.pi * system.l_cell * system.mu34 / (system.lambda_p * hbar) * im


# log-derivatives of the closed forms (checked against finite differences
# by the acceptance test); their P0 entries are ``SmallSignal``'s


def dlnp1(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(d ln P1 / d P_LO, d ln P1 / d Pc, d ln P1 / d P0), per watt."""
    small = SmallSignal(op, system)
    _, a23, a34, s, u, lo, strength, denom = small.terms
    d_plo = -strength * a34 * 2.0 * s * (s + u) / denom**2
    d_pc = strength * lo * 2.0 * s * a23 / denom**2
    return d_plo, d_pc, small.dlnp1_dp0


def dlnkappa(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(d ln kappa / d P_LO, d ln kappa / d Pc, d ln kappa / d P0)."""
    small = SmallSignal(op, system)
    _, a23, a34, s, u, lo, _, denom = small.terms
    ddenom_dlo = 2.0 * s + system.gamma2**2
    d_plo = a34 * (1.0 / (2.0 * lo) - 2.0 * ddenom_dlo / denom)
    d_pc = a23 * (1.0 / (u + s) - 4.0 * s / denom)
    return d_plo, d_pc, small.dlnkappa_dp0
