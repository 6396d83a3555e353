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
from types import SimpleNamespace

import numpy as np

from .constants import epsilon_0, hbar


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
    with population-conserving repump to the ground state, so every rate
    conserves the generator's trace. ``T2`` and ``n_atoms`` only enter the
    quantum-projection-noise floor downstream.
    """

    mu12: float
    mu23: float
    mu34: float
    gamma2: float
    gamma3: float = 0.0
    gamma4: float = 0.0
    gamma: float = 0.0
    n0: float
    l_cell: float
    lambda_p: float
    t2: float
    n_atoms: float

    def __post_init__(self) -> None:
        # without the probe or RF dipole, or the probe linewidth, the
        # readout vanishes or the steady state is not unique
        for name in ("mu12", "mu34", "gamma2", "l_cell", "lambda_p", "t2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("mu23", "gamma3", "gamma4", "gamma", "n0"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 1 <= self.n_atoms < np.inf:
            raise ValueError("n_atoms must be >= 1 and finite")


@dataclass(frozen=True, kw_only=True)
class DriveConfig:
    """Rabi frequencies and detunings of the three drives, rad/s; array
    fields broadcast to a stack of drives, whose shape leads every result."""

    omega_p: float | np.ndarray
    omega_c: float | np.ndarray
    omega_rf: float | np.ndarray
    delta_p: float | np.ndarray = 0.0
    delta_c: float | np.ndarray = 0.0
    delta_rf: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name, x in vars(self).items():
            if not np.isfinite(x).all():
                raise ValueError(f"{name} must be finite")
            if name.startswith("omega") and np.less(x, 0).any():
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 steady-state density matrix, or a stack of them; the solver
    rejects a state whose smallest eigenvalue lies below ``EIG_FLOOR``."""

    matrix: np.ndarray

    EIG_FLOOR = -1e-8

    @property
    def rho21(self) -> complex | np.ndarray:
        """Probe coherence: a complex for one drive, an array for a stack."""
        r21 = self.matrix[..., 1, 0]
        return complex(r21) if r21.ndim == 0 else r21


def _hamiltonian(fields: dict) -> np.ndarray:
    """Rotating-frame Hamiltonian over hbar, rad/s, for the ladder chain, from
    the fields of a drive, by name; real symmetric, (..., 4, 4) for a stack
    of drives."""
    d3 = fields["delta_p"] + fields["delta_c"]
    h = np.zeros(np.broadcast(*fields.values()).shape + (4, 4))
    h[..., 0, 1] = h[..., 1, 0] = fields["omega_p"]
    h[..., 1, 2] = h[..., 2, 1] = fields["omega_c"]
    h[..., 2, 3] = h[..., 3, 2] = fields["omega_rf"]
    h[..., 1, 1] = -2.0 * fields["delta_p"]
    h[..., 2, 2] = -2.0 * d3
    h[..., 3, 3] = -2.0 * (d3 + fields["delta_rf"])
    return 0.5 * h


def _rhs(system: AtomicSystem, h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """d(rho)/dt = -j[H, rho] - 1/2 {G, rho} + repump(rho), as a linear map;
    ``h`` and ``rho`` are 4x4 matrices or stacks of them that broadcast."""
    g = system.gamma + np.array([0.0, system.gamma2, system.gamma3, system.gamma4])
    out = -1j * (h @ rho - rho @ h) - 0.5 * (g[:, None] * rho + rho * g)
    # Population feedback: decayed/transit population re-enters the chain.
    # The transit term is gamma * tr(rho) (linear, conserves trace); see the
    # module docstring for why this beats carrying an affine offset.
    out[..., 0, 0] += (
        system.gamma * np.trace(rho, axis1=-2, axis2=-1)
        + system.gamma2 * rho[..., 1, 1]
        + system.gamma4 * rho[..., 3, 3]
    )
    out[..., 3, 3] += system.gamma3 * rho[..., 2, 2]
    return out


# Real coordinates of a Hermitian rho: x = (rho_ii, Re rho_ij, Im rho_ij) with
# i < j, read elementwise from the diagonal and the upper triangle. rho is the
# sum of x_c times the Hermitian basis matrix _HERMITIAN[c], so vec(rho) =
# x @ _VEC_OF_X, whose entries are 0, 1 and +-j with one nonzero per column:
# the product only places each x_c. The generator maps Hermitian matrices to
# Hermitian matrices, so in x it is a real 16x16 map R.
_DIAG = np.arange(4)
_IU, _JU = np.triu_indices(4, 1)
_HERMITIAN = np.zeros((16, 4, 4), dtype=complex)
_HERMITIAN[_DIAG, _DIAG, _DIAG] = 1.0
_HERMITIAN[4 + np.arange(6), _IU, _JU] = _HERMITIAN[4 + np.arange(6), _JU, _IU] = 1.0
_HERMITIAN[10 + np.arange(6), _IU, _JU] = 1j
_HERMITIAN[10 + np.arange(6), _JU, _IU] = -1j
_VEC_OF_X = _HERMITIAN.reshape(16, 16)


def _to_x(m: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian 4x4 matrices, on a new last axis."""
    upper = m[..., _IU, _JU]
    return np.concatenate([m[..., _DIAG, _DIAG].real, upper.real, upper.imag], axis=-1)


# R's tables, laid out as row-major (16, 16) blocks: the real Hamiltonian's 16
# entries times _DRIVE_X give R's drive part, and the rates _RATES times
# _DECAY_X its decay and repump part. Column c of each block is x of
# ``_rhs`` acting on _HERMITIAN[c]: at zero rates with H the unit matrix
# E_k for the drive table's block k, and at H = 0 with that one rate set to
# 1 for the decay. Every entry is 0, +-1/2 or +-1, and each drive entry of R
# sums at most two nonzero terms, so a stack member's R does not depend on
# its stack.
_RATES = ("gamma", "gamma2", "gamma3", "gamma4")
_DRIVE_X = _to_x(_rhs(SimpleNamespace(**dict.fromkeys(_RATES, 0.0)),
                      np.eye(16).reshape(16, 1, 4, 4), _HERMITIAN))
_DRIVE_X = _DRIVE_X.swapaxes(-1, -2).reshape(16, 256)
_DECAY_X = np.array([
    _to_x(_rhs(SimpleNamespace(**{k: float(k == rate) for k in _RATES}),
               np.zeros((4, 4)), _HERMITIAN)).T.ravel()
    for rate in _RATES
])
_TRACE_X = _to_x(np.eye(4))  # _TRACE_X @ x = tr(rho)
BLOCK = 64  # drives per batched solve: bounds the working set of a long stack
RESIDUAL_RTOL = 1e-10


def _norm(x: np.ndarray) -> np.ndarray:
    """Norm over the last axis of a real array, summed as np.linalg.norm
    sums one vector, so each member of a stack gets its single-vector value
    bit for bit."""
    row = x[..., None, :]
    return np.sqrt(row @ row.swapaxes(-1, -2))[..., 0, 0]


def steady_state_numeric(system: AtomicSystem, drive: DriveConfig) -> DensityMatrix:
    """Unique physical null vector of the Liouvillian, as a density matrix.

    Solves in the real coordinates x of a Hermitian rho, where the generator
    is a real 16x16 map R: one row of R is replaced with the trace
    constraint, and one real inverse of that square system gives the
    solution and two iterative-refinement passes as products (deterministic,
    no iteration to convergence). A member whose relative residual
    ||R x|| / ||R||_F exceeds ``RESIDUAL_RTOL`` (NaN included, where the
    inverse overflows) is solved again by ``_fallback``: an LU solve of the
    same real system with two refinement passes, accepted on the same
    residual test, and otherwise an SVD of R that decides between a
    genuinely degenerate null space and plain failure. A small residual
    bounds the backward error whichever solve produced x, so a member that
    passes keeps the inverse's answer. Every decision is made on R; no
    complex generator is built.

    A stack of drives is solved in blocks of at most ``BLOCK`` and gives a
    stack of density matrices, each bit-identical to its own single-drive
    solve; one member that fails raises for the whole stack. The stack is
    solved as given, repeats included; callers share repeated drives. The
    Liouvillian waveform solves only the distinct envelopes of one beat
    period (``waveform._exact_transmission``).

    The Hamiltonian is real, so negating all three detunings maps the
    steady state rho to U rho* U, U = diag(1, -1, 1, -1): an antiunitary
    symmetry of the generator. In the real coordinates it only flips
    signs, so the solve reproduces it to rounding, and bit for bit on the
    shipped detuning sweeps; ``recipes.detuning_loss`` relies on it to
    solve each |delta_rf| once.
    """
    shape = np.broadcast(*vars(drive).values()).shape
    flat = {k: np.broadcast_to(x, shape).ravel() for k, x in vars(drive).items()}
    v = np.empty((np.prod(shape, dtype=int), 16), dtype=complex)
    for lo in range(0, len(v), BLOCK):
        h = _hamiltonian({k: x[lo:lo + BLOCK] for k, x in flat.items()})
        v[lo:lo + BLOCK] = _steady_vectors(system, h)
    return _finalize(v.reshape(shape + (16,)))


def _real_liouvillian(system: AtomicSystem, h: np.ndarray) -> np.ndarray:
    """R with x(d rho/dt) = R @ x(rho), for the Hamiltonian (or stack of
    them) ``h``: the generator ``_rhs`` in real coordinates."""
    fixed = (np.array([getattr(system, k) for k in _RATES]) @ _DECAY_X).reshape(16, 16)
    out = h.reshape(h.shape[:-2] + (16,)) @ _DRIVE_X
    return out.reshape(h.shape[:-2] + (16, 16)) + fixed


def _residual(gen: np.ndarray, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """||R x|| / ||R||_F of each member, for a stack of R, x and ||R||_F."""
    return _norm((gen @ x[..., None])[..., 0]) / scale


def _refined(solve, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x of a x = b for a stack, from ``solve`` (r -> a^-1 r) and two
    refinement passes: cheap, and they recover ~3 digits when the slow
    population-exchange mode makes the system ill-conditioned."""
    x = solve(b)
    for _ in range(2):
        x = x + solve(b - a @ x)
    return x[..., 0]


def _steady_vectors(system: AtomicSystem, h: np.ndarray) -> np.ndarray:
    """vec(rho) of the trace-one steady states of an (n, 4, 4) stack of
    Hamiltonians."""
    gen = _real_liouvillian(system, h)
    scale = _norm(gen.reshape(-1, 256))
    a = gen.copy()
    # Trace row scaled to the operator norm so it does not unbalance the solve.
    a[:, 0, :] = _TRACE_X * scale[:, None]
    b = np.zeros((len(a), 16, 1))
    b[:, 0, 0] = scale
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # A member is exactly singular and the inverse does not say which;
        # the fallback takes the whole block.
        return _fallback(gen, a, b, scale) @ _VEC_OF_X
    # A near-singular member's inverse can hold inf or NaN; its residual is
    # then NaN, which fails the test and routes the member to the fallback,
    # so the products stay quiet.
    with np.errstate(invalid="ignore", over="ignore"):
        x = _refined(lambda r: inv @ r, a, b)
        flagged = ~(_residual(gen, x, scale) <= RESIDUAL_RTOL)
    if flagged.any():
        x[flagged] = _fallback(gen[flagged], a[flagged], b[flagged], scale[flagged])
    return x @ _VEC_OF_X


def _fallback(gen: np.ndarray, a: np.ndarray, b: np.ndarray,
              scale: np.ndarray) -> np.ndarray:
    """x of the steady states of members the real inverse could not vouch
    for. ``a`` and ``b`` are their trace-replaced systems, solved again by
    LU and accepted on the residual test; a member that fails it takes R's
    SVD null vector where R's null space is one-dimensional, and raises
    ``DegenerateNullSpace`` otherwise."""
    if np.any(scale == 0.0):
        raise DegenerateNullSpace("zero generator: every state is steady")
    # A near-singular member's solve can overflow; the residual of inf or
    # NaN fails the comparison and sends it to the diagnostic, so the
    # products stay quiet.
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            x = _refined(lambda r: np.linalg.solve(a, r), a, b)
        except np.linalg.LinAlgError:
            # A member is exactly singular and the solve does not say which;
            # every member goes to the diagnostic.
            x = np.full(b.shape[:-1], np.nan)
        failed = ~(_residual(gen, x, scale) <= RESIDUAL_RTOL)
    if not failed.any():
        return x

    # Diagnostic path: inspect the spectrum of each failed member's R.
    gen, scale = gen[failed], scale[failed]
    _, svals, vh = np.linalg.svd(gen)
    nullity = np.sum(svals < RESIDUAL_RTOL * svals[:, :1], axis=-1)
    if np.any(nullity != 1):
        raise DegenerateNullSpace(
            f"null space dimension {nullity[nullity != 1][0]} "
            f"at tolerance {RESIDUAL_RTOL:g}"
        )
    # Unique null direction exists; take it from the SVD and normalize trace.
    null = vh[:, -1]
    tr = null @ _TRACE_X
    if np.any(np.abs(tr) < 1e-12):
        raise DegenerateNullSpace("null vector is traceless; cannot normalize")
    null = null / tr[:, None]
    residual = _residual(gen, null, scale)
    if not np.all(residual <= RESIDUAL_RTOL):
        raise DegenerateNullSpace(
            f"steady-state residual {residual.max():.3e} exceeds {RESIDUAL_RTOL:g}"
        )
    x[failed] = null
    return x


def _finalize(v: np.ndarray) -> DensityMatrix:
    """Density matrices of a stack of solver vectors, Hermitian by construction.

    Raises ``NonPhysical`` where the smallest eigenvalue of any member lies
    below ``DensityMatrix.EIG_FLOOR``. One batched Cholesky factorization of
    rho - EIG_FLOOR/2 * I certifies the whole stack: it succeeds only if
    every eigenvalue exceeds EIG_FLOOR/2 up to rounding (~1e-15), so no
    member it passes could fail the floor. Only when it fails does
    ``eigvalsh`` decide, which keeps every decision that of the floor.
    """
    rho = v.reshape(v.shape[:-1] + (4, 4))
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0  # strip solver round-off asymmetry
    try:
        np.linalg.cholesky(rho - 0.5 * DensityMatrix.EIG_FLOOR * np.eye(4))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(rho).min(initial=np.inf)
        if low < DensityMatrix.EIG_FLOOR:
            raise NonPhysical(f"steady state has eigenvalue {low:.3e}") from None
    return DensityMatrix(rho)


def rho21_resonant(omega_p: float, omega_c: float, omega_rf, gamma2: float):
    """Probe coherence at zero detuning, closed form.

    rho21 = -j * gamma2 * O_p * O_rf^2
            / [(2 O_p^2 + gamma2^2) O_rf^2 + 2 O_c^2 O_p^2 + 2 O_p^4]

    Exact for gamma = gamma3 = gamma4 = 0. ``omega_rf`` may be an
    array; the result is then an array. Purely imaginary, non-positive
    imaginary part, |rho21| <= 1; ``rho21_resonant_imag`` is that imaginary
    part in real arithmetic.
    """
    return 1j * rho21_resonant_imag(omega_p, omega_c, omega_rf, gamma2)


def rho21_resonant_imag(omega_p: float, omega_c: float, omega_rf, gamma2: float):
    """Im rho21 of ``rho21_resonant``, computed in real arithmetic.

    For an array ``omega_rf`` (the waveform simulator's per-sample RF Rabi
    rates) the result is one new array built in place. Its values equal
    the imaginary part of numpy's complex evaluation bit for bit: numpy
    divides a complex array by a real one as a multiplication by the
    reciprocal.
    """
    im = np.square(omega_rf, dtype=float)
    den = (2.0 * omega_p**2 + gamma2**2) * im
    den += 2.0 * omega_c**2 * omega_p**2
    den += 2.0 * omega_p**4
    if np.any(den == 0.0):
        raise ZeroDenominator("omega_p = omega_rf = 0 somewhere in the input")
    im *= -gamma2 * omega_p
    im *= 1.0 / den
    return im


def susceptibility(rho21: complex, system: AtomicSystem, omega_p: float) -> complex:
    """Probe susceptibility chi = -2 N0 mu12^2 / (eps0 hbar O_p) * rho21."""
    if omega_p == 0.0:
        raise ZeroProbe("omega_p must be > 0")
    return -2.0 * system.n0 * system.mu12**2 / (epsilon_0 * hbar * omega_p) * rho21
