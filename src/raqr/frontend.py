"""RF-to-baseband receive chain: probe propagation, gain table, noise budget.

Closed forms at resonance are parameterized through the power-to-Rabi-squared
coefficients (a12, a23, a34): Omega^2 = a * P for Gaussian probe/coupling
beams of given FWHM and a plane RF wave over the effective aperture. Two
composites carry all remaining geometry: ``absorption_strength`` (density,
probe dipole, linewidth, cell length) and the drive-dependent
``drive_denominator``. Probe attenuation, the conversion slope kappa, and
every log-derivative used by the optimizer are expressed in them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import Boltzmann, elementary_charge, epsilon_0, hbar, speed_of_light

from .atomic import AtomicSystem, ZeroProbe, chi_prime_resonant

LN2 = math.log(2.0)


class MissingLocalBeam(ValueError):
    """Balanced coherent detection requested with no local optical beam."""


@dataclass(frozen=True, kw_only=True)
class OperatingPoint:
    """The controllable optical/RF powers plus beam geometry and phases.

    Powers in W; ``pl`` is the local optical beam (balanced scheme only and
    must be 0 for the direct scheme). ``fwhm_p`` / ``fwhm_c`` are probe and
    coupling beam FWHM diameters (m); ``a_e`` is the effective RF aperture
    (m^2); ``f_lo`` the RF local-oscillator frequency (Hz).
    """

    p0: float
    pc: float
    p_lo: float
    pl: float = 0.0
    scheme: str = "DIOD"
    phi0: float = 0.0
    phi_l: float = 0.0
    theta_lo: float = 0.0
    f_lo: float = 6.9458e9
    fwhm_p: float = 2.0e-3
    fwhm_c: float = 2.6e-3
    a_e: float = 1.5e-4

    def __post_init__(self) -> None:
        if self.scheme not in ("DIOD", "BCOD"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("p0", "pc", "p_lo", "pl"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.scheme == "DIOD" and self.pl != 0.0:
            raise ValueError("pl must be 0 for the direct detection scheme")
        for name in ("fwhm_p", "fwhm_c", "a_e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, kw_only=True)
class DetectionChain:
    """Photodetector + amplifier + load parameters.

    ``sigma_sq_sn`` is the Schottky shot-noise prefactor; None means the
    default 2 q B. ``alpha`` is the responsivity in A/W.
    """

    g: float = 1.0e4
    alpha: float = 0.55
    z0: float = 50.0
    bw: float = 1.5e5
    temperature: float = 300.0
    i_sat: float = 5.0e-2
    sigma_sq_sn: float | None = None

    def __post_init__(self) -> None:
        for name in ("g", "alpha", "z0", "bw", "i_sat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.sigma_sq_sn is None:
            object.__setattr__(self, "sigma_sq_sn", 2.0 * elementary_charge * self.bw)
        elif self.sigma_sq_sn < 0:
            raise ValueError("sigma_sq_sn must be >= 0")


@dataclass(frozen=True, kw_only=True)
class UserSignal:
    """Weak plane-wave user field: amplitude (V/m), carrier (Hz), phase."""

    u_x: float
    f_c: float = 6.9458e9
    theta_x: float = 0.0

    def __post_init__(self) -> None:
        if self.u_x < 0:
            raise ValueError("u_x must be >= 0")
        if self.f_c <= 0:
            raise ValueError("f_c must be > 0")

    def power(self, a_e: float) -> float:
        """Received power through aperture a_e: 0.5 c eps0 A_e U_x^2."""
        return 0.5 * speed_of_light * epsilon_0 * a_e * self.u_x**2


@dataclass(frozen=True, kw_only=True)
class BasebandGains:
    """Complete complex-baseband transfer description of the chain.

    ``rho`` (effective power gain) and ``rho_sn`` (signal-dependent-noise
    gain) are the scheme-dependent composites; ``p_g``, ``p_sn_bar_sq``,
    ``p_cn_bar`` the underlying power factors (``p_sn_bar_sq`` is the square,
    which is the quantity every formula consumes); ``kappa`` the RF-to-probe
    conversion slope (per V/m); ``varphi`` the balanced-scheme projection
    phase.
    """

    rho: float
    rho_sn: float
    phi: complex
    phi_sn: complex
    kappa: float
    p_g: float
    p_sn_bar_sq: float
    p_cn_bar: float
    varphi: float

    def __post_init__(self) -> None:
        if self.rho < 0 or self.rho_sn < 0:
            raise ValueError("gains must be >= 0")
        if abs(abs(self.phi_sn) - 1.0) > 1e-9:
            raise ValueError("phi_sn must have unit modulus")
        if abs(self.phi) > 1.0 + 1e-9:
            raise ValueError("|phi| must be <= 1")


@dataclass(frozen=True, kw_only=True)
class NoiseBudget:
    """Baseband noise powers; ``sigma_sq`` is the complex AWGN variance.

    ``sn_coeff`` is the user-signal-dependent variance coefficient: the
    baseband SN term contributes sn_coeff * (received user power) of variance,
    sn_coeff = sigma_sq_sn * rho_sn.
    """

    n_cn: float
    n_tn: float
    n_qpn: float
    n_sum: float
    sigma_sq_sn: float
    sn_coeff: float

    def __post_init__(self) -> None:
        for name in ("n_cn", "n_tn", "n_qpn", "n_sum", "sigma_sq_sn", "sn_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        expected = (self.n_cn + self.n_qpn + self.n_tn) / 2.0
        if not math.isclose(self.n_sum, expected, rel_tol=1e-12, abs_tol=0.0):
            raise ValueError("n_sum must equal (n_cn + n_qpn + n_tn) / 2")

    @property
    def sigma_sq(self) -> float:
        return self.n_sum


# --------------------------------------------------------------------------
# power <-> Rabi coupling coefficients and composite constants


def rabi_coefficients(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(a12, a23, a34) with Omega^2 = a * P for the three drives.

    Gaussian beams: P = (pi c eps0 / 8 ln2) FWHM^2 |U|^2, so
    a = (mu/hbar)^2 * 8 ln2 / (pi c eps0 FWHM^2). Plane RF wave through the
    aperture: P = 0.5 c eps0 A_e |U|^2, so a = (mu/hbar)^2 * 2/(c eps0 A_e).
    """
    ce = speed_of_light * epsilon_0
    a12 = (system.mu12 / hbar) ** 2 * 8.0 * LN2 / (math.pi * ce * op.fwhm_p**2)
    a23 = (system.mu23 / hbar) ** 2 * 8.0 * LN2 / (math.pi * ce * op.fwhm_c**2)
    a34 = (system.mu34 / hbar) ** 2 * 2.0 / (ce * op.a_e)
    return a12, a23, a34


def absorption_strength(system: AtomicSystem) -> float:
    """Medium absorption strength 4 pi l N0 mu12^2 gamma2 / (eps0 hbar
    lambda_p), in (rad/s)^2; the optical depth is this over the drive
    denominator times the squared LO Rabi rate."""
    return (
        4.0 * math.pi * system.l_cell * system.n0 * system.mu12**2 * system.gamma2
        / (epsilon_0 * hbar * system.lambda_p)
    )


def drive_denominator(op: OperatingPoint, system: AtomicSystem) -> float:
    """Saturation denominator shared by the transmission exponent and the
    conversion slope, (rad/s)^4."""
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    return 2.0 * s**2 + 2.0 * s * (a34 * op.p_lo + a23 * op.pc) + system.gamma2**2 * a34 * op.p_lo


def slope_prefactor(system: AtomicSystem) -> float:
    """Conversion-slope prefactor 2 * absorption_strength * mu34 / hbar."""
    return 2.0 * absorption_strength(system) * system.mu34 / hbar


def rf_field_amplitude(power: float, a_e: float) -> float:
    """Plane-wave field amplitude (V/m) for power through aperture a_e."""
    return math.sqrt(2.0 * power / (speed_of_light * epsilon_0 * a_e))


# --------------------------------------------------------------------------
# probe propagation


def probe_output(
    u0: float, chi: complex, system: AtomicSystem, *, phi0: float = 0.0
) -> tuple[float, float]:
    """Probe field after the cell: amplitude and phase.

    U_p = U0 exp(-(pi d / lambda_p) Im chi), phi_p = phi0 + (pi d / lambda_p)
    Re chi (thin-medium convention, chi evaluated at cell entry).
    """
    if u0 < 0:
        raise ValueError("u0 must be >= 0")
    arg = math.pi * system.l_cell / system.lambda_p
    return u0 * math.exp(-arg * chi.imag), phi0 + arg * chi.real


def p1_of_lo(op: OperatingPoint, system: AtomicSystem) -> float:
    """Transmitted probe power at the LO-only operating point, closed form.

    P1 = P0 exp(-absorption_strength * a34 P_LO / drive_denominator);
    monotone decreasing in P_LO and equal to P0 at P_LO = 0. Exact at
    resonance with the default relaxation set.
    """
    if op.p0 <= 0:
        raise ZeroProbe("p0 must be > 0")
    if op.p_lo == 0.0:
        return op.p0
    _, _, a34 = rabi_coefficients(op, system)
    return op.p0 * math.exp(
        -absorption_strength(system) * a34 * op.p_lo / drive_denominator(op, system)
    )


def kappa_of_point(op: OperatingPoint, system: AtomicSystem) -> float:
    """Conversion slope kappa(Omega_LO) in (V/m)^-1, closed form.

    kappa = slope_prefactor * sqrt(a34 P_LO) * a12 P0 * (a23 Pc + a12 P0)
    / drive_denominator^2. Equals (pi d mu34 / lambda_p hbar) *
    Im chi'(Omega_LO); the definitional cross-check against
    ``chi_prime_resonant`` is a test.
    """
    if op.p0 <= 0:
        raise ZeroProbe("p0 must be > 0")
    if op.p_lo == 0.0:
        return 0.0
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    w = a23 * op.pc + s
    return (
        slope_prefactor(system) * math.sqrt(a34 * op.p_lo) * s * w
        / drive_denominator(op, system) ** 2
    )


def kappa_from_chi_prime(op: OperatingPoint, system: AtomicSystem) -> float:
    """Second route to kappa via the susceptibility slope (cross-check)."""
    a12, a23, a34 = rabi_coefficients(op, system)
    im, _ = chi_prime_resonant(
        system,
        math.sqrt(a12 * op.p0),
        math.sqrt(a23 * op.pc),
        math.sqrt(a34 * op.p_lo),
    )
    return math.pi * system.l_cell * system.mu34 / (system.lambda_p * hbar) * im


# log-derivatives of the closed forms (consumed by the optimizer and the
# finite-difference acceptance test)


def dlnp1(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(d ln P1 / d P_LO, d ln P1 / d Pc, d ln P1 / d P0), per watt."""
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    u = a23 * op.pc
    lo = a34 * op.p_lo
    strength = absorption_strength(system)
    denom = drive_denominator(op, system)
    d_plo = -strength * a34 * 2.0 * s * (s + u) / denom**2
    d_pc = strength * lo * 2.0 * s * a23 / denom**2
    d_p0 = 1.0 / op.p0 + strength * lo * a12 * (4.0 * s + 2.0 * (lo + u)) / denom**2
    return d_plo, d_pc, d_p0


def dlnkappa(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(d ln kappa / d P_LO, d ln kappa / d Pc, d ln kappa / d P0)."""
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    u = a23 * op.pc
    lo = a34 * op.p_lo
    w = u + s
    denom = drive_denominator(op, system)
    ddenom_dlo = 2.0 * s + system.gamma2**2
    ddenom_dp0 = a12 * (4.0 * s + 2.0 * (lo + u))
    d_plo = a34 * (1.0 / (2.0 * lo) - 2.0 * ddenom_dlo / denom)
    d_pc = a23 * (1.0 / w - 4.0 * s / denom)
    d_p0 = 1.0 / op.p0 + a12 / w - 2.0 * ddenom_dp0 / denom
    return d_plo, d_pc, d_p0


def envelope_approx_error(ratio_db: float, f_delta: float, n_periods: int) -> float:
    """Relative L2 error of the strong-LO envelope approximation.

    Exact envelope sqrt(U_LO^2 + 2 U_LO U_x cos(2 pi f_d t) + U_x^2) versus
    the first-order U_LO + U_x cos(2 pi f_d t), sampled at 1024 points per
    beat period over ``n_periods`` whole periods, normalized by the L2 norm
    of the exact envelope. Strictly decreasing in ratio_db.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    u_lo = 1.0
    u_x = 10.0 ** (-ratio_db / 20.0)
    n = 1024 * int(n_periods)
    t = np.arange(n) / 1024.0  # time in beat periods; f_delta cancels
    c = np.cos(2.0 * math.pi * t)
    exact = np.sqrt(u_lo**2 + 2.0 * u_lo * u_x * c + u_x**2)
    approx = u_lo + u_x * c
    return float(np.linalg.norm(exact - approx) / np.linalg.norm(exact))


# --------------------------------------------------------------------------
# gain table and noise budget


def scheme_powers(op: OperatingPoint, p1):
    """The scheme's gain, signal-dependent shot-noise and DC shot-noise
    powers at transmitted probe power p1 (a float, or an array of samples).

    Returns (p_g^2, p_sn^2, p_cn); p_sn^2 / p_g^2 as a reduced fraction
    (num, den), left undivided so callers can rule out p_g^2 = 0 first; and
    the elasticities e = d ln / d ln p1 as (e_g, e_sn - e_g, e_cn - e_g):

                  p_g^2   p_sn^2           p_cn     num  den          e
        direct    p1^2    p1               p1       1    p1           2, -1, -1
        balanced  pl p1   p1^2/(pl + p1)   pl + p1  p1   pl (pl+p1)   1, g, -g

    with the load factor g = pl / (pl + p1), unrounded by 1 +- g.
    """
    if op.scheme == "DIOD":
        return (p1**2, p1, p1), (1.0, p1), (2.0, -1.0, -1.0)
    p_cn = op.pl + p1
    gamma = op.pl / p_cn
    return (op.pl * p1, p1**2 / p_cn, p_cn), (p1, op.pl * p_cn), (1.0, gamma, -gamma)


def baseband_gains(
    op: OperatingPoint, chain: DetectionChain, system: AtomicSystem
) -> BasebandGains:
    """Scheme-dependent complex-baseband gain table.

    rho    = 4 G Z0 alpha^2 p_g^2 k^2,  rho_sn = G Z0 alpha p_sn^2 k^2,
    Phi    = e^{-j theta_LO} cos(varphi),
    with the powers from ``scheme_powers`` and varphi = phi_l - phi_p(Omega_LO)
    + psi_p (0 for the direct scheme; psi_p = 0 at resonance where
    Re chi' = 0).
    """
    phi_sn = cmath.exp(-1j * op.theta_lo)
    if op.scheme == "DIOD":
        varphi, phi = 0.0, phi_sn
    elif op.pl <= 0.0:
        raise MissingLocalBeam("balanced detection requires pl > 0")
    else:
        # phi_p(Omega_LO) = phi0 at resonance (Re chi = 0 for any RF level).
        varphi = op.phi_l - op.phi0
        phi = math.cos(varphi) * phi_sn
    (p_g_sq, p_sn_sq, p_cn), _, _ = scheme_powers(op, p1_of_lo(op, system))
    kap = kappa_of_point(op, system)
    gz = chain.g * chain.z0
    return BasebandGains(
        rho=4.0 * gz * chain.alpha**2 * p_g_sq * kap**2,
        rho_sn=gz * chain.alpha * p_sn_sq * kap**2,
        phi=phi,
        phi_sn=phi_sn,
        kappa=kap,
        p_g=math.sqrt(p_g_sq),
        p_sn_bar_sq=p_sn_sq,
        p_cn_bar=p_cn,
        varphi=varphi,
    )


def noise_budget(
    op: OperatingPoint,
    chain: DetectionChain,
    system: AtomicSystem,
    gains: BasebandGains | None = None,
) -> NoiseBudget:
    """Baseband noise powers at the operating point.

    N_CN = sigma_sn^2 G alpha P_cn_bar, N_TN = k_B T B G,
    N_QPN = rho c eps0 cos^2(varphi) B hbar^2 / (N_atoms T2 mu34^2),
    N_sum = (N_CN + N_QPN + N_TN) / 2.
    """
    if gains is None:
        gains = baseband_gains(op, chain, system)
    n_cn = chain.sigma_sq_sn * chain.g * chain.alpha * gains.p_cn_bar
    n_tn = Boltzmann * chain.temperature * chain.bw * chain.g
    n_qpn = (
        gains.rho * speed_of_light * epsilon_0 * math.cos(gains.varphi) ** 2
        * chain.bw * hbar**2 / (system.n_atoms * system.t2 * system.mu34**2)
    )
    return NoiseBudget(
        n_cn=n_cn,
        n_tn=n_tn,
        n_qpn=n_qpn,
        n_sum=(n_cn + n_qpn + n_tn) / 2.0,
        sigma_sq_sn=chain.sigma_sq_sn,
        sn_coeff=chain.sigma_sq_sn * gains.rho_sn,
    )


def sn_reference_term(gains: BasebandGains, chain: DetectionChain) -> float:
    """User-signal-dependent noise at unit received signal power.

    2 sigma_sn^2 rho_sn, directly comparable against N_CN and N_TN; this is
    the quantity the noise-composition design guideline weighs.
    """
    return 2.0 * chain.sigma_sq_sn * gains.rho_sn


def with_powers(op: OperatingPoint, **powers: float) -> OperatingPoint:
    """Copy of the operating point with some of p0/pc/pl/p_lo replaced."""
    return replace(op, **powers)
