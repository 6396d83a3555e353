"""RF-to-baseband receive chain: probe propagation, gain table, noise budget.

Closed forms at resonance are parameterized through the power-to-Rabi-squared
coefficients (a12, a23, a34): Omega^2 = a * P for Gaussian probe/coupling
beams of given FWHM and a plane RF wave over the effective aperture.
``drive_terms`` is the one source of that algebra: the squared Rabi rates,
the ``absorption_strength`` (density, probe dipole, linewidth, cell length)
and the drive-dependent denominator. Probe attenuation, the conversion slope
kappa, every log-derivative used by the optimizer, the optimizer's
stationary points and the atomic ``DriveConfig`` (``drive_for``) are
expressed in them. ``SmallSignal`` is the one small-signal evaluation of an
operating point: the transmitted probe power P1, kappa and their p0
log-derivatives from a single ``drive_terms``, which the gain table, the
noise functional, its p0 derivative and the linearized waveform each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .atomic import AtomicSystem, DriveConfig, ZeroProbe
from .constants import Boltzmann, elementary_charge, epsilon_0, hbar, speed_of_light

LN2 = math.log(2.0)


class MissingLocalBeam(ValueError):
    """Balanced coherent detection requested with no local optical beam."""


@dataclass(frozen=True, kw_only=True)
class OperatingPoint:
    """The controllable optical/RF powers plus beam geometry and phase.

    Powers in W; ``pl`` is the local optical beam (balanced scheme only and
    must be 0 for the direct scheme), ``phi_l`` its phase from the probe's
    at cell entry. ``fwhm_p`` / ``fwhm_c`` are probe and coupling beam FWHM
    diameters (m); ``a_e`` is the effective RF aperture (m^2).
    """

    p0: float
    pc: float
    p_lo: float
    pl: float = 0.0
    scheme: str = "DIOD"
    phi_l: float = 0.0
    fwhm_p: float
    fwhm_c: float
    a_e: float

    def __post_init__(self) -> None:
        if self.scheme not in ("DIOD", "BCOD"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name in ("p0", "pc", "p_lo", "pl"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.scheme == "DIOD" and self.pl != 0.0:
            raise ValueError("pl must be 0 for the direct detection scheme")
        if not math.isfinite(self.phi_l):
            raise ValueError("phi_l must be finite")
        for name in ("fwhm_p", "fwhm_c", "a_e"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True, kw_only=True)
class DetectionChain:
    """Photodetector + amplifier + load parameters.

    ``sigma_sq_sn`` is the Schottky shot-noise prefactor; None means the
    default 2 q B. ``alpha`` is the responsivity in A/W.
    """

    g: float
    alpha: float
    z0: float
    bw: float
    temperature: float
    i_sat: float
    sigma_sq_sn: float | None = None

    def __post_init__(self) -> None:
        for name in ("g", "alpha", "z0", "bw", "i_sat"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if self.sigma_sq_sn is None:
            object.__setattr__(self, "sigma_sq_sn", 2.0 * elementary_charge * self.bw)
        elif not self.sigma_sq_sn >= 0:
            raise ValueError("sigma_sq_sn must be >= 0")


@dataclass(frozen=True, kw_only=True)
class UserSignal:
    """Weak plane-wave user field: amplitude (V/m), beat (Hz) and phase. The
    beat ``f_delta`` is the user carrier minus the RF LO, of either sign:
    of the two carriers, only it reaches complex baseband."""

    u_x: float
    f_delta: float
    theta_x: float = 0.0

    def __post_init__(self) -> None:
        if not self.u_x >= 0:
            raise ValueError("u_x must be >= 0")
        if not (math.isfinite(self.f_delta) and self.f_delta != 0.0):
            raise ValueError("f_delta must be finite and nonzero")
        if not math.isfinite(self.theta_x):
            raise ValueError("theta_x must be finite")

    def power(self, a_e: float) -> float:
        """Received power through aperture a_e: 0.5 c eps0 A_e U_x^2."""
        return 0.5 * speed_of_light * epsilon_0 * a_e * self.u_x**2


@dataclass(frozen=True, kw_only=True)
class BasebandGains:
    """Signal transfer of the chain into complex baseband.

    ``rho`` (effective power gain) and ``rho_sn`` (signal-dependent-noise
    gain) are the scheme-dependent composites, ``phi`` the real demodulation
    gain (the shot noise's is 1), and ``p_cn_bar`` the detected DC power that
    sets the DC shot noise. The noise powers themselves live in ``NoiseBudget``.
    """

    rho: float
    rho_sn: float
    phi: float
    p_cn_bar: float

    def __post_init__(self) -> None:
        # each check written so that NaN fails it
        if not (self.rho >= 0 and self.rho_sn >= 0):
            raise ValueError("gains must be >= 0")
        if not abs(self.phi) <= 1.0 + 1e-9:
            raise ValueError("|phi| must be <= 1")
        if not self.p_cn_bar >= 0:
            raise ValueError("p_cn_bar must be >= 0")


@dataclass(frozen=True, kw_only=True)
class NoiseBudget:
    """Baseband noise powers; ``n_sum`` is the complex AWGN variance.

    ``sn_coeff`` = sigma_sq_sn * rho_sn is the one source of the
    user-signal-dependent shot noise: the baseband SN term contributes
    sn_coeff * (received user power) of variance, and ``n_sn`` = 2 sn_coeff
    is that term at unit received power, comparable with N_CN and N_TN.
    """

    n_cn: float
    n_tn: float
    n_qpn: float
    sn_coeff: float

    def __post_init__(self) -> None:
        for name in ("n_cn", "n_tn", "n_qpn", "sn_coeff"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def n_sum(self) -> float:
        return (self.n_cn + self.n_qpn + self.n_tn) / 2.0

    @property
    def n_sn(self) -> float:
        return 2.0 * self.sn_coeff


# --------------------------------------------------------------------------
# power <-> Rabi coupling coefficients and the resonance drive terms


def rabi_coefficients(op: OperatingPoint, system: AtomicSystem) -> tuple[float, float, float]:
    """(a12, a23, a34) with Omega^2 = a * P for the three drives.

    Gaussian beams: P = (pi c eps0 / 8 ln2) FWHM^2 |U|^2, so
    a = (mu/hbar)^2 * 8 ln2 / (pi c eps0 FWHM^2). Plane RF wave through the
    aperture: P = 0.5 c eps0 A_e |U|^2, so a = (mu/hbar)^2 * 2/(c eps0 A_e).
    """
    a12 = beam_coefficient(system.mu12, op.fwhm_p)
    a23 = beam_coefficient(system.mu23, op.fwhm_c)
    a34 = (system.mu34 / hbar) ** 2 * 2.0 / (speed_of_light * epsilon_0 * op.a_e)
    return a12, a23, a34


def beam_coefficient(mu: float, fwhm: float) -> float:
    """a with Omega^2 = a * P for a Gaussian beam of width ``fwhm`` driving a
    transition of dipole ``mu``; raises ArithmeticError where a square
    overflows or the width's is zero."""
    ce = speed_of_light * epsilon_0
    return (mu / hbar) ** 2 * 8.0 * LN2 / (math.pi * ce * fwhm**2)


def absorption_strength(system: AtomicSystem) -> float:
    """Medium absorption strength 4 pi l N0 mu12^2 gamma2 / (eps0 hbar
    lambda_p), in (rad/s)^2; the optical depth is this over the drive
    denominator times the squared LO Rabi rate."""
    return (
        4.0 * math.pi * system.l_cell * system.n0 * system.mu12**2 * system.gamma2
        / (epsilon_0 * hbar * system.lambda_p)
    )


class DriveTerms(NamedTuple):
    """Resonance drive algebra at an operating point: the power-to-Rabi
    coefficients, the squared Rabi rates s = a12 P0 (probe), u = a23 Pc
    (coupling) and ell = a34 P_LO (RF LO), the absorption strength, and the
    drive denominator 2 s^2 + 2 s (ell + u) + gamma2^2 ell shared by the
    transmission exponent and the conversion slope, (rad/s)^4."""

    a12: float
    a23: float
    a34: float
    s: float
    u: float
    ell: float
    strength: float
    denom: float


def drive_terms(op: OperatingPoint, system: AtomicSystem) -> DriveTerms:
    """The ``DriveTerms`` of an operating point."""
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    u = a23 * op.pc
    ell = a34 * op.p_lo
    denom = 2.0 * s**2 + 2.0 * s * (ell + u) + system.gamma2**2 * a34 * op.p_lo
    return DriveTerms(a12, a23, a34, s, u, ell, absorption_strength(system), denom)


def drive_for(op: OperatingPoint, system: AtomicSystem, omega_rf: float | None = None,
              **overrides) -> DriveConfig:
    """DriveConfig matching an operating point; omega_rf defaults to the LO."""
    t = drive_terms(op, system)
    if omega_rf is None:
        omega_rf = math.sqrt(t.ell)
    kwargs = dict(omega_p=math.sqrt(t.s), omega_c=math.sqrt(t.u), omega_rf=omega_rf)
    kwargs.update(overrides)
    return DriveConfig(**kwargs)


def rf_field_amplitude(power: float, a_e: float) -> float:
    """Plane-wave field amplitude (V/m) for power through aperture a_e."""
    return math.sqrt(2.0 * power / (speed_of_light * epsilon_0 * a_e))


# --------------------------------------------------------------------------
# probe propagation


def probe_output(p0: float, chi, system: AtomicSystem):
    """Probe power and phase after the cell, for a scalar or array chi.

    P_p = ``probe_power(p0, chi.imag, system)``, phi_p = (pi d / lambda_p)
    Re chi from the entry phase (thin-medium convention, chi at cell entry).
    """
    power = probe_power(p0, chi.imag, system)
    return power, math.pi * system.l_cell / system.lambda_p * chi.real


def probe_power(p0: float, chi_imag, system: AtomicSystem):
    """Probe power after the cell from Im chi alone, for a scalar or array:
    P_p = P0 exp(-(2 pi d / lambda_p) Im chi). At resonance chi is purely
    imaginary, so this is the whole transmission."""
    if p0 < 0:
        raise ValueError("p0 must be >= 0")
    arg = math.pi * system.l_cell / system.lambda_p
    power = np.exp(-2.0 * arg * chi_imag)
    power *= p0
    return power


class SmallSignal:
    """One small-signal evaluation of an operating point: the transmitted
    probe power P1 at the LO-only point, the conversion slope kappa and
    their p0 log-derivatives, all from one ``drive_terms``. Each is formed
    when read, and the terms when first needed, so a reader raises only what
    the quantities it reads raise.

    P1 = P0 exp(-strength * a34 P_LO / denom), monotone decreasing in P_LO
    and P0 at P_LO = 0; kappa = (2 strength mu34 / hbar) * sqrt(ell) * s *
    (u + s) / denom^2 in (V/m)^-1, 0 at P_LO = 0. kappa equals
    (pi d mu34 / lambda_p hbar) * Im chi'(Omega_LO), the susceptibility
    slope in the RF Rabi rate; the tests hold the two to 1e-12. Both are
    exact at resonance with the default relaxation set.
    """

    def __init__(self, op: OperatingPoint, system: AtomicSystem):
        if op.p0 <= 0:
            raise ZeroProbe("p0 must be > 0")
        self.op, self.system = op, system

    @cached_property
    def terms(self) -> DriveTerms:
        return drive_terms(self.op, self.system)

    @property
    def p1(self) -> float:
        if self.op.p_lo == 0.0:
            return self.op.p0
        t = self.terms
        return self.op.p0 * math.exp(-t.strength * t.a34 * self.op.p_lo / t.denom)

    @property
    def kappa(self) -> float:
        if self.op.p_lo == 0.0:
            return 0.0
        t = self.terms
        return (
            2.0 * t.strength * self.system.mu34 / hbar * math.sqrt(t.ell) * t.s
            * (t.u + t.s) / t.denom**2
        )

    @property
    def dlnp1_dp0(self) -> float:
        a12, _, _, s, u, lo, strength, denom = self.terms
        return (1.0 / self.op.p0
                + strength * lo * a12 * (4.0 * s + 2.0 * (lo + u)) / denom**2)

    @property
    def dlnkappa_dp0(self) -> float:
        a12, _, _, s, u, lo, _, denom = self.terms
        ddenom_dp0 = a12 * (4.0 * s + 2.0 * (lo + u))
        return 1.0 / self.op.p0 + a12 / (u + s) - 2.0 * ddenom_dp0 / denom


def p1_of_lo(op: OperatingPoint, system: AtomicSystem) -> float:
    """Transmitted probe power at the LO-only operating point, closed form."""
    return SmallSignal(op, system).p1


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
    p_cn = dc_shot_power(op, p1)
    if op.scheme == "DIOD":
        return (p1**2, p1, p_cn), (1.0, p1), (2.0, -1.0, -1.0)
    gamma = op.pl / p_cn
    return (op.pl * p1, p1**2 / p_cn, p_cn), (p1, op.pl * p_cn), (1.0, gamma, -gamma)


def dc_shot_power(op: OperatingPoint, p1):
    """The detected DC power p_cn of ``scheme_powers`` alone: p1 itself
    (direct; the argument is returned) or pl + p1 (balanced)."""
    return p1 if op.scheme == "DIOD" else op.pl + p1


def demod_phase(op: OperatingPoint) -> float:
    """The phase varphi of the demodulation gain cos(varphi): phi_l -
    phi_p(Omega_LO) + psi_p = phi_l for the balanced scheme, both probe terms
    0 at resonance (Re chi = 0 for any RF level), and 0 for the direct one."""
    return 0.0 if op.scheme == "DIOD" else op.phi_l


def baseband_gains(
    op: OperatingPoint, chain: DetectionChain, system: AtomicSystem
) -> BasebandGains:
    """Scheme-dependent complex-baseband gain table.

    rho    = 4 G Z0 alpha^2 p_g^2 k^2,  rho_sn = G Z0 alpha p_sn^2 k^2,
    Phi    = cos(varphi), real, with the powers from ``scheme_powers``,
    k = ``SmallSignal.kappa`` and varphi = ``demod_phase(op)``. The RF LO's
    phase is folded into the user phase theta_x.
    """
    if op.scheme == "BCOD" and op.pl <= 0.0:
        raise MissingLocalBeam("balanced detection requires pl > 0")
    small = SmallSignal(op, system)
    (p_g_sq, p_sn_sq, p_cn), _, _ = scheme_powers(op, small.p1)
    kap = small.kappa
    gz = chain.g * chain.z0
    return BasebandGains(
        rho=4.0 * gz * chain.alpha**2 * p_g_sq * kap**2,
        rho_sn=gz * chain.alpha * p_sn_sq * kap**2,
        phi=math.cos(demod_phase(op)),
        p_cn_bar=p_cn,
    )


def noise_budget(
    op: OperatingPoint,
    chain: DetectionChain,
    system: AtomicSystem,
    gains: BasebandGains | None = None,
) -> NoiseBudget:
    """Baseband noise powers at the operating point.

    N_CN = sigma_sn^2 G alpha P_cn_bar, N_TN = k_B T B G,
    N_QPN = rho c eps0 |Phi|^2 B hbar^2 / (N_atoms T2 mu34^2),
    sn_coeff = sigma_sn^2 rho_sn, N_sum = (N_CN + N_QPN + N_TN) / 2;
    ``gains`` defaults to ``baseband_gains`` at the same point.
    """
    if gains is None:
        gains = baseband_gains(op, chain, system)
    n_cn = chain.sigma_sq_sn * chain.g * chain.alpha * gains.p_cn_bar
    n_tn = Boltzmann * chain.temperature * chain.bw * chain.g
    n_qpn = (
        gains.rho * speed_of_light * epsilon_0 * abs(gains.phi) ** 2
        * chain.bw * hbar**2 / (system.n_atoms * system.t2 * system.mu34**2)
    )
    return NoiseBudget(n_cn=n_cn, n_tn=n_tn, n_qpn=n_qpn,
                       sn_coeff=chain.sigma_sq_sn * gains.rho_sn)


def with_powers(op: OperatingPoint, **powers: float) -> OperatingPoint:
    """Copy of the operating point with some of p0/pc/pl/p_lo replaced."""
    return replace(op, **powers)
