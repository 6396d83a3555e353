"""Shipped default parameter set: cesium ladder 6S1/2 -> 6P3/2 -> 47D5/2 -> 48P3/2.

Quantum constants are transcribed from public literature (external
provenance): the D2 cycling-transition dipole 4.4786 e*a0 and 852.35 nm
wavelength from standard cesium D-line data; the Rydberg 47D5/2 -> 48P3/2
dipole from n^2-scaling ARC-style calculations (~2240 e*a0); vapor density
2e17 m^-3 for a warm (~50 C) cell. Chain and geometry values are routine
bench figures. Everything here is overridable through the experiment config.
"""

from __future__ import annotations

import math

from scipy.constants import elementary_charge, hbar, speed_of_light

from .atomic import AtomicSystem, DriveConfig
from .frontend import DetectionChain, OperatingPoint, UserSignal, rabi_coefficients

E_A0 = 8.478353625e-30  # one atomic unit of dipole moment, C*m


def n_atoms(n0: float, fwhm_p: float, l_cell: float) -> float:
    """Atoms in the probe-illuminated column of the cell."""
    return n0 * math.pi * (fwhm_p / 2.0) ** 2 * l_cell


def responsivity(eta: float, lambda_p: float) -> float:
    """Photodetector responsivity eta q / (h f) in A/W."""
    f_probe = speed_of_light / lambda_p
    return eta * elementary_charge / (2.0 * math.pi * hbar * f_probe)


MU12 = 4.4786 * E_A0            # Cs D2 cycling transition
MU23 = 4.0e-31                  # 6P3/2 -> 47D5/2, weak Rydberg excitation
MU34 = 2241.0 * E_A0            # 47D5/2 -> 48P3/2 microwave transition
GAMMA2 = 2.0 * math.pi * 5.22e6  # D2 natural linewidth, rad/s
LAMBDA_P = 852.35e-9
N0 = 2.0e17                     # vapor density, m^-3
L_CELL = 0.03
T2 = 1.0e-5                     # EIT coherence time, s
FWHM_P = 2.0e-3
FWHM_C = 2.6e-3
A_E = 1.5e-4                    # effective RF aperture, m^2
N_ATOMS = n_atoms(N0, FWHM_P, L_CELL)

ETA1 = 0.8                      # photodetector quantum efficiency
ALPHA = responsivity(ETA1, LAMBDA_P)  # ~0.55 A/W

F_CARRIER = 6.9458e9            # user carrier / LO frequency, Hz
BANDWIDTH = 1.5e5               # detection bandwidth, Hz
F_DELTA = BANDWIDTH / 2.0       # beat frequency placed inside the band


def cesium_system(**overrides) -> AtomicSystem:
    kwargs = dict(
        mu12=MU12,
        mu23=MU23,
        mu34=MU34,
        gamma2=GAMMA2,
        gamma3=0.0,
        gamma4=0.0,
        gamma=0.0,
        gamma_c=0.0,
        n0=N0,
        l_cell=L_CELL,
        lambda_p=LAMBDA_P,
        t2=T2,
        n_atoms=N_ATOMS,
    )
    kwargs.update(overrides)
    return AtomicSystem(**kwargs)


def default_chain(**overrides) -> DetectionChain:
    kwargs = dict(
        g=1.0e4,
        alpha=ALPHA,
        z0=50.0,
        bw=BANDWIDTH,
        temperature=300.0,
        i_sat=5.0e-2,
    )
    kwargs.update(overrides)
    return DetectionChain(**kwargs)


def diod_point(**overrides) -> OperatingPoint:
    """Direct-detection default: deliberately past the kappa peak in P_LO,
    which lands the noise composition in the thermal-dominant regime while
    keeping the strong-LO linearization good to under 1% at a 20 dB
    LO-to-user ratio."""
    kwargs = dict(
        p0=0.040,
        pc=0.060,
        p_lo=1.5e-5,
        pl=0.0,
        scheme="DIOD",
        f_lo=F_CARRIER - F_DELTA,
        fwhm_p=FWHM_P,
        fwhm_c=FWHM_C,
        a_e=A_E,
    )
    kwargs.update(overrides)
    return OperatingPoint(**kwargs)


def bcod_point(**overrides) -> OperatingPoint:
    """Balanced-detection default: P_LO at the kappa peak (a34 P_LO = a12 P0 / 3
    for the default coupling), strong local beam. Signal-dependent shot noise
    dominates here."""
    kwargs = dict(
        p0=0.030,
        pc=0.060,
        p_lo=1.32e-6,
        pl=5.0e-3,
        scheme="BCOD",
        f_lo=F_CARRIER - F_DELTA,
        fwhm_p=FWHM_P,
        fwhm_c=FWHM_C,
        a_e=A_E,
    )
    kwargs.update(overrides)
    return OperatingPoint(**kwargs)


def default_point(scheme: str = "DIOD", **overrides) -> OperatingPoint:
    if scheme == "DIOD":
        return diod_point(**overrides)
    if scheme == "BCOD":
        return bcod_point(**overrides)
    raise ValueError(f"unknown scheme {scheme!r}")


def drive_for(op: OperatingPoint, system: AtomicSystem, omega_rf: float | None = None,
              **overrides) -> DriveConfig:
    """DriveConfig matching an operating point; omega_rf defaults to the LO."""
    a12, a23, a34 = rabi_coefficients(op, system)
    if omega_rf is None:
        omega_rf = math.sqrt(a34 * op.p_lo)
    kwargs = dict(
        omega_p=math.sqrt(a12 * op.p0),
        omega_c=math.sqrt(a23 * op.pc),
        omega_rf=omega_rf,
    )
    kwargs.update(overrides)
    return DriveConfig(**kwargs)


def weak_user(ratio_db: float, op: OperatingPoint, *, theta_x: float = 0.0,
              f_delta: float = F_DELTA) -> UserSignal:
    """User signal ``ratio_db`` below the RF LO field amplitude."""
    from .frontend import rf_field_amplitude

    u_lo = rf_field_amplitude(op.p_lo, op.a_e)
    return UserSignal(
        u_x=u_lo * 10.0 ** (-ratio_db / 20.0),
        f_c=op.f_lo + f_delta,
        theta_x=theta_x,
    )


LAMBDA_LO = speed_of_light / F_CARRIER  # free-space LO wavelength, ~4.3 cm

USER_DISTANCE = 1500.0                 # base-station-to-user range, m


def default_scenario(n_sensors: int, n_users: int = 10, **overrides):
    """Array scenario at the shipped carrier: half-wave spacing, all users
    at the nominal range with unit transmit power."""
    from .mimo import MimoScenario, large_scale_fading

    kwargs = dict(
        n_sensors=n_sensors,
        n_users=n_users,
        lambda_lo=LAMBDA_LO,
        theta_arrival=0.0,
        beta=large_scale_fading(USER_DISTANCE, F_CARRIER),
        p=1.0,
        seed=0,
        n_realizations=10_000,
    )
    kwargs.update(overrides)
    return MimoScenario(**kwargs)
