"""Time-domain receive chain: beat-note synthesis, detection, demodulation.

The simulator carries two deterministic chains side by side. The exact chain
evaluates the atomic response per sample on the instantaneous RF envelope;
the approximated chain linearizes the transmitted probe around the
local-oscillator level, which is the regime the closed-form link budget
assumes. Both share the same noise draw so overlays isolate the modeling
error.

Voltage normalization: the detector voltage is sqrt(G_eff) * I with
G_eff = 4 G Z0 c eps0 A_e. This single constant is chosen so that the
demodulated complex baseband power equals rho * |Phi|^2 * P_x exactly,
with P_x the user power collected over the effective aperture A_e. Shot
noise enters as xi(t) * sqrt(G_eff * I(t)) with per-sample
Var(xi) = sigma_sq_sn * fs / (2 B), so that the variance referred to the
detection bandwidth B reproduces the band-integrated budget terms.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.constants import c, epsilon_0, hbar
from scipy.signal import firwin2, lfilter

from .atomic import DriveConfig, rho21_resonant, steady_state_numeric, susceptibility
from .frontend import (
    AtomicSystem,
    DetectionChain,
    OperatingPoint,
    UserSignal,
    kappa_of_point,
    p1_of_lo,
    rabi_coefficients,
    rf_field_amplitude,
    scheme_powers,
)


class WeakLO(UserWarning):
    """Local oscillator less than 10 dB above the user field; the
    linearized chain is unreliable but the simulation still runs."""


class Saturation(Exception):
    """Deterministic photocurrent exceeds the detector saturation level."""


class InsufficientLength(Exception):
    """Series too short to demodulate (needs 8 beat periods or the
    requested averaging window)."""


def effective_gain(op: OperatingPoint, chain: DetectionChain) -> float:
    """Voltage-scale constant 4 G Z0 c eps0 A_e (see module docstring)."""
    return 4.0 * chain.g * chain.z0 * c * epsilon_0 * op.a_e


@dataclass
class Waveform:
    """Sampled detector output with its decomposition.

    v_exact and v_approx are the two deterministic chains plus the shared
    noise. cn is the noise at the LO-only level; sn is the signal-dependent
    remainder, so v = deterministic + cn + sn for each chain.
    """

    t: np.ndarray
    v_exact: np.ndarray
    v_approx: np.ndarray
    sn: np.ndarray
    cn: np.ndarray
    v_dc: float
    f_delta: float
    sample_rate: float
    params: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)


def _exact_transmission(omega_rf, op, system, rho_solver):
    """Instantaneous probe transmission: power P1 and accumulated phase."""
    omega_p, omega_c = _probe_coupling_rabi(op, system)
    if rho_solver == "closed-form":
        r21 = rho21_resonant(omega_p, omega_c, omega_rf, system.gamma2)
    elif rho_solver == "liouvillian":
        vals = []
        for w in np.atleast_1d(omega_rf):
            drive = DriveConfig(omega_p=omega_p, omega_c=omega_c, omega_rf=float(w))
            vals.append(steady_state_numeric(system, drive).rho21)
        r21 = np.array(vals)
    else:
        raise ValueError(f"unknown rho_solver {rho_solver!r}")
    chi = susceptibility(r21, system, omega_p)
    half_exponent = math.pi * system.l_cell / system.lambda_p
    p1_t = op.p0 * np.exp(-2.0 * half_exponent * chi.imag)
    phase_t = op.phi0 + half_exponent * chi.real
    return p1_t, phase_t


def _probe_coupling_rabi(op, system):
    a12, a23, _ = rabi_coefficients(op, system)
    return math.sqrt(a12 * op.p0), math.sqrt(a23 * op.pc)


def _detector_current(p1_t, phase_t, op, chain):
    """Deterministic photocurrent entering the voltage stage."""
    if op.scheme == "DIOD":
        return chain.alpha * p1_t
    return 2.0 * chain.alpha * np.sqrt(op.pl * p1_t) * np.cos(op.phi_l - phase_t)


def simulate_waveform(
    op: OperatingPoint,
    chain: DetectionChain,
    user: UserSignal,
    system: AtomicSystem,
    duration: float,
    sample_rate: float,
    seed: int,
    *,
    rho_solver: str = "closed-form",
) -> Waveform:
    """Simulate the sampled detector voltage for both chains.

    The RF input is the coherent sum of the local oscillator at f_lo and
    the user tone at user.f_c; their beat at f_delta = f_c - f_lo is what
    survives detection. Reproducible bit-for-bit for a fixed seed; the
    noise generator is counter-based so chunked evaluation would commute.

    Raises Saturation if the deterministic photocurrent (total over both
    detectors for the balanced scheme, matching the optimizer's saturation
    constraint) exceeds chain.i_sat. Warns WeakLO below 10 dB LO-to-user
    field ratio.
    """
    f_delta = user.f_c - op.f_lo
    if f_delta == 0.0:
        raise ValueError("user carrier coincides with the LO; no beat to detect")
    if sample_rate < 16.0 * abs(f_delta):
        raise ValueError("sample_rate must be at least 16x the beat frequency")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ValueError("duration too short for one sample")

    u_lo = rf_field_amplitude(op.p_lo, op.a_e)
    u_x = user.u_x
    if u_x > 0.0 and u_lo < math.sqrt(10.0) * u_x:
        warnings.warn(
            "LO-to-user field ratio below 10 dB; linearized chain degraded",
            WeakLO,
            stacklevel=2,
        )

    t = np.arange(n) / sample_rate
    beta = 2.0 * math.pi * f_delta * t + (user.theta_x - op.theta_lo)
    cos_b = np.cos(beta)

    # exact chain: instantaneous envelope -> per-sample atomic response
    u_z = np.sqrt(u_lo**2 + 2.0 * u_lo * u_x * cos_b + u_x**2)
    omega_rf_t = system.mu34 * u_z / hbar
    p1_t, phase_t = _exact_transmission(omega_rf_t, op, system, rho_solver)
    i_exact = _detector_current(p1_t, phase_t, op, chain)

    # linearized chain around the LO-only level; e_g: d ln p_g^2 / d ln p1
    p1_lo = p1_of_lo(op, system)
    (_, _, p_cn_lo), _, (e_g, _, _) = scheme_powers(op, p1_lo)
    i_dc = _detector_current(p1_lo, op.phi0, op, chain)
    i_approx = i_dc * (1.0 - e_g * kappa_of_point(op, system) * u_x * cos_b)

    i_env = chain.alpha * scheme_powers(op, p1_t)[0][2]  # shot-noise current
    if np.max(i_env) > chain.i_sat:
        raise Saturation(
            f"photocurrent {np.max(i_env):.3e} A exceeds i_sat {chain.i_sat:.3e} A"
        )

    g_eff = effective_gain(op, chain)
    sigma_xi = math.sqrt(chain.sigma_sq_sn * sample_rate / (2.0 * chain.bw))
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi_plus = rng.normal(0.0, sigma_xi, n)
    xi_minus = rng.normal(0.0, sigma_xi, n)
    xi = xi_plus if op.scheme == "DIOD" else (xi_plus - xi_minus) / math.sqrt(2.0)

    cn = xi * math.sqrt(g_eff * (chain.alpha * p_cn_lo))
    sn = xi * np.sqrt(g_eff * i_env) - cn

    sqrt_g = math.sqrt(g_eff)
    params = {
        "scheme": op.scheme,
        "p0": op.p0,
        "pc": op.pc,
        "p_lo": op.p_lo,
        "pl": op.pl,
        "u_x": u_x,
        "p_x": user.power(op.a_e),
        "f_lo": op.f_lo,
        "f_c": user.f_c,
        "theta_x": user.theta_x,
        "theta_lo": op.theta_lo,
        "sample_rate": sample_rate,
        "duration": duration,
        "seed": seed,
        "rho_solver": rho_solver,
        "sigma_sq_sn": chain.sigma_sq_sn,
    }
    return Waveform(
        t=t,
        v_exact=sqrt_g * i_exact + cn + sn,
        v_approx=sqrt_g * i_approx + cn + sn,
        sn=sn,
        cn=cn,
        v_dc=sqrt_g * float(i_dc),
        f_delta=f_delta,
        sample_rate=sample_rate,
        params=params,
    )


def down_convert(v: np.ndarray, v_dc: float) -> np.ndarray:
    """Subtract the modeled DC pedestal, flipping the beat upright.

    The transmitted probe shrinks when the user field adds to the LO, so
    the beat rides below the pedestal; v_dc - v restores the user phase.
    """
    return v_dc - np.asarray(v, dtype=float)


# --------------------------------------------------------------------------
# demodulation


def _lowpass_taps(f_delta: float, sample_rate: float) -> np.ndarray:
    """Linear-phase FIR matching a 6th-order Butterworth magnitude.

    Cutoff at half the beat frequency. Tap count scales with the number of
    samples per beat period so that short series at the minimum sample
    rate can still settle.
    """
    spp = sample_rate / abs(f_delta)
    numtaps = int(min(511, max(65, round(8.0 * spp))))
    numtaps |= 1  # linear phase type I
    cutoff = abs(f_delta) / 2.0
    freqs = np.linspace(0.0, sample_rate / 2.0, 1024)
    gains = 1.0 / np.sqrt(1.0 + (freqs / cutoff) ** 12)
    return firwin2(numtaps, freqs, gains, fs=sample_rate)


def settling_samples(f_delta: float, sample_rate: float) -> int:
    """Samples to discard before the demodulated series is trustworthy:
    the FIR group delay plus four beat periods."""
    numtaps = len(_lowpass_taps(f_delta, sample_rate))
    return (numtaps - 1) // 2 + int(math.ceil(4.0 * sample_rate / abs(f_delta)))


def demodulate_iq(
    v_samples: np.ndarray, f_delta: float, sample_rate: float
) -> np.ndarray:
    """Quadrature demodulation at the beat frequency.

    Multiplies by cos and -sin at f_delta, low-pass filters each branch at
    f_delta/2, and combines as (I + jQ)/sqrt(2), so a unit-amplitude
    cosine beat maps to 1/(2 sqrt(2)).
    """
    v = np.asarray(v_samples, dtype=float)
    if abs(f_delta) >= sample_rate / 4.0:
        raise ValueError("f_delta must be below sample_rate/4")
    if len(v) < 8.0 * sample_rate / abs(f_delta):
        raise InsufficientLength(
            f"{len(v)} samples is under 8 beat periods at f_delta={f_delta:g} Hz"
        )
    t = np.arange(len(v)) / sample_rate
    ph = 2.0 * math.pi * f_delta * t
    taps = _lowpass_taps(f_delta, sample_rate)
    i_br = lfilter(taps, 1.0, v * np.cos(ph))
    q_br = lfilter(taps, 1.0, v * (-np.sin(ph)))
    return (i_br + 1j * q_br) / math.sqrt(2.0)


def baseband_estimate(
    z: np.ndarray, f_delta: float, sample_rate: float
) -> complex:
    """Mean of the settled demodulated series over whole beat periods.

    Averaging over an integer period count cancels the residual mixing
    ripple at f_delta and 2 f_delta that the gentle FIR lets through.
    """
    settle = settling_samples(f_delta, sample_rate)
    spp = sample_rate / abs(f_delta)
    periods = int((len(z) - settle) / spp)
    if periods < 1:
        raise InsufficientLength("no whole beat period after filter settling")
    end = settle + int(round(periods * spp))
    return complex(np.mean(z[settle:end]))


# --------------------------------------------------------------------------
# columnar dump with JSON sidecar


_COLUMNS = ("t", "v_exact", "v_approx", "sn", "cn")


def write_waveform(path, wf: Waveform) -> None:
    """Columnar little-endian float64 dump plus a JSON parameter sidecar.

    Column order: time, exact voltage, approximated voltage, the
    signal-dependent noise component, the LO-level noise component. Each
    column is stored contiguously.
    """
    path = Path(path)
    data = np.stack([getattr(wf, name) for name in _COLUMNS])
    data.astype("<f8").tofile(path)
    sidecar = {
        "columns": list(_COLUMNS),
        "n_samples": len(wf),
        "v_dc": wf.v_dc,
        "f_delta": wf.f_delta,
        "sample_rate": wf.sample_rate,
        "params": wf.params,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )


def read_waveform(path) -> Waveform:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    n = sidecar["n_samples"]
    data = np.fromfile(path, dtype="<f8").reshape(len(_COLUMNS), n)
    cols = dict(zip(sidecar["columns"], data))
    return Waveform(
        t=cols["t"],
        v_exact=cols["v_exact"],
        v_approx=cols["v_approx"],
        sn=cols["sn"],
        cn=cols["cn"],
        v_dc=sidecar["v_dc"],
        f_delta=sidecar["f_delta"],
        sample_rate=sidecar["sample_rate"],
        params=sidecar["params"],
    )
