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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atomic import rho21_resonant_imag, steady_state_numeric, susceptibility
from .constants import epsilon_0, hbar, speed_of_light
from .frontend import (
    AtomicSystem,
    DetectionChain,
    OperatingPoint,
    SmallSignal,
    UserSignal,
    dc_shot_power,
    drive_for,
    probe_output,
    probe_power,
    rf_field_amplitude,
    scheme_powers,
)


# lowest sample rate the simulator takes, in samples per beat period
MIN_SAMPLES_PER_BEAT = 16.0


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
    return 4.0 * chain.g * chain.z0 * speed_of_light * epsilon_0 * op.a_e


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


def _exact_transmission(omega_rf, op, system, rho_solver, period):
    """Instantaneous probe transmission: power P1 and accumulated phase.

    At resonance chi is purely imaginary, so the closed form needs only
    Im chi, in real arithmetic, and its phase is 0 for every sample.

    The Liouvillian branch takes the envelope as periodic in ``period``
    samples: it solves each distinct envelope of the first period once and
    gives sample k the value at k mod period. With a whole number of
    samples per beat the float beat phase of later periods differs from
    the first only by accumulated rounding, a few ulps, which moves the
    exact voltage by about 3e-14 relative at 4,000 samples and 3e-13 at
    40,000, growing with t. With period = n every sample keeps its own
    solve's value. The closed form costs little per sample and keeps the
    per-sample values: the pinned demodulation estimates rest on them.
    """
    if rho_solver == "closed-form":
        drive = drive_for(op, system, omega_rf=omega_rf)
        chi_im = rho21_resonant_imag(drive.omega_p, drive.omega_c, omega_rf, system.gamma2)
        chi_im *= susceptibility(1.0, system, drive.omega_p)  # chi is linear in rho21
        return probe_power(op.p0, chi_im, system), 0.0
    if rho_solver == "liouvillian":
        # one solve per distinct envelope; a sqrt is never -0.0, so equal means same bytes
        distinct, inverse = np.unique(omega_rf[:period], return_inverse=True)
        drive = drive_for(op, system, omega_rf=distinct)
        chi = susceptibility(steady_state_numeric(system, drive).rho21, system, drive.omega_p)
        p1, phase = probe_output(op.p0, chi, system)
        n = len(omega_rf)
        inverse = np.tile(inverse, -(-n // period))[:n]  # sample k reads k mod period
        return p1[inverse], phase[inverse]
    raise ValueError(f"unknown rho_solver {rho_solver!r}")


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

    The RF input is the coherent sum of the local oscillator and the user
    tone; their beat, ``user.f_delta``, is what survives detection.
    Reproducible bit-for-bit for a fixed seed; the noise generator is
    counter-based so chunked evaluation would commute.

    Raises Saturation if the deterministic photocurrent (total over both
    detectors for the balanced scheme, matching the optimizer's saturation
    constraint) exceeds chain.i_sat. Warns WeakLO below 10 dB LO-to-user
    field ratio.
    """
    f_delta = user.f_delta
    _check_beat(f_delta, sample_rate)
    if sample_rate < MIN_SAMPLES_PER_BEAT * abs(f_delta):
        raise ValueError(f"sample_rate must be at least {MIN_SAMPLES_PER_BEAT:g}x "
                         "the beat frequency")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
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

    # Per-sample steps run in place (ufunc out= or augmented assignment) in
    # the operand order of the plain expression, so every value is the
    # expression's bit for bit; dropping each intermediate once used keeps
    # at most six n-sample arrays alive, the five outputs among them, beside
    # the cached cos(beta). That is fetched first: built on a miss before
    # the call's own arrays, it sits below them in the heap, which can then
    # shrink back once they are freed.
    cos_b = _beat_cos(n, sample_rate, f_delta, user.theta_x)
    t = np.arange(n, dtype=float)
    t /= sample_rate

    # exact chain: instantaneous envelope -> per-sample atomic response
    omega_rf = np.multiply(cos_b, 2.0 * u_lo * u_x)
    omega_rf += u_lo**2
    omega_rf += u_x**2
    np.sqrt(omega_rf, out=omega_rf)  # the envelope |U_z|
    omega_rf *= system.mu34
    omega_rf /= hbar
    spp = sample_rate / abs(f_delta)  # the envelope's period where whole and below n
    period = int(spp) if spp.is_integer() and spp < n else n
    p1_t, phase_t = _exact_transmission(omega_rf, op, system, rho_solver, period)
    del omega_rf
    i_exact = _detector_current(p1_t, phase_t, op, chain)

    # linearized chain around the LO-only level; e_g: d ln p_g^2 / d ln p1
    small = SmallSignal(op, system)
    p1_lo = small.p1
    (_, _, p_cn_lo), _, (e_g, _, _) = scheme_powers(op, p1_lo)
    i_dc = _detector_current(p1_lo, 0.0, op, chain)
    i_approx = np.multiply(cos_b, e_g * small.kappa * u_x)
    np.subtract(1.0, i_approx, out=i_approx)
    i_approx *= i_dc

    i_env = dc_shot_power(op, p1_t)  # p1_t itself for the direct scheme
    del p1_t, phase_t
    i_env *= chain.alpha  # shot-noise current
    i_max = np.max(i_env)
    if i_max > chain.i_sat:
        raise Saturation(f"photocurrent {i_max:.3e} A exceeds i_sat {chain.i_sat:.3e} A")

    g_eff = effective_gain(op, chain)
    sigma_xi = math.sqrt(chain.sigma_sq_sn * sample_rate / (2.0 * chain.bw))
    rng = np.random.Generator(np.random.Philox(key=seed))
    xi = rng.normal(0.0, sigma_xi, n)
    if op.scheme == "BCOD":  # the second detector's noise, drawn after the first
        xi -= rng.normal(0.0, sigma_xi, n)
        xi /= math.sqrt(2.0)

    cn = xi * math.sqrt(g_eff * (chain.alpha * p_cn_lo))
    sn = i_env
    sn *= g_eff
    np.sqrt(sn, out=sn)
    sn *= xi
    sn -= cn

    sqrt_g = math.sqrt(g_eff)
    for i in (i_exact, i_approx):  # the voltages sqrt_g * i + cn + sn
        i *= sqrt_g
        i += cn
        i += sn
    return Waveform(
        t=t,
        v_exact=i_exact,
        v_approx=i_approx,
        sn=sn,
        cn=cn,
        v_dc=sqrt_g * float(i_dc),
        f_delta=f_delta,
        sample_rate=sample_rate,
    )


def down_convert(v: np.ndarray, v_dc: float) -> np.ndarray:
    """Subtract the modeled DC pedestal, flipping the beat upright.

    The transmitted probe shrinks when the user field adds to the LO, so
    the beat rides below the pedestal; v_dc - v restores the user phase.
    """
    return v_dc - np.asarray(v, dtype=float)


# --------------------------------------------------------------------------
# demodulation


def _check_beat(f_delta: float, sample_rate: float) -> None:
    """Reject a beat or sample rate the receive chain cannot use."""
    if f_delta == 0.0:
        raise ValueError("user carrier coincides with the LO; no beat to detect")
    if not math.isfinite(f_delta):
        raise ValueError(f"beat frequency must be finite, got {f_delta!r}")
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate!r}")


def _numtaps(f_delta: float, sample_rate: float) -> int:
    """Low-pass FIR length: scales with the number of samples per beat
    period so that short series at the minimum sample rate can still
    settle; odd for a type I linear-phase filter."""
    spp = sample_rate / abs(f_delta)
    return int(min(511, max(65, round(8.0 * spp)))) | 1


@lru_cache(maxsize=8, typed=True)
def _lowpass_taps(f_delta: float, sample_rate: float) -> np.ndarray:
    """Linear-phase FIR matching a 6th-order Butterworth magnitude, cutoff
    at half the beat frequency; cached and read-only.

    Frequency sampling as scipy's firwin2 does it for a type I filter, and
    equal to its taps bit for bit: the gain, interpolated on a power-of-two
    mesh and delayed by (numtaps - 1)/2 samples, goes through an inverse
    real FFT, and the first numtaps points are Hamming-windowed.
    """
    numtaps = _numtaps(f_delta, sample_rate)
    nyq = 0.5 * sample_rate
    cutoff = abs(f_delta) / 2.0
    freqs = np.linspace(0.0, nyq, 1024)
    gains = 1.0 / np.sqrt(1.0 + (freqs / cutoff) ** 12)
    x = np.linspace(0.0, nyq, 1 + 2 ** math.ceil(math.log2(numtaps)))
    shift = np.exp(-(numtaps - 1) / 2.0 * 1j * math.pi * x / nyq)
    taps = np.fft.irfft(np.interp(x, freqs, gains) * shift)[:numtaps]
    # the window summed as scipy's general_cosine sums it; np.hamming and
    # the literal 0.46 round differently
    fac = np.linspace(-math.pi, math.pi, numtaps)
    window = np.zeros(numtaps)
    for k, a in enumerate((0.54, 1.0 - 0.54)):
        window += a * np.cos(k * fac)
    taps = taps * window  # a copy, so the cache keeps no irfft buffer alive
    taps.flags.writeable = False
    return taps


# The beat phasors and the taps depend only on (n, sample rate, beat, phase
# offset), which repeat on every call of a sweep, so the most recent few are
# kept between calls; typed keys keep a float32 beat apart from an equal
# float64 one. Every caller shares them, so they are read-only. With user
# phase 0, the simulator's cos(beta) is the demodulator's cosine: x + 0.0
# differs from x only at -0.0, whose cosine is the same 1.0.


@lru_cache(maxsize=2, typed=True)
def _beat_cos(n: int, sample_rate: float, f_delta: float, offset: float) -> np.ndarray:
    """cos(2 pi f_delta t + offset) at t = arange(n) / sample_rate."""
    x = np.arange(n, dtype=float)
    x /= sample_rate
    x *= 2.0 * math.pi * f_delta
    x += offset
    np.cos(x, out=x)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=2, typed=True)
def _beat_negsin(n: int, sample_rate: float, f_delta: float) -> np.ndarray:
    """-sin(2 pi f_delta t) at t = arange(n) / sample_rate."""
    x = np.arange(n, dtype=float)
    x /= sample_rate
    x *= 2.0 * math.pi * f_delta
    np.sin(x, out=x)
    np.negative(x, out=x)
    x.flags.writeable = False
    return x


def settling_samples(f_delta: float, sample_rate: float) -> int:
    """Samples to discard before the demodulated series is trustworthy:
    the FIR group delay plus four beat periods."""
    _check_beat(f_delta, sample_rate)
    numtaps = _numtaps(f_delta, sample_rate)
    return (numtaps - 1) // 2 + int(math.ceil(4.0 * sample_rate / abs(f_delta)))


def demodulate_iq(
    v_samples: np.ndarray, f_delta: float, sample_rate: float
) -> np.ndarray:
    """Quadrature demodulation at the beat frequency.

    Multiplies by cos and -sin at f_delta, low-pass filters each branch at
    f_delta/2 (a causal FIR, so the output is as long as the input), and
    combines as (I + jQ)/sqrt(2), so a unit-amplitude cosine beat maps to
    G0/(2 sqrt(2)), G0 = sum(taps) the FIR's DC gain (0.999657 at 16
    samples per beat, 0.999647 at 32), not 1.
    """
    _check_beat(f_delta, sample_rate)
    v = _series(v_samples, "v_samples", float)
    if abs(f_delta) >= sample_rate / 4.0:
        raise ValueError("f_delta must be below sample_rate/4")
    n = len(v)
    if n < 8.0 * sample_rate / abs(f_delta):
        raise InsufficientLength(
            f"{n} samples is under 8 beat periods at f_delta={f_delta:g} Hz"
        )
    # the cached arrays first, below this call's own in the heap
    taps = _lowpass_taps(f_delta, sample_rate)
    cos_ph = _beat_cos(n, sample_rate, f_delta, 0.0)
    negsin_ph = _beat_negsin(n, sample_rate, f_delta)
    # each branch is mixed in one buffer and filtered straight into its part
    # of z; numpy divides complex by real as a multiplication by the
    # reciprocal, so this equals (i + 1j q) / sqrt(2) bit for bit
    scale = 1.0 / math.sqrt(2.0)
    z = np.empty(n, dtype=complex)
    mixed = np.multiply(cos_ph, v)
    np.multiply(np.convolve(taps, mixed)[:n], scale, out=z.real)
    np.multiply(negsin_ph, v, out=mixed)
    np.multiply(np.convolve(taps, mixed)[:n], scale, out=z.imag)
    return z


def baseband_estimate(
    z: np.ndarray, f_delta: float, sample_rate: float
) -> complex:
    """Mean of the settled demodulated series over whole beat periods.

    Averaging over an integer period count cancels the residual mixing
    ripple at f_delta and 2 f_delta that the gentle FIR lets through.
    """
    settle = settling_samples(f_delta, sample_rate)
    z = _series(z, "z", None)
    spp = sample_rate / abs(f_delta)
    periods = int((len(z) - settle) / spp)
    if periods < 1:
        raise InsufficientLength("no whole beat period after filter settling")
    end = settle + int(round(periods * spp))
    return complex(np.mean(z[settle:end]))


def _series(samples, name: str, dtype) -> np.ndarray:
    """The samples as a one-dimensional array, or ValueError."""
    x = np.asarray(samples, dtype=dtype)
    if x.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {x.shape}")
    return x

