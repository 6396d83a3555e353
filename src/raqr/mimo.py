"""Multi-sensor array extension of the single-cell receiver.

Equivalent complex-baseband model for an array of identical vapor-cell
sensors sharing one free-space LO: per-sensor reception gain ``rho``, a
diagonal LO phase progression across the array, user-signal-dependent shot
noise entering through a per-sensor random diagonal, and an AWGN term that
absorbs the DC-shot, thermal, and projection noise. On top of the model sit
MRC/ZF detection, closed-form rate lower bounds, Monte-Carlo validation of
every bound term, an RF-array baseline, and the operating-point crossover
threshold against that baseline.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .frontend import BasebandGains, DetectionChain, NoiseBudget, with_powers
from .optimize import NoiseWeights, normalized_noise

__all__ = [
    "DimensionError",
    "RankDeficient",
    "NoCrossing",
    "MimoScenario",
    "ReceivedSignal",
    "DetectionResult",
    "BoundResult",
    "RateResult",
    "large_scale_fading",
    "lo_phase_progression",
    "gen_channel",
    "build_received",
    "combiner",
    "detect",
    "closed_form_moments",
    "sinr_lb_mrc",
    "sinr_lb_zf",
    "asymptotic_rate",
    "rf_gains",
    "rf_baseline",
    "crossover_threshold",
    "monte_carlo_terms",
    "monte_carlo_rate",
    "monte_carlo_rates",
    "bound_violation_alarm",
]

# realizations per RNG substream; chunk c of a run with seed s draws from
# Philox keyed [s, c], so results are identical however chunks are scheduled
CHUNK = 256


class DimensionError(Exception):
    """Inversion-based detection needs more sensors than users."""


class RankDeficient(Exception):
    """Channel Gram matrix is numerically singular."""


class NoCrossing(Exception):
    """Noise-floor comparison has the same sign across the whole sweep."""


@dataclass(frozen=True, kw_only=True)
class MimoScenario:
    """Array geometry, user powers, and Monte-Carlo bookkeeping.

    ``beta`` and ``p`` accept scalars and are broadcast to one entry per
    user. ``spacing`` defaults to half the LO wavelength.
    """

    n_sensors: int
    n_users: int
    lambda_lo: float
    spacing: float | None = None
    theta_arrival: float = 0.0
    beta: np.ndarray = 1.0
    p: np.ndarray = 1.0
    seed: int = 0
    n_realizations: int = 10_000

    def __post_init__(self):
        if self.n_sensors < 1 or self.n_users < 1:
            raise ValueError("need at least one sensor and one user")
        if self.lambda_lo <= 0:
            raise ValueError("lambda_lo must be positive")
        beta = np.broadcast_to(
            np.asarray(self.beta, dtype=float), (self.n_users,)
        ).copy()
        p = np.broadcast_to(np.asarray(self.p, dtype=float), (self.n_users,)).copy()
        if np.any(beta < 0):
            raise ValueError("large-scale fading must be nonnegative")
        if np.any(p < 0):
            raise ValueError("transmit powers must be nonnegative")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p)
        if self.spacing is None:
            object.__setattr__(self, "spacing", 0.5 * self.lambda_lo)


@dataclass(frozen=True)
class ReceivedSignal:
    """One array snapshot with its three addends kept separate."""

    y: np.ndarray
    signal: np.ndarray
    shot: np.ndarray
    noise: np.ndarray
    symbols: np.ndarray


@dataclass(frozen=True)
class DetectionResult:
    """Per-user decision statistics and their five-way split.

    ``r == ds + ls + ui + sn + n`` exactly; the desired-signal part uses the
    ensemble-mean combining coefficient, so ``ls`` carries the realization's
    deviation from channel hardening.
    """

    r: np.ndarray
    ds: np.ndarray
    ls: np.ndarray
    ui: np.ndarray
    sn: np.ndarray
    n: np.ndarray
    method: str


@dataclass(frozen=True)
class BoundResult:
    sinr: np.ndarray
    rate: np.ndarray


@dataclass(frozen=True)
class RateResult:
    """Monte-Carlo rate with its closed-form lower bound.

    ``capped`` flags users whose positive desired signal meets an exactly
    zero denominator (noiseless inversion): SINR, rate (and, for a capped
    chunk, the standard error) are inf there; no desired signal gives 0.
    ``terms`` holds the five sampled term moments the rate is built from.
    """

    sinr: np.ndarray
    rate: np.ndarray
    bound: np.ndarray
    n_samples: int
    standard_error: np.ndarray
    capped: bool
    method: str
    terms: dict


def large_scale_fading(distance_m: float, carrier_freq_hz: float) -> float:
    """Distance/frequency path loss as a linear power factor."""
    if distance_m <= 0 or carrier_freq_hz <= 0:
        raise ValueError("distance and carrier frequency must be positive")
    loss_db = (
        -32.4
        - 20.0 * math.log10(distance_m)
        - 20.0 * math.log10(carrier_freq_hz / 1e9)
    )
    return 10.0 ** (loss_db / 10.0)


def lo_phase_progression(scenario: MimoScenario) -> np.ndarray:
    """Unit-modulus per-sensor phases of the obliquely arriving LO."""
    m = np.arange(scenario.n_sensors)
    phase = (
        2.0 * math.pi * scenario.spacing / scenario.lambda_lo
        * math.sin(scenario.theta_arrival)
    )
    return np.exp(-1j * phase * m)


def gen_channel(scenario: MimoScenario, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Rayleigh columns, per-user variance beta_k per sensor."""
    shape = (scenario.n_sensors, scenario.n_users)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(scenario.beta / 2.0)


def build_received(
    h: np.ndarray,
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    s: np.ndarray,
    rng: np.random.Generator,
) -> ReceivedSignal:
    """Assemble one array snapshot for unit-variance symbols ``s``."""
    d = lo_phase_progression(scenario)
    v = d * (h @ (np.sqrt(scenario.p) * s))
    signal = math.sqrt(gains.rho) * gains.phi * v
    b = rng.standard_normal(scenario.n_sensors) * math.sqrt(budget.sigma_sq_sn)
    shot = math.sqrt(gains.rho_sn) * gains.phi_sn * (b * v)
    wn = rng.standard_normal((2, scenario.n_sensors))
    noise = (wn[0] + 1j * wn[1]) * math.sqrt(budget.n_sum / 2.0)
    return ReceivedSignal(
        y=signal + shot + noise,
        signal=signal,
        shot=shot,
        noise=noise,
        symbols=np.asarray(s, dtype=complex),
    )


def combiner(
    h: np.ndarray, scenario: MimoScenario, gains: BasebandGains, method: str
) -> np.ndarray:
    """Per-user combining vectors as columns; MRC matches the phased
    channel, ZF inverts it."""
    d = lo_phase_progression(scenario)
    a = gains.phi * d[:, None] * h
    if method == "MRC":
        return a
    if method != "ZF":
        raise ValueError(f"unknown detection method {method!r}")
    return a @ _zf_inverse(a.conj().T @ a, scenario.n_sensors)


def _zf_inverse(gram, n_sensors):
    """Inverse of one Gram matrix or a stack of them, under the one ZF rank
    policy: more sensors than users, 1-norm condition number at most 1e12."""
    if n_sensors <= gram.shape[-1]:
        raise DimensionError("zero-forcing needs more sensors than users")
    # cond() reports an exactly singular matrix as inf
    if not np.all(np.linalg.cond(gram, 1) <= 1e12):
        raise RankDeficient("channel Gram matrix is numerically singular")
    return np.linalg.inv(gram)


def detect(
    received: ReceivedSignal | np.ndarray,
    h: np.ndarray,
    scenario: MimoScenario,
    gains: BasebandGains,
    method: str,
) -> DetectionResult:
    """Apply a combiner; with a full snapshot, also split the statistic.

    A bare received vector yields only ``r`` (the component fields are
    None): the split needs the snapshot's separately stored addends.
    """
    c = combiner(h, scenario, gains, method)
    d = lo_phase_progression(scenario)
    if isinstance(received, np.ndarray):
        return DetectionResult(
            r=c.conj().T @ received,
            ds=None, ls=None, ui=None, sn=None, n=None,
            method=method,
        )

    s = received.symbols
    amp = np.sqrt(gains.rho * scenario.p)
    t = c.conj().T @ (d[:, None] * h)  # (K, K) cross-coupling after combining
    if method == "MRC":
        # hardening mean of the self-coupling entry
        t_mean = np.conj(gains.phi) * scenario.n_sensors * scenario.beta
    else:
        t_mean = np.full(scenario.n_users, 1.0 / gains.phi)
    ds = amp * gains.phi * t_mean * s
    ls = amp * gains.phi * np.diagonal(t) * s - ds
    # off-diagonal leakage only; the diagonal entry is ds + ls
    ui = gains.phi * (t @ (amp * s)) - gains.phi * np.diagonal(t) * amp * s
    sn = c.conj().T @ received.shot
    n = c.conj().T @ received.noise
    return DetectionResult(
        r=c.conj().T @ received.y, ds=ds, ls=ls, ui=ui, sn=sn, n=n, method=method
    )


def _abs_sq(x):
    return (x * x.conj()).real


def closed_form_moments(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    method: str,
) -> dict:
    """Ensemble second moments of the five detection terms, per user."""
    m = scenario.n_sensors
    k = scenario.n_users
    beta, p = scenario.beta, scenario.p
    rho, rho_sn = gains.rho, gains.rho_sn
    phi2 = abs(gains.phi) ** 2
    phi_sn2 = abs(gains.phi_sn) ** 2
    var = budget.sigma_sq_sn
    sigma2 = budget.n_sum
    pb = p * beta
    if method == "MRC":
        return {
            "ds": m**2 * rho * p * phi2**2 * beta**2,
            "ls": m * rho * p * phi2**2 * beta**2,
            "ui": m * rho * phi2**2 * beta * (pb.sum() - pb),
            "sn": m * var * rho_sn * phi2 * phi_sn2 * beta * (pb.sum() + pb),
            "n": m * phi2 * beta * sigma2,
        }
    if method != "ZF":
        raise ValueError(f"unknown detection method {method!r}")
    if m <= k:
        raise DimensionError("zero-forcing needs more sensors than users")
    cross = (pb.sum() / beta) * (m - 1) / (m * (m - k))
    return {
        "ds": rho * p,
        "ls": np.zeros(k),
        "ui": np.zeros(k),
        "sn": rho_sn * (phi_sn2 / phi2) * var * (p / m + cross),
        "n": np.full(k, sigma2) / ((m - k) * phi2 * beta),
    }


def _sinr(num, den):
    """(num / den, any capped): no desired signal is SINR 0, and a positive
    signal over a zero denominator is inf (capped)."""
    capped = (num > 0.0) & (den == 0.0)
    ratio = num / np.where(den > 0.0, den, 1.0)
    sinr = np.where(num > 0.0, np.where(capped, np.inf, ratio), 0.0)
    return sinr, bool(np.any(capped))


def sinr_lb_mrc(
    scenario: MimoScenario, gains: BasebandGains, budget: NoiseBudget
) -> BoundResult:
    """Closed-form rate lower bound for matched combining; exact assembly
    of the term moments."""
    pb = scenario.p * scenario.beta
    phi2 = abs(gains.phi) ** 2
    phi_sn2 = abs(gains.phi_sn) ** 2
    shot = budget.sigma_sq_sn * gains.rho_sn * phi_sn2
    num = scenario.n_sensors * gains.rho * phi2 * pb
    den = pb.sum() * (gains.rho * phi2 + shot) + shot * pb + budget.n_sum
    sinr, _ = _sinr(num, den)
    return BoundResult(sinr=sinr, rate=np.log2(1.0 + sinr))


def sinr_lb_zf(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    form: str = "printed",
) -> BoundResult:
    """Closed-form rate lower bound for zero-forcing.

    ``form="printed"`` keeps the published numerator scale; the term-moment
    assembly ("moment") evaluates to exactly a quarter of it, and the
    Monte-Carlo machinery reproduces the moment assembly. Both are exposed;
    bound_violation_alarm() reports when a claimed bound exceeds the
    sampled rate.
    """
    m, k = scenario.n_sensors, scenario.n_users
    if m <= k:
        raise DimensionError("zero-forcing needs more sensors than users")
    if form not in ("printed", "moment"):
        raise ValueError(f"unknown bound form {form!r}")
    pb = scenario.p * scenario.beta
    phi2 = abs(gains.phi) ** 2
    phi_sn2 = abs(gains.phi_sn) ** 2
    shot = budget.sigma_sq_sn * gains.rho_sn * phi_sn2 / m
    num = 4.0 * (m - k) * gains.rho * phi2 * pb
    den = shot * (pb * (m - k) + pb.sum() * (m - 1)) + budget.n_sum
    sinr, _ = _sinr(num, den)
    if form == "moment":
        sinr = sinr / 4.0
    return BoundResult(sinr=sinr, rate=np.log2(1.0 + sinr))


def asymptotic_rate(
    gains: BasebandGains,
    budget: NoiseBudget,
    beta_k: float,
    energy: float = 1.0,
) -> float:
    """Rate retained when per-user power is scaled down as 1/(sensor count).

    Only the user-signal-independent noise floor survives the limit; the
    floor equals four times the AWGN variance over the reception gain.
    """
    floor = 4.0 * budget.n_sum / (gains.rho * abs(gains.phi) ** 2)
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    return math.log2(1.0 + 4.0 * energy * beta_k / floor)


def rf_gains(sigma_rf_sq: float) -> tuple[BasebandGains, NoiseBudget]:
    """Unit-gain transparent front end with a thermal-style AWGN floor: the
    conventional-array baseline expressed in the same interfaces."""
    gains = BasebandGains(
        rho=1.0, rho_sn=0.0, phi=1.0 + 0.0j, phi_sn=1.0 + 0.0j,
        kappa=0.0, p_g=0.0, p_sn_bar_sq=0.0, p_cn_bar=0.0, varphi=0.0,
    )
    budget = NoiseBudget(
        n_cn=0.0, n_tn=2.0 * sigma_rf_sq, n_qpn=0.0,
        n_sum=sigma_rf_sq, sigma_sq_sn=0.0, sn_coeff=0.0,
    )
    return gains, budget


def rf_baseline(scenario: MimoScenario, sigma_rf_sq: float) -> dict:
    """Per-user bounds of the conventional array at the same geometry.

    The ZF entry uses the moment assembly (the standard inverse-Wishart
    result); the printed-scale variant exists only on the atomic side.
    """
    gains, budget = rf_gains(sigma_rf_sq)
    return {
        "mrc": sinr_lb_mrc(scenario, gains, budget),
        "zf": sinr_lb_zf(scenario, gains, budget, form="moment"),
    }


def crossover_threshold(
    op,
    chain: DetectionChain,
    system,
    sigma_rf_sq: float,
    sweep: str = "p_lo",
    bounds: tuple[float, float] | None = None,
) -> float:
    """Beam power where the user-signal-independent noise floor meets four
    times the baseline AWGN variance.

    The floor is U-shaped in both beam powers, so a sweep can cross twice;
    the returned root is the upward crossing (floor rising through the
    baseline: the degradation edge) when one exists, else the first
    crossing found. Bisection refines to 0.1% relative.
    """
    if sweep not in ("p_lo", "p0"):
        raise ValueError("sweep must be 'p_lo' or 'p0'")
    if bounds is None:
        bounds = (1e-9, 1e-3) if sweep == "p_lo" else (1e-4, 1e-1)
    wts = NoiseWeights.from_chain(chain, system)
    floor_wts = NoiseWeights(0.0, wts.dc_shot, wts.thermal, wts.projection)

    def excess(x):
        value = normalized_noise(
            with_powers(op, **{sweep: x}), floor_wts, system
        )
        return value - 4.0 * sigma_rf_sq

    grid = np.geomspace(bounds[0], bounds[1], 128)
    values = [excess(x) for x in grid]
    signs = np.array([math.copysign(1.0, v) if v != 0.0 else 0.0
                      for v in values])
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if flips.size == 0:
        raise NoCrossing("noise-floor excess has one sign across the sweep range")
    upward = [i for i in flips if signs[i] < 0 < signs[i + 1]]
    i = upward[-1] if upward else flips[0]
    a, b = grid[i], grid[i + 1]
    fa = values[i]
    while (b - a) > 1e-3 * 0.5 * (a + b):
        mid = math.sqrt(a * b)
        fm = excess(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


# --------------------------------------------------------------------------
# Monte-Carlo engine


def _chunk_stats(scenario, method, chunk_index, n):
    """Gain-free term accumulators over one substream: fixed draw order
    (channel, symbols, shot diagonal, AWGN), so the stream splits are
    reproducible. The shot diagonal and the AWGN are drawn at unit variance
    and the combiners carry no front-end gain; ``_scale`` supplies both."""
    rng = np.random.Generator(np.random.Philox(key=[scenario.seed, chunk_index]))
    m, k = scenario.n_sensors, scenario.n_users
    h_re = rng.standard_normal((n, m, k))
    h_im = rng.standard_normal((n, m, k))
    h = (h_re + 1j * h_im) * np.sqrt(scenario.beta / 2.0)
    s_re = rng.standard_normal((n, k))
    s_im = rng.standard_normal((n, k))
    s = (s_re + 1j * s_im) / math.sqrt(2.0)
    b = rng.standard_normal((n, m))
    w_re = rng.standard_normal((n, m))
    w_im = rng.standard_normal((n, m))
    w = (w_re + 1j * w_im) / math.sqrt(2.0)

    a = lo_phase_progression(scenario)[:, None] * h
    a_h = a.conj().swapaxes(1, 2)
    gram = a_h @ a
    ps = (np.sqrt(scenario.p) * s)[..., None]
    # shot and AWGN columns side by side, combined in one product
    z = a_h @ np.stack([b * (a @ ps)[..., 0], w], axis=-1)
    if method == "MRC":
        t_diag = np.diagonal(gram, axis1=1, axis2=2)
        ui = (gram @ ps)[..., 0] - t_diag * ps[..., 0]
    elif method == "ZF":
        z = _zf_inverse(gram, m) @ z
        t_diag, ui = np.ones((n, k)), np.zeros((n, k))
    else:
        raise ValueError(f"unknown detection method {method!r}")

    # mean accumulator; self-coupling, interference, shot and AWGN energies
    energy = _abs_sq(np.stack([t_diag, ui, z[..., 0], z[..., 1]])).sum(axis=1)
    return np.vstack([t_diag.sum(axis=0), energy]), n


def _scale(method, gains, budget):
    """Per-accumulator factors that turn gain-free sums into a gain table's."""
    phi2 = abs(gains.phi) ** 2
    shot = gains.rho_sn * abs(gains.phi_sn) ** 2 * budget.sigma_sq_sn
    if method == "MRC":
        factors = [np.conj(gains.phi), phi2, gains.rho * phi2**2,
                   shot * phi2, budget.n_sum * phi2]
    elif method == "ZF":
        factors = [1.0 / gains.phi, 1.0 / phi2, 0.0,
                   shot / phi2, budget.n_sum / phi2]
    else:
        raise ValueError(f"unknown detection method {method!r}")
    return np.array(factors, dtype=complex)[:, None]


def _run_chunks(scenario, method, threads):
    n = scenario.n_realizations
    if n < 100:
        raise ValueError("need at least 100 realizations")
    sizes = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]
    work = partial(_chunk_stats, scenario, method)
    if threads is None or threads <= 1:
        return list(map(work, range(len(sizes)), sizes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, range(len(sizes)), sizes))


def _terms_from_sums(scenario, gains, sums, count):
    """Five term moments from the accumulator block."""
    m1 = sums[0] / count
    rho_p_phi2 = gains.rho * scenario.p * abs(gains.phi) ** 2
    ds = rho_p_phi2 * _abs_sq(m1)
    ls = rho_p_phi2 * np.maximum(sums[1].real / count - _abs_sq(m1), 0.0)
    return {
        "ds": ds,
        "ls": ls,
        "ui": sums[2].real / count,
        "sn": sums[3].real / count,
        "n": sums[4].real / count,
    }


def _rate_from_terms(terms):
    den = terms["ls"] + terms["ui"] + terms["sn"] + terms["n"]
    sinr, capped = _sinr(terms["ds"], den)
    return sinr, np.log2(1.0 + sinr), capped


def monte_carlo_rates(
    scenario: MimoScenario,
    tables: list[tuple[BasebandGains, NoiseBudget]],
    method: str,
    threads: int | None = None,
) -> list[RateResult]:
    """One ``RateResult`` per ``(gains, budget)`` table from a single set of
    draws: the term moments are homogeneous in the gain table, so each table
    rescales the same gain-free sums. Entry i is identical to
    ``monte_carlo_rate(scenario, *tables[i], method)``."""
    results = _run_chunks(scenario, method, threads)
    sums = np.stack([r[0] for r in results], axis=1)  # (5, chunks, users)
    counts = np.array([[r[1]] for r in results])
    total, count = sums.sum(axis=1), int(counts.sum())
    out = []
    for gains, budget in tables:
        factors = _scale(method, gains, budget)
        terms = _terms_from_sums(scenario, gains, factors * total, count)
        sinr, rate, capped = _rate_from_terms(terms)
        se = np.zeros(scenario.n_users)
        if len(counts) >= 2 and not capped:
            # batch means: the rate of each chunk on its own
            batch = _rate_from_terms(_terms_from_sums(
                scenario, gains, factors[:, None] * sums, counts))[1]
            with np.errstate(invalid="ignore"):
                se = batch.std(axis=0, ddof=1) / math.sqrt(len(counts))
            se[np.isinf(batch).any(axis=0)] = np.inf
        bound = (sinr_lb_mrc(scenario, gains, budget) if method == "MRC"
                 else sinr_lb_zf(scenario, gains, budget, form="moment"))
        out.append(RateResult(
            sinr=sinr, rate=rate, bound=bound.rate, n_samples=count,
            standard_error=se, capped=capped, method=method, terms=terms,
        ))
    return out


def monte_carlo_terms(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    method: str,
    threads: int | None = None,
) -> dict:
    """Sample-averaged second moments of the five detection terms."""
    return monte_carlo_rates(scenario, [(gains, budget)], method, threads)[0].terms


def monte_carlo_rate(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    method: str,
    threads: int | None = None,
) -> RateResult:
    """Rate from sample-averaged term moments, with a batch-means standard
    error and the matching closed-form lower bound."""
    return monte_carlo_rates(scenario, [(gains, budget)], method, threads)[0]


def bound_violation_alarm(result: RateResult, bound_rate=None) -> bool:
    """True when a claimed lower bound sits above the sampled rate by more
    than three standard errors for any user."""
    bound = result.bound if bound_rate is None else np.asarray(bound_rate)
    return bool(np.any(result.rate + 3.0 * result.standard_error < bound))
