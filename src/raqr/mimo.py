"""Multi-sensor array extension of the single-cell receiver.

Equivalent complex-baseband model for an array of identical vapor-cell
sensors sharing one free-space LO: per-sensor reception gain ``rho``,
user-signal-dependent shot noise entering through a per-sensor random
diagonal, and an AWGN term that absorbs the DC-shot, thermal, and
projection noise. A known unit-modulus LO phase per sensor is absorbed
into the channel and leaves its law unchanged, so the channel is combined
as drawn. On top of the model sit MRC/ZF detection, closed-form rate lower
bounds, Monte-Carlo validation of every bound term, an RF-array baseline,
and the operating-point crossover threshold against that baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontend import BasebandGains, DetectionChain, NoiseBudget, with_powers
from .optimize import NoiseWeights, normalized_noise

__all__ = [
    "DimensionError",
    "RankDeficient",
    "NoCrossing",
    "MimoScenario",
    "BoundResult",
    "RateResult",
    "large_scale_fading",
    "closed_form_moments",
    "sinr_lb",
    "asymptotic_rate",
    "rf_gains",
    "crossover_threshold",
    "monte_carlo_terms",
    "monte_carlo_rate",
    "monte_carlo_rates",
    "bound_violation_alarm",
]

# realizations per RNG substream; chunk c of a run with seed s draws from
# Philox keyed [s, c], so results are identical however chunks are scheduled
CHUNK = 256
# draws a chunk combines at a time; only the channel is held for the whole
# chunk, and no output depends on this length
_SUB = 32
# fewest realizations a Monte-Carlo run accepts; config validation reads it
MIN_REALIZATIONS = 100


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
    user.
    """

    n_sensors: int
    n_users: int
    beta: np.ndarray = 1.0
    p: np.ndarray = 1.0
    seed: int = 0
    n_realizations: int = 10_000

    def __post_init__(self):
        if not (self.n_sensors >= 1 and self.n_users >= 1):
            raise ValueError("need at least one sensor and one user")
        # Philox keys [seed, chunk] go through float64 from 2**63 on
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must be >= 0 and < 2**63")
        beta = np.broadcast_to(
            np.asarray(self.beta, dtype=float), (self.n_users,)
        ).copy()
        p = np.broadcast_to(np.asarray(self.p, dtype=float), (self.n_users,)).copy()
        if not np.all(beta >= 0):
            raise ValueError("large-scale fading must be nonnegative")
        if not np.all(p >= 0):
            raise ValueError("transmit powers must be nonnegative")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p)


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


def _draw(rng, scenario, h, scratch):
    """Unit-variance draws for ``len(h)`` realizations in the one fixed
    order: channel (n, M, K; variance beta per user), written into ``h``,
    then symbols s (n, K), shot diagonal b (n, M) and AWGN w (n, M).

    The real and then imaginary draws of each complex part pass through the
    contiguous float scratch array (L, M, K) in consecutive pieces (L
    channel, L·M symbol or L·K noise draws); consecutive fills continue one
    stream, so L changes no value."""
    n, m, k = h.shape

    def fill(x, scale):
        rows = scratch.size // math.prod(x.shape[1:])
        for block in (x.real, x.imag):
            for i in range(0, n, rows):
                piece = block[i:i + rows]
                buf = scratch.reshape(-1)[:piece.size].reshape(piece.shape)
                np.multiply(rng.standard_normal(out=buf), scale, out=piece)
        return x

    # each part is scaled in the copy out of the scratch, as a complex-by-real
    # product scales it; s and w by the reciprocal, as numpy divides by real
    fill(h, np.sqrt(scenario.beta / 2.0))
    s = fill(np.empty((n, k), complex), 1.0 / math.sqrt(2.0))
    b = rng.standard_normal((n, m))
    w = fill(np.empty((n, m), complex), 1.0 / math.sqrt(2.0))
    return h, s, b, w


def _project(a, method, cols, out):
    """The one combining kernel on a channel ``a`` (..., M, K):
    ``(cᴴa, cᴴ·cols)`` for one column block (..., M, n), with combiners
    c = a (MRC) or a·G⁻¹ (ZF), G = aᴴa. The ZF coupling is the identity by
    construction, so ZF leakage and interference are exactly 0.

    ``out`` holds the arrays written into: ``"conj"`` (a's shape), ``"gram"``
    (..., K, K), and ``"z"`` and ``"zf"`` (..., K, n) for aᴴ·cols and for the
    ZF product G⁻¹aᴴ·cols."""
    a_h = np.conjugate(a, out=out["conj"]).swapaxes(-1, -2)
    gram = np.matmul(a_h, a, out=out["gram"])
    z = np.matmul(a_h, cols, out=out["z"])
    if method == "MRC":
        return gram, z
    if method != "ZF":
        raise ValueError(f"unknown detection method {method!r}")
    g_inv = _zf_inverse(gram, a.shape[-2])
    return (np.broadcast_to(np.eye(gram.shape[-1]), gram.shape),
            np.matmul(g_inv, z, out=out["zf"]))


def _zf_inverse(gram, n_sensors):
    """Inverse of one Gram matrix or a stack of them, under the one ZF rank
    policy: more sensors than users, 1-norm condition number at most 1e12."""
    if n_sensors <= gram.shape[-1]:
        raise DimensionError("zero-forcing needs more sensors than users")
    try:
        g_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise RankDeficient("channel Gram matrix is numerically singular") from None
    # the 1-norm condition number from the one inverse, as cond(gram, 1)
    # computes it; NaN fails the comparison
    cond = (np.linalg.norm(gram, 1, axis=(-2, -1))
            * np.linalg.norm(g_inv, 1, axis=(-2, -1)))
    if not np.all(cond <= 1e12):
        raise RankDeficient("channel Gram matrix is numerically singular")
    return g_inv


def _abs_sq(x):
    return (x * x.conj()).real


def _expectations(scenario, method):
    """Gain-free statistics of the engine's accumulators per draw, per user:
    mean self-coupling and its variance, then the interference, shot and
    AWGN energies (the standard MRC/ZF forms; Marzetta, Larsson, Yang, Ngo,
    *Fundamentals of Massive MIMO*, 2016, ch. 3-4)."""
    m, k = scenario.n_sensors, scenario.n_users
    beta, pb = scenario.beta, scenario.p * scenario.beta
    if method == "MRC":
        # the self-coupling |h_k|^2 is beta_k times a Gamma(M, 1) variate
        return np.array([m * beta, m * beta**2, m * beta * (pb.sum() - pb),
                         m * beta * (pb.sum() + pb), m * beta])
    if method != "ZF":
        raise ValueError(f"unknown detection method {method!r}")
    if m <= k:
        raise DimensionError("zero-forcing needs more sensors than users")
    if np.any(beta == 0.0):
        raise RankDeficient("a user with zero fading makes the Gram matrix singular")
    # the coupling is the identity; E[(G^-1)_kk] = 1 / ((M - K) beta_k)
    zeros = np.zeros(k)
    sn = scenario.p / m + (pb.sum() / beta) * (m - 1) / (m * (m - k))
    return np.array([zeros + 1.0, zeros, zeros, sn, 1.0 / ((m - k) * beta)])


def closed_form_moments(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    method: str,
) -> dict:
    """Ensemble second moments of the five detection terms, per user: the
    accumulator expectations as one draw through the engine's own scaling."""
    expected = _expectations(scenario, method)
    factors = _scale(method, gains, budget)
    return _terms_from_stats(scenario, gains, factors * expected)


def sinr_lb(
    scenario: MimoScenario,
    gains: BasebandGains,
    budget: NoiseBudget,
    method: str,
) -> BoundResult:
    """Closed-form rate lower bound for MRC or ZF combining: the SINR of the
    closed-form term moments, which the Monte-Carlo engine reproduces. The
    RF-array baseline is this bound on the ``rf_gains`` table.
    bound_violation_alarm() reports when a claimed bound exceeds the sampled
    rate."""
    terms = closed_form_moments(scenario, gains, budget, method)
    return BoundResult(*_rate_from_terms(terms)[:2])


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
    reception = gains.rho * abs(gains.phi) ** 2
    if reception <= 0:
        raise ValueError("reception gain rho*|phi|^2 must be positive")
    floor = 4.0 * budget.n_sum / reception
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    return math.log2(1.0 + 4.0 * energy * beta_k / floor)


def rf_gains(sigma_rf_sq: float) -> tuple[BasebandGains, NoiseBudget]:
    """Unit-gain transparent front end with a thermal-style AWGN floor: the
    conventional-array baseline expressed in the same interfaces."""
    gains = BasebandGains(rho=1.0, rho_sn=0.0, phi=1.0, p_cn_bar=0.0)
    budget = NoiseBudget(n_cn=0.0, n_tn=2.0 * sigma_rf_sq, n_qpn=0.0, sn_coeff=0.0)
    return gains, budget


def crossover_threshold(
    op,
    chain: DetectionChain,
    system,
    sigma_rf_sq: float,
    sweep: str = "p_lo",
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


def _workspace(scenario, n):
    """One worker's arrays for chunks of up to ``n`` draws. The channel
    (n, M, K) is the one array a chunk holds whole. The rest serve one
    sub-batch of L = min(n, ``_SUB``) draws: the float scratch that the
    channel's draws pass through and the channel's conjugate, both
    (L, M, K), then the Gram matrices and the combining products of the
    shot and AWGN columns."""
    m, k = scenario.n_sensors, scenario.n_users
    sub = min(n, _SUB)
    return {
        "h": np.empty((n, m, k), complex),
        "x": np.empty((sub, m, k)),
        "conj": np.empty((sub, m, k), complex),
        "gram": np.empty((sub, k, k), complex),
        "z": np.empty((sub, k, 2), complex),
        "zf": np.empty((sub, k, 2), complex),
    }


def _chunk_stats(scenario, method, chunk_index, n, workspace):
    """Gain-free term accumulators over one Philox substream. ``_draw`` fills
    the chunk's channel (a prefix of the workspace's for a short chunk)
    through the sub-batch scratch; ``_project`` and the per-draw statistics
    then run one sub-batch at a time in the workspace's sub-batch arrays and
    write (n, K) per-draw arrays, summed over the chunk. ``_scale`` supplies
    the front-end gains and noise variances."""
    rng = np.random.Generator(np.random.Philox(key=[scenario.seed, chunk_index]))
    h, s, b, w = _draw(rng, scenario, workspace["h"][:n], workspace["x"])
    ps = (np.sqrt(scenario.p) * s)[..., None]
    # per draw: the self-coupling, then its energy and the interference, shot
    # and AWGN energies; ZF's coupling is the real identity, and summing it
    # as complex would move the ZF terms by an ulp
    diag = np.empty((n, scenario.n_users), complex if method == "MRC" else float)
    energy = np.empty((4,) + diag.shape)
    step = len(workspace["x"])
    for i in range(0, n, step):
        j = slice(i, i + step)
        a = h[j]
        ws = {key: workspace[key][:len(a)] for key in ("conj", "gram", "z", "zf")}
        # shot and AWGN columns side by side, combined in one product
        cols = np.stack([b[j] * (a @ ps[j])[..., 0], w[j]], axis=-1)
        t, z = _project(a, method, cols, ws)
        t_diag = diag[j] = np.diagonal(t, axis1=-2, axis2=-1)
        ui = (t @ ps[j])[..., 0] - t_diag * ps[j][..., 0]
        energy[:, j] = _abs_sq(np.stack([t_diag, ui, z[..., 0], z[..., 1]]))
    return np.vstack([diag.sum(axis=0), energy.sum(axis=1)]), n


def _scale(method, gains, budget):
    """Per-statistic factors that turn gain-free statistics into a gain
    table's: c for the mean self-coupling (phi for MRC, 1/phi for ZF), |c|^2
    for its variance, then the interference, shot and AWGN factors.
    Callers check ``method`` through ``_expectations`` first."""
    if method == "ZF" and gains.phi == 0:
        raise RankDeficient("zero-forcing at phi = 0: the effective channel is zero")
    c = gains.phi if method == "MRC" else 1.0 / gains.phi
    c2 = abs(c) ** 2
    signal = gains.rho * c2**2 if method == "MRC" else 0.0
    factors = [c, c2, signal, budget.sn_coeff * c2, budget.n_sum * c2]
    return np.array(factors, dtype=complex)[:, None]


def _run_chunks(scenario, method, threads):
    """Chunk results in chunk order. Worker j of T runs chunks j, j + T, ...
    through one workspace of its own, a chunk's channel plus one sub-batch's
    arrays, so no chunk allocates its large arrays and the schedule cannot
    change a result."""
    n = scenario.n_realizations
    if n < MIN_REALIZATIONS:
        raise ValueError(f"need at least {MIN_REALIZATIONS} realizations")
    sizes = [min(CHUNK, n - start) for start in range(0, n, CHUNK)]
    workers = max(1, min(threads or 1, len(sizes)))

    def work(j):
        workspace = _workspace(scenario, sizes[0])
        return [_chunk_stats(scenario, method, c, sizes[c], workspace)
                for c in range(j, len(sizes), workers)]

    if workers == 1:
        return work(0)
    from concurrent.futures import ThreadPoolExecutor  # not at import: cold start
    results = [None] * len(sizes)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for j, part in enumerate(pool.map(work, range(workers))):
            results[j::workers] = part
    return results


def _terms_from_stats(scenario, gains, scaled):
    """Five term moments from gain-free statistics times ``_scale``."""
    rho_p_phi2 = gains.rho * scenario.p * abs(gains.phi) ** 2
    return {
        "ds": rho_p_phi2 * _abs_sq(scaled[0]),
        "ls": rho_p_phi2 * scaled[1].real,
        "ui": scaled[2].real,
        "sn": scaled[3].real,
        "n": scaled[4].real,
    }


def _rate_from_terms(terms):
    """(SINR, rate, any capped) of the five term moments, sampled or closed
    form: no desired signal is SINR 0, and a positive signal over a zero
    denominator is inf (capped)."""
    num, den = terms["ds"], terms["ls"] + terms["ui"] + terms["sn"] + terms["n"]
    capped = (num > 0.0) & (den == 0.0)
    ratio = num / np.where(den > 0.0, den, 1.0)
    sinr = np.where(num > 0.0, np.where(capped, np.inf, ratio), 0.0)
    return sinr, np.log2(1.0 + sinr), bool(np.any(capped))


def monte_carlo_rates(
    scenario: MimoScenario,
    tables: list[tuple[BasebandGains, NoiseBudget]],
    method: str,
    threads: int | None = None,
) -> list[RateResult]:
    """One ``RateResult`` per ``(gains, budget)`` table from a single set of
    draws: the term moments are homogeneous in the gain table, so each table
    rescales the same gain-free statistics, and its bound is ``sinr_lb``.
    Entry i is identical to ``monte_carlo_rate(scenario, *tables[i], method)``."""
    expected = _expectations(scenario, method)  # a bad method or shape raises first
    results = _run_chunks(scenario, method, threads)
    sums = np.stack([r[0] for r in results], axis=1)  # (5, chunks, users)
    counts = np.array([[r[1]] for r in results])
    count = int(counts.sum())
    stats, per_chunk = sums.sum(axis=1) / count, sums / counts
    for means in (stats, per_chunk):
        # second moment to variance: a coupling without spread (ZF) gives 0
        means[1] = np.maximum(means[1].real - _abs_sq(means[0]), 0.0)
    out = []
    for gains, budget in tables:
        factors = _scale(method, gains, budget)
        terms = _terms_from_stats(scenario, gains, factors * stats)
        sinr, rate, capped = _rate_from_terms(terms)
        se = np.zeros(scenario.n_users)
        if len(counts) >= 2 and not capped:
            # batch means: the rate of each chunk on its own
            batch = _rate_from_terms(_terms_from_stats(
                scenario, gains, factors[:, None] * per_chunk))[1]
            with np.errstate(invalid="ignore"):
                se = batch.std(axis=0, ddof=1) / math.sqrt(len(counts))
            se[np.isinf(batch).any(axis=0)] = np.inf
        # sinr_lb's closed-form moments, from the statistics already at hand
        bound = _rate_from_terms(
            _terms_from_stats(scenario, gains, factors * expected))[1]
        out.append(RateResult(
            sinr=sinr, rate=rate, bound=bound, n_samples=count,
            standard_error=se, capped=capped, terms=terms,
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


def bound_violation_alarm(result: RateResult) -> bool:
    """True when the closed-form lower bound sits above the sampled rate by
    more than three standard errors for any user."""
    return bool(np.any(result.rate + 3.0 * result.standard_error < result.bound))
