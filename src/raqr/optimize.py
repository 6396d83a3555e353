"""Operating-point design: normalized noise functional and per-regime optima.

The figure of merit is the total noise referred to unit demodulated signal
power: four mechanism terms (signal-dependent shot, DC shot, thermal,
atom-projection), each weighted by a NoiseWeights coefficient and divided
by the squared demodulation gain, with the field-independent mechanisms
also divided by the squared transduction slope. The scheme-dependent
optical powers and their elasticities come from frontend.scheme_powers.
Each single-mechanism term admits a closed-form stationary point in the
coupling power and in the LO power; the probe power is solved by Newton on
the analytic derivative. Grid oracles in the test suite validate every
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import Boltzmann, epsilon_0, hbar, speed_of_light
from .frontend import (
    AtomicSystem,
    DetectionChain,
    MissingLocalBeam,
    NoiseBudget,
    OperatingPoint,
    SmallSignal,
    demod_phase,
    noise_budget,
    p1_of_lo,
    scheme_powers,
    with_powers,
)


class DivergentNoise(Exception):
    """The DC-shot or thermal term diverges because the transduction slope
    is zero (no LO drive)."""


class SaturatedAtZero(Exception):
    """Detector already saturated by the transmitted probe alone; no local
    beam power is admissible."""


class MaxIterations(Exception):
    """Newton with its bisection fallback, or the load-factor fixed point,
    did not converge."""


class OpaqueGrid(Exception):
    """The normalized noise is infinite at every point of a swept power grid
    (the cell is opaque throughout), so no closed-form optimum can be held
    against the grid."""


@dataclass(frozen=True)
class NoiseWeights:
    """Per-mechanism coefficients of the normalized noise functional:
    signal-dependent shot, DC shot, thermal, atom projection. All
    nonnegative."""

    sig_shot: float
    dc_shot: float
    thermal: float
    projection: float

    def __post_init__(self):
        for name in ("sig_shot", "dc_shot", "thermal", "projection"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_chain(cls, chain: DetectionChain, system: AtomicSystem) -> "NoiseWeights":
        """Weights that make the functional reproduce the four
        band-integrated noise terms per unit demodulated signal power (see
        tests for the term-by-term identity)."""
        varsig = chain.sigma_sq_sn
        sig_shot = varsig / chain.alpha
        dc_shot = varsig / (2.0 * chain.z0 * chain.alpha)
        thermal = Boltzmann * chain.temperature * chain.bw / (
            2.0 * chain.z0 * chain.alpha**2
        )
        projection = (
            2.0
            * speed_of_light
            * epsilon_0
            * chain.bw
            * hbar**2
            / (system.n_atoms * system.t2 * system.mu34**2)
        )
        return cls(sig_shot, dc_shot, thermal, projection)


@dataclass(frozen=True)
class StationaryPower:
    """A closed-form stationary point, clamped to zero when the formula
    lands outside the physical domain (boundary solution)."""

    power: float
    clamped: bool = False

    def __post_init__(self):
        if not self.power >= 0:
            raise ValueError(f"stationary power {self.power} must be >= 0")

    def __float__(self):
        return self.power


@dataclass(frozen=True)
class DesignResult:
    power: float
    w_value: float
    iterations: int
    residual: float
    boundary: bool = False


# --------------------------------------------------------------------------
# the functional


def normalized_noise(
    op: OperatingPoint, weights: NoiseWeights, system: AtomicSystem
) -> float:
    """Evaluate the noise functional at an operating point:
    W = (w_sn p_sn^2/p_g^2 + (w_cn p_cn + w_tn) / (p_g^2 kappa^2)) / |Phi|^2
    + w_qpn, with |Phi|^2 = cos^2(``demod_phase(op)``) as in the gain table."""
    return _noise_of(SmallSignal(op, system), weights)


def _noise_of(small: SmallSignal, weights: NoiseWeights) -> float:
    """``normalized_noise`` at the point of an evaluation."""
    op, kappa = small.op, small.kappa
    if kappa == 0.0 and (weights.dc_shot + weights.thermal) > 0.0:
        raise DivergentNoise("transduction slope is zero; DC-shot and thermal "
                             "terms are unbounded")
    (pg_sq, _, pcn), (num, den), _ = scheme_powers(op, small.p1)
    if pg_sq == 0.0:
        # probe fully absorbed (or no local beam): infinitely noisy, not an
        # error, so grids and line searches can step through opaque regions
        if (weights.sig_shot + weights.dc_shot + weights.thermal) > 0.0:
            return math.inf
        return weights.projection
    phi_sq = math.cos(demod_phase(op)) ** 2
    w = weights.sig_shot * (num / den) / phi_sq + weights.projection
    if kappa > 0.0:
        w += (weights.dc_shot * pcn + weights.thermal) / (pg_sq * kappa**2 * phi_sq)
    return w


# --------------------------------------------------------------------------
# closed-form stationary points


def _fixed_point(op, system, candidate_of_gamma, update):
    """Iterate the load factor e_g - e_cn (1 direct, pl / (pl + p1)
    balanced) to self-consistency: it depends on the transmitted probe power
    at the optimum being solved for, so the closed form is refined until the
    relative change is < 1e-8. The iteration runs while each pass shrinks
    the change; once one does not (it can fall into a 2-cycle), or after 50
    passes, bisection finds a root of map(g) - g to |map(g) - g| <= 1e-8 g
    on [0, 1], which brackets it because the load factor lies in [0, 1].
    MaxIterations after 100 bisection steps.
    """
    def load(o):
        return -scheme_powers(o, p1_of_lo(o, system))[2][2]

    gamma, change = load(op), math.inf
    for _ in range(50):
        result = candidate_of_gamma(gamma)
        if result.clamped:
            return result
        gamma_new = load(update(op, result.power))
        if abs(gamma_new - gamma) <= 1e-8 * gamma:
            return candidate_of_gamma(gamma_new)
        if abs(gamma_new - gamma) >= change:
            break
        gamma, change = gamma_new, abs(gamma_new - gamma)
    lo, hi = 0.0, 1.0  # map(lo) - lo >= 0 >= map(hi) - hi
    for _ in range(100):
        gamma = 0.5 * (lo + hi)
        excess = load(update(op, candidate_of_gamma(gamma).power)) - gamma
        if abs(excess) <= 1e-8 * gamma:
            return candidate_of_gamma(gamma)
        lo, hi = (gamma, hi) if excess > 0.0 else (lo, gamma)
    raise MaxIterations(
        f"load factor not self-consistent after 100 bisection steps; last {gamma:.6e}")


def _pc_stationary(terms, system, gamma):
    """Coupling power stationary for a term c(p1) / kappa^2 whose power
    factor c has p1-elasticity -gamma: e_g - e_cn for the DC-shot term,
    e_g for the thermal term. sat = 2 s + gamma2^2, the LO-drive derivative
    of the drive denominator, is the saturation scale both formulas share."""
    _, a23, _, s, _, ell, strength, _ = terms
    sat = 2.0 * s + system.gamma2**2
    w_star = ell * (gamma * strength
                    + math.hypot(gamma * strength, 4.0 * sat)) / (8.0 * s)
    pc = (w_star - s) / a23
    return StationaryPower(max(pc, 0.0), clamped=pc <= 0.0)


def _plo_stationary(terms, system, gamma):
    """LO power stationary for the same family of terms. The discriminant
    exceeds the square of (gamma * strength + 2 * sat) by exactly 12 sat^2,
    so the stationary point is always interior-positive."""
    _, _, a34, s, u, _, strength, _ = terms
    sat = 2.0 * s + system.gamma2**2
    disc = (gamma * strength) ** 2 + 4.0 * gamma * strength * sat + 16.0 * sat**2
    ell_star = (
        2.0 * s * (u + s) * (math.sqrt(disc) - gamma * strength - 2.0 * sat)
        / (6.0 * sat**2)
    )
    return StationaryPower(ell_star / a34, clamped=False)


def optimal_power(op: OperatingPoint, system: AtomicSystem, power: str,
                  regime: str) -> StationaryPower:
    """The ``power`` ("pc" or "p_lo", the ``with_powers`` field) that
    minimizes the ``regime`` term ("dc_shot" or "thermal", the
    ``NoiseWeights`` field); any other name raises ValueError.

    The DC-shot formula runs at the load factor e_g - e_cn that
    ``_fixed_point`` refines: exact for the direct scheme, and accurate in
    the strong-local-beam regime for the balanced one, which also routes its
    thermal term to this DC-shot optimum. The direct thermal term,
    1/(p_g^2 kappa^2), has p1-elasticity -e_g, so the same formula applies
    at load factor e_g. A balanced point needs pl > 0, as in the gain table.
    """
    if power not in ("pc", "p_lo"):
        raise ValueError(f"power must be 'pc' or 'p_lo', not {power!r}")
    if regime not in ("dc_shot", "thermal"):
        raise ValueError(f"regime must be 'dc_shot' or 'thermal', not {regime!r}")
    if op.scheme == "BCOD" and op.pl <= 0.0:
        raise MissingLocalBeam("balanced detection requires pl > 0")
    stationary = _pc_stationary if power == "pc" else _plo_stationary
    small = SmallSignal(op, system)
    if regime == "thermal" and op.scheme == "DIOD":
        return stationary(small.terms, system, scheme_powers(op, small.p1)[2][0])
    return _fixed_point(op, system, lambda g: stationary(small.terms, system, g),
                        lambda o, v: with_powers(o, **{power: v}))


def optimal_pl(chain: DetectionChain, p1_at_lo: float) -> float:
    """Local-beam power at detector saturation: headroom i_sat / alpha - P1.

    The functional is strictly decreasing in the local beam power, so the
    optimum sits at the largest admissible value.
    """
    headroom = chain.i_sat / chain.alpha - p1_at_lo
    if headroom <= 0.0:
        raise SaturatedAtZero(
            f"transmitted probe {p1_at_lo:.3e} W already saturates the detector"
        )
    return headroom


# --------------------------------------------------------------------------
# probe power by Newton on the analytic derivative


def _dw_dp0(small: SmallSignal, weights: NoiseWeights) -> float:
    """Analytic derivative of the noise functional in p0: the log-slope of
    each ratio p_sn^2/p_g^2, p_cn/(p_g^2 kappa^2), 1/(p_g^2 kappa^2) is its
    p1-elasticity times d ln p1/d p0, less 2 d ln kappa/d p0 where kappa
    enters. The demodulation phase does not depend on p0, so |Phi|^2 scales
    the three terms as it scales W."""
    op, kappa = small.op, small.kappa
    if kappa == 0.0:
        raise DivergentNoise("transduction slope is zero at p_lo = 0")
    powers, (num, den), (e_g, de_sn, de_cn) = scheme_powers(op, small.p1)
    pg_sq, _, pcn = powers
    phi_sq = math.cos(demod_phase(op)) ** 2
    gk_sq = pg_sq * kappa**2 * phi_sq
    l1, lk = small.dlnp1_dp0, small.dlnkappa_dp0
    return (weights.sig_shot * (num / den / phi_sq) * (de_sn * l1)
            + weights.dc_shot * (pcn / gk_sq) * (de_cn * l1 - 2.0 * lk)
            + weights.thermal * (1.0 / gk_sq) * (-e_g * l1 - 2.0 * lk))


def newton_optimal_p0(
    op: OperatingPoint,
    weights: NoiseWeights,
    system: AtomicSystem,
    *,
    p0_bounds: tuple[float, float] = (1e-6, 1e-1),
) -> DesignResult:
    """Probe power minimizing the noise functional inside the bracket.

    The low end first moves up to the first of 25 log-spaced candidates
    where the cell transmits; P1 grows with p0, so an absorbed top end means
    an absorbed bracket (ValueError). Newton then iterates on the analytic
    derivative (curvature by central differences), reading W and dW/dp0 from
    one evaluation per probe power; if it stalls, bisection on the
    derivative's sign change takes over. When the derivative has no sign
    change in the bracket the better endpoint is returned with the boundary
    flag set.
    """
    max_iter = 100  # Newton steps before the final acceptance check
    lo, hi = p0_bounds
    if not 0.0 < lo < hi:
        raise ValueError("p0_bounds must satisfy 0 < lo < hi")

    def at(p0):
        return SmallSignal(with_powers(op, p0=p0), system)

    def finish(small, iterations, boundary):
        return DesignResult(
            power=small.op.p0,
            w_value=_noise_of(small, weights),
            residual=abs(_dw_dp0(small, weights)),
            iterations=iterations,
            boundary=boundary,
        )

    for cand in [lo * (hi / lo) ** (i / 24.0) for i in range(25)]:
        low = at(cand)
        if low.p1 > 0.0:
            lo = cand
            break
    else:
        raise ValueError("probe fully absorbed across the whole p0 bracket")
    high = at(hi)
    g_lo, g_hi = _dw_dp0(low, weights), _dw_dp0(high, weights)
    if g_lo == 0.0:
        return finish(low, 0, False)
    if g_hi == 0.0:
        return finish(high, 0, False)
    if g_lo * g_hi > 0.0:
        best = low if _noise_of(low, weights) <= _noise_of(high, weights) else high
        return finish(best, 0, True)

    a, b, ga = lo, hi, g_lo
    p = math.sqrt(lo * hi)
    for it in range(1, max_iter + 1):
        small = at(p)
        g = _dw_dp0(small, weights)
        tol = 1e-10 * _noise_of(small, weights) / p
        if abs(g) <= tol:
            return finish(small, it, False)
        # keep a valid sign-change bracket for the fallback
        if g * ga > 0.0:
            a = p
        else:
            b = p
        h = 1e-5 * p
        curv = (_dw_dp0(at(p + h), weights) - _dw_dp0(at(p - h), weights)) / (2.0 * h)
        step = g / curv if curv != 0.0 else 0.0
        p_new = p - step
        if not (a < p_new < b) or step == 0.0:
            p_new = 0.5 * (a + b)  # bisection fallback
        p = p_new
    small = at(p)
    g = _dw_dp0(small, weights)
    if abs(g) <= 1e-8 * _noise_of(small, weights) / p:
        return finish(small, max_iter, False)
    raise MaxIterations(f"no convergence in {max_iter} iterations; |dW/dp0|={g:.3e}")


# --------------------------------------------------------------------------
# regime classification and reporting


_REGIME_TERMS = ("user-signal-dependent", "dc-shot", "thermal")


def classify_regime(budget: NoiseBudget) -> str:
    """Dominant noise mechanism among the budget's ``n_sn``, ``n_cn`` and
    ``n_tn``, or "mixed" when the top two are within 3 dB of each other."""
    terms = dict(zip(_REGIME_TERMS, (budget.n_sn, budget.n_cn, budget.n_tn)))
    if any(v < 0.0 for v in terms.values()):
        raise ValueError("noise terms must be nonnegative")
    ranked = sorted(terms.items(), key=lambda kv: kv[1], reverse=True)
    (top_name, top), (_, second) = ranked[0], ranked[1]
    if top == 0.0:
        return "mixed"
    if second > 0.0 and 10.0 * math.log10(top / second) < 3.0:
        return "mixed"
    return top_name


def classify_at(op: OperatingPoint, chain: DetectionChain, system: AtomicSystem) -> str:
    """Classification helper at an operating point."""
    return classify_regime(noise_budget(op, chain, system))


def design_report(
    op: OperatingPoint,
    chain: DetectionChain,
    system: AtomicSystem,
    *,
    p0_bounds: tuple[float, float] = (1e-6, 1e-1),
) -> dict:
    """JSON-ready summary: per-regime optima, classification, and a
    noise-functional sensitivity table under +-10% power perturbations.

    ``optima`` holds the four ``optimal_power`` pairs as ``pc_dc_shot``,
    ``plo_dc_shot``, ``pc_thermal`` and ``plo_thermal``, in that order (at a
    balanced point the thermal entries are the DC-shot optima), then the
    local-beam power at a balanced point, ``optimal_pl``, and Newton's p0."""
    weights = NoiseWeights.from_chain(chain, system)
    optima = {}
    for regime in ("dc_shot", "thermal"):
        for power in ("pc", "p_lo"):
            star = optimal_power(op, system, power, regime)
            optima[f"{power.replace('_', '')}_{regime}"] = {
                "power_w": star.power, "clamped": star.clamped}
    if op.scheme == "BCOD":
        optima["pl"] = {
            "power_w": optimal_pl(chain, p1_of_lo(op, system)),
            "clamped": False,
        }
    newton = newton_optimal_p0(op, weights, system, p0_bounds=p0_bounds)
    optima["p0_newton"] = {
        "power_w": newton.power,
        "w_value": newton.w_value,
        "iterations": newton.iterations,
        "residual": newton.residual,
        "boundary": newton.boundary,
    }

    sens_params = ["p0", "pc", "p_lo"] + (["pl"] if op.scheme == "BCOD" else [])
    sensitivity = {}
    for name in sens_params:
        base = getattr(op, name)
        sensitivity[name] = {
            "minus_10pct": normalized_noise(
                with_powers(op, **{name: 0.9 * base}), weights, system
            ),
            "plus_10pct": normalized_noise(
                with_powers(op, **{name: 1.1 * base}), weights, system
            ),
        }

    return {
        "scheme": op.scheme,
        "operating_point": {
            "p0": op.p0,
            "pc": op.pc,
            "p_lo": op.p_lo,
            "pl": op.pl,
        },
        "regime": classify_at(op, chain, system),
        "normalized_noise": normalized_noise(op, weights, system),
        "weights": {
            "sig_shot": weights.sig_shot,
            "dc_shot": weights.dc_shot,
            "thermal": weights.thermal,
            "projection": weights.projection,
        },
        "optima": optima,
        "sensitivity": sensitivity,
    }
