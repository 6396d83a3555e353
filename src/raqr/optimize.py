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

from scipy.constants import c, epsilon_0, hbar, k as k_boltzmann

from .frontend import (
    AtomicSystem,
    DetectionChain,
    NoiseBudget,
    OperatingPoint,
    dlnkappa,
    dlnp1,
    kappa_of_point,
    p1_of_lo,
    absorption_strength,
    rabi_coefficients,
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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_chain(cls, chain: DetectionChain, system: AtomicSystem) -> "NoiseWeights":
        """Weights that make the functional reproduce the four
        band-integrated noise terms per unit demodulated signal power (see
        tests for the term-by-term identity)."""
        varsig = chain.sigma_sq_sn
        sig_shot = varsig / chain.alpha
        dc_shot = varsig / (2.0 * chain.z0 * chain.alpha)
        thermal = k_boltzmann * chain.temperature * chain.bw / (
            2.0 * chain.z0 * chain.alpha**2
        )
        projection = (
            2.0
            * c
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

    def __float__(self):
        return self.power


@dataclass(frozen=True)
class DesignResult:
    power: float
    regime: str
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
    W = w_sn p_sn^2/p_g^2 + (w_cn p_cn + w_tn) / (p_g^2 kappa^2) + w_qpn."""
    kappa = kappa_of_point(op, system)
    if kappa == 0.0 and (weights.dc_shot + weights.thermal) > 0.0:
        raise DivergentNoise("transduction slope is zero; DC-shot and thermal "
                             "terms are unbounded")
    (pg_sq, _, pcn), (num, den), _ = scheme_powers(op, p1_of_lo(op, system))
    if pg_sq == 0.0:
        # probe fully absorbed (or no local beam): infinitely noisy, not an
        # error, so grids and line searches can step through opaque regions
        if (weights.sig_shot + weights.dc_shot + weights.thermal) > 0.0:
            return math.inf
        return weights.projection
    w = weights.sig_shot * (num / den) + weights.projection
    if kappa > 0.0:
        w += (weights.dc_shot * pcn + weights.thermal) / (pg_sq * kappa**2)
    return w


# --------------------------------------------------------------------------
# closed-form stationary points


def _power_invariants(op, system):
    # sat = 2 s + gamma2^2: the LO-drive derivative of the transmission
    # denominator, the saturation scale every stationary formula shares
    a12, a23, a34 = rabi_coefficients(op, system)
    s = a12 * op.p0
    u = a23 * op.pc
    ell = a34 * op.p_lo
    strength = absorption_strength(system)
    sat = 2.0 * s + system.gamma2**2
    return a12, a23, a34, s, u, ell, strength, sat


def _fixed_point(op, system, candidate_of_gamma, update):
    """Iterate the load factor e_g - e_cn (1 direct, pl / (pl + p1)
    balanced) to self-consistency: it depends on the transmitted probe power
    at the optimum being solved for, so the closed form is refined until the
    relative change is < 1e-8, or MaxIterations after 50 passes.
    """
    def load(o):
        return -scheme_powers(o, p1_of_lo(o, system))[2][2]

    gamma = load(op)
    for _ in range(50):
        result = candidate_of_gamma(gamma)
        if result.clamped:
            return result
        gamma_new = load(update(op, result.power))
        if abs(gamma_new - gamma) <= 1e-8 * gamma:
            return candidate_of_gamma(gamma_new)
        gamma = gamma_new
    raise MaxIterations(
        f"load factor not self-consistent after 50 passes; last {gamma:.6e}")


def optimal_pc_cn(op: OperatingPoint, system: AtomicSystem) -> StationaryPower:
    """Coupling power that minimizes the DC-shot term.

    Exact for the direct scheme; for the balanced scheme the load factor
    is refined to self-consistency and the formula is accurate in the
    strong-local-beam regime.
    """
    _, a23, _, s, _, ell, strength, sat = _power_invariants(op, system)

    def candidate(gamma):
        w_star = ell * (gamma * strength
                        + math.hypot(gamma * strength, 4.0 * sat)) / (8.0 * s)
        pc = (w_star - s) / a23
        return StationaryPower(max(pc, 0.0), clamped=pc <= 0.0)

    return _fixed_point(op, system, candidate, lambda o, v: with_powers(o, pc=v))


def optimal_plo_cn(op: OperatingPoint, system: AtomicSystem) -> StationaryPower:
    """LO power that minimizes the DC-shot term.

    The discriminant exceeds the square of (gamma * strength + 2 * sat) by
    exactly 12 sat^2, so the stationary point is always interior-positive.
    """
    _, _, a34, s, u, _, strength, sat = _power_invariants(op, system)
    w = u + s

    def candidate(gamma):
        disc = ((gamma * strength) ** 2 + 4.0 * gamma * strength * sat
                + 16.0 * sat**2)
        ell_star = (
            2.0 * s * w * (math.sqrt(disc) - gamma * strength - 2.0 * sat)
            / (6.0 * sat**2)
        )
        return StationaryPower(ell_star / a34, clamped=False)

    return _fixed_point(op, system, candidate, lambda o, v: with_powers(o, p_lo=v))


def optimal_pc_tn(op: OperatingPoint, system: AtomicSystem) -> StationaryPower:
    """Coupling power that minimizes the thermal term (maximizes the
    demodulated signal). The balanced scheme routes to the DC-shot
    formula."""
    if op.scheme == "BCOD":
        return optimal_pc_cn(op, system)
    _, a23, _, s, _, ell, strength, sat = _power_invariants(op, system)
    w_star = ell * (strength + math.hypot(strength, 2.0 * sat)) / (4.0 * s)
    pc = (w_star - s) / a23
    return StationaryPower(max(pc, 0.0), clamped=pc <= 0.0)


def optimal_plo_tn(op: OperatingPoint, system: AtomicSystem) -> StationaryPower:
    """LO power that minimizes the thermal term; balanced scheme routes to
    the DC-shot formula."""
    if op.scheme == "BCOD":
        return optimal_plo_cn(op, system)
    _, _, a34, s, u, _, strength, sat = _power_invariants(op, system)
    w = u + s
    root = math.sqrt((strength + sat) ** 2 + 3.0 * sat**2) - strength - sat
    ell_star = 2.0 * s * w * root / (3.0 * sat**2)
    return StationaryPower(ell_star / a34, clamped=False)


def optimal_pl(chain: DetectionChain, p1_at_lo: float, pl_max: float) -> float:
    """Local-beam power at the detector saturation or box edge.

    The functional is strictly decreasing in the local beam power, so the
    optimum sits at the largest admissible value.
    """
    headroom = chain.i_sat / chain.alpha - p1_at_lo
    if headroom <= 0.0:
        raise SaturatedAtZero(
            f"transmitted probe {p1_at_lo:.3e} W already saturates the detector"
        )
    return min(pl_max, headroom)


# --------------------------------------------------------------------------
# probe power by Newton on the analytic derivative


def _dw_dp0(op, weights, system):
    """Analytic derivative of the noise functional in p0: the log-slope of
    each ratio p_sn^2/p_g^2, p_cn/(p_g^2 kappa^2), 1/(p_g^2 kappa^2) is its
    p1-elasticity times d ln p1/d p0, less 2 d ln kappa/d p0 where kappa
    enters."""
    kappa = kappa_of_point(op, system)
    if kappa == 0.0:
        raise DivergentNoise("transduction slope is zero at p_lo = 0")
    powers, (num, den), (e_g, de_sn, de_cn) = scheme_powers(op, p1_of_lo(op, system))
    pg_sq, _, pcn = powers
    gk_sq = pg_sq * kappa**2
    _, _, l1 = dlnp1(op, system)
    _, _, lk = dlnkappa(op, system)
    return (weights.sig_shot * (num / den) * (de_sn * l1)
            + weights.dc_shot * (pcn / gk_sq) * (de_cn * l1 - 2.0 * lk)
            + weights.thermal * (1.0 / gk_sq) * (-e_g * l1 - 2.0 * lk))


def _penalty_slope(penalty, p0):
    h = 1e-6 * p0
    return (penalty(p0 + h) - penalty(p0 - h)) / (2.0 * h)


def newton_optimal_p0(
    op: OperatingPoint,
    weights: NoiseWeights,
    system: AtomicSystem,
    chain: DetectionChain,
    *,
    p0_bounds: tuple[float, float] = (1e-6, 1e-1),
    penalty=None,
    max_iter: int = 100,
) -> DesignResult:
    """Probe power minimizing the noise functional inside the bracket.

    Newton iterates on the analytic derivative (curvature by central
    differences); if it stalls, bisection on the derivative's sign change
    takes over. When the derivative has no sign change in the bracket the
    better endpoint is returned with the boundary flag set.
    """
    lo, hi = p0_bounds
    if not 0.0 < lo < hi:
        raise ValueError("p0_bounds must satisfy 0 < lo < hi")
    for end in (lo, hi):
        if p1_of_lo(with_powers(op, p0=end), system) == 0.0:
            raise ValueError(
                f"probe fully absorbed at bracket end p0={end:g} W; "
                "supply a bracket where the cell transmits"
            )

    def slope(p0):
        g = _dw_dp0(with_powers(op, p0=p0), weights, system)
        if penalty is not None:
            g += _penalty_slope(penalty, p0)
        return g

    def value(p0):
        w = normalized_noise(with_powers(op, p0=p0), weights, system)
        if penalty is not None:
            w += penalty(p0)
        return w

    def finish(p0, iterations, boundary):
        w = value(p0)
        res = abs(slope(p0))
        budget_point = with_powers(op, p0=p0)
        regime = classify_at(budget_point, chain, system)
        return DesignResult(
            power=p0,
            regime=regime,
            w_value=w,
            iterations=iterations,
            residual=res,
            boundary=boundary,
        )

    g_lo, g_hi = slope(lo), slope(hi)
    if g_lo == 0.0:
        return finish(lo, 0, False)
    if g_hi == 0.0:
        return finish(hi, 0, False)
    if g_lo * g_hi > 0.0:
        best = lo if value(lo) <= value(hi) else hi
        return finish(best, 0, True)

    a, b, ga = lo, hi, g_lo
    p = math.sqrt(lo * hi)
    for it in range(1, max_iter + 1):
        g = slope(p)
        tol = 1e-10 * value(p) / p
        if abs(g) <= tol:
            return finish(p, it, False)
        # keep a valid sign-change bracket for the fallback
        if g * ga > 0.0:
            a = p
        else:
            b = p
        h = 1e-5 * p
        curv = (slope(p + h) - slope(p - h)) / (2.0 * h)
        step = g / curv if curv != 0.0 else 0.0
        p_new = p - step
        if not (a < p_new < b) or step == 0.0:
            p_new = 0.5 * (a + b)  # bisection fallback
        p = p_new
    g = slope(p)
    if abs(g) <= 1e-8 * value(p) / p:
        return finish(p, max_iter, False)
    raise MaxIterations(f"no convergence in {max_iter} iterations; |dW/dp0|={g:.3e}")


# --------------------------------------------------------------------------
# regime classification and reporting


_REGIME_TERMS = ("user-signal-dependent", "dc-shot", "thermal")


def classify_regime(budget: NoiseBudget, sn_term: float) -> str:
    """Dominant noise mechanism, or "mixed" when the top two are within
    3 dB of each other."""
    terms = dict(zip(_REGIME_TERMS, (sn_term, budget.n_cn, budget.n_tn)))
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
    from .frontend import baseband_gains, noise_budget, sn_reference_term

    gains = baseband_gains(op, chain, system)
    budget = noise_budget(op, chain, system, gains=gains)
    return classify_regime(budget, sn_reference_term(gains, chain))


def design_report(
    op: OperatingPoint,
    chain: DetectionChain,
    system: AtomicSystem,
    *,
    pl_max: float = math.inf,
    p0_bounds: tuple[float, float] = (1e-6, 1e-1),
) -> dict:
    """JSON-ready summary: per-regime optima, classification, and a
    noise-functional sensitivity table under +-10% power perturbations."""
    weights = NoiseWeights.from_chain(chain, system)
    lo, hi = p0_bounds
    # shrink the bracket past any fully-absorbed region at its low end
    for cand in [lo * (hi / lo) ** (i / 24.0) for i in range(25)]:
        if p1_of_lo(with_powers(op, p0=cand), system) > 0.0:
            p0_bounds = (cand, hi)
            break
    else:
        raise ValueError("probe fully absorbed across the whole p0 bracket")

    def as_entry(sp: StationaryPower):
        return {"power_w": sp.power, "clamped": sp.clamped}

    optima = {
        "pc_dc_shot": as_entry(optimal_pc_cn(op, system)),
        "plo_dc_shot": as_entry(optimal_plo_cn(op, system)),
        "pc_thermal": as_entry(optimal_pc_tn(op, system)),
        "plo_thermal": as_entry(optimal_plo_tn(op, system)),
    }
    if op.scheme == "BCOD":
        optima["pl"] = {
            "power_w": optimal_pl(chain, p1_of_lo(op, system), pl_max),
            "clamped": False,
        }
    newton = newton_optimal_p0(op, weights, system, chain, p0_bounds=p0_bounds)
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
