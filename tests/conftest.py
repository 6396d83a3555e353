import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import raqr
from raqr import defaults
from raqr.frontend import SmallSignal, p1_of_lo, scheme_powers
from raqr.waveform import effective_gain


@pytest.fixture(scope="session")
def system():
    return defaults.cesium_system()


@pytest.fixture(scope="session")
def chain():
    return defaults.default_chain()


@pytest.fixture(scope="session")
def diod():
    return defaults.diod_point()


@pytest.fixture(scope="session")
def bcod():
    return defaults.bcod_point()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this raqr."""
    src = str(Path(raqr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


def default_point(scheme: str = "DIOD", **overrides):
    """The shipped operating point of ``scheme``, with keyword overrides."""
    if scheme == "DIOD":
        return defaults.diod_point(**overrides)
    if scheme == "BCOD":
        return defaults.bcod_point(**overrides)
    raise ValueError(f"unknown scheme {scheme!r}")


# the whole design box (W): the default Newton bracket in p0, the crossover
# sweep range in p_lo, 0.1-100 mW of coupling and 1 uW-100 mW of local beam;
# the balanced scheme also draws its local-beam phase
_BOX = {"p0": (-6.0, -1.0), "pc": (-4.0, -1.0), "p_lo": (-9.0, -3.0),
        "pl": (-6.0, -1.0)}


@st.composite
def box_points(draw):
    """An operating point of either scheme drawn from the design box."""
    scheme = draw(st.sampled_from(["DIOD", "BCOD"]))
    names = ("p0", "pc", "p_lo") + (("pl",) if scheme == "BCOD" else ())
    knobs = {k: 10.0 ** draw(st.floats(*_BOX[k])) for k in names}
    if scheme == "BCOD":
        knobs["phi_l"] = draw(st.floats(-1.2, 1.2))
    return default_point(scheme, **knobs)


def component_sn_variance(op, chain, system, user):
    """Band-referred variance of the signal-dependent shot noise written out
    from its components, 0.5 sigma_sn^2 G_eff alpha p_sn^2 kappa^2 U_x^2,
    independent of ``NoiseBudget.sn_coeff``."""
    p_sn_sq = scheme_powers(op, p1_of_lo(op, system))[0][1]
    return (0.5 * chain.sigma_sq_sn * effective_gain(op, chain) * chain.alpha
            * p_sn_sq * SmallSignal(op, system).kappa ** 2 * user.u_x**2)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def log_slope(f, x, tau=0.03):
    """d f / d x by Richardson-extrapolated central differences in log space.

    Differencing f(x e^t) at t = +-tau and +-tau/2 keeps the step relative
    and cancels the O(tau^2) term, which matters because several of the
    closed-form log-derivatives under test have dimensionless slopes as
    small as 1e-7; a naive small absolute step drowns them in rounding.
    """
    def d(t):
        return (f(x * math.exp(t)) - f(x * math.exp(-t))) / (2.0 * t)

    return (4.0 * d(tau / 2.0) - d(tau)) / (3.0 * x)


def peak_bytes(call):
    """Peak of the memory ``call`` allocates, traced on a second call so
    that one-time set-up does not count."""
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
