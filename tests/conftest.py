import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raqr
from raqr import defaults


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
    import math

    def d(t):
        return (f(x * math.exp(t)) - f(x * math.exp(-t))) / (2.0 * t)

    return (4.0 * d(tau / 2.0) - d(tau)) / (3.0 * x)
