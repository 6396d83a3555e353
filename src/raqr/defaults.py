"""Shipped default parameter set: cesium ladder 6S1/2 -> 6P3/2 -> 47D5/2 -> 48P3/2.

The numbers and their provenance live in the packaged
``configs/default.yaml``. This module builds that config once at import,
through the same merge, validation and SI conversion as any user file, and
hands out copies of its objects with keyword overrides.
"""

from __future__ import annotations

from dataclasses import replace

from .atomic import AtomicSystem
from .config import _from_raw
from .frontend import (  # drive_for is re-exported for callers of this module
    DetectionChain, OperatingPoint, UserSignal, drive_for, rf_field_amplitude,
)
from .mimo import MimoScenario, large_scale_fading

_SHIPPED = _from_raw({})

F_CARRIER = _SHIPPED.f_carrier            # user carrier frequency, Hz
F_DELTA = _SHIPPED.f_delta                # beat frequency inside the band, Hz
USER_DISTANCE = _SHIPPED.region_center_m  # base-station-to-user range, m


def cesium_system(**overrides) -> AtomicSystem:
    return replace(_SHIPPED.system, **overrides)


def default_chain(**overrides) -> DetectionChain:
    # None re-derives the shot-noise prefactor 2 q B from the chain's bandwidth
    return replace(_SHIPPED.chain, **{"sigma_sq_sn": None, **overrides})


def diod_point(**overrides) -> OperatingPoint:
    """Direct-detection default: deliberately past the kappa peak in P_LO,
    which lands the noise composition in the thermal-dominant regime while
    keeping the strong-LO linearization good to under 1% at a 20 dB
    LO-to-user ratio. It is the shipped point with the direct scheme and
    its own powers."""
    return replace(_SHIPPED.op, **{"scheme": "DIOD", "p0": 0.040, "p_lo": 1.5e-5,
                                   "pl": 0.0, **overrides})


def bcod_point(**overrides) -> OperatingPoint:
    """Balanced-detection default, the shipped operating point: P_LO at the
    kappa peak (a34 P_LO = a12 P0 / 3 for the default coupling), strong
    local beam. Signal-dependent shot noise dominates here."""
    return replace(_SHIPPED.op, **overrides)


def weak_user(ratio_db: float, op: OperatingPoint, *, theta_x: float = 0.0,
              f_delta: float = F_DELTA) -> UserSignal:
    """User signal ``ratio_db`` below the RF LO field amplitude."""
    u_lo = rf_field_amplitude(op.p_lo, op.a_e)
    return UserSignal(
        u_x=u_lo * 10.0 ** (-ratio_db / 20.0),
        f_c=op.f_lo + f_delta,
        theta_x=theta_x,
    )


def default_scenario(n_sensors: int, n_users: int = 10, **overrides):
    """Array scenario at the shipped carrier: half-wave spacing, all users
    at the nominal range with the shipped transmit power."""
    kwargs = dict(
        n_sensors=n_sensors,
        n_users=n_users,
        theta_arrival=0.0,
        beta=large_scale_fading(USER_DISTANCE, F_CARRIER),
        p=_SHIPPED.transmit_power,
        seed=_SHIPPED.seed,
        n_realizations=10_000,
    )
    kwargs.update(overrides)
    return MimoScenario(**kwargs)
