"""Closed-form longitudinal safety math for the emergency-brake function.

The safe-distance model follows the responsibility-sensitive safety (RSS)
bound for a moving ego approaching a static obstacle: the ego may keep
accelerating at its worst-case rate for the whole response time and must
still be able to brake to a stop before the obstacle.  The operational
domain contains only static objects, so the target speed is zero
throughout: neither the safe distance nor the time to collision takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "VEHICLE_FIELDS",
    "VehicleParams",
    "check_vehicle_field",
    "rss_min_distance",
    "ttc",
    "effective_brake_decel",
    "NO_CLOSING",
]

#: Returned by :func:`ttc` when the ego is not closing on the target.
#: Callers treat it as an infinite time to collision.
NO_CLOSING = math.inf


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return float(value) or 0.0  # -0.0, false as 0.0 is, is read as 0.0


def _store_floats(obj: object, names: tuple[str, ...]) -> None:
    """Store each named field of a frozen dataclass as a finite float, so
    that an int-valued input equals, and behaves as, the float one."""
    for name in names:
        object.__setattr__(obj, name, _require_finite(name, getattr(obj, name)))


VEHICLE_FIELDS = ("v_r", "rho", "a_max_accel", "a_min_brake")


def check_vehicle_field(name: str, value: float) -> float:
    """``value`` as a float, if it lies in the domain of the vehicle field
    ``name`` on its own; raises :class:`ParameterError` otherwise.  (A
    whole vehicle also needs a finite :func:`rss_min_distance`.)"""
    value = _require_finite(name, value)
    if name == "a_min_brake" and not value > 0:
        raise ParameterError(f"a_min_brake must be > 0, got {value}")
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class VehicleParams:
    """Kinematic parameters of the ego vehicle.

    v_r: current (constant) driving speed in m/s.
    rho: response time in s between brake decision and brake force.
    a_max_accel: worst-case acceleration in m/s^2 budgeted during rho.
    a_min_brake: available braking deceleration magnitude in m/s^2.
    """

    v_r: float
    rho: float
    a_max_accel: float
    a_min_brake: float

    def __post_init__(self) -> None:
        for name in VEHICLE_FIELDS:
            object.__setattr__(self, name, check_vehicle_field(name, getattr(self, name)))
        try:
            d_min = rss_min_distance(self)
        except OverflowError:
            d_min = math.inf
        if not math.isfinite(d_min):
            raise ParameterError(
                f"rss_min_distance must be finite, got {d_min} for v_r={self.v_r}, "
                f"rho={self.rho}, a_max_accel={self.a_max_accel}, a_min_brake={self.a_min_brake}"
            )


def rss_min_distance(p: VehicleParams) -> float:
    """Minimum gap to a static object that still guarantees a stop.

    d_min = [v_r*rho + 1/2*a_max_accel*rho^2
             + (v_r + rho*a_max_accel)^2 / (2*a_min_brake)]_+

    where [x]_+ = max(x, 0).  With the parameter invariants every term is
    nonnegative, so the clamp only matters for exotic subclass inputs.
    """
    v_after_rho = p.v_r + p.rho * p.a_max_accel
    d = (
        p.v_r * p.rho
        + 0.5 * p.a_max_accel * p.rho**2
        + v_after_rho**2 / (2.0 * p.a_min_brake)
    )
    return max(0.0, d)


def ttc(gap: float, v_ego: float) -> float:
    """Time to collision with the static object: gap / v_ego.

    Returns :data:`NO_CLOSING` (infinity) when the ego is not closing on
    the object (v_ego <= 0), which is a valid outcome rather than a
    numeric error.
    """
    if gap < 0:
        raise ParameterError(f"gap must be >= 0, got {gap}")
    if v_ego <= 0:
        return NO_CLOSING
    return gap / v_ego


def effective_brake_decel(p: VehicleParams, mu: float) -> float:
    """Braking deceleration on a surface with normalized friction mu.

    mu is a dimensionless multiplier in (0, 1]; the effective deceleration
    is mu * a_min_brake.  Linear scaling is the simplest defensible model
    and is isolated here so it can be swapped without touching callers.
    """
    _require_finite("mu", mu)
    if not 0.0 < mu <= 1.0:
        raise ParameterError(f"mu must be in (0, 1], got {mu}")
    return mu * p.a_min_brake
