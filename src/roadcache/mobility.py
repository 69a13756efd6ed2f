"""Highway mobility: truncated-Gaussian speeds, RSU zones, handoffs.

The speed law and the road are the config groups themselves
(``MobilityGroup``: mu, sigma, v_min, v_max in m/s; ``TopologyGroup``:
num_rsus, coverage_length in m).  ``SimConfig.validate`` checks them,
the speed window's probability mass included, so every function here
assumes a validated group.

The road is a ring of contiguous RSU coverage zones of equal length, so
the fleet stays on it for the whole run and leaves a zone only by
handing off to the next one (the last zone hands off to the first).
A vehicle keeps one speed for the whole zone and draws a fresh speed
each time it crosses into the next zone.  Zone crossings are computed
exactly from the kinematics, never quantized to a time step.

One record describes a zone stay: ``rollout`` emits each vehicle's
``Entry`` list (entry time, zone, position, speed and hand-off time),
and ``zone_entries`` merges the vehicles' lists into the one entry list
that the protocol phase, the FL baselines and the cache vote read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import MobilityGroup, TopologyGroup

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def truncation_mass(dist: MobilityGroup) -> float:
    """Probability mass of the untruncated Gaussian inside [v_min, v_max]."""
    a = (dist.v_min - dist.mu) / dist.sigma
    b = (dist.v_max - dist.mu) / dist.sigma
    return _phi(b) - _phi(a)


def truncated_gaussian_pdf(v, dist: MobilityGroup):
    """Density of the truncated speed law; zero outside the support."""
    mass = truncation_mass(dist)
    v_arr = np.asarray(v, dtype=float)
    core = np.exp(-((v_arr - dist.mu) ** 2) / (2.0 * dist.sigma**2))
    core /= dist.sigma * _SQRT2PI * mass
    out = np.where((v_arr >= dist.v_min) & (v_arr <= dist.v_max), core, 0.0)
    if np.isscalar(v) or getattr(v, "ndim", 1) == 0:
        return float(out)
    return out


def truncated_gaussian_cdf(v: float, dist: MobilityGroup) -> float:
    """Closed-form CDF companion, used by the inverse-transform fallback."""
    if v < dist.v_min:
        return 0.0
    if v > dist.v_max:
        return 1.0
    a = _phi((dist.v_min - dist.mu) / dist.sigma)
    return (_phi((v - dist.mu) / dist.sigma) - a) / truncation_mass(dist)


_REJECTION_CAP = 1000


def sample_speed(dist: MobilityGroup, rng: np.random.Generator) -> float:
    """Draw one speed by rejection against the untruncated Gaussian.

    The interval is wide enough at default settings that rejection nearly
    always lands quickly; a bisection inverse-transform fallback guards
    pathologically narrow supports so the call always terminates.
    """
    for _ in range(_REJECTION_CAP):
        v = rng.normal(dist.mu, dist.sigma)
        if dist.v_min <= v <= dist.v_max:
            return float(v)
    u = rng.uniform()
    lo, hi = dist.v_min, dist.v_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if truncated_gaussian_cdf(mid, dist) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Entry:
    """One zone stay: a vehicle enters zone ``rsu`` at ``time`` and hands off at ``exit_time``.

    The vehicle enters ``entry_position`` metres into the zone and keeps
    ``speed`` until it leaves.  ``exit_time`` is the next entry's time, or
    the horizon for the vehicle's last entry.
    """

    time: float
    vehicle_id: int
    rsu: int
    entry_position: float
    speed: float
    exit_time: float


def residence_time(entry: Entry, coverage_length: float) -> float:
    """Seconds from the entry until the vehicle reaches the end of its zone."""
    return (coverage_length - entry.entry_position) / entry.speed


@dataclass
class VehicleTimeline:
    """A vehicle's zone entries, in time order; every one starts before the horizon."""

    vehicle_id: int
    segments: list[Entry]

    def entry_times(self) -> np.ndarray:
        return np.array([e.time for e in self.segments])

    def rsu_at(self, t: float | np.ndarray) -> int | np.ndarray:
        """Zone occupied at time t; an array of times gives an array of zones."""
        idx = np.searchsorted(self.entry_times(), t, side="right") - 1
        zones = np.array([e.rsu for e in self.segments])[np.maximum(idx, 0)]
        return zones if np.ndim(t) else int(zones)


def rollout(
    vehicle_id: int,
    dist: MobilityGroup,
    topo: TopologyGroup,
    duration: float,
    rng: np.random.Generator,
    *,
    initial_offset: float = 0.0,
) -> VehicleTimeline:
    """Precompute a vehicle's zone entries up to the horizon ``duration``.

    The vehicle starts at a global road offset at t = 0 and draws a new
    speed at every zone entry, wrapping to the first zone after the last,
    so it stays on the ring until the horizon.  Each entry hands off when
    the next one starts; the last starts before the horizon and ends at
    it, and a zero horizon gives no entry.
    """
    B = topo.coverage_length
    offset = initial_offset % topo.road_length
    rsu = min(int(offset // B), topo.num_rsus - 1)
    t, position, entries = 0.0, offset - rsu * B, []
    while t < duration:
        speed = sample_speed(dist, rng)
        exit_time = t + (B - position) / speed
        entries.append(Entry(t, vehicle_id, rsu, position, speed, min(exit_time, duration)))
        t, rsu, position = exit_time, (rsu + 1) % topo.num_rsus, 0.0
    return VehicleTimeline(vehicle_id, entries)


def zone_entries(timelines: list[VehicleTimeline]) -> list[Entry]:
    """Every vehicle's entries, merged in (time, vehicle id) order."""
    return sorted((e for timeline in timelines for e in timeline.segments),
                  key=lambda e: (e.time, e.vehicle_id))
