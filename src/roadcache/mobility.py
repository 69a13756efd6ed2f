"""Highway mobility: truncated-Gaussian speeds, RSU zones, handoffs.

The road is a chain of contiguous RSU coverage zones of equal length.
A vehicle keeps one speed for the whole zone and draws a fresh speed
each time it crosses into the next zone.  Zone crossings are computed
exactly from the kinematics, never quantized to a time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SpeedDistribution:
    """Gaussian speed law truncated to [v_min, v_max], in m/s."""

    mu: float
    sigma: float
    v_min: float
    v_max: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError("speed sigma must be > 0")
        if not (0 < self.v_min < self.v_max):
            raise ConfigError("need 0 < v_min < v_max for speeds")
        # Float64 loses the tail mass once the window sits many sigmas from
        # mu; dividing densities by that underflowed mass yields NaN, so
        # reject such configurations outright.
        if _truncation_mass(self) < 1e-12:
            raise ConfigError(
                "speed window [v_min, v_max] carries vanishing probability "
                "mass; move mu/sigma and the bounds closer together"
            )


@dataclass(frozen=True)
class HighwayTopology:
    num_rsus: int
    coverage_length: float

    def __post_init__(self):
        if self.num_rsus < 1:
            raise ConfigError("need at least one RSU")
        if self.coverage_length <= 0:
            raise ConfigError("coverage_length must be > 0")

    @property
    def road_length(self) -> float:
        return self.num_rsus * self.coverage_length


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _truncation_mass(dist: SpeedDistribution) -> float:
    a = (dist.v_min - dist.mu) / dist.sigma
    b = (dist.v_max - dist.mu) / dist.sigma
    return _phi(b) - _phi(a)


def truncated_gaussian_pdf(v, dist: SpeedDistribution):
    """Density of the truncated speed law; zero outside the support."""
    mass = _truncation_mass(dist)
    v_arr = np.asarray(v, dtype=float)
    core = np.exp(-((v_arr - dist.mu) ** 2) / (2.0 * dist.sigma**2))
    core /= dist.sigma * _SQRT2PI * mass
    out = np.where((v_arr >= dist.v_min) & (v_arr <= dist.v_max), core, 0.0)
    if np.isscalar(v) or getattr(v, "ndim", 1) == 0:
        return float(out)
    return out


def truncated_gaussian_cdf(v: float, dist: SpeedDistribution) -> float:
    """Closed-form CDF companion, used by the inverse-transform fallback."""
    if v < dist.v_min:
        return 0.0
    if v > dist.v_max:
        return 1.0
    a = _phi((dist.v_min - dist.mu) / dist.sigma)
    return (_phi((v - dist.mu) / dist.sigma) - a) / _truncation_mass(dist)


_REJECTION_CAP = 1000


def sample_speed(dist: SpeedDistribution, rng: np.random.Generator) -> float:
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
class Segment:
    """One constant-speed stretch of a vehicle's timeline inside one zone."""

    entry_time: float
    rsu_index: int
    entry_position: float
    speed: float


def residence_time(seg: Segment, coverage_length: float) -> float:
    """Seconds from the segment's entry until it reaches the end of its zone."""
    return (coverage_length - seg.entry_position) / seg.speed


@dataclass
class VehicleTimeline:
    vehicle_id: int
    segments: list[Segment]
    end_time: float  # exit instant on a finite road, else the horizon

    def entry_times(self) -> np.ndarray:
        return np.array([s.entry_time for s in self.segments])

    def rsu_at(self, t: float) -> int:
        """Zone occupied at time t; -1 once the vehicle has left the road."""
        if t >= self.end_time:
            return -1
        idx = int(np.searchsorted(self.entry_times(), t, side="right")) - 1
        return self.segments[max(idx, 0)].rsu_index

    def coverage_intervals(self, horizon: float) -> list[tuple[float, float]]:
        end = min(self.end_time, horizon)
        return [(0.0, end)] if end > 0 else []


def rollout(
    vehicle_id: int,
    dist: SpeedDistribution,
    topo: HighwayTopology,
    duration: float,
    rng: np.random.Generator,
    *,
    loop: bool = True,
    initial_offset: float = 0.0,
) -> VehicleTimeline:
    """Precompute a vehicle's whole sequence of zone visits.

    The vehicle starts at a global road offset at t = 0 and draws a new
    speed at every zone entry, wrapping to the first zone after the last
    when loop is set (the harness models a ring road to keep the fleet
    density constant).
    """
    B = topo.coverage_length
    offset = initial_offset % topo.road_length
    rsu = min(int(offset // B), topo.num_rsus - 1)
    segments = [Segment(0.0, rsu, offset - rsu * B, sample_speed(dist, rng))]
    t = 0.0
    while True:
        seg = segments[-1]
        t = seg.entry_time + residence_time(seg, B)
        if t >= duration:
            return VehicleTimeline(vehicle_id, segments, end_time=duration)
        nxt = seg.rsu_index + 1
        if nxt >= topo.num_rsus:
            if not loop:
                return VehicleTimeline(vehicle_id, segments, end_time=t)
            nxt = 0
        segments.append(Segment(t, nxt, 0.0, sample_speed(dist, rng)))
