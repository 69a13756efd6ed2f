"""Speed distribution, residence, and rollout behavior."""

import math

import numpy as np
import pytest

from roadcache.errors import ConfigError
from roadcache.mobility import (
    HighwayTopology,
    Segment,
    SpeedDistribution,
    residence_time,
    rollout,
    sample_speed,
    truncated_gaussian_cdf,
    truncated_gaussian_pdf,
)
from roadcache.rng import substream

DIST = SpeedDistribution(mu=25.0, sigma=5.0, v_min=15.0, v_max=35.0)
TOPO = HighwayTopology(num_rsus=4, coverage_length=500.0)


def _normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def truncated_mean(dist):
    a = (dist.v_min - dist.mu) / dist.sigma
    b = (dist.v_max - dist.mu) / dist.sigma
    mass = _normal_cdf(b) - _normal_cdf(a)
    return dist.mu + dist.sigma * (_normal_pdf(a) - _normal_pdf(b)) / mass


def test_pdf_zero_outside_support():
    assert truncated_gaussian_pdf(DIST.v_max + 1.0, DIST) == 0.0
    assert truncated_gaussian_pdf(DIST.v_min - 0.001, DIST) == 0.0


def test_pdf_nonnegative_and_peaks_at_mu():
    grid = np.linspace(10.0, 40.0, 4001)
    vals = truncated_gaussian_pdf(grid, DIST)
    assert np.all(vals >= 0.0)
    sym = SpeedDistribution(mu=25.0, sigma=5.0, v_min=20.0, v_max=30.0)
    sgrid = np.linspace(20.0, 30.0, 10001)
    assert sgrid[np.argmax(truncated_gaussian_pdf(sgrid, sym))] == pytest.approx(25.0)


def test_pdf_normalizes_by_quadrature():
    grid = np.linspace(DIST.v_min, DIST.v_max, 20001)
    integral = np.trapezoid(truncated_gaussian_pdf(grid, DIST), grid)
    assert abs(integral - 1.0) < 1e-6


def test_pdf_matches_untruncated_shape_inside_support():
    # On the support the density is the plain Gaussian rescaled by the
    # retained mass, so the ratio to the untruncated pdf is constant.
    a = (DIST.v_min - DIST.mu) / DIST.sigma
    b = (DIST.v_max - DIST.mu) / DIST.sigma
    mass = _normal_cdf(b) - _normal_cdf(a)
    for v in (16.0, 22.5, 25.0, 31.0):
        plain = _normal_pdf((v - DIST.mu) / DIST.sigma) / DIST.sigma
        assert truncated_gaussian_pdf(v, DIST) == pytest.approx(plain / mass, rel=1e-12)


def test_invalid_distribution_rejected():
    with pytest.raises(ConfigError):
        SpeedDistribution(mu=25.0, sigma=0.0, v_min=15.0, v_max=35.0)
    with pytest.raises(ConfigError):
        SpeedDistribution(mu=25.0, sigma=5.0, v_min=35.0, v_max=15.0)


def test_window_with_vanishing_mass_rejected():
    # mu sits 20+ sigmas below the window: the Gaussian mass inside
    # [15, 35] underflows to zero, which would turn every density into
    # NaN downstream. The constructor must refuse instead.
    with pytest.raises(ConfigError):
        SpeedDistribution(mu=5.0, sigma=0.5, v_min=15.0, v_max=35.0)
    # A merely far-off mean with workable overlap is still accepted.
    ok = SpeedDistribution(mu=45.0, sigma=5.0, v_min=15.0, v_max=35.0)
    assert truncated_gaussian_pdf(25.0, ok) > 0.0


def test_degenerate_support_pins_samples():
    tight = SpeedDistribution(mu=25.0, sigma=5.0, v_min=24.999999, v_max=25.000001)
    rng = substream(7, "tight")
    draws = [sample_speed(tight, rng) for _ in range(200)]
    assert np.allclose(draws, 25.0, atol=1e-5)


def test_samples_stay_inside_support():
    rng = substream(3, "support")
    draws = np.array([sample_speed(DIST, rng) for _ in range(20000)])
    assert draws.min() >= DIST.v_min
    assert draws.max() <= DIST.v_max


def test_sample_mean_matches_analytic_truncated_mean():
    skew = SpeedDistribution(mu=25.0, sigma=5.0, v_min=22.0, v_max=40.0)
    rng = substream(11, "mean")
    draws = np.array([sample_speed(skew, rng) for _ in range(100000)])
    assert abs(draws.mean() - truncated_mean(skew)) < 0.1


def test_sampler_ks_against_quadrature_cdf():
    rng = substream(5, "ks")
    draws = np.sort(np.array([sample_speed(DIST, rng) for _ in range(100000)]))
    grid = np.linspace(DIST.v_min, DIST.v_max, 2001)
    density = truncated_gaussian_pdf(grid, DIST)
    quad_cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0
                                                * np.diff(grid))])
    quad_cdf /= quad_cdf[-1]
    empirical = np.searchsorted(draws, grid, side="right") / len(draws)
    assert np.max(np.abs(empirical - quad_cdf)) < 0.01


def test_cdf_endpoints_and_midpoint():
    assert truncated_gaussian_cdf(DIST.v_min, DIST) == pytest.approx(0.0, abs=1e-12)
    assert truncated_gaussian_cdf(DIST.v_max, DIST) == pytest.approx(1.0, abs=1e-12)
    assert truncated_gaussian_cdf(25.0, DIST) == pytest.approx(0.5, abs=1e-12)


def _segment(position, speed):
    return Segment(entry_time=0.0, rsu_index=0, entry_position=position, speed=speed)


def test_residence_time_direct_values():
    B = TOPO.coverage_length
    assert residence_time(_segment(0.0, 25.0), B) == pytest.approx(20.0)
    assert residence_time(_segment(500.0, 25.0), B) == pytest.approx(0.0)
    assert residence_time(_segment(250.0, 20.0), B) == pytest.approx(12.5)


def test_residence_time_monotonicity():
    B = TOPO.coverage_length
    speeds = np.linspace(DIST.v_min, DIST.v_max, 9)
    at_fixed_p = [residence_time(_segment(100.0, v), B) for v in speeds]
    assert all(a > b for a, b in zip(at_fixed_p, at_fixed_p[1:]))
    positions = np.linspace(0.0, 499.0, 9)
    at_fixed_v = [residence_time(_segment(p, 25.0), B) for p in positions]
    assert all(a > b for a, b in zip(at_fixed_v, at_fixed_v[1:]))


def test_rollout_entries_chain_by_residence_time():
    big = HighwayTopology(num_rsus=40, coverage_length=500.0)
    timeline = rollout(0, DIST, big, 500.0, substream(1, "chain"), loop=False,
                       initial_offset=490.0)
    segs = timeline.segments
    assert len(segs) > 10
    for prev, seg in zip(segs, segs[1:]):
        assert seg.entry_time == prev.entry_time + residence_time(prev, big.coverage_length)
        assert seg.rsu_index == prev.rsu_index + 1
        assert DIST.v_min <= seg.speed <= DIST.v_max


def test_rollout_shorter_horizon_is_prefix():
    big = HighwayTopology(num_rsus=40, coverage_length=500.0)
    whole = rollout(0, DIST, big, 400.0, substream(9, "chain"), loop=False)
    for horizon in (0.5, 20.0, 100.0, 250.0):
        part = rollout(0, DIST, big, horizon, substream(9, "chain"), loop=False)
        assert part.segments == whole.segments[:len(part.segments)]
        assert part.end_time == horizon
        assert whole.rsu_at(horizon - 1e-9) == part.rsu_at(horizon - 1e-9)


def test_position_bounded_between_events():
    for seed in range(20):
        rng = substream(4, "bounds", seed)
        offset = float(rng.uniform(0.0, TOPO.road_length))
        timeline = rollout(0, DIST, TOPO, 600.0, rng, loop=True, initial_offset=offset)
        for seg in timeline.segments:
            assert 0.0 <= seg.entry_position < TOPO.coverage_length
            assert 0 <= seg.rsu_index < TOPO.num_rsus


def test_rollout_loop_road_covers_everything():
    timeline = rollout(0, DIST, TOPO, 600.0, substream(6, "roll"), loop=True,
                       initial_offset=750.0)
    spans = timeline.coverage_intervals(600.0)
    assert spans == [(0.0, 600.0)]
    entries = timeline.entry_times()
    assert np.all(np.diff(entries) > 0)
    # Segment chaining: each entry follows from the previous zone's span.
    for prev, seg in zip(timeline.segments, timeline.segments[1:]):
        expect = prev.entry_time + (TOPO.coverage_length - prev.entry_position) / prev.speed
        assert seg.entry_time == pytest.approx(expect)
        assert seg.entry_position == 0.0


def test_rollout_finite_road_ends():
    timeline = rollout(0, DIST, TOPO, 10_000.0, substream(8, "roll"), loop=False,
                       initial_offset=0.0)
    assert timeline.end_time < 10_000.0
    assert timeline.segments[-1].rsu_index == TOPO.num_rsus - 1
    assert timeline.rsu_at(timeline.end_time + 1.0) == -1


def test_rsu_at_matches_segments():
    timeline = rollout(1, DIST, TOPO, 300.0, substream(10, "roll"), loop=True,
                       initial_offset=100.0)
    for seg in timeline.segments:
        assert timeline.rsu_at(seg.entry_time + 1e-9) == seg.rsu_index
