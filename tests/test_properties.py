"""Hypothesis property tests for order, conservation, and round-trip laws."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcache import caching, ldpm, report
from roadcache import fed_distill as fd
from roadcache.config import MobilityGroup, SimConfig, load_config
from roadcache.errors import ConfigError
from roadcache.mobility import residence_time, rollout, truncated_gaussian_pdf, zone_entries
from roadcache.rng import substream

from oracles import kl_tempered

COMMON = settings(max_examples=100, deadline=None, derandomize=True)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
score_lists = st.lists(finite_floats, min_size=1, max_size=50)


@COMMON
@given(score_lists)
def test_rank_contents_is_permutation(scores):
    ranked = caching.rank_contents(np.array(scores))
    assert sorted(ranked.tolist()) == list(range(1, len(scores) + 1))
    values = [scores[c - 1] for c in ranked]
    assert all(a >= b for a, b in zip(values, values[1:]))


@COMMON
@given(score_lists, st.data())
def test_top_m_lists_are_nested(scores, data):
    # The backbone of capacity-sweep monotonicity: a bigger cache keeps
    # everything a smaller one kept.
    k = len(scores)
    m_small = data.draw(st.integers(min_value=1, max_value=k))
    m_large = data.draw(st.integers(min_value=m_small, max_value=k))
    arr = np.array(scores)
    small = caching.top_m(arr, m_small).tolist()
    large = caching.top_m(arr, m_large).tolist()
    assert large[:len(small)] == small


@COMMON
@given(st.lists(st.tuples(st.lists(st.integers(min_value=1, max_value=30),
                                   min_size=0, max_size=10, unique=True),
                          st.floats(min_value=0.0, max_value=500.0),
                          st.floats(min_value=1.0, max_value=40.0)),
                min_size=0, max_size=6))
def test_replacement_votes_are_finite_and_nonnegative(members):
    triples = [(np.array(c, dtype=int) if c else None, p, v) for c, p, v in members]
    votes = caching.replacement_scores(triples, eta=0.1,
                                       coverage_length=500.0, num_contents=30)
    assert votes.shape == (30,)
    assert np.all(np.isfinite(votes)) and np.all(votes >= 0.0)
    listed = set()
    for c, _, _ in members:
        listed.update(c)
    unlisted = [k for k in range(1, 31) if k not in listed]
    assert all(votes[k - 1] == 0.0 for k in unlisted)


@COMMON
@given(st.floats(min_value=5.0, max_value=45.0),
       st.floats(min_value=0.5, max_value=10.0))
def test_speed_pdf_support(mu, sigma):
    cfg = SimConfig(mobility=MobilityGroup(mu, sigma, 15.0, 35.0))
    try:
        cfg.validate()
    except ConfigError:
        # The window holds no representable mass for this mu/sigma; config
        # validation must refuse it rather than hand out NaN densities.
        return
    dist = cfg.mobility
    v = np.linspace(0.0, 50.0, 501)
    pdf = truncated_gaussian_pdf(v, dist)
    assert np.all(np.isfinite(pdf))
    outside = (v < 15.0) | (v > 35.0)
    assert np.all(pdf[outside] == 0.0)
    assert np.all(pdf[~outside] >= 0.0)


@COMMON
@given(st.lists(st.floats(min_value=-20.0, max_value=20.0,
                          allow_nan=False), min_size=2, max_size=16),
       st.lists(st.floats(min_value=-20.0, max_value=20.0,
                          allow_nan=False), min_size=2, max_size=16),
       st.floats(min_value=0.1, max_value=50.0))
def test_kl_is_nonnegative(g, target, temperature):
    n = min(len(g), len(target))
    kl = kl_tempered(np.array(g[:n]), np.array(target[:n]), temperature)
    assert kl >= -1e-9


@COMMON
@given(st.integers(min_value=1, max_value=200))
def test_schedule_is_a_valid_decreasing_product(steps):
    sched = ldpm.build_schedule(steps)
    assert len(sched.alpha_bar) == steps
    assert np.all(sched.alpha_bar > 0.0) and np.all(sched.alpha_bar <= 1.0 - 1e-4 + 1e-12)
    assert np.all(np.diff(sched.alpha_bar) < 0) or steps == 1


@COMMON
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.floats(min_value=0.0, max_value=100.0),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=30))
def test_merge_is_order_independent(entries):
    caches = {rsu: fd.KnowledgeCache(rsu_id=rsu) for rsu in range(4)}
    for vid, when, rsu in entries:
        fd.upsert_hi(caches[rsu], fd.HIPair(hash=np.array([1.0, float(vid)]),
                                            vehicle_id=vid, upload_time=when))
    ordered = list(caches.values())
    merged = fd.merge_kc(ordered)
    assert merged.equals(fd.merge_kc(ordered[::-1]))
    assert set(merged.hi) == {vid for vid, _, _ in entries}


@COMMON
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
       st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=1.0, max_value=50.0),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=1_000),
       st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=2**40),
       st.integers(min_value=0, max_value=99))
def test_report_row_round_trip(scheme, capacity, speed, hits, misses, latency,
                               up, down, seed):
    metrics = caching.Metrics(hits=hits, misses=misses,
                              latency_ms_sum=float(latency) * (hits + misses),
                              uplink_bytes=up, downlink_bytes=down)
    row = report.ReportRow.build(scheme, capacity, speed, seed, metrics)
    rep = report.Report(rows=[row])
    for fmt in ("csv", "json"):
        blob = report.emit_report(rep, fmt)
        assert report.parse_report(blob, fmt).rows == [row]


@COMMON
@given(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=600.0)),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=50.0, max_value=1000.0),
       st.floats(min_value=15.0, max_value=35.0),
       st.integers(min_value=0, max_value=3))
def test_zone_entries_chain_each_vehicle_around_the_ring(duration, num_rsus, coverage, mu, seed):
    cfg = load_config(None, [f"sim.duration={duration!r}", f"topology.num_rsus={num_rsus}",
                             f"topology.coverage_length={coverage!r}", f"mobility.mu={mu!r}"])
    timelines = [rollout(vid, cfg.mobility, cfg.topology, duration,
                         substream(seed, "mobility", "speed", vid),
                         initial_offset=substream(seed, "mobility", "init", vid).uniform(
                             0.0, cfg.topology.road_length))
                 for vid in range(3)]
    entries = zone_entries(timelines)
    keys = [(e.time, e.vehicle_id) for e in entries]
    assert keys == sorted(keys)
    assert all(e.time < duration for e in entries)
    for timeline in timelines:
        mine = [e for e in entries if e.vehicle_id == timeline.vehicle_id]
        assert mine == timeline.segments
        if duration == 0:
            assert mine == []
            continue
        assert mine[0].time == 0.0
        assert [e.exit_time for e in mine] == [e.time for e in mine[1:]] + [duration]
        assert all(b.rsu == (a.rsu + 1) % num_rsus for a, b in zip(mine, mine[1:]))
        # Each hand-off is the kinematic one, bit for bit, until the horizon cuts the last.
        for e, after in zip(mine, mine[1:]):
            assert e.exit_time == e.time + residence_time(e, coverage) == after.time
        last = mine[-1]
        assert last.exit_time == duration <= last.time + residence_time(last, coverage)
        assert all(0.0 <= e.entry_position < coverage for e in mine)
