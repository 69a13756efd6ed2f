"""Ratings ingestion, partitioning, and request-trace derivation."""

import os

import numpy as np
import pytest

from roadcache.dataset import (
    generate_requests,
    load_ratings,
    normalize_rating,
    partition_users,
    split_public_users,
    user_train_vector,
)
from roadcache.errors import ConfigError, DataFormatError
from roadcache.mobility import HighwayTopology, SpeedDistribution, rollout
from roadcache.rng import substream
from roadcache.synth import generate_lines, parse_synth_uri

THREE_LINES = [
    "1::10::5::100\n",
    "2::7::3::200\n",
    "1::3::1::50\n",
]


def test_three_line_fixture_round_trips():
    m = load_ratings(THREE_LINES)
    assert len(m) == 3
    assert m.num_users == 2
    assert m.num_contents == 10
    rows = {(int(u), int(c), int(r), int(t))
            for u, c, r, t in zip(m.users, m.contents, m.ratings, m.timestamps)}
    assert rows == {(1, 10, 5, 100), (2, 7, 3, 200), (1, 3, 1, 50)}


def test_empty_stream_gives_empty_matrix():
    m = load_ratings([])
    assert len(m) == 0
    assert m.num_users == 0


def test_malformed_line_reports_line_number():
    with pytest.raises(DataFormatError) as err:
        load_ratings(["1::10::5::100\n", "oops\n"], fmt="dat")
    assert err.value.line_no == 2


def test_out_of_range_rating_rejected():
    with pytest.raises(DataFormatError):
        load_ratings(["1::10::9::100\n"], fmt="dat")
    with pytest.raises(DataFormatError):
        load_ratings(["1::0::3::100\n"], fmt="dat")
    for bad in ("1,0,5,10\n", "1,-3,5,10\n"):
        with pytest.raises(DataFormatError) as err:
            load_ratings(["user_id,content_id,rating,timestamp\n", "1,2,4,5\n", bad], fmt="csv")
        assert err.value.line_no == 3


def test_csv_and_dat_agree():
    csv_lines = ["user_id,content_id,rating,timestamp\n",
                 "1,10,5,100\n", "2,7,3,200\n", "1,3,1,50\n"]
    a = load_ratings(THREE_LINES, fmt="dat")
    b = load_ratings(csv_lines, fmt="csv")
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.contents, b.contents)
    assert np.array_equal(a.ratings, b.ratings)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_csv_header_checked():
    with pytest.raises(DataFormatError):
        load_ratings(["who,what,when,score\n", "1,2,3,4\n"], fmt="csv")


def test_bytes_source_accepted():
    m = load_ratings(b"1::10::5::100\n2::7::3::200\n")
    assert len(m) == 2


def test_declared_catalog_must_cover_ids():
    with pytest.raises(DataFormatError):
        load_ratings(["1::10::5::100\n"], fmt="dat", num_contents=5)


def test_reference_file_counts():
    path = "data/ratings.dat"
    if not os.path.exists(path):
        pytest.skip("reference rating file not installed")
    m = load_ratings(path, num_contents=3952)
    assert len(m) == 1_000_209
    assert m.num_users == 6040
    assert int(m.contents.max()) <= 3952


def test_normalization_values():
    assert normalize_rating(5) == pytest.approx(1.0)
    assert normalize_rating(3) == pytest.approx(0.6)
    assert float(user_train_vector(load_ratings(THREE_LINES), np.array([0]))[9]) == pytest.approx(1.0)


def test_normalization_round_trip():
    # Ratings 1..5 survive the trip into a train vector and back.
    lines = [f"1::{c}::{r}::{c}\n" for c, r in zip((2, 4, 5, 7, 9), (1, 2, 3, 4, 5))]
    m = load_ratings(lines)
    vec = user_train_vector(m, np.arange(len(m)))
    assert np.allclose(vec[m.contents - 1] * 5.0, m.ratings)
    assert np.count_nonzero(vec) == 5


def test_duplicate_rating_latest_timestamp_wins():
    lines = ["1::4::2::100\n", "1::4::5::900\n", "1::9::3::500\n"]
    m = load_ratings(lines)
    rows = np.lexsort((m.contents, m.timestamps, m.users))
    vec = user_train_vector(m, rows)
    assert vec[3] == pytest.approx(1.0)
    assert vec[8] == pytest.approx(0.6)


def _synthetic_matrix(users=30, contents=60, seed=0):
    rng = substream(seed, "fixture")
    lines = []
    t = 0
    for u in range(1, users + 1):
        for c in rng.choice(contents, size=rng.integers(3, 12), replace=False):
            t += 1
            lines.append(f"{u}::{int(c) + 1}::{int(rng.integers(1, 6))}::{t}\n")
    return load_ratings(lines, num_contents=contents)


def test_partition_covers_users_disjointly():
    m = _synthetic_matrix()
    locals_ = partition_users(m, 7, 0.8, substream(1, "p"))
    seen: list[int] = []
    for loc in locals_:
        seen.extend(loc.user_ids)
    assert sorted(seen) == sorted(int(u) for u in m.distinct_users())
    assert len(seen) == len(set(seen))


def test_partition_one_user_per_vehicle_when_counts_match():
    m = _synthetic_matrix(users=9)
    locals_ = partition_users(m, 9, 0.8, substream(2, "p"))
    assert all(len(loc.user_ids) == 1 for loc in locals_)


def test_partition_split_counts():
    lines = [f"1::{c}::4::{c}\n" for c in range(1, 11)]
    m = load_ratings(lines)
    locals_ = partition_users(m, 1, 0.8, substream(3, "p"))
    assert len(locals_[0].held_out_requests) == 2
    assert int((locals_[0].user_train_vectors[0] > 0).sum()) == 8
    # The split is chronological: the held-out items carry the two
    # largest timestamps, which here equal the content ids.
    assert sorted(locals_[0].held_out_requests) == [9, 10]


def test_single_rating_user_never_requests():
    lines = ["1::5::4::10\n", "2::6::4::10\n", "2::7::2::20\n"]
    m = load_ratings(lines)
    locals_ = partition_users(m, 1, 0.8, substream(4, "p"))
    held = locals_[0].held_out_requests
    assert 5 not in held
    assert held == [7]


def test_partition_validates_arguments():
    m = _synthetic_matrix(users=5)
    with pytest.raises(ConfigError):
        partition_users(m, 6, 0.8, substream(5, "p"))
    with pytest.raises(ConfigError):
        partition_users(m, 2, 1.0, substream(5, "p"))


def test_public_split_sizes_and_disjointness():
    m = _synthetic_matrix(users=10)
    public, riders = split_public_users(m, 0.1, substream(6, "pub"))
    assert len(public) == 1
    assert len(riders) == 9
    assert not set(public.tolist()) & set(riders.tolist())
    none_public, all_riders = split_public_users(m, 0.0, substream(6, "pub"))
    assert len(none_public) == 0
    assert len(all_riders) == 10


DIST = SpeedDistribution(25.0, 5.0, 15.0, 35.0)
TOPO = HighwayTopology(2, 500.0)


def _locals_and_timelines(duration, seed=0):
    m = _synthetic_matrix(seed=seed)
    locals_ = partition_users(m, 5, 0.8, substream(seed, "p"))
    timelines = [
        rollout(loc.vehicle_id, DIST, TOPO, duration,
                substream(seed, "speed", loc.vehicle_id), loop=True,
                initial_offset=137.0 * loc.vehicle_id)
        for loc in locals_
    ]
    return locals_, timelines


def test_requests_conserved_and_inside_coverage():
    locals_, timelines = _locals_and_timelines(400.0)
    trace = generate_requests(locals_, timelines, 400.0,
                              lambda vid: substream(0, "req", vid))
    expected = sum(len(loc.held_out_requests) for loc in locals_)
    assert len(trace) + trace.dropped == expected
    assert trace.dropped == 0
    assert np.all(np.diff(trace.times) >= 0)
    spans = {t.vehicle_id: t.coverage_intervals(400.0) for t in timelines}
    for t, vid in zip(trace.times, trace.vehicle_ids):
        assert any(s <= t < e for s, e in spans[int(vid)])


def test_requests_reproducible():
    locals_, timelines = _locals_and_timelines(400.0)
    a = generate_requests(locals_, timelines, 400.0, lambda vid: substream(0, "req", vid))
    b = generate_requests(locals_, timelines, 400.0, lambda vid: substream(0, "req", vid))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.vehicle_ids, b.vehicle_ids)
    assert np.array_equal(a.content_ids, b.content_ids)


def test_requests_dropped_without_coverage():
    locals_, timelines = _locals_and_timelines(0.0)
    trace = generate_requests(locals_, timelines, 0.0, lambda vid: substream(0, "req", vid))
    assert len(trace) == 0
    assert trace.dropped == sum(len(loc.held_out_requests) for loc in locals_)


def test_empty_held_out_set_contributes_nothing():
    lines = ["1::5::4::10\n"]
    m = load_ratings(lines)
    locals_ = partition_users(m, 1, 0.8, substream(7, "p"))
    timelines = [rollout(0, DIST, TOPO, 100.0, substream(7, "speed"), loop=True)]
    trace = generate_requests(locals_, timelines, 100.0, lambda vid: substream(7, "req", vid))
    assert len(trace) == 0
    assert trace.dropped == 0


def test_synth_uri_parsing():
    params = parse_synth_uri("synth://users=40,contents=200,seed=9")
    assert params == {"users": 40, "contents": 200, "seed": 9}
    assert parse_synth_uri("synth://")["contents"] == 3952
    with pytest.raises(ConfigError):
        parse_synth_uri("synth://riders=4")
    with pytest.raises(ConfigError):
        parse_synth_uri("synth://users=abc")


def test_synth_lines_parse_and_reproduce():
    lines = generate_lines(25, 80, seed=3)
    again = generate_lines(25, 80, seed=3)
    assert lines == again
    m = load_ratings("synth://users=25,contents=80,seed=3")
    assert m.num_users == 25
    assert m.num_contents == 80
    assert int(m.contents.max()) <= 80
    assert np.all((m.ratings >= 1) & (m.ratings <= 5))
