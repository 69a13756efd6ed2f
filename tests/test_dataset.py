"""Ratings ingestion, partitioning, and request-trace derivation."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from roadcache.dataset import (
    generate_requests,
    load_ratings,
    normalize_rating,
    partition_users,
    public_rows,
    split_public_users,
    user_rows,
    user_train_vector,
)
from roadcache.errors import ConfigError, DataFormatError
from roadcache.rng import substream
from roadcache.synth import generate, parse_synth_uri

THREE_LINES = [
    "1::10::5::100\n",
    "2::7::3::200\n",
    "1::3::1::50\n",
]


def load_lines(tmp_path, lines, suffix=".dat"):
    """Write lines to a rating file named by suffix and load it, as a run loads ``data.path``."""
    path = tmp_path / f"ratings{suffix}"
    path.write_text("".join(lines))
    return load_ratings(str(path))


def test_three_line_fixture_round_trips(tmp_path):
    m = load_lines(tmp_path, THREE_LINES)
    assert len(m) == 3
    assert len(m.distinct_users()) == 2
    assert m.num_contents == 10
    rows = {(int(u), int(c), int(r), int(t))
            for u, c, r, t in zip(m.users, m.contents, m.ratings, m.timestamps)}
    assert rows == {(1, 10, 5, 100), (2, 7, 3, 200), (1, 3, 1, 50)}


def test_empty_stream_gives_empty_matrix(tmp_path):
    m = load_lines(tmp_path, [])
    assert len(m) == 0
    assert len(m.distinct_users()) == 0


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(DataFormatError) as err:
        load_lines(tmp_path, ["1::10::5::100\n", "oops\n"])
    assert err.value.line_no == 2


def test_out_of_range_rating_rejected(tmp_path):
    for bad in ("1::10::9::100\n", "1::10::0::100\n", "1::0::3::100\n"):
        with pytest.raises(DataFormatError):
            load_lines(tmp_path, [bad])
    for bad in ("1,0,5,10\n", "1,-3,5,10\n", "1,2,0,10\n", "1,2,6,10\n"):
        with pytest.raises(DataFormatError) as err:
            load_lines(tmp_path, ["user_id,content_id,rating,timestamp\n", "1,2,4,5\n", bad],
                        ".csv")
        assert err.value.line_no == 3


def test_csv_and_dat_agree(tmp_path):
    csv_lines = ["user_id,content_id,rating,timestamp\n",
                 "1,10,5,100\n", "2,7,3,200\n", "1,3,1,50\n"]
    a = load_lines(tmp_path, THREE_LINES)
    b = load_lines(tmp_path, csv_lines, ".csv")
    assert a.num_contents == b.num_contents == 10
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.contents, b.contents)
    assert np.array_equal(a.ratings, b.ratings)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_rating_files_are_read_a_line_at_a_time(tmp_path):
    """Loading a rating file holds one line at a time, never every line or CSV row.

    So padding each line with blanks leaves the tracemalloc peak alone, and
    a ``.csv`` file peaks as its ``.dat`` twin does.
    """
    columns = generate(100, 400, 7)
    rows = list(zip(*(col.tolist() for col in columns)))
    files = {"dat": tmp_path / "ratings.dat", "padded": tmp_path / "padded.dat",
             "csv": tmp_path / "ratings.csv"}
    files["dat"].write_text("".join(f"{u}::{c}::{r}::{t}\n" for u, c, r, t in rows))
    files["padded"].write_text("".join(f"{u}::{c}::{r}::{t}{' ' * 200}\n" for u, c, r, t in rows))
    files["csv"].write_text("user_id,content_id,rating,timestamp\n"
                            + "".join(f"{u},{c},{r},{t}\n" for u, c, r, t in rows))
    peaks = {}
    for name, path in files.items():
        load_ratings(str(path))   # first loads import what they use outside the measurement
        tracemalloc.start()
        try:
            loaded = load_ratings(str(path))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.timestamps.tobytes() == columns[3].astype(np.int64).tobytes()
    assert peaks["padded"] < 1.1 * peaks["dat"], peaks
    assert peaks["csv"] < 1.1 * peaks["dat"], peaks


def test_csv_header_checked(tmp_path):
    with pytest.raises(DataFormatError):
        load_lines(tmp_path, ["who,what,when,score\n", "1,2,3,4\n"], ".csv")


def test_reference_file_counts():
    path = "data/ratings.dat"
    if not os.path.exists(path):
        pytest.skip("reference rating file not installed")
    m = load_ratings(path)
    assert len(m) == 1_000_209
    assert len(m.distinct_users()) == 6040
    assert int(m.contents.max()) <= 3952


def test_normalization_values(tmp_path):
    assert normalize_rating(5) == pytest.approx(1.0)
    assert normalize_rating(3) == pytest.approx(0.6)
    m = load_lines(tmp_path, THREE_LINES)
    assert float(user_train_vector(m, np.array([0]))[9]) == pytest.approx(1.0)


def test_normalization_round_trip(tmp_path):
    # Ratings 1..5 survive the trip into a train vector and back.
    lines = [f"1::{c}::{r}::{c}\n" for c, r in zip((2, 4, 5, 7, 9), (1, 2, 3, 4, 5))]
    m = load_lines(tmp_path, lines)
    vec = user_train_vector(m, np.arange(len(m)))
    assert np.allclose(vec[m.contents - 1] * 5.0, m.ratings)
    assert np.count_nonzero(vec) == 5


def test_duplicate_rating_latest_timestamp_wins(tmp_path):
    lines = ["1::4::2::100\n", "1::4::5::900\n", "1::9::3::500\n"]
    m = load_lines(tmp_path, lines)
    rows = np.lexsort((m.contents, m.timestamps, m.users))
    vec = user_train_vector(m, rows)
    assert vec[3] == pytest.approx(1.0)
    assert vec[8] == pytest.approx(0.6)


def _synthetic_matrix(tmp_path, users=30, contents=60, seed=0, extra=()):
    rng = substream(seed, "fixture")
    lines = []
    t = 0
    for u in range(1, users + 1):
        for c in rng.choice(contents, size=rng.integers(3, 12), replace=False):
            t += 1
            lines.append(f"{u}::{int(c) + 1}::{int(rng.integers(1, 6))}::{t}\n")
    return load_lines(tmp_path, lines + list(extra))


def test_partition_covers_users_disjointly(tmp_path):
    m = _synthetic_matrix(tmp_path)
    locals_ = partition_users(m, 7, 0.8, substream(1, "p"))
    seen: list[int] = []
    for loc in locals_:
        seen.extend(loc.user_ids)
    assert sorted(seen) == sorted(int(u) for u in m.distinct_users())
    assert len(seen) == len(set(seen))


def test_partition_one_user_per_vehicle_when_counts_match(tmp_path):
    m = _synthetic_matrix(tmp_path, users=9)
    locals_ = partition_users(m, 9, 0.8, substream(2, "p"))
    assert all(len(loc.user_ids) == 1 for loc in locals_)


def test_partition_split_counts(tmp_path):
    lines = [f"1::{c}::4::{c}\n" for c in range(1, 11)]
    m = load_lines(tmp_path, lines)
    locals_ = partition_users(m, 1, 0.8, substream(3, "p"))
    assert len(locals_[0].held_out_requests) == 2
    assert int((locals_[0].train_rows()[0] > 0).sum()) == 8
    # The split is chronological: the held-out items carry the two
    # largest timestamps, which here equal the content ids.
    assert sorted(locals_[0].held_out_requests) == [9, 10]


def test_train_rows_are_the_dense_user_vectors(tmp_path):
    """Each vehicle's on-demand rows equal, byte for byte, its users' dense train vectors."""
    # User 31 has one rating and trains on it; user 32 rates content 4 twice in training.
    extra = ["31::5::4::1000\n", "32::4::2::1001\n", "32::4::5::1002\n", "32::9::3::1003\n"]
    m = _synthetic_matrix(tmp_path, extra=extra)
    split = 0.8
    locals_ = partition_users(m, 7, split, substream(8, "p"))
    rows = user_rows(m)
    for loc in locals_:
        want = []
        for user in loc.user_ids:
            idx = rows[user]
            n = len(idx)
            n_train = n if n < 2 else max(1, int(n * split))
            want.append(user_train_vector(m, idx[:n_train]))
        assert loc.train_rows().tobytes() == np.vstack(want).tobytes()
        assert all(ids.dtype == np.int32 for ids in loc.train_contents)
    [one] = [loc for loc in locals_ if 31 in loc.user_ids]
    assert np.count_nonzero(one.train_rows()[one.user_ids.index(31)]) == 1


def test_public_rows_are_the_dense_user_vectors(tmp_path):
    """The public rows equal, byte for byte, the users' vectors built from the whole matrix."""
    # User 32 rates content 4 twice: the later rating must win in both.
    extra = ["32::4::2::1001\n", "32::4::5::1002\n", "32::9::3::1003\n"]
    m = _synthetic_matrix(tmp_path, extra=extra)
    public, _ = split_public_users(m, 0.3, substream(9, "pub"))
    public = np.append(public, 32)
    rows = user_rows(m)
    want = np.vstack([user_train_vector(m, rows[int(uid)]) for uid in public])
    assert public_rows(m, public).tobytes() == want.tobytes()


def test_single_rating_user_never_requests(tmp_path):
    lines = ["1::5::4::10\n", "2::6::4::10\n", "2::7::2::20\n"]
    m = load_lines(tmp_path, lines)
    locals_ = partition_users(m, 1, 0.8, substream(4, "p"))
    held = locals_[0].held_out_requests
    assert 5 not in held
    assert held == [7]


def test_public_split_sizes_and_disjointness(tmp_path):
    m = _synthetic_matrix(tmp_path, users=10)
    public, riders = split_public_users(m, 0.1, substream(6, "pub"))
    assert len(public) == 1
    assert len(riders) == 9
    assert not set(public.tolist()) & set(riders.tolist())
    none_public, all_riders = split_public_users(m, 0.0, substream(6, "pub"))
    assert len(none_public) == 0
    assert len(all_riders) == 10


def _locals(tmp_path, seed=0):
    return partition_users(_synthetic_matrix(tmp_path, seed=seed), 5, 0.8, substream(seed, "p"))


def test_requests_conserved_and_inside_coverage(tmp_path):
    # The ring road covers every instant of the run.
    locals_ = _locals(tmp_path)
    trace = generate_requests(locals_, 400.0, lambda vid: substream(0, "req", vid))
    expected = sum(len(loc.held_out_requests) for loc in locals_)
    assert len(trace) + trace.dropped == expected
    assert trace.dropped == 0
    assert np.all(np.diff(trace.times) >= 0)
    assert np.all((trace.times >= 0.0) & (trace.times < 400.0))
    for loc in locals_:
        mine = trace.vehicle_ids == loc.vehicle_id
        assert sorted(trace.content_ids[mine].tolist()) == sorted(loc.held_out_requests)
        # Each vehicle's times are exactly its own stream's draws.
        draws = substream(0, "req", loc.vehicle_id).uniform(0.0, 400.0, len(loc.held_out_requests))
        assert sorted(trace.times[mine].tolist()) == sorted(draws.tolist())


def test_requests_reproducible(tmp_path):
    locals_ = _locals(tmp_path)
    a = generate_requests(locals_, 400.0, lambda vid: substream(0, "req", vid))
    b = generate_requests(locals_, 400.0, lambda vid: substream(0, "req", vid))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.vehicle_ids, b.vehicle_ids)
    assert np.array_equal(a.content_ids, b.content_ids)


def test_requests_dropped_without_coverage(tmp_path):
    locals_ = _locals(tmp_path)
    trace = generate_requests(locals_, 0.0, lambda vid: substream(0, "req", vid))
    assert len(trace) == 0
    assert trace.dropped == sum(len(loc.held_out_requests) for loc in locals_)


def test_empty_held_out_set_contributes_nothing(tmp_path):
    lines = ["1::5::4::10\n"]
    m = load_lines(tmp_path, lines)
    locals_ = partition_users(m, 1, 0.8, substream(7, "p"))
    trace = generate_requests(locals_, 100.0, lambda vid: substream(7, "req", vid))
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
    columns = generate(25, 80, seed=3)
    again = generate(25, 80, seed=3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(columns, again))
    m = load_ratings("synth://users=25,contents=80,seed=3")
    assert len(m.distinct_users()) == 25
    assert m.num_contents == 80
    assert int(m.contents.max()) <= 80
    assert np.all((m.ratings >= 1) & (m.ratings <= 5))


def test_synth_desk_columns_are_pinned():
    """The desk catalog's four columns, each as its ``dtype.str`` then its bytes, hash as they
    always have: any change to the generator's draws or row order changes every report."""
    params = parse_synth_uri("synth://users=600,contents=3952,seed=1")
    digest = hashlib.sha256()
    for col in generate(params["users"], params["contents"], params["seed"]):
        digest.update(col.dtype.str.encode())
        digest.update(col.tobytes())
    assert digest.hexdigest() == "6094a633cab020bcc5a753c0896b3d39f093d367077f6c7080bdad58b4d7de86"


@pytest.mark.parametrize("uri", ["synth://users=25,contents=80,seed=3",
                                 "synth://users=600,contents=3952,seed=1"])
def test_synth_matrix_equals_parsed_lines(uri, tmp_path):
    """The synth columns give the matrix their ``::`` lines parse to, catalog included:
    both catalogs rate their last id."""
    params = parse_synth_uri(uri)
    columns = generate(params["users"], params["contents"], params["seed"])
    lines = [f"{u}::{c}::{r}::{t}\n" for u, c, r, t in zip(*(col.tolist() for col in columns))]
    parsed = load_lines(tmp_path, lines)
    direct = load_ratings(uri)
    assert direct.num_contents == parsed.num_contents
    for name in ("users", "contents", "ratings", "timestamps"):
        got, want = getattr(direct, name), getattr(parsed, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
