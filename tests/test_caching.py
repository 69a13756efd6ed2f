"""Ranked lists, dwell-weighted replacement, cache update, serving."""

import numpy as np
import pytest

from roadcache import caching
from roadcache.dataset import load_ratings
from roadcache.errors import ConfigError, DataFormatError
from roadcache.rng import substream


class TestRanking:
    def test_descending_with_id_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        assert caching.rank_contents(scores).tolist() == [2, 1, 3, 4]

    def test_all_equal_is_ascending_ids(self):
        assert caching.rank_contents(np.full(6, 0.7)).tolist() == [1, 2, 3, 4, 5, 6]

    def test_top_m_truncates(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert caching.top_m(scores, 2).tolist() == [2, 3]

    def test_top_m_whole_catalog_when_m_large(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert caching.top_m(scores, 10).tolist() == [2, 3, 1]

    def test_top_m_matches_full_sort(self):
        rng = substream(0, "rank")
        for trial in range(20):
            scores = np.round(rng.uniform(0, 1, size=100), 2)
            got = caching.top_m(scores, 10)
            order = sorted(range(1, 101), key=lambda k: (-scores[k - 1], k))
            assert got.tolist() == order[:10]

    def test_top_m_rejects_short_lists(self):
        with pytest.raises(ValueError):
            caching.top_m(np.ones(3), 0)


class TestReplacementScores:
    def test_single_fresh_vehicle(self):
        members = [(np.array([1, 3]), 0.0, 25.0)]
        votes = caching.replacement_scores(members, eta=0.1,
                                           coverage_length=500.0, num_contents=4)
        assert votes == pytest.approx(np.array([2.0, 0.0, 2.0, 0.0]))

    def test_vehicle_at_exit_contributes_nothing(self):
        members = [(np.array([2]), 500.0, 25.0)]
        votes = caching.replacement_scores(members, eta=0.1,
                                           coverage_length=500.0, num_contents=3)
        assert votes == pytest.approx(np.zeros(3))

    def test_empty_and_missing_lists_skipped(self):
        members = [(None, 0.0, 25.0), (np.array([], dtype=int), 10.0, 20.0)]
        votes = caching.replacement_scores(members, eta=0.1,
                                           coverage_length=500.0, num_contents=3)
        assert votes == pytest.approx(np.zeros(3))

    def test_matches_enumeration(self):
        rng = substream(1, "votes")
        for trial in range(20):
            members = []
            for _ in range(5):
                contents = rng.choice(30, size=rng.integers(1, 10), replace=False) + 1
                members.append((contents, float(rng.uniform(0, 500)),
                                float(rng.uniform(15, 35))))
            got = caching.replacement_scores(members, eta=0.1,
                                             coverage_length=500.0, num_contents=30)
            want = np.zeros(30)
            for contents, pos, speed in members:
                for k in contents:
                    want[k - 1] += 0.1 * (500.0 - pos) / speed
            assert got == pytest.approx(want)

    def test_eta_scales_linearly(self):
        rng = substream(2, "votes")
        members = [(rng.choice(20, size=6, replace=False) + 1,
                    float(rng.uniform(0, 500)), 25.0) for _ in range(4)]
        base = caching.replacement_scores(members, eta=0.1,
                                          coverage_length=500.0, num_contents=20)
        doubled = caching.replacement_scores(members, eta=0.2,
                                             coverage_length=500.0, num_contents=20)
        assert doubled == pytest.approx(2.0 * base)
        assert np.array_equal(caching.rank_contents(base), caching.rank_contents(doubled))


class TestUpdateCache:
    """The replay's cache update: the capacity best-voted ids, in rank order."""

    @staticmethod
    def update(votes, capacity):
        return caching.rank_contents(votes)[:capacity]

    def test_everything_fits(self):
        assert self.update(np.array([0.2, 0.9, 0.5]), capacity=10).tolist() == [2, 3, 1]

    def test_keeps_top_votes(self):
        votes = np.array([0.1, 5.0, 0.1, 7.0, 0.1])
        assert set(self.update(votes, capacity=2).tolist()) == {2, 4}

    def test_matches_sort_oracle(self):
        rng = substream(3, "cache")
        for trial in range(10):
            scores = np.round(rng.uniform(0, 1, size=1000), 2)
            order = sorted(range(1, 1001), key=lambda k: (-scores[k - 1], k))
            assert self.update(scores, capacity=500).tolist() == order[:500]

    def test_zero_votes_fill_by_lowest_id(self):
        members = [(np.array([5, 9]), 250.0, 25.0), (np.array([9]), 0.0, 20.0)]
        votes = caching.replacement_scores(members, eta=0.1, coverage_length=500.0,
                                           num_contents=10)
        assert self.update(votes, capacity=4).tolist() == [9, 5, 1, 2]


class TestServeRequest:
    def test_hit_and_miss(self):
        latency = caching.LatencyModel()
        metrics = caching.Metrics()
        mask = np.zeros(10, dtype=bool)
        mask[[1, 5]] = True
        caching.serve(metrics, mask[np.array([5, 2])], latency)
        assert metrics.hits == 1 and metrics.misses == 1
        assert metrics.latency_ms_sum == 120.0
        caching.serve(metrics, mask[np.zeros(0, dtype=int)], latency)
        assert metrics.total_requests == 2 and metrics.latency_ms_sum == 120.0

    def test_latency_accounting_identity(self):
        rng = substream(4, "serve")
        mask = np.zeros(100, dtype=bool)
        mask[1:40] = True
        latency = caching.LatencyModel()
        metrics = caching.Metrics()
        for _ in range(50):
            caching.serve(metrics, mask[rng.integers(1, 100, size=10)], latency)
        frac_hit = metrics.hits / metrics.total_requests
        want = frac_hit * 20.0 + (1 - frac_hit) * 100.0
        assert metrics.total_requests == 500
        assert metrics.mean_latency_ms() == pytest.approx(want, abs=1e-12)
        assert metrics.hit_pct() == pytest.approx(100.0 * frac_hit)

    def test_bad_content_id(self):
        # Requests are drawn from the rating log, so an id below 1 is refused
        # there, in either format, before it can index the replay's id mask.
        header = "user_id,content_id,rating,timestamp\n"
        for lines, fmt in ((["1::0::3::100\n"], "dat"), (["1::-2::3::100\n"], "dat"),
                           ([header, "1,0,3,100\n"], "csv"), ([header, "1,-2,3,100\n"], "csv")):
            with pytest.raises(DataFormatError):
                load_ratings(lines, fmt=fmt)


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            caching.LatencyModel(hit_ms=100.0, miss_ms=20.0)
        with pytest.raises(ConfigError):
            caching.LatencyModel(hit_ms=0.0, miss_ms=50.0)
        assert caching.LatencyModel(hit_ms=1.0, miss_ms=2.0).miss_ms == 2.0


class TestMetrics:
    def test_empty_guards(self):
        metrics = caching.Metrics()
        assert metrics.hit_pct() == 0.0
        assert metrics.mean_latency_ms() == 0.0
        assert metrics.total_requests == 0
