"""Per-RSU content cache: recommendation lists, replacement, serving.

Content ids are 1-based; a length-K score vector's slot k-1 belongs to
content k.  Ranking ties always break toward the smaller content id, so
every cache decision is deterministic.  Served requests are priced by
the flat latencies of the config's ``LatencyGroup``, which
``SimConfig.validate`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LatencyGroup
from .errors import InvariantError


@dataclass
class Metrics:
    hits: int = 0
    misses: int = 0
    latency_ms_sum: float = 0.0
    uplink_bytes: int = 0
    downlink_bytes: int = 0

    @property
    def total_requests(self) -> int:
        return self.hits + self.misses

    def hit_pct(self) -> float:
        total = self.total_requests
        return 100.0 * self.hits / total if total else 0.0

    def mean_latency_ms(self) -> float:
        total = self.total_requests
        return self.latency_ms_sum / total if total else 0.0


def rank_contents(scores: np.ndarray) -> np.ndarray:
    """All content ids by descending score, ascending id on ties.

    An unstable sort finds the groups of equal scores; one integer sort of
    (group, slot) keys then orders each group by slot.  -0.0 ties with 0.0.
    NaN equals nothing, so it would leave ties to the unstable sort: scores
    must be finite.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise InvariantError("cannot rank non-finite scores")
    k = len(scores)
    order = np.argsort(-scores)
    ranked = scores[order]
    group = np.zeros(k, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=group[1:])
    keys = group * k + order
    keys.sort()
    keys %= k
    keys += 1
    return keys


def top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """The m best-scored content ids (every id, ordered, when m >= K)."""
    return rank_contents(scores)[:m].copy()   # a view would keep the K-long ranking alive


def replacement_scores(
    members: list[tuple[np.ndarray | None, float, float]],
    eta: float,
    coverage_length: float,
    num_contents: int,
) -> np.ndarray:
    """Dwell-weighted vote over the lists of vehicles currently inside.

    members holds (list contents, position, speed) triples.  Each vehicle
    adds eta * (remaining distance / speed) to every content it lists, so
    freshly arrived, slow vehicles weigh most; contents on no list stay 0.
    """
    lists, weights = [], []
    for contents, position, speed in members:
        if contents is None or len(contents) == 0:
            continue
        lists.append(np.asarray(contents))
        weights.append(eta * (coverage_length - position) / speed)
    if not lists:
        return np.zeros(num_contents)
    # bincount adds each content's weights in member order, as a loop over members would.
    ids = np.concatenate(lists) - 1
    return np.bincount(ids, weights=np.repeat(weights, [len(c) for c in lists]),
                       minlength=num_contents)


def serve(metrics: Metrics, hit: np.ndarray, latency: LatencyGroup) -> None:
    """Account a batch of served requests; hit[i] tells whether request i hit."""
    hits = int(np.count_nonzero(hit))
    misses = len(hit) - hits
    metrics.hits += hits
    metrics.misses += misses
    metrics.latency_ms_sum += float(hits * latency.hit_ms + misses * latency.miss_ms)
