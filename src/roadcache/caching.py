"""Per-RSU content cache: recommendation lists, replacement, serving.

Content ids are 1-based; a length-K score vector's slot k-1 belongs to
content k.  Ranking ties always break toward the smaller content id, so
every cache decision is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class LatencyModel:
    """Flat per-request latencies in milliseconds."""

    hit_ms: float = 20.0
    miss_ms: float = 100.0

    def __post_init__(self):
        if not (0 < self.hit_ms < self.miss_ms):
            raise ConfigError("need 0 < hit latency < miss latency")


@dataclass
class Metrics:
    hits: int = 0
    misses: int = 0
    latency_ms_sum: float = 0.0
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    completed_visits: int = 0
    aborted_visits: int = 0
    completed_rounds: int = 0
    dropped_requests: int = 0
    loss_trajectory: list = field(default_factory=list)

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
    """All content ids by descending score, ascending id on ties."""
    scores = np.asarray(scores, dtype=float)
    ids = np.arange(1, len(scores) + 1)
    return ids[np.lexsort((ids, -scores))]


def top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """The m best-scored content ids (every id, ordered, when m >= K)."""
    if m < 1:
        raise ValueError("list length must be >= 1")
    return rank_contents(scores)[:m]


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
    votes = np.zeros(num_contents)
    for contents, position, speed in members:
        if contents is None or len(contents) == 0:
            continue
        weight = eta * (coverage_length - position) / speed
        votes[np.asarray(contents) - 1] += weight
    return votes


def serve(metrics: Metrics, hit: np.ndarray, latency: LatencyModel) -> None:
    """Account a batch of served requests; hit[i] tells whether request i hit."""
    hits = int(np.count_nonzero(hit))
    misses = len(hit) - hits
    metrics.hits += hits
    metrics.misses += misses
    metrics.latency_ms_sum += float(hits * latency.hit_ms + misses * latency.miss_ms)
