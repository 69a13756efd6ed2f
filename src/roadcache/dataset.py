"""Rating ingestion, user partitioning, and request-trace derivation.

Ratings arrive as ``UserID::MovieID::Rating::Timestamp`` lines (the 1M
MovieLens layout) or a CSV equivalent with header
``user_id,content_id,rating,timestamp``.  A ``synth://`` path routes
through the synthetic generator and then the very same parser.

Each user's rated items are split chronologically: the earlier share
becomes the training vector, the remainder becomes that user's future
requests.  Users ride vehicles; a vehicle's request stream is the union
of its users' held-out items at random instants inside coverage.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import synth
from .errors import ConfigError, DataFormatError
from .mobility import VehicleTimeline


@dataclass
class RatingMatrix:
    """Sparse user/content ratings as parallel arrays."""

    num_users: int
    num_contents: int
    users: np.ndarray      # int32, original user ids
    contents: np.ndarray   # int32, 1-based content ids
    ratings: np.ndarray    # int8, values in 1..5
    timestamps: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.ratings)

    def distinct_users(self) -> np.ndarray:
        return np.unique(self.users)

    def select_users(self, keep: np.ndarray) -> "RatingMatrix":
        mask = np.isin(self.users, keep)
        return RatingMatrix(
            num_users=len(np.unique(self.users[mask])),
            num_contents=self.num_contents,
            users=self.users[mask],
            contents=self.contents[mask],
            ratings=self.ratings[mask],
            timestamps=self.timestamps[mask],
        )


@dataclass
class LocalDataset:
    """One vehicle's share of the data.

    train_vector is the vehicle-level profile (mean of its users' train
    vectors); user_train_vectors keeps the per-user rows for training the
    local generative model; held_out_requests lists future content ids.
    """

    vehicle_id: int
    user_ids: list[int]
    train_vector: np.ndarray
    user_train_vectors: np.ndarray
    held_out_requests: list[int] = field(default_factory=list)


@dataclass
class RequestTrace:
    times: np.ndarray
    vehicle_ids: np.ndarray
    content_ids: np.ndarray
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.times)


def _parse_dat(lines):
    users, contents, ratings, stamps = [], [], [], []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = text.split("::")
        if len(parts) != 4:
            raise DataFormatError(f"expected 4 '::' fields, got {len(parts)}", lineno)
        try:
            u, c, r, t = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise DataFormatError(f"non-integer field in {text!r}", lineno) from None
        if not (1 <= r <= 5):
            raise DataFormatError(f"rating {r} outside 1..5", lineno)
        if c < 1:
            raise DataFormatError(f"content id {c} must be >= 1", lineno)
        users.append(u); contents.append(c); ratings.append(r); stamps.append(t)
    return users, contents, ratings, stamps


def _parse_csv(lines):
    import csv

    rows = list(csv.reader(lines))
    if not rows:
        return [], [], [], []
    header = [h.strip() for h in rows[0]]
    if header != ["user_id", "content_id", "rating", "timestamp"]:
        raise DataFormatError(f"unexpected CSV header {header}", 1)
    users, contents, ratings, stamps = [], [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataFormatError(f"expected 4 columns, got {len(row)}", lineno)
        try:
            u, c, r, t = int(row[0]), int(row[1]), int(row[2]), int(row[3])
        except ValueError:
            raise DataFormatError(f"non-integer field in {row}", lineno) from None
        if not (1 <= r <= 5):
            raise DataFormatError(f"rating {r} outside 1..5", lineno)
        if c < 1:
            raise DataFormatError(f"content id {c} must be >= 1", lineno)
        users.append(u); contents.append(c); ratings.append(r); stamps.append(t)
    return users, contents, ratings, stamps


def load_ratings(source, fmt: str | None = None, num_contents: int | None = None) -> RatingMatrix:
    """Parse ratings from a path, byte stream, or iterable of lines.

    A ``synth://`` path generates data and feeds it through the same
    parser.  num_contents overrides the catalog size when the tail of the
    id range happens to be unrated.
    """
    if isinstance(source, str) and source.startswith("synth://"):
        params = synth.parse_synth_uri(source)
        lines = synth.generate_lines(params["users"], params["contents"], params["seed"])
        num_contents = params["contents"]
        fmt = "dat"
    elif isinstance(source, str):
        if not os.path.exists(source):
            raise ConfigError(f"rating file not found: {source}")
        if fmt is None:
            fmt = "csv" if source.endswith(".csv") else "dat"
        with open(source, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    elif isinstance(source, (bytes, bytearray)):
        text = source.decode("utf-8", errors="replace")
        lines = io.StringIO(text).readlines()
    else:
        lines = list(source)

    if fmt is None:
        probe = next((ln for ln in lines if ln.strip()), "")
        fmt = "dat" if "::" in probe else "csv"
    if fmt == "dat":
        users, contents, ratings, stamps = _parse_dat(lines)
    elif fmt == "csv":
        users, contents, ratings, stamps = _parse_csv(lines)
    else:
        raise ConfigError(f"unknown rating format {fmt!r}")

    contents_arr = np.asarray(contents, dtype=np.int32)
    max_seen = int(contents_arr.max()) if len(contents_arr) else 0
    k = num_contents if num_contents is not None else max_seen
    if max_seen > k:
        raise DataFormatError(f"content id {max_seen} exceeds declared catalog size {k}")
    users_arr = np.asarray(users, dtype=np.int32)
    return RatingMatrix(
        num_users=len(np.unique(users_arr)),
        num_contents=k,
        users=users_arr,
        contents=contents_arr,
        ratings=np.asarray(ratings, dtype=np.int8),
        timestamps=np.asarray(stamps, dtype=np.int64),
    )


def normalize_rating(r):
    """Map a 1..5 rating onto (0, 1]; zero stays the unrated marker."""
    return np.asarray(r, dtype=float) / 5.0


def _user_rows(matrix: RatingMatrix) -> dict[int, np.ndarray]:
    """Indices of each user's entries, ordered by (timestamp, content id)."""
    order = np.lexsort((matrix.contents, matrix.timestamps, matrix.users))
    rows: dict[int, np.ndarray] = {}
    sorted_users = matrix.users[order]
    bounds = np.flatnonzero(np.diff(sorted_users)) + 1
    for chunk in np.split(order, bounds):
        if len(chunk):
            rows[int(matrix.users[chunk[0]])] = chunk
    return rows


def split_public_users(matrix: RatingMatrix, fraction: float, rng: np.random.Generator):
    """Reserve a user share for codec pretraining; the rest ride vehicles."""
    users = matrix.distinct_users()
    shuffled = users[rng.permutation(len(users))]
    n_public = int(np.ceil(fraction * len(users))) if fraction > 0 else 0
    return shuffled[:n_public], shuffled[n_public:]


def user_train_vector(matrix: RatingMatrix, idx: np.ndarray) -> np.ndarray:
    vec = np.zeros(matrix.num_contents)
    vec[matrix.contents[idx] - 1] = normalize_rating(matrix.ratings[idx])
    return vec


def partition_users(
    matrix: RatingMatrix,
    num_vehicles: int,
    split_ratio: float,
    rng: np.random.Generator,
) -> list[LocalDataset]:
    """Deal users onto vehicles and split each user's history in time.

    Every user lands on exactly one vehicle (round-robin over a shuffled
    order, so vehicle loads differ by at most one user).  Per user, the
    chronologically earlier split_ratio share trains the local model and
    the remainder becomes future requests; users with fewer than two
    ratings train only and never request.
    """
    users = matrix.distinct_users()
    if num_vehicles > len(users):
        raise ConfigError(f"{num_vehicles} vehicles but only {len(users)} users")
    if not (0 < split_ratio < 1):
        raise ConfigError("split_ratio must be in (0, 1)")
    rows = _user_rows(matrix)
    shuffled = users[rng.permutation(len(users))]
    locals_: list[LocalDataset] = []
    assignment: list[list[int]] = [[] for _ in range(num_vehicles)]
    for pos, user in enumerate(shuffled):
        assignment[pos % num_vehicles].append(int(user))
    for vid, user_list in enumerate(assignment):
        vectors = []
        held: list[int] = []
        for user in user_list:
            idx = rows[user]
            n = len(idx)
            n_train = n if n < 2 else max(1, int(n * split_ratio))
            vectors.append(user_train_vector(matrix, idx[:n_train]))
            if n >= 2:
                held.extend(int(c) for c in matrix.contents[idx[n_train:]])
        stack = np.vstack(vectors) if vectors else np.zeros((0, matrix.num_contents))
        profile = stack.mean(axis=0) if len(stack) else np.zeros(matrix.num_contents)
        locals_.append(LocalDataset(
            vehicle_id=vid,
            user_ids=user_list,
            train_vector=profile,
            user_train_vectors=stack,
            held_out_requests=held,
        ))
    return locals_


def generate_requests(
    locals_: list[LocalDataset],
    timelines: list[VehicleTimeline],
    duration: float,
    rng_for_vehicle,
) -> RequestTrace:
    """Emit each held-out item at a uniform instant inside coverage.

    rng_for_vehicle maps a vehicle id to its request stream, which keeps
    request times untouched by unrelated draws (and by the speed setting,
    since a ring road covers every instant).
    """
    times, vids, cids = [], [], []
    dropped = 0
    for local, timeline in zip(locals_, timelines):
        spans = timeline.coverage_intervals(duration)
        total = sum(e - s for s, e in spans)
        if total <= 0 or not spans:
            dropped += len(local.held_out_requests)
            continue
        rng = rng_for_vehicle(local.vehicle_id)
        draws = rng.uniform(0.0, total, size=len(local.held_out_requests))
        for item, u in zip(local.held_out_requests, draws):
            at = u
            for s, e in spans:
                width = e - s
                if at < width:
                    times.append(s + at)
                    break
                at -= width
            else:
                times.append(spans[-1][1] - 1e-9)
            vids.append(local.vehicle_id)
            cids.append(item)
    times_arr = np.asarray(times)
    vids_arr = np.asarray(vids, dtype=np.int32)
    cids_arr = np.asarray(cids, dtype=np.int32)
    order = np.lexsort((cids_arr, vids_arr, times_arr))
    return RequestTrace(times_arr[order], vids_arr[order], cids_arr[order], dropped)
