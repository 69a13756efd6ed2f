"""Rating ingestion, user partitioning, and request-trace derivation.

Ratings arrive as a file of ``UserID::MovieID::Rating::Timestamp`` lines
(the 1M MovieLens layout) or a ``.csv`` file whose first line is the
header ``user_id,content_id,rating,timestamp``: the extension picks the
format.  A file's catalog is its largest rated id; nothing overrides it.
A ``synth://`` path takes its columns straight from the synthetic
generator, with the dtypes and row order the parser would give for the
same ratings written as lines, and its catalog is the URI's ``contents``.

Each user's rated items are split chronologically: the earlier share
trains the vehicle's model and is kept sparse (content ids and
normalized ratings), the remainder becomes that user's future requests.
Users ride vehicles; a vehicle's request stream is the union of its
users' held-out items at uniform instants of the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import synth
from .errors import ConfigError, DataFormatError


@dataclass
class RatingMatrix:
    """Sparse user/content ratings as parallel arrays."""

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
            num_contents=self.num_contents,
            users=self.users[mask],
            contents=self.contents[mask],
            ratings=self.ratings[mask],
            timestamps=self.timestamps[mask],
        )


@dataclass
class LocalDataset:
    """One vehicle's share of the data.

    Per user, in ``user_ids`` order, train_contents holds the 1-based ids
    of the training ratings (int32) and train_ratings their normalized
    values, in the user's chronological order; ``train_rows`` makes the
    dense K-wide rows from them on demand.  held_out_requests lists
    future content ids.
    """

    vehicle_id: int
    user_ids: list[int]
    num_contents: int
    train_contents: list[np.ndarray]
    train_ratings: list[np.ndarray]
    held_out_requests: list[int] = field(default_factory=list)

    def train_rows(self) -> np.ndarray:
        """The (users, K) training rows, filled as ``user_train_vector`` fills one."""
        rows = np.zeros((len(self.user_ids), self.num_contents))
        for row, contents, ratings in zip(rows, self.train_contents, self.train_ratings):
            row[contents - 1] = ratings
        return rows


@dataclass
class RequestTrace:
    times: np.ndarray
    vehicle_ids: np.ndarray
    content_ids: np.ndarray
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.times)


def _rating_columns(path):
    """The user, content, rating and timestamp columns of the rating file at path;
    errors name the path and line, and quote the repr of the line's source."""
    users, contents, ratings, stamps = [], [], [], []
    for lineno, fields, source in _parse_rows(path):
        try:
            u, c, r, t = int(fields[0]), int(fields[1]), int(fields[2]), int(fields[3])
        except ValueError:
            raise DataFormatError(f"non-integer field in {source!r}", lineno, path) from None
        if not (1 <= r <= 5):
            raise DataFormatError(f"rating {r} outside 1..5", lineno, path)
        if c < 1:
            raise DataFormatError(f"content id {c} must be >= 1", lineno, path)
        users.append(u); contents.append(c); ratings.append(r); stamps.append(t)
    return users, contents, ratings, stamps


def _parse_dat(lines, path):
    """Yield (line number, four fields, the stripped line) per non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = text.split("::")
        if len(parts) != 4:
            raise DataFormatError(f"expected 4 '::' fields, got {len(parts)}", lineno, path)
        yield lineno, parts, text


def _parse_csv(lines, path):
    """Yield (line number, four fields, the same fields) per non-blank row after the header."""
    import csv

    rows = csv.reader(lines)
    header = next(rows, None)
    if header is None:
        return
    header = [h.strip() for h in header]
    if header != ["user_id", "content_id", "rating", "timestamp"]:
        raise DataFormatError(f"unexpected CSV header {header}", 1, path)
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataFormatError(f"expected 4 columns, got {len(row)}", lineno, path)
        yield lineno, row, row


def _parse_rows(path):
    """Yield the (line number, fields, source) rows of a rating file, reading it line by
    line; ``.csv`` picks the CSV parser."""
    if not os.path.exists(path):
        raise ConfigError(f"rating file not found: {path}")
    with open(path, encoding="utf-8", errors="replace") as fh:
        yield from (_parse_csv if path.endswith(".csv") else _parse_dat)(fh, path)


def load_ratings(path: str) -> RatingMatrix:
    """Parse the rating file at path, or generate a ``synth://`` catalog.

    A ``.csv`` file is read as CSV with the header line; any other file as
    ``::`` lines.  A file's catalog size is its largest rated id; a
    ``synth://`` catalog's is the URI's ``contents``.
    """
    if path.startswith("synth://"):
        params = synth.parse_synth_uri(path)
        users, contents, ratings, stamps = synth.generate(
            params["users"], params["contents"], params["seed"])
        num_contents = params["contents"]
    else:
        users, contents, ratings, stamps = _rating_columns(path)
        num_contents = max(contents, default=0)
    return RatingMatrix(
        num_contents=num_contents,
        users=np.asarray(users, dtype=np.int32),
        contents=np.asarray(contents, dtype=np.int32),
        ratings=np.asarray(ratings, dtype=np.int8),
        timestamps=np.asarray(stamps, dtype=np.int64),
    )


def normalize_rating(r):
    """Map a 1..5 rating onto (0, 1]; zero stays the unrated marker."""
    return np.asarray(r, dtype=float) / 5.0


def user_rows(matrix: RatingMatrix) -> dict[int, np.ndarray]:
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


def user_train_vector(matrix: RatingMatrix, idx: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The K-wide vector of the entries ``idx``, written into ``out`` (all zeros) when given."""
    vec = np.zeros(matrix.num_contents) if out is None else out
    vec[matrix.contents[idx] - 1] = normalize_rating(matrix.ratings[idx])
    return vec


def public_rows(matrix: RatingMatrix, user_ids: np.ndarray) -> np.ndarray:
    """The (users, K) vectors of every rating of each of ``user_ids``, in that order.

    Only those users' entries are selected and indexed, and one zeroed
    array is filled row by row, as ``user_train_vector`` fills one.
    """
    public = matrix.select_users(user_ids)
    rows = user_rows(public)
    out = np.zeros((len(user_ids), matrix.num_contents))
    for row, uid in zip(out, user_ids):
        user_train_vector(public, rows[int(uid)], out=row)
    return out


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
    rows = user_rows(matrix)
    shuffled = users[rng.permutation(len(users))]
    locals_: list[LocalDataset] = []
    assignment: list[list[int]] = [[] for _ in range(num_vehicles)]
    for pos, user in enumerate(shuffled):
        assignment[pos % num_vehicles].append(int(user))
    for vid, user_list in enumerate(assignment):
        contents, ratings = [], []
        held: list[int] = []
        for user in user_list:
            idx = rows[user]
            n = len(idx)
            n_train = n if n < 2 else max(1, int(n * split_ratio))
            train = idx[:n_train]
            contents.append(matrix.contents[train])
            ratings.append(normalize_rating(matrix.ratings[train]))
            if n >= 2:
                held.extend(int(c) for c in matrix.contents[idx[n_train:]])
        locals_.append(LocalDataset(
            vehicle_id=vid,
            user_ids=user_list,
            num_contents=matrix.num_contents,
            train_contents=contents,
            train_ratings=ratings,
            held_out_requests=held,
        ))
    return locals_


def generate_requests(
    locals_: list[LocalDataset],
    duration: float,
    rng_for_vehicle,
) -> RequestTrace:
    """Emit each held-out item at a uniform instant in [0, duration).

    Every vehicle stays on the ring road for the whole run, so any instant
    lies inside some RSU's coverage.  rng_for_vehicle maps a vehicle id to
    its request stream, which keeps request times untouched by unrelated
    draws and by the speed setting.  A zero-length run drops every request.
    """
    times, vids, cids = [], [], []
    dropped = 0
    for local in locals_:
        held = local.held_out_requests
        if duration <= 0:
            dropped += len(held)
            continue
        times.extend(rng_for_vehicle(local.vehicle_id).uniform(0.0, duration, size=len(held)))
        vids.extend([local.vehicle_id] * len(held))
        cids.extend(held)
    times_arr = np.asarray(times)
    vids_arr = np.asarray(vids, dtype=np.int32)
    cids_arr = np.asarray(cids, dtype=np.int32)
    order = np.lexsort((cids_arr, vids_arr, times_arr))
    return RequestTrace(times_arr[order], vids_arr[order], cids_arr[order], dropped)
