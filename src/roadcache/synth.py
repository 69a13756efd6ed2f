"""Synthetic rating data as the loader's columns.

Used when no real rating file is on disk.  Contents belong to genres,
genre popularity follows a power law over a shuffled id assignment, and
each user draws items from a personal genre mixture, so user fingerprints
carry recoverable structure: similar mixtures produce similar catalogs.

Addressed with a ``synth://`` path, e.g. ``synth://users=600,contents=3952,seed=1``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import substream

NUM_GENRES = 12
GENRE_CONCENTRATION = 0.25
POPULARITY_EXPONENT = 0.9
MIN_RATINGS = 30
MAX_RATINGS = 400
TIME_SPAN = 365 * 24 * 3600


def parse_synth_uri(uri: str) -> dict[str, int]:
    body = uri[len("synth://"):]
    params = {"users": 600, "contents": 3952, "seed": 1}
    if body:
        for piece in body.split(","):
            if "=" not in piece:
                raise ConfigError(f"bad synth parameter {piece!r} in {uri!r}")
            key, raw = piece.split("=", 1)
            key = key.strip()
            if key not in params:
                raise ConfigError(f"unknown synth parameter {key!r} in {uri!r}")
            try:
                params[key] = int(raw)
            except ValueError:
                raise ConfigError(f"synth parameter {key} must be an integer") from None
    if params["users"] < 1 or params["contents"] < NUM_GENRES:
        raise ConfigError(f"synth needs users >= 1 and contents >= {NUM_GENRES}")
    return params


def _user_stream(seed: int, user: int,
                 contents: int) -> tuple[np.random.Generator, np.ndarray, int]:
    """A user's substream, positioned after its mixture and count draws, and those draws."""
    rng = substream(seed, "synth", "user", user)
    mixture = rng.dirichlet(np.full(NUM_GENRES, GENRE_CONCENTRATION))
    count = int(np.clip(rng.lognormal(np.log(120.0), 0.45), MIN_RATINGS, MAX_RATINGS))
    return rng, mixture, min(count, contents)


def generate(users: int, contents: int, seed: int) -> tuple[np.ndarray, ...]:
    """Return the user, content, rating and timestamp columns, one row per rating.

    Dtypes are int32, int32, int8 and int64, as the text parser gives.  Each
    user's rows draw from that user's own substream and appear in a shuffled
    order, users in id order.  A first pass draws every user's rating count
    to size the four columns; the second remakes each substream, repeats
    those draws and writes the user's rows straight into its slice, so no
    per-user pieces are left behind on the heap.
    """
    base = substream(seed, "synth")
    genre_of = base.integers(0, NUM_GENRES, size=contents)
    # Popularity rank is assigned within each genre so every genre has a
    # well-requested head; ranks are shuffled onto ids.
    weight = np.empty(contents)
    for g in range(NUM_GENRES):
        members = np.flatnonzero(genre_of == g)
        ranks = base.permutation(len(members))
        weight[members] = (ranks + 1.0) ** (-POPULARITY_EXPONENT)

    ends = np.cumsum([_user_stream(seed, user, contents)[2] for user in range(1, users + 1)])
    total = int(ends[-1])
    user_col = np.empty(total, dtype=np.int32)
    content_col = np.empty(total, dtype=np.int32)
    rating_col = np.empty(total, dtype=np.int8)
    stamp_col = np.empty(total, dtype=np.int64)
    start = 0
    for user, end in zip(range(1, users + 1), ends):
        rng, mixture, count = _user_stream(seed, user, contents)
        # Gumbel-max sampling without replacement, biased by the user's
        # genre mixture times content popularity.
        score = np.log(weight * mixture[genre_of] + 1e-300)
        keys = score + rng.gumbel(size=contents)
        items = np.argpartition(-keys, count - 1)[:count]
        affinity = mixture[genre_of[items]] / mixture.max()
        noise = rng.normal(0.0, 0.7, size=count)
        ratings = np.clip(np.rint(3.2 + 1.5 * affinity + noise), 1, 5)
        stamps = np.sort(rng.integers(0, TIME_SPAN, size=count))
        order = rng.permutation(count)
        user_col[start:end] = user
        content_col[start:end] = items[order] + 1
        rating_col[start:end] = ratings[order]
        stamp_col[start:end] = stamps[order]
        start = end
    return user_col, content_col, rating_col, stamp_col
