"""Deterministic synthetic ratings files with MovieLens-like structure.

Used by the test suite and demos when the real MovieLens-small archive
is not on disk: the generated file has the same header, the same user /
movie / rating counts, a half-star 0.5-5.0 scale, long-tailed user
activity and item popularity, and a genuine low-rank signal so that
latent-factor models have something to learn.
"""

from __future__ import annotations

import csv

import numpy as np

from .model import row_dots

ML_SMALL_USERS = 610
ML_SMALL_MOVIES = 9_724
ML_SMALL_RATINGS = 100_836
LATENT_DIM = 4  # rank of the generated interaction


def _sample_pairs(rng, n_users, n_items, n_ratings):
    """Unique (user, movie) pairs with heavy-tailed marginals, every user
    and movie covered, exactly n_ratings pairs."""
    if not max(n_users, n_items) <= n_ratings <= n_users * n_items:
        raise ValueError(f"cannot draw {n_ratings} distinct pairs that cover "
                         f"{n_users} users and {n_items} movies")
    user_w = rng.lognormal(0.0, 1.0, n_users)
    user_w /= user_w.sum()
    item_w = rng.lognormal(0.0, 1.4, n_items)
    item_w /= item_w.sum()

    keys = np.empty(0, dtype=np.int64)
    while keys.size < min(int(n_ratings * 1.03), n_users * n_items):
        uu = rng.choice(n_users, size=2 * n_ratings, p=user_w)
        mm = rng.choice(n_items, size=2 * n_ratings, p=item_w)
        # sorted distinct keys by np.sort and a neighbour compare, not
        # np.unique: on numpy 2.4 np.unique takes a far slower hash path
        keys = np.sort(np.concatenate([keys, uu * n_items + mm]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    keys = keys[rng.permutation(keys.size)]

    uu, mm = keys // n_items, keys % n_items
    present = set(keys.tolist())
    extra_u, extra_m = [], []
    for user in np.flatnonzero(np.bincount(uu, minlength=n_users) == 0):
        while True:
            movie = rng.choice(n_items, p=item_w)
            if user * n_items + movie not in present:
                present.add(user * n_items + movie)
                extra_u.append(user)
                extra_m.append(movie)
                break
    for movie in np.flatnonzero(np.bincount(mm, minlength=n_items) == 0):
        while True:
            user = rng.choice(n_users, p=user_w)
            if user * n_items + movie not in present:
                present.add(user * n_items + movie)
                extra_u.append(user)
                extra_m.append(movie)
                break
    uu = np.concatenate([uu, np.asarray(extra_u, dtype=np.int64)])
    mm = np.concatenate([mm, np.asarray(extra_m, dtype=np.int64)])

    # trim surplus pairs without orphaning any user or movie
    user_counts = np.bincount(uu, minlength=n_users)
    item_counts = np.bincount(mm, minlength=n_items)
    surplus = uu.size - n_ratings
    keep = np.ones(uu.size, dtype=bool)
    for t in rng.permutation(uu.size):
        if surplus == 0:
            break
        if user_counts[uu[t]] > 1 and item_counts[mm[t]] > 1:
            keep[t] = False
            user_counts[uu[t]] -= 1
            item_counts[mm[t]] -= 1
            surplus -= 1
    if surplus:
        # the trim never swaps a pair back, so it can strand a surplus (10 ratings
        # on 10 x 10 must form a permutation): cover every user and movie with
        # max(n_users, n_items) distinct pairs, then fill up with drawn pairs
        t = np.arange(max(n_users, n_items))
        cover = (rng.permutation(n_users)[t % n_users] * n_items
                 + rng.permutation(n_items)[t % n_items])
        drawn = uu[keep] * n_items + mm[keep]
        keys = np.concatenate([cover, drawn[~np.isin(drawn, cover)][:n_ratings - cover.size]])
        return keys // n_items, keys % n_items
    return uu[keep], mm[keep]


def synthesize_ratings(n_users=ML_SMALL_USERS, n_items=ML_SMALL_MOVIES,
                       n_ratings=ML_SMALL_RATINGS, seed=20240):
    """Draw (user_ids, movie_ids, ratings) arrays; IDs are 1-based.

    Ratings come from user/item biases plus a rank-``LATENT_DIM``
    interaction pushed through a sigmoid, with observation noise, then
    rounded to the nearest half star in [0.5, 5.0].
    """
    rng = np.random.default_rng(seed)
    uu, mm = _sample_pairs(rng, n_users, n_items, n_ratings)

    user_bias = rng.normal(0.0, 0.5, n_users)
    item_bias = rng.normal(0.0, 1.2, n_items)
    u = rng.normal(0.0, 1.0, (n_users, LATENT_DIM))
    v = rng.normal(0.0, 1.0, (n_items, LATENT_DIM))
    logit = (
        user_bias[uu]
        + item_bias[mm]
        + row_dots(u, v, uu, mm) / np.sqrt(LATENT_DIM)
    )
    value = 0.5 + 4.5 / (1.0 + np.exp(-logit)) + rng.normal(0.0, 0.35, uu.size)
    rating = np.clip(np.round(value * 2.0) / 2.0, 0.5, 5.0)
    return uu + 1, mm + 1, rating


def write_ratings_csv(path, n_users=ML_SMALL_USERS, n_items=ML_SMALL_MOVIES,
                      n_ratings=ML_SMALL_RATINGS, seed=20240):
    """Write a MovieLens-format ratings.csv; returns the path."""
    user_ids, movie_ids, ratings = synthesize_ratings(n_users, n_items, n_ratings, seed)
    rng = np.random.default_rng(seed + 1)
    timestamps = rng.integers(900_000_000, 1_600_000_000, user_ids.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userId", "movieId", "rating", "timestamp"])
        for row in zip(user_ids, movie_ids, ratings, timestamps):
            r = row[2]
            r_text = str(int(r)) if r == int(r) else str(r)
            writer.writerow([row[0], row[1], r_text, row[3]])
    return path
