"""Tests for the synthetic ratings generator."""

import numpy as np
import pytest

from bpmf.synthetic import _sample_pairs


def sample_pairs_reference(rng, n_users, n_items, n_ratings):
    """``_sample_pairs`` as first written: ``np.unique`` dedupes the keys
    each round and finds the users and movies no pair covers."""
    user_w = rng.lognormal(0.0, 1.0, n_users)
    user_w /= user_w.sum()
    item_w = rng.lognormal(0.0, 1.4, n_items)
    item_w /= item_w.sum()

    keys = np.empty(0, dtype=np.int64)
    while keys.size < int(n_ratings * 1.03):
        uu = rng.choice(n_users, size=2 * n_ratings, p=user_w)
        mm = rng.choice(n_items, size=2 * n_ratings, p=item_w)
        keys = np.unique(np.concatenate([keys, uu * n_items + mm]))
    keys = keys[rng.permutation(keys.size)]

    uu, mm = keys // n_items, keys % n_items
    present = set(keys.tolist())
    extra_u, extra_m = [], []
    for user in np.setdiff1d(np.arange(n_users), np.unique(uu)):
        while True:
            movie = rng.choice(n_items, p=item_w)
            if user * n_items + movie not in present:
                present.add(user * n_items + movie)
                extra_u.append(user)
                extra_m.append(movie)
                break
    for movie in np.setdiff1d(np.arange(n_items), np.unique(mm)):
        while True:
            user = rng.choice(n_users, p=user_w)
            if user * n_items + movie not in present:
                present.add(user * n_items + movie)
                extra_u.append(user)
                extra_m.append(movie)
                break
    uu = np.concatenate([uu, np.asarray(extra_u, dtype=np.int64)])
    mm = np.concatenate([mm, np.asarray(extra_m, dtype=np.int64)])

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
    return uu[keep], mm[keep]


# the last two shapes leave many users, then many movies, out of the
# first draws, so both covering loops run too
@pytest.mark.parametrize("shape,seed", [((200, 300, 9000), 0), ((2500, 60, 6000), 5),
                                        ((150, 4000, 8000), 20240)])
def test_sample_pairs_matches_the_unique_reference(shape, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    uu, mm = _sample_pairs(rng, *shape)
    ref_uu, ref_mm = sample_pairs_reference(ref_rng, *shape)
    assert uu.dtype == ref_uu.dtype and mm.dtype == ref_mm.dtype
    np.testing.assert_array_equal(uu, ref_uu)
    np.testing.assert_array_equal(mm, ref_mm)
    # the draws that follow (biases, factors, noise) stay the same
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    n_users, n_items, n_ratings = shape
    assert uu.size == n_ratings
    assert np.unique(uu * n_items + mm).size == n_ratings
    assert np.all(np.bincount(uu, minlength=n_users) > 0)
    assert np.all(np.bincount(mm, minlength=n_items) > 0)
