"""Tests for the synthetic ratings generator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bpmf.synthetic import _sample_pairs

ROOT = Path(__file__).resolve().parent.parent


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


def in_child(code):
    """Run ``code`` after importing ``synthesize_ratings`` in a fresh
    interpreter, under a timeout, so a request that never ends fails the test
    instead of hanging the suite; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", f"from bpmf.synthetic import synthesize_ratings\n{code}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# every pair of the matrix; the pair loop's target, 3% above the request,
# once exceeded the number of pairs that exist and the loop never ended
@pytest.mark.parametrize("shape", [(10, 10, 100), (30, 200, 6000)])
def test_dense_request_fills_the_matrix(shape):
    n_users, n_items, n_ratings = shape
    out = in_child(f"u, m, r = synthesize_ratings{shape}\n"
                   f"print(len({{*zip(u.tolist(), m.tolist())}}), u.min(), u.max(), m.min(), m.max())")
    assert out.split() == [str(n_ratings), "1", str(n_users), "1", str(n_items)]


# the greedy trim once stranded a surplus on some of these ((5, 4, 5), (5, 5, 5),
# (10, 10, 10) and (10, 10, 11)) and raised RuntimeError
def test_every_feasible_count_returns():
    shapes = [(n_users, n_items, n_ratings)
              for n_users in range(1, 6) for n_items in range(1, 6)
              for n_ratings in range(max(n_users, n_items), n_users * n_items + 1)]
    shapes += [(10, 10, 10), (10, 10, 11)]
    out = in_child(f"for n_users, n_items, n_ratings in {shapes}:\n"
                   f"    u, m, r = synthesize_ratings(n_users, n_items, n_ratings)\n"
                   f"    print(len(u), len({{*zip(u.tolist(), m.tolist())}}),\n"
                   f"          sorted({{*u.tolist()}}) == list(range(1, n_users + 1)),\n"
                   f"          sorted({{*m.tolist()}}) == list(range(1, n_items + 1)))")
    expected = [f"{n_ratings} {n_ratings} True True" for _, _, n_ratings in shapes]
    assert out.splitlines() == expected


# fewer ratings than users or than movies, or more than there are pairs
@pytest.mark.parametrize("shape", [(5, 400, 300), (400, 5, 300), (10, 10, 101)])
def test_impossible_request_is_a_value_error(shape):
    out = in_child(f"try:\n    synthesize_ratings{shape}\nexcept ValueError as error:\n"
                   f"    print(error)")
    assert out.startswith("cannot draw ")
