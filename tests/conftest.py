"""Shared fixtures: small in-memory datasets and the full-size ratings file,
and the closed-form oracles that tests compare the engines against.

The full-size fixture prefers a real MovieLens-small ``ratings.csv`` if
the BPMF_MOVIELENS_CSV environment variable points at one; otherwise it
generates (and caches) a surrogate file with the same shape: 610 users,
9,724 movies, 100,836 half-star ratings.
"""

import copy
import os
from pathlib import Path

import numpy as np
import pytest

from bpmf.data import build_dataset, load_ratings
from bpmf.mcmc import run_chain
from bpmf.model import RatingDataset, RatingScale, denormalize_rating, sigmoid
from bpmf.synthetic import write_ratings_csv

CACHE_DIR = Path(__file__).resolve().parent.parent / ".cache"


@pytest.fixture(scope="session")
def ratings_csv_path(tmp_path_factory):
    """Path to a MovieLens-small-shaped ratings file."""
    override = os.environ.get("BPMF_MOVIELENS_CSV")
    if override:
        return Path(override)
    cached = CACHE_DIR / "surrogate_ratings.csv"
    if cached.exists():
        return cached
    try:
        CACHE_DIR.mkdir(exist_ok=True)
        return Path(write_ratings_csv(cached))
    except OSError:
        path = tmp_path_factory.mktemp("data") / "ratings.csv"
        return Path(write_ratings_csv(path))


@pytest.fixture(scope="session")
def full_dataset(ratings_csv_path):
    """The full-size file parsed and densified once per session."""
    raw, scale = load_ratings(ratings_csv_path)
    data, maps = build_dataset(raw, scale)
    return data, maps, scale


def make_dataset(n_users, n_items, n_ratings, seed=0, k_true=2):
    """Small random dataset with a planted low-rank signal, for unit tests."""
    rng = np.random.default_rng(seed)
    total = n_users * n_items
    if n_ratings > total:
        raise ValueError("more ratings than cells")
    flat = rng.choice(total, size=n_ratings, replace=False)
    user_idx = flat // n_items
    item_idx = flat % n_items
    u = rng.normal(0.0, 1.0, size=(n_users, k_true))
    v = rng.normal(0.0, 1.0, size=(n_items, k_true))
    dots = np.einsum("ij,ij->i", u[user_idx], v[item_idx])
    rating = np.clip(1.0 / (1.0 + np.exp(-dots)) + rng.normal(0, 0.05, n_ratings), 0, 1)
    return RatingDataset(
        n_users=n_users,
        n_items=n_items,
        user_idx=user_idx,
        item_idx=item_idx,
        rating=rating,
        scale=RatingScale(5),
    )


def retained_states(data, hp, cfg):
    """Run a chain and keep a copy of each state it passes to ``on_sample``;
    returns (trace, states)."""
    states = []
    trace = run_chain(data, hp, cfg, lambda state: states.append(copy.deepcopy(state)))
    return trace, states


@pytest.fixture
def tiny_dataset():
    """One user, one item, one rating r*=0.8 on a 1..5 scale."""
    return RatingDataset(
        n_users=1,
        n_items=1,
        user_idx=np.array([0]),
        item_idx=np.array([0]),
        rating=np.array([0.8]),
        scale=RatingScale(5),
    )


@pytest.fixture
def empty_dataset():
    """Two users, two items, no observations."""
    return RatingDataset(
        n_users=2,
        n_items=2,
        user_idx=np.array([], dtype=int),
        item_idx=np.array([], dtype=int),
        rating=np.array([]),
        scale=RatingScale(5),
    )


def log_likelihood_entry(u_i, v_j, r, sigma2) -> float:
    """Log density of one normalized rating given its two latent rows."""
    u_i = np.asarray(u_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    if u_i.shape != v_j.shape:
        raise ValueError("u_i and v_j must have the same length")
    mean = sigmoid(float(u_i @ v_j))
    return float(-0.5 * np.log(2.0 * np.pi * sigma2) - (r - mean) ** 2 / (2.0 * sigma2))


def predict_point(u_i, v_j, scale: RatingScale) -> float:
    """Point prediction on the original scale for one latent row pair.

    The Gaussian predictive is centered at sigmoid(u.v), so its mode is
    the mean and no search is needed.
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    if u_i.shape != v_j.shape:
        raise ValueError("u_i and v_j must have the same length")
    return float(denormalize_rating(sigmoid(float(u_i @ v_j)), scale))


def discrete_mh_kernel(target: np.ndarray, proposal: np.ndarray) -> np.ndarray:
    """Exact MH transition matrix for a finite-state target.

    ``proposal[a, b]`` is q(b | a); the target need not be normalized.
    Off-diagonal: T[a, b] = q(b|a) * min(1, (g_b q(a|b)) / (g_a q(b|a)));
    the diagonal absorbs the rejection mass. Used to verify detailed
    balance and stationarity in closed form.
    """
    target = np.asarray(target, dtype=np.float64)
    proposal = np.asarray(proposal, dtype=np.float64)
    n = target.size
    kernel = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a == b or proposal[a, b] == 0.0:
                continue
            ratio = (target[b] * proposal[b, a]) / (target[a] * proposal[a, b])
            kernel[a, b] = proposal[a, b] * min(1.0, ratio)
        kernel[a, a] = 1.0 - kernel[a].sum()
    return kernel
