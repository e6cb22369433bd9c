"""Probabilistic rating model shared by every inference engine.

Latent user/item factors carry independent standard-normal priors; an
observed (normalized) rating is Gaussian around ``sigmoid(u_i . v_j)``
with variance ``sigma2``. All normalization constants are kept so log
densities are exact. Besides pure functions, this holds
:class:`PosteriorMean`, the running mean both Bayesian engines predict by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import BpmfError

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RatingScale:
    """Original rating scale {r_min, r_min+step, ..., r_max}.

    ``r_min`` is 1 for classic integer ratings and 0.5 for half-star data.
    """

    r_max: int
    r_min: float = 1.0

    def __post_init__(self):
        if self.r_max < 2:
            raise ValueError(f"r_max must be >= 2, got {self.r_max}")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(f"r_min must lie in (0, r_max), got {self.r_min}")

    @property
    def span(self) -> float:
        return self.r_max - self.r_min


@dataclass
class RatingDataset:
    """Sparse observed ratings with dense 0-based indices.

    ``rating`` holds values already normalized to [0, 1]; the original
    scale travels along so predictions can be mapped back.
    """

    n_users: int
    n_items: int
    user_idx: np.ndarray
    item_idx: np.ndarray
    rating: np.ndarray
    scale: RatingScale

    def __post_init__(self):
        self.user_idx = np.asarray(self.user_idx, dtype=np.int64)
        self.item_idx = np.asarray(self.item_idx, dtype=np.int64)
        self.rating = np.asarray(self.rating, dtype=np.float64)
        if not (self.user_idx.shape == self.item_idx.shape == self.rating.shape):
            raise ValueError("user_idx, item_idx, rating must have equal length")
        if self.user_idx.size:
            if self.user_idx.min() < 0 or self.user_idx.max() >= self.n_users:
                raise ValueError("user index out of range")
            if self.item_idx.min() < 0 or self.item_idx.max() >= self.n_items:
                raise ValueError("item index out of range")
            if self.rating.min() < 0.0 or self.rating.max() > 1.0:
                raise ValueError("normalized ratings must lie in [0, 1]")
            # np.sort, not np.unique: on numpy 2.4 np.unique is ~80x slower
            keys = np.sort(self.user_idx * self.n_items + self.item_idx)
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate (user, item) pair in dataset")

    @property
    def n_ratings(self) -> int:
        return int(self.rating.size)

    @cached_property
    def incidence(self):
        """CSR scatter pair, built on first use and kept (so the indices must not
        change): ``by_user @ x`` sums per-rating rows of ``x`` by user, ``by_item @ x`` by item."""
        ones = np.ones(self.n_ratings)
        arange = np.arange(self.n_ratings)
        by_user = sparse.csr_matrix(
            (ones, (self.user_idx, arange)), shape=(self.n_users, self.n_ratings)
        )
        by_item = sparse.csr_matrix(
            (ones, (self.item_idx, arange)), shape=(self.n_items, self.n_ratings)
        )
        return by_user, by_item


@dataclass
class LatentState:
    """A concrete (U, V) factor pair: U is N x K, V is M x K."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.ndim != 2 or self.v.ndim != 2 or self.u.shape[1] != self.v.shape[1]:
            raise ValueError("u and v must be 2-D with matching latent width")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise ValueError("latent factors must be finite")

    @property
    def k(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class ModelHyperparams:
    k: int
    sigma2: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # the likelihood's normalizer takes log(2 pi sigma2), which must not overflow
        if not (self.sigma2 > 0 and np.isfinite(2.0 * np.pi * float(self.sigma2))):
            raise ValueError("sigma2 must be positive, with 2 * pi * sigma2 finite")


def sigmoid(x):
    """Numerically stable logistic function, elementwise on arrays."""
    return expit(x)


def denormalize_rating(r_star, scale: RatingScale):
    """Map a normalized rating back onto the original scale; input must lie in [0, 1]."""
    r_star = np.asarray(r_star, dtype=np.float64)
    if np.any(r_star < 0.0) or np.any(r_star > 1.0):
        raise ValueError("normalized rating outside [0, 1]")
    out = scale.span * r_star + scale.r_min
    return float(out) if out.ndim == 0 else out


def dot_buffers(n: int, k: int):
    """Scratch arrays for :func:`row_dots`: two n x k row gathers and n dots."""
    return np.empty((n, k)), np.empty((n, k)), np.empty(n)


def row_dots(a, b, a_idx, b_idx, buffers=None):
    """``a[a_idx] . b[b_idx]``, one row dot per index pair.

    ``buffers`` (from :func:`dot_buffers`), if given, receive the two
    row gathers and the dots, so that a loop calling this allocates
    nothing: at MovieLens-small size a fresh 5 MB gather per call costs
    about as much in page faults as the arithmetic. After the call the
    buffers still hold the gathered rows, for callers that reuse them.
    ``mode="clip"`` keeps ``np.take`` with ``out`` on its unbuffered
    path, about three times faster than fancy indexing; since it would
    clamp a bad index silently, indices are range-checked first.
    """
    if len(a_idx) and (min(a_idx.min(), b_idx.min()) < 0
                       or a_idx.max() >= len(a) or b_idx.max() >= len(b)):
        raise IndexError("row index out of range")
    if buffers is None:
        buffers = dot_buffers(len(a_idx), a.shape[1])
    rows_a, rows_b, out = buffers
    np.take(a, a_idx, axis=0, out=rows_a, mode="clip")
    np.take(b, b_idx, axis=0, out=rows_b, mode="clip")
    return np.einsum("ij,ij->i", rows_a, rows_b, out=out)


def rating_residuals(a, b, a_idx, b_idx, rating, buffers=None):
    """``rating - sigmoid(a[a_idx] . b[b_idx])``, written into the dots buffer.

    The row dot is symmetric, so the same call serves (U, V) and (V, U).
    """
    out = row_dots(a, b, a_idx, b_idx, buffers)
    expit(out, out=out)
    return np.subtract(rating, out, out=out)


def residual_log_likelihood(resid, sigma2: float) -> float:
    """Gaussian log density of a vector of rating residuals, constants included."""
    return float(
        -0.5 * resid.size * np.log(2.0 * np.pi * sigma2)
        - np.sum(resid**2) / (2.0 * sigma2)
    )


def log_likelihood_sum(u, v, data: RatingDataset, sigma2: float, buffers=None) -> float:
    """Sum of per-entry log likelihoods over the observed ratings."""
    resid = rating_residuals(u, v, data.user_idx, data.item_idx, data.rating, buffers)
    return residual_log_likelihood(resid, sigma2)


def log_joint(state: LatentState, data: RatingDataset, hp: ModelHyperparams) -> float:
    """Exact log of prior times likelihood (all constants included)."""
    if state.u.shape != (data.n_users, hp.k) or state.v.shape != (data.n_items, hp.k):
        raise ValueError(
            f"state shapes {state.u.shape}/{state.v.shape} do not match "
            f"dataset ({data.n_users}, {data.n_items}) with k={hp.k}"
        )
    log_prior = (
        -0.5 * (np.sum(state.u**2) + np.sum(state.v**2))
        - (data.n_users + data.n_items) * (hp.k / 2.0) * LOG_2PI
    )
    return float(log_prior + log_likelihood_sum(state.u, state.v, data, hp.sigma2))


class PosteriorMean:
    """Running posterior-predictive mean of sigmoid(u.v) for fixed pairs.

    ``add`` takes one posterior sample; ``ratings`` is the mean over the
    samples added so far, on the original rating scale. Each sample is
    summed as it is added, so none needs to be kept.
    """

    def __init__(self, user_idx, item_idx):
        self.user_idx, self.item_idx = user_idx, item_idx
        self.total = np.zeros(user_idx.shape, dtype=np.float64)
        self.count = 0
        self._buffers = None

    def add(self, state: LatentState):
        if self._buffers is None:
            self._buffers = dot_buffers(self.user_idx.size, state.k)
        self.total += sigmoid(row_dots(state.u, state.v, self.user_idx, self.item_idx,
                                       self._buffers))
        self.count += 1

    def ratings(self, scale: RatingScale):
        if not self.count:
            raise BpmfError("cannot predict from zero posterior samples")
        return denormalize_rating(self.total / self.count, scale)
