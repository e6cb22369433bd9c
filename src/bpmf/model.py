"""Probabilistic rating model shared by every inference engine.

Latent user/item factors carry independent standard-normal priors; an
observed (normalized) rating is Gaussian around ``sigmoid(u_i . v_j)``
with variance ``sigma2``. All normalization constants are kept so log
densities are exact. Besides pure functions, this holds
:class:`PosteriorMean`, the running mean both Bayesian engines predict by.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BpmfError

LOG_2PI = float(np.log(2.0 * np.pi))
# gathered elements per side in a row_dots block: two float64 blocks (512 KB) fit in L2
BLOCK_ELEMENTS = 32768


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
    scale travels along so predictions can be mapped back. A (user, item)
    pair may repeat: every engine counts each appearance as one observation.
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

    @property
    def n_ratings(self) -> int:
        return int(self.rating.size)


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
        # the likelihood takes log(2 pi sigma2) and divides by sigma2; a float division gives inf
        if not (self.sigma2 > 0 and np.isfinite(2.0 * np.pi * float(self.sigma2))
                and np.isfinite(1.0 / float(self.sigma2))):
            raise ValueError("sigma2 must be positive, with 2 * pi * sigma2 and 1 / sigma2 finite")


@np.errstate(over="ignore")  # a decorator costs half of what a with block costs per call
def sigmoid(x, out=None):
    """Logistic function ``1 / (1 + exp(-x))`` in float64, elementwise, computed in
    place in ``out`` (which may be ``x``) or in one new array; a scalar gives a
    scalar. Below x = -709, exp(-x) overflows to inf, which gives exactly 0."""
    out = np.negative(x, out, dtype=np.float64)
    if not isinstance(out, np.ndarray):
        return 1.0 / (1.0 + np.exp(out))
    np.exp(out, out)
    np.add(out, 1.0, out)
    return np.reciprocal(out, out)


def denormalize_rating(r_star, scale: RatingScale):
    """Map a normalized rating back onto the original scale; input must lie in [0, 1]."""
    r_star = np.asarray(r_star, dtype=np.float64)
    if np.any(r_star < 0.0) or np.any(r_star > 1.0):
        raise ValueError("normalized rating outside [0, 1]")
    out = scale.span * r_star + scale.r_min
    return float(out) if out.ndim == 0 else out


def dot_buffers(n: int, k: int):
    """Scratch arrays for :func:`row_dots`: two gather blocks of
    ``max(1, min(n, BLOCK_ELEMENTS // k))`` rows and n dots."""
    rows = max(1, min(n, BLOCK_ELEMENTS // k))
    return np.empty((rows, k)), np.empty((rows, k)), np.empty(n)


def row_dots(a, b, a_idx, b_idx, buffers=None):
    """``a[a_idx] . b[b_idx]``, one row dot per index pair: the likelihood
    kernel of every engine. ``np.take(mode="clip")`` clamps a bad index
    silently, so both index arrays are range-checked first; then the pairs
    are gathered into ``buffers`` (from :func:`dot_buffers`) and dotted a
    block at a time, so the gathered rows stay in cache and no n x k array
    is written. A loop that passes its buffers allocates nothing."""
    rows_a, rows_b, out = buffers or dot_buffers(len(a_idx), a.shape[1])
    for x, idx in ((a, a_idx), (b, b_idx)):
        if len(idx) and (idx.min() < 0 or idx.max() >= len(x)):
            raise IndexError("row index out of range")
    step = len(rows_a)
    for lo in range(0, len(a_idx), step):
        block = slice(lo, lo + step)
        m = len(out[block])
        np.take(a, a_idx[block], axis=0, out=rows_a[:m], mode="clip")
        np.take(b, b_idx[block], axis=0, out=rows_b[:m], mode="clip")
        np.einsum("ij,ij->i", rows_a[:m], rows_b[:m], out=out[block])
    return out


def rating_residuals(a, b, a_idx, b_idx, rating, buffers=None):
    """``rating - sigmoid(a[a_idx] . b[b_idx])``, written into the dots buffer.

    The row dot is symmetric, so the same call serves (U, V) and (V, U).
    """
    out = row_dots(a, b, a_idx, b_idx, buffers)
    return np.subtract(rating, sigmoid(out, out=out), out=out)


def rating_patterns(data: RatingDataset):
    """Each side's rating pattern, users x items then items x users: two ``coo_matrix``
    sharing one pair of index arrays, whose entries are the ratings in rating order.
    A training loop builds its own pair once. Its scatters leave their last weights
    there, which keeps VI's heap top between epochs (freeing them at once gave 19x
    the page faults, VI 14% slower), and those weights are freed with the loop."""
    from scipy import sparse  # imported here: MCMC and the data layer never scatter

    by_user = sparse.coo_matrix((data.rating, (data.user_idx, data.item_idx)),
                                shape=(data.n_users, data.n_items))
    by_item = sparse.coo_matrix((data.rating, (by_user.col, by_user.row)),
                                shape=(data.n_items, data.n_users), copy=False)
    return by_user, by_item


def scatter_rows(side, weights, x):
    """For each own row of ``side`` (a pattern from :func:`rating_patterns`),
    the sum over its ratings r, in rating order, of ``weights[r] * x[other_r]``:
    the terms and order of a 0/1 incidence matrix times the per-rating products,
    bit for bit, with no n_ratings array written. It sets the pattern's data to
    ``weights``, so only the pattern's owner may scatter through it."""
    side.data = weights
    return side @ x


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
        dots = row_dots(state.u, state.v, self.user_idx, self.item_idx, self._buffers)
        self.total += sigmoid(dots, out=dots)
        self.count += 1

    def ratings(self, scale: RatingScale):
        if not self.count:
            raise BpmfError("cannot predict from zero posterior samples")
        return denormalize_rating(self.total / self.count, scale)
