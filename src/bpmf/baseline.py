"""Classical matrix factorization baseline trained by gradient descent.

No sigmoid and no priors here: the predicted (normalized) rating is the
raw dot product, and training minimizes the plain sum of squared
residuals over observed entries. Serves as a point-estimate anchor for
the Bayesian engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .model import (LatentState, ModelHyperparams, RatingDataset, dot_buffers, rating_patterns,
                    row_dots, scatter_rows)


@dataclass(frozen=True)
class MfConfig:
    alpha: float = 0.002
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def mf_residual(state: LatentState, data: RatingDataset):
    """:func:`row_dots` buffers whose dots hold ``rating - U[user_idx] . V[item_idx]``
    of ``state``: the residual :func:`mf_epoch` keeps current and :func:`mf_loss` reads."""
    _check_shapes(state, data)
    buffers = dot_buffers(data.n_ratings, state.k)
    _residual(state.u, state.v, data, buffers)
    return buffers


def _residual(u, v, data: RatingDataset, buffers):
    np.subtract(data.rating, row_dots(u, v, data.user_idx, data.item_idx, buffers), out=buffers[2])


def mf_loss(buffers) -> float:
    """Sum of squared residuals over observed (normalized) ratings."""
    with np.errstate(over="ignore"):
        return float(np.sum(buffers[2] ** 2))


def _check_shapes(state: LatentState, data: RatingDataset):
    if state.u.shape[0] != data.n_users or state.v.shape[0] != data.n_items:
        raise ValueError(
            f"state rows {state.u.shape[0]}/{state.v.shape[0]} do not match "
            f"dataset ({data.n_users}, {data.n_items})"
        )


def mf_epoch(state: LatentState, data: RatingDataset, cfg: MfConfig, buffers,
             patterns) -> LatentState:
    """One full-batch update: the U block first, then V against the new U, scattered
    through ``patterns`` (:func:`rating_patterns` of ``data``). ``buffers`` must be
    :func:`mf_residual` of ``state``; each block recomputes the residual with one
    :func:`row_dots`, so it ends as that of the result."""
    _check_shapes(state, data)
    by_user, by_item = patterns
    resid = buffers[2]
    # overflow fails LatentState's finite check, which mf_train reports as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        u_new = state.u + cfg.alpha * scatter_rows(by_user, resid, state.v)
        _residual(u_new, state.v, data, buffers)
        v_new = state.v + cfg.alpha * scatter_rows(by_item, resid, u_new)
        _residual(u_new, v_new, data, buffers)
    return LatentState(u_new, v_new)


def init_state(n_users: int, n_items: int, k: int, cfg: MfConfig) -> LatentState:
    rng = np.random.default_rng(cfg.seed)
    return LatentState(
        rng.normal(0.0, 0.1, size=(n_users, k)),
        rng.normal(0.0, 0.1, size=(n_items, k)),
    )


def mf_train(data: RatingDataset, hp: ModelHyperparams, cfg: MfConfig):
    """Train from a seeded random init; returns (state, per-epoch loss trace).

    Takes the factor width from ``hp.k``; the model noise ``hp.sigma2``
    plays no part in a prior-free squared loss.
    """
    state = init_state(data.n_users, data.n_items, hp.k, cfg)
    buffers, patterns = mf_residual(state, data), rating_patterns(data)
    trace = []
    for epoch in range(cfg.epochs):
        try:  # an epoch raises ValueError only from the finite check on its update
            state = mf_epoch(state, data, cfg, buffers, patterns)
        except ValueError:
            raise DivergenceError("matrix factorization diverged (reduce alpha)", epoch) from None
        trace.append(mf_loss(buffers))
    return state, trace
