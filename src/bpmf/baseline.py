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
from .model import LatentState, ModelHyperparams, RatingDataset, dot_buffers, row_dots


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


def mf_loss(state: LatentState, data: RatingDataset, buffers=None) -> float:
    """Sum of squared residuals over observed (normalized) ratings."""
    _check_shapes(state, data)
    with np.errstate(over="ignore"):
        dots = row_dots(state.u, state.v, data.user_idx, data.item_idx, buffers)
        return float(np.sum((data.rating - dots) ** 2))


def _check_shapes(state: LatentState, data: RatingDataset):
    if state.u.shape[0] != data.n_users or state.v.shape[0] != data.n_items:
        raise ValueError(
            f"state rows {state.u.shape[0]}/{state.v.shape[0]} do not match "
            f"dataset ({data.n_users}, {data.n_items})"
        )


def mf_epoch(state: LatentState, data: RatingDataset, cfg: MfConfig, buffers) -> LatentState:
    """One full-batch update: the U block first, then V against the new U."""
    _check_shapes(state, data)
    by_user, by_item = data.incidence
    u_rows, v_rows, _ = buffers
    ii, jj, rr = data.user_idx, data.item_idx, data.rating

    # overflow here fails LatentState's finite check, which mf_train reports as
    # a divergence error; each update reuses the rows its residuals gathered
    with np.errstate(over="ignore", invalid="ignore"):
        resid = rr - row_dots(state.u, state.v, ii, jj, buffers)
        u_new = state.u + cfg.alpha * (by_user @ np.multiply(resid[:, None], v_rows, out=v_rows))

        resid = rr - row_dots(u_new, state.v, ii, jj, buffers)
        v_new = state.v + cfg.alpha * (by_item @ np.multiply(resid[:, None], u_rows, out=u_rows))
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
    buffers = dot_buffers(data.n_ratings, hp.k)
    trace = []
    for epoch in range(cfg.epochs):
        try:  # an epoch raises ValueError only from the finite check on its update
            state = mf_epoch(state, data, cfg, buffers)
        except ValueError:
            raise DivergenceError("matrix factorization diverged (reduce alpha)", epoch) from None
        trace.append(mf_loss(state, data, buffers))
    return state, trace
