"""Metropolis-Hastings sampler for the factor posterior.

Two kernels, both with symmetric Gaussian random-walk proposals, so the
proposal densities cancel in every acceptance ratio:

- ``"rowwise"`` (row-blocked Metropolis-within-Gibbs; the chain that
  ``McmcConfig()`` and ``bpmf run`` train): given V the user rows are
  conditionally independent, and so are the item rows given U. A sweep
  proposes every user row at once and accepts or rejects each row with
  its own exact MH ratio (a per-row ``bincount`` of cached per-rating
  squared residuals plus the row's prior term), then does the same for
  the item rows given the new U.
- ``"joint"`` (the paper's kernel, ``McmcConfig(proposal="joint",
  proposal_std=...)`` with a step chosen for the problem size): one
  proposal moves every entry of (U, V) and one accept/reject decision
  keeps or drops it, too few decisions to concentrate the ~10^5 coupled
  coordinates of a MovieLens-sized model.

Each step (a sweep, for ``"rowwise"``) records the exact log joint of
the retained state. After burn-in, every ``thin``-th state is handed to
a callable as the chain runs; the chain keeps none of them. Predictions
average sigmoid(u.v) over them by passing
:meth:`bpmf.model.PosteriorMean.add` as that callable: the same running
mean the VI engine predicts through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BpmfError, DivergenceError
from .model import (
    LatentState,
    ModelHyperparams,
    RatingDataset,
    dot_buffers,
    log_joint,
    rating_residuals,
)

PROPOSALS = ("joint", "rowwise")


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings; the defaults are the chain ``bpmf run`` trains.

    A ``burn_in`` left as None is 60% of the steps; a ``thin`` left as
    None retains about 100 samples, which bounds the cost of averaging
    over them.
    """

    n_steps: int = 20_000
    burn_in: int | None = None
    thin: int | None = None
    proposal_std: float = 0.2
    seed: int = 0
    proposal: str = "rowwise"

    def __post_init__(self):
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", int(0.6 * self.n_steps))
        if self.thin is None:
            object.__setattr__(self, "thin", max(1, (self.n_steps - self.burn_in) // 100))
        if self.proposal not in PROPOSALS:
            raise ValueError(f"proposal must be one of {PROPOSALS}, got {self.proposal!r}")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not 0 < self.proposal_std < np.inf:
            raise ValueError("proposal_std must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ChainTrace:
    """Per-step bookkeeping of a chain.

    ``accepted`` holds one entry per step: a bool for the joint kernel,
    the fraction of row proposals accepted in that sweep for the
    row-blocked one. ``accept_count`` is their sum (an int or a float),
    so ``acceptance_rate`` is a rate in [0, 1] for both.
    """

    energies: np.ndarray
    accepted: np.ndarray

    @property
    def accept_count(self):
        return np.sum(self.accepted).item()

    @property
    def step_count(self) -> int:
        return int(self.accepted.size)

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.step_count if self.step_count else 0.0


def acceptance_ratio(log_g_current: float, log_g_proposed: float) -> float:
    """min(1, g(z')/g(z)) for a symmetric proposal, from log densities."""
    return float(min(1.0, np.exp(min(0.0, log_g_proposed - log_g_current))))


def mh_step(state: LatentState, data: RatingDataset, hp: ModelHyperparams,
            cfg: McmcConfig, rng, log_g_current: float):
    """One Metropolis-Hastings step from a state whose log joint is ``log_g_current``.

    Draw order is fixed (U noise, V noise, then the acceptance uniform)
    so a seeded generator reproduces the chain exactly. Returns
    (retained state, accepted flag, log_joint of the retained state).
    """
    proposed = LatentState(
        state.u + rng.normal(0.0, cfg.proposal_std, size=state.u.shape),
        state.v + rng.normal(0.0, cfg.proposal_std, size=state.v.shape),
    )
    log_g_proposed = log_joint(proposed, data, hp)
    if rng.uniform() < acceptance_ratio(log_g_current, log_g_proposed):
        return proposed, True, log_g_proposed
    return state, False, log_g_current


def row_log_ratios(rows, proposed, own_idx, sq_resid, sq_proposed, sigma2):
    """Log MH ratio for moving each row of ``rows`` to its row in ``proposed``.

    ``own_idx`` maps each rating to its row; ``sq_resid`` and
    ``sq_proposed`` are each rating's squared residual before and after
    the move. With the other factor fixed, moving one row changes only
    its own ratings and its own prior term, so each entry is the exact
    change in ``log_joint`` when that row alone moves.
    """
    lik = np.bincount(own_idx, weights=sq_resid - sq_proposed, minlength=rows.shape[0])
    prior = np.einsum("ij,ij->i", rows, rows) - np.einsum("ij,ij->i", proposed, proposed)
    return lik / (2.0 * sigma2) + 0.5 * prior


@dataclass
class RowwiseCache:
    """What the row-blocked kernel keeps between sweeps of one chain.

    ``sq_resid`` is each rating's squared residual under the current
    state; ``buffers`` are the scratch arrays of :func:`rating_residuals`.
    """

    sq_resid: np.ndarray
    buffers: tuple

    @classmethod
    def for_state(cls, state: LatentState, data: RatingDataset) -> "RowwiseCache":
        buffers = dot_buffers(data.n_ratings, state.k)
        resid = rating_residuals(state.u, state.v, data.user_idx, data.item_idx,
                                 data.rating, buffers)
        return cls(sq_resid=resid**2, buffers=buffers)


def _update_rows(rows, other, own_idx, other_idx, data, cache, sigma2, cfg, rng):
    """MH-update every row of ``rows`` in place given ``other``.

    Keeps ``cache.sq_resid`` in step; returns (accepted row count,
    change in log_joint).
    """
    proposed = rows + rng.normal(0.0, cfg.proposal_std, size=rows.shape)
    if not np.isfinite(proposed).all():
        raise ValueError("latent factors must be finite")
    resid = rating_residuals(proposed, other, own_idx, other_idx, data.rating, cache.buffers)
    sq_proposed = np.square(resid, out=resid)
    log_ratio = row_log_ratios(rows, proposed, own_idx, cache.sq_resid, sq_proposed, sigma2)
    accept = rng.uniform(size=rows.shape[0]) < np.exp(np.minimum(0.0, log_ratio))
    np.copyto(rows, proposed, where=accept[:, None])
    np.putmask(cache.sq_resid, np.take(accept, own_idx), sq_proposed)
    return int(np.count_nonzero(accept)), float(np.sum(log_ratio[accept]))


def rowwise_sweep(state: LatentState, data: RatingDataset, hp: ModelHyperparams,
                  cfg: McmcConfig, rng, cache: RowwiseCache, log_g_current: float):
    """One row-blocked sweep: all user rows given V, then all item rows given U.

    Updates ``state`` and ``cache`` in place. Draw order is fixed (user
    noise, user uniforms, item noise, item uniforms). Returns (fraction
    of row proposals accepted, log_joint of the new state).
    """
    n_u, d_u = _update_rows(state.u, state.v, data.user_idx, data.item_idx, data,
                            cache, hp.sigma2, cfg, rng)
    n_v, d_v = _update_rows(state.v, state.u, data.item_idx, data.user_idx, data,
                            cache, hp.sigma2, cfg, rng)
    return (n_u + n_v) / (data.n_users + data.n_items), log_g_current + d_u + d_v


def run_chain(data: RatingDataset, hp: ModelHyperparams, cfg: McmcConfig,
              on_sample) -> ChainTrace:
    """Run the full chain; deterministic for a given seed (PCG64).

    Passes the states at steps burn_in, burn_in + thin, ... (0-based) to
    ``on_sample``, in retention order. Each is the chain's own state,
    valid only during the call, and must not be modified.
    """
    rng = np.random.default_rng(cfg.seed)
    # the chain starts from a draw of the standard-normal prior
    state = LatentState(
        rng.normal(0.0, 1.0, size=(data.n_users, hp.k)),
        rng.normal(0.0, 1.0, size=(data.n_items, hp.k)),
    )
    log_g = log_joint(state, data, hp)
    if not np.isfinite(log_g):
        raise BpmfError("non-finite log joint at initialization")

    cache = RowwiseCache.for_state(state, data) if cfg.proposal == "rowwise" else None
    energies, accepted = [], []
    for t in range(cfg.n_steps):
        try:  # a step raises ValueError only from the finite check on its proposal
            if cache is None:
                state, acc, log_g = mh_step(state, data, hp, cfg, rng, log_g_current=log_g)
            else:
                acc, log_g = rowwise_sweep(state, data, hp, cfg, rng, cache, log_g)
        except ValueError:
            raise DivergenceError("proposal overflowed (reduce proposal_std)", t) from None
        energies.append(log_g)
        accepted.append(acc)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            on_sample(state)
    return ChainTrace(energies=np.array(energies), accepted=np.array(accepted))
