"""Metropolis-Hastings sampler for the factor posterior.

Two kernels, both with symmetric Gaussian random-walk proposals, so the
proposal densities cancel in every acceptance ratio:

- ``"joint"`` (the paper's kernel, and the ``McmcConfig`` default):
  one proposal moves every entry of (U, V) at once and one
  accept/reject decision keeps or drops it.
- ``"rowwise"`` (row-blocked Metropolis-within-Gibbs): given V the user
  rows are conditionally independent, and so are the item rows given U.
  A sweep proposes every user row at once and accepts or rejects each
  row with its own MH ratio, then does the same for the item rows given
  the new U. Each ratio is exact: a per-row ``bincount`` of cached
  per-rating squared residuals plus the row's prior term. This is the
  kernel ``bpmf run`` and ``ExperimentConfig`` use by default
  (:func:`desk_scale_config`), because one decision per step cannot
  concentrate the ~10^5 coupled coordinates of a MovieLens-sized model.

Each step (a sweep, for ``"rowwise"``) records the exact log joint of
the retained state. Samples are retained after burn-in with an optional
thinning stride; predictions average sigmoid(u.v) over retained samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BpmfError
from .model import (
    LatentState,
    ModelHyperparams,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    dot_buffers,
    log_joint,
    rating_residuals,
    row_dots,
    sigmoid,
)

PROPOSALS = ("joint", "rowwise")


@dataclass(frozen=True)
class McmcConfig:
    n_steps: int = 20_000
    burn_in: int = 12_000
    thin: int = 1
    proposal_std: float = 0.004
    seed: int = 0
    proposal: str = "joint"

    def __post_init__(self):
        if self.proposal not in PROPOSALS:
            raise ValueError(f"proposal must be one of {PROPOSALS}, got {self.proposal!r}")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not self.proposal_std > 0:
            raise ValueError("proposal_std must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def desk_scale_config(n_steps=None, burn_in=None, thin=None, proposal_std=None,
                      seed=0) -> McmcConfig:
    """The chain ``bpmf run`` and ``ExperimentConfig`` train when not told otherwise.

    The row-blocked kernel with step std 0.2; burn-in is 60% of the
    steps, and the thinning stride keeps about 100 retained samples,
    which bounds their memory.
    """
    n_steps = McmcConfig.n_steps if n_steps is None else n_steps
    burn_in = int(0.6 * n_steps) if burn_in is None else burn_in
    thin = max(1, (n_steps - burn_in) // 100) if thin is None else thin
    return McmcConfig(n_steps=n_steps, burn_in=burn_in, thin=thin, proposal="rowwise",
                      proposal_std=0.2 if proposal_std is None else proposal_std, seed=seed)


@dataclass
class ChainTrace:
    """Post-burn-in thinned samples plus per-step bookkeeping.

    ``accepted`` holds one entry per step: a bool for the joint kernel,
    the fraction of row proposals accepted in that sweep for the
    row-blocked one. ``accept_count`` is their sum (an int or a float),
    so ``acceptance_rate`` is a rate in [0, 1] for both.
    """

    samples: list
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
            cfg: McmcConfig, rng, log_g_current=None):
    """One Metropolis-Hastings step.

    Draw order is fixed (U noise, V noise, then the acceptance uniform)
    so a seeded generator reproduces the chain exactly. Returns
    (retained state, accepted flag, log_joint of the retained state).
    """
    if log_g_current is None:
        log_g_current = log_joint(state, data, hp)
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


def run_chain(data: RatingDataset, hp: ModelHyperparams, cfg: McmcConfig) -> ChainTrace:
    """Run the full chain; deterministic for a given seed (PCG64).

    Retains the states at steps burn_in, burn_in + thin, ... (0-based).
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
    samples, energies, accepted = [], [], []
    for t in range(cfg.n_steps):
        if cache is None:
            state, acc, log_g = mh_step(state, data, hp, cfg, rng, log_g_current=log_g)
        else:
            acc, log_g = rowwise_sweep(state, data, hp, cfg, rng, cache, log_g)
        energies.append(log_g)
        accepted.append(acc)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            samples.append(state.copy())
    return ChainTrace(samples=samples, energies=np.array(energies), accepted=np.array(accepted))


def mcmc_predict(trace: ChainTrace, i: int, j: int, scale: RatingScale) -> float:
    """Posterior-predictive mean rating for one (user, item) pair."""
    if not trace.samples:
        raise BpmfError("cannot predict from an empty chain trace")
    vals = [sigmoid(float(s.u[i] @ s.v[j])) for s in trace.samples]
    return float(denormalize_rating(float(np.mean(vals)), scale))


def mcmc_predict_batch(trace: ChainTrace, user_idx, item_idx, scale: RatingScale):
    """Vectorized :func:`mcmc_predict` over paired index arrays."""
    if not trace.samples:
        raise BpmfError("cannot predict from an empty chain trace")
    user_idx = np.asarray(user_idx)
    item_idx = np.asarray(item_idx)
    acc = np.zeros(user_idx.shape, dtype=np.float64)
    buffers = dot_buffers(user_idx.size, trace.samples[0].k)
    for s in trace.samples:
        acc += sigmoid(row_dots(s.u, s.v, user_idx, item_idx, buffers))
    return denormalize_rating(acc / len(trace.samples), scale)


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
