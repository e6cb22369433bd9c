"""Metropolis-Hastings sampler for the factor posterior.

Two kernels, both with symmetric Gaussian random-walk proposals, so the
proposal densities cancel and a proposal that changes the log joint by
``delta`` is accepted when ``uniform < exp(min(0, delta))``. Both move the
chain's one state in place and return (fraction accepted, log joint):

- ``"rowwise"`` (row-blocked Metropolis-within-Gibbs; the chain that
  ``McmcConfig()`` and ``bpmf run`` train): given V the user rows are
  conditionally independent, and so are the item rows given U. A sweep
  proposes every user row at once and accepts or rejects each row with
  its own exact MH ratio (a per-row ``bincount`` of per-rating squared
  residuals plus the row's prior term), then does the same for the item
  rows given the new U. The chain keeps each rating's squared residual
  current across sweeps, so a sweep computes only the proposals' ones.
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
from functools import partial

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
# the share of the steps a burn-in left as None discards
BURN_IN_SHARE = 0.6


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings; the defaults are the chain ``bpmf run`` trains.

    A ``burn_in`` left as None is ``BURN_IN_SHARE`` of the steps; a
    ``thin`` left as None retains about 100 samples, which bounds the
    cost of averaging over them.
    """

    n_steps: int = 20_000
    burn_in: int | None = None
    thin: int | None = None
    proposal_std: float = 0.2
    seed: int = 0
    proposal: str = "rowwise"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", int(BURN_IN_SHARE * self.n_steps))
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

    ``accepted`` holds one float per step, the fraction of proposals the
    step accepted: 1.0 or 0.0 for the joint kernel, the fraction of row
    proposals for the row-blocked one.
    """

    energies: np.ndarray
    accepted: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())


def mh_step(state: LatentState, data: RatingDataset, hp: ModelHyperparams,
            draws, log_g: float):
    """One joint Metropolis-Hastings step from a state whose log joint is ``log_g``.

    Moves ``state`` to the proposal in place when it accepts. ``draws``
    is the step's (U noise, V noise, acceptance uniform), drawn in that
    order by :func:`run_chain` from its seeded generator. Returns
    (fraction accepted, log_joint of the new state), as :func:`rowwise_sweep` does.
    """
    noise_u, noise_v, uniform = draws
    proposed = LatentState(state.u + noise_u, state.v + noise_v)
    log_g_proposed = log_joint(proposed, data, hp)
    if uniform < np.exp(min(0.0, log_g_proposed - log_g)):
        np.copyto(state.u, proposed.u)
        np.copyto(state.v, proposed.v)
        return 1.0, log_g_proposed
    return 0.0, log_g


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


def rowwise_sweep(state: LatentState, data: RatingDataset, hp: ModelHyperparams,
                  draws, log_g: float, sq_resid, buffers):
    """One row-blocked sweep: all user rows given V, then all item rows given U.

    Updates ``state`` and ``sq_resid``, each rating's squared residual under
    the current state, in place; ``buffers`` are the scratch arrays of
    :func:`rating_residuals`. ``draws`` is the sweep's (user noise, user
    uniforms, item noise, item uniforms), drawn in that order by
    :func:`run_chain` from its seeded generator. Returns (fraction of row
    proposals accepted, log_joint of the new state), as :func:`mh_step` does.
    """
    noise_u, uniforms_u, noise_v, uniforms_v = draws
    n_accepted = 0
    for rows, other, own_idx, other_idx, noise, uniforms in (
            (state.u, state.v, data.user_idx, data.item_idx, noise_u, uniforms_u),
            (state.v, state.u, data.item_idx, data.user_idx, noise_v, uniforms_v)):
        proposed = rows + noise
        if not np.isfinite(proposed).all():
            raise ValueError("latent factors must be finite")
        resid = rating_residuals(proposed, other, own_idx, other_idx, data.rating, buffers)
        sq_proposed = np.square(resid, out=resid)
        log_ratio = row_log_ratios(rows, proposed, own_idx, sq_resid, sq_proposed, hp.sigma2)
        accept = uniforms < np.exp(np.minimum(0.0, log_ratio))
        moved = np.flatnonzero(accept)
        rows[moved] = proposed[moved]
        moved_ratings = np.flatnonzero(np.take(accept, own_idx))
        sq_resid[moved_ratings] = sq_proposed[moved_ratings]
        n_accepted += moved.size
        log_g += float(np.sum(log_ratio[moved]))
    return n_accepted / (data.n_users + data.n_items), log_g


def run_chain(data: RatingDataset, hp: ModelHyperparams, cfg: McmcConfig,
              on_sample) -> ChainTrace:
    """Run the full chain; deterministic for a given seed (PCG64).

    Passes the states at steps burn_in, burn_in + thin, ... (0-based) to
    ``on_sample``, in retention order: the chain's own state object, the
    same one at every step, valid only during the call and not to be modified.
    """
    rng = np.random.default_rng(cfg.seed)
    size_u, size_v, std = (data.n_users, hp.k), (data.n_items, hp.k), cfg.proposal_std
    # the chain starts from a draw of the standard-normal prior
    state = LatentState(rng.normal(0.0, 1.0, size=size_u), rng.normal(0.0, 1.0, size=size_v))
    log_g = log_joint(state, data, hp)
    if not np.isfinite(log_g):
        raise BpmfError("non-finite log joint at initialization")

    if cfg.proposal == "rowwise":
        buffers = dot_buffers(data.n_ratings, hp.k)
        sq_resid = rating_residuals(state.u, state.v, data.user_idx, data.item_idx,
                                    data.rating, buffers) ** 2
        step = partial(rowwise_sweep, sq_resid=sq_resid, buffers=buffers)

        def scaled_normal(size):  # the numbers of rng.normal(0.0, std, size), in one array
            noise = rng.standard_normal(size)
            noise *= std
            return noise

        def draw():  # one sweep's random numbers, in the order rowwise_sweep documents
            # a std near the float limit overflows to inf, which the sweep reports
            with np.errstate(over="ignore"):
                return (scaled_normal(size_u), rng.random(data.n_users),
                        scaled_normal(size_v), rng.random(data.n_items))
    else:
        step = mh_step

        def draw():  # one step's random numbers, in the order mh_step documents
            return rng.normal(0.0, std, size_u), rng.normal(0.0, std, size_v), rng.uniform()

    energies, accepted = [], []
    for t in range(cfg.n_steps):
        try:  # a step raises ValueError only from the finite check on its proposal
            acc, log_g = step(state, data, hp, draw(), log_g)
        except ValueError:
            raise DivergenceError("proposal overflowed (reduce proposal_std)", t) from None
        energies.append(log_g)
        accepted.append(acc)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            on_sample(state)
    return ChainTrace(energies=np.array(energies), accepted=np.array(accepted))
