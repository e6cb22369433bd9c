"""Mean-field Gaussian variational inference for the factor posterior.

Each latent row gets an independent diagonal-Gaussian factor with free
means and log-standard-deviations. The objective is the evidence lower
bound with the KL-to-prior part computed in closed form and the
likelihood expectation estimated by reparameterized Monte Carlo; the
estimate and its pathwise gradient are two functions of the same base noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .model import (
    LatentState,
    ModelHyperparams,
    PosteriorMean,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    dot_buffers,
    log_likelihood_sum,
    rating_patterns,
    row_dots,
    scatter_rows,
    sigmoid,
)

# posterior draws averaged when scoring a fitted model
PREDICT_SAMPLES = 32


@dataclass
class VariationalParams:
    """Diagonal-Gaussian factor parameters for all user and item rows."""

    mu_u: np.ndarray
    log_s_u: np.ndarray
    mu_v: np.ndarray
    log_s_v: np.ndarray

    def __post_init__(self):
        for name in ("mu_u", "log_s_u", "mu_v", "log_s_v"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.mu_u.shape != self.log_s_u.shape or self.mu_v.shape != self.log_s_v.shape:
            raise ValueError("mean and log-std blocks must have matching shapes")
        if self.mu_u.shape[1] != self.mu_v.shape[1]:
            raise ValueError("user and item blocks must share the latent width")

    @property
    def k(self) -> int:
        return self.mu_u.shape[1]


@dataclass(frozen=True)
class ViConfig:
    learning_rate: float = 0.02
    epochs: int = 300
    mc_samples: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def kl_gaussian_vs_standard(mu, log_s):
    """KL(N(mu, sigma^2) || N(0, 1)) elementwise: (sigma^2 + mu^2 - 1 - 2 log sigma)/2."""
    return 0.5 * (np.exp(2.0 * log_s) + mu**2 - 1.0 - 2.0 * log_s)


def _total_kl(params: VariationalParams) -> float:
    return float(
        np.sum(kl_gaussian_vs_standard(params.mu_u, params.log_s_u))
        + np.sum(kl_gaussian_vs_standard(params.mu_v, params.log_s_v))
    )


def draw_noise(params: VariationalParams, mc_samples: int, rng):
    """Base noise for reparameterized samples; one (eps_u, eps_v) pair per draw."""
    return [
        (rng.standard_normal(params.mu_u.shape), rng.standard_normal(params.mu_v.shape))
        for _ in range(mc_samples)
    ]


def elbo_with_noise(params: VariationalParams, data: RatingDataset,
                    hp: ModelHyperparams, noise, buffers, patterns) -> VariationalParams:
    """Pathwise gradient of :func:`elbo_value_with_noise` for the same base noise.

    The KL-to-prior part is analytic; only the likelihood expectation is
    averaged over the supplied noise draws. The gradient scatters through
    ``patterns``, the caller's :func:`bpmf.model.rating_patterns` of ``data``.
    Returns the gradient only, as a :class:`VariationalParams` shaped like ``params``.
    """
    s_u = np.exp(params.log_s_u)
    s_v = np.exp(params.log_s_v)
    grad = VariationalParams(
        np.zeros_like(params.mu_u), np.zeros_like(params.log_s_u),
        np.zeros_like(params.mu_v), np.zeros_like(params.log_s_v),
    )
    by_user, by_item = patterns
    ii, jj, rr = data.user_idx, data.item_idx, data.rating
    for eps_u, eps_v in noise:
        u = params.mu_u + s_u * eps_u
        v = params.mu_v + s_v * eps_v
        mean = sigmoid(row_dots(u, v, ii, jj, buffers))
        resid = rr - mean
        # d(log lik)/d(dot) for each observation
        coef = resid * mean * (1.0 - mean) / hp.sigma2
        g_u = scatter_rows(by_user, coef, v)
        g_v = scatter_rows(by_item, coef, u)
        grad.mu_u += g_u
        grad.mu_v += g_v
        grad.log_s_u += g_u * (u - params.mu_u)
        grad.log_s_v += g_v * (v - params.mu_v)
    n = len(noise)
    grad.mu_u /= n
    grad.mu_v /= n
    grad.log_s_u /= n
    grad.log_s_v /= n
    # analytic KL part: d/dmu = mu, d/dlog_s = sigma^2 - 1
    grad.mu_u -= params.mu_u
    grad.mu_v -= params.mu_v
    grad.log_s_u -= s_u**2 - 1.0
    grad.log_s_v -= s_v**2 - 1.0
    return grad


def elbo_value_with_noise(params: VariationalParams, data: RatingDataset,
                          hp: ModelHyperparams, noise, buffers) -> float:
    """ELBO estimate only (no gradient work) for explicit base noise:
    the noise-averaged model log likelihood minus the analytic KL."""
    s_u = np.exp(params.log_s_u)
    s_v = np.exp(params.log_s_v)
    loglik = sum(
        log_likelihood_sum(params.mu_u + s_u * eps_u, params.mu_v + s_v * eps_v,
                           data, hp.sigma2, buffers)
        for eps_u, eps_v in noise
    )
    return float(loglik / len(noise) - _total_kl(params))


def init_params(n_users: int, n_items: int, k: int, cfg: ViConfig) -> VariationalParams:
    rng = np.random.default_rng(cfg.seed)
    return VariationalParams(
        rng.normal(0.0, 0.5, size=(n_users, k)),
        np.zeros((n_users, k)),
        rng.normal(0.0, 0.5, size=(n_items, k)),
        np.zeros((n_items, k)),
    )


def vi_train(data: RatingDataset, hp: ModelHyperparams, cfg: ViConfig):
    """Fixed-rate gradient ascent on the ELBO; returns (params, elbo trace).

    Gradients use fresh noise every epoch, drawn from one seeded generator
    in epoch order; the per-epoch trace entry is recorded with the same
    fixed monitoring noise each time (common random numbers), so trace
    movement reflects parameter movement rather than estimator jitter.
    Fully deterministic given the seed.
    """
    params = init_params(data.n_users, data.n_items, hp.k, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    # the monitoring noise depends only on the shapes, so one draw serves every epoch
    monitor = draw_noise(params, 1, np.random.default_rng(cfg.seed + 2))
    buffers, patterns = dot_buffers(data.n_ratings, hp.k), rating_patterns(data)
    trace = []
    # overflow here is reported as a divergence error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            noise = draw_noise(params, cfg.mc_samples, rng)
            grad = elbo_with_noise(params, data, hp, noise, buffers, patterns)
            params.mu_u += cfg.learning_rate * grad.mu_u
            params.log_s_u += cfg.learning_rate * grad.log_s_u
            params.mu_v += cfg.learning_rate * grad.mu_v
            params.log_s_v += cfg.learning_rate * grad.log_s_v
            del grad  # freed before the monitor and the next epoch allocate: lower peak memory
            trace.append(elbo_value_with_noise(params, data, hp, monitor, buffers))
            if not np.isfinite(trace[-1]):
                raise DivergenceError("ELBO became non-finite (reduce learning_rate)", epoch)
    return params, trace


def vi_predict(params: VariationalParams, i: int, j: int, scale: RatingScale,
               mc_samples: int, rng) -> float:
    """Predicted rating for one pair: the mean of sigmoid(u.v) over
    ``mc_samples`` posterior draws from ``rng``."""
    u = params.mu_u[i] + np.exp(params.log_s_u[i]) * rng.standard_normal((mc_samples, params.k))
    v = params.mu_v[j] + np.exp(params.log_s_v[j]) * rng.standard_normal((mc_samples, params.k))
    return denormalize_rating(float(np.mean(sigmoid(np.einsum("sk,sk->s", u, v)))), scale)


def vi_predict_batch(params: VariationalParams, user_idx, item_idx, scale: RatingScale):
    """Predicted ratings for paired index arrays: a :class:`PosteriorMean` over
    ``PREDICT_SAMPLES`` whole-factor posterior draws from ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    s_u, s_v = np.exp(params.log_s_u), np.exp(params.log_s_v)
    mean = PosteriorMean(user_idx, item_idx)
    for _ in range(PREDICT_SAMPLES):
        [(eps_u, eps_v)] = draw_noise(params, 1, rng)
        mean.add(LatentState(params.mu_u + s_u * eps_u, params.mu_v + s_v * eps_v))
    return mean.ratings(scale)
