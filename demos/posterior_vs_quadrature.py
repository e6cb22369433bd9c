"""Sanity check both engines against brute-force numerical integration.

On a 1-user/1-item/K=1 instance the posterior over (u, v) is a 2-D
density we can integrate on a grid. This script compares:

  * the grid-quadrature posterior-predictive mean rating,
  * the MCMC sample-mean prediction, and
  * the variational Monte Carlo prediction,

and also shows that the fitted ELBO stays below the quadrature
log-evidence, as a lower bound must.

Run:  python3 demos/posterior_vs_quadrature.py
"""

import numpy as np

from bpmf import (
    McmcConfig,
    ModelHyperparams,
    RatingDataset,
    RatingScale,
    ViConfig,
    denormalize_rating,
    mcmc_predict,
    run_chain,
    sigmoid,
    vi_predict,
    vi_train,
)
from bpmf.vi import kl_gaussian_vs_standard

RATING = 0.8  # normalized observed rating
SIGMA2 = 0.1


def quadrature(n=400, lo=-6.0, hi=6.0):
    """Posterior-predictive mean and log evidence on an n x n grid."""
    grid = np.linspace(lo, hi, n)
    du = grid[1] - grid[0]
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    mean = sigmoid(uu * vv)
    log_joint = (
        -0.5 * (uu**2 + vv**2)
        - np.log(2.0 * np.pi)
        - 0.5 * np.log(2.0 * np.pi * SIGMA2)
        - (RATING - mean) ** 2 / (2.0 * SIGMA2)
    )
    shift = log_joint.max()
    w = np.exp(log_joint - shift)
    predictive = float(np.sum(w * mean) / np.sum(w))
    log_evidence = float(shift + np.log(np.sum(w) * du * du))
    return predictive, log_evidence


def fitted_elbo(params):
    """Exact L(Q) by Gauss-Hermite quadrature over the fitted factors."""
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    u = params.mu_u[0, 0] + np.sqrt(2.0) * np.exp(params.log_s_u[0, 0]) * nodes
    v = params.mu_v[0, 0] + np.sqrt(2.0) * np.exp(params.log_s_v[0, 0]) * nodes
    mean = sigmoid(np.outer(u, v))
    loglik = -0.5 * np.log(2.0 * np.pi * SIGMA2) - (RATING - mean) ** 2 / (2.0 * SIGMA2)
    e_loglik = float(np.outer(weights, weights).ravel() @ loglik.ravel() / np.pi)
    kl = float(
        kl_gaussian_vs_standard(params.mu_u[0, 0], params.log_s_u[0, 0])
        + kl_gaussian_vs_standard(params.mu_v[0, 0], params.log_s_v[0, 0])
    )
    return e_loglik - kl


def main():
    scale = RatingScale(5)
    data = RatingDataset(1, 1, np.array([0]), np.array([0]), np.array([RATING]), scale)
    hp = ModelHyperparams(k=1, sigma2=SIGMA2)

    oracle_mean, log_evidence = quadrature()
    oracle_rating = denormalize_rating(oracle_mean, scale)
    print(f"quadrature predictive rating: {oracle_rating:.4f}")
    print(f"quadrature log evidence:      {log_evidence:.4f}")

    chain = run_chain(
        data, hp,
        McmcConfig(n_steps=50_000, burn_in=10_000, thin=10, proposal_std=0.5, seed=0,
                   proposal="joint"),
    )
    mcmc_rating = mcmc_predict(chain, 0, 0, scale)
    print(f"\nMCMC predictive rating:       {mcmc_rating:.4f} "
          f"(acceptance rate {chain.acceptance_rate:.2f})")

    params, _ = vi_train(
        data, hp, ViConfig(learning_rate=0.05, epochs=1500, mc_samples=16, seed=0)
    )
    vi_rating = vi_predict(params, 0, 0, scale, mc_samples=10_000,
                           rng=np.random.default_rng(0))
    elbo = fitted_elbo(params)
    print(f"VI predictive rating:         {vi_rating:.4f}")
    print(f"fitted ELBO:                  {elbo:.4f} "
          f"(gap to evidence {log_evidence - elbo:.4f}, must be >= 0)")


if __name__ == "__main__":
    main()
