"""Bayesian probabilistic matrix factorization on rating data.

Latent user/item factors with standard-normal priors and a
sigmoid-Gaussian rating likelihood, fit by two interchangeable
posterior engines (Metropolis-Hastings MCMC and mean-field Gaussian
variational inference), plus a classical gradient-descent baseline,
a MovieLens-format data pipeline, and an evaluation harness.
"""

from .baseline import MfConfig
from .evaluate import ExperimentConfig, compare, plateau_epoch, run_experiment
from .mcmc import McmcConfig, run_chain
from .model import ModelHyperparams, RatingDataset, RatingScale, denormalize_rating, sigmoid
from .vi import ViConfig, vi_predict, vi_train

__version__ = "0.1.0"
