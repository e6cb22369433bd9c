"""Bayesian probabilistic matrix factorization on rating data.

Latent user/item factors with standard-normal priors and a
sigmoid-Gaussian rating likelihood, fit by two interchangeable
posterior engines (Metropolis-Hastings MCMC and mean-field Gaussian
variational inference), plus a classical gradient-descent baseline,
a MovieLens-format data pipeline, and an evaluation harness.
"""

from .baseline import MfConfig, mf_epoch, mf_loss, mf_train
from .data import (
    IdMaps,
    SplitDataset,
    build_dataset,
    load_ratings,
    split_dataset,
)
from .errors import BpmfError, DataFormatError, DivergenceError, UsageError
from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    compare,
    plateau_epoch,
    predict_all,
    rmse,
    run_experiment,
)
from .mcmc import (
    ChainTrace,
    McmcConfig,
    acceptance_ratio,
    discrete_mh_kernel,
    mcmc_predict,
    mcmc_predict_batch,
    mh_step,
    run_chain,
)
from .model import (
    LatentState,
    ModelHyperparams,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    log_joint,
    log_likelihood_entry,
    normalize_rating,
    predict_point,
    sigmoid,
)
from .vi import (
    VariationalParams,
    ViConfig,
    elbo_estimate,
    elbo_gradient,
    elbo_value_with_noise,
    elbo_with_noise,
    kl_gaussian_vs_standard,
    vi_predict,
    vi_predict_batch,
    vi_train,
)

__version__ = "0.1.0"
