"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Expected values are computed by independent oracles inside this file
(tensor-grid quadrature for posterior integrals, Gauss-Hermite
quadrature for variational expectations, central finite differences for
gradients); nothing is compared against values produced by the code
under test itself.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import copy
import time

import numpy as np
import pytest

from bpmf.baseline import MfConfig, mf_epoch, mf_loss, mf_residual
from bpmf.data import split_dataset
from bpmf.evaluate import (
    ExperimentConfig,
    global_mean_rating,
    plateau_epoch,
    rmse,
    run_experiment,
)
from bpmf.mcmc import McmcConfig, run_chain
from bpmf.model import (
    LatentState,
    ModelHyperparams,
    PosteriorMean,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    dot_buffers,
    rating_patterns,
    sigmoid,
)
from bpmf.vi import (
    VariationalParams,
    ViConfig,
    draw_noise,
    elbo_value_with_noise,
    elbo_with_noise,
    kl_gaussian_vs_standard,
    vi_predict,
    vi_train,
)

from conftest import discrete_mh_kernel, make_dataset, retained_states


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")


# ----- oracles ---------------------------------------------------------------


def quadrature_1x1(r, sigma2, n=400, lo=-6.0, hi=6.0):
    """Brute-force posterior integrals for the 1-user/1-item/K=1 model.

    Returns (posterior-predictive mean of sigmoid(uv), log evidence),
    both from a tensor-product grid over [lo, hi]^2 weighted by
    exp(log_joint).
    """
    grid = np.linspace(lo, hi, n)
    du = grid[1] - grid[0]
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    mean = sigmoid(uu * vv)
    log_joint_grid = (
        -0.5 * (uu**2 + vv**2)
        - np.log(2.0 * np.pi)
        - 0.5 * np.log(2.0 * np.pi * sigma2)
        - (r - mean) ** 2 / (2.0 * sigma2)
    )
    shift = log_joint_grid.max()
    w = np.exp(log_joint_grid - shift)
    predictive = float(np.sum(w * mean) / np.sum(w))
    log_evidence = float(shift + np.log(np.sum(w) * du * du))
    return predictive, log_evidence


def hermgauss_expect(f, mu, sigma, n=60):
    """E[f(x)] for x ~ N(mu, sigma^2) by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    x = mu + np.sqrt(2.0) * sigma * nodes
    return float(np.sum(weights * f(x)) / np.sqrt(np.pi))


def exact_elbo_1x1(params, r, sigma2, n=60):
    """Exact L(Q) for the 1x1/K=1 model via 2-D Gauss-Hermite."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    mu_u, s_u = params.mu_u[0, 0], float(np.exp(params.log_s_u[0, 0]))
    mu_v, s_v = params.mu_v[0, 0], float(np.exp(params.log_s_v[0, 0]))
    u = mu_u + np.sqrt(2.0) * s_u * nodes
    v = mu_v + np.sqrt(2.0) * s_v * nodes
    mean = sigmoid(np.outer(u, v))
    loglik = -0.5 * np.log(2.0 * np.pi * sigma2) - (r - mean) ** 2 / (2.0 * sigma2)
    e_loglik = float(np.outer(weights, weights).ravel() @ loglik.ravel() / np.pi)
    kl = float(
        kl_gaussian_vs_standard(params.mu_u[0, 0], params.log_s_u[0, 0])
        + kl_gaussian_vs_standard(params.mu_v[0, 0], params.log_s_v[0, 0])
    )
    return e_loglik - kl


def tiny_instance():
    return RatingDataset(
        n_users=1,
        n_items=1,
        user_idx=np.array([0]),
        item_idx=np.array([0]),
        rating=np.array([0.8]),
        scale=RatingScale(5),
    )


# ----- shared desk-scale runs (criteria 6-8) ---------------------------------


@pytest.fixture(scope="module")
def vi_report(ratings_csv_path, tmp_path_factory):
    cfg = ExperimentConfig(
        engine="vi",
        data_path=str(ratings_csv_path),
        output_dir=str(tmp_path_factory.mktemp("acc_vi")),
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mcmc_report(ratings_csv_path, tmp_path_factory):
    cfg = ExperimentConfig(
        engine="mcmc",
        data_path=str(ratings_csv_path),
        output_dir=str(tmp_path_factory.mktemp("acc_mcmc")),
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def constant_predictor_rmse(full_dataset):
    data, _, scale = full_dataset
    split = split_dataset(data, seed=0)
    fallback = global_mean_rating(split.train)
    truths = denormalize_rating(split.test.rating, scale)
    return rmse(np.full(truths.shape, fallback), truths)


# ----- criteria --------------------------------------------------------------


def test_criterion_1_mcmc_oracle_equivalence():
    data = tiny_instance()
    hp = ModelHyperparams(k=1, sigma2=0.1)
    oracle_mean, _ = quadrature_1x1(0.8, 0.1)
    oracle_rating = denormalize_rating(oracle_mean, data.scale)

    start = time.perf_counter()
    cfg = McmcConfig(n_steps=50_000, burn_in=10_000, thin=10, proposal_std=0.5, seed=0,
                     proposal="joint")
    mean = PosteriorMean(np.array([0]), np.array([0]))
    run_chain(data, hp, cfg, mean.add)
    prediction = float(mean.ratings(data.scale)[0])
    elapsed = time.perf_counter() - start

    err = abs(prediction - oracle_rating)
    ok = err < 0.02 * data.scale.span and elapsed < 10.0
    report_line(
        1,
        ok,
        f"mcmc_predict {prediction:.4f} vs quadrature {oracle_rating:.4f} "
        f"(|err| {err:.4f}, normalized {err / data.scale.span:.4f} < 0.02), "
        f"{elapsed:.1f}s < 10s",
    )
    # tolerance 0.02 is stated on the predictive mean, i.e. the normalized scale
    assert abs(prediction - oracle_rating) / data.scale.span < 0.02
    assert elapsed < 10.0


def test_criterion_2_vi_oracle_equivalence():
    data = tiny_instance()
    hp = ModelHyperparams(k=1, sigma2=0.1)
    _, log_evidence = quadrature_1x1(0.8, 0.1)

    start = time.perf_counter()
    cfg = ViConfig(learning_rate=0.05, epochs=1500, mc_samples=16, seed=0)
    params, _ = vi_train(data, hp, cfg)
    fitted_elbo = exact_elbo_1x1(params, 0.8, 0.1)
    prediction = vi_predict(params, 0, 0, data.scale, mc_samples=10_000,
                            rng=np.random.default_rng(0))
    elapsed = time.perf_counter() - start

    # oracle for E_Q[sigmoid(uv)]: 2-D Gauss-Hermite over the fitted Q
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    u = params.mu_u[0, 0] + np.sqrt(2.0) * np.exp(params.log_s_u[0, 0]) * nodes
    v = params.mu_v[0, 0] + np.sqrt(2.0) * np.exp(params.log_s_v[0, 0]) * nodes
    e_q = float(np.outer(weights, weights).ravel() @ sigmoid(np.outer(u, v)).ravel() / np.pi)
    oracle_rating = denormalize_rating(e_q, data.scale)

    slack = log_evidence - fitted_elbo
    pred_err = abs(prediction - oracle_rating) / data.scale.span
    ok = slack >= -1e-9 and pred_err < 0.05 and elapsed < 5.0
    report_line(
        2,
        ok,
        f"ELBO {fitted_elbo:.4f} <= log evidence {log_evidence:.4f} "
        f"(slack {slack:.2e} >= -1e-9), vi_predict err {pred_err:.4f} < 0.05, "
        f"{elapsed:.1f}s < 5s",
    )
    assert slack >= -1e-9
    assert pred_err < 0.05
    assert elapsed < 5.0


def test_criterion_3_detailed_balance_and_stationarity():
    start = time.perf_counter()
    target = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    n = target.size
    proposal = np.zeros((n, n))
    for a in range(n):
        for b in (a - 1, a + 1):
            if 0 <= b < n:
                proposal[a, b] = 0.5
        proposal[a, a] = 1.0 - proposal[a].sum()
    kernel = discrete_mh_kernel(target, proposal)
    p = target / target.sum()
    flow = p[:, None] * kernel
    balance_err = float(np.abs(flow - flow.T).max())
    stationarity_err = float(np.abs(p @ kernel - p).max())
    elapsed = time.perf_counter() - start

    ok = balance_err < 1e-12 and stationarity_err < 1e-12 and elapsed < 1.0
    report_line(
        3,
        ok,
        f"detailed balance err {balance_err:.2e}, stationarity err "
        f"{stationarity_err:.2e} (both < 1e-12), {elapsed:.2f}s < 1s",
    )
    assert balance_err < 1e-12
    assert stationarity_err < 1e-12
    assert elapsed < 1.0


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    step = 1e-5
    worst_vi = 0.0
    for seed in range(10):
        data = make_dataset(3, 3, 5, seed=seed, k_true=2)
        hp = ModelHyperparams(2, 0.25)
        rng = np.random.default_rng(1000 + seed)
        params = VariationalParams(
            rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (3, 2)),
            rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (3, 2)),
        )
        noise = draw_noise(params, 2, np.random.default_rng(2000 + seed))
        buffers, patterns = dot_buffers(data.n_ratings, hp.k), rating_patterns(data)
        grad = elbo_with_noise(params, data, hp, noise, buffers, patterns)
        for name in ("mu_u", "log_s_u", "mu_v", "log_s_v"):
            block = getattr(params, name)
            for idx in np.ndindex(block.shape):
                up, down = copy.deepcopy(params), copy.deepcopy(params)
                getattr(up, name)[idx] += step
                getattr(down, name)[idx] -= step
                fd = (elbo_value_with_noise(up, data, hp, noise, buffers)
                      - elbo_value_with_noise(down, data, hp, noise, buffers)) / (2 * step)
                denom = max(abs(fd), 1e-3)
                worst_vi = max(worst_vi, abs(getattr(grad, name)[idx] - fd) / denom)

    worst_mf = 0.0
    for seed in range(10):
        data = make_dataset(3, 3, 6, seed=50 + seed, k_true=2)
        cfg = MfConfig(alpha=0.003)
        rng = np.random.default_rng(3000 + seed)
        state = LatentState(rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (3, 2)))
        new = mf_epoch(state, data, cfg, mf_residual(state, data), rating_patterns(data))
        for i in range(3):
            for c in range(2):
                up, down = copy.deepcopy(state), copy.deepcopy(state)
                up.u[i, c] += step
                down.u[i, c] -= step
                fd = (mf_loss(mf_residual(up, data))
                      - mf_loss(mf_residual(down, data))) / (2 * step)
                # the update applies alpha times the residual sum, which is
                # -(alpha/2) times the loss gradient (see ledger)
                expected = -0.5 * cfg.alpha * fd
                actual = new.u[i, c] - state.u[i, c]
                denom = max(abs(expected), 1e-9)
                worst_mf = max(worst_mf, abs(actual - expected) / denom)
    elapsed = time.perf_counter() - start

    ok = worst_vi < 1e-4 and worst_mf < 1e-4 and elapsed < 5.0
    report_line(
        4,
        ok,
        f"VI pathwise grad worst rel err {worst_vi:.2e}, MF epoch direction "
        f"worst rel err {worst_mf:.2e} (both < 1e-4), {elapsed:.1f}s < 5s",
    )
    assert worst_vi < 1e-4
    assert worst_mf < 1e-4
    assert elapsed < 5.0


def test_criterion_5_kl_closed_form():
    cases = [
        ((0.0, 0.0), 0.0),
        ((1.0, 0.0), 0.5),
        ((0.0, 0.5 * np.log(2.0)), 0.5 * (2.0 - 1.0 - np.log(2.0))),
    ]
    worst = max(abs(kl_gaussian_vs_standard(mu, ls) - expected)
                for (mu, ls), expected in cases)
    ok = worst < 1e-12
    report_line(5, ok, f"three tabulated KL values, worst abs err {worst:.2e} < 1e-12")
    assert worst < 1e-12


@pytest.mark.slow
def test_criterion_6_desk_scale_accuracy_band(vi_report, mcmc_report,
                                              constant_predictor_rmse):
    const = constant_predictor_rmse
    vi_ok = vi_report.rmse_test <= 1.45 and vi_report.rmse_test < const
    mcmc_ok = mcmc_report.rmse_test <= 1.45 and mcmc_report.rmse_test < const
    runtime_ok = (vi_report.wall_clock_seconds < 300
                  and mcmc_report.wall_clock_seconds < 3600)
    ok = vi_ok and mcmc_ok and runtime_ok
    report_line(
        6,
        ok,
        f"VI rmse_test {vi_report.rmse_test:.4f} "
        f"({'ok' if vi_ok else 'FAIL'}), MCMC rmse_test "
        f"{mcmc_report.rmse_test:.4f} ({'ok' if mcmc_ok else 'FAIL'}) "
        f"vs band <= 1.45 and constant-predictor {const:.4f}; "
        f"VI {vi_report.wall_clock_seconds:.0f}s < 300s, "
        f"MCMC {mcmc_report.wall_clock_seconds:.0f}s < 3600s",
    )
    assert runtime_ok
    assert vi_ok
    # The desk-scale MCMC chain (the engine's default: 20,000 row-blocked
    # sweeps) predicts held-out ratings within the band and better than
    # the global-mean predictor.
    assert mcmc_ok


@pytest.mark.slow
def test_criterion_7_convergence_shape(vi_report, mcmc_report):
    vi_epochs = len(vi_report.loss_trace)
    vi_plateau = plateau_epoch(vi_report.loss_trace, maximize=True)
    mcmc_plateau = plateau_epoch(mcmc_report.loss_trace, maximize=True)
    vi_frac = vi_plateau / vi_epochs
    mcmc_frac = mcmc_plateau / len(mcmc_report.loss_trace)
    ok = vi_frac < 0.8 and vi_frac <= mcmc_frac
    report_line(
        7,
        ok,
        f"VI plateau {vi_plateau}/{vi_epochs} (frac {vi_frac:.3f} < 0.8), "
        f"MCMC plateau frac {mcmc_frac:.3f}, VI frac <= MCMC frac",
    )
    assert vi_frac < 0.8
    assert vi_frac <= mcmc_frac


@pytest.mark.slow
def test_criterion_8_relative_efficiency(vi_report, mcmc_report):
    ratio = vi_report.wall_clock_seconds / mcmc_report.wall_clock_seconds
    ok = ratio < 0.1
    report_line(
        8,
        ok,
        f"VI {vi_report.wall_clock_seconds:.1f}s vs MCMC "
        f"{mcmc_report.wall_clock_seconds:.1f}s, ratio {ratio:.3f} < 0.1",
    )
    assert ratio < 0.1


def test_criterion_9_prior_sampling_sanity():
    empty = RatingDataset(
        n_users=2, n_items=2,
        user_idx=np.array([], dtype=int),
        item_idx=np.array([], dtype=int),
        rating=np.array([]),
        scale=RatingScale(5),
    )
    hp = ModelHyperparams(3, 1.0)
    cfg = McmcConfig(n_steps=30_000, burn_in=5_000, thin=10, proposal_std=0.6, seed=0,
                     proposal="joint")
    _, samples = retained_states(empty, hp, cfg)
    series = np.stack(
        [np.concatenate([s.u.ravel(), s.v.ravel()]) for s in samples]
    )
    n_batches = 25
    batches = series[: (len(series) // n_batches) * n_batches]
    batch_means = batches.reshape(n_batches, -1, series.shape[1]).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    mean_ok = bool(np.all(np.abs(series.mean(axis=0)) < 3 * se))
    m2 = float(np.mean(series**2))
    m2_ok = abs(m2 - 1.0) < 0.10

    vi_cfg = ViConfig(learning_rate=0.05, epochs=200, seed=0)
    params, _ = vi_train(empty, ModelHyperparams(2, 1.0), vi_cfg)
    mu_dev = max(float(np.abs(params.mu_u).max()), float(np.abs(params.mu_v).max()))
    sigma_dev = max(
        float(np.abs(np.exp(params.log_s_u) - 1.0).max()),
        float(np.abs(np.exp(params.log_s_v) - 1.0).max()),
    )
    vi_ok = mu_dev < 1e-2 and sigma_dev < 1e-2

    ok = mean_ok and m2_ok and vi_ok
    report_line(
        9,
        ok,
        f"prior chain: per-entry means within 3 SE ({mean_ok}), second moment "
        f"{m2:.3f} within 10% of 1; no-obs VI max |mu| {mu_dev:.1e}, "
        f"max |sigma-1| {sigma_dev:.1e} (both < 1e-2)",
    )
    assert mean_ok
    assert m2_ok
    assert vi_ok


def test_criterion_10_data_pipeline(full_dataset):
    data, _, _ = full_dataset
    counts_ok = (data.n_users, data.n_items, data.n_ratings) == (610, 9_724, 100_836)

    ten = make_dataset(5, 5, 10, seed=0)
    full_keys = set(zip(ten.user_idx.tolist(), ten.item_idx.tolist()))
    sizes_ok = True
    partition_ok = True
    for seed in range(100):
        split = split_dataset(ten, seed=seed)
        sizes = (split.train.n_ratings, split.validation.n_ratings,
                 split.test.n_ratings)
        sizes_ok = sizes_ok and sizes == (6, 2, 2)
        parts = [set(zip(p.user_idx.tolist(), p.item_idx.tolist()))
                 for p in (split.train, split.validation, split.test)]
        partition_ok = partition_ok and (
            parts[0] | parts[1] | parts[2] == full_keys
            and not (parts[0] & parts[1])
            and not (parts[0] & parts[2])
            and not (parts[1] & parts[2])
        )

    ok = counts_ok and sizes_ok and partition_ok
    report_line(
        10,
        ok,
        f"full file -> {data.n_users} users / {data.n_items} movies / "
        f"{data.n_ratings} ratings; 10-triple split 6/2/2 and partition "
        f"invariants over 100 seeds ({sizes_ok and partition_ok})",
    )
    assert counts_ok
    assert sizes_ok
    assert partition_ok
