"""Tests for the variational engine: KL closed form, pathwise gradients,
bound property, optimization behavior, and prediction."""

import copy
import warnings
import weakref

import numpy as np
import pytest

from bpmf import vi
from bpmf.errors import DivergenceError
from bpmf.model import (LatentState, ModelHyperparams, PosteriorMean, RatingDataset, RatingScale,
                        dot_buffers, rating_patterns)
from bpmf.vi import (
    PREDICT_SAMPLES,
    VariationalParams,
    ViConfig,
    draw_noise,
    elbo_value_with_noise,
    elbo_with_noise,
    init_params,
    kl_gaussian_vs_standard,
    vi_predict,
    vi_predict_batch,
    vi_train,
)

from conftest import make_dataset, predict_point


def random_params(n, m, k, rng, mu_scale=0.5, log_s_scale=0.5):
    return VariationalParams(
        rng.normal(0, mu_scale, (n, k)),
        rng.normal(0, log_s_scale, (n, k)),
        rng.normal(0, mu_scale, (m, k)),
        rng.normal(0, log_s_scale, (m, k)),
    )


# the larger case of the serial-reference tests
LARGE = make_dataset(400, 600, 3000, seed=0)


class TestKlClosedForm:
    def test_standard_normal_is_zero(self):
        assert kl_gaussian_vs_standard(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        assert kl_gaussian_vs_standard(1.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_doubled_variance(self):
        expected = 0.5 * (2.0 - 1.0 - np.log(2.0))
        assert kl_gaussian_vs_standard(0.0, 0.5 * np.log(2.0)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_nonnegative_on_grid(self):
        mu, log_s = np.meshgrid(np.linspace(-3, 3, 61), np.linspace(-2, 2, 41))
        vals = kl_gaussian_vs_standard(mu, log_s)
        assert np.all(vals >= 0)
        at_origin = vals[(mu == 0) & (log_s == 0)]
        assert np.all(at_origin == 0)
        assert np.all(vals[(mu != 0) | (log_s != 0)] > 0)


class TestElboEstimate:
    def test_no_observations_at_prior(self, empty_dataset):
        params = VariationalParams(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        )
        hp = ModelHyperparams(2, 0.25)
        val = elbo_value_with_noise(params, empty_dataset, hp,
                                    draw_noise(params, 4, np.random.default_rng(0)),
                                    dot_buffers(0, 2))
        assert val == 0.0

    def test_no_observations_is_negative_kl(self, empty_dataset):
        rng = np.random.default_rng(1)
        params = random_params(2, 2, 2, rng)
        hp = ModelHyperparams(2, 0.25)
        expected = -(
            np.sum(kl_gaussian_vs_standard(params.mu_u, params.log_s_u))
            + np.sum(kl_gaussian_vs_standard(params.mu_v, params.log_s_v))
        )
        for seed in range(3):
            noise = draw_noise(params, 2, np.random.default_rng(seed))
            val = elbo_value_with_noise(params, empty_dataset, hp, noise, dot_buffers(0, 2))
            assert val == pytest.approx(expected, abs=1e-12)

    def test_latent_dimension_permutation_symmetry(self):
        data = make_dataset(3, 4, 6, seed=2, k_true=2)
        hp = ModelHyperparams(3, 0.25)
        rng = np.random.default_rng(5)
        params = random_params(3, 4, 3, rng)
        noise = draw_noise(params, 2, np.random.default_rng(7))
        base = elbo_value_with_noise(params, data, hp, noise, dot_buffers(6, 3))
        perm = [2, 0, 1]
        permuted = VariationalParams(
            params.mu_u[:, perm], params.log_s_u[:, perm],
            params.mu_v[:, perm], params.log_s_v[:, perm],
        )
        permuted_noise = [(eu[:, perm], ev[:, perm]) for eu, ev in noise]
        val = elbo_value_with_noise(permuted, data, hp, permuted_noise, dot_buffers(6, 3))
        assert val == pytest.approx(base, abs=1e-9)


class TestElboGradient:
    def test_kl_only_gradient(self, empty_dataset):
        params = VariationalParams(
            np.full((2, 2), 0.0), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        )
        params.mu_u[0, 0] = 0.3
        hp = ModelHyperparams(2, 0.25)
        noise = draw_noise(params, 1, np.random.default_rng(0))
        grad = elbo_with_noise(params, empty_dataset, hp, noise, dot_buffers(0, 2),
                               rating_patterns(empty_dataset))
        assert grad.mu_u[0, 0] == pytest.approx(-0.3, abs=1e-12)
        assert grad.log_s_u[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_gradient_at_prior_no_observations(self, empty_dataset):
        params = VariationalParams(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        )
        hp = ModelHyperparams(2, 0.25)
        noise = draw_noise(params, 1, np.random.default_rng(0))
        grad = elbo_with_noise(params, empty_dataset, hp, noise, dot_buffers(0, 2),
                               rating_patterns(empty_dataset))
        for block in (grad.mu_u, grad.log_s_u, grad.mu_v, grad.log_s_v):
            np.testing.assert_allclose(block, 0.0, atol=1e-12)

    # a divisor fixed at one draw count would pass with that count only;
    # the 2-draw cases keep the bare seed as their id
    @pytest.mark.parametrize("seed, draws", [
        pytest.param(seed, draws, id=str(seed) if draws == 2 else f"{seed}-draws{draws}")
        for draws in (2, 1, 3) for seed in range(10)
    ])
    def test_matches_finite_differences(self, seed, draws):
        data = make_dataset(2, 2, 3, seed=seed, k_true=2)
        hp = ModelHyperparams(2, 0.25)
        rng = np.random.default_rng(100 + seed)
        params = random_params(2, 2, 2, rng)
        noise = draw_noise(params, draws, np.random.default_rng(200 + seed))
        buffers, patterns = dot_buffers(3, 2), rating_patterns(data)
        grad = elbo_with_noise(params, data, hp, noise, buffers, patterns)

        step = 1e-5
        for name in ("mu_u", "log_s_u", "mu_v", "log_s_v"):
            block = getattr(params, name)
            grad_block = getattr(grad, name)
            for idx in np.ndindex(block.shape):
                up = copy.deepcopy(params)
                down = copy.deepcopy(params)
                getattr(up, name)[idx] += step
                getattr(down, name)[idx] -= step
                f_up = elbo_value_with_noise(up, data, hp, noise, buffers)
                f_down = elbo_value_with_noise(down, data, hp, noise, buffers)
                fd = (f_up - f_down) / (2 * step)
                assert grad_block[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestViTrain:
    def test_each_gradient_is_freed_before_the_next_epoch(self, monkeypatch):
        # so only one gradient is alive at a time, which lowers peak memory (README)
        returned = []
        inner = vi.elbo_with_noise

        def recording(*args):
            assert all(ref() is None for ref in returned)
            grad = inner(*args)
            returned.append(weakref.ref(grad.mu_v))
            return grad

        monkeypatch.setattr(vi, "elbo_with_noise", recording)
        vi_train(make_dataset(5, 6, 18, seed=1), ModelHyperparams(2, 0.25), ViConfig(epochs=4))
        assert len(returned) == 4

    def test_zero_epochs(self):
        data = make_dataset(3, 3, 5)
        cfg = ViConfig(epochs=0)
        params, trace = vi_train(data, ModelHyperparams(2, 0.25), cfg)
        assert trace == []
        assert params.mu_u.shape == (3, 2)

    def test_no_observations_converges_to_prior(self, empty_dataset):
        cfg = ViConfig(learning_rate=0.05, epochs=200, seed=0)
        params, _ = vi_train(empty_dataset, ModelHyperparams(2, 0.25), cfg)
        np.testing.assert_allclose(params.mu_u, 0.0, atol=1e-2)
        np.testing.assert_allclose(params.mu_v, 0.0, atol=1e-2)
        np.testing.assert_allclose(np.exp(params.log_s_u), 1.0, atol=1e-2)
        np.testing.assert_allclose(np.exp(params.log_s_v), 1.0, atol=1e-2)

    def test_deterministic_given_seed(self):
        data = make_dataset(4, 4, 8, seed=3)
        cfg = ViConfig(epochs=25, seed=9)
        p1, t1 = vi_train(data, ModelHyperparams(2, 0.25), cfg)
        p2, t2 = vi_train(data, ModelHyperparams(2, 0.25), cfg)
        assert t1 == t2
        np.testing.assert_array_equal(p1.mu_u, p2.mu_u)
        np.testing.assert_array_equal(p1.log_s_v, p2.log_s_v)

    def test_moving_average_elbo_non_decreasing(self):
        data = make_dataset(7, 7, 40, seed=8)
        cfg = ViConfig(learning_rate=0.01, epochs=200, mc_samples=32, seed=1)
        _, trace = vi_train(data, ModelHyperparams(2, 0.25), cfg)
        window = 20
        smoothed = np.convolve(trace, np.ones(window) / window, mode="valid")
        assert np.all(np.diff(smoothed) >= -0.5)

    def test_trace_length_matches_epochs(self):
        data = make_dataset(3, 3, 5)
        _, trace = vi_train(data, ModelHyperparams(2, 0.25), ViConfig(epochs=13))
        assert len(trace) == 13

    def test_divergence_raises_without_numpy_warnings(self):
        data = make_dataset(20, 30, 200, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                vi_train(data, ModelHyperparams(10, 0.25), ViConfig(learning_rate=1e4, epochs=50))
        assert err.value.epoch is not None

    def test_last_epoch_divergence_names_that_epoch(self):
        # the only update diverges; the error names it, not a later predictor
        data = make_dataset(20, 30, 200, seed=0)
        with pytest.raises(DivergenceError) as err:
            vi_train(data, ModelHyperparams(10, 0.25), ViConfig(learning_rate=1e10, epochs=1))
        assert err.value.epoch == 0


class TestViPredict:
    def test_small_sigma_mc_approaches_plug_in(self):
        rng = np.random.default_rng(0)
        params = VariationalParams(
            rng.normal(0, 1, (1, 3)), np.full((1, 3), -8.0),
            rng.normal(0, 1, (1, 3)), np.full((1, 3), -8.0),
        )
        plug_in = predict_point(params.mu_u[0], params.mu_v[0], RatingScale(5))
        mc = vi_predict(params, 0, 0, RatingScale(5), mc_samples=500,
                        rng=np.random.default_rng(1))
        assert mc == pytest.approx(plug_in, abs=1e-3)

    def test_prediction_within_scale(self):
        rng = np.random.default_rng(2)
        params = random_params(3, 3, 2, rng, mu_scale=2.0)
        for i in range(3):
            for j in range(3):
                val = vi_predict(params, i, j, RatingScale(5), mc_samples=50,
                                 rng=np.random.default_rng(i * 3 + j))
                assert 1.0 <= val <= 5.0

    @pytest.mark.parametrize("params, ii, jj, scale", [
        (random_params(4, 5, 3, np.random.default_rng(3)),
         np.array([0, 3, 3, 1, 0]), np.array([4, 0, 2, 2, 4]), RatingScale(5)),
        (init_params(LARGE.n_users, LARGE.n_items, 20, ViConfig(seed=3)),
         LARGE.user_idx, LARGE.item_idx, LARGE.scale),
    ], ids=["small", "large"])
    def test_batch_is_a_posterior_mean_over_whole_factor_draws(self, params, ii, jj, scale):
        rng = np.random.default_rng(0)
        mean = PosteriorMean(ii, jj)
        for _ in range(PREDICT_SAMPLES):
            [(eps_u, eps_v)] = draw_noise(params, 1, rng)
            mean.add(LatentState(params.mu_u + np.exp(params.log_s_u) * eps_u,
                                 params.mu_v + np.exp(params.log_s_v) * eps_v))
        expected = mean.ratings(scale)
        got = vi_predict_batch(params, ii, jj, scale)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_batch_agrees_with_single_pair_estimator(self):
        # sigma well away from 0, so the 32-draw batch mean has real Monte Carlo spread;
        # pair p is (p, p), so its batch error is independent of every other pair's
        rng = np.random.default_rng(11)
        n, scale, draws = 40, RatingScale(5), 20_000
        params = VariationalParams(
            rng.normal(0, 1.2, (n, 2)), np.log(rng.uniform(0.6, 1.2, (n, 2))),
            rng.normal(0, 1.2, (n, 2)), np.log(rng.uniform(0.6, 1.2, (n, 2))),
        )
        batch = vi_predict_batch(params, np.arange(n), np.arange(n), scale)
        z = np.empty(n)
        for p in range(n):
            reference = vi_predict(params, p, p, scale, mc_samples=draws,
                                   rng=np.random.default_rng(100 + p))
            # per-draw spread of the rating, from draws independent of both estimates
            eps = np.random.default_rng(200 + p).standard_normal((2, draws, params.k))
            u = params.mu_u[p] + np.exp(params.log_s_u[p]) * eps[0]
            v = params.mu_v[p] + np.exp(params.log_s_v[p]) * eps[1]
            sd = scale.span * np.std(1.0 / (1.0 + np.exp(-np.sum(u * v, axis=1))))
            z[p] = (batch[p] - reference) / (sd * np.sqrt(1.0 / PREDICT_SAMPLES + 1.0 / draws))
        assert np.all(np.abs(z) < 4.0)
        # pooled over the pairs: a biased estimator (say, the plug-in mean) inflates z^2
        assert np.mean(z**2) < 1.0 + 4.0 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("side,index", [("user", -1), ("user", 3), ("item", -1), ("item", 4)])
    def test_batch_rejects_out_of_range_index(self, side, index):
        # a negative index must not wrap onto the last row
        params = random_params(3, 4, 2, np.random.default_rng(0))
        ii, jj = np.array([0, 1]), np.array([0, 1])
        (ii if side == "user" else jj)[1] = index
        with pytest.raises(IndexError):
            vi_predict_batch(params, ii, jj, RatingScale(5))


def serial_vi_train(data, hp, cfg):
    """``vi_train`` written out: each epoch draws its noise just before it runs."""
    params = init_params(data.n_users, data.n_items, hp.k, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    monitor = draw_noise(params, 1, np.random.default_rng(cfg.seed + 2))
    buffers, patterns = dot_buffers(data.n_ratings, hp.k), rating_patterns(data)
    trace = []
    for _ in range(cfg.epochs):
        grad = elbo_with_noise(params, data, hp, draw_noise(params, cfg.mc_samples, rng),
                               buffers, patterns)
        params.mu_u += cfg.learning_rate * grad.mu_u
        params.log_s_u += cfg.learning_rate * grad.log_s_u
        params.mu_v += cfg.learning_rate * grad.mu_v
        params.log_s_v += cfg.learning_rate * grad.log_s_v
        trace.append(elbo_value_with_noise(params, data, hp, monitor, buffers))
    return params, trace


@pytest.mark.parametrize("data, k", [(make_dataset(12, 15, 60, seed=4), 3), (LARGE, 10)],
                         ids=["small", "large"])
def test_vi_train_matches_serial_reference(data, k):
    hp = ModelHyperparams(k, 0.25)
    cfg = ViConfig(learning_rate=0.05, epochs=20, mc_samples=2, seed=5)
    params, trace = vi_train(data, hp, cfg)
    expected, expected_trace = serial_vi_train(data, hp, cfg)
    assert np.array_equal(trace, expected_trace)
    for name in ("mu_u", "log_s_u", "mu_v", "log_s_v"):
        assert np.array_equal(getattr(params, name), getattr(expected, name))


class TestConfigValidation:
    def test_learning_rate_positive(self):
        with pytest.raises(ValueError):
            ViConfig(learning_rate=0.0)

    def test_mc_samples_at_least_one(self):
        with pytest.raises(ValueError):
            ViConfig(mc_samples=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            ViConfig(seed=-1)
