"""Tests for the Metropolis-Hastings engine: kernel correctness,
chain mechanics, determinism, and prior-sampling sanity."""

import copy

import numpy as np
import pytest

from bpmf import mcmc
from bpmf.errors import BpmfError, DivergenceError
from bpmf.mcmc import (
    McmcConfig,
    RowwiseCache,
    acceptance_ratio,
    mh_step,
    row_log_ratios,
    rowwise_sweep,
    run_chain,
)
from bpmf.model import (
    LatentState,
    ModelHyperparams,
    PosteriorMean,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    log_joint,
    rating_residuals,
    row_dots,
    sigmoid,
)

from conftest import discrete_mh_kernel, make_dataset, predict_point, retained_states
from test_acceptance import quadrature_1x1


class TestAcceptanceRatio:
    def test_equal_densities(self):
        assert acceptance_ratio(-5.0, -5.0) == 1.0

    def test_uphill_always_accepted(self):
        assert acceptance_ratio(-5.0, -2.0) == 1.0

    def test_downhill_half(self):
        assert acceptance_ratio(0.0, -np.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_bounds(self):
        for delta in np.linspace(-20, 20, 41):
            assert 0.0 <= acceptance_ratio(0.0, delta) <= 1.0


class TestDiscreteKernel:
    """Closed-form checks of the MH transition matrix on finite chains."""

    @staticmethod
    def _five_state():
        target = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        n = target.size
        # symmetric nearest-neighbor proposal with self-loops at the ends
        proposal = np.zeros((n, n))
        for a in range(n):
            for b in (a - 1, a + 1):
                if 0 <= b < n:
                    proposal[a, b] = 0.5
            proposal[a, a] = 1.0 - proposal[a].sum()
        return target, discrete_mh_kernel(target, proposal)

    def test_rows_are_distributions(self):
        _, kernel = self._five_state()
        assert np.all(kernel >= -1e-15)
        np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)

    def test_detailed_balance(self):
        target, kernel = self._five_state()
        p = target / target.sum()
        flow = p[:, None] * kernel
        np.testing.assert_allclose(flow, flow.T, atol=1e-12)

    def test_stationarity(self):
        target, kernel = self._five_state()
        p = target / target.sum()
        np.testing.assert_allclose(p @ kernel, p, atol=1e-12)

    def test_unnormalized_target_gives_same_kernel(self):
        target = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        proposal = np.full((5, 5), 0.2)
        a = discrete_mh_kernel(target, proposal)
        b = discrete_mh_kernel(7.0 * target, proposal)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_two_state_occupancy(self):
        # simulate the exact 2-state kernel and compare visit frequencies
        target = np.array([0.3, 0.7])
        proposal = np.full((2, 2), 0.5)
        kernel = discrete_mh_kernel(target, proposal)
        rng = np.random.default_rng(0)
        state = 0
        visits = np.zeros(2)
        for _ in range(100_000):
            state = rng.choice(2, p=kernel[state])
            visits[state] += 1
        occupancy = visits / visits.sum()
        np.testing.assert_allclose(occupancy, target, atol=0.01)


class TestMhStep:
    def test_near_zero_proposal_always_accepts(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=10, burn_in=0, proposal_std=1e-12)
        state = LatentState(np.array([[0.3]]), np.array([[0.2]]))
        accepted = [
            mh_step(state, tiny_dataset, hp, cfg, np.random.default_rng(s),
                    log_joint(state, tiny_dataset, hp))[1]
            for s in range(50)
        ]
        assert all(accepted)

    def test_forced_accept_returns_proposal(self, tiny_dataset):
        class ForcedRng:
            def __init__(self):
                self.inner = np.random.default_rng(0)

            def normal(self, loc, scale, size=None):
                return self.inner.normal(loc, scale, size)

            def uniform(self):
                return 0.0

        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=10, burn_in=0, proposal_std=5.0)
        state = LatentState(np.array([[0.0]]), np.array([[0.0]]))
        new, accepted, _ = mh_step(state, tiny_dataset, hp, cfg, ForcedRng(),
                                   log_joint(state, tiny_dataset, hp))
        assert accepted
        assert new.u[0, 0] != 0.0 or new.v[0, 0] != 0.0

    def test_rejected_step_repeats_state_exactly(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=2000, burn_in=0, proposal_std=3.0)
        rng = np.random.default_rng(4)
        state = LatentState(np.array([[0.1]]), np.array([[0.1]]))
        saw_rejection = False
        for _ in range(200):
            new, accepted, _ = mh_step(state, tiny_dataset, hp, cfg, rng,
                                       log_joint(state, tiny_dataset, hp))
            if not accepted:
                saw_rejection = True
                assert new is state
            state = new
        assert saw_rejection

    def test_moderate_acceptance_rate(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=10_000, burn_in=0, proposal_std=0.5, seed=0)
        trace = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        assert 0.05 < trace.acceptance_rate < 0.95


class TestRunChain:
    def test_retained_sample_count(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=10, burn_in=5, thin=5, proposal_std=0.5)
        trace, states = retained_states(tiny_dataset, hp, cfg)
        assert len(states) == 1
        assert trace.step_count == 10

    def test_deterministic_energies(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=200, burn_in=100, proposal_std=0.5, seed=3)
        a = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        b = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        np.testing.assert_array_equal(a.energies, b.energies)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_chain_length_is_not_an_allocation(self, tiny_dataset, monkeypatch):
        # a chain too long for any array runs until something stops it
        class Stop(Exception):
            pass

        sweep = mcmc.rowwise_sweep
        calls = []

        def three_sweeps(*args):
            calls.append(None)
            if len(calls) > 3:
                raise Stop
            return sweep(*args)

        monkeypatch.setattr(mcmc, "rowwise_sweep", three_sweeps)
        cfg = McmcConfig(n_steps=10**30, burn_in=0, proposal="rowwise", proposal_std=0.5)
        with pytest.raises(Stop):
            run_chain(tiny_dataset, ModelHyperparams(1, 0.1), cfg, lambda state: None)
        assert len(calls) == 4

    def test_energies_always_finite(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = joint(n_steps=3000, burn_in=0, proposal_std=1.0, seed=5)
        trace = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        assert np.isfinite(trace.energies).all()

    def test_prior_chain_moments(self, empty_dataset):
        # with no observations the posterior is the standard-normal prior
        hp = ModelHyperparams(3, 1.0)
        cfg = joint(n_steps=30_000, burn_in=5_000, thin=10, proposal_std=0.6, seed=0)
        _, states = retained_states(empty_dataset, hp, cfg)
        series = np.stack(
            [np.concatenate([s.u.ravel(), s.v.ravel()]) for s in states]
        )
        assert series.size >= 20_000
        # batch-means standard error absorbs residual autocorrelation
        n_batches = 25
        batches = series[: (len(series) // n_batches) * n_batches]
        batch_means = batches.reshape(n_batches, -1, series.shape[1]).mean(axis=1)
        se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        assert np.all(np.abs(series.mean(axis=0)) < 3 * se)
        assert np.mean(series**2) == pytest.approx(1.0, rel=0.10)


class RecordingRng:
    """A seeded generator that keeps every normal and uniform array it draws."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.normals, self.uniforms = [], []

    def normal(self, loc, scale, size=None):
        self.normals.append(self.inner.normal(loc, scale, size))
        return self.normals[-1]

    def uniform(self, size=None):
        self.uniforms.append(self.inner.uniform(size=size))
        return self.uniforms[-1]


def joint(**kw):
    return McmcConfig(proposal="joint", **kw)


def rowwise(**kw):
    return McmcConfig(proposal="rowwise", **kw)


def moved_row(state, side, i, row):
    moved = copy.deepcopy(state)
    getattr(moved, side)[i] = row
    return moved


class TestRowwiseKernel:
    """Oracles for the row-blocked kernel: each row's MH ratio is a
    difference of full log joints, and the chain's bookkeeping is exact."""

    @pytest.mark.parametrize("side", ["u", "v"])
    def test_row_ratio_is_log_joint_difference(self, side):
        data = make_dataset(5, 6, 18, seed=1)
        hp = ModelHyperparams(2, 0.2)
        rng = np.random.default_rng(2)
        state = LatentState(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
        rows, other = (state.u, state.v) if side == "u" else (state.v, state.u)
        own_idx, other_idx = (
            (data.user_idx, data.item_idx) if side == "u" else (data.item_idx, data.user_idx)
        )
        proposed = rows + rng.normal(0.0, 0.7, size=rows.shape)
        sq = rating_residuals(rows, other, own_idx, other_idx, data.rating) ** 2
        sq_proposed = rating_residuals(proposed, other, own_idx, other_idx, data.rating) ** 2

        ratios = row_log_ratios(rows, proposed, own_idx, sq, sq_proposed, hp.sigma2)

        base = log_joint(state, data, hp)
        expected = [
            log_joint(moved_row(state, side, i, proposed[i]), data, hp) - base
            for i in range(rows.shape[0])
        ]
        np.testing.assert_allclose(ratios, expected, rtol=1e-10, atol=1e-12)

    def test_sweep_decisions_follow_log_joint(self):
        # replay one sweep row by row with log_joint as the only density
        data = make_dataset(4, 5, 12, seed=3)
        hp = ModelHyperparams(2, 0.2)
        cfg = rowwise(n_steps=1, burn_in=0, proposal_std=0.8)
        init = np.random.default_rng(4)
        state = LatentState(init.normal(size=(4, 2)), init.normal(size=(5, 2)))
        before = copy.deepcopy(state)
        rng = RecordingRng(5)
        frac, log_g = rowwise_sweep(state, data, hp, cfg, rng,
                                    RowwiseCache.for_state(before, data),
                                    log_joint(before, data, hp))

        expect = copy.deepcopy(before)
        n_accepted = 0
        for side, noise, uniform in zip("uv", rng.normals, rng.uniforms):
            rows = getattr(expect, side).copy()  # the other block is held fixed
            for i in range(rows.shape[0]):
                moved = moved_row(expect, side, i, rows[i] + noise[i])
                ratio = log_joint(moved, data, hp) - log_joint(
                    moved_row(expect, side, i, rows[i]), data, hp)
                if uniform[i] < acceptance_ratio(0.0, ratio):
                    getattr(expect, side)[i] = rows[i] + noise[i]
                    n_accepted += 1
        np.testing.assert_array_equal(state.u, expect.u)
        np.testing.assert_array_equal(state.v, expect.v)
        assert frac == n_accepted / (4 + 5)
        assert log_g == pytest.approx(log_joint(expect, data, hp), abs=1e-10)

    def test_energies_are_log_joint_of_retained_states(self):
        data = make_dataset(6, 7, 20, seed=2)
        hp = ModelHyperparams(2, 0.25)
        trace, states = retained_states(data, hp, rowwise(n_steps=2000, burn_in=0, thin=1,
                                                          proposal_std=0.5))
        exact = [log_joint(s, data, hp) for s in states]
        np.testing.assert_allclose(trace.energies, exact, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_1x1(self, tiny_dataset, seed):
        # acceptance criterion 1 with the row-blocked kernel
        hp = ModelHyperparams(k=1, sigma2=0.1)
        oracle = denormalize_rating(quadrature_1x1(0.8, 0.1)[0], tiny_dataset.scale)
        cfg = rowwise(n_steps=50_000, burn_in=10_000, thin=10, proposal_std=0.5, seed=seed)
        mean = PosteriorMean(np.array([0]), np.array([0]))
        run_chain(tiny_dataset, hp, cfg, mean.add)
        prediction = mean.ratings(tiny_dataset.scale)[0]
        assert abs(prediction - oracle) / tiny_dataset.scale.span < 0.02

    def test_prior_second_moment(self, empty_dataset):
        hp = ModelHyperparams(3, 1.0)
        _, states = retained_states(empty_dataset, hp, rowwise(n_steps=20_000, burn_in=2_000,
                                                               thin=10, proposal_std=0.6))
        series = np.stack([np.concatenate([s.u.ravel(), s.v.ravel()]) for s in states])
        assert np.mean(series**2) == pytest.approx(1.0, rel=0.10)

    def test_acceptance_is_a_fraction_per_sweep(self):
        data = make_dataset(6, 7, 20, seed=2)
        trace = run_chain(data, ModelHyperparams(2, 0.25),
                          rowwise(n_steps=300, burn_in=0, proposal_std=0.5), lambda state: None)
        counts = trace.accepted * (6 + 7)
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert np.all((trace.accepted >= 0.0) & (trace.accepted <= 1.0))
        assert 0.0 < trace.acceptance_rate < 1.0
        assert trace.acceptance_rate == pytest.approx(trace.accepted.mean(), rel=1e-12)
        assert trace.accept_count / trace.step_count == trace.acceptance_rate

    def test_deterministic(self, tiny_dataset):
        hp = ModelHyperparams(1, 0.1)
        cfg = rowwise(n_steps=200, burn_in=100, proposal_std=0.5, seed=3)
        a = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        b = run_chain(tiny_dataset, hp, cfg, lambda state: None)
        np.testing.assert_array_equal(a.energies, b.energies)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_non_finite_proposal_raises(self, tiny_dataset):
        cfg = rowwise(n_steps=5, burn_in=0, proposal_std=1e308)
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            run_chain(tiny_dataset, ModelHyperparams(1, 0.1), cfg, lambda state: None)
        assert 0 <= err.value.epoch < cfg.n_steps


class TestMcmcPredict:
    def test_single_sample_matches_point_prediction(self, tiny_dataset):
        state = LatentState(np.array([[0.4]]), np.array([[0.9]]))
        mean = PosteriorMean(np.array([0]), np.array([0]))
        mean.add(state)
        expected = predict_point(state.u[0], state.v[0], tiny_dataset.scale)
        assert mean.ratings(tiny_dataset.scale)[0] == pytest.approx(expected)

    def test_two_sample_average(self):
        # sigmoid values 0.2 and 0.8 average to 0.5, i.e. rating 3 on 1..5
        from scipy.special import logit

        scale = RatingScale(5)
        s1 = LatentState(np.array([[1.0]]), np.array([[logit(0.2)]]))
        s2 = LatentState(np.array([[1.0]]), np.array([[logit(0.8)]]))
        mean = PosteriorMean(np.array([0]), np.array([0]))
        mean.add(s1)
        mean.add(s2)
        assert mean.ratings(scale)[0] == pytest.approx(3.0, abs=1e-9)

    def test_empty_trace_errors(self):
        mean = PosteriorMean(np.array([0]), np.array([0]))
        with pytest.raises(BpmfError):
            mean.ratings(RatingScale(5))


class TestStreamedPosteriorMean:
    @pytest.mark.parametrize("cfg", [
        joint(n_steps=300, burn_in=100, thin=1, proposal_std=0.05, seed=2),
        rowwise(n_steps=120, burn_in=40, thin=1, seed=2),
        rowwise(n_steps=120, burn_in=40, thin=7, seed=2),
    ], ids=["joint", "rowwise", "rowwise-thin7"])
    def test_streamed_mean_equals_stored_trace(self, cfg):
        data = make_dataset(12, 15, 60, seed=4)
        hp = ModelHyperparams(3, 0.25)
        # two held-out pair sets, each with its own running mean
        held_out = [make_dataset(12, 15, n, seed=seed) for n, seed in ((30, 5), (25, 6))]
        means = [PosteriorMean(part.user_idx, part.item_idx) for part in held_out]
        seen = []

        def on_sample(state):
            seen.append(copy.deepcopy(state))
            for mean in means:
                mean.add(state)

        streamed = run_chain(data, hp, cfg, on_sample)
        # the same chain with an on_sample that only keeps copies
        stored, kept_states = retained_states(data, hp, cfg)
        assert not hasattr(streamed, "samples") and len(seen) == len(kept_states) > 1
        np.testing.assert_array_equal(streamed.energies, stored.energies)
        np.testing.assert_array_equal(streamed.accepted, stored.accepted)
        for got, kept in zip(seen, kept_states):
            assert np.array_equal(got.u, kept.u) and np.array_equal(got.v, kept.v)
        for mean, part in zip(means, held_out):
            # the summation of the predictor before it was streamed, as the reference
            total = np.zeros(part.n_ratings)
            for state in kept_states:
                total += sigmoid(row_dots(state.u, state.v, part.user_idx, part.item_idx))
            reference = denormalize_rating(total / len(kept_states), data.scale)
            assert np.array_equal(mean.ratings(data.scale), reference)


class TestConfigValidation:
    def test_burn_in_bounds(self):
        with pytest.raises(ValueError):
            McmcConfig(n_steps=10, burn_in=10)

    def test_thin_bounds(self):
        with pytest.raises(ValueError):
            McmcConfig(n_steps=10, burn_in=0, thin=0)

    def test_proposal_std_positive(self):
        with pytest.raises(ValueError):
            McmcConfig(n_steps=10, burn_in=0, proposal_std=0.0)

    def test_unknown_proposal(self):
        with pytest.raises(ValueError):
            McmcConfig(n_steps=10, burn_in=0, proposal="gibbs")

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            McmcConfig(n_steps=10, burn_in=0, seed=-1)

    def test_desk_scale_default(self):
        cfg = McmcConfig()
        assert (cfg.proposal, cfg.proposal_std) == ("rowwise", 0.2)
        assert (cfg.n_steps, cfg.burn_in, cfg.thin) == (20_000, 12_000, 80)
        # a given burn-in sets the stride; a given stride leaves burn-in at 60%
        assert McmcConfig(n_steps=1000, burn_in=0).thin == 10
        assert McmcConfig(n_steps=1000, thin=3).burn_in == 600
