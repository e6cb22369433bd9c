"""Tests for the gradient-descent matrix factorization baseline."""

import copy

import numpy as np
import pytest

from bpmf.baseline import MfConfig, init_state, mf_epoch, mf_loss, mf_train
from bpmf.errors import DivergenceError
from bpmf.model import LatentState, ModelHyperparams, RatingDataset, RatingScale, dot_buffers

from conftest import make_dataset


def _dataset(n, m, user_idx, item_idx, rating):
    return RatingDataset(n, m, user_idx, item_idx, rating, RatingScale(5))


class TestMfLoss:
    def test_empty_observations(self):
        data = _dataset(2, 2, [], [], [])
        state = LatentState(np.ones((2, 1)), np.ones((2, 1)))
        assert mf_loss(state, data) == 0.0

    def test_single_zero_factor(self):
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.zeros((1, 1)), np.zeros((1, 1)))
        assert mf_loss(state, data) == 0.25

    def test_exact_fit(self):
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.array([[1.0]]), np.array([[0.5]]))
        assert mf_loss(state, data) == 0.0

    def test_shape_mismatch(self):
        data = _dataset(2, 2, [], [], [])
        with pytest.raises(ValueError):
            mf_loss(LatentState(np.ones((3, 1)), np.ones((2, 1))), data)


class TestMfEpoch:
    def test_empty_observations_no_change(self):
        data = _dataset(2, 2, [], [], [])
        state = LatentState(np.ones((2, 2)), np.ones((2, 2)))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), dot_buffers(0, 2))
        np.testing.assert_array_equal(new.u, state.u)
        np.testing.assert_array_equal(new.v, state.v)

    def test_fixed_point_at_exact_fit(self):
        data = _dataset(1, 1, [0], [0], [1.0])
        state = LatentState(np.array([[1.0]]), np.array([[1.0]]))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), dot_buffers(1, 1))
        assert new.u[0, 0] == 1.0
        assert new.v[0, 0] == 1.0

    def test_hand_computed_update(self):
        # v=0 kills the u-gradient; v then moves using the unchanged u
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.array([[1.0]]), np.array([[0.0]]))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), dot_buffers(1, 1))
        assert new.u[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert new.v[0, 0] == pytest.approx(0.05, abs=1e-15)

    def test_update_is_scaled_negative_gradient(self):
        # u-update equals alpha times the residual sum, i.e. -(alpha/2)
        # times the finite-difference gradient of mf_loss in each u entry
        rng = np.random.default_rng(0)
        data = make_dataset(3, 3, 6, seed=1, k_true=2)
        cfg = MfConfig(alpha=0.003)
        state = LatentState(rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (3, 2)))
        new = mf_epoch(state, data, cfg, dot_buffers(6, 2))
        step = 1e-5
        for i in range(3):
            for c in range(2):
                up = copy.deepcopy(state)
                down = copy.deepcopy(state)
                up.u[i, c] += step
                down.u[i, c] -= step
                fd = (mf_loss(up, data) - mf_loss(down, data)) / (2 * step)
                expected = -0.5 * cfg.alpha * fd
                actual = new.u[i, c] - state.u[i, c]
                assert actual == pytest.approx(expected, rel=1e-4, abs=1e-12)

    def test_observation_order_invariance(self):
        data = make_dataset(4, 5, 12, seed=3)
        rng = np.random.default_rng(9)
        perm = rng.permutation(data.n_ratings)
        shuffled = RatingDataset(
            data.n_users, data.n_items,
            data.user_idx[perm], data.item_idx[perm], data.rating[perm],
            data.scale,
        )
        state = init_state(4, 5, 2, MfConfig(seed=5))
        cfg = MfConfig(alpha=0.01)
        a = mf_epoch(state, data, cfg, dot_buffers(12, 2))
        b = mf_epoch(state, shuffled, cfg, dot_buffers(12, 2))
        np.testing.assert_allclose(a.u, b.u, atol=1e-9)
        np.testing.assert_allclose(a.v, b.v, atol=1e-9)

    def test_divergence_raises_with_epoch(self):
        data = make_dataset(4, 4, 10, seed=2)
        cfg = MfConfig(alpha=1e6, epochs=50)
        with pytest.raises(DivergenceError) as err:
            mf_train(data, ModelHyperparams(2, 0.25), cfg)
        assert err.value.epoch is not None


class TestMfTrain:
    def test_zero_epochs(self):
        data = make_dataset(3, 3, 5)
        state, trace = mf_train(data, ModelHyperparams(2, 0.25), MfConfig(epochs=0))
        assert trace == []
        assert state.u.shape == (3, 2)

    def test_rank_one_matrix_is_learned(self):
        a = np.array([0.9, 0.4])
        b = np.array([0.8, 0.3])
        data = _dataset(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], np.outer(a, b).ravel())
        _, trace = mf_train(data, ModelHyperparams(1, 0.25),
                            MfConfig(alpha=0.05, epochs=500, seed=1))
        assert trace[-1] < 1e-3

    def test_deterministic_given_seed(self):
        data = make_dataset(5, 6, 15, seed=4)
        hp, cfg = ModelHyperparams(3, 0.25), MfConfig(alpha=0.005, epochs=30, seed=11)
        s1, t1 = mf_train(data, hp, cfg)
        s2, t2 = mf_train(data, hp, cfg)
        assert t1 == t2
        np.testing.assert_array_equal(s1.u, s2.u)

    def test_loss_monotone_decrease_small_alpha(self):
        data = make_dataset(10, 10, 80, seed=6)
        _, trace = mf_train(data, ModelHyperparams(3, 0.25),
                            MfConfig(alpha=0.01, epochs=150, seed=2))
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)

    def test_trace_length_matches_epochs(self):
        data = make_dataset(3, 3, 5)
        _, trace = mf_train(data, ModelHyperparams(2, 0.25), MfConfig(epochs=17))
        assert len(trace) == 17


class TestMfConfig:
    def test_negative_seed(self):
        with pytest.raises(ValueError):
            MfConfig(seed=-1)
