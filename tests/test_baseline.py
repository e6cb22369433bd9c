"""Tests for the gradient-descent matrix factorization baseline."""

import copy

import numpy as np
import pytest

import bpmf.baseline
from bpmf.baseline import MfConfig, init_state, mf_epoch, mf_loss, mf_residual, mf_train
from bpmf.errors import DivergenceError
from bpmf.model import (BLOCK_ELEMENTS, LatentState, ModelHyperparams, RatingDataset, RatingScale,
                        rating_patterns, scatter_rows)

from conftest import make_dataset


def _dataset(n, m, user_idx, item_idx, rating):
    return RatingDataset(n, m, user_idx, item_idx, rating, RatingScale(5))


class TestMfLoss:
    def test_empty_observations(self):
        data = _dataset(2, 2, [], [], [])
        state = LatentState(np.ones((2, 1)), np.ones((2, 1)))
        assert mf_loss(mf_residual(state, data)) == 0.0

    def test_single_zero_factor(self):
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.zeros((1, 1)), np.zeros((1, 1)))
        assert mf_loss(mf_residual(state, data)) == 0.25

    def test_exact_fit(self):
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.array([[1.0]]), np.array([[0.5]]))
        assert mf_loss(mf_residual(state, data)) == 0.0

    def test_shape_mismatch(self):
        data = _dataset(2, 2, [], [], [])
        with pytest.raises(ValueError):
            mf_loss(mf_residual(LatentState(np.ones((3, 1)), np.ones((2, 1))), data))


class TestMfEpoch:
    def test_empty_observations_no_change(self):
        data = _dataset(2, 2, [], [], [])
        state = LatentState(np.ones((2, 2)), np.ones((2, 2)))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), mf_residual(state, data),
                       rating_patterns(data))
        np.testing.assert_array_equal(new.u, state.u)
        np.testing.assert_array_equal(new.v, state.v)

    def test_fixed_point_at_exact_fit(self):
        data = _dataset(1, 1, [0], [0], [1.0])
        state = LatentState(np.array([[1.0]]), np.array([[1.0]]))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), mf_residual(state, data),
                       rating_patterns(data))
        assert new.u[0, 0] == 1.0
        assert new.v[0, 0] == 1.0

    def test_hand_computed_update(self):
        # v=0 kills the u-gradient; v then moves using the unchanged u
        data = _dataset(1, 1, [0], [0], [0.5])
        state = LatentState(np.array([[1.0]]), np.array([[0.0]]))
        new = mf_epoch(state, data, MfConfig(alpha=0.1), mf_residual(state, data),
                       rating_patterns(data))
        assert new.u[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert new.v[0, 0] == pytest.approx(0.05, abs=1e-15)

    def test_update_is_scaled_negative_gradient(self):
        # u-update equals alpha times the residual sum, i.e. -(alpha/2)
        # times the finite-difference gradient of mf_loss in each u entry
        rng = np.random.default_rng(0)
        data = make_dataset(3, 3, 6, seed=1, k_true=2)
        cfg = MfConfig(alpha=0.003)
        state = LatentState(rng.normal(0, 0.5, (3, 2)), rng.normal(0, 0.5, (3, 2)))
        new = mf_epoch(state, data, cfg, mf_residual(state, data), rating_patterns(data))
        step = 1e-5
        for i in range(3):
            for c in range(2):
                up = copy.deepcopy(state)
                down = copy.deepcopy(state)
                up.u[i, c] += step
                down.u[i, c] -= step
                fd = (mf_loss(mf_residual(up, data))
                      - mf_loss(mf_residual(down, data))) / (2 * step)
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
        a = mf_epoch(state, data, cfg, mf_residual(state, data), rating_patterns(data))
        b = mf_epoch(state, shuffled, cfg, mf_residual(state, shuffled),
                     rating_patterns(shuffled))
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


def _regathering_mf_train(data, hp, cfg):
    """The training loop as it was before the epochs carried their residual:
    both residuals of an epoch and its loss each take fresh row dots of
    both sides, here by fancy indexing rather than the kernel under test."""
    state = init_state(data.n_users, data.n_items, hp.k, cfg)
    by_user, by_item = rating_patterns(data)
    ii, jj, rr = data.user_idx, data.item_idx, data.rating

    def dots(u, v):
        return np.einsum("ij,ij->i", u[ii], v[jj])

    trace = []
    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            resid = rr - dots(state.u, state.v)
            u_new = state.u + cfg.alpha * scatter_rows(by_user, resid, state.v)
            resid = rr - dots(u_new, state.v)
            v_new = state.v + cfg.alpha * scatter_rows(by_item, resid, u_new)
        try:
            state = LatentState(u_new, v_new)
        except ValueError:
            raise DivergenceError("matrix factorization diverged", epoch) from None
        with np.errstate(over="ignore"):
            trace.append(float(np.sum((rr - dots(state.u, state.v)) ** 2)))
    return state, trace


def _shuffled_with_unrated_rows():
    # user 5 and item 6 have no ratings; the ratings come in a shuffled order
    data = make_dataset(5, 6, 18, seed=8)
    perm = np.random.default_rng(3).permutation(data.n_ratings)
    return RatingDataset(6, 7, data.user_idx[perm], data.item_idx[perm], data.rating[perm],
                         data.scale)


class TestCarriedGathers:
    @pytest.mark.parametrize("data,epochs", [
        (_shuffled_with_unrated_rows(), 40),
        (_dataset(3, 4, [], [], []), 5),
        (_shuffled_with_unrated_rows(), 0),
        (make_dataset(250, 200, 3 * BLOCK_ELEMENTS // 3 + 7, seed=5), 3),
    ], ids=["shuffled-unrated-rows", "no-ratings", "zero-epochs", "several-blocks"])
    def test_bit_identical_to_regathering_loop(self, data, epochs):
        hp, cfg = ModelHyperparams(3, 0.25), MfConfig(alpha=0.05, epochs=epochs, seed=4)
        state, trace = mf_train(data, hp, cfg)
        ref_state, ref_trace = _regathering_mf_train(data, hp, cfg)
        for got, want in ((state.u, ref_state.u), (state.v, ref_state.v),
                          (np.array(trace), np.array(ref_trace))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert len(trace) == epochs

    def test_divergence_at_the_same_epoch(self):
        data = _shuffled_with_unrated_rows()
        hp, cfg = ModelHyperparams(3, 0.25), MfConfig(alpha=2.0, epochs=60, seed=4)
        with pytest.raises(DivergenceError) as got:
            mf_train(data, hp, cfg)
        with pytest.raises(DivergenceError) as want:
            _regathering_mf_train(data, hp, cfg)
        assert got.value.epoch == want.value.epoch > 0

    def test_two_row_dots_passes_per_epoch(self, monkeypatch):
        calls = {"row_dots": 0, "mf_epoch": 0, "mf_loss": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bpmf.baseline, name, counted(name, getattr(bpmf.baseline, name)))
        epochs = 7
        mf_train(make_dataset(5, 6, 18, seed=8), ModelHyperparams(3, 0.25),
                 MfConfig(alpha=0.05, epochs=epochs))
        # one pass for the initial residual, one per half-epoch; the loss takes none
        assert calls == {"row_dots": 1 + 2 * epochs, "mf_epoch": epochs, "mf_loss": epochs}

    def test_two_scatters_per_epoch(self, monkeypatch):
        calls = []

        def counted(side, weights, x):
            calls.append(side)
            return scatter_rows(side, weights, x)

        monkeypatch.setattr(bpmf.baseline, "scatter_rows", counted)
        epochs = 7
        mf_train(make_dataset(5, 6, 18, seed=8), ModelHyperparams(3, 0.25),
                 MfConfig(alpha=0.05, epochs=epochs))
        assert len(calls) == 2 * epochs

    def test_no_full_gather_on_a_multi_block_dataset(self, monkeypatch):
        k = 40
        data = make_dataset(60, 80, 3 * BLOCK_ELEMENTS // k + 5, seed=2)
        seen = []

        kernel = bpmf.baseline.row_dots

        def recording(a, b, a_idx, b_idx, buffers):
            seen.append((buffers[0].shape, buffers[1].shape, buffers[2].shape))
            return kernel(a, b, a_idx, b_idx, buffers)

        monkeypatch.setattr(bpmf.baseline, "row_dots", recording)
        mf_train(data, ModelHyperparams(k, 0.25), MfConfig(alpha=0.01, epochs=2))
        block = (BLOCK_ELEMENTS // k, k)
        assert seen == [(block, block, (data.n_ratings,))] * 5
