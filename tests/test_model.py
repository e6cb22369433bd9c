"""Unit and property tests for the core rating model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmf.data import build_dataset
from bpmf.model import (
    LatentState,
    ModelHyperparams,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    log_joint,
    row_dots,
    sigmoid,
)

from conftest import log_likelihood_entry, predict_point

LOG_2PI = math.log(2.0 * math.pi)


class TestRatingScale:
    def test_minimum_r_max(self):
        with pytest.raises(ValueError):
            RatingScale(1)

    def test_half_star_scale(self):
        scale = RatingScale(5, r_min=0.5)
        assert scale.span == 4.5

    def test_invalid_r_min(self):
        with pytest.raises(ValueError):
            RatingScale(5, r_min=0.0)
        with pytest.raises(ValueError):
            RatingScale(5, r_min=6.0)


class TestRatingDataset:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            RatingDataset(1, 1, [1], [0], [0.5], RatingScale(5))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            RatingDataset(2, 2, [0, 0], [1, 1], [0.5, 0.75], RatingScale(5))

    def test_rejects_unnormalized_rating(self):
        with pytest.raises(ValueError):
            RatingDataset(1, 1, [0], [0], [1.5], RatingScale(5))


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_value_at_one(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_extreme_arguments_do_not_overflow(self):
        assert sigmoid(700.0) == pytest.approx(1.0)
        assert sigmoid(-700.0) == pytest.approx(0.0)

    @given(st.floats(min_value=-30, max_value=30))
    def test_symmetry(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sigmoid(xs)) > 0)


def normalized(ratings, scale):
    """The [0, 1] values ``build_dataset`` stores for original-scale ratings."""
    n = len(ratings)
    return build_dataset((np.arange(n), np.zeros(n), ratings), scale)[0].rating


class TestNormalization:
    def test_endpoints(self):
        np.testing.assert_array_equal(normalized([1, 5, 3], RatingScale(5)), [0.0, 1.0, 0.5])

    def test_denormalize(self):
        scale = RatingScale(5)
        assert denormalize_rating(0.5, scale) == 3.0
        assert denormalize_rating(1.0, scale) == 5.0

    def test_out_of_range_errors(self):
        scale = RatingScale(5)
        with pytest.raises(ValueError):
            normalized([0.2], scale)
        with pytest.raises(ValueError):
            denormalize_rating(1.2, scale)

    @pytest.mark.parametrize("r_max", range(2, 11))
    def test_round_trip_integer_scales(self, r_max):
        scale = RatingScale(r_max)
        ratings = np.arange(1, r_max + 1)
        np.testing.assert_array_equal(denormalize_rating(normalized(ratings, scale), scale),
                                      ratings)

    def test_round_trip_half_star_scale(self):
        scale = RatingScale(5, r_min=0.5)
        ratings = np.arange(0.5, 5.01, 0.5)
        np.testing.assert_allclose(denormalize_rating(normalized(ratings, scale), scale),
                                   ratings, rtol=0, atol=1e-12)


class TestLogLikelihoodEntry:
    def test_zero_residual_unit_variance(self):
        val = log_likelihood_entry(np.zeros(2), np.zeros(2), 0.5, 1.0)
        assert val == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_half_residual(self):
        val = log_likelihood_entry(np.zeros(2), np.zeros(2), 1.0, 1.0)
        assert val == pytest.approx(-0.5 * LOG_2PI - 0.125, abs=1e-12)

    def test_constant_term_quarter_variance(self):
        # residual is zero at sigmoid(0) = 0.5, leaving only the constant
        val = log_likelihood_entry(np.zeros(3), np.zeros(3), 0.5, 0.25)
        assert val == pytest.approx(-0.5 * math.log(2.0 * math.pi * 0.25), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood_entry(np.zeros(2), np.zeros(3), 0.5, 1.0)


class TestModelHyperparams:
    @pytest.mark.filterwarnings("error")  # a numpy scalar must not overflow in the check
    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.inf, math.nan, 1e308, 2.9e307,
                                        np.float64(1e308)])
    def test_rejects_sigma2_whose_normalizer_overflows(self, sigma2):
        # log(2 pi sigma2) is infinite from about 2.86e307 on
        with pytest.raises(ValueError):
            ModelHyperparams(1, sigma2)

    def test_largest_sigma2_gives_finite_log_joint(self):
        data = RatingDataset(1, 1, [0], [0], [0.5], RatingScale(5))
        state = LatentState(np.zeros((1, 1)), np.zeros((1, 1)))
        assert math.isfinite(log_joint(state, data, ModelHyperparams(1, 2.8e307)))


class TestLogJoint:
    def test_prior_only_origin(self, ):
        data = RatingDataset(1, 1, [], [], [], RatingScale(5))
        state = LatentState(np.zeros((1, 1)), np.zeros((1, 1)))
        val = log_joint(state, data, ModelHyperparams(1, 1.0))
        assert val == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_one_observation_zero_residual(self):
        data = RatingDataset(1, 1, [0], [0], [0.5], RatingScale(5))
        state = LatentState(np.zeros((1, 1)), np.zeros((1, 1)))
        val = log_joint(state, data, ModelHyperparams(1, 1.0))
        assert val == pytest.approx(-LOG_2PI - 0.5 * LOG_2PI, abs=1e-12)

    def test_prior_additivity_over_rows(self):
        hp = ModelHyperparams(1, 1.0)
        one = log_joint(
            LatentState(np.zeros((1, 1)), np.zeros((1, 1))),
            RatingDataset(1, 1, [], [], [], RatingScale(5)),
            hp,
        )
        two = log_joint(
            LatentState(np.zeros((2, 1)), np.zeros((2, 1))),
            RatingDataset(2, 2, [], [], [], RatingScale(5)),
            hp,
        )
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_decomposes_into_entry_terms(self):
        rng = np.random.default_rng(7)
        n, m, k, n_obs = 30, 40, 3, 1000
        flat = rng.choice(n * m, size=n_obs, replace=False)
        triples = [(int(f // m), int(f % m), float(r))
                   for f, r in zip(flat, rng.uniform(0, 1, n_obs))]
        data = RatingDataset(n, m, *zip(*triples), RatingScale(5))
        empty = RatingDataset(n, m, [], [], [], RatingScale(5))
        state = LatentState(rng.normal(size=(n, k)), rng.normal(size=(m, k)))
        hp = ModelHyperparams(k, 0.25)
        expected = log_joint(state, empty, hp) + sum(
            log_likelihood_entry(state.u[i], state.v[j], r, hp.sigma2)
            for i, j, r in triples
        )
        assert log_joint(state, data, hp) == pytest.approx(expected, abs=1e-9)

    def test_prior_peaks_at_origin(self):
        data = RatingDataset(2, 2, [], [], [], RatingScale(5))
        hp = ModelHyperparams(2, 1.0)
        base = log_joint(LatentState(np.zeros((2, 2)), np.zeros((2, 2))), data, hp)
        for row, col in [(0, 0), (1, 1)]:
            u = np.zeros((2, 2))
            u[row, col] = 0.7
            assert log_joint(LatentState(u, np.zeros((2, 2))), data, hp) < base

    def test_dimension_mismatch(self):
        data = RatingDataset(2, 2, [], [], [], RatingScale(5))
        state = LatentState(np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            log_joint(state, data, ModelHyperparams(1, 1.0))


class TestRowDots:
    def test_matches_fancy_index_dots(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        a_idx, b_idx = rng.integers(0, 4, 20), rng.integers(0, 5, 20)
        expected = np.einsum("ij,ij->i", a[a_idx], b[b_idx])
        np.testing.assert_array_equal(row_dots(a, b, a_idx, b_idx), expected)

    @pytest.mark.parametrize("a_idx,b_idx", [([4], [0]), ([0], [5]), ([-1], [0]), ([0], [-1])])
    def test_index_out_of_range_raises(self, a_idx, b_idx):
        # np.take with mode="clip" would clamp these to an edge row
        with pytest.raises(IndexError):
            row_dots(np.ones((4, 2)), np.ones((5, 2)), np.array(a_idx), np.array(b_idx))


class TestIncidence:
    def test_cached_pair_sums_rows_by_user_and_item(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        a_idx, b_idx = np.divmod(rng.permutation(20), 5)
        data = RatingDataset(4, 5, a_idx, b_idx, rng.uniform(size=20), RatingScale(5))
        pair = data.incidence
        assert data.incidence is pair
        by_user, by_item = pair
        for rows, scatter, own_idx, n in ((b[b_idx], by_user, a_idx, 4),
                                          (a[a_idx], by_item, b_idx, 5)):
            expected = np.array([rows[own_idx == r].sum(axis=0) for r in range(n)])
            np.testing.assert_allclose(scatter @ rows, expected, rtol=1e-12, atol=1e-12)


class TestPredictPoint:
    def test_midpoint(self):
        assert predict_point(np.zeros(2), np.zeros(2), RatingScale(5)) == 3.0

    def test_saturation(self):
        val = predict_point(np.array([30.0]), np.array([30.0]), RatingScale(5))
        assert val == pytest.approx(5.0, abs=1e-9)

    def test_unit_vectors(self):
        val = predict_point(np.array([1.0]), np.array([1.0]), RatingScale(5))
        assert val == pytest.approx(4 * 0.7310585786300049 + 1, abs=1e-9)

    @settings(max_examples=50)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=4))
    def test_output_within_scale(self, u):
        u = np.asarray(u)
        v = -u
        val = predict_point(u, v, RatingScale(5))
        assert 1.0 <= val <= 5.0
