"""Unit and property tests for the core rating model."""

import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from bpmf import baseline, vi
from bpmf.baseline import MfConfig, mf_train
from bpmf.data import build_dataset
from bpmf.errors import DivergenceError
from bpmf.model import (
    BLOCK_ELEMENTS,
    LatentState,
    ModelHyperparams,
    RatingDataset,
    RatingScale,
    denormalize_rating,
    dot_buffers,
    log_joint,
    rating_patterns,
    row_dots,
    scatter_rows,
    sigmoid,
)
from bpmf.vi import ViConfig, vi_train

from conftest import log_likelihood_entry, make_dataset, predict_point

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

    def test_within_3_ulp_of_long_double(self):
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("np.longdouble is no wider than float64 here")
        xs = np.linspace(-40.0, 40.0, 10**6)
        wide = xs.astype(np.longdouble)
        reference = 1 / (1 + np.exp(-wide))
        ulps = np.abs(sigmoid(xs) - reference) / np.spacing(reference.astype(np.float64))
        assert ulps.max() <= 3.0

    def test_extremes_are_exact_and_silent(self):
        xs = np.array([800.0, -800.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(xs)
            scalars = [sigmoid(x) for x in (800.0, -800.0, np.inf, -np.inf)]
        np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, 0.0, np.nan])
        assert scalars == [1.0, 0.0, 1.0, 0.0]

    def test_out_may_alias_the_input(self):
        xs = np.linspace(-30.0, 30.0, 101)
        expected = sigmoid(xs)
        out = np.empty_like(xs)
        assert sigmoid(xs, out=out) is out
        np.testing.assert_array_equal(out, expected)
        assert sigmoid(xs, out=xs) is xs
        np.testing.assert_array_equal(xs, expected)

    def test_python_float_gives_a_scalar(self):
        value = sigmoid(0.0)
        assert not isinstance(value, np.ndarray) and value == 0.5
        assert np.ndim(sigmoid(-1.5)) == 0

    def test_empty_input_gives_out_or_a_new_float_array(self):
        out = np.empty(0)
        assert sigmoid(np.empty(0), out=out) is out
        for x in (np.empty(0), np.empty((0, 3), dtype=np.int64)):
            value = sigmoid(x)
            assert value is not x and value.dtype == np.float64 and value.shape == x.shape


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
                                        np.float64(1e308), 1e-320, 5e-324])
    def test_rejects_sigma2_whose_normalizer_overflows(self, sigma2):
        # log(2 pi sigma2) is infinite from about 2.86e307 on, 1 / sigma2 below
        # about 5.6e-309
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
        empty = RatingDataset(n, m, [], [], [], RatingScale(5))
        state = LatentState(rng.normal(size=(n, k)), rng.normal(size=(m, k)))
        hp = ModelHyperparams(k, 0.25)
        # the second case rates the first pair again: one more entry term
        for case in (triples, triples + [(*triples[0][:2], 0.9)]):
            data = RatingDataset(n, m, *zip(*case), RatingScale(5))
            expected = log_joint(state, empty, hp) + sum(
                log_likelihood_entry(state.u[i], state.v[j], r, hp.sigma2)
                for i, j, r in case
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

    @staticmethod
    def pairs(k, n, rng):
        a, b = rng.normal(size=(70, k)), rng.normal(size=(90, k))
        return a, b, rng.integers(0, 70, n), rng.integers(0, 90, n)

    @pytest.mark.parametrize("k", [1, 3, 40])
    @pytest.mark.parametrize("blocks", [3.5, 1, 0],
                             ids=["3-blocks-and-a-part", "one-block", "empty"])
    def test_blocked_kernel_matches_oracle(self, k, blocks):
        rng = np.random.default_rng(k)
        a, b, a_idx, b_idx = self.pairs(k, int(blocks * (BLOCK_ELEMENTS // k)), rng)
        expected = np.einsum("ij,ij->i", a[a_idx], b[b_idx])
        for buffers in (None, dot_buffers(a_idx.size, k)):
            got = row_dots(a, b, a_idx, b_idx, buffers)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("bad", [-1, "rows"])
    def test_index_out_of_range_in_the_last_block_raises(self, side, bad):
        k = 3
        a, b, a_idx, b_idx = self.pairs(k, 3 * (BLOCK_ELEMENTS // k) + 5, np.random.default_rng(0))
        idx, x = (a_idx, a) if side == "a" else (b_idx, b)
        idx[-1] = len(x) if bad == "rows" else bad
        with pytest.raises(IndexError):
            row_dots(a, b, a_idx, b_idx)


class TestDotBuffers:
    @pytest.mark.parametrize("k", [1, 10, 40, 32769])
    @pytest.mark.parametrize("n", [0, 1, 100_000])
    def test_gather_blocks_are_block_sized(self, n, k):
        rows_a, rows_b, out = dot_buffers(n, k)
        assert rows_a.shape == rows_b.shape
        assert rows_a.shape[1] == k and out.shape == (n,)
        assert 1 <= rows_a.shape[0] <= max(n, 1)
        # one row of a very wide factor is the smallest block there is
        assert rows_a.size <= BLOCK_ELEMENTS or rows_a.shape[0] == 1


class TestIncidence:
    @staticmethod
    def incidence_product(own_idx, n_own, weights, rows):
        # a 0/1 incidence matrix n_ratings wide times the per-rating products,
        # the sum scatter_rows must reproduce bit for bit
        n = own_idx.size
        ones = sparse.csr_matrix((np.ones(n), (own_idx, np.arange(n))), shape=(n_own, n))
        return ones @ (weights[:, None] * rows)

    def test_pair_sums_rows_by_user_and_item(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        # 17 of the 4 x 5 pairs in shuffled order: user 4 and item 5 have no ratings
        ii, jj = np.divmod(rng.permutation(20)[:17], 5)
        # the last case rates one pair twice: two terms in its rows' sums
        cases = ((ii, jj), (ii[:0], jj[:0]), (np.r_[ii, ii[3]], np.r_[jj, jj[3]]))
        for user_idx, item_idx in cases:
            data = RatingDataset(5, 6, user_idx, item_idx, rng.uniform(size=user_idx.size),
                                 RatingScale(5))
            by_user, by_item = rating_patterns(data)
            weights = rng.normal(size=data.n_ratings)
            for side, x, own_idx, other_idx, n_own in ((by_user, v, user_idx, item_idx, 5),
                                                       (by_item, u, item_idx, user_idx, 6)):
                got = scatter_rows(side, weights, x)
                expected = self.incidence_product(own_idx, n_own, weights, x[other_idx])
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)

    @staticmethod
    def sides(data):
        by_user, by_item = rating_patterns(data)
        return ((by_user, data.user_idx, data.item_idx, data.n_users, data.n_items),
                (by_item, data.item_idx, data.user_idx, data.n_items, data.n_users))

    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    def test_shuffled_ratings_match_the_incidence_product(self, k):
        data = make_dataset(70, 90, 3000, seed=k)  # drawn in no row order
        rng = np.random.default_rng(k)
        weights = rng.normal(size=data.n_ratings)
        for side, own_idx, other_idx, n_own, n_other in self.sides(data):
            x = rng.normal(size=(n_other, k))
            got = scatter_rows(side, weights, x)
            expected = self.incidence_product(own_idx, n_own, weights, x[other_idx])
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_successive_scatters_keep_no_stale_weights(self):
        data = make_dataset(20, 30, 400, seed=3)
        rng = np.random.default_rng(3)
        for side, own_idx, other_idx, n_own, n_other in self.sides(data):
            x = rng.normal(size=(n_other, 4))
            for weights in (rng.normal(size=data.n_ratings), rng.normal(size=data.n_ratings)):
                np.testing.assert_array_equal(
                    scatter_rows(side, weights, x),
                    self.incidence_product(own_idx, n_own, weights, x[other_idx]))

    @pytest.mark.parametrize("length", [399, 401, 0])
    def test_weights_of_the_wrong_length_raise(self, length):
        data = make_dataset(20, 30, 400, seed=4)
        for side, *_, n_other in self.sides(data):
            with pytest.raises(ValueError):
                scatter_rows(side, np.ones(length), np.ones((n_other, 2)))

    def test_both_sides_share_one_pair_of_index_arrays(self):
        by_user, by_item = rating_patterns(make_dataset(20, 30, 400, seed=5))
        assert by_item.row is by_user.col and by_item.col is by_user.row

    def test_a_scatter_copies_no_weights(self):
        # a per-call gather of the weights would take n_ratings * 8 bytes
        data = make_dataset(400, 500, 100_000, seed=6)
        by_user, _ = rating_patterns(data)
        weights, x = np.ones(data.n_ratings), np.ones((data.n_items, 1))
        tracemalloc.start()
        try:
            scatter_rows(by_user, weights, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.n_ratings * 8

    @pytest.mark.parametrize("module,train,cfg,diverges", [
        (vi, vi_train, ViConfig(epochs=2), False),
        (baseline, mf_train, MfConfig(epochs=2), False),
        # the weights die with the loop when training raises, too
        (baseline, mf_train, MfConfig(alpha=1e6, epochs=50), True),
    ], ids=["vi", "mf", "mf-divergence"])
    def test_no_scattered_weights_outlive_training(self, module, train, cfg, diverges,
                                                   monkeypatch):
        data = make_dataset(30, 40, 600, seed=8)
        lent = []

        def scatter(side, weights, x):
            lent.append(weakref.ref(weights))
            return scatter_rows(side, weights, x)

        monkeypatch.setattr(module, "scatter_rows", scatter)
        with pytest.raises(DivergenceError) if diverges else contextlib.nullcontext():
            train(data, ModelHyperparams(3, 0.25), cfg)
        assert lent and all(ref() is None for ref in lent)

    @pytest.mark.parametrize("module,train,cfg", [
        (vi, vi_train, ViConfig(epochs=5)),
        (baseline, mf_train, MfConfig(epochs=5)),
    ], ids=["vi", "mf"])
    def test_one_pair_of_patterns_per_training(self, module, train, cfg, monkeypatch):
        built = []

        def counted(data):
            built.append(data)
            return rating_patterns(data)

        monkeypatch.setattr(module, "rating_patterns", counted)
        data = make_dataset(30, 40, 600, seed=9)
        train(data, ModelHyperparams(3, 0.25), cfg)
        assert len(built) == 1 and built[0] is data

    def test_two_trainings_on_one_dataset_in_two_threads(self):
        # each loop scatters through its own patterns, so neither sees the other's weights
        data, hp = make_dataset(40, 50, 800, seed=1), ModelHyperparams(3, 0.25)
        runs = ((vi_train, ViConfig(epochs=150)), (mf_train, MfConfig(epochs=600)))
        serial = [train(data, hp, cfg) for train, cfg in runs]
        results = [None, None]
        start = threading.Barrier(2)

        def run(slot, train, cfg):
            start.wait()
            results[slot] = train(data, hp, cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(slot, *pair))
                       for slot, pair in enumerate(runs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        (params, elbo), (state, loss) = results
        (ref_params, ref_elbo), (ref_state, ref_loss) = serial
        for got, want in ((params.mu_u, ref_params.mu_u), (params.log_s_u, ref_params.log_s_u),
                          (params.mu_v, ref_params.mu_v), (params.log_s_v, ref_params.log_s_v),
                          (np.array(elbo), np.array(ref_elbo)), (state.u, ref_state.u),
                          (state.v, ref_state.v), (np.array(loss), np.array(ref_loss))):
            assert np.array_equal(got, want)


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
