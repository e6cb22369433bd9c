"""Tests for the experiment harness: metrics, cold-start policy,
report serialization, plateau rule, and cross-engine comparison."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from bpmf import evaluate
from bpmf.baseline import MfConfig, mf_train
from bpmf.data import build_dataset, load_ratings, split_dataset
from bpmf.errors import BpmfError, DataFormatError
from bpmf.evaluate import (
    ExperimentConfig,
    ExperimentReport,
    compare,
    global_mean_rating,
    plateau_epoch,
    predict_all,
    rmse,
    run_experiment,
)
from bpmf.mcmc import McmcConfig, run_chain
from bpmf.model import (LatentState, ModelHyperparams, PosteriorMean, RatingDataset,
                        RatingScale, denormalize_rating)
from bpmf.vi import ViConfig, vi_train

from conftest import make_dataset


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_unit_error(self):
        assert rmse([3.0], [4.0]) == 1.0

    def test_symmetric_extremes(self):
        assert rmse([1.0, 5.0], [5.0, 1.0]) == pytest.approx(4.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(1, 5, 50)
        truths = rng.uniform(1, 5, 50)
        perm = rng.permutation(50)
        assert rmse(preds, truths) == pytest.approx(
            rmse(preds[perm], truths[perm]), abs=1e-12
        )

    def test_constant_predictor_closed_form(self):
        rng = np.random.default_rng(1)
        truths = rng.uniform(1, 5, 200)
        c = 3.2
        expected = np.sqrt(np.mean((c - truths) ** 2))
        assert rmse(np.full(200, c), truths) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(BpmfError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(BpmfError):
            rmse([], [])


class TestPredictAll:
    @staticmethod
    def _train_and_eval():
        scale = RatingScale(5)
        train = RatingDataset(2, 2, [0, 1], [0, 0], [0.5, 0.25], scale)
        # user 1 appears in training but item 1 never does
        eval_set = RatingDataset(2, 2, [0, 1], [0, 1], [0.75, 0.5], scale)
        return train, eval_set

    def test_warm_prediction_uses_engine(self):
        train, eval_set = self._train_and_eval()
        state = LatentState(np.full((2, 1), 0.4), np.full((2, 1), 0.6))
        preds, cold = predict_all(state, eval_set, train, global_mean_rating(train))
        assert cold == 1
        assert preds[0] == pytest.approx(4 * 0.24 + 1)

    def test_cold_item_gets_fallback(self):
        train, eval_set = self._train_and_eval()
        state = LatentState(np.zeros((2, 1)), np.zeros((2, 1)))
        preds, cold = predict_all(state, eval_set, train, fallback=2.5)
        assert cold == 1
        assert preds[1] == 2.5

    def test_all_cold_equals_constant_predictor(self):
        scale = RatingScale(5)
        train = RatingDataset(3, 3, [0], [0], [0.5], scale)
        eval_set = RatingDataset(3, 3, [1, 2], [1, 2], [0.0, 1.0], scale)
        state = LatentState(np.ones((3, 1)), np.ones((3, 1)))
        fallback = global_mean_rating(train)
        preds, cold = predict_all(state, eval_set, train, fallback)
        assert cold == 2
        np.testing.assert_allclose(preds, fallback)

    def test_predictions_within_scale(self):
        train = make_dataset(5, 5, 12, seed=0)
        eval_set = make_dataset(5, 5, 8, seed=1)
        rng = np.random.default_rng(2)
        state = LatentState(rng.normal(0, 3, (5, 2)), rng.normal(0, 3, (5, 2)))
        preds, _ = predict_all(state, eval_set, train, global_mean_rating(train))
        assert np.all(preds >= 1.0)
        assert np.all(preds <= 5.0)


class TestPlateauRule:
    def test_flat_tail_from_epoch_40(self):
        trace = [float(i) for i in range(40)] + [39.0] * 60
        assert plateau_epoch(trace, maximize=True) == 40

    def test_still_improving_at_end(self):
        trace = [float(2**i) for i in range(20)]
        assert plateau_epoch(trace, maximize=True) == 20

    def test_minimization_direction(self):
        # last improvement lands at epoch 40, then the trace stays flat
        trace = [float(100 - i) for i in range(40)] + [61.0] * 60
        assert plateau_epoch(trace, maximize=False) == 40

    def test_empty_trace(self):
        assert plateau_epoch([], maximize=True) == 0


class TestExperimentReport:
    @staticmethod
    def _report():
        return ExperimentReport(
            config={"engine": "mf", "k": 10},
            rmse_validation=1.2,
            rmse_test=1.3,
            loss_trace=[3.0, 2.0, 1.5],
            wall_clock_seconds=0.7,
            n_train=6,
            n_val=2,
            n_test=2,
            cold_start_count=1,
        )

    def test_round_trip(self):
        report = self._report()
        assert ExperimentReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        ) == report

    def test_snake_case_keys(self):
        keys = set(self._report().to_dict())
        assert keys == {
            "config", "rmse_validation", "rmse_test", "loss_trace",
            "wall_clock_seconds", "n_train", "n_val", "n_test",
            "cold_start_count", "timings", "peak_rss_mb",
        }

    def test_report_without_timings_or_peak_rss_still_loads(self):
        # a report written before the two fields existed
        payload = self._report().to_dict()
        del payload["timings"], payload["peak_rss_mb"]
        report = ExperimentReport.from_dict(payload)
        assert (report.timings, report.peak_rss_mb) == ({}, None)
        compare([report, report])

    @pytest.mark.parametrize("field,value", [("timings", [1.0]), ("timings", {"train": "1"}),
                                             ("peak_rss_mb", "90"), ("peak_rss_mb", True)])
    def test_new_fields_are_type_checked(self, field, value):
        with pytest.raises(DataFormatError):
            ExperimentReport.from_dict({**self._report().to_dict(), field: value})


class TestRunExperiment:
    def test_mf_writes_report_and_trace(self, ratings_small_csv, tmp_path):
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            engine="mf",
            data_path=str(ratings_small_csv),
            output_dir=str(out),
            engine_config=MfConfig(epochs=20),
            k=4,
        )
        report = run_experiment(cfg)
        assert (out / "report.json").exists()
        on_disk = json.loads((out / "report.json").read_text())
        assert ExperimentReport.from_dict(on_disk) == report
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,value"
        assert len(lines) == 21
        assert report.rmse_test >= 0
        assert report.n_train + report.n_val + report.n_test == 200

    def test_mf_zero_epochs_empty_trace(self, ratings_small_csv, tmp_path):
        cfg = ExperimentConfig(
            engine="mf",
            data_path=str(ratings_small_csv),
            output_dir=str(tmp_path / "out"),
            engine_config=MfConfig(epochs=0),
            k=4,
        )
        report = run_experiment(cfg)
        assert report.loss_trace == []

    def test_metrics_deterministic(self, ratings_small_csv, tmp_path):
        def run(tag):
            cfg = ExperimentConfig(
                engine="vi",
                data_path=str(ratings_small_csv),
                output_dir=str(tmp_path / tag),
                engine_config=ViConfig(epochs=15),
                k=4,
            )
            return run_experiment(cfg)

        a, b = run("a"), run("b")
        assert a.rmse_validation == b.rmse_validation
        assert a.rmse_test == b.rmse_test
        assert a.loss_trace == b.loss_trace

    @pytest.mark.parametrize("engine,engine_config", [("vi", ViConfig(epochs=15)),
                                                      ("mf", MfConfig(epochs=20))])
    def test_k_has_one_owner(self, engine, engine_config, ratings_small_csv, tmp_path,
                             monkeypatch):
        widths = []
        predict = evaluate.predict_all

        def spy(result, *args, **kwargs):
            widths.append(result.k)
            return predict(result, *args, **kwargs)

        monkeypatch.setattr(evaluate, "predict_all", spy)
        out = tmp_path / engine
        run_experiment(ExperimentConfig(engine=engine, data_path=str(ratings_small_csv),
                                        output_dir=str(out), k=5,
                                        engine_config=engine_config))
        assert widths == [5]
        assert json.loads((out / "report.json").read_text())["config"]["k"] == 5

    @pytest.mark.parametrize("engine,engine_config", [
        ("vi", ViConfig(epochs=15)), ("mf", MfConfig(epochs=20)),
        ("mcmc", McmcConfig(n_steps=60)),
    ])
    def test_report_times_each_phase_and_peak_memory(self, engine, engine_config,
                                                     ratings_small_csv, tmp_path):
        out = tmp_path / engine
        report = run_experiment(ExperimentConfig(engine=engine, data_path=str(ratings_small_csv),
                                                 output_dir=str(out), k=4,
                                                 engine_config=engine_config))
        on_disk = json.loads((out / "report.json").read_text())
        assert list(on_disk["timings"]) == ["load", "build", "split", "train", "predict", "write"]
        assert all(isinstance(t, float) and t >= 0 for t in on_disk["timings"].values())
        assert on_disk["timings"]["train"] == on_disk["wall_clock_seconds"]
        assert isinstance(on_disk["peak_rss_mb"], float) and on_disk["peak_rss_mb"] > 0
        assert ExperimentReport.from_dict(on_disk) == report

    @pytest.mark.parametrize("engine,engine_config", [
        ("vi", ViConfig(epochs=15)), ("mf", MfConfig(epochs=20)),
        ("mcmc", McmcConfig(n_steps=80, thin=3)),
    ], ids=["vi", "mf", "mcmc"])
    def test_one_pass_scores_equal_each_part_scored_alone(self, engine, engine_config,
                                                          ratings_small_csv, tmp_path,
                                                          monkeypatch):
        batches = []
        predict_batch = evaluate.vi_predict_batch

        def counted(*args):
            batches.append(args)
            return predict_batch(*args)

        monkeypatch.setattr(evaluate, "vi_predict_batch", counted)
        report = run_experiment(ExperimentConfig(engine=engine, data_path=str(ratings_small_csv),
                                                 output_dir=str(tmp_path / "out"), k=3,
                                                 engine_config=engine_config))
        # VI draws its posterior samples once, for validation and test together
        assert len(batches) == (engine == "vi")

        # the same numbers as training again and scoring validation and test apart
        raw, scale = load_ratings(ratings_small_csv)
        data, _ = build_dataset(raw, scale)
        split = split_dataset(data)
        hp = ModelHyperparams(3, 0.25)
        parts = (split.validation, split.test)
        if engine == "mcmc":
            results = [PosteriorMean(part.user_idx, part.item_idx) for part in parts]

            def on_sample(state):
                for mean in results:
                    mean.add(state)

            run_chain(split.train, hp, engine_config, on_sample)
        else:
            train = mf_train if engine == "mf" else vi_train
            results = [train(split.train, hp, engine_config)[0]] * 2
        fallback = global_mean_rating(split.train)
        cold_total = 0
        for part, result, got in zip(parts, results, (report.rmse_validation, report.rmse_test)):
            preds, cold = predict_all(result, part, split.train, fallback)
            assert got == rmse(preds, denormalize_rating(part.rating, scale))
            cold_total += cold
        assert report.cold_start_count == cold_total

    @pytest.mark.parametrize("engine,engine_config,train_name", [
        ("vi", ViConfig(epochs=2), "vi_train"), ("mf", MfConfig(epochs=2), "mf_train"),
        ("mcmc", McmcConfig(n_steps=10), "run_chain"),
    ], ids=["vi", "mf", "mcmc"])
    def test_training_holds_one_copy_of_the_ratings(self, engine, engine_config, train_name,
                                                     ratings_small_csv, tmp_path, monkeypatch):
        # weak references to the raw columns and to the unsplit dataset
        refs = []
        for name in ("build_dataset", "split_dataset"):
            def spy(first, *args, _wrapped=getattr(evaluate, name), **kwargs):
                refs.extend(map(weakref.ref, first if isinstance(first, tuple) else [first]))
                return _wrapped(first, *args, **kwargs)

            monkeypatch.setattr(evaluate, name, spy)
        alive = []

        def entered(*args, _train=getattr(evaluate, train_name)):
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
            return _train(*args)

        monkeypatch.setattr(evaluate, train_name, entered)
        run_experiment(ExperimentConfig(engine=engine, data_path=str(ratings_small_csv),
                                        output_dir=str(tmp_path / "out"), k=3,
                                        engine_config=engine_config))
        assert alive == [False] * 4

    def test_unknown_engine_rejected(self):
        with pytest.raises(BpmfError):
            ExperimentConfig(engine="gibbs", data_path="x", output_dir="y")

    @pytest.mark.parametrize("setting", [
        {"split_seed": -1}, {"k": 0}, {"sigma2": float("nan")},
        # another engine's config
        {"engine_config": MfConfig()}, {"engine": "mf", "engine_config": McmcConfig()},
        {"engine": "mcmc", "engine_config": ViConfig()},
    ], ids=["split_seed", "k", "sigma2", "vi-MfConfig", "mf-McmcConfig", "mcmc-ViConfig"])
    def test_bad_setting_fails_before_the_load(self, setting, tmp_path):
        # the data file does not exist: a check after the load would raise OSError
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(**{"engine": "vi", **setting},
                                            data_path=str(tmp_path / "nope.csv"),
                                            output_dir=str(tmp_path / "out")))

    def test_checked_settings_cannot_be_reassigned(self):
        cfg = ExperimentConfig(engine="vi", data_path="x", output_dir="y")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.split_seed = -1


class TestCompare:
    @staticmethod
    def _report(engine, rmse_test, trace):
        return ExperimentReport(
            config={"engine": engine},
            rmse_validation=rmse_test,
            rmse_test=rmse_test,
            loss_trace=trace,
            wall_clock_seconds=1.0,
            n_train=6,
            n_val=2,
            n_test=2,
            cold_start_count=0,
        )

    def test_identical_reports_identical_rows(self):
        rep = self._report("vi", 1.2, [-5.0, -4.0, -4.0])
        text, csv_text = compare([rep, rep])
        rows = csv_text.strip().splitlines()[1:]
        assert rows[0] == rows[1]
        assert "vi" in text

    def test_plateau_column(self):
        trace = [float(i) for i in range(40)] + [39.0] * 60
        rep = self._report("mcmc", 1.1, trace)
        _, csv_text = compare([rep, rep])
        row = csv_text.strip().splitlines()[1].split(",")
        assert row[0] == "mcmc"
        assert row[2] == "40"

    def test_mf_trace_uses_minimization(self):
        trace = [float(100 - i) for i in range(40)] + [61.0] * 60
        rep = self._report("mf", 1.1, trace)
        _, csv_text = compare([rep, rep])
        assert csv_text.strip().splitlines()[1].split(",")[2] == "40"

    def test_single_report_is_usage_error(self):
        rep = self._report("vi", 1.2, [-5.0, -4.0])
        with pytest.raises(BpmfError):
            compare([rep])


@pytest.fixture(scope="module")
def ratings_small_csv(tmp_path_factory):
    """A 200-rating CSV small enough for fast end-to-end runs."""
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("eval") / "ratings.csv"
    flat = rng.choice(20 * 30, size=200, replace=False)
    with open(path, "w") as fh:
        fh.write("userId,movieId,rating,timestamp\n")
        for key in flat:
            user, movie = divmod(int(key), 30)
            rating = int(rng.integers(1, 6))
            fh.write(f"{user + 1},{movie + 1},{rating},0\n")
    return path
