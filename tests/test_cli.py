"""End-to-end CLI tests: argument handling, artifacts, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpmf import mcmc
from bpmf.cli import _engine_config, build_parser, main
from bpmf.evaluate import ENGINES, ExperimentConfig
from bpmf.mcmc import McmcConfig
from bpmf.synthetic import write_ratings_csv

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("cli") / "ratings.csv"
    flat = rng.choice(15 * 25, size=150, replace=False)
    with open(path, "w") as fh:
        fh.write("userId,movieId,rating,timestamp\n")
        for key in flat:
            user, movie = divmod(int(key), 25)
            fh.write(f"{user + 1},{movie + 1},{int(rng.integers(1, 6))},0\n")
    return path


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def assert_usage_error_before_loading(tmp_path, capsys, engine, *flags):
    # the data file does not exist: a load before the check would exit 2
    code = run_cli(
        "run", "--engine", engine, "--data", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "out"), *flags,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("bpmf: invalid configuration") and err.count("\n") == 1
    return err


class TestRun:
    def test_mf_success(self, small_csv, tmp_path, capsys):
        out = tmp_path / "mf"
        code = run_cli(
            "run", "--engine", "mf", "--data", str(small_csv),
            "--out", str(out), "--k", "3", "--epochs", "10",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["engine"] == "mf"
        assert len(report["loss_trace"]) == 10
        assert (out / "trace.csv").read_text().splitlines()[0] == "epoch,value"
        assert "rmse_test" in capsys.readouterr().out

    def test_vi_success(self, small_csv, tmp_path):
        out = tmp_path / "vi"
        code = run_cli(
            "run", "--engine", "vi", "--data", str(small_csv),
            "--out", str(out), "--k", "3", "--epochs", "8", "--mc-samples", "1",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["engine_config"]["mc_samples"] == 1
        assert len(report["loss_trace"]) == 8

    def test_mcmc_success(self, small_csv, tmp_path):
        out = tmp_path / "mcmc"
        code = run_cli(
            "run", "--engine", "mcmc", "--data", str(small_csv),
            "--out", str(out), "--k", "3", "--n-steps", "200",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # burn-in defaults to 60% of the chain
        assert report["config"]["engine_config"]["burn_in"] == 120
        assert len(report["loss_trace"]) == 200

    @pytest.mark.parametrize("engine", ENGINES)
    def test_defaults_match_the_library(self, engine):
        # `bpmf run` and ExperimentConfig resolve the same engine config
        args = build_parser().parse_args(
            ["run", "--engine", engine, "--data", "x", "--out", "y"])
        library = ExperimentConfig(engine=engine, data_path="x", output_dir="y")
        assert _engine_config(args) == library.engine_config
        if engine == "mcmc":
            assert _engine_config(args).proposal == "rowwise"

    def test_configs_own_every_default(self):
        # a flag the user leaves out is None, so the config's default applies
        run = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices["run"]
        optional = [action for action in run._actions
                    if action.option_strings and not action.required and action.dest != "help"]
        assert optional and all(action.default is None for action in optional)
        engine = next(action for action in run._actions if action.dest == "engine")
        assert tuple(engine.choices) == ENGINES

    @pytest.mark.parametrize("std", [McmcConfig.proposal_std, 0.37])
    def test_proposal_std_help_shows_the_config_default(self, capsys, monkeypatch, std):
        monkeypatch.setattr(McmcConfig, "proposal_std", std)
        assert run_cli("run", "--help") == 0
        # argparse wraps help text at the terminal width
        assert f"std (default {std})" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("share, shown", [(0.6, "60%"), (0.25, "25%")])
    def test_burn_in_help_shows_the_config_share(self, capsys, monkeypatch, share, shown):
        # one share sets both the config's default burn-in and the help's
        monkeypatch.setattr(mcmc, "BURN_IN_SHARE", share)
        assert McmcConfig(n_steps=200).burn_in == int(share * 200)
        assert run_cli("run", "--help") == 0
        assert f"burn-in (default {shown} of steps)" in " ".join(capsys.readouterr().out.split())

    def test_missing_required_flag_is_usage_error(self, small_csv):
        assert run_cli("run", "--engine", "mf", "--data", str(small_csv)) == 1

    def test_unknown_engine_is_usage_error(self, small_csv, tmp_path):
        code = run_cli(
            "run", "--engine", "gibbs", "--data", str(small_csv),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        code = run_cli(
            "run", "--engine", "mf", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    def test_malformed_data_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("userId,movieId,rating,timestamp\n1,1,abc,0\n")
        code = run_cli(
            "run", "--engine", "mf", "--data", str(bad),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--k", "0"), ("--sigma2", "nan"),
                                            ("--sigma2", "-1"), ("--seed", "-1"),
                                            ("--split-seed", "-1")])
    def test_bad_model_flag_is_usage_error_before_loading(self, flag, value, tmp_path, capsys):
        assert_usage_error_before_loading(tmp_path, capsys, "vi", flag, value)

    @pytest.mark.parametrize("engine", ["mf", "mcmc"])
    @pytest.mark.parametrize("flag", ["--seed", "--split-seed"])
    def test_negative_seed_is_usage_error_on_every_engine(self, engine, flag, tmp_path, capsys):
        assert_usage_error_before_loading(tmp_path, capsys, engine, flag, "-1")

    @pytest.mark.parametrize("engine,flag,value", [
        ("vi", "--sigma2", "inf"), ("vi", "--lr", "inf"), ("mf", "--sigma2", "inf"),
        ("mf", "--lr", "inf"), ("mcmc", "--sigma2", "inf"), ("mcmc", "--proposal-std", "inf"),
        # finite, but log(2 pi sigma2) overflows
        ("vi", "--sigma2", "1e308"), ("mf", "--sigma2", "1e308"), ("mcmc", "--sigma2", "1e308"),
        # subnormal: 1 / sigma2 overflows
        ("vi", "--sigma2", "1e-320"), ("mf", "--sigma2", "1e-320"), ("mcmc", "--sigma2", "1e-320"),
    ], ids=["vi---sigma2", "vi---lr", "mf---sigma2", "mf---lr", "mcmc---sigma2",
            "mcmc---proposal-std", "vi---sigma2-1e308", "mf---sigma2-1e308",
            "mcmc---sigma2-1e308", "vi---sigma2-1e-320", "mf---sigma2-1e-320",
            "mcmc---sigma2-1e-320"])
    def test_infinite_float_setting_is_usage_error(self, engine, flag, value, tmp_path, capsys):
        assert_usage_error_before_loading(tmp_path, capsys, engine, flag, value)

    @pytest.mark.parametrize("engine,flags", [
        ("mcmc", ["--epochs", "5", "--lr", "9"]), ("vi", ["--n-steps", "5"]),
        ("mf", ["--mc-samples", "4", "--proposal-std", "7"]),
    ], ids=["mcmc", "vi", "mf"])
    def test_flag_of_another_engine_is_usage_error(self, engine, flags, tmp_path, capsys):
        assert_usage_error_before_loading(tmp_path, capsys, engine, *flags)

    def test_chain_length_past_float_range_is_usage_error(self, tmp_path, capsys):
        # the default burn-in is 60% of the steps, computed in floating point
        assert_usage_error_before_loading(tmp_path, capsys, "mcmc", "--n-steps", str(10**400))

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_chain_without_steps_is_usage_error(self, value, tmp_path, capsys):
        # the message names the flag the user set, not the burn-in derived from it
        err = assert_usage_error_before_loading(tmp_path, capsys, "mcmc", "--n-steps", value)
        assert "n_steps" in err and "burn_in" not in err

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_fails_before_training(self, out, small_csv, tmp_path, capsys,
                                                monkeypatch):
        (tmp_path / "file").write_text("")
        monkeypatch.setattr("bpmf.evaluate.mf_train", lambda *args: pytest.fail("trained"))
        code = run_cli("run", "--engine", "mf", "--data", str(small_csv),
                       "--out", str(tmp_path / out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bpmf: ") and err.count("\n") == 1

    def test_divergent_training_is_runtime_error(self, small_csv, tmp_path):
        code = run_cli(
            "run", "--engine", "mf", "--data", str(small_csv),
            "--out", str(tmp_path / "div"), "--lr", "1e8", "--epochs", "50",
        )
        assert code == 2

    def test_vi_divergence_in_the_last_epoch_is_runtime_error(self, small_csv, tmp_path,
                                                               capsys):
        code = run_cli(
            "run", "--engine", "vi", "--data", str(small_csv),
            "--out", str(tmp_path / "div"), "--lr", "1e10", "--epochs", "1",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bpmf: epoch 0: ") and err.count("\n") == 1

    # 10**17 puts the (ratings, k) arrays past the address space, which numpy
    # refuses with a ValueError; 10**16 is addressable, but a (users, k) init
    # of 1.2e18 bytes fails at request time; neither touches any memory
    @pytest.mark.parametrize("k", [10**17, 10**16])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unallocatable_k_is_runtime_error(self, engine, k, small_csv, tmp_path, capsys):
        code = run_cli("run", "--engine", engine, "--data", str(small_csv),
                       "--out", str(tmp_path / "big"), "--k", str(k))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bpmf: out of memory: ") and err.count("\n") == 1

    def test_overflowing_proposal_is_runtime_error(self, small_csv, tmp_path, capsys):
        code = run_cli(
            "run", "--engine", "mcmc", "--data", str(small_csv),
            "--out", str(tmp_path / "div"), "--proposal-std", "1e308", "--n-steps", "5",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bpmf: epoch ") and err.count("\n") == 1

    def test_overflowing_proposal_is_one_line_on_stderr(self, tmp_path):
        # a child process, so a numpy warning would reach stderr, not pytest
        n_users, n_items, k = 600, 1_400, 10
        path = write_ratings_csv(tmp_path / "ratings.csv", n_users, n_items, 5_000, seed=12)
        result = subprocess.run(
            [sys.executable, "-m", "bpmf.cli", "run", "--engine", "mcmc", "--data", str(path),
             "--out", str(tmp_path / "div"), "--k", str(k), "--proposal-std", "1e308",
             "--n-steps", "5"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("bpmf: epoch ") and result.stderr.count("\n") == 1


@pytest.fixture(scope="module")
def two_reports(small_csv, tmp_path_factory):
    base = tmp_path_factory.mktemp("reports")
    for engine, extra in (("mf", ["--epochs", "10"]),
                          ("vi", ["--epochs", "10", "--mc-samples", "1"])):
        code = run_cli(
            "run", "--engine", engine, "--data", str(small_csv),
            "--out", str(base / engine), "--k", "3", *extra,
        )
        assert code == 0
    return base / "mf" / "report.json", base / "vi" / "report.json"


def _with_engine(engine):
    return lambda good: json.dumps({**good, "config": {**good["config"], "engine": engine}})


class TestCompare:
    def test_compare_success(self, two_reports, capsys, tmp_path):
        csv_out = tmp_path / "cmp.csv"
        code = run_cli("compare", str(two_reports[0]), str(two_reports[1]),
                       "--csv", str(csv_out))
        assert code == 0
        out = capsys.readouterr().out
        assert "mf" in out and "vi" in out
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "engine,rmse_test,epochs_to_plateau,wall_clock_seconds"
        assert len(lines) == 3

    def test_csv_path_that_fails_leaves_no_output(self, two_reports, tmp_path, capsys):
        code = run_cli("compare", str(two_reports[0]), str(two_reports[1]),
                       "--csv", str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("bpmf: ")

    def test_single_report_is_usage_error(self, two_reports):
        assert run_cli("compare", str(two_reports[0])) == 1

    def test_missing_report_file_is_runtime_error(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text("{}")
        code = run_cli("compare", str(tmp_path / "missing1.json"),
                       str(tmp_path / "missing2.json"))
        assert code == 2

    @pytest.mark.parametrize("make_bad", [
        lambda good: "{not json",
        lambda good: "[1, 2]",
        lambda good: json.dumps({k: v for k, v in good.items() if k != "rmse_test"}),
        lambda good: json.dumps({**good, "rmse_test": "low"}),
        *(_with_engine(engine) for engine in (["vi"], {"name": "vi"}, None, "vi,mf")),
    ], ids=["malformed-json", "not-an-object", "missing-field", "wrong-type", "engine-list",
            "engine-object", "engine-null", "engine-with-comma"])
    def test_malformed_report_is_usage_error(self, make_bad, two_reports, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(make_bad(json.loads(two_reports[0].read_text())))
        assert run_cli("compare", str(two_reports[0]), str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bpmf: {bad}") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["rmse_test", "loss_trace", "timings"])
    def test_integer_past_float_range_is_usage_error(self, field, two_reports, tmp_path, capsys):
        good = json.loads(two_reports[0].read_text())
        huge = 10**400  # a JSON integer that no float holds
        value = {"rmse_test": huge, "loss_trace": [*good["loss_trace"], huge],
                 "timings": {**good["timings"], "train": huge}}[field]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**good, field: value}))
        assert run_cli("compare", str(two_reports[0]), str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bpmf: {bad}: not a bpmf report: ") and err.count("\n") == 1

    def test_report_without_an_engine_loads(self, two_reports, tmp_path, capsys):
        good = json.loads(two_reports[0].read_text())
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({**good, "config": {k: v for k, v in good["config"].items()
                                                       if k != "engine"}}))
        assert run_cli("compare", str(two_reports[1]), str(bare)) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("?")

    def test_no_arguments_is_usage_error(self):
        assert run_cli("compare") == 1


def test_no_subcommand_is_usage_error():
    assert run_cli() == 1


RUN_FLAGS = ("--engine", "--data", "--out", "--k", "--sigma2", "--epochs", "--seed",
             "--split-seed", "--lr", "--mc-samples", "--n-steps", "--burn-in", "--thin",
             "--proposal-std")
MISSING = ("missing.csv", "missing.json", "other.json", "out")
# a real argv holds no NUL; no "/" keeps every path inside the empty working directory
VALUES = st.one_of(
    st.integers().map(str),
    st.floats().map(str),
    st.sampled_from(("0", "-1", "nan", "inf", "-0", "1e400", str(10**400), "", "-", "--")),
    st.text(st.characters(blacklist_characters="\x00/"), max_size=12),
)
TOKENS = st.one_of(
    st.sampled_from(("run", "compare", "mf", "mcmc", "vi", "--csv", "-h", *RUN_FLAGS)),
    st.sampled_from(MISSING),
    VALUES,
)
PAIRS = st.lists(st.tuples(st.sampled_from(("--csv", *RUN_FLAGS)), VALUES), max_size=6)
ARGV = st.one_of(
    st.lists(TOKENS, max_size=12),
    st.tuples(st.sampled_from(("mf", "mcmc", "vi")), PAIRS).map(
        lambda parts: ["run", "--engine", parts[0], "--data", "missing.csv", "--out", "out",
                       *(token for pair in parts[1] for token in pair)]),
    st.tuples(st.lists(st.sampled_from(MISSING), max_size=3), st.lists(TOKENS, max_size=4)).map(
        lambda parts: ["compare", *parts[0], *parts[1]]),
)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
def test_any_argv_exits_with_a_documented_code(argv, tmp_path, monkeypatch):
    # relative paths resolve in an empty directory, so no data file or
    # report exists and nothing trains
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) in (0, 1, 2)
    assert not any(tmp_path.iterdir())


# inputs the fuzz test above finds only by chance
@pytest.mark.parametrize("argv", [["compare", "\ud800"], ["compare", "a\x00b", "x"],
                                  ["run", "--engine", "vi", "--data", "\ud800", "--out", "o"]])
def test_path_the_os_cannot_take_is_runtime_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2 and not any(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("bpmf: ") and err.count("\n") == 1
