"""Which runs load scipy, a thread pool or logging. Only VI's and MF's scatters
(``model.rating_patterns``) use scipy, so importing bpmf and running the chain load
none of it, and ``run_experiment`` loads ``scipy.sparse`` for VI and MF before its
clock starts. No engine starts a thread, so importing bpmf and running the chain
load no ``concurrent.futures`` and no ``logging`` (``scipy.sparse`` loads both).
Each check runs in a fresh interpreter, since this one has all of them loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpmf.synthetic import write_ratings_csv

ROOT = Path(__file__).resolve().parent.parent

# ends the child's code: the loaded modules of the families formatted in, as JSON on its last line
REPORT = "\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {})))"


def modules_after(code, *argv, families=("scipy",)):
    """Run ``code`` in a new interpreter with ``argv`` as its arguments; return the
    loaded modules whose top-level package is one of ``families`` when it ended,
    and its stdout before them."""
    report = REPORT.format(sorted(families))
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + report, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    *printed, loaded = result.stdout.splitlines()
    return json.loads(loaded), printed


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "ratings.csv"
    return write_ratings_csv(path, n_users=20, n_items=30, n_ratings=200)


@pytest.mark.parametrize("module", ["bpmf", "bpmf.cli", "bpmf.data", "bpmf.mcmc", "bpmf.vi"])
def test_import_loads_no_scipy(module):
    assert modules_after(f"import {module}")[0] == []


def mcmc_run(csv, out):
    """A child's code and arguments for a 50-sweep MCMC ``bpmf run`` on ``csv``."""
    return ("import bpmf.cli\nassert bpmf.cli.main(sys.argv[1:]) == 0",
            "run", "--engine", "mcmc", "--n-steps", 50, "--data", csv, "--out", out)


def test_mcmc_run_loads_no_scipy(small_csv, tmp_path):
    assert modules_after(*mcmc_run(small_csv, tmp_path))[0] == []


@pytest.mark.parametrize("case", ["bpmf", "bpmf.cli", "mcmc-run"])
def test_loads_no_thread_pool_or_logging(case, small_csv, tmp_path):
    # VI and MF runs load both through scipy.sparse, so they are not checked
    child = mcmc_run(small_csv, tmp_path) if case == "mcmc-run" else (f"import {case}",)
    assert modules_after(*child, families=("concurrent", "logging"))[0] == []


@pytest.mark.parametrize("engine, trainer", [("vi", "vi_train"), ("mf", "mf_train")])
def test_scatter_engines_load_scipy_sparse_before_training(engine, trainer, small_csv, tmp_path):
    # a spy on the trainer run_experiment times as "train" sees what is loaded on entry
    code = f"""
from bpmf import cli, evaluate
train = evaluate.{trainer}
def spy(*args):
    print("scipy.sparse" in sys.modules)
    return train(*args)
evaluate.{trainer} = spy
assert cli.main(sys.argv[1:]) == 0
"""
    argv = ["run", "--engine", engine, "--epochs", 3, "--data", small_csv, "--out", tmp_path]
    loaded, printed = modules_after(code, *argv)
    assert "True" in printed and "False" not in printed
    assert "scipy.sparse" in loaded
