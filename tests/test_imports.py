"""Which runs load scipy. Only VI's and MF's scatters (``model.rating_patterns``)
use it, so importing bpmf and running the chain load none of it, and
``run_experiment`` loads ``scipy.sparse`` for VI and MF before its clock starts.
Each check runs in a fresh interpreter, since this one has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpmf.synthetic import write_ratings_csv

ROOT = Path(__file__).resolve().parent.parent

# the child's code, then the scipy modules it ended with, as JSON on its last line
REPORT = "\nimport json\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def scipy_modules_after(code, *argv):
    """Run ``code`` in a new interpreter with ``argv`` as its arguments; return the
    scipy modules loaded when it ended, and its stdout before them."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + REPORT, *map(str, argv)],
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
    assert scipy_modules_after(f"import {module}")[0] == []


def test_mcmc_run_loads_no_scipy(small_csv, tmp_path):
    code = "import bpmf.cli\nassert bpmf.cli.main(sys.argv[1:]) == 0"
    argv = ["run", "--engine", "mcmc", "--n-steps", 50, "--data", small_csv, "--out", tmp_path]
    assert scipy_modules_after(code, *argv)[0] == []


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
    loaded, printed = scipy_modules_after(code, *argv)
    assert "True" in printed and "False" not in printed
    assert "scipy.sparse" in loaded
