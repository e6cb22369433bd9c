"""Smoke test: every demo the README names runs end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# each demo, and what its output must contain
DEMOS = {"quickstart": "rmse_test", "posterior_vs_quadrature": "MCMC predictive rating",
         "convergence_traces": "rmse_test"}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout
