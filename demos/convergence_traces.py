"""Compare how the two posterior engines approach convergence.

Runs VI and the default row-blocked MCMC chain on a mid-sized synthetic
ratings file, writes both trace CSVs, and prints each engine's test
RMSE, its plateau epoch (after which the running best improves by less
than 0.1% over the rest of the run) and an ASCII sketch of its trace.
Both traces climb early and level off at about the same test RMSE; the
chain's log joint then fluctuates around its level, as a sampler's
should, so its plateau epoch marks the last noise-driven new best.

Run:  python3 demos/convergence_traces.py
"""

import tempfile
from pathlib import Path

from bpmf import (
    ExperimentConfig,
    McmcConfig,
    ViConfig,
    plateau_epoch,
    run_experiment,
)
from bpmf.synthetic import write_ratings_csv


def sketch(trace, width=60, height=12):
    """Render a trace as a crude ASCII plot."""
    stride = max(1, len(trace) // width)
    points = [max(trace[i: i + stride]) for i in range(0, len(trace), stride)]
    lo, hi = min(points), max(points)
    span = (hi - lo) or 1.0
    rows = [[" "] * len(points) for _ in range(height)]
    for col, value in enumerate(points):
        row = int((value - lo) / span * (height - 1))
        rows[height - 1 - row][col] = "*"
    return "\n".join("".join(r) for r in rows)


def main():
    workdir = Path(tempfile.mkdtemp(prefix="bpmf_traces_"))
    data_path = write_ratings_csv(
        workdir / "ratings.csv", n_users=120, n_items=300, n_ratings=8000, seed=3
    )

    runs = {
        "vi": ViConfig(epochs=400),
        "mcmc": McmcConfig(n_steps=2000),
    }
    for engine, engine_cfg in runs.items():
        cfg = ExperimentConfig(
            engine=engine,
            data_path=str(data_path),
            output_dir=str(workdir / engine),
            k=8,
            engine_config=engine_cfg,
        )
        report = run_experiment(cfg)
        trace = report.loss_trace
        plateau = plateau_epoch(trace, maximize=True)
        frac = plateau / len(trace)
        print(f"\n=== {engine}: rmse_test {report.rmse_test:.4f}, "
              f"plateau {plateau}/{len(trace)} ({frac:.0%} of the run) ===")
        print(sketch(trace))
    print(f"\ntrace CSVs are under {workdir}")


if __name__ == "__main__":
    main()
