"""Quickstart: train all three engines on a small synthetic ratings file.

Generates a compact MovieLens-format CSV, runs the classical MF
baseline, the Metropolis-Hastings sampler, and the variational engine
through the experiment harness, then prints the side-by-side comparison
table. Everything is seeded, so the output is reproducible.

Run:  python3 demos/quickstart.py
"""

import tempfile
from pathlib import Path

from bpmf import (
    ExperimentConfig,
    McmcConfig,
    MfConfig,
    ViConfig,
    compare,
    run_experiment,
)
from bpmf.synthetic import write_ratings_csv


def main():
    workdir = Path(tempfile.mkdtemp(prefix="bpmf_quickstart_"))
    data_path = write_ratings_csv(
        workdir / "ratings.csv", n_users=60, n_items=120, n_ratings=2400, seed=7
    )
    print(f"wrote {data_path}")

    engine_configs = {
        "mf": MfConfig(alpha=0.002, epochs=200),
        "mcmc": McmcConfig(n_steps=4000),
        "vi": ViConfig(epochs=200),
    }

    reports = []
    for engine, engine_cfg in engine_configs.items():
        cfg = ExperimentConfig(
            engine=engine,
            data_path=str(data_path),
            output_dir=str(workdir / engine),
            k=8,
            engine_config=engine_cfg,
        )
        report = run_experiment(cfg)
        reports.append(report)
        print(
            f"{engine:>4}: rmse_val {report.rmse_validation:.4f}  "
            f"rmse_test {report.rmse_test:.4f}  "
            f"wall {report.wall_clock_seconds:.2f}s  "
            f"cold starts {report.cold_start_count}"
        )

    text, _ = compare(reports)
    print()
    print(text)
    print(f"\nreports and traces are under {workdir}")


if __name__ == "__main__":
    main()
