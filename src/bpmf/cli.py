"""Command-line entry point: ``bpmf run`` and ``bpmf compare``.

Exit codes: 0 success, 1 usage error, 2 runtime/divergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baseline import MfConfig
from .errors import BpmfError, DataFormatError, UsageError
from .evaluate import ENGINES, ExperimentConfig, ExperimentReport, compare, run_experiment
from .mcmc import desk_scale_config
from .vi import ViConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bpmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one engine and write report/trace")
    run.add_argument("--engine", required=True, choices=ENGINES)
    run.add_argument("--data", required=True, help="path to a ratings.csv file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--k", type=int)
    run.add_argument("--sigma2", type=float)
    run.add_argument("--epochs", type=int, help="MF/VI training epochs")
    run.add_argument("--seed", type=int)
    run.add_argument("--split-seed", type=int)
    run.add_argument("--lr", type=float, help="MF/VI learning rate")
    run.add_argument("--mc-samples", type=int, help="VI ELBO samples per epoch")
    run.add_argument("--n-steps", type=int, help="MCMC chain length")
    run.add_argument("--burn-in", type=int, help="MCMC burn-in (default 60%% of steps)")
    run.add_argument("--thin", type=int, help="MCMC thinning stride")
    run.add_argument("--proposal-std", type=float,
                     help="MCMC row-blocked random-walk step std (default 0.2)")

    cmp_ = sub.add_parser("compare", help="tabulate two or more report.json files")
    cmp_.add_argument("reports", nargs="+", metavar="report.json")
    cmp_.add_argument("--csv", help="also write the comparison as CSV to this path")
    return parser


def _given(**values):
    """The flags the user set; the config's own defaults fill in the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _engine_config(args):
    if args.engine == "mf":
        return MfConfig(**_given(alpha=args.lr, epochs=args.epochs, seed=args.seed))
    if args.engine == "mcmc":
        return desk_scale_config(
            n_steps=args.n_steps, burn_in=args.burn_in, thin=args.thin,
            proposal_std=args.proposal_std, **_given(seed=args.seed),
        )
    return ViConfig(**_given(learning_rate=args.lr, epochs=args.epochs,
                             mc_samples=args.mc_samples, seed=args.seed))


def _cmd_run(args) -> int:
    # every flag is checked before the data file is read
    try:
        cfg = ExperimentConfig(
            engine=args.engine,
            data_path=args.data,
            output_dir=args.out,
            engine_config=_engine_config(args),
            **_given(k=args.k, sigma2=args.sigma2, split_seed=args.split_seed),
        )
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    report = run_experiment(cfg)
    print(
        f"{args.engine}: rmse_validation={report.rmse_validation:.4f} "
        f"rmse_test={report.rmse_test:.4f} "
        f"wall_clock={report.wall_clock_seconds:.2f}s "
        f"cold_start={report.cold_start_count}"
    )
    print(f"report: {args.out}/report.json")
    return 0


def _cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        with open(path) as fh:
            try:
                reports.append(ExperimentReport.from_dict(json.load(fh)))
            except (ValueError, DataFormatError) as exc:
                # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
                raise UsageError(f"{path}: not a bpmf report: {exc}") from None
    text, csv_text = compare(reports)
    print(text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except UsageError as exc:
        print(f"bpmf: {exc}", file=sys.stderr)
        return 1
    except BpmfError as exc:
        print(f"bpmf: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bpmf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
