"""Command-line entry point: ``bpmf run`` and ``bpmf compare``.

Exit codes: 0 success, 1 usage error, 2 runtime/divergence/out-of-memory error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import mcmc
from .errors import BpmfError, DataFormatError, UsageError
from .evaluate import (DEFAULT_CONFIGS, ENGINES, ExperimentConfig, ExperimentReport, compare,
                       run_experiment)

# the engine flags each engine takes: argparse dest -> engine config field
ENGINE_FLAGS = {
    "mf": {"lr": "alpha", "epochs": "epochs", "seed": "seed"},
    "mcmc": {"n_steps": "n_steps", "burn_in": "burn_in", "thin": "thin",
             "proposal_std": "proposal_std", "seed": "seed"},
    "vi": {"lr": "learning_rate", "epochs": "epochs", "mc_samples": "mc_samples", "seed": "seed"},
}


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
    run.add_argument("--burn-in", type=int,
                     help=f"MCMC burn-in (default {100 * mcmc.BURN_IN_SHARE:g}%% of steps)")
    run.add_argument("--thin", type=int, help="MCMC thinning stride")
    run.add_argument("--proposal-std", type=float,
                     help="MCMC row-blocked random-walk step std "
                          f"(default {DEFAULT_CONFIGS['mcmc'].proposal_std})")

    cmp_ = sub.add_parser("compare", help="tabulate two or more report.json files")
    cmp_.add_argument("reports", nargs="+", metavar="report.json")
    cmp_.add_argument("--csv", help="also write the comparison as CSV to this path")
    return parser


def _given(**values):
    """The flags the user set; the config's own defaults fill in the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _check_paths(*paths):
    """A path the OS cannot take fails like a missing file, before any work."""
    for path in paths:
        try:
            if b"\0" not in os.fsencode(path):
                continue
        except UnicodeEncodeError:
            pass
        raise BpmfError(f"invalid path {path!r}")


def _engine_config(args):
    """The chosen engine's config; ValueError for a flag only other engines take."""
    flags = ENGINE_FLAGS[args.engine]
    others = set().union(*ENGINE_FLAGS.values()) - flags.keys()
    stray = [f"--{dest.replace('_', '-')}" for dest, value in vars(args).items()
             if dest in others and value is not None]
    if stray:
        raise ValueError(f"--engine {args.engine} does not take {', '.join(stray)}")
    return DEFAULT_CONFIGS[args.engine](
        **_given(**{field: getattr(args, dest) for dest, field in flags.items()}))


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
    _check_paths(args.data, args.out)
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
    _check_paths(*args.reports, *([args.csv] if args.csv else []))
    reports = []
    for path in args.reports:
        with open(path) as fh:
            try:
                reports.append(ExperimentReport.from_dict(json.load(fh)))
            except (ValueError, DataFormatError) as exc:
                # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
                raise UsageError(f"{path}: not a bpmf report: {exc}") from None
    text, csv_text = compare(reports)
    # the CSV is written first, so a path that fails leaves no partial output
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    print(text)
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
    except (BpmfError, OSError) as exc:
        print(f"bpmf: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"bpmf: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
