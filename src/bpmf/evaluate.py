"""Experiment orchestration: train an engine, score it, emit reports.

Ties the data pipeline and the three engines together, computes RMSE on
the original rating scale, and serializes machine-readable reports for
cross-engine comparison.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baseline import MfConfig, mf_train
from .data import SPLIT_FRACTIONS, build_dataset, load_ratings, split_dataset
from .errors import BpmfError, DataFormatError, UsageError
from .mcmc import ChainTrace, desk_scale_config, mcmc_predict_batch, run_chain
from .model import LatentState, ModelHyperparams, RatingDataset, denormalize_rating, row_dots
from .vi import VariationalParams, ViConfig, vi_predict_batch, vi_train

# the config each engine trains with when the experiment gives none
DEFAULT_CONFIGS = {"mf": MfConfig, "mcmc": desk_scale_config, "vi": ViConfig}
ENGINES = tuple(DEFAULT_CONFIGS)


@dataclass(frozen=True)
class ExperimentConfig:
    engine: str
    data_path: str
    output_dir: str
    k: int = 10
    sigma2: float = 0.25
    split_seed: int = 0
    engine_config: object = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise BpmfError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.split_seed < 0:
            raise ValueError("split_seed must be >= 0")
        ModelHyperparams(k=self.k, sigma2=self.sigma2)

    def resolved_engine_config(self):
        if self.engine_config is not None:
            return self.engine_config
        return DEFAULT_CONFIGS[self.engine]()


@dataclass
class ExperimentReport:
    config: dict
    rmse_validation: float
    rmse_test: float
    loss_trace: list
    wall_clock_seconds: float
    n_train: int
    n_val: int
    n_test: int
    cold_start_count: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        """Rebuild a report from ``to_dict`` output; DataFormatError if malformed."""
        if not isinstance(payload, dict):
            raise DataFormatError(f"expected a JSON object, got {type(payload).__name__}")
        names = [f.name for f in dataclasses.fields(cls)]
        missing = [name for name in names if name not in payload]
        unknown = sorted(set(payload) - set(names))
        if missing or unknown:
            raise DataFormatError(f"missing fields {missing}, unknown fields {unknown}")
        for name in names:
            value = payload[name]
            if name == "config":
                ok = isinstance(value, dict)
            elif name == "loss_trace":
                ok = isinstance(value, list) and all(_is_number(x) for x in value)
            else:
                ok = _is_number(value)
            if not ok:
                raise DataFormatError(f"field {name!r} has the wrong type")
        return cls(**payload)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rmse(predictions, truths) -> float:
    """Root mean squared error on the original rating scale."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape or predictions.size == 0:
        raise BpmfError("predictions and truths must be non-empty and equal-length")
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


def global_mean_rating(train: RatingDataset) -> float:
    """Training-set mean rating on the original scale."""
    return float(np.mean(denormalize_rating(train.rating, train.scale)))


def predict_all(engine_result, eval_data: RatingDataset, train_data: RatingDataset,
                fallback: float | None = None):
    """Batch predictions for an eval set; returns (predictions, cold_count).

    Any user or item with zero training ratings gets the fallback value
    (training global mean unless overridden). The engine result type
    selects the predictor: LatentState (baseline, dot product clipped to
    the valid range), ChainTrace (posterior sample mean), or
    VariationalParams (MC mean over the fitted posterior, fixed seed).
    """
    if fallback is None:
        fallback = global_mean_rating(train_data)
    ii, jj = eval_data.user_idx, eval_data.item_idx

    if isinstance(engine_result, LatentState):
        dots = row_dots(engine_result.u, engine_result.v, ii, jj)
        preds = denormalize_rating(np.clip(dots, 0.0, 1.0), eval_data.scale)
    elif isinstance(engine_result, ChainTrace):
        preds = mcmc_predict_batch(engine_result, ii, jj, eval_data.scale)
    elif isinstance(engine_result, VariationalParams):
        preds = vi_predict_batch(engine_result, ii, jj, eval_data.scale)
    else:
        raise BpmfError(f"unknown engine result type {type(engine_result).__name__}")

    cold = (
        (np.bincount(train_data.user_idx, minlength=train_data.n_users) == 0)[ii]
        | (np.bincount(train_data.item_idx, minlength=train_data.n_items) == 0)[jj]
    )
    preds = np.where(cold, fallback, preds)
    return preds, int(np.sum(cold))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Load, split, train the selected engine, score, and write artifacts.

    Writes ``report.json`` and ``trace.csv`` into the output directory.
    The wall clock covers training only.
    """
    raw, scale = load_ratings(cfg.data_path)
    data, maps = build_dataset(raw, scale)
    split = split_dataset(data, seed=cfg.split_seed, maps=maps)
    engine_cfg = cfg.resolved_engine_config()
    hp = ModelHyperparams(k=cfg.k, sigma2=cfg.sigma2)

    start = time.perf_counter()
    if cfg.engine == "mcmc":
        result = run_chain(split.train, hp, engine_cfg)
        trace = result.energies.tolist()
    else:
        train = mf_train if cfg.engine == "mf" else vi_train
        result, trace = train(split.train, hp, engine_cfg)
    wall_clock = time.perf_counter() - start

    fallback = global_mean_rating(split.train)
    truths_val = denormalize_rating(split.validation.rating, scale)
    truths_test = denormalize_rating(split.test.rating, scale)
    preds_val, cold_val = predict_all(result, split.validation, split.train, fallback)
    preds_test, cold_test = predict_all(result, split.test, split.train, fallback)

    report = ExperimentReport(
        config={
            "engine": cfg.engine,
            "data_path": str(cfg.data_path),
            "k": cfg.k,
            "sigma2": cfg.sigma2,
            "fractions": list(SPLIT_FRACTIONS),
            "split_seed": cfg.split_seed,
            "engine_config": dataclasses.asdict(engine_cfg),
        },
        rmse_validation=rmse(preds_val, truths_val),
        rmse_test=rmse(preds_test, truths_test),
        loss_trace=[float(x) for x in trace],
        wall_clock_seconds=wall_clock,
        n_train=split.train.n_ratings,
        n_val=split.validation.n_ratings,
        n_test=split.test.n_ratings,
        cold_start_count=cold_val + cold_test,
    )

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    with open(out / "trace.csv", "w", newline="") as fh:
        fh.write("epoch,value\n")
        for epoch, value in enumerate(report.loss_trace):
            fh.write(f"{epoch},{value!r}\n")
    return report


def plateau_epoch(trace, maximize: bool = True) -> int:
    """First epoch (1-based) after which the running best improves by
    less than 0.1% over the remainder of the run.

    The 0.1% is taken relative to the run's total improvement (raw
    trace values carry arbitrary additive constants, so a value-relative
    threshold would depend on them).
    """
    values = np.asarray(trace, dtype=np.float64)
    if values.size == 0:
        return 0
    if not maximize:
        values = -values
    best_so_far = np.maximum.accumulate(values)
    best_end = best_so_far[-1]
    remaining = best_end - best_so_far
    threshold = 1e-3 * (best_end - values[0])
    hits = np.nonzero(remaining <= threshold)[0]
    return int(hits[0]) + 1 if hits.size else values.size


def compare(reports) -> tuple[str, str]:
    """Side-by-side engine comparison; returns (text table, CSV text)."""
    reports = list(reports)
    if len(reports) < 2:
        raise UsageError("compare needs at least 2 reports")

    rows = []
    for rep in reports:
        engine = rep.config.get("engine", "?")
        plateau = plateau_epoch(rep.loss_trace, maximize=engine != "mf")
        rows.append((engine, rep.rmse_test, plateau, rep.wall_clock_seconds))

    csv_buf = io.StringIO()
    csv_buf.write("engine,rmse_test,epochs_to_plateau,wall_clock_seconds\n")
    for engine, err, plateau, wall in rows:
        csv_buf.write(f"{engine},{err:.6f},{plateau},{wall:.3f}\n")

    header = f"{'engine':<8}{'rmse_test':>12}{'plateau':>10}{'seconds':>12}"
    lines = [header, "-" * len(header)]
    for engine, err, plateau, wall in rows:
        lines.append(f"{engine:<8}{err:>12.4f}{plateau:>10}{wall:>12.2f}")
    return "\n".join(lines), csv_buf.getvalue()
