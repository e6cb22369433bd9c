"""Experiment orchestration: train an engine, score it, emit reports.

Ties the data pipeline and the three engines together, computes RMSE on
the original rating scale, and serializes machine-readable reports for
cross-engine comparison.
"""

from __future__ import annotations

import dataclasses
import io
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baseline import MfConfig, mf_train
from .data import SPLIT_FRACTIONS, build_dataset, load_ratings, split_dataset
from .errors import BpmfError, DataFormatError, UsageError
from .mcmc import McmcConfig, run_chain
from .model import (LatentState, ModelHyperparams, PosteriorMean, RatingDataset,
                    denormalize_rating, row_dots)
from .vi import ViConfig, vi_predict_batch, vi_train

# the config each engine trains with when the experiment gives none
DEFAULT_CONFIGS = {"mf": MfConfig, "mcmc": McmcConfig, "vi": ViConfig}
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
        config_type = DEFAULT_CONFIGS[self.engine]
        if self.engine_config is None:
            object.__setattr__(self, "engine_config", config_type())
        elif not isinstance(self.engine_config, config_type):
            raise ValueError(f"engine {self.engine!r} takes a {config_type.__name__}")


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
    # reports written before these fields existed load with the defaults
    timings: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        """Rebuild a report from ``to_dict`` output; DataFormatError if malformed."""
        if not isinstance(payload, dict):
            raise DataFormatError(f"expected a JSON object, got {type(payload).__name__}")
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        missing = [f.name for f in fields if f.name not in payload
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        unknown = sorted(set(payload) - set(names))
        if missing or unknown:
            raise DataFormatError(f"missing fields {missing}, unknown fields {unknown}")
        # each field that is not a plain number; an engine, when present, must be one bpmf runs
        checks = {
            "config": lambda v: isinstance(v, dict) and v.get("engine", ENGINES[0]) in ENGINES,
            "loss_trace": lambda v: isinstance(v, list) and all(_is_number(x) for x in v),
            "timings": lambda v: isinstance(v, dict) and all(_is_number(x) for x in v.values()),
            "peak_rss_mb": lambda v: v is None or _is_number(v),
        }
        for name, value in payload.items():
            if not checks.get(name, _is_number)(value):
                raise DataFormatError(f"field {name!r} has the wrong type or value")
        return cls(**payload)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:  # an int past float range
        return False
    return True


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
                fallback: float):
    """Batch predictions for an eval set; returns (predictions, cold_count).

    Any user or item with zero training ratings gets the fallback value
    (``run_experiment`` passes the training global mean). The engine
    result type selects the predictor: LatentState (baseline, dot
    product clipped to the valid range), PosteriorMean (MCMC: the mean
    over retained samples, streamed over this eval set's pairs while
    the chain ran), or VariationalParams (VI: ``vi_predict_batch`` feeds
    a PosteriorMean with fixed-seed draws of the fitted posterior).
    """
    ii, jj = eval_data.user_idx, eval_data.item_idx

    if isinstance(engine_result, LatentState):
        dots = row_dots(engine_result.u, engine_result.v, ii, jj)
        preds = denormalize_rating(np.clip(dots, 0.0, 1.0), eval_data.scale)
    elif isinstance(engine_result, PosteriorMean):
        preds = engine_result.ratings(eval_data.scale)
    else:
        preds = vi_predict_batch(engine_result, ii, jj, eval_data.scale)

    cold = (
        (np.bincount(train_data.user_idx, minlength=train_data.n_users) == 0)[ii]
        | (np.bincount(train_data.item_idx, minlength=train_data.n_items) == 0)[jj]
    )
    preds = np.where(cold, fallback, preds)
    return preds, int(np.sum(cold))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Load, split, train the selected engine, score, and write artifacts.

    Writes ``report.json`` and ``trace.csv`` into the output directory. Validation and
    test are scored in one pass over ``split.held_out``, validation first. ``timings``
    holds the seconds spent in each phase: load, build, split, train, predict (scoring
    included) and write; imports precede load and belong to no phase. The wall clock,
    ``timings["train"]``, covers training only: the MCMC engine adds each retained
    sample's predictions for the held-out pairs to a running mean as the chain runs,
    keeping no samples, and that time counts under ``predict``.
    """
    if cfg.engine != "mcmc":  # VI and MF scatter through scipy.sparse: import it before the clock
        import scipy.sparse  # noqa: F401
    hp = ModelHyperparams(k=cfg.k, sigma2=cfg.sigma2)
    timings = {}
    last = time.perf_counter()

    def lap(phase):
        nonlocal last
        now = time.perf_counter()
        timings[phase] = now - last
        last = now

    raw, scale = load_ratings(cfg.data_path)
    lap("load")
    data, _ = build_dataset(raw, scale)
    lap("build")
    split = split_dataset(data, seed=cfg.split_seed)
    # the split has its own copy of the ratings; kept alive, the raw columns
    # and the unsplit dataset would add two more to training's peak memory
    del raw, data
    lap("split")
    rows = max(split.train.n_users, split.train.n_items, split.train.n_ratings)
    if rows * hp.k * 8 > np.iinfo(np.intp).max:  # numpy raises ValueError, not MemoryError
        raise MemoryError(f"({rows}, {hp.k}) float64 arrays exceed the address space")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    streamed = 0.0
    if cfg.engine == "mcmc":
        result = PosteriorMean(split.held_out.user_idx, split.held_out.item_idx)

        def on_sample(state):
            nonlocal streamed
            start = time.perf_counter()
            result.add(state)
            streamed += time.perf_counter() - start

        trace = run_chain(split.train, hp, cfg.engine_config, on_sample).energies.tolist()
    else:
        train = mf_train if cfg.engine == "mf" else vi_train
        result, trace = train(split.train, hp, cfg.engine_config)
    lap("train")
    timings["train"] -= streamed

    preds, cold_count = predict_all(result, split.held_out, split.train,
                                    global_mean_rating(split.train))
    truths = denormalize_rating(split.held_out.rating, scale)
    n_val = split.validation.n_ratings
    rmse_val = rmse(preds[:n_val], truths[:n_val])
    rmse_test = rmse(preds[n_val:], truths[n_val:])
    lap("predict")
    timings["predict"] += streamed

    with open(out / "trace.csv", "w", newline="") as fh:
        fh.write("epoch,value\n")
        for epoch, value in enumerate(trace):
            fh.write(f"{epoch},{value!r}\n")
    # report.json is written last, so its own write is not in "write"
    lap("write")

    report = ExperimentReport(
        config={
            "engine": cfg.engine,
            "data_path": str(cfg.data_path),
            "k": cfg.k,
            "sigma2": cfg.sigma2,
            "fractions": list(SPLIT_FRACTIONS),
            "split_seed": cfg.split_seed,
            "engine_config": dataclasses.asdict(cfg.engine_config),
        },
        rmse_validation=rmse_val,
        rmse_test=rmse_test,
        loss_trace=trace,
        wall_clock_seconds=timings["train"],
        n_train=split.train.n_ratings,
        n_val=n_val,
        n_test=split.test.n_ratings,
        cold_start_count=cold_count,
        timings=timings,
        # ru_maxrss is in kilobytes on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
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
