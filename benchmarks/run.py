"""The bpmf benchmark: ``bpmf run`` timed end to end, and layer by layer.

    python3 benchmarks/run.py --workload vi-ml100k --seed 20240 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all      # every workload in turn

Each workload generates its ratings file from ``--seed`` (untimed), then
runs ``python -m bpmf.cli run`` as a child process, one at a time, with
``PYTHONPATH=<checkout>/src`` and BLAS/OpenMP pinned to one thread.

``--trace 0`` runs ``bpmf run`` children until ``--seconds`` have passed
(at least MIN_RUNS), interleaved at the start with MIN_SETUPS set-up
children (import bpmf, load, remap and split the file), and reports the
medians of the end-to-end metrics. ``--trace 1`` alternates a traced ``bpmf run``
(public functions wrapped, see spans.py) with an untraced one and reports
the per-layer metrics. Every child's output is checked; a child that
fails a check counts in ``failed``. The last line of stdout is the result
as JSON; details with every sample and the machine's provenance go to
``.cache/bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import COUNTER_METRICS, SPAN_METRICS, layer_metrics, percentile, self_time_by_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".cache" / "bench"
REFERENCE_CSV = ROOT / ".cache" / "surrogate_ratings.csv"
REFERENCE_SEED = 20240  # the default seed of bpmf.synthetic
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ML_SMALL = (610, 9_724, 100_836)  # bpmf.synthetic's default shape
ML_1M = (6_040, 3_706, 1_000_209)
SPLIT = (0.6, 0.2, 0.2)  # the split `bpmf run` makes, with split seed 0
MIN_RUNS = 2
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 120.0

E2E_METRICS = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rmse_test", "rating"),
)
PER_LAYER_METRICS = (
    tuple((name, unit) for name, unit, *_ in SPAN_METRICS)
    + COUNTER_METRICS
    + (("process.import_s", "s"), ("process.cpu_s", "s"), ("trace.overhead", "ratio"))
)


@dataclass(frozen=True)
class Workload:
    engine: str
    iterations: int  # epochs (vi, mf) or chain steps (mcmc): one trace.csv row each
    dominant: str  # the span a traced run should find with the largest self time
    shape: tuple = ML_SMALL  # users, items, ratings of the generated file
    whole_stars: bool = False  # round the half-star surrogate to 1-5 stars
    extra_flags: tuple = ()

    def flags(self) -> list:
        count = "--n-steps" if self.engine == "mcmc" else "--epochs"
        return ["--engine", self.engine, count, str(self.iterations), *self.extra_flags]


# Iteration counts sit far below the engines' defaults (VI 300 epochs, MCMC
# 20,000 steps, MF 200 epochs) so that one run repeats each child; each
# workload still spends most of its time in the layer it is there to
# measure, and VI and MF still beat the constant predictor on every seed tried.
WORKLOADS = {
    # VI layer: the ELBO value+gradient dominates training
    "vi-ml100k": Workload("vi", 60, "vi.elbo_with_noise"),
    # model and MCMC layers: log_joint dominates; retained samples set peak RSS
    "mcmc-ml100k": Workload("mcmc", 300, "model.log_joint"),
    # data layer: parse, remap and split of 1M integer-star ratings; a larger
    # step lets MF beat the constant predictor in 10 epochs instead of 30
    "mf-ml1m": Workload("mf", 10, "data.load_ratings", shape=ML_1M, whole_stars=True,
                        extra_flags=("--lr", "0.006")),
}


@dataclass
class Inputs:
    path: Path
    sha256: str
    cuts: tuple  # n_train, n_val, n_test
    rating_span: float  # r_max - r_min as load_ratings detects the scale
    constant_rmse: float  # test RMSE of the training mean on the same split
    reference_match: bool | None  # None: not the reference seed, or no file


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's ratings file and derive what its runs must report."""
    from bpmf.synthetic import synthesize_ratings, write_ratings_csv

    path = directory / "ratings.csv"
    if workload.whole_stars:
        users, items, ratings = synthesize_ratings(*workload.shape, seed=seed)
        stars = np.clip(np.round(ratings), 1, 5).astype(np.int64)
        stamps = np.random.default_rng(seed + 1).integers(900_000_000, 1_600_000_000, users.size)
        with open(path, "w") as fh:
            fh.write("userId,movieId,rating,timestamp\n")
            fh.writelines(
                f"{u},{m},{r},{t}\n"
                for u, m, r, t in zip(users.tolist(), items.tolist(), stars.tolist(), stamps.tolist())
            )
    else:
        write_ratings_csv(path, *workload.shape, seed=seed)
    data = path.read_bytes()

    ratings = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2, ndmin=1)
    length = ratings.size
    cut1, cut2 = math.floor(length * SPLIT[0]), math.floor(length * (SPLIT[0] + SPLIT[1]))
    perm = np.random.default_rng(0).permutation(length)
    train, test = ratings[perm[:cut1]], ratings[perm[cut2:]]
    half_star = bool(np.any(ratings != np.floor(ratings)))
    reference = None
    if (seed == REFERENCE_SEED and workload.shape == ML_SMALL and not workload.whole_stars
            and REFERENCE_CSV.is_file()):
        reference = REFERENCE_CSV.read_bytes() == data
    return Inputs(
        path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        cuts=(cut1, cut2 - cut1, length - cut2),
        rating_span=max(2, math.ceil(ratings.max())) - (0.5 if half_star else 1.0),
        constant_rmse=float(np.sqrt(np.mean((test - train.mean()) ** 2))),
        reference_match=reference,
    )


@dataclass
class Child:
    kind: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    out_dir: Path
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def spawn(kind: str, argv: list, out_dir: Path, env: dict) -> Child:
    """Run one child to completion; wall time from spawn to exit, and the
    child's own peak RSS and CPU time from wait4."""
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(kind, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, out_dir)
    if proc.returncode != 0:
        child.problems.append(f"exit code {proc.returncode}")
    return child


def check_setup(child: Child, inputs: Inputs):
    if child.problems:
        return
    try:
        sizes = json.loads((child.out_dir / "stdout.txt").read_text().splitlines()[-1])
        got = (sizes["n_train"], sizes["n_val"], sizes["n_test"])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        child.problems.append(f"unreadable split sizes: {exc!r}")
        return
    if got != inputs.cuts:
        child.problems.append(f"split sizes {got}, expected {inputs.cuts}")


def check_run(child: Child, workload: Workload, inputs: Inputs):
    """The output checks every `bpmf run` child must pass."""
    from bpmf.evaluate import ExperimentReport

    if child.problems:
        return
    try:
        with open(child.out_dir / "out" / "report.json") as fh:
            report = ExperimentReport.from_dict(json.load(fh))
        with open(child.out_dir / "out" / "trace.csv") as fh:
            trace_rows = sum(1 for _ in fh) - 1
    except Exception as exc:  # any load failure is a failed check, not a crash
        child.problems.append(f"unreadable output: {exc!r}")
        return
    problems = child.problems
    if trace_rows != workload.iterations:
        problems.append(f"trace.csv has {trace_rows} rows, expected {workload.iterations}")
    sizes = (report.n_train, report.n_val, report.n_test)
    if sizes != inputs.cuts:
        problems.append(f"split sizes {sizes}, expected {inputs.cuts}")
    rmse_test = report.rmse_test
    if not (math.isfinite(rmse_test) and 0.0 <= rmse_test <= inputs.rating_span):
        problems.append(f"rmse_test {rmse_test} outside [0, {inputs.rating_span}]")
    elif workload.engine != "mcmc" and not rmse_test < inputs.constant_rmse:
        problems.append(
            f"rmse_test {rmse_test} not below the constant predictor's {inputs.constant_rmse}"
        )
    child.values = {"train_s": report.wall_clock_seconds, "rmse_test": rmse_test}


def tail_percentile(samples):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            return {"p": q, "value": percentile(samples, q / 100)}
    return None


def summarize(samples: dict, units: dict) -> dict:
    return {
        name: {
            "value": statistics.median(values),
            "unit": units[name],
            "n": len(values),
            "tail": tail_percentile(values),
            "samples": values,
        }
        for name, values in samples.items()
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure(workload: Workload, inputs: Inputs, seconds: float, trace: bool,
            directory: Path) -> tuple:
    """Run the children for one workload; returns (children, metric samples)."""
    env = child_env()
    python = sys.executable
    bpmf_args = ["run", *workload.flags(), "--data", str(inputs.path)]
    children = []

    def run_child(kind: str) -> Child:
        out_dir = directory / f"{kind}-{len(children)}"
        if kind == "setup":
            child = spawn(kind, [python, str(HERE / "child.py"), "setup", str(inputs.path)],
                          out_dir, env)
            check_setup(child, inputs)
        else:
            out = ["--out", str(out_dir / "out")]
            if kind == "traced":
                argv = [python, str(HERE / "child.py"), "traced", str(out_dir / "spans.json")]
            else:
                argv = [python, "-m", "bpmf.cli"]
            child = spawn(kind, argv + bpmf_args + out, out_dir, env)
            check_run(child, workload, inputs)
        children.append(child)
        return child

    def healthy():
        # one failed child already makes the run incorrect: start no more
        return not any(c.problems for c in children)

    def setups():
        return sum(c.kind == "setup" for c in children)

    # each step is one untraced run, preceded by a traced run (trace) or,
    # until there are MIN_SETUPS, by a set-up child
    deadline = time.perf_counter() + seconds
    step_times = []
    while healthy() and (len(step_times) < (1 if trace else MIN_RUNS)
                         or time.perf_counter() + statistics.mean(step_times) < deadline):
        start = time.perf_counter()
        if trace:
            run_child("traced")
        elif setups() < MIN_SETUPS:
            run_child("setup")
        run_child("run")
        step_times.append(time.perf_counter() - start)
    while not trace and healthy() and setups() < MIN_SETUPS:
        run_child("setup")

    def ok(kind):
        return [c for c in children if c.kind == kind and not c.problems]

    runs = ok("run")
    if not trace:
        return children, {
            "run_s": [c.wall_s for c in runs],
            "setup_s": [c.wall_s for c in ok("setup")],
            "train_s": [c.values["train_s"] for c in runs],
            "peak_rss_mb": [c.rss_mb for c in runs],
            "rmse_test": [c.values["rmse_test"] for c in runs],
        }
    samples = {name: [] for name, _ in PER_LAYER_METRICS}
    traced = ok("traced")
    for child in traced:
        with open(child.out_dir / "spans.json") as fh:
            record = json.load(fh)
        for name, value in layer_metrics(record["spans"], record["counters"]).items():
            samples[name].append(value)
        samples["process.import_s"].append(record["import_s"])
        child.values = {
            "absent": record["absent"],
            "self_s": self_time_by_span(record["spans"]),
        }
    samples["process.cpu_s"] = [c.cpu_s for c in runs]
    if traced and runs:
        samples["trace.overhead"] = [
            statistics.median(c.wall_s for c in traced) / statistics.median(c.wall_s for c in runs) - 1.0
        ]
    return children, samples


def purpose(workload: Workload, children: list, run_s: float) -> dict:
    """Which layer dominates the traced runs: the span with the largest self
    time, and the data layer's share of the untraced run time."""
    traced = [c for c in children if c.kind == "traced" and not c.problems]
    if not traced:
        return {}
    self_s = {
        name: statistics.median(c.values["self_s"].get(name, 0.0) for c in traced)
        for name in traced[0].values["self_s"]
    }
    dominant = max(self_s, key=self_s.get)
    data_s = sum(v for name, v in self_s.items() if name.startswith("data."))
    return {
        "dominant_self_time": dominant,
        "confirmed": dominant == workload.dominant,
        "data_share_of_run_s": data_s / run_s,
        "absent": traced[0].values["absent"],
    }


def provenance(env: dict) -> dict:
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    directory = WORK / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    inputs = make_inputs(workload, seed, directory)
    children, samples = measure(workload, inputs, seconds, trace, directory)

    units = dict(PER_LAYER_METRICS if trace else E2E_METRICS)
    metrics = summarize({k: v for k, v in samples.items() if v}, units)
    failed = sum(bool(c.problems) for c in children)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "flags": workload.flags(),
        "inputs": {
            "sha256": inputs.sha256,
            "cuts": inputs.cuts,
            "constant_rmse": inputs.constant_rmse,
            "reference_match": inputs.reference_match,
        },
        "attempted": len(children),
        "failed": failed,
        "fail_ratio": failed / len(children),
        "problems": {c.out_dir.name: c.problems for c in children if c.problems},
        "metrics": metrics,
        "provenance": provenance(child_env()),
    }
    if trace:
        untraced = [c.wall_s for c in children if c.kind == "run" and not c.problems]
        if untraced:
            detail["purpose"] = purpose(workload, children, statistics.median(untraced))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail_path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    detail_path.write_text(json.dumps(detail, indent=2, default=str))

    print_summary(detail, detail_path)
    missing = [m for m, _ in (PER_LAYER_METRICS if trace else E2E_METRICS) if m not in metrics]
    return {
        "correct": failed == 0 and inputs.reference_match is not False and not missing,
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def print_summary(detail: dict, detail_path: Path):
    inputs = detail["inputs"]
    print(f"{detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"flags {' '.join(detail['flags'])}")
    print(f"  inputs sha256 {inputs['sha256']}  reference match {inputs['reference_match']}")
    print(f"  {'metric':<34}{'median':>14}  {'unit':<8}{'n':>4}  tail")
    for name, m in detail["metrics"].items():
        tail = f"p{m['tail']['p']} {m['tail']['value']:.6g}" if m["tail"] else "-"
        print(f"  {name:<34}{m['value']:>14.6g}  {m['unit']:<8}{m['n']:>4}  {tail}")
    print(f"  {'fail_ratio':<34}{detail['fail_ratio']:>14.6g}  {'ratio':<8}{detail['attempted']:>4}")
    for child, problems in detail["problems"].items():
        print(f"  FAILED {child}: {'; '.join(problems)}")
    if "purpose" in detail:
        print(f"  purpose {json.dumps(detail['purpose'])}")
    prov = detail["provenance"]
    print(f"  machine: nproc {prov['nproc']}, {prov['cpu_model']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, commit {prov['git_commit']}")
    print(f"  details {detail_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bpmf" / "cli.py").is_file():
        print(f"benchmark: no bpmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
