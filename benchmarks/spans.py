"""Span recording for the traced benchmark run, and the per-layer arithmetic.

The traced run wraps public ``bpmf`` functions at the module attribute
their caller looks them up from (``bpmf.mcmc.log_joint``, not
``bpmf.model.log_joint``), so no file under ``src/`` changes. Each call
records one span: name, start, end and the index of the enclosing span.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

# (span name, module the caller looks the function up from, attribute)
WRAPPED = (
    ("evaluate.run_experiment", "bpmf.cli", "run_experiment"),
    ("data.load_ratings", "bpmf.evaluate", "load_ratings"),
    ("data.build_dataset", "bpmf.evaluate", "build_dataset"),
    ("data.split_dataset", "bpmf.evaluate", "split_dataset"),
    ("vi.vi_train", "bpmf.evaluate", "vi_train"),
    ("vi.draw_noise", "bpmf.vi", "draw_noise"),
    ("vi.elbo_with_noise", "bpmf.vi", "elbo_with_noise"),
    ("vi.elbo_value_with_noise", "bpmf.vi", "elbo_value_with_noise"),
    ("mcmc.run_chain", "bpmf.evaluate", "run_chain"),
    ("mcmc.mh_step", "bpmf.mcmc", "mh_step"),
    ("model.log_joint", "bpmf.mcmc", "log_joint"),
    ("baseline.mf_train", "bpmf.evaluate", "mf_train"),
    ("baseline.mf_epoch", "bpmf.baseline", "mf_epoch"),
    ("baseline.mf_loss", "bpmf.baseline", "mf_loss"),
    ("evaluate.predict_all", "bpmf.evaluate", "predict_all"),
    ("vi.vi_predict_batch", "bpmf.evaluate", "vi_predict_batch"),
    ("mcmc.mcmc_predict_batch", "bpmf.evaluate", "mcmc_predict_batch"),
)

# (metric, unit, span name, statistic over that span's calls)
SPAN_METRICS = (
    ("data.load_ratings_s", "s", "data.load_ratings", "total"),
    ("data.build_dataset_s", "s", "data.build_dataset", "total"),
    ("data.split_dataset_s", "s", "data.split_dataset", "total"),
    ("vi.vi_train_s", "s", "vi.vi_train", "total"),
    ("vi.vi_train_self_s", "s", "vi.vi_train", "self_total"),
    ("vi.elbo_with_noise_ms", "ms", "vi.elbo_with_noise", "median"),
    ("vi.elbo_with_noise_p90_ms", "ms", "vi.elbo_with_noise", "p90"),
    ("vi.elbo_value_with_noise_ms", "ms", "vi.elbo_value_with_noise", "median"),
    ("vi.draw_noise_ms", "ms", "vi.draw_noise", "median"),
    ("vi.draw_noise_calls", "count", "vi.draw_noise", "calls"),
    ("model.log_joint_ms", "ms", "model.log_joint", "median"),
    ("model.log_joint_calls", "count", "model.log_joint", "calls"),
    ("mcmc.mh_step_ms", "ms", "mcmc.mh_step", "median"),
    ("mcmc.mh_step_self_ms", "ms", "mcmc.mh_step", "self_median"),
    ("mcmc.run_chain_s", "s", "mcmc.run_chain", "total"),
    ("baseline.mf_train_s", "s", "baseline.mf_train", "total"),
    ("baseline.mf_epoch_ms", "ms", "baseline.mf_epoch", "median"),
    ("baseline.mf_loss_ms", "ms", "baseline.mf_loss", "median"),
    ("evaluate.predict_all_s", "s", "evaluate.predict_all", "total"),
    ("vi.vi_predict_batch_s", "s", "vi.vi_predict_batch", "total"),
    ("mcmc.mcmc_predict_batch_s", "s", "mcmc.mcmc_predict_batch", "total"),
    ("evaluate.run_experiment_self_s", "s", "evaluate.run_experiment", "self_total"),
)

# metrics read from the value a wrapped function returns
COUNTER_METRICS = (
    ("mcmc.acceptance_rate", "ratio"),
    ("mcmc.retained_samples", "count"),
)


def _chain_counters(trace) -> dict:
    proposed = getattr(trace, "step_count", 0)
    return {
        "mcmc.acceptance_rate": getattr(trace, "accept_count", 0) / proposed if proposed else 0.0,
        "mcmc.retained_samples": len(getattr(trace, "samples", ())),
    }


RESULT_COUNTERS = {"mcmc.run_chain": _chain_counters}


class Tracer:
    """Wraps module attributes so that each call records a span."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = {}
        self.absent = []
        self._clock = clock
        self._stack = []

    def install(self, wrapped=WRAPPED):
        """Wrap every listed function; a module or attribute that does not
        exist at this commit is recorded as absent, not an error."""
        for name, module_name, attr in wrapped:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name, fn):
        on_result = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, self._clock(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self._clock()
            if on_result is not None:
                self.counters.update(on_result(result))
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def layer_metrics(spans, counters) -> dict:
    """Per-layer metric values for one traced run; a span that never ran
    (absent or not called on this workload) gives 0."""
    selfs = self_times(spans)
    by_name = {}
    for (name, start, end, _), own in zip(spans, selfs):
        by_name.setdefault(name, []).append((end - start, own))
    out = {}
    for metric, unit, span, stat in SPAN_METRICS:
        calls = by_name.get(span, [])
        if stat == "calls":
            value = len(calls)
        elif not calls:
            value = 0.0
        elif stat == "total":
            value = sum(d for d, _ in calls)
        elif stat == "self_total":
            value = sum(s for _, s in calls)
        elif stat == "median":
            value = statistics.median(d for d, _ in calls)
        elif stat == "self_median":
            value = statistics.median(s for _, s in calls)
        else:  # p90
            value = percentile([d for d, _ in calls], 0.9)
        out[metric] = value * 1e3 if unit == "ms" else value
    for metric, _ in COUNTER_METRICS:
        out[metric] = counters.get(metric, 0)
    return out


def self_time_by_span(spans) -> dict:
    """Total self time per span name, for naming a run's dominant layer."""
    totals = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals
