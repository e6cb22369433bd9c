"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/tests -q
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY_SHAPE = (60, 90, 3_000)
# each workload's engine and flags at a size that runs in about a second
TINY = {
    "vi-ml100k": dict(iterations=60, shape=TINY_SHAPE),
    "mcmc-ml100k": dict(iterations=20, shape=TINY_SHAPE),
    "mf-ml1m": dict(iterations=30, shape=TINY_SHAPE, extra_flags=("--lr", "0.02")),
}


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],  # overlaps a: the covered interval counts once
        ["c", 8.0, 9.0, 0],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 1.0]
    assert spans.self_time_by_span(tree + [["c", 9.5, 9.75, 0]]) == {
        "root": 3.75, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 1.25,
    }


def test_layer_metrics_from_a_hand_built_trace():
    tree = [
        ["vi.vi_train", 0.0, 1.0, None],
        ["vi.draw_noise", 0.0, 0.1, 0],
        ["vi.elbo_with_noise", 0.1, 0.4, 0],
        ["vi.draw_noise", 0.4, 0.5, 0],
        ["vi.elbo_with_noise", 0.5, 0.6, 0],
        ["vi.elbo_with_noise", 0.6, 0.8, 0],
    ]
    got = spans.layer_metrics(tree, {"mcmc.retained_samples": 7})
    assert got["vi.vi_train_s"] == 1.0
    assert got["vi.vi_train_self_s"] == pytest.approx(0.2)
    assert got["vi.elbo_with_noise_ms"] == pytest.approx(200.0)
    assert got["vi.elbo_with_noise_p90_ms"] == pytest.approx(300.0)
    assert got["vi.draw_noise_calls"] == 2
    assert got["model.log_joint_calls"] == 0
    assert got["mcmc.mh_step_ms"] == 0.0
    assert got["mcmc.retained_samples"] == 7
    assert got["mcmc.acceptance_rate"] == 0


def test_tracer_records_nested_spans_and_tolerates_absent_functions(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.install((
        ("layer.outer", "fake_layer", "outer"),
        ("layer.inner", "fake_layer", "inner"),
        ("layer.removed", "fake_layer", "removed"),
        ("gone.module", "fake_layer_not_there", "anything"),
    ))
    assert fake.outer(1) == 4
    assert tracer.absent == ["layer.removed", "gone.module"]
    assert tracer.spans == [["layer.outer", 0.0, 3.0, None], ["layer.inner", 1.0, 2.0, 0]]


def test_contract_names_every_harness_metric_and_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == list(run.PER_LAYER_METRICS)


def test_reference_seed_reproduces_the_cached_surrogate(tmp_path):
    if not run.REFERENCE_CSV.is_file():
        pytest.skip("no cached surrogate ratings file")
    inputs = run.make_inputs(run.WORKLOADS["vi-ml100k"], run.REFERENCE_SEED, tmp_path)
    assert inputs.reference_match is True
    assert inputs.cuts == (60_501, 20_167, 20_168)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_smoke_run(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    traces = (0, 1) if name == "vi-ml100k" else (0,)
    for trace in traces:
        result = run.run_workload(name, workload, seed=3, seconds=0.0, trace=bool(trace))
        assert result["correct"] and result["failed"] == 0, capsys.readouterr().out
        expected = run.PER_LAYER_METRICS if trace else run.E2E_METRICS
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not traces[-1]:
        counts = {k: m["n"] for k, m in json.loads(
            (tmp_path / "results" / f"{name}-seed3-trace0.json").read_text())["metrics"].items()}
        assert counts["setup_s"] >= run.MIN_SETUPS and counts["run_s"] >= run.MIN_RUNS
