"""Tests for drawing each step's random numbers one step ahead: the
``prefetched`` helper's order, lead and worker lifetime, and serial
reference loops that every engine must match bit for bit."""

import copy
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from bpmf import model
from bpmf.errors import DivergenceError
from bpmf.mcmc import McmcConfig, mh_step, rowwise_sweep, run_chain
from bpmf.model import (PREFETCH_MIN_SIZE, LatentState, ModelHyperparams, PosteriorMean,
                        dot_buffers, log_joint, prefetched, rating_patterns, rating_residuals)
from bpmf.vi import (PREDICT_SAMPLES, ViConfig, draw_noise, elbo_value_with_noise, elbo_with_noise,
                     init_params, vi_predict_batch, vi_train)

from conftest import make_dataset
from test_mcmc import joint_draws, rowwise_draws

# 1,000 rows: a chain step at k=20 draws 21,000 numbers, a VI epoch at k=10
# with 2 samples 20,000, a prediction draw at k=20 20,000; all use the worker
LARGE = make_dataset(400, 600, 3000, seed=0)
SMALL = make_dataset(12, 15, 60, seed=4)


class TestPrefetched:
    def test_results_in_order_one_call_ahead_on_one_worker(self):
        count = 5
        calls, threads = [], set()
        ran = [threading.Event() for _ in range(count)]

        def draw():
            threads.add(threading.get_ident())
            calls.append(len(calls))
            ran[calls[-1]].set()
            return calls[-1]

        got = []
        with prefetched(draw, count, PREFETCH_MIN_SIZE) as results:
            for value in results:
                got.append(value)
                if value + 1 < count:
                    # the next call runs while this result is in use
                    assert ran[value + 1].wait(10.0)
                time.sleep(0.01)  # time for a further call, were one allowed
                assert len(calls) == min(len(got) + 1, count)
        assert got == list(range(count)) and len(calls) == count
        assert len(threads) == 1 and threading.get_ident() not in threads

    def test_small_calls_run_on_the_callers_thread_when_due(self):
        calls, threads = [], threading.active_count()

        def draw():
            calls.append(threading.get_ident())
            return len(calls)

        got = []
        with prefetched(draw, 4, PREFETCH_MIN_SIZE - 1) as results:
            for value in results:
                got.append(value)
                assert len(calls) == len(got) and threading.active_count() == threads
        assert got == [1, 2, 3, 4] and set(calls) == {threading.get_ident()}

    @pytest.mark.parametrize("size", [PREFETCH_MIN_SIZE, 0])
    def test_zero_count_never_calls(self, size):
        calls = []
        with prefetched(lambda: calls.append(None), 0, size) as results:
            assert list(results) == []
        assert calls == []

    @pytest.mark.parametrize("size", [PREFETCH_MIN_SIZE, 0])
    def test_a_failed_call_raises_where_its_result_is_taken(self, size):
        class Boom(Exception):
            pass

        calls = []

        def draw():
            calls.append(None)
            if len(calls) == 3:
                raise Boom
            return len(calls)

        threads = threading.active_count()
        with prefetched(draw, 5, size) as results:
            assert next(results) == 1
            assert next(results) == 2
            with pytest.raises(Boom):
                next(results)
        assert len(calls) == 3
        assert threading.active_count() == threads


def _chain(**kw):
    return lambda: run_chain(LARGE, ModelHyperparams(20, 0.25), McmcConfig(burn_in=0, **kw),
                             lambda state: None)


def _vi(**kw):
    return lambda: vi_train(LARGE, ModelHyperparams(10, 0.25), ViConfig(**kw))


def _vi_predict():
    params = init_params(LARGE.n_users, LARGE.n_items, 20, ViConfig())
    return vi_predict_batch(params, LARGE.user_idx, LARGE.item_idx, LARGE.scale)


@pytest.mark.parametrize("run, error", [
    (_chain(n_steps=5, proposal="rowwise"), None),
    (_chain(n_steps=5, proposal="joint"), None),
    (_chain(n_steps=5, proposal="rowwise", proposal_std=1e308), DivergenceError),
    (_chain(n_steps=5, proposal="joint", proposal_std=1e308), DivergenceError),
    (_vi(epochs=3), None),
    (_vi(learning_rate=1e4, epochs=50), DivergenceError),
    (_vi_predict, None),
], ids=["rowwise", "joint", "rowwise-diverges", "joint-diverges", "vi", "vi-diverges",
        "vi-predict"])
def test_one_worker_per_run_and_none_left(run, error, monkeypatch):
    workers = []

    class Recorded(model.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.append(self)

    monkeypatch.setattr(model, "ThreadPoolExecutor", Recorded)
    threads = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"):
        if error is None:
            run()
        else:
            with pytest.raises(error) as raised:
                run()
            assert raised.traceback  # the run's frames are still referenced
    assert len(workers) == 1 and workers[0]._max_workers == 1
    assert threading.active_count() == threads


@pytest.fixture
def frequent_switches():
    """Hand the interpreter lock between threads every microsecond, so that a
    step and the draw running ahead of it interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def serial_chain(data, hp, cfg):
    """``run_chain`` without prefetching: each step draws its own random
    numbers, in the documented order, just before it runs."""
    rng = np.random.default_rng(cfg.seed)
    state = LatentState(rng.normal(0.0, 1.0, size=(data.n_users, hp.k)),
                        rng.normal(0.0, 1.0, size=(data.n_items, hp.k)))
    log_g = log_joint(state, data, hp)
    if cfg.proposal == "rowwise":
        sq_resid = rating_residuals(state.u, state.v, data.user_idx, data.item_idx, data.rating) ** 2
        step = partial(rowwise_sweep, sq_resid=sq_resid, buffers=dot_buffers(data.n_ratings, hp.k))
        draw = rowwise_draws
    else:
        step, draw = mh_step, joint_draws
    energies, accepted, kept = [], [], []
    for t in range(cfg.n_steps):
        acc, log_g = step(state, data, hp, draw(rng, cfg.proposal_std, state), log_g)
        energies.append(log_g)
        accepted.append(acc)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thin == 0:
            kept.append(copy.deepcopy(state))
    return np.array(energies), np.array(accepted), kept


@pytest.mark.parametrize("data, hp, cfg", [
    (SMALL, ModelHyperparams(3, 0.25),
     McmcConfig(n_steps=300, burn_in=100, thin=7, proposal_std=0.05, seed=2, proposal="joint")),
    (SMALL, ModelHyperparams(3, 0.25),
     McmcConfig(n_steps=120, burn_in=40, thin=3, seed=2, proposal="rowwise")),
    (LARGE, ModelHyperparams(20, 0.25),
     McmcConfig(n_steps=60, burn_in=20, thin=7, proposal_std=0.003, seed=2, proposal="joint")),
    (LARGE, ModelHyperparams(20, 0.25),
     McmcConfig(n_steps=30, burn_in=10, thin=3, seed=2, proposal="rowwise")),
], ids=["joint", "rowwise", "joint-worker", "rowwise-worker"])
def test_chain_matches_serial_reference(data, hp, cfg, frequent_switches):
    kept = []
    trace = run_chain(data, hp, cfg, lambda state: kept.append(copy.deepcopy(state)))
    energies, accepted, expected = serial_chain(data, hp, cfg)
    assert np.array_equal(trace.energies, energies)
    assert np.array_equal(trace.accepted, accepted)
    assert 0 < trace.acceptance_rate < 1
    assert len(kept) == len(expected) > 1
    for got, want in zip(kept, expected):
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


def serial_vi_train(data, hp, cfg):
    """``vi_train`` without prefetching: each epoch draws its noise just before it runs."""
    params = init_params(data.n_users, data.n_items, hp.k, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    monitor = draw_noise(params, 1, np.random.default_rng(cfg.seed + 2))
    buffers, patterns = dot_buffers(data.n_ratings, hp.k), rating_patterns(data)
    trace = []
    for _ in range(cfg.epochs):
        _, grad = elbo_with_noise(params, data, hp, draw_noise(params, cfg.mc_samples, rng),
                                  buffers, patterns)
        params.mu_u += cfg.learning_rate * grad.mu_u
        params.log_s_u += cfg.learning_rate * grad.log_s_u
        params.mu_v += cfg.learning_rate * grad.mu_v
        params.log_s_v += cfg.learning_rate * grad.log_s_v
        trace.append(elbo_value_with_noise(params, data, hp, monitor, buffers))
    return params, trace


@pytest.mark.parametrize("data, k", [(SMALL, 3), (LARGE, 10)], ids=["caller", "worker"])
def test_vi_train_matches_serial_reference(data, k, frequent_switches):
    hp = ModelHyperparams(k, 0.25)
    cfg = ViConfig(learning_rate=0.05, epochs=20, mc_samples=2, seed=5)
    params, trace = vi_train(data, hp, cfg)
    expected, expected_trace = serial_vi_train(data, hp, cfg)
    assert np.array_equal(trace, expected_trace)
    for name in ("mu_u", "log_s_u", "mu_v", "log_s_v"):
        assert np.array_equal(getattr(params, name), getattr(expected, name))


def test_vi_predict_batch_matches_serial_reference(frequent_switches):
    params = init_params(LARGE.n_users, LARGE.n_items, 20, ViConfig(seed=3))
    ii, jj = LARGE.user_idx, LARGE.item_idx
    rng = np.random.default_rng(0)
    mean = PosteriorMean(ii, jj)
    for _ in range(PREDICT_SAMPLES):
        [(eps_u, eps_v)] = draw_noise(params, 1, rng)
        mean.add(LatentState(params.mu_u + np.exp(params.log_s_u) * eps_u,
                             params.mu_v + np.exp(params.log_s_v) * eps_v))
    assert np.array_equal(vi_predict_batch(params, ii, jj, LARGE.scale), mean.ratings(LARGE.scale))
