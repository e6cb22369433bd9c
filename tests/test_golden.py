"""Output digests: each engine's outputs and the data layer's arrays, pinned bit for bit.

Every case hashes what a run produces (``trace.csv``, the held-out
predictions' bytes, ``repr`` of both RMSEs) or what the data layer returns
(``load_ratings`` and ``build_dataset`` arrays, ID arrays included) and
compares the sha256 with ``tests/golden.json``. A change that keeps outputs
bit-identical passes unchanged; one that moves numbers on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says which digests moved and why. The sigmoid's last bits follow the
float64 ``exp`` kernel numpy dispatches (on x86, X86_V4, X86_V3 or a
baseline one, picked by the CPU), so ``--regenerate`` computes the digests
in one child interpreter per entry of ``KERNEL_FAMILIES``. A digest on which
every kernel agrees goes in the shared set; the others are recorded per
kernel, and the script prints which cases differ between kernels and, per
case, the digests that differ from the file it replaces. Under a kernel the
file does not record, the cases with per-kernel digests fail and name the
kernels; under other numpy or scipy versions every case fails, since
either may move the last bits.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from bpmf import evaluate
from bpmf.baseline import MfConfig
from bpmf.data import build_dataset, load_ratings
from bpmf.evaluate import ExperimentConfig, run_experiment
from bpmf.mcmc import McmcConfig
from bpmf.synthetic import write_ratings_csv
from bpmf.vi import ViConfig

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --regenerate"
K = 10
# NPY_DISABLE_CPU_FEATURES of each --regenerate child: on an x86 CPU with AVX-512,
# numpy then dispatches the X86_V4, X86_V3 and baseline exp kernels
KERNEL_FAMILIES = ("", "X86_V4", "X86_V4 X86_V3")

# file name -> write_ratings_csv arguments (users, items, ratings, seed)
ENGINE_FILES = {"small": (60, 120, 2_000, 11), "large": (600, 1_400, 5_000, 12)}
# case -> (file, engine, config)
ENGINE_CASES = {
    "vi": ("small", "vi", ViConfig(epochs=100)),
    "mf": ("small", "mf", MfConfig(alpha=0.01, epochs=100)),
    "mcmc-rowwise": ("small", "mcmc", McmcConfig(n_steps=400)),
    "mcmc-joint": ("small", "mcmc", McmcConfig(n_steps=400, proposal="joint", proposal_std=0.01)),
    "mcmc-rowwise-large": ("large", "mcmc", McmcConfig(n_steps=30)),
}

HEADER = "userId,movieId,rating,timestamp"
# case -> file bytes; each takes a different parse or remap path
DATA_FILES = {
    # columnar parse of a path, BOM stripped, CRLF line ends; dense IDs (lookup table)
    "bom-crlf": codecs.BOM_UTF8 + "\r\n".join(
        [HEADER, "3,10,4.5,0", "1,10,2,0", "3,7,0.5,0", "2,8,5,0", "1,7,3.5,0", ""]).encode(),
    # a quoted field sends the file to the csv row loop
    "quoted-row-loop": "\n".join(
        [HEADER, '"5",2,4,0', "9,2,1,0", "5,4,3,0", "7,4,2,0", "9,6,5,0", ""]).encode(),
    # IDs spread far wider than their count: the stable-sort remap
    "sparse-ids": "\n".join(
        [HEADER, *(f"{u},{m},{r},0" for u, m, r in [
            (900_000_000_000, 17, 3), (5, 4_000_000_000, 4), (70_000_000, 17, 1),
            (5, 17, 5), (900_000_000_000, 250_000, 2), (70_000_000, 4_000_000_000, 4)]), ""]).encode(),
    # IDs at both ends of int64: the stable-sort remap with a span past int64
    "int64-edge-ids": "\n".join(
        [HEADER, *(f"{u},{m},{r},0" for u, m, r in [
            (2**63 - 1, -(2**63), 3), (-(2**63), 0, 2), (0, 2**63 - 1, 5),
            (2**63 - 1, 0, 1)]), ""]).encode(),
}


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def sha256_text(text) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def engine_digests(case: str, directory: Path) -> dict:
    name, engine, config = ENGINE_CASES[case]
    n_users, n_items, n_ratings, seed = ENGINE_FILES[name]
    path = directory / f"{name}.csv"
    if not path.exists():
        write_ratings_csv(path, n_users, n_items, n_ratings, seed=seed)
    predictions = []
    real = evaluate.predict_all

    def spy(*args, **kwargs):
        preds, cold = real(*args, **kwargs)
        predictions.append(preds)
        return preds, cold

    out = directory / case
    with mock.patch.object(evaluate, "predict_all", spy):
        report = run_experiment(ExperimentConfig(engine=engine, data_path=str(path),
                                                 output_dir=str(out), k=K, engine_config=config))
    (preds,) = predictions
    return {
        "trace.csv": sha256_text((out / "trace.csv").read_bytes()),
        "predictions": sha256_arrays(preds),
        "rmse": sha256_text(repr((report.rmse_validation, report.rmse_test))),
    }


def data_digests(case: str, directory: Path) -> dict:
    path = directory / f"{case}.csv"
    path.write_bytes(DATA_FILES[case])
    raw, scale = load_ratings(path)
    data, id_arrays = build_dataset(raw, scale)
    return {
        "load_ratings": sha256_arrays(*raw) + " " + repr(scale),
        "build_dataset": sha256_arrays(data.user_idx, data.item_idx, data.rating, *id_arrays)
        + f" {data.n_users}x{data.n_items} {data.scale!r}",
    }


def exp_kernel() -> str:
    """The float64 ``exp`` kernel numpy dispatches on this machine, or "unknown"
    under a numpy without ``numpy.lib.introspect.opt_func_info``."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    (kernel,) = opt_func_info(func_name="^exp$", signature="float64")["exp"].values()
    return kernel["current"]


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def all_digests(directory: Path) -> dict:
    return {
        **{case: engine_digests(case, directory) for case in ENGINE_CASES},
        **{case: data_digests(case, directory) for case in DATA_FILES},
    }


def child_digests(disabled: str) -> dict:
    """versions, exp kernel and all digests from a new interpreter run with
    ``NPY_DISABLE_CPU_FEATURES=disabled``."""
    result = subprocess.run(
        [sys.executable, __file__, "--digests"],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
                 PYTHONPATH=str(TESTS.parent / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def made_elsewhere(moved: str):
    pytest.fail(f"tests/golden.json was made elsewhere: {moved}; "
                f"check the change, then regenerate with: {REGENERATE}")


def recorded_digests() -> dict:
    """golden.json; fails, naming each version that differs, when the file was
    made under other numpy or scipy versions."""
    recorded = json.loads(GOLDEN.read_text())
    made_with, here = recorded["versions"], versions()
    if made_with != here:
        made_elsewhere("; ".join(f"{name} {made_with.get(name)} in the file, {here.get(name)} here"
                                 for name in sorted({*made_with, *here})
                                 if made_with.get(name) != here.get(name)))
    return recorded


def kernel_dependent(recorded: dict) -> set:
    """The cases with digests of their own under some kernel in ``recorded``."""
    return {case for digests in recorded.get("digests_by_exp_kernel", {}).values()
            for case in digests}


def expected_digests(recorded: dict, kernel: str) -> dict:
    """case -> the digests ``recorded`` holds for ``kernel``: the shared set with
    the kernel's own digests over it. A kernel-dependent case is left out when
    no digests are recorded for ``kernel``."""
    shared = recorded.get("digests", {})
    dependent = kernel_dependent(recorded)
    expected = {case: digests for case, digests in shared.items() if case not in dependent}
    for case, digests in recorded.get("digests_by_exp_kernel", {}).get(kernel, {}).items():
        expected[case] = {**shared.get(case, {}), **digests}
    return expected


def expected(recorded: dict, case: str, kernel: str) -> dict:
    digests = expected_digests(recorded, kernel).get(case)
    if digests is None:
        made_elsewhere(f"numpy_exp_kernel {', '.join(recorded['digests_by_exp_kernel'])} "
                       f"in the file, {kernel} here")
    return digests


def split_by_kernel(runs) -> tuple[dict, dict]:
    """The shared digests and each kernel's own, from the children's ``runs``. A
    digest is shared when at least two kernels ran and all of them agree on it."""
    by_kernel = {}
    for run in runs:
        kernel, digests = run["numpy_exp_kernel"], run["digests"]
        if by_kernel.setdefault(kernel, digests) != digests:
            sys.exit(f"two runs under numpy_exp_kernel {kernel} gave different digests")
    shared, own = {}, {kernel: {} for kernel in by_kernel}
    for case, digests in runs[0]["digests"].items():
        for name, digest in digests.items():
            if len(by_kernel) > 1 and all(d[case][name] == digest for d in by_kernel.values()):
                shared.setdefault(case, {})[name] = digest
            else:
                for kernel, d in by_kernel.items():
                    own[kernel].setdefault(case, {})[name] = d[case][name]
    return shared, own


@pytest.fixture(scope="module")
def golden():
    return recorded_digests()


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_cases_are_all_recorded(golden):
    for kernel in golden["digests_by_exp_kernel"]:
        assert sorted(expected_digests(golden, kernel)) == sorted([*ENGINE_CASES, *DATA_FILES])


def test_another_exp_kernel_fails_naming_both(golden):
    recorded = ", ".join(golden["digests_by_exp_kernel"])
    dependent = kernel_dependent(golden)
    assert dependent and {*ENGINE_CASES, *DATA_FILES} - dependent
    for case in [*ENGINE_CASES, *DATA_FILES]:
        if case in dependent:
            with pytest.raises(pytest.fail.Exception,
                               match=re.escape(f"numpy_exp_kernel {recorded} in the file, "
                                               "another-kernel here")):
                expected(golden, case, "another-kernel")
        else:
            assert expected(golden, case, "another-kernel") == golden["digests"][case]


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_engine_outputs_match(case, golden, directory):
    assert engine_digests(case, directory) == expected(golden, case, exp_kernel())


@pytest.mark.parametrize("case", DATA_FILES)
def test_data_arrays_match(case, golden, directory):
    assert data_digests(case, directory) == expected(golden, case, exp_kernel())


def test_outputs_match_without_avx512(golden):
    """The same comparison in a child whose numpy may not dispatch X86_V4 (it
    dispatches X86_V3 on an AVX-512 CPU), so a second kernel family is checked."""
    run = child_digests("X86_V4")
    kernel = run["numpy_exp_kernel"]
    assert run["digests"] == {case: expected(golden, case, kernel) for case in run["digests"]}


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps({"versions": versions(), "numpy_exp_kernel": exp_kernel(),
                              "digests": all_digests(Path(tmp))}))
        sys.exit()
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    replaced = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    runs = [child_digests(disabled) for disabled in KERNEL_FAMILIES]
    for disabled, run in zip(KERNEL_FAMILIES, runs):
        print(f"NPY_DISABLE_CPU_FEATURES={disabled!r}: numpy_exp_kernel {run['numpy_exp_kernel']}")
    shared, own = split_by_kernel(runs)
    payload = {"versions": runs[0]["versions"], "regenerate": REGENERATE,
               "digests": shared, "digests_by_exp_kernel": own}
    if replaced.get("versions") != payload["versions"]:
        print(f"versions: {replaced.get('versions')} -> {payload['versions']}")
    per_kernel = next(iter(own.values()))
    print("recorded per kernel: " + ("; ".join(f"{case} ({', '.join(digests)})"
                                              for case, digests in per_kernel.items()) or "none"))
    for case in runs[0]["digests"]:
        moved = {}
        for kernel in own:
            new = expected_digests(payload, kernel)[case]
            old = expected_digests(replaced, kernel).get(case, {})
            for name, digest in new.items():
                if old.get(name) != digest:
                    moved.setdefault(name, []).append(kernel)
        print(f"{case}: " + ("; ".join(f"changed {name} under {', '.join(kernels)}"
                                       for name, kernels in moved.items()) or "unchanged"))
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
