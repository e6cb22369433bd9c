"""Output digests: each engine's outputs and the data layer's arrays, pinned bit for bit.

Every case hashes what a run produces (``trace.csv``, the held-out
predictions' bytes, ``repr`` of both RMSEs) or what the data layer returns
(``load_ratings`` and ``build_dataset`` arrays, ID arrays included) and
compares the sha256 with ``tests/golden.json``. A change that keeps outputs
bit-identical passes unchanged; one that moves numbers on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says which digests moved and why; ``--regenerate`` prints, per case,
the digests that differ from the file it replaces. The digests hold for the
numpy and scipy versions recorded in the file, and for the float64 ``exp``
kernel numpy dispatched (on x86, X86_V4, X86_V3 or a baseline one, picked by
the CPU): the sigmoid's last bits follow that kernel. Under another version
or kernel the test fails and names both, since either may move the last bits.
"""

from __future__ import annotations

import codecs
import hashlib
import json
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

GOLDEN = Path(__file__).resolve().parent / "golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --regenerate"
K = 10

# file name -> write_ratings_csv arguments (users, items, ratings, seed)
ENGINE_FILES = {"small": (60, 120, 2_000, 11), "large": (600, 1_400, 5_000, 12)}
# case -> (file, engine, config); "mcmc-rowwise-worker" is the rowwise chain on the large file
ENGINE_CASES = {
    "vi": ("small", "vi", ViConfig(epochs=100)),
    "mf": ("small", "mf", MfConfig(alpha=0.01, epochs=100)),
    "mcmc-rowwise": ("small", "mcmc", McmcConfig(n_steps=400)),
    "mcmc-joint": ("small", "mcmc", McmcConfig(n_steps=400, proposal="joint", proposal_std=0.01)),
    "mcmc-rowwise-worker": ("large", "mcmc", McmcConfig(n_steps=30)),
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
    # IDs spread far wider than their count: the packed-key remap
    "sparse-ids": "\n".join(
        [HEADER, *(f"{u},{m},{r},0" for u, m, r in [
            (900_000_000_000, 17, 3), (5, 4_000_000_000, 4), (70_000_000, 17, 1),
            (5, 17, 5), (900_000_000_000, 250_000, 2), (70_000_000, 4_000_000_000, 4)]), ""]).encode(),
    # IDs at both ends of int64: too wide to pack, the stable argsort remap
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
    return {"numpy": np.__version__, "scipy": scipy.__version__, "numpy_exp_kernel": exp_kernel()}


def all_digests(directory: Path) -> dict:
    return {
        **{case: engine_digests(case, directory) for case in ENGINE_CASES},
        **{case: data_digests(case, directory) for case in DATA_FILES},
    }


def recorded_digests() -> dict:
    """The digests in golden.json; fails, naming each entry that differs, when
    the file was made under other library versions or another exp kernel."""
    recorded = json.loads(GOLDEN.read_text())
    made_with, here = recorded["versions"], versions()
    if made_with != here:
        moved = "; ".join(f"{name} {made_with.get(name)} in the file, {here.get(name)} here"
                          for name in sorted({*made_with, *here})
                          if made_with.get(name) != here.get(name))
        pytest.fail(f"tests/golden.json was made elsewhere: {moved}; "
                    f"check the change, then regenerate with: {REGENERATE}")
    return recorded["digests"]


@pytest.fixture(scope="module")
def golden():
    return recorded_digests()


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def test_cases_are_all_recorded(golden):
    assert sorted(golden) == sorted([*ENGINE_CASES, *DATA_FILES])


def test_another_exp_kernel_fails_naming_both(monkeypatch):
    made_with = json.loads(GOLDEN.read_text())["versions"]["numpy_exp_kernel"]
    monkeypatch.setitem(globals(), "exp_kernel", lambda: "another-kernel")
    with pytest.raises(pytest.fail.Exception,
                       match=f"numpy_exp_kernel {made_with} in the file, another-kernel here"):
        recorded_digests()


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_engine_outputs_match(case, golden, directory):
    assert engine_digests(case, directory) == golden[case]


@pytest.mark.parametrize("case", DATA_FILES)
def test_data_arrays_match(case, golden, directory):
    assert data_digests(case, directory) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    replaced = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"versions": versions(), "regenerate": REGENERATE,
                   "digests": all_digests(Path(tmp))}
    if replaced.get("versions") != payload["versions"]:
        print(f"versions: {replaced.get('versions')} -> {payload['versions']}")
    for case, digests in payload["digests"].items():
        old = replaced.get("digests", {}).get(case, {})
        changed = [name for name, digest in digests.items() if old.get(name) != digest]
        print(f"{case}: {'changed ' + ', '.join(changed) if changed else 'unchanged'}")
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
