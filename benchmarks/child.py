"""Child processes of the benchmark; ``run.py`` times each from outside.

    python child.py setup RATINGS_CSV
        import bpmf, then load, remap and split the file as ``bpmf run``
        does; prints the three split sizes as JSON.
    python child.py traced SPANS_JSON BPMF_ARGS...
        ``bpmf`` with the public functions wrapped (see spans.py); writes
        the spans, the counters and the import time to SPANS_JSON and
        exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time


def setup(path: str) -> int:
    from bpmf.data import build_dataset, load_ratings, split_dataset

    raw, scale = load_ratings(path)
    data, maps = build_dataset(raw, scale)
    split = split_dataset(data, maps=maps)
    print(json.dumps({
        "n_train": split.train.n_ratings,
        "n_val": split.validation.n_ratings,
        "n_test": split.test.n_ratings,
    }))
    return 0


def traced(spans_path: str, argv: list) -> int:
    start = time.perf_counter()
    import bpmf.cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = bpmf.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({
            "import_s": import_s,
            "spans": tracer.spans,
            "counters": tracer.counters,
            "absent": tracer.absent,
        }, fh)
    return code


if __name__ == "__main__":
    mode, target, *rest = sys.argv[1:]
    sys.exit(setup(target) if mode == "setup" else traced(target, rest))
