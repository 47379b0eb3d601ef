"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --instance K \\
        --trace 0|1 [--spans PATH]

Imports hophase from the checkout's `src/`, builds the inputs of instance
K of seed N (see `workloads.instance_seed`), runs the operation once with
its output checks, and prints one JSON object: the monotonic time at
which the first call was ready, the operation's wall time, that time at
the reference speed of `speed.py`, the scale of the set-up time to that
speed, the per-operation verdicts, the key outputs, the peak resident
memory and the environment; with --trace 1 also the per-layer metrics.
`run.py` starts one of these per repetition, so every repetition pays
the cold caches a fresh user script pays.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from run import BLAS_THREAD_VARS, ROOT

SRC = ROOT / "src"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import hophase as hp

    if Path(hp.__file__).resolve().parent != SRC / "hophase":
        sys.exit(f"hophase imported from {hp.__file__}, not from {SRC}")
    import spans
    import workloads
    from speed import SpeedProbe

    w = hp.make_quartic()
    tracer = None
    paused = contextlib.nullcontext
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(hp)
        w = tracer.potential(hp, w)
        paused = tracer.paused
    seed = workloads.instance_seed(args.seed, args.instance)
    op = workloads.WORKLOADS[args.workload](seed, w, paused)
    cache = getattr(hp.grids, "_OPERATOR_CACHE", None)
    cache_cold = None if cache is None else not cache
    ready = time.monotonic()

    errors = []
    if tracer:
        tracer.enabled = True
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        oks, outputs = op(errors)
        wall = time.perf_counter() - t0
    if tracer:
        tracer.enabled = False

    result = {
        "ready": ready,
        "wall_s": wall,
        "norm_wall_s": probe.normalized(wall),
        "setup_scale": probe.entry_scale,
        "speed_samples": len(probe.samples),
        "oks": [bool(ok) for ok in oks],
        "outputs": {k: float(v) for k, v in outputs.items()},
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "operator_cache_cold": cache_cold,
        },
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
