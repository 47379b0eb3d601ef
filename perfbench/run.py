"""The hophase benchmark.

    python3 perfbench/run.py --workload critical|sweep|profile|ensemble \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's operation is repeated,
each repetition in a fresh interpreter started by this script (see
`rep.py`), until about S seconds have passed and at least MIN_REPS
repetitions have run (untraced, one more than the run's instances, so
that instance 0 runs twice).  Load is closed-loop with one client: one
process, no worker threads, BLAS pinned to one thread.

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json: `norm_wall_s` (see `median_of_instances`) and `setup_s`
are medians over repetitions of times at the reference speed of
`speed.py`.  With --trace 1, untraced and traced repetitions alternate
and the result carries the per-layer metrics, taken from the traced
ones, plus `trace.overhead_s`.  Earlier lines of standard output give
every metric with its unit, the failure ratio, the raw times, the key
outputs and the environment; the last line is the JSON result.  The
script exits non-zero without a result when a repetition cannot run.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 3
#: instances per run: a run of seed S measures instance 0 (built from S)
#: and instances built from seeds derived from S, one per repetition in
#: turn.  The work of `critical` and `profile` moves with the seed (one
#: n = 3 profile solve took 1.2 s for one lambda and 2.9-3.9 s for
#: another), so their runs take the median over three instances.
INSTANCES = {"critical": 3, "profile": 3}
DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class RepFailed(RuntimeError):
    pass


def git_commit(root):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_rep(workload, seed, instance, traced, spans_path, timeout):
    env = dict(os.environ, **{k: "1" for k in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--instance", str(instance),
           "--trace", str(int(traced)), "--spans", spans_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepFailed(proc.stderr.strip()[-4000:] or f"exit {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["raw_setup_s"] = rep["ready"] - spawned
    rep["setup_s"] = rep["raw_setup_s"] * rep["setup_scale"]
    rep["traced"] = traced
    rep["instance"] = instance
    return rep


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than 20 samples."""
    k = len(values)
    if k < 20:
        return None
    pct = math.floor(100 * (1 - 10 / k))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median_of_instances(reps):
    """Median over instances of each instance's median `norm_wall_s`: one
    instance whose work is far from the others' does not move it, however
    often it ran."""
    by_instance = {}
    for r in reps:
        by_instance.setdefault(r["instance"], []).append(r["norm_wall_s"])
    return statistics.median(statistics.median(v) for v in by_instance.values())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="any integer; reduced mod 2**32 for numpy's generators")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "hophase" / "__init__.py").is_file():
        print(f"no hophase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    reps = []
    cycle = INSTANCES.get(args.workload, 1)
    # untraced, instance 0 must recur; traced, each instance runs twice
    min_reps = MIN_REPS if args.trace else max(MIN_REPS, cycle + 1)
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            # a traced repetition runs the instance of the untraced one before it
            instance = (len(reps) // 2 if args.trace else len(reps)) % cycle
            spans_path = (
                str(OUT / f"spans-{args.workload}-{len(reps)}.json") if traced else ""
            )
            timeout = DEADLINE_S - (time.monotonic() - start)
            reps.append(run_rep(args.workload, args.seed % 2**32, instance,
                                traced, spans_path, timeout))
            elapsed = time.monotonic() - start
            last = reps[-1]["raw_setup_s"] + reps[-1]["wall_s"]
            if len(reps) >= min_reps and elapsed + last > args.seconds:
                break
            if elapsed + 1.5 * last > DEADLINE_S:
                break
    except RepFailed as exc:
        print(f"{args.workload}: repetition {len(reps)} failed:\n{exc}", file=sys.stderr)
        return 1

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    oks = [ok for r in reps for ok in r["oks"]]
    attempted, failed = len(oks), oks.count(False)
    errors = [e for r in reps for e in r["errors"]]
    outputs = {}
    for r in reps:
        outputs.setdefault(r["instance"], r["outputs"])
    # one seed gives one set of inputs per instance: every repetition of an
    # instance must agree exactly
    reproducible = all(r["outputs"] == outputs[r["instance"]] for r in reps)
    finite = all(math.isfinite(v) for out in outputs.values() for v in out.values())
    correct = bool(attempted) and not errors and reproducible and finite

    walls = [r["wall_s"] for r in plain]
    plain_oks = [ok for r in plain for ok in r["oks"]]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {
            k: statistics.median(r["layers"][k] for r in traced)
            for k in traced[0]["layers"]
        }
        values["trace.overhead_s"] = (
            median_of_instances(traced) - median_of_instances(plain)
        )
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "norm_wall_s": median_of_instances(plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "ok_ratio": plain_oks.count(True) / len(plain_oks),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
    if set(values) != set(names):
        print(f"metrics {sorted(set(values) ^ set(names))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3

    env = dict(reps[0]["env"])
    colds = {r["env"]["operator_cache_cold"] for r in reps}
    env["operator_cache_cold"] = colds.pop() if len(colds) == 1 else False
    env.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(ROOT))
    wall_tail = tail(walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced  "
          f"instances {len(outputs)}  "
          f"elapsed {time.monotonic() - start:.1f} s")
    for name in names:
        print(f"  {name:42s} {values[name]:.6g} {units[name]}")
    print(f"  {'fail_ratio':42s} {failed / attempted:.6g} 1  ({failed} of {attempted})")
    print(f"  {'ops_per_s':42s} {len(plain_oks) / sum(walls):.6g} 1/s")
    print(f"  {'wall_s.median':42s} {statistics.median(walls):.6g} s  "
          f"({len(walls)} repetitions)")
    print(f"  {'wall_s.fastest':42s} {min(walls):.6g} s")
    print(f"  {'setup_s.raw_median':42s} "
          f"{statistics.median(r['raw_setup_s'] for r in plain):.6g} s")
    print(f"  {'wall_s.tail':42s} " + (
        f"p{wall_tail[0]} {wall_tail[1]:.6g} s" if wall_tail
        else f"none: {len(walls)} samples, need 20"))
    for k, out in sorted(outputs.items()):
        for key, value in out.items():
            name = f"output.{key}" + (f".i{k}" if k else "")
            print(f"  {name:42s} {value!r}")
    for e in sorted(set(errors)):
        print(f"  error: {e}")
    print(json.dumps({"env": env, "walls_s": walls,
                      "norm_walls_s": [r["norm_wall_s"] for r in plain],
                      "speed_samples": [r["speed_samples"] for r in plain],
                      "setups_s": [r["setup_s"] for r in plain],
                      "raw_setups_s": [r["raw_setup_s"] for r in plain],
                      "reproducible": reproducible}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
