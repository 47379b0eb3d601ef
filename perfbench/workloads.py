"""Seeded inputs, the timed operation and its output checks for each
benchmark workload.

A workload's set-up function takes the seed, the potential and a
`paused()` context factory, builds every input from the seed, and returns
the operation.  Calling the operation runs the library calls once and
returns `(oks, outputs)`: one pass/fail verdict per checked operation and
the key numeric outputs, which must repeat bit for bit under one seed.
Checks that call into the library run inside `paused()`, so a traced run
does not count them as work of the layer under test.
"""

import math

import numpy as np

import hophase as hp

#: polynomial-stage values of lambda_hat_n measured at the seed commit;
#: pinned as inputs so that no workload has to estimate them first
LAMBDA_REF = {2: 0.0569362, 3: 0.000806883}

#: L-BFGS iteration cap per start for `critical`.  The library default of
#: 3000 makes one estimate take about 38 s on a 2-core machine, longer than
#: one benchmark run may last; 300 keeps the same multistart, polynomial
#: stage and Newton polish at about 3.6 s per estimate.
CRITICAL_MAXITER = 300
CRITICAL_BAND = (0.0560, 0.0580)

SWEEP_EPS = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
SWEEP_JUMPS = (-4.0 / 3.0, 4.0 / 3.0)

PROFILE_T = 10.0
PROFILE_POINTS = 2001
TANH_WIDTHS = tuple(0.75 + 0.25 * i for i in range(8))  # 0.75 ... 2.5

ENSEMBLE_SIZES = (501, 4097, 16385)
ENSEMBLE_FIELDS_PER_SIZE = 48
ENSEMBLE_CHECKED = 384


def instance_seed(seed, k):
    """Seed of a run's instance k: the run's own seed for k = 0, a seed
    derived from it otherwise."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _parts(errors, parts):
    """Run the (count, fn) parts of an operation in order and merge their
    verdicts and outputs.  A part that raises is recorded in errors and
    fails all `count` of its operations; it never aborts the run."""
    oks, outputs = [], {}
    for count, fn in parts:
        try:
            o, out = fn()
        except Exception as exc:  # a failed operation is counted, never fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            o, out = [False] * count, {}
        oks += o
        outputs.update(out)
    return oks, outputs


def critical(seed, w, paused):
    opts = hp.LambdaOptions(seed=seed, maxiter=CRITICAL_MAXITER)

    def run():
        est = hp.estimate_lambda_n(2, w, opts)
        with paused():
            q = hp.quotient(est.witness, 2, w).value
        ok = (
            CRITICAL_BAND[0] < est.value < CRITICAL_BAND[1]
            and abs(q - est.value) <= 1e-9 * abs(est.value)
        )
        return [ok], {"lambda_hat": est.value}

    def op(errors):
        return _parts(errors, [(1, run)])

    return op


def sweep(seed, w, paused):
    # one common shift keeps eps * T < delta0 / 2 for every eps
    shift = float(np.random.default_rng(seed).uniform(-0.05, 0.05))
    lam_hat = LAMBDA_REF[2]
    cfg = hp.SweepConfig(
        n=2,
        lam=0.3 * lam_hat,
        potential=w.name,
        jumps=tuple(s + shift for s in SWEEP_JUMPS),
        eps_schedule=SWEEP_EPS,
        points_per_eps_width=32,
        lambda_hat=lam_hat,
    )

    def run():
        rec = hp.gamma_sweep(cfg, threads=1)
        target = len(SWEEP_JUMPS) * rec.c_hat_lam
        oks = []
        for row in rec.rows:
            ok = (
                row.converged
                and row.jumps_detected == len(SWEEP_JUMPS)
                and row.e_min <= row.e_recovery
            )
            if row.epsilon == SWEEP_EPS[-1]:
                ok = ok and abs(row.e_recovery - target) <= 0.05 * target
            oks.append(ok)
        return oks, {"e_min": rec.rows[-1].e_min}

    def op(errors):
        return _parts(errors, [(len(SWEEP_EPS), run)])

    return op


def tanh_bound(problem, w):
    """Energy of the best unclamped tanh(x/s) on the problem's grid: an
    upper bound that any converged profile must reach."""
    grid = problem.grid
    x = grid.nodes()
    params = hp.EnergyParams(problem.n, 1.0, problem.lam)
    return min(
        hp.evaluate(hp.Field(grid, np.tanh(x / s)), params, w).total
        for s in TANH_WIDTHS
    )


def profile(seed, w, paused):
    rng = np.random.default_rng(seed)
    lams = {
        2: float(rng.uniform(0.0, 0.3)) * LAMBDA_REF[2],
        3: float(rng.uniform(0.0, 0.3)) * LAMBDA_REF[3],
        4: 0.0,
    }
    problems = [
        hp.ProfileProblem(n, lam, PROFILE_T, PROFILE_POINTS, w)
        for n, lam in lams.items()
    ]

    def run_one(problem):
        res = hp.minimize_profile(problem)
        with paused():
            bound = tanh_bound(problem, w)
        ok = res.converged and res.energy_estimate <= bound
        return [ok], {f"c_hat.n{problem.n}": res.energy_estimate}

    def op(errors):
        return _parts(errors, [(1, lambda p=p: run_one(p)) for p in problems])

    return op


def ensemble(seed, w, paused):
    fields = [
        f
        for num_points in ENSEMBLE_SIZES
        for f in hp.make_ensemble(
            hp.Grid(0.0, 1.0, num_points), ENSEMBLE_FIELDS_PER_SIZE, seed
        )
    ]
    params = [hp.EnergyParams(n, 0.05, 0.01) for n in (2, 3)]
    m = ENSEMBLE_CHECKED

    def evaluate_all(errors):
        oks, total = [], 0.0
        for f in fields:
            ok = True
            try:
                for p in params:
                    e = hp.evaluate(f, p, w).total
                    g = hp.gradient(f, p, w).values
                    ok = ok and math.isfinite(e) and bool(np.all(np.isfinite(g)))
                    total += e
            except Exception as exc:  # a failed field is counted, never fatal
                errors.append(f"{type(exc).__name__}: {exc}")
                ok = False
            oks.append(ok)
        return oks, {"energy_sum": total}

    def subcritical(n):
        rep = hp.verify_subcritical(n, 0.5 * LAMBDA_REF[n], m, w, seed=seed)
        bad = {v["index"] for v in rep.violations}
        return [i not in bad for i in range(m)], {
            f"min_quotient.n{n}": rep.min_quotient
        }

    def intlem():
        rep = hp.ensemble_check(
            lambda f: hp.check_intlem(f, 2.0, 2.0, 2.0),
            which="intlem(2,2,2)",
            count=m,
            seed=seed,
            keep_reports=True,
        )
        return [r.passed for r in rep.reports], {"intlem.worst_ratio": rep.worst_ratio}

    def op(errors):
        return _parts(errors, [
            (len(fields), lambda: evaluate_all(errors)),
            (m, lambda: subcritical(2)),
            (m, lambda: subcritical(3)),
            (m, intlem),
        ])

    return op


WORKLOADS = {
    "critical": critical,
    "sweep": sweep,
    "profile": profile,
    "ensemble": ensemble,
}
