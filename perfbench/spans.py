"""Span tracing of hophase from outside the package.

`Tracer.install` replaces each public entry point listed in `TARGETS` by a
wrapper in every hophase module that binds it, so calls between modules
are recorded as well as calls from the benchmark.  A span is
`[name, start, end, parent, attrs]`; spans stay in memory and are written
out once, after the timed operation.  A span's self time is its duration
minus the durations of its children: calls run on one thread and nest, so
children never overlap.
"""

import contextlib
import dataclasses
import functools
import inspect
import json
import statistics
import sys
import time

import numpy as np
import scipy.optimize


def _grid_size(bound, result):
    return {"N": bound.arguments["u"].grid.num_points}


def _lbfgs_attrs(bound, result):
    info = result[1]
    maxiter = bound.arguments.get("maxiter")
    return {
        "iterations": info.iterations,
        "maxiter_hit": maxiter is not None
        and not info.diverged
        and info.iterations >= maxiter,
    }


def _scipy_minimize_attrs(bound, res):
    options = bound.arguments.get("options") or {}
    maxiter = options.get("maxiter")
    return {
        "size": int(np.size(bound.arguments["x0"])),
        "iterations": int(res.nit),
        "maxiter_hit": maxiter is not None and res.nit >= maxiter,
    }


def _estimate_attrs(bound, est):
    return {
        "value": est.value,
        "num_points": est.witness.grid.num_points,
        "num_starts": est.diagnostics.get("num_starts", 0),
        "final_gradient_norm": est.diagnostics.get("final_gradient_norm", 0.0),
    }


def _profile_attrs(bound, res):
    return {
        "n": bound.arguments["problem"].n,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm_final,
        "energy": res.energy_estimate,
    }


#: (module, function, span name, attrs): attrs maps the bound arguments and
#: the result to the span's attributes; "operator" marks cache misses
TARGETS = [
    ("grids", "diff_operator", "grids.diff_operator", "operator"),
    ("energy", "evaluate", "energy.evaluate", _grid_size),
    ("energy", "gradient", "energy.gradient", _grid_size),
    ("ensembles", "random_field", "ensembles.random_field", None),
    ("hermite", "solve_zeta", "hermite.solve_zeta", None),
    ("_solvers", "lbfgs", "solvers.lbfgs", _lbfgs_attrs),
    ("_solvers", "damped_newton", "solvers.newton",
     lambda b, r: {"iterations": r[1].newton_iterations,
                   "converged": r[1].converged}),
    ("critical", "estimate_lambda_n", "critical.estimate_lambda_n", _estimate_attrs),
    ("critical", "quotient", "critical.quotient", None),
    ("critical", "subdivided_quotient", "critical.subdivided_quotient", None),
    ("profiles", "minimize_profile", "profiles.minimize_profile", _profile_attrs),
    ("profiles", "build_recovery", "profiles.build_recovery", None),
    ("experiments", "minimize_energy", "experiments.minimize_energy", None),
    ("experiments", "count_jump_clusters", "experiments.count_jump_clusters", None),
    ("experiments", "gamma_sweep", "experiments.gamma_sweep",
     lambda b, r: {"e_min": r.rows[-1].e_min}),
    ("inequalities", "check_intlem", "inequalities.check_intlem", None),
    ("inequalities", "check_nirineq", "inequalities.check_nirineq", None),
    ("inequalities", "check_gagnir_interval", "inequalities.check_gagnir_interval", None),
    ("inequalities", "check_abstr", "inequalities.check_abstr", None),
    ("inequalities", "check_lower_bound_lemma", "inequalities.check_lower_bound_lemma", None),
    ("inequalities", "ensemble_check", "inequalities.ensemble_check", None),
]

#: the grid sizes whose per-call energy times are reported
PER_CALL_SIZES = (501, 4097, 16385)
#: the profile orders whose results are reported
PROFILE_ORDERS = (2, 3, 4)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False
        self._operators = []  # every DiffOperator returned so far

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call while tracing is enabled;
        attrs, if given, maps the bound arguments and the result to the
        span's attributes."""
        sig = inspect.signature(fn) if attrs is not None else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = attrs(bound, out)
            return out

        return wrapper

    def _operator_attrs(self, bound, op):
        """A miss is a call that returns an operator not returned before."""
        miss = not any(op is seen for seen in self._operators)
        if miss:
            self._operators.append(op)
        return {"miss": miss}

    def install(self, hp):
        """Wrap every target in each hophase module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == hp.__name__ or k.startswith(hp.__name__ + ".")]
        for mod_name, fn_name, span_name, attrs in TARGETS:
            original = getattr(getattr(hp, mod_name), fn_name)
            if attrs == "operator":
                attrs = self._operator_attrs
            wrapped = self.wrap(span_name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # the grid multistart of `critical` calls scipy's minimize directly
        for key, value in list(vars(hp.critical).items()):
            if value is scipy.optimize.minimize:
                setattr(hp.critical, key, self.wrap(
                    "critical.scipy_minimize", value, _scipy_minimize_attrs))

    def potential(self, hp, w):
        """A copy of w whose W, W' and W'' are traced, also registered as the
        built-in potential of its name so that configs by name use it."""
        traced = dataclasses.replace(
            w,
            eval=self.wrap("potentials.W", w.eval),
            eval_derivative=self.wrap("potentials.dW", w.eval_derivative),
            eval_second_derivative=(
                None if w.eval_second_derivative is None
                else self.wrap("potentials.d2W", w.eval_second_derivative)
            ),
        )
        hp.BUILTIN_POTENTIALS[w.name] = lambda: traced
        return traced

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh, default=float)

    def layer_metrics(self):
        return layer_metrics(self.spans)


def layer_metrics(spans):
    """The per-layer metrics of one traced operation, every one present
    (0 where the layer did no work)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    lbfgs = [-1] * len(spans)  # innermost enclosing solvers.lbfgs span
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            lbfgs[i] = lbfgs[parent]
        if name == "solvers.lbfgs":
            lbfgs[i] = i
    self_s = [d - c for d, c in zip(dur, child)]
    # a call that raised has no attributes
    attrs = [s[4] or {} for s in spans]

    def ids(prefix):
        return [i for i, s in enumerate(spans) if s[0].startswith(prefix)]

    def calls(prefix):
        return len(ids(prefix))

    def self_time(prefix):
        return sum(self_s[i] for i in ids(prefix))

    def attr_sum(prefix, key):
        return sum(attrs[i].get(key, 0) for i in ids(prefix))

    m = {}
    ops = ids("grids.diff_operator")
    misses = [i for i in ops if attrs[i].get("miss")]
    m["grids.diff_operator.calls"] = len(ops)
    m["grids.diff_operator.misses"] = len(misses)
    m["grids.diff_operator.build_s"] = sum(dur[i] for i in misses)

    m["potentials.calls"] = calls("potentials.")
    m["potentials.self_s"] = self_time("potentials.")

    for fn in ("evaluate", "gradient"):
        name = f"energy.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_time(name)
        for size in PER_CALL_SIZES:
            durs = [dur[i] for i in ids(name) if attrs[i].get("N") == size]
            m[f"{name}.us.N{size}"] = 1e6 * statistics.median(durs) if durs else 0
    # evaluations per iteration of the L-BFGS runs that call energy.evaluate
    evals_in = [lbfgs[i] for i in ids("energy.evaluate") if lbfgs[i] >= 0]
    iters = sum(attrs[i].get("iterations", 0) for i in set(evals_in))
    m["energy.evaluate.per_lbfgs_iter"] = len(evals_in) / iters if iters else 0

    m["solvers.lbfgs.calls"] = calls("solvers.lbfgs")
    m["solvers.lbfgs.iterations"] = attr_sum("solvers.lbfgs", "iterations")
    m["solvers.lbfgs.maxiter_hits"] = attr_sum("solvers.lbfgs", "maxiter_hit")
    m["solvers.lbfgs.self_s"] = self_time("solvers.lbfgs")
    m["solvers.newton.calls"] = calls("solvers.newton")
    m["solvers.newton.iterations"] = attr_sum("solvers.newton", "iterations")
    m["solvers.newton.converged"] = attr_sum("solvers.newton", "converged")
    m["solvers.newton.self_s"] = self_time("solvers.newton")

    # phases of estimate_lambda_n, read from the calls it makes into scipy:
    # grid starts minimize over all grid values, the polynomial stage over
    # coefficients; the Newton polish is what follows the last grid start
    estimates = ids("critical.estimate_lambda_n")
    grid_runs, poly_runs, polish = [], [], 0.0
    for e in estimates:
        kids = [i for i in ids("critical.scipy_minimize") if spans[i][3] == e]
        size = attrs[e].get("num_points")
        grid_runs += [i for i in kids if attrs[i].get("size") == size]
        poly_runs += [i for i in kids if attrs[i].get("size") != size]
        polish += spans[e][2] - max((spans[i][2] for i in kids), default=spans[e][1])
    gnorm = attr_sum("critical.estimate_lambda_n", "final_gradient_norm")
    m["critical.starts"] = attr_sum("critical.estimate_lambda_n", "num_starts")
    m["critical.lbfgs.iterations"] = sum(attrs[i].get("iterations", 0) for i in grid_runs)
    m["critical.lbfgs.maxiter_hits"] = sum(attrs[i].get("maxiter_hit", 0) for i in grid_runs)
    m["critical.lbfgs_s"] = sum(dur[i] for i in grid_runs)
    m["critical.poly_stage_s"] = sum(dur[i] for i in poly_runs)
    m["critical.polish_s"] = polish
    # NaN (no polished start improved the best) is reported as 0
    m["critical.polish_gradient_norm"] = gnorm if np.isfinite(gnorm) else 0
    m["critical.lambda_hat"] = attr_sum("critical.estimate_lambda_n", "value")
    for fn in ("quotient", "subdivided_quotient"):
        m[f"critical.{fn}.calls"] = calls(f"critical.{fn}")
        m[f"critical.{fn}.self_s"] = self_time(f"critical.{fn}")

    m["profiles.minimize_profile.calls"] = calls("profiles.minimize_profile")
    m["profiles.minimize_profile.self_s"] = self_time("profiles.minimize_profile")
    last = {attrs[i].get("n"): attrs[i] for i in ids("profiles.minimize_profile")}
    for n in PROFILE_ORDERS:
        res = last.get(n, {})
        m[f"profiles.iterations.n{n}"] = res.get("iterations", 0)
        m[f"profiles.gradient_norm.n{n}"] = res.get("gradient_norm", 0)
        m[f"profiles.c_hat.n{n}"] = res.get("energy", 0)
    m["profiles.build_recovery.self_s"] = self_time("profiles.build_recovery")

    m["experiments.minimize_energy.calls"] = calls("experiments.minimize_energy")
    m["experiments.minimize_energy.self_s"] = self_time("experiments.minimize_energy")
    m["experiments.count_jump_clusters.self_s"] = self_time(
        "experiments.count_jump_clusters")
    m["experiments.e_min"] = attr_sum("experiments.gamma_sweep", "e_min")

    m["inequalities.checks"] = calls("inequalities.check_")
    m["inequalities.self_s"] = self_time("inequalities.")
    m["ensembles.random_field.calls"] = calls("ensembles.random_field")
    m["ensembles.random_field.self_s"] = self_time("ensembles.random_field")
    m["hermite.solve_zeta.calls"] = calls("hermite.solve_zeta")
    m["hermite.solve_zeta.self_s"] = self_time("hermite.solve_zeta")
    return {k: float(v) for k, v in m.items()}
