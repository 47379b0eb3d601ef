"""
Command-line front end.  Every subcommand prints a JSON summary to
stdout; with --out DIR the summary and any field artifacts (minimizer or
witness CSVs, sweep tables) are also written into DIR.

    hophase hermite       --y "0.5,0,0" [--kind zeta|eta]
    hophase profile       --n 2 --lambda 0.017 [--T T --points N --slack S]
    hophase lambda-n      --n 2 [--seed S --points N]
    hophase check-ineq    --which intlem [--count 500 --seed 0 ...]
    hophase minimize      --config cfg.json [--seed S]
    hophase gamma-sweep   --config cfg.json
    hophase supercritical --config cfg.json

The three config-driven commands take a JSON file; unknown and missing
keys and values of another JSON type are rejected so typos fail loudly.
An option or key left out takes the library's default.  See the README
for the schemas.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .critical import LambdaOptions, estimate_lambda_n
from .energy import EnergyParams
from .experiments import (
    SweepConfig,
    gamma_sweep,
    minimize_energy,
    supercritical_probe,
)
from .grids import Field, Grid, field_from_csv, field_to_csv
from .hermite import endpoint_residuals, solve_eta, solve_zeta
from .inequalities import (
    GNParams,
    check_abstr,
    check_gagnir_interval,
    check_intlem,
    check_lower_bound_lemma,
    check_nirineq,
    ensemble_check,
)
from .potentials import get_potential
from .profiles import (
    PROFILE_POINTS, JumpFunction, ProfileProblem, build_recovery, estimate_constants,
    minimize_profile,
)
from .ensembles import _generator, random_field

__all__ = ["main"]


def _jsonable(obj):
    """json.dumps writes bare NaN/Infinity, which is not valid JSON; map
    non-finite floats to None so the output always parses."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def _emit(payload: dict, out: Optional[str], stem: str) -> None:
    text = json.dumps(_jsonable(payload), indent=2, default=str)
    print(text)
    if out is not None:
        d = Path(out)
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{stem}.json").write_text(text + "\n")


def _write_field(f: Optional[Field], out: Optional[str], stem: str) -> Optional[str]:
    if out is None or f is None:
        return None
    d = Path(out)
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{stem}.csv"
    path.write_text(field_to_csv(f))
    return str(path)


def _read_text(path: str, what: str) -> str:
    """The text of the file at path; a file that cannot be read or is not
    UTF-8 is a ValueError naming what it is and the path."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = str(exc)
    raise ValueError(f"cannot read {what} {path!r}: {reason}")


def _given(source: dict, keys) -> dict:
    """The entries of source under keys: what the user gave, passed on so
    that the API's own defaults fill in the rest."""
    return {key: source[key] for key in keys if key in source}


#: the JSON type of every config key: "integer", "number", "string",
#: "boolean", "array" (of numbers) or "pair" (an array of two numbers), and
#: "?" where null is allowed because the API default is None
_CONFIG_TYPES = {
    "n": "integer", "epsilon": "number", "lam": "number", "potential": "string",
    "interval": "pair", "num_points": "integer", "init": "string",
    "jumps": "array", "left_value": "number", "mass": "number?",
    "gtol": "number", "maxiter": "integer", "divergence_floor": "number?",
    "profile_T": "number", "seed": "integer",
    "eps_schedule": "array", "points_per_eps_width": "integer",
    "mass_constraint": "number?", "lambda_hat": "number?",
    "lambda_grid": "array", "k_max": "integer", "amplitudes": "array",
    "free_minimization": "boolean",
}


def _finite(key: str, x) -> float:
    """The JSON number x of config key as a float; an integer past the
    float range, or a number that reads as an inf or a NaN (1e400,
    Infinity, NaN), is a ValueError that names the key."""
    try:
        f = float(x)
    except OverflowError:
        raise ValueError(f"{key} is past the float range") from None
    if not np.isfinite(f):
        raise ValueError(f"{key} must be finite, got {f}")
    return f


def _typed(key: str, value):
    """value as config key is passed on: a number as a finite float, an
    array as a tuple of them.  A value of another JSON type than
    `_CONFIG_TYPES` gives the key ("lambda" is "lam"), or a number that is
    no finite float, is a ValueError that names the key as written."""
    kind = _CONFIG_TYPES["lam" if key == "lambda" else key]
    if value is None and kind.endswith("?"):
        return None
    base = kind.rstrip("?")
    number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
    if base in ("array", "pair"):
        if not (isinstance(value, list) and all(map(number, value))):
            raise ValueError(f"{key} must be a JSON array of numbers, got {value!r}")
        if base == "pair" and len(value) != 2:
            raise ValueError(f"{key} must have 2 entries, got {len(value)}")
        return tuple(_finite(key, x) for x in value)
    expected = dict(integer=int, number=(int, float), string=str, boolean=bool)[base]
    # a JSON true is a Python int, but no integer or number
    if not isinstance(value, expected) or isinstance(value, bool) != (expected is bool):
        what = kind.replace("?", " or null")
        raise ValueError(f"{key} must be a JSON {what}, got {value!r}")
    return _finite(key, value) if base == "number" else value


def _load_config(path: str, allowed: set, required: tuple = ()) -> dict:
    """The JSON object in the config file at path, each value read by
    `_typed` under its key as written, then "lambda" renamed "lam".  An
    unreadable file, invalid JSON, a key outside allowed (as spelled:
    "lambda" is allowed where "lam" is), both "lam" and "lambda", a missing
    required key and a value of another JSON type are each a ValueError
    that names it."""
    try:
        cfg = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(cfg) - allowed - ({"lambda"} if "lam" in allowed else set())
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "lam" in cfg and "lambda" in cfg:
        raise ValueError("config gives both 'lam' and 'lambda'; give one")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    return {("lam" if k == "lambda" else k): _typed(k, v) for k, v in cfg.items()}


def _cmd_hermite(args) -> int:
    y = tuple(float(s) for s in args.y.split(","))
    solve = {"zeta": solve_zeta, "eta": solve_eta}[args.kind]
    p = solve(y)
    payload = {
        "n": p.n,
        "kind": p.kind,
        "data": list(y),
        "coefficients": [float(c) for c in p.exact_coefficients],
        "exact_coefficients": [str(c) for c in p.exact_coefficients],
        "max_endpoint_residual": float(endpoint_residuals(p).max()),
    }
    _emit(payload, args.out, f"hermite_{args.kind}_n{p.n}")
    return 0


def _cmd_profile(args) -> int:
    w = get_potential(args.potential)
    est = estimate_constants(
        args.n, args.lam, w,
        **_given(vars(args), ("truncation_T", "num_points", "lambda_hat", "slack")),
    )
    grid = est.result_0.grid  # (-truncation_T, truncation_T)
    # the minimizers are sampled only to be written
    csv_lam, csv_lam0 = (
        None if args.out is None
        else _write_field(r.minimizer, args.out, f"profile_n{args.n}_{stem}")
        for r, stem in ((est.result_lam, "lam"), (est.result_0, "lam0"))
    )
    payload = {
        "n": args.n,
        "lambda": args.lam,
        "lambda_hat": est.lambda_hat,
        "C_hat_0": est.c_hat_0,
        "C_hat_lam": est.c_hat_lam,
        "sandwich_ok": est.sandwich_ok,
        "slack": est.slack,
        "diagnostics": {
            "converged_0": est.result_0.converged,
            "converged_lam": est.result_lam.converged,
            "gradient_norm_0": est.result_0.gradient_norm_final,
            "gradient_norm_lam": est.result_lam.gradient_norm_final,
            "newton_decrement_0": est.result_0.newton_decrement,
            "newton_decrement_lam": est.result_lam.newton_decrement,
            "truncation_T": grid.b,
            "num_points": grid.num_points,
        },
        "minimizer_csv_path": csv_lam,
        "minimizer_lam0_csv_path": csv_lam0,
    }
    _emit(payload, args.out, f"profile_n{args.n}")
    return 0


def _cmd_lambda_n(args) -> int:
    w = get_potential(args.potential)
    est = estimate_lambda_n(
        args.n, w, LambdaOptions(**_given(vars(args), ("num_points", "seed")))
    )
    payload = {
        "n": args.n,
        "lambda_hat": est.value,
        "argmin_csv_path": _write_field(est.witness, args.out, f"lambda_argmin_n{args.n}"),
        "per_start": est.per_start,
        "diagnostics": est.diagnostics,
    }
    _emit(payload, args.out, f"lambda_n{args.n}")
    return 0


#: check-ineq options that only some --which read: (type, default, those
#: --which, help).  They parse with default None, so a given one is told
#: from an omitted one; a None default is computed by the check.
_CHECK_INEQ_ONLY = {
    "p": (float, 2.0, ("intlem", "gagnir"), "norm exponent"),
    "q": (float, 2.0, ("intlem", "gagnir", "abstr"), "norm exponent"),
    "r": (float, 2.0, ("intlem", "gagnir", "abstr"), "norm exponent"),
    "j": (int, 1, ("gagnir", "abstr"), "lower derivative order"),
    "m": (int, 2, ("gagnir", "abstr"), "higher derivative order"),
    "theta": (float, None, ("gagnir",),
              "interpolation weight (from the balance relation when omitted)"),
    "sigma_frac": (float, 1.0, ("nirineq",),
                   "sigma as a fraction of each interval length"),
    "c_probe": (float, 0.25, ("nirineq", "gagnir", "abstr"),
                "probe constant; 0 asks gagnir for the smallest admissible one"),
    "n": (int, 2, ("nirineq", "lowerbound"), "energy order"),
    "potential": (str, "quartic", ("lowerbound",), "double-well potential"),
    "epsilon": (float, 0.25, ("lowerbound",), "interface width"),
    "delta": (float, 0.1, ("lowerbound",), "lemma slack"),
    "lam_frac": (float, 0.3, ("lowerbound",), "lambda as a fraction of lambda-hat"),
    "lambda_hat": (float, None, ("lowerbound",),
                   "critical coupling (estimated when omitted)"),
}


def _cmd_check_ineq(args) -> int:
    which = args.which
    opt = {}
    for key, (_, default, readers, _) in _CHECK_INEQ_ONLY.items():
        value = getattr(args, key)
        if value is not None and which not in readers:
            raise ValueError(
                f"--{key.replace('_', '-')} acts only with --which "
                f"{' or '.join(readers)}, not with {which}"
            )
        opt[key] = default if value is None else value
    if not np.isfinite(opt["c_probe"]):
        raise ValueError(f"--c-probe must be finite, got {opt['c_probe']}")
    if which == "intlem":
        checker = lambda f: check_intlem(f, opt["p"], opt["q"], opt["r"])
    elif which == "nirineq":
        def checker(f, n=opt["n"], frac=opt["sigma_frac"], c=opt["c_probe"]):
            return check_nirineq(f, n, frac * f.grid.length, c)
    elif which == "gagnir":
        p, q, r, j, m = (opt[key] for key in "pqrjm")
        theta = opt["theta"]
        if theta is None:  # solve the dimension-balance relation for theta
            theta = (j + 1.0 / q - 1.0 / p) / (m + 1.0 / q - 1.0 / r)
        gp = GNParams(p, q, r, j, m, theta)
        c_probe = opt["c_probe"] if opt["c_probe"] > 0 else None
        checker = lambda f: check_gagnir_interval(f, gp, c_probe)
    elif which == "abstr":
        checker = lambda f: check_abstr(
            f, opt["j"], opt["m"], opt["q"], opt["r"], opt["c_probe"]
        )
    else:  # lowerbound; argparse restricts the choices
        w = get_potential(opt["potential"])
        lam_hat = opt["lambda_hat"]
        if lam_hat is None:
            lam_hat = estimate_lambda_n(opt["n"], w).value
        params = EnergyParams(opt["n"], opt["epsilon"], opt["lam_frac"] * lam_hat)
        checker = lambda f: check_lower_bound_lemma(f, params, lam_hat, opt["delta"], w)

    rep = ensemble_check(checker, which, args.count, args.seed)
    payload = {
        "which": rep.which,
        "count": rep.count,
        "seed": args.seed,
        "num_failed": rep.num_failed,
        "passed": rep.passed,
        "worst_ratio": rep.worst_ratio,
        "worst_index": rep.worst_index,
        "witness_description": rep.witness_description,
        "empirical_constant": rep.empirical_constant,
        "witness_csv_path": _write_field(rep.witness, args.out, f"witness_{which}"),
    }
    _emit(payload, args.out, f"check_{which}")
    return 0


_MINIMIZE_KEYS = {
    "n", "epsilon", "lam", "potential", "interval", "num_points", "init",
    "jumps", "left_value", "mass", "gtol", "maxiter", "divergence_floor",
    "profile_T", "seed",
}
#: minimize keys that only the recovery init reads, and the grid keys that
#: a CSV init (which carries its own grid) does not read
_RECOVERY_KEYS = {"jumps", "left_value", "profile_T"}
_GRID_KEYS = {"interval", "num_points"}


def _cmd_minimize(args) -> int:
    cfg = _load_config(args.config, _MINIMIZE_KEYS, required=("epsilon",))
    params = EnergyParams(cfg.get("n", 2), cfg["epsilon"], cfg.get("lam", 0.0))
    n, eps, lam = params.n, params.epsilon, params.lam
    w = get_potential(cfg.get("potential", "quartic"))
    a, b = cfg.get("interval", (-4.0, 4.0))
    num_points = cfg.get("num_points", round((b - a) / (eps / 32)) + 1)
    seed = args.seed if args.seed is not None else cfg.get("seed")

    init_spec = cfg.get("init", "recovery")
    if seed is not None and init_spec != "random":
        raise ValueError(f"a seed acts only with init 'random', not with {init_spec!r}")
    unread = set(cfg) & {"recovery": set(), "random": _RECOVERY_KEYS}.get(
        init_spec, _RECOVERY_KEYS | _GRID_KEYS
    )
    if unread:
        raise ValueError(f"init {init_spec!r} does not read {sorted(unread)}")
    if init_spec == "recovery":
        jumps, left = cfg.get("jumps", (0.0,)), cfg.get("left_value", -1.0)
        jump_fn = JumpFunction(a, b, jumps, left)
        T = cfg.get("profile_T", 5.0)
        prof = minimize_profile(ProfileProblem(n, lam, T, PROFILE_POINTS, w))
        # the recovery's grid is the configured one: num_points over the interval
        ppe = (num_points - 1) * eps / (b - a)
        init = build_recovery(jump_fn, prof.spline, eps, ppe)
    elif init_spec == "random":
        rng = _generator(seed or 0)
        init = random_field(Grid(a, b, num_points), rng, "fourier")
    else:
        init = field_from_csv(_read_text(init_spec, "init"))

    res = minimize_energy(
        n, eps, lam, init, w,
        **_given(cfg, ("mass", "gtol", "maxiter", "divergence_floor")),
    )
    payload = {
        "n": n,
        "epsilon": eps,
        "lambda": lam,
        "energy": asdict(res.breakdown),
        "converged": res.converged,
        "diverged": res.diverged,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm,
        "gradient_floor": res.gradient_floor,
        "message": res.message,
        "num_points": res.field.grid.num_points,
        "minimizer_csv_path": _write_field(res.field, args.out, "minimizer"),
    }
    _emit(payload, args.out, "minimize")
    return 0


_SWEEP_KEYS = {f.name for f in fields(SweepConfig)}


def _cmd_gamma_sweep(args) -> int:
    record = gamma_sweep(SweepConfig(**_load_config(args.config, _SWEEP_KEYS)))
    stem = f"sweep_{record.config_hash}"
    _emit(asdict(record), args.out, stem)
    if args.out is not None:
        (Path(args.out) / f"{stem}.csv").write_text(record.rows_csv())
    return 0


#: the supercritical keys that supercritical_probe takes as they are
_PROBE_KEYS = (
    "interval", "points_per_eps_width", "k_max", "amplitudes", "free_minimization",
)
_SUPER_KEYS = {"n", "lambda_grid", "epsilon", "potential", *_PROBE_KEYS}


def _cmd_supercritical(args) -> int:
    cfg = _load_config(args.config, _SUPER_KEYS, required=("lambda_grid", "epsilon"))
    rep = supercritical_probe(
        cfg.get("n", 2), cfg["lambda_grid"], cfg["epsilon"],
        get_potential(cfg.get("potential", "quartic")),
        **_given(cfg, _PROBE_KEYS),
    )
    _emit(asdict(rep), args.out, f"supercritical_n{rep.n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hophase",
        description="Higher-order phase-transition energies: profiles, "
        "critical constants, interpolation checks, sharp-interface sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="directory for JSON/CSV artifacts")

    p = sub.add_parser("hermite", help="solve one coupling-polynomial system")
    p.add_argument("--y", required=True, help="comma-separated boundary data y_0..y_{n-1}")
    p.add_argument("--kind", choices=("zeta", "eta"), default="zeta")
    common(p)
    p.set_defaults(func=_cmd_hermite)

    # default SUPPRESS: an option not given stays out of args; the API default applies
    p = sub.add_parser("profile", help="optimal-profile constants at lambda = 0 and lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--potential", default="quartic")
    p.add_argument("--T", dest="truncation_T", type=float, default=argparse.SUPPRESS,
                   help="truncation half-width")
    p.add_argument("--points", dest="num_points", type=int, default=argparse.SUPPRESS)
    p.add_argument("--slack", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lambda-hat", type=float, default=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("lambda-n", help="estimate the critical constant lambda_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--potential", default="quartic")
    p.add_argument("--points", dest="num_points", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=_cmd_lambda_n)

    p = sub.add_parser("check-ineq", help="run one inequality check over an ensemble")
    p.add_argument(
        "--which",
        required=True,
        choices=("intlem", "nirineq", "gagnir", "abstr", "lowerbound"),
    )
    p.add_argument("--count", type=int, default=500)
    for key, (type_, default, readers, text) in _CHECK_INEQ_ONLY.items():
        note = f"{text}; {', '.join(readers)} only"
        if default is not None:
            note += f" (default {default})"
        p.add_argument(f"--{key.replace('_', '-')}", type=type_, help=note)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_check_ineq)

    p = sub.add_parser("minimize", help="minimize one energy from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="seed of the random init")
    common(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("gamma-sweep", help="sharp-interface sweep from a JSON config")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=_cmd_gamma_sweep)

    p = sub.add_parser("supercritical", help="oscillation probe from a JSON config")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=_cmd_supercritical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # rejected input, reported as argparse does
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
