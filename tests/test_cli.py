"""End-to-end tests of the command-line interface.

Each subcommand is driven through ``hophase.cli.main`` with an artifact
directory; stdout must be valid JSON and the promised files must appear.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hophase
from hophase import (
    Field,
    Grid,
    SweepConfig,
    cli,
    field_from_csv,
    field_to_csv,
    gamma_sweep,
    LambdaOptions,
    make_quartic,
    quotient,
)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def run_fresh(args):
    """Run the interpreter with args in a fresh process that imports
    hophase from the same checkout."""
    src = Path(hophase.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


class TestHermite:
    def test_zeta_solution(self, tmp_path, capsys):
        rc, payload = run(
            capsys,
            ["hermite", "--y", "0.5,0,0", "--out", str(tmp_path)],
        )
        assert rc == 0
        assert payload["n"] == 3
        assert payload["kind"] == "zeta"
        assert len(payload["coefficients"]) == 6
        assert payload["max_endpoint_residual"] == 0.0
        saved = json.loads((tmp_path / "hermite_zeta_n3.json").read_text())
        assert saved == payload

    def test_n_option_is_gone(self, capsys):
        # n is the number of boundary values; a separate --n was never read
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["hermite", "--n", "3", "--y", "1,2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err

    def test_eta_known_cubic(self, capsys):
        rc, payload = run(capsys, ["hermite", "--y", "1,0", "--kind", "eta"])
        assert rc == 0
        assert payload["coefficients"] == [-1.0, 0.0, 6.0, -4.0]
        assert payload["exact_coefficients"] == ["-1", "0", "6", "-4"]


class TestProfile:
    def test_first_order_profile_constant(self, tmp_path, capsys):
        rc, payload = run(
            capsys,
            [
                "profile", "--n", "1", "--lambda", "0",
                "--T", "6", "--points", "801", "--out", str(tmp_path),
            ],
        )
        assert rc == 0
        assert payload["C_hat_0"] == pytest.approx(8.0 / 3.0, rel=1e-4)
        assert payload["C_hat_lam"] == payload["C_hat_0"]
        assert payload["sandwich_ok"] is True
        assert payload["diagnostics"]["converged_lam"] is True
        assert abs(payload["diagnostics"]["newton_decrement_lam"]) <= 1e-12 * max(
            1.0, payload["C_hat_lam"]
        )
        f = field_from_csv((tmp_path / "profile_n1_lam.csv").read_text())
        assert f.grid.num_points == 801
        assert (tmp_path / "profile_n1.json").exists()

    def test_too_few_points_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["profile", "--n", "2", "--points", "1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hophase: error: grid requires num_points >= 2\n"

    @pytest.mark.parametrize("slack", ["-1", "nan"])
    def test_negative_or_non_finite_slack_is_a_usage_error(self, capsys, slack):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["profile", "--n", "2", "--slack", slack])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hophase: error: slack must be finite and >= 0, got {float(slack)}\n"
        )

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--lambda", "nan"], "lam must be finite and >= 0, got nan"),
            (["--lambda", "inf"], "lam must be finite and >= 0, got inf"),
            (["--T", "inf"], "truncation_T must be positive and finite, got inf"),
            (["--T", "nan"], "truncation_T must be positive and finite, got nan"),
        ],
    )
    def test_non_finite_lambda_or_truncation_is_a_usage_error(
        self, capsys, option, message
    ):
        # a NaN lambda once printed "C_hat_lam": null with exit 0, and T = inf
        # warned of invalid values before it failed; a warning raises here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["profile", "--n", "2", "--points", "801", *option])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hophase: error: {message}\n"

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_non_positive_lambda_hat_is_a_usage_error(self, capsys, bad):
        # 0 once died on a ZeroDivisionError traceback, and -1 printed
        # "sandwich_ok": true
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["profile", "--n", "2", "--lambda", "0", "--lambda-hat", bad])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"hophase: error: lambda_hat must be positive, got {float(bad)}\n"
        )

    def test_nan_lambda_hat_is_a_usage_error(self, capsys):
        # a NaN bound once printed "lambda_hat": null and "sandwich_ok":
        # true with exit 0, lam < lambda_hat never checked
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["profile", "--n", "2", "--lambda", "0.01", "--lambda-hat", "nan"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hophase: error: lambda_hat must not be NaN, got nan\n"

    def test_derivative_order_beyond_stencils_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["profile", "--n", "7"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n = 7" in captured.err


class TestLambdaN:
    def test_reduced_estimate_lands_in_band(self, tmp_path, capsys):
        rc, payload = run(
            capsys,
            [
                "lambda-n", "--n", "2",
                "--points", "301", "--out", str(tmp_path),
            ],
        )
        assert rc == 0
        assert 0.050 < payload["lambda_hat"] < 0.060
        assert payload["diagnostics"]["num_points"] == 301
        d = payload["diagnostics"]
        assert min(payload["per_start"]) == d["poly_stage_value"]
        witness = field_from_csv((tmp_path / "lambda_argmin_n2.csv").read_text())
        assert witness.grid.num_points == 301
        # the CSV round trip is bit-exact, so the witness read back attains
        # the printed value exactly
        assert quotient(witness, 2, make_quartic()).value == payload["lambda_hat"]

    def test_derivative_order_beyond_stencils_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["lambda-n", "--n", "7"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hophase: error: n must be in [1, 6]; got n = 7\n"


    def test_starts_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["lambda-n", "--n", "2", "--starts", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --starts 2" in capsys.readouterr().err

    def test_module_entry_point_reports_usage_errors(self):
        # python -m hophase runs the same CLI from a checkout
        proc = run_fresh(["-m", "hophase", "lambda-n", "--n", "7"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "hophase: error: n must be in [1, 6]; got n = 7\n"


def test_import_loads_no_scipy_interpolate_optimize_or_sparse():
    # every CLI command starts a fresh interpreter and pays for what
    # `import hophase` loads; no computation needs these three at import
    proc = run_fresh([
        "-c",
        "import sys, hophase; "
        "print(sorted({'scipy.interpolate', 'scipy.optimize', 'scipy.sparse'}"
        " & set(sys.modules)))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_solvers_imports_scipy():
    # one module to move off scipy: its two scipy.linalg imports at module
    # level, and scipy.optimize inside lbfgs, which no minimizer calls
    found = []
    for path in sorted(Path(hophase.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                found += [
                    (path.name, scope, m) for m in modules if m.split(".")[0] == "scipy"
                ]
    assert found == [
        ("_solvers.py", None, "scipy.linalg"),
        ("_solvers.py", None, "scipy.linalg.lapack"),
        ("_solvers.py", "lbfgs", "scipy.optimize"),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda-n", "--n", "2"],
        ["check-ineq", "--which", "lowerbound", "--count", "5"],
        ["profile", "--n", "2"],
    ],
)
def test_unknown_potential_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--potential", "nope"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "hophase: error: unknown potential 'nope'; available: ['quartic']\n"
    )


class TestCheckIneq:
    def test_intlem_ensemble(self, tmp_path, capsys):
        rc, payload = run(
            capsys,
            ["check-ineq", "--which", "intlem", "--count", "40", "--out", str(tmp_path)],
        )
        assert rc == 0
        assert payload["passed"] is True
        assert payload["num_failed"] == 0
        assert payload["count"] == 40
        assert (tmp_path / "witness_intlem.csv").exists()
        assert (tmp_path / "check_intlem.json").exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_ensemble_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check-ineq", "--which", "intlem", "--count", count])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hophase: error: count must be >= 1, got {count}\n"

    def test_intlem_reports_a_finite_empirical_constant(self, capsys):
        # the smallest constant the worst field passes with, C times its ratio
        rc, payload = run(capsys, ["check-ineq", "--which", "intlem", "--count", "50"])
        assert rc == 0
        assert np.isfinite(payload["empirical_constant"])
        assert payload["empirical_constant"] == pytest.approx(
            8.0 * np.sqrt(3.0) * payload["worst_ratio"], rel=1e-14
        )

    @pytest.mark.parametrize("command", (
        ["check-ineq", "--which", "intlem"],
        ["lambda-n", "--n", "2", "--points", "101"],
    ))
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "--seed", "-1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hophase: error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("option", ["--p", "--q", "--r"])
    def test_nan_exponent_is_a_usage_error(self, option, capsys):
        # a NaN exponent once ran every check to a verdict on checks never
        # made: all failed, worst index -1
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check-ineq", "--which", "intlem", "--count", "5", option, "nan"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hophase: error: norm exponent p must be >= 1, got nan\n"

    def test_gagnir_theta_derived_from_balance(self, capsys):
        # --c-probe 0 asks for the smallest admissible constant instead of
        # testing a fixed probe, so the run passes iff it stays finite
        rc, payload = run(
            capsys,
            ["check-ineq", "--which", "gagnir", "--count", "20", "--c-probe", "0"],
        )
        assert rc == 0
        assert payload["passed"] is True
        assert payload["empirical_constant"] is not None

    def test_nirineq_and_abstr(self, capsys):
        for which in ("nirineq", "abstr"):
            rc, payload = run(
                capsys,
                ["check-ineq", "--which", which, "--count", "20", "--c-probe", "0.05"],
            )
            assert rc == 0
            assert payload["passed"] is True

    def test_lowerbound_with_pinned_lambda_hat(self, capsys):
        rc, payload = run(
            capsys,
            [
                "check-ineq", "--which", "lowerbound", "--count", "20",
                "--lambda-hat", "0.0569",
            ],
        )
        assert rc == 0
        assert payload["passed"] is True

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--epsilon", "nan"], "epsilon must be positive and finite, got nan"),
            (["--epsilon", "inf"], "epsilon must be positive and finite, got inf"),
            (["--lam-frac", "nan"], "lam must be finite, got nan"),
            (["--lambda-hat", "0"], "lam_hat must be positive and finite, got 0.0"),
        ],
    )
    def test_non_finite_lowerbound_parameter_is_a_usage_error(
        self, capsys, option, message
    ):
        # a NaN epsilon once failed every check with exit 0, at worst_index -1
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "check-ineq", "--which", "lowerbound", "--count", "5",
                "--lambda-hat", "0.0569", *option,
            ])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hophase: error: {message}\n"

    @pytest.mark.parametrize(
        "which, option",
        [
            ("intlem", ["--potential", "nope"]),
            ("intlem", ["--epsilon", "0.5"]),
            ("gagnir", ["--delta", "0.2"]),
            ("abstr", ["--lam-frac", "0.1"]),
            ("nirineq", ["--lambda-hat", "0.05"]),
            ("nirineq", ["--potential", "quartic"]),
            ("intlem", ["--n", "3"]),
            ("gagnir", ["--n", "2"]),
            # the exponents and probe once passed silently where unread
            ("nirineq", ["--p", "-5"]),
            ("nirineq", ["--q", "nan"]),
            ("nirineq", ["--r", "2"]),
            ("intlem", ["--j", "1"]),
            ("lowerbound", ["--m", "2"]),
            ("abstr", ["--theta", "0.5"]),
            ("gagnir", ["--sigma-frac", "0.5"]),
            ("intlem", ["--c-probe", "0.25"]),
        ],
    )
    def test_option_the_check_does_not_read_is_a_usage_error(
        self, capsys, which, option
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check-ineq", "--which", which, "--count", "5", *option])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hophase: error: {option[0]} acts only with")

    @pytest.mark.parametrize("which", ["nirineq", "gagnir", "abstr"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_probe_is_a_usage_error(self, capsys, which, value):
        # a NaN probe once gave nirineq a verdict of 3 of 3 failed at
        # ensemble index -1, and gagnir a pass as if no probe were asked for
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check-ineq", "--which", which, "--count", "3", "--c-probe", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hophase: error: --c-probe must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "which, defaults",
        [
            ("intlem", ["--p", "2", "--q", "2", "--r", "2"]),
            ("nirineq", ["--sigma-frac", "1", "--c-probe", "0.25", "--n", "2"]),
            ("gagnir", ["--p", "2", "--q", "2", "--r", "2", "--j", "1", "--m", "2",
                        "--c-probe", "0.25"]),
            ("abstr", ["--q", "2", "--r", "2", "--j", "1", "--m", "2",
                       "--c-probe", "0.25"]),
        ],
    )
    def test_omitted_options_take_their_defaults(self, capsys, which, defaults):
        base = ["check-ineq", "--which", which, "--count", "5"]
        rc, omitted = run(capsys, base)
        _, given = run(capsys, base + defaults)
        assert rc == 0
        assert omitted == given

    def test_nirineq_reads_n(self, capsys):
        rc, a = run(capsys, ["check-ineq", "--which", "nirineq", "--count", "10"])
        _, b = run(
            capsys, ["check-ineq", "--which", "nirineq", "--count", "10", "--n", "3"]
        )
        _, c = run(
            capsys, ["check-ineq", "--which", "nirineq", "--count", "10", "--n", "2"]
        )
        assert rc == 0
        assert a == c
        assert a["worst_ratio"] != b["worst_ratio"]

    @pytest.mark.parametrize("n", ["1", "7"])
    def test_nirineq_order_outside_stencil_range_is_a_usage_error(self, n, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["check-ineq", "--which", "nirineq", "--n", n, "--count", "5"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hophase: error: nirineq needs 2 <= n <= 6, got n = {n}\n"

    def test_seed_changes_witness(self, capsys):
        _, a = run(capsys, ["check-ineq", "--which", "intlem", "--count", "15"])
        _, b = run(
            capsys,
            ["check-ineq", "--which", "intlem", "--count", "15", "--seed", "9"],
        )
        assert a["worst_ratio"] != b["worst_ratio"]


class TestMinimize:
    def test_recovery_init_from_config(self, tmp_path, capsys):
        cfg = {
            "n": 2,
            "epsilon": 0.25,
            "lambda": 0.0,
            "interval": [-4.0, 4.0],
            "jumps": [0.0],
            "profile_T": 4.0,
            "num_points": 513,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, payload = run(
            capsys, ["minimize", "--config", str(path), "--out", str(tmp_path)]
        )
        assert rc == 0
        assert payload["converged"] is True
        assert payload["diverged"] is False
        assert payload["gradient_floor"] > 0.0
        assert 0.0 < payload["energy"]["total"] < 4.0
        f = field_from_csv((tmp_path / "minimizer.csv").read_text())
        assert f.grid.num_points == payload["num_points"]

    def test_random_init(self, tmp_path, capsys):
        cfg = {
            "epsilon": 0.25,
            "interval": [0.0, 2.0],
            "num_points": 257,
            "init": "random",
            "maxiter": 400,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, payload = run(capsys, ["minimize", "--config", str(path), "--seed", "3"])
        assert rc == 0
        assert payload["energy"]["total"] >= 0.0

    def test_iteration_limit_reads_unconverged(self, tmp_path, capsys):
        # at n = 6 the gradient floor passes any gradient; a run stopped
        # by its step cap still reads unconverged
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 6, "epsilon": 0.25, "maxiter": 2}))
        rc, payload = run(capsys, ["minimize", "--config", str(path)])
        assert rc == 0
        assert payload["message"] == "iteration limit"
        assert payload["gradient_norm"] < payload["gradient_floor"]
        assert payload["converged"] is False

    def test_a_last_allowed_step_that_converges_reads_converged(self, tmp_path, capsys):
        # the uncapped n = 2 run converges in 2 steps; capped at 2 steps it
        # ends at the same iterate and reads converged, not its step cap
        path = tmp_path / "cfg.json"
        payloads = []
        for cap in ({}, {"maxiter": 2}):
            path.write_text(json.dumps({"n": 2, "epsilon": 0.25, **cap}))
            rc, payload = run(capsys, ["minimize", "--config", str(path)])
            assert rc == 0
            payloads.append(payload)
        free, capped = payloads
        assert free["iterations"] == capped["iterations"] == 2
        assert free["energy"] == capped["energy"]
        assert capped["message"] == "" and capped["converged"] is True

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epsilon": 0.25, "epsilonn": 1}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "hophase: error: unknown config keys: ['epsilonn']\n"
        )

    def test_one_point_recovery_grid_is_a_usage_error(self, tmp_path, capsys):
        # one point gives the recovery 0 points per eps, which once ended in
        # a ZeroDivisionError traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "num_points": 1}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "hophase: error: points_per_eps must be positive and finite, got 0.0\n"
        )

    def test_recovery_init_is_built_on_the_configured_grid(self, tmp_path, capsys):
        cfg = {
            "epsilon": 0.25,
            "jumps": [0.0],
            "profile_T": 4.0,
            "num_points": 513,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, payload = run(capsys, ["minimize", "--config", str(path)])
        assert rc == 0
        assert payload["num_points"] == 513
        assert payload["converged"] is True

    @pytest.mark.parametrize(
        "key, value",
        [("jumps", [0.5]), ("left_value", 1.0), ("profile_T", 9.0)],
    )
    def test_recovery_keys_with_random_init_are_a_usage_error(
        self, tmp_path, capsys, key, value
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "init": "random", key: value}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"hophase: error: init 'random' does not read ['{key}']\n"
        )

    @pytest.mark.parametrize(
        "key, value", [("interval", [0.0, 2.0]), ("num_points", 257), ("jumps", [0.0])]
    )
    def test_grid_and_recovery_keys_with_csv_init_are_a_usage_error(
        self, tmp_path, capsys, key, value
    ):
        csv = tmp_path / "init.csv"
        csv.write_text(field_to_csv(Field.from_callable(Grid(-1.0, 1.0, 65), np.tanh)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "init": str(csv), key: value}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"hophase: error: init {str(csv)!r} does not read ['{key}']\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [("x,value\n0,0\n0.1,1\n1,2\n", "CSV data row 2 has x = 0.1"),
         ("x,value\n", "CSV has 0 data rows")],
    )
    def test_off_grid_or_empty_csv_init_is_a_usage_error(
        self, tmp_path, capsys, text, message
    ):
        csv = tmp_path / "init.csv"
        csv.write_text(text)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "init": str(csv)}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith(f"hophase: error: {message}")

    @pytest.mark.parametrize("eps", [0, -0.25])
    def test_non_positive_epsilon_is_a_usage_error(self, tmp_path, capsys, eps):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": eps}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"hophase: error: epsilon must be positive and finite, got {float(eps)}\n"
        )

    @pytest.mark.parametrize(
        "cfg, argv",
        [({}, ["--seed", "3"]), ({"seed": 3}, []), ({"init": "x.csv", "seed": 3}, [])],
    )
    def test_seed_without_random_init_is_a_usage_error(
        self, tmp_path, capsys, cfg, argv
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, **cfg}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["minimize", "--config", str(path), *argv])
        assert exit_info.value.code == 2
        assert "a seed acts only with init 'random'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hermite", "--y", "1,0"],
        ["profile", "--n", "2"],
        ["supercritical", "--config", "cfg.json"],
        ["gamma-sweep", "--config", "cfg.json"],
    ],
)
def test_seed_is_rejected_where_nothing_is_random(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("minimize", {"epsilon": 0.25}),
        ("gamma-sweep", {"eps_schedule": [0.25]}),
        ("supercritical", {"lambda_grid": [0.5], "epsilon": 0.0625}),
    ],
)
def test_accuracy_order_is_an_unknown_key(tmp_path, capsys, command, cfg):
    # every energy uses the stencils of grids.ACCURACY_ORDER
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "accuracy_order": 4}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hophase: error: unknown config keys: ['accuracy_order']\n"


@pytest.mark.parametrize(
    "command, cfg",
    [("minimize", {"epsilon": 0.25}), ("gamma-sweep", {"eps_schedule": [0.25]})],
    ids=["minimize", "gamma-sweep"],
)
def test_profile_points_is_an_unknown_key(tmp_path, capsys, command, cfg):
    # the recovery pastes the profile's spline and reads none of its samples
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "profile_points": 801}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hophase: error: unknown config keys: ['profile_points']\n"


@pytest.mark.parametrize(
    "command, cfg, missing",
    [
        ("minimize", {"n": 2}, ["epsilon"]),
        ("supercritical", {"epsilon": 0.0625}, ["lambda_grid"]),
        ("supercritical", {"n": 2}, ["lambda_grid", "epsilon"]),
    ],
)
def test_missing_config_key_is_a_usage_error(tmp_path, capsys, command, cfg, missing):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"hophase: error: missing config keys: {missing}\n"


@pytest.mark.parametrize("command", ["minimize", "gamma-sweep", "supercritical"])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, command):
    binary, broken = tmp_path / "binary.json", tmp_path / "broken.json"
    binary.write_bytes(b"\xff\xfe")
    broken.write_text('{"n": 2,')
    for path, message in (
        (tmp_path / "absent.json", "cannot read config {!r}: No such file or directory"),
        (tmp_path, "cannot read config {!r}: Is a directory"),
        (binary, "cannot read config {!r}: 'utf-8' codec can't decode byte 0xff"),
        (broken, "config {!r} is not valid JSON: Expecting property name"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith(
            "hophase: error: " + message.format(str(path))
        )


def test_unreadable_csv_init_is_a_usage_error(tmp_path, capsys):
    csv = tmp_path / "absent.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon": 0.25, "init": str(csv)}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["minimize", "--config", str(path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"hophase: error: cannot read init {str(csv)!r}: No such file or directory\n"
    )


class TestGammaSweep:
    #: the one-row sweep of the CI smoke test
    CONFIG = {
        "n": 2,
        "lambda": 0.0,
        "interval": [-4.0, 4.0],
        "jumps": [0.0],
        "eps_schedule": [0.25],
        "points_per_eps_width": 16,
        "profile_T": 4.0,
    }

    @staticmethod
    def config(tmp_path, cfg):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        path = self.config(tmp_path, self.CONFIG)
        rc, payload = run(capsys, ["gamma-sweep", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["jumps_detected"] == 1
        assert row["converged"] is True
        stem = f"sweep_{payload['config_hash']}"
        assert (tmp_path / f"{stem}.json").exists()
        csv_text = (tmp_path / f"{stem}.csv").read_text()
        assert csv_text.startswith("epsilon,E_min,E_recovery")

    def test_persistence_roundtrip(self, tmp_path, capsys, monkeypatch):
        # the JSON written is the JSON printed, and the CSV is the table of
        # the record that gamma_sweep returned
        records = []

        def recording_sweep(cfg):
            records.append(gamma_sweep(cfg))
            return records[-1]

        monkeypatch.setattr(cli, "gamma_sweep", recording_sweep)
        path = self.config(tmp_path, {**self.CONFIG, "eps_schedule": [0.25, 0.125]})
        assert cli.main(["gamma-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        (record,) = records
        stem = f"sweep_{record.config_hash}"
        assert (tmp_path / f"{stem}.json").read_text() == printed
        payload = json.loads(printed)
        assert payload["config_hash"] == record.config_hash
        assert [row["e_min"] for row in payload["rows"]] == [r.e_min for r in record.rows]
        assert (tmp_path / f"{stem}.csv").read_bytes() == record.rows_csv().encode()

    def test_hash_does_not_depend_on_where_the_record_goes(self, tmp_path, capsys):
        # the same sweep written to two places has one name
        path = self.config(tmp_path, self.CONFIG)
        hashes = []
        for where in ("a", "b"):
            out = tmp_path / where
            rc, payload = run(capsys, ["gamma-sweep", "--config", path, "--out", str(out)])
            hashes.append(payload["config_hash"])
            assert (out / f"sweep_{hashes[-1]}.csv").exists()
        assert hashes == [SweepConfig(eps_schedule=(0.25,), profile_T=4.0,
                                      points_per_eps_width=16).config_hash()] * 2

    def test_failed_row_prints_strict_json(self, tmp_path, capsys):
        # a row whose recovery does not fit the interval has no energies:
        # null, where the record once printed NaN, which is no JSON
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        path = self.config(tmp_path, {
            "n": 2, "interval": [-1, 1], "jumps": [0], "eps_schedule": [0.25, 0.05],
            "points_per_eps_width": 16, "profile_T": 4.0,
        })
        assert cli.main(["gamma-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        (written,) = tmp_path.glob("sweep_*.json")
        for text in (printed, written.read_text()):
            rows = json.loads(text, parse_constant=no_constant)["rows"]
            assert "recovery failed" in rows[0]["notes"]
            assert rows[0]["e_min"] is None and rows[0]["e_recovery"] is None
            assert rows[1]["converged"] is True

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"eps_schedule": []}, "eps schedule must not be empty"),
            ({"eps_schedule": [0.25, -0.125]}, "eps schedule must be positive"),
            ({"points_per_eps_width": 0}, "points_per_eps_width must be >= 1"),
            # rejected before the n = 1 profile is solved
            ({"n": 1, "eps_schedule": [0.25]}, "sweep requires n >= 2, got n = 1"),
        ],
    )
    def test_malformed_schedule_is_a_usage_error(
        self, tmp_path, capsys, setting, message
    ):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(setting))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gamma-sweep", "--config", str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hophase: error: {message}")

    def test_seed_is_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"eps_schedule": [0.25], "seed": 1}))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gamma-sweep", "--config", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "hophase: error: unknown config keys: ['seed']\n"
        )


class TestSupercritical:
    def test_probe_reports_onset(self, tmp_path, capsys):
        cfg = {
            "lambda_grid": [0.5, 2.0, 4.0],
            "epsilon": 0.0625,
            "k_max": 12,
            "amplitudes": [0.9, 1.2],
            "free_minimization": False,
        }
        path = tmp_path / "super.json"
        path.write_text(json.dumps(cfg))
        rc, payload = run(
            capsys, ["supercritical", "--config", str(path), "--out", str(tmp_path)]
        )
        assert rc == 0
        assert payload["monotone"] is True
        assert payload["onset_lambda"] is not None
        assert payload["best_energies"][-1] < 0.0
        assert (tmp_path / "supercritical_n2.json").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"lambda_grid": []}, "lambda_grid must not be empty"),
            ({"epsilon": 0}, "epsilon must be positive and finite, got 0"),
            ({"epsilon": -0.0625}, "epsilon must be positive and finite, got -0.0625"),
            ({"points_per_eps_width": 0}, "points_per_eps_width must be >= 1, got 0"),
            ({"k_max": 0}, "k_max must be >= 1, got 0"),
            ({"amplitudes": []}, "amplitudes must not be empty"),
        ],
    )
    def test_malformed_config_is_a_usage_error(
        self, tmp_path, capsys, setting, message
    ):
        cfg = {"lambda_grid": [0.5], "epsilon": 0.0625, **setting}
        path = tmp_path / "super.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["supercritical", "--config", str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hophase: error: {message}")


_ARRAY = "must be a JSON array of numbers"


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("gamma-sweep", {"eps_schedule": 0.25}, f"eps_schedule {_ARRAY}, got 0.25"),
        ("gamma-sweep", {"eps_schedule": "ab"}, f"eps_schedule {_ARRAY}, got 'ab'"),
        ("gamma-sweep", {"jumps": 0.5}, f"jumps {_ARRAY}, got 0.5"),
        ("gamma-sweep", {"interval": 4}, f"interval {_ARRAY}, got 4"),
        ("minimize", {"jumps": 0.5}, f"jumps {_ARRAY}, got 0.5"),
        ("minimize", {"interval": 4}, f"interval {_ARRAY}, got 4"),
        ("minimize", {"interval": [-4, 0, 4]}, "interval must have 2 entries, got 3"),
        ("supercritical", {"lambda_grid": 0.5}, f"lambda_grid {_ARRAY}, got 0.5"),
        ("supercritical", {"lambda_grid": "ab"}, f"lambda_grid {_ARRAY}, got 'ab'"),
        ("supercritical", {"lambda_grid": [True]}, f"lambda_grid {_ARRAY}, got [True]"),
        ("supercritical", {"amplitudes": 1.0}, f"amplitudes {_ARRAY}, got 1.0"),
        ("supercritical", {"interval": 1.0}, f"interval {_ARRAY}, got 1.0"),
    ],
)
def test_list_valued_key_of_another_type_is_a_usage_error(
    tmp_path, capsys, command, setting, message
):
    # each command checks its list-valued keys before any work
    assert config_error(tmp_path, capsys, command, setting) == message


def config_error(tmp_path, capsys, command, setting):
    """The one error line of command run on a config of its required keys
    updated by setting, after checking that it exits 2 and prints nothing."""
    required = {
        "gamma-sweep": {},
        "minimize": {"epsilon": 0.25},
        "supercritical": {"lambda_grid": [0.5], "epsilon": 0.0625},
    }[command]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**required, **setting}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(path)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "hophase: error: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    return captured.err[len(prefix):-1]


_INT, _NUM = "must be a JSON integer", "must be a JSON number"


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("minimize", {"epsilon": [0.25]}, f"epsilon {_NUM}, got [0.25]"),
        ("minimize", {"mass": "x"}, f"mass {_NUM} or null, got 'x'"),
        ("minimize", {"n": 2.5}, f"n {_INT}, got 2.5"),
        ("minimize", {"n": 2.0}, f"n {_INT}, got 2.0"),
        ("minimize", {"maxiter": 1.5}, f"maxiter {_INT}, got 1.5"),
        ("minimize", {"init": "random", "seed": 1.5}, f"seed {_INT}, got 1.5"),
        ("minimize", {"gtol": None}, f"gtol {_NUM}, got None"),
        # named as written, not as the "lam" it is passed on as
        pytest.param("minimize", {"lambda": True}, f"lambda {_NUM}, got True",
                     id="minimize-lambda-as-written"),
        ("minimize", {"potential": 4}, "potential must be a JSON string, got 4"),
        ("gamma-sweep", {"n": "2"}, f"n {_INT}, got '2'"),
        ("gamma-sweep", {"points_per_eps_width": "16"},
         f"points_per_eps_width {_INT}, got '16'"),
        # where a sweep's record goes is --out alone
        ("gamma-sweep", {"output_dir": 3}, "unknown config keys: ['output_dir']"),
        ("gamma-sweep", {"profile_T": True}, f"profile_T {_NUM}, got True"),
        ("supercritical", {"k_max": 2.5}, f"k_max {_INT}, got 2.5"),
        ("supercritical", {"free_minimization": "no"},
         "free_minimization must be a JSON boolean, got 'no'"),
        ("supercritical", {"free_minimization": 0},
         "free_minimization must be a JSON boolean, got 0"),
        ("supercritical", {"epsilon": "0.0625"}, f"epsilon {_NUM}, got '0.0625'"),
    ],
)
def test_scalar_key_of_another_type_is_a_usage_error(
    tmp_path, capsys, command, setting, message
):
    # a value is never cast: int() once ran n = 2.5 as 2, bool() ran "no" as true
    assert config_error(tmp_path, capsys, command, setting) == message


@pytest.mark.parametrize(
    "command, setting, message",
    [
        # float() of an integer past the float range raises OverflowError
        ("minimize", {"epsilon": 10**400}, "epsilon is past the float range"),
        ("minimize", {"jumps": [0.0, -(10**400)]}, "jumps is past the float range"),
        ("minimize", {"gtol": float("nan")}, "gtol must be finite, got nan"),
        ("gamma-sweep", {"lambda_hat": float("inf")}, "lambda_hat must be finite, got inf"),
        ("supercritical", {"lambda_grid": [0.5, float("-inf")]},
         "lambda_grid must be finite, got -inf"),
    ],
)
def test_number_that_is_no_finite_float_is_a_usage_error(
    tmp_path, capsys, command, setting, message
):
    assert config_error(tmp_path, capsys, command, setting) == message


@pytest.mark.parametrize(
    "command, setting, message",
    [
        # the key is reported as written, not as the "lam" it is renamed to
        ("supercritical", {"lambda": 1}, "unknown config keys: ['lambda']"),
        # two spellings of one key: neither may silently win
        ("minimize", {"lam": 0.0, "lambda": 0.01},
         "config gives both 'lam' and 'lambda'; give one"),
        ("gamma-sweep", {"lam": 0.0, "lambda": 0.01},
         "config gives both 'lam' and 'lambda'; give one"),
    ],
)
def test_lambda_key_is_checked_as_written(tmp_path, capsys, command, setting, message):
    assert config_error(tmp_path, capsys, command, setting) == message


def test_every_config_key_has_a_json_type():
    keys = cli._MINIMIZE_KEYS | cli._SWEEP_KEYS | cli._SUPER_KEYS
    assert keys == set(cli._CONFIG_TYPES)


class _Called(Exception):
    """Raised by the stand-in for an API function once it has recorded a call."""


def api_call(monkeypatch, tmp_path, api, argv, cfg=None):
    """The arguments, as bound to api's signature, with which main(argv)
    calls the API function api; cfg, if given, is the --config object."""
    signature, calls = inspect.signature(getattr(cli, api)), []

    def record(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        raise _Called

    monkeypatch.setattr(cli, api, record)
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(path)]
    with pytest.raises(_Called):
        cli.main(argv)
    (arguments,) = calls
    return arguments, signature


_RANDOM_INIT = {"epsilon": 0.25, "init": "random", "num_points": 65}
_PROBE = {"lambda_grid": [0.5], "epsilon": 0.0625}


@pytest.mark.parametrize(
    "api, argv, cfg, knobs",
    [
        ("estimate_constants", ["profile", "--n", "2"], None, {}),
        ("estimate_constants", ["profile", "--n", "2", "--T", "6", "--slack", "0"],
         None, {"truncation_T": 6.0, "slack": 0.0}),
        ("estimate_lambda_n", ["lambda-n", "--n", "2"], None,
         {"opts": LambdaOptions()}),
        ("estimate_lambda_n", ["lambda-n", "--n", "2", "--seed", "4"], None,
         {"opts": LambdaOptions(seed=4)}),
        ("minimize_energy", ["minimize"], _RANDOM_INIT, {}),
        ("minimize_energy", ["minimize"], {**_RANDOM_INIT, "maxiter": 7, "mass": None},
         {"maxiter": 7, "mass": None}),
        ("supercritical_probe", ["supercritical"], _PROBE, {}),
        ("supercritical_probe", ["supercritical"],
         {**_PROBE, "k_max": 3, "interval": [0, 2]},
         {"k_max": 3, "interval": (0.0, 2.0)}),
    ],
)
def test_api_defaults_fill_what_is_not_given(
    monkeypatch, tmp_path, api, argv, cfg, knobs
):
    # the CLI passes on only the options and keys given, and restates no
    # default of the API; a null reaches it as None
    arguments, signature = api_call(monkeypatch, tmp_path, api, argv, cfg)
    passed = {
        key: value for key, value in arguments.items()
        if signature.parameters[key].default is not inspect.Parameter.empty
    }
    assert passed == knobs


def test_numbers_given_as_json_integers_are_floats(monkeypatch, tmp_path):
    cfg = {"lambda_grid": [1, 2], "epsilon": 1, "interval": [0, 2]}
    arguments, _ = api_call(
        monkeypatch, tmp_path, "supercritical_probe", ["supercritical"], cfg
    )
    values = [*arguments["lambda_grid"], arguments["eps"], *arguments["interval"]]
    assert values == [1.0, 2.0, 1.0, 0.0, 2.0]
    assert all(type(x) is float for x in values)
