"""Tests for the interpolation quotient and the critical-constant search."""

import dataclasses

import numpy as np
import pytest

from hophase import (
    DiscreteEnergy,
    Field,
    Grid,
    LambdaOptions,
    estimate_lambda_n,
    quotient,
    subdivided_quotient,
    verify_subcritical,
)
from hophase import critical
from hophase.critical import DegenerateQuotient, SubcriticalReport
from hophase.energy import _SplineKernel
from hophase.ensembles import DEFAULT_KINDS, make_ensemble, random_field
from hophase.grids import apply_stencil, diff_operator, quadrature_weights


def oracle_subcritical(n, lam, ensemble_size, w, seed, extra_fields=()):
    """`verify_subcritical` one field at a time: each field drawn by
    `random_field` on its grid and checked by `quotient` (unit interval)
    or `subdivided_quotient` (every fourth field, on (0, 2) or (0, 3))."""
    rng = np.random.default_rng(seed)
    unit = Grid(0.0, 1.0, 401)
    fields = []
    for i in range(ensemble_size):
        if i % 4 == 3:
            K = int(rng.integers(2, 4))
            g = Grid(0.0, float(K), 400 * K + 1)
            fields.append((random_field(g, rng, DEFAULT_KINDS[i % 3]), True))
        else:
            fields.append((random_field(unit, rng, DEFAULT_KINDS[i % 3]), False))
    fields += [(f, False) for f in extra_fields]
    min_q, worst, skipped, violations = np.inf, -1, 0, []
    for idx, (f, sub) in enumerate(fields):
        try:
            qv = subdivided_quotient(f, n, w) if sub else quotient(f, n, w).value
        except DegenerateQuotient:
            skipped += 1
            continue
        if qv < min_q:
            min_q, worst = qv, idx
        if qv < lam:
            violations.append({"index": idx, "quotient": qv, "subdivided": sub})
    return SubcriticalReport(
        n, lam, len(fields) - skipped, skipped, float(min_q), worst, violations
    )


def bits(rep: SubcriticalReport):
    """Every number of a report, floats as their exact hex strings."""
    return (
        rep.num_checked, rep.num_skipped, rep.min_quotient.hex(), rep.worst_index,
        [(v["index"], float(v["quotient"]).hex(), v["subdivided"])
         for v in rep.violations],
    )


class TestQuotient:
    def test_linear_field_unit_interval(self, quartic):
        # u = x on (0,1), n = 2: numerator = int (x^2-1)^2 = 8/15 (the
        # second-derivative part vanishes), denominator = int 1 = 1
        u = Field.from_callable(Grid(0.0, 1.0, 201), lambda x: x)
        r = quotient(u, 2, quartic)
        assert r.value == pytest.approx(8.0 / 15.0, rel=1e-8)
        assert r.numerator_parts[1] == pytest.approx(0.0, abs=1e-18)
        assert r.denominator == pytest.approx(1.0, rel=1e-12)

    def test_linear_field_length_two(self, quartic):
        # u = x on (0,2): int_0^2 (x^2-1)^2 = 46/15; with the length
        # weights |I|^(-2) and |I|^2 the quotient is (46/60)/2 = 23/60,
        # up to the trapezoid rule's h^2 error term
        u = Field.from_callable(Grid(0.0, 2.0, 201), lambda x: x)
        assert quotient(u, 2, quartic).value == pytest.approx(
            23.0 / 60.0, rel=1e-3
        )

    def test_constant_fields_rejected(self, quartic):
        g = Grid(0.0, 1.0, 101)
        for c in (1.0, -1.0, 0.3):
            with pytest.raises(ValueError, match="quotient undefined"):
                quotient(Field(g, np.full(101, c)), 2, quartic)

    def test_scale_invariance(self, quartic):
        # carrying the same samples onto a stretched grid multiplies both
        # the weighted numerator and the denominator by sigma^(3-2n)
        g = Grid(0.0, 1.0, 181)
        for n in (2, 3):
            for u in make_ensemble(g, 6, seed=40 + n):
                base = quotient(u, n, quartic).value
                for sigma in (0.5, 2.0, 5.0):
                    v = Field(Grid(0.0, sigma, 181), u.values)
                    assert quotient(v, n, quartic).value == pytest.approx(
                        base, rel=1e-10
                    )

    def test_numerator_is_sum_of_squares(self, quartic):
        g = Grid(0.0, 1.3, 161)
        for u in make_ensemble(g, 12, seed=17):
            r = quotient(u, 2, quartic)
            assert r.numerator_parts[0] >= 0.0
            assert r.numerator_parts[1] >= 0.0
            assert r.denominator > 0.0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sign_flip_leaves_the_quotient_unchanged_bit_for_bit(self, quartic, n):
        # the quartic is even and its formula symmetric in t - 1 and t + 1,
        # so W(-u) has the bits of W(u), and the stencils' inner products
        # of -u are those of u negated: every part of Q is the same float
        fields = make_ensemble(Grid(0.0, 1.0, 401), 6, seed=60 + n)
        fields += make_ensemble(Grid(-0.5, 2.0, 501), 3, seed=n)
        for u in fields:
            r = quotient(u, n, quartic)
            s = quotient(Field(u.grid, -u.values), n, quartic)
            got = (s.value, *s.numerator_parts, s.denominator)
            want = (r.value, *r.numerator_parts, r.denominator)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reflection_leaves_the_quotient_within_the_inner_product_bound(
        self, quartic, n
    ):
        # x -> 1 - x reverses the samples.  The float windows are mirror
        # images up to the sign (-1)^k, so the exact D_k of the reversed
        # samples is the reversed exact D_k u times (-1)^k, and each
        # computed entry is within m eps (|D| |u|) of its exact one, the
        # bound of test_grids.py's stencil tests: the two computed entries
        # differ by at most delta = 2 m eps (|D| |u|).  Each quadrature sum
        # of N terms is within N eps of its exact value; the quartic's
        # samples are the same, only summed in reverse order.
        eps = np.finfo(float).eps
        fields = make_ensemble(Grid(0.0, 1.0, 401), 6, seed=70 + n)
        fields += make_ensemble(Grid(0.0, 2.5, 501), 3, seed=n)
        for u in fields:
            g, x = u.grid, u.values
            N, L, q = g.num_points, g.length, quadrature_weights(g)
            r = quotient(u, n, quartic)
            s = quotient(Field(g, x[::-1].copy()), n, quartic)
            bounds = [2 * N * eps * (q @ np.abs(quartic.eval(x)))]
            for k in (n - 1, n):
                windows = diff_operator(g, k)
                a = apply_stencil(windows, x)
                mirrored = (-1) ** k * apply_stencil(windows, x[::-1].copy())[::-1]
                delta = 2 * len(windows) * eps * apply_stencil(np.abs(windows), np.abs(x))
                assert np.all(np.abs(a - mirrored) <= delta)
                bounds.append(
                    q @ (delta * (2 * np.abs(a) + delta))
                    + 2 * N * eps * (q @ a**2 + q @ mirrored**2)
                )
            b_pot, b_den, b_high = bounds
            b_pot *= L ** (-(2 * n - 2))
            b_high *= L**2
            assert abs(s.numerator_parts[0] - r.numerator_parts[0]) <= b_pot
            assert abs(s.numerator_parts[1] - r.numerator_parts[1]) <= b_high
            assert abs(s.denominator - r.denominator) <= b_den
            num = sum(r.numerator_parts)
            assert abs(s.value - r.value) <= (
                (b_pot + b_high) / s.denominator
                + num * b_den / (r.denominator * s.denominator)
                + 2 * eps * (r.value + s.value)
            )

    def test_subdivided_matches_quotient_on_unit_interval(self, quartic):
        g = Grid(0.0, 1.0, 161)
        for u in make_ensemble(g, 5, seed=3):
            assert subdivided_quotient(u, 2, quartic) == pytest.approx(
                quotient(u, 2, quartic).value, rel=1e-12
            )

    def test_subdivided_requires_order_two(self, quartic):
        u = Field.from_callable(Grid(0.0, 2.0, 201), lambda x: x)
        with pytest.raises(ValueError, match="n >= 2"):
            subdivided_quotient(u, 1, quartic)

    def test_subdivided_is_quotient_with_unit_weights_bit_for_bit(self, quartic):
        for u in make_ensemble(Grid(0.0, 3.0, 241), 4, seed=8):
            pot, den, high = DiscreteEnergy(u.grid, 2).terms(u.values, quartic)
            assert subdivided_quotient(u, 2, quartic) == (pot + high) / den


class TestLambdaEstimate:
    def test_value_in_frozen_band(self, lambda_hat_2):
        # the finite-difference quotient of the sampled polynomial winner
        # lies 2.9e-5 above the exact polynomial value, well inside the band
        assert 0.0560 < lambda_hat_2.value < 0.0580

    def test_witness_attains_the_value(self, quartic, lambda_hat_2):
        r = quotient(lambda_hat_2.witness, 2, quartic)
        assert r.value == lambda_hat_2.value

    def test_grid_refinement_stability(self, quartic, lambda_hat_2, monkeypatch):
        monkeypatch.setattr(critical, "POLY_STARTS", 4)
        coarse = estimate_lambda_n(2, quartic, LambdaOptions(num_points=301))
        assert abs(coarse.value - lambda_hat_2.value) < 1e-3

    def test_diagnostics_and_per_start(self, lambda_hat_2):
        assert lambda_hat_2.n == 2
        assert lambda_hat_2.diagnostics["num_points"] == 501
        d = lambda_hat_2.diagnostics
        assert set(d) == {
            "num_points", "poly_stage_value", "messages", "steps", "num_starts"
        }
        assert min(lambda_hat_2.per_start) == d["poly_stage_value"]
        stops = ("gradient below gtol", "energy stagnation (roundoff floor)")
        # one stop message and one step count per polynomial start; every
        # start that is not degenerate stops on gtol or on stagnation,
        # below the cap
        assert (
            len(d["messages"]) == len(d["steps"])
            == len(lambda_hat_2.per_start) == d["num_starts"]
        )
        for value, message, steps in zip(
            lambda_hat_2.per_start, d["messages"], d["steps"]
        ):
            if np.isfinite(value):
                assert message in stops
                assert 0 < steps < LambdaOptions().maxiter

    def test_deterministic_starts_reach_the_value(
        self, quartic, lambda_hat_2, monkeypatch
    ):
        # the polynomial stage's ramp start alone
        monkeypatch.setattr(critical, "POLY_STARTS", 0)
        est = estimate_lambda_n(2, quartic)
        assert est.per_start == [est.diagnostics["poly_stage_value"]]
        assert est.value == pytest.approx(lambda_hat_2.value, rel=1e-9)

    @pytest.mark.parametrize(
        "n, seed", [(2, 0), (2, 7), (3, 0), (3, 7), (4, 0), (5, 0), (6, 0)]
    )
    def test_value_is_the_quotient_of_the_sampled_winner(
        self, quartic, monkeypatch, n, seed
    ):
        opts = LambdaOptions(seed=seed, maxiter=300)
        grid = Grid(0.0, 1.0, opts.num_points)
        kernel = _SplineKernel(n, (0.0, 1.0), 1, critical.POLY_DEGREE, 0)
        c, _ = critical._poly_stage(kernel, quartic, opts)
        u = kernel.sample(c, grid.nodes())

        sizes = []
        newton = critical.damped_newton

        def counted(fun, grad, hess, x0, **kwargs):
            sizes.append(len(x0))
            return newton(fun, grad, hess, x0, **kwargs)

        monkeypatch.setattr(critical, "damped_newton", counted)
        est = estimate_lambda_n(n, quartic, opts)
        # every Newton run is a polynomial start; none runs on the grid
        assert sizes and set(sizes) == {critical.POLY_DEGREE + 1}
        assert np.array_equal(est.witness.values, u)
        assert est.value == quotient(Field(grid, u), n, quartic).value
        assert est.diagnostics["num_starts"] == len(est.per_start)

    def test_order_beyond_the_stencils_is_rejected_up_front(
        self, quartic, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("polynomial stage ran")

        monkeypatch.setattr(critical, "_poly_stage", refuse)
        with pytest.raises(ValueError, match=r"n must be in \[1, 6\]; got n = 7"):
            estimate_lambda_n(7, quartic)

    def test_degenerate_polynomial_start_is_not_solved(self, quartic, monkeypatch):
        # at n = 3 the ramp -1 + 2x has u'' = 0, so its quotient is
        # undefined; without random starts the quadratic alone goes on
        monkeypatch.setattr(critical, "POLY_STARTS", 0)
        opts = LambdaOptions(num_points=101, maxiter=300)
        est = estimate_lambda_n(3, quartic, opts)
        d = est.diagnostics
        assert est.per_start[0] == np.inf
        assert d["messages"][0] == "degenerate start"
        assert d["steps"][0] == 0
        assert len(est.per_start) == d["num_starts"] == 2
        assert d["steps"][1] > 0
        assert d["poly_stage_value"] == est.per_start[1] < np.inf
        assert 0 < est.value < 2e-3

    def test_random_grid_starts_are_gone(self):
        with pytest.raises(TypeError):
            LambdaOptions(n_random_starts=4)
        assert len(dataclasses.fields(LambdaOptions)) == 3

    @pytest.mark.parametrize(
        "option", [{"poly_degree": 10}, {"accuracy_order": 4}, {"poly_starts": 8}]
    )
    def test_fixed_settings_are_not_options(self, option):
        # the polynomial degree is critical.POLY_DEGREE, the number of its
        # random starts critical.POLY_STARTS and the stencil accuracy
        # grids.ACCURACY_ORDER
        with pytest.raises(TypeError):
            LambdaOptions(**option)

    def test_potential_evaluations_are_bounded(self, quartic):
        # the line search stops where the quotient cannot resolve the step,
        # instead of halving toward 2^-45 at the end of every start
        calls = [0]

        def counted(u):
            calls[0] += 1
            return quartic.eval(u)

        counted_quartic = dataclasses.replace(quartic, eval=counted)
        estimate_lambda_n(2, counted_quartic, LambdaOptions(seed=0, maxiter=300))
        assert calls[0] <= 3500

    @pytest.mark.parametrize("n", [2, 3])
    def test_polynomial_stage_value_is_seed_independent(self, quartic, n):
        # the polynomial stage runs the quotient Newton over the Bernstein
        # coefficients, so every seed reaches the same minimum
        values = [
            estimate_lambda_n(
                n, quartic,
                LambdaOptions(seed=seed, num_points=101),
            ).diagnostics["poly_stage_value"]
            for seed in range(4)
        ]
        assert max(values) - min(values) <= 1e-12 * min(values)
        if n == 2:
            assert max(values) <= 0.0569362484466

    def test_no_start_runs_to_the_iteration_limit(self, quartic):
        # at n = 5 every start stops on its own in the Bernstein basis; in
        # the monomial basis one start ran its 3000 steps to Q = 1.44e-7,
        # against the winner's 2.18e-8
        d = estimate_lambda_n(5, quartic).diagnostics
        assert "iteration limit" not in d["messages"]
        solved = [s for s, m in zip(d["steps"], d["messages"]) if m != "degenerate start"]
        assert solved and max(solved) < 100
        assert d["poly_stage_value"] == pytest.approx(2.18415819932512e-08, rel=1e-12)

    def test_polynomial_stage_without_second_derivative(self, quartic, monkeypatch):
        # without W'' the polynomial stage runs Newton on a derived W''
        # and reaches the value of the closed-form W''
        monkeypatch.setattr(critical, "POLY_STARTS", 4)
        opts = LambdaOptions(num_points=61, maxiter=300)
        newton = estimate_lambda_n(2, quartic, opts)
        no_second = dataclasses.replace(quartic, eval_second_derivative=None)
        est = estimate_lambda_n(2, no_second, opts)
        assert np.isfinite(est.value)
        assert est.diagnostics["poly_stage_value"] == pytest.approx(
            newton.diagnostics["poly_stage_value"], rel=1e-9
        )

    def test_derived_second_derivative_matches_the_quartic(
        self, quartic, derived_quartic, no_lbfgs
    ):
        # without W'' every start takes Newton steps on the W'' derived
        # from W', and ends where the closed-form W'' does
        opts = LambdaOptions(num_points=101)
        ref = estimate_lambda_n(2, quartic, opts)
        est = estimate_lambda_n(2, derived_quartic, opts)
        assert est.value == pytest.approx(ref.value, rel=1e-10)

    def test_higher_order_constant_is_much_smaller(self, quartic, monkeypatch):
        monkeypatch.setattr(critical, "POLY_STARTS", 4)
        est3 = estimate_lambda_n(3, quartic, LambdaOptions(num_points=301))
        assert est3.value < 2e-3


class TestVerifySubcritical:
    def test_half_critical_is_clean(self, quartic, lambda_hat_2):
        lam = 0.5 * lambda_hat_2.value
        rep = verify_subcritical(2, lam, 300, quartic, seed=0)
        assert rep.passed
        assert rep.num_checked == 300
        assert rep.violations == []
        assert rep.min_quotient > lam

    def test_supercritical_witness_violates(self, quartic, lambda_hat_2):
        lam = 2.0 * lambda_hat_2.value
        rep = verify_subcritical(
            2, lam, 50, quartic, seed=0, extra_fields=(lambda_hat_2.witness,)
        )
        assert not rep.passed
        assert len(rep.violations) >= 1
        worst = min(v["quotient"] for v in rep.violations)
        assert worst == pytest.approx(lambda_hat_2.value, rel=1e-6)

    def test_order_three_band(self, quartic):
        rep = verify_subcritical(3, 4e-4, 100, quartic, seed=1)
        assert rep.passed

    def test_order_below_two_raises(self, quartic):
        with pytest.raises(ValueError, match="n >= 2"):
            verify_subcritical(1, 0.0, 8, quartic)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_lambda_that_is_not_finite_and_nonnegative_raises(self, quartic, lam):
        # a NaN lam compares False with every quotient, so it used to pass
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            verify_subcritical(2, lam, 20, quartic)

    def test_degenerate_field_is_skipped(self, quartic):
        constant = Field(Grid(0.0, 1.0, 101), np.full(101, 0.3))
        rep = verify_subcritical(2, 0.0, 8, quartic, extra_fields=(constant,))
        assert rep.num_skipped == 1
        assert rep.num_checked == 8
        assert rep.passed

    def test_only_degenerate_fields_do_not_pass(self, quartic):
        constant = Field(Grid(0.0, 1.0, 101), np.full(101, 0.3))
        rep = verify_subcritical(2, 0.0, 0, quartic, extra_fields=(constant,))
        assert rep.num_checked == 0 and rep.num_skipped == 1
        assert rep.violations == []
        assert not rep.passed

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("seed", (0, 5, 32001))
    def test_equals_the_per_field_oracle_bit_for_bit(self, quartic, n, seed):
        # the stacked path draws, evaluates and reduces the ensemble with
        # the bits of one random_field and one quotient per field; lam is
        # the median quotient, so about half the fields are violations,
        # and the zero extra field, whose derivatives are exactly 0 at
        # every n, is skipped
        constant = Field(Grid(0.0, 1.0, 101), np.zeros(101))
        extra = (constant, make_ensemble(Grid(0.0, 1.5, 301), 1, seed)[0])
        probe = oracle_subcritical(n, np.inf, 43, quartic, seed, extra)
        lam = float(np.median([v["quotient"] for v in probe.violations]))
        want = oracle_subcritical(n, lam, 43, quartic, seed, extra)
        got = verify_subcritical(n, lam, 43, quartic, seed=seed, extra_fields=extra)
        assert got.num_skipped == 1 and len(got.violations) >= 20
        assert bits(got) == bits(want)

    def test_empty_ensemble_rejected(self, quartic):
        with pytest.raises(ValueError, match="ensemble_size must be >= 0"):
            verify_subcritical(2, 0.0, -5, quartic)
        with pytest.raises(ValueError, match="nothing to check"):
            verify_subcritical(2, 0.0, 0, quartic)


class TestQuotientNewton:
    def kernel_and_functions(self, quartic):
        from hophase.critical import _quotient_functions

        kernel = _SplineKernel(2, (0.0, 1.0), 1, critical.POLY_DEGREE, 0)
        return kernel, _quotient_functions(kernel, quartic)

    def coefficients(self):
        k = np.arange(critical.POLY_DEGREE + 1)
        return np.cos(3.0 * k) / (1.0 + k)

    def test_newton_matrix_is_the_derivative_of_the_gradient(self, quartic):
        # the dense quotient Hessian, read back from its full band, against
        # central differences of the quotient gradient
        _, (_, grad, system) = self.kernel_and_functions(quartic)
        rng = np.random.default_rng(5)
        m, h = critical.POLY_DEGREE + 1, 1e-5
        vectors = [self.coefficients()] + [
            rng.normal(0.0, 1.0, m) / (1.0 + np.arange(m)) for _ in range(2)
        ]
        for v in vectors:
            s = system(v)
            assert (s.lo, s.up, s.c) == (m - 1, m - 1, None)
            i, j = np.indices((m, m))
            H = s.ab[m - 1 + i - j, j]
            fd = np.column_stack([
                (grad(v + h * e) - grad(v - h * e)) / (2.0 * h) for e in np.eye(m)
            ])
            np.testing.assert_allclose(H, fd, rtol=1e-6)

    def test_one_gbsv_per_factorization(self, quartic, monkeypatch):
        # the quotient's dense Hessian is solved for the right-hand side
        # alone, the mass-bordered Hessian for it and the constraint row
        from hophase import _solvers
        from hophase.critical import _minimize_quotient

        dgbsv, calls = _solvers.dgbsv, []

        def gbsv(lo, up, ab, b, **kwargs):
            calls.append(b.shape[1])
            return dgbsv(lo, up, ab, b, **kwargs)

        monkeypatch.setattr(_solvers, "dgbsv", gbsv)
        kernel, functions = self.kernel_and_functions(quartic)
        _, info = _minimize_quotient(functions, self.coefficients(), 50, gtol=1e-12)
        assert info.newton_iterations > 0
        assert calls and set(calls) == {1}
        assert info.factorizations == len(calls)

        calls.clear()
        grid, eps = Grid(-2.0, 2.0, 257), 0.25
        x = grid.nodes()
        kernel = DiscreteEnergy(grid, 2)
        _, info, _, converged = kernel.minimize(
            np.tanh(x / eps) + 0.1 * np.sin(3.0 * x), quartic,
            (1.0 / eps, -0.01 * eps, eps**3), 1e-7, 50, constraint=kernel.q,
        )
        assert converged and info.newton_iterations > 0
        assert calls and set(calls) == {2}
        assert info.factorizations == len(calls)

    def test_grad_reuses_the_terms_of_value_at_the_same_array(self, quartic):
        kernel, (value, grad, _) = self.kernel_and_functions(quartic)
        terms, count = kernel.terms, []

        def counted(*args):
            count.append(1)
            return terms(*args)

        kernel.terms = counted
        v = self.coefficients()
        value(v)
        g = grad(v)
        assert len(count) == 1
        # equal coefficients in another array, as the driver's accepted
        # step x + t d is to the line search's trial point
        np.testing.assert_array_equal(grad(v.copy()), g)
        assert len(count) == 1
        grad(v + 1e-3)
        assert len(count) == 2
