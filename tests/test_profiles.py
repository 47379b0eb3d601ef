"""Tests for optimal-profile minimization and recovery sequences."""

import dataclasses

import numpy as np
import pytest

from hophase import (
    EnergyParams,
    Field,
    Grid,
    JumpFunction,
    ProfileProblem,
    build_recovery,
    estimate_constants,
    evaluate,
    minimize_profile,
)
from hophase import energy, hermite, profiles
from hophase.energy import BSpline, _SplineKernel
from hophase.profiles import (
    PROFILE_DECREMENT_RTOL, PROFILE_GTOL, PROFILE_H, _profile_kernel,
)

#: lambda_hat_n of the quartic, the Galerkin values of degree 14
LAMBDA_HAT = {2: 0.0569362, 3: 8.06882e-4, 4: 5.57671e-6, 5: 2.18416e-8, 6: 5.47825e-11}


def spline_of(problem):
    """The kernel of `minimize_profile` for the problem."""
    return _profile_kernel(problem.n, problem.truncation_T, PROFILE_H)


def recorded_solves(monkeypatch):
    """Replace the kernel's Newton driver by one that records the start,
    the minimizer and the SolveInfo of every call."""
    solves = []

    def driver(fun, grad, hess, x0, **kwargs):
        z, info = newton(fun, grad, hess, x0, **kwargs)
        solves.append((np.array(x0), z, info))
        return z, info

    newton = energy.damped_newton
    monkeypatch.setattr(energy, "damped_newton", driver)
    return solves


def scaled(w, a):
    """The double well a W."""
    return dataclasses.replace(
        w,
        eval=lambda t: a * w.eval(t),
        eval_derivative=lambda t: a * w.eval_derivative(t),
        eval_second_derivative=lambda t: a * w.eval_second_derivative(t),
    )


class TestProfileMinimization:
    @pytest.mark.parametrize("n", [2, 3])
    def test_derived_second_derivative_matches_the_quartic(
        self, quartic, derived_quartic, no_lbfgs, n
    ):
        # without W'' the minimizer runs damped Newton on the W'' derived
        # from W' and reaches the profile of the closed-form W''
        ref = minimize_profile(ProfileProblem(n, 0.0, 10.0, 2001, quartic))
        res = minimize_profile(ProfileProblem(n, 0.0, 10.0, 2001, derived_quartic))
        assert res.converged
        assert res.factorizations > 0
        assert res.energy_estimate == pytest.approx(ref.energy_estimate, rel=1e-10)

    def test_order_one_matches_classical_constant(self, quartic):
        # n = 1, lam = 0 is the classical sharp-interface problem whose
        # minimum is 2 int_{-1}^{1} sqrt(W) = 2 int (1-t^2) dt = 8/3
        res = minimize_profile(ProfileProblem(1, 0.0, 8.0, 1601, quartic))
        assert res.converged
        assert res.energy_estimate == pytest.approx(8.0 / 3.0, rel=1e-6)

    def test_order_two_constant_stable_under_truncation_doubling(
        self, quartic, profile_constant_2
    ):
        res5 = minimize_profile(ProfileProblem(2, 0.0, 5.0, 1001, quartic))
        assert 2.05 < profile_constant_2 < 2.15
        assert res5.energy_estimate == pytest.approx(
            profile_constant_2, rel=5e-3
        )

    def test_newton_first_iteration_count(self, quartic):
        # damped Newton from the tanh start, without a quasi-Newton phase
        res = minimize_profile(ProfileProblem(2, 0.0, 5.0, 2001, quartic))
        assert res.converged
        assert res.iterations <= 30

    def test_factorization_count(self, quartic):
        # from inside the spinodal region several Newton steps need
        # tau = 1 and the tau ladder down from it; climbing the ladder
        # tau = 0, 1e-8, ..., 1 on each of them took 78 banded solves,
        # while starting each step at a tenth of the last accepted tau
        # takes 38, the Newton decrement's solve included; the run ends
        # stationary, on a state of three layers
        prob = ProfileProblem(3, 2e-4, 10.0, 2001, quartic)
        init = Field.from_callable(prob.grid, lambda x: 0.3 * np.tanh(x))
        res = minimize_profile(prob, init=init)
        assert 0.0 <= res.newton_decrement <= PROFILE_DECREMENT_RTOL
        assert res.iterations <= 25
        assert res.factorizations <= 45

    def test_several_layers_are_no_converged_profile(self, quartic):
        # from 0.3 tanh the Newton run is stationary at three layers,
        # -1 -> +1 -> -1 -> +1, about 2.76 times the one-layer energy: no
        # profile, whatever its Newton decrement
        prob = ProfileProblem(3, 2e-4, 10.0, 2001, quartic)
        init = Field.from_callable(prob.grid, lambda x: 0.3 * np.tanh(x))
        res = minimize_profile(prob, init=init)
        assert res.energy_estimate == pytest.approx(5.7409152, rel=1e-7)
        assert 0.0 <= res.newton_decrement <= PROFILE_DECREMENT_RTOL
        assert not res.converged
        assert "3 layers" in res.diagnosis
        one = minimize_profile(prob)
        assert one.converged and one.diagnosis == ""
        assert one.energy_estimate == pytest.approx(2.0805547890, rel=1e-10)

    def test_verdict_uses_the_newton_decrement(self, quartic):
        # the n = 3 run stops on energy stagnation with a gradient above
        # PROFILE_GTOL, roundoff of its h^-6-sized stiffness terms, and a
        # Newton decrement far below its tolerance: converged
        res = minimize_profile(ProfileProblem(3, 2e-4, 10.0, 2001, quartic))
        assert res.gradient_norm_final >= PROFILE_GTOL
        assert 0.0 <= res.newton_decrement <= PROFILE_DECREMENT_RTOL
        assert res.converged and res.diagnosis == ""
        # the verdict is the decrement test, also at n = 2
        res = minimize_profile(ProfileProblem(2, 0.01, 10.0, 2001, quartic))
        assert res.converged == (
            abs(res.newton_decrement)
            <= PROFILE_DECREMENT_RTOL * max(1.0, abs(res.energy_estimate))
        )

    def test_capped_run_is_not_converged(self, quartic, monkeypatch):
        # one Newton step from tanh leaves a decrement far above tolerance
        monkeypatch.setattr(profiles, "PROFILE_MAXITER", 1)
        res = minimize_profile(ProfileProblem(4, 0.0, 10.0, 2001, quartic))
        assert res.iterations == 1
        assert res.newton_decrement > 1e-6
        assert not res.converged
        assert res.diagnosis.startswith("iteration limit; Newton decrement")

    def test_a_last_allowed_step_that_converges_is_converged(self, quartic, monkeypatch):
        # the uncapped n = 2 profile converges in 3 steps; capped at 3 it is
        # the same spline and converged, not stopped by its cap
        problem = ProfileProblem(2, 0.0, 10.0, 2001, quartic)
        free = minimize_profile(problem)
        assert free.iterations == 3 and free.converged
        monkeypatch.setattr(profiles, "PROFILE_MAXITER", 3)
        capped = minimize_profile(problem)
        assert capped.spline.coefficients.tobytes() == free.spline.coefficients.tobytes()
        assert capped.converged and capped.diagnosis == ""

    def test_failed_line_search_is_never_converged(self, quartic, monkeypatch):
        # a line search that finds no decrease ends the run short of a
        # minimizer, whatever the decrement
        monkeypatch.setattr(
            _SplineKernel, "energy_change", lambda *args: lambda t: 1.0
        )
        res = minimize_profile(ProfileProblem(2, 0.0, 10.0, 2001, quartic))
        assert res.iterations == 0
        assert res.diagnosis.startswith("line search failed")
        assert not res.converged

    @pytest.mark.parametrize("n, lam", [(2, 0.01), (3, 2e-4)])
    def test_two_direct_energies_per_start(self, quartic, monkeypatch, n, lam):
        # the line search reads _SplineKernel.energy_change, so the one
        # start evaluates the energy directly at its first iterate and at
        # the minimizer it reports, and nowhere else
        calls = []
        direct = _SplineKernel.energy

        def counted(self, c, *args):
            calls.append(c)
            return direct(self, c, *args)

        monkeypatch.setattr(_SplineKernel, "energy", counted)
        prob = ProfileProblem(n, lam, 10.0, 2001, quartic)
        res = minimize_profile(prob)
        assert res.converged
        assert len(calls) == 2
        kernel = spline_of(prob)
        np.testing.assert_array_equal(
            kernel.sample(calls[-1], prob.grid.nodes()), res.minimizer.values
        )
        assert res.energy_estimate == direct(
            kernel, calls[-1], quartic, (1.0, -lam, 1.0)
        )

    def test_one_start_counts_its_steps(self, quartic, monkeypatch):
        # one damped-Newton run from tanh at the Greville abscissae; its
        # steps and factorizations, plus the decrement's one, are the
        # result's
        solves = recorded_solves(monkeypatch)
        prob = ProfileProblem(2, 0.0, 5.0, 2001, quartic)
        res = minimize_profile(prob)
        assert len(solves) == 1
        x0, _, info = solves[0]
        kernel = spline_of(prob)
        np.testing.assert_array_equal(x0, np.tanh(kernel.greville[kernel.free]))
        assert res.iterations == info.iterations > 0
        assert res.factorizations == info.factorizations

    def test_tails_are_clamped_to_wells(self, quartic, monkeypatch):
        # the first and last n coefficients stay at the wells, so the
        # profile is -1 and +1 at -T and T and joins the wells C^(n-1):
        # its derivatives of order 1 .. n - 1 vanish there
        solves = recorded_solves(monkeypatch)
        for n in (1, 2, 3, 4):
            prob = ProfileProblem(n, 0.0, 5.0, 801, quartic)
            res = minimize_profile(prob)
            kernel = spline_of(prob)
            c = kernel.coefficients(np.zeros(kernel.size))
            c[kernel.free] = solves[-1][1]
            assert res.minimizer.values[0] == -1.0 and res.minimizer.values[-1] == 1.0
            np.testing.assert_array_equal(
                kernel.sample(c, prob.grid.nodes()), res.minimizer.values
            )
            ends = np.array([-5.0, 5.0])
            spans = np.array([kernel.p, kernel.size - 1])
            ders = energy._bspline_derivatives(kernel.knots, kernel.p, spans, ends, n)
            window = spans - kernel.p + np.arange(kernel.p + 1)[:, None]
            at_ends = np.einsum("kai,ai->ki", ders, c[window])
            np.testing.assert_array_equal(at_ends[0], [-1.0, 1.0])
            assert np.abs(at_ends[1:n]).max(initial=0.0) <= 1e-9
            assert np.abs(at_ends[n]).max() > 1e-6

    def test_descent_from_every_default_start(self, quartic):
        # the one default start is tanh at the Greville abscissae
        prob = ProfileProblem(2, 0.0, 5.0, 801, quartic)
        kernel = spline_of(prob)
        start = kernel.energy(
            kernel.coefficients(np.tanh(kernel.greville)), quartic, (1.0, 0.0, 1.0)
        )
        res = minimize_profile(prob)
        assert res.energy_estimate < start

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_smoothed_step_is_solved_once_per_order(self, monkeypatch, n):
        # the cached step polynomial of the ensembles' smoothed step gives
        # the bits of a fresh exact solve, and a second call solves nothing
        solve = hermite.solve_zeta
        calls = []
        monkeypatch.setattr(
            hermite, "solve_zeta", lambda y: calls.append(y) or solve(y)
        )
        hermite._step_polynomial.cache_clear()
        nn = max(n, 2)
        s = np.linspace(0.0, 1.0, 101)
        try:
            first = hermite.eval_poly(hermite._step_polynomial(nn), s, 0)
            np.testing.assert_array_equal(
                hermite.eval_poly(hermite._step_polynomial(nn), s, 0), first
            )
        finally:
            hermite._step_polynomial.cache_clear()
        assert calls == [(-1.0,) + (0.0,) * (nn - 1)]
        fresh = solve([-1.0] + [0.0] * (nn - 1))
        np.testing.assert_array_equal(first, hermite.eval_poly(fresh, s, 0))

    def test_custom_init_descends(self, quartic):
        prob = ProfileProblem(2, 0.0, 4.0, 601, quartic)
        res = minimize_profile(prob, init=Field.from_callable(prob.grid, np.sign))
        assert res.converged
        assert res.energy_estimate < 2.2
        # a Field on another grid is read at the Greville abscissae too
        field = Field(Grid(-4.0, 4.0, 1001), np.sign(Grid(-4.0, 4.0, 1001).nodes()))
        assert minimize_profile(prob, init=field).energy_estimate == pytest.approx(
            res.energy_estimate, rel=1e-12
        )
        with pytest.raises(ValueError):
            minimize_profile(prob, init=Field(prob.grid, np.zeros(17)))

    def test_grid_only_samples_the_minimizer(self, quartic):
        # the solve never reads the grid: ten samples give the bits of 2001
        coarse = minimize_profile(ProfileProblem(2, 0.0, 4.0, 10, quartic))
        fine = minimize_profile(ProfileProblem(2, 0.0, 4.0, 2001, quartic))
        for key in ("energy_estimate", "iterations", "newton_decrement"):
            assert getattr(coarse, key) == getattr(fine, key)
        assert coarse.minimizer.grid == Grid(-4.0, 4.0, 10)
        np.testing.assert_array_equal(
            coarse.minimizer.values, fine.spline(Grid(-4.0, 4.0, 10).nodes())
        )

    def test_problem_validation(self, quartic):
        with pytest.raises(ValueError):
            ProfileProblem(0, 0.0, 5.0, 801, quartic)
        with pytest.raises(ValueError, match=r"n must be in \[1, 6\]; got n = 7"):
            ProfileProblem(7, 0.0, 5.0, 801, quartic)
        with pytest.raises(ValueError):
            ProfileProblem(2, 0.0, -1.0, 801, quartic)
        with pytest.raises(ValueError, match="grid requires num_points >= 2"):
            ProfileProblem(2, 0.0, 5.0, 1, quartic)
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
                ProfileProblem(2, lam, 5.0, 801, quartic)
        for T in (np.nan, np.inf):
            with pytest.raises(ValueError, match="truncation_T must be positive and"):
                ProfileProblem(2, 0.0, T, 801, quartic)


class TestSplineKernel:
    """The exactly integrated B-spline space of the profiles."""

    @pytest.mark.parametrize(
        "n, lam", [(3, 0.0), (3, 1e-4), (2, 0.0), (2, 0.01)]
    )
    def test_scaling_law(self, quartic, monkeypatch, n, lam):
        # W -> a W with T and h scaled by sigma = a^(-1/(2n)) is the same
        # problem in x / sigma, so the energy is a^((2n-1)/(2n)) times the
        # energy at lam a^(-1/n); sigma = 1/2 keeps every scaling exact
        sigma = 0.5
        a = sigma ** (-2 * n)
        ref = minimize_profile(ProfileProblem(n, lam * sigma**2, 10.0, 2001, quartic))
        monkeypatch.setattr(profiles, "PROFILE_H", PROFILE_H * sigma)
        res = minimize_profile(
            ProfileProblem(n, lam, 10.0 * sigma, 2001, scaled(quartic, a))
        )
        assert ref.converged and res.converged
        assert res.energy_estimate == pytest.approx(
            a ** ((2 * n - 1) / (2 * n)) * ref.energy_estimate, rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    def test_values_do_not_rise_under_refinement(self, quartic, monkeypatch, n):
        # halving h gives a nested space, so the minimum cannot rise beyond
        # the convergence tolerance
        prob = ProfileProblem(n, 0.0, 10.0, 2001, quartic)
        coarse = minimize_profile(prob)
        monkeypatch.setattr(profiles, "PROFILE_H", PROFILE_H / 2)
        fine = minimize_profile(prob)
        assert coarse.converged and fine.converged
        assert fine.energy_estimate <= coarse.energy_estimate + (
            PROFILE_DECREMENT_RTOL * coarse.energy_estimate
        )

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    @pytest.mark.parametrize("frac", (0.0, 0.3))
    def test_one_start_converges_in_ten_steps(self, quartic, n, frac):
        res = minimize_profile(
            ProfileProblem(n, frac * LAMBDA_HAT[n], 10.0, 2001, quartic)
        )
        assert res.converged, res.diagnosis
        assert res.iterations <= 10
        # below the energy of the best tanh(x/s) on the profile grid
        params = EnergyParams(n, 1.0, frac * LAMBDA_HAT[n])
        x = res.minimizer.grid.nodes()
        best_tanh = min(
            evaluate(Field(res.minimizer.grid, np.tanh(x / s)), params, quartic).total
            for s in (0.75, 1.0, 1.5, 2.0)
        )
        assert res.energy_estimate < best_tanh

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gradient_and_hessian_are_the_derivatives(self, quartic, n):
        # central differences of the energy along a random direction, and
        # of the gradient for the Hessian's band
        kernel = _profile_kernel(n, 3.0, 0.5)
        rng = np.random.default_rng(n)
        c = kernel.coefficients(
            np.tanh(kernel.greville) + 0.1 * rng.standard_normal(kernel.size)
        )
        coef = (1.0, -0.3, 1.0)
        v = np.zeros(kernel.size)
        v[kernel.free] = rng.standard_normal(kernel.size - 2 * kernel.fixed)
        t = 1e-5
        g = kernel.grad(c, quartic, coef)
        de = kernel.energy(c + t * v, quartic, coef) - kernel.energy(
            c - t * v, quartic, coef
        )
        assert g @ v == pytest.approx(de / (2 * t), rel=1e-6)
        ab, p, m = kernel.hess(c, quartic, coef), kernel.p, kernel.size - 2 * n
        H = np.zeros((m, m))
        for k in range(-p, p + 1):
            H += np.diag(ab[p - k, max(k, 0):m + min(k, 0)], k)
        dg = kernel.grad(c + t * v, quartic, coef) - kernel.grad(
            c - t * v, quartic, coef
        )
        hv = H @ v[kernel.free]
        assert np.abs(hv - dg[kernel.free] / (2 * t)).max() <= 1e-6 * np.abs(hv).max()

    @pytest.mark.parametrize("n", (1, 3, 6))
    def test_gradient_adds_in_the_order_of_slice_adds(self, quartic, n):
        # reference: each element's p + 1 entries added by p + 1 slice adds
        # onto zeros; grad takes the same bits, and the rows of grads for
        # two triples, summed by another matrix product, the same values
        kernel = _profile_kernel(n, 3.0, 0.5)
        rng = np.random.default_rng(20 + n)
        c = np.tanh(kernel.greville) + 0.1 * rng.standard_normal(kernel.size)
        coefs = ((1.0, -0.3, 1.0), (0.0, 1.0, 0.0))
        E, p = kernel.num_elements, kernel.p
        v = kernel._values(c)
        for i, (c_pot, c_low, c_high) in enumerate(coefs):
            s = np.empty_like(v)
            s[:, 0] = c_pot * quartic.eval_derivative(v[:, 0])
            s[:, 1] = 2.0 * c_low * v[:, 1]
            s[:, 2] = 2.0 * c_high * v[:, 2]
            s *= kernel.wts[:, None]
            r = (s.reshape(E, 1, -1) @ kernel.tables.reshape(E, -1, p + 1))[:, 0]
            ref = np.zeros(kernel.size)
            for a in range(p + 1):
                ref[a:a + E] += r[:, a]
            np.testing.assert_array_equal(kernel.grad(c, quartic, coefs[i]), ref)
            np.testing.assert_allclose(
                kernel.grads(c, quartic, coefs)[i], ref, rtol=0.0,
                atol=64 * np.finfo(float).eps * np.abs(r).sum(),
            )

    @pytest.mark.parametrize("p", (1, 4, 10))
    def test_basis_recursion_matches_the_loop(self, p):
        # reference: the Cox-de Boor recursion of Piegl & Tiller A2.2,
        # one B-spline at a time
        kernel = _SplineKernel(2, (-1.0, 2.0), 5, p, 0)
        x = np.linspace(-1.0, 2.0, 37)
        knots = kernel.knots
        spans = np.clip(np.searchsorted(knots, x, side="right") - 1, p, kernel.size - 1)
        left, right = np.empty((p + 1, len(x))), np.empty((p + 1, len(x)))
        N = np.ones((1, len(x)))
        for j in range(1, p + 1):
            left[j] = x - knots[spans + 1 - j]
            right[j] = knots[spans + j] - x
            prev, N = N, np.empty((j + 1, len(x)))
            saved = 0.0
            for r in range(j):
                temp = prev[r] / (right[r + 1] + left[j - r])
                N[r] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            N[j] = saved
        got = energy._bspline_derivatives(knots, p, spans, x, 0)[0]
        np.testing.assert_array_equal(got, N)

    @pytest.mark.parametrize("n", (1, 3, 6))
    def test_quadrature_is_exact_for_the_quartic(self, quartic, n):
        # 2p + 1 Gauss nodes per element integrate W(f), of degree 4p, as
        # exactly as 4p nodes do
        kernel = _profile_kernel(n, 3.0, 0.5)
        rng = np.random.default_rng(10 + n)
        c = kernel.coefficients(
            np.tanh(kernel.greville) + 0.2 * rng.standard_normal(kernel.size)
        )
        pot = kernel.terms(c, quartic)[0]
        nodes, wts = np.polynomial.legendre.leggauss(4 * kernel.p)
        edges = np.unique(kernel.knots)
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
        ref = float(np.sum((half * wts).ravel() * quartic.eval(kernel.sample(c, x))))
        assert pot == pytest.approx(ref, rel=1e-13)


class TestConstantsEstimate:
    def test_sandwich_mid_subcritical(self, quartic, lambda_hat_2):
        lam = 0.3 * lambda_hat_2.value
        est = estimate_constants(
            2,
            lam,
            quartic,
            truncation_T=6.0,
            num_points=1201,
            lambda_hat=lambda_hat_2.value,
        )
        assert est.sandwich_ok
        assert est.c_hat_lam <= est.c_hat_0
        assert est.c_hat_lam >= (1 - lam / lambda_hat_2.value) * est.c_hat_0 * 0.98

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, quartic, lam):
        # a NaN lam once returned C_hat_lam = NaN
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            estimate_constants(2, lam, quartic, num_points=801)

    def test_bad_problem_is_rejected_before_any_solve(self, quartic, monkeypatch):
        from hophase import profiles

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the problem")

        monkeypatch.setattr(profiles, "estimate_lambda_n", no_solve)
        monkeypatch.setattr(profiles, "minimize_profile", no_solve)
        with pytest.raises(ValueError, match="truncation_T must be positive and"):
            estimate_constants(2, 0.01, quartic, truncation_T=np.inf)

    def test_supercritical_lam_rejected(self, quartic):
        with pytest.raises(ValueError, match="not subcritical"):
            estimate_constants(2, 0.2, quartic, lambda_hat=0.057)

    def test_lam_zero_shortcut(self, quartic):
        est = estimate_constants(
            2, 0.0, quartic, truncation_T=5.0, num_points=801
        )
        assert est.c_hat_0 == est.c_hat_lam
        assert est.result_0 is est.result_lam

    def test_negative_lam_rejected(self, quartic):
        with pytest.raises(ValueError):
            estimate_constants(2, -0.01, quartic)

    def test_nan_lambda_hat_rejected_before_any_solve(self, quartic, monkeypatch):
        # no comparison rejects lam against a NaN bound, so the sandwich
        # once passed unchecked; inf, the bound at lam = 0, stays legal
        def refuse(*args, **kwargs):
            raise AssertionError("solved before rejecting lambda_hat")

        monkeypatch.setattr(profiles, "minimize_profile", refuse)
        monkeypatch.setattr(profiles, "estimate_lambda_n", refuse)
        with pytest.raises(ValueError, match="^lambda_hat must not be NaN, got nan$"):
            estimate_constants(2, 0.01, quartic, lambda_hat=float("nan"))
        with pytest.raises(AssertionError, match="solved before"):
            estimate_constants(2, 0.0, quartic, lambda_hat=np.inf)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_lambda_hat_rejected_before_any_solve(
        self, quartic, monkeypatch, bad
    ):
        # at lam = 0, lambda_hat = 0 once divided by zero and -1 passed the
        # sandwich
        def refuse(*args, **kwargs):
            raise AssertionError("solved before rejecting lambda_hat")

        monkeypatch.setattr(profiles, "minimize_profile", refuse)
        with pytest.raises(ValueError, match=f"^lambda_hat must be positive, got {bad}$"):
            estimate_constants(2, 0.0, quartic, lambda_hat=bad)

    @pytest.mark.parametrize("slack", [-0.01, np.nan, np.inf])
    def test_negative_or_non_finite_slack_rejected(self, quartic, slack):
        # under such a slack the sandwich verdict says nothing
        with pytest.raises(ValueError, match="slack must be finite and >= 0"):
            estimate_constants(2, 0.0, quartic, slack=slack)


class TestJumpFunction:
    def test_evaluate_alternates_between_wells(self):
        u = JumpFunction(-4.0, 4.0, (-4.0 / 3.0, 4.0 / 3.0))
        x = np.array([-3.0, 0.0, 3.0])
        np.testing.assert_array_equal(u.evaluate(x), [-1.0, 1.0, -1.0])
        flipped = JumpFunction(-4.0, 4.0, (0.0,), left_value=1.0)
        np.testing.assert_array_equal(
            flipped.evaluate(np.array([-1.0, 1.0])), [1.0, -1.0]
        )

    def test_delta0_pads_with_endpoints(self):
        assert JumpFunction(-4.0, 4.0, (0.0,)).delta0 == 4.0
        assert JumpFunction(-4.0, 4.0, (-4 / 3, 4 / 3)).delta0 == pytest.approx(
            8.0 / 3.0
        )
        assert JumpFunction(0.0, 10.0, (1.0, 5.0)).delta0 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            JumpFunction(0.0, 1.0, (1.5,))
        with pytest.raises(ValueError):
            JumpFunction(0.0, 1.0, (0.7, 0.3))
        with pytest.raises(ValueError):
            JumpFunction(0.0, 1.0, (0.5,), left_value=0.0)
        with pytest.raises(ValueError):
            JumpFunction(1.0, 0.0, ())


@pytest.fixture(scope="module")
def profile5(quartic):
    return minimize_profile(ProfileProblem(2, 0.0, 5.0, 1001, quartic))


class TestRecovery:
    def test_matches_jump_function_away_from_layers(self, profile5):
        u = JumpFunction(-4.0, 4.0, (0.0,))
        rec = build_recovery(u, profile5.spline, eps=0.25)
        x = rec.grid.nodes()
        outside = np.abs(x) > 0.25 * 5.0
        np.testing.assert_array_equal(rec.values[outside], u.evaluate(x[outside]))

    def test_l1_distance_bounded_by_window_size(self, profile5):
        # |rec - u| <= 2 on N windows of width 2 eps T each
        u = JumpFunction(-4.0, 4.0, (-4 / 3, 4 / 3))
        for eps in (0.25, 0.125):
            rec = build_recovery(u, profile5.spline, eps)
            diff = np.abs(rec.values - u.evaluate(rec.grid.nodes()))
            l1 = float(np.trapezoid(diff, rec.grid.nodes()))
            assert l1 <= 2 * u.jump_count * (2 * eps * 5.0)

    def test_energy_scales_with_jump_count(self, quartic, profile5):
        one = JumpFunction(-4.0, 4.0, (0.0,))
        two = JumpFunction(-4.0, 4.0, (-4 / 3, 4 / 3))
        p = EnergyParams(2, 0.125, 0.0)
        e1 = evaluate(build_recovery(one, profile5.spline, 0.125), p, quartic)
        e2 = evaluate(build_recovery(two, profile5.spline, 0.125), p, quartic)
        assert e2.total / e1.total == pytest.approx(2.0, rel=1e-4)

    @pytest.mark.parametrize("left_value", [-1.0, 1.0])
    def test_windows_are_the_profile_spline_bit_for_bit(self, profile5, left_value):
        # the recovery pastes the profile's own spline, resampling nothing:
        # f(+-(x - s)/eps) on each window, u outside
        u = JumpFunction(-4.0, 4.0, (-2.5, 0.0, 2.5), left_value)
        eps = 0.125
        rec = build_recovery(u, profile5.spline, eps)
        x = rec.grid.nodes()
        want = u.evaluate(x)
        sign = -left_value
        for s in u.jumps:
            z = (x - s) / eps
            window = np.abs(z) <= 5.0
            assert window.sum() >= 2 * 5.0 * 32
            want[window] = profile5.spline(sign * z[window])
            sign = -sign
        np.testing.assert_array_equal(rec.values, want)

    def test_eps_too_large_rejected(self, profile5):
        u = JumpFunction(-1.0, 1.0, (0.0,))
        with pytest.raises(ValueError, match="delta0"):
            build_recovery(u, profile5.spline, eps=0.25)

    def test_asymmetric_profile_grid_rejected(self, quartic):
        u = JumpFunction(-4.0, 4.0, (0.0,))
        lopsided = BSpline.not_a_knot(Field.from_callable(Grid(-2.0, 3.0, 501), np.tanh))
        with pytest.raises(ValueError, match="symmetric"):
            build_recovery(u, lopsided, eps=0.1)

    def test_grid_resolution_tracks_eps(self, profile5):
        u = JumpFunction(-4.0, 4.0, (0.0,))
        rec = build_recovery(u, profile5.spline, 0.25, points_per_eps=32)
        assert rec.grid.num_points == round(8.0 / (0.25 / 32)) + 1

    @pytest.mark.parametrize("points_per_eps", [0.0, -1.0, np.nan, np.inf])
    def test_points_per_eps_must_be_positive_and_finite(self, profile5, points_per_eps):
        # 0 and inf once raised ZeroDivisionError, and nan failed to convert
        # the point count to an integer
        u = JumpFunction(-4.0, 4.0, (0.0,))
        with pytest.raises(ValueError, match="points_per_eps must be positive and finite"):
            build_recovery(u, profile5.spline, 0.25, points_per_eps=points_per_eps)
