"""Tests for optimal-profile minimization and recovery sequences."""

import numpy as np
import pytest

from hophase import (
    DiscreteEnergy,
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
from hophase import hermite
from hophase.profiles import PROFILE_GTOL, default_starts, hermite_smoothed_step


def clamped_start(prob, u0):
    """u0 with the problem's clamp bands set to the wells, and the free
    slice between them."""
    b = prob.clamp_band
    u = np.array(u0, dtype=float)
    u[:b], u[-b:] = -1.0, 1.0
    return u, slice(b, prob.num_points - b)


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
        # damped Newton from the default starts, without a quasi-Newton phase
        res = minimize_profile(ProfileProblem(2, 0.0, 5.0, 2001, quartic))
        assert res.converged
        assert res.iterations <= 30

    def test_factorization_count(self, quartic):
        # from inside the spinodal region three Newton steps need tau = 0.1
        # and one tau = 0.01; climbing the ladder tau = 0, 1e-8, ..., 0.1
        # on each of them took 46 banded solves, while starting each step
        # at a tenth of the last accepted tau takes 25.  gtol stops the
        # run before the roundoff-noise phase, where the count would
        # depend on the platform's last bits
        prob = ProfileProblem(3, 2e-4, 10.0, 2001, quartic)
        u0, free = clamped_start(prob, 0.3 * np.tanh(prob.grid.nodes()))
        kernel = DiscreteEnergy(prob.grid, 3)
        _, info, _, converged = kernel.minimize(
            u0, quartic, (1.0, -2e-4, 1.0), 1e-3, 100, free=free
        )
        assert converged
        assert info.iterations <= 16
        assert info.factorizations <= 50
        assert info.factorizations < 46

    def test_verdict_uses_the_reported_floor(self, quartic):
        prob = ProfileProblem(2, 0.0, 4.0, 801, quartic)
        u0, free = clamped_start(prob, np.tanh(prob.grid.nodes()))
        kernel = DiscreteEnergy(prob.grid, 2)
        for gtol in (1e-8, 1e-14):
            _, info, floor, converged = kernel.minimize(
                u0, quartic, (1.0, 0.0, 1.0), gtol, 100, free=free
            )
            assert floor > 0.0
            assert converged == (info.gradient_norm < max(gtol, floor))
        # at gtol = 1e-14 only the roundoff floor certifies the minimizer
        assert converged and info.gradient_norm >= 1e-14
        # at the profiles' own gtol, this problem ends between gtol and the
        # floor, and the result says so
        res = minimize_profile(ProfileProblem(3, 2e-4, 10.0, 2001, quartic))
        assert PROFILE_GTOL <= res.gradient_norm_final < res.gradient_floor
        assert res.converged
        assert res.diagnosis.startswith("converged to the roundoff gradient floor")

    def test_failed_line_search_is_never_converged(self, quartic):
        # from tanh(x/0.5) the n = 4 run stops on a failed line search at
        # E ~ 896, with a gradient far below the roundoff floor of its
        # h^-8-sized stencil terms: a stop short of a minimizer all the same
        prob = ProfileProblem(4, 0.0, 10.0, 2001, quartic)
        res = minimize_profile(prob, init=np.tanh(prob.grid.nodes() / 0.5))
        assert res.diagnosis == "line search failed"
        assert res.gradient_norm_final < res.gradient_floor
        assert not res.converged

    @pytest.mark.parametrize("n, lam", [(2, 0.01), (3, 2e-4)])
    def test_two_direct_energies_per_start(self, quartic, monkeypatch, n, lam):
        # the line search reads DiscreteEnergy.energy_change, so each start
        # evaluates the energy directly at its first iterate and at the
        # minimizer it reports, and nowhere else
        calls = []
        energy = DiscreteEnergy.energy

        def counted(self, *args):
            calls.append(args)
            return energy(self, *args)

        monkeypatch.setattr(DiscreteEnergy, "energy", counted)
        prob = ProfileProblem(n, lam, 10.0, 2001, quartic)
        res = minimize_profile(prob)
        assert res.converged
        assert 0 < len(calls) <= 2 * len(default_starts(prob))
        kernel = DiscreteEnergy(prob.grid, n)
        assert res.energy_estimate == energy(
            kernel, res.minimizer.values, quartic, (1.0, -lam, 1.0)
        )

    def test_multistart_counts_every_start(self, quartic):
        prob = ProfileProblem(2, 0.0, 5.0, 2001, quartic)
        res = minimize_profile(prob)
        runs = [minimize_profile(prob, init=u0) for _, u0 in default_starts(prob)]
        assert res.factorizations == sum(r.factorizations for r in runs)
        assert res.iterations == sum(r.iterations for r in runs)
        best = min(runs, key=lambda r: r.energy_estimate)
        assert res.energy_estimate == best.energy_estimate
        assert res.factorizations > best.factorizations

    def test_tails_are_clamped_to_wells(self, quartic):
        prob = ProfileProblem(2, 0.0, 5.0, 801, quartic)
        res = minimize_profile(prob)
        band = prob.clamp_band
        assert np.all(res.minimizer.values[:band] == -1.0)
        assert np.all(res.minimizer.values[-band:] == 1.0)

    def test_descent_from_every_default_start(self, quartic):
        prob = ProfileProblem(2, 0.0, 5.0, 801, quartic)
        energy_of = lambda vals: evaluate(
            Field(prob.grid, vals), EnergyParams(2, 1.0, 0.0), quartic
        ).total
        res = minimize_profile(prob)
        for _, u0 in default_starts(prob):
            u0 = u0.copy()
            u0[: prob.clamp_band] = -1.0
            u0[-prob.clamp_band :] = 1.0
            assert res.energy_estimate <= energy_of(u0) + 1e-12

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_smoothed_step_is_solved_once_per_order(self, monkeypatch, n):
        # the cached polynomial gives the bits of a fresh exact solve, and a
        # second multistart solves nothing
        solve = hermite.solve_zeta
        calls = []
        monkeypatch.setattr(
            hermite, "solve_zeta", lambda y: calls.append(y) or solve(y)
        )
        hermite._step_polynomial.cache_clear()
        grid = Grid(-5.0, 5.0, 401)
        try:
            first = hermite_smoothed_step(grid, n)
            np.testing.assert_array_equal(hermite_smoothed_step(grid, n), first)
        finally:
            hermite._step_polynomial.cache_clear()
        nn = max(n, 2)
        assert calls == [(-1.0,) + (0.0,) * (nn - 1)]
        fresh = solve([-1.0] + [0.0] * (nn - 1))
        s = np.clip(grid.nodes() + 0.5, 0.0, 1.0)
        np.testing.assert_array_equal(first, hermite.eval_poly(fresh, s, 0))

    def test_custom_init_descends(self, quartic):
        prob = ProfileProblem(2, 0.0, 4.0, 601, quartic)
        init = np.sign(prob.grid.nodes())
        res = minimize_profile(prob, init=init)
        assert res.energy_estimate < 2.2
        with pytest.raises(ValueError):
            minimize_profile(prob, init=np.zeros(17))

    def test_problem_validation(self, quartic):
        with pytest.raises(ValueError):
            ProfileProblem(0, 0.0, 5.0, 801, quartic)
        with pytest.raises(ValueError):
            ProfileProblem(2, 0.0, -1.0, 801, quartic)
        with pytest.raises(ValueError):
            ProfileProblem(2, 0.0, 5.0, 200, quartic)
        for lam in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
                ProfileProblem(2, lam, 5.0, 801, quartic)
        for T in (np.nan, np.inf):
            with pytest.raises(ValueError, match="truncation_T must be positive and"):
                ProfileProblem(2, 0.0, T, 801, quartic)


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
        rec = build_recovery(u, profile5.minimizer, eps=0.25)
        x = rec.grid.nodes()
        outside = np.abs(x) > 0.25 * 5.0
        np.testing.assert_array_equal(rec.values[outside], u.evaluate(x[outside]))

    def test_l1_distance_bounded_by_window_size(self, profile5):
        # |rec - u| <= 2 on N windows of width 2 eps T each
        u = JumpFunction(-4.0, 4.0, (-4 / 3, 4 / 3))
        for eps in (0.25, 0.125):
            rec = build_recovery(u, profile5.minimizer, eps)
            diff = np.abs(rec.values - u.evaluate(rec.grid.nodes()))
            l1 = float(np.trapezoid(diff, rec.grid.nodes()))
            assert l1 <= 2 * u.jump_count * (2 * eps * 5.0)

    def test_energy_scales_with_jump_count(self, quartic, profile5):
        one = JumpFunction(-4.0, 4.0, (0.0,))
        two = JumpFunction(-4.0, 4.0, (-4 / 3, 4 / 3))
        p = EnergyParams(2, 0.125, 0.0)
        e1 = evaluate(build_recovery(one, profile5.minimizer, 0.125), p, quartic)
        e2 = evaluate(build_recovery(two, profile5.minimizer, 0.125), p, quartic)
        assert e2.total / e1.total == pytest.approx(2.0, rel=1e-4)

    def test_eps_too_large_rejected(self, profile5):
        u = JumpFunction(-1.0, 1.0, (0.0,))
        with pytest.raises(ValueError, match="delta0"):
            build_recovery(u, profile5.minimizer, eps=0.25)

    def test_asymmetric_profile_grid_rejected(self, quartic):
        u = JumpFunction(-4.0, 4.0, (0.0,))
        lopsided = Field.from_callable(Grid(-2.0, 3.0, 501), np.tanh)
        with pytest.raises(ValueError, match="symmetric"):
            build_recovery(u, lopsided, eps=0.1)

    def test_grid_resolution_tracks_eps(self, profile5):
        u = JumpFunction(-4.0, 4.0, (0.0,))
        rec = build_recovery(u, profile5.minimizer, 0.25, points_per_eps=32)
        assert rec.grid.num_points == round(8.0 / (0.25 / 32)) + 1
