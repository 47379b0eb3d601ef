"""Tests for energy evaluation, rescaling, and the exact discrete gradient."""

import numpy as np
import pytest
import scipy.sparse as sp

from hophase import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    Field,
    Grid,
    ProfileProblem,
    SweepConfig,
    estimate_lambda_n,
    evaluate,
    evaluate_rescaled,
    gradient,
    make_ensemble,
    minimize_profile,
    quotient,
)
from hophase.grids import ACCURACY_ORDER, MAX_DERIVATIVE_ORDER
from hophase.profiles import _profile_kernel

from conftest import operators, quadratic_forms, to_band, written_bands


def band_to_dense(ab, lo):
    """The square matrix held in band storage ab[up + i - j, j] = A[i, j]."""
    up = ab.shape[0] - lo - 1
    m = ab.shape[1]
    return sp.dia_matrix((ab, up - np.arange(ab.shape[0])), shape=(m, m)).toarray()


class TestEvaluate:
    def test_well_state_costs_nothing(self, quartic):
        g = Grid(0.0, 1.0, 101)
        u = Field(g, np.ones(101))
        b = evaluate(u, EnergyParams(2, 0.1), quartic)
        assert b.potential_term == 0.0
        # the stencil weights cancel exactly in rationals; after float
        # conversion a constant leaves ~1e-13 per row, squared by the form
        assert abs(b.highest_term) < 1e-20
        assert abs(b.total) < 1e-20

    def test_zero_state_integrates_potential_only(self, quartic):
        # u = 0 on (0,1): W(0) = 1, all derivatives vanish, E = 1/eps
        g = Grid(0.0, 1.0, 101)
        u = Field(g, np.zeros(101))
        b = evaluate(u, EnergyParams(2, 0.1, lam=3.0), quartic)
        assert b.total == pytest.approx(10.0, rel=1e-13)
        assert b.concave_term == 0.0

    def test_linear_field_closed_form(self, quartic):
        # u = x on (0,1), n = 2, eps = lam = 1: int W(x) = 8/15 (exact),
        # u' = 1 so the concave term is -1, u'' = 0; total = -7/15
        g = Grid(0.0, 1.0, 201)
        u = Field.from_callable(g, lambda x: x)
        b = evaluate(u, EnergyParams(2, 1.0, 1.0), quartic)
        assert b.potential_term == pytest.approx(8.0 / 15.0, rel=1e-8)
        assert b.concave_term == pytest.approx(-1.0, rel=1e-12)
        assert b.highest_term == pytest.approx(0.0, abs=1e-18)
        assert b.total == pytest.approx(-7.0 / 15.0, rel=1e-8)

    def test_breakdown_sums_to_total(self, quartic):
        g = Grid(-1.0, 2.0, 157)
        rng = np.random.default_rng(4)
        u = Field(g, np.tanh(rng.standard_normal(157).cumsum() / 10))
        b = evaluate(u, EnergyParams(3, 0.3, 0.01), quartic)
        assert b.total == b.potential_term + b.concave_term + b.highest_term

    def test_epsilon_scaling_of_each_term(self, quartic):
        # doubling eps scales the terms by exactly 1/2, 2^(2n-3), 2^(2n-1)
        g = Grid(0.0, 1.0, 129)
        u = Field.from_callable(g, lambda x: np.sin(2 * np.pi * x))
        for n in (2, 3):
            b1 = evaluate(u, EnergyParams(n, 0.25, 0.7), quartic)
            b2 = evaluate(u, EnergyParams(n, 0.5, 0.7), quartic)
            assert b2.potential_term == pytest.approx(
                b1.potential_term / 2, rel=1e-14
            )
            assert b2.concave_term == pytest.approx(
                b1.concave_term * 2 ** (2 * n - 3), rel=1e-14
            )
            assert b2.highest_term == pytest.approx(
                b1.highest_term * 2 ** (2 * n - 1), rel=1e-14
            )

    def test_lam_zero_energy_is_nonnegative(self, quartic):
        g = Grid(0.0, 2.0, 201)
        for u in make_ensemble(g, 20, seed=9):
            b = evaluate(u, EnergyParams(2, 0.2), quartic)
            assert b.total >= 0.0
            assert b.concave_term == 0.0

    def test_concave_term_sign(self, quartic):
        g = Grid(0.0, 2.0, 201)
        for u in make_ensemble(g, 10, seed=10):
            b = evaluate(u, EnergyParams(2, 0.2, lam=0.04), quartic)
            assert b.concave_term <= 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(1, 0.1)
        with pytest.raises(ValueError):
            EnergyParams(2, 0.0)
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                EnergyParams(2, eps)
        for lam in (np.nan, -np.inf):
            with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
                EnergyParams(2, 0.1, lam)

    def test_weights_of_the_three_integrals(self, quartic):
        # eps = 1/2 makes every weight exact
        p = EnergyParams(3, 0.5, 0.75)
        assert p.weights == (2.0, -0.75 * 0.125, 0.5**5)
        u = Field.from_callable(Grid(0.0, 1.0, 101), lambda x: np.sin(3.0 * x))
        terms = DiscreteEnergy(u.grid, 3).terms(u.values, quartic)
        b = evaluate(u, p, quartic)
        assert (b.potential_term, b.concave_term, b.highest_term) == tuple(
            c * t for c, t in zip(p.weights, terms)
        )

    def test_accuracy_order_is_not_a_param(self):
        # every energy uses the stencils of grids.ACCURACY_ORDER
        with pytest.raises(TypeError):
            EnergyParams(2, 0.1, 0.0, accuracy_order=4)


class TestRescaled:
    def test_matches_direct_evaluation(self, quartic):
        # the rescaled functional on the stretched interval is the same
        # number computed on a different grid with different weights
        g = Grid(-2.0, 2.0, 513)
        u = Field.from_callable(g, lambda x: np.tanh(x / 0.25))
        p = EnergyParams(2, 0.25, 0.01)
        direct = evaluate(u, p, quartic).total
        rescaled = evaluate_rescaled(u, p, quartic)
        assert rescaled == pytest.approx(direct, rel=1e-4)

    def test_linear_field_agreement(self, quartic):
        g = Grid(0.0, 1.0, 401)
        u = Field.from_callable(g, lambda x: 2.0 * x - 1.0)
        p = EnergyParams(2, 0.5, 0.0)
        assert evaluate_rescaled(u, p, quartic) == pytest.approx(
            evaluate(u, p, quartic).total, rel=1e-6
        )


class TestGradient:
    def test_matches_directional_central_difference(self, quartic):
        rng = np.random.default_rng(21)
        g = Grid(0.0, 1.5, 161)
        t = 1e-6
        for n in (2, 3):
            p = EnergyParams(n, 0.3, 0.02)
            for u in make_ensemble(g, 10, seed=n):
                v = rng.standard_normal(161)
                v /= np.abs(v).max()
                gu = gradient(u, p, quartic).values
                e_plus = evaluate(Field(g, u.values + t * v), p, quartic).total
                e_minus = evaluate(Field(g, u.values - t * v), p, quartic).total
                fd = (e_plus - e_minus) / (2 * t)
                assert float(gu @ v) == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_well_state_is_critical_point(self, quartic):
        g = Grid(0.0, 1.0, 101)
        u = Field(g, -np.ones(101))
        gu = gradient(u, EnergyParams(2, 0.1, 1.0), quartic).values
        assert np.abs(gu).max() < 1e-9


    @pytest.mark.parametrize("num_points", (501, 4097, 16385))
    def test_equals_the_sparse_adjoint_products(self, quartic, num_points):
        # the gradient equals W'(u) q / eps plus the forms D^T Q D u of the
        # reference CSR matrices to roundoff: the kernel pair and the sparse
        # products sum in different orders, each within about 3m/2 eps of
        # the exact form on the sums of absolute terms |D|^T Q |D| |u|, so
        # the two gradients agree within (3m + 4) eps of those sums
        g = Grid(0.0, 1.0, num_points)
        u = make_ensemble(g, 1, seed=num_points)[0]
        p = EnergyParams(3, 0.05, 0.01)
        k = DiscreteEnergy(g, p.n)
        q, eps, v = k.q, p.epsilon, u.values
        d_low, d_high = operators(g, p.n)
        potential = np.asarray(quartic.eval_derivative(v), dtype=float) * q / eps
        expected = potential - 2.0 * p.lam * eps ** 3 * (d_low.T @ (q * (d_low @ v)))
        expected += 2.0 * eps ** 5 * (d_high.T @ (q * (d_high @ v)))
        scale = np.abs(potential)
        for c, d in ((2.0 * abs(p.lam) * eps ** 3, d_low), (2.0 * eps ** 5, d_high)):
            scale += c * (abs(d.T) @ (q * (abs(d) @ np.abs(v))))
        m = p.n + ACCURACY_ORDER
        err = np.abs(gradient(u, p, quartic).values - expected)
        assert np.all(err <= (3 * m + 4) * np.finfo(float).eps * scale)


class TestDiscreteEnergy:
    """The one discretization kernel, on a coarse grid for every order the
    stencils support."""

    GRID = Grid(0.0, 1.0, 41)

    def field(self, seed):
        rng = np.random.default_rng(seed)
        x = self.GRID.nodes()
        return np.tanh((x - 0.5) / 0.2) + 0.1 * rng.standard_normal(len(x))

    @pytest.mark.parametrize("n", (0, MAX_DERIVATIVE_ORDER + 1))
    def test_order_outside_the_stencils_names_n(self, n):
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            DiscreteEnergy(self.GRID, n)

    @pytest.mark.parametrize(
        "call",
        (
            lambda u, w: estimate_lambda_n(2.5, w),
            lambda u, w: quotient(u, 2.5, w),
            lambda u, w: evaluate(u, EnergyParams(2.5, 0.1), w),
            lambda u, w: minimize_profile(ProfileProblem(2.5, 0.0, 5.0, 401, w)),
        ),
        ids=("estimate_lambda_n", "quotient", "evaluate", "minimize_profile"),
    )
    def test_non_integer_order_names_n(self, quartic, call):
        # the type check rejects it before a stencil is built from it
        with pytest.raises(ValueError, match=r"^n must be an integer; got n = 2\.5$"):
            call(Field(self.GRID, self.field(0)), quartic)

    @pytest.mark.parametrize("n", (2.5, 3.0))
    @pytest.mark.parametrize(
        "make",
        (
            lambda n, w: EnergyParams(n, 0.1),
            lambda n, w: SweepConfig(n=n),
            lambda n, w: ProfileProblem(n, 0.0, 5.0, 401, w),
            lambda n, w: DiscreteEnergy(Grid(0.0, 1.0, 41), n),
        ),
        ids=("EnergyParams", "SweepConfig", "ProfileProblem", "DiscreteEnergy"),
    )
    def test_non_integer_order_is_rejected_where_it_is_written(self, quartic, make, n):
        # n is a number of derivatives: a float is refused by the object
        # that holds it, not at the first stencil built from it; a numpy
        # integer is an integer
        with pytest.raises(ValueError, match=f"^n must be an integer; got n = {n}$"):
            make(n, quartic)
        make(np.int64(3), quartic)

    @pytest.mark.parametrize("n", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_stacked_terms_equal_the_one_dimensional_calls(self, quartic, n):
        # terms of a (rows, N) stack are one entry per row, with the bits of
        # the call on that row alone; W sees one 1-D array
        def one_dimensional(t):
            assert np.ndim(t) == 1
            return quartic.eval(t)

        w = DoubleWell(one_dimensional, quartic.eval_derivative, quartic.coercivity_L)
        m = n + ACCURACY_ORDER
        rng = np.random.default_rng(n)
        for num_points in (*range(m, 4 * m + 3), 401, 16385):
            k = DiscreteEnergy(Grid(-0.4, 1.3, num_points), n)
            for rows in (1, 2, 3, 97):
                u = rng.uniform(-1.5, 1.5, (rows, num_points))
                got = np.array(k.terms(u, w))
                want = np.array([k.terms(row, w) for row in u]).T
                assert got.shape == (3, rows)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, MAX_DERIVATIVE_ORDER + 1))
    def test_matches_energy_module(self, quartic, n):
        u = Field(self.GRID, self.field(n))
        p = EnergyParams(n, 0.3, 0.02)
        c = (1.0 / p.epsilon, -p.lam * p.epsilon ** (2 * n - 3),
             p.epsilon ** (2 * n - 1))
        k = DiscreteEnergy(self.GRID, n)
        assert k.gradient_floor(u.values, quartic, c) > 0.0
        # one gradient formula: the public gradient is the kernel's
        got = k.grad(u.values, quartic, c)
        assert got.tobytes() == gradient(u, p, quartic).values.tobytes()
        assert k.energy(u.values, quartic, c) == pytest.approx(
            evaluate(u, p, quartic).total, rel=1e-12
        )

    @pytest.mark.parametrize("n", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_hessian_matches_central_difference_of_grad(self, quartic, n):
        k = DiscreteEnergy(self.GRID, n)
        u = self.field(n)
        v = np.random.default_rng(100 + n).standard_normal(len(u))
        t = 1e-4
        # one integral at a time, so each part is checked on its own scale
        for c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            hv = band_to_dense(k.hess(u, quartic, c), k.bandwidth) @ v
            diff = k.grad(u + t * v, quartic, c) - k.grad(u - t * v, quartic, c)
            assert np.abs(hv - diff / (2 * t)).max() <= 1e-6 * np.abs(hv).max()

    @pytest.mark.parametrize("n", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_hessian_band_matches_dense(self, quartic, n):
        k = DiscreteEnergy(self.GRID, n)
        u = self.field(n)
        c = (0.7, -0.3, 1.1)
        K_low, K_high = quadratic_forms(self.GRID, n)
        H = (
            np.diag(c[0] * k.q * quartic.eval_second_derivative(u))
            + c[1] * K_low.toarray()
            + c[2] * K_high.toarray()
        )
        b = k.bandwidth
        scale = np.abs(H).max()
        full = k.hess(u, quartic, c)
        assert full.shape == (2 * b + 1, len(u))
        np.testing.assert_allclose(
            band_to_dense(full, b), H, rtol=0, atol=1e-14 * scale
        )

    @pytest.mark.parametrize(
        "n", range(1, MAX_DERIVATIVE_ORDER + 1), ids=lambda n: f"{n}-trapezoid"
    )
    def test_bands_are_the_sparse_triple_products(self, n):
        # the bands assembled from the stencil rows, each at the reach of
        # its stencil, equal those of 2 D^T diag(q) D bit for bit; the
        # gradient applies each form as 2 D^T (q o D u) by the stencil pair,
        # within the roundoff of its inner products (m terms in D u, at
        # most 2m - 1 in D^T v, m in an entry of the form and 2m - 1 in its
        # product with u) of the form's product with u
        m = n + 4
        eps = np.finfo(float).eps
        for num_points in (m, m + 1, 2 * m + 1, 501, 16385):
            grid = Grid(-1.3, 2.1, num_points)
            k = DiscreteEnergy(grid, n)
            u = np.random.default_rng(num_points).standard_normal(num_points)
            for d, band, product, windows in zip(
                operators(grid, n), written_bands(k), quadratic_forms(grid, n), k._windows
            ):
                r = len(band) // 2
                np.testing.assert_array_equal(band, to_band(product, r, r))
                bound = 6 * m * eps * 2.0 * (abs(d.T) @ (k.q * (abs(d) @ np.abs(u))))
                assert np.all(np.abs(2.0 * k._gram(windows, u) - product @ u) <= bound)

    @pytest.mark.parametrize("n", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_low_form_keeps_to_the_reach_of_its_stencil(self, quartic, n):
        # D_{n-1} reaches one point less far than D_n (not at all for the
        # identity at n = 1), so K_low's band, held at K_high's width, is
        # exactly 0 past that reach r; the Hessian sums
        # c_high K_high + c_low K_low, then adds c_pot W''(u) q on the
        # diagonal
        k = DiscreteEnergy(self.GRID, n)
        band_low, band_high = written_bands(k)
        b = k.bandwidth
        r = b - 1 if n > 1 else 0
        assert band_low.shape == band_high.shape == (2 * b + 1, len(k.q))
        assert np.all(band_low[:b - r] == 0.0) and np.all(band_low[b + r + 1:] == 0.0)
        # the form of D_{n-1} has no entry past the reach r
        K_low = quadratic_forms(self.GRID, n)[0]
        np.testing.assert_array_equal(band_low[b - r:b + r + 1], to_band(K_low, r, r))
        u = self.field(n)
        c = (0.7, -0.3, 1.1)
        ab = c[2] * band_high + c[1] * band_low
        ab[b] += c[0] * quartic.eval_second_derivative(u) * k.q
        np.testing.assert_array_equal(k.hess(u, quartic, c), ab)

    def test_order_one_uses_the_identity_below(self, quartic):
        k = DiscreteEnergy(self.GRID, 1)
        u = self.field(1)
        assert (operators(self.GRID, 1)[0] != sp.identity(len(u))).nnz == 0
        assert k.terms(u, quartic)[1] == k.q @ u**2
        # the gradient is the derivative of the energy, with the low term on
        c = (1.0, -0.5, 1.0)
        v = np.random.default_rng(5).standard_normal(len(u))
        t = 1e-6
        diff = k.energy(u + t * v, quartic, c) - k.energy(u - t * v, quartic, c)
        assert k.grad(u, quartic, c) @ v == pytest.approx(diff / (2 * t), rel=1e-6)

    @pytest.mark.parametrize("n", range(1, MAX_DERIVATIVE_ORDER + 1))
    def test_gradient_floor_equals_the_absolute_value_products(self, quartic, n):
        # |D| as the stencil of D's absolute weights gives the sparse
        # products abs(D.T) @ (q * (abs(D) @ |u|)), the identity D_0 at
        # n = 1 included; every term is non-negative, so the two summation
        # orders agree within a relative (3m + 4) eps
        m = n + ACCURACY_ORDER
        for num_points in (41, 501):
            grid = Grid(-2.0, 3.0 + n / 101, num_points)
            k = DiscreteEnergy(grid, n)
            rng = np.random.default_rng(200 + n)
            x = np.linspace(-3.0, 3.0, num_points)
            u = np.tanh(x) + 0.1 * rng.standard_normal(num_points)
            au = np.abs(u)

            def rowsum(d):
                return float(np.max(2.0 * (abs(d.T) @ (k.q * (abs(d) @ au)))))

            d_low, d_high = operators(grid, n)
            for c in ((1.3, -0.7, 0.9), (2.0, 0.0, -1.1)):
                scale = abs(c[2]) * rowsum(d_high)
                if c[1] != 0.0:
                    scale += abs(c[1]) * rowsum(d_low)
                scale += abs(c[0]) * float(
                    np.max(np.abs(quartic.eval_derivative(u)) * k.q)
                )
                assert k.gradient_floor(u, quartic, c) == pytest.approx(
                    8.0 * np.finfo(float).eps * scale,
                    rel=(3 * m + 4) * np.finfo(float).eps, abs=0.0,
                )


def cosine_well():
    """W(t) = 1 + cos(pi t): a double well at +-1 that is no polynomial."""
    return DoubleWell(
        eval=lambda t: 1.0 + np.cos(np.pi * np.asarray(t, dtype=float)),
        eval_derivative=lambda t: -np.pi * np.sin(np.pi * np.asarray(t, dtype=float)),
        coercivity_L=0.1,
        name="cosine",
    )


class TestEnergyChange:
    """phi(t) = E(u + t d) - E(u) along a step d, without differencing
    two energies."""

    EPS = np.finfo(float).eps

    def energy_roundoff(self, k, ops, v, w, c):
        """Roundoff scale of one direct `energy` evaluation: the sums of
        absolute terms, |c_pot| sum q |W| and |c_k| sum q (|D_k| |v|)^2,
        for ops = `operators` of the kernel k."""
        scale = abs(c[0]) * float(k.q @ np.abs(w.eval(v)))
        for ck, D in zip(c[1:], ops):
            scale += abs(ck) * float(k.q @ (abs(D) @ np.abs(v)) ** 2)
        return self.EPS * scale

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    @pytest.mark.parametrize("well", ("quartic", "cosine"))
    def test_equals_the_difference_of_energies(self, quartic, n, well):
        w = quartic if well == "quartic" else cosine_well()
        grid = Grid(-3.0, 3.0, 121)
        k, ops = DiscreteEnergy(grid, n), operators(grid, n)
        rng = np.random.default_rng(40 + n)
        u = np.tanh(grid.nodes()) + 0.1 * rng.standard_normal(grid.num_points)
        band = n + 4
        clamped = slice(band, grid.num_points - band)
        step = 0.1 * rng.standard_normal(grid.num_points)
        inside, mass_free = np.zeros_like(step), np.zeros_like(step)
        inside[clamped] = step[clamped]
        q = k.q[clamped]
        # a step of the mass-constraint border keeps q . d = 0
        mass_free[clamped] = step[clamped] - (q @ step[clamped]) / (q @ q) * q
        assert abs(k.q @ mass_free) < 1e-15
        # the steps of the whole range, one that is zero near both ends
        # and one of the mass-constraint border
        steps = (step, inside, mass_free)
        for c in ((0.7, -0.3, 1.1), (2.0, 0.0, -1.1)):
            for d in steps:
                phi = k.energy_change(u, d, w, c)
                for t in (1.0, 0.5, 1e-3):
                    direct = k.energy(u + t * d, w, c) - k.energy(u, w, c)
                    tol = 16.0 * (
                        self.energy_roundoff(k, ops, u, w, c)
                        + self.energy_roundoff(k, ops, u + t * d, w, c)
                    )
                    assert abs(phi(t) - direct) <= tol
                assert phi(0.0) == 0.0

    def spline_roundoff(self, k, x, w, c):
        """Roundoff scale of one direct `energy` evaluation of the spline
        kernel k: its own sums of absolute terms, |c_pot| int |W(f)| and
        |c_k| int (|B^(k)| |x|)^2 over its Gauss nodes."""
        f = k._node_values(x)[0]
        # (E, 3, G): |B^(k)| |x| at the nodes of each element
        spans = (np.abs(k.tables) @ np.abs(x)[k._window][:, None, :, None])[..., 0]
        scale = abs(c[0]) * float(np.vdot(k.wts, np.abs(w.eval(f))))
        for ck, j in zip(c[1:], (1, 2)):
            scale += abs(ck) * float(np.vdot(k.wts, spans[:, j] ** 2))
        return self.EPS * scale

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("well", ("quartic", "cosine"))
    def test_spline_kernel_equals_the_difference_of_energies(self, quartic, n, well):
        # the profile kernel's line search reads the same energy_change, on
        # its Gauss nodes: phi(t) against the difference of two energies,
        # for steps of the free coefficients
        w = quartic if well == "quartic" else cosine_well()
        k = _profile_kernel(n, 4.0, 0.5)
        rng = np.random.default_rng(60 + n)
        x = k.coefficients(np.tanh(k.greville) + 0.1 * rng.standard_normal(k.size))
        d = np.zeros(k.size)
        d[k.free] = 0.1 * rng.standard_normal(k.size - 2 * k.fixed)
        for c in ((1.0, -0.05, 1.0), (2.0, 0.0, -1.1)):
            phi = k.energy_change(x, d, w, c)
            for t in (1.0, 0.5, 1e-3):
                direct = k.energy(x + t * d, w, c) - k.energy(x, w, c)
                tol = 16.0 * (
                    self.spline_roundoff(k, x, w, c)
                    + self.spline_roundoff(k, x + t * d, w, c)
                )
                assert abs(phi(t) - direct) <= tol
            assert phi(0.0) == 0.0

    def test_error_shrinks_with_the_step(self, quartic):
        # the same discrete energy in exact rationals, on 101 points at
        # n = 3: phi's error stays within eps (t S + F), S the absolute
        # sums of its t-terms and F the pointwise roundoff of W(u + t d) -
        # W(u), far below the cancellation floor of a direct difference
        from fractions import Fraction

        grid = Grid(-5.0, 5.0, 101)
        k = DiscreteEnergy(grid, 3)
        c = (1.0, -0.05, 1.0)
        x = grid.nodes()
        rng = np.random.default_rng(3)
        u = np.tanh(x) + 1e-3 * rng.standard_normal(len(x))
        free = slice(7, len(x) - 7)
        d = np.zeros_like(u)
        d[free] = 1e-3 * np.exp(-x[free] ** 2) * rng.standard_normal(len(x) - 14)
        q = [Fraction(v) for v in k.q]
        forms = [
            (Fraction(ck), [
                [(Fraction(D.data[j]), D.indices[j])
                 for j in range(D.indptr[r], D.indptr[r + 1])]
                for r in range(D.shape[0])
            ])
            for ck, D in zip(c[1:], operators(grid, 3))
        ]

        def exact(v):
            e = Fraction(c[0]) * sum(
                qi * (vi - 1) ** 2 * (vi + 1) ** 2 for qi, vi in zip(q, v)
            )
            for ck, rows in forms:
                e += ck * sum(
                    qi * sum(a * v[j] for a, j in row) ** 2
                    for qi, row in zip(q, rows)
                )
            return e

        uq, dq = [Fraction(v) for v in u], [Fraction(v) for v in d]
        e0 = exact(uq)
        S = abs(c[0]) * float(k.q @ np.abs(quartic.eval_derivative(u) * d))
        cancellation = 0.0
        for ck, D in zip(c[1:], operators(grid, 3)):
            A = abs(D)
            Au, Ad = A @ np.abs(u), A @ np.abs(d)
            S += abs(ck) * float(k.q @ (Ad * (2.0 * Au + Ad)))
            cancellation += abs(ck) * float(k.q @ (np.abs(D @ u) * Au))
        F = abs(c[0]) * float(
            k.q @ (2.0 * quartic.eval(u) + np.abs(u * quartic.eval_derivative(u)))
        )
        phi = k.energy_change(u, d, quartic, c)
        for t in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            moved = [a + Fraction(t) * b for a, b in zip(uq, dq)]
            err = abs(phi(t) - float(exact(moved) - e0))
            assert err <= 16.0 * self.EPS * (t * S + F)
        # at small steps that bound lies far below the direct difference's
        assert 16.0 * (1e-6 * S + F) < 0.1 * cancellation
