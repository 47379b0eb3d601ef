"""Tests for the exact two-point coupling polynomials."""

from fractions import Fraction
from math import comb, factorial, perm

import numpy as np
import pytest

from hophase import (
    MAX_N,
    BoundaryData,
    coefficient_matrix_exact,
    coupling_energy_upper_bound,
    determinant_exact,
    endpoint_residuals,
    eval_poly,
    make_quartic,
    solve_eta,
    solve_zeta,
)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_int01(a):
    """Exact integral of a coefficient polynomial over [0, 1]."""
    return sum(c / Fraction(i + 1) for i, c in enumerate(a))


class TestCoefficientMatrix:
    def test_n2_rows_are_endpoint_conditions(self):
        M = coefficient_matrix_exact(2)
        assert M == [
            [1, 0, 0, 0],  # p(0)
            [0, 1, 0, 0],  # p'(0)
            [1, 1, 1, 1],  # p(1)
            [0, 1, 2, 3],  # p'(1)
        ]

    def test_determinant_formula(self):
        # det = (0! 1! ... (n-1)!)^2, nonzero, so the system is solvable
        # for every data vector
        for n in range(2, MAX_N + 1):
            expected = 1
            for k in range(n):
                expected *= factorial(k)
            assert determinant_exact(coefficient_matrix_exact(n)) == expected**2

    def test_determinant_matches_float_route(self):
        for n in range(2, 6):
            d_exact = determinant_exact(coefficient_matrix_exact(n))
            d_float = np.linalg.det(np.array(coefficient_matrix_exact(n), dtype=float))
            assert d_float == pytest.approx(float(d_exact), rel=1e-9)

    def test_binomial_block_is_unimodular(self):
        # D_ij = binom(n+j-1, i-1) (1-based) has det(D) = 1
        for n in range(2, MAX_N + 1):
            D = [[comb(n + j, i) for j in range(n)] for i in range(n)]
            assert determinant_exact(D) == 1


class TestZeta:
    def test_well_data_gives_constant_one(self):
        p = solve_zeta((1.0, 0.0, 0.0))
        assert p.exact_coefficients[0] == 1
        assert all(c == 0 for c in p.exact_coefficients[1:])

    def test_hand_solved_cubic(self):
        # n = 2, y = (-1, 0): p(0) = -1, p'(0) = 0, p(1) = 1, p'(1) = 0
        # gives p(x) = -1 + 6x^2 - 4x^3
        p = solve_zeta((-1.0, 0.0))
        assert p.exact_coefficients == (
            Fraction(-1),
            Fraction(0),
            Fraction(6),
            Fraction(-4),
        )

    def test_all_conditions_exact_for_random_data(self):
        rng = np.random.default_rng(11)
        for n in range(2, MAX_N + 1):
            for _ in range(5):
                y = tuple(rng.standard_normal(n))
                p = solve_zeta(y)
                assert endpoint_residuals(p).max() == 0.0

    def test_solution_is_affine_in_data(self):
        # the coefficient map is the solve of a fixed linear system, so
        # midpoints of data vectors map to midpoints of coefficients
        rng = np.random.default_rng(12)
        y1 = tuple(Fraction(int(v), 8) for v in rng.integers(-20, 20, 4))
        y2 = tuple(Fraction(int(v), 8) for v in rng.integers(-20, 20, 4))
        mid = tuple((a + b) / 2 for a, b in zip(y1, y2))
        c1 = solve_zeta(y1).exact_coefficients
        c2 = solve_zeta(y2).exact_coefficients
        cm = solve_zeta(mid).exact_coefficients
        assert all((a + b) / 2 == m for a, b, m in zip(c1, c2, cm))

    def test_data_validation(self):
        with pytest.raises(ValueError):
            BoundaryData((1.0,))  # n = 1 below the minimum order
        with pytest.raises(ValueError):
            BoundaryData(tuple([0.0] * (MAX_N + 1)))
        with pytest.raises(ValueError):
            BoundaryData((np.nan, 0.0))


class TestEta:
    def test_well_data_gives_constant_minus_one(self):
        p = solve_eta((-1.0, 0.0, 0.0, 0.0))
        assert p.exact_coefficients[0] == -1
        assert all(c == 0 for c in p.exact_coefficients[1:])

    def test_all_conditions_exact_for_random_data(self):
        rng = np.random.default_rng(13)
        for n in range(2, MAX_N + 1):
            y = tuple(rng.standard_normal(n))
            assert endpoint_residuals(solve_eta(y)).max() == 0.0

    def test_reflection_of_zeta(self):
        # eta is solved directly; the reflection eta(x) = -zeta_{y~}(1 - x),
        # y~_k = (-1)^(k+1) y_k, is its reference, exactly, for every
        # derivative order and every n
        rng = np.random.default_rng(29)
        points = (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(9, 10), 1)
        for n in range(2, MAX_N + 1):
            y = tuple(rng.uniform(-2.0, 2.0, n))
            eta = solve_eta(y)
            zeta = solve_zeta(tuple((-1.0) ** (k + 1) * v for k, v in enumerate(y)))
            for k in range(2 * n):
                for xq in points:
                    assert eval_poly(eta, xq, k) == -((-1) ** k) * eval_poly(
                        zeta, 1 - xq, k
                    )


class TestEvalPoly:
    def test_derivatives_match_monomial_calculus(self):
        p = solve_zeta((0.25, -1.5))
        a = p.exact_coefficients
        x = Fraction(2, 5)
        d2 = sum(
            Fraction(factorial(i), factorial(i - 2)) * a[i] * x ** (i - 2)
            for i in range(2, len(a))
        )
        assert eval_poly(p, x, 2) == d2

    def test_order_beyond_degree_is_zero(self):
        p = solve_zeta((0.0, 0.0))
        assert eval_poly(p, Fraction(1, 2), 4) == 0
        assert eval_poly(p, 0.5, 4) == 0.0
        # an array x gives zeros shaped like x
        p = solve_zeta((0.5, 0))
        x = np.linspace(0.0, 1.0, 5)
        for k in (4, 7):
            for out in (eval_poly(p, x, k), p(x, k)):
                assert isinstance(out, np.ndarray)
                assert out.shape == x.shape
                assert not out.any()
        grid = np.zeros((2, 3))
        assert eval_poly(p, grid, 4).shape == (2, 3)
        exact = eval_poly(p, Fraction(1, 3), 4)
        assert isinstance(exact, Fraction) and exact == 0

    def test_float_evaluation_tracks_exact(self):
        p = solve_zeta(tuple(np.linspace(-0.4, 0.4, 5)))
        for x in (0.1, 0.5, 0.9):
            exact = eval_poly(p, Fraction(x))
            assert eval_poly(p, x) == pytest.approx(float(exact), rel=1e-12)


class TestEnergyBound:
    def test_well_data_costs_exactly_zero(self, quartic):
        assert coupling_energy_upper_bound((1.0, 0.0), 0.5, quartic) == 0.0
        assert (
            coupling_energy_upper_bound((-1.0, 0.0, 0.0), 0.5, quartic, kind="eta")
            == 0.0
        )

    def test_quadrature_matches_exact_polynomial_integral(self, quartic):
        # oracle: for p(x) = -1 + 6x^2 - 4x^3 integrate W(p) and (p'')^2
        # over [0,1] exactly in rationals, independently of the library's
        # Gauss quadrature
        p = [Fraction(-1), Fraction(0), Fraction(6), Fraction(-4)]
        p2m1 = _poly_mul(p, p)
        p2m1[0] -= 1
        pot_exact = _poly_int01(_poly_mul(p2m1, p2m1))
        ddp = [Fraction(12), Fraction(-24)]
        high_exact = _poly_int01(_poly_mul(ddp, ddp))
        assert high_exact == 48
        oracle = float(pot_exact + high_exact)

        got = coupling_energy_upper_bound((-1.0, 0.0), 0.0, quartic)
        assert got == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("kind", ["zeta", "eta"])
    @pytest.mark.parametrize("n", range(2, MAX_N + 1))
    def test_bound_is_the_exact_integral(self, quartic, n, kind):
        # oracle: the three integrals of the exact rational polynomial,
        # W(p) = (p^2 - 1)^2, integrated over [0, 1] in rationals
        y = tuple(0.7 * (-0.5) ** k for k in range(n))
        p = (solve_zeta if kind == "zeta" else solve_eta)(y)
        a = list(p.exact_coefficients)

        def deriv(c, k):
            return [perm(j, k) * c[j] for j in range(k, len(c))]

        p2m1 = _poly_mul(a, a)
        p2m1[0] -= 1
        pot = _poly_int01(_poly_mul(p2m1, p2m1))
        low, high = (
            _poly_int01(_poly_mul(d, d)) for d in (deriv(a, n - 1), deriv(a, n))
        )
        lam = Fraction(0.3)
        oracle = float(pot - lam * low + high)
        got = coupling_energy_upper_bound(y, 0.3, quartic, kind=kind)
        assert got == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("kind", ["zetaa", "", "ETA"])
    def test_unknown_kind_is_rejected(self, quartic, kind):
        with pytest.raises(ValueError, match=f"unknown kind {kind!r}"):
            coupling_energy_upper_bound((0.3, 0.5), 0.0, quartic, kind=kind)

    def test_bound_decreases_in_lam(self, quartic):
        vals = [
            coupling_energy_upper_bound((0.3, 0.5), lam, quartic)
            for lam in (0.0, 0.5, 1.0)
        ]
        assert vals[0] > vals[1] > vals[2]


def test_full_solve_is_fast_enough():
    import time

    rng = np.random.default_rng(5)
    t0 = time.time()
    for n in range(2, 7):
        for _ in range(100):
            y = tuple(rng.standard_normal(n))
            p = solve_zeta(y)
            assert endpoint_residuals(p).max() <= 1e-9
    assert time.time() - t0 < 5.0
