"""Tests for grids, finite-difference operators, quadrature, the spline and
field IO."""

from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from hophase import (
    Field,
    Grid,
    derivative,
    diff_operator,
    field_from_csv,
    field_to_csv,
    quadrature_weights,
    stencil_weights,
)
from hophase import grids
from hophase.energy import BSpline
from hophase.grids import apply_stencil, apply_stencil_transpose

from conftest import stencil_csr


class TestGrid:
    def test_spacing_and_length(self):
        g = Grid(-1.0, 3.0, 101)
        assert g.h == pytest.approx(0.04)
        assert g.length == 4.0
        nodes = g.nodes()
        assert nodes[0] == -1.0 and nodes[-1] == 3.0
        assert len(nodes) == 101

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)]
    )
    def test_non_finite_endpoints_rejected(self, a, b):
        # an infinite endpoint would give h = inf, and a NaN one NaN nodes
        message = f"endpoints must be finite, got a = {a}, b = {b}"
        with pytest.raises(ValueError, match=message):
            Grid(a, b, 11)


class TestField:
    def test_from_callable(self):
        g = Grid(0.0, 1.0, 11)
        f = Field.from_callable(g, np.square)
        np.testing.assert_allclose(f.values, np.linspace(0, 1, 11) ** 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(Grid(0.0, 1.0, 11), np.zeros(10))

    def test_non_finite_rejected(self):
        vals = np.zeros(11)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field(Grid(0.0, 1.0, 11), vals)


def eliminated_weights(offsets, k):
    """The weights by Gaussian elimination of the Vandermonde moment system
    sum_j w_j o_j^i = k! [i == k], i < m, with partial pivoting in exact
    rationals: the reference for the Lagrange-product construction."""
    m = len(offsets)
    A = [[Fraction(o) ** i for o in offsets] for i in range(m)]
    rhs = [Fraction(0)] * m
    rhs[k] = Fraction(factorial(k))
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(A[r][col]))
        assert A[piv][col] != 0
        A[col], A[piv] = A[piv], A[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        rhs[col] = rhs[col] * inv
        for r in range(m):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                rhs[r] = rhs[r] - f * rhs[col]
    return tuple(rhs)


class TestStencilWeights:
    def test_centered_first_derivative(self):
        assert stencil_weights((-1, 0, 1), 1) == (
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_centered_second_derivative(self):
        assert stencil_weights((-1, 0, 1), 2) == (
            Fraction(1),
            Fraction(-2),
            Fraction(1),
        )

    def test_exact_on_polynomials(self):
        # applied to samples of any polynomial of degree < stencil size, the
        # weights reproduce its k-th derivative at 0 exactly (in rationals)
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(3, 9))
            k = int(rng.integers(1, m))
            offsets = tuple(int(o) for o in rng.choice(range(-6, 7), m, False))
            wts = stencil_weights(offsets, k)
            coeffs = [Fraction(int(c), 7) for c in rng.integers(-9, 10, m)]
            applied = sum(
                c * sum(a * Fraction(o) ** i for i, a in enumerate(coeffs))
                for c, o in zip(wts, offsets)
            )
            exact = coeffs[k] * Fraction(factorial(k))
            assert applied == exact

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            stencil_weights((-1, 0, 1), 3)

    @pytest.mark.parametrize("acc", (2, 4, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_window_shift_matches_the_elimination(self, k, acc):
        m = k + acc
        for s in range(1 - m, 1):
            offsets = tuple(range(s, s + m))
            assert stencil_weights(offsets, k) == eliminated_weights(offsets, k)

    def test_irregular_offsets_match_the_elimination(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(1, m))
            offsets = tuple(int(o) for o in rng.choice(range(-12, 13), m, False))
            assert stencil_weights(offsets, k) == eliminated_weights(offsets, k)

    def test_repeated_offsets_rejected(self):
        for offsets in ((0, 1, 1), (-2, 0, 3, -2)):
            with pytest.raises(ValueError, match="degenerate stencil offsets"):
                stencil_weights(offsets, 1)


def assert_within_inner_product_bound(got, D, x, bound):
    """Each entry of got is within bound (|D| |x|) of the exact product
    D x of the CSR matrix D, both sides in exact rationals."""
    xs = [Fraction(t) for t in x.tolist()]
    assert got.shape == (D.shape[0],)
    for i, value in enumerate(got.tolist()):
        row = slice(D.indptr[i], D.indptr[i + 1])
        terms = [
            Fraction(w) * xs[j]
            for w, j in zip(D.data[row].tolist(), D.indices[row].tolist())
        ]
        assert abs(Fraction(value) - sum(terms)) <= bound * sum(map(abs, terms)), i


def stencil_windows(g, k, acc):
    """The (m, m) windows of the order-k stencil of accuracy acc on g,
    m = k + acc: `diff_operator`'s at grids.ACCURACY_ORDER, which builds
    them as the unit windows over h**k, and built the same way at any
    other accuracy."""
    if acc == grids.ACCURACY_ORDER:
        return diff_operator(g, k)
    return grids._unit_rows(k, k + acc) / g.h**k


class TestDiffOperator:
    def test_exact_on_polynomials_including_boundary_rows(self):
        # order-k stencils of accuracy a are exact for degree <= k + a - 1;
        # the one-sided boundary rows keep the same exactness
        g = Grid(-0.5, 1.5, 40)
        x = g.nodes()
        for k in (1, 2, 3):
            for acc in (2, 4):
                deg = k + acc - 1
                coeffs = np.arange(1, deg + 2, dtype=float)
                poly = np.polynomial.Polynomial(coeffs)
                exact = poly.deriv(k)(x)
                got = apply_stencil(stencil_windows(g, k, acc), poly(x))
                np.testing.assert_allclose(got, exact, rtol=1e-9, atol=1e-8)

    def test_convergence_rate_matches_accuracy_order(self):
        def err(num_points, acc):
            g = Grid(0.0, 1.0, num_points)
            f = Field.from_callable(g, lambda x: np.sin(2.0 * x))
            exact = -4.0 * np.sin(2.0 * g.nodes())
            if acc == grids.ACCURACY_ORDER:
                got = derivative(f, 2).values
            else:
                got = apply_stencil(stencil_windows(g, 2, acc), f.values)
            return np.abs(got - exact).max()

        for acc in (2, 4):
            ratio = err(101, acc) / err(201, acc)
            assert ratio > 2 ** (acc - 0.6)

    @pytest.mark.parametrize("acc", (2, 4, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_rows_equal_the_rational_stencils(self, k, acc):
        # row i of the operator takes the window row starts[i] - i + m - 1,
        # the weights of the m-point window centred on i and clamped to the
        # grid, float(w) / h**k bit for bit, in column order; the zero
        # centre weight of k = 1, acc = 2 stays stored
        m = k + acc
        for num_points in (m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1, 401):
            g = Grid(-0.3, 2.9 + (7 * k + acc) / 1009, num_points)
            windows = stencil_windows(g, k, acc)
            assert windows.shape == (m, m)
            starts = grids.window_starts(num_points, m)
            for i in range(num_points):
                start = min(max(i - (m - 1) // 2, 0), num_points - m)
                assert starts[i] == start
                window = tuple(range(start - i, start - i + m))
                expected = [float(w) / g.h**k for w in stencil_weights(window, k)]
                row = windows[start - i + m - 1]
                assert row.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("acc", (2, 4, 6))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_applications_are_within_the_inner_product_bound(self, k, acc):
        # an entry of D u is an inner product of m terms and one of D^T v
        # sums at most 2m - 1, so each is within m eps (|D| |u|), and
        # (2m - 1) eps (|D|^T |v|), of the exact rational product of the
        # float windows (Higham, Accuracy and Stability of Numerical
        # Algorithms, sec. 3.1), for D and for |D|; on every grid where the
        # clamped rows at the two ends overlap, meet, touch and lie apart,
        # with samples spanning 20 decades
        m = k + acc
        eps = Fraction(np.finfo(float).eps)
        for num_points in (*range(m, 2 * m + 3), 401):
            g = Grid(-1.1, 0.7 + k / 13, num_points)
            op = stencil_windows(g, k, acc)
            D = stencil_csr(g, k, m)
            rng = np.random.default_rng(1000 * m + num_points)
            u, v = rng.standard_normal((2, num_points)) * 10.0 ** rng.uniform(
                -10.0, 10.0, (2, num_points)
            )
            for windows, A in ((op, D), (np.abs(op), abs(D))):
                Du = apply_stencil(windows, u)
                assert_within_inner_product_bound(Du, A, u, m * eps)
                DTv = apply_stencil_transpose(windows, v)
                assert_within_inner_product_bound(DTv, A.T.tocsr(), v, (2 * m - 1) * eps)

    @pytest.mark.parametrize("k", range(1, grids.MAX_DERIVATIVE_ORDER + 1))
    def test_stacked_rows_equal_the_one_dimensional_calls(self, k):
        # a (rows, n) stack is D applied to each row with the bits of the
        # call on that row alone: on every grid from one window to where
        # the clamped end rows lie far apart, with samples spanning 20
        # decades, for one row, a few, and many
        m = k + grids.ACCURACY_ORDER
        rng = np.random.default_rng(7 * k)
        for num_points in (*range(m, 4 * m + 3), 401, 16385):
            windows = diff_operator(Grid(-0.4, 1.3, num_points), k)
            for rows in (1, 2, 3, 97):
                u = rng.standard_normal((rows, num_points)) * 10.0 ** rng.uniform(
                    -10.0, 10.0, (rows, num_points)
                )
                want = np.array([apply_stencil(windows, row) for row in u])
                assert apply_stencil(windows, u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("num_points", (2, 3, 4, 401))
    def test_one_tap_stencil_is_the_identity(self, num_points):
        u = np.random.default_rng(num_points).standard_normal(num_points)
        ones = np.ones((1, 1))
        assert apply_stencil(ones, u).tobytes() == u.tobytes()
        assert apply_stencil_transpose(ones, u).tobytes() == u.tobytes()

    def test_misses_of_one_size_own_their_weights(self):
        # operators of one size and two spacings own their windows, which
        # are contiguous and read-only
        a = diff_operator(Grid(0.0, 1.25, 301), 2)
        b = diff_operator(Grid(0.0, 3.5, 301), 2)
        assert not np.shares_memory(a, b)
        for op in (a, b):
            assert op.flags.c_contiguous
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 1.0

    def test_new_spacing_reuses_the_integer_solve(self):
        # 50 grids that differ only in spacing each need a new operator, but
        # the exact integer weights are solved for the first one only
        spaced = [Grid(0.0, 1.0 + j / 64, 301) for j in range(50)]
        diff_operator(spaced[0], 5)
        calls = grids._integer_weights.cache_info()
        for g in spaced[1:]:
            diff_operator(g, 5)
        assert grids._integer_weights.cache_info() == calls

    @pytest.mark.parametrize("acc", [2, 4, 6])
    def test_unit_windows_are_the_rounded_rationals(self, acc):
        # each float weight is the exact rational rounded once, +0.0 where
        # it is 0, and stencil_weights returns that same derivation
        for k in range(1, grids.MAX_DERIVATIVE_ORDER + 1):
            m = k + acc
            want = np.array([
                [float(c) for c in stencil_weights(tuple(range(s, s + m)), k)]
                for s in range(1 - m, 1)
            ])
            assert grids._unit_rows(k, m).tobytes() == want.tobytes()

    def test_integer_weights_match_the_product_loop(self):
        # the quotients of the node polynomial by each factor give the
        # integer pairs of rebuilding the product of the other offsets for
        # every weight, on every window shift of every accuracy and order
        def product_loop(offsets, k):
            weights = []
            for j, o_j in enumerate(offsets):
                others = offsets[:j] + offsets[j + 1:]
                den = prod(o_j - o for o in others)
                poly = [1]
                for o in others:
                    poly = [0] + poly
                    for d in range(len(poly) - 1):
                        poly[d] -= o * poly[d + 1]
                weights.append((factorial(k) * poly[k], den))
            return tuple(weights)

        for k in range(1, grids.MAX_DERIVATIVE_ORDER + 1):
            for acc in (2, 4, 6):
                m = k + acc
                for s in range(1 - m, 1):
                    offsets = tuple(range(s, s + m))
                    assert grids._integer_weights(offsets, k) == product_loop(offsets, k)
        with pytest.raises(ValueError, match="degenerate"):
            grids._integer_weights((0, 1, 1), 1)

    def test_invalid_requests_rejected(self):
        g = Grid(0.0, 1.0, 33)
        with pytest.raises(ValueError):
            diff_operator(g, 0)
        with pytest.raises(ValueError):
            diff_operator(g, 7)
        with pytest.raises(ValueError):
            diff_operator(Grid(0.0, 1.0, 6), 3)


class TestQuadrature:
    def test_weights_sum_to_length(self):
        g = Grid(-2.0, 5.0, 57)
        assert quadrature_weights(g).sum() == pytest.approx(7.0)

    def test_trapezoid_improves_second_order(self):
        def err(num_points):
            g = Grid(0.0, np.pi, num_points)
            return abs(quadrature_weights(g) @ np.sin(g.nodes()) - 2.0)

        assert err(101) / err(201) == pytest.approx(4.0, rel=0.05)


class TestNotAKnotSpline:
    @staticmethod
    def _points(g):
        x = g.nodes()
        return np.concatenate([x, (x[:-1] + x[1:]) / 2, [g.a, g.b]])

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-10.0, 10.0)])
    @pytest.mark.parametrize("num_points", [2, 3, 4, 5, 17, 801, 2001])
    def test_matches_scipy_not_a_knot(self, interval, num_points):
        from scipy.interpolate import CubicSpline

        g = Grid(*interval, num_points)
        x, pts = g.nodes(), self._points(g)
        t = (x - g.a) / g.length
        smooth = 2.0 + np.tanh((t - 0.4) / 0.15) + 0.3 * np.sin(5 * np.pi * t)
        noise = np.random.default_rng(num_points).standard_normal(num_points)
        for y, scale in ((smooth, None), (noise, np.abs(noise).max())):
            got = BSpline.not_a_knot(Field(g, y))(pts)
            want = CubicSpline(x, y, bc_type="not-a-knot")(pts)
            if scale is None:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            else:
                # a spline through white noise is ill-conditioned in N: at
                # N = 2001 both differ from the exact rational spline by
                # about 3e-13 of max |y|
                np.testing.assert_allclose(got, want, rtol=0, atol=2e-12 * scale)

    @pytest.mark.parametrize("num_points, degree", [(2, 1), (3, 2), (4, 3), (9, 3)])
    def test_reproduces_polynomials_of_the_grid_degree(self, num_points, degree):
        g = Grid(-1.0, 2.0, num_points)
        coeffs = np.arange(1.0, degree + 2.0)
        spline = BSpline.not_a_knot(Field.from_callable(g, lambda x: np.polyval(coeffs, x)))
        pts = self._points(g)
        np.testing.assert_allclose(spline(pts), np.polyval(coeffs, pts), rtol=1e-13)

    def test_point_outside_interval_rejected(self):
        g = Grid(-1.0, 2.0, 11)
        spline = BSpline.not_a_knot(Field.from_callable(g, np.cos))
        for x in (np.nextafter(-1.0, -2.0), np.nextafter(2.0, 3.0)):
            with pytest.raises(ValueError, match="outside its interval"):
                spline(np.array([0.0, x]))


class TestSerialization:
    def test_csv_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        f = Field(Grid(-1.5, 2.5, 33), rng.standard_normal(33))
        g = field_from_csv(field_to_csv(f))
        assert g.grid == f.grid
        np.testing.assert_array_equal(g.values, f.values)

    def test_csv_header_is_optional(self):
        text = "0,1.5\n0.5,2.5\n1,3.5\n"
        f = field_from_csv(text)
        assert f.grid == Grid(0.0, 1.0, 3)
        np.testing.assert_array_equal(f.values, [1.5, 2.5, 3.5])

    def test_csv_off_grid_x_rejected(self):
        # x = 0.1 is not on linspace(0, 1, 3); the grid is not regridded
        with pytest.raises(ValueError, match="row 2 has x = 0.1"):
            field_from_csv("x,value\n0,0\n0.1,1\n1,2\n")
        with pytest.raises(ValueError, match="0 data rows"):
            field_from_csv("x,value\n")

    def test_csv_decimal_grid_within_ulps_accepted(self):
        # "0.3" parses to 0.3, linspace(0, 1, 11)[3] is 0.30000000000000004
        text = "".join(f"{j / 10},{j}\n" for j in range(11))
        f = field_from_csv(text)
        assert f.grid == Grid(0.0, 1.0, 11)
        np.testing.assert_array_equal(f.values, np.arange(11.0))
