"""
The order-n singularly perturbed free energy on an interval,

    E[u] = int_I  W(u)/eps  -  lam eps^(2n-3) (u^(n-1))^2
                              +  eps^(2n-1) (u^(n))^2  dx,

evaluated by quadrature of finite-difference stencils, together with its
rescaled form (substituting v(x) = u(eps x) on the stretched interval) and
the exact gradient of the discrete energy.

Every functional of the package (this energy, the unscaled profile energy,
the interpolation quotient and the coupling bound) is a weighted sum of the
same three integrals int W(u), int (u^(n-1))^2 and int (u^(n))^2.
`_Quadrature` writes them, the weighted sum, its change along a step,
the Hessian and the one damped-Newton front end `minimize` once, on the
node values, the quadrature rule and the element matrices of a kernel:
the Hessian is the constant K bands, scattered once per kernel, plus a
curved W'' part per step.  Its two kernels are `DiscreteEnergy`, the one
discretization on a grid, with gradient and roundoff floor, and
`_SplineKernel`, the one exactly integrated kernel, in a B-spline space
whose one-element case is the polynomials in the Bernstein basis.
`BSpline` is the one B-spline evaluator, of a kernel's spline (the
profile that `profiles.build_recovery` pastes) and of the not-a-knot
interpolant of samples that `evaluate_rescaled` resamples.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, prod

import numpy as np
from numpy.linalg import LinAlgError
from numpy.lib.stride_tricks import sliding_window_view

from ._solvers import BandedSystem, damped_newton
from .grids import (
    MAX_DERIVATIVE_ORDER, Field, Grid, apply_stencil, apply_stencil_transpose,
    diff_operator, quadrature_weights, window_starts,
)
from .potentials import DoubleWell

__all__ = [
    "BSpline",
    "DiscreteEnergy",
    "EnergyParams",
    "EnergyBreakdown",
    "evaluate",
    "evaluate_rescaled",
    "gradient",
]


#: the stops of `_solvers.damped_newton` short of a minimizer, whatever the
#: gradient
_FAILED_STOPS = ("line search failed", "no descent direction found", "iteration limit")
#: the spline kernel's verdict: a Newton decrement at most this times
#: max(1, |energy|)
DECREMENT_RTOL = 1e-12


def _require_integer_order(n) -> None:
    """Raise ValueError unless the derivative order n is an int or a numpy
    integer: 3.0 and 2.5 are no orders, and stencils are built from n."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer; got n = {n}")


class _Quadrature:
    """The three integrals `terms` of the function f with the unknowns x,
    for coefficients c = (c_pot, c_low, c_high) their weighted sum
    `energy`, its change along a step `energy_change`, its Hessian `hess`
    and `minimize`, the damped-Newton front end of both kernels.  A kernel
    supplies `_node_values(x)`, the values (f, f^(n-1), f^(n)) at its
    quadrature nodes, and `_integral(v)`, the quadrature of node values v;
    for the Hessian, its `num_elements` elements over windows of
    `bandwidth` + 1 of its `num_free` free unknowns (`_elements`) and the
    part of the Hessian that changes with x (`_curved_band`); and for
    `minimize`, its `free` unknowns, `grad` and `_verdict`.  `terms`,
    `energy`, `energy_change`, `grad` and `_curved_band` take the node
    values of x as their last argument when the caller has them, and
    compute them from x otherwise."""

    def _well(self, w: DoubleWell, f) -> np.ndarray:
        # W sees one 1-D array, whatever the shape of f
        return np.asarray(w.eval(f.ravel()), dtype=float).reshape(f.shape)

    def terms(self, x: np.ndarray, w: DoubleWell, values=None):
        """(int W(f), int (f^(n-1))^2, int (f^(n))^2) by quadrature; the
        squares are summed directly, so they never go negative by roundoff
        the way a quadratic form x^T K x can near f ~ const."""
        f, low, high = self._node_values(x) if values is None else values
        return (
            self._integral(self._well(w, f)),
            self._integral(low**2),
            self._integral(high**2),
        )

    def energy(self, x: np.ndarray, w: DoubleWell, c, values=None) -> float:
        """c_pot int W + c_high int (f^(n))^2 + c_low int (f^(n-1))^2."""
        c_pot, c_low, c_high = c
        pot, low, high = self.terms(x, w, values)
        return c_pot * pot + c_high * high + c_low * low

    def energy_change(self, x: np.ndarray, d: np.ndarray, w: DoubleWell, c, values=None):
        """The change phi(t) = energy(x + t d) - energy(x) along a step d,
        as a function of t, summed as

            phi(t) = c_pot int (W(f + t g) - W(f))
                     + sum_k c_k t int g^(k) (2 f^(k) + t g^(k))

        over the two quadratic terms k, for g the function of d, without
        differencing two energies.  The direct difference cancels to about
        eps int |f^(k)| (|D| |x|), 1e-9 to 1e-8 for an n = 3 layer on 2001
        grid points.  Here the roundoff of the quadratic part scales with t;
        the potential part is still a pointwise difference and keeps a
        floor of about eps |c_pot| int (|W(f)| + |f W'(f)|).  The node
        values of d and W(f) are computed once here, and those of x unless
        given; a call of phi costs one W evaluation and one quadrature.  W
        is evaluated, never expanded, so any `DoubleWell` works."""
        c_pot, c_low, c_high = c
        f, low, high = self._node_values(x) if values is None else values
        df, dlow, dhigh = self._node_values(d)
        w0 = self._well(w, f)
        # phi's quadratic part is t (slope + t curvature)
        slope = curvature = 0.0
        for ck, v, dv in ((c_high, high, dhigh), (c_low, low, dlow)):
            slope += 2.0 * ck * self._integral(dv * v)
            curvature += ck * self._integral(dv**2)

        def phi(t: float) -> float:
            dw = self._well(w, f + t * df) - w0
            return c_pot * self._integral(dw) + t * (slope + t * curvature)

        return phi

    @property
    def _repeat(self):
        """(L, cut) of the K bands (`_bands`): L = 2b + 4, cut = E - 2L
        past 2L elements, else (0, 0)."""
        E, L = self.num_elements, 2 * self.bandwidth + 4
        return (L, E - 2 * L) if E > 2 * L else (0, 0)

    @cached_property
    def _bands(self) -> np.ndarray:
        """K_{n-1} and K_n on the free unknowns as one (2, 2b + 1, m - cut)
        array, b = `bandwidth`, m = `num_free`, (L, cut) = `_repeat`, each
        form in band storage ab[b + i - j, j] = K[i, j] (`BandedSystem`'s
        layout; K_{n-1}'s rows past its reach are 0) with its column L
        standing for the cut columns from L on: the element matrices
        2 sum_g w_g B_a B_b of `_elements`, added by one bincount
        (`_element_band`), in ascending element order from 0.0.  On the
        grid that is the order of the CSR triple product 2 (D^T diag(q)) D
        (Bank & Douglas, SMMP), which the tests build from the exact
        stencil weights: the bands, written out by `BandedSystem`, equal it
        bit for bit.  The order matters: Newton runs at n >= 3 that stop on
        their gradient noise follow its last bits.

        Every element at least L from both ends has the same weights and
        tables, and its window starts one column after its predecessor's,
        so every column at least L from both ends sums the same products in
        the same order.  Past 2L elements the scatter runs on the first and
        last L elements only, as if they were adjacent; only the copy that
        LAPACK factors writes the repeated columns out."""
        E, b, m = self.num_elements, self.bandwidth, self.num_free
        L, cut = self._repeat
        e = np.arange(E - cut)
        e[L:] += cut
        starts, weights, tables = self._elements(e)
        starts[L:] -= cut
        index = _band_index(starts, b, m - cut, forms=2)
        return _element_band(index, tables, 2.0 * weights, (2, 2 * b + 1, m - cut))

    def _constant_band(self, c) -> np.ndarray:
        """c_high K_n + c_low K_{n-1} in the band storage of `_bands`, the
        part of the Hessian that does not depend on x."""
        _, c_low, c_high = c
        low, high = self._bands
        ab = c_high * high
        ab += c_low * low
        return ab

    def hess(self, x: np.ndarray, w: DoubleWell, c) -> np.ndarray:
        """The Hessian of `energy` on the free unknowns in band storage
        ab[b + i - j, j] = H[i, j], b = `bandwidth`, every column written
        out: the constant band `_constant_band` with the rows of
        `_curved_band` added into its middle rows, the matrix that each
        step of `minimize` factors, bit for bit (`BandedSystem.ab`)."""
        ab, curved = self._constant_band(c), self._curved_band(x, w, c)
        b, r = self.bandwidth, len(curved) // 2
        if self._repeat[1]:
            return BandedSystem(ab, b, curved=curved, repeat=self._repeat).ab
        ab[b - r:b + r + 1] += curved
        return ab

    def minimize(self, x0: np.ndarray, w: DoubleWell, c, gtol: float,
                 maxiter: int, constraint=None, divergence_floor=None):
        """Minimize `energy` over the `free` unknowns from x0, the others
        held at x0's values, by damped Newton (`_solvers.damped_newton`), at
        most maxiter steps.  The constant band is built once per solve, and
        each step's system adds the part that changes with x
        (`_curved_band`) as it is factored.  The Hessian is symmetric, so
        each step's system, the one `_verdict` solves included, is declared
        so and factored by Cholesky unless its leading block is not
        positive definite (`BandedSystem`).  The Armijo test reads
        `energy_change`, so
        `energy` is evaluated only at the first and the returned iterate.
        The node values of an iterate are computed once and shared by its
        energy, gradient, curved band and the x side of its
        `energy_change`: the solve holds those of one iterate, with its own
        copy of the unknowns, and reuses them for a call whose free unknowns
        have the same bits, so a call at any other bits, an array changed in
        place included, computes its own, and none outlive the solve.
        A constraint row q holds q . x at its value in x0: the gradient is
        projected onto q . d = 0 and each step solves [[H, q], [q^T, 0]].
        An energy below divergence_floor stops the run, flagged diverged.

        Returns the minimizer, the solver's `SolveInfo`, the measure of
        the kernel's `_verdict` and converged: the kernel's verdict, no
        divergence and no stop on a failed line search, on no descent
        direction or on the iteration limit, which end short of a
        minimizer whatever the gradient."""
        x, free = np.array(x0, dtype=float), self.free

        def full(z, fixed=x):
            v = fixed.copy()
            v[free] = z
            return v

        held = ()

        def at(z):
            # full(z) and its node values, kept for the one iterate whose free
            # unknowns have z's bits (compared as integers, so -0.0 is not 0.0)
            nonlocal held
            if not held or not np.array_equal(held[0][free].view(np.uint64), z.view(np.uint64)):
                u = full(z)
                held = (u, self._node_values(u))
            return held

        def energy(z):
            u, v = at(z)
            return self.energy(u, w, c, v)

        def grad(z):
            u, v = at(z)
            g = self.grad(u, w, c, v)[free]
            q = constraint
            return g if q is None else g - (float(q @ g) / float(q @ q)) * q

        base, b = self._constant_band(c), self.bandwidth

        def system(z):
            u, v = at(z)
            curved = self._curved_band(u, w, c, v)
            return BandedSystem(base, b, constraint, curved, self._repeat, symmetric=True)

        def line(z, dz):
            u, v = at(z)
            return self.energy_change(u, full(dz, np.zeros_like(x)), w, c, v)

        z, info = damped_newton(
            energy, grad, system, x[free],
            maxiter=maxiter, gtol=gtol, divergence_floor=divergence_floor, line=line,
        )
        x[free] = z
        measure, converged = self._verdict(x, info, w, c, gtol, grad, system)
        failed = info.diverged or info.message in _FAILED_STOPS
        return x, info, measure, bool(converged and not failed)


class DiscreteEnergy(_Quadrature):
    """Quadrature of finite-difference stencils of accuracy
    `grids.ACCURACY_ORDER` for the three integrals of `_Quadrature` on one
    grid, the unknowns being the samples u, with the exact gradient and
    Hessian.  D_{n-1} and D_n are held as their (m, m) stencil windows
    (`grids.diff_operator`) and applied with `grids.apply_stencil` and its
    transpose; D_0 is the identity, the 1-tap window of weight 1, so n = 1
    is allowed.  For a (rows, N) stack u, one field per row, each of
    `terms` is an array with one entry per row, bit for bit the term of a
    call on that row.  The quadratic forms K = 2 D^T diag(q) D of the
    Hessian are assembled on first use (`_Quadrature._bands`), row r of
    D_n an element of one node of weight q_r, and kept for the life of the
    instance: a solver holds one kernel for its whole run.
    """

    #: every sample is an unknown of `minimize`
    free = slice(None)

    def __init__(self, grid: Grid, n: int):
        _require_integer_order(n)
        if not 1 <= n <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"n must be in [1, {MAX_DERIVATIVE_ORDER}]; got n = {n}")
        self.q = quadrature_weights(grid)
        #: one element per row of D_n; every sample is a free unknown
        self.num_elements = self.num_free = grid.num_points
        low = np.ones((1, 1)) if n == 1 else diff_operator(grid, n - 1)
        # the stencil windows of D_{n-1} and D_n
        self._windows = (low, diff_operator(grid, n))
        #: half-bandwidth of the Hessian, its lower and upper bandwidth: the
        #: reach m - 1 of the m-point D_n stencil window
        self.bandwidth = len(self._windows[1]) - 1

    def _elements(self, e: np.ndarray):
        """Rows e of D_n as elements of `_Quadrature._bands`: row r is one
        node of weight q_r over the window of D_n's row r, from column
        starts[r], whose tables are the row's weights in D_{n-1}, padded
        into that window, and in D_n.  Returns starts[e], the (len(e), 1)
        weights and the (2, len(e), 1, m) tables."""
        (low, high), N = self._windows, len(self.q)
        m, k = len(high), len(low)
        starts, s = window_starts(N, m, e), window_starts(N, k, e)
        tables = np.zeros((2, len(e), 1, m))
        cols = (s - starts)[:, None] + np.arange(k)
        tables[0, np.arange(len(e))[:, None], 0, cols] = low[s - e + k - 1]
        tables[1, :, 0] = high[starts - e + m - 1]
        return starts, self.q[e, None], tables

    def _node_values(self, u):
        """(u, D_{n-1} u, D_n u) at the grid points."""
        low, high = self._windows
        return u, apply_stencil(low, u), apply_stencil(high, u)

    def _integral(self, v):
        """q @ v, or for a (rows, N) stack q @ row for each row: the same
        dot product as on that row alone."""
        if v.ndim == 1:
            return float(self.q @ v)
        return np.array([self.q @ row for row in v])

    def _gram(self, windows, v, dv=None) -> np.ndarray:
        """D^T (q o D v) for the stencil operator D of the (m, m) windows,
        by D's own kernel pair (`grids.apply_stencil` and its transpose),
        D v read from dv when the caller has it."""
        if dv is None:
            dv = apply_stencil(windows, v)
        return apply_stencil_transpose(windows, self.q * dv)

    def grad(self, u: np.ndarray, w: DoubleWell, c, values=None) -> np.ndarray:
        """Exact gradient of `energy` with respect to the samples,

            c_pot W'(u) o q  +  2 c_low D_{n-1}^T (q o D_{n-1} u)
                             +  2 c_high D_n^T (q o D_n u),

        the adjoint of the quadrature-of-stencils composition, D_k u read
        from the node values when the caller has them.  Without them each
        D_k u is formed and dropped in turn: holding both at once made every
        call at 16385 points fault in fresh pages."""
        c_pot, c_low, c_high = c
        low, high = self._windows
        low_u = high_u = None
        if values is not None:
            _, low_u, high_u = values
        g = c_pot * np.asarray(w.eval_derivative(u), dtype=float) * self.q
        g += 2.0 * c_low * self._gram(low, u, low_u)
        g += 2.0 * c_high * self._gram(high, u, high_u)
        return g

    def _curved_band(self, u: np.ndarray, w: DoubleWell, c, values=None) -> np.ndarray:
        """The part of the Hessian that changes with the samples u, its
        diagonal c_pot W''(u) q (`DoubleWell.second_derivative`), as a band
        of one row; it reads no node values but u."""
        return (c[0] * np.asarray(w.second_derivative(u), dtype=float) * self.q)[None]

    def gradient_floor(self, u: np.ndarray, w: DoubleWell, c) -> float:
        """Roundoff scale of the assembled gradient: the largest row of sums
        of absolute terms, times 8 machine epsilon.  The stencil weights
        grow like h^(-2n) through the quadratic forms, so this is the
        resolution-dependent accuracy limit of `grad` itself.  |D| is the
        stencil of D's absolute windows, applied by `_gram`."""
        c_pot, c_low, c_high = c
        au = np.abs(u)
        low, high = self._windows

        def rowsum(windows):
            return float(np.max(2.0 * self._gram(np.abs(windows), au)))

        scale = abs(c_high) * rowsum(high) + abs(c_low) * rowsum(low)
        wprime = np.abs(np.asarray(w.eval_derivative(u), dtype=float))
        scale += abs(c_pot) * float(np.max(wprime * self.q))
        return 8.0 * np.finfo(float).eps * scale

    def _verdict(self, u, info, w: DoubleWell, c, gtol, grad, system):
        """The roundoff floor `gradient_floor` at the minimizer u, and
        whether the final gradient sup-norm is below max(gtol, floor)."""
        floor = self.gradient_floor(u, w, c)
        return floor, info.gradient_norm < max(gtol, floor)


class _SplineKernel(_Quadrature):
    """The three integrals of `_Quadrature` for a B-spline f of degree p
    on (a, b), integrated exactly by Gauss-Legendre quadrature: an open
    knot vector (p + 1 copies of each end) with E uniform elements, whose
    first and last `fixed` coefficients are held at -1 and +1 and the rest
    free.  One element is the polynomials of degree p in the Bernstein
    basis, well conditioned where the monomial basis is not (Farouki &
    Rajan, CAGD 4, 1987; `bernstein_matrix`).  With p = n + 3 and
    fixed = n (`profiles._profile_kernel`) f joins the wells C^(n-1) at a
    and b, as an H^n transition must.  Each element has 2p + 1 Gauss
    nodes, exact to degree 4p + 1, so the energy of a quartic W, of degree
    4p in f, is exact (roundoff aside), and spaces of halved spacing are
    nested: the minimum cannot rise.

    The B-spline values and derivatives of orders n - 1 and n at the nodes
    are tabulated once per kernel (`_element_tables`), and so are K_{n-1}
    and K_n on the free coefficients (`_Quadrature._bands`).  The gradient
    adds its element entries with one bincount; the Hessian has
    half-bandwidth p, the whole matrix at E = 1, and each Newton step adds
    only the W'' element matrices (`_curved_band`; de Boor, A Practical
    Guide to Splines, ch. IX-X).
    """

    def __init__(self, n: int, interval, elements: int, degree: int, fixed: int):
        (left, right), E, p = interval, elements, degree
        self.n, self.p, self.num_elements, self.fixed = n, p, E, fixed
        #: half-bandwidth of the Hessian
        self.bandwidth = p
        edges = np.linspace(left, right, E + 1)
        self.knots = np.concatenate((np.full(p, left), edges, np.full(p, right)))
        self.size = E + p
        self.free = slice(fixed, self.size - fixed)
        self.num_free = self.size - 2 * fixed
        #: the Greville abscissae, where coefficient i sits
        self.greville = sliding_window_view(self.knots[1:-1], p).mean(axis=1)
        # tables[e, k, g, a]: B-spline e + a of element e at its node g,
        # k = 0, 1, 2 for the value and the derivatives of order n - 1 and n
        tables, wts = _element_tables(n, E, p)
        length = (right - left) / E
        self.tables = tables * (length ** -np.array([0.0, n - 1, n]))[:, None, None]
        self.wts = np.full((E, len(wts)), 0.5 * length) * wts
        # c[_window[e]]: the coefficients of element e's B-splines
        self._window = np.arange(E)[:, None] + np.arange(p + 1)
        # _scatter[k]: the entry of row k of `grads` that each element entry
        # (a, e) adds to, in that order, so that a bincount adds each
        # coefficient's entries in descending e from 0.0
        self._scatter = self.size * np.arange(3)[:, None] + self._window.T.ravel()
        # the free-block band place of each W'' element matrix entry
        self._band_index = _band_index(np.arange(E) - fixed, p, self.num_free)

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """The coefficients with the given values at the Greville abscissae
        in the free places and the wells in the fixed ones."""
        c = np.array(values, dtype=float)
        c[:self.fixed], c[self.size - self.fixed:] = -1.0, 1.0
        return c

    def _values(self, c: np.ndarray) -> np.ndarray:
        """(f, f^(n-1), f^(n)) at the nodes, as an (E, 3, G) array."""
        E, p = self.num_elements, self.p
        B = self.tables.reshape(E, -1, p + 1)
        return (B @ c[self._window][:, :, None]).reshape(self.tables.shape[:3])

    def sample(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """f at the points x in [a, b]."""
        return BSpline(self.knots, self.p, c)(x)

    def _node_values(self, c: np.ndarray):
        """(f, f^(n-1), f^(n)) at the nodes, each an (E, G) array."""
        return self._values(c).transpose(1, 0, 2)

    def _integral(self, v: np.ndarray) -> float:
        """The Gauss-Legendre sum of the (E, G) node values v."""
        return float(np.vdot(self.wts, v))

    def grad(self, c: np.ndarray, w: DoubleWell, coef, values=None) -> np.ndarray:
        """The gradient of `energy` with respect to all coefficients."""
        return self.grads(c, w, (coef,), values)[0]

    def grads(self, c: np.ndarray, w: DoubleWell, coefs, values=None) -> np.ndarray:
        """Row k is `grad` for the coefficient triple coefs[k], for up to
        three triples: every row from one pass over the nodes, and their
        element entries added by one bincount."""
        v = self._values(c) if values is None else values.transpose(1, 0, 2)
        s = np.empty_like(v)
        s[:, 0] = w.eval_derivative(v[:, 0])
        np.multiply(v[:, 1:], 2.0, out=s[:, 1:])
        # s[e, k, j, g] = coefs[k][j] s[e, j, g] wts[e, g]
        s = np.asarray(coefs, dtype=float)[:, :, None] * s[:, None]
        s *= self.wts[:, None, None]
        E, p, k = self.num_elements, self.p, len(coefs)
        r = s.reshape(E, k, -1) @ self.tables.reshape(E, -1, p + 1)
        return np.bincount(
            self._scatter[:k].ravel(), r.transpose(1, 2, 0).ravel(), k * self.size
        ).reshape(k, self.size)

    def _elements(self, e: np.ndarray):
        """Elements e for `_Quadrature._bands`: element e is over the free
        columns e - fixed .. e - fixed + p, with its Gauss weights and its
        tables of the derivatives of orders n - 1 and n."""
        return e - self.fixed, self.wts[e], self.tables[e, 1:].swapaxes(0, 1)

    def _curved_band(self, c: np.ndarray, w: DoubleWell, coef, values=None) -> np.ndarray:
        """c_pot int W''(f) B_a B_b, the part of the Hessian that changes
        with the coefficients c, in the free block's band storage."""
        f = self._values(c)[:, 0] if values is None else values[0]
        w2 = np.asarray(w.second_derivative(f), dtype=float)
        shape = (2 * self.p + 1, self.num_free)
        s = coef[0] * self.wts * w2
        return _element_band(self._band_index, self.tables[:, 0], s, shape)

    def _verdict(self, c, info, w: DoubleWell, coef, gtol, grad, system):
        """The Newton decrement delta^2 = -g . d of the tau = 0 step d at
        the minimizer c (Boyd & Vandenberghe, Convex Optimization,
        sec. 9.5.1; inf when that step cannot be solved), its factorization
        counted in info, and whether |delta^2| is at most `DECREMENT_RTOL`
        max(1, |energy|).  The verdict does not read the gradient's
        sup-norm, which stalls on roundoff above gtol at n >= 3 while
        delta^2 is far below its tolerance."""
        g, last = grad(c[self.free]), system(c[self.free])
        try:
            decrement = -float(g @ last.solve(-g))
        except LinAlgError:
            decrement = np.inf
        if not np.isfinite(decrement):
            decrement = np.inf
        info.factorizations += last.factorizations
        return decrement, abs(decrement) <= DECREMENT_RTOL * max(1.0, abs(info.energy))


@cache
def bernstein_matrix(d: int) -> np.ndarray:
    """The exact (d + 1, d + 1) matrix M[k, j] = C(k, j) / C(d, j), zero
    for j > k, as Fractions: M a is the Bernstein coefficients on (0, 1),
    the coefficients of the one-element `_SplineKernel` of degree d on
    (0, 1), of the polynomial sum_j a_j x^j (x^j = sum_k M[k, j] B_k).
    Read-only: every caller shares it."""
    M = np.array([
        [Fraction(comb(k, j), comb(d, j)) for j in range(d + 1)]
        for k in range(d + 1)
    ])
    M.flags.writeable = False
    return M


def _element_tables(n: int, E: int, p: int):
    """The B-spline tables of `_SplineKernel` on elements of unit length:
    tables[e, k, g, a] is B-spline e + a of degree p on the open knot
    vector 0, ..., 0, 1, ..., E - 1, E, ..., E (p + 1 copies of each end)
    at Gauss node g of element e, for k = 0, 1, 2 its value and its
    derivatives of order n - 1 and n; wts are the 2p + 1 Gauss-Legendre
    weights on (-1, 1).  Only the first and last p - 1 elements meet the
    repeated end knots, and every element between sees the knots of
    element p - 1, so its rows are computed once and repeated."""
    nodes, wts = np.polynomial.legendre.leggauss(2 * p + 1)
    e = np.arange(E)
    if E >= 2 * p - 1:
        reps = np.concatenate((np.arange(p), np.arange(E - p + 1, E)))
        which = np.minimum(e, p - 1) + np.maximum(e - (E - p), 0)
    else:
        reps = which = e
    knots = np.concatenate((np.zeros(p), np.arange(E + 1.0), np.full(p, float(E))))
    x = reps[:, None] + 0.5 * (nodes + 1.0)
    ders = _bspline_derivatives(knots, p, np.repeat(reps + p, len(nodes)), x.ravel(), n)
    tables = ders[[0, n - 1, n]].reshape(3, p + 1, len(reps), len(nodes))
    return np.ascontiguousarray(tables.transpose(2, 0, 3, 1)[which]), wts


@dataclass(frozen=True, eq=False)
class BSpline:
    """sum_i c_i B_i for the B-splines B_i of degree p on the knots, each end
    knot of multiplicity p + 1: a callable on 1-D arrays of points of its
    interval [knots[0], knots[-1]]; a point outside it is a `ValueError`."""

    knots: np.ndarray
    degree: int
    coefficients: np.ndarray

    @property
    def interval(self):
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a, b = self.interval
        if np.any(x < a) or np.any(x > b):
            raise ValueError(f"spline evaluated outside its interval [{a!r}, {b!r}]")
        index, basis = _nonzero_basis(self.knots, self.degree, x)
        return np.einsum("ai,ai->i", basis, self.coefficients[index])

    @classmethod
    def not_a_knot(cls, f: Field) -> "BSpline":
        """The not-a-knot interpolant of f's samples (de Boor, *A Practical
        Guide to Splines*, ch. IV), that of `scipy.interpolate.CubicSpline(x,
        y, bc_type="not-a-knot")`: degree k = min(3, N - 1), knots at the
        nodes but the second and the last-but-one.  The coefficients solve
        the collocation system B_j(x_i) c_j = y_i, k bands on each side of
        the diagonal, by one `BandedSystem` solve."""
        x, n = f.grid.nodes(), f.grid.num_points
        k = min(3, n - 1)
        knots = np.concatenate((np.full(k + 1, x[0]), x[2:-2], np.full(k + 1, x[-1])))
        index, basis = _nonzero_basis(knots, k, x)
        ab = np.zeros((2 * k + 1, n))
        ab[k + np.arange(n) - index, index] = basis
        return cls(knots, k, BandedSystem(ab, k).solve(f.values))


def _nonzero_basis(knots, p, x):
    """index[a, i], the index of the a-th of the p + 1 B-splines of degree
    p on the knots nonzero at x[i], and basis[a, i], its value there; a
    point on the last knot takes the last span of positive length."""
    spans = np.clip(np.searchsorted(knots, x, side="right") - 1, p, len(knots) - p - 2)
    basis = _bspline_derivatives(knots, p, spans, x, 0)[0]
    return spans - p + np.arange(p + 1)[:, None], basis


def _bspline_derivatives(knots, p, spans, x, nd) -> np.ndarray:
    """ders[k, a, i]: the k-th derivative, k = 0 .. nd, of the B-spline
    spans[i] - p + a of degree p on the knots at x[i], 0 past order p, for
    the p + 1 B-splines nonzero on the span knots[s] <= x < knots[s + 1], s =
    spans[i], which must have positive length.  The Cox-de Boor recursion
    with its derivatives (Piegl & Tiller, The NURBS Book, algorithm A2.3),
    run over all the points at once.  Of A2.3's table ndu, the B-splines
    of degree below p - nd are dropped as the recursion passes them, and
    the knot differences are recomputed from left and right, so sampling
    (nd = 0) holds four (p + 1)-row arrays.

    The derivative recursion runs for all p + 1 B-splines r at once.  Its
    coefficient a[j] of order k multiplies the B-spline i = r - k + j of
    degree p - k, and the rows r that have term j are the run
    k - j .. p - j, on which i runs over 0 .. p - k, each with the knot
    difference of A2.3's ndu[p - k + 1, i].  Each row sums its terms in
    A2.3's ascending j, from its j = 0 term or, for r < k, from 0.0, so the
    derivatives are bit for bit those of the loop over the rows, zero
    signs included."""
    m = len(x)
    left, right = np.empty((p + 1, m)), np.empty((p + 1, m))
    # basis[j][r]: B-spline s - j + r of degree j, for the degrees the
    # derivatives read
    N = np.ones((1, m))
    basis = {0: N}
    for j in range(1, p + 1):
        left[j] = x - knots[spans + 1 - j]
        right[j] = knots[spans + j] - x
        # all r < j at once: temp[r] = N[r] / ndu[j, r] of degree j - 1,
        # ndu[j, r] = right[r + 1] + left[j - r], goes to N[r] through
        # right[r + 1], to N[r + 1] through left[j - r]
        temp = N / (right[1:j + 1] + left[j:0:-1])
        N = np.zeros((j + 1, m))
        N[:j] = right[1:j + 1] * temp
        N[1:] += left[j:0:-1] * temp
        if j >= p - nd:
            basis[j] = N
    ders = np.empty((nd + 1, p + 1, m))
    ders[0] = N
    ders[p + 1:] = 0.0
    # a[j, r]: the coefficients of order k - 1, each on its run of rows
    a = np.ones((1, p + 1, m))
    for k in range(1, min(nd, p) + 1):
        pk = p - k
        gaps = right[1:pk + 2] + left[pk + 1:0:-1]  # ndu[pk + 1, i]
        new = np.empty((k + 1, p + 1, m))
        d = ders[k]
        for j in range(k + 1):
            run = slice(k - j, p - j + 1)
            if j == 0:
                new[j, run] = a[0, run] / gaps
            elif j == k:
                new[j, run] = -a[k - 1, run] / gaps
            else:
                new[j, run] = (a[j, run] - a[j - 1, run]) / gaps
            term = new[j, run] * basis[pk]
            if j == 0:
                d[k:] = term
            else:
                # row k - j has no j = 0 term: its sum starts from 0.0
                d[k - j] = 0.0 + term[0]
                d[k - j + 1:p - j + 1] += term[1:]
        a = new
    scale = p
    for k in range(1, nd + 1):
        ders[k] *= scale
        scale *= p - k
    return ders


def _band_index(starts: np.ndarray, b: int, width: int, forms: int = 1) -> np.ndarray:
    """The flat place of each entry (k, e, a, c) of `forms` stacks of
    element matrices over windows of b + 1 columns in band storage
    ab[k, b + i - j, j] of shape (forms, 2b + 1, width), i = starts[e] + a
    and j = starts[e] + c; an entry whose row or column falls outside
    0 .. width - 1 goes to the one slot past the end, which
    `_element_band` drops."""
    a = np.arange(b + 1)
    i = starts[:, None] + a
    ok = (i >= 0) & (i < width)
    size = (2 * b + 1) * width
    place = (b + a[:, None] - a) * width + i[:, None, :]
    place = size * np.arange(forms)[:, None, None, None] + place
    return np.where(ok[:, :, None] & ok[:, None, :], place, forms * size).ravel()


def _element_band(index: np.ndarray, tables: np.ndarray, weights: np.ndarray, shape):
    """The element matrices sum_g weights[e, g] B[e, g, a] B[e, g, c] of the
    (..., E, G, P) tables B with the (E, G) node weights, added into band
    storage of the given shape at the places `index` of `_band_index` by
    one bincount: each entry sums its elements' products in ascending e
    from 0.0."""
    M = (tables * weights[:, :, None]).swapaxes(-1, -2) @ tables
    return np.bincount(index, M.ravel(), prod(shape) + 1)[:-1].reshape(shape)


@dataclass(frozen=True)
class EnergyParams:
    """The triple (n, eps, lam): n >= 2, eps positive and finite, lam
    finite and of either sign."""

    n: int
    epsilon: float
    lam: float = 0.0

    def __post_init__(self):
        _require_integer_order(self.n)
        if self.n < 2:
            raise ValueError("energy requires n >= 2")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")

    @property
    def weights(self):
        """The weights (1/eps, -lam eps^(2n-3), eps^(2n-1)) of the three
        integrals of `DiscreteEnergy.terms` in E: the coefficients c of
        `DiscreteEnergy.energy` for this energy."""
        eps, n = self.epsilon, self.n
        return (1.0 / eps, -self.lam * eps ** (2 * n - 3), eps ** (2 * n - 1))


@dataclass(frozen=True)
class EnergyBreakdown:
    """The three quadrature terms and their sum."""

    potential_term: float
    concave_term: float
    highest_term: float
    total: float


def _breakdown(kernel: DiscreteEnergy, u, p: EnergyParams, w) -> EnergyBreakdown:
    """The kernel's three integrals at the samples u, each times its
    weight in `p.weights`, and their sum."""
    pot, concave, highest = (c * t for c, t in zip(p.weights, kernel.terms(u, w)))
    return EnergyBreakdown(pot, concave, highest, pot + concave + highest)


def evaluate(u: Field, p: EnergyParams, w: DoubleWell) -> EnergyBreakdown:
    """Quadrature evaluation of the three energy terms on u's grid."""
    return _breakdown(DiscreteEnergy(u.grid, p.n), u.values, p, w)


def evaluate_rescaled(u: Field, p: EnergyParams, w: DoubleWell) -> float:
    """Energy via the substitution v(x) = u(eps x) on the stretched interval
    I/eps, where the functional loses its eps-weights:

        int_{I/eps}  W(v) - lam (v^(n-1))^2 + (v^(n))^2  dx.

    v is sampled on a stretched grid with twice u's intervals
    (2 (N-1) + 1 points) from the not-a-knot spline interpolant of u
    (`BSpline.not_a_knot`), so agreement with `evaluate` is a genuine
    two-discretization cross-check rather than an identical computation;
    the gap shrinks at the quadrature/interpolation order.
    """
    eps = p.epsilon
    g = u.grid
    stretched = Grid(g.a / eps, g.b / eps, 2 * (g.num_points - 1) + 1)
    v = BSpline.not_a_knot(u)(np.clip(eps * stretched.nodes(), g.a, g.b))
    pot, low, high = DiscreteEnergy(stretched, p.n).terms(v, w)
    return pot - p.lam * low + high


def gradient(u: Field, p: EnergyParams, w: DoubleWell) -> Field:
    """Exact gradient of the discrete energy with respect to the samples,
    `DiscreteEnergy.grad` with the weights c = `p.weights`, so directional
    derivatives match central differences of `evaluate` to roundoff."""
    return Field(u.grid, DiscreteEnergy(u.grid, p.n).grad(u.values, w, p.weights))
