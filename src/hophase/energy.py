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
`DiscreteEnergy` is their one discretization on a grid, with gradient,
Hessian, energy change along a step, roundoff floor and the damped-Newton
front end of every energy minimizer; `_PolynomialKernel` is the same
three integrals for a polynomial, integrated exactly by Gauss-Legendre
quadrature.
"""

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np
import scipy.sparse as sp

from ._solvers import BandedSystem, damped_newton
from .grids import (
    MAX_DERIVATIVE_ORDER, Field, Grid, NotAKnotSpline, apply_stencil,
    apply_stencil_transpose, diff_operator, quadrature_weights, window_starts,
)
from .potentials import DoubleWell

__all__ = [
    "DiscreteEnergy",
    "EnergyParams",
    "EnergyBreakdown",
    "evaluate",
    "evaluate_rescaled",
    "gradient",
]


class DiscreteEnergy:
    """Quadrature of finite-difference stencils of accuracy
    `grids.ACCURACY_ORDER` for the three integrals

        terms(u) = (int W(u), int (u^(n-1))^2, int (u^(n))^2)

    on one grid, and for coefficients c = (c_pot, c_low, c_high) the
    functional c_pot int W + c_low int (u^(n-1))^2 + c_high int (u^(n))^2
    with its exact gradient and Hessian, and its change along a step
    (`energy_change`), which the line search of `minimize` reads.  D_{n-1}
    and D_n are held as their (m, m) stencil windows (`grids.diff_operator`)
    and applied with `grids.apply_stencil`; D_0 is the identity, the 1-tap
    window of weight 1, so n = 1 is allowed.  The quadratic forms
    K = 2 D^T diag(q) D are assembled from the windows on first use, as
    bands that K_low and K_high view as DIA matrices, and kept for the
    life of the instance: a solver holds one kernel for its whole run.
    """

    def __init__(self, grid: Grid, n: int):
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_DERIVATIVE_ORDER):
            raise ValueError(f"n must be in [1, {MAX_DERIVATIVE_ORDER}]; got n = {n}")
        self.q = quadrature_weights(grid)
        low = np.ones((1, 1)) if n == 1 else diff_operator(grid, n - 1)
        # the stencil windows of D_{n-1} and D_n
        self._windows = (low, diff_operator(grid, n))

    @cached_property
    def K_low(self) -> sp.dia_matrix:
        return _dia_view(self._bands[0])

    @cached_property
    def K_high(self) -> sp.dia_matrix:
        return _dia_view(self._bands[1])

    @cached_property
    def _bands(self):
        """K_low and K_high in band storage, each with lo = up = r, the
        reach of its stencil window (`BandedSystem`'s layout
        ab[r + i - j, j] = K[i, j]; r = `bandwidth` for K_high, one less for
        K_low, 0 for the identity at n = 1): the row-reversed diagonals of
        `_gram_diagonals`, bit for bit the bands of the CSR triple product
        2 (D^T diag(q)) D that the tests build from the exact stencil
        weights (no code here forms that product)."""
        return tuple(
            _gram_diagonals(W, self.q, len(W) - 1)[::-1] for W in self._windows
        )

    @property
    def bandwidth(self) -> int:
        """Half-bandwidth of the Hessian, its lower and upper bandwidth: the
        reach m - 1 of the m-point D_n stencil window."""
        return len(self._windows[1]) - 1

    def _potential(self, u, w: DoubleWell) -> float:
        return float(self.q @ np.asarray(w.eval(u), dtype=float))

    def _square(self, windows, u) -> float:
        return float(self.q @ apply_stencil(windows, u) ** 2)

    def _gram(self, windows, v) -> np.ndarray:
        """D^T (q o D v) for the stencil operator D of the (m, m) windows,
        by D's own kernel pair (`grids.apply_stencil` and its transpose)."""
        return apply_stencil_transpose(windows, self.q * apply_stencil(windows, v))

    def terms(self, u: np.ndarray, w: DoubleWell):
        """(int W(u), int (u^(n-1))^2, int (u^(n))^2) by quadrature; the
        squares are summed directly, so they never go negative by roundoff
        the way a quadratic form u^T K u can near u ~ const."""
        low, high = self._windows
        return (
            self._potential(u, w),
            self._square(low, u),
            self._square(high, u),
        )

    def energy(self, u: np.ndarray, w: DoubleWell, c) -> float:
        """c_pot int W + c_high int (u^(n))^2 + c_low int (u^(n-1))^2."""
        c_pot, c_low, c_high = c
        pot, low, high = self.terms(u, w)
        return c_pot * pot + c_high * high + c_low * low

    def energy_change(self, u: np.ndarray, d: np.ndarray, w: DoubleWell, c):
        """The change phi(t) = energy(u + t d) - energy(u) along a step d,
        as a function of t, summed as

            phi(t) = c_pot sum q (W(u + t d) - W(u))
                     + sum_k c_k t sum q (D_k d) (2 D_k u + t D_k d)

        over the two quadratic terms k, without differencing two energies.
        The direct difference cancels to about eps sum q |D u| (|D| |u|),
        1e-9 to 1e-8 for the n = 3 profiles on 2001 points.  Here the
        roundoff of the quadratic part scales with t; the potential part
        is still a pointwise difference and keeps a floor of about
        eps |c_pot| sum q (|W(u)| + |u W'(u)|).  D_k u, D_k d and W(u) are
        computed once here; a call of phi costs one W evaluation and one
        dot product.  W is evaluated, never expanded, so any `DoubleWell`
        works."""
        c_pot, c_low, c_high = c
        w0 = np.asarray(w.eval(u), dtype=float)
        low, high = self._windows
        # phi's quadratic part is t (slope + t curvature)
        slope = curvature = 0.0
        for ck, windows in ((c_high, high), (c_low, low)):
            Dd = apply_stencil(windows, d)
            slope += 2.0 * ck * float(self.q @ (Dd * apply_stencil(windows, u)))
            curvature += ck * float(self.q @ Dd**2)

        def phi(t: float) -> float:
            dw = np.asarray(w.eval(u + t * d), dtype=float) - w0
            return c_pot * float(self.q @ dw) + t * (slope + t * curvature)

        return phi

    def grad(self, u: np.ndarray, w: DoubleWell, c) -> np.ndarray:
        """Exact gradient of `energy` with respect to the samples."""
        c_pot, c_low, c_high = c
        return (
            c_pot * np.asarray(w.eval_derivative(u), dtype=float) * self.q
            + c_high * (self.K_high @ u) + c_low * (self.K_low @ u)
        )

    def hess(self, u: np.ndarray, w: DoubleWell, c, free: slice = slice(None)):
        """The Hessian block H[free, free], for a slice free of unit step,
        in band storage ab[b + i - j, j] = H[i, j] with b = `bandwidth`:
        the constant band `_constant_band` with the diagonal `_diagonal`
        in its row b.  `minimize` factors the same matrix, bit for bit, from
        one constant band per solve."""
        ab = self._constant_band(c, free)
        ab[self.bandwidth] = self._diagonal(u[free], w, c, free)
        return ab

    def _constant_band(self, c, free: slice) -> np.ndarray:
        """c_high K_high + c_low K_low on the block [free, free] in band
        storage, the part of the Hessian that does not depend on u; its
        diagonal row is replaced by `_diagonal` in every Newton matrix.
        The K_low/K_high bands are built once per kernel."""
        band_low, band_high = self._bands
        _, c_low, c_high = c
        b, r = self.bandwidth, len(band_low) // 2
        ab = c_high * band_high[:, free]
        ab[b - r:b + r + 1] += c_low * band_low[:, free]
        # couplings to points outside a proper block fall outside the
        # matrix; for the whole range those entries are 0 already
        if free.indices(len(self.q)) != (0, len(self.q), 1):
            for k in range(1, b + 1):
                ab[b - k, :k] = 0.0
                ab[b + k, ab.shape[1] - k:] = 0.0
        return ab

    def _diagonal(self, v: np.ndarray, w: DoubleWell, c, free: slice) -> np.ndarray:
        """The Hessian's diagonal on free at the samples v = u[free], summed
        as (c_high K_high + c_pot W''(v) q) + c_low K_low: the one entry
        per point that changes with u (`DoubleWell.second_derivative`)."""
        band_low, band_high = self._bands
        c_pot, c_low, c_high = c
        return (
            c_high * band_high[self.bandwidth, free]
            + c_pot * np.asarray(w.second_derivative(v), dtype=float) * self.q[free]
        ) + c_low * band_low[len(band_low) // 2, free]

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

    def minimize(self, u0: np.ndarray, w: DoubleWell, c, gtol: float,
                 maxiter: int, free: slice = slice(None), hold_mass: bool = False,
                 divergence_floor=None):
        """Minimize `energy` over the samples u[free], a slice of unit step,
        the others held at their values in u0, by damped Newton
        (`_solvers.damped_newton`) on the Hessian block `hess(..., free)`,
        at most maxiter steps.  The constant band `_constant_band` is built
        once per solve, and each step's system shares it and differs only
        in its diagonal (`_diagonal`, `BandedSystem.with_diagonal`).  The
        Armijo test reads `energy_change` along each step, so `energy` is
        evaluated only at the first and the returned iterate, and
        info.energy is the direct quadrature of the minimizer.  With hold_mass the mass q[free] . u[free] stays at
        its value in u0: the gradient is projected onto q[free] . d = 0
        and each step solves the bordered system [[H, q], [q^T, 0]].  An
        energy below divergence_floor stops the run, flagged diverged.

        Returns the minimizer (all samples), the solver's `SolveInfo`, the
        roundoff floor `gradient_floor` at the minimizer, and the verdict
        converged: a final gradient sup-norm below max(gtol, floor), no
        divergence, and no stop on a failed line search or on no descent
        direction, which end short of a minimizer whatever the gradient."""
        u = np.array(u0, dtype=float)
        q = self.q[free]

        def full(z):
            v = u.copy()
            v[free] = z
            return v

        def grad(z):
            g = self.grad(full(z), w, c)[free]
            if hold_mass:
                g = g - (float(q @ g) / float(q @ q)) * q
            return g

        base = BandedSystem(
            self._constant_band(c, free), self.bandwidth, q if hold_mass else None
        )

        def system(z):
            return base.with_diagonal(self._diagonal(z, w, c, free))

        def line(z, dz):
            d = np.zeros_like(u)
            d[free] = dz
            return self.energy_change(full(z), d, w, c)

        z, info = damped_newton(
            lambda z: self.energy(full(z), w, c), grad, system, u[free],
            maxiter=maxiter, gtol=gtol, divergence_floor=divergence_floor,
            line=line,
        )
        u[free] = z
        floor = self.gradient_floor(u, w, c)
        failed = info.message in ("line search failed", "no descent direction found")
        converged = info.gradient_norm < max(gtol, floor) and not (
            info.diverged or failed
        )
        return u, info, floor, bool(converged)


class _PolynomialKernel:
    """The three integrals of `DiscreteEnergy` for the polynomial
    p(x) = sum_j c_j x^j on (0,1), as functions of its monomial
    coefficients c: Gauss-Legendre quadrature with 2d + 2 nodes, exact up
    to degree 4d + 3, so exact for a quartic W (roundoff aside).  Provides
    what `critical._quotient_functions` reads (terms, grad, the dense
    hess, K_low)."""

    def __init__(self, n: int, degree: int):
        nodes, wts = np.polynomial.legendre.leggauss(2 * degree + 2)
        nodes = 0.5 * (nodes + 1.0)
        self.wts = 0.5 * wts
        ncoef = degree + 1

        def basis(k):
            # row j holds the k-th derivative of x^j at the nodes
            B = np.zeros((ncoef, len(nodes)))
            for j in range(k, ncoef):
                B[j] = factorial(j) // factorial(j - k) * nodes ** (j - k)
            return B

        self.B0, self.Bn1, self.Bn = basis(0), basis(n - 1), basis(n)
        self.K_low = 2.0 * (self.Bn1 * self.wts) @ self.Bn1.T
        self.K_high = 2.0 * (self.Bn * self.wts) @ self.Bn.T

    def terms(self, c: np.ndarray, w: DoubleWell):
        return (
            float(self.wts @ np.asarray(w.eval(c @ self.B0), dtype=float)),
            float(self.wts @ (c @ self.Bn1) ** 2),
            float(self.wts @ (c @ self.Bn) ** 2),
        )

    def grad(self, c: np.ndarray, w: DoubleWell, coef) -> np.ndarray:
        c_pot, c_low, c_high = coef
        wprime = np.asarray(w.eval_derivative(c @ self.B0), dtype=float)
        return (
            c_pot * (self.B0 @ (self.wts * wprime))
            + (c_low * self.K_low + c_high * self.K_high) @ c
        )

    def hess(self, c: np.ndarray, w: DoubleWell, coef) -> np.ndarray:
        c_pot, c_low, c_high = coef
        w2 = np.asarray(w.second_derivative(c @ self.B0), dtype=float)
        return (
            c_pot * (self.B0 * (self.wts * w2)) @ self.B0.T
            + c_low * self.K_low
            + c_high * self.K_high
        )


def _gram_diagonals(windows, q, b) -> np.ndarray:
    """The diagonals dia[b + j - i, j] = K[i, j] of K = 2 D^T diag(q) D for
    the stencil operator D with the (m, m) `windows` of `grids.diff_operator`
    on the N = len(q) points, for b at least the reach m - 1.  Row r of D
    takes the window row starts[r] - r + m - 1 at the columns
    starts[r] .. starts[r] + m - 1, starts = `window_starts(N, m)`; the
    identity is the case m = 1.

    One unbuffered `np.add.at` adds the products (q_r w_a) w_c in index
    order, so every entry sums its rows in ascending r from 0.0, the order
    of the CSR product (D^T diag(q)) D (Bank & Douglas, SMMP), and equals
    that product, which the tests build from the exact stencil weights,
    bit for bit.  The order matters: the n >= 3 profiles stop on their
    gradient noise.  The final factor 2 is exact.

    For q constant but for its first and last entries (the trapezoid
    `grids.quadrature_weights`), every column at least L = 2m + 2 points
    from both ends sums the same products in the same order, so past
    N = 2L the accumulation runs only on the proxy of q's first and last L
    entries, whose columns give the first and last L columns of dia, and
    the columns between are copies of the proxy's column L.
    """
    n, m = len(q), len(windows)
    L = 2 * m + 2
    if n > 2 * L:
        proxy = _gram_diagonals(windows, np.concatenate((q[:L], q[-L:])), b)
        dia = np.empty((2 * b + 1, n))
        dia[:, :L] = proxy[:, :L]
        dia[:, L:n - L] = proxy[:, L, None]
        dia[:, n - L:] = proxy[:, L:]
        return dia
    starts = window_starts(n, m)
    w = windows[starts - np.arange(n) + m - 1]
    cols = starts[:, None] + np.arange(m)
    # q on the row side, as in D^T diag(q); product (r, a, c) adds to
    # K[i, j] at i = cols[r, a], j = cols[r, c]
    products = (q[:, None] * w)[:, :, None] * w[:, None, :]
    dia = np.zeros((2 * b + 1, n))
    np.add.at(
        dia, (b + cols[:, None, :] - cols[:, :, None], cols[:, None, :]), products
    )
    dia *= 2.0
    return dia


def _dia_view(band: np.ndarray) -> sp.dia_matrix:
    """The square matrix held in band storage with lo = up = b, as a DIA
    matrix on the same memory.  Its diagonals run from offset -b to b, so a
    product sums each row in ascending column order."""
    b, n = band.shape[0] // 2, band.shape[1]
    return sp.dia_matrix((band[::-1], np.arange(-b, b + 1)), shape=(n, n))


@dataclass(frozen=True)
class EnergyParams:
    """The triple (n, eps, lam): n >= 2, eps positive and finite, lam
    finite and of either sign."""

    n: int
    epsilon: float
    lam: float = 0.0

    def __post_init__(self):
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
    (2 (N-1) + 1 points) from the not-a-knot cubic spline of u
    (`grids.NotAKnotSpline`), so agreement with `evaluate` is a genuine
    two-discretization cross-check rather than an identical computation;
    the gap shrinks at the quadrature/interpolation order.
    """
    eps = p.epsilon
    g = u.grid
    stretched = Grid(g.a / eps, g.b / eps, 2 * (g.num_points - 1) + 1)
    v = NotAKnotSpline(u)(np.clip(eps * stretched.nodes(), g.a, g.b))
    pot, low, high = DiscreteEnergy(stretched, p.n).terms(v, w)
    return pot - p.lam * low + high


def gradient(u: Field, p: EnergyParams, w: DoubleWell) -> Field:
    """Exact gradient of the discrete energy with respect to the samples:

        c_pot W'(u) o q  +  2 c_low D_{n-1}^T Q D_{n-1} u  +  2 c_high D_n^T Q D_n u

    with (c_pot, c_low, c_high) = `p.weights`, the adjoint of the
    quadrature-of-stencils composition, so directional derivatives match
    central differences of `evaluate` to roundoff.
    """
    k = DiscreteEnergy(u.grid, p.n)
    c_pot, c_low, c_high = p.weights
    v = u.values
    low, high = k._windows
    g = c_pot * np.asarray(w.eval_derivative(v), dtype=float) * k.q
    g += 2.0 * c_low * k._gram(low, v)
    g += 2.0 * c_high * k._gram(high, v)
    return Field(u.grid, g)
