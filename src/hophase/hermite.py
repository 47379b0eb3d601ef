"""
Two-point Hermite coupling polynomials of degree <= 2n-1.

Given boundary data y = (y_0, ..., y_{n-1}), the zeta polynomial carries the
data at x = 0 and reaches the +1 well flatly at x = 1:

    p(0) = y_0,  p^(k)(0) = y_k  (1 <= k <= n-1),
    p(1) = 1,    p^(k)(1) = 0    (1 <= k <= n-1).

The eta polynomial is the mirrored coupling out of the -1 well:

    q(0) = -1,   q^(k)(0) = 0,
    q(1) = y_0,  q^(k)(1) = y_k.

The 2n x 2n linear system is block triangular: the x = 0 block is the
diagonal A with A_ii = (i-1)!, the x = 1 block acting on the upper
coefficients is C with C_ij = (n+j-1)!/(n+j-i)!, so the determinant is
det(A) det(C) = (prod_{i=1}^n (i-1)!)^2, and D_ij = binom(n+j-1, i-1)
has det(D) = 1.

Coefficients are computed exactly over rationals: at n = 6 the system's
conditioning already amplifies float64 roundoff in the monomial
coefficients to ~1e-8 endpoint residuals, past the 1e-9 contract, so the
float path cannot certify the boundary conditions.  Exact solves make the
conditions hold identically; float views of the coefficients are provided
for numerics.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, perm
from typing import List, Sequence, Tuple, Union

import numpy as np

from .energy import _SplineKernel, bernstein_matrix
from .potentials import DoubleWell

__all__ = [
    "MAX_N",
    "BoundaryData",
    "CouplingPolynomial",
    "coefficient_matrix_exact",
    "determinant_exact",
    "solve_zeta",
    "solve_eta",
    "eval_poly",
    "endpoint_residuals",
    "coupling_energy_upper_bound",
]

#: largest supported n; (2n-1)! for n = 8 is 1307674368000 < 2**53, so all
#: matrix entries are exactly representable as floats
MAX_N = 8


@dataclass(frozen=True)
class BoundaryData:
    """Boundary data vector y = (y_0, ..., y_{n-1}); n = len(y) >= 2."""

    y: Tuple[float, ...]

    def __post_init__(self):
        y = tuple(float(v) for v in self.y)
        object.__setattr__(self, "y", y)
        if len(y) < 2:
            raise ValueError("boundary data needs length n >= 2")
        if len(y) > MAX_N:
            raise ValueError(f"boundary data length capped at n = {MAX_N}")
        if not all(np.isfinite(y)):
            raise ValueError("boundary data must be finite")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class CouplingPolynomial:
    """Degree <= 2n-1 polynomial with exact rational coefficients.

    kind is "zeta" (data at 0, +1 well at 1) or "eta" (-1 well at 0, data
    at 1).  `coefficients` is the float view a_0..a_{2n-1}; the exact
    rationals live in `exact_coefficients` and are what the endpoint
    conditions are certified against.
    """

    exact_coefficients: Tuple[Fraction, ...]
    kind: str
    data: BoundaryData

    @property
    def n(self) -> int:
        return len(self.exact_coefficients) // 2

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([float(c) for c in self.exact_coefficients])

    def __call__(self, x, k: int = 0):
        return eval_poly(self, x, k)


def coefficient_matrix_exact(n: int) -> List[List[int]]:
    """Exact integer 2n x 2n system matrix of both coupling polynomials.

    Row ordering: p^(k)(0) for k = 0..n-1, then p^(k)(1) for k = 0..n-1.
    Column j holds the coefficient of a_j.  The x = 0 block is diagonal
    with (k)!, the x = 1 rows are k-th derivative evaluations j!/(j-k)!
    for j >= k.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in [2, {MAX_N}]")
    size = 2 * n
    M = [[0] * size for _ in range(size)]
    for k in range(n):
        M[k][k] = factorial(k)
        for j in range(k, size):
            M[n + k][j] = perm(j, k)
    return M


def determinant_exact(M: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant via Bareiss fraction-free elimination."""
    A = [list(map(int, row)) for row in M]
    m = len(A)
    sign = 1
    prev = 1
    for col in range(m - 1):
        piv = next((r for r in range(col, m) if A[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            sign = -sign
        for r in range(col + 1, m):
            for c in range(col + 1, m):
                A[r][c] = (A[r][c] * A[col][col] - A[r][col] * A[col][c]) // prev
            A[r][col] = 0
        prev = A[col][col]
    return sign * A[-1][-1]


def _solve_exact(
    M: Sequence[Sequence[int]], rhs: Sequence[Fraction]
) -> Tuple[Fraction, ...]:
    """Gaussian elimination with partial pivoting over exact rationals."""
    m = len(rhs)
    A = [[Fraction(M[r][c]) for c in range(m)] + [rhs[r]] for r in range(m)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise ValueError("singular system")
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(m):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return tuple(A[r][m] for r in range(m))


def _solve(y: Union[BoundaryData, Sequence[float]], kind: str) -> CouplingPolynomial:
    """Exact solve of the coefficient_matrix_exact(n) system: the data y
    fill the x = 0 rows for zeta and the x = 1 rows for eta, the well
    value (+1 for zeta, -1 for eta) with zero derivatives the others.

    The float values in y are promoted to exact rationals (floats are
    rationals), so the returned polynomial satisfies all 2n conditions
    identically; the linear-system residual is exactly zero.
    """
    if not isinstance(y, BoundaryData):
        y = BoundaryData(tuple(y))
    n = y.n
    data = [Fraction(v) for v in y.y]
    well = [Fraction(1 if kind == "zeta" else -1)] + [Fraction(0)] * (n - 1)
    rhs = data + well if kind == "zeta" else well + data
    coeffs = _solve_exact(coefficient_matrix_exact(n), rhs)
    return CouplingPolynomial(exact_coefficients=coeffs, kind=kind, data=y)


def solve_zeta(y: Union[BoundaryData, Sequence[float]]) -> CouplingPolynomial:
    """Coupling polynomial carrying data y at x = 0 into the +1 well at x = 1."""
    return _solve(y, "zeta")


def solve_eta(y: Union[BoundaryData, Sequence[float]]) -> CouplingPolynomial:
    """Mirrored coupling: -1 well at x = 0, data y at x = 1."""
    return _solve(y, "eta")


@cache
def _step_polynomial(n: int) -> CouplingPolynomial:
    """The zeta polynomial from the -1 well, flat to order n - 1, to the +1
    well: the smoothed step of the ensembles' hermite_step fields, solved
    once per order (it is frozen)."""
    return solve_zeta((-1.0,) + (0.0,) * (n - 1))


def eval_poly(p: CouplingPolynomial, x, k: int = 0):
    """k-th derivative of the polynomial at x.

    Uses p^(k)(x) = sum_i ((k+i)!/i!) a_{k+i} x^i.  Float x gives floats
    shaped like x; for exact endpoint checks pass a Fraction (or int) and
    the arithmetic stays exact, returning a Fraction (0 beyond the degree).
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    a = p.exact_coefficients
    exact = isinstance(x, (Fraction, int)) and not isinstance(x, bool)
    if exact:
        xf = Fraction(x)
        total = Fraction(0)
        power = Fraction(1)
        for i in range(len(a) - k):
            total += perm(k + i, k) * a[k + i] * power
            power *= xf
        return total
    return np.polynomial.polynomial.polyval(
        np.asarray(x, dtype=float), _float_derivative_coefficients(a, k)
    )


@lru_cache(maxsize=256)
def _float_derivative_coefficients(a: Tuple[Fraction, ...], k: int) -> np.ndarray:
    """Float monomial coefficients of the k-th derivative of the polynomial
    with exact coefficients a, [0.0] beyond the degree (read-only: every
    caller shares the array)."""
    coeffs = np.array(
        [float(perm(k + i, k) * a[k + i]) for i in range(len(a) - k)] or [0.0]
    )
    coeffs.flags.writeable = False
    return coeffs


def endpoint_residuals(p: CouplingPolynomial) -> np.ndarray:
    """Absolute residuals of all 2n boundary conditions, computed exactly."""
    n = p.n
    y = p.data.y
    if p.kind == "zeta":
        left = [Fraction(v) for v in y]
        right = [Fraction(1)] + [Fraction(0)] * (n - 1)
    elif p.kind == "eta":
        left = [Fraction(-1)] + [Fraction(0)] * (n - 1)
        right = [Fraction(v) for v in y]
    else:
        raise ValueError(f"unknown kind {p.kind!r}")
    res = []
    for k in range(n):
        res.append(abs(eval_poly(p, Fraction(0), k) - left[k]))
        res.append(abs(eval_poly(p, Fraction(1), k) - right[k]))
    return np.array([float(r) for r in res])


@cache
def _window_kernel(n: int) -> _SplineKernel:
    """The polynomials of degree 2n - 1 on (0, 1), in the Bernstein basis."""
    return _SplineKernel(n, (0.0, 1.0), 1, 2 * n - 1, 0)


def coupling_energy_upper_bound(
    y: Union[BoundaryData, Sequence[float]],
    lam: float,
    w: DoubleWell,
    kind: str = "zeta",
) -> float:
    """Upper bound for the endpoint coupling energy by testing with the
    Hermite polynomial:

        int_0^1 W(p) - lam (p^(n-1))^2 + (p^(n))^2 dx.

    Any admissible polynomial bounds the coupling infimum from above; the
    bound is continuous in y because the coefficients are.  The three
    integrals come from `_window_kernel`, the Bernstein basis of degree
    2n - 1, on the exact coefficients mapped exactly and rounded once; its
    4n - 1 Gauss nodes are exact for a quartic W (roundoff aside).  For
    the well data (y = e_1 for zeta, y = -e_1 for eta) the polynomial is
    the constant well value, and the bound is 0.0 without quadrature."""
    if kind not in ("zeta", "eta"):
        raise ValueError(f"unknown kind {kind!r}")
    if not isinstance(y, BoundaryData):
        y = BoundaryData(tuple(y))
    if y.y == (1.0 if kind == "zeta" else -1.0,) + (0.0,) * (y.n - 1):
        return 0.0
    p = solve_zeta(y) if kind == "zeta" else solve_eta(y)
    c = bernstein_matrix(2 * y.n - 1) @ np.array(p.exact_coefficients)
    pot, low, high = _window_kernel(y.n).terms(c.astype(float), w)
    return pot - lam * low + high
