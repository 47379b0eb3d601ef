"""
Uniform-grid discretization of functions on an interval: grids, sampled
fields, finite-difference derivative operators with one-sided boundary
stencils held as their stencil windows, trapezoid quadrature, and CSV
serialization.  The spline through a field's samples is
`energy.BSpline.not_a_knot`, on the one B-spline evaluator of the package.
"""

import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, prod
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid",
    "Field",
    "apply_stencil",
    "apply_stencil_transpose",
    "MAX_DERIVATIVE_ORDER",
    "ACCURACY_ORDER",
    "stencil_weights",
    "diff_operator",
    "derivative",
    "quadrature_weights",
    "field_to_csv",
    "field_from_csv",
]

#: highest derivative order with prebuilt stencil support
MAX_DERIVATIVE_ORDER = 6
#: accuracy order of the stencils of every energy, quotient and profile
ACCURACY_ORDER = 4


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with num_points nodes."""

    a: float
    b: float
    num_points: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(
                f"grid endpoints must be finite, got a = {self.a}, b = {self.b}"
            )
        if not self.b > self.a:
            raise ValueError("grid requires b > a")
        if self.num_points < 2:
            raise ValueError("grid requires num_points >= 2")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.num_points - 1)

    @property
    def length(self) -> float:
        return self.b - self.a

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.num_points)

    @cached_property
    def unit_nodes(self) -> np.ndarray:
        """The nodes mapped to [0, 1], (x - a)/(b - a): computed once per
        grid and read-only, so every field drawn on the grid shares it."""
        t = (self.nodes() - self.a) / self.length
        t.flags.writeable = False
        return t


@dataclass(frozen=True)
class Field:
    """Sampled function values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.num_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.num_points} points"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")

    @classmethod
    def from_callable(cls, grid: Grid, f) -> "Field":
        return cls(grid, np.asarray(f(grid.nodes()), dtype=float))


@lru_cache(maxsize=None)
def stencil_weights(offsets: Tuple[int, ...], k: int) -> Tuple[Fraction, ...]:
    """Finite-difference weights for the k-th derivative on integer offsets.

    Weight j is the k-th derivative at 0 of the Lagrange basis polynomial
    of offset j (Fornberg, Math. Comp. 51, 1988),

        w_j = k! [x^k] prod_{i != j} (x - o_i) / prod_{i != j} (o_j - o_i),

    built in integers and returned as exact rationals: the unique solution
    of the Vandermonde moment system, so the weights annihilate polynomials
    of degree < k and are exact on degree <= len(offsets) - 1.  Divide by
    h**k for a physical grid.
    """
    m = len(offsets)
    if k >= m:
        raise ValueError("need at least k+1 stencil points")
    weights = []
    for j, o_j in enumerate(offsets):
        others = offsets[:j] + offsets[j + 1:]
        den = prod(o_j - o for o in others)
        if den == 0:
            raise ValueError("degenerate stencil offsets")
        # coefficients of prod (x - o) over the other offsets, lowest first
        poly = [1]
        for o in others:
            poly = [0] + poly
            for d in range(len(poly) - 1):
                poly[d] -= o * poly[d + 1]
        weights.append(Fraction(factorial(k) * poly[k], den))
    return tuple(weights)


@lru_cache(maxsize=None)
def _unit_rows(k: int, m: int) -> np.ndarray:
    """Unit-spacing float weights of the k-th derivative on the m-point
    windows of shift -(m-1)..0, one row per shift (read-only)."""
    rows = np.array([
        [float(c) for c in stencil_weights(tuple(range(s, s + m)), k)]
        for s in range(1 - m, 1)
    ])
    rows.flags.writeable = False
    return rows


def window_starts(n: int, m: int, rows=None) -> np.ndarray:
    """First columns of the m-point stencil windows of the rows i of an
    n-point grid (all of them, 0..n-1, by default),
    clip(i - (m - 1) // 2, 0, n - m): centred on the row, clamped to the
    grid."""
    i = np.arange(n) if rows is None else rows
    return np.minimum(np.maximum(i - (m - 1) // 2, 0), n - m)


def apply_stencil(windows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """D u for the stencil operator D with the (m, m) `windows` of
    `diff_operator`, on len(u) points: one `np.correlate` over the rows
    lo .. hi - 1, lo = (m - 1) // 2 and hi = n - (m - 1 - lo), which all
    take the centred window row m - 1 - lo, between the products of the
    clamped end rows with the first and the last m samples.  An entry is
    an inner product of m terms, within m eps (|D| |u|) of the exact D u
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.1).

    u may also be a (rows, n) stack, one field per row, for D applied to
    each row with the bits of a call on that row alone: one `np.correlate`
    over the raveled stack, whose m - 1 outputs after each row's own
    straddle two rows and are dropped, and the end rows by `_end_products`.
    """
    n, m = u.shape[-1], len(windows)
    lo = (m - 1) // 2
    top, bottom = windows[m - lo:][::-1], windows[:m - 1 - lo][::-1]
    centre = windows[m - 1 - lo]
    if u.ndim == 1:
        return np.concatenate((
            top @ u[:m], np.correlate(u, centre, "valid"), bottom @ u[n - m:],
        ))
    # row r's n - m + 1 outputs start at r n
    inner = sliding_window_view(np.correlate(u.ravel(), centre, "valid"), n - m + 1)[::n]
    return np.concatenate(
        (_end_products(top, u[:, :m]), inner, _end_products(bottom, u[:, n - m:])),
        axis=1,
    )


def _end_products(ends: np.ndarray, u: np.ndarray) -> np.ndarray:
    """ends @ v for each row v of u, as one (len(u), len(ends)) array, with
    the bits of the 1-D product: the end rows of `apply_stencil` are
    reversed views, which numpy's matmul takes without BLAS, adding the
    products in column order from 0.0, and so does this sum."""
    out = np.zeros((len(u), len(ends)))
    for j in range(ends.shape[1]):
        out += u[:, j, None] * ends[:, j]
    return out


def apply_stencil_transpose(windows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """D^T v for the stencil operator D of `apply_stencil`, on len(v) points:
    `np.convolve` of the interior rows' v with the centred window, exactly
    n long in full mode, plus the products of the clamped end rows on the
    first and the last m columns.  An entry sums at most 2m - 1 terms,
    within (2m - 1) eps (|D|^T |v|) of the exact D^T v.
    """
    n, m = len(v), len(windows)
    lo = (m - 1) // 2
    hi = n - (m - 1 - lo)
    out = np.convolve(v[lo:hi], windows[m - 1 - lo])
    out[:m] += v[:lo] @ windows[m - lo:][::-1]
    out[n - m:] += v[hi:] @ windows[:m - 1 - lo][::-1]
    return out


def diff_operator(grid: Grid, k: int) -> np.ndarray:
    """The k-th derivative operator D for a grid, held as its stencil
    windows: an (m, m) read-only array, m = k + `ACCURACY_ORDER`.

    Interior rows use centered stencils; near the boundary the stencil
    window shifts one-sidedly, keeping the same polynomial exactness
    (degree <= m - 1).  Row s of the windows is the window of offsets
    s - (m - 1) .. s.  Row i of D takes the window row starts[i] - i + m - 1
    at columns starts[i] .. starts[i] + m - 1, where
    starts = `window_starts(grid.num_points, m)`: consecutive in the
    interior, clamped at each end.  `apply_stencil` applies D and
    `apply_stencil_transpose` its transpose.

    The weights of each window shift are built in exact rationals once per
    k; a new grid costs one division of the m x m unit windows by h**k."""
    if not 1 <= k <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be in [1, {MAX_DERIVATIVE_ORDER}]")
    m = k + ACCURACY_ORDER
    if grid.num_points < m:
        raise ValueError(
            f"grid with {grid.num_points} points too small for the order-{k} "
            f"stencil; need at least {m} points"
        )
    windows = _unit_rows(k, m) / grid.h**k
    windows.flags.writeable = False
    return windows


def derivative(f: Field, k: int) -> Field:
    """Discrete k-th derivative of a field on its own grid."""
    return Field(f.grid, apply_stencil(diff_operator(f.grid, k), f.values))


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights on the grid nodes."""
    q = np.full(grid.num_points, grid.h)
    q[0] = q[-1] = grid.h / 2
    return q


def field_to_csv(f: Field) -> str:
    """Two-column CSV (x, value) with 17 significant digits."""
    buf = io.StringIO()
    buf.write("x,value\n")
    for x, v in zip(f.grid.nodes(), f.values):
        buf.write(f"{x:.17g},{v:.17g}\n")
    return buf.getvalue()


def field_from_csv(text: str) -> Field:
    """Inverse of `field_to_csv` (bit-exact round trip on uniform grids).

    The x column must be the uniform grid from its first to its last value:
    a row whose x is more than 4 ulps of max(|a|, |b|) off
    linspace(a, b, N) is a `ValueError`."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines and lines[0].lower().startswith("x,"):
        lines = lines[1:]
    xs, vs = [], []
    for ln in lines:
        sx, sv = ln.split(",")
        xs.append(float(sx))
        vs.append(float(sv))
    if len(xs) < 2:
        raise ValueError(f"CSV has {len(xs)} data rows; a grid needs at least 2")
    grid = Grid(xs[0], xs[-1], len(xs))
    off = np.abs(np.array(xs) - grid.nodes())
    bad = np.flatnonzero(off > 4 * np.spacing(max(abs(grid.a), abs(grid.b))))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"CSV data row {i + 1} has x = {xs[i]!r}, {off[i]:.3g} off the "
            f"uniform grid of {grid.num_points} points on [{grid.a!r}, {grid.b!r}]"
        )
    return Field(grid, np.array(vs))
