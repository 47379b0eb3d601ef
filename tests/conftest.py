"""Shared fixtures; the expensive session-wide constants are computed once."""

import dataclasses
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import hophase as hp
from hophase._solvers import BandedSystem
from hophase.grids import ACCURACY_ORDER, stencil_weights, window_starts


def to_band(A, lo: int, up: int) -> np.ndarray:
    """The sparse matrix A in LAPACK band storage ab[up + i - j, j] =
    A[i, j], lower bandwidth lo, upper up (`BandedSystem`'s layout); one
    bincount scatters the CSR entries, summing duplicates."""
    A = A.tocsr()
    offset = A.indices - np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    if offset.size and (offset.min() < -lo or offset.max() > up):
        raise ValueError("entries outside the band")
    rows, cols = lo + up + 1, A.shape[1]
    flat = (up - offset) * cols + A.indices
    return np.bincount(flat, A.data, rows * cols).reshape(rows, cols)


def stencil_csr(grid, k: int, m: int) -> sp.csr_matrix:
    """The reference CSR matrix of the k-th derivative on the grid with
    m-point windows, built from the exact rational weights and not from
    any array of the code: row i holds float(w) / h**k for the weights w of
    `stencil_weights` on the window offsets s - i .. s - i + m - 1 at
    columns s .. s + m - 1, s = window_starts(n, m)[i].  k = 0, m = 1 is
    the identity.  The exact rational products of its entries are what
    `grids.apply_stencil` and `grids.apply_stencil_transpose` must meet
    within the roundoff bound of an inner product."""
    n = grid.num_points
    starts = window_starts(n, m)
    shifts = starts - np.arange(n)
    rows = {
        s: [float(w) / grid.h**k for w in stencil_weights(tuple(range(s, s + m)), k)]
        for s in set(shifts.tolist())
    }
    data = np.array([rows[s] for s in shifts.tolist()])
    cols = (starts[:, None] + np.arange(m)).ravel()
    return sp.csr_matrix((data.ravel(), cols, np.arange(0, n * m + 1, m)), shape=(n, n))


def operators(grid, n):
    """D_{n-1} and D_n of the order-n `DiscreteEnergy` on the grid, as
    reference CSR matrices built from the rational stencils (the identity
    at n = 1)."""
    m = n + ACCURACY_ORDER
    low = stencil_csr(grid, 0, 1) if n == 1 else stencil_csr(grid, n - 1, m - 1)
    return low, stencil_csr(grid, n, m)


def quadratic_forms(grid, n):
    """K_{n-1} and K_n, the reference CSR triple products 2 D^T diag(q) D of
    `operators` with the trapezoid weights q of the grid: what the K bands
    of the order-n `DiscreteEnergy` must equal bit for bit."""
    q = sp.diags(hp.quadrature_weights(grid))
    return tuple(2.0 * (d.T @ q @ d) for d in operators(grid, n))


def written_bands(kernel) -> np.ndarray:
    """The K bands of a kernel (`_Quadrature._bands`) with their repeated
    columns written out by `BandedSystem`, as the copy that LAPACK factors
    holds them: one (2, 2b + 1, m) array."""
    b, repeat = kernel.bandwidth, kernel._repeat
    return np.array([BandedSystem(band, b, repeat=repeat).ab for band in kernel._bands])


def differenced(fun):
    """The line of `damped_newton` for an energy given only as fun: the
    change t -> fun(x + t d) - fun(x) along the step d, fun(x) taken once."""

    def line(x, d):
        e0 = fun(x)
        return lambda t: fun(x + t * d) - e0

    return line


@pytest.fixture(scope="session")
def quartic():
    return hp.make_quartic()


@pytest.fixture(scope="session")
def derived_quartic(quartic):
    """The quartic without its closed-form W'', which the minimizers then
    take from `DoubleWell.second_derivative`."""
    return dataclasses.replace(quartic, eval_second_derivative=None)


@pytest.fixture
def no_lbfgs(monkeypatch):
    """Make every hophase binding of `lbfgs` raise, so a test using this
    fails if any minimizer calls L-BFGS."""

    def refuse(*args, **kwargs):
        raise AssertionError("a minimizer called L-BFGS")

    for name, mod in list(sys.modules.items()):
        if name.startswith("hophase") and hasattr(mod, "lbfgs"):
            monkeypatch.setattr(mod, "lbfgs", refuse)


@pytest.fixture(scope="session")
def lambda_hat_2(quartic):
    """Best upper bound found for the order-2 critical constant, with its
    witness field (shared by the sandwich, sweep, and ensemble tests)."""
    return hp.estimate_lambda_n(2, quartic)


@pytest.fixture(scope="session")
def profile_constant_2(quartic):
    """The lam = 0 optimal-profile constant for n = 2."""
    res = hp.minimize_profile(hp.ProfileProblem(2, 0.0, 10.0, 2001, quartic))
    assert res.converged
    return res.energy_estimate
