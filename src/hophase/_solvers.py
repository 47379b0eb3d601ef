"""
Shared minimization drivers.  Damped Newton with banded LU solves is
the primary solver wherever W'' exists: on the stiff high-derivative
problems (quartic-operator conditioning ~ h^-2n) it reaches the 1e-8..1e-9
floor set by finite-difference roundoff in a handful of steps, where plain
quasi-Newton plateaus near 1e-2.  L-BFGS remains for potentials without a
second derivative.  Every Hessian here is banded (half-bandwidth
n + accuracy_order - 1 at most), possibly bordered by a few dense rows
and columns; BandedSystem factors the band with LAPACK gbsv and
eliminates the border by a Schur complement.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv
from scipy.optimize import minimize as scipy_minimize

__all__ = ["SolveInfo", "BandedSystem", "lbfgs", "damped_newton"]


@dataclass
class SolveInfo:
    iterations: int = 0
    newton_iterations: int = 0
    gradient_norm: float = np.inf
    converged: bool = False
    diverged: bool = False
    message: str = ""
    energy: float = np.nan
    factorizations: int = 0
    history: list = field(default_factory=list)


class BandedSystem:
    """The bordered matrix [[A, B], [C, E]] of size m + k, with A the
    banded m x m leading block, split for repeated shifted solves.

    A is held in the band layout of LAPACK gbsv, ab[lo + up + i - j, j] =
    A[i, j], below lo zero rows that take the fill-in of row pivoting;
    lo/up are the lower/upper bandwidths of A's stored entries.  The k
    border rows and columns (k = 0, 1 or 2 in use) are dense.
    """

    def __init__(self, H: sp.spmatrix, m: int):
        csr = H.tocsr(copy=True)
        csr.sum_duplicates()
        coo = csr.tocoo()
        r, c, v = coo.row, coo.col, coo.data
        k = H.shape[0] - m
        self.B, self.C, self.E = np.zeros((m, k)), np.zeros((k, m)), np.zeros((k, k))
        if k:
            top, left = r < m, c < m
            for block, sel, r0, c0 in (
                (self.B, top & ~left, 0, m),
                (self.C, ~top & left, m, 0),
                (self.E, ~(top | left), m, m),
            ):
                block[r[sel] - r0, c[sel] - c0] = v[sel]
            lead = top & left
            r, c, v = r[lead], c[lead], v[lead]
        offset = c - r
        self.lo, self.up = -int(offset.min(initial=0)), int(offset.max(initial=0))
        self.ab = np.zeros((2 * self.lo + self.up + 1, m))
        self.ab[self.lo + self.up - offset, c] = v

    def solve(self, rhs: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """The first m entries of the solution of the bordered system with
        A + tau I in place of A and right-hand side rhs padded by k zeros.
        Raises LinAlgError when A + tau I or the Schur complement
        E - C (A + tau I)^-1 B is singular."""
        ab = self.ab.copy()
        ab[self.lo + self.up] += tau
        k = self.E.shape[0]
        rhs = np.column_stack([rhs, self.B]) if k else rhs
        _, _, sol, info = dgbsv(self.lo, self.up, ab, rhs, overwrite_ab=True)
        if info > 0:
            raise LinAlgError("singular leading block")
        if not k:
            return sol
        y, Z = sol[:, 0], sol[:, 1:]
        mu = np.linalg.solve(self.E - self.C @ Z, -self.C @ y)
        return y - Z @ mu


def lbfgs(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    maxiter: int = 400,
    gtol: float = 1e-10,
    divergence_floor: Optional[float] = None,
):
    """L-BFGS-B with an optional divergence floor.

    When the energy drops below the floor the run is aborted (the iterate
    is kept) and flagged diverged; this is the expected outcome in the
    supercritical regime, not an error.
    """
    info = SolveInfo()

    def callback(intermediate_result):
        if intermediate_result.fun < divergence_floor:
            info.diverged = True
            raise StopIteration

    res = scipy_minimize(
        fun,
        x0,
        jac=grad,
        method="L-BFGS-B",
        callback=callback if divergence_floor is not None else None,
        options=dict(maxiter=maxiter, ftol=1e-16, gtol=gtol, maxcor=25),
    )
    info.iterations = int(res.nit)
    info.energy = float(res.fun)
    info.gradient_norm = float(np.abs(res.jac).max())
    info.message = str(res.message)
    return np.asarray(res.x, dtype=float), info


def damped_newton(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    hess: Callable[[np.ndarray], sp.spmatrix],
    x0: np.ndarray,
    maxiter: int = 100,
    gtol: float = 1e-8,
    stagnation_rtol: float = 1e-14,
    divergence_floor: Optional[float] = None,
):
    """Damped Newton with banded LU solves and Armijo backtracking.

    hess(x) returns the m x m Hessian, or a bordered matrix of size m + k
    whose leading m x m block is the Hessian; the leading block must be
    banded.  The step solves it (see BandedSystem) with the right-hand
    side -g padded by k zeros and keeps the first m entries.  Two borders
    are in use: [[H, q], [q^T, 0]] holds q . x at its initial value (grad
    must then return the gradient projected onto q . d = 0), and
    [[H0, U], [V^T, -I]] solves with H0 + U V^T, a low-rank update kept
    out of the band.  Indefinite Hessians (the concave term, or W'' < 0
    between the wells) are handled by Levenberg-style damping tau on the
    leading block only, increased from 0 until the step is a descent
    direction; a singular leading block or Schur complement also raises
    tau.  The factorization is LU, not Cholesky, because the leading
    block of a bordered system may be indefinite at a valid step.
    info.factorizations counts the solves, tau retries included.  Stops
    on the gradient sup-norm, on energy stagnation (FD-roundoff floor)
    after a full step or two stagnant steps in a row, on an energy below
    divergence_floor (flagged diverged, the expected supercritical
    outcome), or after maxiter steps; a stop short of gtol says why in
    info.message.  Each accepted step appends its energy, gradient
    sup-norm, tau, step length and elapsed time to info.history.
    """
    x = np.asarray(x0, dtype=float).copy()
    info = SolveInfo()
    m = len(x)
    energy = fun(x)
    g = grad(x)
    stagnant = 0
    start = time.perf_counter()
    for it in range(maxiter):
        info.gradient_norm = float(np.abs(g).max())
        if info.gradient_norm < gtol:
            break
        system = BandedSystem(hess(x), m)
        tau = 0.0
        for _ in range(30):
            info.factorizations += 1
            try:
                d = system.solve(-g, tau)
            except LinAlgError:
                d = None
            if d is not None and np.all(np.isfinite(d)) and g @ d < 0:
                break
            tau = max(1e-8, 10.0 * tau)
        else:
            info.message = "no descent direction found"
            break
        step = 1.0
        slope = g @ d
        for _ in range(45):
            x_try = x + step * d
            e_try = fun(x_try)
            if e_try <= energy + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            info.message = "line search failed"
            break
        x, e_prev, energy = x_try, energy, e_try
        g = grad(x)
        info.iterations = info.newton_iterations = it + 1
        info.history.append(
            dict(
                energy=float(energy),
                gradient_norm=float(np.abs(g).max()),
                tau=tau,
                step=step,
                elapsed_s=time.perf_counter() - start,
            )
        )
        if divergence_floor is not None and energy < divergence_floor:
            info.diverged = True
            info.message = "supercritical divergence"
            break
        # near the roundoff floor the Armijo test is decided by last-ulp
        # noise and may halve a good step; one damped stagnant step is
        # not yet a stop
        if abs(e_prev - energy) < stagnation_rtol * max(1.0, abs(energy)):
            stagnant += 1
            if step == 1.0 or stagnant == 2:
                info.message = "energy stagnation (roundoff floor)"
                break
        else:
            stagnant = 0
    else:
        info.message = "iteration limit"
    info.gradient_norm = float(np.abs(g).max())
    info.energy = float(energy)
    info.converged = info.gradient_norm < gtol and not info.diverged
    return x, info
