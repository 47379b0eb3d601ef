"""
Shared minimization drivers.  Damped Newton with sparse direct solves is
the primary solver wherever W'' exists: on the stiff high-derivative
problems (quartic-operator conditioning ~ h^-2n) it reaches the 1e-8..1e-9
floor set by finite-difference roundoff in a handful of steps, where plain
quasi-Newton plateaus near 1e-2.  L-BFGS remains for potentials without a
second derivative.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize as scipy_minimize

__all__ = ["SolveInfo", "lbfgs", "damped_newton"]


@dataclass
class SolveInfo:
    iterations: int = 0
    newton_iterations: int = 0
    gradient_norm: float = np.inf
    converged: bool = False
    diverged: bool = False
    message: str = ""
    energy: float = np.nan
    history: list = field(default_factory=list)


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
    """Damped Newton with sparse LU solves and Armijo backtracking.

    hess(x) returns the m x m Hessian, or a bordered matrix of size m + k
    whose leading m x m block is the Hessian.  The step solves it with
    the right-hand side -g padded by k zeros and keeps the first m
    entries.  Two borders are in use: [[H, q], [q^T, 0]] holds q . x at
    its initial value (grad must then return the gradient projected onto
    q . d = 0), and [[H0, U], [V^T, -I]] solves with H0 + U V^T, a
    low-rank update kept out of the sparse factorization.  Indefinite
    Hessians (the concave term, or W'' < 0 between the wells) are handled
    by Levenberg-style damping tau on the leading block only, increased
    until the step is a descent direction.  Stops on the gradient
    sup-norm, on energy stagnation (FD-roundoff floor), on an energy below
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
    start = time.perf_counter()
    for it in range(maxiter):
        info.gradient_norm = float(np.abs(g).max())
        if info.gradient_norm < gtol:
            break
        H = hess(x)
        size = H.shape[0]
        shift = sp.identity(size, format="csc")
        shift.data[m:] = 0.0  # tau damps the Hessian block, not the border
        rhs = np.pad(-g, (0, size - m))
        tau = 0.0
        for _ in range(30):
            try:
                d = spla.splu((H + tau * shift).tocsc()).solve(rhs)[:m]
            except RuntimeError:
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
        if abs(e_prev - energy) < stagnation_rtol * max(1.0, abs(energy)):
            info.message = "energy stagnation (roundoff floor)"
            break
    else:
        info.message = "iteration limit"
    info.gradient_norm = float(np.abs(g).max())
    info.energy = float(energy)
    info.converged = info.gradient_norm < gtol and not info.diverged
    return x, info
