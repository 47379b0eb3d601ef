"""
Shared minimization drivers.  Damped Newton with banded LU solves is the
solver of every minimizer (W'' from `DoubleWell.second_derivative`): on
the stiff high-derivative problems (quartic-operator conditioning ~ h^-2n)
it reaches the 1e-8..1e-9 floor set by finite-difference roundoff in a
handful of steps, where plain quasi-Newton plateaus near 1e-2; no
minimizer calls `lbfgs`.  Every Newton system here is a band, possibly
bordered by one constraint row; BandedSystem factors the band with LAPACK
gbsv and eliminates the constraint by a scalar Schur step.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv

__all__ = ["SolveInfo", "BandedSystem", "lbfgs", "damped_newton"]


@dataclass
class SolveInfo:
    """What a solve did and why it stopped.  factorizations counts the
    LAPACK factorizations of the Newton steps actually done: a tau retry
    that changes no diagonal entry reuses the last solve and adds none."""

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
    """The matrix [[A, c], [c^T, 0]] of size m + 1, or A alone when c is
    None, with A the banded m x m leading block, split for repeated
    shifted solves.

    The constructor takes A in band storage, ab[up + i - j, j] = A[i, j],
    with lo = lower and up = ab.shape[0] - lo - 1 upper bandwidth (LAPACK's
    band layout, that of gbsv's input below its lo fill-in rows), kept as
    band and never written.  Given repeat = (L, cut), the band holds
    m - cut columns, its column L standing for A's columns L .. L + cut,
    as in a kernel's K bands (`energy._Quadrature._bands`).  Given curved,
    2r + 1 rows, A is the band with curved added into its rows
    up - r .. up + r.  Both are written out as the band is copied for
    LAPACK: systems that differ only in their curved part share one band.
    diag is A's diagonal, and `ab` reads A back in band storage.  c is a
    dense m-vector, the one constraint row.
    """

    def __init__(self, ab: np.ndarray, lo: int, c: Optional[np.ndarray] = None,
                 curved: Optional[np.ndarray] = None, repeat: Tuple[int, int] = (0, 0)):
        self.lo, self.c = lo, c
        self.up = ab.shape[0] - lo - 1
        self.band, self.curved, self.repeat = ab, curved, repeat
        self.diag = ab[self.up]
        if repeat[1]:
            self.diag = self._expand(self.diag, np.empty(ab.shape[1] + repeat[1]))
        if curved is not None:
            self.diag = self.diag + curved[len(curved) // 2]
        # LAPACK factorizations done, and the (shifted diagonal, rhs,
        # solution or LinAlgError) of the last one
        self.factorizations = 0
        self._last = None

    @property
    def ab(self) -> np.ndarray:
        """A in the constructor's band storage, as a new array."""
        ab = np.empty((len(self.band), len(self.diag)))
        self._write(ab)
        return ab

    def _expand(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """rows, of m - cut columns, into out, column L repeated."""
        L, cut = self.repeat
        out[..., :L] = rows[..., :L]
        out[..., L:L + cut] = rows[..., L, None]
        out[..., L + cut:] = rows[..., L:]
        return out

    def _write(self, out: np.ndarray) -> None:
        """A's band storage into out: the band, its repeated columns
        written out, and curved added into its middle rows."""
        self._expand(self.band, out)
        if self.curved is not None:
            r = len(self.curved) // 2
            out[self.up - r:self.up + r + 1] += self.curved

    def solve(self, rhs: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """The first m entries of the solution of the system with A + tau I
        in place of A and right-hand side rhs, padded by a zero under a
        constraint.  Raises LinAlgError when A + tau I is singular, or
        c^T (A + tau I)^-1 c is 0.  A call whose shifted diagonal and rhs
        equal the last call's, as for a tau below half an ulp of every
        diagonal entry, returns that call's solution (the same array) or
        raises its error again without factoring."""
        diag = self.diag + tau
        last = self._last
        if last is None or not (
            np.array_equal(diag, last[0]) and np.array_equal(rhs, last[1])
        ):
            self.factorizations += 1
            try:
                out = self._factor_and_solve(diag, rhs)
            except LinAlgError as err:
                out = err
            last = self._last = (diag, rhs.copy(), out)
        if isinstance(last[2], LinAlgError):
            raise last[2].with_traceback(None)
        return last[2]

    def _factor_and_solve(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One gbsv on A with diag on its diagonal for rhs, and c under a
        constraint, then the Schur step y - z (c^T y) / (c^T z) for the
        solutions y and z.  The work arrays are column-major, LAPACK's
        order, so f2py copies neither."""
        lo, up, c = self.lo, self.up, self.c
        m = len(diag)
        ab = np.empty((2 * lo + up + 1, m), order="F")
        ab[:lo] = 0.0
        self._write(ab[lo:])
        ab[lo + up] = diag
        cols = np.empty((m, 1 if c is None else 2), order="F")
        cols[:, 0] = rhs
        if c is not None:
            cols[:, 1] = c
        _, _, sol, info = dgbsv(lo, up, ab, cols, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise LinAlgError("singular leading block")
        y = sol[:, 0]
        if c is None:
            return y
        z = sol[:, 1]
        cz = c @ z
        if cz == 0.0:
            raise LinAlgError("singular Schur complement")
        return y - z * ((c @ y) / cz)


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
    supercritical regime, not an error.  No minimizer calls it, so
    scipy.optimize is imported here and not with the package.
    """
    from scipy.optimize import minimize as scipy_minimize

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
    hess: Callable[[np.ndarray], BandedSystem],
    x0: np.ndarray,
    *,
    line: Callable[[np.ndarray, np.ndarray], Callable[[float], float]],
    maxiter: int = 100,
    gtol: float = 1e-8,
    stagnation_rtol: float = 1e-14,
    divergence_floor: Optional[float] = None,
):
    """Damped Newton with banded LU solves and Armijo backtracking.

    hess(x) returns the Newton system as a BandedSystem whose leading
    m x m block is the Hessian H.  The step solves it with the right-hand
    side -g; a constraint row q, the border [[H, q], [q^T, 0]], holds
    q . x at its initial value (grad must then return the gradient
    projected onto q . d = 0).  Indefinite Hessians (the concave term, or
    W'' < 0 between the wells) are handled by Levenberg-style damping tau
    on the leading block only, raised tenfold until the step is a descent
    direction; a singular leading block or Schur complement also raises
    tau.  Each step starts that ladder at a tenth of the last accepted tau,
    or at 0 once that is below 1e-7, so a run through a nonconvex region
    does not climb the whole ladder on every step.  The factorization is LU, not Cholesky,
    because the leading block of a bordered system may be indefinite at a
    valid step.  A retry whose tau changes no diagonal entry (one below
    half an ulp of each, as the first rungs are on stiff Hessians) reuses
    the last solve of the step (`BandedSystem.solve`), so
    info.factorizations counts the LAPACK factorizations actually done,
    tau retries included.

    The Armijo test dE(t) <= 1e-4 t g.d reads the energy change
    dE(t) = E(x + t d) - E(x) along the step d from line(x, d), which
    returns the function dE of t; a kernel that knows the energy's
    structure computes it without differencing two whole energies, as
    `energy._Quadrature.minimize`, the front end of both energy kernels,
    passes `_Quadrature.energy_change`.
    fun is called only for the first energy and for the reported
    info.energy at the returned iterate; the energy E carried between
    steps, and each info.history energy, is the first energy plus the
    accepted changes dE.

    Stops on the gradient sup-norm; on energy stagnation (FD-roundoff
    floor), either after a full step or two stagnant steps in a row that
    changed the energy by less than stagnation_rtol * max(1, |E|), or
    before any line-search trial whose predicted decrease -step g.d is
    below that threshold (at step 1 the Newton decrement), keeping the
    last accepted iterate; on an energy below divergence_floor (flagged
    diverged, the expected supercritical outcome); on 45 halvings without
    Armijo decrease ("line search failed"); or after maxiter steps.  A stop
    short of gtol says why in info.message.  Each accepted step appends
    its energy, gradient sup-norm, tau, step length and elapsed time to
    info.history.
    """
    x = np.asarray(x0, dtype=float).copy()
    info = SolveInfo()
    energy = fun(x)
    g = grad(x)
    stagnant = 0
    tau = 0.0
    start = time.perf_counter()
    for it in range(maxiter):
        info.gradient_norm = float(np.abs(g).max())
        if info.gradient_norm < gtol:
            break
        system = hess(x)
        rhs, done = -g, system.factorizations
        tau = tau / 10.0 if tau >= 1e-6 else 0.0
        for _ in range(30):
            try:
                d = system.solve(rhs, tau)
            except LinAlgError:
                d = None
            if d is not None and np.all(np.isfinite(d)) and g @ d < 0:
                break
            tau = max(1e-8, 10.0 * tau)
        else:
            info.message = "no descent direction found"
        info.factorizations += system.factorizations - done
        if info.message:
            break
        step = 1.0
        slope = g @ d
        floor = stagnation_rtol * max(1.0, abs(energy))
        change = line(x, d)
        for _ in range(45):
            # a step whose predicted decrease the energy cannot resolve
            # is decided by roundoff; at step 1 this is the Newton decrement
            if -step * slope < floor:
                info.message = "energy stagnation (roundoff floor)"
                break
            de = change(step)
            if de <= 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            info.message = "line search failed"
        if info.message:
            break
        x, energy = x + step * d, energy + de
        # the line search's copies of u, d and W(u) are not needed by the
        # next step's Hessian and factorization
        del change, d
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
        if abs(de) < stagnation_rtol * max(1.0, abs(energy)):
            stagnant += 1
            if step == 1.0 or stagnant == 2:
                info.message = "energy stagnation (roundoff floor)"
                break
        else:
            stagnant = 0
    else:  # a last allowed step that reaches gtol has converged
        info.message = "iteration limit" if np.abs(g).max() >= gtol else ""
    info.gradient_norm = float(np.abs(g).max())
    info.energy = float(fun(x))
    info.converged = info.gradient_norm < gtol and not info.diverged
    return x, info
