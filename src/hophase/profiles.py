"""
Optimal transition profiles on truncated domains and recovery sequences.

The profile constant is the infimum of the unscaled layer energy

    int_R  W(f) - lam (f^(n-1))^2 + (f^(n))^2  dx

over transitions f from -1 to +1 that become exactly constant outside a
compact set.  On the truncated domain (-T, T) the profile is a B-spline
of degree n + 3 that is exactly -1 left of -T and +1 right of T
(`energy._SplineKernel`): an admissible transition on R, whose energy,
integrated exactly for the quartic W, bounds the constant from above, so
doubling T probes truncation error only.

Recovery sequences paste the rescaled profile f((x - s_i)/eps), with
alternating orientation, into an eps-neighborhood of each jump of a
piecewise +-1 function, evaluating the profile's own spline
(`ProfileResult.spline`, an `energy.BSpline`) at each window's points;
their energy approaches (number of jumps) times the profile constant.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .critical import estimate_lambda_n
from .energy import DECREMENT_RTOL, BSpline, _SplineKernel, _require_integer_order
from .grids import MAX_DERIVATIVE_ORDER, Field, Grid
from .potentials import DoubleWell

__all__ = [
    "ProfileProblem",
    "ProfileResult",
    "ConstantsEstimate",
    "JumpFunction",
    "minimize_profile",
    "estimate_constants",
    "build_recovery",
]


@dataclass(frozen=True)
class ProfileProblem:
    """Truncated profile problem on (-T, T), its minimizer reported on
    `grid`, num_points samples of (-T, T).  The solve never reads the
    grid, so num_points sets only how finely `ProfileResult.minimizer` is
    sampled; it must be at least 2, as for any `Grid`.

    n = 1 is accepted here (only here) as a calibration mode: with lam = 0
    the minimum is the classical sharp-interface constant
    2 int_{-1}^{1} sqrt(W).  n must be an integer in [1, 6], and lam and
    truncation_T finite.
    """

    n: int
    lam: float
    truncation_T: float
    num_points: int
    potential: DoubleWell

    def __post_init__(self):
        _require_integer_order(self.n)
        if not 1 <= self.n <= MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"n must be in [1, {MAX_DERIVATIVE_ORDER}]; got n = {self.n}"
            )
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        T = self.truncation_T
        if not (np.isfinite(T) and T > 0):
            raise ValueError(f"truncation_T must be positive and finite, got {T}")
        Grid(-T, T, self.num_points)  # rejects num_points < 2 before any solve

    @property
    def grid(self) -> Grid:
        return Grid(-self.truncation_T, self.truncation_T, self.num_points)


#: gradient tolerance and damped-Newton step cap of each profile run
PROFILE_GTOL = 1e-8
PROFILE_MAXITER = 100
#: converged needs a Newton decrement at most this times max(1, |energy|)
PROFILE_DECREMENT_RTOL = DECREMENT_RTOL
#: largest knot spacing of the profile splines
PROFILE_H = 0.25
#: samples of a profile on its grid, where a caller names none
PROFILE_POINTS = 2001


@dataclass
class ProfileResult:
    """The minimizing spline on (-T, T), which `build_recovery` pastes,
    the problem's grid, which `minimizer` samples it on at first read, its
    exact energy, and the diagnostics of `energy._Quadrature.minimize`:
    converged means the Newton decrement newton_decrement = -g . d of the
    undamped Newton step d at the minimizer is at most
    PROFILE_DECREMENT_RTOL max(1, |energy|), the run did not stop on a
    failed line search or on no descent direction, and the minimizer is
    one layer, its coefficients changing sign once; diagnosis says why a
    run is not converged.  gradient_norm_final is the gradient's sup-norm
    over the free spline coefficients.  factorizations counts the LAPACK
    factorizations of the Newton steps, tau retries that change the
    shifted matrix and the decrement's included."""

    spline: BSpline
    grid: Grid
    energy_estimate: float
    converged: bool
    iterations: int
    gradient_norm_final: float
    newton_decrement: float
    diagnosis: str = ""
    factorizations: int = 0

    @cached_property
    def minimizer(self) -> Field:
        """The spline sampled on the grid."""
        return Field(self.grid, self.spline(self.grid.nodes()))


def _profile_kernel(n: int, T: float, h: float) -> _SplineKernel:
    """The profile space on (-T, T): B-splines of degree n + 3 on
    ceil(2T/h) elements, whose first and last n coefficients are held at
    the wells."""
    return _SplineKernel(n, (-T, T), int(np.ceil(2.0 * T / h)), n + 3, n)


def minimize_profile(
    problem: ProfileProblem, init: Optional[Field] = None
) -> ProfileResult:
    """Minimize the truncated profile energy over the splines of
    `_profile_kernel` at knot spacing `PROFILE_H`, by damped Newton from
    one start: tanh, or init (a Field on any grid, read by linear
    interpolation), at the Greville abscissae
    (`energy._Quadrature.minimize`).  The result holds the spline and the
    problem's grid, which `minimizer` samples.

    A converged profile is one layer: its coefficients change sign once,
    so the spline does too (variation diminishing; de Boor, A Practical
    Guide to Splines, ch. XI).
    """
    kernel = _profile_kernel(problem.n, problem.truncation_T, PROFILE_H)
    if init is None:
        start = np.tanh(kernel.greville)
    else:
        start = np.interp(kernel.greville, init.grid.nodes(), init.values)
    c, info, decrement, converged = kernel.minimize(
        kernel.coefficients(start), problem.potential, (1.0, -problem.lam, 1.0),
        PROFILE_GTOL, PROFILE_MAXITER,
    )
    signs = np.sign(c)
    layers = int(np.count_nonzero(np.diff(signs[signs != 0])))
    converged = converged and layers <= 1
    diagnosis = "" if converged else "; ".join(filter(None, (
        info.message,
        f"Newton decrement {decrement:.1e}",
        f"{layers} layers" if layers > 1 else "",
    )))
    return ProfileResult(
        spline=BSpline(kernel.knots, kernel.p, c),
        grid=problem.grid,
        energy_estimate=float(info.energy),
        converged=converged,
        iterations=int(info.iterations),
        gradient_norm_final=float(info.gradient_norm),
        newton_decrement=float(decrement),
        diagnosis=diagnosis,
        factorizations=int(info.factorizations),
    )


@dataclass
class ConstantsEstimate:
    """Profile constants at lam = 0 and at the requested lam, with the
    sandwich diagnostic (1 - lam/lambda_hat) C0 <= C_lam <= C0."""

    c_hat_0: float
    c_hat_lam: float
    lam: float
    lambda_hat: float
    sandwich_ok: bool
    slack: float
    result_0: ProfileResult = None
    result_lam: ProfileResult = None


def estimate_constants(
    n: int,
    lam: float,
    w: DoubleWell,
    truncation_T: float = 10.0,
    num_points: int = PROFILE_POINTS,
    lambda_hat: Optional[float] = None,
    slack: float = 0.02,
) -> ConstantsEstimate:
    """Estimate C_hat at lam = 0 and at lam from one profile run each
    and check the sandwich bounds within the given slack.

    lam must be finite, >= 0 and strictly below lambda_hat (subcritical);
    lambda_hat is estimated on demand when not supplied and lam > 0.  A
    NaN lambda_hat, which no comparison with lam can reject, a lambda_hat
    <= 0, which no coupling is below (inf is allowed), and a negative or
    non-finite slack, under which the sandwich verdict means nothing, are
    each a ValueError, and so is a problem that `ProfileProblem` rejects;
    all are checked before any solve.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if lambda_hat is not None and not lambda_hat > 0:
        why = "must not be NaN" if np.isnan(lambda_hat) else "must be positive"
        raise ValueError(f"lambda_hat {why}, got {lambda_hat}")
    if not (np.isfinite(slack) and slack >= 0):
        raise ValueError(f"slack must be finite and >= 0, got {slack}")
    prob0 = ProfileProblem(n, 0.0, truncation_T, num_points, w)
    if lambda_hat is None:
        lambda_hat = estimate_lambda_n(n, w).value if lam > 0 else np.inf
    if lam > 0 and lam >= lambda_hat:
        raise ValueError(
            f"lam = {lam} is not subcritical (lambda_hat = {lambda_hat:.4g})"
        )
    r0 = minimize_profile(prob0)
    if lam == 0.0:
        r1 = r0
    else:
        r1 = minimize_profile(ProfileProblem(n, lam, truncation_T, num_points, w))
    c0, c1 = r0.energy_estimate, r1.energy_estimate
    lower = (1.0 - lam / lambda_hat) * c0 if np.isfinite(lambda_hat) else 0.0
    ok = (lower - slack * c0) <= c1 <= (c0 + slack * c0)
    return ConstantsEstimate(
        c_hat_0=float(c0),
        c_hat_lam=float(c1),
        lam=lam,
        lambda_hat=float(lambda_hat),
        sandwich_ok=bool(ok),
        slack=slack,
        result_0=r0,
        result_lam=r1,
    )


@dataclass(frozen=True)
class JumpFunction:
    """Piecewise +-1 function on (a, b) with jumps at s_1 < ... < s_N."""

    a: float
    b: float
    jumps: Tuple[float, ...]
    left_value: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(float(s) for s in self.jumps))
        if self.left_value not in (-1.0, 1.0):
            raise ValueError("left_value must be -1 or +1")
        if not self.b > self.a:
            raise ValueError("interval requires b > a")
        if any(not (self.a < s < self.b) for s in self.jumps):
            raise ValueError("jumps must lie strictly inside (a, b)")
        if any(s2 <= s1 for s1, s2 in zip(self.jumps, self.jumps[1:])):
            raise ValueError("jumps must be strictly increasing")

    @property
    def jump_count(self) -> int:
        return len(self.jumps)

    @property
    def delta0(self) -> float:
        """Minimal spacing, with the interval endpoints padded in as
        s_0 = a and s_{N+1} = b."""
        pts = (self.a,) + self.jumps + (self.b,)
        return min(p2 - p1 for p1, p2 in zip(pts, pts[1:]))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = np.full_like(x, self.left_value)
        sign = self.left_value
        for s in self.jumps:
            sign = -sign
            vals = np.where(x >= s, sign, vals)
        return vals


def build_recovery(
    u: JumpFunction,
    profile: BSpline,
    eps: float,
    points_per_eps: float = 32,
) -> Field:
    """Paste the rescaled profile into eps-windows around each jump.

    Around an up-jump (-1 to +1 at s_i) the field is f((x - s_i)/eps);
    around a down-jump it is f(-(x - s_i)/eps); elsewhere it equals u.
    f is the spline profile on its interval (-T, T), evaluated on each
    window's points only: a profile's own spline (`ProfileResult.spline`),
    which is exactly -1 and +1 at -T and T, or the interpolant of samples
    (`energy.BSpline.not_a_knot`).  With left_value = -1 the up-jumps are
    exactly the odd-indexed ones.  Requires eps * T < delta0 / 2 so the
    pasted windows neither overlap each other nor stick out of the
    interval.  points_per_eps, the grid points per length eps, must be
    positive and finite.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not (np.isfinite(points_per_eps) and points_per_eps > 0):
        raise ValueError(
            f"points_per_eps must be positive and finite, got {points_per_eps}"
        )
    a, T = profile.interval
    if abs(a + T) > 1e-9 * (T - a):
        raise ValueError("profile spline's interval must be symmetric around 0")
    if eps * T >= u.delta0 / 2:
        raise ValueError(
            f"eps too large for the jump spacing: eps*T = {eps * T:.4g} "
            f">= delta0/2 = {u.delta0 / 2:.4g}"
        )
    L = u.b - u.a
    num_points = int(round(L / (eps / points_per_eps))) + 1
    grid = Grid(u.a, u.b, num_points)
    x = grid.nodes()
    vals = u.evaluate(x)
    sign_before = u.left_value
    for s in u.jumps:
        z = (x - s) / eps
        window = np.abs(z) <= T
        arg = z[window] if sign_before < 0 else -z[window]
        vals[window] = profile(np.clip(arg, a, T))
        sign_before = -sign_before
    return Field(grid, vals)
