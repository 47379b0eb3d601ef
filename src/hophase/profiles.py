"""
Optimal transition profiles on truncated domains and recovery sequences.

The profile constant is the infimum of the unscaled layer energy

    int_R  W(f) - lam (f^(n-1))^2 + (f^(n))^2  dx

over transitions f from -1 to +1 that become exactly constant outside a
compact set.  On the truncated domain (-T, T) the class membership is
enforced exactly by clamping the outermost stencil-width band of grid
points to the well values, so tails contribute nothing and doubling T
probes truncation error only.

Recovery sequences paste the rescaled profile f((x - s_i)/eps), with
alternating orientation, into an eps-neighborhood of each jump of a
piecewise +-1 function; their energy approaches (number of jumps) times
the profile constant.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from .critical import estimate_lambda_n
from .energy import DiscreteEnergy
from .grids import ACCURACY_ORDER, Field, Grid, NotAKnotSpline
from .hermite import _step_polynomial, eval_poly
from .potentials import DoubleWell

__all__ = [
    "ProfileProblem",
    "ProfileResult",
    "ConstantsEstimate",
    "JumpFunction",
    "minimize_profile",
    "estimate_constants",
    "build_recovery",
    "hermite_smoothed_step",
    "default_starts",
]


@dataclass(frozen=True)
class ProfileProblem:
    """Truncated profile problem on (-T, T).

    n = 1 is accepted here (only here) as a calibration mode: with lam = 0
    the minimum is the classical sharp-interface constant
    2 int_{-1}^{1} sqrt(W).  lam and truncation_T must be finite.
    """

    n: int
    lam: float
    truncation_T: float
    num_points: int
    potential: DoubleWell

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        T = self.truncation_T
        if not (np.isfinite(T) and T > 0):
            raise ValueError(f"truncation_T must be positive and finite, got {T}")
        if self.num_points < 400:
            raise ValueError("profile grid needs at least 400 points")

    @property
    def grid(self) -> Grid:
        return Grid(-self.truncation_T, self.truncation_T, self.num_points)

    @property
    def clamp_band(self) -> int:
        # stencil width of the order-n operator
        return self.n + ACCURACY_ORDER


#: gradient tolerance and damped-Newton step cap of each profile run
PROFILE_GTOL = 1e-8
PROFILE_MAXITER = 100


@dataclass
class ProfileResult:
    """Minimizer, its energy, and convergence diagnostics: converged means
    gradient_norm_final < max(PROFILE_GTOL, gradient_floor), the roundoff
    floor of the assembled gradient at the minimizer, and no stop on a
    failed line search (`DiscreteEnergy.minimize`).  factorizations
    counts the LAPACK factorizations of the Newton steps, tau retries that
    change the shifted matrix included.  After a multistart
    (`minimize_profile` with init = None), iterations and factorizations
    sum over every start; the other fields are the winning start's."""

    minimizer: Field
    energy_estimate: float
    converged: bool
    iterations: int
    gradient_norm_final: float
    gradient_floor: float
    diagnosis: str = ""
    factorizations: int = 0


def hermite_smoothed_step(grid: Grid, n: int) -> np.ndarray:
    """A -1 -> +1 step smoothed over [-1/2, 1/2] by the two-point coupling
    polynomial with max(n,2)-fold flat contact at the wells."""
    p = _step_polynomial(max(int(n), 2))
    x = grid.nodes()
    s = np.clip(x + 0.5, 0.0, 1.0)
    return np.asarray(eval_poly(p, s, 0), dtype=float)


def default_starts(problem: ProfileProblem) -> List[Tuple[str, np.ndarray]]:
    """Multi-start initializations: tanh ramps at several widths plus the
    Hermite-smoothed step."""
    x = problem.grid.nodes()
    starts = [(f"tanh(x/{s})", np.tanh(x / s)) for s in (0.5, 1.0, 2.0)]
    starts.append(("hermite_step", hermite_smoothed_step(problem.grid, problem.n)))
    return starts


def minimize_profile(
    problem: ProfileProblem,
    init: Optional[Union[Field, np.ndarray]] = None,
) -> ProfileResult:
    """Minimize the truncated profile energy with clamped well tails.

    The outermost `clamp_band` points on each side are fixed to -1 / +1;
    `DiscreteEnergy.minimize` runs damped Newton over the free interior
    values.  With init = None a multi-start over `default_starts` keeps
    the best energy.
    """
    w = problem.potential
    kernel = DiscreteEnergy(problem.grid, problem.n)
    c = (1.0, -problem.lam, 1.0)
    band = problem.clamp_band
    npts = problem.num_points
    free = slice(band, npts - band)

    def run_single(u0_vals: np.ndarray) -> ProfileResult:
        u = np.array(u0_vals, dtype=float)
        u[:band] = -1.0
        u[-band:] = 1.0
        u, info, floor, converged = kernel.minimize(
            u, w, c, PROFILE_GTOL, PROFILE_MAXITER, free=free
        )
        gnorm = info.gradient_norm
        diagnosis = ""
        if not converged:
            diagnosis = info.message
        elif gnorm >= PROFILE_GTOL:
            diagnosis = f"converged to the roundoff gradient floor {floor:.1e}"
        return ProfileResult(
            minimizer=Field(problem.grid, u),
            energy_estimate=float(info.energy),
            converged=converged,
            iterations=int(info.iterations),
            gradient_norm_final=float(gnorm),
            gradient_floor=float(floor),
            diagnosis=diagnosis,
            factorizations=int(info.factorizations),
        )

    if init is not None:
        vals = init.values if isinstance(init, Field) else np.asarray(init, float)
        if len(vals) != npts:
            raise ValueError("init length does not match the profile grid")
        return run_single(vals)

    runs = [run_single(u0) for _, u0 in default_starts(problem)]
    best = min(runs, key=lambda r: r.energy_estimate)
    return replace(
        best,
        iterations=sum(r.iterations for r in runs),
        factorizations=sum(r.factorizations for r in runs),
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
    num_points: int = 2001,
    lambda_hat: Optional[float] = None,
    slack: float = 0.02,
) -> ConstantsEstimate:
    """Estimate C_hat at lam = 0 and at lam from multi-start profile runs
    and check the sandwich bounds within the given slack.

    lam must be finite, >= 0 and strictly below lambda_hat (subcritical);
    lambda_hat is estimated on demand when not supplied and lam > 0.  A
    negative or non-finite slack, under which the sandwich verdict means
    nothing, is a ValueError, and so is a problem that `ProfileProblem`
    rejects; both are checked before any solve.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
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
        prob1 = ProfileProblem(n, lam, truncation_T, num_points, w)
        r1 = minimize_profile(prob1, init=r0.minimizer)
        # multi-start competitor in case the lam run prefers another basin
        r1b = minimize_profile(prob1)
        if r1b.energy_estimate < r1.energy_estimate:
            r1 = r1b
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
    profile: Field,
    eps: float,
    points_per_eps: float = 32,
) -> Field:
    """Paste the rescaled profile into eps-windows around each jump.

    Around an up-jump (-1 to +1 at s_i) the field is f((x - s_i)/eps);
    around a down-jump it is f(-(x - s_i)/eps); elsewhere it equals u.
    f is the not-a-knot cubic spline of the profile samples
    (`grids.NotAKnotSpline`), evaluated on each window's points only.
    With left_value = -1 the up-jumps are exactly the odd-indexed ones.
    Requires eps * T < delta0 / 2 so the pasted windows neither overlap
    each other nor stick out of the interval.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = profile.grid
    if abs(g.a + g.b) > 1e-9 * g.length:
        raise ValueError("profile grid must be symmetric around 0")
    T = g.b
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
    spline = NotAKnotSpline(profile)
    sign_before = u.left_value
    for s in u.jumps:
        z = (x - s) / eps
        window = np.abs(z) <= T
        arg = z[window] if sign_before < 0 else -z[window]
        vals[window] = spline(np.clip(arg, g.a, g.b))
        sign_before = -sign_before
    return Field(grid, vals)
