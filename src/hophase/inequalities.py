"""
Numerical checkers for the auxiliary interpolation inequalities: the
explicit-constant first-derivative bound, the sigma-weighted order-n
variant, interval Gagliardo-Nirenberg with tracked empirical constant, the
additive abstract form, and the subcritical lower-bound relation between
the lam and lam = 0 energies.

Each checker evaluates both sides on one supplied field; `ensemble_check`
drives any of them over the seeded random ensemble.  A failure at a tight
probe constant is reported as the empirical constant exceeding the probe,
never as a counterexample: discretization error can violate sharp
constants.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from .energy import EnergyParams, evaluate
from .ensembles import DEFAULT_KINDS, _draw, _generator, _row_blocks, _stack
from .grids import (
    MAX_DERIVATIVE_ORDER, Field, Grid, apply_stencil, diff_operator, quadrature_weights,
)
from .potentials import DoubleWell

__all__ = [
    "GNParams",
    "CheckReport",
    "EnsembleCheckReport",
    "lp_norm",
    "intlem_constant",
    "check_intlem",
    "check_nirineq",
    "check_gagnir_interval",
    "check_abstr",
    "check_lower_bound_lemma",
    "ensemble_check",
]

#: multiplicative tolerance of the pass rule lhs <= rhs * (1 + PASS_RTOL)
PASS_RTOL = 1e-8
#: grid size and interval-length range of the fields of `ensemble_check`
ENSEMBLE_POINTS = 401
ENSEMBLE_LENGTHS = (0.3, 4.0)


@dataclass(frozen=True)
class GNParams:
    """Exponents of the interval Gagliardo-Nirenberg inequality."""

    p: float
    q: float
    r: float
    j: int
    m: int
    theta: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1 and self.r >= 1):
            raise ValueError("p, q, r must be >= 1")
        if not 0 <= self.j < self.m:
            raise ValueError("need 0 <= j < m")
        if not self.j / self.m <= self.theta < 1:
            raise ValueError("theta must lie in [j/m, 1)")
        balance = self.j + self.theta * (1.0 / self.r - self.m) + (
            1.0 - self.theta
        ) / self.q
        if abs(1.0 / self.p - balance) > 1e-12:
            raise ValueError(
                f"dimension balance violated: 1/p = {1.0 / self.p:.15g} but "
                f"j + theta(1/r - m) + (1-theta)/q = {balance:.15g}"
            )


@dataclass
class CheckReport:
    """Both sides of one inequality check on one field."""

    lhs: float
    rhs: float
    ratio: float
    passed: bool
    witness: str = ""
    extra: dict = dc_field(default_factory=dict)


def _report(lhs: float, rhs: float, witness: str, **extra) -> CheckReport:
    ratio = lhs / rhs if rhs != 0 else (0.0 if lhs == 0 else np.inf)
    passed = lhs <= rhs * (1.0 + PASS_RTOL) + 1e-300
    return CheckReport(
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=float(ratio),
        passed=bool(passed),
        witness=witness,
        extra=dict(extra),
    )


def _norm(q: np.ndarray, v: np.ndarray, p: float) -> float:
    """L^p norm of the samples v under the quadrature weights q (`lp_norm`)."""
    if p == np.inf:
        return float(np.abs(v).max())
    if not p >= 1:
        raise ValueError(f"norm exponent p must be >= 1, got {p}")
    return float((q @ np.abs(v) ** p) ** (1.0 / p))


def _samples(u: Field, k: int) -> np.ndarray:
    """The samples of the discrete k-th derivative of u, u's own for k = 0."""
    return u.values if k == 0 else apply_stencil(diff_operator(u.grid, k), u.values)


def lp_norm(f: Field, p: float) -> float:
    """L^p norm by |.|^p quadrature; p = inf gives the max norm.  Any other
    p that is not >= 1, NaN and -inf included, is a ValueError."""
    return _norm(quadrature_weights(f.grid), f.values, p)


def intlem_constant(q: float) -> float:
    """The explicit constant 8 (q+1)^(1/q); equals 16 at q = 1."""
    return 8.0 * (q + 1.0) ** (1.0 / q)


def _smallest_constant(lhs: float, bracket: float) -> float:
    """lhs / bracket, the smallest C of lhs <= C bracket: 0 for a zero
    bracket under a zero lhs, inf under any other."""
    return lhs / bracket if bracket > 0 else (0.0 if lhs == 0 else np.inf)


def check_intlem(u: Field, p: float, q: float, r: float) -> CheckReport:
    """First-derivative interpolation with the explicit constant:

        ||u'||_p <= C (|I|^(1+1/p-1/r) ||u''||_r + |I|^(-1+1/p-1/q) ||u||_q),
        C = 8 (q+1)^(1/q).

    The smallest constant the field passes with, lhs over the bracket, is
    reported as extra["empirical_constant"].
    """
    L = u.grid.length
    C = intlem_constant(q)
    qw = quadrature_weights(u.grid)
    lhs = _norm(qw, _samples(u, 1), p)
    bracket = (
        L ** (1.0 + 1.0 / p - 1.0 / r) * _norm(qw, _samples(u, 2), r)
        + L ** (-1.0 + 1.0 / p - 1.0 / q) * _norm(qw, u.values, q)
    )
    return _report(
        lhs,
        C * bracket,
        f"field on ({u.grid.a:.3g},{u.grid.b:.3g})",
        C=C,
        empirical_constant=float(_smallest_constant(lhs, bracket)),
    )


def check_nirineq(u: Field, n: int, sigma: float, c_probe: float) -> CheckReport:
    """Sigma-weighted order-n interpolation:

        c_probe int (u^(n-1))^2 <= sigma^(-(2n-2)) int u^2 + sigma^2 int (u^(n))^2,

    for 0 < sigma <= |I| and 2 <= n <= MAX_DERIVATIVE_ORDER.  The empirical
    admissible constant rhs/lhs is reported alongside.
    """
    if not 2 <= n <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"nirineq needs 2 <= n <= {MAX_DERIVATIVE_ORDER}, got n = {n}")
    L = u.grid.length
    if not 0 < sigma <= L:
        raise ValueError(f"sigma must satisfy 0 < sigma <= |I| = {L:.4g}")
    qw = quadrature_weights(u.grid)
    lo = float(qw @ _samples(u, n - 1) ** 2)
    lhs = c_probe * lo
    rhs = sigma ** (-(2 * n - 2)) * float(qw @ u.values**2) + sigma**2 * float(
        qw @ _samples(u, n) ** 2
    )
    empirical = rhs / lo if lo > 0 else np.inf
    return _report(
        lhs,
        rhs,
        f"n={n}, sigma={sigma:.4g}",
        empirical_constant=float(empirical),
    )


def check_gagnir_interval(
    u: Field, gp: GNParams, C_probe: Optional[float] = None
) -> CheckReport:
    """Interval Gagliardo-Nirenberg:

        ||u^(j)||_p <= C (||u^(m)||_r^theta ||u||_q^(1-theta) + ||u||_q).

    No explicit C is available, so the required constant lhs/bracket is
    reported; with C_probe = None the check passes whenever the required
    constant is finite.
    """
    qw = quadrature_weights(u.grid)
    lhs = _norm(qw, _samples(u, gp.j), gp.p)
    high = _norm(qw, _samples(u, gp.m), gp.r)
    low = _norm(qw, u.values, gp.q)
    bracket = high**gp.theta * low ** (1.0 - gp.theta) + low
    required = _smallest_constant(lhs, bracket)
    if C_probe is None:
        return CheckReport(
            lhs=float(lhs),
            rhs=float(bracket),
            ratio=float(required),
            passed=bool(np.isfinite(required)),
            witness=f"required C = {required:.6g}",
            extra={"required_C": float(required), "bracket": float(bracket)},
        )
    rep = _report(lhs, C_probe * bracket, f"C_probe={C_probe:.6g}")
    rep.extra["required_C"] = float(required)
    return rep


def check_abstr(
    u: Field, j: int, m: int, q: float, r: float, C_probe: float
) -> CheckReport:
    """Additive interpolation ||u^(j)||_r <= ||u^(m)||_r + C ||u||_q; the
    minimal passing constant (lhs - ||u^(m)||_r)/||u||_q is reported."""
    if not 0 <= j < m:
        raise ValueError("need 0 <= j < m")
    qw = quadrature_weights(u.grid)
    lhs = _norm(qw, _samples(u, j), r)
    high = _norm(qw, _samples(u, m), r)
    low = _norm(qw, u.values, q)
    rhs = high + C_probe * low
    minimal = max(0.0, (lhs - high) / low) if low > 0 else 0.0
    return _report(lhs, rhs, f"j={j}, m={m}", minimal_C=float(minimal))


def check_lower_bound_lemma(
    u: Field, p: EnergyParams, lam_hat: float, delta: float, w: DoubleWell
) -> CheckReport:
    """Subcritical lower bound: (1 - lam/lam_hat - delta) E_0[u] <= E_lam[u],
    relating the energy to its lam = 0 part."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not (np.isfinite(lam_hat) and lam_hat > 0):
        raise ValueError(f"lam_hat must be positive and finite, got {lam_hat}")
    if p.lam < 0 or p.lam > 0.5 * lam_hat:
        raise ValueError("precondition: 0 <= lam <= 0.5 * lam_hat")
    b = evaluate(u, p, w)
    # E_0[u]: the same weighted terms without the concave one
    e_0 = b.potential_term + b.highest_term
    factor = 1.0 - p.lam / lam_hat - delta
    return _report(factor * e_0, b.total, f"eps={p.epsilon:.4g}", factor=factor)


@dataclass
class EnsembleCheckReport:
    """Reduction of one checker over the seeded random ensemble."""

    which: str
    count: int
    num_failed: int
    worst_ratio: float
    worst_index: int
    witness: Optional[Field]
    witness_description: str = ""
    empirical_constant: float = np.nan
    reports: List[CheckReport] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.num_failed == 0

    def summary(self) -> str:
        verdict = "pass" if self.passed else "empirical constant exceeds probe"
        return (
            f"{self.which}: {self.count - self.num_failed}/{self.count} passed, "
            f"worst ratio {self.worst_ratio:.6g} ({verdict})"
        )


def ensemble_check(
    checker: Callable[[Field], CheckReport],
    which: str,
    count: int,
    seed: int,
    keep_reports: bool = False,
) -> EnsembleCheckReport:
    """Run a per-field checker over `count` random fields, each sampled on
    ENSEMBLE_POINTS nodes of (0, L) with L uniform in ENSEMBLE_LENGTHS, and
    reduce to the worst case (by lhs/rhs ratio).  An empty ensemble would
    pass vacuously, so count must be >= 1.  Every length and field is
    drawn first, in order, and the fields are filled as row stacks; each
    reaches the checker, in index order, as its own Field with the bits
    of `random_field` on Grid(0, L, ENSEMBLE_POINTS)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = _generator(seed)
    lengths, kinds, params = [], [], []
    for i in range(count):
        lengths.append(float(rng.uniform(*ENSEMBLE_LENGTHS)))
        kinds.append(DEFAULT_KINDS[i % len(DEFAULT_KINDS)])
        params.append(_draw(rng, kinds[-1]))
    worst_ratio, worst_idx, worst_field = -np.inf, -1, None
    num_failed = 0
    reports: List[CheckReport] = []
    empirical = np.nan
    for block in _row_blocks(range(count), ENSEMBLE_POINTS):
        L = np.array([lengths[i] for i in block])
        # row i of t is the unit_nodes of Grid(0, L[i], ENSEMBLE_POINTS),
        # bit for bit: the same linspace, divided by the length
        t = np.linspace(0.0, L, ENSEMBLE_POINTS)
        t /= L
        stack = _stack([kinds[i] for i in block], [params[i] for i in block], t.T)
        for i, values in zip(block, stack):
            f = Field(Grid(0.0, lengths[i], ENSEMBLE_POINTS), values)
            rep = checker(f)
            if keep_reports:
                reports.append(rep)
            if not rep.passed:
                num_failed += 1
            if np.isfinite(rep.ratio) and rep.ratio > worst_ratio:
                worst_ratio, worst_idx, worst_field = rep.ratio, i, f
                if "empirical_constant" in rep.extra:
                    empirical = rep.extra["empirical_constant"]
                elif "required_C" in rep.extra:
                    empirical = rep.extra["required_C"]
                elif "minimal_C" in rep.extra:
                    empirical = rep.extra["minimal_C"]
    return EnsembleCheckReport(
        which=which,
        count=count,
        num_failed=num_failed,
        worst_ratio=float(worst_ratio),
        worst_index=worst_idx,
        witness=worst_field,
        witness_description=f"ensemble index {worst_idx} (seed {seed})",
        empirical_constant=float(empirical),
        reports=reports,
    )
