"""
Double-well potentials with the structural assumptions used by the energy
functionals: nonnegativity, wells exactly at -1 and +1, and quadratic
coercivity away from the wells with an explicit constant L.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

__all__ = [
    "DoubleWell",
    "ValidationReport",
    "AssumptionResult",
    "make_quartic",
    "validate_assumptions",
]


@dataclass(frozen=True)
class DoubleWell:
    """A double-well potential W with derivative and coercivity constant.

    Attributes:
        eval: W(t), vectorized over numpy arrays.
        eval_derivative: W'(t), vectorized.
        coercivity_L: constant L > 0 with W(t) >= L*(t-1)^2 for t > 0 and
            W(t) >= L*(t+1)^2 for t < 0.
        name: identifier used in configs and reports.
        eval_second_derivative: W''(t), optional; `second_derivative`
            differentiates W' when it is not given.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    eval_derivative: Callable[[np.ndarray], np.ndarray]
    coercivity_L: float
    name: str = "custom"
    eval_second_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, t):
        return self.eval(t)

    def second_derivative(self, t):
        """W''(t): eval_second_derivative when given, else the central
        difference of the exact W' with step eps^(1/3) max(1, |t|) (Nocedal
        & Wright, Numerical Optimization, sec. 8.1)."""
        if self.eval_second_derivative is not None:
            return self.eval_second_derivative(t)
        t = np.asarray(t, dtype=float)
        h = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(t))
        hi, lo = t + h, t - h
        return np.subtract(self.eval_derivative(hi), self.eval_derivative(lo)) / (hi - lo)


@dataclass
class AssumptionResult:
    """Outcome of one sampled assumption check."""

    name: str
    passed: bool
    worst_point: float
    worst_margin: float
    detail: str = ""


@dataclass
class ValidationReport:
    """Per-assumption pass/fail results from `validate_assumptions`."""

    results: List[AssumptionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __getitem__(self, name: str) -> AssumptionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _quartic(t):
    t = np.asarray(t, dtype=float)
    return (t - 1.0) ** 2 * (t + 1.0) ** 2


def _quartic_prime(t):
    t = np.asarray(t, dtype=float)
    return 4.0 * t * (t * t - 1.0)


def _quartic_second(t):
    t = np.asarray(t, dtype=float)
    return 12.0 * t**2 - 4.0


def make_quartic() -> DoubleWell:
    """The standard quartic double well W(t) = (t-1)^2 (t+1)^2.

    W'(t) = 4t^3 - 4t.  The coercivity constant is L = 1: for t > 0,
    W(t)/(t-1)^2 = (t+1)^2 > 1, with infimum 1 approached as t -> 0+.
    """
    return DoubleWell(
        eval=_quartic,
        eval_derivative=_quartic_prime,
        coercivity_L=1.0,
        name="quartic",
        eval_second_derivative=_quartic_second,
    )


#: built-in potentials addressable by name in CLI configs
BUILTIN_POTENTIALS = {"quartic": make_quartic}


def get_potential(name: str) -> DoubleWell:
    """Look up a built-in potential by name; an unknown name is a
    ValueError, which the CLI reports as a usage error."""
    if name not in BUILTIN_POTENTIALS:
        raise ValueError(
            f"unknown potential {name!r}; available: {sorted(BUILTIN_POTENTIALS)}"
        )
    return BUILTIN_POTENTIALS[name]()


def validate_assumptions(w: DoubleWell) -> ValidationReport:
    """Check the three double-well assumptions by dense sampling on [-3, 3].

    Checked per sample point:
      nonnegativity:  W(t) >= 0
      wells:          W(-1) = W(+1) = 0 and W(t) > 0 elsewhere
      coercivity:     W(t) >= L*(t-1)^2 for t > 0, W(t) >= L*(t+1)^2 for t < 0
      derivative:     W' matches a central difference of W to rel. 1e-6
      second_derivative:  likewise W'' against W' (a derived W'' passes)

    Failures are reported, not raised; each result carries the worst
    offending sample point and its margin.
    """
    t = np.linspace(-3.0, 3.0, 10_000)
    # include the wells and a point between them exactly
    t = np.union1d(t, [-1.0, 0.0, 1.0])
    Wt = np.asarray(w.eval(t), dtype=float)
    report = ValidationReport()

    i = int(np.argmin(Wt))
    report.results.append(
        AssumptionResult(
            name="nonnegativity",
            passed=bool(Wt.min() >= 0.0),
            worst_point=float(t[i]),
            worst_margin=float(Wt.min()),
            detail="min sampled W",
        )
    )

    w_at_wells = float(max(abs(w.eval(np.array(-1.0))), abs(w.eval(np.array(1.0)))))
    away = np.abs(np.abs(t) - 1.0) > 1e-9
    pos_away = Wt[away] > 0.0
    j = int(np.argmin(Wt[away]))
    wells_ok = w_at_wells == 0.0 and bool(pos_away.all())
    report.results.append(
        AssumptionResult(
            name="wells",
            passed=wells_ok,
            worst_point=float(t[away][j]),
            worst_margin=float(Wt[away][j]),
            detail=f"|W(+-1)| = {w_at_wells:.3e}; min W away from wells",
        )
    )

    margin = np.where(t > 0, Wt - w.coercivity_L * (t - 1.0) ** 2, np.inf)
    margin = np.where(t < 0, Wt - w.coercivity_L * (t + 1.0) ** 2, margin)
    k = int(np.argmin(margin))
    report.results.append(
        AssumptionResult(
            name="coercivity",
            passed=bool(margin[k] >= -1e-12),
            worst_point=float(t[k]),
            worst_margin=float(margin[k]),
            detail=f"L = {w.coercivity_L}",
        )
    )

    step = 1e-5
    for name, f, df in (
        ("derivative", w.eval, w.eval_derivative),
        ("second_derivative", w.eval_derivative, w.second_derivative),
    ):
        fd = (f(t + step) - f(t - step)) / (2 * step)
        exact = np.asarray(df(t), dtype=float)
        rel = np.abs(exact - fd) / np.maximum(np.abs(exact), 1.0)
        m = int(np.argmax(rel))
        report.results.append(
            AssumptionResult(
                name=name,
                passed=bool(rel[m] < 1e-6),
                worst_point=float(t[m]),
                worst_margin=float(rel[m]),
                detail="max rel. deviation from central difference",
            )
        )
    return report
