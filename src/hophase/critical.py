"""
Estimation of the critical interpolation constant: the largest lambda_n
for which

    lambda_n int_I (u^(n-1))^2 <= |I|^(-(2n-2)) int_I W(u) + |I|^2 int_I (u^(n))^2

holds on every bounded interval.  Both sides scale like sigma^(3-2n) under
u -> u(./sigma), so the quotient

    Q[u] = (|I|^(-(2n-2)) int W(u) + |I|^2 int (u^(n))^2) / int (u^(n-1))^2

is scale invariant and lambda_n = inf Q.  The estimator minimizes Q over
polynomials on the normalized interval (0,1) in the Bernstein basis (the
one-element `energy._SplineKernel`), integrating each candidate exactly
(Gauss-Legendre, for a quartic W), so the minimum it finds is Q[p] of an
actual function and bounds lambda_n from above.  The reported
lambda_hat_n is Q of the winning polynomial sampled on a grid, the
finite-difference quotient of that witness field, which is no such bound:
it may lie on either side of lambda_n.
"""

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._solvers import BandedSystem, damped_newton
from .energy import DiscreteEnergy, _SplineKernel, bernstein_matrix
from .ensembles import DEFAULT_KINDS, _draw, _generator, _row_blocks, _stack
from .grids import Field, Grid
from .potentials import DoubleWell

__all__ = [
    "DENOMINATOR_FLOOR",
    "POLY_DEGREE",
    "POLY_STARTS",
    "DegenerateQuotient",
    "QuotientResult",
    "LambdaOptions",
    "LambdaEstimate",
    "SubcriticalReport",
    "quotient",
    "subdivided_quotient",
    "estimate_lambda_n",
    "verify_subcritical",
]

#: fields with int (u^(n-1))^2 at or below this are rejected as degenerate
DENOMINATOR_FLOOR = 1e-12
#: degree of the polynomials of the polynomial stage of `estimate_lambda_n`
POLY_DEGREE = 10
#: number of random coefficient starts of that stage
POLY_STARTS = 8
#: points of the unit-interval grid of `verify_subcritical`'s ensemble
SUBCRITICAL_POINTS = 401


@dataclass(frozen=True)
class QuotientResult:
    """Value and parts of the interpolation quotient for one field."""

    value: float
    numerator_parts: Tuple[float, float]
    denominator: float


class DegenerateQuotient(ValueError):
    """The field's int (u^(n-1))^2 is at or below DENOMINATOR_FLOOR."""


def _weigh(pot, den, high, n: int, length: float) -> Tuple[float, float, float]:
    """(potential, denominator, high) of Q with the |I|-weights of an
    interval of the given length, from the three integrals; raises
    `DegenerateQuotient` if the denominator is at or below the floor."""
    if den <= DENOMINATOR_FLOOR:
        raise DegenerateQuotient(
            "quotient undefined: int (u^(n-1))^2 = "
            f"{den:.3e} <= {DENOMINATOR_FLOOR:.0e}"
        )
    return length ** (-(2 * n - 2)) * pot, den, length**2 * high


def _quotient_terms(
    u: Field, n: int, w: DoubleWell, length: float
) -> Tuple[float, float, float]:
    """(potential, denominator, high) of Q[u] with the |I|-weights of an
    interval of the given length."""
    if n < 2:
        raise ValueError("quotient requires n >= 2")
    return _weigh(*DiscreteEnergy(u.grid, n).terms(u.values, w), n, length)


def quotient(u: Field, n: int, w: DoubleWell) -> QuotientResult:
    """Q[u] on the field's own interval; raises `DegenerateQuotient` if degenerate."""
    pot, den, high = _quotient_terms(u, n, w, u.grid.length)
    return QuotientResult(
        value=(pot + high) / den,
        numerator_parts=(pot, high),
        denominator=den,
    )


def subdivided_quotient(u: Field, n: int, w: DoubleWell) -> float:
    """Truncated real-line form: unit-length normalization regardless of
    the actual interval, matching the subdivision of a long interval into
    unit pieces (each contributing with |I_i| = 1 weights)."""
    pot, den, high = _quotient_terms(u, n, w, 1.0)
    return (pot + high) / den


# ---------------------------------------------------------------------------
# lambda_hat estimation
# ---------------------------------------------------------------------------


@dataclass
class LambdaOptions:
    """Knobs for `estimate_lambda_n`: num_points, the nodes on which the
    witness is sampled; the seed of the random polynomial starts; and
    maxiter, the Newton step cap of every polynomial start."""

    num_points: int = 501
    seed: int = 0
    maxiter: int = 3000


@dataclass
class LambdaEstimate:
    """Best quotient found, its witness field, and per-start diagnostics
    of the polynomial stage."""

    value: float
    witness: Field
    n: int
    per_start: List[float] = dc_field(default_factory=list)
    diagnostics: dict = dc_field(default_factory=dict)


def _poly_stage(kernel: _SplineKernel, w: DoubleWell, opts: LambdaOptions):
    """Global search over the polynomials of the one-element kernel on
    (0,1), of degree POLY_DEGREE, in their Bernstein coefficients, with
    Gauss-Legendre integrals (exact for a quartic W): `_minimize_quotient`
    from a ramp (and a quadratic for n >= 3) and POLY_STARTS random
    monomial coefficient vectors, each mapped once to Bernstein
    coefficients.  A degenerate start (the ramp for n >= 3) is not solved.
    Returns the best coefficients (None if every start is degenerate) and
    each start's (value, stop reason, step count) in start order."""
    functions = _quotient_functions(kernel, w)
    value = functions[0]
    ncoef = kernel.size
    rng = _generator(opts.seed)
    ramp, quad = np.zeros((2, ncoef))
    ramp[:2], quad[:3] = (-1.0, 2.0), (1.0, -8.0, 8.0)
    starts = [ramp, quad] if kernel.n >= 3 else [ramp]
    starts += [rng.normal(0.0, 1.0, ncoef) / (1.0 + np.arange(ncoef))
               for _ in range(POLY_STARTS)]

    to_bernstein = bernstein_matrix(kernel.p).astype(float)
    runs, best_val, best_c = [], np.inf, None
    for c0 in starts @ to_bernstein.T:
        if not np.isfinite(value(c0)):
            runs.append((np.inf, "degenerate start", 0))
            continue
        c, info = _minimize_quotient(functions, c0, opts.maxiter, gtol=1e-12)
        message = info.message or "gradient below gtol"
        runs.append((float(info.energy), message, info.iterations))
        if info.energy < best_val:
            best_val, best_c = info.energy, c
    return best_c, runs


def _quotient_functions(kernel: _SplineKernel, w: DoubleWell):
    """Q[c] = (int W + int (f^(n))^2) / int (f^(n-1))^2 for the polynomial
    f of a one-element `_SplineKernel` with no fixed coefficients; its
    gradient g = (N' - Q D') / D, both derivatives from one `grads` pass;
    and its Newton system: value(c), inf on a degenerate denominator;
    grad(c), 0 there; and system(c), the dense Hessian
    (N'' - Q D'') / D - g (D'/D)^T - (D'/D) g^T in the kernel's band, whose
    half-bandwidth p covers the whole matrix.  grad reuses the terms of
    the last value call at coefficients of the same bits, as at the trial
    point the line search accepts, and system the parts of the last grad
    call at the same array object, as in the Newton driver."""
    last, seen = {}, {}
    m = kernel.size
    i, j = np.indices((m, m))
    dense = (kernel.p + i - j, j)

    def terms(v):
        # keyed by the bits of v, which fix the terms
        if seen.get("key") != v.tobytes():
            seen.update(key=v.tobytes(), terms=kernel.terms(v, w))
        return seen["terms"]

    def value(v):
        pot, D, high = terms(v)
        return (pot + high) / D if D > DENOMINATOR_FLOOR else np.inf

    def grad(v):
        pot, D, high = terms(v)
        if D <= DENOMINATOR_FLOOR:
            return np.zeros_like(v)
        Q = (pot + high) / D
        dN, dD = kernel.grads(v, w, ((1.0, -Q, 1.0), (0.0, 1.0, 0.0)))
        g = dN / D
        last.update(v=v, Q=Q, D=D, g=g, gD=dD / D)
        return g

    def system(v):
        if last.get("v") is not v:
            grad(v)
        Q, D, g, gD = last["Q"], last["D"], last["g"], last["gD"]
        ab = kernel.hess(v, w, (1.0 / D, -Q / D, 1.0 / D))
        outer = np.outer(g, gD)
        ab[dense] -= outer + outer.T
        return BandedSystem(ab, kernel.p)

    return value, grad, system


def _minimize_quotient(functions, x0, maxiter: int, gtol: float):
    """Minimize the quotient from x0 with the (value, grad, system) of
    `_quotient_functions`: damped Newton on the dense Hessian, at most
    maxiter steps, its line search on value(x + t d) - value(x)."""
    value, grad, system = functions

    def line(x, d):
        q0 = value(x)
        return lambda t: value(x + t * d) - q0

    return damped_newton(
        value, grad, system, x0, maxiter=maxiter, gtol=gtol,
        stagnation_rtol=1e-15, line=line,
    )


def estimate_lambda_n(
    n: int, w: DoubleWell, opts: Optional[LambdaOptions] = None
) -> LambdaEstimate:
    """The estimate lambda_hat_n = min Q on (0,1).

    The polynomial stage (`_poly_stage`) minimizes Q over polynomials;
    degree-(n-1) fields make the highest term vanish and are strong
    competitors for n >= 3.  The witness is its winner sampled on
    opts.num_points nodes, and value is quotient(witness, n, w).value.
    per_start, diagnostics["messages"] and diagnostics["steps"] give each
    polynomial start's value, stop reason and step count in start order
    (inf, "degenerate start" and 0 for a start that is not solved), and
    diagnostics["poly_stage_value"] is min(per_start), an upper bound on
    lambda_n (see the module docstring).
    """
    if n < 2:
        raise ValueError("estimate_lambda_n requires n >= 2")
    opts = opts or LambdaOptions()
    grid = Grid(0.0, 1.0, opts.num_points)
    # the witness's kernel rejects an n or a grid its stencils cannot
    # serve before any polynomial work
    DiscreteEnergy(grid, n)

    kernel = _SplineKernel(n, (0.0, 1.0), 1, POLY_DEGREE, 0)
    poly_c, runs = _poly_stage(kernel, w, opts)
    per_start, messages, steps = (list(r) for r in zip(*runs))
    if poly_c is None:
        raise RuntimeError(
            "estimate_lambda_n: every polynomial start is degenerate; "
            f"per_start={per_start}"
        )
    witness = Field(grid, kernel.sample(poly_c, grid.nodes()))
    return LambdaEstimate(
        value=quotient(witness, n, w).value,
        witness=witness,
        n=n,
        per_start=per_start,
        diagnostics={
            "num_points": opts.num_points,
            "poly_stage_value": float(min(per_start)),
            "messages": messages,
            "steps": steps,
            "num_starts": len(per_start),
        },
    )


# ---------------------------------------------------------------------------
# subcritical ensemble verification
# ---------------------------------------------------------------------------


@dataclass
class SubcriticalReport:
    """Outcome of checking Q[u] >= lam over a random ensemble."""

    n: int
    lam: float
    num_checked: int
    num_skipped: int
    min_quotient: float
    worst_index: int
    violations: List[dict] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No violation, and at least one field was checked (every field
        skipped as degenerate is no evidence)."""
        return self.num_checked > 0 and not self.violations


def verify_subcritical(
    n: int,
    lam: float,
    ensemble_size: int,
    w: DoubleWell,
    seed: int = 0,
    extra_fields: Sequence[Field] = (),
) -> SubcriticalReport:
    """Evaluate the quotient over a seeded random ensemble and report any
    Q[u] < lam.

    The ensemble lives on (0,1) with `SUBCRITICAL_POINTS` points, except
    every fourth field, which is drawn on a longer interval (0,K) at the
    same spacing and checked in the unit-normalized real-line form (the
    subdivision into unit intervals).  Fields with degenerate denominator
    are skipped, not failed; any other rejected input (n < 2, a lam that
    is negative or not finite) raises.  Witness fields (e.g. the argmin
    from `estimate_lambda_n`) can be appended via extra_fields; with
    lam > lambda_hat_n the witness violates by construction.  An empty
    check would pass vacuously, so ensemble_size must be >= 0 and at least
    one field (random or extra) is required.  The random fields are drawn
    first, in order, and evaluated as row stacks per grid, each with the
    bits of one `quotient` or `subdivided_quotient` call.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if ensemble_size < 0:
        raise ValueError(f"ensemble_size must be >= 0, got {ensemble_size}")
    if ensemble_size == 0 and not extra_fields:
        raise ValueError("nothing to check: ensemble_size is 0 and no extra_fields")
    if n < 2:
        raise ValueError("quotient requires n >= 2")
    rng = _generator(seed)
    unit = Grid(0.0, 1.0, SUBCRITICAL_POINTS)
    # one grid object per interval: each computes its unit_nodes once, and
    # its fields are found by identity
    long_grids = {
        K: Grid(0.0, float(K), (SUBCRITICAL_POINTS - 1) * K + 1) for K in (2, 3)
    }
    draws = []
    for i in range(ensemble_size):
        g = long_grids[int(rng.integers(2, 4))] if i % 4 == 3 else unit
        kind = DEFAULT_KINDS[i % 3]
        draws.append((g, kind, _draw(rng, kind)))

    # Q of each field in index order, None where it is degenerate; the
    # fields on one grid are drawn and evaluated as stacks of rows, in
    # blocks of bounded size
    values: List[Optional[float]] = [None] * ensemble_size
    for g in dict.fromkeys(d[0] for d in draws):
        kernel = DiscreteEnergy(g, n)
        # the unit grid's fields take Q on their own interval, the long
        # ones its subdivided form
        length = g.length if g is unit else 1.0
        idx = [i for i, d in enumerate(draws) if d[0] is g]
        for block in _row_blocks(idx, g.num_points):
            stack = _stack([draws[i][1] for i in block], [draws[i][2] for i in block],
                           g.unit_nodes)
            if not np.isfinite(stack).all():
                raise ValueError("field values must be finite")
            for i, terms in zip(block, zip(*kernel.terms(stack, w))):
                try:
                    pot, den, high = _weigh(*terms, n, length)
                except DegenerateQuotient:
                    continue
                values[i] = float((pot + high) / den)
    for f in extra_fields:
        try:
            values.append(quotient(f, n, w).value)
        except DegenerateQuotient:
            values.append(None)

    min_q, worst = np.inf, -1
    violations: List[dict] = []
    for idx, qv in enumerate(values):
        if qv is None:
            continue
        if qv < min_q:
            min_q, worst = qv, idx
        if qv < lam:
            sub = idx < ensemble_size and idx % 4 == 3
            violations.append({"index": idx, "quotient": qv, "subdivided": sub})
    skipped = values.count(None)
    return SubcriticalReport(
        n=n,
        lam=lam,
        num_checked=len(values) - skipped,
        num_skipped=skipped,
        min_quotient=float(min_q),
        worst_index=worst,
        violations=violations,
    )
