"""
Experiment orchestration: sharp-interface-limit sweeps over an epsilon
schedule, oscillation probes in the supercritical regime, and direct
energy minimization with an optional mass constraint.

Each sweep builds the recovery sequence of a piecewise +-1 jump function,
minimizes the energy from it, and records per-epsilon rows; the recovery
energies should approach (number of jumps) times the profile constant.
A sweep returns one record, whose rows also give a flat CSV for plotting;
the CLI writes both.
"""

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .energy import (
    DiscreteEnergy, EnergyBreakdown, EnergyParams, _breakdown,
    _require_integer_order, evaluate,
)
from .grids import Field, Grid
from .potentials import DoubleWell, get_potential
from .profiles import (
    PROFILE_POINTS,
    JumpFunction,
    ProfileProblem,
    build_recovery,
    minimize_profile,
)

__all__ = [
    "SweepConfig",
    "EpsRow",
    "RunRecord",
    "MinimizeEnergyResult",
    "SupercriticalReport",
    "minimize_energy",
    "count_jump_clusters",
    "gamma_sweep",
    "supercritical_probe",
]


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one sharp-interface sweep."""

    n: int = 2
    lam: float = 0.0
    potential: str = "quartic"
    interval: Tuple[float, float] = (-4.0, 4.0)
    jumps: Tuple[float, ...] = (0.0,)
    left_value: float = -1.0
    eps_schedule: Tuple[float, ...] = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    points_per_eps_width: int = 32
    mass_constraint: Optional[float] = None
    profile_T: float = 5.0
    lambda_hat: Optional[float] = None

    def __post_init__(self):
        _require_integer_order(self.n)
        if self.n < 2:
            raise ValueError(f"sweep requires n >= 2, got n = {self.n}")
        eps = self.eps_schedule
        if not eps:
            raise ValueError("eps schedule must not be empty")
        if not all(np.isfinite(e) and e > 0 for e in eps):
            raise ValueError(
                f"eps schedule must be positive and finite, got {list(eps)}"
            )
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if self.points_per_eps_width < 1:
            raise ValueError(
                f"points_per_eps_width must be >= 1, got {self.points_per_eps_width}"
            )
        length = self.interval[1] - self.interval[0]
        if self.mass_constraint is not None and not (
            -length < self.mass_constraint < length
        ):
            raise ValueError("mass constraint must lie in (-|I|, |I|)")
        # no coupling is below 0, and NaN passes the lam <= lambda_hat / 2 guard
        if self.lambda_hat is not None and not self.lambda_hat > 0:
            why = "must not be NaN" if np.isnan(self.lambda_hat) else "must be positive"
            raise ValueError(f"lambda_hat {why}, got {self.lambda_hat}")

    def jump_function(self) -> JumpFunction:
        return JumpFunction(
            self.interval[0], self.interval[1], self.jumps, self.left_value
        )

    def config_hash(self) -> str:
        """The sweep's name: a hash of every field."""
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class EpsRow:
    """One epsilon of a sweep."""

    epsilon: float
    e_min: float
    e_recovery: float
    jumps_detected: int
    converged: bool
    notes: str = ""


@dataclass
class RunRecord:
    """Outcome of one sweep."""

    config_hash: str
    rows: List[EpsRow]
    lambda_hat: Optional[float]
    c_hat_lam: float
    started_at: str
    finished_at: str
    notes: List[str] = dc_field(default_factory=list)

    def rows_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["epsilon", "E_min", "E_recovery", "jumps_detected", "converged"]
        )
        for r in self.rows:
            writer.writerow(
                [
                    f"{r.epsilon:.17g}",
                    f"{r.e_min:.17g}",
                    f"{r.e_recovery:.17g}",
                    r.jumps_detected,
                    r.converged,
                ]
            )
        return buf.getvalue()


@dataclass
class MinimizeEnergyResult:
    """Minimizer field, its energy breakdown, and run diagnostics of
    `energy._Quadrature.minimize`: converged means gradient_norm <
    max(gtol, gradient_floor), the roundoff floor of the assembled
    gradient at the minimizer, no divergence and no stop on a failed line
    search, on no descent direction or on the iteration limit.
    factorizations counts the LAPACK factorizations of the Newton steps,
    tau retries that change the shifted matrix included."""

    field: Field
    breakdown: EnergyBreakdown
    converged: bool
    diverged: bool
    iterations: int
    gradient_norm: float
    gradient_floor: float
    message: str = ""
    factorizations: int = 0


def minimize_energy(
    n: int,
    eps: float,
    lam: float,
    init: Field,
    w: DoubleWell,
    mass: Optional[float] = None,
    gtol: float = 1e-7,
    maxiter: int = 2000,
    divergence_floor: Optional[float] = None,
) -> MinimizeEnergyResult:
    """Minimize the energy from a given initialization by damped Newton
    (`energy._Quadrature.minimize` on the grid's `DiscreteEnergy`:
    Levenberg shift, Armijo backtracking on the exact energy change along
    the step) on the banded Hessian; maxiter caps the Newton steps.

    The optional mass constraint fixes int_I u = mass: the initialization
    is shifted to the prescribed value, and with the quadrature weights as
    the constraint row gradients are projected onto the zero-weighted-mean
    subspace and Newton solves the bordered saddle system, so every step
    preserves the constraint.  Energies falling
    below the divergence floor abort the run with the "supercritical
    divergence" record; in the supercritical regime that is the expected
    outcome, not an error.
    """
    params = EnergyParams(n, eps, lam)
    kernel = DiscreteEnergy(init.grid, n)
    u0, q = init.values, None
    if mass is not None:
        q = kernel.q
        u0 = u0 + (mass - float(q @ u0)) / float(q.sum())
    z, info, floor, converged = kernel.minimize(
        u0, w, params.weights, gtol, maxiter, constraint=q,
        divergence_floor=divergence_floor,
    )
    return MinimizeEnergyResult(
        field=Field(init.grid, z),
        breakdown=_breakdown(kernel, z, params, w),
        converged=converged,
        diverged=bool(info.diverged),
        iterations=int(info.iterations),
        gradient_norm=float(info.gradient_norm),
        gradient_floor=float(floor),
        message=info.message,
        factorizations=int(info.factorizations),
    )


def count_jump_clusters(f: Field, eps: float, profile_T: float) -> int:
    """Number of phase jumps of a field: sign changes of f, with changes
    closer than 2 * eps * T, the width of one pasted profile window, merged
    into one cluster, since a transition layer may wiggle through zero
    repeatedly.  build_recovery requires 2 * eps * T < delta0,
    so distinct jumps are never merged."""
    s = np.sign(f.values)
    x = f.grid.nodes()
    nz = s != 0
    xs, ss = x[nz], s[nz]
    flips = xs[1:][ss[1:] != ss[:-1]]
    if len(flips) == 0:
        return 0
    merge_width = 2.0 * eps * profile_T
    clusters = 1
    last = flips[0]
    for pos in flips[1:]:
        if pos - last > merge_width:
            clusters += 1
        last = pos
    return clusters


def gamma_sweep(cfg: SweepConfig, threads: int = 1) -> RunRecord:
    """Run the full epsilon schedule for one jump configuration.

    For each epsilon, in one serial pass: build the recovery sequence,
    evaluate it, minimize from it, count the minimizer's jump clusters.
    Per-epsilon failures are recorded in the row notes and the
    sweep continues.  The divergence floor of every minimization is -10^3
    in units of the first (largest-eps) recovery energy, or -10^3 when that
    recovery fails.  The record is returned and nothing is written.  The
    rows always run serially; threads is kept only for callers that pass
    threads=1, and any other value is a ValueError.
    """
    if threads != 1:
        raise ValueError(f"sweep rows run serially: threads must be 1, got {threads}")
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    w = get_potential(cfg.potential)
    if cfg.lambda_hat is not None and cfg.lam > 0.5 * cfg.lambda_hat:
        raise ValueError(
            f"sweep requires lam <= 0.5 * lambda_hat = {0.5 * cfg.lambda_hat:.4g}"
        )
    jump_fn = cfg.jump_function()
    prob = ProfileProblem(cfg.n, cfg.lam, cfg.profile_T, PROFILE_POINTS, w)
    prof = minimize_profile(prob)
    c_hat = prof.energy_estimate
    notes = []
    if not prof.converged:
        notes.append(f"profile not converged: {prof.diagnosis}")
    if c_hat <= 0:
        notes.append(
            f"c_hat_lam = {c_hat:.4g} <= 0: a layer costs no positive energy "
            f"at lam = {cfg.lam:g}"
        )

    rows, floor = [], -1e3
    for i, eps in enumerate(cfg.eps_schedule):
        try:
            rec = build_recovery(
                jump_fn, prof.spline, eps, points_per_eps=cfg.points_per_eps_width
            )
        except ValueError as exc:
            note = f"recovery failed: {exc}"
            rows.append(EpsRow(eps, np.nan, np.nan, -1, False, note))
            continue
        e_rec = evaluate(rec, EnergyParams(cfg.n, eps, cfg.lam), w).total
        if i == 0:
            floor = -1e3 * max(abs(e_rec), 1e-6)
        res = minimize_energy(
            cfg.n, eps, cfg.lam, rec, w, cfg.mass_constraint, divergence_floor=floor
        )
        e_min = res.breakdown.total
        jumps = count_jump_clusters(res.field, eps, cfg.profile_T)
        row_notes = []
        if res.diverged:
            row_notes.append("supercritical divergence")
        if e_min > e_rec + 1e-9 * max(1.0, abs(e_rec)):
            row_notes.append("min energy above recovery energy")
        if jumps != jump_fn.jump_count:
            row_notes.append(
                f"jump clusters {jumps} != configured {jump_fn.jump_count}"
            )
        rows.append(
            EpsRow(eps, float(e_min), float(e_rec), int(jumps), bool(res.converged),
                   "; ".join(row_notes))
        )

    target = jump_fn.jump_count * c_hat
    devs = [
        abs(r.e_recovery - target) for r in rows if np.isfinite(r.e_recovery)
    ]
    # a deviation that grows by less than this is roundoff, not an inversion
    slack = 1e-9 * max(1.0, abs(target))
    inversions = sum(1 for d1, d2 in zip(devs, devs[1:]) if d2 > d1 + slack)
    if inversions > 1:
        notes.append(f"recovery deviation not monotone ({inversions} inversions)")

    return RunRecord(
        config_hash=cfg.config_hash(),
        rows=rows,
        lambda_hat=cfg.lambda_hat,
        c_hat_lam=float(c_hat),
        started_at=started,
        finished_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        notes=notes,
    )


@dataclass
class SupercriticalReport:
    """Per-lambda best energies over the fixed oscillatory candidate set."""

    n: int
    eps: float
    lambda_grid: List[float]
    best_energies: List[float]
    best_k: List[int]
    best_amplitude: List[float]
    free_min_energies: List[float]
    free_diverged: List[bool]
    sign_changes: List[int]
    onset_lambda: Optional[float]
    monotone: bool
    k_scaling: List[Tuple[int, float]]


def supercritical_probe(
    n: int,
    lambda_grid: Sequence[float],
    eps: float,
    w: DoubleWell,
    interval: Tuple[float, float] = (0.0, 1.0),
    points_per_eps_width: int = 32,
    k_max: int = 64,
    amplitudes: Sequence[float] = (0.6, 0.9, 1.0, 1.2, 1.5),
    free_minimization: bool = True,
) -> SupercriticalReport:
    """Scan a lambda grid with the fixed oscillatory ansatz family

        u_{k,A}(x) = clip(A sin(2 pi k (x - a)/|I|), -1, 1),

    k = 1..k_max, reporting the best candidate energy per lambda, the
    lambda at which it first goes negative, and the energy-vs-k profile at
    the largest lambda.  On the fixed candidate set the minimum energy is
    non-increasing in lambda exactly, because each candidate's energy is.
    Optionally each per-lambda winner seeds a free minimization with a
    divergence floor.  An empty lambda_grid or amplitudes, n and eps that
    `EnergyParams` rejects (n < 2; eps not positive and finite), and
    points_per_eps_width or k_max below 1 are each a ValueError that names
    the setting.
    """
    if len(lambda_grid) == 0:
        raise ValueError("lambda_grid must not be empty")
    c_pot, c_low, c_high = EnergyParams(n, eps, 1.0).weights
    if points_per_eps_width < 1:
        raise ValueError(
            f"points_per_eps_width must be >= 1, got {points_per_eps_width}"
        )
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if len(amplitudes) == 0:
        raise ValueError("amplitudes must not be empty")
    a, b = interval
    L = b - a
    num_points = int(round(L / (eps / points_per_eps_width))) + 1
    grid = Grid(a, b, num_points)
    x = grid.nodes()
    t = (x - a) / L

    candidates = []
    for k in range(1, k_max + 1):
        base = np.sin(2.0 * np.pi * k * t)
        for A in amplitudes:
            candidates.append((k, A, np.clip(A * base, -1.0, 1.0)))

    # lambda-independent parts, from the weights at lam = 1:
    # E(lam) = base - lam * conc
    kernel = DiscreteEnergy(grid, n)
    parts = []
    for k, A, vals in candidates:
        pot, low, high = kernel.terms(vals, w)
        parts.append((c_pot * pot + c_high * high, -c_low * low))

    best_energies, best_ks, best_As = [], [], []
    free_energies, free_div, signs = [], [], []
    for lam in lambda_grid:
        energies = [base - lam * conc for base, conc in parts]
        i = int(np.argmin(energies))
        k, A, vals = candidates[i]
        best_energies.append(float(energies[i]))
        best_ks.append(k)
        best_As.append(float(A))
        if free_minimization:
            floor = -1e3 * max(1.0, abs(best_energies[0]))
            res = minimize_energy(
                n,
                eps,
                lam,
                Field(grid, vals),
                w,
                divergence_floor=floor,
                maxiter=600,
            )
            free_energies.append(float(res.breakdown.total))
            free_div.append(bool(res.diverged))
            s = np.sign(res.field.values)
            signs.append(int(np.count_nonzero(s[1:] * s[:-1] < 0)))
        else:
            free_energies.append(np.nan)
            free_div.append(False)
            signs.append(0)

    onset = next(
        (lam for lam, e in zip(lambda_grid, best_energies) if e < 0), None
    )
    monotone = all(
        e2 <= e1 * (1 + 1e-12) + 1e-12
        for e1, e2 in zip(best_energies, best_energies[1:])
    )
    lam_last = lambda_grid[-1]
    k_curve = {}
    for (k, A, _), (base, conc) in zip(candidates, parts):
        e = base - lam_last * conc
        if k not in k_curve or e < k_curve[k]:
            k_curve[k] = e
    k_scaling = sorted((k, float(e)) for k, e in k_curve.items())

    return SupercriticalReport(
        n=n,
        eps=eps,
        lambda_grid=[float(l) for l in lambda_grid],
        best_energies=best_energies,
        best_k=best_ks,
        best_amplitude=best_As,
        free_min_energies=free_energies,
        free_diverged=free_div,
        sign_changes=signs,
        onset_lambda=onset,
        monotone=monotone,
        k_scaling=k_scaling,
    )
