"""
Seeded random test-field ensembles spanning oscillatory and layer-like
behavior, where the interpolation inequalities are tightest.

Distribution (all draws from one `numpy.random.Generator`):
  fourier:       sum_{k=0..K} c_k cos(k pi t) with K ~ U{3..10},
                 c_k ~ N(0,1)/(1+k)^gamma, gamma ~ U[1, 2.5], then scaled
                 by an overall amplitude ~ U[0.3, 2].
  tanh_ramp:     s * A * tanh((t - c)/width), c ~ U[0.2, 0.8],
                 width ~ U[0.02, 0.3], A ~ U[0.5, 1.5], s ~ U{-1, +1}.
  hermite_step:  a smoothed +-1 step: constant wells outside a window
                 [c - d, c + d], and inside it the two-point coupling
                 polynomial joining the wells with n = 4 flatness (C^3
                 junctions); c ~ U[0.35, 0.65], d ~ U[0.1, 0.3], scaled
                 by A ~ U[0.8, 1.2].

Here t = (x - a)/(b - a) is the normalized coordinate of the field's grid.
Identical seeds give identical ensembles.
"""

from functools import cache
from typing import List, Sequence, Tuple

import numpy as np

from .grids import Field, Grid
from .hermite import eval_poly, solve_zeta

__all__ = ["random_field", "make_ensemble", "DEFAULT_KINDS"]

DEFAULT_KINDS: Tuple[str, ...] = ("fourier", "tanh_ramp", "hermite_step")


@cache
def _step_poly():
    return solve_zeta((-1.0, 0.0, 0.0, 0.0))


def random_field(grid: Grid, rng: np.random.Generator, kind: str) -> Field:
    """Draw one random field of the given kind on the grid."""
    t = (grid.nodes() - grid.a) / grid.length
    if kind == "fourier":
        K = int(rng.integers(3, 11))
        gamma = rng.uniform(1.0, 2.5)
        c = rng.normal(0.0, 1.0, K + 1) / (1.0 + np.arange(K + 1)) ** gamma
        amp = rng.uniform(0.3, 2.0)
        vals = amp * sum(ck * np.cos(k * np.pi * t) for k, ck in enumerate(c))
    elif kind == "tanh_ramp":
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.02, 0.3)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        vals = amp * np.tanh((t - center) / width)
    elif kind == "hermite_step":
        center = rng.uniform(0.35, 0.65)
        halfwidth = rng.uniform(0.1, 0.3)
        amp = rng.uniform(0.8, 1.2)
        s = np.clip((t - center + halfwidth) / (2 * halfwidth), 0.0, 1.0)
        vals = amp * np.asarray(eval_poly(_step_poly(), s, 0), dtype=float)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    return Field(grid, np.asarray(vals, dtype=float))


def make_ensemble(
    grid: Grid,
    count: int,
    seed: int,
    kinds: Sequence[str] = DEFAULT_KINDS,
) -> List[Field]:
    """Reproducible list of `count` random fields, cycling over the kinds."""
    rng = np.random.default_rng(seed)
    return [random_field(grid, rng, kinds[i % len(kinds)]) for i in range(count)]
