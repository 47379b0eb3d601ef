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

Here t = (x - a)/(b - a) is the normalized coordinate of the field's grid
(`Grid.unit_nodes`, computed once per grid).
Identical seeds give bit-identical ensembles.  The Fourier modes are summed
in order from k = 0, so the fields carry the same bits as the per-term sum
of these formulas, and the sign s is drawn as (-1, +1)[integers(0, 2)],
which consumes the generator exactly as `choice([-1, 1])` does.
"""

from typing import List, Tuple

import numpy as np

from .grids import Field, Grid
from .hermite import _step_polynomial, eval_poly

__all__ = ["random_field", "make_ensemble", "DEFAULT_KINDS"]

DEFAULT_KINDS: Tuple[str, ...] = ("fourier", "tanh_ramp", "hermite_step")


def random_field(grid: Grid, rng: np.random.Generator, kind: str) -> Field:
    """Draw one random field of the given kind on the grid."""
    t = grid.unit_nodes
    if kind == "fourier":
        K = int(rng.integers(3, 11))
        gamma = rng.uniform(1.0, 2.5)
        c = rng.normal(0.0, 1.0, K + 1) / (1.0 + np.arange(K + 1)) ** gamma
        amp = rng.uniform(0.3, 2.0)
        # row k is c_k cos(k pi t); the rows are added in order from 0
        modes = np.multiply.outer(np.arange(K + 1) * np.pi, t)
        np.cos(modes, out=modes)
        modes *= c[:, None]
        vals = amp * np.add.reduce(modes, axis=0, initial=0.0)
    elif kind == "tanh_ramp":
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.02, 0.3)
        amp = rng.uniform(0.5, 1.5) * (-1.0, 1.0)[rng.integers(0, 2)]
        vals = amp * np.tanh((t - center) / width)
    elif kind == "hermite_step":
        center = rng.uniform(0.35, 0.65)
        halfwidth = rng.uniform(0.1, 0.3)
        amp = rng.uniform(0.8, 1.2)
        s = (t - center + halfwidth) / (2 * halfwidth)
        s = np.minimum(np.maximum(s, 0.0), 1.0)
        vals = amp * eval_poly(_step_polynomial(4), s)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    return Field(grid, vals)


def make_ensemble(grid: Grid, count: int, seed: int) -> List[Field]:
    """Reproducible list of `count` random fields, cycling over
    `DEFAULT_KINDS`."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return [random_field(grid, rng, DEFAULT_KINDS[i % 3]) for i in range(count)]
