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
Identical seeds give bit-identical ensembles.  Drawing and evaluating are
separate steps: `_draw` takes one field's parameters from the generator,
consuming it as the formulas above are written, and `_fill` evaluates the
fields of one kind as a stack of rows, on nodes shared by every row or on
one row of nodes per field (the grids of `inequalities.ensemble_check`
differ in length).  `make_ensemble`, `critical.verify_subcritical` and
`ensemble_check` draw every parameter set in order and then fill each kind
at once, in row blocks of bounded size; `random_field` is the one-row
case.  A Fourier row sums its modes in order from k = 0, starting from
0.0, and on shared nodes every row of one `_fill` reads one table of
cos(k pi t), so every field carries the same bits as the per-term sum of
these formulas, whatever the stack it is drawn in.  The sign s is drawn as
(-1, +1)[integers(0, 2)], which consumes the generator exactly as
`choice([-1, 1])` does.  A negative integer seed is a ValueError that
names it.
"""

from typing import List, Sequence, Tuple

import numpy as np

from .grids import Field, Grid
from .hermite import _step_polynomial, eval_poly

__all__ = ["random_field", "make_ensemble", "DEFAULT_KINDS"]

DEFAULT_KINDS: Tuple[str, ...] = ("fourier", "tanh_ramp", "hermite_step")

#: number of samples a row block of `_fill` holds, which bounds its
#: temporaries to a few blocks whatever the number of rows
_BLOCK_SIZE = 1 << 14


def _generator(seed) -> np.random.Generator:
    """`np.random.default_rng(seed)`; a negative integer seed is a
    ValueError that names it, raised before any draw."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _draw(rng: np.random.Generator, kind: str) -> tuple:
    """The parameters of one field of the kind, drawn from rng in the order
    of the module docstring: (c, amp) for fourier, with c its K + 1 mode
    coefficients, and (center, width, amp) for the other kinds."""
    if kind == "fourier":
        K = int(rng.integers(3, 11))
        gamma = rng.uniform(1.0, 2.5)
        c = rng.normal(0.0, 1.0, K + 1) / (1.0 + np.arange(K + 1)) ** gamma
        return c, rng.uniform(0.3, 2.0)
    if kind == "tanh_ramp":
        center = rng.uniform(0.2, 0.8)
        width = rng.uniform(0.02, 0.3)
        return center, width, rng.uniform(0.5, 1.5) * (-1.0, 1.0)[rng.integers(0, 2)]
    if kind == "hermite_step":
        return rng.uniform(0.35, 0.65), rng.uniform(0.1, 0.3), rng.uniform(0.8, 1.2)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def _fill(kind: str, params: Sequence[tuple], t: np.ndarray, out: np.ndarray,
          rows: np.ndarray) -> None:
    """Write the values of the fields of one kind with the parameters of
    `_draw` to the rows `rows` of out, on the unit nodes t: one row of N
    shared by every field, or one row per row of out.  The fields are
    evaluated in blocks of about `_BLOCK_SIZE` samples.  A Fourier row is
    the sum of its c_k cos(k pi t) over k = 0..K in order, starting from
    0.0.  On shared nodes every row reads one table of the cosines; the
    Fourier rows are taken in order of decreasing K, so that the rows that
    have mode k are a leading slice of each block."""
    # every kind's amplitude is its last parameter
    amp = np.array([p[-1] for p in params])[:, None]
    if kind == "fourier":
        sizes = np.array([len(p[0]) for p in params])
        order = np.argsort(-sizes, kind="stable")
        sizes, rows, amp = sizes[order], rows[order], amp[order]
        coef = np.zeros((len(params), sizes[0]))
        for row, size, i in zip(coef, sizes, order):
            row[:size] = params[i][0]
        if t.ndim == 1:
            table = np.multiply.outer(np.arange(sizes[0]) * np.pi, t)
            np.cos(table, out=table)
    else:
        center, width = np.array([p[:2] for p in params]).T[:, :, None]
    for block in _row_blocks(range(len(params)), out.shape[1]):
        b = slice(block.start, block.stop)
        tb = t if t.ndim == 1 else np.ascontiguousarray(t[rows[b]])
        if kind == "fourier":
            vals = np.zeros((len(block), out.shape[1]))
            for k in range(sizes[b][0]):
                # the rows of K >= k
                r = slice(0, np.count_nonzero(sizes[b] > k))
                cos_k = table[k] if t.ndim == 1 else np.cos(k * np.pi * tb[r])
                vals[r] += coef[b][r, k, None] * cos_k
        elif kind == "tanh_ramp":
            vals = np.tanh((tb - center[b]) / width[b])
        else:
            # width is the half-width of the step's window
            s = (tb - center[b] + width[b]) / (2 * width[b])
            vals = eval_poly(_step_polynomial(4), np.minimum(np.maximum(s, 0.0), 1.0))
        out[rows[b]] = amp[b] * vals


def _row_blocks(items: Sequence, num_points: int) -> List[Sequence]:
    """items cut into consecutive blocks of about `_BLOCK_SIZE` samples of
    num_points each, at least one item per block."""
    step = max(1, _BLOCK_SIZE // num_points)
    return [items[lo:lo + step] for lo in range(0, len(items), step)]


def _stack(kinds: Sequence[str], params: Sequence[tuple], t: np.ndarray) -> np.ndarray:
    """The (len(kinds), N) values of the drawn fields in order, on the unit
    nodes t (one row of N shared by every field, or one row per field):
    each kind's rows by one `_fill`."""
    vals = np.empty((len(kinds), t.shape[-1]))
    for kind in dict.fromkeys(kinds):
        rows = np.array([i for i, k in enumerate(kinds) if k == kind])
        _fill(kind, [params[i] for i in rows], t, vals, rows)
    return vals


def random_field(grid: Grid, rng: np.random.Generator, kind: str) -> Field:
    """Draw one random field of the given kind on the grid."""
    return Field(grid, _stack([kind], [_draw(rng, kind)], grid.unit_nodes)[0])


def make_ensemble(grid: Grid, count: int, seed: int) -> List[Field]:
    """Reproducible list of `count` random fields, cycling over
    `DEFAULT_KINDS`: every parameter set drawn in order, then each kind's
    rows filled at once."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = _generator(seed)
    kinds = [DEFAULT_KINDS[i % len(DEFAULT_KINDS)] for i in range(count)]
    params = [_draw(rng, kind) for kind in kinds]
    return [Field(grid, v) for v in _stack(kinds, params, grid.unit_nodes)]
