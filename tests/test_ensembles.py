"""Tests for the seeded random-field ensembles: bit-identity with the
per-term formulas, generator-stream use, and rejected empty ensembles."""

from functools import cache

import numpy as np
import pytest

from hophase import Field, Grid, make_ensemble, random_field
from hophase.ensembles import DEFAULT_KINDS
from hophase.hermite import eval_poly, solve_zeta


@cache
def _oracle_step_poly():
    return solve_zeta((-1.0, 0.0, 0.0, 0.0))


def oracle_field(grid: Grid, rng: np.random.Generator, kind: str) -> Field:
    """The per-term formulas of each kind: one cos, multiply and add pass
    per Fourier mode, the sign drawn by `choice`, the step polynomial
    through `eval_poly`."""
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
    else:
        center = rng.uniform(0.35, 0.65)
        halfwidth = rng.uniform(0.1, 0.3)
        amp = rng.uniform(0.8, 1.2)
        s = np.clip((t - center + halfwidth) / (2 * halfwidth), 0.0, 1.0)
        vals = amp * np.asarray(eval_poly(_oracle_step_poly(), s, 0), dtype=float)
    return Field(grid, np.asarray(vals, dtype=float))


def _grids():
    lengths = np.random.default_rng(2024).uniform(0.3, 4.0, 3)
    return [
        Grid(0.0, 1.0, 401),
        Grid(0.0, 1.0, 4097),
        Grid(-0.7, 2.3, 401),
        *(Grid(0.0, float(L), 401) for L in lengths),
    ]


class TestRandomField:
    @pytest.mark.parametrize("kind", DEFAULT_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 601])
    def test_bit_identical_to_the_per_term_formulas(self, kind, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for grid in _grids():
            for _ in range(4):
                got = random_field(grid, rng, kind).values
                want = oracle_field(grid, oracle_rng, kind).values
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_sign_draw_consumes_the_stream_as_choice_does(self):
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        signs = [(-1.0, 1.0)[rng.integers(0, 2)] for _ in range(10_000)]
        oracle = [oracle_rng.choice([-1.0, 1.0]) for _ in range(10_000)]
        assert signs == oracle
        assert set(signs) == {-1.0, 1.0}
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ensemble kind"):
            random_field(Grid(0.0, 1.0, 11), np.random.default_rng(0), "nope")


class TestMakeEnsemble:
    def test_cycles_the_kinds_on_one_stream(self):
        g = Grid(-0.7, 2.3, 401)
        oracle_rng = np.random.default_rng(9)
        fields = make_ensemble(g, 7, seed=9)
        for i, f in enumerate(fields):
            want = oracle_field(g, oracle_rng, DEFAULT_KINDS[i % 3]).values
            assert f.values.tobytes() == want.tobytes()

    def test_zero_count_is_an_empty_list(self):
        assert make_ensemble(Grid(0.0, 1.0, 11), 0, seed=0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            make_ensemble(Grid(0.0, 1.0, 11), -1, seed=0)
