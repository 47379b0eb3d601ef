"""A negative seed is refused, with a message that names it, by every
entry point that draws from a seeded generator, before any draw."""

import numpy as np
import pytest

from hophase import (
    Grid,
    LambdaOptions,
    check_intlem,
    ensemble_check,
    estimate_lambda_n,
    make_ensemble,
    verify_subcritical,
)

ENTRY_POINTS = {
    "make_ensemble": lambda w, seed: make_ensemble(Grid(0.0, 1.0, 11), 2, seed),
    "verify_subcritical": lambda w, seed: verify_subcritical(2, 0.0, 4, w, seed=seed),
    "ensemble_check": lambda w, seed: ensemble_check(
        lambda f: check_intlem(f, 2.0, 2.0, 2.0), "intlem", 3, seed
    ),
    "estimate_lambda_n": lambda w, seed: estimate_lambda_n(
        2, w, LambdaOptions(num_points=101, seed=seed)
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("seed", (-1, np.int64(-7)))
def test_negative_seed_is_named(quartic, entry, seed):
    with pytest.raises(
        ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"
    ):
        ENTRY_POINTS[entry](quartic, seed)

