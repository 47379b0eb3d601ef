"""Tests for the interpolation-inequality checkers and ensemble reductions."""

import numpy as np
import pytest

from hophase import (
    EnergyParams,
    Field,
    GNParams,
    Grid,
    check_abstr,
    check_gagnir_interval,
    check_intlem,
    check_lower_bound_lemma,
    check_nirineq,
    ensemble_check,
    intlem_constant,
    lp_norm,
)
from hophase.ensembles import DEFAULT_KINDS, random_field

_GN = GNParams(2.0, 2.0, 2.0, 1, 2, 0.5)

#: one checker of each kind that `ensemble_check` reduces
CHECKERS = {
    "intlem": lambda f: check_intlem(f, 2.0, 2.0, 2.0),
    "intlem_inf": lambda f: check_intlem(f, 1.0, 3.0, np.inf),
    "nirineq": lambda f: check_nirineq(f, 3, f.grid.length, 0.25),
    "gagnir": lambda f: check_gagnir_interval(f, _GN),
    "gagnir_probe": lambda f: check_gagnir_interval(f, _GN, 1.0),
    "abstr": lambda f: check_abstr(f, 0, 3, 2.0, 2.0, 0.25),
}


def report_bits(rep):
    """Every entry of a CheckReport, floats as their exact hex strings."""
    hexed = lambda x: float(x).hex()
    return (
        hexed(rep.lhs), hexed(rep.rhs), hexed(rep.ratio), rep.passed, rep.witness,
        {k: hexed(v) for k, v in rep.extra.items()},
    )


@pytest.fixture()
def linear_unit(quartic):
    return Field.from_callable(Grid(0.0, 1.0, 401), lambda x: x)


class TestNorms:
    def test_infinity_norm_is_max(self):
        f = Field.from_callable(Grid(0.0, 1.0, 101), lambda x: x - 0.75)
        assert lp_norm(f, np.inf) == 0.75

    def test_l1_of_sine(self):
        f = Field.from_callable(Grid(0.0, np.pi, 201), np.sin)
        assert lp_norm(f, 1) == pytest.approx(2.0, rel=1e-4)

    def test_l2_of_linear(self):
        f = Field.from_callable(Grid(0.0, 1.0, 401), lambda x: x)
        assert lp_norm(f, 2) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-5)

    def test_p_below_one_rejected(self):
        f = Field.from_callable(Grid(0.0, 1.0, 101), lambda x: x)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", (np.nan, -np.inf))
    def test_p_without_order_rejected(self, p):
        # NaN compares false with everything, so "p < 1" let it through
        f = Field.from_callable(Grid(0.0, 1.0, 101), lambda x: x)
        with pytest.raises(ValueError, match=f"exponent p must be >= 1, got {p}$"):
            lp_norm(f, p)


class TestGNParams:
    def test_balance_enforced(self):
        with pytest.raises(ValueError, match="balance"):
            GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.9)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError, match="theta"):
            GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.25)

    def test_valid_balanced_family(self):
        # j=1, m=2, p=q=r=2 balances exactly at theta = 1/2
        gp = GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.5)
        assert gp.theta == 0.5

    def test_exponent_positivity(self):
        with pytest.raises(ValueError):
            GNParams(p=0.5, q=2.0, r=2.0, j=1, m=2, theta=0.5)


class TestIntLem:
    def test_explicit_constant_values(self):
        assert intlem_constant(1.0) == 16.0
        assert intlem_constant(2.0) == pytest.approx(8.0 * np.sqrt(3.0))

    def test_linear_field_oracle(self, linear_unit):
        # u = x on (0,1), p=q=r=2: lhs = ||1||_2 = 1, u'' = 0, so
        # rhs = 16/sqrt(3) * ... with C = 8*3^(1/2): ratio = sqrt(3)/(8*sqrt(3)*...)
        rep = check_intlem(linear_unit, 2.0, 2.0, 2.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, rel=1e-6)
        assert rep.rhs == pytest.approx(8.0 * np.sqrt(3.0) / np.sqrt(3.0), rel=1e-4)
        assert rep.ratio == pytest.approx(1.0 / 8.0, rel=1e-4)

    def test_reports_the_smallest_passing_constant(self, linear_unit):
        # lhs over the bracket, C times the ratio: sqrt(3) for u = x on
        # (0, 1); 0 for the zero field, whose bracket is 0; and the
        # ensemble's empirical constant is that of its worst field
        rep = check_intlem(linear_unit, 2.0, 2.0, 2.0)
        constant = rep.extra["empirical_constant"]
        assert constant == pytest.approx(np.sqrt(3.0), rel=1e-4)
        assert constant == pytest.approx(intlem_constant(2.0) * rep.ratio, rel=1e-15)
        zero = check_intlem(Field(Grid(0.0, 1.0, 101), np.zeros(101)), 2.0, 2.0, 2.0)
        assert zero.passed and zero.extra["empirical_constant"] == 0.0
        ens = ensemble_check(CHECKERS["intlem"], "intlem", 30, seed=4, keep_reports=True)
        assert np.isfinite(ens.empirical_constant)
        worst = ens.reports[ens.worst_index]
        assert ens.empirical_constant == worst.extra["empirical_constant"]

    def test_ensembles_hold_with_margin(self, quartic):
        for (p, q, r) in ((2.0, 2.0, 2.0), (2.0, 1.0, 2.0), (3.0, 2.0, 2.0)):
            rep = ensemble_check(
                lambda f: check_intlem(f, p, q, r),
                which=f"intlem({p:g},{q:g},{r:g})",
                count=120,
                seed=5,
            )
            assert rep.passed
            assert rep.worst_ratio < 0.25
            assert rep.witness is not None


class TestNirIneq:
    def test_linear_field_oracle(self, linear_unit):
        # u = x, n = 2, sigma = 1 on (0,1): int (u')^2 = 1 and the right
        # side reduces to int x^2 = 1/3
        rep = check_nirineq(linear_unit, 2, 1.0, c_probe=0.2)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-4)
        assert rep.extra["empirical_constant"] == pytest.approx(1 / 3, rel=1e-4)
        assert not check_nirineq(linear_unit, 2, 1.0, c_probe=0.5).passed

    def test_ratio_linear_in_probe(self, linear_unit):
        r1 = check_nirineq(linear_unit, 2, 0.7, c_probe=0.1).ratio
        r2 = check_nirineq(linear_unit, 2, 0.7, c_probe=0.2).ratio
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)

    def test_sigma_outside_interval_rejected(self, linear_unit):
        with pytest.raises(ValueError, match="sigma"):
            check_nirineq(linear_unit, 2, 1.5, c_probe=0.1)
        with pytest.raises(ValueError, match="sigma"):
            check_nirineq(linear_unit, 2, 0.0, c_probe=0.1)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_order_outside_stencil_range_rejected(self, linear_unit, n):
        with pytest.raises(ValueError, match=f"2 <= n <= 6, got n = {n}$"):
            check_nirineq(linear_unit, n, 1.0, c_probe=0.1)

    def test_full_interval_sigma_over_ensemble(self):
        rep = ensemble_check(
            lambda f: check_nirineq(f, 2, f.grid.length, c_probe=0.25),
            which="nirineq",
            count=100,
            seed=6,
        )
        assert rep.passed
        assert rep.empirical_constant > 0.25


class TestGagNir:
    def test_linear_field_required_constant(self, linear_unit):
        # u = x: ||u'||_2 = 1, ||u''||_2 = 0, bracket = ||x||_2 = 1/sqrt(3)
        gp = GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.5)
        rep = check_gagnir_interval(linear_unit, gp)
        assert rep.passed
        assert rep.extra["required_C"] == pytest.approx(np.sqrt(3.0), rel=1e-4)

    def test_probe_pass_and_fail(self, linear_unit):
        gp = GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.5)
        assert check_gagnir_interval(linear_unit, gp, C_probe=2.0).passed
        assert not check_gagnir_interval(linear_unit, gp, C_probe=1.5).passed

    def test_required_constant_finite_over_ensemble(self):
        gp = GNParams(p=2.0, q=2.0, r=2.0, j=1, m=2, theta=0.5)
        rep = ensemble_check(
            lambda f: check_gagnir_interval(f, gp),
            which="gagnir",
            count=90,
            seed=7,
        )
        assert rep.passed
        assert np.isfinite(rep.empirical_constant)


class TestAbstr:
    def test_linear_field_minimal_constant(self, linear_unit):
        # u = x, j=1, m=2, q=r=2: lhs = 1, ||u''||_2 = 0, ||u||_2 = 1/sqrt(3)
        rep = check_abstr(linear_unit, 1, 2, 2.0, 2.0, C_probe=2.0)
        assert rep.passed
        assert rep.extra["minimal_C"] == pytest.approx(np.sqrt(3.0), rel=1e-4)
        assert not check_abstr(linear_unit, 1, 2, 2.0, 2.0, C_probe=1.5).passed

    def test_orders_validated(self, linear_unit):
        with pytest.raises(ValueError):
            check_abstr(linear_unit, 2, 2, 2.0, 2.0, C_probe=1.0)


class TestLowerBound:
    def test_holds_on_layer_field(self, quartic, lambda_hat_2):
        g = Grid(-2.0, 2.0, 513)
        u = Field.from_callable(g, lambda x: np.tanh(x / 0.25))
        lam = 0.3 * lambda_hat_2.value
        p = EnergyParams(2, 0.25, lam)
        rep = check_lower_bound_lemma(u, p, lambda_hat_2.value, 0.1, quartic)
        assert rep.passed

    def test_parameter_validation(self, quartic, linear_unit):
        p = EnergyParams(2, 0.25, 0.01)
        with pytest.raises(ValueError, match="delta"):
            check_lower_bound_lemma(linear_unit, p, 0.057, 1.5, quartic)
        with pytest.raises(ValueError, match="0.5"):
            check_lower_bound_lemma(
                linear_unit, EnergyParams(2, 0.25, 0.05), 0.057, 0.1, quartic
            )
        # lam_hat = 0 once ended in a ZeroDivisionError
        for lam_hat in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam_hat must be positive and finite"):
                check_lower_bound_lemma(
                    linear_unit, EnergyParams(2, 0.25, 0.0), lam_hat, 0.1, quartic
                )

    def test_ensemble_holds(self, quartic, lambda_hat_2):
        lam_hat = lambda_hat_2.value
        p = EnergyParams(2, 0.25, 0.3 * lam_hat)
        rep = ensemble_check(
            lambda f: check_lower_bound_lemma(f, p, lam_hat, 0.1, quartic),
            which="lowerbound",
            count=100,
            seed=8,
        )
        assert rep.passed


class TestEnsembleCheck:
    def test_deterministic_under_seed(self):
        run = lambda: ensemble_check(
            lambda f: check_intlem(f, 2.0, 2.0, 2.0), "intlem", 30, seed=11
        )
        a, b = run(), run()
        assert a.worst_ratio == b.worst_ratio
        assert a.worst_index == b.worst_index
        np.testing.assert_array_equal(a.witness.values, b.witness.values)

    def test_keep_reports(self):
        rep = ensemble_check(
            lambda f: check_intlem(f, 2.0, 2.0, 2.0),
            "intlem",
            12,
            seed=2,
            keep_reports=True,
        )
        assert len(rep.reports) == 12
        assert rep.worst_ratio == max(r.ratio for r in rep.reports)

    def test_summary_mentions_counts(self):
        rep = ensemble_check(
            lambda f: check_intlem(f, 2.0, 2.0, 2.0), "intlem", 10, seed=3
        )
        assert "10/10" in rep.summary()
        assert rep.passed

    @pytest.mark.parametrize("which", CHECKERS)
    @pytest.mark.parametrize("seed", (0, 9, 32001))
    def test_equals_the_per_field_oracle_bit_for_bit(self, which, seed):
        # the fields drawn as one stack are those of one random_field per
        # field on Grid(0, L, 401), bit for bit, so every report, the worst
        # index and the witness are the oracle's
        checker, count = CHECKERS[which], 61
        rng = np.random.default_rng(seed)
        fields = []
        for i in range(count):
            grid = Grid(0.0, float(rng.uniform(0.3, 4.0)), 401)
            fields.append(random_field(grid, rng, DEFAULT_KINDS[i % 3]))
        reports = [checker(f) for f in fields]
        worst, worst_ratio = -1, -np.inf
        for i, r in enumerate(reports):
            if np.isfinite(r.ratio) and r.ratio > worst_ratio:
                worst, worst_ratio = i, r.ratio
        rep = ensemble_check(checker, which, count, seed, keep_reports=True)
        assert [report_bits(r) for r in rep.reports] == [report_bits(r) for r in reports]
        assert rep.worst_index == worst and rep.worst_ratio.hex() == worst_ratio.hex()
        assert rep.witness.grid == fields[worst].grid
        assert rep.witness.values.tobytes() == fields[worst].values.tobytes()

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_ensemble_rejected(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            ensemble_check(lambda f: check_intlem(f, 2.0, 2.0, 2.0), "intlem", count, 0)
