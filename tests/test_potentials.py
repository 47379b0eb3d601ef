"""Tests for double-well potentials and their assumption validation."""

import dataclasses

import numpy as np
import pytest

from hophase import DoubleWell, get_potential, make_quartic, validate_assumptions


class TestQuartic:
    def test_wells_are_exact_roots(self, quartic):
        assert quartic.eval(np.array(1.0)) == 0.0
        assert quartic.eval(np.array(-1.0)) == 0.0
        assert quartic.eval(np.array(0.0)) == 1.0

    def test_derivative_closed_form(self, quartic):
        t = np.linspace(-2.5, 2.5, 31)
        np.testing.assert_allclose(quartic.eval_derivative(t), 4 * t**3 - 4 * t)
        np.testing.assert_allclose(
            quartic.eval_second_derivative(t), 12 * t**2 - 4
        )
        # a supplied W'' is what second_derivative returns
        assert np.array_equal(quartic.second_derivative(t), 12 * t**2 - 4)

    def test_derived_second_derivative_matches_closed_form(self, derived_quartic):
        # central difference of W' with step eps^(1/3) max(1, |t|), relative
        # to max(|W''|, 1) as in validate_assumptions
        t = np.linspace(-3.0, 3.0, 20_001)
        exact = 12 * t**2 - 4
        derived = derived_quartic.second_derivative(t)
        assert np.max(np.abs(derived - exact) / np.maximum(np.abs(exact), 1.0)) < 1e-8

    def test_replaced_derivative_is_differentiated(self, derived_quartic):
        # the derived W'' follows the W' the potential carries now, so a
        # dataclasses.replace of W' is not shadowed by the old one
        w = dataclasses.replace(derived_quartic, eval_derivative=np.sin)
        t = np.linspace(-3.0, 3.0, 101)
        np.testing.assert_allclose(w.second_derivative(t), np.cos(t), atol=1e-9)

    def test_even_symmetry(self, quartic):
        rng = np.random.default_rng(0)
        t = rng.uniform(-3, 3, 50)
        np.testing.assert_allclose(quartic.eval(t), quartic.eval(-t))

    def test_coercivity_constant_is_sharp(self, quartic):
        # W(t)/(t-1)^2 = (t+1)^2 has infimum 1 on t > 0, approached at 0+,
        # and W is even, so L = 1 is the best constant on both half-lines
        t = np.linspace(1e-4, 3.0, 30_001)
        t = t[np.abs(t - 1.0) > 1e-9]
        best = np.min(quartic.eval(t) / (t - 1.0) ** 2)
        assert best >= quartic.coercivity_L
        assert best < quartic.coercivity_L * 1.001

    def test_wells_are_not_a_setting(self, quartic):
        # every check, clamp and recovery uses the wells at -1 and +1
        with pytest.raises(TypeError):
            DoubleWell(quartic.eval, quartic.eval_derivative, 1.0, wells=(-2.0, 2.0))

    def test_lookup_by_name(self):
        assert get_potential("quartic").name == "quartic"
        with pytest.raises(ValueError, match="unknown potential 'sextic'"):
            get_potential("sextic")


class TestValidation:
    def test_quartic_passes_all(self, quartic):
        report = validate_assumptions(quartic)
        assert report.all_passed
        for name in ("nonnegativity", "wells", "coercivity", "derivative"):
            assert report[name].passed

    def test_unknown_result_name_raises(self, quartic):
        report = validate_assumptions(quartic)
        with pytest.raises(KeyError):
            report["smoothness"]

    def test_overstated_coercivity_fails(self):
        # same quartic but claiming L = 5: at t = 0, W = 1 < 5 * (0-1)^2
        w = DoubleWell(
            eval=make_quartic().eval,
            eval_derivative=make_quartic().eval_derivative,
            coercivity_L=5.0,
        )
        report = validate_assumptions(w)
        assert not report["coercivity"].passed
        assert report["coercivity"].worst_margin < 0
        assert abs(report["coercivity"].worst_point) < 0.75
        # the other assumptions are untouched
        assert report["nonnegativity"].passed
        assert report["wells"].passed

    def test_degenerate_wells_fail_coercivity(self):
        # |t^2-1|^3 vanishes to third order at the wells, so no quadratic
        # lower bound holds near them for any L > 0
        w = DoubleWell(
            eval=lambda t: np.abs(t**2 - 1.0) ** 3,
            eval_derivative=lambda t: 6.0 * t * (t**2 - 1.0) * np.abs(t**2 - 1.0),
            coercivity_L=1.0,
        )
        report = validate_assumptions(w)
        assert not report["coercivity"].passed
        assert abs(abs(report["coercivity"].worst_point) - 1.0) < 0.3
        assert report["nonnegativity"].passed

    def test_sign_changing_function_fails_nonnegativity(self):
        w = DoubleWell(
            eval=lambda t: t**2 - 1.0,
            eval_derivative=lambda t: 2.0 * t,
            coercivity_L=1.0,
        )
        report = validate_assumptions(w)
        assert not report["nonnegativity"].passed
        assert not report["wells"].passed
        assert report["derivative"].passed

    def test_wrong_derivative_is_caught(self):
        w = DoubleWell(
            eval=make_quartic().eval,
            eval_derivative=lambda t: 4.0 * t**3,  # missing the -4t term
            coercivity_L=1.0,
        )
        report = validate_assumptions(w)
        assert not report["derivative"].passed

    def test_second_derivative_is_checked_against_the_derivative(
        self, quartic, derived_quartic
    ):
        assert validate_assumptions(quartic)["second_derivative"].passed
        assert validate_assumptions(derived_quartic)["second_derivative"].passed
        wrong = dataclasses.replace(
            quartic, eval_second_derivative=lambda t: 12.0 * t**2  # missing -4
        )
        report = validate_assumptions(wrong)
        assert not report["second_derivative"].passed
        assert report["second_derivative"].worst_margin > 1.0
        assert report["derivative"].passed
        assert not report.all_passed
