"""Tests for energy minimization, sweep bookkeeping and the oscillation probe."""

import numpy as np
import pytest

from hophase import (
    DiscreteEnergy,
    EnergyParams,
    Field,
    Grid,
    JumpFunction,
    ProfileProblem,
    SweepConfig,
    build_recovery,
    count_jump_clusters,
    evaluate,
    gamma_sweep,
    minimize_energy,
    minimize_profile,
    quadrature_weights,
    supercritical_probe,
)
from hophase import experiments


@pytest.fixture(scope="module")
def short_profile(quartic):
    res = minimize_profile(ProfileProblem(2, 0.0, 4.0, 801, quartic))
    assert res.converged
    return res


@pytest.fixture(scope="module")
def two_jump_profile(quartic):
    """The T = 5 profile of the two-jump sweep, unpasted."""
    res = minimize_profile(ProfileProblem(2, 0.0, 5.0, 2001, quartic))
    assert res.converged
    return res


def two_jump_recovery(profile, eps):
    jf = JumpFunction(-4.0, 4.0, (-4.0 / 3.0, 4.0 / 3.0), -1.0)
    return build_recovery(jf, profile.spline, eps)


@pytest.fixture(scope="module")
def sweep_cfg():
    return SweepConfig(
        n=2,
        lam=0.0,
        interval=(-4.0, 4.0),
        jumps=(0.0,),
        eps_schedule=(0.25, 0.125),
        points_per_eps_width=16,
        profile_T=4.0,
    )


@pytest.fixture(scope="module")
def sweep_record(sweep_cfg):
    return gamma_sweep(sweep_cfg)


class TestMinimizeEnergy:
    def test_descent_from_recovery(self, quartic, short_profile):
        jf = JumpFunction(-4.0, 4.0, (0.0,), -1.0)
        rec = build_recovery(jf, short_profile.spline, 0.25, points_per_eps=16)
        e_rec = evaluate(rec, EnergyParams(2, 0.25, 0.0), quartic).total
        res = minimize_energy(2, 0.25, 0.0, rec, quartic)
        assert res.converged
        assert not res.diverged
        assert res.breakdown.total <= e_rec
        assert res.breakdown.total > 0.0

    def test_breakdown_is_the_evaluation_of_the_minimizer(self, quartic):
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(4.0 * x))
        res = minimize_energy(3, 0.2, 0.01, init, quartic, maxiter=5)
        assert res.breakdown == evaluate(res.field, EnergyParams(3, 0.2, 0.01), quartic)

    def test_mass_constraint_held(self, quartic):
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(4.0 * x))
        res = minimize_energy(2, 0.25, 0.0, init, quartic, mass=0.8)
        assert res.converged
        q = quadrature_weights(g)
        assert q @ res.field.values == pytest.approx(0.8, abs=1e-9)
        assert res.iterations <= 20

    def test_verdict_uses_the_reported_floor(self, quartic):
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(4.0 * x))
        for gtol in (1e-7, 1e-12):
            res = minimize_energy(2, 0.25, 0.0, init, quartic, gtol=gtol)
            assert res.gradient_floor > 0.0
            assert res.converged == (
                res.gradient_norm < max(gtol, res.gradient_floor)
                and not res.diverged
            )
        # at gtol = 1e-12 only the roundoff floor certifies the minimizer
        assert res.converged and res.gradient_norm >= 1e-12

    def test_failed_line_search_is_never_converged(self, quartic, monkeypatch):
        # a line search that finds no decrease ends the run short of a
        # minimizer, even under a gradient floor that passes every gradient
        monkeypatch.setattr(
            DiscreteEnergy, "energy_change", lambda *args: lambda t: 1.0
        )
        monkeypatch.setattr(DiscreteEnergy, "gradient_floor", lambda *args: np.inf)
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(4.0 * x))
        res = minimize_energy(2, 0.25, 0.0, init, quartic)
        assert res.iterations == 0
        assert res.message == "line search failed"
        assert not res.converged

    def test_iteration_limit_is_never_converged(self, quartic, monkeypatch):
        # a run stopped by the step cap ends short of a minimizer, even
        # under a gradient floor that passes every gradient
        monkeypatch.setattr(DiscreteEnergy, "gradient_floor", lambda *args: np.inf)
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(4.0 * x))
        res = minimize_energy(2, 0.25, 0.0, init, quartic, maxiter=1)
        assert res.iterations == 1
        assert res.message == "iteration limit"
        assert not res.converged

    def test_a_last_allowed_step_that_converges_is_converged(self, quartic):
        # a cap at the step count of the converged run is no stop short of
        # a minimizer: the same iterate, converged
        g = Grid(-2.0, 2.0, 257)
        init = Field.from_callable(g, lambda x: np.tanh(2.0 * x))
        free = minimize_energy(2, 0.25, 0.0, init, quartic)
        capped = minimize_energy(2, 0.25, 0.0, init, quartic, maxiter=free.iterations)
        assert free.converged and capped.iterations == free.iterations
        assert capped.field.values.tobytes() == free.field.values.tobytes()
        assert capped.message == "" and capped.converged

    def test_newton_first_from_recovery(self, quartic, two_jump_profile):
        # Newton from the recovery needs a few steps, not a quasi-Newton phase
        rec = two_jump_recovery(two_jump_profile, 1.0 / 16.0)
        res = minimize_energy(2, 1.0 / 16.0, 0.0, rec, quartic)
        assert res.converged
        assert res.iterations <= 5

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 16.0])
    def test_derived_second_derivative_matches_the_quartic(
        self, quartic, derived_quartic, two_jump_profile, no_lbfgs, eps
    ):
        # without W'' damped Newton runs on the W'' derived from W'
        rec = two_jump_recovery(two_jump_profile, eps)
        ref = minimize_energy(2, eps, 0.0, rec, quartic)
        res = minimize_energy(2, eps, 0.0, rec, derived_quartic)
        assert res.converged and not res.diverged
        assert res.factorizations > 0
        assert res.breakdown.total == pytest.approx(ref.breakdown.total, rel=1e-10)

    def test_supercritical_divergence_detected(self, quartic):
        g = Grid(0.0, 1.0, 257)
        init = Field.from_callable(
            g, lambda x: np.clip(0.9 * np.sin(8.0 * np.pi * x), -1, 1)
        )
        res = minimize_energy(
            2, 1.0 / 16.0, 10.0, init, quartic, divergence_floor=-50.0
        )
        assert res.diverged
        assert not res.converged
        assert "supercritical" in res.message
        assert res.breakdown.total < -50.0

    def test_subcritical_stays_bounded(self, quartic):
        g = Grid(0.0, 1.0, 257)
        init = Field.from_callable(
            g, lambda x: np.clip(0.9 * np.sin(8.0 * np.pi * x), -1, 1)
        )
        res = minimize_energy(
            2, 1.0 / 16.0, 0.02, init, quartic, divergence_floor=-50.0
        )
        assert not res.diverged
        assert res.breakdown.total >= 0.0


class TestCountJumpClusters:
    def test_single_layer(self):
        g = Grid(-4.0, 4.0, 801)
        f = Field.from_callable(g, lambda x: np.tanh(x / 0.1))
        assert count_jump_clusters(f, 0.1, 5.0) == 1

    def test_two_separated_layers(self):
        g = Grid(-4.0, 4.0, 801)
        f = Field.from_callable(g, lambda x: np.tanh(x / 0.05) * np.tanh((2 - x) / 0.05))
        assert count_jump_clusters(f, 0.05, 5.0) == 2

    def test_wiggles_within_layer_merged(self):
        # three crossings packed inside one 2*eps*T window count once
        g = Grid(-1.0, 1.0, 2001)
        vals = np.where(np.abs(g.nodes()) < 0.05, np.sin(60 * np.pi * g.nodes()), np.sign(g.nodes()))
        f = Field(g, np.where(vals == 0.0, 1e-12, vals))
        assert count_jump_clusters(f, 0.1, 1.0) == 1

    def test_two_jump_minimizer_keeps_both_jumps(self, quartic, two_jump_profile):
        # at eps = 1/4 the layers sit about 2.95 apart, less than 4*eps*T = 5
        # but more than the window width 2*eps*T = 2.5
        eps = 0.25
        rec = two_jump_recovery(two_jump_profile, eps)
        res = minimize_energy(2, eps, 0.0, rec, quartic)
        assert res.converged
        assert count_jump_clusters(res.field, eps, 5.0) == 2

    def test_constant_has_no_jumps(self):
        f = Field(Grid(0.0, 1.0, 101), np.full(101, -1.0))
        assert count_jump_clusters(f, 0.1, 5.0) == 0

    def test_exact_zeros_ignored(self):
        g = Grid(0.0, 1.0, 5)
        f = Field(g, np.array([-1.0, -1.0, 0.0, 1.0, 1.0]))
        assert count_jump_clusters(f, 0.01, 1.0) == 1


class TestSweepConfig:
    def test_hash_is_stable_and_sensitive(self, sweep_cfg):
        h = sweep_cfg.config_hash()
        assert len(h) == 16
        assert h == sweep_cfg.config_hash()
        other = SweepConfig(
            n=sweep_cfg.n,
            lam=0.001,
            interval=sweep_cfg.interval,
            jumps=sweep_cfg.jumps,
            eps_schedule=sweep_cfg.eps_schedule,
        )
        assert other.config_hash() != h

    def test_seed_is_not_a_setting(self):
        # a sweep draws no random number
        with pytest.raises(TypeError):
            SweepConfig(seed=1)

    def test_schedule_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            SweepConfig(eps_schedule=(0.125, 0.25))

    @pytest.mark.parametrize("n", (0, 1))
    def test_order_below_two_is_rejected_before_any_solve(self, n):
        with pytest.raises(ValueError, match=f"sweep requires n >= 2, got n = {n}"):
            SweepConfig(n=n)

    @pytest.mark.parametrize("bad", (np.inf, np.nan))
    def test_non_finite_eps_is_rejected(self, bad):
        # an infinite first eps was a "recovery failed" row, not an error
        with pytest.raises(ValueError, match="eps schedule must be positive and finite"):
            SweepConfig(eps_schedule=(bad, 0.125))

    def test_nan_lambda_hat_is_rejected(self):
        # a NaN passed the lam <= lambda_hat / 2 guard of the sweep and was
        # written to the record as bare NaN, which is no JSON
        with pytest.raises(ValueError, match="^lambda_hat must not be NaN, got nan$"):
            SweepConfig(lam=0.01, lambda_hat=float("nan"))
        assert SweepConfig(lam=0.01, lambda_hat=np.inf).lambda_hat == np.inf

    @pytest.mark.parametrize("bad", (0.0, -1.0))
    def test_non_positive_lambda_hat_is_rejected(self, bad):
        # lambda_hat = 0 at lam = 0 passed the lam <= lambda_hat / 2 guard
        with pytest.raises(ValueError, match=f"^lambda_hat must be positive, got {bad}$"):
            SweepConfig(lambda_hat=bad)

    def test_profile_points_is_no_field(self):
        # the sweep pastes the profile's spline and reads none of its samples
        with pytest.raises(TypeError, match="profile_points"):
            SweepConfig(profile_points=801)

    def test_mass_must_be_attainable(self):
        with pytest.raises(ValueError, match="mass"):
            SweepConfig(interval=(0.0, 1.0), jumps=(0.5,), mass_constraint=1.5)

    def test_jump_function_roundtrip(self, sweep_cfg):
        jf = sweep_cfg.jump_function()
        assert jf.jump_count == 1
        assert jf.delta0 == 4.0


class TestGammaSweep:
    def test_rows_cover_schedule_in_order(self, sweep_record, sweep_cfg):
        assert [r.epsilon for r in sweep_record.rows] == list(sweep_cfg.eps_schedule)

    def test_minimizer_descends_and_keeps_jumps(self, sweep_record):
        for row in sweep_record.rows:
            assert row.converged, row.notes
            assert row.e_min <= row.e_recovery
            assert row.e_min > 0.0
            assert row.jumps_detected == 1

    def test_recovery_approaches_profile_constant(self, sweep_record):
        # with points_per_eps_width fixed the rescaled sampling grid is the
        # same for every epsilon, so the deviation cannot grow along the
        # schedule and each row must already sit close to the profile value
        target = sweep_record.c_hat_lam
        devs = [abs(r.e_recovery - target) for r in sweep_record.rows]
        assert devs[1] <= devs[0] * (1.0 + 1e-9)
        for row in sweep_record.rows:
            assert row.e_recovery == pytest.approx(target, rel=1e-3)

    #: lambda_hat_2 of the polynomial stage as first pinned; the roundoff
    #: spread below depends on its last bits, so it is a literal here
    LAMBDA_HAT_2 = 0.05693789607138085

    @staticmethod
    def two_jump_sweep(lam_hat):
        # the two-jump sweep of acceptance test 07: it repeats one discrete
        # problem for every eps <= 1/16
        return gamma_sweep(SweepConfig(
            n=2,
            lam=0.3 * lam_hat,
            jumps=(-4.0 / 3.0, 4.0 / 3.0),
            eps_schedule=(0.25, 0.125, 0.0625, 0.03125, 0.015625),
            points_per_eps_width=32,
            lambda_hat=lam_hat,
        ))

    def test_roundoff_deviation_is_not_an_inversion(self):
        # the recovery deviations agree to about 2e-12 and are no evidence
        # against monotone convergence
        rec = self.two_jump_sweep(self.LAMBDA_HAT_2)
        devs = [abs(r.e_recovery - 2.0 * rec.c_hat_lam) for r in rec.rows]
        assert max(devs) - min(devs) < 1e-11
        assert any(d2 > d1 for d1, d2 in zip(devs, devs[1:]))
        assert not [note for note in rec.notes if "not monotone" in note]

    @pytest.mark.parametrize("k", (-3, -2, -1, 1, 2, 3))
    def test_perturbed_coupling_reads_no_inversion(self, k):
        # lambda_hat moved in its last bits spreads the deviations to
        # 4e-11..8e-11, still roundoff and no "not monotone" note
        rec = self.two_jump_sweep(self.LAMBDA_HAT_2 * (1.0 + k * 6e-14))
        assert not [note for note in rec.notes if "not monotone" in note]

    def test_deterministic_rerun(self, sweep_cfg, sweep_record):
        cfg = SweepConfig(
            n=sweep_cfg.n,
            lam=sweep_cfg.lam,
            interval=sweep_cfg.interval,
            jumps=sweep_cfg.jumps,
            eps_schedule=(0.25,),
            points_per_eps_width=sweep_cfg.points_per_eps_width,
            profile_T=sweep_cfg.profile_T,
        )
        again = gamma_sweep(cfg)
        assert again.rows[0].e_min == sweep_record.rows[0].e_min
        assert again.rows[0].e_recovery == sweep_record.rows[0].e_recovery

    def test_threads_other_than_one_are_rejected(self, sweep_cfg):
        with pytest.raises(ValueError, match="serially"):
            gamma_sweep(sweep_cfg, threads=2)

    def test_one_recovery_per_eps_and_one_floor(self, sweep_cfg, monkeypatch):
        built, floors = [], []

        def counting_build(*args, **kwargs):
            built.append(args[2])
            return build_recovery(*args, **kwargs)

        def recording_minimize(*args, divergence_floor=None, **kwargs):
            floors.append(divergence_floor)
            return minimize_energy(*args, divergence_floor=divergence_floor, **kwargs)

        monkeypatch.setattr(experiments, "build_recovery", counting_build)
        monkeypatch.setattr(experiments, "minimize_energy", recording_minimize)
        rec = gamma_sweep(sweep_cfg)
        assert built == list(sweep_cfg.eps_schedule)
        # -10^3 in units of the first (largest-eps) recovery energy
        assert floors == [-1e3 * abs(rec.rows[0].e_recovery)] * len(rec.rows)

    def test_failed_first_recovery_keeps_the_later_rows(self, monkeypatch):
        floors = []

        def recording_minimize(*args, divergence_floor=None, **kwargs):
            floors.append(divergence_floor)
            return minimize_energy(*args, divergence_floor=divergence_floor, **kwargs)

        monkeypatch.setattr(experiments, "minimize_energy", recording_minimize)
        # eps * T = 1 >= delta0 / 2 at eps = 1/4, but not at eps = 1/20
        cfg = SweepConfig(
            interval=(-1.0, 1.0),
            jumps=(0.0,),
            eps_schedule=(0.25, 0.05),
            points_per_eps_width=16,
            profile_T=4.0,
        )
        first, second = gamma_sweep(cfg).rows
        assert first.notes.startswith("recovery failed")
        assert not first.converged and np.isnan(first.e_min)
        assert second.converged and second.jumps_detected == 1, second.notes
        assert floors == [-1e3]

    def test_no_jump_configuration_costs_nothing(self):
        cfg = SweepConfig(
            interval=(-2.0, 2.0),
            jumps=(),
            eps_schedule=(0.25,),
            points_per_eps_width=16,
            profile_T=4.0,
        )
        rec = gamma_sweep(cfg)
        row = rec.rows[0]
        assert row.jumps_detected == 0
        assert abs(row.e_recovery) < 1e-10
        assert row.e_min <= row.e_recovery + 1e-12

    def test_non_positive_profile_constant_is_noted(self):
        # far above the critical coupling the lam-profile energy is negative;
        # the rows still converge, and the record says what they are worth
        cfg = SweepConfig(
            n=2,
            lam=1.6,
            eps_schedule=(0.25,),
            points_per_eps_width=16,
            profile_T=4.0,
        )
        rec = gamma_sweep(cfg)
        assert rec.c_hat_lam < 0.0
        assert any(note.startswith("c_hat_lam = -0.29") for note in rec.notes)

    def test_rejects_lambda_above_half_critical(self, sweep_cfg):
        cfg = SweepConfig(
            lam=0.04,
            lambda_hat=0.057,
            eps_schedule=(0.25,),
        )
        with pytest.raises(ValueError, match="0.5"):
            gamma_sweep(cfg)


class TestSupercriticalProbe:
    def test_monotone_and_onset(self, quartic):
        rep = supercritical_probe(
            2,
            (0.25, 0.5, 1.0, 2.0, 4.0),
            1.0 / 16.0,
            quartic,
            k_max=16,
            amplitudes=(0.9, 1.2),
            free_minimization=False,
        )
        assert rep.monotone
        diffs = np.diff(rep.best_energies)
        assert np.all(diffs <= 1e-12)
        assert rep.onset_lambda is not None
        assert rep.best_energies[-1] < 0.0
        # onset is the first grid value whose best candidate energy is negative
        for lam, e in zip(rep.lambda_grid, rep.best_energies):
            if lam < rep.onset_lambda:
                assert e >= 0.0
            if lam == rep.onset_lambda:
                assert e < 0.0

    def test_k_scaling_is_full_curve(self, quartic):
        rep = supercritical_probe(
            2,
            (2.0,),
            1.0 / 16.0,
            quartic,
            k_max=12,
            amplitudes=(1.0,),
            free_minimization=False,
        )
        assert [k for k, _ in rep.k_scaling] == list(range(1, 13))
        best = min(e for _, e in rep.k_scaling)
        assert best == pytest.approx(rep.best_energies[0], rel=1e-12)

    def test_free_minimization_beats_ansatz(self, quartic):
        rep = supercritical_probe(
            2,
            (2.0, 4.0),
            1.0 / 16.0,
            quartic,
            k_max=12,
            amplitudes=(0.9, 1.2),
            free_minimization=True,
        )
        for free, best, div in zip(
            rep.free_min_energies, rep.best_energies, rep.free_diverged
        ):
            assert div or free <= best + 1e-9
        assert all(s >= 2 for s in rep.sign_changes)

    def test_order_below_two_is_rejected_up_front(self, quartic):
        # without the free minimization, n = 1 once ran the candidate scan
        with pytest.raises(ValueError, match="energy requires n >= 2"):
            supercritical_probe(1, (0.5,), 1.0 / 16.0, quartic, free_minimization=False)

    def test_subcritical_grid_has_no_onset(self, quartic):
        rep = supercritical_probe(
            2,
            (0.001, 0.01),
            1.0 / 16.0,
            quartic,
            k_max=8,
            amplitudes=(0.9,),
            free_minimization=False,
        )
        assert rep.onset_lambda is None
        assert all(e > 0 for e in rep.best_energies)
