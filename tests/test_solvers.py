"""Tests for the shared damped-Newton and L-BFGS drivers."""

import numpy as np
import pytest
import scipy.sparse as sp

from hophase._solvers import damped_newton, lbfgs

M = 40
# discrete Laplacian (positive semidefinite) plus a double-well term: a small
# stand-in for the phase-transition energies, nonconvex between the wells
LAP = sp.diags([-np.ones(M - 1), 2.0 * np.ones(M), -np.ones(M - 1)], [-1, 0, 1])


def fun(x, lam=0.0):
    return 0.25 * np.sum((x**2 - 1.0) ** 2) + 0.5 * x @ (LAP @ x) - lam * x @ x


def grad(x, lam=0.0):
    return x**3 - x + LAP @ x - 2.0 * lam * x


def hess(x, lam=0.0):
    return sp.diags(3.0 * x**2 - 1.0 - 2.0 * lam) + LAP


X0 = np.linspace(-0.9, 0.7, M)


def test_converges_and_records_history():
    x, info = damped_newton(fun, grad, hess, X0, gtol=1e-10)
    assert info.converged
    assert info.iterations == info.newton_iterations
    assert len(info.history) == info.newton_iterations
    assert info.energy == fun(x)
    assert info.gradient_norm == np.abs(grad(x)).max()
    energies = [h["energy"] for h in info.history]
    assert all(e2 <= e1 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] == info.energy
    for h in info.history:
        assert set(h) == {"energy", "gradient_norm", "tau", "step", "elapsed_s"}


def test_bordered_step_holds_the_constraint():
    q = np.full(M, 1.0 / M)
    proj = lambda g: g - (q @ g) / (q @ q) * q
    border = sp.csc_matrix(q[:, None])
    x, info = damped_newton(
        fun,
        lambda x: proj(grad(x)),
        lambda x: sp.bmat([[hess(x), border], [border.T, None]]),
        X0,
        gtol=1e-10,
    )
    assert info.converged
    assert len(info.history) == info.newton_iterations
    assert q @ x == pytest.approx(q @ X0, abs=1e-13)
    # unconstrained, the mean drifts to a well
    free, _ = damped_newton(fun, grad, hess, X0, gtol=1e-10)
    assert abs(q @ free - q @ X0) > 1e-3


def test_low_rank_border_solves_with_the_update():
    # f = x.(A + b b^T)x / 2 - r.x: the border [[A, b], [b^T, -1]] solves
    # with A + b b^T, so one full step from 0 lands on the dense solution
    A = LAP + 2.0 * sp.identity(M)
    b = np.cos(np.arange(M))
    r = np.linspace(1.0, 2.0, M)
    dense = A.toarray() + np.outer(b, b)
    border = sp.csc_matrix(b[:, None])
    x, info = damped_newton(
        lambda x: 0.5 * x @ (dense @ x) - r @ x,
        lambda x: dense @ x - r,
        lambda x: sp.bmat([[A, border], [border.T, -sp.identity(1)]]),
        np.zeros(M),
        maxiter=1,
    )
    assert info.newton_iterations == 1
    assert info.history[0]["step"] == 1.0
    np.testing.assert_allclose(x, np.linalg.solve(dense, r), rtol=1e-12)


def test_divergence_floor_stops_newton():
    # lam = 2 makes the quadratic part concave: the energy is bounded below
    # by the quartic only, far beneath the floor
    x, info = damped_newton(
        lambda x: fun(x, 2.0), lambda x: grad(x, 2.0), lambda x: hess(x, 2.0),
        X0, divergence_floor=-5.0,
    )
    assert info.diverged
    assert not info.converged
    assert info.message == "supercritical divergence"
    assert info.energy < -5.0
    assert len(info.history) == info.newton_iterations


def test_stall_is_reported():
    x, info = damped_newton(fun, grad, hess, X0, maxiter=1, gtol=1e-14)
    assert not info.converged
    assert info.message == "iteration limit"
    assert info.newton_iterations == 1


def test_lbfgs_divergence_floor_and_final_values():
    x, info = lbfgs(
        lambda x: fun(x, 2.0), lambda x: grad(x, 2.0), X0, divergence_floor=-5.0
    )
    assert info.diverged
    assert info.energy == fun(x, 2.0) < -5.0
    x, info = lbfgs(fun, grad, X0, gtol=1e-9)
    assert not info.diverged
    assert info.energy == fun(x)
    assert info.gradient_norm == np.abs(grad(x)).max()
