"""Tests for the shared damped-Newton and L-BFGS drivers."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dpbsv

from hophase import DiscreteEnergy, EnergyParams, Field, Grid, _solvers, critical, energy
from hophase._solvers import BandedSystem, damped_newton, lbfgs
from hophase.energy import BSpline, _band_index, _element_band
from hophase.grids import ACCURACY_ORDER, _unit_rows, quadrature_weights, window_starts
from hophase.profiles import (
    PROFILE_GTOL, PROFILE_H, PROFILE_MAXITER, _profile_kernel,
)

from conftest import differenced, quadratic_forms, to_band, written_bands

M = 40
# discrete Laplacian (positive semidefinite) plus a double-well term: a small
# stand-in for the phase-transition energies, nonconvex between the wells
LAP = sp.diags([-np.ones(M - 1), 2.0 * np.ones(M), -np.ones(M - 1)], [-1, 0, 1])


def fun(x, lam=0.0):
    return 0.25 * np.sum((x**2 - 1.0) ** 2) + 0.5 * x @ (LAP @ x) - lam * x @ x


def grad(x, lam=0.0):
    return x**3 - x + LAP @ x - 2.0 * lam * x


def hess_matrix(x, lam=0.0):
    return sp.diags(3.0 * x**2 - 1.0 - 2.0 * lam) + LAP


def as_system(H, c=None, symmetric=False):
    """The sparse matrix H as the BandedSystem of damped_newton: H in band
    storage (through the kernel's scatter), with the constraint row c if
    given, declared symmetric if so."""
    coo = H.tocoo()
    offset = coo.col - coo.row
    lo, up = -int(offset.min(initial=0)), int(offset.max(initial=0))
    return BandedSystem(to_band(H, lo, up), lo, c, symmetric=symmetric)


def hess(x, lam=0.0):
    return as_system(hess_matrix(x, lam))


X0 = np.linspace(-0.9, 0.7, M)


def test_converges_and_records_history():
    x, info = damped_newton(fun, grad, hess, X0, line=differenced(fun), gtol=1e-10)
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
    x, info = damped_newton(
        fun,
        lambda x: proj(grad(x)),
        lambda x: as_system(hess_matrix(x), q),
        X0,
        line=differenced(fun),
        gtol=1e-10,
    )
    assert info.converged
    assert len(info.history) == info.newton_iterations
    assert q @ x == pytest.approx(q @ X0, abs=1e-13)
    # unconstrained, the mean drifts to a well
    free, _ = damped_newton(fun, grad, hess, X0, line=differenced(fun), gtol=1e-10)
    assert abs(q @ free - q @ X0) > 1e-3


def test_divergence_floor_stops_newton():
    # lam = 2 makes the quadratic part concave: the energy is bounded below
    # by the quartic only, far beneath the floor
    energy = lambda x: fun(x, 2.0)
    x, info = damped_newton(
        energy, lambda x: grad(x, 2.0), lambda x: hess(x, 2.0),
        X0, line=differenced(energy), divergence_floor=-5.0,
    )
    assert info.diverged
    assert not info.converged
    assert info.message == "supercritical divergence"
    assert info.energy < -5.0
    assert len(info.history) == info.newton_iterations


def test_stall_is_reported():
    x, info = damped_newton(
        fun, grad, hess, X0, line=differenced(fun), maxiter=1, gtol=1e-14
    )
    assert not info.converged
    assert info.message == "iteration limit"
    assert info.newton_iterations == 1


def test_line_search_stops_where_the_energy_cannot_resolve_the_step():
    # the gradient of this quadratic carries a bias of 1e-9 pointing away
    # from its minimum, so the gradient sup-norm never falls below 1e-9
    # and near the minimum the Newton direction is not a descent direction
    # of the energy; the predicted decrease -g.d ~ 1e-17 is far below the
    # stagnation threshold, so the run stops there instead of halving the
    # step toward 2^-45
    A = LAP + 2.0 * sp.identity(M)
    calls = dict(fun=0, stalled_at=None)

    def quadratic(x):
        calls["fun"] += 1
        return 0.5 * x @ (A @ x)

    def biased_grad(x):
        g = A @ x + 1e-9 * np.where(x >= 0.0, 1.0, -1.0)
        if calls["stalled_at"] is None and np.abs(g).max() < 1e-8:
            calls["stalled_at"] = calls["fun"]
        return g

    x, info = damped_newton(
        quadratic, biased_grad, lambda x: as_system(A), X0,
        line=differenced(quadratic), gtol=1e-12,
    )
    assert info.message == "energy stagnation (roundoff floor)"
    assert not info.converged
    assert calls["stalled_at"] is not None
    assert calls["fun"] - calls["stalled_at"] <= 3
    assert info.energy == quadratic(x)
    assert len(info.history) == info.newton_iterations


def test_line_search_reads_the_energy_change_along_the_step():
    # given line, fun gives the first and the reported energy only, and the
    # history energies are the first one plus the accepted changes
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)

    def line(x, d):
        # fun(x + t d) - fun(x) factored so that nothing cancels
        Lx, dLd = LAP @ x, d @ (LAP @ d)

        def change(t):
            y = x + t * d
            well = 0.25 * np.sum(t * d * (2.0 * x + t * d) * (y**2 + x**2 - 2.0))
            return well + t * (d @ Lx) + 0.5 * t * t * dLd

        return change

    x, info = damped_newton(counted, grad, hess, X0, gtol=1e-10, line=line)
    assert info.converged
    assert len(calls) == 2
    assert info.energy == fun(x)
    plain, _ = damped_newton(fun, grad, hess, X0, line=differenced(fun), gtol=1e-10)
    np.testing.assert_allclose(x, plain, rtol=0, atol=1e-10)
    energies = [h["energy"] for h in info.history]
    assert all(e2 <= e1 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] == pytest.approx(info.energy, rel=0, abs=1e-13)


def test_line_is_required():
    # the Armijo test has one form, on the change line(x, d) returns
    with pytest.raises(TypeError, match="line"):
        damped_newton(fun, grad, hess, X0)


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


def shifted(dense, m, tau):
    # tau on the leading m x m block only, as the driver damps it
    out = dense.copy()
    out[np.arange(m), np.arange(m)] += tau
    return out


def bordered(A, c):
    """The dense matrix [[A, c], [c^T, 0]]."""
    return np.block([[A, c[:, None]], [c[None, :], np.zeros((1, 1))]])


def assert_solves(H, rhs, c=None, taus=(0.0, 0.3)):
    system = as_system(H, c)
    dense = H.toarray() if c is None else bordered(H.toarray(), c)
    padded = np.pad(rhs, (0, dense.shape[0] - len(rhs)))
    for tau in taus:
        expected = np.linalg.solve(shifted(dense, len(rhs), tau), padded)[:len(rhs)]
        d = system.solve(rhs, tau)
        np.testing.assert_allclose(d, expected, rtol=1e-10)
        if c is not None:
            # the step keeps c . x: c . d vanishes to roundoff
            assert abs(c @ d) <= 1e-14 * np.abs(c) @ np.abs(d)
    return system


def test_banded_step_with_unequal_bandwidths():
    rng = np.random.default_rng(0)
    offsets = [-3, -2, -1, 0, 1]
    diags = [rng.normal(size=M - abs(k)) for k in offsets]
    diags[3] += 8.0  # diagonally dominant, so the dense solve is accurate
    H = sp.diags(diags, offsets, format="csr")
    rhs = rng.normal(size=M)
    system = assert_solves(H, rhs)
    assert (system.lo, system.up) == (3, 1)
    # every entry stored twice at half its value: duplicates add up
    dup = sp.csr_matrix(
        (np.repeat(H.data, 2) / 2, np.repeat(H.indices, 2), 2 * H.indptr),
        shape=H.shape,
    )
    assert not dup.has_canonical_format
    np.testing.assert_array_equal(to_band(dup, 3, 1), system.ab)
    assert_solves(dup, rhs)
    with pytest.raises(ValueError, match="outside the band"):
        to_band(H, 2, 1)


def test_singular_leading_block_raises_until_shifted():
    # the Neumann Laplacian annihilates constants
    H = LAP - sp.diags(np.r_[1.0, np.zeros(M - 2), 1.0])
    system = as_system(H)
    with pytest.raises(LinAlgError):
        system.solve(np.ones(M))
    assert np.all(np.isfinite(system.solve(np.ones(M), 1e-8)))


def test_banded_step_with_the_mass_border():
    q = np.full(M, 1.0 / M)
    # hess(X0) is indefinite: W'' < 0 between the wells
    assert np.linalg.eigvalsh(hess_matrix(X0).toarray()).min() < 0
    system = assert_solves(hess_matrix(X0), -grad(X0), q)
    assert system.c is q


def test_a_constraint_with_a_vanishing_schur_complement_raises():
    # c^T A^-1 c = 1 - 1 + 0 = 0 for A = diag(1, -1, 2, ...) and c = e_0 + e_1
    A = sp.diags(np.r_[1.0, -1.0, np.full(M - 2, 2.0)])
    c = np.r_[1.0, 1.0, np.zeros(M - 2)]
    system = as_system(A, c)
    with pytest.raises(LinAlgError, match="Schur"):
        system.solve(np.ones(M))
    # the shifted block has c^T (A + tau I)^-1 c != 0
    assert np.all(np.isfinite(system.solve(np.ones(M), 0.5)))


@pytest.mark.parametrize("n", range(1, 7))
def test_energy_hessian_band(n, quartic):
    # the kernel's Hessian at N = 2001 comes as a band of half-bandwidth
    # n + 3 at most, and solves like the assembled sparse Hessian
    grid = Grid(-10.0, 10.0, 2001)
    kernel = DiscreteEnergy(grid, n)
    u, c = np.tanh(grid.nodes()), (1.0, -0.01, 1.0)
    ab = kernel.hess(u, quartic, c)
    b = kernel.bandwidth
    assert b <= n + 3
    assert ab.shape == (2 * b + 1, grid.num_points)
    K_low, K_high = quadratic_forms(grid, n)
    H = (
        sp.diags(np.asarray(quartic.eval_second_derivative(u)) * kernel.q)
        + c[1] * K_low + c[2] * K_high
    ).toarray()
    # a shift well above the W'' entries keeps the shifted matrix well
    # conditioned, so the dense solve is an accurate reference
    tau = 1e-3 * np.abs(H.diagonal()).max()
    rhs = np.cos(grid.nodes())
    np.testing.assert_allclose(
        BandedSystem(ab, b).solve(rhs, tau),
        np.linalg.solve(shifted(H, grid.num_points, tau), rhs),
        rtol=1e-10,
    )


@pytest.mark.parametrize("order", (2, 4, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_energy_bandwidth_is_the_stencil_reach(n, order):
    # K = 2 D_n^T diag(q) D_n couples the two ends of an (n + order)-point
    # stencil window, and no farther: scattered as one-node elements over
    # windows one column wider, its outermost diagonals are 0 and the next
    # ones are not.  The energy's band is that reach at the one accuracy it
    # uses.
    grid = Grid(-10.0, 10.0, 2001)
    N, m = grid.num_points, n + order
    reach = m - 1
    b = reach + 1
    windows = _unit_rows(n, m) / grid.h**n
    starts = window_starts(N, m)
    tables = np.zeros((N, 1, b + 1))
    tables[:, 0, :m] = windows[starts - np.arange(N) + m - 1]
    q = quadrature_weights(grid)
    band = _element_band(
        _band_index(starts, b, N), tables, 2.0 * q[:, None], (2 * b + 1, N)
    )
    offsets = np.flatnonzero(np.any(band != 0.0, axis=1)) - b
    assert (offsets.min(), offsets.max()) == (-reach, reach)
    assert DiscreteEnergy(grid, n).bandwidth == n + ACCURACY_ORDER - 1


def dense_band(dense, lo, up):
    """The band of a dense matrix, entry by entry: ab[up + i - j, j] = A[i, j]."""
    ab = np.zeros((lo + up + 1, dense.shape[1]))
    for i, j in zip(*np.nonzero(dense)):
        ab[up + i - j, j] = dense[i, j]
    return ab


@pytest.mark.parametrize("upper_only", (False, True))
def test_to_band_matches_the_dense_band_in_every_format(upper_only):
    grid = Grid(-2.0, 2.0, 60)
    b = DiscreteEnergy(grid, 3).bandwidth
    lo = 0 if upper_only else b
    K = sp.triu(quadratic_forms(grid, 3)[1], -lo, format="csr")
    expected = dense_band(K.toarray(), lo, b)
    # CSR, CSC, and COO with every entry stored twice at half its value
    coo = K.tocoo()
    twice = sp.coo_matrix(
        (np.tile(coo.data / 2, 2), (np.tile(coo.row, 2), np.tile(coo.col, 2))),
        shape=K.shape,
    )
    for A in (K, K.tocsc(), twice):
        np.testing.assert_array_equal(to_band(A, lo, b), expected)


def plain_solve(system, rhs, tau):
    """The bordered solve without the repeated-work savings: a C-ordered
    band buffer, column_stack([rhs, c]) for gbsv and np.linalg.solve for
    the 1 x 1 Schur step."""
    lo, up, c = system.lo, system.up, system.c
    ab = np.empty((2 * lo + up + 1, system.ab.shape[1]))
    ab[:lo] = 0.0
    ab[lo:] = system.ab
    ab[lo + up] += tau
    cols = rhs if c is None else np.column_stack([rhs, c])
    _, _, sol, info = dgbsv(lo, up, ab, cols, overwrite_ab=True)
    assert info == 0
    if c is None:
        return sol
    y, z = sol[:, 0], sol[:, 1:]
    mu = np.linalg.solve(-c[None, :] @ z, -c[None, :] @ y)
    return y - z @ mu


def counted_gbsv(monkeypatch):
    """Record the number of right-hand sides of every gbsv call."""
    calls = []

    def gbsv(lo, up, ab, b, **kwargs):
        calls.append(1 if b.ndim == 1 else b.shape[1])
        return dgbsv(lo, up, ab, b, **kwargs)

    monkeypatch.setattr(_solvers, "dgbsv", gbsv)
    return calls


@pytest.mark.parametrize("n", (2, 3))
def test_solve_matches_the_plain_solve(n, quartic):
    grid = Grid(-10.0, 10.0, 501)
    kernel = DiscreteEnergy(grid, n)
    u = np.tanh(grid.nodes())
    ab, b = kernel.hess(u, quartic, (1.0, -0.01, 1.0)), kernel.bandwidth
    rhs, g = np.cos(grid.nodes()), np.sin(grid.nodes())
    systems = [
        # no border: the same gbsv call, so the same bits
        (BandedSystem(ab, b), 0.0),
        # the mass border: the Schur step is a scalar division, not
        # numpy's LAPACK solve
        (BandedSystem(ab, b, kernel.q), 1e-15),
    ]
    for system, rtol in systems:
        for tau in (0.0, 1e-3, 10.0):
            for r in (rhs, -g):
                got, expected = system.solve(r, tau), plain_solve(system, r, tau)
                if rtol:
                    np.testing.assert_allclose(got, expected, rtol=rtol)
                else:
                    np.testing.assert_array_equal(got, expected)


def test_a_tau_that_changes_no_diagonal_entry_is_not_factored(monkeypatch):
    calls = counted_gbsv(monkeypatch)
    # every diagonal entry is 1e12 or more, so a shift of 1e-8 rounds away
    H = 1e12 * (LAP + sp.identity(M))
    system = as_system(H)
    rhs = np.cos(np.arange(M))
    d = system.solve(rhs)
    assert system.solve(rhs, 1e-8) is d
    assert system.solve(rhs.copy(), 1e-6) is d
    assert len(calls) == system.factorizations == 1
    # a shift that does change the diagonal is factored
    assert not np.array_equal(system.solve(rhs, 1e3), d)
    assert len(calls) == system.factorizations == 2
    # and so is another right-hand side at the same shift
    system.solve(rhs + 1.0, 1e3)
    assert len(calls) == system.factorizations == 3


@pytest.mark.parametrize("hold_mass", (False, True))
@pytest.mark.parametrize("r", (0, 3))
def test_curved_rows_solve_as_the_summed_band(r, hold_mass, monkeypatch):
    # a system given as a band of half-bandwidth p = 3 plus 2r + 1 curved
    # rows is the system of their sum: the same matrix and solves, bit for
    # bit, with the band never written; so is one whose band keeps the run
    # of equal columns L .. L + cut as its column L alone; a shift that
    # changes no diagonal entry reuses the last solve, as for any system
    p, L, cut = 3, 5, 20
    full = to_band(1e12 * (LAP + sp.identity(M)), p, p)
    curved = np.random.default_rng(r).normal(size=(2 * r + 1, M))
    summed = full.copy()
    summed[p - r:p + r + 1] += curved
    border = np.full(M, 1.0 / M) if hold_mass else None
    reference = BandedSystem(summed, p, border)
    rhs = np.cos(np.arange(M))
    interior = np.arange(L + 1, L + cut + 1)
    assert np.all(full[:, interior] == full[:, L, None])
    for band, repeat in (
        (full.copy(), (0, 0)),
        (np.delete(full, interior, axis=1), (L, cut)),
    ):
        kept = band.copy()
        system = BandedSystem(band, p, border, curved, repeat)
        assert system.ab.tobytes() == summed.tobytes()
        assert system.diag.tobytes() == reference.diag.tobytes()
        calls = counted_gbsv(monkeypatch)
        d = system.solve(rhs)
        assert system.solve(rhs, 1e-8) is d
        assert len(calls) == system.factorizations == 1
        for tau in (0.0, 1e3):
            assert system.solve(rhs, tau).tobytes() == reference.solve(rhs, tau).tobytes()
        assert system.factorizations == 2
        assert band.tobytes() == kept.tobytes()


def test_a_last_allowed_step_below_gtol_is_no_iteration_limit():
    # the step cap labels only a run whose final gradient is still at or
    # above gtol; a cap at the converged run's step count ends at its
    # iterate, converged
    args = (fun, grad, hess, X0)
    kwargs = dict(line=differenced(fun), gtol=1e-10)
    x, info = damped_newton(*args, **kwargs)
    assert info.converged and info.message == ""
    steps = info.iterations
    x_cap, capped = damped_newton(*args, maxiter=steps, **kwargs)
    assert x_cap.tobytes() == x.tobytes()
    assert capped.converged and capped.message == ""
    _, short = damped_newton(*args, maxiter=steps - 1, **kwargs)
    assert not short.converged and short.message == "iteration limit"


@pytest.mark.parametrize("n", range(1, 7))
def test_the_stored_k_bands_hold_at_most_2l_columns(n):
    # past 2L elements a kernel stores its K bands as the first and last L
    # columns, its column L standing for the run of repeated ones between
    kernel = DiscreteEnergy(Grid(-4.0, 4.0, 16385), n)
    b = kernel.bandwidth
    L = 2 * b + 4
    shape = kernel._bands.shape
    assert shape[:2] == (2, 2 * b + 1) and shape[2] <= 2 * L


def test_a_singular_block_raises_again_without_factoring(monkeypatch):
    calls = counted_gbsv(monkeypatch)
    # the Neumann Laplacian annihilates constants; 1e-8 is far below half an
    # ulp of its diagonal at this scale
    system = as_system(1e10 * (LAP - sp.diags(np.r_[1.0, np.zeros(M - 2), 1.0])))
    for tau in (0.0, 1e-8, 1e-7):
        with pytest.raises(LinAlgError):
            system.solve(np.ones(M), tau)
    assert len(calls) == system.factorizations == 1
    assert np.all(np.isfinite(system.solve(np.ones(M), 1e3)))
    assert len(calls) == 2


def test_factorizations_count_the_gbsv_calls_and_skip_no_op_shifts(monkeypatch):
    # a stiff nonconvex problem: the ladder climbs tau = 1e-8, 1e-7, ...,
    # and the rungs far below an ulp of the 1e12-sized diagonal leave the
    # shifted matrix unchanged
    scale = 1e12
    args = (
        lambda x: scale * fun(x),
        lambda x: scale * grad(x),
        lambda x: as_system(scale * hess_matrix(x)),
        X0,
    )
    line = differenced(args[0])
    calls = counted_gbsv(monkeypatch)
    x, info = damped_newton(*args, line=line, gtol=1e-2)
    assert info.factorizations == len(calls)

    # the same run with every rung factored takes the same steps
    solve = BandedSystem.solve

    def refactor(self, rhs, tau=0.0):
        self._last = None
        return solve(self, rhs, tau)

    monkeypatch.setattr(BandedSystem, "solve", refactor)
    x_all, info_all = damped_newton(*args, line=line, gtol=1e-2)
    np.testing.assert_array_equal(x, x_all)
    assert info.message == info_all.message
    assert info.energy == info_all.energy
    assert [h["tau"] for h in info.history] == [h["tau"] for h in info_all.history]
    assert info_all.factorizations == len(calls) - info.factorizations
    assert info.factorizations < info_all.factorizations


def step_systems(monkeypatch, kernel, u, w, c, border, points):
    """The systems that the Newton steps of `kernel.minimize` from u, held
    to the constraint row border if given, factor at the given free
    unknowns: the driver is replaced by one that builds them."""
    systems = []

    def driver(fun, grad, hess, x0, **kwargs):
        systems.extend(hess(p) for p in points)
        return x0, _solvers.SolveInfo()

    monkeypatch.setattr(energy, "damped_newton", driver)
    kernel.minimize(u, w, c, 1e-8, 1, constraint=border)
    return systems


@pytest.mark.parametrize("n", range(1, 7))
def test_a_step_factors_the_hessian(n, quartic, monkeypatch):
    # the step's system shares one constant band per solve and carries
    # its own curved row; its matrix is hess's, entry for entry, and it
    # solves as the system built from hess's band and declared symmetric
    # as it is, bit for bit
    grid = Grid(-5.0, 5.0, 401)
    kernel = DiscreteEnergy(grid, n)
    b = kernel.bandwidth
    x = grid.nodes()
    points = [np.tanh(x), np.tanh(x / 0.3) + 0.1 * np.sin(3.0 * x)]
    c = (1.0, -0.02, 1.0)
    rhs = np.cos(x)
    for hold_mass in (False, True):  # without and with the mass border
        border = kernel.q if hold_mass else None
        systems = step_systems(monkeypatch, kernel, points[0], quartic, c, border, points)
        assert systems[0].band is systems[1].band
        for u, system in zip(points, systems):
            ab = kernel.hess(u, quartic, c)
            np.testing.assert_array_equal(system.ab, ab)
            if hold_mass:
                np.testing.assert_array_equal(system.c, border)
            else:
                assert system.c is None
            assert system.symmetric
            reference = BandedSystem(ab, b, border, symmetric=True)
            for tau in (0.0, 1e-3, 10.0):
                np.testing.assert_array_equal(
                    system.solve(rhs, tau), reference.solve(rhs, tau)
                )


def counted_lapack(monkeypatch):
    """Record (routine, number of right-hand sides, info) for every pbsv
    and gbsv call of `BandedSystem`, in call order."""
    calls = []

    def gbsv(lo, up, ab, b, **kwargs):
        out = dgbsv(lo, up, ab, b, **kwargs)
        calls.append(("gbsv", b.shape[1], out[-1]))
        return out

    def pbsv(ab, b, **kwargs):
        out = dpbsv(ab, b, **kwargs)
        calls.append(("pbsv", b.shape[1], out[-1]))
        return out

    monkeypatch.setattr(_solvers, "dgbsv", gbsv)
    monkeypatch.setattr(_solvers, "dpbsv", pbsv)
    return calls


ENERGY_KERNELS = [("grid", n) for n in range(1, 7)] + [("spline", n) for n in range(2, 7)]


def symmetric_systems(monkeypatch, kind, n, quartic, well):
    """The symmetric systems of an order-n energy kernel, grid or spline,
    at a state near the well +1 (well true, where W'' > 0) or near 0: at
    2L elements and past them, where the K bands keep one interior column
    (`_Quadrature._repeat`), each step system of
    `minimize`, with its curved band, and the system of its whole `hess`
    band, each without and with a mass border.  The spacing is 1/4 on the
    grid and 1/2 on the splines: coarse enough that the K bands, growing
    like h^(-2n), leave the near-well Hessian positive definite in
    floating point, and that W'' < 0 near 0 makes the other one
    indefinite."""
    c = (100.0, -0.01, 1.0)
    systems = []
    # L = 2b + 4, b = n + 3 on the grid and n + 3 on the splines
    L = 2 * (n + 3) + 4
    for size in (2 * L, 2 * L + 40):
        if kind == "grid":
            grid = Grid(-0.125 * (size - 1), 0.125 * (size - 1), size)
            kernel, x = DiscreteEnergy(grid, n), grid.nodes()
            u = (1.0 if well else 0.0) + 0.05 * np.sin(x)
            mass = kernel.q
        else:
            kernel = energy._SplineKernel(n, (-size / 4, size / 4), size, n + 3, n)
            x = kernel.greville
            u = kernel.coefficients((1.0 if well else 0.0) + 0.05 * np.sin(x))
            t, p = kernel.knots, kernel.p
            # the integrals of the free B-splines
            mass = ((t[p + 1:] - t[:-p - 1]) / (p + 1))[kernel.free]
        assert kernel._repeat == ((0, 0) if size == 2 * L else (L, size - 2 * L))
        for border in (None, mass):
            (step,) = step_systems(
                monkeypatch, kernel, u, quartic, c, border, [u[kernel.free]]
            )
            whole = BandedSystem(
                kernel.hess(u, quartic, c), kernel.bandwidth, border, symmetric=True
            )
            assert step.symmetric and step.curved is not None
            assert whole.curved is None and whole.repeat == (0, 0)
            systems += [step, whole]
    return systems


def as_lu(system):
    """The same system, not declared symmetric: factored by gbsv alone."""
    return BandedSystem(system.band, system.lo, system.c, system.curved, system.repeat)


EPS = np.finfo(float).eps


def backward_errors(system, rhs, tau, x):
    """The normwise backward error of x as a solution of the system shifted
    by tau, in units of machine epsilon (Rigal & Gaches, J. ACM 14, 1967):
    ||r - A x|| / (||A|| ||x|| + ||r||) in the sup-norm, the residual taken
    after the best multiplier of the constraint row c if there is one, and
    |c^T x| / (||c||_1 ||x||)."""
    ab, b = system.ab, system.lo
    m = ab.shape[1]
    i, j = np.indices((m, m))
    inside = np.abs(i - j) <= b
    A = np.zeros((m, m))
    A[inside] = ab[(b + i - j)[inside], j[inside]]
    A += tau * np.eye(m)
    scale = np.abs(A).sum(axis=1).max() * np.abs(x).max()
    residual, c = rhs - A @ x, system.c
    if c is None:
        return np.abs(residual).max() / (scale + np.abs(rhs).max()) / EPS, 0.0
    residual -= (c @ residual) / (c @ c) * c
    return (
        np.abs(residual).max() / (scale + np.abs(rhs).max()) / EPS,
        abs(c @ x) / (np.abs(c).sum() * np.abs(x).max()) / EPS,
    )


@pytest.mark.parametrize("kind, n", ENERGY_KERNELS)
def test_cholesky_solves_positive_definite_bands_as_gbsv_does(kind, n, quartic, monkeypatch):
    # near a well every shifted Hessian is positive definite: the
    # symmetric system runs pbsv alone, and its solution, like gbsv's for
    # the same system, has a normwise backward error of at most 2 (b + 1)
    # machine epsilons, about three times the largest measured on these
    # systems (Cholesky's bound grows with the b + 1 terms of each inner
    # product of a band factor: Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., thm 10.4)
    for system in symmetric_systems(monkeypatch, kind, n, quartic, well=True):
        rhs = np.cos(np.arange(len(system.diag)))
        bound = 2.0 * (system.lo + 1)
        reference = as_lu(system)
        for tau in (0.0, 10.0):
            calls = counted_lapack(monkeypatch)
            x = system.solve(rhs, tau)
            assert calls == [("pbsv", 1 if system.c is None else 2, 0)]
            assert max(backward_errors(system, rhs, tau, x)) <= bound
            x_lu = reference.solve(rhs, tau)
            assert max(backward_errors(reference, rhs, tau, x_lu)) <= bound
        assert system.factorizations == reference.factorizations == 2


@pytest.mark.parametrize("kind, n", ENERGY_KERNELS)
def test_an_indefinite_leading_block_solves_with_the_bits_of_gbsv(
    kind, n, quartic, monkeypatch
):
    # between the wells W'' < 0 and the leading block is not positive
    # definite: pbsv says so, and the one gbsv after it on the same work
    # array solves with the bits of the system not declared symmetric;
    # the pair counts one factorization
    for system in symmetric_systems(monkeypatch, kind, n, quartic, well=False):
        rhs = np.cos(np.arange(len(system.diag)))
        calls = counted_lapack(monkeypatch)
        x = system.solve(rhs)
        k = 1 if system.c is None else 2
        assert [call[:2] for call in calls] == [("pbsv", k), ("gbsv", k)]
        assert calls[0][2] > 0 and calls[1][2] == 0
        assert system.factorizations == 1
        assert x.tobytes() == as_lu(system).solve(rhs).tobytes()


def test_factorizations_count_each_system_once_whichever_routines_ran(monkeypatch):
    # the stiff nonconvex run of the gbsv count test, its systems declared
    # symmetric: the low rungs of the tau ladder are indefinite, so pbsv
    # fails there and gbsv follows, and the high rungs and the steps near
    # the minimizer are positive definite; every shifted system factored
    # counts once, with one pbsv, whether a gbsv followed or not
    scale = 1e12
    args = (
        lambda x: scale * fun(x),
        lambda x: scale * grad(x),
        lambda x: as_system(scale * hess_matrix(x), symmetric=True),
        X0,
    )
    calls = counted_lapack(monkeypatch)
    x, info = damped_newton(*args, line=differenced(args[0]), gtol=1e-2)
    cholesky = [call for call in calls if call[0] == "pbsv"]
    assert info.factorizations == len(cholesky)
    assert any(call[2] > 0 for call in cholesky)
    assert any(call[2] == 0 for call in cholesky)
    for before, call in zip([None, *calls], calls):
        if call[0] == "gbsv":
            assert before[0] == "pbsv" and before[2] > 0
    assert len(calls) == len(cholesky) + sum(call[2] > 0 for call in cholesky)


def test_the_quotient_and_not_a_knot_factor_by_lu_only(quartic, monkeypatch):
    # neither declares its system symmetric: the quotient's Hessian is
    # singular along v (the quotient is scale invariant), and the
    # not-a-knot collocation matrix is not symmetric
    calls = counted_lapack(monkeypatch)
    kernel = energy._SplineKernel(2, (0.0, 1.0), 1, critical.POLY_DEGREE, 0)
    _, grad_q, system_q = critical._quotient_functions(kernel, quartic)
    v = np.cos(3.0 * np.arange(critical.POLY_DEGREE + 1))
    system = system_q(v)
    assert not system.symmetric
    system.solve(-grad_q(v))
    BSpline.not_a_knot(Field.from_callable(Grid(-2.0, 3.0, 501), np.tanh))
    assert calls == [("gbsv", 1, 0), ("gbsv", 1, 0)]


@pytest.mark.parametrize("n", range(1, 7))
def test_gram_diagonals_fill_the_interior_with_the_same_bits(n):
    # the K bands (the diagonals of the Gram matrices K), scattered from
    # every element up to N = 2L and past it kept with one interior column
    # that `BandedSystem` writes out, equal those of the CSR triple product
    # 2 D^T diag(q) D of the reference stencils bit for bit, at every size
    # up to past 4L and at the largest grid of the sweep
    m = n + ACCURACY_ORDER
    L = 2 * m + 2
    for num_points in [*range(m, 4 * L + 3), 16385]:
        grid = Grid(-1.3, 2.1, num_points)
        kernel = DiscreteEnergy(grid, n)
        b = kernel.bandwidth
        for band, product in zip(written_bands(kernel), quadratic_forms(grid, n)):
            np.testing.assert_array_equal(band, to_band(product, b, b))


def full_scatter(kernel):
    """The K bands of a kernel with no proxy: every element matrix of
    `_elements`, added onto zeros in ascending element order."""
    E, b, m = kernel.num_elements, kernel.bandwidth, kernel.num_free
    starts, weights, tables = kernel._elements(np.arange(E))
    M = (tables * (2.0 * weights)[:, :, None]).swapaxes(-1, -2) @ tables
    bands = np.zeros((2, 2 * b + 1, m))
    a = np.arange(b + 1)
    for e, s in enumerate(starts):
        i, j = np.broadcast_arrays(s + a[:, None], s + a)
        inside = (i >= 0) & (i < m) & (j >= 0) & (j < m)
        bands[:, b + i[inside] - j[inside], j[inside]] += M[:, e][:, inside]
    return bands


@pytest.mark.parametrize("n", range(2, 7))
def test_spline_bands_fill_the_interior_with_the_same_bits(n):
    # past 2L elements the spline's K bands keep one interior column, and
    # written out by `BandedSystem` they have the bits of scattering every
    # element
    for kernel in (
        _profile_kernel(n, 10.0, 0.25),
        energy._SplineKernel(n, (-4.0, 4.0), 2048, n + 3, n),
    ):
        assert kernel.num_elements > 2 * (2 * kernel.bandwidth + 4)
        expected = full_scatter(kernel)
        assert written_bands(kernel).tobytes() == expected.tobytes()


def minimize_recording(monkeypatch, minimize, rebuilt):
    """minimize() with a driver that records the iterate of every step and,
    given rebuilt, is fed the system rebuilt(z) at every step in place of
    the one the kernel builds; returns minimize's result, the driver's
    SolveInfo and the iterates."""
    iterates, infos = [], []

    def driver(fun, grad, hess, x0, **kwargs):
        def system(z):
            iterates.append(z.copy())
            return hess(z) if rebuilt is None else rebuilt(z)

        z, info = damped_newton(fun, grad, system, x0, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(energy, "damped_newton", driver)
    out = minimize()
    return out[0], infos[0], iterates


@pytest.mark.parametrize("case", ("profile n = 3", "mass n = 2"))
def test_minimize_takes_the_steps_of_a_rebuilt_hessian(case, quartic, monkeypatch):
    # the constant part of each Newton matrix is built once per solve: the
    # profile spline adds each step's W'' band to it, the grid kernel its
    # diagonal; a driver fed the whole `hess` at every step, declared
    # symmetric as the kernel's systems are, takes the same steps, bit for
    # bit
    if case == "profile n = 3":
        kernel = _profile_kernel(3, 5.0, PROFILE_H)
        c, free = (1.0, -0.01, 1.0), kernel.free
        u0 = kernel.coefficients(np.tanh(kernel.greville))

        def minimize():
            return kernel.minimize(u0, quartic, c, PROFILE_GTOL, PROFILE_MAXITER)

        def rebuilt(z):
            u = u0.copy()
            u[free] = z
            return BandedSystem(kernel.hess(u, quartic, c), kernel.p, symmetric=True)
    else:
        grid = Grid(-4.0, 4.0, 513)
        kernel = DiscreteEnergy(grid, 2)
        u0 = np.tanh(grid.nodes() / 0.3) + 0.25
        c = EnergyParams(2, 0.25, 0.01).weights

        def minimize():
            return kernel.minimize(
                u0, quartic, c, PROFILE_GTOL, PROFILE_MAXITER, constraint=kernel.q
            )

        def rebuilt(z):
            return BandedSystem(
                kernel.hess(z, quartic, c), kernel.bandwidth, kernel.q, symmetric=True
            )

    u, info, iterates = minimize_recording(monkeypatch, minimize, None)
    u_ref, info_ref, iterates_ref = minimize_recording(monkeypatch, minimize, rebuilt)
    assert info.iterations > 1
    np.testing.assert_array_equal(u, u_ref)
    assert len(iterates) == len(iterates_ref)
    for z, z_ref in zip(iterates, iterates_ref):
        np.testing.assert_array_equal(z, z_ref)
    assert (info.iterations, info.factorizations, info.message, info.energy) == (
        info_ref.iterations, info_ref.factorizations, info_ref.message, info_ref.energy,
    )

    def timeless(history):
        return [{k: v for k, v in h.items() if k != "elapsed_s"} for h in history]

    assert timeless(info.history) == timeless(info_ref.history)
