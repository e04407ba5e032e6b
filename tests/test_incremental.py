"""Quasistatic evolution by incremental minimization.

What is verified:
  1. Load program and option validation.
  2. Below the threshold the trajectory is identically zero (to solver
     tolerance) and no flow is reported.
  3. A medium-resolution run detects the threshold at the known value for
     lam = 1.179812 (theta_Y = 2 to six digits) within one load step.
  4. Energetic-solution certificates: stability residual at every accepted
     state, energy-balance residual decaying roughly linearly in the step.
  5. The accepted state is a fixed point of re-minimization, and small
     unloading leaves it unchanged (rate-independent hysteresis).
  6. increment_solve agrees with an exhaustive two-stage grid search of the
     same discrete objective on a 4-cell mesh (3 free nodes).
  7. Failure paths raise SolverError carrying residual and step context;
     kappa = 0 (no stored energy, unbounded flow past yield) is rejected
     with ValueError before any solve.
  8. The clamped discrete yield threshold is bracketed tightly by a primal
     profile and an equality-feasible dual field; below the bracket an
     increment from the virgin state is the exact zero field without any
     Newton iteration, above it the strip flows.  A property test over
     (lam, Lambda, kappa, theta, n_cells) checks that increments from the
     virgin state are finite or raise SolverError, are exact zeros below
     the bracket, and never exceed the zero field's E_tot + Psi by more
     than stability_tol.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripshear import (
    DEFAULT_EPSILON_SCHEDULE,
    DEFAULT_OPTIONS,
    Field,
    LoadProgram,
    NondimParams,
    SolverError,
    SolverOptions,
    detect_yield,
    dissipation,
    energy_balance_residual,
    evolve,
    increment_solve,
    make_mesh,
    stability_residual,
    total_energy,
)
from stripshear import incremental

P_REF = NondimParams(lam=1.179812, Lambda=1.0, kappa=1.0)


@pytest.fixture(scope="module")
def mini_run():
    """Shared run past yield: lam tuned so theta_Y = 2, steps of 0.04."""
    load = LoadProgram(tuple(np.linspace(0.0, 2.4, 61)))
    return evolve(load, P_REF, make_mesh(128))


# ------------------------------------------------------------------ validation


def test_load_program_validation():
    with pytest.raises(ValueError):
        LoadProgram((0.5, 1.0))
    with pytest.raises(ValueError):
        LoadProgram((0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        LoadProgram((0.0, math.nan))
    with pytest.raises(ValueError):
        LoadProgram(())


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(epsilon_schedule=())
    with pytest.raises(ValueError):
        SolverOptions(epsilon_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        SolverOptions(max_newton_iters=0)
    assert DEFAULT_OPTIONS.newton_tol == 1e-9
    assert DEFAULT_OPTIONS.epsilon_schedule == DEFAULT_EPSILON_SCHEDULE
    assert all(
        b < a for a, b in zip(DEFAULT_EPSILON_SCHEDULE, DEFAULT_EPSILON_SCHEDULE[1:])
    )


# ------------------------------------------------------------- below threshold


def test_below_yield_stays_zero():
    load = LoadProgram(tuple(np.linspace(0.0, 1.5, 16)))  # theta_Y = 2 here
    traj = evolve(load, P_REF, make_mesh(64))
    for s in traj.steps:
        assert float(np.max(np.abs(s.gamma.values))) <= 1e-8
        assert abs(s.dissipation_increment) <= 1e-8
    detected = detect_yield(traj)
    assert not detected.flow_observed
    assert energy_balance_residual(traj) <= 1e-9


def test_trajectory_bookkeeping():
    thetas = (0.0, 0.5, 1.0)
    traj = evolve(LoadProgram(thetas), P_REF, make_mesh(32))
    assert traj.mesh.n_cells == 32
    assert len(traj.steps) == 3
    assert tuple(s.theta for s in traj.steps) == thetas
    assert np.all(traj.steps[0].gamma.values == 0.0)
    assert traj.steps[0].dissipation_increment == 0.0


# ----------------------------------------------------------- yield and beyond


def test_detects_threshold_within_one_step(mini_run):
    detected = detect_yield(mini_run)
    assert detected.flow_observed
    assert abs(detected.uncertainty - 0.04) <= 1e-12
    assert abs(detected.theta - 2.0) <= detected.uncertainty + 1e-6


def test_flow_grows_monotonically_past_yield(mini_run):
    gmax = [float(np.max(np.abs(s.gamma.values))) for s in mini_run.steps]
    assert gmax[-1] > 1e-2
    assert all(b >= a - 1e-12 for a, b in zip(gmax, gmax[1:]))


def test_stability_residual_along_run(mini_run):
    for s in mini_run.steps[:: max(1, len(mini_run.steps) // 8)]:
        assert stability_residual(s.gamma, s.theta, P_REF) <= 1e-8


def test_energy_balance_residual_first_order():
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    mesh = make_mesh(64)
    r_coarse = energy_balance_residual(
        evolve(LoadProgram(tuple(np.linspace(0.0, 2.2, 31))), p, mesh)
    )
    r_fine = energy_balance_residual(
        evolve(LoadProgram(tuple(np.linspace(0.0, 2.2, 61))), p, mesh)
    )
    assert r_coarse > 0.0
    assert r_fine <= 0.7 * r_coarse


def test_accepted_state_is_fixed_point(mini_run):
    last = mini_run.steps[-1]
    resolved = increment_solve(last.gamma, last.theta, P_REF)
    drift = float(np.max(np.abs(resolved.values - last.gamma.values)))
    assert drift <= 1e-5


def test_small_unload_leaves_state_frozen(mini_run):
    # rate-independent hysteresis: a modest stress drop is purely elastic
    last = mini_run.steps[-1]
    unloaded = increment_solve(last.gamma, last.theta - 0.5, P_REF)
    assert float(np.max(np.abs(unloaded.values - last.gamma.values))) <= 1e-8


# --------------------------------------------------- exhaustive increment oracle


def _objective_grid(candidates, theta, p, dr):
    """Vectorized E_tot + Psi for (M, 5) nodal candidates, zero boundaries."""
    a = candidates[:, :-1]
    b = candidates[:, 1:]
    sq = np.sum(a * a + a * b + b * b, axis=1) * dr / 3.0
    grad = np.sum((b - a) ** 2, axis=1) / dr
    energy = 0.5 * p.kappa * (sq + p.Lambda**2 * grad)
    work = theta * dr * np.sum(candidates, axis=1)
    tq, wq = np.polynomial.legendre.leggauss(3)
    tq = 0.5 * (tq + 1.0)
    wq = 0.5 * wq
    slope = (b - a) / dr
    u = a[:, :, None] + (b - a)[:, :, None] * tq[None, None, :]
    psi = dr * np.sum(
        np.sqrt(u * u + (p.lam * slope[:, :, None]) ** 2) @ wq, axis=1
    )
    return energy - work + psi


def test_increment_matches_grid_search():
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    mesh = make_mesh(4)
    theta = 3.0
    newton = increment_solve(Field.zeros(mesh), theta, p)

    coarse = np.arange(-0.5, 2.5 + 1e-12, 0.05)
    axes = [coarse, coarse, coarse]
    for step in (0.05, 2e-3):
        g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
        cand = np.zeros((g1.size, 5))
        cand[:, 1] = g1.ravel()
        cand[:, 2] = g2.ravel()
        cand[:, 3] = g3.ravel()
        vals = _objective_grid(cand, theta, p, mesh.dr)
        best = cand[int(np.argmin(vals))]
        # refine: a +-0.06 window around the coarse best at step 2e-3
        axes = [c + np.arange(-30, 31) * 2e-3 for c in best[1:4]]

    assert float(np.max(np.abs(best - newton.values))) <= 2.0 * 2e-3
    # the grid minimum can never undercut the true minimizer
    e_newton = total_energy(theta, newton, p) + dissipation(newton, p.lam)
    assert float(np.min(vals)) >= e_newton - 1e-10


# ---------------------------------------------------------------- failure paths


def test_strangled_budget_raises_solver_error():
    opts = SolverOptions(epsilon_schedule=(1e-11,), max_newton_iters=1)
    with pytest.raises(SolverError) as exc:
        increment_solve(Field.zeros(make_mesh(32)), 2.5, P_REF, opts)
    assert math.isfinite(exc.value.residual)
    assert exc.value.residual > 0.0


def test_evolve_attaches_step_context():
    # one Newton iteration cannot even absorb the smoothing at theta = 0.5,
    # so the walk dies at the first nonzero load step and must say which
    opts = SolverOptions(epsilon_schedule=(1e-11,), max_newton_iters=1)
    load = LoadProgram((0.0, 0.5, 2.5))
    with pytest.raises(SolverError) as exc:
        evolve(load, P_REF, make_mesh(32), opts)
    assert exc.value.step == 1
    assert "load step 1" in str(exc.value)


def test_zero_kappa_is_rejected():
    # without the check Newton ran off to max|gamma| ~ 1e76 and returned it
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=0.0)
    with pytest.raises(ValueError, match="kappa"):
        increment_solve(Field.zeros(make_mesh(64)), 3.0, p)
    with pytest.raises(ValueError, match="kappa"):
        evolve(LoadProgram((0.0, 1.5, 3.0)), p, make_mesh(64))


# ------------------------------------------------------- pre-yield certificate


def _adjoint(xi_u, xi_s, mesh, lam):
    """c(xi) = sum over Gauss points of dr w (xi_u phi + xi_s lam phi'), looped."""
    t, w = np.polynomial.legendre.leggauss(3)
    t, w = (t + 1.0) / 2.0, w / 2.0
    c = np.zeros(mesh.n_cells + 1)
    for i in range(mesh.n_cells):
        for q in range(3):
            slope = lam / mesh.dr * xi_s[q, i]
            c[i] += mesh.dr * w[q] * ((1.0 - t[q]) * xi_u[q, i] - slope)
            c[i + 1] += mesh.dr * w[q] * (t[q] * xi_u[q, i] + slope)
    return c


@pytest.mark.parametrize("n_cells", [2, 4, 64, 512])
@pytest.mark.parametrize("lam", [1e-3, 0.1, 1.179812, 10.0, 100.0])
def test_threshold_bracket(lam, n_cells):
    mesh = make_mesh(n_cells)
    dual = incremental._threshold_dual(mesh, lam, DEFAULT_OPTIONS)
    assert 0.0 < dual.lower <= dual.upper
    assert (dual.upper - dual.lower) / dual.upper <= 1e-6
    m = mesh.dr * np.ones(n_cells - 1)  # interior trapezoid weights
    c = _adjoint(dual.xi_u, dual.xi_s, mesh, lam)[1:-1]
    assert float(np.max(np.abs(c - m))) <= 1e-13 * float(m.max())
    # the primal witness: a clamped field whose ratio is the upper bound
    v = Field(mesh, dual.v)
    assert dual.upper == pytest.approx(dissipation(v, lam) / float(m @ dual.v[1:-1]))
    # no worse than the flat interior competitor; above the local threshold 1
    flat = Field(mesh, np.r_[0.0, np.ones(n_cells - 1), 0.0])
    assert dual.upper <= dissipation(flat, lam) / float(m.sum())
    assert 1.0 < dual.lower


def test_virgin_increment_below_bracket_skips_newton(monkeypatch):
    mesh = make_mesh(64)
    p = NondimParams(lam=0.3, Lambda=2.0, kappa=0.5)
    lower, upper = incremental._threshold_bracket(mesh.n_cells, p.lam, DEFAULT_OPTIONS)
    calls = []
    newton = incremental.damped_newton

    def counting(*args, **kwargs):
        calls.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(incremental, "damped_newton", counting)
    for theta in (0.999 * lower, -0.999 * lower):
        rest = increment_solve(Field.zeros(mesh), theta, p)
        assert rest.values.tobytes() == np.zeros(mesh.n_cells + 1).tobytes()
    assert calls == []
    flowing = increment_solve(Field.zeros(mesh), 1.001 * upper, p)
    assert calls
    assert float(np.max(np.abs(flowing.values))) > DEFAULT_OPTIONS.yield_tol


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(1e-3, 1e2),
    half_cells=st.integers(1, 64),
    Lambda=st.floats(0.1, 10.0),
    kappa=st.floats(0.1, 10.0),
    load=st.floats(0.0, 1.5),
)
def test_virgin_increment_properties(lam, half_cells, Lambda, kappa, load):
    mesh = make_mesh(2 * half_cells)
    p = NondimParams(lam=lam, Lambda=Lambda, kappa=kappa)
    lower, upper = incremental._threshold_bracket(mesh.n_cells, lam, DEFAULT_OPTIONS)
    theta = load * upper
    try:
        gamma = increment_solve(Field.zeros(mesh), theta, p)
    except SolverError:
        return
    assert np.isfinite(gamma.values).all()
    if theta <= lower:
        assert not gamma.values.any()
    # the zero field has E_tot + Psi = 0
    energy = total_energy(theta, gamma, p) + dissipation(gamma, lam)
    assert energy <= DEFAULT_OPTIONS.stability_tol
