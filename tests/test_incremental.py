"""Quasistatic evolution by incremental minimization.

What is verified:
  1. Load program and trajectory validation (no steps, a negative
     dissipation increment); increment_solve refuses a non-finite load,
     increment_solve and stability_residual a gamma with a nonzero face
     value, and detect_yield reports a trajectory that flows at its first
     load at that load.
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
  7. Failure paths raise SolverError carrying residual and step context
     (a Newton budget strangled by patching the one solver configuration);
     kappa = 0 (no stored energy, unbounded flow past yield) is rejected
     with ValueError before any solve.  A state so large that the
     objective's terms overflow raises SolverError in increment_solve and
     stability_residual instead of passing as converged (and as exactly
     stable); one just below overflow still gets its finite defect.  Where
     n_cells (1 + lam) is so large that the bracket certifies nothing
     (lam = 3e11, 512 cells), an increment below the threshold that cannot
     be certified raises SolverError rather than return its raw field.
     stability_residual never consults the certificate: with
     stability_bound and threshold_bracket patched to raise, it still
     returns a bump's value bit for bit and 0 for the zero state at half
     the bracket's lower bound, while increment_solve hits the patch.
  8. The clamped discrete yield threshold is bracketed tightly by a primal
     profile and an equality-feasible dual field.  The dual Gram matrix
     _p1.energy_banded(mesh, 1.0, lam^2), which the kernel caches as the
     SmoothedDissipation.gram every dual correction solves with, is the
     Gauss(3) assembly of int phi_i phi_j + lam^2 phi_i' phi_j' to 1e-14
     relative, and energy_banded(mesh, a, b) is that of
     int a phi_i phi_j + b phi_i' phi_j' with either coefficient zero.
     Where n_cells (1 + lam) >= 1e14 the dual field's roundoff margin
     certifies nothing: the bracket's lower bound is 0, not
     negative, and a zero state past yield is not certified stable.  The
     oracle, with threshold_bracket patched to raise, confirms the bracket:
     the zero state's defect is exactly 0 at 0.5, 1 and -1 times the lower
     bound, and positive at 1.001 times the upper bound.  The bracket's
     solve starts from the closed-form onset profile at the last smoothing
     level: at most 8 objective evaluations at 512 cells for lam in
     {0.5, 1.179812, 2}, and past theta_of_lambda's domain (lam = 1e-10,
     1e15) it still returns 0 <= lower <= upper.  At 512 cells and
     lam = 1e13, where its Newton spends the budget inside the roundoff
     floor, it raises SolverError.
     Below the bracket an increment from the virgin state is the exact
     zero field without any Newton iteration, above it the strip flows.  A property test over
     (lam, Lambda, kappa, theta, n_cells) checks that increments from the
     virgin state are finite or raise SolverError, are exact zeros below
     the bracket, never exceed the zero field's E_tot + Psi by more than
     stability_tol, and carry a stability bound within stability_tol.
  9. The stability certificate evolve records is an upper bound that is not
     vacuous: on the README sweep it dominates the re-minimization oracle
     and stays within stability_tol, on states pushed off the minimizer it
     is positive and still dominates the oracle, evolve refuses a state it
     cannot certify, and over (lam, Lambda, kappa, n_cells) a load, unload,
     reload cycle of certified increments ends finite and certified or
     raises SolverError.
 10. The warm-started solve at the last smoothing level: on the README
     sweep it needs under a tenth of the whole schedule's objective
     evaluations with no retry, and every flowed state, the first one from
     the virgin state included, is within 1e-6 of the whole schedule's
     from the same previous state; a virgin increment above the bracket,
     started from the scaled threshold witness, takes at most 10
     evaluations; a warm solve that raises or fails its certificate is
     redone down the whole schedule, which solve_certified then returns
     bit for bit, with the retry counted.
 11. A zero step between zero states costs no functional evaluation: the
     README sweep at 512 cells calls total_energy once per flowed state,
     and the zero steps record the +0.0 that total_energy and dissipation
     give there.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripshear import (
    DEFAULT_OPTIONS,
    Field,
    LoadProgram,
    NondimParams,
    SolverError,
    detect_yield,
    dissipation,
    energy_balance_residual,
    evolve,
    increment_solve,
    make_mesh,
    stability_residual,
    theta_of_lambda,
    total_energy,
)
from stripshear import _p1, incremental, yield_stress

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


def test_trajectory_validation():
    step = incremental.TrajectoryStep(0.0, Field.zeros(make_mesh(8)), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="at least one step"):
        incremental.Trajectory(P_REF, ())
    negative = step._replace(dissipation_increment=-1e-300)
    with pytest.raises(ValueError, match="increments must be nonnegative"):
        incremental.Trajectory(P_REF, (step, negative))


def test_increment_solve_refuses_a_non_finite_load():
    with pytest.raises(ValueError, match="theta must be finite"):
        increment_solve(Field.zeros(make_mesh(8)), math.nan, P_REF)


def test_solves_refuse_an_unclamped_gamma():
    gamma = Field(make_mesh(8), np.r_[np.zeros(8), 1e-3])
    for solve in (increment_solve, stability_residual):
        with pytest.raises(ValueError, match="homogeneous boundary values"):
            solve(gamma, 0.5, P_REF)


def test_flow_at_the_first_step_is_reported_there():
    # a hand-built trajectory that has flowed already at its first load
    flowed = Field(make_mesh(8), np.r_[0.0, np.full(7, 1e-3), 0.0])
    steps = [incremental.TrajectoryStep(theta, flowed, 0.0, 0.0, 0.0) for theta in (0.5, 0.75)]
    detected = detect_yield(incremental.Trajectory(P_REF, steps))
    assert detected == (0.5, 0.25, True)


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


@pytest.fixture
def strangled(monkeypatch):
    """One Newton iteration, straight at the last smoothing level."""
    budget = dataclasses.replace(
        DEFAULT_OPTIONS, epsilon_schedule=(1e-11,), max_newton_iters=1
    )
    for module in (_p1, incremental, yield_stress):
        monkeypatch.setattr(module, "DEFAULT_OPTIONS", budget)
    # brackets certified under the real budget would spare the virgin steps
    yield_stress.threshold_bracket.cache_clear()
    yield
    yield_stress.threshold_bracket.cache_clear()


def test_strangled_budget_raises_solver_error(strangled):
    with pytest.raises(SolverError) as exc:
        increment_solve(Field.zeros(make_mesh(32)), 2.5, P_REF)
    assert math.isfinite(exc.value.residual)
    assert exc.value.residual > 0.0


def test_evolve_attaches_step_context(strangled):
    # one Newton iteration cannot even absorb the smoothing at theta = 0.5,
    # so the walk dies at the first nonzero load step and must say which
    load = LoadProgram((0.0, 0.5, 2.5))
    with pytest.raises(SolverError) as exc:
        evolve(load, P_REF, make_mesh(32))
    assert exc.value.step == 1
    assert "load step 1" in str(exc.value)


def _sine_bump(amplitude):
    mesh = make_mesh(8)
    values = amplitude * np.cos(0.5 * np.pi * mesh.nodes)
    values[0] = values[-1] = 0.0
    return Field(mesh, values)


@pytest.mark.parametrize("amplitude", [1e154, 1e300])
def test_an_overflowing_objective_raises(amplitude):
    # the objective's term magnitudes overflow to inf, and with them the
    # roundoff floor, below which every decrement would pass as converged
    gamma = _sine_bump(amplitude)
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    with pytest.raises(SolverError, match="overflows"):
        increment_solve(gamma, 2.0, p)
    with pytest.raises(SolverError, match="overflows"):
        stability_residual(gamma, 2.0, p)


def test_a_large_finite_objective_keeps_its_defect():
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    defect = stability_residual(_sine_bump(1e150), 2.0, p)
    assert 1e300 < defect < math.inf


def test_zero_kappa_is_rejected():
    # without the check Newton ran off to max|gamma| ~ 1e76 and returned it
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=0.0)
    with pytest.raises(ValueError, match="kappa"):
        increment_solve(Field.zeros(make_mesh(64)), 3.0, p)
    with pytest.raises(ValueError, match="kappa"):
        evolve(LoadProgram((0.0, 1.5, 3.0)), p, make_mesh(64))


def test_increment_solve_refuses_an_uncertified_increment():
    # past n_cells (1 + lam) = 1e14 the bracket's lower bound is 0, so the
    # virgin increment at half the threshold runs Newton, which stops at
    # max|gamma| ~ 1e-23 short of the exact zero, and its certificate
    # reads ~4e-4
    lam = 3e11
    p = NondimParams(lam=lam, Lambda=1.0, kappa=1.0)
    with pytest.raises(SolverError, match="not certified") as exc:
        increment_solve(Field.zeros(make_mesh(512)), 0.5 * theta_of_lambda(lam), p)
    assert exc.value.residual > DEFAULT_OPTIONS.stability_tol


def test_the_oracle_never_consults_the_certificate(monkeypatch):
    mesh = make_mesh(64)
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    lower = yield_stress.threshold_bracket(mesh.n_cells, p.lam)[0]
    bump = 0.01 * np.sin(0.5 * np.pi * (mesh.nodes + 1.0))
    bump[0] = bump[-1] = 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate was consulted")

    monkeypatch.setattr(incremental._IncrementProblem, "stability_bound", refuse)
    monkeypatch.setattr(incremental, "threshold_bracket", refuse)
    # the value of the raw re-minimization, bit for bit
    assert stability_residual(Field(mesh, bump), 3.0, p) == 0.2509104771468249
    # the zero state at rest is re-minimized too, not read off the bracket
    assert stability_residual(Field.zeros(mesh), 0.5 * lower, p) == 0.0
    # while a public increment goes through the certificate
    with pytest.raises(AssertionError, match="certificate was consulted"):
        increment_solve(Field.zeros(mesh), 3.0, p)


# ------------------------------------------------------- pre-yield certificate


@pytest.mark.parametrize("lam, n_cells", [(0.01, 64), (1.0, 8), (1.0, 512), (10.0, 64)])
def test_the_bracket_free_oracle_confirms_the_bracket(monkeypatch, lam, n_cells):
    mesh = make_mesh(n_cells)
    p = NondimParams(lam=lam, Lambda=1.0, kappa=1.0)
    lower, upper, _ = yield_stress.threshold_bracket(n_cells, lam)

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket was consulted")

    monkeypatch.setattr(incremental, "threshold_bracket", refuse)
    rest = Field.zeros(mesh)
    # the virgin state is stable up to the bracket's lower bound, by a
    # re-minimization that never reads the bracket
    for theta in (0.5 * lower, lower, -lower):
        assert stability_residual(rest, theta, p) == 0.0
    # and unstable just past its upper bound
    assert stability_residual(rest, 1.001 * upper, p) > 0.0


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
    lower, upper, v = yield_stress.threshold_bracket(n_cells, lam)
    assert 0.0 < lower <= upper
    assert (upper - lower) / upper <= 1e-6
    m = mesh.dr * np.ones(n_cells - 1)  # interior trapezoid weights
    # the dual field the lower bound certifies, rebuilt from the witness
    psi = _p1.SmoothedDissipation(mesh, lam)
    rad = psi.radius(v, 1e-11)
    g = psi.grad_hess(rad)[0][1:-1]
    xi_u, xi_s = _p1._dual_field(psi, rad, g, float(m @ g) / float(m @ m), m)
    c = _adjoint(xi_u, xi_s, mesh, lam)[1:-1]
    assert float(np.max(np.abs(c - m))) <= 1e-13 * float(m.max())
    # the primal witness: a clamped field whose ratio is the upper bound
    witness = Field(mesh, v)
    assert upper == pytest.approx(dissipation(witness, lam) / float(m @ v[1:-1]))
    # no worse than the flat interior competitor; above the local threshold 1
    flat = Field(mesh, np.r_[0.0, np.ones(n_cells - 1), 0.0])
    assert upper <= dissipation(flat, lam) / float(m.sum())
    assert 1.0 < lower


@pytest.mark.parametrize(
    "n_cells, lam, certified",
    [(512, 3e11, False), (4096, 3e10, False), (512, 1e10, True)],
)
def test_dual_certificate_past_its_roundoff_margin(n_cells, lam, certified):
    # from n_cells (1 + lam) = 1e14 on, the roundoff margin is the whole
    # dual norm: the dual field certifies nothing, so the bracket's lower
    # bound is 0 and the zero state past yield keeps a positive bound
    lower, upper, _ = yield_stress.threshold_bracket(n_cells, lam)
    assert 0.0 <= lower <= upper
    assert (lower > 1.0) == certified
    mesh = make_mesh(n_cells)
    p = NondimParams(lam=lam, Lambda=1.0, kappa=1.0)
    zero = np.zeros(n_cells + 1)
    theta = 2.0 * theta_of_lambda(lam)
    bound = incremental._IncrementProblem(mesh, p).stability_bound(zero, zero, theta)
    assert bound > 1e18


@pytest.mark.parametrize("lam", [0.5, 1.179812, 2.0])
def test_threshold_bracket_starts_at_the_onset_profile(monkeypatch, lam):
    # the smoothing ladder from a flat field took 19-20 evaluations here;
    # the last level from the closed-form onset profile takes about 5
    calls = []
    newton = yield_stress.damped_newton

    def counting(x, evaluate, derivatives, tol):
        def counted(x):
            calls.append(1)
            return evaluate(x)

        return newton(x, counted, derivatives, tol)

    monkeypatch.setattr(yield_stress, "damped_newton", counting)
    yield_stress.threshold_bracket.cache_clear()
    lower, upper, _ = yield_stress.threshold_bracket(512, lam)
    assert 1.0 < lower <= upper
    assert 0 < len(calls) <= 8


@pytest.mark.parametrize("lam", [1e-10, 1e15])
def test_threshold_bracket_beyond_the_closed_form_domain(lam):
    # theta_of_lambda refuses both lam; NondimParams takes them
    lower, upper, _ = yield_stress.threshold_bracket(64, lam)
    assert 0.0 <= lower <= upper


def test_threshold_bracket_wandering_in_the_roundoff_floor_raises():
    # the bracket's Newton spends its whole budget wandering inside the
    # objective's roundoff floor, where the dual certifies nothing
    with pytest.raises(SolverError, match="did not reach tolerance"):
        yield_stress.threshold_bracket(512, 1e13)


@pytest.mark.parametrize("n_cells, lam", [(4, 0.3), (16, 2.0), (64, 100.0)])
def test_dual_gram_is_the_gauss_assembly(n_cells, lam):
    mesh = make_mesh(n_cells)
    t, w = np.polynomial.legendre.leggauss(3)
    t, w = (t + 1.0) / 2.0, w / 2.0
    phi = np.stack([1.0 - t, t])  # the left and right shapes at the points
    dphi = np.array([-1.0, 1.0]) / mesh.dr

    def gauss_assembly(a, b):
        """a Mq + b K, summed over the cells and Gauss points."""
        expect = np.zeros((n_cells + 1, n_cells + 1))
        for i in range(n_cells):
            for q in range(3):
                for j in (0, 1):
                    for k in (0, 1):
                        expect[i + j, i + k] += mesh.dr * w[q] * (
                            a * phi[j, q] * phi[k, q] + b * dphi[j] * dphi[k]
                        )
        return expect

    def dense(K):
        return np.diag(K[1]) + np.diag(K[0, 1:], 1) + np.diag(K[0, 1:], -1)

    expect = gauss_assembly(1.0, lam * lam)
    scale = float(np.max(np.abs(expect)))
    gram = _p1.SmoothedDissipation(mesh, lam).gram
    for K in (_p1.energy_banded(mesh, 1.0, lam * lam), gram):
        assert float(np.max(np.abs(dense(K) - expect))) <= 1e-14 * scale
    # each term alone: the coefficient form has no cross term
    for a, b in ((0.0, lam), (lam, 0.0)):
        expect = gauss_assembly(a, b)
        K = _p1.energy_banded(mesh, a, b)
        err = float(np.max(np.abs(dense(K) - expect)))
        assert err <= 1e-14 * float(np.max(np.abs(expect))), (a, b)


def test_virgin_increment_below_bracket_skips_newton(monkeypatch):
    mesh = make_mesh(64)
    p = NondimParams(lam=0.3, Lambda=2.0, kappa=0.5)
    lower, upper, _ = yield_stress.threshold_bracket(mesh.n_cells, p.lam)
    calls = []
    newton = _p1.damped_newton

    def counting(*args, **kwargs):
        calls.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(_p1, "damped_newton", counting)
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
    lower, upper, _ = yield_stress.threshold_bracket(mesh.n_cells, lam)
    theta = load * upper
    try:
        gamma = increment_solve(Field.zeros(mesh), theta, p)
    except SolverError:
        return
    assert np.isfinite(gamma.values).all()
    if theta <= lower:
        assert not gamma.values.any()
    zeros = np.zeros(mesh.n_cells + 1)
    prob = incremental._IncrementProblem(mesh, p)
    assert prob.stability_bound(zeros, gamma.values, theta) <= DEFAULT_OPTIONS.stability_tol
    # the zero field has E_tot + Psi = 0
    energy = total_energy(theta, gamma, p) + dissipation(gamma, lam)
    assert energy <= DEFAULT_OPTIONS.stability_tol


# ------------------------------------------------------ stability certificate


@pytest.fixture(scope="module")
def readme_sweep():
    """The README simulate sweep (theta_Y = 2, 300 steps to 3) at 128 cells."""
    return evolve(LoadProgram(tuple(np.linspace(0.0, 3.0, 301))), P_REF, make_mesh(128))


def test_stability_bound_dominates_oracle(readme_sweep):
    for s in readme_sweep.steps:
        oracle = stability_residual(s.gamma, s.theta, P_REF)
        assert oracle <= s.stability_bound <= DEFAULT_OPTIONS.stability_tol


@pytest.mark.parametrize("k", [250, 300])
def test_stability_bound_off_the_minimizer(readme_sweep, k):
    mesh = readme_sweep.mesh
    prob = incremental._IncrementProblem(mesh, P_REF)
    prev, state = readme_sweep.steps[k - 1], readme_sweep.steps[k]
    bump = 1e-3 * np.sin(0.5 * np.pi * (mesh.nodes + 1.0))
    bump[0] = bump[-1] = 0.0
    gamma = state.gamma.values
    oracles = []
    for pushed in (1.01 * gamma, 0.99 * gamma, gamma + bump, gamma - bump):
        bound = prob.stability_bound(prev.gamma.values, pushed, state.theta)
        oracle = stability_residual(Field(mesh, pushed), state.theta, P_REF)
        assert bound > 0.0 and bound >= oracle
        oracles.append(oracle)
    # less plastic strain than the minimizer is unstable, and the oracle sees it
    assert oracles[1] > DEFAULT_OPTIONS.stability_tol


def test_evolve_refuses_uncertified_state(monkeypatch):
    mesh = make_mesh(32)
    yield_stress.threshold_bracket(mesh.n_cells, P_REF.lam)
    newton = _p1.damped_newton

    def perturbed(*args, **kwargs):
        # short of the minimizer: less plastic strain leaves it unstable
        x, measure = newton(*args, **kwargs)
        return 0.99 * x, measure

    monkeypatch.setattr(_p1, "damped_newton", perturbed)
    with pytest.raises(SolverError) as exc:
        evolve(LoadProgram((0.0, 1.0, 2.4)), P_REF, mesh)
    assert exc.value.step == 2
    assert "load step 2" in str(exc.value) and "not certified" in str(exc.value)
    assert exc.value.residual > DEFAULT_OPTIONS.stability_tol


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(1e-3, 1e2),
    half_cells=st.integers(1, 32),
    Lambda=st.floats(0.1, 10.0),
    kappa=st.floats(0.1, 10.0),
    load=st.floats(0.0, 3.0),
)
def test_flowed_states_are_certified(lam, half_cells, Lambda, kappa, load):
    mesh = make_mesh(2 * half_cells)
    prob = incremental._IncrementProblem(
        mesh, NondimParams(lam=lam, Lambda=Lambda, kappa=kappa)
    )
    _, upper, _ = yield_stress.threshold_bracket(mesh.n_cells, lam)
    theta = load * upper
    gamma = np.zeros(mesh.n_cells + 1)
    for target in (theta, -theta, theta):  # load, unload through zero, reload
        try:
            gamma_next, bound = prob.solve_certified(gamma, target)
        except SolverError:
            return
        assert np.isfinite(gamma_next).all()
        assert 0.0 <= bound <= DEFAULT_OPTIONS.stability_tol
        gamma = gamma_next


# ------------------------------------------------------- warm-started ladder


def _whole_schedule(prob, gamma_prev, theta):
    schedule = DEFAULT_OPTIONS.epsilon_schedule
    return prob._descend(gamma_prev, theta, gamma_prev, schedule)


def test_warm_ladder_halves_the_evaluations(readme_sweep):
    # the whole schedule from gamma_prev took 3936 evaluations on this
    # sweep, the last level alone takes 338
    steps = readme_sweep.steps
    assert sum(s.evaluations for s in steps) <= 350
    assert not any(s.retried for s in steps)
    assert all(s.stability_bound <= DEFAULT_OPTIONS.stability_tol for s in steps)
    assert steps[0].evaluations == 0


def test_warm_ladder_matches_whole_schedule(readme_sweep):
    prob = incremental._IncrementProblem(readme_sweep.mesh, P_REF)
    flowed = 0
    for prev, state in zip(readme_sweep.steps, readme_sweep.steps[1:]):
        if not state.gamma.values.any():
            continue  # the certified zero field
        full = _whole_schedule(prob, prev.gamma.values, state.theta)
        assert float(np.max(np.abs(state.gamma.values - full))) <= 1e-6
        flowed += 1
    # the first flowed step, from the virgin state, is among them
    assert flowed >= 91


@pytest.mark.parametrize("load", [1.0001, 1.01, 1.2, 2.0, -1.5])
def test_virgin_increment_above_bracket_is_warm(load):
    # the whole schedule from zero took 13-74 evaluations here; the scaled
    # threshold witness leaves 3-7 at the last level
    mesh = make_mesh(128)
    prob = incremental._IncrementProblem(mesh, P_REF)
    upper = yield_stress.threshold_bracket(mesh.n_cells, P_REF.lam)[1]
    gamma, bound = prob.solve_certified(np.zeros(mesh.n_cells + 1), load * upper)
    assert prob.evaluations <= 10
    assert prob.retries == 0
    assert float(np.max(np.abs(gamma))) > 0.0
    assert bound <= DEFAULT_OPTIONS.stability_tol


def test_zero_steps_evaluate_no_functional(monkeypatch):
    calls = []
    energy = incremental.total_energy

    def counting(*args):
        calls.append(1)
        return energy(*args)

    monkeypatch.setattr(incremental, "total_energy", counting)
    load = LoadProgram(tuple(np.linspace(0.0, 3.0, 301)))
    traj = evolve(load, P_REF, make_mesh(512))
    flowed = [s for s in traj.steps if s.gamma.values.any()]
    assert len(flowed) == 100
    assert len(calls) == len(flowed)
    for s in traj.steps[: len(traj.steps) - len(flowed)]:
        # the same doubles, sign included, as the functionals give
        for got, want in (
            (s.total_energy, energy(s.theta, s.gamma, P_REF)),
            (s.dissipation_increment, dissipation(s.gamma, P_REF.lam)),
        ):
            assert got == want == 0.0
            assert math.copysign(1.0, got) == math.copysign(1.0, want) == 1.0


@pytest.mark.parametrize("failure", ["raises", "uncertified"])
def test_failed_warm_solve_falls_back_to_whole_schedule(
    readme_sweep, monkeypatch, failure
):
    prob = incremental._IncrementProblem(readme_sweep.mesh, P_REF)
    prev, state = readme_sweep.steps[250], readme_sweep.steps[251]
    gamma_prev = prev.gamma.values
    full = _whole_schedule(prob, gamma_prev, state.theta)
    ladder = incremental.ladder
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            return ladder(*args, **kwargs)
        if failure == "raises":
            raise SolverError("forced at the warm level", residual=1.0)
        return 0.99 * ladder(*args, **kwargs)  # short of the minimizer: unstable

    monkeypatch.setattr(incremental, "ladder", failing_first)
    retries = prob.retries
    gamma, bound = prob.solve_certified(gamma_prev, state.theta)
    assert len(calls) == 2
    assert prob.retries == retries + 1
    assert gamma.tobytes() == full.tobytes()
    assert bound <= DEFAULT_OPTIONS.stability_tol
