"""Power-law viscoplastic regularization and its rate-independent limit.

What is verified:
  1. Hardening laws (zero / linear / saturating Voce) and input validation
     for Hardening, ViscoParams, ViscoState, visco_step (a NaN or infinite
     gamma_init is refused as not finite), simulate_visco (a NaN load time
     is refused as not finite) and the limit study (a ramp must start at
     tau = 0).
  2. Scalar oracle: with both gradient lengths zero the flow rule decouples
     in the strip interior, so away from the clamped faces every node must
     match the root of a one-variable backward-Euler equation solved here
     by bisection.
  3. Below the threshold tau < S0 theta_Y the plastic shear vanishes as the
     rate exponent m -> 0 (creep is a pure regularization artifact).
  4. Thermodynamic consistency on a load-unload-reload cycle: per-step
     external plastic work minus stored-energy increment is nonnegative.
  5. Strength evolution: S frozen exactly at S0 for zero hardening,
     nondecreasing for linear and saturating laws under monotone load,
     saturating bounded by S_sat and dominated by the linear law.  The
     saturating step is the exact Voce solution at the step's flow rate: it
     matches the closed form, stays between S and S_sat to the last bit
     (also for S above S_sat), and hardening fast enough to saturate within
     one step completes instead of crossing S_sat, for every h0 in
     [0, 500], dt, S_sat and m_rate tried (hypothesis).  Zero hardening
     returns S itself, even at an overflowed flow rate.
  6. Spatial symmetry of the profile to machine precision, and bitwise
     determinism of repeated identical steps.
  7. Displacement recovery: clamped bottom face, exact uniform-shear and
     zero-load profiles, per-cell trapezoid identity.
  8. The m -> 0 limit study: discrepancy against the incremental solver
     decreases along a decreasing m sequence and is negligible for loads
     that never reach the threshold.
  9. Failure plumbing: visco_step wraps a non-converged Newton solve in
     SolverError with the residual, simulate_visco adds the load point; on
     a real step whose direct solve fails (a plain 20-step ramp at
     m_rate = 0.005), the continuation ladder over wider rate smoothings
     runs and rescues it, on exact decades 1e-2 d0 ... 1e-9 d0 and then
     eps_v.  Newton starts from the interior of a given gamma_init, and
     from the state's own gamma otherwise; from that rest start a one-step
     overload of a long-ell strip converges in one direct solve, and the
     sine load whose first step once raised finishes all 40 steps.
 10. Work bound: the unloading steps of a load-unload series stop at the
     residual's roundoff floor instead of backtracking inside it, so the
     20-step series costs at most 320 residual evaluations, counted as
     calls of the kernel's SmoothedDissipation.power_flux (one for each);
     the README visco command takes at most 859 evaluations and builds at
     most 659 Jacobians.  A run builds its step operators (kernel, elastic
     matrix, mass vector) once, read-only, and a run on the same mesh with
     other kappa, L, ell, h, S0 or d0 does not reuse them.
 11. The residual of _balance and its tridiagonal Jacobian equal
     independent per-Gauss-point loops (the Jacobian from the dense 2 x 2
     block of every point, to 1e-13 of each row's scale), and the Jacobian
     equals central differences of the residual, at a loading and an
     unloading iterate, all over the interior nodes, the unknowns of the
     clamped problem; also at kappa = 0, in the local limit L = ell = 0
     and on a strip with h != 1 and d0 != 1.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripshear import (
    Field,
    Hardening,
    PhysicalParams,
    SolverError,
    ViscoParams,
    ViscoState,
    make_mesh,
    rate_independent_limit_study,
    recover_displacement,
    simulate_visco,
    visco_step,
)
import stripshear.viscoplastic as viscoplastic
from stripshear import _p1, cli


def _params(m_rate, hardening=None, **over):
    kw = dict(S0=1.0, kappa=1.0, L=1.0, ell=1.179812, h=1.0, G=1.0, d0=1.0)
    kw.update(over)
    base = PhysicalParams(m_rate=m_rate, **kw)
    if hardening is None:
        return ViscoParams(base=base)
    return ViscoParams(base=base, hardening=hardening)


def _stored_energy(gamma, p):
    """Quadratic stored energy on the physical strip, cellwise exact.

    0.5 S0 kappa int gamma^2 dy + 0.5 S0 L^2 int gamma_y^2 dy; the first
    integral uses the exact formula for piecewise-linear data.
    """
    b = p.base
    dy = b.h * gamma.mesh.dr
    a, c = gamma.values[:-1], gamma.values[1:]
    sq = float(np.sum(a * a + a * c + c * c)) * dy / 3.0
    gr = float(np.sum((c - a) ** 2)) / dy
    return 0.5 * b.S0 * b.kappa * sq + 0.5 * b.S0 * b.L**2 * gr


def _plastic_work(states, load):
    """Per-step tau * d(int gamma dy) along a simulated trajectory."""
    steps = []
    for k in range(1, len(states)):
        y = states[k].gamma.mesh.nodes  # h = 1 throughout these runs
        m1 = float(np.trapezoid(states[k].gamma.values, y))
        m0 = float(np.trapezoid(states[k - 1].gamma.values, y))
        steps.append(load[k][1] * (m1 - m0))
    return steps


# ------------------------------------------------------------------ validation


def test_hardening_laws():
    S = np.array([0.5, 1.0, 1.4])
    assert np.all(Hardening.zero().rate(S) == 0.0)
    assert np.all(Hardening.linear(2.0).rate(S) == 2.0)
    voce = Hardening.saturating(3.0, 1.0).rate(S)
    assert np.allclose(voce, 3.0 * (1.0 - S), rtol=0.0, atol=1e-15)
    # Voce modulus changes sign at S_sat: recovery above, hardening below
    assert voce[0] > 0.0 and voce[1] == 0.0 and voce[2] < 0.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="quadratic"),
        dict(kind="linear", h0=-1.0),
        dict(kind="linear", h0=math.nan),
        dict(kind="saturating", h0=1.0, S_sat=0.0),
        dict(kind="saturating", h0=1.0, S_sat=math.inf),
        dict(kind="zero", S_sat=math.nan),
        dict(kind="linear", h0=1.0, S_sat=math.nan),
        dict(kind="linear", h0=1.0, S_sat=-3.0),
        dict(kind="linear", h0=1.0, S_sat=0.0),
        dict(kind="linear", h0=1.0, S_sat=-math.inf),
        dict(kind="saturating", h0=1.0, S_sat=math.nan),
    ],
)
def test_hardening_validation(bad):
    with pytest.raises(ValueError):
        Hardening(**bad)


def test_visco_params_require_positive_rate_exponent():
    # m_rate = 0 is a valid PhysicalParams (the rate-independent model) but
    # not a valid exponent for this solver
    with pytest.raises(ValueError, match="m_rate must be positive"):
        _params(0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        _params(-0.1)


def test_virgin_state():
    mesh = make_mesh(8)
    p = _params(0.2, S0=1.7)
    st = ViscoState.virgin(mesh, p, t=0.25)
    assert st.t == 0.25
    assert np.all(st.gamma.values == 0.0)
    assert np.all(st.S.values == 1.7)
    assert ViscoState.virgin(mesh, p).t == 0.0


def test_state_validation():
    mesh = make_mesh(8)
    ones = np.ones(9)
    S = Field(mesh, ones)
    with pytest.raises(ValueError, match="vanish at the strip faces"):
        ViscoState(t=0.0, gamma=Field(mesh, ones), S=S)
    with pytest.raises(ValueError, match="nonnegative"):
        ViscoState(t=0.0, gamma=Field.zeros(mesh), S=Field(mesh, -ones))
    with pytest.raises(ValueError, match="share a mesh"):
        ViscoState(t=0.0, gamma=Field.zeros(make_mesh(4)), S=S)
    with pytest.raises(ValueError, match="finite"):
        ViscoState(t=math.inf, gamma=Field.zeros(mesh), S=S)


def test_step_validation():
    p = _params(0.2)
    st = ViscoState.virgin(make_mesh(8), p)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        visco_step(st, 1.0, 0.0, p)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        visco_step(st, 1.0, -0.1, p)
    with pytest.raises(ValueError, match="tau_next must be finite"):
        visco_step(st, math.nan, 0.1, p)
    with pytest.raises(ValueError, match="gamma_init shape"):
        visco_step(st, 1.0, 0.1, p, gamma_init=np.zeros(5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma_init must be finite"):
            visco_step(st, 1.0, 0.1, p, gamma_init=np.full(9, bad))


def test_load_validation():
    p = _params(0.2)
    mesh = make_mesh(8)
    with pytest.raises(ValueError, match="nonempty"):
        simulate_visco([], p, mesh)
    with pytest.raises(ValueError, match="strictly increasing"):
        simulate_visco([(0.0, 0.0), (0.0, 1.0)], p, mesh)
    with pytest.raises(ValueError, match="finite"):
        simulate_visco([(0.0, 0.0), (1.0, math.inf)], p, mesh)
    # a NaN time also breaks the ordering; the refusal names its real fault
    with pytest.raises(ValueError, match="finite"):
        simulate_visco([(0.0, 0.0), (math.nan, 1.0)], p, mesh)


# ------------------------------------------------------- scalar reduction oracle


def test_matches_scalar_backward_euler_root():
    # L = ell = 0 removes every gradient term, so the interior response is
    # the scalar power-law relation S0 kappa c + S0 P(c / dt) = tau; only a
    # boundary layer from the clamped faces (consistent-mass coupling)
    # survives, decaying geometrically into the strip.
    p = _params(0.2, L=0.0, ell=0.0)
    mesh = make_mesh(64)
    tau, dt = 1.5, 0.1
    st = visco_step(ViscoState.virgin(mesh, p), tau, dt, p)

    eps = 1e-10 * p.base.d0  # the solver's smoothing at its final level

    def residual(c):
        rate = c / dt
        mag = math.sqrt(rate * rate + eps * eps)
        return p.base.kappa * c + mag ** (p.base.m_rate - 1.0) * rate - tau

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if residual(mid) > 0.0 else (mid, hi)
    root = 0.5 * (lo + hi)

    g = st.gamma.values
    assert abs(g[32] - root) / root <= 1e-8
    dev = np.abs(g - root) / root
    assert dev[1] > 10.0 * dev[4] > 100.0 * dev[8]


def test_creep_below_threshold_vanishes_with_m():
    # tau = 0.5 S0 is far below yield; any flow is smoothing residue
    mesh = make_mesh(32)
    load = [(0.0, 0.0)] + [(0.1 * k, 0.5) for k in range(1, 11)]
    finals = {}
    for m in (0.05, 0.02):
        states = simulate_visco(load, _params(m, ell=1.0), mesh)
        finals[m] = float(np.max(np.abs(states[-1].gamma.values)))
    assert finals[0.05] <= 1e-9
    assert finals[0.02] < finals[0.05]


# -------------------------------------------------------------- cyclic response


@pytest.fixture(scope="module")
def cyclic_run():
    """Load-unload-reload triangle wave through both yield directions."""
    p = _params(0.2)
    mesh = make_mesh(32)
    amp = 1.8
    knots_t = [0.0, amp, 3.0 * amp, 4.0 * amp]
    knots_tau = [0.0, amp, -amp, 0.0]
    ts = np.linspace(0.0, knots_t[-1], 61)
    load = list(zip(ts, np.interp(ts, knots_t, knots_tau)))
    return p, load, simulate_visco(load, p, mesh)


def test_cyclic_dissipation_nonnegative(cyclic_run):
    p, load, states = cyclic_run
    work = _plastic_work(states, load)
    for k, w in enumerate(work, start=1):
        de = _stored_energy(states[k].gamma, p) - _stored_energy(
            states[k - 1].gamma, p
        )
        assert w - de >= -1e-10


def test_cyclic_flow_actually_reverses(cyclic_run):
    _, _, states = cyclic_run
    mids = [st.gamma.values[16] for st in states]
    assert max(mids) > 0.05 and min(mids) < -0.05


def test_strength_frozen_without_hardening(cyclic_run):
    p, _, states = cyclic_run
    for st in states:
        assert np.all(st.S.values == p.base.S0)


def test_profile_symmetry(cyclic_run):
    _, _, states = cyclic_run
    for st in states[::10]:
        g = st.gamma.values
        assert float(np.max(np.abs(g - g[::-1]))) <= 1e-14


def test_step_is_deterministic(cyclic_run):
    p, _, states = cyclic_run
    a = visco_step(states[10], 1.1, 0.05, p)
    b = visco_step(states[10], 1.1, 0.05, p)
    assert np.array_equal(a.gamma.values, b.gamma.values)
    assert np.array_equal(a.S.values, b.S.values)
    assert a.t == b.t


def test_trajectory_bookkeeping(cyclic_run):
    _, load, states = cyclic_run
    assert len(states) == len(load)
    assert np.all(states[0].gamma.values == 0.0)
    for st, (t, _) in zip(states, load):
        assert abs(st.t - t) <= 1e-12


# ----------------------------------------------------------- strength evolution


def test_hardening_growth_ordering():
    mesh = make_mesh(32)
    load = [(0.1 * k, 0.25 * k) for k in range(11)]
    lin = simulate_visco(load, _params(0.1, Hardening.linear(2.0)), mesh)
    sat = simulate_visco(load, _params(0.1, Hardening.saturating(2.0, 1.4)), mesh)
    for states in (lin, sat):
        S = np.array([st.S.values for st in states])
        assert np.min(np.diff(S, axis=0)) >= 0.0
    S_lin = float(np.max(lin[-1].S.values))
    S_sat = float(np.max(sat[-1].S.values))
    assert S_sat <= 1.4 + 1e-9
    assert S_lin > S_sat > 1.0


# -------------------------------------------------------- displacement recovery


def test_displacement_identities():
    mesh = make_mesh(32)
    p = _params(0.2, h=2.0, G=3.0)
    virgin = ViscoState.virgin(mesh, p)

    u = recover_displacement(virgin, 3.0, p).values  # tau = G: unit shear
    y = p.base.h * mesh.nodes
    assert u[0] == 0.0
    assert float(np.max(np.abs(u - (y + p.base.h)))) <= 1e-14

    assert np.all(recover_displacement(virgin, 0.0, p).values == 0.0)

    with pytest.raises(ValueError, match="tau must be finite"):
        recover_displacement(virgin, math.nan, p)


def test_displacement_trapezoid_identity():
    # each cell increment is the trapezoid of the total shear, whatever gamma
    mesh = make_mesh(32)
    p = _params(0.2, h=2.0, G=3.0)
    rng = np.random.default_rng(5)
    vals = np.zeros(mesh.n_cells + 1)
    vals[1:-1] = rng.normal(size=mesh.n_cells - 1)
    st = ViscoState(t=0.0, gamma=Field(mesh, vals), S=ViscoState.virgin(mesh, p).S)
    tau = 0.7
    u = recover_displacement(st, tau, p).values
    y = p.base.h * mesh.nodes
    f = tau / p.base.G + vals
    cell = 0.5 * (f[:-1] + f[1:]) * np.diff(y)
    assert float(np.max(np.abs(np.diff(u) - cell))) <= 1e-14
    # summed exactly as scipy's cumulative trapezoid, bit for bit
    from scipy.integrate import cumulative_trapezoid

    assert np.array_equal(u, cumulative_trapezoid(f, y, initial=0.0))


# -------------------------------------------------------- rate-independent limit


def test_limit_study_discrepancy_decreases():
    p = _params(0.1)
    mesh = make_mesh(32)
    load = [(k / 20.0, 3.0 * k / 20.0) for k in range(21)]
    report = rate_independent_limit_study([0.1, 0.05], p, mesh, load)
    assert report.m_values == (0.1, 0.05)
    d1, d2 = report.discrepancies
    assert d2 < d1


def test_limit_study_below_threshold_is_tiny():
    # the ramp stops at tau = 0.3 S0, so both responses are (numerically) zero
    p = _params(0.1)
    mesh = make_mesh(32)
    load = [(k / 20.0, 0.3 * k / 20.0) for k in range(21)]
    report = rate_independent_limit_study([0.1, 0.05], p, mesh, load)
    assert max(report.discrepancies) <= 1e-8


def test_limit_study_validation():
    p = _params(0.1)
    mesh = make_mesh(8)
    ramp = [(0.0, 0.0), (1.0, 1.0)]
    with pytest.raises(ValueError, match="nonempty"):
        rate_independent_limit_study([], p, mesh, ramp)
    with pytest.raises(ValueError, match="positive"):
        rate_independent_limit_study([0.1, -0.1], p, mesh, ramp)
    with pytest.raises(ValueError, match="strictly decreasing"):
        rate_independent_limit_study([0.05, 0.1], p, mesh, ramp)
    with pytest.raises(ValueError, match="zero hardening"):
        rate_independent_limit_study(
            [0.1], _params(0.1, Hardening.linear(1.0)), mesh, ramp
        )
    with pytest.raises(ValueError, match="increasing ramp"):
        rate_independent_limit_study(
            [0.1], p, mesh, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]
        )
    with pytest.raises(ValueError, match="ramp from tau = 0, not 0.5"):
        rate_independent_limit_study([0.1], p, mesh, [(0.0, 0.5), (1.0, 1.0)])


# ------------------------------------------------------------------ error paths


def test_step_failure_carries_residual(monkeypatch):
    def never_converges(x0, *args, **kwargs):
        raise SolverError("stalled", residual=0.123)

    for module in (_p1, viscoplastic):
        monkeypatch.setattr(module, "damped_newton", never_converges)
    p = _params(0.2)
    st = ViscoState.virgin(make_mesh(8), p)
    with pytest.raises(SolverError, match="try halving dt") as info:
        visco_step(st, 1.5, 0.1, p)
    assert info.value.residual == 0.123


def test_a_one_step_overload_converges_from_rest(monkeypatch):
    # a long dissipative length (theta_Y near 5) loaded in one step to
    # tau = 3: started from the state at rest, the direct solve at the
    # nominal rate smoothing converges, and the ladder is never entered
    p = ViscoParams(
        base=PhysicalParams(S0=1.0, kappa=0.04, L=1.9, ell=4.2, h=1.0, G=1.0,
                            d0=1.0, m_rate=0.025),
        hardening=Hardening.zero(),
    )
    outcomes = []
    newton = viscoplastic.damped_newton

    def recorded(*args, **kwargs):
        try:
            result = newton(*args, **kwargs)
        except SolverError:
            outcomes.append("raised")
            raise
        outcomes.append("converged")
        return result

    for module in (_p1, viscoplastic):
        monkeypatch.setattr(module, "damped_newton", recorded)
    st = visco_step(ViscoState.virgin(make_mesh(128), p), 3.0, 0.05, p)
    assert outcomes == ["converged"]
    assert np.isfinite(st.gamma.values).all() and np.isfinite(st.S.values).all()


# the README visco strip without hardening, at m_rate 0.005 (the README's
# is 0.05), on tau = 2.5 t in 20 steps
PLAIN_RAMP_PARAMS = ViscoParams(
    base=PhysicalParams(S0=1.0, kappa=1.0, L=1.0, ell=1.0, h=1.0, G=1.0,
                        d0=1.0, m_rate=0.005),
    hardening=Hardening.zero(),
)
PLAIN_RAMP = [(t, 2.5 * t) for t in np.linspace(0.0, 1.0, 21)]


def test_continuation_rescues_a_step_of_a_plain_ramp(monkeypatch):
    # no forcing: one step's direct solve fails and the ladder rescues it
    raised = []
    for module in (_p1, viscoplastic):
        newton = module.damped_newton

        def recorded(*args, _newton=newton, **kwargs):
            try:
                return _newton(*args, **kwargs)
            except SolverError:
                raised.append(1)
                raise

        monkeypatch.setattr(module, "damped_newton", recorded)
    states = simulate_visco(PLAIN_RAMP, PLAIN_RAMP_PARAMS, make_mesh(128))
    assert raised
    assert len(states) == 21
    assert np.isfinite(states[-1].gamma.values).all()
    assert np.isfinite(states[-1].S.values).all()


def test_continuation_levels_are_exact_decades(monkeypatch):
    schedules = []
    ladder = viscoplastic.ladder

    def recorded(x, make_objective, tol, schedule):
        schedules.append(list(schedule))
        return ladder(x, make_objective, tol, schedule)

    monkeypatch.setattr(viscoplastic, "ladder", recorded)
    simulate_visco(PLAIN_RAMP, PLAIN_RAMP_PARAMS, make_mesh(128))
    assert schedules
    eps_v = 1e-10 * PLAIN_RAMP_PARAMS.base.d0
    for levels in schedules:
        assert len(levels) == 9 and levels[-1] == eps_v
        ratios = np.array(levels[:-1]) / np.array(levels[1:])
        assert np.all(np.abs(ratios - 10.0) <= 10.0 * 1e-12)


def test_a_given_start_is_the_newton_start(monkeypatch):
    # the interior of gamma_init when one is given, else the state's own
    # gamma: a step that starts at zero rate
    starts = []
    newton = viscoplastic.damped_newton

    def recorded(x, *args, **kwargs):
        starts.append(x.copy())
        return newton(x, *args, **kwargs)

    monkeypatch.setattr(viscoplastic, "damped_newton", recorded)
    p = _params(0.2)
    mesh = make_mesh(16)
    guess = 0.3 * (1.0 - mesh.nodes**2)
    flowed = visco_step(ViscoState.virgin(mesh, p), 1.5, 0.1, p, guess)
    assert np.array_equal(starts[0], guess[1:-1])
    assert np.max(np.abs(flowed.gamma.values)) > 1e-3  # flowed, not at rest
    starts.clear()
    visco_step(flowed, 1.6, 0.1, p)
    assert np.array_equal(starts[0], flowed.gamma.values[1:-1])


def test_a_sine_load_on_a_long_ell_strip_finishes():
    # its first step (tau = 0.391 in dt = 0.025) once raised "viscoplastic
    # Newton did not converge (residual 6.162e+03, tolerance 3.906e-12)"
    p = ViscoParams(
        base=PhysicalParams(S0=1.0, kappa=1.0, L=1.0, ell=100.0, h=1.0, G=1.0,
                            d0=1.0, m_rate=0.5),
        hardening=Hardening.zero(),
    )
    load = [(k / 40.0, 2.5 * math.sin(2.0 * math.pi * k / 40.0)) for k in range(41)]
    states = simulate_visco(load, p, make_mesh(512))
    assert len(states) == 41
    for st in states:
        assert np.isfinite(st.gamma.values).all() and np.isfinite(st.S.values).all()


def test_simulate_reports_failing_load_point(monkeypatch):
    def explode(state, tau_next, dt, p, gamma_init=None):
        raise SolverError("inner failure", residual=7.0)

    monkeypatch.setattr(viscoplastic, "visco_step", explode)
    p = _params(0.2)
    load = [(0.0, 0.0), (0.5, 0.4), (1.0, 0.8)]
    with pytest.raises(SolverError, match=r"load point 1 .*inner failure") as info:
        simulate_visco(load, p, make_mesh(8))
    assert info.value.step == 1
    assert info.value.residual == 7.0


# the saturating load-unload series of the benchmark: S0 = 1, S_sat 1.5
SERIES_PARAMS = ViscoParams(
    base=PhysicalParams(S0=1.0, kappa=1.0, L=1.0, ell=1.0, h=1.0, G=1.0, d0=1.0,
                        m_rate=0.05),
    hardening=Hardening.saturating(2.0, 1.5),
)


def test_unloading_steps_stop_at_the_roundoff_floor(monkeypatch):
    # every residual evaluation takes the kernel's flux once
    calls = []
    flux = _p1.SmoothedDissipation.power_flux

    def counted(*args, **kwargs):
        calls.append(1)
        return flux(*args, **kwargs)

    monkeypatch.setattr(_p1.SmoothedDissipation, "power_flux", counted)
    times = np.linspace(0.0, 1.0, 21)
    load = [(t, 2.5 * (1.0 - abs(2.0 * t - 1.0))) for t in times]
    states = simulate_visco(load, SERIES_PARAMS, make_mesh(32))
    assert len(states) == 21
    S = np.array([st.S.values for st in states])
    assert np.all((1.0 <= S) & (S <= 1.5))
    # backtracking inside the floor took 7,548 evaluations here
    assert len(calls) <= 320



def _counting_flux(monkeypatch):
    """Count power_flux calls and the Jacobians built from them."""
    calls = {"flux": 0, "jacobian": 0}
    flux = _p1.SmoothedDissipation.power_flux

    def counted(*args, **kwargs):
        calls["flux"] += 1
        vector, jacobian = flux(*args, **kwargs)

        def counted_jacobian():
            calls["jacobian"] += 1
            return jacobian()

        return vector, counted_jacobian

    monkeypatch.setattr(_p1.SmoothedDissipation, "power_flux", counted)
    return calls


def test_readme_visco_run_takes_no_more_evaluations(monkeypatch, tmp_path):
    # the README visco command (256 cells, 200 steps) took 859 residual
    # evaluations and built 659 Jacobians before its kernel's weight tables
    calls = _counting_flux(monkeypatch)
    code = cli.main([
        "visco", "--tau-max", "2.5", "--t-end", "1", "--steps", "200",
        "--m-rate", "0.05", "--hardening", "saturating", "--h0", "2",
        "--S-sat", "1.5", "--out", str(tmp_path),
    ])
    assert code == 0
    assert calls["flux"] <= 859
    assert calls["jacobian"] <= 659


def test_step_operators_are_built_once_per_run(monkeypatch):
    viscoplastic._operators.cache_clear()
    inits = []
    init = _p1.SmoothedDissipation.__init__

    def counted(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_p1.SmoothedDissipation, "__init__", counted)
    mesh = make_mesh(32)
    load = [(t, 2.5 * t) for t in np.linspace(0.0, 1.0, 21)]
    assert len(simulate_visco(load, SERIES_PARAMS, mesh)) == 21
    assert len(inits) == 1
    _, A, mass = viscoplastic._operators(mesh, SERIES_PARAMS.base)
    for shared in (A, mass):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0


@pytest.mark.parametrize(
    "name, value",
    [("kappa", 0.5), ("L", 0.5), ("ell", 0.5), ("h", 0.5), ("S0", 1.2), ("d0", 0.5)],
)
def test_step_operators_are_keyed_on_every_parameter(name, value):
    mesh = make_mesh(16)
    load = [(t, 2.5 * t) for t in np.linspace(0.0, 1.0, 6)]
    other = dataclasses.replace(
        SERIES_PARAMS, base=dataclasses.replace(SERIES_PARAMS.base, **{name: value})
    )

    def run(p):
        states = simulate_visco(load, p, mesh)
        return np.array([np.concatenate((s.gamma.values, s.S.values)) for s in states])

    viscoplastic._operators.cache_clear()
    fresh = run(other)
    viscoplastic._operators.cache_clear()
    base = run(SERIES_PARAMS)
    interleaved = run(other)
    assert not np.array_equal(base, fresh)  # the parameter matters
    assert np.array_equal(interleaved, fresh)

def test_fast_saturating_hardening_completes():
    # dt h0 d > S_sat: an explicit Voce update would jump past S_sat
    p = dataclasses.replace(SERIES_PARAMS, hardening=Hardening.saturating(50.0, 1.5))
    load = [(t, 2.5 * t) for t in np.linspace(0.0, 1.0, 21)]
    states = simulate_visco(load, p, make_mesh(32))
    assert len(states) == 21
    S = np.array([st.S.values for st in states])
    assert np.all((1.0 <= S) & (S <= 1.5))
    assert np.min(np.diff(S, axis=0)) >= 0.0
    assert float(np.max(S[-1])) > 1.49  # it does saturate


@pytest.mark.parametrize("h0", ["50", "500"])
def test_fast_saturating_hardening_exits_zero(h0, tmp_path):
    argv = ["visco", "--tau-max", "2.5", "--t-end", "1", "--steps", "20",
            "--cells", "32", "--m-rate", "0.05", "--hardening", "saturating",
            "--h0", h0, "--S-sat", "1.5", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    S_max = np.loadtxt(tmp_path / "visco.csv", delimiter=",", skiprows=1)[:, 4]
    assert np.all((1.0 <= S_max) & (S_max <= 1.5))
    assert np.min(np.diff(S_max)) >= 0.0


def test_voce_step_is_the_exact_solution():
    voce = Hardening.saturating(3.0, 2.0)
    S = np.array([0.5, 1.0, 1.9, 2.0, 2.5])
    d = np.array([0.3, 1.0, 2.0, 5.0, 0.7])
    dt = 0.25
    exact = 2.0 - (2.0 - S) * np.exp(-dt * 3.0 * d / 2.0)
    assert np.allclose(voce.advance(S, dt, d), exact, rtol=1e-15, atol=0.0)
    # zero and linear laws keep the explicit form, which is exact for them
    assert np.array_equal(Hardening.zero().advance(S, dt, d), S)
    # zero hardening leaves S even at an overflowed rate (0 * inf is nan)
    assert Hardening.zero().advance(S, dt, np.full_like(S, math.inf)) is S
    lin = Hardening.linear(3.0).advance(S, dt, d)
    assert np.array_equal(lin, S + dt * np.full_like(S, 3.0) * d)


@pytest.mark.parametrize("S_sat", [1.5, 7.3, 100.0, 1e-3])
def test_voce_step_stays_between_s_and_s_sat(S_sat):
    # S_sat - S rounds where S < S_sat / 2; from the far end that rounding
    # moved S by up to half an ulp of S_sat, backwards at x = 0 (and past
    # S_sat at x > 36 if written as an increment)
    rng = np.random.default_rng(3)
    S = np.concatenate([1.0 + 0.5 * rng.random(2000), 1e3 * rng.random(2000)])
    lo, hi = np.minimum(S, S_sat), np.maximum(S, S_sat)
    voce = Hardening.saturating(1.0, S_sat)
    for x in (0.0, 1e-17, 1e-16, 1e-3, math.log(2.0), 1.0, 36.0, 40.0, 800.0):
        S_new = voce.advance(S, 1.0, np.full_like(S, x * S_sat))
        assert np.all((lo <= S_new) & (S_new <= hi)), x
    # no flow, or no modulus: S stays bit for bit
    assert np.array_equal(voce.advance(S, 1.0, np.zeros_like(S)), S)
    still = Hardening.saturating(0.0, S_sat).advance(S, 1.0, np.ones_like(S))
    assert np.array_equal(still, S)


@settings(max_examples=30, deadline=None)
@given(
    h0=st.floats(0.0, 500.0),
    t_end=st.floats(1e-3, 10.0),
    steps=st.integers(2, 6),
    S_sat=st.floats(1.0, 20.0),
    m_rate=st.floats(0.02, 0.5),
    tau_max=st.floats(2.0, 6.0),
)
def test_saturating_steps_never_cross_s_sat(h0, t_end, steps, S_sat, m_rate, tau_max):
    # a ramp past yield (theta_Y < 2 here), one visco_step at a time
    p = _params(m_rate, Hardening.saturating(h0, S_sat), ell=1.0)
    state = ViscoState.virgin(make_mesh(16), p)
    dt = t_end / steps
    for k in range(1, steps + 1):
        try:
            state = visco_step(state, tau_max * k / steps, dt, p)
        except SolverError:
            return
        assert np.all(np.isfinite(state.gamma.values))
        S = state.S.values
        assert np.all((1.0 <= S) & (S <= S_sat))


# the base case, then the coefficient-form elastic matrix at kappa = 0, the
# local limit (lam = 0 in the kernel) and a strip of half-width h != 1 with
# d0 != 1
JACOBIAN_CASES = ({}, {"kappa": 0.0}, {"L": 0.0, "ell": 0.0}, {"h": 0.5, "d0": 0.3})


def _jacobian_case(m_rate, unloading, over):
    """An iterate of the implicit balance away from rest, with non-uniform S."""
    p = _params(m_rate, **{"ell": 0.8, "L": 0.6, **over}).base
    mesh = make_mesh(12)
    r = mesh.nodes
    gamma_n = 0.3 * (1.0 - r * r)
    rate = (1.0 - r * r) * (0.8 + 0.3 * r)
    gamma = gamma_n + (-0.05 if unloading else 0.05) * rate
    S = 1.0 + 0.2 * np.cos(3.0 * r) + 0.1 * r
    tau, dt = (-0.4 if unloading else 1.7), 0.05
    balance = viscoplastic._balance(mesh, gamma_n, S, tau, dt, p)
    return balance, gamma, gamma_n, S, tau, dt, p, p.h * mesh.dr


@pytest.mark.parametrize("unloading", [False, True])
@pytest.mark.parametrize("m_rate", [0.05, 0.2])
def test_residual_matches_a_per_point_loop(m_rate, unloading):
    for over in JACOBIAN_CASES:
        case = _jacobian_case(m_rate, unloading, over)
        balance, gamma, gamma_n, S, tau, dt, p, dy = case
        eps = 1e-10 * p.d0
        R = balance(gamma[1:-1], eps)[0]

        x, w = np.polynomial.legendre.leggauss(3)
        expect = np.zeros_like(gamma)
        for i in range(gamma.size - 1):
            for xq, wq in zip(x, w):
                t = 0.5 * (xq + 1.0)
                phi = (1.0 - t, t)
                dphi = (-1.0 / dy, 1.0 / dy)
                at = lambda v: phi[0] * v[i] + phi[1] * v[i + 1]
                grad = lambda v: (v[i + 1] - v[i]) / dy
                a = (at(gamma) - at(gamma_n)) / dt
                b = (grad(gamma) - grad(gamma_n)) / dt
                d = math.sqrt(a * a + p.ell**2 * b * b + eps * eps)
                mob = d ** (p.m_rate - 1.0) / p.d0**p.m_rate
                f0 = p.S0 * p.kappa * at(gamma) + at(S) * mob * a - tau
                f1 = p.S0 * p.L**2 * grad(gamma) + p.S0 * p.ell**2 * mob * b
                for j in (0, 1):
                    expect[i + j] += 0.5 * wq * dy * (f0 * phi[j] + f1 * dphi[j])
        expect = expect[1:-1]  # the interior rows
        scale = float(np.max(np.abs(expect)))
        assert float(np.max(np.abs(R - expect))) <= 1e-13 * scale, over


@pytest.mark.parametrize("unloading", [False, True])
@pytest.mark.parametrize("m_rate", [0.05, 0.2])
def test_jacobian_matches_a_per_point_loop(m_rate, unloading):
    for over in JACOBIAN_CASES:
        case = _jacobian_case(m_rate, unloading, over)
        balance, gamma, gamma_n, S, tau, dt, p, dy = case
        eps = 1e-10 * p.d0
        J = balance(gamma[1:-1], eps)[1]()
        got = np.diag(J[1]) + np.diag(J[2, :-1], -1) + np.diag(J[0, 1:], 1)

        # the dense 2 x 2 block of every Gauss point: the elastic part, and
        # with c = phi, e = ell phi', u = a, l = ell b, R = d and w = S / S0
        # the flux part R^(m-1) [w c c' + e e' - (1 - m) (w u c + l e)
        # (u c + l e)' / R^2] (times S0 / (d0^m dt))
        x, wts = np.polynomial.legendre.leggauss(3)
        expect = np.zeros((gamma.size, gamma.size))
        for i in range(gamma.size - 1):
            for xq, wq in zip(x, wts):
                t = 0.5 * (xq + 1.0)
                c = np.array([1.0 - t, t])
                dphi = np.array([-1.0 / dy, 1.0 / dy])
                e = p.ell * dphi
                at = lambda v: c @ v[i : i + 2]
                grad = lambda v: (v[i + 1] - v[i]) / dy
                u = (at(gamma) - at(gamma_n)) / dt
                l = p.ell * (grad(gamma) - grad(gamma_n)) / dt
                R = math.sqrt(u * u + l * l + eps * eps)
                w = at(S) / p.S0
                cross = np.outer(w * u * c + l * e, u * c + l * e)
                flux = R ** (p.m_rate - 1.0) * (
                    w * np.outer(c, c) + np.outer(e, e)
                    - (1.0 - p.m_rate) * cross / R**2
                )
                elastic = p.S0 * (
                    p.kappa * np.outer(c, c) + p.L**2 * np.outer(dphi, dphi)
                )
                block = elastic + p.S0 / (p.d0**p.m_rate * dt) * flux
                expect[i : i + 2, i : i + 2] += 0.5 * wq * dy * block
        expect = expect[1:-1, 1:-1]  # interior rows and columns
        scale = np.max(np.abs(expect), axis=1, keepdims=True)
        assert float(np.max(np.abs(got - expect) / scale)) <= 1e-13, over


@pytest.mark.parametrize("unloading", [False, True])
@pytest.mark.parametrize("m_rate", [0.05, 0.2])
def test_jacobian_matches_finite_differences(m_rate, unloading):
    for over in JACOBIAN_CASES:
        balance, gamma, *_, p, _ = _jacobian_case(m_rate, unloading, over)
        eps = 1e-10 * p.d0

        def residual(g):
            return balance(g[1:-1], eps)[0]

        J = balance(gamma[1:-1], eps)[1]()
        n = gamma.size
        dense = np.diag(J[1]) + np.diag(J[2, :-1], -1) + np.diag(J[0, 1:], 1)

        fd = np.zeros((n - 2, n - 2))
        h = 1e-6
        for j in range(1, n - 1):
            e = np.zeros(n)
            e[j] = h
            fd[:, j - 1] = (residual(gamma + e) - residual(gamma - e)) / (2.0 * h)
        # interior rows and columns: the band, and nothing outside it
        err = np.abs(dense - fd)
        assert float(np.max(err)) <= 1e-7 * float(np.max(np.abs(fd))), over
