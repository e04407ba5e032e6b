"""Yield threshold: closed formula, quadrature identity, variational route.

Anchors used here:
  * The quadrature identity: lambda equals the integral
    int_0^1 dzeta / (theta - sqrt(1 - zeta^2)), evaluated independently by
    yield_integral.  Agreement of lambda_of_theta with that integral is the
    primary correctness oracle for the closed form.  yield_integral refuses
    theta_Y below 1.0001, where its fixed rule no longer reaches roundoff.
  * Frozen regression values (from the formula, cross-checked against the
    identity at high quadrature order when first recorded):
      lambda_of_theta(sqrt(2)) = 0.5677412133152117
      lambda_of_theta(2)       = 1.1797978603829922
      theta_of_lambda(1)       = 1.8252250262013787
  * Profile identities: the onset profile is even, strictly decreasing away
    from the center, unit mass, boundary trace ratio (theta - 1)/theta, and
    its relaxed dissipation per unit mass equals theta_Y.  The profile is
    the closed-form solution of its ODE, so it is also checked against an
    independent adaptive quadrature of that ODE, down to lam = 1e-5 where
    its boundary layer is about 2e-5 wide in zeta; and the arc's closed
    form at zeta = 1 reproduces 1 / lambda_of_theta (the closure identity).
    The start threshold_bracket interpolates from the closed form has
    minimizer_profile's shape at the mesh nodes, to the interpolation's
    error, for lam in [1e-3, 1e3].
  * theta_of_lambda returns across lam in [1e-7, 1e6], strictly inside
    (1, 1 + lam); it bisects on a bracket that does not depend on lam, so
    it is nondecreasing over runs of adjacent doubles of lam, and the
    double it returns and its neighbour across lam have lambdas that
    straddle lam, the returned one nearer.  minimizer_profile raises
    SolverError where theta_Y - 1 spans at most 8 ulps of 1, too few to
    resolve the profile's shape, and returns a whole profile just above;
    it refuses a fractional or bool sample count instead of truncating it.
  * theta_of_lambda refuses lam below the smallest lam whose threshold
    rounds above 1 and above the largest lam it resolves strictly below
    1 + lam, naming each; from the floor up, lambda_of_theta inverts the
    threshold to within its one-ulp rounding, and it has a finite value
    for every finite theta_Y > 1.
  * lambda_of_theta against the closed form in 50-digit arithmetic
    (mpmath) for theta_Y - 1 in [1e-9, 10], to a few ulps: sqrt(th^2 - 1)
    must not lose th - 1 to the rounding of th^2.
  * Thinner is stronger: the discrete relaxed dissipation of random P1
    fields (2 to 512 cells, magnitudes 1e-8 to 1e8) is nondecreasing in
    lam in [1e-6, 1e7], exactly, also between neighbouring doubles of lam.
  * The variational route near lam = 600 at 2048 cells is a strict xfail
    (ROADMAP item 3): its Newton stops short of tol and raises SolverError.
  * The result records refuse what they cannot hold: a YieldResult at
    theta_Y = 1, and a ProfileResult with r and zeta of unequal lengths,
    not starting at 0, zeta not increasing, or a jump ratio outside (0, 1).
  * The quadrature's own Gauss-Legendre rule: nodes equal scipy's
    roots_legendre to 1e-15, and the weights integrate every monomial of
    degree < 2n on [0, 1] and exp with the Gauss error term.
"""

import math

import numpy as np
import pytest

from stripshear import (
    ProfileResult,
    RelaxedField,
    SolverError,
    YieldResult,
    asymptotic_theta,
    lambda_of_theta,
    make_mesh,
    mass,
    minimizer_profile,
    relaxed_dissipation,
    theta_of_lambda,
    yield_integral,
    yield_stress,
    yield_variational,
)


# ------------------------------------------------------------ frozen anchors


def test_frozen_values():
    assert abs(lambda_of_theta(math.sqrt(2.0)) - 0.5677412133152117) <= 1e-13
    assert abs(lambda_of_theta(2.0) - 1.1797978603829922) <= 1e-13
    assert abs(theta_of_lambda(1.0) - 1.8252250262013787) <= 1e-13


def test_formula_matches_quadrature_identity():
    # absolute quadrature error scales with the value (lambda grows like
    # theta at the large end), so the bound is relative
    rng = np.random.default_rng(101)
    for _ in range(20):
        theta = math.exp(rng.uniform(math.log(1.001), math.log(50.0)))
        lam = lambda_of_theta(theta)
        assert abs(lam - yield_integral(theta)) <= 1e-13 * max(1.0, lam)


def test_quadrature_refuses_thresholds_it_does_not_resolve():
    # the fixed rule reaches roundoff from 1.0001 up; just below, it would
    # return up to 7.1e-5 relative error silently
    lam = lambda_of_theta(1.0001)
    assert abs(yield_integral(1.0001) - lam) <= 1e-13 * lam
    for theta in (math.nextafter(1.0001, 1.0), 1.0 + 1e-6):
        with pytest.raises(ValueError, match="below 1.0001"):
            yield_integral(theta)


def test_round_trip_inversion():
    rng = np.random.default_rng(103)
    for _ in range(20):
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
        back = lambda_of_theta(theta_of_lambda(lam))
        assert abs(back - lam) <= 1e-10 * max(1.0, lam)


# ------------------------------------------------------- curve shape / bounds


def test_threshold_strictly_increasing_in_lam():
    grid = np.exp(np.linspace(math.log(1e-3), math.log(1e2), 40))
    vals = [theta_of_lambda(lam) for lam in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("lam0", [1.0, 10.0, 1e3, 1e6])
def test_threshold_nondecreasing_over_adjacent_doubles(lam0):
    # thinner strips are stronger down to the last bit, which needs an
    # inversion whose bracket and stopping rule do not move with lam
    lam, prev = lam0, theta_of_lambda(lam0)
    for _ in range(1500):
        lam = math.nextafter(lam, math.inf)
        t = theta_of_lambda(lam)
        assert t >= prev, lam
        prev = t


def test_inversion_returns_the_nearer_of_two_straddling_doubles():
    floor, ceiling = yield_stress._LAM_FLOOR, yield_stress._LAM_CEILING
    grid = np.exp(np.linspace(math.log(floor), math.log(ceiling), 301))
    for lam in [floor] + [float(x) for x in grid[1:-1]] + [ceiling]:
        t = theta_of_lambda(lam)
        below = lambda_of_theta(t) < lam
        other = math.nextafter(t, math.inf if below else 1.0)
        # lambda_of_theta tends to 0 at theta = 1, which is outside its domain
        lam_other = lambda_of_theta(other) if other > 1.0 else 0.0
        lo, hi = sorted((lambda_of_theta(t), lam_other))
        assert lo <= lam <= hi, lam
        assert abs(lambda_of_theta(t) - lam) <= abs(lam_other - lam), lam


def test_strict_bounds():
    grid = np.exp(np.linspace(math.log(1e-3), math.log(1e2), 40))
    for lam in grid:
        t = theta_of_lambda(lam)
        assert 1.0 < t < 1.0 + lam


@pytest.mark.parametrize("lam", [1e-7, 3e-6, 1e-5, 1.0, 1e4, 1e6])
def test_inversion_across_the_domain(lam):
    # near theta = 1 one ulp of theta moves lambda by more than 1e-12, so
    # the check is on theta: the exact inverse lies within 1e-15 + 4 eps theta
    t = theta_of_lambda(lam)
    assert 1.0 < t < 1.0 + lam
    tau = 1e-15 + 4 * np.finfo(float).eps * t
    assert lambda_of_theta(t - tau) <= lam <= lambda_of_theta(t + tau)


def test_asymptotic_forms():
    for lam in (0.01, 1.0, 30.0):
        small, large = asymptotic_theta(lam)
        assert abs(small - (1.0 + 0.5 * math.pi**2 * lam**2)) <= 1e-15 * small
        assert abs(large - (lam + 0.25 * math.pi)) <= 1e-15 * large


def test_small_lam_asymptote_attracts():
    devs = [
        abs((theta_of_lambda(lam) - 1.0) / (0.5 * math.pi**2 * lam**2) - 1.0)
        for lam in (1e-1, 1e-2, 1e-3)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-2


def test_large_lam_asymptote_attracts():
    devs = [abs(theta_of_lambda(lam) - lam - 0.25 * math.pi) for lam in (10.0, 30.0, 100.0)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-2


# ------------------------------------------------------------------ validation


def test_input_validation():
    with pytest.raises(ValueError):
        lambda_of_theta(1.0)
    with pytest.raises(ValueError):
        lambda_of_theta(0.5)
    with pytest.raises(ValueError):
        theta_of_lambda(0.0)
    with pytest.raises(ValueError):
        theta_of_lambda(math.inf)
    with pytest.raises(ValueError):
        minimizer_profile(-1.0)
    with pytest.raises(ValueError):
        minimizer_profile(1.0, n_samples=33)
    # a fractional or bool count is refused, not truncated, as Mesh does
    for count in (16.9, 16.0, True):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            minimizer_profile(0.5, n_samples=count)
    assert minimizer_profile(0.5, n_samples=np.int64(16)).phi.mesh.n_cells == 16
    lam_message = "lam must be finite and positive"
    with pytest.raises(ValueError, match=lam_message):
        asymptotic_theta(-2.0)
    with pytest.raises(ValueError, match=lam_message):
        yield_variational(math.nan, make_mesh(8))
    with pytest.raises(ValueError, match=lam_message):
        minimizer_profile(0.0)


def test_result_records_refuse_invalid_contents():
    with pytest.raises(ValueError, match="strictly between 1 and 1 \\+ lam"):
        YieldResult(theta_Y=1.0, lam=1.0)
    valid = dict(
        r=[0.0, 0.5, 1.0], zeta=[0.0, 0.4, 1.0], phi=None, jump_ratio=0.5, theta_Y=2.0
    )
    ProfileResult(**valid)
    for change, message in [
        (dict(zeta=[0.0, 1.0]), "equal length"),
        (dict(r=[0.1, 0.5, 1.0]), "start at r = 0"),
        (dict(zeta=[0.0, 0.4, 0.4]), "strictly increasing"),
        (dict(jump_ratio=1.0), "jump_ratio must lie in"),
    ]:
        with pytest.raises(ValueError, match=message):
            ProfileResult(**{**valid, **change})


def test_threshold_floor():
    floor = yield_stress._LAM_FLOOR
    below = math.nextafter(floor, 0.0)
    assert 1.0 + 0.5 * math.pi * math.pi * below * below == 1.0  # as theta_of_lambda
    for lam in (below, 1e-9, 4e-9):
        with pytest.raises(ValueError, match=repr(floor)):
            theta_of_lambda(lam)
    for lam in (floor, math.nextafter(floor, 1.0), 2.0 * floor, 5e-9, 1e-8, 1e-7):
        t = theta_of_lambda(lam)
        assert 1.0 < t < 1.0 + lam
        back = lambda_of_theta(t)
        assert math.isfinite(back) and back > 0.0
        # t is the double nearest the threshold: the exact inverse lies
        # between the inverses of its neighbours (1 itself has none)
        lower = math.nextafter(t, 0.0)
        assert (lambda_of_theta(lower) if lower > 1.0 else 0.0) <= lam
        assert lam <= lambda_of_theta(math.nextafter(t, 2.0))


def test_threshold_ceiling():
    ceiling = yield_stress._LAM_CEILING
    for lam in (math.nextafter(ceiling, math.inf), 7.3e14, 1e15, 1e155, 1e300):
        with pytest.raises(ValueError, match=repr(ceiling)):
            theta_of_lambda(lam)
    # strictly inside (1, 1 + lam) on a log grid up to the ceiling itself
    for lam in np.logspace(6.0, math.log10(ceiling), 161):
        t = theta_of_lambda(float(lam))
        assert 1.0 < lam < t < 1.0 + lam
    assert 0.5 < theta_of_lambda(ceiling) - ceiling < 1.0


def test_lambda_of_theta_is_finite_for_every_finite_theta():
    big = [1e14, 1e150, math.nextafter(1e150, math.inf), 1.34e154, 1.35e154, 1e200]
    for th in big + [1e300, float(np.finfo(float).max)]:
        lam = lambda_of_theta(th)
        assert math.isfinite(lam) and 0.0 < lam <= th
    # lam = theta - pi/4 + O(1/theta): theta itself once pi/4 is below an ulp
    assert lambda_of_theta(1e14) == pytest.approx(1e14 - 0.25 * math.pi, abs=0.05)
    assert lambda_of_theta(1e150) == 1e150
    vals = [lambda_of_theta(th) for th in big]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda_of_theta_near_one_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for gap in np.geomspace(1e-9, 10.0, 241):
            th = mpmath.mpf(1.0 + float(gap))  # the double itself, exactly
            root = mpmath.sqrt((th - 1) * (th + 1))
            gap_term = mpmath.pi * (th - root) + 2 * th * mpmath.atan(1 / root)
            exact = 2 * root / gap_term
            err = abs(mpmath.mpf(lambda_of_theta(float(th))) - exact) / exact
            worst = max(worst, float(err))
    # th * th - 1 rounded to 1.1e-16 absolute cost up to 2.5e-9 here
    assert worst <= 1e-15


@pytest.mark.parametrize("lam", [5e-8, 1e-7])
def test_profile_where_the_arc_once_fell_short(lam):
    # the integrated arc used to end short of the last interior sample here;
    # the closed-form arc is scaled onto [0, 1] and cannot (the CLI test
    # covers lam = 1e-7)
    prof = minimizer_profile(lam, n_samples=64)
    vals = prof.phi.values
    assert np.array_equal(vals, vals[::-1])
    assert bool(np.all(np.diff(vals[vals.size // 2 :]) < 0.0))
    assert abs(mass(prof.phi) - 1.0) <= 1e-14
    t = prof.theta_Y
    assert prof.jump_ratio == pytest.approx((t - 1.0) / t, rel=1e-15)
    assert prof.zeta[-1] == 1.0 and prof.r[-1] == 1.0


@pytest.mark.parametrize("lam", [1e-9, 1e-8])
def test_profile_refuses_unresolvable_threshold(lam):
    # theta_Y - 1 (about 5e-18 and 5e-16 here) spans at most 8 ulps of 1,
    # so the profile's shape would be rounding noise
    with pytest.raises(SolverError, match="cannot be resolved"):
        minimizer_profile(lam, n_samples=64)


# ---------------------------------------------------------- variational route


def test_variational_matches_formula_on_coarse_mesh():
    mesh = make_mesh(256)
    for lam in (0.5, 2.0):
        ref = theta_of_lambda(lam)
        res = yield_variational(lam, mesh)
        assert abs(res.theta_Y - ref) / ref <= 1e-3
        assert res.lam == lam


def test_variational_minimizer_is_normalized_eigenfunction():
    res = yield_variational(1.0, make_mesh(256))
    assert res.minimizer is not None
    assert abs(mass(res.minimizer) - 1.0) <= 1e-12
    # the minimum value is the relaxed dissipation of the unit-mass minimizer
    assert abs(relaxed_dissipation(res.minimizer, 1.0) - res.theta_Y) <= 1e-12
    for key in ("epsilon_final", "n_cells", "newton_calls"):
        assert key in res.diagnostics


def test_variational_breakdown_is_a_solver_error():
    # past the formula's domain the Hessian's banded factorization fails,
    # and a solver reports its failures as SolverError, naming the minor
    # with its English ordinal
    with pytest.raises(SolverError, match="3rd leading minor not positive definite"):
        yield_variational(1e15, make_mesh(8))


def test_variational_improves_under_refinement():
    lam = 1.0
    ref = theta_of_lambda(lam)
    e_coarse = abs(yield_variational(lam, make_mesh(128)).theta_Y - ref)
    e_fine = abs(yield_variational(lam, make_mesh(512)).theta_Y - ref)
    assert e_fine < e_coarse


@pytest.mark.xfail(
    strict=True,
    raises=SolverError,
    reason="ROADMAP item 3: the multiplier bisection's Newton stops at a "
    "measure of 1.8e-7 against tol 1e-9 near lam = 600 on fine meshes",
)
def test_variational_converges_near_lam_600_on_a_fine_mesh():
    # a fixed-sum solve in variables scaled by dr / m_i reached 4.4e-9 here
    ref = theta_of_lambda(600.0)
    res = yield_variational(600.0, make_mesh(2048))
    assert abs(res.theta_Y - ref) / ref <= 1e-6


# -------------------------------------------------------------- onset profile


def test_profile_shape_and_identities():
    for lam in (0.3, 1.0, 3.0):
        prof = minimizer_profile(lam, n_samples=1 << 12)
        vals = prof.phi.values
        # even in r
        assert float(np.max(np.abs(vals - vals[::-1]))) == 0.0
        # strictly decreasing on the right half
        half = vals[vals.size // 2 :]
        assert bool(np.all(np.diff(half) < 0.0))
        # normalized to unit mass
        assert abs(mass(prof.phi) - 1.0) <= 1e-8
        # boundary trace over center value
        t = prof.theta_Y
        assert abs(prof.jump_ratio - (t - 1.0) / t) <= 1e-8
        # value per unit mass recovers the threshold
        assert abs(relaxed_dissipation(prof.phi, lam) - t) <= 1e-6 * t


def test_profile_closure_identity():
    # the closed-form arc at zeta = 1 is 1 / lambda_of_theta: the identity
    # the integrated profile used to be refined against
    end = np.array(0.5 * math.pi)
    worst = 0.0
    for lam in np.logspace(-5.0, 6.0, 221):
        t = theta_of_lambda(float(lam))
        worst = max(worst, abs(float(yield_stress._arc(end, t)) * lambda_of_theta(t) - 1.0))
    assert worst <= 1e-9


@pytest.mark.parametrize("lam", [1e-3, 0.1, 1.179812, 10.0, 1e3])
@pytest.mark.parametrize("n_cells", [64, 512])
def test_bracket_start_is_the_onset_profile(lam, n_cells):
    # linear interpolation in r between 513 samples uniform in the angle:
    # an error of order (pi / 2 / 512)^2 ~ 1e-5 of the center value
    exact = minimizer_profile(lam, n_cells).phi.values[1:-1]
    start = yield_stress._onset_start(make_mesh(n_cells), lam)
    center = n_cells // 2 - 1
    assert float(np.max(np.abs(start / start[center] - exact / exact[center]))) <= 1e-5


@pytest.mark.parametrize("lam", [1e-5, 1e-3, 1.0, 1e3])
def test_profile_matches_independent_quadrature(lam):
    # r(zeta) = lam int_0^zeta dz / (theta - sqrt(1 - z^2)) and
    # phi / phi(0) = (theta - 1) / (theta - sqrt(1 - zeta^2)), with
    # theta - sqrt(1 - z^2) = (theta - 1) + z^2 / (1 + sqrt(1 - z^2)) so the
    # reference does not cancel; lam = 1 / int_0^1 is taken from the same
    # quadrature, because lambda_of_theta drops (theta - 1)^2 from
    # theta^2 - 1 and is off by 1.2e-10 at lam = 1e-5 (its agreement with
    # the arc is the closure test's)
    from scipy.integrate import quad

    prof = minimizer_profile(lam, n_samples=1 << 12)
    d = prof.theta_Y - 1.0

    def denominator(z):
        return d + z * z / (1.0 + math.sqrt(1.0 - z * z))

    def integral(z):
        # split at the boundary layer, z ~ sqrt(theta - 1) (2e-5 at lam = 1e-5)
        pts = [math.sqrt(d)] if math.sqrt(d) < z else None
        return quad(lambda x: 1.0 / denominator(x), 0.0, z, epsabs=0.0, epsrel=1e-13,
                    limit=200, points=pts)[0]

    whole = integral(1.0)
    center = prof.phi.values[prof.phi.values.size // 2]
    for i in range(0, prof.r.size, 64):
        z = float(prof.zeta[i])
        assert abs(integral(z) / whole - prof.r[i]) <= 1e-12
        ratio = prof.phi.values[prof.phi.values.size // 2 + i] / center
        assert abs(ratio - d / denominator(z)) <= 1e-12 * (d / denominator(z))


def test_profile_auxiliary_arc():
    prof = minimizer_profile(1.0, n_samples=1 << 12)
    # zeta runs from 0 at the center to 1 at the face
    assert abs(prof.zeta[0]) <= 1e-12
    assert abs(prof.zeta[-1] - 1.0) <= 1e-9
    assert prof.r[0] == 0.0
    assert prof.r[-1] == 1.0


# ------------------------------------------------------- thinner is stronger


def test_relaxed_dissipation_is_nondecreasing_in_lam():
    # every term of Psi_bar_lam(phi) is nondecreasing in lam, so theta_Y,
    # its minimum over unit mass, is too; the discrete value obeys this
    # exactly, also between neighbouring doubles of lam
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        mesh = make_mesh(int(2 ** rng.integers(1, 10)))
        scale = 10.0 ** rng.uniform(-8.0, 8.0)
        phi = RelaxedField(mesh, scale * rng.standard_normal(mesh.n_cells + 1))
        lam = 10.0 ** rng.uniform(-6.0, 6.0)
        base = relaxed_dissipation(phi, lam)
        for other in (lam * 10.0 ** rng.uniform(0.0, 1.0), math.nextafter(lam, math.inf)):
            assert base <= relaxed_dissipation(phi, other), (mesh.n_cells, scale, lam, other)


@pytest.mark.parametrize("n", [1, 2, 3, 256, 4096])
def test_gauss_legendre_rule(n):
    from scipy.special import roots_legendre

    from stripshear._p1 import gauss_legendre

    z, w = gauss_legendre(n)
    x_ref = roots_legendre(n)[0]
    assert float(np.max(np.abs(z - (x_ref + 1.0) * 0.5))) <= 1e-15
    # exact for every monomial of degree < 2n
    zk = np.ones(n)
    for k in range(2 * n):
        assert abs(float(w @ zk) - 1.0 / (k + 1)) <= 1e-14
        zk *= z
    # exp: the Gauss error term c f^(2n)(xi) on [0, 1], with 1 <= f^(2n) <= e
    c = math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
    err = (math.e - 1.0) - float(w @ np.exp(z))
    assert c * (1.0 - 1e-12) - 1e-14 <= err <= math.e * c + 1e-14
