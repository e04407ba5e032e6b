"""Yield threshold: closed formula, quadrature identity, variational route.

Anchors used here:
  * The quadrature identity: lambda equals the integral
    int_0^1 dzeta / (theta - sqrt(1 - zeta^2)), evaluated independently by
    yield_integral.  Agreement of lambda_of_theta with that integral is the
    primary correctness oracle for the closed form.
  * Frozen regression values (from the formula, cross-checked against the
    identity at high quadrature order when first recorded):
      lambda_of_theta(sqrt(2)) = 0.5677412133152117
      lambda_of_theta(2)       = 1.1797978603829922
      theta_of_lambda(1)       = 1.8252250262013787
  * Profile identities: the onset profile is even, strictly decreasing away
    from the center, unit mass, boundary trace ratio (theta - 1)/theta, and
    its relaxed dissipation per unit mass equals theta_Y.
  * theta_of_lambda returns across lam in [1e-7, 1e6], strictly inside
    (1, 1 + lam) and with the exact inverse in its root finder's band.
  * The quadrature's own Gauss-Legendre rule: nodes equal scipy's
    roots_legendre to 1e-15, and the weights integrate every monomial of
    degree < 2n on [0, 1] and exp with the Gauss error term.
"""

import math

import numpy as np
import pytest

from stripshear import (
    NondimParams,
    asymptotic_theta,
    lambda_of_theta,
    make_mesh,
    mass,
    minimizer_profile,
    reduced_stability_indicator_sign,
    relaxed_dissipation,
    stability_indicator,
    theta_of_lambda,
    yield_integral,
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
        assert abs(lam - yield_integral(theta, n_quad=512)) <= 1e-9 * max(1.0, lam)


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


def test_strict_bounds():
    grid = np.exp(np.linspace(math.log(1e-3), math.log(1e2), 40))
    for lam in grid:
        t = theta_of_lambda(lam)
        assert 1.0 < t < 1.0 + lam


@pytest.mark.parametrize("lam", [1e-7, 3e-6, 1e-5, 1.0, 1e4, 1e6])
def test_inversion_across_the_domain(lam):
    # near theta = 1 one ulp of theta moves lambda past a 1e-12 residual, and
    # past lam ~ 1e4 the bracket's lower end 1 + 1e-4 lam^2 overtook 1 + lam;
    # the root must lie in the root finder's own band around the exact inverse
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


# ---------------------------------------------------------- variational route


def test_variational_matches_formula_on_coarse_mesh():
    mesh = make_mesh(256)
    for lam in (0.5, 2.0):
        ref = theta_of_lambda(lam)
        res = yield_variational(lam, mesh)
        assert abs(res.theta_Y - ref) / ref <= 1e-3
        assert res.method == "variational"
        assert res.lam == lam


def test_variational_minimizer_is_normalized_eigenfunction():
    res = yield_variational(1.0, make_mesh(256))
    assert res.minimizer is not None
    assert abs(mass(res.minimizer) - 1.0) <= 1e-12
    # the minimum value is the relaxed dissipation of the unit-mass minimizer
    assert abs(relaxed_dissipation(res.minimizer, 1.0) - res.theta_Y) <= 1e-12
    for key in ("epsilon_final", "n_cells", "newton_calls"):
        assert key in res.diagnostics


def test_variational_improves_under_refinement():
    lam = 1.0
    ref = theta_of_lambda(lam)
    e_coarse = abs(yield_variational(lam, make_mesh(128)).theta_Y - ref)
    e_fine = abs(yield_variational(lam, make_mesh(512)).theta_Y - ref)
    assert e_fine < e_coarse


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


def test_profile_auxiliary_arc():
    prof = minimizer_profile(1.0, n_samples=1 << 12)
    # zeta runs from 0 at the center to 1 at the face
    assert abs(prof.zeta[0]) <= 1e-12
    assert abs(prof.zeta[-1] - 1.0) <= 1e-9
    assert prof.r[0] == 0.0
    assert prof.r[-1] == 1.0


# ---------------------------------------------------------- stability markers


def test_reduced_indicator_sign_flips_at_threshold():
    mesh = make_mesh(512)
    for lam in (0.5, 1.0, 2.0):
        t = theta_of_lambda(lam)
        assert reduced_stability_indicator_sign(0.95 * t, lam, mesh) == 1
        assert reduced_stability_indicator_sign(1.05 * t, lam, mesh) == -1


def test_stability_indicator_sign():
    lam = 1.0
    t = theta_of_lambda(lam)
    p = NondimParams(lam=lam, Lambda=1.0, kappa=1.0)
    mesh = make_mesh(256)
    assert stability_indicator(0.9 * t, p, mesh) >= -1e-12
    assert stability_indicator(1.1 * t, p, mesh) < 0.0


def test_brentq_matches_scipy_bit_for_bit():
    # theta_of_lambda's root finder is a transcription of scipy's brentq;
    # the inverted thresholds must be the very same doubles
    from scipy.optimize import brentq

    from stripshear.yield_stress import _brentq

    rtol = 4 * np.finfo(float).eps
    for lam in np.exp(np.linspace(math.log(1e-6), math.log(1e3), 301)):
        lam = float(lam)
        lo, hi = 1.0 + max(1e-4 * lam * lam, 4e-16), 1.0 + lam
        f = lambda t: lambda_of_theta(t) - lam  # noqa: E731
        ref = brentq(f, lo, hi, xtol=1e-15, rtol=rtol, maxiter=200)
        assert _brentq(f, lo, hi, 1e-15, rtol, 200) == ref
    for f, a, b in [(lambda x: x**3 - 2 * x - 5, 2.0, 3.0), (math.cos, 0.0, 3.0)]:
        assert _brentq(f, a, b, 2e-12, rtol, 100) == brentq(f, a, b)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(math.exp, 0.0, 1.0, 2e-12, rtol, 100)


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
