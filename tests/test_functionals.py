"""Energy and dissipation functionals on piecewise-linear fields.

The closed forms pinned here are computed by hand from the definitions:

  mass(gamma)            = int gamma dr                 (trapezoid, exact)
  plastic_energy(gamma)  = (kappa/2) int (gamma^2 + Lambda^2 gamma_r^2) dr
  dissipation(gamma)     = int sqrt(gamma^2 + lam^2 gamma_r^2) dr
  relaxed_dissipation    = dissipation + lam (|phi(-1)| + |phi(+1)|)

For the unit hat gamma(r) = 1 - |r| (representable exactly on any even
mesh): int gamma = 1, int gamma^2 = 2/3, int gamma_r^2 = 2, and with
lam = 1 the dissipation integral is sqrt(2) + ln(1 + sqrt(2)).  For the
constant phi = 1/2 the relaxed value is exactly 1 + lam at any resolution.

Scaling and inequality properties run as seeded random loops; they mirror
the structural facts (1-homogeneity, convexity, pointwise bounds) rather
than specific numbers.
"""

import math

import numpy as np
import pytest

from stripshear import (
    Field,
    NondimParams,
    RelaxedField,
    dissipation,
    dissipation_distance,
    make_mesh,
    mass,
    plastic_energy,
    relaxed_dissipation,
    total_energy,
)
from stripshear._p1 import GAUSS3_POINTS, GAUSS3_WEIGHTS

HAT_PSI_LAM1 = math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))  # 2.295587...


def _hat(mesh):
    return Field(mesh, 1.0 - np.abs(mesh.nodes))


def _random_interior(mesh, rng, scale=1.0):
    v = scale * rng.standard_normal(mesh.n_cells + 1)
    v[0] = v[-1] = 0.0
    return Field(mesh, v)


# ----------------------------------------------------------------------- mass


def test_mass_of_hat_is_one():
    for n in (2, 8, 64):
        assert mass(_hat(make_mesh(n))) == 1.0


def test_mass_is_linear():
    rng = np.random.default_rng(11)
    mesh = make_mesh(32)
    for _ in range(10):
        f = _random_interior(mesh, rng)
        g = _random_interior(mesh, rng)
        c = float(rng.standard_normal())
        lhs = mass(Field(mesh, c * f.values + g.values))
        rhs = c * mass(f) + mass(g)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


# -------------------------------------------------------------- stored energy


def test_plastic_energy_hat_closed_form():
    # (kappa/2) (2/3 + Lambda^2 * 2); quadratics are integrated exactly
    mesh = make_mesh(64)
    hat = _hat(mesh)
    e1 = plastic_energy(hat, NondimParams(lam=1.0, Lambda=1.0, kappa=2.0))
    e2 = plastic_energy(hat, NondimParams(lam=1.0, Lambda=0.5, kappa=2.0))
    assert abs(e1 - 8.0 / 3.0) <= 1e-14
    assert abs(e2 - 7.0 / 6.0) <= 1e-14


def test_plastic_energy_zero_field():
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    assert plastic_energy(Field.zeros(make_mesh(16)), p) == 0.0


def test_plastic_energy_quadratic_scaling():
    rng = np.random.default_rng(5)
    mesh = make_mesh(48)
    p = NondimParams(lam=0.7, Lambda=1.3, kappa=0.9)
    for _ in range(25):
        f = _random_interior(mesh, rng)
        c = float(2.0 * rng.standard_normal())
        lhs = plastic_energy(Field(mesh, c * f.values), p)
        rhs = c * c * plastic_energy(f, p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_total_energy_identity():
    rng = np.random.default_rng(3)
    mesh = make_mesh(32)
    p = NondimParams(lam=1.0, Lambda=0.8, kappa=1.2)
    for _ in range(10):
        f = _random_interior(mesh, rng)
        theta = float(3.0 * rng.standard_normal())
        lhs = total_energy(theta, f, p)
        rhs = plastic_energy(f, p) - theta * mass(f)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
    with pytest.raises(ValueError):
        total_energy(math.inf, _hat(mesh), p)


# ---------------------------------------------------------------- dissipation


def test_dissipation_hat_lam1():
    # exact integral of sqrt((1-|r|)^2 + 1); smooth per cell, so the
    # fixed Gauss rule resolves it to roundoff at moderate resolution
    val = dissipation(_hat(make_mesh(64)), 1.0)
    assert abs(val - HAT_PSI_LAM1) <= 1e-13


def test_dissipation_lam0_is_l1_norm():
    # hat is nonnegative and piecewise linear: |gamma| = gamma integrates to 1
    assert abs(dissipation(_hat(make_mesh(16)), 0.0) - 1.0) <= 1e-14


def test_dissipation_refinement_converges():
    def psi(n):
        mesh = make_mesh(n)
        return dissipation(Field(mesh, np.sin(math.pi * mesh.nodes)), 0.8)

    e_coarse = abs(psi(16) - psi(1024))
    e_fine = abs(psi(32) - psi(1024))
    assert e_fine < e_coarse


def test_dissipation_one_homogeneous():
    rng = np.random.default_rng(42)
    mesh = make_mesh(40)
    for _ in range(25):
        f = _random_interior(mesh, rng)
        lam = float(2.0 * rng.random())
        c = float(4.0 * rng.standard_normal())
        lhs = dissipation(Field(mesh, c * f.values), lam)
        rhs = abs(c) * dissipation(f, lam)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_dissipation_triangle_inequality():
    rng = np.random.default_rng(17)
    mesh = make_mesh(40)
    for _ in range(25):
        f = _random_interior(mesh, rng)
        g = _random_interior(mesh, rng)
        lam = float(2.0 * rng.random())
        both = dissipation(Field(mesh, f.values + g.values), lam)
        split = dissipation(f, lam) + dissipation(g, lam)
        assert both <= split + 1e-12 * max(1.0, split)


def test_dissipation_bounds():
    # pointwise |gamma| <= sqrt(gamma^2 + lam^2 gamma_r^2) <= |gamma| + lam |gamma_r|
    # and lam * TV <= Psi; TV of a piecewise-linear field is sum |jumps|
    rng = np.random.default_rng(29)
    mesh = make_mesh(40)
    for _ in range(25):
        f = _random_interior(mesh, rng)
        lam = float(2.0 * rng.random())
        psi = dissipation(f, lam)
        l1 = dissipation(f, 0.0)
        tv = float(np.sum(np.abs(np.diff(f.values))))
        slack = 1e-12 * max(1.0, psi)
        assert max(l1, lam * tv) <= psi + slack
        assert psi <= l1 + lam * tv + slack


def test_dissipation_rejects_negative_lam():
    with pytest.raises(ValueError):
        dissipation(_hat(make_mesh(8)), -0.1)


# -------------------------------------------------------- relaxed dissipation


def test_relaxed_constant_half_hits_upper_bound():
    # phi = 1/2 has interior integral 1 and two boundary jumps of lam/2 each
    for n, lam in ((8, 0.25), (64, 0.7), (16, 3.0)):
        mesh = make_mesh(n)
        phi = RelaxedField(mesh, np.full(mesh.n_cells + 1, 0.5))
        assert abs(relaxed_dissipation(phi, lam) - (1.0 + lam)) <= 1e-14 * (1.0 + lam)


def test_relaxed_equals_plain_on_clamped_fields():
    rng = np.random.default_rng(23)
    mesh = make_mesh(32)
    for _ in range(5):
        f = _random_interior(mesh, rng)
        phi = RelaxedField(mesh, f.values.copy())
        assert relaxed_dissipation(phi, 1.3) == dissipation(f, 1.3)


# -------------------------------------------------------- dissipation distance


def test_distance_symmetric_and_zero_on_equal():
    rng = np.random.default_rng(31)
    mesh = make_mesh(24)
    f = _random_interior(mesh, rng)
    g = _random_interior(mesh, rng)
    assert dissipation_distance(f, f, 1.0) == 0.0
    assert dissipation_distance(f, g, 1.0) == dissipation_distance(g, f, 1.0)
    assert dissipation_distance(f, g, 1.0) > 0.0


def test_distance_triangle_inequality():
    rng = np.random.default_rng(37)
    mesh = make_mesh(24)
    for _ in range(15):
        f = _random_interior(mesh, rng)
        g = _random_interior(mesh, rng)
        h = _random_interior(mesh, rng)
        direct = dissipation_distance(f, h, 0.9)
        via = dissipation_distance(f, g, 0.9) + dissipation_distance(g, h, 0.9)
        assert direct <= via + 1e-12 * max(1.0, via)


def test_distance_rejects_mesh_mismatch():
    with pytest.raises(ValueError):
        dissipation_distance(
            Field.zeros(make_mesh(8)), Field.zeros(make_mesh(16)), 1.0
        )


# ------------------------------------------------------------------ quadrature


def test_gauss_rule_integrates_polynomials():
    # the shared Gauss(3) rule on [0, 1] is exact through degree 5
    for k in range(6):
        val = float(np.sum(GAUSS3_WEIGHTS * GAUSS3_POINTS**k))
        assert abs(val - 1.0 / (k + 1)) <= 1e-14
