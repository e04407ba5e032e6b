"""Local threshold model, parameter containers, mesh and field invariants.

Coverage:
  1. local_flow_response: exact piecewise-linear form, thresholding at 1,
     1/kappa scaling, scalar/array conventions, input validation (kappa,
     and a NaN or negative theta).
  2. local_energy_balance_residual: exactly zero before flow starts,
     first-order decay of the defect under grid refinement, grid validation
     (one point, a non-finite point, no start at 0, a decrease).
  3. nondimensionalize and the parameter containers' validation.
  4. make_mesh geometry and Field immutability; a mesh refuses an odd, too
     small or non-integer (float, bool) cell count.
"""

import math

import numpy as np
import pytest

from stripshear import (
    Field,
    Mesh,
    NondimParams,
    PhysicalParams,
    local_energy_balance_residual,
    local_flow_response,
    make_mesh,
    nondimensionalize,
)


# ---------------------------------------------------------------- flow rule


def test_flow_zero_at_and_below_threshold():
    for theta in (0.0, 0.3, 0.999, 1.0):
        assert local_flow_response(theta, 2.0) == 0.0


def test_flow_exact_above_threshold():
    # gamma = (theta - 1) / kappa once the threshold is crossed
    assert local_flow_response(2.5, 2.0) == 0.75
    assert local_flow_response(1.5, 1.0) == 0.5


def test_flow_scalar_returns_float():
    out = local_flow_response(2.0, 4.0)
    assert isinstance(out, float)
    assert out == 0.25


def test_flow_array_matches_elementwise_formula():
    theta = np.array([0.0, 0.5, 1.0, 1.5, 3.0])
    out = local_flow_response(theta, 2.0)
    expected = np.maximum(theta - 1.0, 0.0) / 2.0
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, expected)


def test_flow_kappa_scaling():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = 1.0 + 5.0 * rng.random()
        kappa = 0.1 + 5.0 * rng.random()
        c = 0.5 + 2.0 * rng.random()
        a = local_flow_response(theta, kappa)
        b = local_flow_response(theta, c * kappa)
        assert abs(a - c * b) <= 1e-12 * max(1.0, abs(a))


def test_flow_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        local_flow_response(2.0, 0.0)
    with pytest.raises(ValueError):
        local_flow_response(2.0, -1.0)


@pytest.mark.parametrize(
    "theta, message",
    [(math.nan, "must be finite"), ([0.5, -0.1], "must be nonnegative")],
)
def test_flow_rejects_nan_or_negative_theta(theta, message):
    with pytest.raises(ValueError, match=message):
        local_flow_response(theta, 1.0)


# ----------------------------------------------------------- energy balance


def test_balance_zero_below_yield():
    grid = np.linspace(0.0, 0.9, 10)
    assert local_energy_balance_residual(grid, 1.0) == 0.0


def test_balance_first_order_in_grid():
    # the defect is O(delta theta), dominated by the yield-straddling cell;
    # the end point 2.9 keeps theta = 1 off the grid so that cell exists
    kappa = 1.5
    coarse = local_energy_balance_residual(np.linspace(0.0, 2.9, 31), kappa)
    fine = local_energy_balance_residual(np.linspace(0.0, 2.9, 61), kappa)
    assert coarse > 0.0
    assert fine <= 0.6 * coarse


def test_balance_exact_when_threshold_on_grid():
    # with theta = 1 a grid point no cell straddles the onset and the
    # trapezoid work integral matches the quadratic energies to roundoff
    assert local_energy_balance_residual(np.linspace(0.0, 3.0, 31), 1.5) <= 1e-13


def test_balance_grid_validation():
    with pytest.raises(ValueError):
        local_energy_balance_residual(np.array([0.1, 0.2, 0.3]), 1.0)
    with pytest.raises(ValueError):
        local_energy_balance_residual(np.array([0.0, 0.5, 0.3]), 1.0)
    with pytest.raises(ValueError, match="at least two points"):
        local_energy_balance_residual([0.0], 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        local_energy_balance_residual([0.0, math.inf], 1.0)


# ---------------------------------------------------------------- parameters


def test_nondimensionalize_ratios():
    p = PhysicalParams(
        S0=2.0, kappa=0.8, L=1.2, ell=0.3, h=2.0, G=5.0, d0=1.0, m_rate=0.1
    )
    q = nondimensionalize(p)
    assert q.lam == 0.15
    assert q.Lambda == 0.6
    assert q.kappa == 0.8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"S0": 0.0},
        {"h": 0.0},
        {"G": -1.0},
        {"d0": 0.0},
        {"L": -1.0},
        {"ell": -0.5},
        {"kappa": -1.0},
    ],
)
def test_physical_params_validation(kwargs):
    base = dict(S0=1.0, kappa=1.0, L=1.0, ell=1.0, h=1.0, G=1.0, d0=1.0, m_rate=0.1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        PhysicalParams(**base)


def test_physical_params_allows_zero_lengths():
    # L = ell = 0 is the local model; used by the scalar reduction checks
    p = PhysicalParams(S0=1.0, kappa=1.0, L=0.0, ell=0.0, h=1.0, G=1.0, d0=1.0, m_rate=0.3)
    assert p.L == 0.0 and p.ell == 0.0


def test_nondim_params_validation():
    with pytest.raises(ValueError):
        NondimParams(lam=0.0, Lambda=1.0, kappa=1.0)
    with pytest.raises(ValueError):
        NondimParams(lam=1.0, Lambda=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        NondimParams(lam=1.0, Lambda=1.0, kappa=-1.0)
    with pytest.raises(ValueError):
        NondimParams(lam=math.nan, Lambda=1.0, kappa=1.0)


# ------------------------------------------------------------- mesh / fields


def test_mesh_geometry():
    mesh = make_mesh(8)
    assert mesh.n_cells == 8
    assert mesh.nodes[0] == -1.0
    assert mesh.nodes[-1] == 1.0
    assert mesh.dr == 0.25
    np.testing.assert_allclose(np.diff(mesh.nodes), mesh.dr, rtol=0.0, atol=1e-15)


def test_mesh_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        make_mesh(3)
    with pytest.raises(ValueError):
        make_mesh(0)
    for n in (4.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            Mesh(n)


def test_mesh_equality_by_cell_count():
    assert make_mesh(8) == make_mesh(8)
    assert make_mesh(8) != make_mesh(16)


def test_field_zeros_and_shape_check():
    mesh = make_mesh(8)
    f = Field.zeros(mesh)
    assert f.values.shape == (9,)
    assert np.all(f.values == 0.0)
    with pytest.raises(ValueError):
        Field(mesh, np.zeros(5))


def test_field_values_are_read_only():
    f = Field.zeros(make_mesh(8))
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_field_rejects_non_finite():
    mesh = make_mesh(8)
    with pytest.raises(ValueError):
        Field(mesh, np.full(9, np.nan))
    with pytest.raises(ValueError):
        Field(mesh, np.full(9, np.inf))
