"""Model data types and the local (gradient-free) limit.

The strip occupies y in [-h, h] and is sheared quasistatically by a spatially
uniform stress tau(t).  After renormalization (theta = tau / S0, r = y / h) the
plastic shear gamma lives on the interval I = (-1, 1) and the model is governed
by three dimensionless numbers:

    lam    = ell / h   dissipative gradient scale over half-thickness
    Lambda = L / h     energetic gradient scale over half-thickness
    kappa              local hardening modulus

With the gradient terms switched off the flow response is the elementary
one-dimensional hardening law gamma(theta) = (theta - 1)_+ / kappa, which the
gradient model must recover in the small-lam, small-Lambda limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SolverError",
    "PhysicalParams",
    "NondimParams",
    "Mesh",
    "Field",
    "nondimensionalize",
    "local_flow_response",
    "local_energy_balance_residual",
    "make_mesh",
]


class SolverError(RuntimeError):
    """Nonlinear solve failed to reach its tolerance.

    Attributes
    ----------
    residual : float
        Gradient or balance residual at the last iterate.
    step : int or None
        Load-step index when raised from a time-marching loop.
    """

    def __init__(self, message: str, residual: float = math.nan, step: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.step = step


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional material and geometry constants.

    S0 is the initial dissipative strength, kappa the hardening modulus,
    L and ell the energetic and dissipative length scales, h the strip
    half-thickness, G the elastic shear modulus, d0 the reference flow rate
    and m_rate the rate-sensitivity exponent.  L and ell may be zero, which
    turns the gradient terms off (the local limit used by the viscoplastic
    reduction tests); every other length must be strictly positive.
    """

    S0: float
    kappa: float
    L: float
    ell: float
    h: float
    G: float
    d0: float
    m_rate: float

    def __post_init__(self) -> None:
        for name in ("S0", "h", "G", "d0"):
            v = _check_finite(name, getattr(self, name))
            if v <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {v}")
            object.__setattr__(self, name, v)
        for name in ("kappa", "m_rate", "L", "ell"):
            v = _check_finite(name, getattr(self, name))
            if v < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class NondimParams:
    """Renormalized parameters (lam = ell/h, Lambda = L/h, kappa)."""

    lam: float
    Lambda: float
    kappa: float

    def __post_init__(self) -> None:
        lam = _check_finite("lam", self.lam)
        Lam = _check_finite("Lambda", self.Lambda)
        kap = _check_finite("kappa", self.kappa)
        if lam <= 0.0:
            raise ValueError(f"lam must be strictly positive, got {lam}")
        if Lam <= 0.0:
            raise ValueError(f"Lambda must be strictly positive, got {Lam}")
        if kap < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {kap}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "kappa", kap)


def nondimensionalize(p: PhysicalParams) -> NondimParams:
    """Map physical constants to the renormalized triple (lam, Lambda, kappa).

    Only the ratios ell/h and L/h matter; rescaling (ell, L, h) by a common
    factor leaves the result unchanged.  Zero gradient lengths are rejected
    here because the renormalized model requires lam > 0 and Lambda > 0.
    """
    return NondimParams(lam=p.ell / p.h, Lambda=p.L / p.h, kappa=p.kappa)


def local_flow_response(theta, kappa: float):
    """Plastic shear of the gradient-free model, gamma = (theta - 1)_+ / kappa.

    Accepts a scalar or array of nonnegative renormalized stresses theta.
    kappa = 0 is rejected: without hardening the local response past the
    threshold is unbounded plastic flow.
    """
    kappa = _check_finite("kappa", kappa)
    if kappa <= 0.0:
        raise ValueError(
            "kappa must be strictly positive: kappa = 0 means unbounded plastic flow past yield"
        )
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("theta must be finite")
    if np.any(th < 0.0):
        raise ValueError("theta must be nonnegative")
    out = np.maximum(th - 1.0, 0.0) / kappa
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(out)
    return out


def local_energy_balance_residual(theta_grid, kappa: float) -> float:
    """Finite-difference energy-balance defect of the local response.

    Along gamma(theta) = (theta - 1)_+ / kappa the power identity

        (kappa / 2) d(gamma^2)/dtheta + |dgamma/dtheta| = theta dgamma/dtheta

    holds in the smooth regimes.  This evaluates it with forward differences
    on theta_grid, the stress factor taken at the interval midpoint, and
    returns the largest absolute defect.  The defect is exactly zero away
    from the yield point and O(dtheta) on the interval that straddles it, so
    it converges at first order under grid refinement.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("theta_grid needs at least two points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("theta_grid must be finite")
    if grid[0] != 0.0:
        raise ValueError("theta_grid must start at 0")
    dth = np.diff(grid)
    if np.any(dth <= 0.0):
        raise ValueError("theta_grid must be strictly increasing")
    gamma = local_flow_response(grid, kappa)
    dgam = np.diff(gamma)
    mid = 0.5 * (grid[:-1] + grid[1:])
    stored = 0.5 * kappa * np.diff(gamma**2) / dth
    dissipated = np.abs(dgam) / dth
    supplied = mid * dgam / dth
    return float(np.max(np.abs(stored + dissipated - supplied)))


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of an even number of cells on [-1, 1].

    An even cell count keeps r = 0 a node, so even/odd field symmetries are
    representable exactly.
    """

    n_cells: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        n = self.n_cells
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"n_cells must be an integer, got {n!r}")
        n = int(n)
        if n < 2 or n % 2 != 0:
            raise ValueError(f"n_cells must be even and >= 2, got {n}")
        nodes = np.linspace(-1.0, 1.0, n + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "n_cells", n)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dr(self) -> float:
        return 2.0 / self.n_cells


def make_mesh(n_cells: int) -> Mesh:
    """Build the uniform mesh on [-1, 1] with an even number of cells."""
    return Mesh(n_cells)


def _validate_values(mesh: Mesh, values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.shape != (mesh.n_cells + 1,):
        raise ValueError(
            f"values must have shape ({mesh.n_cells + 1},) for {mesh.n_cells} cells, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Field:
    """Piecewise-linear nodal field on a mesh (houses the plastic shear)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate_values(self.mesh, self.values))

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(mesh.n_cells + 1))
