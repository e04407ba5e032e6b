"""Energy and dissipation functionals on piecewise-linear fields.

All integrals run over the renormalized interval I = (-1, 1).  For a plastic
shear field gamma with derivative gamma_r the three building blocks are

    E(gamma)          = (kappa / 2) * int ( gamma^2 + Lambda^2 gamma_r^2 ) dr
    Psi(gamma)        = int sqrt( gamma^2 + lam^2 gamma_r^2 ) dr
    E_tot(theta, gamma) = E(gamma) - theta * int gamma dr

E is the stored (energetic) part, Psi the positively 1-homogeneous
dissipation, and the last term the work of the renormalized stress theta.
Psi extended to fields with free boundary values gains the relaxation
penalty lam * (|gamma(-1)| + |gamma(+1)|), the cost of the boundary jumps a
bounded-variation minimizer is allowed to form:

    Psi_rel(phi) = int sqrt( phi^2 + lam^2 phi_r^2 ) dr
                   + lam * ( |phi(-1)| + |phi(+1)| )

Discretization: fields are nodal and piecewise linear on a uniform mesh.
The quadratic integrands of E are integrated exactly (Simpson on each cell).
The square-root integrand of Psi is smooth inside each cell and is handled
by the one fixed Gauss(3) rule per cell of the shared P1 kernel (_p1, where
the package generates its Gauss-Legendre rules); it is not a parameter.  The
mass integral uses the trapezoidal rule, which is exact for piecewise-linear
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._p1 import SmoothedDissipation
from .model import Field, NondimParams

__all__ = [
    "RelaxedField",
    "mass",
    "plastic_energy",
    "dissipation",
    "relaxed_dissipation",
    "total_energy",
]


@dataclass(frozen=True)
class RelaxedField(Field):
    """Nodal field whose boundary entries are one-sided interior traces.

    Unlike a plain Field, the values at r = -1 and r = +1 are not constrained
    to vanish; the relaxed dissipation charges lam * |trace| for the implied
    boundary jumps.
    """


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    return lam


def mass(gamma: Field) -> float:
    """Trapezoidal integral of the field over [-1, 1] (exact for nodal data)."""
    v = gamma.values
    return gamma.mesh.dr * (float(np.sum(v)) - 0.5 * (v[0] + v[-1]))


def plastic_energy(gamma: Field, p: NondimParams) -> float:
    """Stored energy (kappa / 2) int (gamma^2 + Lambda^2 gamma_r^2) dr.

    Both cell integrals are polynomial in the nodal values and evaluated
    exactly: int gamma^2 over a cell equals (dr / 3) (a^2 + a b + b^2) and
    the slope term is (b - a)^2 / dr.
    """
    v = gamma.values
    dr = gamma.mesh.dr
    a = v[:-1]
    b = v[1:]
    sq = float(np.sum(a * a + a * b + b * b)) * dr / 3.0
    grad = float(np.sum((b - a) ** 2)) / dr
    return 0.5 * p.kappa * (sq + p.Lambda * p.Lambda * grad)


def dissipation(gamma: Field, lam: float) -> float:
    """Dissipation Psi(gamma) = int sqrt(gamma^2 + lam^2 gamma_r^2) dr.

    Positively 1-homogeneous and convex; lam = 0 degenerates to the L1 norm.
    The integrand is smooth within each cell (piecewise-linear data), so the
    fixed Gauss(3) rule per cell converges at second order under refinement
    for smooth fields.
    """
    lam = _check_lam(lam)
    return SmoothedDissipation(gamma.mesh, lam).value(gamma.values, 0.0)


def relaxed_dissipation(phi: RelaxedField, lam: float) -> float:
    """Relaxed dissipation: interior Psi plus lam * (|phi(-1)| + |phi(+1)|).

    The boundary terms price the jumps between the clamped value 0 and the
    interior traces; on fields with zero traces this coincides with Psi.
    """
    lam = _check_lam(lam)
    v = phi.values
    interior = SmoothedDissipation(phi.mesh, lam).value(v, 0.0)
    return interior + lam * (abs(float(v[0])) + abs(float(v[-1])))


def total_energy(theta: float, gamma: Field, p: NondimParams) -> float:
    """E(gamma) - theta * int gamma dr, the driving functional at stress theta."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return plastic_energy(gamma, p) - theta * mass(gamma)
