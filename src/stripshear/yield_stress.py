"""Yield stress of the strip, computed three independent ways.

The threshold load at which plastic flow starts from the virgin state is
characterized variationally:

    theta_Y = inf { Psi_bar(phi) : phi piecewise H1, int_I phi dr = 1 },

with Psi_bar the relaxed dissipation (free boundary values, jumps priced at
lam per unit).  This module provides:

* the closed-form relation between lam = ell / h and theta_Y together with
  its quadrature oracle (yield_integral), each invertible against the other;
* the stability indicators m(theta) and the sign of the reduced indicator,
  which bracket the threshold from the energetic side;
* the discrete constrained minimization (yield_variational) that reproduces
  theta_Y on a mesh without using the closed form;
* the minimizer-profile ODE reconstruction (minimizer_profile);
* both asymptotic regimes of theta_Y(lam).

The closed form,

    lam = 2 sqrt(th^2 - 1) / (pi (th - sqrt(th^2 - 1))
                              + 2 th arctan(1 / sqrt(th^2 - 1))),

is evaluated with th - sqrt(th^2 - 1) rewritten as 1 / (th + sqrt(th^2 - 1))
so large arguments do not cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functionals import RelaxedField, mass, relaxed_dissipation
from ._p1 import (
    SmoothedDissipation,
    convex_newton,
    damped_newton,
    gauss_legendre,
    mass_vector,
)
from .incremental import DEFAULT_OPTIONS, SolverOptions, stability_residual
from .model import Field, Mesh, NondimParams, SolverError, make_mesh

__all__ = [
    "YieldResult",
    "ProfileResult",
    "lambda_of_theta",
    "theta_of_lambda",
    "yield_integral",
    "asymptotic_theta",
    "stability_indicator",
    "reduced_stability_indicator_sign",
    "yield_variational",
    "minimizer_profile",
]

_METHODS = ("formula", "quadrature", "variational", "simulation")

# |mass| at which a yield_variational probe counts as diverged: 50x the unit
# mass sought, reached only by runaways above the threshold
_MASS_CAP = 50.0


@dataclass(frozen=True)
class YieldResult:
    """A yield-stress value, tagged with how it was obtained.

    theta_Y always lies strictly between 1 and 1 + lam: the lower bound is
    the local threshold, the upper bound is the cost of the constant
    competitor phi = 1/2 (interior 1, two boundary jumps of lam/2 each).
    """

    theta_Y: float
    lam: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    minimizer: RelaxedField | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        lam = float(self.lam)
        th = float(self.theta_Y)
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be finite and positive, got {lam}")
        if not (1.0 < th < 1.0 + lam):
            raise ValueError(
                f"theta_Y must lie strictly between 1 and 1 + lam = {1.0 + lam}, got {th}"
            )
        object.__setattr__(self, "theta_Y", th)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class ProfileResult:
    """Yield-onset flow profile reconstructed from its first-order ODE.

    r and zeta sample the strictly increasing map zeta(r) on [0, 1];
    phi is the even, unit-mass extension on [-1, 1] with free (jumping)
    boundary values; jump_ratio = phi(1-) / phi(0).
    """

    r: np.ndarray
    zeta: np.ndarray
    phi: RelaxedField
    jump_ratio: float
    theta_Y: float

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        z = np.asarray(self.zeta, dtype=float)
        if r.shape != z.shape or r.ndim != 1:
            raise ValueError("r and zeta must be 1-d arrays of equal length")
        if r[0] != 0.0 or z[0] != 0.0:
            raise ValueError("profile sampling must start at r = 0, zeta = 0")
        if np.any(np.diff(z) <= 0.0):
            raise ValueError("zeta must be strictly increasing")
        if not 0.0 < self.jump_ratio < 1.0:
            raise ValueError(f"jump_ratio must lie in (0, 1), got {self.jump_ratio}")
        for name in ("r", "zeta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_theta_domain(theta_Y: float) -> float:
    theta_Y = float(theta_Y)
    if not math.isfinite(theta_Y) or theta_Y <= 1.0:
        raise ValueError(f"theta_Y must be finite and > 1, got {theta_Y}")
    return theta_Y


def lambda_of_theta(theta_Y: float) -> float:
    """Length-scale ratio lam for which theta_Y is the yield threshold.

    Strictly increasing: the thinner the strip relative to ell, the larger
    lam and the stronger the specimen.
    """
    th = _check_theta_domain(theta_Y)
    root = math.sqrt(th * th - 1.0)
    gap = 1.0 / (th + root)  # = th - root without cancellation
    return 2.0 * root / (math.pi * gap + 2.0 * th * math.atan(1.0 / root))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method, as scipy.optimize.brentq.

    The same operations in the same order as scipy's C routine, so the root
    is the same double.  Written out because importing scipy.optimize for
    this one scalar solve costs about 20 MB of resident memory.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise SolverError(f"root bracket [{xa}, {xb}] did not converge in {maxiter} steps")


def yield_integral(theta_Y: float, n_quad: int = 256) -> float:
    """Quadrature oracle for lambda_of_theta.

    Evaluates 1/lam = int_0^1 dzeta / (theta_Y - sqrt(1 - zeta^2)) with
    n_quad Gauss-Legendre points on [0, 1] and returns the reciprocal.
    The integrand has a sqrt branch at zeta = 1, so convergence in n_quad
    is algebraic; callers double n_quad until stable.
    """
    th = _check_theta_domain(theta_Y)
    if int(n_quad) < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
    z, w = gauss_legendre(int(n_quad))
    integral = float(w @ (1.0 / (th - np.sqrt(1.0 - z * z))))
    return 1.0 / integral


def theta_of_lambda(lam: float) -> float:
    """Yield threshold theta_Y for the length-scale ratio lam.

    Domain: every finite lam > 0; anything else raises ValueError.
    Inverts lambda_of_theta on the bracket [1 + delta, 1 + lam]; the upper
    end is the constant-competitor bound, the lower end is far inside the
    small-lam asymptote, delta = 1e-4 lam^2 capped at lam / 2 so that it
    stays below theta_Y (about lam + pi/4) for large lam.  Below lam ~ 1e-7
    the quadratic asymptote already agrees with the inverse to better than
    the inversion tolerance and the bracket degenerates in double
    precision, so it is returned directly.  A root is accepted when its
    residual is within 1e-12 max(1, lam), or else when the exact inverse
    lies inside the root finder's own tolerance band,
    lambda(theta - tau) <= lam <= lambda(theta + tau) with
    tau = 1e-15 + 4 eps theta; SolverError is raised if neither holds.
    Both are needed: near theta = 1 (lam up to ~1e-5) one ulp of theta
    moves lambda by more than the residual bound, and for large lam the
    rounding of lambda_of_theta can put lam just outside the band.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if lam < 1e-7:
        return 1.0 + 0.5 * math.pi * math.pi * lam * lam
    delta = min(max(1e-4 * lam * lam, 4e-16), 0.5 * lam)
    xtol, rtol = 1e-15, 4 * np.finfo(float).eps
    th = _brentq(
        lambda t: lambda_of_theta(t) - lam,
        1.0 + delta,
        1.0 + lam,
        xtol=xtol,
        rtol=rtol,
        maxiter=200,
    )
    residual = abs(lambda_of_theta(th) - lam)
    if residual > 1e-12 * max(1.0, lam):
        tau = xtol + rtol * th
        if not lambda_of_theta(th - tau) <= lam <= lambda_of_theta(th + tau):
            raise SolverError(
                f"inversion residual {residual:.3e} exceeds tolerance for lam = {lam:g}",
                residual=residual,
            )
    return float(th)


def asymptotic_theta(lam: float) -> tuple[float, float]:
    """Both asymptotic regimes of theta_Y: (1 + pi^2 lam^2 / 2, lam + pi/4).

    The first is the small-lam expansion, the second the large-lam linear
    law; neither is a bound in the cross-over region lam ~ 1.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    return 1.0 + 0.5 * math.pi * math.pi * lam * lam, lam + 0.25 * math.pi


def stability_indicator(
    theta: float,
    p: NondimParams,
    mesh: Mesh,
    opts: SolverOptions | None = None,
) -> float:
    """Stability indicator m(theta) = min over fields of E_tot + Psi.

    This is minus the stability residual of the virgin state, whose energy
    E_tot(theta, 0) is exactly 0; zero is always admissible, so the minimum
    is clamped to be nonpositive.  m(theta) = 0 means the virgin state is
    stable (theta at or below the discrete threshold); m(theta) < 0 means
    flow is energetically favorable.
    """
    # 0.0 - r, not -r: a stable state reads +0.0
    return 0.0 - stability_residual(Field.zeros(mesh), theta, p, opts)


class _Diverged(Exception):
    """Inner minimization ran away: the multiplier sits above the threshold."""


def yield_variational(
    lam: float,
    mesh: Mesh,
    opts: SolverOptions | None = None,
) -> YieldResult:
    """Discrete yield threshold from the constrained variational problem.

    Minimizes the relaxed dissipation over nodal profiles with unit
    trapezoidal mass, without using the closed form.  The constraint is
    enforced through a scalar multiplier mu: for each smoothing level the
    unconstrained problem

        Psi_bar_eps(phi) - mu (mass(phi) - 1)

    is minimized by damped Newton, and mu is bisected on the monotone map
    mu -> mass(phi*(mu)) until the mass is pinned.  Multipliers above the
    threshold make the objective unbounded (1-homogeneity); runaway
    iterates are detected by a mass cap and count as "mass too large".
    The reported value is the scale-invariant ratio Psi_bar(phi)/mass(phi),
    an upper bound for the discrete threshold that is insensitive to the
    residual mass error.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if opts is None:
        opts = DEFAULT_OPTIONS

    psi = SmoothedDissipation(mesh, lam)
    m = mass_vector(mesh)
    upper = 1.0 + lam

    def make_objective(eps: float, mu: float):
        def evaluate(phi: np.ndarray):
            am = float(m @ np.abs(phi))
            if am > _MASS_CAP:
                raise _Diverged
            rad = psi.radius(phi, eps)
            v = psi.total(rad)
            b0 = math.sqrt(phi[0] * phi[0] + eps * eps)
            b1 = math.sqrt(phi[-1] * phi[-1] + eps * eps)
            v_b = lam * (b0 + b1 - 2.0 * eps)
            mass_phi = float(m @ phi)
            f = v + v_b - mu * (mass_phi - 1.0)
            return f, (phi, rad, v + v_b, am, b0, b1)

        def derivatives(state):
            phi, rad, v_all, am, b0, b1 = state
            g, H = psi.grad_hess(rad)
            g[0] += lam * phi[0] / b0
            g[-1] += lam * phi[-1] / b1
            H[1][0] += lam * eps * eps / b0**3
            H[1][-1] += lam * eps * eps / b1**3
            g -= mu * m
            fscale = v_all + abs(mu) * (am + 1.0)
            return convex_newton(g, H, fscale)

        return evaluate, derivatives

    phi_warm = np.full(mesh.n_cells + 1, 0.5)
    newton_calls = 0
    mu_star = None
    for eps in opts.epsilon_schedule:

        def probe(mu: float):
            nonlocal phi_warm, newton_calls
            newton_calls += 1
            try:
                x, _ = damped_newton(
                    phi_warm, *make_objective(eps, mu), opts.newton_tol,
                    opts.max_newton_iters,
                )
            except _Diverged:
                return None
            phi_warm = x
            return float(m @ x) - 1.0

        lo, hi = 0.0, upper  # mass(lo) - 1 = -1 < 0; hi unbounded/diverged
        if mu_star is not None:
            # seed with the previous level's multiplier to tighten fast
            g_seed = probe(mu_star)
            if g_seed is not None and g_seed < 0.0:
                lo = mu_star
            else:
                hi = mu_star
        for _ in range(60):
            if hi - lo <= 1e-13 * upper:
                break
            mid = 0.5 * (lo + hi)
            g_mid = probe(mid)
            if g_mid is None or g_mid > 0.0:
                hi = mid
            else:
                lo = mid
                if -1e-4 < g_mid < 0.0:
                    break
        mu_star = lo

    mass_raw = float(m @ phi_warm)
    if mass_raw <= 0.0:
        raise SolverError(
            f"variational minimizer collapsed (mass {mass_raw:.3e}) for lam = {lam:g}",
            residual=abs(mass_raw - 1.0),
        )
    minimizer = RelaxedField(mesh, phi_warm / mass_raw)
    theta_disc = relaxed_dissipation(minimizer, lam)
    return YieldResult(
        theta_Y=theta_disc,
        lam=lam,
        method="variational",
        diagnostics={
            "mass_residual": abs(mass_raw - 1.0),
            "multiplier": mu_star,
            "epsilon_final": opts.epsilon_schedule[-1],
            "newton_calls": newton_calls,
            "n_cells": mesh.n_cells,
        },
        minimizer=minimizer,
    )


def reduced_stability_indicator_sign(theta: float, lam: float, mesh: Mesh) -> int:
    """Sign of the reduced stability indicator at load theta.

    By 1-homogeneity the reduced indicator is either identically 0 on the
    stable side or -inf past the threshold, so only its sign carries
    information: -1 iff theta exceeds the discrete variational threshold,
    +1 below it, 0 at exact equality.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    theta_disc = yield_variational(lam, mesh).theta_Y
    if theta > theta_disc:
        return -1
    if theta == theta_disc:
        return 0
    return 1


def _profile_arrays(theta_Y: float, lam: float, n_int: int):
    """Composite-Simpson (RK4 on s-quadratures) pass over [0, pi/2]."""
    h = 0.5 * math.pi / n_int
    s = np.linspace(0.0, 0.5 * math.pi, n_int + 1)
    s_mid = s[:-1] + 0.5 * h

    def slope_r(sv: np.ndarray) -> np.ndarray:
        c = np.cos(sv)
        return lam * c / (theta_Y - c)

    def slope_lnphi(sv: np.ndarray) -> np.ndarray:
        return -np.sin(sv) / (theta_Y - np.cos(sv))

    def cumulate(fn) -> np.ndarray:
        inc = (h / 6.0) * (fn(s[:-1]) + 4.0 * fn(s_mid) + fn(s[1:]))
        out = np.empty(n_int + 1)
        out[0] = 0.0
        np.cumsum(inc, out=out[1:])
        return out

    return s, cumulate(slope_r), cumulate(slope_lnphi)


def minimizer_profile(lam: float, n_samples: int = 1 << 16) -> ProfileResult:
    """Yield-onset profile from its defining first-order ODE.

    Marches the pair (r, ln phi) in the variable s with zeta = sin s, which
    keeps both right-hand sides smooth all the way to the boundary (in r the
    profile has a square-root cusp at |r| = 1).  The arc must end exactly at
    r = 1; the integrator is refined until that closure identity holds,
    which cross-checks theta_of_lambda against the ODE without reusing the
    formula.  The profile is resampled on a uniform mesh with n_samples
    cells, evenly extended and normalized to unit mass.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    n_samples = int(n_samples)
    if n_samples < 8 or n_samples % 2:
        raise ValueError(f"n_samples must be an even integer >= 8, got {n_samples}")
    theta_Y = theta_of_lambda(lam)

    # closure tolerance: the inversion residual of theta_of_lambda enters
    # r(pi/2) - 1 divided by lam
    tol = max(1e-10, 2e-12 / lam)
    n_int = max(n_samples, 1 << 15)
    while True:
        s, r, lnphi = _profile_arrays(theta_Y, lam, n_int)
        closure = abs(r[-1] - 1.0)
        if closure <= tol:
            break
        if n_int >= 1 << 21:
            raise SolverError(
                "profile integration inconsistent with formula", residual=closure
            )
        n_int *= 2

    phi_rel = np.exp(lnphi)
    jump_ratio = float(phi_rel[-1])

    mesh = make_mesh(n_samples)
    half = mesh.nodes[n_samples // 2 :]
    phi_half = np.interp(half, r, phi_rel)
    zeta_half = np.interp(half, r, np.sin(s))
    values = np.concatenate([phi_half[::-1], phi_half[1:]])
    raw = RelaxedField(mesh, values)
    total = mass(raw)
    phi = RelaxedField(mesh, values / total)
    return ProfileResult(
        r=half.copy(), zeta=zeta_half, phi=phi, jump_ratio=jump_ratio, theta_Y=theta_Y
    )
