"""Yield stress of the strip: the closed form and the variational route.

The threshold load at which plastic flow starts from the virgin state is
characterized variationally:

    theta_Y = inf { Psi_bar_lam(phi) : phi piecewise H1, int_I phi dr = 1 },

with Psi_bar_lam the relaxed dissipation (free boundary values, jumps priced
at lam per unit),

    Psi_bar_lam(phi) = int sqrt(phi^2 + lam^2 phi_r^2) dr
                       + lam (|phi(-1)| + |phi(1)|).

Each term is nondecreasing in lam for every phi, so the infimum is too:
theta_Y is nondecreasing in lam = ell / h, and thinner strips are no
weaker.  The discrete Psi_bar of functionals.relaxed_dissipation obeys the
same monotonicity term by term.  This module provides:

* the closed-form relation between lam and theta_Y, inverted by bisection
  on the bit patterns of theta_Y (theta_of_lambda), together with its
  quadrature oracle (yield_integral);
* the discrete constrained minimization (yield_variational) that reproduces
  theta_Y on a mesh without using the closed form;
* the yield-onset profile, the closed-form solution of its first-order
  ODE (minimizer_profile);
* both asymptotic regimes of theta_Y(lam);
* the certified bracket of the clamped discrete threshold that decides
  every pre-yield increment (threshold_bracket), solved from the onset
  profile.

The closed form,

    lam = 2 sqrt(th^2 - 1) / (pi (th - sqrt(th^2 - 1))
                              + 2 th arctan(1 / sqrt(th^2 - 1))),

is evaluated with th - sqrt(th^2 - 1) rewritten as 1 / (th + sqrt(th^2 - 1))
so large arguments do not cancel, and with th^2 - 1 formed as
(th - 1)(th + 1) so arguments near 1 do not either.

Pre-yield bracket.  Zero is the increment from gamma = 0 iff theta m lies
in the subdifferential of Psi at 0, whatever Lambda and kappa, that is iff
|theta| is at most the clamped discrete yield threshold
theta_c = min {Psi(v) : m'v = 1}.  A dual field xi with c(xi) = m proves
theta_c >= 1 / dual_norm (0 where xi certifies nothing); it is built once
per (n_cells, lam) from a constrained Newton solve for the threshold
profile (threshold_bracket), and below that bound an increment from the
virgin state is the exact zero field with no Newton iteration.  The solve
starts from the onset profile at the mesh nodes, so one smoothing level,
the last, reaches the discrete profile; the bound holds whatever field it
ends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .functionals import RelaxedField, mass, relaxed_dissipation
from ._p1 import (
    DEFAULT_OPTIONS,
    SmoothedDissipation,
    clamped,
    constrained_newton,
    convex_newton,
    damped_newton,
    dual_norm,
    gauss_legendre,
    mass_vector,
)
from .model import Mesh, SolverError, make_mesh

__all__ = [
    "YieldResult",
    "ProfileResult",
    "lambda_of_theta",
    "theta_of_lambda",
    "yield_integral",
    "asymptotic_theta",
    "yield_variational",
    "minimizer_profile",
    "threshold_bracket",
]

# the smallest lam whose threshold 1 + pi^2 lam^2 / 2 rounds above 1.0
_LAM_FLOOR = 4.743186923619967e-09

# the largest lam theta_of_lambda inverts: an ulp is 1/64 here and
# lambda_of_theta is good to 1.5 ulps, far inside the 1 - pi/4 = 0.21
# between theta_Y (about lam + pi/4) and 1 + lam; at 1e15 one ulp is 0.125
_LAM_CEILING = 1e14

# the smallest theta_Y - 1 whose profile minimizer_profile resolves: a
# threshold near 1 carries theta_Y - 1 only to half an ulp of 1, so this
# keeps its relative rounding within 1/16
_PROFILE_MIN_GAP = 8.0 * float(np.finfo(float).eps)

# above this theta_Y, lam = theta_Y - pi/4 + O(1 / theta_Y) rounds to
# theta_Y itself, and theta_Y^2 overflows from about 1.34e154 up
_THETA_LINEAR = 1e150

# Gauss-Legendre order of yield_integral: 8.6e-15 relative to the closed
# form at worst over 400 theta_Y in [1.0001, 100]
_QUAD_NODES = 128

# the smallest theta_Y yield_integral accepts: below it the integrand's peak
# narrows past the rule, and the error reaches 7.1e-5 relative at 1 + 1e-6
_QUAD_THETA_MIN = 1.0001

# samples of the onset profile that threshold_bracket's start interpolates
# onto the mesh nodes
_ONSET_SAMPLES = 513

# n_cells lam from which the onset profile's change per cell, about
# dr / lam of its values, falls below their rounding (an ulp of 1, 2^-52):
# its start is then noise on the flat field, and Newton fails from it at
# lam = 1e13 on 4096 cells
_FLAT_START = 2.0 / float(np.finfo(float).eps)

# |mass| at which a yield_variational probe counts as diverged: 50x the unit
# mass sought, reached only by runaways above the threshold
_MASS_CAP = 50.0


@dataclass(frozen=True)
class YieldResult:
    """A discrete yield threshold from yield_variational, with its minimizer.

    theta_Y always lies strictly between 1 and 1 + lam: the lower bound is
    the local threshold, the upper bound is the cost of the constant
    competitor phi = 1/2 (interior 1, two boundary jumps of lam/2 each).
    """

    theta_Y: float
    lam: float
    diagnostics: dict = field(default_factory=dict)
    minimizer: RelaxedField | None = None

    def __post_init__(self) -> None:
        lam = _check_lam(self.lam)
        th = float(self.theta_Y)
        if not (1.0 < th < 1.0 + lam):
            raise ValueError(
                f"theta_Y must lie strictly between 1 and 1 + lam = {1.0 + lam}, got {th}"
            )
        object.__setattr__(self, "theta_Y", th)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class ProfileResult:
    """Yield-onset flow profile, the closed-form solution of its ODE.

    r and zeta sample the strictly increasing map zeta(r) on [0, 1];
    phi is the even, unit-mass extension on [-1, 1] with free (jumping)
    boundary values; jump_ratio = phi(1-) / phi(0) = (theta_Y - 1) / theta_Y.
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


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    return lam


def _check_theta_domain(theta_Y: float) -> float:
    theta_Y = float(theta_Y)
    if not math.isfinite(theta_Y) or theta_Y <= 1.0:
        raise ValueError(f"theta_Y must be finite and > 1, got {theta_Y}")
    return theta_Y


def lambda_of_theta(theta_Y: float) -> float:
    """Length-scale ratio lam for which theta_Y is the yield threshold.

    Strictly increasing in exact arithmetic: the thinner the strip
    relative to ell, the larger lam and the stronger the specimen.  In
    floating point it can drop by up to 2 ulps between neighbouring
    doubles: theta_Y = 2.5927696451910442 gives a larger lam than the next
    double.  theta_of_lambda does not rely on it (see _bisect_bits).  Every
    finite theta_Y > 1 has a value: above 1e150 it is theta_Y itself, lam
    to double precision.
    """
    th = _check_theta_domain(theta_Y)
    if th > _THETA_LINEAR:
        return th
    root = math.sqrt((th - 1.0) * (th + 1.0))
    gap = 1.0 / (th + root)  # = th - root without cancellation
    return 2.0 * root / (math.pi * gap + 2.0 * th * math.atan(1.0 / root))


def _bisect_bits(f, lo: float, hi: float, target):
    """Neighbouring doubles a < b in [lo, hi] with f(a) < target <= f(b).

    0 <= lo, and f is called on arrays of target's shape.  The bisection
    runs on the int64 bit patterns, which order like nonnegative doubles,
    so it closes on neighbours within 64 halvings whatever the scale.
    Each halving keeps f(a) < target <= f(b) once it holds at lo and hi,
    whether or not f is monotone; for a nondecreasing f, a target outside
    (f(lo), f(hi)] ends it at that end.  The path depends on target only
    through f(mid) < target, so with the bracket fixed, a and b are
    nondecreasing in target, again for any f.
    """
    a, b = np.array([lo, hi], dtype=np.float64).view(np.int64)
    for _ in range(int(b - a - 1).bit_length()):  # the halvings to width 1
        mid = a + ((b - a) >> 1)  # a + b can overflow
        below = f(mid.view(np.float64)) < target
        # where below, a moves up to mid, elsewhere b moves down to it
        a, b = a + (mid - a) * below, mid + (b - mid) * below
    return a.view(np.float64), b.view(np.float64)


def yield_integral(theta_Y: float) -> float:
    """Quadrature oracle for lambda_of_theta.

    Evaluates 1/lam = int_0^1 dzeta / (theta_Y - sqrt(1 - zeta^2)) and
    returns the reciprocal.  In s = arcsin(zeta) the integral is

        int_0^(pi/2) cos s / ((theta_Y - 1) + 2 sin^2(s/2)) ds,

    whose integrand is analytic on the closed interval (zeta's sqrt branch
    at 1 is gone) and does not cancel near theta_Y = 1.  One fixed
    128-point Gauss-Legendre rule reaches roundoff for
    theta_Y >= 1.0001; closer to 1 the peak at s ~ sqrt(2 (theta_Y - 1))
    narrows and the rule loses digits, so a theta_Y below 1.0001 raises
    ValueError.  It never uses the closed form.
    """
    th = _check_theta_domain(theta_Y)
    if th < _QUAD_THETA_MIN:
        raise ValueError(
            f"theta_Y = {th!r} is below {_QUAD_THETA_MIN!r}, the smallest "
            "threshold the quadrature resolves"
        )
    t, w = gauss_legendre(_QUAD_NODES)
    s = 0.5 * math.pi * t
    integrand = np.cos(s) / ((th - 1.0) + 2.0 * np.sin(0.5 * s) ** 2)
    return 1.0 / (0.5 * math.pi * float(w @ integrand))


def theta_of_lambda(lam: float) -> float:
    """Yield threshold theta_Y for the length-scale ratio lam.

    Domain: every lam from the smallest one whose threshold
    1 + pi^2 lam^2 / 2 rounds above 1 in double precision (about 4.74e-9)
    up to 1e14, beyond which theta_Y is not resolved strictly below
    1 + lam; anything else raises ValueError, which names the bound it
    crosses.  Bisects lambda_of_theta on the bit patterns of theta over
    the one bracket [nextafter(1, 2), 1 + 1e14] down to two neighbouring
    doubles whose lambdas straddle lam, and returns the one whose lambda
    is nearer.  The bracket does not depend on lam, so theta_Y is
    nondecreasing in lam down to the last bit.
    """
    lam = _check_lam(lam)
    if lam < _LAM_FLOOR:
        raise ValueError(
            f"lam = {lam:g} is below {_LAM_FLOOR!r}, the smallest lam whose "
            "threshold rounds above 1"
        )
    if lam > _LAM_CEILING:
        raise ValueError(
            f"lam = {lam:g} is above {_LAM_CEILING!r}, the largest lam whose "
            "threshold is resolved strictly below 1 + lam"
        )
    bracket = math.nextafter(1.0, 2.0), 1.0 + _LAM_CEILING
    a, b = (float(t) for t in _bisect_bits(lambda_of_theta, *bracket, lam))
    return a if abs(lambda_of_theta(a) - lam) <= abs(lambda_of_theta(b) - lam) else b


def asymptotic_theta(lam: float) -> tuple[float, float]:
    """Both asymptotic regimes of theta_Y: (1 + pi^2 lam^2 / 2, lam + pi/4).

    The first is the small-lam expansion, the second the large-lam linear
    law; neither is a bound in the cross-over region lam ~ 1.
    """
    lam = _check_lam(lam)
    return 1.0 + 0.5 * math.pi * math.pi * lam * lam, lam + 0.25 * math.pi


class _Diverged(Exception):
    """Inner minimization ran away: the multiplier sits above the threshold."""


def yield_variational(lam: float, mesh: Mesh) -> YieldResult:
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
    lam = _check_lam(lam)
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
    for eps in DEFAULT_OPTIONS.epsilon_schedule:

        def probe(mu: float):
            nonlocal phi_warm, newton_calls
            newton_calls += 1
            try:
                x, _ = damped_newton(
                    phi_warm, *make_objective(eps, mu), DEFAULT_OPTIONS.newton_tol
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
        diagnostics={
            "mass_residual": abs(mass_raw - 1.0),
            "multiplier": mu_star,
            "epsilon_final": DEFAULT_OPTIONS.epsilon_schedule[-1],
            "newton_calls": newton_calls,
            "n_cells": mesh.n_cells,
        },
        minimizer=minimizer,
    )


def _arc(s: np.ndarray, theta_Y: float) -> np.ndarray:
    """r(s) / lam along the yield-onset profile, zeta = sin s, in closed form.

    The profile ODE r'(s) = lam cos s / (theta_Y - cos s), r(0) = 0,
    integrates to lam (-s + k arctan(c tan(s/2))) with
    k = 2 theta_Y / sqrt(theta_Y^2 - 1), c = sqrt((theta_Y + 1) / (theta_Y - 1)).
    Evaluated as (k/2 - 1) s + k arctan((c - 1) t / (1 + c t^2)), t = tan(s/2),
    with k/2 - 1 and c - 1 in cancellation-free form; sqrt(theta_Y^2 - 1)
    is formed as in lambda_of_theta, so arc(pi/2) = 1 / lambda_of_theta.
    """
    root = math.sqrt((theta_Y - 1.0) * (theta_Y + 1.0))
    c = math.sqrt((theta_Y + 1.0) / (theta_Y - 1.0))
    c_less_1 = 2.0 / ((theta_Y - 1.0) * (c + 1.0))
    t = np.tan(0.5 * s)
    return s / ((theta_Y + root) * root) + (2.0 * theta_Y / root) * np.arctan(
        c_less_1 * t / (1.0 + c * t * t)
    )


def minimizer_profile(lam: float, n_samples: int = 1 << 16) -> ProfileResult:
    """Yield-onset profile from the closed-form solution of its ODE.

    With zeta = sin s the profile is phi(s) / phi(0) = (theta_Y - 1) /
    (theta_Y - cos s) and r(s) = lam arc(s) (see _arc); arc(pi/2) equals
    1 / lambda_of_theta(theta_Y), so the arc misses r = 1 only by
    theta_of_lambda's inversion residual and is scaled onto [0, 1].  Each
    node r_i of a uniform mesh with n_samples cells takes the s that solves
    r(s) = r_i, found by bisection to the last bit; the profile is evenly
    extended and normalized to unit mass.  Being the formula's own
    solution, it does not check theta_Y independently: criteria 1, 6 and 8
    do that.
    """
    lam = _check_lam(lam)
    if not isinstance(n_samples, (int, np.integer)) or isinstance(n_samples, bool):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    n_samples = int(n_samples)
    if n_samples < 8 or n_samples % 2:
        raise ValueError(f"n_samples must be an even integer >= 8, got {n_samples}")
    # theta_Y - 1 sets the profile's shape; it is pi^2 lam^2 / 2 to relative
    # O(lam^2) where this refuses
    gap = 0.5 * math.pi * math.pi * lam * lam
    if gap <= _PROFILE_MIN_GAP:
        raise SolverError(
            f"theta_Y - 1 = {gap:.1e} at lam = {lam:g} is at most "
            f"{_PROFILE_MIN_GAP:.1e}, 8 ulps of 1: the profile cannot be resolved"
        )
    theta_Y = theta_of_lambda(lam)

    mesh = make_mesh(n_samples)
    half = mesh.nodes[n_samples // 2 :]
    end = np.float64(0.5 * math.pi)
    target = half[1:-1] * _arc(end, theta_Y)
    _, s_nodes = _bisect_bits(lambda s: _arc(s, theta_Y), 0.0, end, target)
    s = np.concatenate([[0.0], s_nodes, [end]])

    d = theta_Y - 1.0
    phi_half = d / (d + 2.0 * np.sin(0.5 * s) ** 2)  # theta_Y - cos s, no cancellation
    values = np.concatenate([phi_half[::-1], phi_half[1:]])
    phi = RelaxedField(mesh, values / mass(RelaxedField(mesh, values)))
    return ProfileResult(
        r=half.copy(),
        zeta=np.sin(s),
        phi=phi,
        jump_ratio=float(phi_half[-1]),
        theta_Y=theta_Y,
    )


def _onset_start(mesh: Mesh, lam: float) -> np.ndarray:
    """Interior nodal values of the yield-onset profile, scaled to m'x = 1.

    The closed form (minimizer_profile's, up to scale) sampled on a uniform
    grid in a = arctan(c tan(s/2)) and interpolated linearly in r onto the
    nodes.  In a the profile is phi = 1 - sin^2 a 2 / (theta_Y + 1): the
    grid resolves the s ~ sqrt(theta_Y - 1) scale at small lam and the
    sqrt(1 - r) foot at the wall alike.  The clamped faces are left out.
    Outside theta_of_lambda's domain the closed form's limits stand in:
    below its floor the profile at the floor, within about 1e-8 of the
    small-lam limit cos^2(pi r / 2); above its ceiling, and wherever the
    profile's change per cell falls below the rounding of its values, the
    flat field.
    """
    if lam > _LAM_CEILING or lam * mesh.n_cells >= _FLAT_START:
        x = np.ones(mesh.n_cells - 1)
    else:
        theta_Y = theta_of_lambda(max(lam, _LAM_FLOOR))
        c = math.sqrt((theta_Y + 1.0) / (theta_Y - 1.0))
        a = np.linspace(0.0, math.atan(c), _ONSET_SAMPLES)
        r = _arc(2.0 * np.arctan(np.tan(a) / c), theta_Y)
        phi = 1.0 - np.sin(a) ** 2 * (2.0 / (theta_Y + 1.0))
        x = np.interp(np.abs(mesh.nodes[1:-1]), r / r[-1], phi)
    return x / (mesh.dr * float(x.sum()))


@lru_cache(maxsize=64)
def threshold_bracket(n_cells: int, lam: float) -> tuple[float, float, np.ndarray]:
    """(lower, upper, v): the clamped discrete yield threshold's bracket and witness.

    Zero is the increment from the virgin state iff theta m lies in
    dPsi(0) = {c(xi) : |xi| <= 1 at every Gauss point}, whatever Lambda and
    kappa, where c is the adjoint of v -> (u, lam u_r) at the Gauss points
    (rule weights included), so c(xi) . v = int xi . (u, lam u_r).  Psi is
    the support function of that set, hence the threshold
    theta_c = min {Psi(v) : m'v = 1} lies between 1 / max|xi| for any xi
    with c(xi) = m and Psi(v) / m'v for any v with m'v > 0.

    v minimizes Psi_eps at m'v = 1 by constrained Newton (the interior
    weights of m are all dr) at the smoothing schedule's last level alone,
    from the onset profile at the nodes (_onset_start), within the
    increments' Newton budget.  There the gradient
    g = c((u, lam u_r) / R), scaled by w = m'g / m'm, gives
    lower = 1 / dual_norm, certified for whatever field the solve ends
    with.  The witness v is read-only, as every solve on the strip shares it.
    """
    mesh = Mesh(n_cells)
    psi = SmoothedDissipation(mesh, lam)
    m = mass_vector(mesh)[1:-1]
    eps = DEFAULT_OPTIONS.epsilon_schedule[-1]

    def evaluate(x: np.ndarray):
        rad = psi.radius(clamped(x), eps)
        v = psi.total(rad)
        return v, (rad, v)

    def derivatives(state):
        rad, v = state
        g, H = psi.grad_hess(rad)
        return constrained_newton(g[1:-1], H[:, 1:-1], v + 2.0 * eps)

    # g is of order theta_c dr
    x, _ = damped_newton(
        _onset_start(mesh, lam), evaluate, derivatives,
        DEFAULT_OPTIONS.newton_tol * mesh.dr,
    )

    v = clamped(x)
    rad = psi.radius(v, eps)
    g = psi.grad_hess(rad)[0][1:-1]
    w = float(m @ g) / float(m @ m)
    lower = 1.0 / dual_norm(psi, rad, g, w, m)
    upper = psi.value(v, 0.0) / float(m @ x)
    v.flags.writeable = False
    return lower, upper, v
