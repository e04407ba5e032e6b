"""Rate-dependent power-law regularization of the nonlocal flow rule.

Physical variables throughout: time t, shear stress tau (spatially constant,
traction problem), plastic shear gamma(y) on the strip y in [-h, h].  Fields
are stored on the reference mesh r in [-1, 1]; node i sits at y_i = h * r_i
and all operators carry the scale factor dy = h * dr explicitly.

The flow rule is the microscopic force balance

    tau - S0 (kappa gamma - L^2 gamma_yy) = tau_dis - d/dy k_dis,

with the power-law dissipative pair

    tau_dis = S (d/d0)^m  gamma_t / d,
    k_dis   = S0 ell^2 (d/d0)^m  gamma_ty / d,
    d       = sqrt(gamma_t^2 + ell^2 gamma_ty^2 + eps_v^2),

eps_v = 1e-10 * d0 regularizing the singular mobility d^(m-1) at rest.  The
strength S evolves by S_t = H(S) d with a named hardening choice; gradient
stiffness S0 L^2 gamma_y is energetic and keeps the base modulus S0.

Power-law flow has no true threshold: any positive stress drives creep at
rate ~ d0 (tau/S)^(1/m), which is far below solver tolerances for small m
but never exactly zero.  The m -> 0 limit restores the threshold and the
rate-independent trajectories of the incremental module; the limit study
quantifies that convergence on a shared load ramp.

Time stepping is backward Euler in gamma (the stiff power law demands it)
with damped Newton on the spatial balance.  S then advances by the exact
solution of its law at the step's frozen flow rate, which keeps a
saturating strength on the same side of S_sat whatever dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from ._p1 import (
    DEFAULT_OPTIONS,
    GAUSS3_POINTS,
    GAUSS3_WEIGHTS,
    assemble,
    at_points,
    clamped,
    damped_newton,
    ladder,
    solve_tridiagonal,
)
from .incremental import LoadProgram, evolve
from .model import Field, Mesh, PhysicalParams, SolverError, nondimensionalize

__all__ = [
    "Hardening",
    "ViscoParams",
    "ViscoState",
    "LimitStudyReport",
    "visco_step",
    "simulate_visco",
    "recover_displacement",
    "rate_independent_limit_study",
]

_RATE_EPS_FACTOR = 1e-10


@dataclass(frozen=True)
class Hardening:
    """Named hardening law S -> H(S) for the strength evolution S_t = H(S) d.

    zero: no evolution; linear: constant modulus h0; saturating: Voce form
    h0 (1 - S / S_sat), flattening as S approaches S_sat.  advance() steps
    S exactly at a frozen rate d, so a Voce strength relaxes toward S_sat
    and never crosses it.
    """

    kind: str
    h0: float = 0.0
    S_sat: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "linear", "saturating"):
            raise ValueError(f"unknown hardening kind {self.kind!r}")
        h0 = float(self.h0)
        if not math.isfinite(h0) or h0 < 0.0:
            raise ValueError(f"h0 must be finite and nonnegative, got {h0}")
        s = float(self.S_sat)
        if not s > 0.0 or (self.kind == "saturating" and s == math.inf):
            raise ValueError(f"S_sat must be positive (finite if saturating), got {s}")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "S_sat", s)

    @classmethod
    def zero(cls) -> "Hardening":
        return cls(kind="zero")

    @classmethod
    def linear(cls, h0: float) -> "Hardening":
        return cls(kind="linear", h0=h0)

    @classmethod
    def saturating(cls, h0: float, S_sat: float) -> "Hardening":
        return cls(kind="saturating", h0=h0, S_sat=S_sat)

    def rate(self, S: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(S)
        if self.kind == "linear":
            return np.full_like(S, self.h0)
        return self.h0 * (1.0 - S / self.S_sat)

    def advance(self, S: np.ndarray, dt: float, d: np.ndarray) -> np.ndarray:
        """Strength after a time dt at the frozen flow rate d, exactly.

        Zero hardening returns S itself, bit for bit even where d has
        overflowed; the linear law adds dt h0 d (exact, as H does not depend
        on S); the Voce law relaxes the gap to S_sat by the factor
        exp(-dt h0 d / S_sat).
        """
        if self.kind == "zero":
            return S
        if self.kind == "linear":
            return S + dt * self.rate(S) * d
        x = dt * self.h0 * d / self.S_sat
        gap = self.S_sat - S  # rounded where S < S_sat / 2
        # S_sat - gap exp(-x) from the nearer end, so that the rounding of
        # gap cannot carry S back past S or on past S_sat
        decay = np.exp(-x)
        return np.where(decay > 0.5, S - gap * np.expm1(-x), self.S_sat - gap * decay)


@dataclass(frozen=True)
class ViscoParams:
    base: PhysicalParams
    hardening: Hardening = field(default_factory=Hardening.zero)

    def __post_init__(self) -> None:
        if self.base.m_rate <= 0.0:
            raise ValueError(
                "m_rate must be positive for the rate-dependent solver; "
                "the m_rate = 0 limit is the rate-independent incremental module"
            )


@dataclass(frozen=True)
class ViscoState:
    """Snapshot of the viscoplastic evolution at time t.

    gamma and S live on the same reference mesh (y = h * r); gamma is
    clamped at the strip faces, S is a per-node strength in stress units.
    """

    t: float
    gamma: Field
    S: Field

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.t)):
            raise ValueError(f"t must be finite, got {self.t}")
        if self.gamma.mesh != self.S.mesh:
            raise ValueError("gamma and S must share a mesh")
        g = self.gamma.values
        if g[0] != 0.0 or g[-1] != 0.0:
            raise ValueError("gamma must vanish at the strip faces")
        if np.any(self.S.values < 0.0):
            raise ValueError("S must be nonnegative everywhere")
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def virgin(cls, mesh: Mesh, p: ViscoParams, t: float = 0.0) -> "ViscoState":
        return cls(
            t=t,
            gamma=Field.zeros(mesh),
            S=Field(mesh, np.full(mesh.n_cells + 1, p.base.S0)),
        )


class LimitStudyReport(NamedTuple):
    m_values: tuple
    discrepancies: tuple


def _cell_sums(f0, f1, dy: float):
    """Per-cell (left, right) sums of int f0 phi + f1 phi' dy, phi the P1 shapes.

    f0 and f1 are laid out (..., n_points, n_cells).  The right shape is
    phi = t with phi' = 1/dy; the two shapes sum to one and their slopes to
    zero, so the left sum is int f0 dy minus the right one.
    """
    terms = np.empty((2,) + f0.shape)
    np.multiply(f0, GAUSS3_POINTS[:, None], out=terms[0])
    terms[0] += f1 / dy
    terms[1] = f0
    right, total = (dy * GAUSS3_WEIGHTS) @ terms
    return total - right, right


def _residual(
    gamma, gamma_n, S_q, tau: float, dt: float, p: PhysicalParams, dy: float,
    eps: float,
):
    """FEM residual of the implicit balance, and what its Jacobian needs.

    Piecewise-linear elements, Gauss(3) per cell, on the kernel's
    (n_points, n_cells) layout.  gamma is the full nodal field; R holds the
    rows of the interior nodes, the unknowns of the clamped problem.  S_q
    is the strength at the Gauss points, fixed over the step.  Returns
    (R, state); _jacobian(state) builds the banded Jacobian at the same
    iterate.
    """
    rate = (gamma - gamma_n) / dt
    g_q, g_diff = at_points(gamma)
    a_q, a_diff = at_points(rate)
    b_q = a_diff / dy  # the rate's slope, one per cell

    # the power-law pair, with the mobility P and d^2 for the Jacobian
    ell2 = p.ell * p.ell
    d2 = a_q * a_q + ell2 * b_q * b_q + eps * eps
    P = np.sqrt(d2) ** (p.m_rate - 1.0) / p.d0**p.m_rate
    tau_dis = S_q * P * a_q
    k_dis = p.S0 * ell2 * P * b_q

    f0 = p.S0 * p.kappa * g_q + tau_dis - tau  # pairs with phi_i
    f1 = p.S0 * p.L * p.L * (g_diff / dy) + k_dis  # pairs with phi_i'
    R = assemble(*_cell_sums(f0, f1, dy))[1:-1]
    return R, (a_q, b_q, S_q, P, d2, dt, p, dy)


def _jacobian(state):
    """Tridiagonal Jacobian of the residual at the iterate of state.

    Returns (sub, diag, sup) as solve_tridiagonal takes them, for the
    interior nodes: the rows and columns of the clamped problem's unknowns.
    """
    a_q, b_q, S_q, P, d2, dt, p, dy = state
    ell2 = p.ell * p.ell
    mm = (p.m_rate - 1.0) / d2
    Pt = P / dt  # the rate is gamma / dt
    # d f0 and d f1 per unit change of gamma's value (A, C) and slope (B, D)
    # at each Gauss point: the elastic part, and d(tau_dis, k_dis)/d(a, b)
    A = p.S0 * p.kappa + S_q * Pt * (1.0 + mm * a_q * a_q)
    B = S_q * Pt * mm * a_q * ell2 * b_q
    C = p.S0 * ell2 * Pt * mm * b_q * a_q
    D = p.S0 * p.L * p.L + p.S0 * ell2 * Pt * (1.0 + mm * ell2 * b_q * b_q)
    # their responses to the right end value (value t, slope 1/dy) and to
    # the left one (the rest: the shapes sum to one, the slopes to zero)
    df = np.empty((2, 2) + A.shape)  # [f0, f1] x [left, right]
    np.add(A * GAUSS3_POINTS[:, None], B / dy, out=df[0, 1])
    np.add(C * GAUSS3_POINTS[:, None], D / dy, out=df[1, 1])
    np.subtract(A, df[0, 1], out=df[0, 0])
    np.subtract(C, df[1, 1], out=df[1, 0])
    (c_ll, c_lr), (c_rl, c_rr) = _cell_sums(df[0], df[1], dy)
    diag = assemble(c_ll, c_rr)
    return c_rl[1:-1], diag[1:-1], c_lr[1:-1]


def _nodal_flow_rate(gamma, gamma_n, dt: float, p: PhysicalParams, dy: float):
    """Effective flow rate d at the nodes, for the strength update."""
    rate = (gamma - gamma_n) / dt
    cell_slope = (rate[1:] - rate[:-1]) / dy
    node_slope = np.empty_like(rate)
    node_slope[0] = cell_slope[0]
    node_slope[-1] = cell_slope[-1]
    node_slope[1:-1] = 0.5 * (cell_slope[:-1] + cell_slope[1:])
    eps = _RATE_EPS_FACTOR * p.d0
    return np.sqrt(rate**2 + (p.ell * node_slope) ** 2 + eps * eps)


def _powerlaw_predictor(gamma_n, S_nodes, tau: float, dt: float, p: PhysicalParams):
    """Cold-start guess: nodal inversion of the scalar power law.

    The mobility d^(m-1) blows up at rest, so Newton started at zero rate
    climbs geometrically and can need over a hundred iterations for small
    m.  Inverting the local balance overstress = S (a / d0)^m per node
    lands near the answer in one shot.  Computed in log space with a cap
    so extreme exponents 1/m cannot overflow.
    """
    sigma = tau - p.S0 * p.kappa * gamma_n
    cap = math.log(10.0 * (1.0 + abs(tau) / p.S0) / dt) - math.log(p.d0)
    with np.errstate(divide="ignore"):
        z = np.log(np.abs(sigma)) - np.log(S_nodes)
    z = np.where(np.isfinite(z), z, math.inf)
    z = np.where(np.abs(sigma) > 0.0, z, -math.inf)
    a0 = p.d0 * np.exp(np.minimum(z / p.m_rate, cap)) * np.sign(sigma)
    return gamma_n + dt * a0


def _residual_noise(sub, diag, sup, x) -> float:
    """Float64 floor of the residual: eps times the row scale of |J| |x|.

    J is the interior tridiagonal Jacobian (sub, diag, sup) as _jacobian
    returns it and x the interior values it acts on; the face columns it
    leaves out multiply zero faces.  Near a rate reversal the power-law
    mobility makes Jacobian rows as large as P(eps_v) / dt, so one ulp of
    x moves the residual by this much; no representable iterate can land
    below it.
    """
    ax = np.abs(x)
    s = np.abs(diag) * ax
    s[:-1] += np.abs(sup) * ax[1:]
    s[1:] += np.abs(sub) * ax[:-1]
    return 8.0 * np.finfo(float).eps * float(np.max(s))


def visco_step(
    state: ViscoState,
    tau_next: float,
    dt: float,
    p: ViscoParams,
    gamma_init: np.ndarray | None = None,
) -> ViscoState:
    """One backward-Euler step of the viscoplastic balance to stress tau_next.

    Damped Newton drives the max-norm of the spatial balance residual at the
    new time level to tolerance or to its float64 floor; its unknowns are
    the interior nodes, and clamped rebuilds gamma with zero faces.  The
    strength field is then advanced by Hardening.advance, exactly for the
    accepted flow rate, so a saturating strength never crosses S_sat.
    gamma_init, when given, seeds Newton with its interior values (a warm
    start from the previous increment); otherwise a nodal power-law
    inversion of the overstress is used.  The cold start is built only
    without gamma_init.  If
    the sharp problem resists (rates trapped in the regularization corner
    crawl out of it only geometrically), the step is re-solved from the
    same start down _p1's smoothing ladder, one decade per level from
    1e-2 d0 to the nominal eps_v; a level that takes no Newton step sends
    it straight to eps_v, and a level that fails fails the step.
    """
    tau_next = float(tau_next)
    dt = float(dt)
    if not math.isfinite(tau_next):
        raise ValueError(f"tau_next must be finite, got {tau_next}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    base = p.base
    mesh = state.gamma.mesh
    dy = base.h * mesh.dr
    gamma_n = state.gamma.values
    S_nodes = state.S.values
    S_q = at_points(S_nodes)[0]
    eps_v = _RATE_EPS_FACTOR * base.d0

    # residual entries scale like stress * dy
    tol = DEFAULT_OPTIONS.newton_tol * base.S0 * dy * max(1.0, abs(tau_next) / base.S0)

    def make_merit(eps: float):
        # merit max|R|: along the Newton step its slope is -max|R|, and one
        # ulp of x moves it by up to _residual_noise
        def evaluate(x):
            R, rstate = _residual(clamped(x), gamma_n, S_q, tau_next, dt, base, dy, eps)
            rnorm = float(np.max(np.abs(R)))
            return rnorm, (rnorm, x, R, rstate)

        def derivatives(mstate):
            rnorm, x, R, rstate = mstate

            def newton_step():
                J = _jacobian(rstate)
                step = solve_tridiagonal(*J, -R)
                return step, -rnorm, 0.5 * _residual_noise(*J, x)

            return rnorm, newton_step

        return evaluate, derivatives

    if gamma_init is None:
        start = _powerlaw_predictor(gamma_n, S_nodes, tau_next, dt, base)
    else:
        start = np.asarray(gamma_init, dtype=float)
        if start.shape != gamma_n.shape:
            raise ValueError("gamma_init shape does not match the mesh")
        if not np.isfinite(start).all():
            raise ValueError("gamma_init must be finite")

    # an extreme power law overflows or divides by zero; the solves refuse
    # a non-finite system and the step a non-finite gamma or strength
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            x = damped_newton(
                start[1:-1], *make_merit(eps_v), tol, DEFAULT_OPTIONS.max_newton_iters
            )[0]
        except SolverError:
            # continuation: relax the corner by widening the rate smoothing,
            # then sharpen it one decade at a time back to eps_v
            levels, level = [], 1e-2 * base.d0
            while level > eps_v:
                levels.append(level)
                level *= 0.1
            try:
                x = ladder(start[1:-1], make_merit, tol, levels + [eps_v])
            except SolverError as err:
                raise SolverError(
                    f"viscoplastic Newton did not converge (residual "
                    f"{err.residual:.3e}, tolerance {tol:.3e}); try halving dt",
                    residual=err.residual,
                ) from err

        x = clamped(x)
        d_nodes = _nodal_flow_rate(x, gamma_n, dt, base, dy)
        S_new = p.hardening.advance(S_nodes, dt, d_nodes)
    if not (np.isfinite(x).all() and np.isfinite(S_new).all()):
        raise SolverError("viscoplastic step left a non-finite gamma or strength")
    return ViscoState(
        t=state.t + dt, gamma=Field(mesh, x), S=Field(mesh, S_new)
    )


def _validate_load(load) -> list[tuple[float, float]]:
    pairs = [(float(t), float(tau)) for t, tau in load]
    if len(pairs) < 1:
        raise ValueError("load series must be nonempty")
    if any(not (math.isfinite(t) and math.isfinite(s)) for t, s in pairs):
        raise ValueError("load entries must be finite")
    for (t0, s0), (t1, s1) in zip(pairs, pairs[1:]):
        if not t1 > t0:
            raise ValueError("load times must be strictly increasing")
    return pairs


def simulate_visco(
    load: Sequence,
    p: ViscoParams,
    mesh: Mesh,
) -> list[ViscoState]:
    """March visco_step along a (t, tau) series from the virgin state.

    One implicit step per consecutive pair; the series resolution is the
    time step.  The load need not be monotone.  Returns all states,
    including the initial one.
    """
    pairs = _validate_load(load)
    states = [ViscoState.virgin(mesh, p, t=pairs[0][0])]
    guess = None
    for k in range(1, len(pairs)):
        t_next, tau_next = pairs[k]
        dt = t_next - pairs[k - 1][0]
        try:
            states.append(visco_step(states[-1], tau_next, dt, p, guess))
        except SolverError as err:
            raise SolverError(
                f"load point {k} (t = {t_next:g}, tau = {tau_next:g}) failed: {err}",
                residual=err.residual,
                step=k,
            ) from err
        # secant-in-time warm start for the next step
        if len(pairs) > k + 1:
            g1 = states[-1].gamma.values
            g0 = states[-2].gamma.values
            guess = g1 + (g1 - g0) * ((pairs[k + 1][0] - t_next) / dt)
    return states


def recover_displacement(state: ViscoState, tau: float, p: ViscoParams) -> Field:
    """Displacement profile u(y) = int_{-h}^{y} (tau / G + gamma) dy'.

    The bottom face is clamped, u(-h) = 0; the integrand is the total shear
    (elastic part tau / G plus plastic part gamma).
    """
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    base = p.base
    mesh = state.gamma.mesh
    y = base.h * mesh.nodes
    integrand = tau / base.G + state.gamma.values
    # cumulative trapezoid, as scipy.integrate.cumulative_trapezoid sums it
    u = np.empty_like(integrand)
    u[0] = 0.0
    np.cumsum(np.diff(y) * (integrand[1:] + integrand[:-1]) / 2.0, out=u[1:])
    return Field(mesh, u)


def rate_independent_limit_study(
    m_list: Sequence[float],
    p: ViscoParams,
    mesh: Mesh,
    load: Sequence,
) -> LimitStudyReport:
    """Discrepancy between the viscoplastic and rate-independent responses.

    For each rate exponent in m_list (decreasing positives) the same
    monotone stress ramp is run through simulate_visco, and the final
    plastic shear is compared in max norm against the incremental solver's
    final state on the matching renormalized load grid.  Hardening must be
    zero: the rate-independent model has a fixed strength.
    """
    ms = [float(m) for m in m_list]
    if len(ms) < 1:
        raise ValueError("m_list must be nonempty")
    if any(m <= 0.0 for m in ms):
        raise ValueError("m_list entries must be positive")
    if any(b >= a for a, b in zip(ms, ms[1:])):
        raise ValueError("m_list must be strictly decreasing")
    if p.hardening.kind != "zero":
        raise ValueError("limit study requires zero hardening")
    pairs = _validate_load(load)
    taus = [s for _, s in pairs]
    if taus[0] != 0.0:
        raise ValueError(f"limit study requires a ramp from tau = 0, not {taus[0]:g}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("limit study requires a strictly increasing ramp")

    thetas = tuple(tau / p.base.S0 for tau in taus)
    reference = evolve(LoadProgram(thetas), nondimensionalize(p.base), mesh)
    gamma_ref = reference.steps[-1].gamma.values

    discrepancies = []
    for m in ms:
        pm = replace(p, base=replace(p.base, m_rate=m))
        states = simulate_visco(pairs, pm, mesh)
        gamma_m = states[-1].gamma.values
        discrepancies.append(float(np.max(np.abs(gamma_m - gamma_ref))))
    return LimitStudyReport(m_values=tuple(ms), discrepancies=tuple(discrepancies))
