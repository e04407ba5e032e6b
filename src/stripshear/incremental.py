"""Incremental energetic solver for the nonlocal rate-independent flow rule.

The evolution problem: find theta -> gamma(theta) with gamma(0) = 0 such that
every state is globally stable,

    E_tot(theta, gamma(theta)) <= E_tot(theta, v) + Psi(v - gamma(theta))
    for every admissible v,

and the energy balance

    E_tot(theta, gamma(theta)) + dis_Psi(gamma; [0, theta])
        = - int_0^theta int_I gamma dr dtheta'

holds.  The time-incremental scheme replaces the continuous problem by a
chain of convex minimizations: with gamma_0 = 0,

    gamma_k = argmin_v  E_tot(theta_k, v) + Psi(v - gamma_{k-1}),

over nodal fields with zero boundary values.  Convexity of the objective
makes the incremental minimizer a complete stability certificate, so both
defining properties are checked a posteriori by re-minimization
(stability_residual) and summation (energy_balance_residual).

Nonsmooth solver.  Psi is 1-homogeneous, hence nondifferentiable wherever
the increment vanishes.  Each increment is solved by smoothing continuation:
the integrand sqrt(u^2 + lam^2 w^2) is replaced by

    sqrt(u^2 + lam^2 w^2 + eps^2) - eps,

eps marching down a fixed schedule, with a damped (line-searched) Newton
method at every level.  The smoothed Hessian is symmetric tridiagonal and
positive definite (each quadrature point contributes a full-rank congruence
of a positive-definite 2x2 block), so Newton steps are O(n) banded solves.
The schedule ends at eps = 1e-11: below the yield threshold the smoothed
minimizer has spurious amplitude O(eps / sqrt(threshold gap)), and the tail
of the schedule keeps that amplitude far below the yield detection tolerance.

At eps this small the objective is 1/eps-stiff wherever the increment
vanishes, so re-minimizing from an already-converged state cannot reach an
absolute gradient tolerance: the attainable decrease drops below the
double-precision roundoff of the objective value long before.  Newton
therefore also accepts an iterate as converged when the decrement
g' H^-1 g / 2 (the decrease predicted by the local quadratic model) falls
below the roundoff floor of the objective, measured against the magnitudes
of its summed terms.  Energy-type outputs (stability and balance residuals)
see errors of the order of that decrement, far below their tolerances.

Pre-yield increments from the virgin state skip the ladder.  Zero is the
increment from gamma = 0 iff theta m lies in the subdifferential of Psi at
0, whatever Lambda and kappa, that is iff |theta| is at most the clamped
discrete yield threshold theta_c = min {Psi(v) : m'v = 1}.  A dual field xi
with c(xi) = m (c the adjoint of the Gauss-point map v -> (u, lam u_r))
proves theta_c >= 1 / max|xi|; it is built once per (n_cells, lam, options)
from a constrained Newton solve for the threshold profile, and below that
bound the solve returns the exact zero field with no Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._p1 import (
    SmoothedDissipation,
    constrained_newton,
    convex_newton,
    damped_newton,
    mass_vector,
    solve_banded_spd,
)
from .functionals import dissipation, mass, total_energy
from .model import Field, Mesh, NondimParams, SolverError

__all__ = [
    "LoadProgram",
    "SolverOptions",
    "TrajectoryStep",
    "Trajectory",
    "DetectedYield",
    "increment_solve",
    "evolve",
    "stability_residual",
    "energy_balance_residual",
    "detect_yield",
]

DEFAULT_EPSILON_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 12))


@dataclass(frozen=True)
class LoadProgram:
    """Strictly increasing stress values starting at 0 (stress plays time)."""

    theta_steps: tuple

    def __post_init__(self) -> None:
        steps = np.asarray(self.theta_steps, dtype=float)
        if steps.ndim != 1 or steps.size < 1:
            raise ValueError("theta_steps must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(steps)):
            raise ValueError("theta_steps must be finite")
        if steps[0] != 0.0:
            raise ValueError(f"theta_steps must start at 0, got {steps[0]}")
        if steps.size > 1 and np.any(np.diff(steps) <= 0.0):
            raise ValueError("theta_steps must be strictly increasing")
        object.__setattr__(self, "theta_steps", tuple(float(t) for t in steps))


@dataclass(frozen=True)
class SolverOptions:
    epsilon_schedule: tuple = DEFAULT_EPSILON_SCHEDULE
    newton_tol: float = 1e-9
    max_newton_iters: int = 100
    stability_tol: float = 1e-8
    yield_tol: float = 1e-8

    def __post_init__(self) -> None:
        sched = tuple(float(e) for e in self.epsilon_schedule)
        if len(sched) < 1:
            raise ValueError("epsilon_schedule must be nonempty")
        if any((not math.isfinite(e)) or e <= 0.0 for e in sched):
            raise ValueError("epsilon_schedule entries must be finite and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("epsilon_schedule must be strictly decreasing")
        if sched[-1] > 1e-8:
            raise ValueError("epsilon_schedule must end at or below 1e-8")
        for name in ("newton_tol", "stability_tol", "yield_tol"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v}")
            object.__setattr__(self, name, v)
        if int(self.max_newton_iters) < 1:
            raise ValueError("max_newton_iters must be >= 1")
        object.__setattr__(self, "epsilon_schedule", sched)
        object.__setattr__(self, "max_newton_iters", int(self.max_newton_iters))


DEFAULT_OPTIONS = SolverOptions()


class TrajectoryStep(NamedTuple):
    theta: float
    gamma: Field
    dissipation_increment: float
    total_energy: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded incremental states, aligned with the load program."""

    params: NondimParams
    steps: tuple

    def __post_init__(self) -> None:
        if len(self.steps) < 1:
            raise ValueError("trajectory must contain at least one step")
        if any(s.dissipation_increment < 0.0 for s in self.steps):
            raise ValueError("dissipation increments must be nonnegative")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def mesh(self) -> Mesh:
        return self.steps[0].gamma.mesh

    @property
    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.steps])

    @property
    def fields(self) -> tuple:
        return tuple(s.gamma for s in self.steps)


class DetectedYield(NamedTuple):
    theta: float
    uncertainty: float
    flow_observed: bool


# ---------------------------------------------------------------------------
# discrete operators


def _energy_banded(mesh: Mesh, p: NondimParams) -> np.ndarray:
    """Banded (upper form) matrix of the quadratic form 2*E, i.e. E = 0.5 x'Ax.

    A = kappa * (Mq + Lambda^2 K) with Mq the exact piecewise-linear mass
    matrix and K the stiffness matrix.
    """
    n = mesh.n_cells
    dr = mesh.dr
    diag = np.zeros(n + 1)
    sup = np.zeros(n + 1)  # sup[i] couples nodes (i-1, i) in solveh_banded layout
    m_diag = dr / 3.0
    m_off = dr / 6.0
    k_diag = 1.0 / dr
    k_off = -1.0 / dr
    Lam2 = p.Lambda * p.Lambda
    cell_diag = p.kappa * (m_diag + Lam2 * k_diag)
    cell_off = p.kappa * (m_off + Lam2 * k_off)
    diag[:-1] += cell_diag
    diag[1:] += cell_diag
    sup[1:] = cell_off
    banded = np.zeros((2, n + 1))
    banded[0] = sup
    banded[1] = diag
    return banded


def _banded_matvec(banded: np.ndarray, x: np.ndarray) -> np.ndarray:
    sup = banded[0]
    diag = banded[1]
    y = diag * x
    y[:-1] += sup[1:] * x[1:]
    y[1:] += sup[1:] * x[:-1]
    return y


# relative shrink of the certified threshold, per cell and per unit of
# 1 + lam.  c(xi') reproduces m up to a few ulps of its largest terms,
# about lam |xi'| ~ lam / theta_c per node.  Gauss(3) gives
# Psi(v) >= 0.43 dr sum|v_i| (at least 0.215 dr (|a| + |b|) per cell), so a
# residual delta moves the threshold by at most 2.4 theta_c max|delta| / dr:
# relative to theta_c, of order n_cells (1 + lam) ulps.  The residual
# measured at n_cells = 2048, lam = 100 (5.7e-13 max m) bounds the move by
# 1.4e-10 there, against a shrink of 2.1e-9.
_DUAL_MARGIN = 1e-14


class _ThresholdDual(NamedTuple):
    v: np.ndarray  # primal profile, clamped, m'v = 1 up to roundoff
    xi_u: np.ndarray  # dual field at the Gauss points, (n_points, n_cells)
    xi_s: np.ndarray
    lower: float  # certified: |theta| <= lower keeps the virgin state at rest
    upper: float  # Psi(v) / m'v


def _threshold_dual(mesh: Mesh, lam: float, opts: SolverOptions) -> _ThresholdDual:
    """Bracket of the clamped discrete yield threshold, with its witnesses.

    Zero is the increment from the virgin state iff theta m lies in
    dPsi(0) = {c(xi) : |xi| <= 1 at every Gauss point}, whatever Lambda and
    kappa, where c is the adjoint of v -> (u, lam u_r) at the Gauss points
    (rule weights included), so c(xi) . v = int xi . (u, lam u_r).  Psi is
    the support function of that set, hence the threshold
    theta_c = min {Psi(v) : m'v = 1} lies between 1 / max|xi| for any xi
    with c(xi) = m and Psi(v) / m'v for any v with m'v > 0.

    v minimizes Psi_eps at m'v = 1 down the smoothing schedule of opts by
    constrained Newton (the interior weights of m are all dr), within the
    Newton budget of opts, so options too tight to solve an increment fail
    here too.  At the last level xi = (u, lam u_r) / R has
    c(xi) = grad Psi_eps = g; divided by w = m'g / m'm it misses m by
    rho = g / w - m, which the minimum-norm field B K^-1 rho removes (B maps
    nodal values to (u, lam u_r) at the Gauss points; K = c B is the P1 mass
    plus lam^2 stiffness matrix on the interior nodes).
    """
    n = mesh.n_cells
    psi = SmoothedDissipation(mesh, lam)
    m = mass_vector(mesh)[1:-1]

    def clamped(x: np.ndarray) -> np.ndarray:
        full = np.zeros(n + 1)
        full[1:-1] = x
        return full

    def make_objective(eps: float):
        def evaluate(x: np.ndarray):
            rad = psi.radius(clamped(x), eps)
            v = psi.total(rad)
            return v, (rad, v)

        def derivatives(state):
            rad, v = state
            g, H = psi.grad_hess(rad)
            return constrained_newton(g[1:-1], H[:, 1:-1], v + 2.0 * eps)

        return evaluate, derivatives

    x = np.full(n - 1, 1.0 / float(m.sum()))
    for eps in opts.epsilon_schedule:
        # g is of order theta_c dr
        x, _ = damped_newton(
            x, *make_objective(eps), opts.newton_tol * mesh.dr, opts.max_newton_iters
        )

    v = clamped(x)
    rad = psi.radius(v, opts.epsilon_schedule[-1])
    g = psi.grad_hess(rad)[0][1:-1]
    w = float(m @ g) / float(m @ m)
    K = _energy_banded(mesh, NondimParams(lam=lam, Lambda=lam, kappa=1.0))
    fix = psi.radius(clamped(solve_banded_spd(K[:, 1:-1], g / w - m)), 0.0)
    wR = w * rad.R
    xi_u = rad.u / wR - fix.u
    xi_s = rad.ls / wR - fix.ls
    shrink = 1.0 - _DUAL_MARGIN * n * (1.0 + lam)
    lower = shrink / float(np.sqrt(xi_u * xi_u + xi_s * xi_s).max())
    upper = psi.value(v, 0.0) / float(m @ x)
    return _ThresholdDual(v, xi_u, xi_s, lower, upper)


@lru_cache(maxsize=64)
def _threshold_bracket(
    n_cells: int, lam: float, opts: SolverOptions
) -> tuple[float, float]:
    """(lower, upper) of _threshold_dual, shared by every solve on one strip."""
    dual = _threshold_dual(Mesh(n_cells), lam, opts)
    return dual.lower, dual.upper


class _IncrementProblem:
    """Reusable discrete operators for repeated increment solves on one mesh."""

    def __init__(self, mesh: Mesh, p: NondimParams):
        if p.kappa == 0.0:
            # no stored energy to balance the work: past the threshold the
            # increment is unbounded and Newton runs away without failing
            raise ValueError(
                "kappa must be strictly positive for the incremental solver: "
                "kappa = 0 means unbounded plastic flow past yield"
            )
        self.mesh = mesh
        self.p = p
        self.A = _energy_banded(mesh, p)
        self.A_abs = np.abs(self.A)
        self.m = mass_vector(mesh)
        self.psi = SmoothedDissipation(mesh, p.lam)

    def solve(self, gamma_prev: np.ndarray, theta: float, opts: SolverOptions) -> np.ndarray:
        if not gamma_prev.any():
            lower, _ = _threshold_bracket(self.mesh.n_cells, self.p.lam, opts)
            if abs(theta) <= lower:
                return np.zeros_like(gamma_prev)  # the exact discrete minimizer
        A, m, psi = self.A, self.m, self.psi
        A_abs = self.A_abs
        x = gamma_prev.copy()
        x[0] = x[-1] = 0.0

        def make_objective(eps: float):
            def evaluate(xf: np.ndarray):
                Ax = _banded_matvec(A, xf)
                quad = 0.5 * float(xf @ Ax)
                lin = theta * float(m @ xf)
                rad = psi.radius(xf - gamma_prev, eps)
                v = psi.total(rad)
                return quad - lin + v, (xf, Ax, rad, v)

            def derivatives(state):
                xf, Ax, rad, v = state
                g, H = psi.grad_hess(rad)
                # term-magnitude scale of f for the roundoff floor; the
                # stiffness part of Ax cancels internally (entries ~ 1/dr),
                # so the scale is taken before any cancellation, and the
                # smoothed dissipation subtracts an eps baseline of measure
                # 2 whose roundoff survives in v
                xa = np.abs(xf)
                fscale = (
                    0.5 * float(xa @ _banded_matvec(A_abs, xa))
                    + abs(theta) * float(m @ xa)
                    + v
                    + 2.0 * eps
                )
                g += Ax
                g -= theta * m
                H += A
                # clamp boundary dofs: unit rows, zero coupling, zero gradient
                g[0] = g[-1] = 0.0
                H[1][0] = H[1][-1] = 1.0
                H[0][1] = H[0][-1] = 0.0
                return convex_newton(g, H, fscale)

            return evaluate, derivatives

        for eps in opts.epsilon_schedule:
            x, _ = damped_newton(
                x, *make_objective(eps), opts.newton_tol, opts.max_newton_iters
            )
            x[0] = x[-1] = 0.0
        return x


def _require_clamped(gamma: Field) -> None:
    if gamma.values[0] != 0.0 or gamma.values[-1] != 0.0:
        raise ValueError("gamma must satisfy homogeneous boundary values (gamma(+-1) = 0)")


def increment_solve(
    gamma_prev: Field,
    theta: float,
    p: NondimParams,
    opts: SolverOptions | None = None,
) -> Field:
    """One incremental minimization: argmin_v E_tot(theta, v) + Psi(v - gamma_prev).

    The minimum runs over nodal fields with zero boundary values.  The
    smoothed objective is strictly convex (the smoothing term alone has a
    positive-definite Hessian), so the Newton continuation converges to the
    unique discrete minimizer; each level ends with gradient norm at most
    newton_tol or at double-precision stationarity, whichever comes first.
    From gamma_prev = 0 at a load no larger in magnitude than the certified
    lower bound on the yield threshold, the exact zero field is returned
    without any Newton iteration.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    _require_clamped(gamma_prev)
    if opts is None:
        opts = DEFAULT_OPTIONS
    prob = _IncrementProblem(gamma_prev.mesh, p)
    x = prob.solve(gamma_prev.values, theta, opts)
    return Field(gamma_prev.mesh, x)


def evolve(
    load: LoadProgram,
    p: NondimParams,
    mesh: Mesh,
    opts: SolverOptions | None = None,
) -> Trajectory:
    """March the incremental minimization along the load program.

    Starts from the virgin state at theta = 0 and records, per step, the
    dissipation increment Psi(gamma_k - gamma_{k-1}) and the total energy
    E_tot(theta_k, gamma_k), both evaluated with the unsmoothed functionals.
    """
    if opts is None:
        opts = DEFAULT_OPTIONS
    prob = _IncrementProblem(mesh, p)
    zeros = np.zeros(mesh.n_cells + 1)
    steps = []
    gamma_prev = zeros
    for k, theta in enumerate(load.theta_steps):
        if k == 0:
            gamma = zeros
            dinc = 0.0
        else:
            try:
                gamma = prob.solve(gamma_prev, theta, opts)
            except SolverError as err:
                raise SolverError(
                    f"load step {k} (theta = {theta:g}) failed: {err}",
                    residual=err.residual,
                    step=k,
                ) from err
            dinc = prob.psi.value(gamma - gamma_prev, 0.0)
        fld = Field(mesh, gamma)
        steps.append(
            TrajectoryStep(
                theta=float(theta),
                gamma=fld,
                dissipation_increment=float(dinc),
                total_energy=total_energy(theta, fld, p),
            )
        )
        gamma_prev = gamma
    return Trajectory(params=p, steps=tuple(steps))


def stability_residual(
    gamma: Field,
    theta: float,
    p: NondimParams,
    opts: SolverOptions | None = None,
) -> float:
    """Global-stability defect max(0, E_tot(theta, gamma) - min_v [E_tot + Psi]).

    The inner minimum is computed by one increment solve with gamma as the
    dissipation offset and evaluated with the unsmoothed functionals, so the
    returned value is a lower bound of the true defect up to solver accuracy;
    zero (within stability_tol) certifies stability in the discrete space.
    The certificate covers the mesh subspace only; stability against all
    admissible profiles is monitored through mesh refinement instead.
    """
    if opts is None:
        opts = DEFAULT_OPTIONS
    _require_clamped(gamma)
    competitor = increment_solve(gamma, theta, p, opts)
    here = total_energy(theta, gamma, p)
    there = total_energy(theta, competitor, p) + dissipation(
        Field(gamma.mesh, competitor.values - gamma.values), p.lam
    )
    return max(0.0, here - there)


def energy_balance_residual(traj: Trajectory) -> float:
    """Defect of the discrete energy balance along the trajectory.

    Computes |E_tot(theta_N, gamma_N) + sum_k Psi(gamma_k - gamma_{k-1})
    + sum_k (theta_k - theta_{k-1}) * (mass_k + mass_{k-1}) / 2|, the last
    sum being the trapezoidal approximation of the work integral
    int_0^theta int_I gamma dr dtheta'.  Tends to zero as the step size
    shrinks.
    """
    steps = traj.steps
    final = steps[-1].total_energy
    dis = sum(s.dissipation_increment for s in steps)
    masses = [mass(s.gamma) for s in steps]
    thetas = [s.theta for s in steps]
    work = 0.0
    for k in range(1, len(steps)):
        work += (thetas[k] - thetas[k - 1]) * 0.5 * (masses[k] + masses[k - 1])
    return abs(final + dis + work)


def detect_yield(traj: Trajectory, opts: SolverOptions | None = None) -> DetectedYield:
    """Largest load with no plastic flow anywhere up to it.

    Flow is declared once the max norm of gamma exceeds yield_tol.  The
    reported uncertainty is the local step size; when the whole trajectory
    stays below the tolerance the final load is returned with
    flow_observed = False.
    """
    if opts is None:
        opts = DEFAULT_OPTIONS
    steps = traj.steps
    thetas = [s.theta for s in steps]
    k_flow = None
    for k, s in enumerate(steps):
        if float(np.max(np.abs(s.gamma.values))) > opts.yield_tol:
            k_flow = k
            break
    if k_flow is None:
        last_step = thetas[-1] - thetas[-2] if len(thetas) > 1 else 0.0
        return DetectedYield(theta=thetas[-1], uncertainty=last_step, flow_observed=False)
    if k_flow == 0:
        return DetectedYield(
            theta=thetas[0],
            uncertainty=(thetas[1] - thetas[0]) if len(thetas) > 1 else 0.0,
            flow_observed=True,
        )
    return DetectedYield(
        theta=thetas[k_flow - 1],
        uncertainty=thetas[k_flow] - thetas[k_flow - 1],
        flow_observed=True,
    )
