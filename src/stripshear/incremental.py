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

over nodal fields with zero boundary values.  Both defining properties are
checked a posteriori: stability by a certificate from each step's own
multiplier (the stability certificate of _p1), energy balance by summation
(energy_balance_residual).  The certificate is recorded on every
TrajectoryStep, and evolve refuses a state whose bound exceeds
stability_tol.  stability_residual, a re-minimization from the state, stays
as an independent oracle: it bounds the stability defect from below.

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
The schedule and the Newton budget are _p1's DEFAULT_OPTIONS.

Warm-started increments.  From the virgin state at a load within the lower
end of _p1's pre-yield bracket, the increment is the exact zero field, with
no Newton iteration.  Every other increment is one damped-Newton solve at
the schedule's last level, eps = 1e-11, from a predictor.  From a flowed
state (gamma_prev not identically 0) the predictor is gamma_prev, or the
secant extrapolation of the last two states that evolve passes.  From the
virgin state it is the threshold witness v of threshold_bracket scaled by
its exact one-dimensional optimum: along t v the objective is
t^2 v'Av / 2 - theta t m'v + |t| Psi(v), minimized at
t = sign(theta) max(0, |theta| m'v - Psi(v)) / v'Av.  A solve that raises
SolverError or fails its certificate is redone once down the whole
schedule from gamma_prev (_p1's ladder: a level that takes no Newton step
sends it straight to its last level),
and only that second result can raise.  Each TrajectoryStep records its
objective evaluations and whether it was redone.

At eps this small the objective is 1/eps-stiff wherever the increment
vanishes, so re-minimizing from an already-converged state cannot reach an
absolute gradient tolerance: the attainable decrease drops below the
double-precision roundoff of the objective value long before.  Newton
therefore also accepts an iterate as converged when the decrement
g' H^-1 g / 2 (the decrease predicted by the local quadratic model) falls
below the roundoff floor of the objective, measured against the magnitudes
of its summed terms.  Energy-type outputs (stability and balance residuals)
see errors of the order of that decrement, far below their tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._p1 import (
    DEFAULT_OPTIONS,
    SmoothedDissipation,
    banded_matvec,
    clamped,
    convex_newton,
    dual_norm,
    energy_banded,
    ladder,
    mass_vector,
    solve_banded_spd,
    threshold_bracket,
)
from .functionals import dissipation, mass, total_energy
from .model import Field, Mesh, NondimParams, SolverError

__all__ = [
    "LoadProgram",
    "TrajectoryStep",
    "Trajectory",
    "DetectedYield",
    "increment_solve",
    "evolve",
    "stability_residual",
    "energy_balance_residual",
    "detect_yield",
]

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


class TrajectoryStep(NamedTuple):
    theta: float
    gamma: Field
    dissipation_increment: float
    total_energy: float
    stability_bound: float  # upper bound on the global-stability defect
    evaluations: int = 0  # objective evaluations of the step's increment solve
    retried: bool = False  # the warm-started solve failed; the full ladder ran


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


class DetectedYield(NamedTuple):
    theta: float
    uncertainty: float
    flow_observed: bool


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
        self.A = energy_banded(mesh, p.kappa, p.Lambda)
        self.A_abs = np.abs(self.A)
        self.m = mass_vector(mesh)
        self.psi = SmoothedDissipation(mesh, p.lam)
        self.evaluations = 0  # objective evaluations over every solve so far
        self.retries = 0  # warm-started solves redone down the whole schedule

    def _solve(
        self, gamma_prev: np.ndarray, theta: float, start: np.ndarray | None
    ) -> tuple[np.ndarray, bool]:
        """(gamma, warm): the increment, and whether the warm solve gave it.

        From the virgin state at a load within the certified threshold
        bracket, zero is the minimizer.  Any other increment runs the last
        smoothing level alone: a virgin one from the scaled threshold
        witness, a flowed one from start (a predictor with zero boundary
        values) or else from gamma_prev.  If that raises SolverError, the
        whole schedule runs from gamma_prev instead.
        """
        if gamma_prev.any():
            x = gamma_prev if start is None else start
        else:
            lower, _, v = threshold_bracket(self.mesh.n_cells, self.p.lam)
            if abs(theta) <= lower:
                # the exact discrete minimizer
                return np.zeros_like(gamma_prev), False
            # the minimizer along the witness ray t v
            gain = abs(theta) * float(self.m @ v) - self.psi.value(v, 0.0)
            vAv = float(v @ banded_matvec(self.A, v))
            x = math.copysign(max(0.0, gain) / vAv, theta) * v
        try:
            return self._descend(
                gamma_prev, theta, x, DEFAULT_OPTIONS.epsilon_schedule[-1:]
            ), True
        except SolverError:
            return self._retry(gamma_prev, theta), False

    def _retry(self, gamma_prev: np.ndarray, theta: float) -> np.ndarray:
        """The whole schedule from gamma_prev, counted in retries."""
        self.retries += 1
        return self._descend(
            gamma_prev, theta, gamma_prev, DEFAULT_OPTIONS.epsilon_schedule
        )

    def _descend(
        self, gamma_prev: np.ndarray, theta: float, x: np.ndarray, schedule
    ) -> np.ndarray:
        """The smoothing ladder over schedule from x, a field left untouched.

        The ladder runs on the interior nodes of x; the result is the nodal
        field rebuilt from them by clamped.
        """
        A, m, psi = self.A, self.m, self.psi
        A_abs = self.A_abs

        def make_objective(eps: float):
            def evaluate(x: np.ndarray):
                self.evaluations += 1
                xf = clamped(x)
                Ax = banded_matvec(A, xf)
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
                    0.5 * float(xa @ banded_matvec(A_abs, xa))
                    + abs(theta) * float(m @ xa)
                    + v
                    + 2.0 * eps
                )
                g += Ax
                g -= theta * m
                H += A
                return convex_newton(g[1:-1], H[:, 1:-1], fscale)

            return evaluate, derivatives

        x = ladder(x[1:-1], make_objective, DEFAULT_OPTIONS.newton_tol, schedule)
        return clamped(x)

    def solve_certified(
        self, gamma_prev: np.ndarray, theta: float, start: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """solve, with its state's stability_bound; SolverError past stability_tol.

        A warm-started state whose bound exceeds stability_tol is solved
        once more down the whole schedule from gamma_prev before the
        SolverError.
        """
        gamma, warm = self._solve(gamma_prev, theta, start)
        bound = self.stability_bound(gamma_prev, gamma, theta)
        tol = DEFAULT_OPTIONS.stability_tol
        if warm and bound > tol:
            gamma = self._retry(gamma_prev, theta)
            bound = self.stability_bound(gamma_prev, gamma, theta)
        if bound > tol:
            raise SolverError(
                f"state not certified stable: defect bound {bound:.3e} "
                f"exceeds stability_tol {tol:.1e}",
                residual=bound,
            )
        return gamma, bound

    def stability_bound(
        self, gamma_prev: np.ndarray, gamma: np.ndarray, theta: float
    ) -> float:
        """Upper bound on the global-stability defect of gamma at theta.

        r = theta m - A gamma on the interior nodes.  The bound holds for any
        gamma; it is tight when gamma is the increment solve from gamma_prev,
        whose multiplier it reuses.  Any Gauss-point field eta with |eta| <= 1
        gives Psi(d) >= c(eta)'d, so the defect
        max_d [r'd - d'Ad / 2 - Psi(d)] is at most rho'A^-1 rho / 2 with
        rho = r - c(eta).  Two such fields come from the multiplier of the
        last smoothing level, xi0 = (u, lam u_r) / R with |xi0| < 1:
          * xi0 itself: c(xi0) = g, the smoothed gradient, and rho is the
            Newton residual of the increment;
          * xi / s, with xi = xi0 made exact (c(xi) = r) and s = max|xi|
            inflated by its roundoff margin, both by _p1's dual_norm:
            rho = (1 - 1/s) r, and s <= 1 certifies a defect of exactly 0.
            Where the margin certifies nothing, s is inf and this bound is
            r'A^-1 r / 2.
        The bound is the smaller of the two.  A zero state at a load within
        the certified threshold bracket is stable whatever gamma_prev, and
        gets 0 without any work.
        """
        n, lam = self.mesh.n_cells, self.p.lam
        if not gamma.any() and abs(theta) <= threshold_bracket(n, lam)[0]:
            return 0.0
        r = (theta * self.m - banded_matvec(self.A, gamma))[1:-1]
        rad = self.psi.radius(gamma - gamma_prev, DEFAULT_OPTIONS.epsilon_schedule[-1])
        g = self.psi.grad_hess(rad)[0][1:-1]
        s = dual_norm(self.psi, rad, g, 1.0, r)
        if s <= 1.0:
            return 0.0
        A = self.A[:, 1:-1]
        rho = r - g
        scaled = (1.0 - 1.0 / s) ** 2 * float(r @ solve_banded_spd(A, r))
        return 0.5 * min(scaled, float(rho @ solve_banded_spd(A, rho)))


def _require_clamped(gamma: Field) -> None:
    if gamma.values[0] != 0.0 or gamma.values[-1] != 0.0:
        raise ValueError("gamma must satisfy homogeneous boundary values (gamma(+-1) = 0)")


def increment_solve(
    gamma_prev: Field,
    theta: float,
    p: NondimParams,
) -> Field:
    """One incremental minimization: argmin_v E_tot(theta, v) + Psi(v - gamma_prev).

    The minimum runs over nodal fields with zero boundary values.  The
    smoothed objective is strictly convex (the smoothing term alone has a
    positive-definite Hessian), so the Newton continuation converges to the
    unique discrete minimizer; each level ends with gradient norm at most
    newton_tol or at double-precision stationarity, whichever comes first.
    From gamma_prev = 0 at a load no larger in magnitude than the certified
    lower bound on the yield threshold, the exact zero field is returned
    without any Newton iteration.  Any other increment is solved at the
    last smoothing level alone, from gamma_prev or, from gamma_prev = 0,
    from the scaled threshold witness, and runs the whole schedule from
    gamma_prev only if that fails.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    _require_clamped(gamma_prev)
    prob = _IncrementProblem(gamma_prev.mesh, p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, _ = prob._solve(gamma_prev.values, theta, None)
    return Field(gamma_prev.mesh, x)


def evolve(
    load: LoadProgram,
    p: NondimParams,
    mesh: Mesh,
) -> Trajectory:
    """March the incremental minimization along the load program.

    Starts from the virgin state at theta = 0 and records, per step, the
    dissipation increment Psi(gamma_k - gamma_{k-1}) and the total energy
    E_tot(theta_k, gamma_k), both evaluated with the unsmoothed functionals,
    and the stability certificate of gamma_k from its step's multiplier
    (_IncrementProblem.stability_bound).  A state whose certificate exceeds
    stability_tol is never returned: it raises SolverError, as a failed
    solve does.
    """
    prob = _IncrementProblem(mesh, p)
    zeros = np.zeros(mesh.n_cells + 1)
    steps = []
    gamma_prev = gamma_back = zeros
    # an extreme load or modulus overflows; the solves refuse a non-finite
    # system and Field a non-finite state
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, theta in enumerate(load.theta_steps):
            evaluations, retries = prob.evaluations, prob.retries
            if k == 0:
                gamma = zeros
                dinc = bound = 0.0
            else:
                start = None
                if gamma_prev.any():
                    # secant predictor through the last two states (step 0 is
                    # the virgin state, so a flowed gamma_prev means k >= 2)
                    theta_prev = load.theta_steps[k - 1]
                    slope = (theta - theta_prev) / (theta_prev - load.theta_steps[k - 2])
                    start = gamma_prev + slope * (gamma_prev - gamma_back)
                try:
                    gamma, bound = prob.solve_certified(gamma_prev, theta, start)
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
                    stability_bound=bound,
                    evaluations=prob.evaluations - evaluations,
                    retried=prob.retries > retries,
                )
            )
            gamma_prev, gamma_back = gamma, gamma_prev
    return Trajectory(params=p, steps=tuple(steps))


def stability_residual(
    gamma: Field,
    theta: float,
    p: NondimParams,
) -> float:
    """Global-stability defect max(0, E_tot(theta, gamma) - min_v [E_tot + Psi]).

    The independent oracle of stability, a lower bound: the inner minimum
    is computed by one increment solve with gamma as the dissipation offset
    and evaluated with the unsmoothed functionals, so the returned value
    is the true defect from below, up to solver accuracy.  The certificate
    evolve records (TrajectoryStep.stability_bound) bounds it from above.
    Both cover the mesh subspace only; stability against all admissible
    profiles is monitored through mesh refinement instead.
    """
    _require_clamped(gamma)
    competitor = increment_solve(gamma, theta, p)
    # E_tot(gamma) - E_tot(competitor) - Psi(d) from d alone: the two
    # totals are far larger than their difference
    d = competitor.values - gamma.values
    A = energy_banded(gamma.mesh, p.kappa, p.Lambda)
    r = theta * mass_vector(gamma.mesh) - banded_matvec(A, gamma.values)
    defect = float(d @ r) - 0.5 * float(d @ banded_matvec(A, d))
    return max(0.0, defect - dissipation(Field(gamma.mesh, d), p.lam))


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


def detect_yield(traj: Trajectory) -> DetectedYield:
    """Largest load with no plastic flow anywhere up to it.

    Flow is declared once the max norm of gamma exceeds yield_tol.  The
    reported uncertainty is the local step size; when the whole trajectory
    stays below the tolerance the final load is returned with
    flow_observed = False.
    """
    steps = traj.steps
    thetas = [s.theta for s in steps]
    k_flow = None
    for k, s in enumerate(steps):
        if float(np.max(np.abs(s.gamma.values))) > DEFAULT_OPTIONS.yield_tol:
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
