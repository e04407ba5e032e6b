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
multiplier (below), energy balance by summation (energy_balance_residual).
stability_residual, a re-minimization from the state, stays as an
independent oracle: it bounds the stability defect from below.

Stability certificate.  gamma is stable at theta iff
r = theta m - A gamma lies in dPsi(0) = {c(xi) : |xi| <= 1 at every Gauss
point} (c the adjoint of the Gauss-point map v -> (u, lam u_r)).  The last
smoothing level of the step that produced gamma gives xi = (u, lam u_r) / R
with c(xi) = r up to the Newton residual, which a minimum-norm correction
removes.  With s = max|xi|, Psi(d) >= r'd / s for every d, so the defect
max_d [r'd - d'Ad / 2 - Psi(d)] is 0 if s <= 1 and at most
(1 - 1/s)^2 r'A^-1 r / 2 otherwise; the uncorrected xi gives a second
bound, from the Newton residual (_IncrementProblem.stability_bound takes
the smaller).  This upper bound is recorded on every TrajectoryStep, and
evolve refuses a state whose bound exceeds stability_tol.

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
The schedule, one decade per level from 1e-1, the Newton tolerance 1e-9
with a budget of 100 iterations per level, stability_tol 1e-8 and
yield_tol 1e-8 form the one solver configuration, the read-only record
DEFAULT_OPTIONS, which every solver in the package reads.

Warm-started increments.  Every increment that is not the certified zero
field below is one damped-Newton solve at the schedule's last level,
eps = 1e-11, from a predictor.  From a flowed state (gamma_prev not
identically 0) the predictor is gamma_prev, or the secant extrapolation
of the last two states that evolve passes.  From the virgin state it is
the threshold witness v of _threshold_dual scaled by its exact
one-dimensional optimum: along t v the objective is
t^2 v'Av / 2 - theta t m'v + |t| Psi(v), minimized at
t = sign(theta) max(0, |theta| m'v - Psi(v)) / v'Av.  A solve that raises
SolverError or fails its certificate is redone once down the whole
schedule from gamma_prev (_ladder, which the threshold dual below shares:
a level that takes no Newton step sends it straight to its last level),
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

Pre-yield increments from the virgin state skip the ladder.  Zero is the
increment from gamma = 0 iff theta m lies in the subdifferential of Psi at
0, whatever Lambda and kappa, that is iff |theta| is at most the clamped
discrete yield threshold theta_c = min {Psi(v) : m'v = 1}.  A dual field xi
with c(xi) = m (c the adjoint of the Gauss-point map v -> (u, lam u_r))
proves theta_c >= 1 / max|xi|; it is built once per (n_cells, lam)
from a constrained Newton solve for the threshold profile, and below that
bound the solve returns the exact zero field with no Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


@dataclass(frozen=True)
class _SolverSettings:
    epsilon_schedule: tuple  # smoothing widths, strictly decreasing
    newton_tol: float
    max_newton_iters: int
    stability_tol: float  # largest certified stability defect evolve accepts
    yield_tol: float  # max|gamma| above which detect_yield declares flow


# The one solver configuration, read by every solver in the package.
DEFAULT_OPTIONS = _SolverSettings(
    epsilon_schedule=tuple(10.0 ** (-k) for k in range(1, 12)),
    newton_tol=1e-9,
    max_newton_iters=100,
    stability_tol=1e-8,
    yield_tol=1e-8,
)


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


# ---------------------------------------------------------------------------
# discrete operators


def _energy_banded(mesh: Mesh, kappa: float, Lambda: float) -> np.ndarray:
    """Banded (upper form) matrix of the quadratic form 2*E, i.e. E = 0.5 x'Ax.

    A = kappa * (Mq + Lambda^2 K) with Mq the exact piecewise-linear mass
    matrix and K the stiffness matrix.  At kappa = 1, Lambda = lam, A is the
    dual Gram matrix c B: B maps nodal values to (u, lam u_r) at the Gauss
    points and c is its adjoint (rule weights included); Gauss(3) integrates
    both products exactly.
    """
    n = mesh.n_cells
    dr = mesh.dr
    diag = np.zeros(n + 1)
    sup = np.zeros(n + 1)  # sup[i] couples nodes (i-1, i) in solveh_banded layout
    m_diag = dr / 3.0
    m_off = dr / 6.0
    k_diag = 1.0 / dr
    k_off = -1.0 / dr
    Lam2 = Lambda * Lambda
    cell_diag = kappa * (m_diag + Lam2 * k_diag)
    cell_off = kappa * (m_off + Lam2 * k_off)
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
# The stability certificate inflates max|xi| by the same factor.
_DUAL_MARGIN = 1e-14


def _clamped(x: np.ndarray) -> np.ndarray:
    """Interior values as a nodal field with zero boundary values."""
    full = np.zeros(x.size + 2)
    full[1:-1] = x
    return full


def _dual_field(
    psi: SmoothedDissipation,
    rad,
    g: np.ndarray,
    w: float,
    target: np.ndarray,
    K: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-point field xi with c(xi) = target, from a smoothed multiplier.

    rad holds the radii of Psi_eps at some field and g the interior entries
    of its gradient, so (u, lam u_r) / R has c = g.  Divided by w it misses
    target by rho = g / w - target, which the minimum-norm field B K^-1 rho
    removes; K is the dual Gram matrix _energy_banded(mesh, 1.0, lam), of
    which the interior block is used.  Returns (xi_u, xi_s), laid out as
    rad.u and rad.ls.
    """
    fix = psi.radius(_clamped(solve_banded_spd(K[:, 1:-1], g / w - target)), 0.0)
    wR = w * rad.R
    return rad.u / wR - fix.u, rad.ls / wR - fix.ls


def _max_norm(xi_u: np.ndarray, xi_s: np.ndarray) -> float:
    """max |xi| over the Gauss points."""
    return float(np.sqrt(xi_u * xi_u + xi_s * xi_s).max())


def _ladder(x: np.ndarray, make_objective, tol: float, schedule) -> np.ndarray:
    """Damped Newton at every smoothing level of schedule in turn, from x.

    make_objective(eps) returns damped_newton's (evaluate, derivatives).  A
    level that takes no Newton step (damped_newton returns its input) ends
    the descent early: the ladder goes straight to its last level, which
    always runs.
    """
    last = len(schedule) - 1
    k = 0
    while True:
        x_new, _ = damped_newton(
            x, *make_objective(schedule[k]), tol, DEFAULT_OPTIONS.max_newton_iters
        )
        if k == last:
            return x_new
        k = last if x_new is x else k + 1
        x = x_new


def _dual_shrink(n_cells: int, lam: float) -> float:
    """1 minus the roundoff margin of a dual field's max norm."""
    return 1.0 - _DUAL_MARGIN * n_cells * (1.0 + lam)


class _ThresholdDual(NamedTuple):
    v: np.ndarray  # primal profile, clamped, m'v = 1 up to roundoff
    xi_u: np.ndarray  # dual field at the Gauss points, (n_points, n_cells)
    xi_s: np.ndarray
    lower: float  # certified: |theta| <= lower keeps the virgin state at rest
    upper: float  # Psi(v) / m'v


def _threshold_dual(mesh: Mesh, lam: float) -> _ThresholdDual:
    """Bracket of the clamped discrete yield threshold, with its witnesses.

    Zero is the increment from the virgin state iff theta m lies in
    dPsi(0) = {c(xi) : |xi| <= 1 at every Gauss point}, whatever Lambda and
    kappa, where c is the adjoint of v -> (u, lam u_r) at the Gauss points
    (rule weights included), so c(xi) . v = int xi . (u, lam u_r).  Psi is
    the support function of that set, hence the threshold
    theta_c = min {Psi(v) : m'v = 1} lies between 1 / max|xi| for any xi
    with c(xi) = m and Psi(v) / m'v for any v with m'v > 0.

    v minimizes Psi_eps at m'v = 1 down the smoothing schedule by
    constrained Newton (the interior weights of m are all dr), within the
    increments' Newton budget.  At the last level the gradient
    g = c((u, lam u_r) / R), scaled by w = m'g / m'm, is turned into a
    field with c(xi) = m by _dual_field.
    """
    n = mesh.n_cells
    psi = SmoothedDissipation(mesh, lam)
    m = mass_vector(mesh)[1:-1]

    def make_objective(eps: float):
        def evaluate(x: np.ndarray):
            rad = psi.radius(_clamped(x), eps)
            v = psi.total(rad)
            return v, (rad, v)

        def derivatives(state):
            rad, v = state
            g, H = psi.grad_hess(rad)
            return constrained_newton(g[1:-1], H[:, 1:-1], v + 2.0 * eps)

        return evaluate, derivatives

    x = np.full(n - 1, 1.0 / float(m.sum()))
    # g is of order theta_c dr
    x = _ladder(
        x, make_objective, DEFAULT_OPTIONS.newton_tol * mesh.dr,
        DEFAULT_OPTIONS.epsilon_schedule,
    )

    v = _clamped(x)
    rad = psi.radius(v, DEFAULT_OPTIONS.epsilon_schedule[-1])
    g = psi.grad_hess(rad)[0][1:-1]
    w = float(m @ g) / float(m @ m)
    xi_u, xi_s = _dual_field(psi, rad, g, w, m, _energy_banded(mesh, 1.0, lam))
    lower = _dual_shrink(n, lam) / _max_norm(xi_u, xi_s)
    upper = psi.value(v, 0.0) / float(m @ x)
    return _ThresholdDual(v, xi_u, xi_s, lower, upper)


@lru_cache(maxsize=64)
def _threshold_bracket(n_cells: int, lam: float) -> tuple[float, float, np.ndarray]:
    """(lower, upper, v) of _threshold_dual, shared by every solve on one strip.

    A property of the strip alone: the lower bound is certified for
    whatever dual field the constrained solve ends with.  The primal
    witness v is read-only, as every caller shares it.
    """
    dual = _threshold_dual(Mesh(n_cells), lam)
    dual.v.flags.writeable = False
    return dual.lower, dual.upper, dual.v


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
        self.A = _energy_banded(mesh, p.kappa, p.Lambda)
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
            lower, _, v = _threshold_bracket(self.mesh.n_cells, self.p.lam)
            if abs(theta) <= lower:
                # the exact discrete minimizer
                return np.zeros_like(gamma_prev), False
            # the minimizer along the witness ray t v
            gain = abs(theta) * float(self.m @ v) - self.psi.value(v, 0.0)
            vAv = float(v @ _banded_matvec(self.A, v))
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
        """The smoothing ladder over schedule from x, a field left untouched."""
        A, m, psi = self.A, self.m, self.psi
        A_abs = self.A_abs

        def make_objective(eps: float):
            def evaluate(xf: np.ndarray):
                self.evaluations += 1
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

        # the clamped rows give boundary steps of exactly 0, so the copy
        # keeps zero boundary values down the whole ladder
        x = x.copy()
        x[0] = x[-1] = 0.0
        return _ladder(x, make_objective, DEFAULT_OPTIONS.newton_tol, schedule)

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

    @cached_property
    def _gram(self) -> np.ndarray:
        return _energy_banded(self.mesh, 1.0, self.p.lam)

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
          * xi / s, with xi = xi0 made exact (c(xi) = r) by _dual_field and
            s = max|xi| (inflated by the roundoff margin): rho = (1 - 1/s) r,
            and s <= 1 certifies a defect of exactly 0.
        The bound is the smaller of the two.  A zero state at a load within
        the certified threshold bracket is stable whatever gamma_prev, and
        gets 0 without any work.
        """
        n, lam = self.mesh.n_cells, self.p.lam
        if not gamma.any() and abs(theta) <= _threshold_bracket(n, lam)[0]:
            return 0.0
        r = (theta * self.m - _banded_matvec(self.A, gamma))[1:-1]
        rad = self.psi.radius(gamma - gamma_prev, DEFAULT_OPTIONS.epsilon_schedule[-1])
        g = self.psi.grad_hess(rad)[0][1:-1]
        xi_u, xi_s = _dual_field(self.psi, rad, g, 1.0, r, self._gram)
        s = _max_norm(xi_u, xi_s) / _dual_shrink(n, lam)
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
    A = _energy_banded(gamma.mesh, p.kappa, p.Lambda)
    r = theta * mass_vector(gamma.mesh) - _banded_matvec(A, gamma.values)
    defect = float(d @ r) - 0.5 * float(d @ _banded_matvec(A, d))
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
