"""Acceptance suite: one pass/fail check per shipped guarantee.

Each criterion function is self-contained, runs the public API at the
stated resolutions and tolerances, and returns (passed, detail).  The
`verify` CLI command and tests/test_acceptance.py both drive run_all.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable

import numpy as np

from .functionals import dissipation, mass, plastic_energy, relaxed_dissipation
from .incremental import (
    LoadProgram,
    Trajectory,
    detect_yield,
    energy_balance_residual,
    evolve,
    increment_solve,
    stability_residual,
)
from .model import (
    Field,
    NondimParams,
    PhysicalParams,
    local_flow_response,
    local_energy_balance_residual,
    make_mesh,
)
from .viscoplastic import ViscoParams, rate_independent_limit_study
from .yield_stress import (
    lambda_of_theta,
    minimizer_profile,
    theta_of_lambda,
    yield_integral,
    yield_variational,
)

__all__ = ["CRITERIA", "run_all"]


def _theta_grid() -> np.ndarray:
    return np.exp(np.linspace(math.log(1.001), math.log(50.0), 60))


def _lambda_grid() -> np.ndarray:
    return np.exp(np.linspace(math.log(1e-3), math.log(1e2), 60))


def criterion_01() -> tuple[bool, str]:
    """Closed-form lambda(theta) against the independent quadrature identity.

    yield_integral evaluates the identity by one fixed Gauss rule
    in s = arcsin(zeta), without the closed form.
    """
    t0 = time.perf_counter()
    worst = max(abs(lambda_of_theta(th) - yield_integral(th)) for th in _theta_grid())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 1.0
    return ok, f"max |formula - quadrature| = {worst:.3e} (<= 1e-10), {elapsed:.2f}s (<= 1s)"


def criterion_02() -> tuple[bool, str]:
    """Round-trip lambda -> theta_Y -> lambda inversion."""
    worst = max(
        abs(lambda_of_theta(theta_of_lambda(lam)) - lam) / max(1.0, lam)
        for lam in _lambda_grid()
    )
    return worst <= 1e-10, f"max round-trip error = {worst:.3e} (<= 1e-10, relative above 1)"


def criterion_03() -> tuple[bool, str]:
    """Strict bounds 1 < theta_Y(lambda) < 1 + lambda on the sweep grid."""
    margins = []
    for lam in _lambda_grid():
        th = theta_of_lambda(lam)
        margins.append(min(th - 1.0, 1.0 + lam - th))
        if not (1.0 < th < 1.0 + lam):
            return False, f"bound violated at lambda = {lam:.6g}: theta_Y = {th!r}"
    return True, f"all 60 points strictly inside; smallest margin {min(margins):.3e}"


def criterion_04() -> tuple[bool, str]:
    """Small-lambda asymptote theta_Y - 1 ~ pi^2 lambda^2 / 2."""
    devs = [
        abs((theta_of_lambda(lam) - 1.0) / (0.5 * math.pi**2 * lam**2) - 1.0)
        for lam in (1e-1, 1e-2, 1e-3)
    ]
    ok = devs[0] > devs[1] > devs[2] and devs[2] <= 1e-2
    return ok, f"deviations {devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e} (last <= 1e-2)"


def criterion_05() -> tuple[bool, str]:
    """Large-lambda asymptote theta_Y ~ lambda + pi/4."""
    devs = [abs(theta_of_lambda(lam) - lam - math.pi / 4) for lam in (10.0, 30.0, 100.0)]
    ok = devs[0] > devs[1] > devs[2] and devs[2] <= 1e-2
    return ok, f"deviations {devs[0]:.3e} > {devs[1]:.3e} > {devs[2]:.3e} (last <= 1e-2)"


def criterion_06() -> tuple[bool, str]:
    """Constrained minimization reproduces theta_Y, improving under refinement."""
    parts = []
    ok = True
    for lam in (0.25, 1.0, 4.0):
        ref = theta_of_lambda(lam)
        t0 = time.perf_counter()
        e_coarse = abs(yield_variational(lam, make_mesh(2048)).theta_Y - ref) / ref
        e_fine = abs(yield_variational(lam, make_mesh(4096)).theta_Y - ref) / ref
        elapsed = time.perf_counter() - t0
        ok = ok and e_fine <= 1e-3 and e_fine < e_coarse and elapsed <= 30.0
        parts.append(f"lambda={lam:g}: {e_coarse:.2e} -> {e_fine:.2e} in {elapsed:.1f}s")
    return ok, "; ".join(parts) + " (fine <= 1e-3, decreasing, <= 30s each)"


def criterion_07() -> tuple[bool, str]:
    """Reconstructed minimizer at theta_Y = sqrt(2): shape, mass, jump, value."""
    lam = lambda_of_theta(math.sqrt(2.0))
    prof = minimizer_profile(lam)
    vals = prof.phi.values
    half = vals[vals.size // 2 :]
    even = float(np.max(np.abs(vals - vals[::-1])))
    decreasing = bool(np.all(np.diff(half) < 0.0))
    mass_err = abs(mass(prof.phi) - 1.0)
    jump_err = abs(prof.jump_ratio - (math.sqrt(2.0) - 1.0) / math.sqrt(2.0))
    psi_err = abs(relaxed_dissipation(prof.phi, lam) - math.sqrt(2.0))
    ok = (
        even == 0.0
        and decreasing
        and mass_err <= 1e-8
        and jump_err <= 1e-6
        and psi_err <= 1e-6
    )
    return ok, (
        f"even defect {even:.1e}, strictly decreasing {decreasing}, "
        f"|mass-1| {mass_err:.1e} (<=1e-8), jump err {jump_err:.1e} (<=1e-6), "
        f"Psi-bar err {psi_err:.1e} (<=1e-6)"
    )


def _criterion_8_run(n_steps: int = 300, n_cells: int = 512) -> Trajectory:
    p = NondimParams(lam=1.179812, Lambda=1.0, kappa=1.0)
    load = LoadProgram(tuple(np.linspace(0.0, 3.0, n_steps + 1)))
    return evolve(load, p, make_mesh(n_cells))


def criterion_08() -> tuple[bool, str]:
    """Simulated yield point matches the formula within one load step."""
    t0 = time.perf_counter()
    traj = _criterion_8_run()
    detected = detect_yield(traj)
    elapsed = time.perf_counter() - t0
    pre = [
        float(np.max(np.abs(s.gamma.values)))
        for s in traj.steps
        if s.theta < detected.theta
    ]
    pre_max = max(pre)
    ok = (
        detected.flow_observed
        and abs(detected.theta - 2.0) <= 0.01 + 1e-12
        and pre_max <= 1e-8
        and elapsed <= 60.0
    )
    return ok, (
        f"detected theta_Y = {detected.theta:.4f} (target 2 within 0.01), "
        f"pre-yield max|gamma| = {pre_max:.2e} (<= 1e-8), {elapsed:.1f}s (<= 60s)"
    )


def criterion_09() -> tuple[bool, str]:
    """Energetic-solution certificates: stability at every state, balance order."""
    traj = _criterion_8_run()
    p = traj.params
    worst_stab = max(
        stability_residual(s.gamma, s.theta, p) for s in traj.steps
    )
    r_coarse = energy_balance_residual(traj)
    r_fine = energy_balance_residual(_criterion_8_run(n_steps=600))
    ok = worst_stab <= 1e-8 and r_fine <= 0.6 * r_coarse
    return ok, (
        f"max stability residual {worst_stab:.2e} (<= 1e-8); "
        f"balance residual {r_coarse:.2e} -> {r_fine:.2e} on step halving "
        f"(factor {r_fine / r_coarse:.2f} <= 0.6)"
    )


def _grid_search(center: np.ndarray, half_width: float, step: float, theta: float,
                 p: NondimParams, mesh) -> np.ndarray:
    """Exhaustive increment search over the 3 free nodes of the 4-cell mesh."""
    axes = [
        np.arange(c - half_width, c + half_width + 0.5 * step, step) for c in center
    ]
    g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
    cand = np.zeros(g1.shape + (5,))
    cand[..., 1], cand[..., 2], cand[..., 3] = g1, g2, g3
    flat = cand.reshape(-1, 5)

    dr = mesh.dr
    qp, qw = np.polynomial.legendre.leggauss(3)
    qp = (qp + 1.0) / 2.0
    qw = qw / 2.0
    mass_tr = np.zeros(len(flat))
    psi = np.zeros(len(flat))
    e_quad = np.zeros(len(flat))
    for j in range(4):
        a, b = flat[:, j], flat[:, j + 1]
        slope = (b - a) / dr
        for t, w in zip(qp, qw):
            u = a * (1.0 - t) + b * t
            e_quad += w * dr * 0.5 * p.kappa * (u * u + (p.Lambda * slope) ** 2)
            psi += w * dr * np.sqrt(u * u + (p.lam * slope) ** 2)
        mass_tr += dr * 0.5 * (a + b)
    obj = e_quad - theta * mass_tr + psi
    return flat[int(np.argmin(obj))][1:4]


def criterion_10() -> tuple[bool, str]:
    """Newton increment against an exhaustive nodal grid search (4 cells)."""
    p = NondimParams(lam=1.0, Lambda=1.0, kappa=1.0)
    mesh = make_mesh(4)
    theta = 3.0
    newton = increment_solve(Field.zeros(mesh), theta, p).values[1:4]

    center = np.full(3, 1.0)  # stage boxes cover [-0.5, 2.5]^3 coarsely
    best = _grid_search(center, 1.5, 0.05, theta, p, mesh)
    best = _grid_search(best, 0.1, 5e-3, theta, p, mesh)
    best = _grid_search(best, 0.01, 1e-3, theta, p, mesh)
    worst = float(np.max(np.abs(best - newton)))
    return worst <= 2e-3, f"max per-node |grid - newton| = {worst:.2e} (<= 2e-3, grid step 1e-3)"


def criterion_11() -> tuple[bool, str]:
    """Homogeneity, quadratic scaling, triangle inequality on random fields."""
    rng = np.random.default_rng(20260814)
    p = NondimParams(lam=0.7, Lambda=1.3, kappa=2.0)
    mesh = make_mesh(32)
    worst_h = worst_q = worst_t = 0.0
    for _ in range(100):
        v1 = Field(mesh, rng.normal(size=33))
        v2 = Field(mesh, rng.normal(size=33))
        c = float(rng.uniform(0.1, 10.0))
        scaled = Field(mesh, c * v1.values)
        d1 = dissipation(v1, p.lam)
        worst_h = max(worst_h, abs(dissipation(scaled, p.lam) - c * d1) / (c * d1))
        e1 = plastic_energy(v1, p)
        worst_q = max(worst_q, abs(plastic_energy(scaled, p) - c * c * e1) / (c * c * e1))
        d2 = dissipation(v2, p.lam)
        both = dissipation(Field(mesh, v1.values + v2.values), p.lam)
        worst_t = max(worst_t, (both - d1 - d2) / (d1 + d2))
    ok = worst_h <= 1e-12 and worst_q <= 1e-12 and worst_t <= 1e-12
    return ok, (
        f"homogeneity {worst_h:.1e}, quadratic {worst_q:.1e}, "
        f"triangle excess {worst_t:.1e} (all <= 1e-12)"
    )


def criterion_12() -> tuple[bool, str]:
    """Power-law runs approach the rate-independent trajectory as m drops."""
    t0 = time.perf_counter()
    base = PhysicalParams(
        S0=1.0, kappa=1.0, L=1.0, ell=1.0, h=1.0, G=1.0, d0=1.0, m_rate=0.2
    )
    ramp = [(k / 200, 2.0 * k / 200) for k in range(201)]
    report = rate_independent_limit_study(
        [0.2, 0.1, 0.05, 0.02], ViscoParams(base=base), make_mesh(256), ramp
    )
    elapsed = time.perf_counter() - t0
    d = report.discrepancies
    decreasing = all(b < a for a, b in zip(d, d[1:]))
    ok = decreasing and elapsed <= 120.0
    return ok, (
        "discrepancies " + " > ".join(f"{x:.2e}" for x in d)
        + f" strictly decreasing: {decreasing}; {elapsed:.1f}s (<= 120s)"
    )


def criterion_13() -> tuple[bool, str]:
    """Local model: exact threshold response and first-order balance defect."""
    exact = (
        local_flow_response(0.0, 2.0) == 0.0
        and local_flow_response(1.0, 2.0) == 0.0
        and local_flow_response(2.0, 0.5) == 2.0
        and np.array_equal(
            local_flow_response(np.array([0.5, 1.0, 3.0]), 1.0),
            np.array([0.0, 0.0, 2.0]),
        )
    )
    r1 = local_energy_balance_residual(np.linspace(0.0, 3.0, 201), 1.0)
    r2 = local_energy_balance_residual(np.linspace(0.0, 3.0, 401), 1.0)
    ok = exact and r2 <= 0.6 * r1
    return ok, (
        f"threshold responses exact: {exact}; balance defect {r1:.2e} -> {r2:.2e} "
        f"under grid halving (factor {r2 / r1:.2f} <= 0.6)"
    )


CRITERIA: dict[int, tuple[Callable[[], tuple[bool, str]], str]] = {
    1: (criterion_01, "formula vs quadrature identity"),
    2: (criterion_02, "round-trip inversion"),
    3: (criterion_03, "strict bounds 1 < theta_Y < 1 + lambda"),
    4: (criterion_04, "small-lambda asymptote"),
    5: (criterion_05, "large-lambda asymptote"),
    6: (criterion_06, "variational eigenvalue vs formula"),
    7: (criterion_07, "minimizer profile consistency"),
    8: (criterion_08, "simulated yield detection"),
    9: (criterion_09, "stability and energy-balance residuals"),
    10: (criterion_10, "brute-force increment oracle"),
    11: (criterion_11, "functional scaling properties"),
    12: (criterion_12, "viscoplastic rate-independent limit"),
    13: (criterion_13, "local model exactness and convergence"),
}


def run_all(
    only: Iterable[int] | None = None,
    stream: Callable[[str], None] = print,
) -> bool:
    """Run the selected criteria, print one PASS/FAIL line each, timed.

    only = None selects every criterion; an empty selection is refused.
    """
    selected = sorted(set(only)) if only is not None else sorted(CRITERIA)
    if not selected:
        raise ValueError("no criteria selected")
    unknown = [k for k in selected if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    all_ok = True
    for k in selected:
        fn, label = CRITERIA[k]
        t0 = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - t0
        all_ok = all_ok and passed
        stream(
            f"criterion {k:02d} [{'PASS' if passed else 'FAIL'}] {label}: {detail} "
            f"[{elapsed:.2f} s]"
        )
    return all_ok
