"""The three workloads: inputs drawn from the seed, one operation each, checks.

Every operation goes through the package's public functions: the README
commands through `stripshear.cli.main`, the visco load-unload series
through `simulate_visco`.  An operation returns the CSV/JSON bytes it wrote
(so a traced and an untraced run can be compared) and the yield-threshold
error it measured, or raises `OpFailed` when a solver fails or a check
does not hold.  `Run` times operations and counts the failed ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stripshear import (
    DEFAULT_OPTIONS,
    Hardening,
    PhysicalParams,
    SolverError,
    ViscoParams,
    lambda_of_theta,
    make_mesh,
    simulate_visco,
    theta_of_lambda,
)
from stripshear import cli

# Op i of a run draws u_i = frac(U + i * GOLDEN) from one seeded U, so any
# prefix of a run's operations covers the parameter range evenly and the
# per-operation median moves little from seed to seed.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# README profile command: the lambda whose threshold is sqrt(2).
PROFILE_LAMBDA = "0.567740"

# README visco command and the series that shares its parameters.
VISCO_S0, VISCO_S_SAT = 1.0, 1.5
VISCO_ARGS = ["--t-end", "1", "--m-rate", "0.05", "--hardening", "saturating",
              "--h0", "2", "--S-sat", str(VISCO_S_SAT)]
# The series peaks at the README tau_max whatever the seed.  Its cost is set
# by how many unloading steps fall back to continuation (about 0.6 s each,
# against 3 ms for the others), and that count jumps with the peak: over
# tau_max in [2.25, 2.75] one series took 1.5 s to 6.3 s with no trend.
# A seeded peak would spread wall_s by about half its median across seeds.
SERIES_TAU_MAX = 2.5
VISCO_PARAMS = ViscoParams(
    base=PhysicalParams(S0=VISCO_S0, kappa=1.0, L=1.0, ell=1.0, h=1.0, G=1.0,
                        d0=1.0, m_rate=0.05),
    hardening=Hardening.saturating(2.0, VISCO_S_SAT),
)


@dataclass(frozen=True)
class Sizes:
    sweep_cells: int
    # Not a multiple of 3: theta_max = 1.5 theta_Y puts theta_Y a third of
    # a step below a load point, never on one, so detection is well posed.
    sweep_steps: int
    curve_points: int
    curve_cells: int
    profile_samples: int
    visco_steps: int
    visco_cells: int
    series_steps: int
    series_cells: int


FULL = Sizes(sweep_cells=512, sweep_steps=32, curve_points=40, curve_cells=512,
             profile_samples=65536, visco_steps=200, visco_cells=256,
             series_steps=20, series_cells=32)
SMOKE = Sizes(sweep_cells=32, sweep_steps=8, curve_points=3, curve_cells=16,
              profile_samples=256, visco_steps=10, visco_cells=16,
              series_steps=6, series_cells=8)


class OpFailed(Exception):
    """A solver failure or a failed correctness check in one operation."""


@dataclass
class Outcome:
    outputs: dict  # file name -> bytes, for the traced-vs-untraced check
    theta_err: float | None  # yield-threshold error, where the workload has one


def draw(seed: int, index: int) -> float | None:
    """u in [0, 1) for operation `index`; None (the README inputs) for seed 0."""
    if seed == 0:
        return None
    base = np.random.default_rng(seed).random()
    return (base + index * GOLDEN) % 1.0


def _cli(argv: list[str], tracer) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main", command=argv[0]):
                code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def _read(out: Path, names: list[str]) -> dict:
    return {name: (out / name).read_bytes() for name in names}


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise OpFailed(message)


def sweep_inputs(u):
    """theta_Y in [1.8, 2.2]; the README sweep (theta_Y = 2) for u = None."""
    if u is None:
        return {"lambda": "1.179812", "theta_max": "3"}
    theta_y = 1.8 + 0.4 * u
    return {"lambda": f"{lambda_of_theta(theta_y):.6f}",
            "theta_max": f"{1.5 * theta_y:.6f}"}


def run_sweep(u, out: Path, sizes: Sizes, tracer) -> Outcome:
    p = sweep_inputs(u)
    _cli(["simulate", "--lambda", p["lambda"], "--theta-max", p["theta_max"],
          "--steps", str(sizes.sweep_steps), "--cells", str(sizes.sweep_cells),
          "--out", str(out)], tracer)
    files = _read(out, ["simulate.csv", "simulate.json"])
    theta_ref = theta_of_lambda(float(p["lambda"]))
    detected = json.loads(files["simulate.json"])["detected_yield"]
    err = abs(detected["theta"] - theta_ref)
    _check(detected["flow_observed"] and err <= detected["uncertainty"],
           f"sweep: detected yield {detected['theta']} is not within one load "
           f"step of theta_of_lambda = {theta_ref}")
    for row in _rows(files["simulate.csv"]):
        theta = float(row["theta"])
        flow = float(row["gamma_max"])
        _check(theta >= theta_ref or flow <= DEFAULT_OPTIONS.yield_tol,
               f"sweep: plastic flow {flow} below yield at theta {theta}")
        _check(float(row["stability_residual"]) <= DEFAULT_OPTIONS.stability_tol,
               f"sweep: stability residual {row['stability_residual']} at theta {theta}")
    return Outcome(files, err)


def curve_inputs(u):
    """lambda_min, lambda_max scaled by one factor in [0.8, 1.25]."""
    if u is None:
        return {"lambda_min": "0.01", "lambda_max": "10"}
    factor = 0.8 * (1.25 / 0.8) ** u
    return {"lambda_min": f"{0.01 * factor:.6g}", "lambda_max": f"{10 * factor:.6g}"}


def run_curve(u, out: Path, sizes: Sizes, tracer) -> Outcome:
    p = curve_inputs(u)
    _cli(["yield-curve", "--lambda-min", p["lambda_min"], "--lambda-max",
          p["lambda_max"], "--points", str(sizes.curve_points), "--cells",
          str(sizes.curve_cells), "--out", str(out)], tracer)
    _cli(["profile", "--lambda", PROFILE_LAMBDA, "--samples",
          str(sizes.profile_samples), "--out", str(out)], tracer)
    files = _read(out, ["yield_curve.csv", "yield_curve.json", "profile.csv",
                        "profile.json"])
    summary = json.loads(files["yield_curve.json"])
    _check(summary["bounds_ok"], "curve: theta_Y outside (1, 1 + lambda)")
    worst = summary["max_rel_formula_vs_variational"]
    _check(worst <= 1e-2, f"curve: variational vs formula relative error {worst}")
    jump = json.loads(files["profile.json"])["jump_ratio"]
    expected = 1.0 - 1.0 / theta_of_lambda(float(PROFILE_LAMBDA))
    _check(abs(jump - expected) <= 1e-6,
           f"profile: jump_ratio {jump}, expected 1 - 1/theta_Y = {expected}")
    return Outcome(files, worst)


def visco_inputs(u):
    """tau_max of the README command in [2.25, 2.75]; 2.5 for u = None."""
    return {"tau_max": "2.5" if u is None else f"{2.25 + 0.5 * u:.6f}"}


def _series_load(steps: int) -> list[tuple[float, float]]:
    """tau ramps 0 -> SERIES_TAU_MAX over t in [0, 1/2], back to 0 at t = 1."""
    times = np.linspace(0.0, 1.0, steps + 1)
    return [(t, SERIES_TAU_MAX * (1.0 - abs(2.0 * t - 1.0))) for t in times]


def _check_strength(values, where: str) -> None:
    lo, hi = float(np.min(values)), float(np.max(values))
    _check(VISCO_S0 <= lo and hi <= VISCO_S_SAT,
           f"{where}: strength range [{lo}, {hi}] leaves [S0, S_sat]")


def run_visco(u, out: Path, sizes: Sizes, tracer) -> Outcome:
    p = visco_inputs(u)
    _cli(["visco", "--tau-max", p["tau_max"], "--steps", str(sizes.visco_steps),
          "--cells", str(sizes.visco_cells), *VISCO_ARGS, "--out", str(out)], tracer)
    files = _read(out, ["visco.csv", "visco_displacement.csv", "visco.json"])
    for name in ("visco.csv", "visco_displacement.csv"):
        rows = _rows(files[name])
        values = np.array([[float(x) for x in r.values()] for r in rows])
        _check(bool(np.all(np.isfinite(values))), f"visco: non-finite value in {name}")
    _check_strength([float(r["S_max"]) for r in _rows(files["visco.csv"])], "visco.csv")

    load = _series_load(sizes.series_steps)
    mesh = make_mesh(sizes.series_cells)
    try:
        if tracer is None:
            states = simulate_visco(load, VISCO_PARAMS, mesh)
        else:
            with tracer.span("viscoplastic.simulate_visco"):
                states = simulate_visco(load, VISCO_PARAMS, mesh)
    except SolverError as err:
        raise OpFailed(f"visco series: {err}") from err
    gamma = np.array([s.gamma.values for s in states])
    strength = np.array([s.S.values for s in states])
    _check(bool(np.all(np.isfinite(gamma)) and np.all(np.isfinite(strength))),
           "visco series: non-finite field")
    _check_strength(strength, "visco series")
    files["series.npy"] = gamma.tobytes() + strength.tobytes()
    return Outcome(files, None)


WORKLOADS = {"sweep": run_sweep, "curve": run_curve, "visco": run_visco}


class Run:
    """Operations of one workload, timed and checked; counts failures."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.op, self.seed, self.work = WORKLOADS[workload], seed, work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def once(self, index: int, sizes: Sizes, tracer=None):
        """Operation `index`, traced when a tracer is given; returns
        (wall_s, cpu_s, Outcome or None when it failed)."""
        out = Path(tempfile.mkdtemp(dir=self.work))
        u = draw(self.seed, index)
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                outcome = self.op(u, out, sizes, None)
            else:
                with tracer.installed():
                    outcome = self.op(u, out, sizes, tracer)
        except OpFailed as err:
            outcome = None
            self.failed += 1
            self.errors.append(str(err))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        shutil.rmtree(out)
        return wall, cpu, outcome
