"""Stress-grid census: run one named grid and print one JSON line of counts.

    python3 tools/census.py visco72 [--limit N] [--runs]
    python3 tools/census.py increments [--limit N] [--runs]

The package is imported from this checkout's src/.  Grids (ROADMAP items 6
and 2):

- visco72: m_rate in {0.5, 0.05, 0.005} x ell in {0.01, 1, 100} x L in
  {0.01, 1} x n_cells in {16, 512}, each on the ramp tau = 2.5 t and on one
  sine period tau = 2.5 sin 2 pi t at t = k / 40 (40 steps), zero
  hardening, S0 = kappa = h = G = d0 = 1.
- increments: lam in {1e-3, 0.1, 10, 1e3} x Lambda in {1e-3, 1, 1e3} x
  kappa in {1e-3, 1, 1e3}, evolve at 64 cells over 30 equal steps to
  3 theta_of_lambda(lam).

The line holds the runs, the runs that raised SolverError by message, the
unconverged visco steps (ViscoState.converged false) or the increment
retries (TrajectoryStep.retried) of the runs that finished, the
evaluations (calls of the evaluate function handed to damped_newton), a
sha256 over the runs' own sha256s, each over every state's float64 bytes
(or the message of a run that raised), and damped_newton's exits: returned
at tol, returned above tol, and each raise by message.  Numbers in messages read '#', so that a
message names a kind of failure.

The exits are counted by wrapping damped_newton in every package module
that holds it, for the length of the census, as perfbench/spans.py wraps
the names it times; the package itself has no hook.  --limit N runs the
first N runs only (each grid lists its smallest meshes first), and --runs
prints one line per run before the summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import pkgutil
import re
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import stripshear  # noqa: E402
from stripshear import (  # noqa: E402
    Hardening,
    LoadProgram,
    NondimParams,
    PhysicalParams,
    SolverError,
    ViscoParams,
    evolve,
    make_mesh,
    simulate_visco,
    theta_of_lambda,
)
from stripshear import _p1  # noqa: E402

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def kind(message: str) -> str:
    """A message with its numbers replaced by '#'."""
    return _NUMBER.sub("#", message)


@contextmanager
def counted_newton():
    """Wrap damped_newton wherever a package module holds it; yield the tally.

    The tally counts "evaluations" and each exit: "tol", "above_tol" and
    "raise: <kind>".  The originals are back in place on exit.
    """
    original = _p1.damped_newton
    tally = Counter()

    def counting(x, evaluate, derivatives, tol):
        def counted(y):
            tally["evaluations"] += 1
            return evaluate(y)

        try:
            x, measure = original(x, counted, derivatives, tol)
        except SolverError as err:
            tally[f"raise: {kind(str(err))}"] += 1
            raise
        tally["tol" if measure <= tol else "above_tol"] += 1
        return x, measure

    holders = [
        module
        for module in (
            importlib.import_module(f"stripshear.{info.name}")
            for info in pkgutil.iter_modules(stripshear.__path__)
        )
        if getattr(module, "damped_newton", None) is original
    ]
    for module in holders:
        module.damped_newton = counting
    try:
        yield tally
    finally:
        for module in holders:
            module.damped_newton = original


def _visco_run(n_cells, m_rate, ell, L, shape):
    p = ViscoParams(
        base=PhysicalParams(S0=1.0, kappa=1.0, L=L, ell=ell, h=1.0, G=1.0,
                            d0=1.0, m_rate=m_rate),
        hardening=Hardening.zero(),
    )
    if shape == "ramp":
        load = [(k / 40.0, 2.5 * (k / 40.0)) for k in range(41)]
    else:
        load = [(k / 40.0, 2.5 * math.sin(2.0 * math.pi * k / 40.0)) for k in range(41)]
    states = simulate_visco(load, p, make_mesh(n_cells))
    arrays = [a for st in states for a in (st.gamma.values, st.S.values)]
    return arrays, sum(not st.converged for st in states)


def _increment_run(lam, Lambda, kappa):
    thetas = np.linspace(0.0, 3.0 * theta_of_lambda(lam), 31)
    traj = evolve(
        LoadProgram(tuple(thetas)), NondimParams(lam, Lambda, kappa), make_mesh(64)
    )
    return [s.gamma.values for s in traj.steps], sum(s.retried for s in traj.steps)


def visco72():
    """(label, run) pairs of the 72-run viscoplastic grid."""
    for n_cells, m_rate, ell, L, shape in itertools.product(
        (16, 512), (0.5, 0.05, 0.005), (0.01, 1.0, 100.0), (0.01, 1.0), ("ramp", "sine")
    ):
        label = f"n{n_cells} m{m_rate:g} ell{ell:g} L{L:g} {shape}"
        yield label, lambda a=(n_cells, m_rate, ell, L, shape): _visco_run(*a)


def increments():
    """(label, run) pairs of the 36-run increment grid."""
    grid = (1e-3, 1.0, 1e3)
    for lam, Lambda, kappa in itertools.product((1e-3, 0.1, 10.0, 1e3), grid, grid):
        label = f"lam{lam:g} Lambda{Lambda:g} kappa{kappa:g}"
        yield label, lambda a=(lam, Lambda, kappa): _increment_run(*a)


GRIDS = {"visco72": (visco72, "unconverged_steps"), "increments": (increments, "retries")}


def census(grid: str, limit: int | None = None, per_run=None) -> dict:
    """Run the first limit runs of grid (all when None); return the summary.

    per_run, when given, is called with each run's own record.
    """
    runs, counted = GRIDS[grid]
    digest = hashlib.sha256()
    raises = Counter()
    total = n_runs = 0
    with counted_newton() as tally:
        for label, run in itertools.islice(runs(), limit):
            n_runs += 1
            own = hashlib.sha256()
            before = tally["evaluations"]
            message = None
            try:
                arrays, count = run()
            except SolverError as err:
                arrays, count, message = [], 0, str(err)
                raises[kind(message)] += 1
                own.update(message.encode())
            for a in arrays:
                own.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
            digest.update(own.digest())
            total += count
            if per_run is not None:
                per_run({
                    "run": label,
                    "sha256": own.hexdigest(),
                    counted: count,
                    "evaluations": tally["evaluations"] - before,
                    "raise": message,
                })
    evaluations = tally.pop("evaluations", 0)
    return {
        "grid": grid,
        "runs": n_runs,
        "raises": dict(raises),
        counted: total,
        "evaluations": evaluations,
        "sha256": digest.hexdigest(),
        "exits": dict(tally),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grid", choices=sorted(GRIDS))
    parser.add_argument("--limit", type=int, default=None, help="run the first N runs")
    parser.add_argument("--runs", action="store_true", help="print a line per run too")
    args = parser.parse_args(argv)

    def show(record):
        print(json.dumps(record, sort_keys=True), flush=True)

    show(census(args.grid, args.limit, show if args.runs else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
