"""Benchmark harness for the stripshear package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process runs operations of one workload back to back (a
closed loop) for about `--seconds` seconds, checks every operation's
output, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The line before it records the
environment and the sample counts.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
operations, plus `setup_s`, the median over fresh interpreters of the time
to import the package and its CLI.  `--trace 1` runs operations in pairs
with the same inputs, one untraced and one with spans around the package's
public functions (see spans.py), checks that both wrote byte-identical
CSV/JSON, and reports the per-layer metrics.  `--smoke` shrinks every size
so the harness itself can be tested in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP_REPEATS = 5
IMPORT_CODE = "import sys; sys.path.insert(0, 'src'); import stripshear.cli"
THREAD_VARS = ("STRIPSHEAR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
WORK_DIR = ".perfbench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "curve", "visco"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for testing the harness")
    return parser.parse_args(argv)


def _setup_seconds(root: Path, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the package and CLI."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=root, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
    }


def _ms(values, q):
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def _layer_metrics(tracers, outcomes, traced_walls, untraced_walls, workload):
    """Per-layer metrics: per-operation sums are medians over traced
    operations; per-call percentiles pool every call of the run."""
    per_op = defaultdict(list)
    pooled = defaultdict(list)
    for tr in tracers:
        sums, counts = defaultdict(float), defaultdict(int)
        last_tau = {}
        curve_main = 0.0
        for i, s in enumerate(tr.spans):
            group = "functionals" if s.name.startswith("functionals.") else s.name
            sums[group] += s.duration
            counts[group] += 1
            if s.name == "cli.main":
                sums["cli.self"] += tr.self_time(i)
                if s.attrs["command"] == "yield-curve":
                    curve_main += s.duration
            elif s.name == "incremental.increment_solve":
                pooled[s.attrs["phase"]].append(s.duration)
                pooled["increment"].append(s.duration)
            elif s.name == "yield_stress.yield_variational":
                sums["newton_calls"] += s.attrs["newton_calls"]
                pooled["variational"].append(s.duration)
            elif s.name == "viscoplastic.visco_step":
                tau = s.attrs["tau"]
                unload = tau < last_tau.get(s.parent, -np.inf)
                last_tau[s.parent] = tau
                pooled["unload" if unload else "load"].append(s.duration)
                if unload:
                    sums["unload"] += s.duration
                pooled["visco_step"].append(s.duration)
        busy = sums["yield_stress.yield_variational"]
        row = {
            "cli.main.s": sums["cli.main"],
            "cli.self_s": sums["cli.self"],
            "incremental.evolve.s": sums["incremental.evolve"],
            "incremental.stability_residual.s": sums["incremental.stability_residual"],
            "incremental.increment_solve.calls": counts["incremental.increment_solve"],
            "incremental.detect_yield.ms": 1e3 * sums["incremental.detect_yield"],
            "yield_stress.yield_variational.busy_s": busy,
            "yield_stress.yield_variational.calls":
                counts["yield_stress.yield_variational"],
            "yield_stress.yield_variational.overlap":
                busy / curve_main if curve_main else 0.0,
            "yield_stress.newton_calls": sums["newton_calls"],
            "yield_stress.theta_of_lambda.ms": 1e3 * sums["yield_stress.theta_of_lambda"],
            "yield_stress.minimizer_profile.ms":
                1e3 * sums["yield_stress.minimizer_profile"],
            "viscoplastic.simulate_visco.s": sums["viscoplastic.simulate_visco"],
            "viscoplastic.visco_step.calls": counts["viscoplastic.visco_step"],
            "viscoplastic.visco_step.unload_s": sums["unload"],
            "viscoplastic.recover_displacement.ms":
                1e3 * sums["viscoplastic.recover_displacement"],
            "functionals.s": sums["functionals"],
            "functionals.calls": counts["functionals"],
            "svg.render_line_plot.ms": 1e3 * sums["svg.render_line_plot"],
        }
        for name, value in row.items():
            per_op[name].append(value)

    metrics = {name: float(np.median(values)) for name, values in per_op.items()}
    metrics.update({
        "incremental.increment_solve.pre_yield_ms_p50": _ms(pooled["pre_yield"], 50),
        "incremental.increment_solve.post_yield_ms_p50": _ms(pooled["post_yield"], 50),
        "incremental.increment_solve.ms_p90": _ms(pooled["increment"], 90),
        "yield_stress.yield_variational.ms_p50": _ms(pooled["variational"], 50),
        "yield_stress.yield_variational.ms_p90": _ms(pooled["variational"], 90),
        "viscoplastic.visco_step.load_ms_p50": _ms(pooled["load"], 50),
        "viscoplastic.visco_step.unload_ms_p50": _ms(pooled["unload"], 50),
        "viscoplastic.visco_step.ms_p90": _ms(pooled["visco_step"], 90),
        "trace.overhead_s": statistics.median(traced_walls)
        - statistics.median(untraced_walls),
    })
    errors = [o.theta_err for o in outcomes
              if o is not None and o.theta_err is not None]
    theta_err = float(np.median(errors)) if errors else 0.0
    metrics["incremental.theta_err"] = theta_err if workload == "sweep" else 0.0
    metrics["yield_stress.theta_err"] = theta_err if workload == "curve" else 0.0
    return metrics


def _declared(root: Path, key: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "stripshear" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'stripshear'}; run from the "
              "root of a stripshear checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stripshear

    if Path(stripshear.__file__).resolve().parent != (src / "stripshear").resolve():
        print(f"perfbench: imported {stripshear.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    setup_s = None
    if args.trace == 0:
        setup_s = _setup_seconds(root, 1 if args.smoke else SETUP_REPEATS)

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    run = workloads.Run(args.workload, args.seed, Path(tempfile.mkdtemp(dir=work)))
    try:
        # warm-up at smoke sizes (lazy imports, caches): checked, counted, untimed
        run.once(0, workloads.SMOKE)

        walls, cpus, traced_walls, tracers, outcomes = [], [], [], [], []
        identical = True
        start = time.perf_counter()
        index = 0
        while True:
            if args.trace == 0:
                wall, cpu, outcome = run.once(index, sizes)
                walls.append(wall)
                cpus.append(cpu)
                outcomes.append(outcome)
            else:
                # same inputs both ways; alternate which one runs first
                tracer = Tracer()
                plain_first = index % 2 == 0
                first = run.once(index, sizes, None if plain_first else tracer)
                second = run.once(index, sizes, tracer if plain_first else None)
                plain, traced = (first, second) if plain_first else (second, first)
                walls.append(plain[0])
                traced_walls.append(traced[0])
                tracers.append(tracer)
                outcomes.append(traced[2])
                if plain[2] is not None and traced[2] is not None:
                    identical &= plain[2].outputs == traced[2].outputs
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.rmdir()

    if args.trace == 0:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = _declared(root, "end_to_end")
    else:
        values = _layer_metrics(tracers, outcomes, traced_walls, walls, args.workload)
        units = _declared(root, "per_layer")
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")

    for message in run.errors:
        print(f"perfbench: failed operation: {message}", file=sys.stderr)
    if not identical:
        print("perfbench: traced and untraced operations wrote different outputs",
              file=sys.stderr)
    print(json.dumps({
        "environment": _environment(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "samples": {"untraced": len(walls), "traced": len(traced_walls)},
        "wall_s_per_op": walls,
        "traced_wall_s_per_op": traced_walls,
        "traced_outputs_identical": identical if args.trace else None,
    }))
    print(json.dumps({
        "correct": run.failed == 0 and identical,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
