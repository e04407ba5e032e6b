"""Time the four README commands at their README sizes, once each.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Prints a markdown table of single
wall-clock runs: the `simulate` sweep (300 steps) split into `evolve` and
the per-step stability certificates with the spans the benchmark uses,
`yield-curve` with `STRIPSHEAR_THREADS` set to 1 and to 2, `visco` and
`profile`.  The benchmark (run.py) sizes its workloads for repeated runs;
this script gives the figures a user of the README commands sees.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

COMMANDS = {
    "simulate": ["simulate", "--lambda", "1.179812", "--theta-max", "3",
                 "--steps", "300"],
    "yield-curve": ["yield-curve", "--lambda-min", "0.01", "--lambda-max", "10",
                    "--points", "40"],
    "visco": ["visco", "--tau-max", "2.5", "--t-end", "1", "--steps", "200",
              "--m-rate", "0.05", "--hardening", "saturating", "--h0", "2",
              "--S-sat", "1.5"],
    "profile": ["profile", "--lambda", "0.567740"],
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from stripshear import cli

    from spans import Tracer

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=work))

    def timed(command: str, threads: str | None = None):
        saved = os.environ.get("STRIPSHEAR_THREADS")
        if threads is not None:
            os.environ["STRIPSHEAR_THREADS"] = threads
        tracer = Tracer()
        try:
            with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(COMMANDS[command] + ["--out", str(out)])
                wall = time.perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("STRIPSHEAR_THREADS", None)
            else:
                os.environ["STRIPSHEAR_THREADS"] = saved
        if code != 0:
            raise SystemExit(f"{command} exited {code}")
        spans = defaultdict(float)
        for s in tracer.spans:
            spans[s.name] += s.duration
        return wall, spans

    try:
        rows = []
        wall, spans = timed("simulate")
        rows.append(("`simulate` README sweep (300 steps, 512 cells)",
                     f"{wall:.1f} s: `evolve` {spans['incremental.evolve']:.1f} s, "
                     f"per-step `stability_residual` "
                     f"{spans['incremental.stability_residual']:.1f} s"))
        one, _ = timed("yield-curve", "1")
        two, _ = timed("yield-curve", "2")
        rows.append(("`yield-curve` defaults (40 points)",
                     f"{one:.1f} s with `STRIPSHEAR_THREADS=1`, {two:.1f} s with 2"))
        rows.append(("`visco` README example", f"{timed('visco')[0]:.2f} s"))
        rows.append(("`profile`", f"{timed('profile')[0]:.2f} s"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    print("| what | measured |\n| --- | --- |")
    for what, measured in rows:
        print(f"| {what} | {measured} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
