"""Command-line front end: runs the solvers, emits CSV/JSON/SVG artifacts.

Commands: yield-curve, profile, simulate, visco, verify.  main merges a
command's defaults, then a flat key=value file (--config), then the
command-line flags of the same names, and hands the result to the
command's runner.  Each artifact command writes <stem>.csv (plus any extra
CSV files), <stem>.svg and <stem>.json into --out through one writer, which
prints a single "wrote ..." line.  Outputs are deterministic: identical
configs produce byte-identical files.  Exit codes: 0 success, 1 validation
error, 2 solver failure, 3 verify FAIL.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .functionals import mass, relaxed_dissipation
from .incremental import (
    LoadProgram,
    detect_yield,
    evolve,
    # the independent stability oracle; simulate writes evolve's certificate
    # instead, but perfbench/spans.py wraps this name here by attribute
    stability_residual,  # noqa: F401
)
from .model import NondimParams, PhysicalParams, SolverError, make_mesh
from .svg import render_line_plot
from .viscoplastic import (
    Hardening,
    ViscoParams,
    recover_displacement,
    simulate_visco,
)
from .yield_stress import (
    asymptotic_theta,
    minimizer_profile,
    theta_of_lambda,
    yield_variational,
)

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 1."""


_REQUIRED = object()

# key -> default (or _REQUIRED) per command; flag names equal key names
_COMMAND_SPECS: dict[str, dict[str, object]] = {
    "yield-curve": {
        "lambda_min": "0.01",
        "lambda_max": "10",
        "points": "40",
        "cells": "512",
        "out": ".",
    },
    "profile": {
        "lambda": _REQUIRED,
        "samples": "65536",
        "out": ".",
    },
    "simulate": {
        "lambda": _REQUIRED,
        "Lambda": "1",
        "kappa": "1",
        "theta_max": _REQUIRED,
        "steps": _REQUIRED,
        "cells": "512",
        "out": ".",
    },
    "visco": {
        "S0": "1",
        "kappa": "1",
        "L": "1",
        "ell": "1",
        "h": "1",
        "G": "1",
        "d0": "1",
        "m_rate": "0.1",
        "hardening": "zero",
        "h0": "0",
        "S_sat": "inf",
        "tau_max": _REQUIRED,
        "t_end": "1",
        "steps": _REQUIRED,
        "cells": "256",
        "out": ".",
    },
    "verify": {
        "only": "",
    },
}


def _as_float(params: dict[str, str], key: str) -> float:
    try:
        return float(params[key])
    except ValueError as err:
        raise ConfigError(f"key {key!r}: not a number: {params[key]!r}") from err


def _as_finite(params: dict[str, str], key: str) -> float:
    value = _as_float(params, key)
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {params[key]!r}")
    return value


def _as_int(params: dict[str, str], key: str) -> int:
    try:
        return int(params[key])
    except ValueError as err:
        raise ConfigError(f"key {key!r}: not an integer: {params[key]!r}") from err


def _write_csv(path: Path, header: list[str], rows) -> int:
    """CSV with \\r\\n line ends; floats at 17 significant digits."""
    table = np.asarray(rows)
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for row in table:
            f.write(line % tuple(row))
    return len(table)


def _write_artifacts(
    out_dir: str,
    stem: str,
    header: list[str],
    rows,
    plot: dict,
    summary: dict,
    extra=(),
) -> int:
    """Write <stem>.csv, <stem>.svg and <stem>.json into out_dir.

    extra holds (file name, header, rows) for further CSV files, written and
    listed after <stem>.csv.  plot holds render_line_plot's arguments; the
    SVG is rendered once the CSV files are written and rows is released, so
    that the document and the CSV table never hold memory at the same time.
    Prints the one "wrote ..." line; returns exit 0.  A file system error is
    a ConfigError naming out_dir.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{stem}.csv"
        n_rows = _write_csv(csv_path, header, rows)
        del rows
        written = [f"{csv_path} ({n_rows} rows)"]
        for name, extra_header, extra_rows in extra:
            path = out / name
            _write_csv(path, extra_header, extra_rows)
            written.append(str(path))
        svg_path = out / f"{stem}.svg"
        svg_path.write_text(render_line_plot(**plot))
        json_path = out / f"{stem}.json"
        with open(json_path, "w") as f:
            json.dump(summary, f, sort_keys=True, indent=2)
            f.write("\n")
    except OSError as err:
        raise ConfigError(f"cannot write to --out {out_dir!r}: {err}") from err
    print(f"wrote {', '.join(written)}, {svg_path}, {json_path}")
    return 0


def _run_yield_curve(params: dict[str, str]) -> int:
    lam_min = _as_finite(params, "lambda_min")
    lam_max = _as_finite(params, "lambda_max")
    points = _as_int(params, "points")
    cells = _as_int(params, "cells")
    if not (0.0 < lam_min < lam_max):
        raise ConfigError("need 0 < lambda_min < lambda_max")
    if points < 2:
        raise ConfigError("points must be >= 2")

    grid = np.exp(np.linspace(math.log(lam_min), math.log(lam_max), points))
    mesh = make_mesh(cells)

    # the formula first: it names the bound of its domain that a lam crosses
    theta_form = [theta_of_lambda(lam) for lam in grid]
    theta_var = [yield_variational(lam, mesh).theta_Y for lam in grid]
    asym = [asymptotic_theta(lam) for lam in grid]

    rows = [
        (lam, tf, tv, 1.0 + lam, a[0], a[1])
        for lam, tf, tv, a in zip(grid, theta_form, theta_var, asym)
    ]
    return _write_artifacts(
        params["out"],
        "yield_curve",
        [
            "lambda",
            "theta_formula",
            "theta_variational",
            "theta_bound_1_plus_lambda",
            "small_asym",
            "large_asym",
        ],
        rows,
        dict(
            series=[
                ("theta_Y", grid, np.array(theta_form)),
                ("1 + lambda", grid, 1.0 + grid),
            ],
            title="Renormalized yield threshold vs length-scale ratio",
            xlabel="lambda",
            ylabel="theta_Y",
            logx=True,
            dashed=("1 + lambda",),
        ),
        {
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "points": points,
            "cells": cells,
            "bounds_ok": bool(
                all(1.0 < tf < 1.0 + lam for lam, tf in zip(grid, theta_form))
            ),
            "max_rel_formula_vs_variational": max(
                abs(tv - tf) / tf for tf, tv in zip(theta_form, theta_var)
            ),
        },
    )


def _run_profile(params: dict[str, str]) -> int:
    lam = _as_float(params, "lambda")
    samples = _as_int(params, "samples")

    prof = minimizer_profile(lam, n_samples=samples)
    half = prof.phi.values[samples // 2 :]

    nodes = prof.phi.mesh.nodes
    return _write_artifacts(
        params["out"],
        "profile",
        ["r", "zeta", "phi"],
        np.column_stack((prof.r, prof.zeta, half)),
        dict(
            series=[("phi", nodes, prof.phi.values), ("zeta", prof.r, prof.zeta)],
            title=f"Yield-onset profile, lambda = {lam:g}",
            xlabel="r",
            ylabel="value",
            dashed=("zeta",),
        ),
        {
            "lambda": lam,
            "theta_Y": prof.theta_Y,
            "jump_ratio": prof.jump_ratio,
            "psi_bar": relaxed_dissipation(prof.phi, lam),
        },
    )


def _run_simulate(params: dict[str, str]) -> int:
    lam = _as_float(params, "lambda")
    Lambda = _as_float(params, "Lambda")
    kappa = _as_float(params, "kappa")
    theta_max = _as_finite(params, "theta_max")
    steps = _as_int(params, "steps")
    cells = _as_int(params, "cells")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if theta_max <= 0.0:
        raise ConfigError("theta_max must be positive")

    p = NondimParams(lam=lam, Lambda=Lambda, kappa=kappa)
    load = LoadProgram(tuple(np.linspace(0.0, theta_max, steps + 1)))
    traj = evolve(load, p, make_mesh(cells))

    rows = []
    dis_cum = 0.0
    for s in traj.steps:
        dis_cum += s.dissipation_increment
        rows.append(
            (
                s.theta,
                float(np.max(np.abs(s.gamma.values))),
                mass(s.gamma),
                dis_cum,
                s.total_energy,
                s.stability_bound,
            )
        )
    detected = detect_yield(traj)
    bounds = [s.stability_bound for s in traj.steps]
    thetas = np.array([r[0] for r in rows])
    return _write_artifacts(
        params["out"],
        "simulate",
        [
            "theta",
            "gamma_max",
            "gamma_mass",
            "dissipation_cum",
            "energy",
            "stability_residual",
        ],
        rows,
        dict(
            series=[
                ("max |gamma|", thetas, np.array([r[1] for r in rows])),
                ("cumulative dissipation", thetas, np.array([r[3] for r in rows])),
            ],
            title=f"Incremental evolution, lambda = {lam:g}",
            xlabel="theta",
            ylabel="response",
        ),
        {
            "lambda": lam,
            "Lambda": Lambda,
            "kappa": kappa,
            "cells": cells,
            "detected_yield": {
                "theta": detected.theta,
                "uncertainty": detected.uncertainty,
                "flow_observed": detected.flow_observed,
            },
            "stability": {
                "max_bound": max(bounds),
                "positive_bounds": sum(b > 0.0 for b in bounds),
            },
            "newton": {
                "evaluations": sum(s.evaluations for s in traj.steps),
                "retries": sum(s.retried for s in traj.steps),
            },
        },
    )


def _run_visco(params: dict[str, str]) -> int:
    base = PhysicalParams(
        S0=_as_float(params, "S0"),
        kappa=_as_float(params, "kappa"),
        L=_as_float(params, "L"),
        ell=_as_float(params, "ell"),
        h=_as_float(params, "h"),
        G=_as_float(params, "G"),
        d0=_as_float(params, "d0"),
        m_rate=_as_float(params, "m_rate"),
    )
    kind = params["hardening"]
    hardening = Hardening(kind, _as_float(params, "h0"), _as_float(params, "S_sat"))
    p = ViscoParams(base=base, hardening=hardening)

    tau_max = _as_finite(params, "tau_max")
    t_end = _as_finite(params, "t_end")
    steps = _as_int(params, "steps")
    cells = _as_int(params, "cells")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")

    times = np.linspace(0.0, t_end, steps + 1)
    load = [(t, tau_max * t / t_end) for t in times]
    states = simulate_visco(load, p, make_mesh(cells))

    rows = [
        (
            s.t,
            tau,
            float(np.max(np.abs(s.gamma.values))),
            base.h * mass(s.gamma),
            float(np.max(s.S.values)),
        )
        for s, (_, tau) in zip(states, load)
    ]

    u = recover_displacement(states[-1], tau_max, p)
    y = base.h * u.mesh.nodes
    return _write_artifacts(
        params["out"],
        "visco",
        ["t", "tau", "gamma_max", "gamma_mass", "S_max"],
        rows,
        dict(
            series=[
                ("gamma(y) final", y, states[-1].gamma.values),
                ("u(y) final", y, u.values),
            ],
            title=f"Viscoplastic run, m = {base.m_rate:g}",
            xlabel="y",
            ylabel="profile",
            dashed=("u(y) final",),
        ),
        {
            "m_rate": base.m_rate,
            "hardening": kind,
            "tau_max": tau_max,
            "t_end": t_end,
            "steps": steps,
            "cells": cells,
            "final_gamma_max": rows[-1][2],
            "final_gamma_mass": rows[-1][3],
            "final_S_max": rows[-1][4],
            "final_u_top": float(u.values[-1]),
        },
        extra=[("visco_displacement.csv", ["y", "u"], np.column_stack((y, u.values)))],
    )


def _run_verify(params: dict[str, str]) -> int:
    raw = params["only"]
    only = None
    if raw:
        try:
            only = [int(tok) for tok in raw.replace(",", " ").split()]
        except ValueError as err:
            raise ConfigError(f"key 'only': expected criterion numbers: {raw!r}") from err
    try:
        ok = run_all(only=only)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 3


_RUNNERS = {
    "yield-curve": _run_yield_curve,
    "profile": _run_profile,
    "simulate": _run_simulate,
    "visco": _run_visco,
    "verify": _run_verify,
}


def _parse_config_file(path: str, command: str) -> dict[str, str]:
    spec = _COMMAND_SPECS[command]
    params: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in spec:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command!r}")
        if key in params:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        params[key] = value
    return params


class _Parser(argparse.ArgumentParser):
    """Argument errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser of main, built on the first call and then reused."""
    parser = _Parser(
        prog="stripshear",
        description="Strain-gradient plasticity laboratory for the sheared strip",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMAND_SPECS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", default=None, help="key=value config file")
        for key, default in spec.items():
            req = " (required)" if default is _REQUIRED else f" (default {default!r})"
            flags = [f"--{key}"]
            if "_" in key:
                flags.append(f"--{key.replace('_', '-')}")
            cp.add_argument(
                *flags, dest=f"key_{key}", default=None, help=f"{key}{req}"
            )
    return parser


def main(argv=None) -> int:
    """Run one command from argv; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        spec = _COMMAND_SPECS[command]
        params = {k: v for k, v in spec.items() if v is not _REQUIRED}
        if args.config is not None:
            params.update(_parse_config_file(args.config, command))
        for key in spec:
            value = getattr(args, f"key_{key}")
            if value is not None:
                params[key] = value
        missing = [k for k in spec if k not in params]
        if missing:
            raise ConfigError(
                f"missing required keys for {command!r}: {', '.join(missing)}"
            )
        return _RUNNERS[command](params)
    except SolverError as err:
        print(f"solver failure in {command!r}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # ConfigError and module invariant violations alike
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
