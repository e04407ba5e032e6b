"""Command-line front end: runs the solvers, emits CSV/JSON/SVG artifacts.

Commands: yield-curve, profile, simulate, visco, verify.  Configuration is
a flat key=value file (--config) with command-line flags of the same names
taking precedence.  Outputs are deterministic: identical configs produce
byte-identical files.  Exit codes: 0 success, 1 validation error, 2 solver
failure, 3 verify FAIL.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .functionals import mass, relaxed_dissipation
from .incremental import (
    DEFAULT_OPTIONS,
    LoadProgram,
    SolverOptions,
    detect_yield,
    evolve,
    stability_residual,
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

__all__ = ["ConfigError", "RunConfig", "run", "main"]


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
        "newton_tol": "",
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
        "newton_tol": "",
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
        "newton_tol": "",
        "out": ".",
    },
    "verify": {
        "only": "",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A command plus its fully merged key=value parameters."""

    command: str
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMAND_SPECS:
            raise ConfigError(f"unknown command {self.command!r}")
        spec = _COMMAND_SPECS[self.command]
        merged = {k: v for k, v in spec.items() if v is not _REQUIRED}
        for key, value in self.params.items():
            if key not in spec:
                raise ConfigError(
                    f"unknown key {key!r} for command {self.command!r} "
                    f"(known: {', '.join(sorted(spec))})"
                )
            merged[key] = str(value)
        missing = [k for k, v in spec.items() if v is _REQUIRED and k not in merged]
        if missing:
            raise ConfigError(
                f"missing required keys for {self.command!r}: {', '.join(missing)}"
            )
        object.__setattr__(self, "params", merged)


def _as_float(params: dict[str, str], key: str) -> float:
    try:
        return float(params[key])
    except ValueError as err:
        raise ConfigError(f"key {key!r}: not a number: {params[key]!r}") from err


def _as_int(params: dict[str, str], key: str) -> int:
    try:
        return int(params[key])
    except ValueError as err:
        raise ConfigError(f"key {key!r}: not an integer: {params[key]!r}") from err


def _options(params: dict[str, str]) -> SolverOptions:
    raw = params.get("newton_tol", "")
    if not raw:
        return DEFAULT_OPTIONS
    try:
        return SolverOptions(newton_tol=float(raw))
    except ValueError as err:
        raise ConfigError(f"key 'newton_tol': {err}") from err


def _out_dir(params: dict[str, str]) -> Path:
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list[str], rows) -> int:
    """RFC-4180-style CSV; floats at 17 significant digits."""
    count = 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" for x in row])
            count += 1
    return count


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def _run_yield_curve(params: dict[str, str]) -> int:
    lam_min = _as_float(params, "lambda_min")
    lam_max = _as_float(params, "lambda_max")
    points = _as_int(params, "points")
    cells = _as_int(params, "cells")
    if not (0.0 < lam_min < lam_max):
        raise ConfigError("need 0 < lambda_min < lambda_max")
    if points < 2:
        raise ConfigError("points must be >= 2")
    opts = _options(params)
    out = _out_dir(params)

    grid = np.exp(np.linspace(math.log(lam_min), math.log(lam_max), points))
    mesh = make_mesh(cells)

    theta_var = [yield_variational(lam, mesh, opts).theta_Y for lam in grid]
    theta_form = [theta_of_lambda(lam) for lam in grid]
    asym = [asymptotic_theta(lam) for lam in grid]

    rows = [
        (lam, tf, tv, 1.0 + lam, a[0], a[1])
        for lam, tf, tv, a in zip(grid, theta_form, theta_var, asym)
    ]
    csv_path = out / "yield_curve.csv"
    n_rows = _write_csv(
        csv_path,
        [
            "lambda",
            "theta_formula",
            "theta_variational",
            "theta_bound_1_plus_lambda",
            "small_asym",
            "large_asym",
        ],
        rows,
    )
    svg_path = out / "yield_curve.svg"
    svg_path.write_text(
        render_line_plot(
            [
                ("theta_Y", grid, np.array(theta_form)),
                ("1 + lambda", grid, 1.0 + grid),
            ],
            title="Renormalized yield threshold vs length-scale ratio",
            xlabel="lambda",
            ylabel="theta_Y",
            logx=True,
            dashed=("1 + lambda",),
        )
    )
    json_path = out / "yield_curve.json"
    _write_json(
        json_path,
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
    print(f"wrote {csv_path} ({n_rows} rows), {svg_path}, {json_path}")
    return 0


def _run_profile(params: dict[str, str]) -> int:
    lam = _as_float(params, "lambda")
    samples = _as_int(params, "samples")
    out = _out_dir(params)

    prof = minimizer_profile(lam, n_samples=samples)
    half = prof.phi.values[samples // 2 :]
    rows = zip(prof.r, prof.zeta, half)
    csv_path = out / "profile.csv"
    n_rows = _write_csv(csv_path, ["r", "zeta", "phi"], rows)

    nodes = prof.phi.mesh.nodes
    svg_path = out / "profile.svg"
    svg_path.write_text(
        render_line_plot(
            [("phi", nodes, prof.phi.values), ("zeta", prof.r, prof.zeta)],
            title=f"Yield-onset profile, lambda = {lam:g}",
            xlabel="r",
            ylabel="value",
            dashed=("zeta",),
        )
    )
    json_path = out / "profile.json"
    _write_json(
        json_path,
        {
            "lambda": lam,
            "theta_Y": prof.theta_Y,
            "jump_ratio": prof.jump_ratio,
            "psi_bar": relaxed_dissipation(prof.phi, lam),
        },
    )
    print(f"wrote {csv_path} ({n_rows} rows), {svg_path}, {json_path}")
    return 0


def _run_simulate(params: dict[str, str]) -> int:
    lam = _as_float(params, "lambda")
    Lambda = _as_float(params, "Lambda")
    kappa = _as_float(params, "kappa")
    theta_max = _as_float(params, "theta_max")
    steps = _as_int(params, "steps")
    cells = _as_int(params, "cells")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if theta_max <= 0.0:
        raise ConfigError("theta_max must be positive")
    opts = _options(params)
    out = _out_dir(params)

    p = NondimParams(lam=lam, Lambda=Lambda, kappa=kappa)
    load = LoadProgram(tuple(np.linspace(0.0, theta_max, steps + 1)))
    traj = evolve(load, p, make_mesh(cells), opts)

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
                stability_residual(s.gamma, s.theta, p, opts),
            )
        )
    csv_path = out / "simulate.csv"
    n_rows = _write_csv(
        csv_path,
        [
            "theta",
            "gamma_max",
            "gamma_mass",
            "dissipation_cum",
            "energy",
            "stability_residual",
        ],
        rows,
    )
    detected = detect_yield(traj, opts)
    json_path = out / "simulate.json"
    _write_json(
        json_path,
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
        },
    )
    thetas = np.array([r[0] for r in rows])
    svg_path = out / "simulate.svg"
    svg_path.write_text(
        render_line_plot(
            [
                ("max |gamma|", thetas, np.array([r[1] for r in rows])),
                ("cumulative dissipation", thetas, np.array([r[3] for r in rows])),
            ],
            title=f"Incremental evolution, lambda = {lam:g}",
            xlabel="theta",
            ylabel="response",
        )
    )
    print(f"wrote {csv_path} ({n_rows} rows), {svg_path}, {json_path}")
    return 0


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
    if kind == "zero":
        hardening = Hardening.zero()
    elif kind == "linear":
        hardening = Hardening.linear(_as_float(params, "h0"))
    elif kind == "saturating":
        hardening = Hardening.saturating(
            _as_float(params, "h0"), _as_float(params, "S_sat")
        )
    else:
        raise ConfigError(
            f"key 'hardening': expected zero, linear or saturating, got {kind!r}"
        )
    p = ViscoParams(base=base, hardening=hardening)

    tau_max = _as_float(params, "tau_max")
    t_end = _as_float(params, "t_end")
    steps = _as_int(params, "steps")
    cells = _as_int(params, "cells")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    opts = _options(params)
    out = _out_dir(params)

    times = np.linspace(0.0, t_end, steps + 1)
    load = [(t, tau_max * t / t_end) for t in times]
    states = simulate_visco(load, p, make_mesh(cells), opts)

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
    csv_path = out / "visco.csv"
    n_rows = _write_csv(
        csv_path, ["t", "tau", "gamma_max", "gamma_mass", "S_max"], rows
    )

    u = recover_displacement(states[-1], tau_max, p)
    y = base.h * u.mesh.nodes
    disp_path = out / "visco_displacement.csv"
    _write_csv(disp_path, ["y", "u"], zip(y, u.values))

    svg_path = out / "visco.svg"
    svg_path.write_text(
        render_line_plot(
            [
                ("gamma(y) final", y, states[-1].gamma.values),
                ("u(y) final", y, u.values),
            ],
            title=f"Viscoplastic run, m = {base.m_rate:g}",
            xlabel="y",
            ylabel="profile",
            dashed=("u(y) final",),
        )
    )
    json_path = out / "visco.json"
    _write_json(
        json_path,
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
    )
    print(f"wrote {csv_path} ({n_rows} rows), {disp_path}, {svg_path}, {json_path}")
    return 0


def _run_verify(params: dict[str, str]) -> int:
    raw = params.get("only", "")
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


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        return _RUNNERS[config.command](dict(config.params))
    except SolverError as err:
        print(f"solver failure in {config.command!r}: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # ConfigError and module invariant violations alike
        print(f"config error: {err}", file=sys.stderr)
        return 1


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
        key, value = key.strip(), value.strip()
        if key not in spec:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command!r}")
        params[key] = value
    return params


class _Parser(argparse.ArgumentParser):
    """Argument errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
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
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        params: dict[str, str] = {}
        if args.config is not None:
            params.update(_parse_config_file(args.config, command))
        for key in _COMMAND_SPECS[command]:
            value = getattr(args, f"key_{key}")
            if value is not None:
                params[key] = value
        return run(RunConfig(command=command, params=params))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
