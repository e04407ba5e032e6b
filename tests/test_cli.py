"""Command-line front end: artifacts, determinism, config plumbing, exits.

What is verified:
  1. Every command writes its documented artifacts with the exact CSV
     headers and JSON keys, and the numbers in them are physically sane
     (known jump ratio, detected threshold, curve bounds, strength frozen
     without hardening).
  2. CSV floats carry 17 significant digits and round-trip bit-exactly.
  3. Identical configs give byte-identical artifacts.
  4. key=value config files merge beneath command-line flags; dashed flag
     spellings alias underscore keys.
  5. Exit codes: 0 success, 1 config error, 2 solver failure, 3 verify
     FAIL; --help exits 0 through argparse.
  6. SVG artifacts are standalone documents containing the plotted series.
  7. Importing the CLI in a fresh interpreter loads no scipy subpackage
     beyond scipy.linalg: optimize, integrate and special cost start-up
     time and resident memory that nothing in the package needs.
"""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stripshear.cli as cli
from stripshear import SolverError


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _artifact_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


SIM_ARGS = [
    "simulate",
    "--lambda",
    "1.179812",
    "--theta-max",
    "2.4",
    "--steps",
    "60",
    "--cells",
    "128",
]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(SIM_ARGS + ["--out", str(out)]) == 0
    return out


# ------------------------------------------------------------------- artifacts


def test_simulate_artifacts(sim_dir):
    header, rows = _read_csv(sim_dir / "simulate.csv")
    assert header == [
        "theta",
        "gamma_max",
        "gamma_mass",
        "dissipation_cum",
        "energy",
        "stability_residual",
    ]
    assert len(rows) == 61

    # 17 significant digits round-trip the load grid bit-exactly
    thetas = np.array([float(r[0]) for r in rows])
    assert np.array_equal(thetas, np.linspace(0.0, 2.4, 61))
    assert all(float(r[5]) <= 1e-8 for r in rows)

    meta = json.loads((sim_dir / "simulate.json").read_text())
    assert meta["lambda"] == 1.179812
    assert meta["Lambda"] == 1.0 and meta["kappa"] == 1.0
    assert meta["cells"] == 128
    det = meta["detected_yield"]
    assert det["flow_observed"] is True
    assert abs(det["theta"] - 2.0) <= det["uncertainty"] + 1e-6

    svg = (sim_dir / "simulate.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg and "max |gamma|" in svg


def test_profile_artifacts(tmp_path):
    # lambda chosen so theta_Y = sqrt(2); the wall jump ratio is 1 - 1/sqrt(2)
    assert (
        cli.main(
            [
                "profile",
                "--lambda",
                "0.567740",
                "--samples",
                "4096",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    header, rows = _read_csv(tmp_path / "profile.csv")
    assert header == ["r", "zeta", "phi"]
    assert len(rows) == 2049
    r = np.array([float(x[0]) for x in rows])
    phi = np.array([float(x[2]) for x in rows])
    assert r[0] == 0.0 and r[-1] == 1.0
    assert np.all(np.diff(phi) <= 0.0)

    meta = json.loads((tmp_path / "profile.json").read_text())
    assert abs(meta["jump_ratio"] - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-5
    assert abs(meta["theta_Y"] - math.sqrt(2.0)) <= 1e-5
    assert abs(meta["psi_bar"] - meta["theta_Y"]) <= 1e-5
    assert "<svg" in (tmp_path / "profile.svg").read_text()


def test_profile_at_large_lambda(tmp_path):
    # theta_of_lambda's bracket used to invert itself past lam ~ 1.0046e4
    argv = ["profile", "--lambda", "1e4", "--samples", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    meta = json.loads((tmp_path / "profile.json").read_text())
    assert 1.0e4 < meta["theta_Y"] < 1.0e4 + 1.0


def test_yield_curve_artifacts(tmp_path):
    code = cli.main(
        [
            "yield-curve",
            "--lambda-min",
            "0.2",
            "--lambda-max",
            "5",
            "--points",
            "6",
            "--cells",
            "128",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = _read_csv(tmp_path / "yield_curve.csv")
    assert header == [
        "lambda",
        "theta_formula",
        "theta_variational",
        "theta_bound_1_plus_lambda",
        "small_asym",
        "large_asym",
    ]
    assert len(rows) == 6
    for row in rows:
        lam, tf, tv, bound = (float(x) for x in row[:4])
        assert 1.0 < tf < bound == 1.0 + lam
        assert abs(tv - tf) / tf <= 1e-3

    meta = json.loads((tmp_path / "yield_curve.json").read_text())
    assert meta["bounds_ok"] is True
    assert meta["points"] == 6 and meta["cells"] == 128
    assert meta["max_rel_formula_vs_variational"] <= 1e-3
    svg = (tmp_path / "yield_curve.svg").read_text()
    assert "<svg" in svg and "theta_Y" in svg and "1 + lambda" in svg


def test_visco_artifacts(tmp_path):
    code = cli.main(
        [
            "visco",
            "--tau-max",
            "1.5",
            "--t-end",
            "1",
            "--steps",
            "20",
            "--cells",
            "64",
            "--m-rate",
            "0.1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, rows = _read_csv(tmp_path / "visco.csv")
    assert header == ["t", "tau", "gamma_max", "gamma_mass", "S_max"]
    assert len(rows) == 21
    assert all(float(r[4]) == 1.0 for r in rows)  # zero hardening: S frozen

    dh, drows = _read_csv(tmp_path / "visco_displacement.csv")
    assert dh == ["y", "u"]
    assert len(drows) == 65
    assert float(drows[0][1]) == 0.0  # clamped bottom face

    meta = json.loads((tmp_path / "visco.json").read_text())
    assert meta["hardening"] == "zero" and meta["m_rate"] == 0.1
    assert meta["final_S_max"] == 1.0
    assert meta["final_u_top"] == float(drows[-1][1])
    # u_top = elastic tilt 2 h tau / G plus the plastic mass
    assert abs(meta["final_u_top"] - (3.0 + meta["final_gamma_mass"])) <= 1e-12
    assert "<svg" in (tmp_path / "visco.svg").read_text()


def test_verify_single_criterion(capsys):
    assert cli.main(["verify", "--only", "11"]) == 0
    out = capsys.readouterr().out
    assert "criterion 11 [PASS]" in out
    assert "verify: PASS" in out


# ---------------------------------------------------------------- determinism


def test_simulate_is_byte_deterministic(sim_dir, tmp_path):
    assert cli.main(SIM_ARGS + ["--out", str(tmp_path)]) == 0
    assert _artifact_bytes(tmp_path) == _artifact_bytes(sim_dir)


def test_yield_curve_is_byte_deterministic(tmp_path):
    args = [
        "yield-curve",
        "--lambda-min",
        "0.5",
        "--lambda-max",
        "2",
        "--points",
        "4",
        "--cells",
        "64",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert _artifact_bytes(a) == _artifact_bytes(b)


# -------------------------------------------------------------- config merging


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sheared strip, sub-threshold ramp\n"
        "lambda = 1.179812\n"
        "theta_max = 5.0\n"
        "steps = 3\n"
        "cells = 16\n"
        f"out = {tmp_path}\n"
    )
    # the flag beats the file: theta_max 0.9, not 5.0
    code = cli.main(["simulate", "--config", str(cfg), "--theta-max", "0.9"])
    assert code == 0
    _, rows = _read_csv(tmp_path / "simulate.csv")
    assert len(rows) == 4
    assert float(rows[-1][0]) == 0.9
    det = json.loads((tmp_path / "simulate.json").read_text())["detected_yield"]
    assert det["flow_observed"] is False


def test_config_file_errors(tmp_path, capsys):
    missing = cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 1
    assert "cannot read config file" in capsys.readouterr().err

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("lambda = 1\nvolume = 3\n")
    assert cli.main(["simulate", "--config", str(bad_key)]) == 1
    assert "unknown key 'volume'" in capsys.readouterr().err

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("lambda 1\n")
    assert cli.main(["simulate", "--config", str(bad_line)]) == 1
    assert "expected key=value" in capsys.readouterr().err


def test_dashed_and_underscored_flags_agree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["profile", "--lambda", "1", "--samples", "512"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0  # sanity: deterministic
    assert _artifact_bytes(a) == _artifact_bytes(b)
    c = tmp_path / "c"
    args = ["visco", "--tau_max", "0.5", "--steps", "2", "--cells", "8"]
    dashed = ["visco", "--tau-max", "0.5", "--steps", "2", "--cells", "8"]
    assert cli.main(args + ["--out", str(c)]) == 0
    d = tmp_path / "d"
    assert cli.main(dashed + ["--out", str(d)]) == 0
    assert _artifact_bytes(c) == _artifact_bytes(d)


# ---------------------------------------------------------------- import scope


def test_cli_import_loads_no_heavy_scipy_subpackage():
    import stripshear

    root = os.path.dirname(os.path.dirname(os.path.abspath(stripshear.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import stripshear.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code, root], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "stripshear.cli" in loaded
    for name in ("scipy.optimize", "scipy.integrate", "scipy.special"):
        assert name not in loaded, name


# ------------------------------------------------------------------ exit codes


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


def test_config_errors_exit_one(tmp_path, capsys):
    cases = [
        ["simulate"],  # missing required keys
        ["simulate", "--lambda", "abc", "--theta-max", "1", "--steps", "1"],
        ["simulate", "--lambda", "1", "--theta-max", "-1", "--steps", "1"],
        ["profile", "--lambda", "1", "--bogus-flag", "2"],
        ["no-such-command"],
        ["visco", "--tau-max", "1", "--steps", "2", "--hardening", "cubic"],
        # no hardening: the increment past yield would be unbounded
        ["simulate", "--lambda", "1", "--theta-max", "3", "--steps", "2",
         "--cells", "16", "--kappa", "0"],
    ]
    for argv in cases:
        out_args = argv + ["--out", str(tmp_path)] if argv[0] != "no-such-command" else argv
        assert cli.main(out_args) == 1, argv
        assert "config error" in capsys.readouterr().err


def test_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    def explode(load, p, mesh, opts):
        raise SolverError("synthetic breakdown", residual=1.0, step=3)

    monkeypatch.setattr(cli, "evolve", explode)
    code = cli.main(SIM_ARGS + ["--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "synthetic breakdown" in err


def test_verify_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda only=None: False)
    assert cli.main(["verify"]) == 3
    assert "verify: FAIL" in capsys.readouterr().out


def test_run_config_validation():
    with pytest.raises(cli.ConfigError, match="unknown command"):
        cli.RunConfig(command="melt", params={})
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.RunConfig(command="profile", params={"volume": "1"})
    with pytest.raises(cli.ConfigError, match="missing required"):
        cli.RunConfig(command="simulate", params={"lambda": "1"})
