"""Command-line front end: artifacts, determinism, config plumbing, exits.

What is verified:
  1. Every command writes its documented artifacts with the exact CSV
     headers and JSON keys, and the numbers in them are physically sane
     (known jump ratio, detected threshold, curve bounds, strength frozen
     without hardening).
  2. CSV floats carry 17 significant digits and round-trip bit-exactly.
  3. Identical configs give byte-identical artifacts, and each command
     prints one "wrote ..." line: its CSV with the row count, any extra
     CSV, then the SVG and the JSON.
  4. key=value config files merge beneath command-line flags, and both
     over the command's defaults; dashed spellings alias underscore keys,
     as flags and as file keys, and a file that sets a key twice is a
     config error naming its line.  The argument parser is built once per process, and a parse
     leaves nothing behind for the next one.  Every stripshear command in
     the README's "Command line" block parses.
  5. Exit codes: 0 success, 1 config error, 2 solver failure, 3 verify
     FAIL; --help exits 0 through argparse.  Missing required keys are
     named; h0 and S_sat must be numbers whatever the hardening kind, and
     S_sat positive (NaN and -3 are refused; +inf is the default); steps,
     t_end, the yield-curve range and points, and verify's selection are
     checked; an --out that cannot be written (a file) is a one-line
     config error naming it.  A
     yield-curve lam outside the formula's domain, and a non-finite grid
     or load end (lambda_max, theta_max, tau_max, t_end), are config
     errors that name the bound or the key, with no numpy warning on the
     way.  A visco run whose Newton system turns non-finite (d0 = 1e-300),
     or whose hardening turns an overflowed flow rate into an infinite
     strength, is a solver failure; zero hardening keeps S through it.
     Neither run prints a numpy warning, nor does a simulate run that
     overflows (theta_max 1e300, Lambda 1e200, kappa 1e-300) on its way
     to a solver failure.
  6. SVG artifacts are standalone documents containing the plotted series;
     series with no finite point (or no positive x on a log axis) are
     refused, and a single x value is widened to a unit range.  A log x
     axis puts its ticks on decades: every decade over [0.01, 10], every
     second one over [1e-3, 1e5].
  7. Importing the CLI in a fresh interpreter loads no scipy module at
     all: the banded solves call the LAPACK numpy already loads, and scipy
     would cost start-up time and resident memory nothing else needs.
  8. Every (module, attribute) the benchmark's tracer wraps
     (perfbench/spans.py INSTRUMENTED) resolves, so a traced run cannot
     die on a name a cleanup removed; the solver settings and the
     yield_variational diagnostic the benchmark reads keep their types,
     and the settings keep the values the README states.
  9. profile writes a whole profile, the closed-form solution of its ODE,
     down to lam = 1e-7, where theta_Y - 1 is about 5e-14 and the
     integrated arc of earlier versions ended short of the samples.
"""

import csv
import importlib
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stripshear
import stripshear.cli as cli
from stripshear import SolverError
from stripshear.svg import render_line_plot


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
    # the certificate column, summarized without any wall time
    bounds = [float(r[5]) for r in rows]
    assert meta["stability"] == {
        "max_bound": max(bounds),
        "positive_bounds": sum(b > 0.0 for b in bounds),
    }
    # deterministic Newton counters of evolve, again without any wall time
    assert set(meta["newton"]) == {"evaluations", "retries"}
    assert meta["newton"]["evaluations"] > 0 and meta["newton"]["retries"] == 0

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


@pytest.mark.parametrize("lam", [3e-7, 1e-6, 3e-6])
def test_profile_at_small_lambda(tmp_path, lam):
    # the closure tolerance used to ignore theta_of_lambda's root error,
    # which r(pi/2) - 1 divides by theta_Y - 1: these exited 2
    argv = ["profile", "--lambda", str(lam), "--samples", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    meta = json.loads((tmp_path / "profile.json").read_text())
    assert meta["theta_Y"] == pytest.approx(1.0 + 0.5 * math.pi**2 * lam**2, abs=1e-15)
    assert 0.0 < meta["jump_ratio"] < 1.0
    assert abs(meta["psi_bar"] - meta["theta_Y"]) <= 1e-10


def test_profile_where_the_arc_once_fell_short(tmp_path):
    # the integrated arc ended short of the samples here and this exited 2
    argv = ["profile", "--lambda", "1e-7", "--samples", "64", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    _, rows = _read_csv(tmp_path / "profile.csv")
    r, zeta, phi = (np.array([float(x[k]) for x in rows]) for k in range(3))
    assert r[0] == 0.0 and r[-1] == 1.0 and zeta[-1] == 1.0
    assert np.all(np.diff(phi) < 0.0)
    # the even extension of the half profile has unit trapezoidal mass
    assert abs(float(np.sum(phi[1:] + phi[:-1])) * (r[1] - r[0]) - 1.0) <= 1e-14
    meta = json.loads((tmp_path / "profile.json").read_text())
    t = meta["theta_Y"]
    assert meta["jump_ratio"] == pytest.approx((t - 1.0) / t, rel=1e-15)
    assert phi[-1] / phi[0] == pytest.approx(meta["jump_ratio"], rel=1e-15)


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


def test_svg_widens_a_single_x_value():
    svg = render_line_plot([("x = 2", [2.0, 2.0], [1.0, 3.0])], "t", "x", "y")
    # the x range becomes [1.5, 2.5], with the series at its centre
    assert ">1.5</text>" in svg and ">2.5</text>" in svg
    assert '<polyline points="344.00,' in svg


@pytest.mark.parametrize(
    "x_range, labels",
    [
        ((0.01, 10.0), ["0.01", "0.1", "1", "10"]),
        ((1e-3, 1e5), ["0.001", "0.1", "10", "1000", "100000"]),
    ],
)
def test_svg_log_axis_ticks_on_decades(x_range, labels):
    svg = render_line_plot([("s", list(x_range), [0.0, 1.0])], "t", "x", "y", logx=True)
    # centred labels: the x-axis title, then one per x tick
    assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg) == ["x"] + labels


def test_svg_refuses_series_with_no_finite_point():
    series = [("nan", [math.nan, 1.0], [0.0, math.inf]), ("empty", [], [])]
    with pytest.raises(ValueError, match="no finite data to plot"):
        render_line_plot(series, "title", "x", "y")
    # on a log axis a nonpositive x is no data either
    with pytest.raises(ValueError, match="no finite data to plot"):
        render_line_plot([("x <= 0", [0.0, -1.0], [1.0, 2.0])], "t", "x", "y", logx=True)


def test_verify_single_criterion(capsys):
    assert cli.main(["verify", "--only", "11"]) == 0
    out = capsys.readouterr().out
    assert "criterion 11 [PASS]" in out
    assert "verify: PASS" in out


def test_verify_refuses_an_empty_selection(capsys):
    # separators alone select nothing: a config error, not a vacuous pass
    assert cli.main(["verify", "--only", ","]) == 1
    captured = capsys.readouterr()
    assert "no criteria selected" in captured.err
    assert "verify: PASS" not in captured.out
    assert "criterion" not in captured.out


# ---------------------------------------------------------------- determinism


def test_simulate_is_byte_deterministic(sim_dir, tmp_path):
    assert cli.main(SIM_ARGS + ["--out", str(tmp_path)]) == 0
    assert _artifact_bytes(tmp_path) == _artifact_bytes(sim_dir)


@pytest.mark.parametrize(
    "argv, files",
    [
        (["yield-curve", "--lambda-min", "0.5", "--lambda-max", "2", "--points", "3",
          "--cells", "16"],
         ["yield_curve.csv (3 rows)", "yield_curve.svg", "yield_curve.json"]),
        (["profile", "--lambda", "1", "--samples", "64"],
         ["profile.csv (33 rows)", "profile.svg", "profile.json"]),
        (["simulate", "--lambda", "1", "--theta-max", "1", "--steps", "4", "--cells", "16"],
         ["simulate.csv (5 rows)", "simulate.svg", "simulate.json"]),
        (["visco", "--tau-max", "0.5", "--steps", "2", "--cells", "8"],
         ["visco.csv (3 rows)", "visco_displacement.csv", "visco.svg", "visco.json"]),
    ],
    ids=["yield-curve", "profile", "simulate", "visco"],
)
def test_each_command_prints_one_wrote_line(tmp_path, capsys, argv, files):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    listed = ", ".join(os.path.join(tmp_path, f) for f in files)
    assert capsys.readouterr().out == f"wrote {listed}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f.split()[0] for f in files
    )


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
        "theta-max = 5.0\n"  # a dashed key, as the flags take
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

    # a dashed key is its underscore key, so writing both sets it twice
    twice = tmp_path / "twice.cfg"
    twice.write_text("theta_max = 3\nsteps = 2\ntheta-max = 4\n")
    assert cli.main(["simulate", "--config", str(twice)]) == 1
    assert f"{twice}:3: key 'theta_max' given twice" in capsys.readouterr().err


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


def test_parser_is_built_once():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["profile", "--lambda", "1", "--samples", "512"])
    second = parser.parse_args(["profile", "--lambda", "2"])
    assert (first.key_lambda, first.key_samples) == ("1", "512")
    assert (second.key_lambda, second.key_samples) == ("2", None)


def test_readme_commands_parse():
    # the README examples and the flags cannot drift apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("stripshear ")]
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # an unknown flag raises ConfigError
    assert {argv[0] for argv in commands} == set(cli._COMMAND_SPECS)


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
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def test_bench_tracer_names_resolve():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    instrumented = runpy.run_path(path)["INSTRUMENTED"]
    assert instrumented
    for module_name, attr, *_ in instrumented:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_bench_reads_solver_settings():
    # perfbench/workloads.py and spans.py read these off the package
    settings = stripshear.DEFAULT_OPTIONS
    for name in ("yield_tol", "stability_tol"):
        value = getattr(settings, name)
        assert isinstance(value, float) and value > 0.0, name
    # the one configuration, as the README states it
    assert settings.epsilon_schedule == tuple(10.0 ** (-k) for k in range(1, 12))
    assert (settings.newton_tol, settings.max_newton_iters) == (1e-9, 100)
    assert (settings.stability_tol, settings.yield_tol) == (1e-8, 1e-8)
    result = stripshear.yield_variational(1.0, stripshear.make_mesh(16))
    assert isinstance(result.diagnostics["newton_calls"], int)


# ------------------------------------------------------------------ exit codes


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


def test_config_errors_exit_one(tmp_path, capsys):
    assert cli.main(["simulate", "--lambda", "1"]) == 1
    err = capsys.readouterr().err
    assert "missing required keys for 'simulate': theta_max, steps" in err
    cases = [
        ["simulate"],  # missing required keys
        ["simulate", "--lambda", "abc", "--theta-max", "1", "--steps", "1"],
        ["simulate", "--lambda", "1", "--theta-max", "-1", "--steps", "1"],
        ["profile", "--lambda", "1", "--bogus-flag", "2"],
        ["no-such-command"],
        ["visco", "--tau-max", "1", "--steps", "2", "--hardening", "cubic"],
        # h0 is parsed whatever the kind; it used to be ignored here
        ["visco", "--tau-max", "1", "--steps", "2", "--hardening", "zero", "--h0", "abc"],
        # S_sat must be positive whatever the kind; +inf is the default
        ["visco", "--tau-max", "1.5", "--steps", "2", "--cells", "4",
         "--hardening", "linear", "--h0", "1", "--S-sat", "nan"],
        ["visco", "--tau-max", "1.5", "--steps", "2", "--cells", "4",
         "--hardening", "linear", "--h0", "1", "--S-sat", "-3"],
        # no hardening: the increment past yield would be unbounded
        ["simulate", "--lambda", "1", "--theta-max", "3", "--steps", "2",
         "--cells", "16", "--kappa", "0"],
        # the solver configuration is fixed
        ["simulate", "--lambda", "1", "--theta-max", "1", "--steps", "1",
         "--newton_tol", "1e-6"],
        ["yield-curve", "--newton-tol", "1e-6"],
        ["visco", "--tau-max", "1", "--steps", "2", "--newton_tol", "1e-6"],
        ["simulate", "--lambda", "1", "--theta-max", "1", "--steps", "0"],
        ["simulate", "--lambda", "1", "--theta-max", "1", "--steps", "2.5"],
        ["visco", "--tau-max", "1", "--steps", "0"],
        ["visco", "--tau-max", "1", "--steps", "2", "--t-end", "0"],
        ["yield-curve", "--lambda-min", "10", "--lambda-max", "1"],
        ["yield-curve", "--points", "1"],
    ]
    for argv in cases:
        out_args = argv + ["--out", str(tmp_path)] if argv[0] != "no-such-command" else argv
        assert cli.main(out_args) == 1, argv
        assert "config error" in capsys.readouterr().err
    # verify takes no --out
    assert cli.main(["verify", "--only", "1 x"]) == 1
    assert "config error: key 'only'" in capsys.readouterr().err
    # an --out that names a file: one line naming it, no traceback
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    argv = ["profile", "--lambda", "0.5", "--samples", "8", "--out", str(blocker)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write to --out {str(blocker)!r}")
    assert err.count("\n") == 1


def test_yield_curve_names_the_formula_domain(tmp_path, capsys):
    # the formula runs before the variational solve, whose banded
    # factorization would otherwise fail first at lam = 1e15
    argv = ["yield-curve", "--lambda-min", "1", "--lambda-max", "1e15",
            "--points", "2", "--cells", "8", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert repr(stripshear.yield_stress._LAM_CEILING) in err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", "--lambda", "1", "--theta-max", "inf", "--steps", "2"], "theta_max"),
        (["simulate", "--lambda", "1", "--theta-max", "nan", "--steps", "2"], "theta_max"),
        (["visco", "--tau-max", "inf", "--steps", "2"], "tau_max"),
        (["visco", "--tau-max", "1", "--t-end", "inf", "--steps", "2"], "t_end"),
        (["yield-curve", "--lambda-max", "inf", "--points", "2"], "lambda_max"),
    ],
)
def test_non_finite_ends_are_refused_by_key(tmp_path, capsys, argv, key):
    # refused before numpy builds the lam grid or the load, so no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--cells", "8", "--out", str(tmp_path)])
    assert code == 1
    assert f"key {key!r}: must be finite" in capsys.readouterr().err
    assert not caught


@pytest.mark.parametrize(
    "extreme",
    [
        ["--theta-max", "1e300"],
        ["--theta-max", "3", "--Lambda", "1e200"],
        ["--theta-max", "3", "--kappa", "1e-300"],
    ],
)
def test_simulate_at_extreme_inputs_prints_no_numpy_warning(tmp_path, capsys, extreme):
    # overflow inside the march: the solves or the certificate refuse it,
    # and no RuntimeWarning (an error under the suite's filter) gets out
    argv = ["simulate", "--lambda", "1", "--steps", "2", "--cells", "4", *extreme]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    def explode(load, p, mesh):
        raise SolverError("synthetic breakdown", residual=1.0, step=3)

    monkeypatch.setattr(cli, "evolve", explode)
    code = cli.main(SIM_ARGS + ["--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "synthetic breakdown" in err


def test_non_finite_newton_system_exits_two(tmp_path, capsys):
    # d0 = 1e-300 overflows the power-law mobility: the solves refuse the
    # non-finite system, the continuation ladder runs, and its failure is a
    # solver failure, not a config error
    argv = ["visco", "--tau-max", "1", "--steps", "2", "--cells", "4", "--d0", "1e-300"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "try halving dt" in err


def test_overflowed_flow_rate(tmp_path, capsys):
    # at tau = 1e300 the nodal flow rate overflows to inf
    argv = ["visco", "--tau-max", "1e300", "--steps", "2", "--cells", "4"]
    zero = cli.main(argv + ["--out", str(tmp_path / "zero")])
    linear = cli.main(
        argv + ["--hardening", "linear", "--h0", "1", "--out", str(tmp_path / "lin")]
    )
    # zero hardening keeps S bit for bit (0 * inf would be nan)
    assert zero == 0
    _, rows = _read_csv(tmp_path / "zero" / "visco.csv")
    assert all(float(r[4]) == 1.0 for r in rows)
    # a hardening law makes the strength infinite: a solver failure
    assert linear == 2
    assert "non-finite gamma or strength" in capsys.readouterr().err


def test_verify_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda only=None: False)
    assert cli.main(["verify"]) == 3
    assert "verify: FAIL" in capsys.readouterr().out
