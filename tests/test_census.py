"""Smoke test of the stress-grid census script (tools/census.py).

What is verified:
  1. Each grid runs its first run, the smallest mesh, and the summary line
     counts it: one run, its evaluations and damped_newton's exits, a
     sha256, and no raise.  The per-run line carries the same evaluations
     and its own sha256.
  2. The census puts every package module's damped_newton back when it is
     done, so later solves run the unwrapped damped_newton.
  3. A message's numbers read '#', so raises group by kind.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from stripshear import _p1, viscoplastic, yield_stress

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("grid, counted", [
    ("visco72", "unconverged_steps"),
    ("increments", "retries"),
])
def test_one_run_of_each_grid(census, capsys, grid, counted):
    assert census.main([grid, "--limit", "1", "--runs"]) == 0
    run, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert summary["grid"] == grid and summary["runs"] == 1
    assert summary["raises"] == {} and run["raise"] is None
    assert summary[counted] == run[counted] >= 0
    assert summary["evaluations"] == run["evaluations"] > 0
    exits = summary["exits"]
    assert exits.get("tol", 0) > 0
    assert set(exits) <= {"tol", "above_tol"}
    assert len(summary["sha256"]) == len(run["sha256"]) == 64
    for module in (viscoplastic, yield_stress):
        assert module.damped_newton is _p1.damped_newton


def test_messages_group_by_kind(census):
    message = "Newton did not reach tolerance 1.0e-09 in 100 iterations (measure 1.808e-07)"
    assert census.kind(message) == (
        "Newton did not reach tolerance # in # iterations (measure #)"
    )
