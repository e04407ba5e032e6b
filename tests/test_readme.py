"""The README's Python examples run as written and print what they state.

What is verified:
  1. The two python blocks of README.md run in one namespace (the second
     uses the first's numpy import), and the values their comments state
     hold: theta_of_lambda(1.179812) is 2.0000138 to 1e-7, the simulated
     sweep detects yield at theta = 2.0 with flow observed, the profile at
     lam = 0.567740 has theta_Y = sqrt(2) and jump ratio 1 - 1/sqrt(2) to
     1e-5, and every viscoplastic state is finite.
"""

import math
import re
from pathlib import Path

import numpy as np

from stripshear import theta_of_lambda

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    capsys.readouterr()  # the block prints its three results

    assert "# 2.0000138... closed form" in blocks[0]
    assert abs(theta_of_lambda(namespace["p"].lam) - 2.0000138) <= 1e-7
    assert "# DetectedYield(theta=2.0, ...)" in blocks[0]
    detected = namespace["detect_yield"](namespace["traj"])
    assert detected.theta == 2.0 and detected.flow_observed
    assert "# sqrt(2), 1 - 1/sqrt(2)" in blocks[0]
    prof = namespace["prof"]
    assert abs(prof.theta_Y - math.sqrt(2.0)) <= 1e-5
    assert abs(prof.jump_ratio - (1.0 - 1.0 / math.sqrt(2.0))) <= 1e-5

    exec(compile(blocks[1], str(README), "exec"), namespace)
    states = namespace["states"]
    assert len(states) == 201
    for state in states:
        assert np.isfinite(state.gamma.values).all()
        assert np.isfinite(state.S.values).all()
