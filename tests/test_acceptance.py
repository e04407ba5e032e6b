"""Acceptance gate: every numbered criterion must hold at its stated tolerance.

Each criterion is an independent end-to-end check run through the public
API (closed-form identities, cross-method agreement, solver certificates,
the rate-independent limit).  One test per criterion; the one-line
PASS/FAIL verdict with its measured detail is printed so it appears in
the test log (run with -s or check captured output on failure).
"""

import re

import pytest

from stripshear.acceptance import CRITERIA, run_all


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    fn, label = CRITERIA[number]
    passed, detail = fn()
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} [{verdict}] {label}: {detail}")
    assert passed, f"criterion {number:02d} ({label}): {detail}"


def test_run_all_rejects_unknown_numbers():
    with pytest.raises(ValueError, match="unknown criteria"):
        run_all(only=[1, 99])


def test_run_all_reports_through_stream():
    lines = []
    assert run_all(only=[11], stream=lines.append) is True
    assert len(lines) == 1 and lines[0].startswith("criterion 11 [PASS]")


def test_run_all_times_every_criterion():
    lines = []
    assert run_all(only=[2, 11], stream=lines.append) is True
    assert len(lines) == 2
    assert all(re.search(r"\[\d+\.\d{2} s\]$", line) for line in lines)
