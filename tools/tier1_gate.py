"""Run the Tier-1 suite in process: ``python tools/tier1_gate.py``.

Exits 1 on a failure or error other than acceptance criteria 5 and 6, an
XPASS, an xfail not listed here, or a criterion that starts passing.
"""

import os
import sys
from pathlib import Path

import pytest

FAILING = {"tests/test_acceptance.py::test_criterion_5_convergence_and_correctness",
           "tests/test_acceptance.py::test_criterion_6_campaign_statistics"}
XFAILING = {"tests/test_registration.py::test_detect_escapes_the_quarter_turn_trap",
            "tests/test_registration.py::test_detect_sampled_does_not_misanswer_a_winding_on_a_cut_mask"}


class Outcomes:
    def __init__(self):
        self.failed, self.xfailed = set(), set()

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.failed or hasattr(report, "wasxfail"):
            (self.xfailed if report.skipped else self.failed).add(report.nodeid)


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parents[1])
    outcomes = Outcomes()
    code = pytest.main(["-q", "--continue-on-collection-errors"], plugins=[outcomes])
    unexpected = sorted((outcomes.failed ^ FAILING) | (outcomes.xfailed ^ XFAILING))
    for nodeid in unexpected:
        print(f"tier1_gate: outcome differs from the known list: {nodeid}")
    sys.exit(1 if unexpected or code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else 0)
