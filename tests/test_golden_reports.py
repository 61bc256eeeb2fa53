"""Byte-for-byte golden reports for every shipped fixture and every spec in ``tests/golden_specs``.

Each file in ``tests/golden`` is named ``<spec>.<format>[.oracle].out``.
Its first line is ``exit <code>``; the rest is the exact stdout of
``hopfcalc report <spec>.json --format <format> [--oracle]``, where the spec
is a shipped fixture or a file of ``tests/golden_specs``.  Those specs cover
fiber shapes that no fixture has: a projected pair of black vertices, a
cylinder looping back to its black vertex, and two trees joined by a
cylinder.  They stay out of the shipped fixtures, which the benchmark's
corpus reads.  Any change to a report's bytes or exit code fails here.
The cases are ``golden_cases.REPORT_CASES``.
"""

import os

import pytest

from golden_cases import REPORT_CASES, REPORTS_GOLDEN, read_golden, report_argv, report_golden, run_main


def test_every_golden_file_has_a_case():
    assert {os.path.basename(report_golden(*case)) for case in REPORT_CASES} == set(os.listdir(REPORTS_GOLDEN))


@pytest.mark.parametrize("name,fmt,oracle", REPORT_CASES)
def test_report_matches_golden(name, fmt, oracle):
    assert run_main(report_argv(name, fmt, oracle)) == read_golden(report_golden(name, fmt, oracle))
