"""Byte-for-byte golden output for the ``oracle``, ``check-link``,
``classify`` and ``selftest`` subcommands.

Each file in ``tests/golden_commands`` is named after one case in
``golden_cases.COMMAND_CASES`` plus ``.out``.  Its first line is
``exit <code>``; the rest is the exact stdout of ``hopfcalc <argv>``, where a
``{matrix}`` argument is a JSON file holding the named matrix from
``golden_cases.MATRICES``.  None of these outputs contain a file path, so the
temporary location does not enter the bytes.
"""

import os

import pytest

from golden_cases import COMMAND_CASES, COMMANDS_GOLDEN, command_argv, command_golden, read_golden, run_main


def test_every_golden_file_has_a_case():
    assert {os.path.basename(command_golden(case)) for case in COMMAND_CASES} == set(os.listdir(COMMANDS_GOLDEN))


@pytest.mark.parametrize("case", sorted(COMMAND_CASES))
def test_command_matches_golden(case, tmp_path):
    assert run_main(command_argv(case, str(tmp_path))) == read_golden(command_golden(case))
