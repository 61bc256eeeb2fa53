"""Byte-for-byte golden output for the scripts in ``scripts/``.

Each file in ``tests/golden_scripts`` is named after a script, with ``.out``
for ``.py``, and holds the exact stdout of ``python scripts/<script>.py``
run without arguments, in development mode with warnings as errors.  The
last test runs ``scripts/golden_check.py``, which checks every golden case
without pytest, the same way.
"""

import os

import pytest

from golden_cases import (
    COMMAND_CASES, REPORT_CASES, ROOT, SCRIPTS, SCRIPTS_GOLDEN, fresh_python, run_script, script_golden,
)


def test_every_golden_file_has_a_script():
    assert {os.path.basename(script_golden(script)) for script in SCRIPTS} == set(os.listdir(SCRIPTS_GOLDEN))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_matches_golden(script):
    with open(script_golden(script), "rb") as fh:
        expected = fh.read()
    proc = run_script(script)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_golden_check_passes():
    # the stdlib-only runner of every golden case, for interpreters without pytest; it must pass wherever these do
    proc = fresh_python(os.path.join(ROOT, "scripts", "golden_check.py"), timeout=120)
    cases = len(COMMAND_CASES) + len(REPORT_CASES) + len(SCRIPTS)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{cases} golden cases match\n", "")
