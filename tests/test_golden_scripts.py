"""Byte-for-byte golden output for the scripts in ``scripts/``.

Each file in ``tests/golden_scripts`` is named after a script, with ``.out``
for ``.py``, and holds the exact stdout of ``python scripts/<script>.py``
run without arguments, in development mode with warnings as errors.
"""

import os

import pytest

from test_cli import fresh_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_scripts")
SCRIPTS = ("homology_sweep", "signature_examples")


def test_every_golden_file_has_a_script():
    assert {f"{script}.out" for script in SCRIPTS} == set(os.listdir(GOLDEN))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_matches_golden(script):
    with open(os.path.join(GOLDEN, f"{script}.out"), "rb") as fh:
        expected = fh.read()
    proc = fresh_python(os.path.join(ROOT, "scripts", f"{script}.py"), text=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected
