"""Byte-for-byte golden output for the scripts in ``scripts/``.

Each file in ``tests/golden_scripts`` is named after a script, with ``.out``
for ``.py``, and holds the exact stdout of ``python scripts/<script>.py``
run without arguments.
"""

import os
import subprocess
import sys

import pytest

import hopfcalc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_scripts")
SCRIPTS = ("homology_sweep", "signature_examples")


def test_every_golden_file_has_a_script():
    assert {f"{script}.out" for script in SCRIPTS} == set(os.listdir(GOLDEN))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_matches_golden(script):
    with open(os.path.join(GOLDEN, f"{script}.out"), "rb") as fh:
        expected = fh.read()
    src = os.path.dirname(os.path.dirname(hopfcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", f"{script}.py")],
                          env=env, capture_output=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected
