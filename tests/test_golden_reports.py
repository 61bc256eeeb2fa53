"""Byte-for-byte golden reports for every shipped fixture and every spec in ``tests/golden_specs``.

Each file in ``tests/golden`` is named ``<spec>.<format>[.oracle].out``.
Its first line is ``exit <code>``; the rest is the exact stdout of
``hopfcalc report <spec>.json --format <format> [--oracle]``, where the spec
is a shipped fixture or a file of ``tests/golden_specs``.  Those specs cover
fiber shapes that no fixture has: a projected pair of black vertices, a
cylinder looping back to its black vertex, and two trees joined by a
cylinder.  They stay out of the shipped fixtures, which the benchmark's
corpus reads.  Any change to a report's bytes or exit code fails here.
"""

import os

import pytest

from hopfcalc.cli import main
from hopfcalc.fixtures import fixture_names, fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SPECS = os.path.join(os.path.dirname(__file__), "golden_specs")

INPUTS = {name: fixture_path(name) for name in fixture_names()}
INPUTS.update((name, os.path.join(SPECS, name)) for name in sorted(os.listdir(SPECS)))

CASES = [
    (name, fmt, oracle)
    for name in INPUTS
    for fmt in ("text", "json")
    for oracle in (False, True)
]


def test_every_golden_file_has_a_case():
    names = {f"{name[:-5]}.{fmt}{'.oracle' if oracle else ''}.out" for name, fmt, oracle in CASES}
    assert names == set(os.listdir(GOLDEN))


@pytest.mark.parametrize("name,fmt,oracle", CASES)
def test_report_matches_golden(name, fmt, oracle, capsys):
    path = os.path.join(GOLDEN, f"{name[:-5]}.{fmt}{'.oracle' if oracle else ''}.out")
    with open(path, "rb") as fh:
        header, expected = fh.read().split(b"\n", 1)
    argv = ["report", INPUTS[name], "--format", fmt] + (["--oracle"] if oracle else [])
    code = main(argv)
    assert f"exit {code}".encode() == header
    assert capsys.readouterr().out.encode("utf-8") == expected
