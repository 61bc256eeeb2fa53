"""Byte-for-byte golden reports for every shipped fixture.

Each file in ``tests/golden`` is named ``<fixture>.<format>[.oracle].out``.
Its first line is ``exit <code>``; the rest is the exact stdout of
``hopfcalc report src/hopfcalc/fixtures/<fixture>.json --format <format>
[--oracle]``.  Any change to a report's bytes or exit code fails here.
"""

import os

import pytest

from hopfcalc.cli import main
from hopfcalc.fixtures import fixture_names, fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    (name, fmt, oracle)
    for name in fixture_names()
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
    argv = ["report", fixture_path(name), "--format", fmt] + (["--oracle"] if oracle else [])
    code = main(argv)
    assert f"exit {code}".encode() == header
    assert capsys.readouterr().out.encode("utf-8") == expected
