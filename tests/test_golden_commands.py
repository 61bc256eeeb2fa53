"""Byte-for-byte golden output for the ``oracle``, ``check-link``,
``classify`` and ``selftest`` subcommands.

Each file in ``tests/golden_commands`` is named after one case in ``CASES``
plus ``.out``.  Its first line is ``exit <code>``; the rest is the exact
stdout of ``hopfcalc <argv>``, where a ``{matrix}`` argument is a JSON file
holding the named matrix from ``MATRICES``.  None of these outputs contain
a file path, so the temporary location does not enter the bytes.
"""

import json
import os

import pytest

from hopfcalc.forms import E8_MATRIX, H_MATRIX, zero_diagonal_model
from hopfcalc.cli import main
from hopfcalc.fixtures import fixture_names, fixture_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_commands")

J = [[0, 1], [-1, 0]]
MATRICES = {
    "H": H_MATRIX.to_rows(),
    "J": J,
    "JJ": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "det4": [[0, 2], [2, 0]],
    "model11": zero_diagonal_model(1, 1).matrix.to_rows(),
    "E8": E8_MATRIX.to_rows(),
}

# (matrix, check-link arguments); E8 has a nonzero diagonal, so it is no decoration
LINKS = [
    ("H", ["--n", "4"]),
    ("J", ["--n", "3"]),
    ("JJ", ["--n", "5", "--k", "1"]),
    ("det4", ["--n", "4"]),
    ("model11", ["--n", "4", "--theta", "28"]),
]


def _cases():
    cases = {}
    for name in fixture_names():
        for fmt in ("text", "json"):
            # oracle JSON on a product spec has its own test in test_cli.py
            if (name, fmt) != ("products.json", "json"):
                cases[f"oracle.{name[:-5]}.{fmt}"] = ["oracle", fixture_path(name), "--format", fmt]
    for fmt in ("text", "json"):
        for matrix, extra in LINKS:
            cases[f"check-link.{matrix}.{fmt}"] = (
                ["check-link", "--matrix", "{matrix}"] + extra + ["--format", fmt]
            )
        for matrix in MATRICES:
            cases[f"classify.{matrix}.{fmt}"] = ["classify", "--matrix", "{matrix}", "--format", fmt]
    cases["selftest.seed0.trials5"] = ["selftest", "--seed", "0", "--trials", "5"]
    return cases


CASES = _cases()


def case_argv(case, directory):
    """argv for one case, writing its matrix (if any) into ``directory``."""
    argv = CASES[case]
    if "{matrix}" not in argv:
        return list(argv)
    path = os.path.join(directory, "m.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(MATRICES[case.split(".")[1]], fh)
    return [path if a == "{matrix}" else a for a in argv]


def test_every_golden_file_has_a_case():
    assert {f"{case}.out" for case in CASES} == set(os.listdir(GOLDEN))


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_matches_golden(case, tmp_path, capsys):
    with open(os.path.join(GOLDEN, f"{case}.out"), "rb") as fh:
        header, expected = fh.read().split(b"\n", 1)
    code = main(case_argv(case, str(tmp_path)))
    assert f"exit {code}".encode() == header
    assert capsys.readouterr().out.encode("utf-8") == expected
