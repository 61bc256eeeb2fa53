"""The golden cases: every command, report and script whose exact stdout is pinned, and how each one runs.

``test_golden_commands.py``, ``test_golden_reports.py`` and ``test_golden_scripts.py`` run these cases
under pytest, and ``scripts/golden_check.py`` runs the same cases without it, so this module imports
only the standard library and hopfcalc.  A command or report golden file's first line is ``exit <code>``;
the rest is the exact stdout.  A script golden file is the script's whole stdout.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import hopfcalc
from hopfcalc.cli import main
from hopfcalc.fixtures import fixture_names, fixture_path
from hopfcalc.forms import E8_MATRIX, H_MATRIX, zero_diagonal_model

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SPECS = os.path.join(TESTS, "golden_specs")
SRC = os.path.dirname(os.path.dirname(hopfcalc.__file__))


def fresh_python(*args, timeout=None, text=True, **env):
    """Run ``python -X dev -W error *args`` in a fresh interpreter that imports hopfcalc from ``SRC``.

    Development mode with warnings as errors: the shipped entry points must run clean under it.  ``env``
    adds environment variables, and ``timeout`` bounds the wall time in seconds.
    """
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          env=dict(os.environ, PYTHONPATH=SRC, **env), capture_output=True, text=text,
                          timeout=timeout, check=False)


def read_golden(path):
    """(``exit <code>`` line, the stdout after it) of a command or report golden file, as bytes."""
    with open(path, "rb") as fh:
        header, expected = fh.read().split(b"\n", 1)
    return header, expected


def run_main(argv):
    """(``exit <code>``, stdout) of ``hopfcalc <argv>`` run in process, as ``read_golden`` gives them; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}".encode(), out.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# the oracle, check-link, classify and selftest subcommands: one file per case in ``COMMAND_CASES``, the
# case name plus ``.out``; a ``{matrix}`` argument is a JSON file holding the named matrix of ``MATRICES``

COMMANDS_GOLDEN = os.path.join(TESTS, "golden_commands")

J = [[0, 1], [-1, 0]]
MATRICES = {
    "H": H_MATRIX.to_rows(),
    "J": J,
    "JJ": [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    "det4": [[0, 2], [2, 0]],
    "model11": zero_diagonal_model(1, 1).matrix.to_rows(),
    "E8": E8_MATRIX.to_rows(),
    "negE8": E8_MATRIX.scale(-1).to_rows(),
}

# (matrix, check-link arguments); E8 has a nonzero diagonal, so it is no decoration
LINKS = [
    ("H", ["--n", "4"]),
    ("J", ["--n", "3"]),
    ("JJ", ["--n", "5", "--k", "1"]),
    ("det4", ["--n", "4"]),
    ("model11", ["--n", "4", "--theta", "28"]),
]


def _command_cases():
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
    # a scrambled d = 40 decoration whose certified inverse is divided by an lcm of D past 64 bits
    cases["oracle.scrambled_d40.json"] = ["oracle", os.path.join(SPECS, "scrambled_d40.json"), "--format", "json"]
    cases["selftest.seed0.trials5"] = ["selftest", "--seed", "0", "--trials", "5"]
    return cases


COMMAND_CASES = _command_cases()


def command_argv(case, directory):
    """argv for one case, writing its matrix (if any) into ``directory``."""
    argv = COMMAND_CASES[case]
    if "{matrix}" not in argv:
        return list(argv)
    path = os.path.join(directory, "m.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(MATRICES[case.split(".")[1]], fh)
    return [path if a == "{matrix}" else a for a in argv]


def command_golden(case):
    return os.path.join(COMMANDS_GOLDEN, f"{case}.out")


# ---------------------------------------------------------------------------
# ``report <spec>.json --format <format> [--oracle]`` for every shipped fixture and every spec in
# ``tests/golden_specs``, one file ``<spec>.<format>[.oracle].out`` each

REPORTS_GOLDEN = os.path.join(TESTS, "golden")

REPORT_INPUTS = {name: fixture_path(name) for name in fixture_names()}
REPORT_INPUTS.update((name, os.path.join(SPECS, name)) for name in sorted(os.listdir(SPECS)))

REPORT_CASES = [
    (name, fmt, oracle)
    for name in REPORT_INPUTS
    for fmt in ("text", "json")
    for oracle in (False, True)
]


def report_argv(name, fmt, oracle):
    return ["report", REPORT_INPUTS[name], "--format", fmt] + (["--oracle"] if oracle else [])


def report_golden(name, fmt, oracle):
    return os.path.join(REPORTS_GOLDEN, f"{name[:-5]}.{fmt}{'.oracle' if oracle else ''}.out")


# ---------------------------------------------------------------------------
# ``python scripts/<script>.py`` without arguments, in development mode with warnings as errors: one file
# ``<script>.out`` each, holding the whole stdout

SCRIPTS_GOLDEN = os.path.join(TESTS, "golden_scripts")
SCRIPTS = ("homology_sweep", "signature_examples")


def run_script(script):
    """The finished ``fresh_python`` run of ``scripts/<script>.py``, its output in bytes."""
    return fresh_python(os.path.join(ROOT, "scripts", f"{script}.py"), text=False)


def script_golden(script):
    return os.path.join(SCRIPTS_GOLDEN, f"{script}.out")
