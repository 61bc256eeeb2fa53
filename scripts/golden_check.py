#!/usr/bin/env python3
"""Check every golden case of ``tests/golden_cases.py`` without pytest.

Runs each command, report and script case that the ``test_golden_*.py``
tests run, and checks that every golden file has its case.  Prints one line
per mismatch and exits 1 if there is any; otherwise prints the number of
cases and exits 0.  It takes no arguments.  Run it with hopfcalc on the
path, on any supported interpreter, including one without pytest:

    PYTHONPATH=src python scripts/golden_check.py
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

from golden_cases import (  # noqa: E402  (tests/ is on the path from the line above)
    COMMAND_CASES,
    COMMANDS_GOLDEN,
    REPORT_CASES,
    REPORTS_GOLDEN,
    SCRIPTS,
    SCRIPTS_GOLDEN,
    command_argv,
    command_golden,
    read_golden,
    report_argv,
    report_golden,
    run_main,
    run_script,
    script_golden,
)


CASES = len(COMMAND_CASES) + len(REPORT_CASES) + len(SCRIPTS)


def difference(path, actual, expected):
    """A line naming the first difference of two (``exit <code>``, stdout) pairs, or None when they are equal."""
    if actual == expected:
        return None
    if actual[0] != expected[0]:
        return f"{path}: {actual[0].decode()}, expected {expected[0].decode()}"
    got, want = actual[1].splitlines(), expected[1].splitlines()
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"{path}: stdout differs at its line {line + 1}"


def compare(path, run):
    """``difference`` of ``run()`` from the golden file ``path``; None when the file is missing, as listed apart."""
    return difference(path, run(), read_golden(path)) if os.path.exists(path) else None


def mismatches():
    """One line per golden file without a case, case without a golden file, and case whose output differs."""
    found = []
    for golden, paths in ((COMMANDS_GOLDEN, [command_golden(case) for case in COMMAND_CASES]),
                          (REPORTS_GOLDEN, [report_golden(*case) for case in REPORT_CASES]),
                          (SCRIPTS_GOLDEN, [script_golden(script) for script in SCRIPTS])):
        names, on_disk = {os.path.basename(path) for path in paths}, set(os.listdir(golden))
        found += [f"{os.path.join(golden, name)}: no case reads it" for name in sorted(on_disk - names)]
        found += [f"{os.path.join(golden, name)}: missing" for name in sorted(names - on_disk)]
    with tempfile.TemporaryDirectory() as directory:
        for case in sorted(COMMAND_CASES):
            found.append(compare(command_golden(case), lambda: run_main(command_argv(case, directory))))
    for case in REPORT_CASES:
        found.append(compare(report_golden(*case), lambda: run_main(report_argv(*case))))
    for script in SCRIPTS:
        path = script_golden(script)
        if os.path.exists(path):
            proc = run_script(script)
            with open(path, "rb") as fh:
                expected = fh.read()
            found.append(difference(path, (f"exit {proc.returncode}".encode(), proc.stdout), (b"exit 0", expected)))
            if proc.stderr:
                found.append(f"{path}: stderr {proc.stderr.decode(errors='replace').splitlines()[0]!r}")
    return [line for line in found if line]


def main():
    found = mismatches()
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} golden mismatch(es) in {CASES} cases")
        return 1
    print(f"{CASES} golden cases match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
