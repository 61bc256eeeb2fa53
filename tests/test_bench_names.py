"""The benchmark's tracer patches hopfcalc functions by name; each name must still exist."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def tracer_functions():
    """``FUNCTIONS`` of perfbench/tracer.py, read from its source without importing it."""
    with open(TRACER, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no FUNCTIONS")


def test_every_traced_name_is_callable():
    functions = tracer_functions()
    assert functions
    missing = [
        f"hopfcalc.{module}.{name}"
        for module, names in functions.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hopfcalc.{module}"), name, None))
    ]
    assert missing == []
