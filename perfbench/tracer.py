"""Per-layer spans for the hopfcalc benchmark, recorded from outside the code.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` by a
wrapper in every ``hopfcalc`` module namespace that binds the same object,
since modules import these functions by name.  A wrapper records a span:
name, start, end, parent span and request id.  Spans stay in memory until
``write`` is called at the end of a run.

Fingerprints and bit lengths are computed in ``end_request``, after the
request has returned, so that their cost falls outside every span.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "cli": ("main", "parse_spec", "build_report"),
    "graphmodel": ("validate_graph", "graph_counts"),
    "hopflink": ("derived_linking_matrix", "presentation_oracle", "admissibility_check"),
    "forms": ("classified_form_type", "form_type", "classify_indefinite"),
    "invariants": ("invariant_report", "assemble_cup_form", "assemble_cup_form_k",
                   "analyze_cup_form", "euler_characteristic", "phi_bounds"),
    "exactlinalg": ("smith_normal_form", "inverse_unimodular", "det_bareiss", "inertia",
                    "inertia_ldlt", "inertia_charpoly", "charpoly", "nullspace_rational"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs)


def _decoration(link):
    """derived_linking_matrix takes a link spec or its form; both name one input."""
    return getattr(link, "form", link)


# Input keys for the distinct_ratio of functions that can repeat work.
FINGERPRINTS = {
    "graphmodel.validate_graph": lambda args: args[0],
    "hopflink.derived_linking_matrix": lambda args: _decoration(args[0]),
    "invariants.assemble_cup_form": lambda args: tuple(args[0]),
    "exactlinalg.inertia": lambda args: args[0],
    "exactlinalg.charpoly": lambda args: args[0],
    "exactlinalg.smith_normal_form": lambda args: args[0],
}


def _bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


# Largest entry of the result, in bits.
MAX_BITS = {
    "exactlinalg.smith_normal_form": lambda r: max(_bits(r.u.entries), _bits(r.v.entries)),
    "exactlinalg.charpoly": _bits,
}

NAME, START, END, PARENT, REQUEST, ERROR, ABORTED, ARGS, RESULT = range(9)


def _duration(span) -> float:
    # END stays 0.0 when the deadline struck before the span's try block
    return span[END] - span[START] if span[END] else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.first_span = 0
        self.patched: list[tuple[object, str, object]] = []
        self.raised: list[BaseException] = []
        self.completed = 0
        self.attempted = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.max_bits: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.aborted: dict[str, int] = defaultdict(int)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "hopfcalc" or name.startswith("hopfcalc.")]
        for mod_name, funcs in FUNCTIONS.items():
            home = sys.modules[f"hopfcalc.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keep_args = name in FINGERPRINTS
        keep_result = name in MAX_BITS

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, False,
                    args if keep_args else None, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = time.perf_counter()
                if not any(e is exc for e in self.raised):  # count an error once, where it arose
                    self.raised.append(exc)
                    span[ERROR] = type(exc).__name__
                raise
            finally:
                if not span[END]:
                    span[END] = time.perf_counter()
                stack.pop()
            if keep_result:
                span[RESULT] = result
            return result

        traced.__wrapped__ = fn
        return traced

    # -- requests -----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.first_span = len(self.spans)

    def abort_innermost(self) -> None:
        """Mark the innermost open span: the deadline struck inside it."""
        if self.stack:
            self.spans[self.stack[-1]][ABORTED] = True

    def end_request(self, completed: bool) -> None:
        """Fold this request's spans into the per-request statistics.

        Calls and fingerprints count completed requests only, so they repeat
        exactly; times count every attempted request, aborted work included.
        """
        spans = self.spans[self.first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] >= self.first_span:
                child_time[span[PARENT]] += _duration(span)
        keys: dict[str, set] = defaultdict(set)
        for idx, span in enumerate(spans, self.first_span):
            name = span[NAME]
            module = name.split(".")[0]
            duration = _duration(span)
            self.total[name] += duration
            self.self_time[name] += duration - child_time[idx]
            self.errors[module] += span[ERROR] is not None
            self.aborted[module] += span[ABORTED]
            if completed:
                self.calls[name] += 1
                if span[ARGS] is not None:
                    key = repr(FINGERPRINTS[name](span[ARGS]))
                    keys[name].add(hashlib.blake2b(key.encode(), digest_size=16).digest())
            if span[RESULT] is not None:
                self.max_bits[name] = max(self.max_bits[name], MAX_BITS[name](span[RESULT]))
            span[ARGS] = span[RESULT] = None
        for name, seen in keys.items():
            self.distinct[name] += len(seen)
        self.attempted += 1
        self.completed += completed
        self.stack.clear()
        self.raised.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        done, tried = max(self.completed, 1), max(self.attempted, 1)
        out: dict[str, dict] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / done, "unit": "calls/req"}
            out[f"{name}.total_s"] = {"value": self.total[name] / tried, "unit": "s/req"}
            out[f"{name}.self_s"] = {"value": self.self_time[name] / tried, "unit": "s/req"}
        for name in FINGERPRINTS:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = {"value": self.distinct[name] / calls if calls else 0.0,
                                             "unit": "ratio"}
        for name in MAX_BITS:
            out[f"{name}.max_bits"] = {"value": self.max_bits[name], "unit": "bits"}
        for module in FUNCTIONS:
            out[f"{module}.errors"] = {"value": self.errors[module] / tried, "unit": "errors/req"}
            out[f"{module}.aborted"] = {"value": self.aborted[module] / tried, "unit": "spans/req"}
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, request, error, aborted."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:ABORTED + 1]) + "\n")
