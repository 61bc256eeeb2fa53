"""Command-line front end.

Parses JSON spec files describing decorated graphs (or product factor
lists), runs the invariant pipeline, and emits deterministic text or JSON
reports.  Exit codes: 0 report produced; 1 invalid input (``SpecFileError``,
raised with a locus at the boundary, usage errors included); 2 hopfcalc at
fault (``AlgorithmMismatchError``, an oracle or self-check mismatch that
must never be silently absorbed, or any other ``ValueError`` that escapes
the pipeline after the input was accepted).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Collection, Sequence
from functools import cache
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii

from .exactlinalg import AlgorithmMismatchError, DimensionError, Frozen, IntMatrix
from .forms import (
    BilinearForm,
    ClassificationError,
    classified_form_type,
    classify_indefinite,
    form_type,
)
from .graphmodel import (
    DecoratedGraph,
    Edge,
    GraphValidationError,
    UnsupportedShapeError,
    Vertex,
    black_vertices,
)
from .hopflink import (
    FiberDescriptor,
    HopfLinkSpec,
    admissibility_check,
    check_dimensions,
    derived_linking_matrix,
    presentation_oracle,
)
from .invariants import (
    ProductFactor,
    invariant_report,
    product_phi_bound,
)


class SpecFileError(ValueError):
    """Invalid spec file; carries a field locus in the message."""


# ---------------------------------------------------------------------------
# spec files


class SpecFile(Frozen):
    """A validated spec; its graphs hold (n, k) (``graphmodel.family_dimensions``)."""

    __slots__ = ("assume_cobounding", "graphs", "factors", "data", "source")
    _fields = __slots__[:4]  # equality ignores the source

    def __init__(self, assume_cobounding: bool, graphs: tuple[DecoratedGraph, ...], factors: tuple[ProductFactor, ...],
                 data: dict, source: str = "<data>") -> None:
        object.__setattr__(self, "assume_cobounding", assume_cobounding)
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "factors", factors)
        # the validated input document, theta and assume_cobounding filled in, kept as the caller gave it
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "source", source)  # the file name each locus leads with

    def __repr__(self) -> str:  # without the data
        return (f"SpecFile(assume_cobounding={self.assume_cobounding!r}, graphs={self.graphs!r}, "
                f"factors={self.factors!r}, source={self.source!r})")


def _int_or_error(text: str) -> object:
    """An integer literal, or the error of one past the interpreter's digit limit."""
    try:
        return int(text)
    except ValueError as exc:
        return exc


def _load_json(path: str, parse: Callable[[object], object], parse_int: Callable[[str], object] | None = None) -> object:
    """``parse`` of the decoded file; every input error is raised with its locus.

    Only when an integer past the interpreter's digit limit fails the decode is
    the file decoded again, each such integer kept as its error for ``parse`` to
    reject at its field; the common path pays for no per-integer hook.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=parse_int)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: arrays or objects nested too deeply to decode") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        _load_json(path, parse, _int_or_error)
        raise SpecFileError(f"{path}: {exc}") from exc
    return parse(data)


def _expect_keys(obj: object, required: Sequence[str], locus: str, optional: Collection[str] = ()) -> None:
    """``obj`` must be an object of listed fields; the first missing ``required`` one is named."""
    if not isinstance(obj, dict):
        raise SpecFileError(f"{locus}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SpecFileError(f"{locus}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise SpecFileError(f"{locus}: missing field {key!r}")


def _expect_int(value: object, locus: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        detail = value if isinstance(value, ValueError) else f"expected an integer, got {value!r}"
        raise SpecFileError(f"{locus}: {detail}")
    return value


def _parse_matrix(value: object, locus: str) -> IntMatrix:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise SpecFileError(f"{locus}: expected a nonempty array of arrays of integers")
    try:
        return IntMatrix.from_rows(value)  # checks every entry; the locus is formatted only on failure
    except (TypeError, DimensionError):
        for i, r in enumerate(value):
            for j, x in enumerate(r):
                _expect_int(x, f"{locus}[{i}][{j}]")
        raise SpecFileError(f"{locus}: ragged rows") from None


def _check_dimensions(n: int, k: int, theta: int, prefix: str) -> None:
    """``hopflink.check_dimensions``, with ``prefix`` leading the field it names."""
    try:
        check_dimensions(n, k, theta)
    except ValueError as exc:
        raise SpecFileError(f"{prefix}{exc}") from exc


def _printable(value: int, locus: str) -> int:
    """``value``, which a command prints; a number too long to print is the input's fault."""
    try:
        str(value)
    except ValueError as exc:
        raise SpecFileError(f"{locus}: {exc}") from None
    return value


def _parse_link(value: object, n: int, k: int, theta: int, locus: str) -> HopfLinkSpec:
    """Link decorated by the matrix ``value``; n, k and theta passed ``_check_dimensions``."""
    matrix = _parse_matrix(value, locus)
    try:
        link = HopfLinkSpec(BilinearForm(matrix, (-1) ** n), n=n, k=k, theta=theta)
    except ValueError as exc:
        raise SpecFileError(f"{locus}: {exc}") from exc
    _printable(link.form.det(), f"{locus}: determinant")
    # the admissibility note prints theta * d + 1 components
    _printable(theta * link.d + 1, f"{locus}: theta: component count theta * {link.d} + 1")
    return link


def _parse_fiber(value: object, locus: str) -> FiberDescriptor:
    _expect_keys(value, ("betti", "boundary_components"), locus)
    betti = value["betti"]
    if not isinstance(betti, list) or not betti:
        raise SpecFileError(f"{locus}.betti: expected a nonempty array of integers")
    betti_ints = tuple(_expect_int(b, f"{locus}.betti[{i}]") for i, b in enumerate(betti))
    bc = _expect_int(value["boundary_components"], f"{locus}.boundary_components")
    try:
        return FiberDescriptor(betti_ints, bc)
    except ValueError as exc:
        raise SpecFileError(f"{locus}: {exc}") from exc


def _parse_vertex(value: object, n: int, k: int, theta: int, locus: str, fibers: dict[str, FiberDescriptor]) -> Vertex:
    """A black vertex is its link, a white vertex its fiber, parsed once per ``repr`` of its document (``fibers``)."""
    if not isinstance(value, dict):
        raise SpecFileError(f"{locus}: expected an object")
    color = value.get("color")
    if color == "black":
        _expect_keys(value, ("color", "matrix"), locus)
        link = _parse_link(value["matrix"], n, k, theta, f"{locus}.matrix")
        det = link.form.det()
        if det not in (1, -1):
            raise SpecFileError(f"{locus}.matrix: determinant {det}, decoration must be unimodular")
        return link
    if color == "white":
        if (key := repr(value)) not in fibers:  # repr, unlike ==, tells 1, 1.0 and True apart
            _expect_keys(value, ("color", "fiber"), locus)
            fibers[key] = _parse_fiber(value["fiber"], f"{locus}.fiber")
        return fibers[key]
    raise SpecFileError(f"{locus}.color: expected 'black' or 'white', got {color!r}")


def _parse_edge(value: object, locus: str) -> Edge:
    _expect_keys(value, ("u", "v", "u_comp", "v_comp"), locus, optional=("twist",))
    twist = value.get("twist")
    if "twist" in value and not isinstance(twist, str):
        raise SpecFileError(f"{locus}.twist: expected a string, got {twist!r}")
    return Edge(
        u=_expect_int(value["u"], f"{locus}.u"),
        v=_expect_int(value["v"], f"{locus}.v"),
        u_comp=_expect_int(value["u_comp"], f"{locus}.u_comp"),
        v_comp=_expect_int(value["v_comp"], f"{locus}.v_comp"),
        twist=twist,
    )


def _parse_factor(value: object, locus: str) -> ProductFactor:
    if not isinstance(value, dict):
        raise SpecFileError(f"{locus}: expected an object")
    kind = value.get("kind")
    if kind == "S4":
        _expect_keys(value, ("kind",), locus)
        return ProductFactor("S4")
    if kind == "connsum":
        _expect_keys(value, ("kind", "r"), locus)
        r = _expect_int(value["r"], f"{locus}.r")
        try:
            return ProductFactor("connsum", r)
        except ValueError as exc:
            raise SpecFileError(f"{locus}: {exc}") from exc
    raise SpecFileError(f"{locus}.kind: expected 'S4' or 'connsum', got {kind!r}")


def parse_spec_data(data: object, source: str = "<data>") -> SpecFile:
    """Validate a decoded spec document, which the spec keeps uncopied; raises SpecFileError with a locus."""
    allowed = {"n", "k", "theta", "assume_cobounding", "graphs", "factors"}
    _expect_keys(data, (), source, optional=allowed)

    has_graphs = "graphs" in data
    has_factors = "factors" in data
    if has_graphs == has_factors:
        raise SpecFileError(f"{source}: exactly one of 'graphs' or 'factors' is required")

    if has_factors:
        factors_raw = data["factors"]
        if not isinstance(factors_raw, list) or not factors_raw:
            raise SpecFileError(f"{source}.factors: expected a nonempty array")
        for key in ("n", "k", "theta", "assume_cobounding"):
            if key in data:
                raise SpecFileError(f"{source}.{key}: not used with 'factors'")
        factors = tuple(_parse_factor(f, f"{source}.factors[{i}]") for i, f in enumerate(factors_raw))
        return SpecFile(False, (), factors, data, source)

    _expect_keys(data, ("n", "k"), source, optional=allowed)
    n = _expect_int(data["n"], f"{source}.n")
    k = _expect_int(data["k"], f"{source}.k")
    theta = _expect_int(data.get("theta", 1), f"{source}.theta")
    cobound = data.get("assume_cobounding", False)
    if not isinstance(cobound, bool):
        raise SpecFileError(f"{source}.assume_cobounding: expected a boolean")
    _check_dimensions(n, k, theta, f"{source}.")

    graphs_raw = data["graphs"]
    if not isinstance(graphs_raw, list) or not graphs_raw:
        raise SpecFileError(f"{source}.graphs: expected a nonempty array")
    graphs = []
    for g_idx, graw in enumerate(graphs_raw):
        locus = f"{source}.graphs[{g_idx}]"
        _expect_keys(graw, ("vertices", "edges"), locus)
        vraw, eraw = graw["vertices"], graw["edges"]
        if not isinstance(vraw, list) or not vraw:
            raise SpecFileError(f"{locus}.vertices: expected a nonempty array")
        if not isinstance(eraw, list):
            raise SpecFileError(f"{locus}.edges: expected an array")
        fibers: dict[str, FiberDescriptor] = {}  # the graph's white vertices parsed so far
        vertices = tuple(_parse_vertex(v, n, k, theta, f"{locus}.vertices[{i}]", fibers) for i, v in enumerate(vraw))
        edges = tuple(_parse_edge(e, f"{locus}.edges[{i}]") for i, e in enumerate(eraw))
        try:
            graphs.append(DecoratedGraph(vertices, edges))
        except GraphValidationError as exc:
            raise SpecFileError(f"{locus}.{exc}") from exc
    echo = {**data, "theta": theta, "assume_cobounding": cobound}
    return SpecFile(cobound, tuple(graphs), (), echo, source)


def parse_spec(path: str) -> SpecFile:
    """Parse and fully validate a spec file; the spec keeps the document it decoded, uncopied."""
    return _load_json(path, lambda data: parse_spec_data(data, path))


# ---------------------------------------------------------------------------
# report assembly


def _admissibility_fields(link: HopfLinkSpec) -> dict:
    adm = admissibility_check(link)
    return {
        "size": link.d,
        "determinant": adm.determinant,
        "unimodular": adm.unimodular,
        "skew_rank_even": adm.skew_rank_even,
        "admissible": adm.admissible,
        "directly_fibered": adm.directly_fibered,
        "notes": list(adm.notes),
    }


def _printable_rows(m: IntMatrix, locus: str) -> list[list[int]]:
    """The rows of ``m``, which a report prints, once its largest entry is printable (``_printable``)."""
    _printable(max(map(abs, m.entries), default=0), locus)
    return m.to_rows()


def _link_section(spec: SpecFile) -> list[dict]:
    out = []
    for g_idx, graph in enumerate(spec.graphs):
        for v_idx, link in black_vertices(graph):
            locus = f"{spec.source}.graphs[{g_idx}].vertices[{v_idx}].matrix: linking matrix"
            linking_matrix = _printable_rows(link.linking_matrix, locus)
            klass = classified_form_type(link.form)
            classification: dict | None = (
                {"p": klass.p, "q": klass.q} if klass.p is not None else None
            )
            out.append(
                {
                    "graph": g_idx,
                    "vertex": v_idx,
                    **_admissibility_fields(link),
                    "parity": klass.parity,
                    "definiteness": klass.definiteness,
                    "classification": classification,
                    "linking_matrix": linking_matrix,
                }
            )
    return out


def _oracle_section(spec: SpecFile) -> dict:
    checks = []
    for g_idx, graph in enumerate(spec.graphs):
        for v_idx, link in black_vertices(graph):
            # "Z": with |det A| = 1 each component's filling presentation is infinite cyclic
            for s, match in enumerate(presentation_oracle(link.form, link.linking_matrix)):
                checks.append({"graph": g_idx, "vertex": v_idx, "component": s, "group": "Z", "match": match})
    return {"checks": checks, "all_match": all(check["match"] for check in checks)}


def _require_match(section: dict) -> None:
    if not section["all_match"]:
        raise AlgorithmMismatchError("presentation oracle disagrees with the derived linking matrix")


def build_report(spec: SpecFile, oracle: bool = False) -> dict:
    """Assemble the full report document for a parsed spec."""
    if spec.factors:
        bound = product_phi_bound(list(spec.factors))
        return {
            "kind": "product",
            "spec": spec.data,
            "chi": bound.euler,
            "phi": {"lower": bound.lower, "upper": bound.upper},
            "notes": list(bound.notes),
        }

    report = invariant_report(list(spec.graphs), spec.assume_cobounding)
    cup, analysis = report.cup_form, report.analysis
    doc: dict[str, object] = {
        "kind": "graphs",
        "spec": spec.data,
        "graphs": [{"index": g_idx, "m": c.m, "s_black": c.s_black, "g": c.g, "t": c.t}
                   for g_idx, c in enumerate(graph.counts for graph in spec.graphs)],
        "links": _link_section(spec),
        "cup_form": {"epsilon": cup.epsilon, "matrix": _printable_rows(cup.matrix, f"{spec.source}: cup form")},
        "chi": report.chi,
        "sigma": analysis.sigma,
        "inertia": None if (ine := analysis.inertia) is None
        else {"n_plus": ine.n_plus, "n_minus": ine.n_minus, "n_zero": ine.n_zero},
        "kernel_dim": analysis.kernel_dim,
        "kernel_basis": [[str(x) for x in vec] for vec in analysis.kernel_basis],
        "homology_ranks": None
        if report.homology_ranks is None
        else {str(i): r for i, r in sorted(report.homology_ranks.items())},
        "phi": None if report.phi is None else {"lower": report.phi.lower, "upper": report.phi.upper},
        "notes": [*report.notes, *(report.phi.notes if report.phi else ())],
        "verdicts": list(report.verdicts),
    }
    if oracle:
        doc["oracle"] = _oracle_section(spec)
    return doc


def _render_text(doc: dict) -> str:
    lines: list[str] = []
    push = lines.append
    if doc["kind"] == "product":
        push("product report")
        spec = doc["spec"]
        for i, f in enumerate(spec["factors"]):
            desc = "S^4" if f["kind"] == "S4" else f"connected sum of {f['r']} copies of S^2 x S^2"
            push(f"  factor {i}: {desc}")
        push(f"  chi = {doc['chi']}")
        push(f"  critical points over S^3: between {doc['phi']['lower']} and {doc['phi']['upper']}")
        for note in doc["notes"]:
            push(f"  note: {note}")
        return "\n".join(lines) + "\n"

    spec = doc["spec"]
    push("graph report")
    push(
        f"  n = {spec['n']}, k = {spec['k']}, theta = {spec['theta']}, "
        f"assume_cobounding = {str(spec['assume_cobounding']).lower()}"
    )
    for g in doc["graphs"]:
        push(
            f"  graph {g['index']}: edges m = {g['m']}, black vertices s = {g['s_black']}, "
            f"loops g = {g['g']}, handles t = {g['t']}"
        )
    for link in doc["links"]:
        c = link["classification"]
        cls = f"(p, q) = ({c['p']}, {c['q']})" if c else "not classified"
        push(
            f"  link at graph {link['graph']} vertex {link['vertex']}: size {link['size']}, "
            f"det {link['determinant']}, {link['parity']}, {link['definiteness']}, "
            f"admissible = {str(link['admissible']).lower()}, "
            f"directly fibered = {str(link['directly_fibered']).lower()}, {cls}"
        )
        for note in link["notes"]:
            push(f"    note: {note}")
    push("  cup form (edge basis):")
    for row in doc["cup_form"]["matrix"]:
        push(f"    [{', '.join(map(str, row))}]")
    push(f"  chi = {doc['chi']}")
    if doc["inertia"] is not None:
        ine = doc["inertia"]
        push(
            f"  inertia = ({ine['n_plus']}, {ine['n_minus']}, {ine['n_zero']}), sigma = {doc['sigma']}"
        )
    else:
        push(f"  sigma = {doc['sigma']} (skew convention)")
    push(f"  kernel dimension = {doc['kernel_dim']}")
    for vec in doc["kernel_basis"]:
        push(f"    kernel vector: ({', '.join(vec)})")
    if doc["homology_ranks"] is not None:
        ranks = ", ".join(f"b_{i} = {r}" for i, r in sorted(doc["homology_ranks"].items(), key=lambda kv: int(kv[0])) if r)
        push(f"  homology ranks: {ranks}")
    if doc["phi"] is not None:
        push(f"  critical points over S^{spec['n'] - spec['k']}: between {doc['phi']['lower']} and {doc['phi']['upper']}")
    for note in doc["notes"]:
        push(f"  note: {note}")
    for verdict in doc["verdicts"]:
        push(f"  verdict: {verdict}")
    if "oracle" in doc:
        push(f"  oracle: all_match = {str(doc['oracle']['all_match']).lower()}")
        lines.extend(_oracle_lines(doc["oracle"]["checks"], "    "))
    return "\n".join(lines) + "\n"


def _oracle_lines(checks: list[dict], indent: str) -> list[str]:
    return [
        f"{indent}graph {chk['graph']} vertex {chk['vertex']} component {chk['component']}: "
        f"group {chk['group']}, match = {str(chk['match']).lower()}"
        for chk in checks
    ]


# the scalars a report holds, each as ``json.dumps`` writes it
_SCALAR_JSON: dict[type, Callable[[object], str]] = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value: object, indent: str = "") -> str:
    """``value`` byte for byte as ``json.dumps(value, sort_keys=True, indent=2)`` writes it at ``indent``.

    That call runs the pure-Python encoder.  Here a scalar is formatted
    inline, a list of scalars of one type is one C-level ``map`` and join, and
    a list of lists of ``int`` reads each entry off a table of the reprs of its
    distinct entries.  An item equal to the one before it, by ``==`` and then
    by ``repr``, which tells 1, 1.0 and True apart, is written once.
    """
    scalar = _SCALAR_JSON.get(type(value))
    if scalar:
        return scalar(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {fmt(v) if (fmt := _SCALAR_JSON.get(type(v))) else _json(v, inner)}"
            for key, v in sorted(value.items())
        ]
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}" if items else "{}"
    if not isinstance(value, list) or not value:
        return json.dumps(value)
    kinds = set(map(type, value))
    if len(kinds) == 1 and (fmt := _SCALAR_JSON.get(*kinds)):
        items = map(fmt, value)
    elif kinds == {list} and {int}.issuperset(map(type, chain.from_iterable(value))):
        reprs, start = {x: int.__repr__(x) for x in set(chain.from_iterable(value))}, f"\n{inner}  "
        items = [f"[{start}{(',' + start).join(map(reprs.get, row))}\n{inner}]" if row else "[]" for row in value]
    else:
        items = [_json(value[0], inner)]
        for last, x in pairwise(value):
            items.append(items[-1] if x == last and repr(x) == repr(last) else _json(x, inner))
    return f"[\n{inner}{sep.join(items)}\n{indent}]"


def _render(doc: dict, fmt: str, render_text: Callable[[dict], str] = _render_text) -> str:
    """The one output step: ``doc`` as sorted, indented JSON or as text."""
    if fmt == "json":
        return _json(doc) + "\n"
    if fmt == "text":
        return render_text(doc)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_report(args) -> int:
    spec = parse_spec(args.spec)
    try:
        doc = build_report(spec, oracle=args.oracle)
    except UnsupportedShapeError as exc:
        raise SpecFileError(f"{args.spec}: {exc}") from exc
    sys.stdout.write(_render(doc, args.format))
    if "oracle" in doc:
        _require_match(doc["oracle"])
    return 0


def _check_link_text(doc: dict) -> str:
    return (
        f"link check: size {doc['size']}, n = {doc['n']}, k = {doc['k']}\n"
        f"  determinant = {doc['determinant']}\n"
        f"  admissible = {str(doc['admissible']).lower()}\n"
        f"  directly fibered = {str(doc['directly_fibered']).lower()}\n"
        + "".join(f"  note: {note}\n" for note in doc["notes"])
    )


def _cmd_check_link(args) -> int:
    _check_dimensions(args.n, args.k, args.theta, "--")
    link = _load_json(args.matrix, lambda value: _parse_link(value, args.n, args.k, args.theta, args.matrix))
    doc = {"n": args.n, "k": args.k, **_admissibility_fields(link)}
    sys.stdout.write(_render(doc, args.format, _check_link_text))
    return 0


def _classify_text(doc: dict) -> str:
    lines = [
        f"form: size {doc['size']}, epsilon {doc['epsilon']}, det {doc['determinant']}",
        f"  parity = {doc['parity']}, definiteness = {doc['definiteness']}, "
        f"unimodular = {str(doc['unimodular']).lower()}",
    ]
    if doc["classification"]:
        c = doc["classification"]
        lines.append(f"  classification: (p, q) = ({c['p']}, {c['q']})")
    else:
        lines.append(f"  classification: not applicable ({doc['classification_note']})")
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    matrix = _load_json(args.matrix, lambda value: _parse_matrix(value, args.matrix))
    if matrix.is_symmetric():
        eps = 1
    elif matrix.is_skew_symmetric():
        eps = -1
    else:
        raise SpecFileError(f"{args.matrix}: matrix is neither symmetric nor skew-symmetric")
    form = BilinearForm(matrix, eps)
    det = _printable(form.det(), f"{args.matrix}: determinant")
    klass = form_type(form)
    doc: dict[str, object] = {
        "size": form.dim,
        "epsilon": eps,
        "determinant": det,
        "parity": klass.parity,
        "definiteness": klass.definiteness,
        "unimodular": klass.unimodular,
    }
    try:
        p, q = classify_indefinite(form)
        doc["classification"] = {"p": p, "q": q}
    except ClassificationError as exc:
        doc["classification"] = None
        doc["classification_note"] = str(exc)
    sys.stdout.write(_render(doc, args.format, _classify_text))
    return 0


def _oracle_text(section: dict) -> str:
    lines = _oracle_lines(section["checks"], "")
    lines.append(f"all_match = {str(section['all_match']).lower()}")
    return "\n".join(lines) + "\n"


def _no_links_text(section: dict) -> str:
    return "oracle: no links to check in a product spec\n"


def _cmd_oracle(args) -> int:
    spec = parse_spec(args.spec)
    section = _oracle_section(spec)
    sys.stdout.write(_render(section, args.format, _oracle_text if spec.graphs else _no_links_text))
    _require_match(section)
    return 0


def _selftest(seed: int, trials: int) -> list[str]:
    import random

    from . import sampling
    from .exactlinalg import Congruence, inertia_charpoly, inertia_ldlt, nullspace_rational
    from .invariants import analyze_cup_form, assemble_cup_form

    rng = random.Random(seed)

    def row_sums() -> bool:
        lk = derived_linking_matrix(sampling.random_zero_diagonal_form(rng, rng.choice([1, -1])))
        return all(sum(lk.row(i)) == 0 for i in range(lk.rows))

    def dual_inertia() -> bool:
        m = sampling.random_symmetric(rng, rng.randint(1, 8), bound=6)
        return inertia_ldlt(m) == inertia_charpoly(m)

    def all_ones_kernel() -> bool:
        basis = nullspace_rational(derived_linking_matrix(sampling.random_zero_diagonal_form(rng, rng.choice([1, -1]))))
        return len(basis) == 1 and all(x == basis[0][0] for x in basis[0])

    def structural_cup_form() -> bool:  # Sylvester's law on the arcs of a tree, against the congruence of Q
        graphs = [sampling.random_tree(rng, rng.choice([1, -1]), rng.randint(1, 4))]
        form = assemble_cup_form(graphs)
        analysis, reference = analyze_cup_form(form, graphs), Congruence(form.matrix, form.epsilon)
        expected = (reference.inertia if form.epsilon == 1 else None, reference.kernel)
        return (analysis.inertia, analysis.kernel_basis) == expected

    lines = []
    for check, label in (
        (row_sums, "row-sum identity on {} random forms"),
        (dual_inertia, "dual inertia agreement on {} random symmetric matrices"),
        (all_ones_kernel, "all-ones kernel on {} derived matrices"),
        (structural_cup_form, "structural cup-form inertia and kernel on {} random trees"),
    ):
        ok = all([check() for _ in range(trials)])  # every trial runs, so each group draws the same numbers
        lines.append(f"{label.format(trials)}: {'pass' if ok else 'FAIL'}")
    failures = sum(line.endswith("FAIL") for line in lines)
    if failures:
        raise AlgorithmMismatchError(f"{failures} selftest group(s) failed")
    return lines


def _cmd_selftest(args) -> int:
    for line in _selftest(args.seed, args.trials):
        sys.stdout.write(line + "\n")
    return 0


def _trial_count(text: str) -> int:
    """``--trials`` is at least 1: zero trials would check nothing and still report a pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"at least 1 trial required, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors are spec errors, not internal ones
        raise SpecFileError(message)


@cache  # built once per process: argparse setup costs about as much as a small report
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopfcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full invariant report for a spec file")
    p_report.add_argument("spec")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.add_argument("--oracle", action="store_true", help="include oracle cross-checks")
    p_report.set_defaults(func=_cmd_report)

    p_check = sub.add_parser("check-link", help="admissibility report for one decoration matrix")
    p_check.add_argument("--matrix", required=True)
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--k", type=int, default=0)
    p_check.add_argument("--theta", type=int, default=1)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_check_link)

    p_classify = sub.add_parser("classify", help="classify a bilinear form")
    p_classify.add_argument("--matrix", required=True)
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.set_defaults(func=_cmd_classify)

    p_oracle = sub.add_parser("oracle", help="presentation-oracle cross-checks for a spec file")
    p_oracle.add_argument("spec")
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_self = sub.add_parser("selftest", help="randomized property checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--trials", type=_trial_count, default=25)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SpecFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AlgorithmMismatchError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return 2
    except ValueError as exc:  # the input was accepted, so whatever escaped the pipeline is hopfcalc's fault
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
