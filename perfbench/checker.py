"""Output checks for the hopfcalc benchmark.

Every check uses facts the workload generator knows by construction, or
products the checker multiplies out itself; none trusts a value that only
hopfcalc computed.  ``check`` returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math


def check(facts: dict, code: int | str, stdout: str, argv) -> str | None:
    expected_code = facts.get("exit", 0)
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if expected_code != 0:
        return None
    kind = facts["kind"]
    try:
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            return JSON_CHECKS[kind](facts, json.loads(stdout))
        return TEXT_CHECKS[kind](facts, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return f"output does not have the expected shape: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# integer matrix facts


def linking_reason(lk, a) -> str | None:
    """Rows of the linking matrix sum to zero and its interior block inverts a."""
    d = len(a)
    if len(lk) != d + 1 or any(len(row) != d + 1 for row in lk):
        return f"linking matrix is not {d + 1}x{d + 1}"
    if any(sum(row) != 0 for row in lk):
        return "a linking-matrix row does not sum to zero"
    interior = [row[1:] for row in lk[1:]]
    for i in range(d):
        for j in range(d):
            if sum(interior[i][t] * a[t][j] for t in range(d)) != (i == j):
                return "interior block times the decoration is not the identity"
    return None


def graph_reasons(spec: dict, doc: dict) -> str | None:
    """Linking facts for every black vertex of a graph report; ``spec`` is
    the document the benchmark wrote, not hopfcalc's echo of it."""
    decorations = {
        (g, v): vert["matrix"]
        for g, graph in enumerate(spec["graphs"])
        for v, vert in enumerate(graph["vertices"])
        if vert["color"] == "black"
    }
    if sorted((x["graph"], x["vertex"]) for x in doc["links"]) != sorted(decorations):
        return "links section does not list every black vertex"
    for link in doc["links"]:
        reason = linking_reason(link["linking_matrix"], decorations[(link["graph"], link["vertex"])])
        if reason:
            return f"graph {link['graph']} vertex {link['vertex']}: {reason}"
    return None


def oracle_reason(section: dict, components: int | None = None) -> str | None:
    if section["all_match"] is not True:
        return "oracle all_match is not true"
    if not all(c["match"] is True for c in section["checks"]):
        return "an oracle check does not match"
    if components is not None and sorted(c["component"] for c in section["checks"]) != list(range(components)):
        return f"oracle did not check components 0..{components - 1}"
    return None


def tree_chi(n: int, d: int) -> int:
    """chi(S^n) chi(F) + (-1)^n d for a one-vertex tree; its fiber F has chi 2
    for even n and 0 for odd n."""
    return 4 + d if n % 2 == 0 else -d


def first_error(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# per-kind checks


def tree_json(facts: dict, doc: dict) -> str | None:
    n, d, p, q = facts["n"], facts["d"], facts["p"], facts["q"]
    symmetric = p is not None
    link = doc["links"][0]
    expected_inertia = {"n_plus": (d + 8 * p) // 2, "n_minus": (d - 8 * p) // 2, "n_zero": 1} if symmetric else None
    return first_error(
        linking_reason(link["linking_matrix"], facts["decorations"][0]),
        doc["sigma"] != (8 * p if symmetric else 0) and f"sigma {doc['sigma']}, expected {8 * p if symmetric else 0}",
        link["classification"] != ({"p": p, "q": q} if symmetric else None)
        and f"classification {link['classification']}, expected p = {p}, q = {q}",
        doc["inertia"] != expected_inertia and f"inertia {doc['inertia']}, expected {expected_inertia}",
        (doc["kernel_dim"], doc["kernel_basis"]) != (1, [["1"] * (d + 1)])
        and "kernel is not spanned by the all-ones vector",
        doc["chi"] != tree_chi(n, d) and f"chi {doc['chi']}, expected {tree_chi(n, d)}",
        "oracle" in doc and oracle_reason(doc["oracle"], d + 1),
    )


def tree_text(facts: dict, out: str) -> str | None:
    n, d, p, q = facts["n"], facts["d"], facts["p"], facts["q"]
    sigma = 8 * p if p is not None else 0
    cls = f"(p, q) = ({p}, {q})" if p is not None else "not classified"
    wanted = [
        f"  chi = {tree_chi(n, d)}\n",
        f"sigma = {sigma}",
        "  kernel dimension = 1\n",
        f"    kernel vector: ({', '.join(['1'] * (d + 1))})\n",
        f", {cls}\n",
    ]
    missing = [w.strip() for w in wanted if w not in out]
    return f"text report lacks {missing}" if missing else None


def oracle_json(facts: dict, doc: dict) -> str | None:
    return oracle_reason(doc, facts["d"] + 1)


def fixture_json(facts: dict, doc: dict) -> str | None:
    return first_error(
        graph_reasons(facts["spec"], doc),
        facts.get("oracle") and oracle_reason(doc["oracle"]),
    )


def fixture_text(facts: dict, out: str) -> str | None:
    if not out.startswith("graph report\n"):
        return "text report has no graph report header"
    if facts["oracle"] and "  oracle: all_match = true\n" not in out:
        return "text report lacks oracle: all_match = true"
    return None


def projected_json(facts: dict, doc: dict) -> str | None:
    interiors = [[row[1:] for row in link["linking_matrix"][1:]] for link in doc["links"]]
    expected_cup = [[sum(m[i][j] for m in interiors) for j in range(len(interiors[0]))]
                    for i in range(len(interiors[0]))]
    return first_error(
        graph_reasons(facts["spec"], doc),
        doc["cup_form"]["matrix"] != expected_cup and "cup form is not the sum of the interior blocks",
        not facts["second_black"] and doc["sigma"] != 8 * facts["p"]
        and f"sigma {doc['sigma']}, expected {8 * facts['p']}",
    )


def product_chi(spec: dict) -> int:
    """chi(S^4) = 2 and chi of r copies of S^2 x S^2 is 2 + 2r; chi multiplies."""
    return math.prod(2 if f["kind"] == "S4" else 2 + 2 * f["r"] for f in spec["factors"])


def product_json(facts: dict, doc: dict) -> str | None:
    chi = product_chi(facts["spec"])
    return first_error(
        doc["chi"] != chi and f"chi {doc['chi']}, expected {chi}",
        not 1 <= doc["phi"]["lower"] <= doc["phi"]["upper"] and "phi bounds out of order",
    )


def product_text(facts: dict, out: str) -> str | None:
    chi = product_chi(facts["spec"])
    return None if f"  chi = {chi}\n" in out else f"text product report lacks chi = {chi}"


def check_link_json(facts: dict, doc: dict) -> str | None:
    admissible = facts["unimodular"]
    expected = {"size": facts["d"], "determinant": facts["det"], "unimodular": facts["unimodular"],
                "admissible": admissible, "directly_fibered": admissible and facts["n"] == 3}
    got = {key: doc[key] for key in expected}
    return None if got == expected else f"check-link reported {got}, expected {expected}"


def check_link_text(facts: dict, out: str) -> str | None:
    wanted = [f"  determinant = {facts['det']}\n", "  admissible = true\n",
              f"  directly fibered = {str(facts['n'] == 3).lower()}\n"]
    missing = [w.strip() for w in wanted if w not in out]
    return f"text link check lacks {missing}" if missing else None


def classify_json(facts: dict, doc: dict) -> str | None:
    p, q = facts["p"], facts["q"]
    expected = {"size": facts["d"], "epsilon": 1, "determinant": facts["det"], "parity": "even",
                "definiteness": facts["definiteness"], "unimodular": True,
                "classification": {"p": p, "q": q} if p is not None else None}
    got = {key: doc.get(key) for key in expected}
    return None if got == expected else f"classify reported {got}, expected {expected}"


JSON_CHECKS = {
    "tree": tree_json,
    "oracle": oracle_json,
    "fixture": fixture_json,
    "graph": fixture_json,
    "projected": projected_json,
    "product": product_json,
    "check-link": check_link_json,
    "classify": classify_json,
}
TEXT_CHECKS = {
    "tree": tree_text,
    "fixture": fixture_text,
    "product": product_text,
    "check-link": check_link_text,
}
