"""Seeded request generator for the hopfcalc benchmark.

Imports nothing from hopfcalc: the E8 and H constants, the zero-diagonal
change of basis and the random congruence are written out here, so a change
to ``hopfcalc.forms`` or ``hopfcalc.sampling`` cannot change a workload.
hopfcalc only ever sees the spec and matrix files written by this module.

Every request carries the facts its checker needs, all known by
construction: the (p, q) of the decoration, its determinant, the expected
exit code, and so on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sym-d40", "oracle-d24", "corpus-small")

E8 = (
    (2, 1, 0, 0, 0, 0, 0, 0),
    (1, 2, 1, 0, 0, 0, 0, 0),
    (0, 1, 2, 1, 0, 0, 0, 0),
    (0, 0, 1, 2, 1, 0, 0, 0),
    (0, 0, 0, 1, 2, 1, 0, 1),
    (0, 0, 0, 0, 1, 2, 1, 0),
    (0, 0, 0, 0, 0, 1, 2, 0),
    (0, 0, 0, 0, 1, 0, 0, 2),
)
H = ((0, 1), (1, 0))
J = ((0, 1), (-1, 0))

# Random congruence steps per matrix row.  More steps give larger entries
# and slower requests; this value sets the sym-d40 and oracle-d24 cost.
SCRAMBLE_STEPS_PER_ROW = 6


@dataclass(frozen=True)
class Request:
    """One CLI call: argv (with file names relative to the spec directory),
    the files to write first, and the facts its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    files: dict[str, str]
    facts: dict


def block_sum(blocks) -> list[list[int]]:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def model(p: int, q: int) -> list[list[int]]:
    """Zero-diagonal matrix congruent to |p| copies of sign(p) E8 plus q H.

    Every E8 basis vector e becomes e + f1 - s f2, with (f1, f2) the first
    hyperbolic plane and s = sign(p), which makes its square 0.
    """
    assert q >= 1
    e8 = [[x if p > 0 else -x for x in row] for row in E8]
    a = block_sum([e8] * abs(p) + [H] * q)
    f1, f2 = 8 * abs(p), 8 * abs(p) + 1
    s = 1 if p > 0 else -1
    size = len(a)
    change = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(8 * abs(p)):
        change[i][f1] += 1
        change[i][f2] -= s
    return congruence(change, a)


def congruence(m: list[list[int]], a: list[list[int]]) -> list[list[int]]:
    """M A M^T."""
    ma = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in m]
    return [[sum(x * y for x, y in zip(row, other)) for other in m] for row in ma]


def scramble(rng: random.Random, a: list[list[int]], eps: int) -> list[list[int]]:
    """Random unimodular congruence that keeps the diagonal zero.

    Swaps and sign flips always keep it; a shear i += c j keeps it exactly
    when a[i][j] == 0 for symmetric forms, and always for skew ones.
    """
    a = [list(row) for row in a]
    n = len(a)
    for _ in range(SCRAMBLE_STEPS_PER_ROW * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        op = rng.randrange(3)
        if op == 0:
            a[i], a[j] = a[j], a[i]
            for row in a:
                row[i], row[j] = row[j], row[i]
        elif op == 1:
            a[i] = [-x for x in a[i]]
            for row in a:
                row[i] = -row[i]
        elif eps == -1 or a[i][j] == 0:
            c = rng.choice((-1, 1))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += c * row[j]
    return a


def skew_model(blocks: int) -> list[list[int]]:
    return block_sum([J] * blocks)


# ---------------------------------------------------------------------------
# spec documents


def disk(dim: int) -> dict:
    return {"betti": [1] + [0] * dim, "boundary_components": 1}


def tree_spec(n: int, a: list[list[int]], rng: random.Random) -> dict:
    """One black vertex capped by d + 1 white disks, components in random order."""
    d = len(a)
    comps = list(range(d + 1))
    rng.shuffle(comps)
    vertices = [{"color": "black", "matrix": a}]
    vertices += [{"color": "white", "fiber": disk(n)} for _ in range(d + 1)]
    edges = [{"u": 0, "v": i + 1, "u_comp": c, "v_comp": 0} for i, c in enumerate(comps)]
    return {"n": n, "k": 0, "theta": 1, "assume_cobounding": True,
            "graphs": [{"vertices": vertices, "edges": edges}]}


def pair_spec(n: int, a: list[list[int]], b: list[list[int]], rng: random.Random) -> dict:
    """Two black vertices joined by one edge per component pair."""
    d = len(a)
    perm = list(range(d + 1))
    rng.shuffle(perm)
    edges = [{"u": 0, "v": 1, "u_comp": i, "v_comp": perm[i]} for i in range(d + 1)]
    return {"n": n, "k": 0, "theta": 1, "assume_cobounding": True,
            "graphs": [{"vertices": [{"color": "black", "matrix": a},
                                     {"color": "black", "matrix": b}], "edges": edges}]}


def projected_spec(n: int, k: int, a: list[list[int]], second) -> dict:
    """Projected black vertex joined to a second black vertex (a matrix) or to
    the white projection filler (None)."""
    d = len(a)
    if second is None:
        other = {"color": "white",
                 "fiber": {"betti": [1 if i == 0 else d if i == k else 0 for i in range(n + k + 1)],
                           "boundary_components": 1}}
    else:
        other = {"color": "black", "matrix": second}
    return {"n": n, "k": k, "theta": 1, "assume_cobounding": True,
            "graphs": [{"vertices": [{"color": "black", "matrix": a}, other],
                        "edges": [{"u": 0, "v": 1, "u_comp": 0, "v_comp": 0}]}]}


def dump(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# workloads


def tree_request(name: str, rng: random.Random, argv_tail: tuple[str, ...], n: int,
                 p: int, q: int) -> Request:
    a = scramble(rng, model(p, q), 1)
    facts = {"kind": "tree", "n": n, "d": len(a), "p": p, "q": q, "decorations": [a]}
    return Request(name, (argv_tail[0], "spec.json") + argv_tail[1:],
                   {"spec.json": dump(tree_spec(n, a, rng))}, facts)


def sym_d40(seed: int, index: int) -> Request:
    rng = random.Random(f"sym-d40:{seed}:{index}")
    return tree_request(f"sym-d40/{index}", rng, ("report", "--format", "json"), 4, 4, 4)


def oracle_d24(seed: int, index: int) -> Request:
    rng = random.Random(f"oracle-d24:{seed}:{index}")
    req = tree_request(f"oracle-d24/{index}", rng, ("oracle", "--format", "json"), 4, 2, 4)
    return Request(req.name, req.argv, req.files, dict(req.facts, kind="oracle"))


INVALID_DOCUMENTS = {
    "syntax": "{\"n\": 4,\n",
    "top-level-array": "[]\n",
    "unknown-field": dump({"n": 4, "k": 0, "graphs": [], "colour": 1}),
    "k-too-large": dump(tree_spec(4, model(0, 1), random.Random(0)) | {"k": 3}),
    "not-symmetric": dump(tree_spec(4, [[0, 1], [2, 0]], random.Random(0))),
    "nonzero-diagonal": dump(tree_spec(4, [[2, 1], [1, 0]], random.Random(0))),
    "not-unimodular": dump(tree_spec(4, [[0, 2], [2, 0]], random.Random(0))),
    "odd-skew-degree": dump(tree_spec(3, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], random.Random(0))),
    "dangling-edge": dump({"n": 4, "k": 0, "graphs": [{"vertices": [{"color": "black", "matrix": [[0, 1], [1, 0]]}],
                                                         "edges": [{"u": 0, "v": 5, "u_comp": 0, "v_comp": 0}]}]}),
}


def corpus_small(seed: int, fixtures: dict[str, str]) -> list[Request]:
    """One cycle of the small-request mix, in a seeded order.

    ``fixtures`` maps each shipped fixture name to its bytes; the fixtures
    are the only inputs not generated here, and their facts are the ones
    every graph report satisfies.
    """
    rng = random.Random(f"corpus-small:{seed}")
    out: list[Request] = []

    for fname, text in sorted(fixtures.items()):
        spec = json.loads(text)
        facts = {"kind": "product" if "factors" in spec else "fixture", "spec": spec}
        for fmt in ("text", "json"):
            for oracle in ((), ("--oracle",)):
                argv = ("report", "spec.json", "--format", fmt) + oracle
                out.append(Request(f"fixture/{fname}/{fmt}{''.join(oracle)}", argv,
                                   {"spec.json": text}, dict(facts, oracle=bool(oracle))))

    for i, (p, q) in enumerate([(0, 1), (0, 2), (0, 3), (0, 5), (1, 1), (-1, 1)]):
        for fmt in ("text", "json"):
            out.append(tree_request(f"tree-sym/{i}/{fmt}", rng, ("report", "--format", fmt), 4, p, q))
    for i, (n, blocks) in enumerate([(3, 1), (3, 2), (5, 3), (3, 5)]):
        a = scramble(rng, skew_model(blocks), -1)
        facts = {"kind": "tree", "n": n, "d": len(a), "p": None, "q": None, "decorations": [a]}
        out.append(Request(f"tree-skew/{i}", ("report", "spec.json", "--format", "json", "--oracle"),
                           {"spec.json": dump(tree_spec(n, a, rng))}, facts))

    for i, (n, blocks) in enumerate([(3, 1), (3, 2), (5, 1)]):
        spec = pair_spec(n, scramble(rng, skew_model(blocks), -1), scramble(rng, skew_model(blocks), -1), rng)
        out.append(Request(f"pair/{i}", ("report", "spec.json", "--format", "json"),
                           {"spec.json": dump(spec)}, {"kind": "graph", "spec": spec}))
    for i, (n, k, p, q, second) in enumerate([(4, 1, 1, 1, False), (4, 2, 0, 3, False),
                                              (4, 1, 0, 2, True), (6, 2, 1, 1, True)]):
        a = scramble(rng, model(p, q), 1)
        b = scramble(rng, model(p, q), 1) if second else None
        spec = projected_spec(n, k, a, b)
        facts = {"kind": "projected", "spec": spec, "p": p, "second_black": second}
        out.append(Request(f"projected/{i}", ("report", "spec.json", "--format", "json"),
                           {"spec.json": dump(spec)}, facts))
    for i, factors in enumerate([[{"kind": "S4"}], [{"kind": "S4"}, {"kind": "connsum", "r": 3}],
                                 [{"kind": "connsum", "r": 1}] * 3]):
        spec = {"factors": factors}
        out.append(Request(f"product/{i}", ("report", "spec.json", "--format", "json"),
                           {"spec.json": dump(spec)}, {"kind": "product", "spec": spec}))

    for i, (n, p, q) in enumerate([(4, 0, 2), (6, 1, 1), (4, -1, 2)]):
        a = scramble(rng, model(p, q), 1)
        out.append(Request(f"check-link/{i}", ("check-link", "--matrix", "m.json", "--n", str(n),
                                               "--format", "json"),
                           {"m.json": dump(a)},
                           {"kind": "check-link", "n": n, "d": len(a), "det": (-1) ** q, "unimodular": True}))
    a = scramble(rng, skew_model(2), -1)
    out.append(Request("check-link/skew", ("check-link", "--matrix", "m.json", "--n", "3", "--k", "1"),
                       {"m.json": dump(a)},
                       {"kind": "check-link", "n": 3, "d": len(a), "det": 1, "unimodular": True}))
    out.append(Request("check-link/det4", ("check-link", "--matrix", "m.json", "--n", "4", "--format", "json"),
                       {"m.json": dump([[0, 2], [2, 0]])},
                       {"kind": "check-link", "n": 4, "d": 2, "det": -4, "unimodular": False}))
    for i, (p, q) in enumerate([(1, 1), (0, 4), (-1, 3)]):
        a = scramble(rng, model(p, q), 1)
        out.append(Request(f"classify/{i}", ("classify", "--matrix", "m.json", "--format", "json"),
                           {"m.json": dump(a)},
                           {"kind": "classify", "d": len(a), "det": (-1) ** q, "definiteness": "indefinite",
                            "p": p, "q": q}))
    out.append(Request("classify/e8", ("classify", "--matrix", "m.json", "--format", "json"),
                       {"m.json": dump([list(r) for r in E8])},
                       {"kind": "classify", "d": 8, "det": 1, "definiteness": "positive", "p": None, "q": None}))

    for key, text in INVALID_DOCUMENTS.items():
        out.append(Request(f"invalid/{key}", ("report", "spec.json"), {"spec.json": text},
                           {"kind": "invalid", "exit": 1}))
    out.append(Request("invalid/oracle-not-unimodular", ("oracle", "spec.json"),
                       {"spec.json": INVALID_DOCUMENTS["not-unimodular"]}, {"kind": "invalid", "exit": 1}))

    rng.shuffle(out)
    return out


def write_files(req: Request, directory: str) -> tuple[str, ...]:
    """Write the request's files into ``directory``; return argv with their paths."""
    os.makedirs(directory, exist_ok=True)
    for fname, text in req.files.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    return tuple(os.path.join(directory, a) if a in req.files else a for a in req.argv)
