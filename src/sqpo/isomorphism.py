"""Isomorphism search between attributed graphs.

Used by tests to compare construction outputs "up to isomorphism";
library operations never search for isomorphisms. An isomorphism is found
as the first injective map of the homomorphism search in
`graphs.homomorphism_maps`, once the two graphs have equal node, edge and
edge-attribute-value counts: then an injective map that preserves edges
and contains attributes is a bijection on nodes and edges whose edge
attributes are equal, and node attributes are compared exactly up front.
"""

from __future__ import annotations

from collections import Counter

from .graphs import Graph, Homomorphism, homomorphism_maps


def find_isomorphism(
    g1: Graph,
    g2: Graph,
    typing1: Homomorphism | None = None,
    typing2: Homomorphism | None = None,
    anchor: dict[str, str] | None = None,
) -> dict[str, str] | None:
    """Node bijection g1→g2 preserving edges, attributes and, when given,
    the typings (typing2 ∘ iso = typing1) and the anchored assignments.
    Returns None if there is none."""
    sizes = [
        (len(g.nodes), len(g.edges), sum(len(vs) for e in g.edges for vs in g.attrs_of(e).values()))
        for g in (g1, g2)
    ]
    if sizes[0] != sizes[1]:
        return None
    anchor = anchor or {}
    signatures = []
    for g in (g1, g2):
        out = Counter(u for u, _ in g.edges)
        inc = Counter(v for _, v in g.edges)
        signatures.append({n: (out[n], inc[n], (n, n) in g.edges) for n in g.nodes})
    sig1, sig2 = signatures
    targets = sorted(g2.nodes)
    candidates = {
        n: [
            m
            for m in targets
            if (n not in anchor or anchor[n] == m)
            and sig1[n] == sig2[m]
            and g1.attrs_of(n) == g2.attrs_of(m)
            and (typing1 is None or typing2 is None or typing1[n] == typing2[m])
        ]
        for n in sorted(g1.nodes)
    }
    return next(homomorphism_maps(g1, g2, candidates, injective=True), None)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None
