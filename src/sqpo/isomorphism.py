"""Backtracking isomorphism search between attributed graphs.

Used by tests to compare construction outputs "up to isomorphism";
library operations never search for isomorphisms. Fine for the ≤10-node
graphs exercised by the test suite.
"""

from __future__ import annotations

from .graphs import Graph, Homomorphism


def _signature(g: Graph, n: str):
    out = sorted(v for (u, v) in g.edges if u == n)
    inc = sorted(u for (u, v) in g.edges if v == n)
    return (len(out), len(inc), (n, n) in g.edges)


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
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return None
    anchor = anchor or {}
    order = sorted(g1.nodes)
    candidates: dict[str, list[str]] = {}
    for n in order:
        opts = []
        for m in sorted(g2.nodes):
            if n in anchor and anchor[n] != m:
                continue
            if _signature(g1, n) != _signature(g2, m):
                continue
            if g1.attrs_of(n) != g2.attrs_of(m):
                continue
            if typing1 is not None and typing2 is not None:
                if typing1[n] != typing2[m]:
                    continue
            opts.append(m)
        if not opts:
            return None
        candidates[n] = opts

    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(n: str, m: str) -> bool:
        for p, q in assignment.items():
            for (u, v, x, y) in ((n, p, m, q), (p, n, q, m)):
                has1 = (u, v) in g1.edges
                has2 = (x, y) in g2.edges
                if has1 != has2:
                    return False
                if has1 and g1.attrs_of((u, v)) != g2.attrs_of((x, y)):
                    return False
        # self-loop equality is part of the signature; loop attrs checked here
        if (n, n) in g1.edges and g1.attrs_of((n, n)) != g2.attrs_of((m, m)):
            return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        n = order[i]
        for m in candidates[n]:
            if m in used or not consistent(n, m):
                continue
            assignment[n] = m
            used.add(m)
            if search(i + 1):
                return True
            del assignment[n]
            used.discard(m)
        return False

    return dict(assignment) if search(0) else None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None

