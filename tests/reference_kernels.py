"""Test-only reference kernels: the original pair-loop implementations of
`pullback`, `final_pbc`, `homomorphism_violation` and `find_matches`, and
the original whole-hierarchy `validate_commutativity` and wave scheduler.

They enumerate all pairs of nodes (or, for matching, re-count degrees by
scanning every edge), so they are quadratic, but they are short and
obviously faithful to the definitions. The differential tests require the
library's index-driven kernels to produce byte-identical results: the same
node ids, maps, attribute sets, violation messages and match order.
"""

from __future__ import annotations

from sqpo.category import PbcResult, PullbackResult
from sqpo.exceptions import (
    CompositionError,
    GraphElementError,
    NotMonoError,
    RewritingError,
)
from sqpo.graphs import (
    Graph,
    Homomorphism,
    attrs_contained,
    attrs_difference,
    attrs_intersection,
    compose,
    fresh_id,
    hom_equal,
    identity,
    is_mono,
)
from sqpo.hierarchy import CommutativityViolation
from sqpo.rules import EXPANSIVE, RESTRICTIVE, Match, Rule


def pullback(f: Homomorphism, g: Homomorphism) -> PullbackResult:
    """Pullback of the cospan f: A→C ← B :g.

    Apex nodes are the pairs (a, b) with f(a) = g(b); edges need an edge in
    both components; attributes are intersected key-wise.
    """
    if f.target != g.target:
        raise CompositionError("pullback: arrows do not share a target")
    a_graph, b_graph = f.source, g.source
    pairs = [
        (a, b)
        for a in sorted(a_graph.nodes)
        for b in sorted(b_graph.nodes)
        if f[a] == g[b]
    ]
    ids: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    for (a, b) in pairs:
        pid = fresh_id(f"{a}⋈{b}", taken)
        taken.add(pid)
        ids[(a, b)] = pid
    node_attrs = {
        ids[(a, b)]: attrs_intersection(a_graph.attrs_of(a), b_graph.attrs_of(b))
        for (a, b) in pairs
    }
    edges = {}
    for (a1, b1) in pairs:
        for (a2, b2) in pairs:
            if (a1, a2) in a_graph.edges and (b1, b2) in b_graph.edges:
                edges[(ids[(a1, b1)], ids[(a2, b2)])] = attrs_intersection(
                    a_graph.attrs_of((a1, a2)), b_graph.attrs_of((b1, b2))
                )
    apex = Graph(ids.values(), edges.keys(), node_attrs, edges)
    to_a = Homomorphism(apex, a_graph, {ids[p]: p[0] for p in pairs})
    to_b = Homomorphism(apex, b_graph, {ids[p]: p[1] for p in pairs})
    return PullbackResult(apex, to_a, to_b)


def final_pbc(f: Homomorphism, m: Homomorphism) -> PbcResult:
    """Final pullback complement of f: K→L followed by the mono m: L↣G.

    Implements side-effecting deletion (nodes of L without f-preimage
    disappear from G together with incident edges) and cloning (nodes of L
    with several preimages are duplicated). Clone attributes follow the
    subtractive rule G(g) minus (L(l) minus K(k)), which is the largest
    choice keeping the square a pullback.
    """
    if f.target != m.source:
        raise CompositionError("final_pbc: arrows not composable")
    if not is_mono(m):
        raise NotMonoError("final_pbc: second arrow must be a mono")
    k_graph, l_graph, g_graph = f.source, f.target, m.target
    m_inv = {m[l]: l for l in l_graph.nodes}
    preimages: dict[str, list[str]] = {l: [] for l in l_graph.nodes}
    for k in sorted(k_graph.nodes):
        preimages[f[k]].append(k)

    # node key: (g, None) for untouched nodes, (g, k) for copies of instances
    ids: dict[tuple[str, str | None], str] = {}
    taken: set[str] = set()
    node_attrs: dict[str, dict] = {}
    for g in sorted(g_graph.nodes):
        if g not in m_inv:
            nid = fresh_id(g, taken)
            taken.add(nid)
            ids[(g, None)] = nid
            node_attrs[nid] = g_graph.attrs_of(g)
    for l in sorted(l_graph.nodes):
        g = m[l]
        for k in preimages[l]:
            base = g if len(preimages[l]) == 1 else f"{g}∥{k}"
            nid = fresh_id(base, taken)
            taken.add(nid)
            ids[(g, k)] = nid
            node_attrs[nid] = attrs_difference(
                g_graph.attrs_of(g),
                attrs_difference(l_graph.attrs_of(l), k_graph.attrs_of(k)),
            )

    edges: dict[tuple[str, str], dict] = {}
    keys = sorted(ids, key=lambda p: (p[0], p[1] or ""))
    for (g1, k1) in keys:
        for (g2, k2) in keys:
            g_edge = (g1, g2)
            if k1 is not None and k2 is not None:
                l_edge = (f[k1], f[k2])
                if l_edge in l_graph.edges:
                    if (k1, k2) not in k_graph.edges:
                        continue
                    attrs = attrs_difference(
                        g_graph.attrs_of(g_edge),
                        attrs_difference(
                            l_graph.attrs_of(l_edge), k_graph.attrs_of((k1, k2))
                        ),
                    )
                    edges[(ids[(g1, k1)], ids[(g2, k2)])] = attrs
                    continue
            if g_edge in g_graph.edges:
                edges[(ids[(g1, k1)], ids[(g2, k2)])] = g_graph.attrs_of(g_edge)

    apex = Graph(taken, edges.keys(), node_attrs, edges)
    embed = Homomorphism(k_graph, apex, {k: ids[(m[f[k]], k)] for k in k_graph.nodes})
    project = Homomorphism(apex, g_graph, {ids[p]: p[0] for p in ids})
    return PbcResult(apex, embed, project)


def homomorphism_violation(h: Homomorphism) -> str | None:
    """First reason h fails to be a homomorphism, or None if it is one."""
    for n in sorted(h.source.nodes):
        if n not in h.node_map:
            return f"map not total: node {n} has no image"
        if h.node_map[n] not in h.target.nodes:
            return f"node {n} maps to unknown node {h.node_map[n]}"
    for n in sorted(h.node_map):
        if n not in h.source.nodes:
            return f"map defined on unknown node {n}"
    for e in sorted(h.source.edges):
        if h.edge_image(e) not in h.target.edges:
            return f"edge ({e[0]},{e[1]}) has no image edge"
    for n in sorted(h.source.nodes):
        if not attrs_contained(h.source.attrs_of(n), h.target.attrs_of(h[n])):
            return f"attributes of node {n} not contained in its image"
    for e in sorted(h.source.edges):
        if not attrs_contained(h.source.attrs_of(e), h.target.attrs_of(h.edge_image(e))):
            return f"attributes of edge ({e[0]},{e[1]}) not contained in its image"
    return None


def find_matches(
    rule: Rule,
    g: Graph,
    kind: str = RESTRICTIVE,
    anchor: dict[str, str] | None = None,
) -> list[Match]:
    """All monos of the rule's pattern into g, in deterministic order.

    The pattern is the lhs for restrictive matches and the interface for
    expansive ones. `anchor` pre-assigns pattern nodes to graph nodes.
    """
    if kind not in (RESTRICTIVE, EXPANSIVE):
        raise RewritingError(f"unknown match kind {kind!r}")
    pattern = rule.lhs if kind == RESTRICTIVE else rule.interface
    anchor = anchor or {}
    for k, v in anchor.items():
        if k not in pattern.nodes:
            raise GraphElementError(f"anchor: unknown pattern node {k}")
        if v not in g.nodes:
            raise GraphElementError(f"anchor: unknown graph node {v}")

    order = sorted(pattern.nodes)
    candidates: dict[str, list[str]] = {}
    for n in order:
        opts = []
        n_out = len([e for e in pattern.edges if e[0] == n])
        n_in = len([e for e in pattern.edges if e[1] == n])
        for c in sorted(g.nodes):
            if n in anchor and anchor[n] != c:
                continue
            if not attrs_contained(pattern.attrs_of(n), g.attrs_of(c)):
                continue
            if (n, n) in pattern.edges and (c, c) not in g.edges:
                continue
            if n_out > len([e for e in g.edges if e[0] == c]):
                continue
            if n_in > len([e for e in g.edges if e[1] == c]):
                continue
            opts.append(c)
        candidates[n] = opts

    matches: list[Match] = []
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def compatible(n: str, c: str) -> bool:
        for p_node, img in assignment.items():
            for (u, v, x, y) in ((n, p_node, c, img), (p_node, n, img, c)):
                if (u, v) in pattern.edges:
                    if (x, y) not in g.edges:
                        return False
                    if not attrs_contained(pattern.attrs_of((u, v)), g.attrs_of((x, y))):
                        return False
        if (n, n) in pattern.edges and not attrs_contained(
            pattern.attrs_of((n, n)), g.attrs_of((c, c))
        ):
            return False
        return True

    def search(i: int):
        if i == len(order):
            matches.append(Match(Homomorphism(pattern, g, dict(assignment)), kind))
            return
        n = order[i]
        for c in candidates[n]:
            if c in used or not compatible(n, c):
                continue
            assignment[n] = c
            used.add(c)
            search(i + 1)
            del assignment[n]
            used.discard(c)

    search(0)
    return matches


def validate_commutativity(
    objects: dict[str, Graph], arrows: dict[tuple[str, str], Homomorphism]
) -> list[CommutativityViolation]:
    """The original full check of `Hierarchy.validate_commutativity`, with no
    memo: every source's cone is walked and every edge composed twice."""

    def successors(n: str) -> list[str]:
        return sorted(b for (a, b) in arrows if a == n)

    violations = []
    for a in sorted(objects):
        canon: dict[str, Homomorphism] = {a: identity(objects[a])}
        paths: dict[str, tuple[str, ...]] = {a: (a,)}
        frontier = [a]
        topo_seen = []
        while frontier:
            u = frontier.pop(0)
            topo_seen.append(u)
            for v in successors(u):
                if v not in canon:
                    canon[v] = compose(arrows[(u, v)], canon[u])
                    paths[v] = paths[u] + (v,)
                    frontier.append(v)
        for u in topo_seen:
            for v in successors(u):
                candidate = compose(arrows[(u, v)], canon[u])
                if not hom_equal(candidate, canon[v]):
                    witness = next(
                        n
                        for n in sorted(objects[a].nodes)
                        if candidate[n] != canon[v][n]
                    )
                    violations.append(
                        CommutativityViolation(
                            a, v, paths[v], paths[u] + (v,), witness
                        )
                    )
    return violations


def waves(h, sinks_first: bool) -> list[list[str]]:
    """The original wave schedulers of propagation, merged only by the flag:
    each wave is the sorted sinks (or sources) of the remaining nodes,
    found by rescanning every edge."""
    remaining = set(h.nodes())
    edges = set(h.edges())
    out = []
    while remaining:
        if sinks_first:
            wave = sorted(
                n for n in remaining if all(j not in remaining for (i, j) in edges if i == n)
            )
        else:
            wave = sorted(
                n for n in remaining if all(i not in remaining for (i, j) in edges if j == n)
            )
        out.append(wave)
        remaining -= set(wave)
    return out
