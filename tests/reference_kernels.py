"""Test-only reference kernels: the original pair-loop implementations of
`pullback`, `final_pbc`, `homomorphism_violation` and `find_matches`, the
original whole-host `pushout` (a union-find entry and an id for every node),
the original whole-hierarchy `validate_commutativity`, wave scheduler and
recursive acyclicity check,
the original breadth-first `Hierarchy.composed_typing` (which composes
from an identity map and has no memo), and the two backtracking searches that `graphs.homomorphism_maps` replaced
next to `find_matches`' own: propagation's connector search (with the two
connector derivations that drove it) and `find_isomorphism`. Also the
candidate builder `rules._iter_matches` used before the host's candidate
index, which filtered the whole sorted host for every pattern node; the
original canonical writer (the stdlib's `indent=2` encoder), the report
tree it wrote for `sqpo rewrite`, and the original graph loader, which
normalized every node and edge a second time through the public `Graph`
constructor and named no JSON path in its messages. And the original backward propagation step, which rebuilt every
typing at an updated object over all of its source, validated it in full
and compared its square with two full composites. And the original
clean-up loop of `relations.apply_plan`, which rebuilt a map over every
node of every traced object after each clean-up, with the induced subgraph
it matched a backward clean-up's deletion from. And the forward and
backward propagation loops that checked commutativity after every step.
And the backward plan resolution that pulled the origin's identity typing
back against the match, with the backward step that complemented the match
out at the origin on a path of its own.
And the eager trace map that `pushout` and `final_pbc` built for every
step before their traces held only the touched nodes (`identity_except`).
And the one-pass Python walk that `homomorphism_violation` ran on every
map before it checked at C level first and walked only a failed map
(`violation_walk`).
And the located loader that read every graph row by row with a memo keyed
by repr (`loader_walk`), the node map loader that walked every map
(`node_map_walk`), and the commutativity verdict that compared every
composite in Python (`verdict_walk`). And the public `Graph` constructor
that normalized every attributed node and edge on its own, so that no
two held one dict (`graph_per_element`).

They enumerate all pairs of nodes (or, for matching, re-count degrees by
scanning every edge), so they are quadratic, but they are short and
obviously faithful to the definitions. The differential tests require the
library's index-driven kernels to produce byte-identical results: the same
node ids, maps, attribute sets, violation messages and match order.
"""

from __future__ import annotations

import json

from sqpo.category import PbcResult, PullbackResult, PushoutResult
from sqpo.category import final_pbc as library_final_pbc
from sqpo.category import pushout as library_pushout
from sqpo.exceptions import (
    CompositionError,
    GraphElementError,
    HierarchyError,
    InvalidHomomorphism,
    NotMonoError,
    RewritingError,
)
from sqpo.graphs import (
    Graph,
    Homomorphism,
    _Listed,
    _located,
    _relocated,
    attrs_contained,
    attrs_difference,
    attrs_intersection,
    attrs_union,
    compose,
    fresh_id,
    hom_equal,
    identity,
    is_mono,
    json_shape_message,
    normalize_attrs,
)
from sqpo.edits import MergeNodes
from sqpo.graphs import attrs_from_json as library_attrs_from_json
from sqpo.hierarchy import CommutativityViolation, Hierarchy, _tree_path, _waves
from sqpo.propagation import (
    BACKWARD,
    FORWARD,
    BackwardFactorization,
    ForwardFactorization,
    LiftResult,
    PropagationPlan,
    RewriteReport,
    _checked_resolution,
    _propagate,
    _resolve as library_resolve,
    _Resolution,
    _restriction_connector,
    _violation_at,
    lift_rule,
    propagate_forward,
    restriction_pullback,
)
from sqpo.propagation import propagate_backward as library_propagate_backward
from sqpo.relations import build_canonical_plan
from sqpo.rules import EXPANSIVE, RESTRICTIVE, Match, Rule, build_rule

from paper_oracles import merge_assignment


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


def identity_except(nodes, delta: dict) -> dict:
    """The trace map `pushout` (as `from_b`) and `final_pbc` (as `project`)
    built whole on every call: the identity on `nodes`, re-set at `delta`."""
    node_map = dict(zip(nodes, nodes))
    node_map.update(delta)
    return node_map


def node_map_built(hom: Homomorphism) -> bool:
    """Whether hom's node map is set, read through the slot itself, which
    does not build a trace's map."""
    try:
        Homomorphism.node_map.__get__(hom)
    except AttributeError:
        return False
    return True


def _pushout_classes(f: Homomorphism, g: Homomorphism):
    """Union-find partition of B ⊔ C generated by f(a) ~ g(a)."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            # deterministic: smaller tagged id becomes the root
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx

    for b in f.target.nodes:
        parent[("B", b)] = ("B", b)
    for c in g.target.nodes:
        parent[("C", c)] = ("C", c)
    for a in sorted(f.source.nodes):
        union(("B", f[a]), ("C", g[a]))
    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return [sorted(members) for members in classes.values()]


def _class_base_id(members) -> str:
    b_ids = sorted(m[1] for m in members if m[0] == "B")
    if b_ids:
        return "_".join(b_ids)
    return "_".join(sorted(m[1] for m in members))


def pushout(f: Homomorphism, g: Homomorphism) -> PushoutResult:
    """Pushout of the span f: A→B, g: A→C.

    Apex nodes are equivalence classes of B ⊔ C generated by f(a) ~ g(a);
    classes keep the id of their B-side member(s) (concatenated when the
    class fuses several), so unchanged host nodes keep their ids.
    Attributes are united over each class.
    """
    if f.source != g.source:
        raise CompositionError("pushout: arrows do not share a source")
    b_graph, c_graph = f.target, g.target
    classes = _pushout_classes(f, g)
    classes.sort(key=lambda ms: (_class_base_id(ms), ms))
    ids: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    class_attrs: dict[str, dict] = {}
    for members in classes:
        qid = fresh_id(_class_base_id(members), taken)
        taken.add(qid)
        attrs: dict = {}
        for tag, n in members:
            ids[(tag, n)] = qid
            origin = b_graph if tag == "B" else c_graph
            attrs = attrs_union(attrs, origin.attrs_of(n))
        class_attrs[qid] = attrs
    edges: dict[tuple[str, str], dict] = {}
    for tag, origin in (("B", b_graph), ("C", c_graph)):
        for (u, v) in sorted(origin.edges):
            e = (ids[(tag, u)], ids[(tag, v)])
            edges[e] = attrs_union(edges.get(e, {}), origin.attrs_of((u, v)))
    apex = Graph(taken, edges.keys(), class_attrs, edges)
    from_b = Homomorphism(b_graph, apex, {b: ids[("B", b)] for b in b_graph.nodes})
    from_c = Homomorphism(c_graph, apex, {c: ids[("C", c)] for c in c_graph.nodes})
    return PushoutResult(apex, from_b, from_c)


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


def violation_walk(h: Homomorphism) -> str | None:
    """`homomorphism_violation` as a Python walk over every node, key, edge
    and attribute dict: each check collects its offenders in one unsorted
    pass and reports the smallest."""
    source, target, node_map = h.source, h.target, h.node_map
    bad = [n for n in source.nodes if n not in node_map or node_map[n] not in target.nodes]
    if bad:
        n = min(bad)
        if n not in node_map:
            return f"map not total: node {n} has no image"
        return f"node {n} maps to unknown node {node_map[n]}"
    bad = [n for n in node_map if n not in source.nodes]
    if bad:
        return f"map defined on unknown node {min(bad)}"
    get = node_map.get
    bad = [e for e in source.edges if (get(e[0]), get(e[1])) not in target.edges]
    if bad:
        e = min(bad)
        h.edge_image(e)  # raises KeyError if e dangles off an unmapped node
        return f"edge ({e[0]},{e[1]}) has no image edge"
    image_attrs = target.node_attrs.get
    bad = [
        n
        for n, attrs in source.node_attrs.items()
        if n in source.nodes
        and attrs != (image := image_attrs(node_map[n], {}))
        and not attrs_contained(attrs, image)
    ]
    if bad:
        return f"attributes of node {min(bad)} not contained in its image"
    image_attrs = target.edge_attrs.get
    bad = [
        e
        for e, attrs in source.edge_attrs.items()
        if e in source.edges
        and attrs != (image := image_attrs(h.edge_image(e), {}))
        and not attrs_contained(attrs, image)
    ]
    if bad:
        e = min(bad)
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


def match_candidates(pattern: Graph, g: Graph, anchor: dict[str, str]) -> dict[str, list[str]]:
    """The candidate lists `rules._iter_matches` built before the candidate
    index: each pattern node's anchor, or else the whole sorted host,
    filtered by attribute containment."""
    # the host's nodes are sorted only for a pattern node without an anchor
    hosts = sorted(g.nodes) if pattern.nodes - anchor.keys() else []
    host_attrs = g.node_attrs
    candidates = {}
    for n in pattern.nodes:
        want = pattern.attrs_of(n)
        pool = [anchor[n]] if n in anchor else hosts
        candidates[n] = [c for c in pool if attrs_contained(want, host_attrs.get(c, {}))]
    return candidates


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


def composed_typing(h, a: str, b: str) -> Homomorphism:
    """The original `Hierarchy.composed_typing`, with `self` as `h` and the
    arrow read through `h.typing`."""
    if a == b:
        return identity(h.graph(a))
    h.graph(b)
    canon: dict[str, Homomorphism] = {a: identity(h.graph(a))}
    frontier = [a]
    while frontier:
        u = frontier.pop(0)
        if u == b:
            return canon[b]
        for v in h.successors(u):
            if v not in canon:
                canon[v] = compose(h.typing(u, v), canon[u])
                frontier.append(v)
    if b in canon:
        return canon[b]
    raise HierarchyError(f"no path {a} -> {b}")


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


def _has_cycle(nodes, edges) -> bool:
    """The original acyclicity check of `hierarchy`, a recursive depth-first
    search (so it overflows the stack on a long chain)."""
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for (u, v) in edges:
        if u == v:
            return True
        succ[u].append(v)
    state: dict[str, int] = {}

    def visit(n) -> bool:
        state[n] = 1
        for m in succ[n]:
            s = state.get(m, 0)
            if s == 1 or (s == 0 and visit(m)):
                return True
        state[n] = 2
        return False

    return any(state.get(n, 0) == 0 and visit(n) for n in nodes)


# -- the connector and isomorphism searches, as they were before
# `graphs.homomorphism_maps` replaced them (with `find_matches` above) -------


def _search_connector(
    mid_i: Graph,
    mid_j: Graph,
    candidates: dict[str, list[str]],
) -> Homomorphism | None:
    """First homomorphism mid_i→mid_j consistent with the per-node candidate
    sets, in deterministic order."""
    order = sorted(mid_i.nodes)
    assignment: dict[str, str] = {}

    def edges_ok(n: str, c: str) -> bool:
        for p, q in assignment.items():
            for (u, v, xx, yy) in ((n, p, c, q), (p, n, q, c)):
                if (u, v) in mid_i.edges:
                    if (xx, yy) not in mid_j.edges:
                        return False
                    if not attrs_contained(mid_i.attrs_of((u, v)), mid_j.attrs_of((xx, yy))):
                        return False
        if (n, n) in mid_i.edges:
            if (c, c) not in mid_j.edges or not attrs_contained(
                mid_i.attrs_of((n, n)), mid_j.attrs_of((c, c))
            ):
                return False
        return True

    def search(idx: int) -> bool:
        if idx == len(order):
            return True
        n = order[idx]
        for c in candidates[n]:
            if not attrs_contained(mid_i.attrs_of(n), mid_j.attrs_of(c)):
                continue
            if not edges_ok(n, c):
                continue
            assignment[n] = c
            if search(idx + 1):
                return True
            del assignment[n]
        return False

    if any(not candidates[n] for n in order):
        return None
    return Homomorphism(mid_i, mid_j, dict(assignment)) if search(0) else None


def _derive_forward_connector(
    fx_i: ForwardFactorization, fx_j: ForwardFactorization, h_ij: Homomorphism
) -> Homomorphism | None:
    forced: dict[str, str] = {}
    for a in fx_i.pre_arrow.source.nodes:
        e, want = fx_i.pre_arrow[a], fx_j.pre_arrow[a]
        if forced.setdefault(e, want) != want:
            return None
    candidates = {}
    for e in sorted(fx_i.mid.nodes):
        opts = [forced[e]] if e in forced else sorted(fx_j.mid.nodes)
        opts = [
            c
            for c in opts
            if fx_j.post_arrow[c] == fx_i.post_arrow[e]
            and fx_j.typing[c] == h_ij[fx_i.typing[e]]
        ]
        candidates[e] = opts
    return _search_connector(fx_i.mid, fx_j.mid, candidates)


def _derive_backward_connector(
    fx_i: BackwardFactorization,
    fx_j: BackwardFactorization,
    pattern_connector: Homomorphism,
) -> Homomorphism | None:
    forced: dict[str, str] = {}
    for k in fx_i.pre_arrow.source.nodes:
        e, want = fx_i.pre_arrow[k], fx_j.pre_arrow[k]
        if forced.setdefault(e, want) != want:
            return None
    for p in fx_i.retyping.source.nodes:
        e = fx_i.retyping[p]
        want = fx_j.retyping[pattern_connector[p]]
        if forced.setdefault(e, want) != want:
            return None
    candidates = {}
    for e in sorted(fx_i.mid.nodes):
        opts = [forced[e]] if e in forced else sorted(fx_j.mid.nodes)
        opts = [c for c in opts if fx_j.post_arrow[c] == fx_i.post_arrow[e]]
        candidates[e] = opts
    return _search_connector(fx_i.mid, fx_j.mid, candidates)


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


# -- canonical JSON and the graph loader --------------------------------------


def dumps_canonical(obj) -> str:
    """The original canonical writer; `indent` makes CPython run the
    stdlib's pure-Python encoder."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _hom_map(hom: Homomorphism) -> dict:
    return {k: hom[k] for k in sorted(hom.source.nodes)}


def report_json(reports) -> dict:
    """The original report tree, which `sqpo rewrite` passed to
    `dumps_canonical` before it wrote the report's text from the reports."""
    apps = []
    for rep in reports:
        apps.append(
            {
                "origin": rep.origin,
                "direction": rep.direction,
                "waves": rep.waves,
                "traces": {n: _hom_map(rep.traces[n]) for n in sorted(rep.traces)},
                "instances": {
                    n: _hom_map(rep.instances[n]) for n in sorted(rep.instances)
                },
                "typings": [
                    {"from": a, "to": b, "map": _hom_map(rep.updated_typings[(a, b)])}
                    for (a, b) in sorted(rep.updated_typings)
                ],
                "steps": [
                    {"node": node, "violations": viols} for node, viols in rep.steps
                ],
            }
        )
    return {"applications": apps}


def attrs_from_json(obj):
    out = {}
    for k in obj:
        raw = obj[k]
        if not isinstance(raw, list):
            raise GraphElementError(f"attribute {k}: expected a list of values")
        for v in raw:
            if not isinstance(v, (str, int, bool)):
                raise GraphElementError(
                    f"attribute values must be str, int or bool, got {type(v).__name__}"
                )
        if len(frozenset(raw)) != len(raw):
            raise GraphElementError(
                f"attribute {k}: duplicate (or boolean/integer-colliding) value"
            )
        if raw:
            out[str(k)] = frozenset(raw)
    return out


def graph_from_json(obj) -> Graph:
    try:
        nodes = []
        node_attrs = {}
        for entry in obj.get("nodes", []):
            n = entry["id"]
            if not isinstance(n, str):
                raise TypeError(f"node id {json.dumps(n)} is not a string")
            nodes.append(n)
            if "attrs" in entry:
                node_attrs[entry["id"]] = attrs_from_json(entry["attrs"])
        edges = []
        edge_attrs = {}
        for entry in obj.get("edges", []):
            e = (entry["from"], entry["to"])
            if not (isinstance(e[0], str) and isinstance(e[1], str)):
                raise TypeError(f"edge {json.dumps(list(e))} has an endpoint that is not a string")
            edges.append(e)
            if "attrs" in entry:
                edge_attrs[e] = attrs_from_json(entry["attrs"])
        g = Graph(nodes, edges, node_attrs, edge_attrs)
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphElementError(json_shape_message("graph", exc)) from exc
    problems = g.validate()
    if problems:
        raise GraphElementError("invalid graph: " + "; ".join(problems))
    return g



def graph_per_element(nodes=(), edges=(), node_attrs=None, edge_attrs=None) -> Graph:
    """The public `Graph` constructor as it was before it kept a memo:
    `normalize_attrs` once per attributed node and edge, in iteration
    order."""
    node_set = frozenset(str(n) for n in nodes)
    edge_set = frozenset((str(u), str(v)) for u, v in edges)
    na = {}
    for n, attrs in (node_attrs or {}).items():
        normalized = normalize_attrs(attrs)
        if normalized:
            na[str(n)] = normalized
    ea = {}
    for e, attrs in (edge_attrs or {}).items():
        normalized = normalize_attrs(attrs)
        if normalized:
            ea[(str(e[0]), str(e[1]))] = normalized
    return Graph._of(node_set, edge_set, na, ea)


def loader_walk(obj, memo: dict | None = None) -> Graph:
    """The located loader that `graphs.graph_from_json` ran on every graph
    before it read the rows in one pass and walked only a failed graph: the
    row walk with its JSON path, and a memo keyed by the repr of each raw
    attribute value."""
    memo = {} if memo is None else memo
    where: tuple = ()
    try:
        nodes = _Listed()
        node_attrs = {}
        for i, entry in enumerate(obj.get("nodes", [])):
            where = ("nodes", i)
            n = entry["id"]
            if not isinstance(n, str):
                raise TypeError(f"node id {json.dumps(n)} is not a string")
            nodes.append(n)
            if "attrs" in entry:
                where = ("nodes", i, "attrs")
                if (attrs := memo.get(key := repr(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = library_attrs_from_json(raw)
                if attrs:
                    node_attrs[n] = attrs
                else:
                    node_attrs.pop(n, None)
        edges = _Listed()
        edge_attrs = {}
        for i, entry in enumerate(obj.get("edges", [])):
            where = ("edges", i)
            e = (entry["from"], entry["to"])
            if not (isinstance(e[0], str) and isinstance(e[1], str)):
                raise TypeError(f"edge {json.dumps(list(e))} has an endpoint that is not a string")
            edges.append(e)
            if "attrs" in entry:
                where = ("edges", i, "attrs")
                if (attrs := memo.get(key := repr(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = library_attrs_from_json(raw)
                if attrs:
                    edge_attrs[e] = attrs
                else:
                    edge_attrs.pop(e, None)
    except (KeyError, TypeError, AttributeError, GraphElementError) as exc:
        raise _relocated(GraphElementError, where, exc, "graph") from exc
    g = Graph._of(nodes, edges, node_attrs, edge_attrs)
    problems = g.validate()
    if problems:
        first = min(e for e in edges if not (e[0] in g.nodes and e[1] in g.nodes))
        raise _located(
            GraphElementError, ("edges", edges.index(first)), "invalid graph: " + "; ".join(problems)
        )
    object.__setattr__(g, "_order", nodes)
    object.__setattr__(g, "_sorted_edges", edges)
    return g


def node_map_walk(raw, what: str) -> dict[str, str]:
    """The original `graphs._node_map_from_json`, which walked every entry
    of every map in Python."""
    for k, v in raw.items():
        if not isinstance(v, str):
            raise _located(TypeError, (k,), f"{what} maps {k} to {json.dumps(v)}, not to a node id")
    return dict(raw)


def verdict_walk(h, a, u, v, canon, parent, keys) -> CommutativityViolation | None:
    """The original `Hierarchy._verdict`, with `self` as `h`: the composite
    at every node is built and compared with the fixed one in Python."""
    arrow, first, fixed = h._arrows[(u, v)], canon[u], canon[v]
    if a in (u, v):
        first = first or identity(h._objects[a])
        fixed = fixed or identity(h._objects[a])
    if first.target is not arrow.source and first.target != arrow.source:
        raise CompositionError("compose: f.target differs from g.source")
    am, fm, nodes = arrow.node_map, first.node_map, first.source.nodes
    values = {n: am[fm[n]] for n in (nodes if keys is None else keys) if n in nodes}
    if (first.source is not fixed.source and first.source != fixed.source) or (
        arrow.target is not fixed.target and arrow.target != fixed.target
    ):
        raise CompositionError("hom_equal: endpoints differ")
    xm = fixed.node_map
    bad = [n for n, y in values.items() if y != xm[n]]
    if not bad:
        return None
    return CommutativityViolation(
        a, v, _tree_path(parent, v), _tree_path(parent, u) + (v,), min(bad)
    )

# -- the backward propagation step ---------------------------------------------


def propagate_backward(h, plan) -> RewriteReport:
    """The original `propagate_backward`: each arrow k -> i into an updated
    object is rebuilt over every node of k, from the lifted instances and
    from the "bot" map of i's untouched nodes, validated in full and
    compared with `hom_equal` after two full composites; each arrow i -> j
    out of it is the full composite of the old arrow and i's trace."""
    res = _checked_resolution(h, plan, BACKWARD)
    origin = plan.origin
    waves = _waves(res.sub.nodes(), res.sub._pred, res.sub._succ)

    current = h
    traces: dict[str, Homomorphism] = {}
    instances: dict[str, Homomorphism] = {}
    lifts: dict[str, LiftResult] = {}
    updated: dict[tuple[str, str], Homomorphism] = {}
    steps: list[tuple[str, list[str]]] = []
    bot_lookup: dict[str, dict[str, str]] = {}
    lifted_pairs: dict[str, dict[tuple[str, str], str]] = {}

    def lifted_connector(k: str, i: str, p_minus: str) -> str:
        lk = lifts[k]
        if i == origin:
            return lk.to_rhs[p_minus]
        pattern_pair = res.pattern_conns[(k, i)][lk.lift[p_minus]]
        return lifted_pairs[i][(pattern_pair, lk.to_rhs[p_minus])]

    for wave in waves:
        for i in wave:
            if i == origin:
                pbc = library_final_pbc(plan.rule, plan.match)
                new_graph = pbc.apex
                traces[i] = pbc.project
                instances[i] = pbc.embed
                lifts[i] = LiftResult(
                    pattern=plan.rule.source,
                    lift=identity(plan.rule.source),
                    to_rhs=identity(plan.rule.source),
                    graph=pbc.apex,
                    trace=pbc.project,
                    instance=pbc.embed,
                )
            else:
                fx = plan.factorizations[i]
                lift = lift_rule(fx.retyping, fx.pre_arrow, res.restrictions[i].instance)
                new_graph = lift.graph
                traces[i] = lift.trace
                instances[i] = lift.instance
                lifts[i] = lift
                lifted_pairs[i] = {
                    (lift.lift[q], lift.to_rhs[q]): q for q in lift.pattern.nodes
                }
            embedded = {instances[i][p] for p in instances[i].source.nodes}
            trace_map = traces[i].node_map
            bot_lookup[i] = {
                trace_map[x]: x for x in new_graph.nodes if x not in embedded
            }
            patch: dict[tuple[str, str], Homomorphism] = {}
            for k in current.predecessors(i):
                old = h.typing(k, i)
                lk = lifts[k]
                emb_inv_k = {lk.instance[p]: p for p in lk.pattern.nodes}
                bot, om, tk = bot_lookup[i], old.node_map, traces[k].node_map
                mapping = {}
                for x in lk.graph.nodes:
                    if x in emb_inv_k:
                        mapping[x] = instances[i][lifted_connector(k, i, emb_inv_k[x])]
                    else:
                        mapping[x] = bot[om[tk[x]]]
                arrow = Homomorphism._of(lk.graph, new_graph, mapping)
                arrow.validate()
                if not hom_equal(
                    compose(traces[i], arrow), compose(old, traces[k])
                ):
                    raise RewritingError(
                        f"typing {k}->{i}: reconstructed arrow does not commute"
                    )
                patch[(k, i)] = arrow
            for j in current.successors(i):
                patch[(i, j)] = compose(current.typing(i, j), traces[i])
            current = current.replace(objects={i: new_graph}, arrows=patch)
            updated.update(patch)
            steps.append((i, [str(v) for v in current.validate_commutativity()]))
    return RewriteReport(
        hierarchy=current,
        origin=origin,
        direction=BACKWARD,
        waves=waves,
        traces=traces,
        instances=instances,
        updated_typings=updated,
        steps=steps,
    )


# -- the clean-up loop --------------------------------------------------------


def induced_subgraph(g: Graph, nodes) -> Graph:
    """The subgraph of g on `nodes`, with every edge and attribute of g
    between them."""
    keep = set(nodes)
    return Graph(
        keep,
        {e for e in g.edges if e[0] in keep and e[1] in keep},
        {n: a for n, a in g.node_attrs.items() if n in keep},
        {e: a for e, a in g.edge_attrs.items() if e[0] in keep and e[1] in keep},
    )


def apply_plan(h: Hierarchy, plan: PropagationPlan) -> list[RewriteReport]:
    """The original `relations.apply_plan`, which tracked where each
    element went by rebuilding an `adjust` map over every node of every
    traced object after each clean-up. It runs the library's backward step,
    named `library_propagate_backward` here because this module's
    `propagate_backward` is the original one."""
    if plan.direction == FORWARD:
        main = propagate_forward(h, plan)
    else:
        main = library_propagate_backward(h, plan)
    reports = [main]
    current = main.hierarchy

    # one clean-up application may propagate into the objects a later one
    # touches; track where each post-propagation element went
    adjust: dict[str, dict[str, str]] = {}

    def resolve(node: str, element: str) -> str | None:
        mapping = adjust.get(node)
        if mapping is None:
            return element
        return mapping.get(element)

    def advance(rep: RewriteReport) -> None:
        for n, trace in rep.traces.items():
            if rep.direction == FORWARD:
                step = {x: trace[x] for x in trace.source.nodes}
                pre_nodes = trace.source.nodes
            else:
                step = {trace[y]: y for y in trace.source.nodes}
                pre_nodes = trace.target.nodes
            base = adjust.get(n) or {x: x for x in pre_nodes}
            adjust[n] = {k: step[v] for k, v in base.items() if v in step}

    for node in sorted(plan.cleanups):
        if plan.direction == FORWARD:
            groups = []
            for refs in plan.cleanups[node]:
                raw = {
                    main.traces[node][elem] if tag == "old" else main.instances[node][elem]
                    for tag, elem in refs
                }
                resolved = {r for r in (resolve(node, x) for x in raw) if r}
                if len(resolved) >= 2:
                    # coalesce with any group sharing an element (two groups
                    # may point at the same existing target)
                    for other in [g2 for g2 in groups if g2 & resolved]:
                        groups.remove(other)
                        resolved |= other
                    groups.append(resolved)
            if not groups:
                continue
            groups = sorted(sorted(grp) for grp in groups)
            pattern = Graph(n for grp in groups for n in grp)
            edits = []
            taken = set(pattern.nodes)
            for grp in groups:
                merged = fresh_id("_".join(grp), taken - set(grp))
                taken.add(merged)
                edits.append(MergeNodes(tuple(grp), merged))
            merge_rule = build_rule(pattern, edits)
            match2 = Homomorphism(
                pattern, current.graph(node), {n: n for n in pattern.nodes}
            )
            plan2 = build_canonical_plan(
                current, node, merge_rule.right_leg, match2, FORWARD
            )
            rep = propagate_forward(current, plan2)
        else:
            raw = {main.instances[node][q] for q in plan.cleanups[node]}
            doomed = sorted({r for r in (resolve(node, x) for x in raw) if r})
            if not doomed:
                continue
            g_minus = current.graph(node)
            pattern = induced_subgraph(g_minus, doomed)
            arrow = Homomorphism(Graph(), pattern, {})
            match2 = Homomorphism(pattern, g_minus, {n: n for n in pattern.nodes})
            plan2 = build_canonical_plan(current, node, arrow, match2, BACKWARD)
            rep = library_propagate_backward(current, plan2)
        advance(rep)
        current = rep.hierarchy
        reports.append(rep)
    return reports


# -- the per-step propagation loops --------------------------------------------


def propagate_forward_per_step(h, plan) -> RewriteReport:
    """The forward propagation loop that checked commutativity after every
    step: each report step lists the violations of the hierarchy built by
    that step, and a check that raises stops the propagation there."""
    res = _checked_resolution(h, plan, FORWARD)
    origin = plan.origin
    waves = _waves(res.sub.nodes(), res.sub._succ, res.sub._pred)
    facts = {name: plan.factorizations[name] for name in res.typings}
    facts[origin] = res.origin_fx
    rhs = plan.rule.target

    current = h
    traces: dict[str, Homomorphism] = {}
    instances: dict[str, Homomorphism] = {}
    updated: dict[tuple[str, str], Homomorphism] = {}
    steps: list[tuple[str, list[str]]] = []
    for wave in waves:
        for i in wave:
            fx = facts[i]
            po = library_pushout(fx.typing, fx.post_arrow)
            traces[i] = po.from_b
            instances[i] = po.from_c
            ti, ii = po.from_b.node_map, po.from_c.node_map
            moved = po._moved
            touched = {fx.typing[m] for m in fx.mid.nodes} | moved
            delta = {ii[c] for c in rhs.nodes} | {ti[n] for n in moved}
            succ, pred = po.from_b.source._adjacency()
            delta_edges = {(ii[u], ii[v]) for (u, v) in rhs.edges}
            for n in touched:
                delta_edges.update((ti[n], ti[v]) for v in succ.get(n, ()))
                delta_edges.update((ti[u], ti[n]) for u in pred.get(n, ()))
            patch: dict[tuple[str, str], Homomorphism] = {}
            for j in current.successors(i):
                arrow = current.typing(i, j)
                am, ij = arrow.node_map, instances[j].node_map
                mapping = merge_assignment(
                    f"typing {i}->{j} after update",
                    {ti[n]: am[n] for n in sorted(touched)},
                    {ii[c]: ij[c] for c in rhs.nodes},
                )
                arrow = Homomorphism._patched(
                    arrow, po.apex, arrow.target, mapping, touched | delta
                )
                problem = _violation_at(arrow, delta, delta_edges, touched)
                if problem is not None:
                    raise InvalidHomomorphism(problem)
                patch[(i, j)] = arrow
            for k in current.predecessors(i):
                arrow = current.typing(k, i)
                am = arrow.node_map
                preimages = arrow._preimages() if moved else {}
                keys = [x for n in moved for x in preimages.get(n, ())]
                patch[(k, i)] = Homomorphism._patched(
                    arrow, arrow.source, po.apex, {x: ti[am[x]] for x in keys}, keys
                )
            current = current.replace(objects={i: po.apex}, arrows=patch)
            updated.update(patch)
            steps.append((i, [str(v) for v in current.validate_commutativity()]))
    return RewriteReport(
        hierarchy=current,
        origin=origin,
        direction=FORWARD,
        waves=waves,
        traces=traces,
        instances=instances,
        updated_typings=updated,
        steps=steps,
    )


def propagate_backward_per_step(h, plan) -> RewriteReport:
    """The backward propagation loop that checked commutativity after every
    step, as `propagate_forward_per_step` does."""
    res = _checked_resolution(h, plan, BACKWARD)
    origin = plan.origin
    waves = _waves(res.sub.nodes(), res.sub._pred, res.sub._succ)

    current = h
    traces: dict[str, Homomorphism] = {}
    instances: dict[str, Homomorphism] = {}
    lifts: dict[str, LiftResult] = {}
    updated: dict[tuple[str, str], Homomorphism] = {}
    steps: list[tuple[str, list[str]]] = []
    lifted_pairs: dict[str, dict[tuple[str, str], str]] = {}
    for wave in waves:
        for i in wave:
            if i == origin:
                pbc = library_final_pbc(plan.rule, plan.match)
                new_graph, matched = pbc.apex, plan.match
                traces[i] = pbc.project
                instances[i] = pbc.embed
            else:
                fx = plan.factorizations[i]
                matched = res.restrictions[i].instance
                lift = lift_rule(fx.retyping, fx.pre_arrow, matched)
                new_graph = lift.graph
                traces[i] = lift.trace
                instances[i] = lift.instance
                lifts[i] = lift
                lifted_pairs[i] = {
                    (lift.lift[q], lift.to_rhs[q]): q for q in lift.pattern.nodes
                }
            ti, ii = traces[i].node_map, instances[i].node_map
            matched_i = {matched[p] for p in matched.source.nodes}
            copies_i = [ii[p] for p in instances[i].source.nodes]
            patch: dict[tuple[str, str], Homomorphism] = {}
            for k in current.predecessors(i):
                arrow = current.typing(k, i)  # old(k, i) after trace_k
                old, lk = h.typing(k, i), lifts[k]
                om, tk = old.node_map, traces[k].node_map
                # the image in L_G_i⁻ (in L⁻ at the origin) of each node of
                # L_G_k⁻, through the pattern connector
                to_rhs = lk.to_rhs.node_map
                if i == origin:
                    image = to_rhs
                else:
                    conn, lift_k = res.pattern_conns[(k, i)].node_map, lk.lift.node_map
                    pairs = lifted_pairs[i]
                    image = {q: pairs[(conn[lift_k[q]], to_rhs[q])] for q in lk.pattern.nodes}
                inst = lk.instance.node_map
                mapping = {inst[q]: ii[image[q]] for q in lk.pattern.nodes}
                preimages = old._preimages()
                stray = [
                    x for y in matched_i for x in preimages.get(y, ())
                    if x in tk and x not in mapping
                ]
                if stray:  # an untouched node of k over a node that left i
                    raise KeyError(arrow[min(stray)])
                arrow = Homomorphism._patched(arrow, lk.graph, new_graph, mapping, mapping)
                problem = _violation_at(arrow, mapping, lk._rebuilt, mapping)
                if problem is not None:
                    raise InvalidHomomorphism(problem)
                if any(ti[y] != om[tk[x]] for x, y in mapping.items()):
                    raise RewritingError(
                        f"typing {k}->{i}: reconstructed arrow does not commute"
                    )
                patch[(k, i)] = arrow
            keys = matched_i.union(copies_i)
            for j in current.successors(i):
                arrow = current.typing(i, j)
                am = arrow.node_map
                patch[(i, j)] = Homomorphism._patched(
                    arrow, new_graph, arrow.target, {c: am[ti[c]] for c in copies_i}, keys
                )
            current = current.replace(objects={i: new_graph}, arrows=patch)
            updated.update(patch)
            steps.append((i, [str(v) for v in current.validate_commutativity()]))
    return RewriteReport(
        hierarchy=current,
        origin=origin,
        direction=BACKWARD,
        waves=waves,
        traces=traces,
        instances=instances,
        updated_typings=updated,
        steps=steps,
    )


# -- the origin's restriction as a pullback ------------------------------------


def resolve_pulled_back_origin(h: Hierarchy, plan: PropagationPlan) -> _Resolution:
    """The original `propagation._resolve` of a backward plan: the origin's
    restriction is the pullback of its identity typing against the match,
    whose pattern is L with `a⋈b` ids. A forward plan is resolved by the
    library."""
    if plan.direction == FORWARD:
        return library_resolve(h, plan)
    res = plan._resolution
    if res is not None and res.hierarchy is h:
        return res
    origin, match = plan.origin, plan.match
    sub = h.backward_subgraph(origin)
    typings = {n: h.composed_typing(n, origin) for n in sub.nodes() if n != origin}
    restrictions = {origin: restriction_pullback(identity(h.graph(origin)), match)}
    for name, typing in typings.items():
        restrictions[name] = restriction_pullback(typing, match)
    pattern_conns = {
        (i, j): _restriction_connector(h, i, j, restrictions[i], restrictions[j])
        for (i, j) in sub.edges()
    }
    lhs = plan.rule.target
    origin_fx = BackwardFactorization(
        mid=lhs,
        post_arrow=identity(lhs),
        pre_arrow=plan.rule,
        retyping=restrictions[origin].to_lhs,
    )
    res = _Resolution(h, sub, typings, origin_fx, restrictions, pattern_conns)
    plan._resolution = res
    return res


def propagate_backward_origin_branch(h: Hierarchy, plan: PropagationPlan) -> RewriteReport:
    """The original `propagate_backward`, whose step complemented the match
    out at the origin without a lift, and patched an arrow into the origin
    from each lifted node's image in L⁻ (`to_rhs`), without the pattern
    connector; every other step is the library's."""
    lifts: dict[str, LiftResult] = {}
    lifted_pairs: dict[str, dict[tuple[str, str], str]] = {}

    def step(res, i, current, instances):
        if i == plan.origin:
            pbc = library_final_pbc(plan.rule, plan.match)
            new_graph, trace, instance, matched = pbc.apex, pbc.project, pbc.embed, plan.match
        else:
            fx = plan.factorizations[i]
            matched = res.restrictions[i].instance
            lift = lift_rule(fx.retyping, fx.pre_arrow, matched)
            new_graph, trace, instance = lift.graph, lift.trace, lift.instance
            lifts[i] = lift
            lifted_pairs[i] = {(lift.lift[q], lift.to_rhs[q]): q for q in lift.pattern.nodes}
        ti, ii = trace.node_map, instance.node_map
        matched_i = {matched[p] for p in matched.source.nodes}
        copies_i = [ii[p] for p in instance.source.nodes]
        patch: dict[tuple[str, str], Homomorphism] = {}
        for k in current.predecessors(i):
            arrow = current.typing(k, i)
            old, lk = h.typing(k, i), lifts[k]
            om, tk = old.node_map, lk.trace.node_map  # k is not the origin
            to_rhs = lk.to_rhs.node_map
            if i == plan.origin:
                image = to_rhs
            else:
                conn, lift_k = res.pattern_conns[(k, i)].node_map, lk.lift.node_map
                pairs = lifted_pairs[i]
                image = {q: pairs[(conn[lift_k[q]], to_rhs[q])] for q in lk.pattern.nodes}
            inst = lk.instance.node_map
            mapping = {inst[q]: ii[image[q]] for q in lk.pattern.nodes}
            preimages = old._preimages()
            stray = [
                x for y in matched_i for x in preimages.get(y, ())
                if x in tk and x not in mapping
            ]
            if stray:
                raise KeyError(arrow[min(stray)])
            arrow = Homomorphism._patched(arrow, lk.graph, new_graph, mapping, mapping)
            problem = _violation_at(arrow, mapping, lk._rebuilt, mapping)
            if problem is not None:
                raise InvalidHomomorphism(problem)
            if any(ti[y] != om[tk[x]] for x, y in mapping.items()):
                raise RewritingError(
                    f"typing {k}->{i}: reconstructed arrow does not commute"
                )
            patch[(k, i)] = arrow
        keys = matched_i.union(copies_i)
        for j in current.successors(i):
            arrow = current.typing(i, j)
            am = arrow.node_map
            patch[(i, j)] = Homomorphism._patched(
                arrow, new_graph, arrow.target, {c: am[ti[c]] for c in copies_i}, keys
            )
        return new_graph, trace, instance, patch

    return _propagate(h, plan, BACKWARD, step)
