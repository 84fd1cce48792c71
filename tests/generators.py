"""Seeded random generators for graphs, homomorphisms, rules, hierarchies
and propagation plans. Everything is driven by an explicit random.Random so
test runs are reproducible. Also a snapshot of the attribute dicts of
graphs, to check that a construction or propagation wrote into none."""

from __future__ import annotations

import copy
import random

from sqpo import (
    BACKWARD,
    FORWARD,
    Graph,
    Hierarchy,
    Homomorphism,
    PropagationPlan,
    build_relation_plan,
    compose,
)

ALPHABET = ("x", "y", "z")
KEY = "k"


def random_graph(
    rng: random.Random,
    max_nodes: int = 5,
    min_nodes: int = 0,
    alphabet=ALPHABET,
    p_edge: float = 0.3,
    p_attr: float = 0.4,
    p_edge_attr: float = 0.3,
    prefix: str = "n",
) -> Graph:
    count = rng.randint(min_nodes, max_nodes)
    nodes = [f"{prefix}{i}" for i in range(count)]
    edges = [(u, v) for u in nodes for v in nodes if rng.random() < p_edge]
    node_attrs = {}
    for u in nodes:
        values = [a for a in alphabet if rng.random() < p_attr]
        if values:
            node_attrs[u] = {KEY: values}
    edge_attrs = {}
    for e in edges:
        values = [a for a in alphabet if rng.random() < p_edge_attr]
        if values:
            edge_attrs[e] = {KEY: values}
    return Graph(nodes, edges, node_attrs, edge_attrs)


def random_hom_into(
    rng: random.Random, target: Graph, max_nodes: int = 5, prefix: str = "s"
) -> Homomorphism:
    """A random homomorphism into target from a fresh source graph."""
    if not target.nodes:
        return Homomorphism(Graph(), target, {})
    count = rng.randint(0, max_nodes)
    targets = sorted(target.nodes)
    nodes = [f"{prefix}{i}" for i in range(count)]
    mapping = {u: rng.choice(targets) for u in nodes}
    edges = []
    for u in nodes:
        for v in nodes:
            if (mapping[u], mapping[v]) in target.edges and rng.random() < 0.5:
                edges.append((u, v))
    node_attrs = {}
    for u in nodes:
        avail = sorted(target.attrs_of(mapping[u]).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.5]
        if values:
            node_attrs[u] = {KEY: values}
    edge_attrs = {}
    for e in edges:
        avail = sorted(target.attrs_of((mapping[e[0]], mapping[e[1]])).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.5]
        if values:
            edge_attrs[e] = {KEY: values}
    source = Graph(nodes, edges, node_attrs, edge_attrs)
    return Homomorphism(source, target, mapping)


def random_hom_from(
    rng: random.Random,
    source: Graph,
    prefix: str = "t",
    p_merge: float = 0.25,
    max_extra_nodes: int = 2,
    p_extra_edge: float = 0.2,
    p_extra_attr: float = 0.3,
    injective: bool = False,
) -> Homomorphism:
    """A random homomorphism out of source onto a fresh target graph,
    merging some nodes (unless injective) and adding fresh structure."""
    group_of: dict[str, int] = {}
    group_count = 0
    for u in sorted(source.nodes):
        if not injective and group_count and rng.random() < p_merge:
            group_of[u] = rng.randrange(group_count)
        else:
            group_of[u] = group_count
            group_count += 1
    extra = rng.randint(0, max_extra_nodes)
    nodes = [f"{prefix}{i}" for i in range(group_count + extra)]
    mapping = {u: nodes[g] for u, g in group_of.items()}
    edges = {(mapping[u], mapping[v]) for (u, v) in source.edges}
    for u in nodes:
        for v in nodes:
            if rng.random() < p_extra_edge:
                edges.add((u, v))
    node_attrs: dict[str, dict] = {}
    for u in sorted(source.nodes):
        merged = node_attrs.setdefault(mapping[u], {KEY: set()})
        merged[KEY] |= set(source.attrs_of(u).get(KEY, ()))
    for u in nodes:
        extra_vals = {a for a in ALPHABET if rng.random() < p_extra_attr}
        if extra_vals:
            node_attrs.setdefault(u, {KEY: set()})[KEY] |= extra_vals
    edge_attrs: dict[tuple, dict] = {}
    for e in sorted(source.edges):
        img = (mapping[e[0]], mapping[e[1]])
        merged = edge_attrs.setdefault(img, {KEY: set()})
        merged[KEY] |= set(source.attrs_of(e).get(KEY, ()))
    target = Graph(nodes, edges, node_attrs, edge_attrs)
    return Homomorphism(source, target, mapping)


def random_mono_into(rng: random.Random, g: Graph, prefix: str = "p") -> Homomorphism:
    """A random mono into g: a renamed sub-pattern of g."""
    chosen = [n for n in sorted(g.nodes) if rng.random() < 0.6]
    names = {n: f"{prefix}{i}" for i, n in enumerate(chosen)}
    edges = []
    for (u, v) in sorted(g.edges):
        if u in names and v in names and rng.random() < 0.7:
            edges.append((names[u], names[v]))
    node_attrs = {}
    for n in chosen:
        avail = sorted(g.attrs_of(n).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.5]
        if values:
            node_attrs[names[n]] = {KEY: values}
    edge_attrs = {}
    for (u, v) in edges:
        orig = next(
            (a, b) for a, b in g.edges if names.get(a) == u and names.get(b) == v
        )
        avail = sorted(g.attrs_of(orig).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.5]
        if values:
            edge_attrs[(u, v)] = {KEY: values}
    pattern = Graph(names.values(), edges, node_attrs, edge_attrs)
    return Homomorphism(pattern, g, {names[n]: n for n in chosen})


# -- random valid hierarchies -------------------------------------------------


def random_hierarchy(
    rng: random.Random, max_objects: int = 6, max_edges: int = 8
) -> Hierarchy:
    """A random valid hierarchy built over a shared universe graph.

    Object i carries the nodes (u, c) for u in the universe and
    c < multiplicity(i); arrows collapse the copy index modulo the target's
    multiplicity, so all parallel path composites agree by construction.
    Edge sets and attribute sets shrink monotonically against the arrows.
    """
    count = rng.randint(2, max_objects)
    names = [f"g{i}" for i in range(count)]
    possible = [
        (names[i], names[j]) for i in range(count) for j in range(i + 1, count)
    ]
    rng.shuffle(possible)
    shape_edges = sorted(possible[: rng.randint(1, min(max_edges, len(possible)))])

    universe_nodes = [f"u{i}" for i in range(rng.randint(1, 3))]
    universe_edges = [
        (a, b) for a in universe_nodes for b in universe_nodes if rng.random() < 0.5
    ]
    universe_attrs = {u: set(ALPHABET) for u in universe_nodes}
    universe_edge_attrs = {e: set(ALPHABET) for e in universe_edges}

    succ = {n: [b for (a, b) in shape_edges if a == n] for n in names}

    depth: dict[str, int] = {}

    def longest(n: str) -> int:
        if n not in depth:
            depth[n] = 1 + max((longest(m) for m in succ[n]), default=-1)
        return depth[n]

    for n in names:
        longest(n)
    mult = {n: 2 ** min(depth[n], 2) for n in names}

    edge_sets: dict[str, set] = {}
    attr_sets: dict[str, dict] = {}
    edge_attr_sets: dict[str, dict] = {}
    for n in sorted(names, key=lambda m: depth[m]):  # sinks first
        if succ[n]:
            allowed_edges = set.intersection(*(edge_sets[m] for m in succ[n]))
            allowed_attrs = {
                u: set.intersection(*(attr_sets[m][u] for m in succ[n]))
                for u in universe_nodes
            }
            allowed_edge_attrs = {
                e: set.intersection(*(edge_attr_sets[m][e] for m in succ[n]))
                for e in universe_edges
            }
        else:
            allowed_edges = set(universe_edges)
            allowed_attrs = universe_attrs
            allowed_edge_attrs = universe_edge_attrs
        edge_sets[n] = {e for e in sorted(allowed_edges) if rng.random() < 0.8}
        attr_sets[n] = {
            u: {a for a in sorted(allowed_attrs[u]) if rng.random() < 0.7}
            for u in universe_nodes
        }
        edge_attr_sets[n] = {
            e: {a for a in sorted(allowed_edge_attrs[e]) if rng.random() < 0.7}
            for e in universe_edges
        }

    h = Hierarchy()
    objects: dict[str, Graph] = {}
    for n in names:
        nodes = [f"{u}x{c}" for u in universe_nodes for c in range(mult[n])]
        edges = [
            (f"{u}x{c}", f"{v}x{d}")
            for (u, v) in edge_sets[n]
            for c in range(mult[n])
            for d in range(mult[n])
        ]
        node_attrs = {
            f"{u}x{c}": {KEY: attr_sets[n][u]}
            for u in universe_nodes
            for c in range(mult[n])
            if attr_sets[n][u]
        }
        edge_attrs = {
            (f"{u}x{c}", f"{v}x{d}"): {KEY: edge_attr_sets[n][(u, v)]}
            for (u, v) in edge_sets[n]
            for c in range(mult[n])
            for d in range(mult[n])
            if edge_attr_sets[n][(u, v)]
        }
        objects[n] = Graph(nodes, edges, node_attrs, edge_attrs)
        h = h.add_object(n, objects[n])
    for (a, b) in shape_edges:
        mapping = {
            f"{u}x{c}": f"{u}x{c % mult[b]}"
            for u in universe_nodes
            for c in range(mult[a])
        }
        h = h.add_typing(a, b, Homomorphism(objects[a], objects[b], mapping))
    return h


def random_forward_plan(
    rng: random.Random, h: Hierarchy, origin: str
) -> PropagationPlan:
    """A consistent forward plan at origin: a rule adding fresh elements and
    possibly merging same-typed matched nodes, with a relation obtained by
    restricting one global strictness choice to every affected object."""
    g0 = h.graph(origin)
    match = random_mono_into(rng, g0)
    lhs = match.source
    to_merge = None
    same_type = {}
    for p in sorted(lhs.nodes):
        same_type.setdefault(match[p].rsplit("x", 1)[0], []).append(p)
    mergeable = [group for group in same_type.values() if len(group) >= 2]
    if mergeable and rng.random() < 0.5:
        to_merge = rng.choice(mergeable)[:2]

    added = [f"a{i}" for i in range(rng.randint(1, 2))]
    rhs_nodes = []
    mapping = {}
    for p in sorted(lhs.nodes):
        if to_merge and p in to_merge:
            mapping[p] = f"{to_merge[0]}_{to_merge[1]}"
        else:
            mapping[p] = p
        rhs_nodes.append(mapping[p])
    rhs_nodes.extend(added)
    rhs_node_attrs = {}
    for p in sorted(lhs.nodes):
        attrs = lhs.attrs_of(p).get(KEY, frozenset())
        if attrs:
            prev = rhs_node_attrs.setdefault(mapping[p], {KEY: set()})
            prev[KEY] |= set(attrs)
    rhs_edges = {(mapping[u], mapping[v]) for (u, v) in lhs.edges}
    rhs_edge_attrs = {}
    for e in sorted(lhs.edges):
        img = (mapping[e[0]], mapping[e[1]])
        prev = rhs_edge_attrs.setdefault(img, {KEY: set()})
        prev[KEY] |= set(lhs.attrs_of(e).get(KEY, ()))
    rhs = Graph(set(rhs_nodes), rhs_edges, rhs_node_attrs, rhs_edge_attrs)
    rule = Homomorphism(lhs, rhs, mapping)

    sub = h.forward_subgraph(origin)
    relations: dict[str, dict[str, str]] = {}
    strict_added = [a for a in added if rng.random() < 0.5]
    if strict_added:
        universe_nodes = sorted({n.rsplit("x", 1)[0] for n in g0.nodes})
        # one global strictness choice, restricted to every affected object
        assignment = {a: f"{rng.choice(universe_nodes)}x0" for a in strict_added}
        for name in sub.nodes():
            if name != origin:
                relations[name] = dict(assignment)
    return build_relation_plan(h, origin, rule, match, FORWARD, relations)


def random_backward_plan(
    rng: random.Random, h: Hierarchy, origin: str, partial: bool = False
) -> PropagationPlan:
    """A consistent backward plan at origin: a rule cloning one matched node
    and possibly deleting another, refined strictly (with one global copy
    choice) or canonically. With `partial`, the origin's direct
    predecessors instead relate a proper subset of the clone's instances to
    drawn copies, which derives clean-up deletions there (such a plan may
    fail the composability check)."""
    g0 = h.graph(origin)
    match = random_mono_into(rng, g0)
    lhs = match.source
    lhs_nodes = sorted(lhs.nodes)
    clone = rng.choice(lhs_nodes) if lhs_nodes else None
    deletable = [n for n in lhs_nodes if n != clone]
    delete = rng.choice(deletable) if deletable and rng.random() < 0.4 else None

    src_nodes = []
    mapping = {}
    for p in lhs_nodes:
        if p == delete:
            continue
        if p == clone:
            for c in (f"{p}_c1", f"{p}_c2"):
                src_nodes.append(c)
                mapping[c] = p
        else:
            src_nodes.append(p)
            mapping[p] = p
    src_edges = []
    for (u, v) in sorted(lhs.edges):
        for uu in [k for k in src_nodes if mapping[k] == u]:
            for vv in [k for k in src_nodes if mapping[k] == v]:
                if rng.random() < 0.8:
                    src_edges.append((uu, vv))
    src_attrs = {}
    for k in src_nodes:
        avail = sorted(lhs.attrs_of(mapping[k]).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.7]
        if values:
            src_attrs[k] = {KEY: values}
    src_edge_attrs = {}
    for e in src_edges:
        avail = sorted(lhs.attrs_of((mapping[e[0]], mapping[e[1]])).get(KEY, ()))
        values = [a for a in avail if rng.random() < 0.7]
        if values:
            src_edge_attrs[e] = {KEY: values}
    source = Graph(src_nodes, src_edges, src_attrs, src_edge_attrs)
    rule = Homomorphism(source, lhs, mapping)

    relations: dict[str, dict[str, str]] = {}
    if partial and clone:
        for name in h.predecessors(origin):
            typing = h.composed_typing(name, origin)
            instances = [n for n in sorted(h.graph(name).nodes) if typing[n] == match[clone]]
            related = rng.sample(instances, max(len(instances) - 1, 0))
            if related:
                relations[name] = {n: rng.choice([f"{clone}_c1", f"{clone}_c2"]) for n in related}
    elif clone and rng.random() < 0.5:
        copy = f"{clone}_c1"  # one global choice
        sub = h.backward_subgraph(origin)
        for name in sub.nodes():
            if name == origin:
                continue
            typing = h.composed_typing(name, origin)
            instances = {
                n: copy
                for n in sorted(h.graph(name).nodes)
                if typing[n] == match[clone]
            }
            if instances:
                relations[name] = instances
    return build_relation_plan(h, origin, rule, match, BACKWARD, relations)


def typed_attrs(attrs) -> dict:
    """attrs with each value paired with its type, so that 1 and True, or 0
    and False, differ."""
    return {k: frozenset((type(v), v) for v in vs) for k, vs in attrs.items()}


def attr_snapshot(*graphs) -> tuple:
    """Each attribute map of the graphs with a copy of it, and each
    attribute dict in them with a deep copy of it, taken before a
    construction or propagation."""
    maps = [(m, dict(m)) for g in graphs for m in (g.node_attrs, g.edge_attrs)]
    return maps, [(attrs, copy.deepcopy(attrs)) for m, _ in maps for attrs in m.values()]


def assert_attrs_unchanged(snapshot) -> None:
    """Nothing was written into an attribute map or dict of the snapshot:
    each map holds the same dict objects, each dict the same typed values."""
    maps, dicts = snapshot
    for mapping, before in maps:
        assert mapping.keys() == before.keys()
        assert all(mapping[key] is attrs for key, attrs in before.items())
    for attrs, before in dicts:
        assert typed_attrs(attrs) == typed_attrs(before)
