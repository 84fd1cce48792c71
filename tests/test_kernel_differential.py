"""Differential tests: the index-driven kernels against the original pair-loop
kernels kept in reference_kernels.py.

Each test runs both versions on the same seeded random inputs and requires
byte-identical results: the canonical JSON of every constructed graph, every
returned node map, every violation message and the order of the match list.
Every graph a construction builds must also be normalized exactly as the
public `Graph` constructor would leave it, since the constructions build
their results without that normalization pass, and its sorted node ids and
edges must be the sorted sets, also where `pushout` and `final_pbc` carry
them over from a host that held its orders as lists or as a file listed
them (in order, or shuffled with a repeat). A trace (pushout's `from_b`,
final_pbc's `project`) holds only the images at the nodes the construction
touched: read node by node before its map is built, and once built, it
must give the reference's map. No construction may write into an attribute
dict or map of its inputs, and a result must hold an input's dict itself
exactly where the attribute algebra would give back a dict equal to it.
"""

import functools
import random
import sys
import threading
from collections import Counter

import pytest

import reference_kernels as ref
import sqpo.rules
from generators import (
    assert_attrs_unchanged,
    attr_snapshot,
    random_graph,
    random_hom_from,
    random_hom_into,
    random_mono_into,
    typed_attrs,
)
from paper_oracles import verify_final_pbc_up, verify_pullback_up, verify_pushout_up
from sqpo import (
    EXPANSIVE,
    RESTRICTIVE,
    CloneNode,
    DeleteNode,
    Graph,
    Hierarchy,
    Homomorphism,
    PullbackResult,
    Rule,
    build_rule,
    final_pbc,
    find_matches,
    graph_to_json,
    pullback,
    pushout,
)
from sqpo.graphs import (
    _Listed,
    _Trace,
    attrs_union,
    dumps_canonical,
    homomorphism_violation,
    value_sort_key,
)
from sqpo.hierarchy import _acyclic, _adjacency, _waves


def _canonical(g: Graph) -> str:
    return dumps_canonical(graph_to_json(g))


def _same_hom(new: Homomorphism, old: Homomorphism) -> None:
    assert _canonical(new.source) == _canonical(old.source)
    assert _canonical(new.target) == _canonical(old.target)
    assert new.node_map == old.node_map


def _assert_normalized(g: Graph) -> None:
    """g equals its rebuild by the public constructor, and every attribute
    dict is non-empty with str keys and non-empty frozenset values (a set
    or an empty dict would compare equal or vanish in canonical JSON)."""
    assert g == Graph(g.nodes, g.edges, g.node_attrs, g.edge_attrs)  # attrs included
    assert isinstance(g.nodes, frozenset) and isinstance(g.edges, frozenset)
    for attrs in [*g.node_attrs.values(), *g.edge_attrs.values()]:
        assert attrs and all(
            isinstance(k, str) and type(v) is frozenset and v for k, v in attrs.items()
        )


def _host_orders(host: Graph) -> None:
    """Give host's sorted node ids and edges one of four states, chosen by
    its size: as they are (unset, unless an earlier case read them),
    sorted lists, or deferred lists as a file listed them, in order or
    shuffled with a repeat. `pushout` and `final_pbc` carry the last three
    over to their apex."""
    state = (len(host.nodes) + len(host.edges)) % 4
    if state == 1:
        host._node_order(), host._edge_order()
    elif state > 1:
        for slot, ids in (("_order", host.nodes), ("_sorted_edges", host.edges)):
            listed = sorted(ids)
            if state == 3 and listed:
                listed = random.Random(len(listed)).sample(listed, len(listed)) + listed[-1:]
            object.__setattr__(host, slot, _Listed(listed))


def _assert_sorted_orders(g: Graph, host: Graph | None = None) -> None:
    """g's sorted node ids and edges are the sorted sets. Built from a host
    that held an order as a list, g holds a deferred order of that kind
    until it is read."""
    for slot, ids, read in (("_order", g.nodes, g._node_order), ("_sorted_edges", g.edges, g._edge_order)):
        if host is not None and isinstance(getattr(host, slot, None), list):
            assert type(getattr(g, slot)) is tuple
        assert read() == sorted(ids)


def _same_trace(new: Homomorphism, old: Homomorphism) -> None:
    """new is a lazy trace that equals the reference kernel's eager map:
    read node by node through its delta without building its map, as the
    old whole-host identity map re-set at the delta, and once built."""
    assert isinstance(new, _Trace) and not ref.node_map_built(new)
    nodes = new.source.nodes
    assert new._delta.keys() <= nodes
    assert {n: new[n] for n in nodes} == old.node_map
    assert ref.identity_except(nodes, new._delta) == old.node_map
    assert not ref.node_map_built(new)
    _same_hom(new, old)
    assert ref.node_map_built(new)


def _assert_same_pullback(f, g):
    snapshot = attr_snapshot(f.source, f.target, g.source)
    new, old = pullback(f, g), ref.pullback(f, g)
    assert_attrs_unchanged(snapshot)
    _assert_sorted_orders(new.apex)
    assert _canonical(new.apex) == _canonical(old.apex)
    _same_hom(new.to_a, old.to_a)
    _same_hom(new.to_b, old.to_b)
    _assert_normalized(new.apex)
    return new


def _assert_same_pbc(f, m):
    snapshot = attr_snapshot(f.source, f.target, m.target)
    _host_orders(m.target)
    new, old = final_pbc(f, m), ref.final_pbc(f, m)
    assert_attrs_unchanged(snapshot)
    _assert_sorted_orders(new.apex, m.target)
    assert _canonical(new.apex) == _canonical(old.apex)
    _same_hom(new.embed, old.embed)
    _same_trace(new.project, old.project)
    _assert_normalized(new.apex)
    return new


def _assert_same_pushout(f, g):
    snapshot = attr_snapshot(f.source, f.target, g.target)
    _host_orders(f.target)
    new, old = pushout(f, g), ref.pushout(f, g)
    assert_attrs_unchanged(snapshot)
    _assert_sorted_orders(new.apex, f.target)
    assert _canonical(new.apex) == _canonical(old.apex)
    _same_trace(new.from_b, old.from_b)
    _same_hom(new.from_c, old.from_c)
    _assert_normalized(new.apex)
    assert verify_pushout_up(new, f, g)
    # the edges it built are every apex edge at an image of f or of C, or
    # at a B node whose id changed
    b_map = old.from_b.node_map
    # it lists the B nodes whose id changed
    assert new._moved == {b for b, n in b_map.items() if n != b}
    built = {b_map[f[a]] for a in f.source.nodes}.union(old.from_c.node_map.values())
    built.update(n for b, n in b_map.items() if n != b)
    assert sorted(new._rebuilt) == sorted(e for e in new.apex.edges if built.intersection(e))
    # it builds again only the edges at moved nodes and C's edge images: every
    # other edge keeps its id and B's attribute dict
    c_images = {new.from_c.edge_image(e) for e in g.target.edges}
    for e, attrs in f.target.edge_attrs.items():
        if new.from_b.edge_image(e) == e and e not in c_images:
            assert new.apex.edge_attrs[e] is attrs
    return new


def _match_maps(matches):
    return [(m.kind, m.instance.node_map) for m in matches]


@pytest.mark.parametrize("seed", range(4))
def test_pullback_matches_reference(seed):
    rng = random.Random(9100 + seed)
    for _ in range(60):
        c = random_graph(rng, max_nodes=5, min_nodes=1, p_edge=0.45, prefix="c")
        f = random_hom_into(rng, c, max_nodes=6, prefix="a")
        g = random_hom_into(rng, c, max_nodes=6, prefix="b")
        res = _assert_same_pullback(f, g)
        assert verify_pullback_up(res, f, g)


def test_pullback_of_typing_against_mono_matches_reference():
    """The backward-propagation shape: an instance typing pulled back along
    a mono into its type graph."""
    rng = random.Random(9200)
    for _ in range(60):
        t = random_graph(rng, max_nodes=4, min_nodes=1, p_edge=0.5, prefix="t")
        typing = random_hom_into(rng, t, max_nodes=8, prefix="g")
        mono = random_mono_into(rng, t)
        res = _assert_same_pullback(typing, mono)
        assert verify_pullback_up(res, typing, mono)


def test_pullback_id_collisions_match_reference():
    """Pair ids that collide ("a⋈b" spelled two ways) get the same counter
    suffixes as before."""
    c = Graph(["c"], [("c", "c")])
    a = Graph(["x", "x⋈y"], [("x", "x⋈y"), ("x⋈y", "x⋈y")])
    b = Graph(["y⋈z", "z", "y"], [("y", "z"), ("z", "z")])
    f = Homomorphism(a, c, {n: "c" for n in a.nodes})
    g = Homomorphism(b, c, {n: "c" for n in b.nodes})
    res = _assert_same_pullback(f, g)
    assert len(res.apex.nodes) == 6
    assert any("#" in n for n in res.apex.nodes)


@pytest.mark.parametrize("seed", range(4))
def test_final_pbc_matches_reference(seed):
    rng = random.Random(9300 + seed)
    for _ in range(60):
        l_graph = random_graph(rng, max_nodes=4, min_nodes=0, p_edge=0.45, prefix="l")
        f = random_hom_into(rng, l_graph, max_nodes=6, prefix="k")
        m = random_hom_from(rng, l_graph, prefix="g", injective=True, max_extra_nodes=3)
        res = _assert_same_pbc(f, m)
        assert verify_final_pbc_up(res, f, m)
        assert verify_pullback_up(PullbackResult(f.source, f, res.embed), m, res.project)


def test_final_pbc_clone_of_self_loop_matches_reference():
    """Cloning a node with an attributed self-loop: the interface keeps only
    some of the loops and cross edges between the copies."""
    g_graph = Graph(
        ["a", "b", "c"],
        [("a", "a"), ("a", "b"), ("b", "a"), ("c", "a")],
        {"a": {"k": ["x", "y"]}, "b": {"k": ["z"]}},
        {("a", "a"): {"k": ["x", "y"]}, ("a", "b"): {"k": ["z"]}},
    )
    l_graph = Graph(["la"], [("la", "la")], {"la": {"k": ["x", "y"]}},
                    {("la", "la"): {"k": ["x", "y"]}})
    for kept in ([("k1", "k1")], [("k1", "k2"), ("k2", "k2")], []):
        k_graph = Graph(
            ["k1", "k2"],
            kept,
            {"k1": {"k": ["x"]}},
            {e: {"k": ["y"]} for e in kept[:1]},
        )
        f = Homomorphism(k_graph, l_graph, {"k1": "la", "k2": "la"})
        m = Homomorphism(l_graph, g_graph, {"la": "a"})
        res = _assert_same_pbc(f, m)
        assert verify_final_pbc_up(res, f, m)


def test_final_pbc_side_effect_deletion_matches_reference():
    """Deleting matched nodes removes their incident unmatched edges, and
    clones sitting next to a deleted node keep their other edges."""
    g_graph = Graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("d", "b"), ("b", "b")],
        edge_attrs={("d", "b"): {"k": ["x"]}, ("b", "b"): {"k": ["y"]}},
    )
    l_graph = Graph(["la", "lb"], [("la", "lb")])
    k_graph = Graph(["k1", "k2"])
    f = Homomorphism(k_graph, l_graph, {"k1": "lb", "k2": "lb"})
    m = Homomorphism(l_graph, g_graph, {"la": "a", "lb": "b"})
    res = _assert_same_pbc(f, m)
    assert verify_final_pbc_up(res, f, m)
    assert "a" not in res.project.node_map.values()


# ids that fused classes ("a_b"), counter suffixes ("a_b#2") and new nodes
# of C can collide with
_COLLIDING_IDS = (
    "a", "b", "c", "a_b", "a_b#2", "a_b#2#2", "a#2", "b#2", "c#2", "a_c", "b_c", "a_b_c",
)


def _graph_over(rng, ids) -> Graph:
    nodes = list(ids)
    edges = [(u, v) for u in nodes for v in nodes if rng.random() < 0.3]
    node_attrs = {n: {"k": rng.sample("xyz", rng.randint(0, 2))} for n in nodes}
    edge_attrs = {e: {"k": rng.sample("xyz", rng.randint(0, 2))} for e in edges}
    return Graph(nodes, edges, node_attrs, edge_attrs)


def _colliding_span(rng):
    """A random span A -> B, A -> C whose B and C ids are drawn from
    _COLLIDING_IDS, so fused and new classes take ids of untouched B nodes."""
    b = _graph_over(rng, rng.sample(_COLLIDING_IDS, rng.randint(0, len(_COLLIDING_IDS))))
    c = _graph_over(rng, rng.sample(_COLLIDING_IDS, rng.randint(0, 6)))
    a_nodes = [f"s{i}" for i in range(rng.randint(0, 5))] if b.nodes and c.nodes else []
    f_map = {x: rng.choice(sorted(b.nodes)) for x in a_nodes}
    g_map = {x: rng.choice(sorted(c.nodes)) for x in a_nodes}
    a_edges = [
        (u, v)
        for u in a_nodes
        for v in a_nodes
        if (f_map[u], f_map[v]) in b.edges
        and (g_map[u], g_map[v]) in c.edges
        and rng.random() < 0.7
    ]
    a = Graph(a_nodes, a_edges)
    return Homomorphism(a, b, f_map), Homomorphism(a, c, g_map)


@pytest.mark.parametrize("seed", range(4))
def test_pushout_of_colliding_ids_matches_reference(seed):
    rng = random.Random(9400 + seed)
    renamed = 0
    for _ in range(250):
        f, g = _colliding_span(rng)
        res = _assert_same_pushout(f, g)
        touched = {f[a] for a in f.source.nodes}
        renamed += any(res.from_b[b] != b for b in f.target.nodes - touched)
    assert renamed  # some untouched B node lost its id to an earlier class


@pytest.mark.parametrize("seed", range(3))
def test_pushout_of_generic_spans_matches_reference(seed):
    rng = random.Random(9500 + seed)
    for _ in range(60):
        a = random_graph(rng, max_nodes=5, p_edge=0.3, prefix="a")
        f = random_hom_from(rng, a, prefix="b", max_extra_nodes=4)
        g = random_hom_from(rng, a, prefix="c")
        _assert_same_pushout(f, g)


def _span_onto_host_edges(rng):
    """A span A -> B, A -> C with A a subgraph of B and both arrows inclusions.
    C adds a node and edges to A, each edge with attributes of its own, so
    many C edges land on B edges whose endpoints keep their ids."""
    b = _graph_over(rng, [f"b{i}" for i in range(rng.randint(1, 6))])
    a_nodes = rng.sample(sorted(b.nodes), rng.randint(1, len(b.nodes)))
    a_edges = [(u, v) for (u, v) in sorted(b.edges) if u in a_nodes and v in a_nodes]
    c_nodes = [*a_nodes, "new"]
    c_edges = set(a_edges).union(
        (u, v) for u in c_nodes for v in c_nodes if rng.random() < 0.3
    )
    edge_attrs = {e: {"k": rng.sample("xyz", rng.randint(0, 2))} for e in c_edges}
    c = Graph(c_nodes, c_edges, {"new": {"k": ["z"]}}, edge_attrs)
    a = Graph(a_nodes, a_edges)
    inclusion = {n: n for n in a_nodes}
    return Homomorphism(a, b, inclusion), Homomorphism(a, c, inclusion)


def test_pushout_unites_c_edges_with_the_host_edges_they_land_on():
    """Many attributed C edges land on attributed host edges that keep
    their ids; the apex edge must unite both, as the reference's does."""
    rng = random.Random(9550)
    landed = 0
    for _ in range(200):
        f, g = _span_onto_host_edges(rng)
        res = _assert_same_pushout(f, g)
        b, c = f.target, g.target
        landed += sum(1 for e in c.edges if c.attrs_of(e) and b.attrs_of(e))
        assert all(res.from_c.edge_image(e) == e for e in c.edges if e in b.edges)
    assert landed > 100  # attributed C edges on attributed host edges


def test_pushout_renames_untouched_nodes_in_class_order():
    """x and y fuse into a class whose id is "x_y". The untouched host node
    "x_y" sorts after it and becomes "x_y#2", which in turn pushes the
    untouched "x_y#2" to "x_y#2#2"; C's new node "n" sorts after the host's
    "n" and takes "n#2". Edges and attributes follow the renamed nodes."""
    b = Graph(
        ["x", "y", "x_y", "x_y#2", "n", "z"],
        [("x_y", "x_y#2"), ("x_y#2", "z"), ("z", "n"), ("x", "x_y")],
        {"x_y": {"k": ["p"]}, "x_y#2": {"k": ["q"]}, "x": {"k": ["r"]}},
        {("x_y", "x_y#2"): {"k": ["e"]}},
    )
    c = Graph(["c", "n"], [("c", "n")], {"n": {"k": ["s"]}})
    a = Graph(["a1", "a2"])
    f = Homomorphism(a, b, {"a1": "x", "a2": "y"})
    g = Homomorphism(a, c, {"a1": "c", "a2": "c"})
    res = _assert_same_pushout(f, g)
    assert res.from_b.node_map == {
        "x": "x_y", "y": "x_y", "x_y": "x_y#2", "x_y#2": "x_y#2#2", "n": "n", "z": "z",
    }
    assert res.from_c.node_map == {"c": "x_y", "n": "n#2"}
    assert res.apex.attrs_of("x_y#2") == {"k": frozenset({"p"})}
    assert res.apex.attrs_of(("x_y#2", "x_y#2#2")) == {"k": frozenset({"e"})}
    assert ("x_y#2#2", "z") in res.apex.edges and ("x_y", "n#2") in res.apex.edges


# host ids that clone copies ("a∥k0") and their counter suffixes collide with
_CLONE_IDS = ("a", "b", "c", "a∥k0", "a∥k1", "b∥k0", "b∥k1", "a∥k0#2", "a∥k1#2")


@pytest.mark.parametrize("seed", range(3))
def test_final_pbc_of_colliding_ids_matches_reference(seed):
    """Host nodes named like clone copies: a copy may take the id of another
    matched node, whose edges and attributes must not mix with its own."""
    rng = random.Random(9600 + seed)
    collided = 0
    for _ in range(150):
        g_graph = _graph_over(rng, rng.sample(_CLONE_IDS, rng.randint(1, len(_CLONE_IDS))))
        m = random_mono_into(rng, g_graph)
        f = random_hom_into(rng, m.source, max_nodes=5, prefix="k")
        res = _assert_same_pbc(f, m)
        assert verify_final_pbc_up(res, f, m)
        matched = {m[l] for l in m.source.nodes}
        copies = [res.embed[k] for k in f.source.nodes]
        collided += any(d in matched and res.project[d] != d for d in copies)
    assert collided  # some copy took the id of another matched node


# -- attribute pass-through ---------------------------------------------------

# each instance draws every attribute dict as a variant of one of these, so
# any two dicts are identical, equal, of 1 against True, nested or disjoint
_BASES = (
    {"k": frozenset({1, "x"})},
    {"k": frozenset({0, True}), "j": frozenset({"y"})},
    {"j": frozenset({False})},
)
# how often each variant of a dict is drawn
_VARIANTS = {
    "same": 6, "equal": 2, "retyped": 2, "subset": 2, "superset": 2, "disjoint": 1, "empty": 2,
}
# the variants that contain the dict, as an arrow's target must at an image
_COVERING = {"same": 6, "equal": 2, "retyped": 2, "superset": 2}
# the variants that the dict contains, as an arrow's source must
_CONTAINED = {"same": 6, "equal": 2, "retyped": 2, "subset": 2, "empty": 2}


def _retyped(v):
    """The equal value of the other type (True for 1, 0 for False), or v."""
    if isinstance(v, bool):
        return int(v)
    return bool(v) if isinstance(v, int) and v in (0, 1) else v


def _variant(rng, base: dict, kinds: dict) -> dict:
    """One of `kinds` drawn by weight: base itself, an equal copy, an equal
    copy whose 0, 1, False and True take the other type, base less its
    last value under one key, base with one more key, a dict with no key of
    base, or an empty dict."""
    kind = rng.choices(list(kinds), weights=list(kinds.values()))[0]
    if kind == "same" or not base and kind != "superset":
        return base
    if kind == "equal":
        return dict(base)
    if kind == "retyped":
        return {k: frozenset(map(_retyped, vs)) for k, vs in base.items()}
    if kind == "subset":
        key = rng.choice(sorted(base))
        kept = frozenset(sorted(base[key], key=value_sort_key)[:-1])
        return {k: kept if k == key else vs for k, vs in base.items() if k != key or kept}
    if kind == "superset":
        key = min(set("stu") - base.keys())
        return {**base, key: frozenset({rng.choice((1, True, "z"))})}
    if kind == "disjoint":
        return {"d": frozenset({rng.choice((0, False, "w"))})}
    return {}


def _reattributed(g: Graph, draw) -> Graph:
    """g with every node and edge x, in sorted order, carrying draw(x)."""
    node_attrs = {n: a for n in sorted(g.nodes) if (a := draw(n))}
    edge_attrs = {e: a for e in sorted(g.edges) if (a := draw(e))}
    return Graph._of(g.nodes, g.edges, node_attrs, edge_attrs)


def _covering(rng, h: Homomorphism, draw):
    """A draw for the elements of h's target, so that h stays a
    homomorphism: at an image, a covering variant of the dict all its
    preimages' dicts equal, or of their union; elsewhere draw(y)."""
    preimages: dict = {}
    for x in sorted(h.source.nodes):
        preimages.setdefault(h[x], []).append(h.source.attrs_of(x))
    for e in sorted(h.source.edges):
        preimages.setdefault(h.edge_image(e), []).append(h.source.attrs_of(e))

    def covering(y):
        if y not in preimages:
            return draw(y)
        dicts = preimages[y]
        if any(d != dicts[0] for d in dicts):
            return _variant(rng, functools.reduce(attrs_union, dicts), _COVERING)
        return _variant(rng, dicts[0], _COVERING)

    return covering


def _passed(attrs, got, seen: Counter, tie: bool = False) -> None:
    """got is attrs itself (None when attrs is empty)."""
    if attrs:
        assert got is attrs
        seen["shared"] += 1
        seen["shared 1/True"] += tie
    else:
        assert got is None


def _computed(dicts, got, seen: Counter) -> None:
    """got is a new dict, not one of dicts, which the algebra combined."""
    if any(dicts):
        assert all(got is not d for d in dicts)
        seen["computed"] += 1


def _united(dicts, got, seen: Counter) -> None:
    """got unites dicts in order: it is the first non-empty one itself when
    every other is empty or equal to it, else none of them."""
    present = [d for d in dicts if d]
    if all(d == present[0] for d in present):
        tie = any(typed_attrs(d) != typed_attrs(present[0]) for d in present)
        _passed(present[0] if present else {}, got, seen, tie)
    else:
        _computed(present, got, seen)


def _check_pullback_sharing(f, g, res, seen: Counter) -> None:
    """A pair's attributes are g's source dict itself when f's source dict
    equals it: of 1 and True, the intersection keeps the second operand's."""
    a, b, apex = f.source, g.source, res.apex
    pairs = [(p, res.to_a[p], res.to_b[p], apex.node_attrs) for p in apex.nodes]
    pairs += [
        (e, res.to_a.edge_image(e), res.to_b.edge_image(e), apex.edge_attrs)
        for e in apex.edges
    ]
    for p, x, y, attrs in pairs:
        x, y = a.attrs_of(x), b.attrs_of(y)
        if x == y:
            _passed(y, attrs.get(p), seen, typed_attrs(x) != typed_attrs(y))
        else:
            _computed([x, y], attrs.get(p), seen)


def _check_pushout_sharing(f, g, res, seen: Counter) -> None:
    """A class, and an edge, unites its members' dicts in sorted order, B's
    before C's: it holds the first non-empty one itself where the others
    are empty or equal to it."""
    b, c, apex = f.target, g.target, res.apex
    members: dict = {}
    for tag, graph, arrow in (("B", b, res.from_b), ("C", c, res.from_c)):
        for x in sorted(graph.nodes):
            members.setdefault(arrow[x], []).append(graph.attrs_of(x))
        for e in sorted(graph.edges):
            members.setdefault(arrow.edge_image(e), []).append(graph.attrs_of(e))
    for q in apex.nodes:
        _united(members[q], apex.node_attrs.get(q), seen)
    for e in apex.edges:
        _united(members[e], apex.edge_attrs.get(e), seen)


def _check_pbc_sharing(f, m, res, seen: Counter) -> None:
    """A copy holds G's dict itself where its K element carries its L
    image's attributes, or where it lies over no L element; an untouched
    node or edge holds G's dict as it is."""
    k_graph, l_graph, apex = f.source, f.target, res.apex
    copy_of = {d: k for k, d in res.embed.node_map.items()}

    def check(over, k, l, got):
        if l is None or l_graph.attrs_of(l) == k_graph.attrs_of(k):
            _passed(over, got, seen)
        else:
            _computed([over], got, seen)

    for d in apex.nodes:
        k = copy_of.get(d)
        l = None if k is None else f[k]
        check(res.project.target.attrs_of(res.project[d]), k, l, apex.node_attrs.get(d))
    for (d1, d2) in apex.edges:
        k = (copy_of.get(d1), copy_of.get(d2))
        l = None if None in k else (f[k[0]], f[k[1]])
        if l not in l_graph.edges:
            l = None
        over = res.project.target.attrs_of((res.project[d1], res.project[d2]))
        check(over, k, l, apex.edge_attrs.get((d1, d2)))


@pytest.mark.parametrize("seed", range(3))
def test_attribute_pass_through_matches_reference(seed):
    """Pullbacks, pushouts and final pullback complements of random graphs
    whose attribute dicts are variants of one dict: the same object, equal
    copies (also with 1 written True or 0 written False), subsets,
    supersets, disjoint dicts or empty ones, drawn so that every arrow is a
    homomorphism. Each result is byte-identical to the reference's, holds
    an input's dict itself exactly where the algebra would give back a dict
    equal to it, with its values, and leaves every input dict as it was.
    Both paths run, and so does a pass-through across a 1/True tie."""
    rng = random.Random(9700 + seed)
    seen: Counter = Counter()
    for _ in range(80):
        base = rng.choice(_BASES)

        def of_base(x):
            return _variant(rng, base, _VARIANTS)

        def within(target: Graph, h: Homomorphism):
            """Draws a variant that the dict in target at an element's image
            under h contains."""
            return lambda x: _variant(
                rng, target.attrs_of(h.edge_image(x) if isinstance(x, tuple) else h[x]), _CONTAINED
            )

        # A and B draw variants that their C images' dicts contain
        c = random_graph(rng, max_nodes=4, min_nodes=1, p_edge=0.5, prefix="c", p_attr=0)
        f, g = (random_hom_into(rng, c, max_nodes=5, prefix=x) for x in "ab")
        c = _reattributed(c, of_base)
        f, g = (
            Homomorphism._of(_reattributed(h.source, within(c, h)), c, h.node_map) for h in (f, g)
        )
        res = _assert_same_pullback(f, g)
        assert verify_pullback_up(res, f, g)
        _check_pullback_sharing(f, g, res, seen)

        # B and C, at the images of A, draw variants that contain A's dicts
        a = random_graph(rng, max_nodes=4, p_edge=0.4, prefix="a")
        f = random_hom_from(rng, a, prefix="b", max_extra_nodes=3)
        g = random_hom_from(rng, a, prefix="c")
        a = _reattributed(a, of_base)
        f, g = (Homomorphism._of(a, h.target, h.node_map) for h in (f, g))
        f, g = (
            Homomorphism._of(a, _reattributed(h.target, _covering(rng, h, of_base)), h.node_map)
            for h in (f, g)
        )
        _check_pushout_sharing(f, g, _assert_same_pushout(f, g), seen)

        # K draws variants that its L images' dicts contain; G, at the
        # match, variants that contain L's dicts
        l_graph = random_graph(rng, max_nodes=4, p_edge=0.5, prefix="l")
        f = random_hom_into(rng, l_graph, max_nodes=6, prefix="k")
        m = random_hom_from(rng, l_graph, prefix="g", injective=True, max_extra_nodes=3)
        l_graph = _reattributed(l_graph, of_base)
        f = Homomorphism._of(_reattributed(f.source, within(l_graph, f)), l_graph, f.node_map)
        m = Homomorphism._of(l_graph, m.target, m.node_map)
        g_graph = _reattributed(m.target, _covering(rng, m, of_base))
        m = Homomorphism._of(l_graph, g_graph, m.node_map)
        res = _assert_same_pbc(f, m)
        assert verify_final_pbc_up(res, f, m)
        _check_pbc_sharing(f, m, res, seen)
    assert seen["shared"] > 500 and seen["computed"] > 200 and seen["shared 1/True"] > 20, seen


def test_racing_readers_build_equal_trace_maps():
    """Eight threads read the node map of one unbuilt trace at once, after
    a barrier and with a short switch interval: each gets the reference's
    map, whichever build is kept."""
    host = Graph([f"n{i}" for i in range(3000)], [("n0", "n1")])
    pattern = Graph(["x"])
    f = Homomorphism(pattern, host, {"x": "n0"})
    g = Homomorphism(pattern, Graph(["x", "y"], [("x", "y")]), {"x": "x"})
    want = ref.pushout(f, g).from_b.node_map
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            trace = pushout(f, g).from_b
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait(timeout=30)
                seen.append(trace.node_map)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(m == want for m in seen)
            assert trace.node_map == want
    finally:
        sys.setswitchinterval(interval)


def _random_rule(rng, pattern: Graph) -> Rule:
    """The identity rule, or a rule that clones or deletes a pattern node,
    so restrictive and expansive patterns differ."""
    nodes = sorted(pattern.nodes)
    choice = rng.randrange(3)
    if choice == 0 or not nodes:
        return Rule.identity_rule(pattern)
    node = rng.choice(nodes)
    if choice == 1:
        return build_rule(pattern, [CloneNode(node, f"{node}_1", f"{node}_2")])
    return build_rule(pattern, [DeleteNode(node)])


@pytest.mark.parametrize("seed", range(4))
def test_find_matches_matches_reference(seed):
    rng = random.Random(9400 + seed)
    for _ in range(40):
        host = random_graph(rng, max_nodes=7, min_nodes=1, p_edge=0.35, prefix="h")
        if rng.random() < 0.5:
            pattern = random_mono_into(rng, host).source
        else:
            pattern = random_graph(rng, max_nodes=3, p_edge=0.4, prefix="p")
        rule = _random_rule(rng, pattern)
        for kind in (RESTRICTIVE, EXPANSIVE):
            new = find_matches(rule, host, kind)
            assert _match_maps(new) == _match_maps(ref.find_matches(rule, host, kind))
            side = rule.lhs if kind == RESTRICTIVE else rule.interface
            if side.nodes:
                p = rng.choice(sorted(side.nodes))
                anchor = {p: rng.choice(sorted(host.nodes))}
                assert _match_maps(find_matches(rule, host, kind, anchor)) == _match_maps(
                    ref.find_matches(rule, host, kind, anchor)
                )


def test_find_matches_dense_host_matches_reference():
    """Patterns with self-loops, two-cycles and attributed edges in a dense
    host, where neighbour narrowing prunes most candidates."""
    rng = random.Random(9500)
    for _ in range(30):
        host = random_graph(rng, max_nodes=8, min_nodes=4, p_edge=0.5, prefix="h")
        pattern = random_graph(rng, max_nodes=4, min_nodes=2, p_edge=0.5, prefix="p")
        rule = Rule.identity_rule(pattern)
        new = find_matches(rule, host)
        assert _match_maps(new) == _match_maps(ref.find_matches(rule, host))


_KEYS = ("a", "b", "c")
_VALUES = (0, 1, True, False, 2, "x", "y")


def _draw_attrs(rng, p_key: float) -> dict:
    """Each key with probability p_key, holding one or two values among ints
    and bools that are equal in Python (1 == True, 0 == False) and strings;
    the public constructor keeps one value of a colliding pair."""
    return {k: rng.sample(_VALUES, rng.randint(1, 2)) for k in _KEYS if rng.random() < p_key}


def _attributed_pair(rng):
    """A host whose nodes carry several keys or none, and a pattern whose
    nodes want a few of them, nothing, or a value no host node carries."""
    nodes = [f"h{i}" for i in range(rng.randint(1, 9))]
    edges = [(u, v) for u in nodes for v in nodes if rng.random() < 0.3]
    host = Graph(nodes, edges, {n: _draw_attrs(rng, 0.5) for n in nodes})
    p_nodes = [f"p{i}" for i in range(rng.randint(1, 3))]
    wants = {n: _draw_attrs(rng, 0.25) for n in p_nodes}
    if rng.random() < 0.3:
        wants[rng.choice(p_nodes)][rng.choice(_KEYS)] = ["absent"]
    p_edges = [(u, v) for u in p_nodes for v in p_nodes if rng.random() < 0.2]
    return host, Graph(p_nodes, p_edges, wants)


def _rewritten(rng, host: Graph) -> Graph:
    """host after a pushout that adds an attributed node next to one of its
    nodes and adds attributes to that node: a graph built by `Graph._of`."""
    interface = Graph(["x"])
    rhs = Graph(["x", "new"], [("x", "new")], {"x": _draw_attrs(rng, 0.5),
                                                "new": _draw_attrs(rng, 1.0)})
    match = Homomorphism(interface, host, {"x": rng.choice(sorted(host.nodes))})
    return pushout(match, Homomorphism(interface, rhs, {"x": "x"})).apex


def _index_candidates(monkeypatch, pattern: Graph, g: Graph, anchor) -> dict[str, list[str]]:
    """The candidate lists `find_matches` hands the search kernel."""
    seen = []

    def capture(p, host, candidates, injective):
        seen.append({n: list(c) for n, c in candidates.items()})
        return iter(())

    with monkeypatch.context() as patch:
        patch.setattr(sqpo.rules, "homomorphism_maps", capture)
        find_matches(Rule.identity_rule(pattern), g, anchor=anchor)
    (candidates,) = seen
    return candidates


def _other_type(want, have) -> bool:
    """Whether some wanted value is carried only as an equal value of
    another type (True for 1, 0 for False)."""
    return any(
        v not in {w for w in have.get(k, ()) if type(w) is type(v)}
        for k, vs in want.items() for v in vs
    )


@pytest.mark.parametrize("seed", range(3))
def test_indexed_candidates_match_reference(seed, monkeypatch):
    """Candidates drawn from the host's posting lists equal the sorted-host
    filter on a cold graph, on the same graph queried again (the index is
    built once and kept) and on a graph a rewrite built through
    `Graph._of`, anchored or not; the matches equal the reference's."""
    rng = random.Random(9600 + seed)
    collided = absent = empty_wants = 0
    for _ in range(80):
        host, pattern = _attributed_pair(rng)
        for g in (host, _rewritten(rng, host)):
            anchor = {}
            if rng.random() < 0.3:
                anchor = {rng.choice(sorted(pattern.nodes)): rng.choice(sorted(g.nodes))}
            want = ref.match_candidates(pattern, g, anchor)
            assert not hasattr(g, "_index")
            assert _index_candidates(monkeypatch, pattern, g, anchor) == want
            index = getattr(g, "_index", None)
            assert _index_candidates(monkeypatch, pattern, g, anchor) == want
            assert getattr(g, "_index", None) is index
            rule = Rule.identity_rule(pattern)
            assert _match_maps(find_matches(rule, g, anchor=anchor)) == _match_maps(
                ref.find_matches(rule, g, anchor=anchor)
            )
            for n, found in want.items():
                wanted = pattern.attrs_of(n)
                collided += any(_other_type(wanted, g.attrs_of(c)) for c in found)
                absent += "absent" in {v for vs in wanted.values() for v in vs}
                empty_wants += not wanted and n not in anchor
    assert collided > 10 and absent > 20 and empty_wants > 50, (collided, absent, empty_wants)


@pytest.mark.parametrize("seed", range(3))
def test_homomorphism_violation_matches_reference(seed):
    """Valid maps, and maps damaged by retargeting one node, so every kind
    of violation is hit and reported with the same first message."""
    rng = random.Random(9600 + seed)
    messages = set()
    for _ in range(150):
        target = random_graph(rng, max_nodes=4, min_nodes=1, p_edge=0.5, prefix="t")
        h = random_hom_into(rng, target, max_nodes=5)
        if h.source.nodes and rng.random() < 0.7:
            node_map = dict(h.node_map)
            n = rng.choice(sorted(node_map))
            node_map[n] = rng.choice(sorted(target.nodes) + ["ghost"])
            if rng.random() < 0.2:
                del node_map[n]
            h = Homomorphism(h.source, target, node_map)
        got = homomorphism_violation(h)
        assert got == ref.homomorphism_violation(h)
        messages.add(got.split(" ")[0] if got else None)
    assert None in messages and len(messages) > 2


_T = Graph(["t", "u"], [("t", "u"), ("t", "t")], {"t": {"k": ["x"]}},
           {("t", "u"): {"k": ["y"]}})

MALFORMED_CASES = {
    "attrs on a source node outside its nodes": Homomorphism(
        Graph(["a"], [], {"a": {"k": ["x"]}, "ghost": {"k": ["z"]}}), _T, {"a": "t"}
    ),
    "attrs on a source edge outside its edges": Homomorphism(
        Graph(["a", "b"], [("a", "b")], {}, {("b", "a"): {"k": ["z"]}}),
        _T,
        {"a": "t", "b": "u"},
    ),
    "attrs on a target node outside its nodes": Homomorphism(
        Graph(["a"], [], {"a": {"k": ["x"]}}),
        Graph(["t"], [], {"t": {"k": ["x"]}, "ghost": {"k": ["x"]}}),
        {"a": "t"},
    ),
    "map not total": Homomorphism(Graph(["a", "b"], [("a", "b")]), _T, {"a": "t"}),
    "extra map key": Homomorphism(Graph(["a"]), _T, {"a": "t", "zz": "u"}),
    "extra map key on a dangling edge endpoint": Homomorphism(
        Graph(["a"], [("a", "z")]), _T, {"a": "t", "z": "u"}
    ),
    "edge without image before a dangling edge": Homomorphism(
        Graph(["a", "b"], [("a", "b"), ("b", "z")]), _T, {"a": "u", "b": "t"}
    ),
    "image outside the target": Homomorphism(Graph(["a", "b"]), _T, {"a": "t", "b": "w"}),
    "image outside the target, also not total": Homomorphism(
        Graph(["a", "b"]), _T, {"b": "w"}
    ),
    "edge without image": Homomorphism(
        Graph(["a", "b"], [("a", "b")]), _T, {"a": "u", "b": "t"}
    ),
    "node attrs not contained": Homomorphism(
        Graph(["a"], [], {"a": {"k": ["y"]}}), _T, {"a": "t"}
    ),
    "edge attrs not contained": Homomorphism(
        Graph(["a", "b"], [("a", "b")], {}, {("a", "b"): {"k": ["x"]}}),
        _T,
        {"a": "t", "b": "u"},
    ),
    "valid": Homomorphism(
        Graph(["a", "b"], [("a", "b"), ("a", "a")], {"a": {"k": ["x"]}},
              {("a", "b"): {"k": ["y"]}}),
        _T,
        {"a": "t", "b": "u"},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_homomorphism_violation_on_malformed_input(case):
    h = MALFORMED_CASES[case]
    expected = ref.homomorphism_violation(h)
    assert homomorphism_violation(h) == expected
    assert (expected is None) == (case.startswith("valid") or case.startswith("attrs on"))


def test_homomorphism_violation_raises_on_first_dangling_edge():
    h = Homomorphism(Graph(["b"], [("a", "b"), ("b", "b")]), _T, {"b": "u"})
    with pytest.raises(KeyError):
        ref.homomorphism_violation(h)
    with pytest.raises(KeyError):
        homomorphism_violation(h)


def _large_hom(rng, n: int) -> Homomorphism:
    """A valid map of about n source nodes and 1.5 n edges into a dense
    target of 30 nodes. Half the attributed sources share their image's
    dict (the loader and the constructions do); the others hold an equal
    copy or a strictly smaller dict."""
    target = random_graph(rng, max_nodes=30, min_nodes=30, p_edge=0.6, p_attr=0.7,
                          p_edge_attr=0.5, prefix="t")
    images = sorted(target.nodes)
    node_map = {f"s{i}": rng.choice(images) for i in range(n)}
    nodes = sorted(node_map)
    edges = {
        (u, v) for u, v in ((rng.choice(nodes), rng.choice(nodes)) for _ in range(3 * n // 2))
        if (node_map[u], node_map[v]) in target.edges
    }

    def under(attrs):
        draw = rng.random()
        if not attrs or draw < 0.3:
            return None
        if draw < 0.65:
            return attrs
        if draw < 0.85:
            return dict(attrs)
        key = sorted(attrs)[0]
        smaller = sorted(attrs[key], key=value_sort_key)[1:]
        return {key: frozenset(smaller)} if smaller else None

    node_attrs = {n: a for n in nodes if (a := under(target.node_attrs.get(node_map[n])))}
    edge_attrs = {
        e: a for e in sorted(edges)
        if (a := under(target.edge_attrs.get((node_map[e[0]], node_map[e[1]]))))
    }
    return Homomorphism._of(Graph._of(nodes, edges, node_attrs, edge_attrs), target, node_map)


# one violation of each kind injected into a valid map, with the first word
# of its message
_INJECTED = {
    "no image": "map",
    "unknown image": "node",
    "key outside the source": "map",
    "missing image edge": "edge",
    "node attributes": "attributes",
    "edge attributes": "attributes",
}


def _injected(rng, h: Homomorphism, kind: str) -> Homomorphism | None:
    """h with one violation of `kind`, or None if h has no element for it."""
    source, target = h.source, h.target
    node_map = dict(h.node_map)
    nodes, edges = sorted(source.nodes), sorted(source.edges)
    if kind == "no image" and nodes:
        del node_map[rng.choice(nodes)]
    elif kind == "unknown image" and nodes:
        node_map[rng.choice(nodes)] = "ghost"
    elif kind == "key outside the source":
        node_map["s_outside"] = rng.choice(sorted(target.nodes))
    elif kind == "missing image edge" and edges:
        image = h.edge_image(rng.choice(edges))
        target = Graph._of(
            target.nodes, target.edges - {image}, target.node_attrs,
            {e: a for e, a in target.edge_attrs.items() if e != image},
        )
    elif kind == "node attributes" and nodes:
        n = rng.choice(nodes)
        attrs = {**source.node_attrs.get(n, {}), "zz": frozenset(["outside"])}
        source = Graph._of(source.nodes, source.edges, {**source.node_attrs, n: attrs},
                           source.edge_attrs)
    elif kind == "edge attributes" and edges:
        e = rng.choice(edges)
        attrs = {**source.edge_attrs.get(e, {}), "zz": frozenset(["outside"])}
        source = Graph._of(source.nodes, source.edges, source.node_attrs,
                           {**source.edge_attrs, e: attrs})
    else:
        return None
    return Homomorphism._of(source, target, node_map)


@pytest.mark.parametrize("size", ["tiny", "large"])
def test_homomorphism_violation_matches_the_walk(size):
    """The C-level checks let a valid map through and hand any other to the
    Python walk, so `homomorphism_violation` gives exactly the walk's answer
    (and the original sorted pair loop's): on valid random maps, with
    attribute dicts shared with, equal to or smaller than their images', and
    on copies with one injected violation of each kind, of 2-8 source nodes
    or of about 10^3."""
    rng = random.Random(2700 if size == "tiny" else 2701)
    seen = Counter()
    for _ in range(300 if size == "tiny" else 6):
        if size == "tiny":
            target = random_graph(rng, max_nodes=5, min_nodes=1, p_edge=0.5, prefix="t")
            h = random_hom_into(rng, target, max_nodes=8)
        else:
            h = _large_hom(rng, rng.randint(900, 1100))
        cases = [("valid", h)] + [(kind, _injected(rng, h, kind)) for kind in _INJECTED]
        for kind, case in cases:
            if case is None:
                continue
            got = homomorphism_violation(case)
            assert got == ref.violation_walk(case) == ref.homomorphism_violation(case)
            assert (got is None) if kind == "valid" else got.split(" ")[0] == _INJECTED[kind]
            seen[kind] += 1
    assert set(seen) == {"valid", *_INJECTED}, seen


def test_wave_scheduler_matches_reference():
    """Random DAG shapes of up to 12 objects (empty graphs: the scheduler
    reads only the shape), peeled sinks first and sources first."""
    rng = random.Random(404)
    empty = Graph()
    wide = 0
    for _ in range(200):
        names = [f"o{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(names)  # so the topological order is not the sorted order
        arrows = {
            (a, b): Homomorphism(empty, empty, {})
            for i, a in enumerate(names)
            for b in names[i + 1:]
            if rng.random() < 0.3
        }
        h = Hierarchy({n: empty for n in names}, arrows)
        for ahead, behind, sinks_first in ((h._succ, h._pred, True), (h._pred, h._succ, False)):
            got = _waves(names, ahead, behind)
            assert got == ref.waves(h, sinks_first)
            wide += any(len(wave) > 1 for wave in got[1:])
    assert wide > 100


def test_acyclicity_check_matches_reference():
    """Random shapes of up to 10 nodes, with self-loops, back edges and
    isolated nodes: the peel finds a cycle exactly when the original
    depth-first search does."""
    rng = random.Random(505)
    cyclic = 0
    for _ in range(1500):
        nodes = [f"n{i}" for i in range(rng.randint(1, 10))]
        density = rng.choice([0.05, 0.15, 0.3])
        edges = {(a, b) for a in nodes for b in nodes if rng.random() < density}
        expected = ref._has_cycle(set(nodes), edges)
        assert _acyclic(nodes, *_adjacency(edges)) == (not expected)
        cyclic += expected
    assert 300 < cyclic < 1200


def _full_preimages(h: Homomorphism) -> dict[str, list[str]]:
    """The preimage lists built from scratch, each sorted."""
    inverse: dict[str, list[str]] = {}
    for n in sorted(h.source.nodes):
        inverse.setdefault(h.node_map[n], []).append(n)
    return inverse


def test_patched_preimages_match_full_build():
    """A patch of an arrow whose preimage lists are cached builds its own
    from its map. Random chains of patches re-set, drop and add keys, and
    change the source graph (also outside the keys) or keep it; every list
    must hold the nodes of the full build, and the base's lists stay as
    they were."""
    rng = random.Random(1212)
    for _ in range(300):
        target = random_graph(rng, max_nodes=5, min_nodes=1, prefix="t")
        images = sorted(target.nodes)
        source = Graph([f"s{i}" for i in range(rng.randint(1, 8))])
        h = Homomorphism(source, target, {n: rng.choice(images) for n in source.nodes})
        for _ in range(rng.randint(1, 4)):
            before = {y: sorted(xs) for y, xs in h._preimages().items()}
            assert before == _full_preimages(h)
            nodes = set(h.source.nodes)
            dropped = set(rng.sample(sorted(nodes), rng.randint(0, len(nodes) - 1)))
            added = {f"n{rng.randrange(10**6)}" for _ in range(rng.randint(0, 3))}
            reset = set(rng.sample(sorted(nodes - dropped), rng.randint(0, len(nodes - dropped))))
            new_nodes = (nodes - dropped) | added
            if rng.random() < 0.2 and new_nodes - reset:  # leaves the source, stays in the map
                new_nodes -= {rng.choice(sorted(new_nodes - reset))}
            new_source = h.source if new_nodes == nodes and rng.random() < 0.5 else Graph(new_nodes)
            updates = {n: rng.choice(images) for n in reset | added}
            patch = Homomorphism._patched(h, new_source, target, updates, dropped | added | reset)
            got = patch._preimages()
            assert {y: sorted(xs) for y, xs in got.items()} == _full_preimages(patch)
            assert {y: sorted(xs) for y, xs in h._preimages().items()} == before
            h = patch


def test_patch_without_changes_shares_the_map():
    """A patch whose keys all keep their image (a re-target onto a new graph)
    takes over old's map instead of copying it, records no changed key and
    has old's preimage lists; a patch that changes a key copies."""
    target = Graph(["t", "u"])
    old = Homomorphism(Graph(["a", "b"]), target, {"a": "t", "b": "u"})
    old._preimages()
    new_target = Graph(["t", "u", "w"])
    same = Homomorphism._patched(old, old.source, new_target, {"a": "t", "b": "u"}, ["a", "b"])
    assert same.node_map is old.node_map and same.target is new_target
    assert same._changes_since(old) == frozenset()
    assert same._preimages() == old._preimages() == {"t": ["a"], "u": ["b"]}
    moved = Homomorphism._patched(old, old.source, new_target, {"a": "w", "b": "u"}, ["b", "a"])
    assert moved.node_map == {"a": "w", "b": "u"} and old.node_map == {"a": "t", "b": "u"}
    assert moved._changes_since(old) == frozenset({"a"})
