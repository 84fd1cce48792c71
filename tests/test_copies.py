"""Copies and pickles of the immutable values.

`copy.copy`, `copy.deepcopy` and a pickle round trip of a `Graph`, a
`Homomorphism`, a rewrite trace, a `Hierarchy` and a `Rule` give an equal
value that is still immutable. Private caches are not carried: a graph's
adjacency lists, sorted node ids and edges (or the deferred orders a file
or a construction left in their place) and candidate index, a
homomorphism's preimage lists and patch record, and a hierarchy's
commutativity memo are rebuilt on first use by the copy. A trace reduces
to its delta, so neither the trace nor its copy builds its node map.
Threads that race to fill a graph's sorted node ids, or to complete its
deferred orders, build equal lists.
"""

import copy
import pickle
import random
import sys
import threading

import pytest

from sqpo import (
    CloneNode,
    Graph,
    Hierarchy,
    Homomorphism,
    Skeleton,
    build_rule,
    find_matches,
    graph_from_json,
    pushout,
    sqpo_rewrite,
)
from sqpo.graphs import _Listed, _Trace

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _slot_set(value, cls, name) -> bool:
    """Whether the slot `name` of `cls` is set on value, read through the
    slot itself (a trace builds its node map on any other read)."""
    try:
        getattr(cls, name).__get__(value)
    except AttributeError:
        return False
    return True


def _sorted_lists(lists: dict) -> dict:
    """Each list of a cached adjacency or preimage map, sorted: their order
    follows frozenset iteration, which a rebuilt copy of a set may change."""
    return {key: sorted(values) for key, values in lists.items()}


@pytest.fixture
def graph():
    g = Graph(
        ["a", "b", "c"],
        [("a", "b"), ("b", "b")],
        {"a": {"k": ["x", 1]}, "b": {"k": [True]}},
        {("a", "b"): {"e": ["y"]}},
    )
    g._adjacency(), g._node_order(), g._edge_order(), g._candidate_index()  # fill the caches
    return g


@pytest.fixture
def hierarchy(graph):
    t = Graph(["t"], [("t", "t")], {"t": {"k": ["x", 1, True]}}, {("t", "t"): {"e": ["y"]}})
    typing = Homomorphism(graph, t, {"a": "t", "b": "t", "c": "t"})
    sk = Skeleton.create(["data", "schema"], [("data", "schema")])
    h = Hierarchy(skeleton=sk).add_object("G", graph, "data").add_object("T", t, "schema")
    h = h.add_typing("G", "T", typing)
    assert h.validate_commutativity() == [] and h._memo.entries  # the check filled the memo
    return h


@pytest.mark.parametrize("how", COPIES)
def test_graph_copies_are_equal_values_without_caches(graph, how):
    other = COPIES[how](graph)
    assert other == graph and hash(other) == hash(graph)
    assert other.node_attrs == graph.node_attrs and other.edge_attrs == graph.edge_attrs
    for slot in ("_adjacent", "_order", "_sorted_edges", "_index"):
        assert not _slot_set(other, Graph, slot), slot
    assert list(map(_sorted_lists, other._adjacency())) == list(
        map(_sorted_lists, graph._adjacency())
    )
    assert other._node_order() == graph._node_order() == ["a", "b", "c"]
    assert other._edge_order() == graph._edge_order() == [("a", "b"), ("b", "b")]
    with pytest.raises(AttributeError, match="immutable"):
        other.nodes = frozenset()


def test_racing_readers_build_equal_node_orders():
    """Threads that read a new graph's sorted node ids at once, with a
    short switch interval, each get the sorted list; the graph keeps one."""
    graphs = [Graph([f"n{i}" for i in range(2000, 0, -1)]) for _ in range(20)]
    results: dict[int, list] = {}

    def read(i):
        results[i] = [g._node_order() for g in graphs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = sorted(graphs[0].nodes)
    assert all(order == expected for lists in results.values() for order in lists)
    assert all(g._order == expected for g in graphs) and len(results) == 4


def _loaded(ids: list, shuffled: bool) -> Graph:
    """A graph of `ids` and a path through them, loaded from JSON that
    lists its nodes and edges in sorted order, or shuffled with a repeat."""
    edges = list(zip(ids, ids[1:]))
    if shuffled:
        ids = random.Random(len(ids)).sample(ids, len(ids)) + ids[:1]
        edges = random.Random(len(edges)).sample(edges, len(edges)) + edges[:1]
    return graph_from_json({
        "nodes": [{"id": n} for n in ids],
        "edges": [{"from": u, "to": v} for u, v in edges],
    })


def _deferred_graphs(count: int) -> list[Graph]:
    """Graphs of 2000 nodes with deferred orders: loaded from JSON (in
    order, or shuffled with a repeat), and pushouts that add a node to a
    host whose orders are lists or are a file's."""
    graphs = []
    for i in range(count):
        ids = sorted(f"n{j:04d}" for j in range(2000))
        host = _loaded(ids, shuffled=i % 2 == 1)
        if i % 4 >= 2:
            if i % 4 == 3:
                host._node_order(), host._edge_order()
            span = Homomorphism(Graph(["x"]), host, {"x": ids[i]})
            graphs.append(pushout(span, Homomorphism(Graph(["x"]), Graph(["x", "y"], [("x", "y")]),
                                                       {"x": "x"})).apex)
        else:
            graphs.append(host)
    return graphs


def test_racing_readers_build_equal_deferred_orders():
    """Threads that read the sorted node ids and edges of graphs holding
    deferred orders at once, with a short switch interval, each get the
    sorted lists; each graph keeps one of them."""
    graphs = _deferred_graphs(20)
    assert all(type(getattr(g, slot)) in (_Listed, tuple)
               for g in graphs for slot in ("_order", "_sorted_edges"))
    results: dict[int, list] = {}

    def read(i):
        results[i] = [(g._node_order(), g._edge_order()) for g in graphs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    expected = [(sorted(g.nodes), sorted(g.edges)) for g in graphs]
    assert all(orders == expected for orders in results.values())
    assert [(g._order, g._sorted_edges) for g in graphs] == expected
    assert all(type(g._order) is list and type(g._sorted_edges) is list for g in graphs)


@pytest.mark.parametrize("how", COPIES)
def test_graph_copies_drop_deferred_orders(how):
    for g in _deferred_graphs(4):
        other = COPIES[how](g)
        assert other == g
        assert not _slot_set(other, Graph, "_order") and not _slot_set(other, Graph, "_sorted_edges")
        assert other._node_order() == g._node_order() == sorted(g.nodes)
        assert other._edge_order() == g._edge_order() == sorted(g.edges)


@pytest.mark.parametrize("how", COPIES)
def test_homomorphism_copies_are_equal_values_without_caches(graph, how):
    old = Homomorphism(graph, graph, {n: n for n in graph.nodes})
    hom = Homomorphism._patched(old, graph, graph, {"c": "a"}, ["c"])
    hom._preimages()
    other = COPIES[how](hom)
    assert other == hom and hash(other) == hash(hom)
    assert other.node_map == hom.node_map
    assert not _slot_set(other, Homomorphism, "_inverse")
    assert not _slot_set(other, Homomorphism, "_patch")
    assert _sorted_lists(other._preimages()) == _sorted_lists(hom._preimages())
    with pytest.raises(AttributeError, match="immutable"):
        other.node_map = {}


@pytest.mark.parametrize("how", COPIES)
def test_trace_copies_keep_the_delta_and_build_no_map(graph, how):
    rule = build_rule(Graph(["x"]), [CloneNode("x", "x1", "x2")])
    (match,) = find_matches(rule, graph, anchor={"x": "a"})
    result = sqpo_rewrite(rule, match)
    for trace in (result.g_left, result.g_right):
        other = COPIES[how](trace)
        assert type(other) is _Trace and other._delta == trace._delta
        assert other.source == trace.source and other.target == trace.target
        assert not _slot_set(trace, Homomorphism, "node_map")
        assert not _slot_set(other, Homomorphism, "node_map")
        assert other == trace  # reads both maps whole
        assert other.node_map == trace.node_map


@pytest.mark.parametrize("how", COPIES)
def test_hierarchy_copies_are_equal_values_with_a_fresh_memo(hierarchy, how):
    """A copy drops the memo with its valid mark; a validate that finds
    nothing fills the memo and marks it again."""
    other = COPIES[how](hierarchy)
    assert other == hierarchy
    assert other.skeleton == hierarchy.skeleton and other.skeleton_map == hierarchy.skeleton_map
    assert other.successors("G") == ["T"] and other.predecessors("T") == ["G"]
    assert hierarchy._memo.valid  # typed into a hierarchy with no arrows
    assert not other._memo.entries and not other._memo.valid
    assert other.validate() == [] and other._memo.entries and other._memo.valid
    with pytest.raises(AttributeError, match="immutable"):
        other.skeleton = None


@pytest.mark.parametrize("how", COPIES)
def test_rule_copies_are_equal_values(how):
    rule = build_rule(Graph(["x", "y"], [("x", "y")]), [CloneNode("x", "x1", "x2")])
    other = COPIES[how](rule)
    assert other == rule
    other.validate()
