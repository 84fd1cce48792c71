"""Copies and pickles of the immutable values.

`copy.copy`, `copy.deepcopy` and a pickle round trip of a `Graph`, a
`Homomorphism`, a rewrite trace, a `Hierarchy` and a `Rule` give an equal
value that is still immutable. Private caches are not carried: a graph's
adjacency lists, sorted node ids and candidate index, a homomorphism's
preimage lists and patch record, and a hierarchy's commutativity memo are
rebuilt on first use by the copy. A trace reduces to its delta, so neither
the trace nor its copy builds its node map. Threads that race to fill a
graph's sorted node ids build equal lists.
"""

import copy
import pickle
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
    sqpo_rewrite,
)
from sqpo.graphs import _Trace

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
    g._adjacency(), g._node_order(), g._candidate_index()  # fill the caches
    return g


@pytest.fixture
def hierarchy(graph):
    t = Graph(["t"], [("t", "t")], {"t": {"k": ["x", 1, True]}}, {("t", "t"): {"e": ["y"]}})
    typing = Homomorphism(graph, t, {"a": "t", "b": "t", "c": "t"})
    sk = Skeleton.create(["data", "schema"], [("data", "schema")])
    h = Hierarchy(skeleton=sk).add_object("G", graph, "data").add_object("T", t, "schema")
    h = h.add_typing("G", "T", typing)
    assert h._memo.entries  # the check filled the memo
    return h


@pytest.mark.parametrize("how", COPIES)
def test_graph_copies_are_equal_values_without_caches(graph, how):
    other = COPIES[how](graph)
    assert other == graph and hash(other) == hash(graph)
    assert other.node_attrs == graph.node_attrs and other.edge_attrs == graph.edge_attrs
    for slot in ("_adjacent", "_order", "_index"):
        assert not _slot_set(other, Graph, slot), slot
    assert list(map(_sorted_lists, other._adjacency())) == list(
        map(_sorted_lists, graph._adjacency())
    )
    assert other._node_order() == graph._node_order() == ["a", "b", "c"]
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
    other = COPIES[how](hierarchy)
    assert other == hierarchy
    assert other.skeleton == hierarchy.skeleton and other.skeleton_map == hierarchy.skeleton_map
    assert other.successors("G") == ["T"] and other.predecessors("T") == ["G"]
    assert not other._memo.entries
    assert other.validate() == [] and other._memo.entries
    with pytest.raises(AttributeError, match="immutable"):
        other.skeleton = None


@pytest.mark.parametrize("how", COPIES)
def test_rule_copies_are_equal_values(how):
    rule = build_rule(Graph(["x", "y"], [("x", "y")]), [CloneNode("x", "x1", "x2")])
    other = COPIES[how](rule)
    assert other == rule
    other.validate()
