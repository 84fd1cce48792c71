import random

import pytest
from hypothesis import given, settings, strategies as st

from sqpo import (
    AddAttrs,
    AddEdge,
    AddNode,
    CloneNode,
    CompositionError,
    DeleteEdge,
    DeleteNode,
    Graph,
    GraphElementError,
    Homomorphism,
    MergeNodes,
    RemoveAttrs,
    apply_edit,
    are_isomorphic,
    compose,
    graph_from_json,
    graph_to_json,
    hom_equal,
    identity,
    is_epi,
    is_homomorphism,
    is_mono,
)
from sqpo.graphs import dumps_canonical

from generators import random_graph, random_hom_into


def test_empty_graph_is_valid():
    assert Graph().validate() == []


def test_dangling_edge_reported():
    g = Graph(["a"], [("a", "b")])
    violations = g.validate()
    assert len(violations) == 1
    assert "b" in violations[0]


def test_attrs_on_unknown_element_reported():
    g = Graph(["a"], [], {"ghost": {"k": ["x"]}})
    assert any("ghost" in v for v in g.validate())


def test_random_graphs_valid():
    rng = random.Random(7)
    for _ in range(50):
        assert random_graph(rng, max_nodes=6).validate() == []


def test_identity_is_hom_mono_epi():
    g = Graph(["a", "b"], [("a", "b")], {"a": {"k": ["x"]}})
    h = identity(g)
    assert is_homomorphism(h) and is_mono(h) and is_epi(h)


def test_non_injective_map_not_mono():
    g = Graph(["a", "b"])
    t = Graph(["c"])
    h = Homomorphism(g, t, {"a": "c", "b": "c"})
    assert is_homomorphism(h) and not is_mono(h) and is_epi(h)


def test_colour_typing_is_epi():
    g = Graph(
        ["w1", "w2", "b1", "b2"],
        node_attrs={n: {"c": ["white" if n.startswith("w") else "black"]} for n in ["w1", "w2", "b1", "b2"]},
    )
    t = Graph(["w", "b"], node_attrs={"w": {"c": ["white"]}, "b": {"c": ["black"]}})
    h = Homomorphism(g, t, {"w1": "w", "w2": "w", "b1": "b", "b2": "b"})
    assert is_homomorphism(h) and is_epi(h) and not is_mono(h)


def test_attr_violation_not_hom():
    g = Graph(["a"], node_attrs={"a": {"k": ["x"]}})
    t = Graph(["b"], node_attrs={"b": {"k": ["y"]}})
    assert not is_homomorphism(Homomorphism(g, t, {"a": "b"}))


def test_edge_violation_not_hom():
    g = Graph(["a", "b"], [("a", "b")])
    t = Graph(["c", "d"])
    assert not is_homomorphism(Homomorphism(g, t, {"a": "c", "b": "d"}))


def test_epi_needs_attr_coverage():
    g = Graph(["a"])
    t = Graph(["b"], node_attrs={"b": {"k": ["x"]}})
    h = Homomorphism(g, t, {"a": "b"})
    assert is_homomorphism(h) and not is_epi(h)


def test_epi_needs_a_homomorphism():
    """A map onto every node and edge that drops an edge is no epi."""
    g = Graph(["a", "b"], [("a", "b")])
    t = Graph(["c", "d"], [("d", "c")])
    h = Homomorphism(g, t, {"a": "c", "b": "d"})
    assert not is_homomorphism(h) and not is_epi(h)


def test_a_scalar_attribute_value_is_a_set_of_one():
    """A str, int or bool where a collection of values belongs is one
    value; a string is not split into its characters."""
    g = Graph(["a"], [("a", "a")], {"a": {"k": "xy", "n": 3, "b": True}}, {("a", "a"): {"e": 0}})
    assert g.node_attrs["a"] == {"k": frozenset({"xy"}), "n": frozenset({3}), "b": frozenset({True})}
    assert g.edge_attrs[("a", "a")] == {"e": frozenset({0})}


def test_compose_identity_and_chain():
    chain = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    other = Graph(["x", "y", "z"], [("x", "y"), ("y", "z")])
    f = Homomorphism(chain, other, {"a": "x", "b": "y", "c": "z"})
    g = Homomorphism(other, chain, {"x": "b", "y": "c", "z": "c"})
    assert hom_equal(compose(f, identity(chain)), f)
    assert hom_equal(compose(identity(other), f), f)
    gf = compose(g, f)
    assert gf.node_map == {"a": "b", "b": "c", "c": "c"}


def test_compose_endpoint_mismatch():
    a, b = Graph(["a"]), Graph(["b"])
    f = Homomorphism(a, b, {"a": "b"})
    with pytest.raises(CompositionError):
        compose(f, f)


def test_hom_equal_distinct_constants():
    src = Graph(["s"])
    tgt = Graph(["u", "v"])
    f = Homomorphism(src, tgt, {"s": "u"})
    g = Homomorphism(src, tgt, {"s": "v"})
    assert not hom_equal(f, g)


# -- primitive edits ---------------------------------------------------------


def test_clone_node_with_self_loop():
    g = Graph(["n", "m"], [("n", "n"), ("n", "m"), ("m", "n")], {"n": {"k": ["x"]}})
    c = g.clone_node("n", "n1", "n2")
    assert c.nodes == {"n1", "n2", "m"}
    # loops on both copies plus both cross edges
    for e in [("n1", "n1"), ("n2", "n2"), ("n1", "n2"), ("n2", "n1")]:
        assert e in c.edges
    for e in [("n1", "m"), ("n2", "m"), ("m", "n1"), ("m", "n2")]:
        assert e in c.edges
    assert c.attrs_of("n1") == c.attrs_of("n2") == {"k": frozenset(["x"])}


def test_merge_fuses_parallel_edges():
    g = Graph(["a", "b", "c"], [("a", "c"), ("b", "c")], edge_attrs={("a", "c"): {"k": ["x"]}, ("b", "c"): {"k": ["y"]}})
    m = g.merge_nodes(["a", "b"], "ab")
    assert m.edges == {("ab", "c")}
    assert m.attrs_of(("ab", "c")) == {"k": frozenset(["x", "y"])}


def test_merge_unions_attrs():
    g = Graph(["w", "b"], node_attrs={"w": {"c": ["white"]}, "b": {"c": ["black"]}})
    m = g.merge_nodes(["w", "b"], "wb")
    assert m.attrs_of("wb") == {"c": frozenset(["white", "black"])}


def test_delete_isolated_node():
    g = Graph(["a", "b"], [("b", "b")])
    d = g.delete_node("a")
    assert d.nodes == {"b"} and d.edges == {("b", "b")}


def test_delete_node_removes_incident_edges():
    g = Graph(["a", "b"], [("a", "b"), ("b", "a")])
    assert g.delete_node("a").edges == set()


def test_edit_errors():
    g = Graph(["a"])
    with pytest.raises(GraphElementError):
        g.add_node("a")
    with pytest.raises(GraphElementError):
        g.delete_node("zz")
    with pytest.raises(GraphElementError):
        g.add_edge("a", "zz")


def test_add_node_coerces_its_id_before_the_collision_check():
    """The constructor stores node ids as str, so 5 names node "5": adding
    it again collides instead of replacing "5"'s attributes."""
    g = Graph(["5"], [], {"5": {"a": ["x"]}})
    with pytest.raises(GraphElementError, match="node id collision: 5"):
        g.add_node(5, {"b": ["y"]})
    assert g.add_node(6).nodes == {"5", "6"}


def test_add_edge_coerces_its_endpoints():
    g = Graph(["5"])
    looped = g.add_edge(5, "5")
    assert looped.edges == {("5", "5")}
    with pytest.raises(GraphElementError, match=r"edge \(5,5\) already exists"):
        looped.add_edge("5", 5)


def test_clone_then_merge_restores_graph():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, max_nodes=6, min_nodes=1)
        n = sorted(g.nodes)[rng.randrange(len(g.nodes))]
        c = g.clone_node(n, "c1", "c2")
        back = c.merge_nodes(["c1", "c2"], n)
        assert are_isomorphic(g, back)
        assert back == g  # ids restored, so even structurally equal


_edit_strategy = st.integers(0, 6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.lists(_edit_strategy, max_size=4))
def test_random_edit_sequences_keep_validity(seed, steps):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=5, min_nodes=1)
    counter = 0
    for step in steps:
        nodes = sorted(g.nodes)
        if step == 0:
            g = apply_edit(g, AddNode(f"new{counter}", {"k": ["x"]}))
            counter += 1
        elif step == 1 and nodes:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if (u, v) not in g.edges:
                g = apply_edit(g, AddEdge(u, v))
        elif step == 2 and nodes:
            g = apply_edit(g, DeleteNode(rng.choice(nodes)))
        elif step == 3 and g.edges:
            e = sorted(g.edges)[0]
            g = apply_edit(g, DeleteEdge(*e))
        elif step == 4 and nodes:
            g = apply_edit(g, CloneNode(rng.choice(nodes), f"cl{counter}", f"cl{counter + 1}"))
            counter += 2
        elif step == 5 and len(nodes) >= 2:
            g = apply_edit(g, MergeNodes((nodes[0], nodes[1]), f"mg{counter}"))
            counter += 1
        elif step == 6 and nodes:
            g = apply_edit(g, AddAttrs(nodes[0], {"k": ["z"]}))
            g = apply_edit(g, RemoveAttrs(nodes[0], {"k": ["z"]}))
        assert g.validate() == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_compose_associative_and_hom_closed(seed):
    rng = random.Random(seed)
    c = random_graph(rng, max_nodes=4, min_nodes=1)
    f = random_hom_into(rng, c, prefix="m")
    g = random_hom_into(rng, f.source, prefix="s")
    assert is_homomorphism(f) and is_homomorphism(g)
    fg = compose(f, g)
    assert is_homomorphism(fg)
    e = random_hom_into(rng, g.source, prefix="q")
    assert hom_equal(compose(fg, e), compose(f, compose(g, e)))


# -- JSON ---------------------------------------------------------------------


def test_graph_json_roundtrip_bit_exact():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_nodes=6)
        text = dumps_canonical(graph_to_json(g))
        back = graph_from_json(graph_to_json(g))
        assert back == g
        assert dumps_canonical(graph_to_json(back)) == text


def test_json_value_types_preserved():
    g = Graph(["a"], node_attrs={"a": {"k": [True, 2, "two"]}})
    obj = graph_to_json(g)
    assert obj["nodes"][0]["attrs"]["k"] == [True, 2, "two"]
    assert graph_from_json(obj) == g


def test_json_rejects_bad_values():
    with pytest.raises(GraphElementError):
        graph_from_json({"nodes": [{"id": "a", "attrs": {"k": [1.5]}}], "edges": []})
    with pytest.raises(GraphElementError):
        graph_from_json({"nodes": [], "edges": [{"from": "a", "to": "b"}]})
    # 1 and True collide under Python set semantics; round-trips would break
    with pytest.raises(GraphElementError):
        graph_from_json({"nodes": [{"id": "a", "attrs": {"k": [1, True]}}], "edges": []})


def test_hom_equality_across_endpoints_is_false():
    a, b = Graph(["a"]), Graph(["b"])
    f = Homomorphism(a, b, {"a": "b"})
    g = Homomorphism(b, a, {"b": "a"})
    assert f != g
    assert f == Homomorphism(a, b, {"a": "b"})
