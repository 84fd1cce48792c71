import itertools
import random

import pytest

from sqpo import (
    AddAttrs,
    AddEdge,
    AddNode,
    CloneNode,
    DeleteEdge,
    DeleteNode,
    EXPANSIVE,
    Graph,
    GraphElementError,
    Homomorphism,
    Match,
    MergeNodes,
    RESTRICTIVE,
    RemoveAttrs,
    Rule,
    RewritingError,
    apply_edits,
    are_isomorphic,
    build_rule,
    find_matches,
    identity,
    is_mono,
    rule_from_json,
    rule_to_json,
    sqpo_rewrite,
)
from sqpo.graphs import attrs_contained

from generators import random_graph


def test_identity_rule_from_empty_edits():
    pattern = Graph(["a", "b"], [("a", "b")])
    rule = build_rule(pattern, [])
    assert rule.lhs == rule.interface == rule.rhs == pattern
    assert rule.left_leg == identity(pattern)
    assert rule.right_leg == identity(pattern)


def test_build_rule_merge_and_add():
    pattern = Graph(["w", "b"], node_attrs={"w": {"c": ["white"]}, "b": {"c": ["black"]}})
    rule = build_rule(
        pattern, [MergeNodes(("w", "b"), "wb"), AddNode("s1"), AddNode("s2")]
    )
    assert rule.lhs == pattern and rule.interface == pattern
    assert rule.rhs.nodes == {"wb", "s1", "s2"}
    assert rule.right_leg["w"] == rule.right_leg["b"] == "wb"
    assert rule.rhs.attrs_of("wb") == {"c": frozenset(["white", "black"])}


def test_build_rule_delete_and_clone():
    pattern = Graph(["circ", "sq"])
    rule = build_rule(pattern, [DeleteNode("circ"), CloneNode("sq", "sq_w", "sq_b")])
    assert rule.interface.nodes == {"sq_w", "sq_b"}
    assert rule.left_leg["sq_w"] == rule.left_leg["sq_b"] == "sq"
    assert rule.rhs.nodes == {"sq_w", "sq_b"}


def test_build_rule_contradictory_edits():
    pattern = Graph(["a"])
    with pytest.raises(GraphElementError):
        build_rule(pattern, [DeleteNode("a"), AddEdge("a", "a")])


def test_find_matches_single_node_pattern():
    rule = Rule.identity_rule(Graph(["p"]))
    g = Graph(["x", "y", "z"])
    matches = find_matches(rule, g, RESTRICTIVE)
    assert [m.instance["p"] for m in matches] == ["x", "y", "z"]


def test_find_matches_counts_colour_pattern():
    lhs = Graph(["cw", "cb"], node_attrs={"cw": {"c": ["white"]}, "cb": {"c": ["black"]}})
    rule = Rule.identity_rule(lhs)
    g = Graph(
        ["w1", "w2", "b1", "b2"],
        node_attrs={
            "w1": {"c": ["white"]},
            "w2": {"c": ["white"]},
            "b1": {"c": ["black"]},
            "b2": {"c": ["black"]},
        },
    )
    matches = find_matches(rule, g, RESTRICTIVE)
    assert len(matches) == 4
    anchored = find_matches(rule, g, RESTRICTIVE, anchor={"cw": "w1"})
    assert len(anchored) == 2
    assert all(m.instance["cw"] == "w1" for m in anchored)


def test_find_matches_attr_requirement():
    lhs = Graph(["p"], node_attrs={"p": {"k": ["v"]}})
    rule = Rule.identity_rule(lhs)
    g = Graph(["x", "y"], node_attrs={"x": {"k": ["v", "w"]}})
    matches = find_matches(rule, g)
    assert len(matches) == 1 and matches[0].instance["p"] == "x"


def _brute_force_monos(pattern: Graph, g: Graph):
    out = []
    p_nodes = sorted(pattern.nodes)
    for images in itertools.permutations(sorted(g.nodes), len(p_nodes)):
        mapping = dict(zip(p_nodes, images))
        hom = Homomorphism(pattern, g, mapping)
        if all(
            (mapping[u], mapping[v]) in g.edges
            and attrs_contained(pattern.attrs_of((u, v)), g.attrs_of((mapping[u], mapping[v])))
            for (u, v) in pattern.edges
        ) and all(
            attrs_contained(pattern.attrs_of(n), g.attrs_of(mapping[n]))
            for n in p_nodes
        ):
            out.append(mapping)
    return out


def test_find_matches_agrees_with_brute_force():
    rng = random.Random(55)
    for _ in range(40):
        g = random_graph(rng, max_nodes=5, min_nodes=0)
        pattern = random_graph(rng, max_nodes=3, min_nodes=0, prefix="p", p_edge=0.4)
        rule = Rule.identity_rule(pattern)
        found = find_matches(rule, g, RESTRICTIVE)
        expected = _brute_force_monos(pattern, g)
        got = [dict(m.instance.node_map) for m in found]
        assert len(got) == len({tuple(sorted(m.items())) for m in got})  # no dupes
        assert sorted(tuple(sorted(m.items())) for m in got) == sorted(
            tuple(sorted(m.items())) for m in expected
        )
        assert all(is_mono(m.instance) for m in found)


def test_sqpo_rewrite_identity_rule():
    g = Graph(["a", "b"], [("a", "b")], {"a": {"k": ["x"]}})
    rule = Rule.identity_rule(Graph(["p"]))
    match = find_matches(rule, g)[0]
    res = sqpo_rewrite(rule, match)
    assert res.output == g


def test_sqpo_rewrite_merge_add_example():
    lhs = Graph(["cw", "cb"], node_attrs={"cw": {"c": ["white"]}, "cb": {"c": ["black"]}})
    rule = build_rule(lhs, [MergeNodes(("cw", "cb"), "cwb"), AddNode("s1"), AddNode("s2")])
    g = Graph(
        ["w1", "w2", "b1", "b2"],
        node_attrs={
            "w1": {"c": ["white"]},
            "w2": {"c": ["white"]},
            "b1": {"c": ["black"]},
            "b2": {"c": ["black"]},
        },
    )
    match = find_matches(rule, g)[0]
    res = sqpo_rewrite(rule, match)
    assert len(res.output.nodes) == 5
    assert is_mono(res.m_out)


def test_sqpo_rewrite_clone_delete_example():
    lhs = Graph(["circ", "sq"])
    rule = build_rule(lhs, [CloneNode("sq", "sq_w", "sq_b"), DeleteNode("circ")])
    t = Graph(["circ", "sq"])
    match = Match(Homomorphism(lhs, t, {"circ": "circ", "sq": "sq"}), RESTRICTIVE)
    res = sqpo_rewrite(rule, match)
    assert len(res.output.nodes) == 2
    assert len({res.g_left[n] for n in res.mid.nodes}) == 1  # both are square clones


def test_sqpo_rewrite_needs_restrictive_mono():
    rule = Rule.identity_rule(Graph(["p"]))
    g = Graph(["x"])
    expansive = Match(Homomorphism(rule.interface, g, {"p": "x"}), EXPANSIVE)
    with pytest.raises(RewritingError):
        sqpo_rewrite(rule, expansive)


def _random_edit_list(rng, pattern: Graph):
    g = pattern
    edits = []
    counter = 0
    for _ in range(rng.randint(0, 4)):
        nodes = sorted(g.nodes)
        options = ["add_node"]
        if nodes:
            options += ["add_edge", "delete_node", "clone", "attrs"]
        if len(nodes) >= 2:
            options.append("merge")
        if g.edges:
            options.append("delete_edge")
        choice = rng.choice(options)
        if choice == "add_node":
            edit = AddNode(f"fresh{counter}", {"k": ["x"]})
            counter += 1
        elif choice == "add_edge":
            u, v = rng.choice(nodes), rng.choice(nodes)
            if (u, v) in g.edges:
                continue
            edit = AddEdge(u, v)
        elif choice == "delete_node":
            edit = DeleteNode(rng.choice(nodes))
        elif choice == "delete_edge":
            edit = DeleteEdge(*sorted(g.edges)[0])
        elif choice == "clone":
            edit = CloneNode(rng.choice(nodes), f"cp{counter}", f"cp{counter + 1}")
            counter += 2
        elif choice == "merge":
            pair = rng.sample(nodes, 2)
            edit = MergeNodes(tuple(pair), f"mg{counter}")
            counter += 1
        else:
            n = rng.choice(nodes)
            edit = rng.choice(
                [AddAttrs(n, {"k": ["z"]}), RemoveAttrs(n, {"k": ["x"]})]
            )
        g = apply_edits(g, [edit])
        edits.append(edit)
    return edits, g


def test_build_rule_matches_imperative_edits():
    """Rewriting at the evident match replays the edit list, up to the
    deterministic renaming of clone copies."""
    rng = random.Random(77)
    for _ in range(60):
        pattern = random_graph(rng, max_nodes=5, min_nodes=0, prefix="p")
        edits, expected = _random_edit_list(rng, pattern)
        rule = build_rule(pattern, edits)
        match = Match(identity(pattern), RESTRICTIVE)
        res = sqpo_rewrite(rule, match)
        assert are_isomorphic(res.output, expected)


@pytest.mark.parametrize(
    "edits",
    [
        [AddAttrs(("u", "v"), {"k": ["n"]})],
        [RemoveAttrs(("u", "v"), {"k": ["x"]})],
        [AddAttrs(("v", "u"), {"m": ["q"]}), RemoveAttrs(("u", "v"), {"k": ["x", "y"]})],
        [CloneNode("u", "u1", "u2"), AddAttrs(("u1", "v"), {"k": ["n"]})],
        [CloneNode("u", "u1", "u2"), RemoveAttrs(("u1", "v"), {"k": ["y"]})],
        [CloneNode("v", "v1", "v2"), RemoveAttrs(("u", "v2"), {"k": ["x"]}),
         AddAttrs(("v1", "u"), {"m": ["q"]})],
    ],
    ids=["add", "remove", "add-and-remove", "clone-add", "clone-remove", "clone-both"],
)
def test_edge_attribute_edits_match_imperative_edits(edits):
    """Attribute edits on an edge, alone and after a clone of one of its
    endpoints: rewriting a larger host at the pattern's match gives the
    host with the edits applied, attributes included. The host's edges
    carry values the pattern does not name, which the rewrite keeps."""
    pattern = Graph(
        ["u", "v"], [("u", "v"), ("v", "u")], {"u": {"k": ["a"]}},
        {("u", "v"): {"k": ["x", "y"]}, ("v", "u"): {"k": ["x"]}},
    )
    host = Graph(
        ["u", "v", "w"], [("u", "v"), ("v", "u"), ("w", "u"), ("v", "w")],
        {"u": {"k": ["a", "b"]}, "w": {"k": ["c"]}},
        {("u", "v"): {"k": ["x", "y", "z"], "m": ["p"]}, ("v", "u"): {"k": ["x"]},
         ("w", "u"): {"k": ["x"]}},
    )
    rule = build_rule(pattern, edits)
    match = Match(Homomorphism(pattern, host, {"u": "u", "v": "v"}), RESTRICTIVE)
    expected = apply_edits(host, edits)
    assert expected != host
    assert are_isomorphic(sqpo_rewrite(rule, match).output, expected)


def test_dpo_like_rules_have_no_side_effects():
    rng = random.Random(88)
    for _ in range(40):
        g = random_graph(rng, max_nodes=5, min_nodes=1)
        # interface = lhs: a pure-addition rule matched anywhere
        lhs = random_graph(rng, max_nodes=3, min_nodes=1, prefix="p", p_edge=0.0)
        rule = build_rule(lhs, [AddNode("extra")])
        for match in find_matches(rule, g)[:3]:
            res = sqpo_rewrite(rule, match)
            assert res.mid == g  # both legs mono, nothing deleted
            assert len(res.output.nodes) == len(g.nodes) + 1


def test_rule_json_roundtrip():
    lhs = Graph(["circ", "sq"])
    rule = build_rule(lhs, [CloneNode("sq", "sq_w", "sq_b"), DeleteNode("circ"), AddNode("n")])
    back = rule_from_json(rule_to_json(rule))
    assert back.lhs == rule.lhs
    assert back.interface == rule.interface
    assert back.rhs == rule.rhs
    assert back.left_leg == rule.left_leg
    assert back.right_leg == rule.right_leg
