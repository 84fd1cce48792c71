"""The library's refusals that no other test reaches: each call raises its
exception type with its full message, each invalid value reports its full
list of problems, and `is_epi` answers False for a homomorphism that
misses a node, an edge or an edge attribute of its target."""

import pytest

from sqpo import (
    RESTRICTIVE,
    CompositionError,
    Graph,
    GraphElementError,
    Hierarchy,
    HierarchyError,
    Homomorphism,
    InvalidHomomorphism,
    Match,
    RewritingError,
    Rule,
    Skeleton,
    apply_edit,
    final_pbc,
    find_matches,
    identity,
    is_epi,
    is_homomorphism,
    pushout,
    sqpo_rewrite,
)

PAIR = Graph(["a", "b"], [("a", "b")])
POINT = Graph(["p"])
DANGLING = Graph(["x"], [("x", "y")])
RULE = Rule.identity_rule(PAIR)


def _one(name: str) -> Hierarchy:
    return Hierarchy({name: POINT})


RAISES = [
    ("typing", lambda: _one("a").typing("a", "b"), HierarchyError, "no typing a -> b"),
    (
        "add_object-exists",
        lambda: _one("a").add_object("a", POINT),
        HierarchyError,
        "node a already exists",
    ),
    (
        "add_object-invalid-graph",
        lambda: _one("a").add_object("b", DANGLING),
        HierarchyError,
        "invalid graph for b: dangling edge (x,y): missing target node y",
    ),
    (
        "add_object-unknown-kind",
        lambda: Hierarchy(skeleton=Skeleton.create(["k"], [])).add_object("a", POINT, "j"),
        HierarchyError,
        "node a: unknown skeleton kind j",
    ),
    (
        "add_typing-unknown-node",
        lambda: _one("a").add_typing("a", "b", identity(POINT)),
        HierarchyError,
        "add_typing(a,b): unknown node",
    ),
    (
        "add_typing-endpoints",
        lambda: Hierarchy({"a": POINT, "b": PAIR}).add_typing(
            "a", "b", Homomorphism(POINT, Graph(["a", "b"]), {"p": "a"})
        ),
        HierarchyError,
        "typing a -> b: endpoint graphs do not match",
    ),
    (
        "delete_edge",
        lambda: PAIR.delete_edge("b", "a"),
        GraphElementError,
        "delete_edge: unknown edge (b,a)",
    ),
    (
        "clone_node-unknown",
        lambda: PAIR.clone_node("z", "z1", "z2"),
        GraphElementError,
        "clone_node: unknown node z",
    ),
    (
        "clone_node-equal-copies",
        lambda: PAIR.clone_node("a", "c", "c"),
        GraphElementError,
        "clone_node: copies need distinct ids",
    ),
    (
        "clone_node-collision",
        lambda: PAIR.clone_node("a", "a1", "b"),
        GraphElementError,
        "clone_node: id collision b",
    ),
    (
        "merge_nodes-unknown",
        lambda: PAIR.merge_nodes(["a", "z", "y"], "m"),
        GraphElementError,
        "merge_nodes: unknown nodes ['y', 'z']",
    ),
    (
        "merge_nodes-empty",
        lambda: PAIR.merge_nodes([], "m"),
        GraphElementError,
        "merge_nodes: empty group",
    ),
    (
        "merge_nodes-collision",
        lambda: Graph(["a", "b", "c"]).merge_nodes(["a", "b"], "c"),
        GraphElementError,
        "merge_nodes: id collision c",
    ),
    (
        "add_attrs-unknown-node",
        lambda: PAIR.add_attrs("z", {"k": ["v"]}),
        GraphElementError,
        "unknown node z",
    ),
    (
        "remove_attrs-unknown-edge",
        lambda: PAIR.remove_attrs(("b", "a"), {"k": ["v"]}),
        GraphElementError,
        "unknown edge ('b', 'a')",
    ),
    (
        "rule-left-leg",
        lambda: Rule(PAIR, PAIR, PAIR, identity(POINT), identity(PAIR)).validate(),
        InvalidHomomorphism,
        "rule: left leg endpoints are wrong",
    ),
    (
        "rule-right-leg",
        lambda: Rule(PAIR, PAIR, POINT, identity(PAIR), identity(PAIR)).validate(),
        InvalidHomomorphism,
        "rule: right leg endpoints are wrong",
    ),
    (
        "find_matches-kind",
        lambda: find_matches(RULE, PAIR, "sideways"),
        RewritingError,
        "unknown match kind 'sideways'",
    ),
    (
        "find_matches-pattern-anchor",
        lambda: find_matches(RULE, PAIR, RESTRICTIVE, {"z": "a"}),
        GraphElementError,
        "anchor: unknown pattern node z",
    ),
    (
        "find_matches-host-anchor",
        lambda: find_matches(RULE, PAIR, RESTRICTIVE, {"a": "z"}),
        GraphElementError,
        "anchor: unknown graph node z",
    ),
    (
        "sqpo_rewrite-source",
        lambda: sqpo_rewrite(RULE, Match(Homomorphism(POINT, PAIR, {"p": "a"}), RESTRICTIVE)),
        RewritingError,
        "match is not an instance of the rule's lhs",
    ),
    (
        "sqpo_rewrite-mono",
        lambda: sqpo_rewrite(
            Rule.identity_rule(Graph(["a", "b"])),
            Match(Homomorphism(Graph(["a", "b"]), POINT, {"a": "p", "b": "p"}), RESTRICTIVE),
        ),
        RewritingError,
        "match must be a mono",
    ),
    (
        "pushout",
        lambda: pushout(identity(PAIR), identity(POINT)),
        CompositionError,
        "pushout: arrows do not share a source",
    ),
    (
        "final_pbc",
        lambda: final_pbc(identity(PAIR), identity(POINT)),
        CompositionError,
        "final_pbc: arrows not composable",
    ),
    ("apply_edit", lambda: apply_edit(PAIR, "bogus"), GraphElementError, "unknown edit 'bogus'"),
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in RAISES], ids=[case[0] for case in RAISES]
)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


PROBLEMS = [
    (
        "graph-edge-attributes",
        Graph(["a", "b"], edge_attrs={("a", "b"): {"k": ["v"]}}),
        ["attributes on unknown edge (a,b)"],
    ),
    (
        "hierarchy-graph",
        Hierarchy({"a": DANGLING}),
        ["graph a: dangling edge (x,y): missing target node y"],
    ),
    (
        "hierarchy-endpoints",
        Hierarchy({"a": POINT, "b": POINT}, {("a", "b"): identity(PAIR)}),
        ["typing a -> b: endpoint graphs do not match"],
    ),
    (
        "hierarchy-cycle",
        Hierarchy(
            {"a": POINT, "b": POINT},
            {("a", "b"): identity(POINT), ("b", "a"): identity(POINT)},
        ),
        ["shape contains a cycle"],
    ),
]


@pytest.mark.parametrize(
    "value, problems", [case[1:] for case in PROBLEMS], ids=[case[0] for case in PROBLEMS]
)
def test_validation_problems(value, problems):
    assert value.validate() == problems


NOT_EPI = [
    ("node-not-covered", Homomorphism(POINT, Graph(["p", "q"]), {"p": "p"})),
    ("edge-not-covered", Homomorphism(Graph(["a", "b"]), PAIR, {"a": "a", "b": "b"})),
    (
        "edge-attributes-not-covered",
        Homomorphism(
            PAIR,
            Graph(["a", "b"], [("a", "b")], edge_attrs={("a", "b"): {"k": ["v"]}}),
            {"a": "a", "b": "b"},
        ),
    ),
]


@pytest.mark.parametrize("hom", [case[1] for case in NOT_EPI], ids=[case[0] for case in NOT_EPI])
def test_homomorphism_not_epi(hom):
    assert is_homomorphism(hom) is True
    assert is_epi(hom) is False
