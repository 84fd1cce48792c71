"""A plan is resolved once per hierarchy object: the plan builders leave the
resolution on the plan, and `check_composability` and `propagate_*` reuse
it only against that very hierarchy. These tests check a plan against a
second hierarchy, the repeated check and plan arrows that are not
homomorphisms."""

import dataclasses

import pytest

import reference_kernels as ref
from sqpo import (
    BACKWARD,
    EXPANSIVE,
    FORWARD,
    RESTRICTIVE,
    AddEdge,
    AddNode,
    CloneNode,
    ForwardFactorization,
    Graph,
    Hierarchy,
    Homomorphism,
    PropagationPlan,
    RewritingError,
    build_canonical_plan,
    build_rule,
    check_composability,
    find_matches,
    hierarchy_to_json,
    propagate_backward,
    propagate_forward,
)


def _typed(g_types: dict[str, int]) -> Hierarchy:
    """G -> M -> T plus G -> T: G's node g is typed by m(g_types[g]) and
    m(j) by t(j mod 2), over a complete 4-node M and a complete 2-node T."""
    g = Graph(sorted(g_types), [("g0", "g1"), ("g1", "g2"), ("g3", "g0")])
    m = Graph([f"m{j}" for j in range(4)], [(f"m{a}", f"m{b}") for a in range(4) for b in range(4)])
    t = Graph(["t0", "t1"], [(a, b) for a in ("t0", "t1") for b in ("t0", "t1")])
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, {f"m{j}": f"t{j % 2}" for j in range(4)}))
    h = h.add_typing("G", "M", Homomorphism(g, m, {n: f"m{j}" for n, j in g_types.items()}))
    return h.add_typing("G", "T", Homomorphism(g, t, {n: f"t{j % 2}" for n, j in g_types.items()}))


BASE = {"g0": 0, "g1": 1, "g2": 2, "g3": 3}


def _outcome(h: Hierarchy, plan: PropagationPlan):
    """The plan's violations against h, and the rewritten hierarchy and
    report, or the error, of propagating it there."""
    violations = check_composability(h, plan)
    propagate = propagate_forward if plan.direction == FORWARD else propagate_backward
    try:
        report = propagate(h, plan)
    except RewritingError as exc:
        return violations, str(exc)
    return violations, (hierarchy_to_json(report.hierarchy), ref.report_json([report]))


def _plan(h: Hierarchy, direction: str) -> PropagationPlan:
    if direction == BACKWARD:
        rule = build_rule(Graph(["x"]), [CloneNode("x", "x1", "x2")])
        (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": "t1"})
        return build_canonical_plan(h, "T", rule.left_leg, match.instance, BACKWARD)
    rule = build_rule(Graph(["x"]), [AddNode("n"), AddEdge("x", "n")])
    (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": "g1"})
    return build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)


@pytest.mark.parametrize(
    "direction, moved, rejected",
    [
        (BACKWARD, {"g0": 1}, True),  # g0 becomes an instance of the cloned t1
        (BACKWARD, {"g0": 2}, False),  # away from the clone: t0 to t0
        (FORWARD, {"g1": 3}, True),  # the matched g1 changes its type
        (FORWARD, {"g3": 1}, False),  # an unmatched node changes its type
    ],
    ids=["bwd-at-match", "bwd-elsewhere", "fwd-at-match", "fwd-elsewhere"],
)
def test_plan_against_another_hierarchy_is_resolved_again(direction, moved, rejected):
    """A plan built against h and then checked and propagated against h2
    (same object names, G's typings changed at one node) behaves exactly
    as the same plan without its resolution. Where the change meets the
    match, h's restrictions or typings would pass the plan and h2's reject
    it; elsewhere the rewrite of h2 differs from that of h."""
    h, h2 = _typed(BASE), _typed({**BASE, **moved})
    plan = _plan(h, direction)
    on_h = _outcome(h, plan)
    fresh = dataclasses.replace(plan)
    assert fresh._resolution is None
    got = _outcome(h2, plan)
    assert got == _outcome(h2, fresh)
    assert bool(got[0]) is rejected
    assert isinstance(got[1], str) is rejected
    assert not on_h[0] and got != on_h


def test_repeated_check_returns_the_same_violations():
    h = _typed(BASE)
    for plan in (_plan(h, BACKWARD), _plan(h, FORWARD)):
        first = check_composability(h, plan)
        assert first == [] and check_composability(h, plan) == first
    plan = _plan(h, FORWARD)
    plan.factorizations["M"] = plan.factorizations["T"]
    first = check_composability(h, plan)
    assert first and all(check_composability(h, plan) == first for _ in range(3))


def test_factorization_arrow_to_an_unknown_node_is_rejected():
    """A forward factorization whose typing sends a node outside the target
    object fails the composability check, naming the object and the node,
    instead of failing inside a pushout; the hierarchy is left as it was."""
    g, t = Graph(["i"]), Graph(["t1", "t2"])
    h = Hierarchy().add_object("G", g).add_object("T", t)
    h = h.add_typing("G", "T", Homomorphism(g, t, {"i": "t1"}))
    before = hierarchy_to_json(h)
    lhs, rhs = Graph(["p"]), Graph(["a", "p"])
    mid = Graph(["a", "p"])
    plan = PropagationPlan(
        origin="G",
        rule=Homomorphism(lhs, rhs, {"p": "p"}),
        match=Homomorphism(lhs, g, {"p": "i"}),
        direction=FORWARD,
        factorizations={
            "T": ForwardFactorization(
                mid=mid,
                pre_arrow=Homomorphism(lhs, mid, {"p": "p"}),
                post_arrow=Homomorphism(mid, rhs, {"a": "a", "p": "p"}),
                typing=Homomorphism(mid, t, {"a": "zz", "p": "t1"}),
            )
        },
    )
    with pytest.raises(RewritingError, match=r"node T: malformed factorization \(typing: .*zz"):
        propagate_forward(h, plan)
    assert hierarchy_to_json(h) == before


def test_explicit_connector_that_is_not_a_homomorphism_is_rejected():
    h = _typed(BASE)
    plan = _plan(h, FORWARD)
    mid_m, mid_t = plan.factorizations["M"].mid, plan.factorizations["T"].mid
    plan.connectors[("M", "T")] = Homomorphism(mid_m, mid_t, {n: "zz" for n in mid_m.nodes})
    violations = check_composability(h, plan)
    assert len(violations) == 1
    assert violations[0].startswith("connector M->T: ") and "zz" in violations[0]
