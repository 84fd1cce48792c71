import random
import warnings

import pytest

from sqpo import (
    BACKWARD,
    FORWARD,
    BackwardFactorization,
    FactorizationError,
    ForwardFactorization,
    Graph,
    Hierarchy,
    Homomorphism,
    NotMonoError,
    PropagationPlan,
    RewritingError,
    apply_plan,
    build_canonical_plan,
    build_relation_plan,
    check_composability,
    compose,
    derive_backward_factorization,
    derive_forward_factorization,
    final_pbc,
    find_matches,
    hom_equal,
    identity,
    propagate_backward,
    propagate_forward,
    pushout,
    restriction_pullback,
)
from sqpo import EXPANSIVE, RESTRICTIVE
from sqpo.category import PullbackResult
from sqpo.propagation import lift_rule as library_lift_rule
from sqpo.isomorphism import find_isomorphism

from generators import (
    KEY,
    random_backward_plan,
    random_forward_plan,
    random_graph,
    random_hierarchy,
    random_hom_from,
    random_hom_into,
    random_mono_into,
)
from paper_oracles import (
    NotEpiError,
    backward_canonical,
    backward_cleanup,
    backward_strict,
    forward_canonical,
    forward_cleanup,
    forward_strict,
    lift_rule,
    project_rule,
    verify_final_pbc_up,
    verify_pullback_up,
)


def _forward_instance(rng):
    """Random typing h: G→T, expansive rule L→L⁺ matched in G, and a
    relation-derived factorization."""
    t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, max_nodes=5, prefix="g")
    g = h.source
    m = random_mono_into(rng, g)
    lhs = m.source
    rule = random_hom_from(rng, lhs, prefix="r", p_merge=0.0)
    added = sorted(rule.target.nodes - {rule[n] for n in lhs.nodes})
    relation = {}
    for a in added:
        typeable = [
            tn
            for tn in sorted(t.nodes)
            if set(rule.target.attrs_of(a).get(KEY, ())) <= set(t.attrs_of(tn).get(KEY, ()))
        ]
        if typeable and rng.random() < 0.5:
            relation[a] = rng.choice(typeable)
    base = compose(h, m)
    fact, _ = derive_forward_factorization(rule, base, relation)
    return t, h, g, m, rule, fact


def test_forward_strict_identity():
    rng = random.Random(1)
    t = random_graph(rng, max_nodes=3, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, prefix="g")
    m = random_mono_into(rng, h.source)
    lhs = m.source
    res = forward_strict(h.source, t, h, identity(lhs), m, compose(h, m))
    assert res.graph == h.source
    assert hom_equal(res.typing, h)


def test_forward_strict_rejects_bad_typing():
    g = Graph(["n1", "n2"])
    t = Graph(["t1", "t2"])
    h = Homomorphism(g, t, {"n1": "t1", "n2": "t2"})
    lhs = Graph(["a", "b"])
    m = Homomorphism(lhs, g, {"a": "n1", "b": "n2"})
    mid = Graph(["ab"])
    r_prime = Homomorphism(lhs, mid, {"a": "ab", "b": "ab"})
    # merging differently-typed nodes admits no valid strict typing
    x = Homomorphism(mid, t, {"ab": "t1"})
    with pytest.raises(FactorizationError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            forward_strict(g, t, h, r_prime, m, x)


def test_forward_strict_merges_same_typed():
    g = Graph(["n1", "n2"])
    t = Graph(["t1"])
    h = Homomorphism(g, t, {"n1": "t1", "n2": "t1"})
    lhs = Graph(["a", "b"])
    m = Homomorphism(lhs, g, {"a": "n1", "b": "n2"})
    mid = Graph(["ab"])
    r_prime = Homomorphism(lhs, mid, {"a": "ab", "b": "ab"})
    x = Homomorphism(mid, t, {"ab": "t1"})
    with pytest.warns(RuntimeWarning):
        res = forward_strict(g, t, h, r_prime, m, x)
    assert len(res.graph.nodes) == 1
    assert hom_equal(compose(res.typing, res.trace), h)


def test_forward_canonical_trivial_rule():
    rng = random.Random(2)
    t = random_graph(rng, max_nodes=3, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, prefix="g")
    m = random_mono_into(rng, h.source)
    lhs = m.source
    strict = forward_strict(h.source, t, h, identity(lhs), m, compose(h, m))
    res = forward_canonical(strict.graph, t, strict.typing, identity(lhs), strict.instance)
    assert res.graph == strict.graph
    assert res.typing_graph == t


def test_forward_pipeline_example(merge_add_setup):
    hierarchy, rule = merge_add_setup
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    match = find_matches(rule, g, EXPANSIVE)[0].instance
    lhs = rule.interface
    strict = forward_strict(g, t, h, identity(lhs), match, compose(h, match))
    canon = forward_canonical(strict.graph, t, strict.typing, rule.right_leg, strict.instance)
    assert len(canon.graph.nodes) == 5
    assert len(canon.typing_graph.nodes) == 3
    # side effect: the two instances not touched by the rewrite are retyped
    # by the merged type all the same
    merged_type = canon.typing_trace["w"]
    assert merged_type == canon.typing_trace["b"]
    untouched = [n for n in canon.graph.nodes if n in {"w2", "b2"}]
    assert untouched and all(canon.typing[n] == merged_type for n in untouched)
    # clean-up: merge the two fresh square types
    proj = project_rule(rule.right_leg, compose(strict.typing, strict.instance))
    t_plus = pushout(proj.instance, proj.projected)
    m_hat_plus = t_plus.from_c
    quotient_nodes = {"m": {}}
    l_t_plus = m_hat_plus.source
    s_types = sorted(n for n in l_t_plus.nodes if proj.rhs_embed["s1"] == n or proj.rhs_embed["s2"] == n)
    merged = Graph(
        sorted((l_t_plus.nodes - set(s_types)) | {"squares"}),
        [],
        {n: l_t_plus.attrs_of(n) for n in l_t_plus.nodes - set(s_types)},
    )
    r_oplus = Homomorphism(
        l_t_plus,
        merged,
        {n: ("squares" if n in s_types else n) for n in l_t_plus.nodes},
    )
    cleaned = forward_cleanup(t_plus.apex, m_hat_plus, r_oplus)
    assert len(cleaned.graph.nodes) == 2


def test_forward_cleanup_requires_epi():
    t_plus = Graph(["a"])
    l_t_plus = Graph(["p"])
    m_hat = Homomorphism(l_t_plus, t_plus, {"p": "a"})
    bigger = Graph(["p", "extra"])
    not_epi = Homomorphism(l_t_plus, bigger, {"p": "p"})
    with pytest.raises(NotEpiError):
        forward_cleanup(t_plus, m_hat, not_epi)


def test_forward_cleanup_identity_epi_is_noop():
    t_plus = Graph(["a", "b"], [("a", "b")])
    l_t_plus = Graph(["p", "q"])
    m_hat = Homomorphism(l_t_plus, t_plus, {"p": "a", "q": "b"})
    res = forward_cleanup(t_plus, m_hat, identity(l_t_plus))
    assert res.graph == t_plus
    assert hom_equal(res.trace, identity(t_plus))


def test_projection_route_agrees_with_direct():
    rng = random.Random(3)
    checked = 0
    while checked < 30:
        t, h, g, m, rule, fact = _forward_instance(rng)
        strict = forward_strict(g, t, h, fact.pre_arrow, m, fact.typing)
        canon = forward_canonical(
            strict.graph, t, strict.typing, fact.post_arrow, strict.instance
        )
        proj = project_rule(fact.post_arrow, compose(strict.typing, strict.instance))
        via_proj = pushout(proj.instance, proj.projected)
        iso = find_isomorphism(
            canon.typing_graph,
            via_proj.apex,
            anchor={
                canon.typing_trace[n]: via_proj.from_b[n] for n in t.nodes
            },
        )
        assert iso is not None
        # typings agree up to the iso
        for n in canon.graph.nodes:
            assert iso[canon.typing[n]] is not None
        checked += 1


def test_phased_forward_rewrite_equals_direct():
    rng = random.Random(4)
    for _ in range(30):
        t, h, g, m, rule, fact = _forward_instance(rng)
        strict = forward_strict(g, t, h, fact.pre_arrow, m, fact.typing)
        canon = forward_canonical(
            strict.graph, t, strict.typing, fact.post_arrow, strict.instance
        )
        direct = pushout(m, rule)
        pasted = compose(canon.trace, strict.trace)
        anchor = {pasted[n]: direct.from_b[n] for n in g.nodes}
        for c in rule.target.nodes:
            want = direct.from_c[c]
            assert anchor.setdefault(canon.instance[c], want) == want
        assert find_isomorphism(canon.graph, direct.apex, anchor=anchor) is not None


# -- backward phases ---------------------------------------------------------


def test_restriction_pullback_full_and_empty():
    t = Graph(["circ", "sq"])
    g = Graph(["c1", "c2", "q1", "q2"])
    h = Homomorphism(g, t, {"c1": "circ", "c2": "circ", "q1": "sq", "q2": "sq"})
    full = restriction_pullback(h, identity(t))
    assert len(full.pattern.nodes) == 4
    empty = restriction_pullback(h, Homomorphism(Graph(), t, {}))
    assert empty.pattern.nodes == set()
    with pytest.raises(NotMonoError):
        restriction_pullback(h, Homomorphism(Graph(["a", "b"]), t, {"a": "circ", "b": "circ"}))


def _backward_pieces(clone_delete_setup):
    hierarchy, rule = clone_delete_setup
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    match = find_matches(rule, t, RESTRICTIVE)[0].instance
    relation = {"q1": "sq_w", "q2": "sq_b"}
    fact, doomed = derive_backward_factorization(rule.left_leg, match, g, h, relation)
    return hierarchy, rule, g, t, h, match, fact, doomed


def test_backward_strict_refines_concepts(clone_delete_setup):
    hierarchy, rule, g, t, h, match, fact, doomed = _backward_pieces(clone_delete_setup)
    assert doomed == []
    res = backward_strict(t, match, fact.post_arrow, fact.retyping, g, h)
    assert len(res.graph.nodes) == 3  # circle kept, square split in two
    types_of_squares = {res.typing["q1"], res.typing["q2"]}
    assert len(types_of_squares) == 2
    # the retyping square is a pullback
    assert verify_pullback_up(
        PullbackResult(res.restriction.pattern, res.restriction.instance, fact.retyping),
        res.typing,
        res.instance,
    )


def test_backward_strict_identity():
    rng = random.Random(5)
    t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, prefix="g")
    m = random_mono_into(rng, t)
    rp = restriction_pullback(h, m)
    res = backward_strict(t, m, identity(m.source), rp.to_lhs, h.source, h)
    assert res.graph == t
    assert hom_equal(res.typing, h)


def test_backward_strict_rejects_deleted_with_instances(clone_delete_setup):
    hierarchy, rule = clone_delete_setup
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    match = find_matches(rule, t, RESTRICTIVE)[0].instance
    lhs = rule.lhs
    mid = Graph(["sq"], node_attrs={"sq": {"shape": ["square"]}})
    r_prime = Homomorphism(mid, lhs, {"sq": "sq"})  # strict deletion of circ
    rp = restriction_pullback(h, match)
    retyping = Homomorphism(
        rp.pattern,
        mid,
        {p: "sq" for p in rp.pattern.nodes},
    )
    with pytest.raises(RewritingError, match="still has"):
        backward_strict(t, match, r_prime, retyping, g, h)


def test_backward_canonical_deletes_instances(clone_delete_setup):
    hierarchy, rule, g, t, h, match, fact, _ = _backward_pieces(clone_delete_setup)
    strict = backward_strict(t, match, fact.post_arrow, fact.retyping, g, h)
    canon = backward_canonical(strict.graph, strict.typing, fact.pre_arrow, strict.instance)
    assert len(canon.graph.nodes) == 2  # circles deleted
    assert len(canon.typing_graph.nodes) == 2
    assert hom_equal(compose(canon.typing_trace, canon.typing), compose(strict.typing, canon.trace))


def test_lifting_route_agrees_with_direct(clone_delete_setup):
    hierarchy, rule, g, t, h, match, fact, _ = _backward_pieces(clone_delete_setup)
    strict = backward_strict(t, match, fact.post_arrow, fact.retyping, g, h)
    canon = backward_canonical(strict.graph, strict.typing, fact.pre_arrow, strict.instance)
    lifted = lift_rule(
        fact.retyping,
        fact.pre_arrow,
        strict.restriction.instance,
        t_minus=canon,
        h_prime=strict.typing,
    )
    iso = find_isomorphism(
        lifted.graph, canon.graph, typing1=lifted.typing, typing2=canon.typing
    )
    assert iso is not None


def _random_backward_instance(rng):
    t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, max_nodes=5, prefix="g")
    g = h.source
    m = random_mono_into(rng, t)
    lhs = m.source
    rule = random_hom_into(rng, lhs, max_nodes=4, prefix="k")
    relation = {}
    copies = {}
    for k in sorted(rule.source.nodes):
        copies.setdefault(rule[k], []).append(k)
    rp = restriction_pullback(h, m)
    for l, ks in sorted(copies.items()):
        if len(ks) >= 2 and rng.random() < 0.5:
            for p in rp.pattern.nodes:
                if rp.to_lhs[p] == l:
                    relation[rp.instance[p]] = ks[0]
    fact, doomed = derive_backward_factorization(rule, m, g, h, relation)
    return t, h, g, m, rule, fact, doomed


def test_random_backward_liftings_agree_with_direct():
    from sqpo import PbcResult

    rng = random.Random(6)
    for _ in range(30):
        t, h, g, m, rule, fact, _ = _random_backward_instance(rng)
        strict = backward_strict(t, m, fact.post_arrow, fact.retyping, g, h)
        canon = backward_canonical(strict.graph, strict.typing, fact.pre_arrow, strict.instance)
        lifted = lift_rule(
            fact.retyping,
            fact.pre_arrow,
            strict.restriction.instance,
            t_minus=canon,
            h_prime=strict.typing,
        )
        iso = find_isomorphism(
            lifted.graph, canon.graph, typing1=lifted.typing, typing2=canon.typing
        )
        assert iso is not None
        # completing the cube: the lifting square is a final complement and
        # the reconstructed typing square is a pullback
        assert verify_final_pbc_up(
            PbcResult(lifted.graph, lifted.instance, lifted.trace),
            lifted.lift,
            strict.restriction.instance,
        )
        from sqpo import PullbackResult

        assert verify_pullback_up(
            PullbackResult(lifted.pattern, lifted.to_rhs, lifted.instance),
            canon.instance,
            lifted.typing,
        )


def test_phased_backward_rewrite_equals_direct():
    rng = random.Random(7)
    for _ in range(30):
        t, h, g, m, rule, fact, _ = _random_backward_instance(rng)
        strict = backward_strict(t, m, fact.post_arrow, fact.retyping, g, h)
        canon = backward_canonical(strict.graph, strict.typing, fact.pre_arrow, strict.instance)
        direct = final_pbc(rule, m)
        pasted = compose(strict.trace, canon.typing_trace)
        iso = find_isomorphism(
            canon.typing_graph, direct.apex, typing1=pasted, typing2=direct.project
        )
        assert iso is not None


def test_backward_cleanup_identity_and_empty(clone_delete_setup):
    hierarchy, rule, g, t, h, match, fact, _ = _backward_pieces(clone_delete_setup)
    strict = backward_strict(t, match, fact.post_arrow, fact.retyping, g, h)
    lifted = lift_rule(fact.retyping, fact.pre_arrow, strict.restriction.instance)
    res_id = backward_cleanup(lifted.graph, lifted.instance, identity(lifted.pattern))
    assert res_id.graph == lifted.graph
    empty_rule = Homomorphism(Graph(), lifted.pattern, {})
    res_empty = backward_cleanup(lifted.graph, lifted.instance, empty_rule)
    expected = final_pbc(empty_rule, lifted.instance)
    assert res_empty.graph == expected.apex
    with pytest.raises(NotMonoError):
        backward_cleanup(
            lifted.graph,
            lifted.instance,
            Homomorphism(
                Graph(["a", "b"]),
                lifted.pattern,
                {
                    "a": sorted(lifted.pattern.nodes)[0],
                    "b": sorted(lifted.pattern.nodes)[0],
                },
            ),
        )


# -- relation-derived factorizations ------------------------------------------


def test_empty_relation_is_canonical():
    rng = random.Random(8)
    t = random_graph(rng, max_nodes=3, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, prefix="g")
    m = random_mono_into(rng, h.source)
    rule = random_hom_from(rng, m.source, prefix="r")
    fact, cleanup = derive_forward_factorization(rule, compose(h, m), {})
    assert fact.mid == rule.source
    assert cleanup == []
    tm = random_mono_into(rng, t)
    back_rule = random_hom_into(rng, tm.source, prefix="k")
    bfact, doomed = derive_backward_factorization(back_rule, tm, h.source, h, {})
    assert bfact.mid == back_rule.target
    assert doomed == []


def test_relation_rejects_bad_targets(merge_add_setup):
    hierarchy, rule = merge_add_setup
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    match = find_matches(rule, g, EXPANSIVE)[0].instance
    base = compose(h, match)
    with pytest.raises(RewritingError):
        derive_forward_factorization(rule.right_leg, base, {"nope": "w"})
    with pytest.raises(RewritingError):
        derive_forward_factorization(rule.right_leg, base, {"s1": "ghost"})


def test_relation_attr_containment_enforced():
    t = Graph(["plain"])
    g = Graph(["i"])
    h = Homomorphism(g, t, {"i": "plain"})
    lhs = Graph(["p"])
    m = Homomorphism(lhs, g, {"p": "i"})
    rhs = Graph(["p", "rich"], node_attrs={"rich": {"k": ["x"]}})
    rule = Homomorphism(lhs, rhs, {"p": "p"})
    with pytest.raises(RewritingError, match="inconsistent with typing"):
        derive_forward_factorization(rule, compose(h, m), {"rich": "plain"})


def test_relation_strict_edges_limited_by_target():
    t = Graph(["t1", "t2"], [("t1", "t2")])
    g = Graph(["i1"], node_attrs={})
    h = Homomorphism(g, t, {"i1": "t1"})
    lhs = Graph(["p"])
    m = Homomorphism(lhs, g, {"p": "i1"})
    rhs = Graph(["p", "a", "b"], [("p", "a"), ("a", "b"), ("b", "a")])
    rule = Homomorphism(lhs, rhs, {"p": "p"})
    fact, _ = derive_forward_factorization(
        rule, compose(h, m), {"a": "t2", "b": "t1"}
    )
    # edge p→a is strict (t1→t2 exists); a→b is not (t2→t1 missing)
    assert ("p", "a") in fact.mid.edges
    assert ("a", "b") not in fact.mid.edges
    assert ("b", "a") in fact.mid.edges


# -- composability and hierarchy propagation -----------------------------------


def test_two_object_plan_vacuously_composable(merge_add_setup):
    hierarchy, rule = merge_add_setup
    match = find_matches(rule, hierarchy.graph("G"), EXPANSIVE)[0].instance
    plan = build_canonical_plan(hierarchy, "G", rule.right_leg, match, FORWARD)
    assert check_composability(hierarchy, plan) == []


def test_chain_counterexample_detected():
    g0, g1, g2 = Graph(), Graph(["t"]), Graph(["t"])
    h = (
        Hierarchy()
        .add_object("g0", g0)
        .add_object("g1", g1)
        .add_object("g2", g2)
        .add_typing("g0", "g1", Homomorphism(g0, g1, {}))
        .add_typing("g1", "g2", Homomorphism(g1, g2, {"t": "t"}))
    )
    arrow = Homomorphism(g0, Graph(["a"]), {})
    match = Homomorphism(g0, g0, {})
    plan = build_relation_plan(h, "g0", arrow, match, FORWARD, {"g1": {"a": "t"}})
    violations = check_composability(h, plan)
    assert len(violations) == 1
    assert "g1->g2" in violations[0]
    with pytest.raises(RewritingError):
        propagate_forward(h, plan)


def test_missing_factorization_reported():
    g0, g1 = Graph(["x"]), Graph(["x"])
    h = (
        Hierarchy()
        .add_object("g0", g0)
        .add_object("g1", g1)
        .add_typing("g0", "g1", identity(g0))
    )
    arrow = Homomorphism(g0, Graph(["x", "a"]), {"x": "x"})
    plan = PropagationPlan(
        origin="g0",
        rule=arrow,
        match=identity(g0),
        direction=FORWARD,
    )
    violations = check_composability(h, plan)
    assert violations == ["node g1: no factorization provided"]


def test_propagate_forward_set_example():
    empty = Graph()
    n1, n2 = Graph(["w"]), Graph(["b"])
    h = (
        Hierarchy()
        .add_object("n0", empty)
        .add_object("n1", n1)
        .add_object("n2", n2)
        .add_typing("n0", "n1", Homomorphism(empty, n1, {}))
        .add_typing("n0", "n2", Homomorphism(empty, n2, {}))
    )
    rhs = Graph(["w", "b"])
    plan = build_relation_plan(
        h,
        "n0",
        Homomorphism(empty, rhs, {}),
        Homomorphism(empty, empty, {}),
        FORWARD,
        {"n1": {"w": "w"}, "n2": {"b": "b"}},
    )
    rep = propagate_forward(h, plan)
    assert rep.waves == [["n1", "n2"], ["n0"]]
    for name in ("n0", "n1", "n2"):
        assert rep.hierarchy.graph(name).nodes == {"w", "b"}
    assert all(not v for _, v in rep.steps)
    assert rep.hierarchy.validate_commutativity() == []


def test_propagate_backward_diamond_example():
    k0 = Graph(["a", "b"])
    k1 = Graph(["a1", "b1"])
    k2 = Graph(["a2", "b2"])
    h = (
        Hierarchy()
        .add_object("k0", k0)
        .add_object("k1", k1)
        .add_object("k2", k2)
        .add_typing("k1", "k0", Homomorphism(k1, k0, {"a1": "a", "b1": "b"}))
        .add_typing("k2", "k0", Homomorphism(k2, k0, {"a2": "a", "b2": "b"}))
    )
    iface = Graph(["aw", "ab", "bw", "bb"])
    rule_arrow = Homomorphism(iface, k0, {"aw": "a", "ab": "a", "bw": "b", "bb": "b"})
    plan = build_relation_plan(
        h,
        "k0",
        rule_arrow,
        identity(k0),
        BACKWARD,
        {"k1": {"b1": "bw"}, "k2": {"a2": "aw"}},
    )
    rep = propagate_backward(h, plan)
    assert rep.waves == [["k1", "k2"], ["k0"]]
    assert len(rep.hierarchy.graph("k0").nodes) == 4
    assert len(rep.hierarchy.graph("k1").nodes) == 3  # a1 cloned, b1 refined
    assert len(rep.hierarchy.graph("k2").nodes) == 3  # b2 cloned, a2 refined
    assert all(not v for _, v in rep.steps)
    assert rep.hierarchy.validate_commutativity() == []


def _random_two_object(rng, direction):
    """A random typing G -> T as a two-object hierarchy, with a rule matched
    at G (forward: an expansive rule out of a pattern of G) or at T
    (backward: a restrictive rule into a pattern of T)."""
    t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
    h = random_hom_into(rng, t, max_nodes=5, prefix="g")
    hierarchy = (
        Hierarchy().add_object("G", h.source).add_object("T", t).add_typing("G", "T", h)
    )
    if direction == FORWARD:
        match = random_mono_into(rng, h.source)
        arrow = random_hom_from(rng, match.source, prefix="r")
    else:
        match = random_mono_into(rng, t)
        arrow = random_hom_into(rng, match.source, max_nodes=4, prefix="k")
    return hierarchy, arrow, match


TWO_OBJECT_CASES = ["golden", *range(30)]


@pytest.mark.parametrize("case", TWO_OBJECT_CASES)
def test_two_object_forward_propagation_matches_pipeline(case, request):
    """The propagator's G and T equal, up to isomorphism, the strict and
    canonical phases of a canonical plan: on the golden merge-and-add
    example and on random two-object hierarchies."""
    if case == "golden":
        hierarchy, rule = request.getfixturevalue("merge_add_setup")
        match = find_matches(rule, hierarchy.graph("G"), EXPANSIVE)[0].instance
        arrow = rule.right_leg
    else:
        hierarchy, arrow, match = _random_two_object(random.Random(case), FORWARD)
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    plan = build_canonical_plan(hierarchy, "G", arrow, match, FORWARD)
    rep = propagate_forward(hierarchy, plan)
    # pipeline route
    lhs = arrow.source
    strict = forward_strict(g, t, h, identity(lhs), match, compose(h, match))
    canon = forward_canonical(strict.graph, t, strict.typing, arrow, strict.instance)
    new_g, new_t = rep.hierarchy.graph("G"), rep.hierarchy.graph("T")
    iso_g = find_isomorphism(new_g, canon.graph)
    iso_t = find_isomorphism(new_t, canon.typing_graph)
    assert iso_g is not None and iso_t is not None
    assert rep.hierarchy.validate_commutativity() == []


@pytest.mark.parametrize("case", TWO_OBJECT_CASES)
def test_two_object_backward_propagation_matches_pipeline(case, request):
    """The propagator's G and T equal, up to isomorphism, the strict and
    canonical phases: on the golden clone-and-delete example with its
    relation, and on random two-object hierarchies with canonical plans."""
    if case == "golden":
        hierarchy, rule = request.getfixturevalue("clone_delete_setup")
        match = find_matches(rule, hierarchy.graph("T"), RESTRICTIVE)[0].instance
        arrow, relation = rule.left_leg, {"q1": "sq_w", "q2": "sq_b"}
        plan = build_relation_plan(
            hierarchy, "T", arrow, match, BACKWARD, {"G": relation}
        )
    else:
        hierarchy, arrow, match = _random_two_object(random.Random(case), BACKWARD)
        relation = {}
        plan = build_canonical_plan(hierarchy, "T", arrow, match, BACKWARD)
    g, t = hierarchy.graph("G"), hierarchy.graph("T")
    h = hierarchy.typing("G", "T")
    fact, _ = derive_backward_factorization(arrow, match, g, h, relation)
    rep = propagate_backward(hierarchy, plan)
    strict = backward_strict(t, match, fact.post_arrow, fact.retyping, g, h)
    canon = backward_canonical(strict.graph, strict.typing, fact.pre_arrow, strict.instance)
    assert find_isomorphism(rep.hierarchy.graph("G"), canon.graph) is not None
    assert find_isomorphism(rep.hierarchy.graph("T"), canon.typing_graph) is not None
    assert rep.hierarchy.validate_commutativity() == []


def test_identity_backward_rule_keeps_hierarchy():
    rng = random.Random(9)
    h = random_hierarchy(rng, max_objects=4)
    origin = h.nodes()[-1]
    g0 = h.graph(origin)
    plan = build_canonical_plan(h, origin, identity(g0), identity(g0), BACKWARD)
    rep = propagate_backward(h, plan)
    for name in h.nodes():
        assert find_isomorphism(rep.hierarchy.graph(name), h.graph(name)) is not None
    assert rep.hierarchy.validate_commutativity() == []


def test_fully_strict_forward_plan_touches_only_origin():
    g = Graph(["i"])
    t = Graph(["t1", "t2"])
    h = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t)
        .add_typing("G", "T", Homomorphism(g, t, {"i": "t1"}))
    )
    lhs = Graph(["p"])
    rhs = Graph(["p", "a"])
    rule = Homomorphism(lhs, rhs, {"p": "p"})
    match = Homomorphism(lhs, g, {"p": "i"})
    plan = build_relation_plan(h, "G", rule, match, FORWARD, {"T": {"a": "t2"}})
    rep = propagate_forward(h, plan)
    assert rep.hierarchy.graph("T") == t  # unchanged
    assert rep.hierarchy.graph("G").nodes == {"i", "a"}
    assert rep.hierarchy.typing("G", "T")["a"] == "t2"


def test_propagation_scoping_outside_subgraph():
    rng = random.Random(10)
    for _ in range(10):
        h = random_hierarchy(rng)
        origin = rng.choice(h.nodes())
        plan = random_forward_plan(rng, h, origin)
        rep = propagate_forward(h, plan)
        inside = set(h.forward_subgraph(origin).nodes())
        for name in h.nodes():
            if name not in inside:
                assert rep.hierarchy.graph(name) == h.graph(name)
        for (a, b) in h.edges():
            if a not in inside and b in inside:
                expected = compose(rep.traces[b], h.typing(a, b))
                assert hom_equal(rep.hierarchy.typing(a, b), expected)


def test_backward_propagation_scoping_outside_subgraph():
    rng = random.Random(14)
    for _ in range(10):
        h = random_hierarchy(rng)
        origin = rng.choice(h.nodes())
        plan = random_backward_plan(rng, h, origin)
        rep = propagate_backward(h, plan)
        inside = set(h.backward_subgraph(origin).nodes())
        for name in h.nodes():
            if name not in inside:
                assert rep.hierarchy.graph(name) == h.graph(name)
        for (a, b) in h.edges():
            if a in inside and b not in inside:
                expected = compose(h.typing(a, b), rep.traces[a])
                assert hom_equal(rep.hierarchy.typing(a, b), expected)


def test_random_hierarchy_propagation_preserves_validity():
    rng = random.Random(11)
    done = 0
    while done < 25:
        h = random_hierarchy(rng)
        origin = rng.choice(h.nodes())
        if rng.random() < 0.5:
            plan = random_forward_plan(rng, h, origin)
            rep = propagate_forward(h, plan)
        else:
            plan = random_backward_plan(rng, h, origin)
            rep = propagate_backward(h, plan)
        assert all(not v for _, v in rep.steps), rep.steps
        assert rep.hierarchy.validate_commutativity() == []
        done += 1


def test_forward_cleanup_merge_propagates_along_chain():
    g, t1, t2 = Graph(["i"]), Graph(["u"]), Graph(["v"])
    h = (
        Hierarchy()
        .add_object("G", g).add_object("T1", t1).add_object("T2", t2)
        .add_typing("G", "T1", Homomorphism(g, t1, {"i": "u"}))
        .add_typing("T1", "T2", Homomorphism(t1, t2, {"u": "v"}))
        .add_typing("G", "T2", Homomorphism(g, t2, {"i": "v"}))
    )
    lhs = Graph(["p"])
    rhs = Graph(["p", "s1", "s2"])
    arrow = Homomorphism(lhs, rhs, {"p": "p"})
    match = Homomorphism(lhs, g, {"p": "i"})
    plan = build_relation_plan(
        h, "G", arrow, match, FORWARD,
        {"T1": {"s2": "s1"}, "T2": {"s2": "s1"}},
    )
    reports = apply_plan(h, plan)
    final = reports[-1].hierarchy
    assert final.graph("G").nodes == {"i", "s1", "s2"}
    assert final.graph("T1").nodes == {"u", "s1_s2"}
    assert final.graph("T2").nodes == {"v", "s1_s2"}
    assert final.validate_commutativity() == []
    # the second clean-up resolved to an already-merged group and was skipped
    assert len(reports) == 2


def test_cleanup_groups_sharing_a_target_coalesce():
    t = Graph(["ty"])
    g = Graph(["i"])
    h = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t)
        .add_typing("G", "T", Homomorphism(g, t, {"i": "ty"}))
    )
    lhs = Graph(["p"])
    rhs = Graph(["p", "a1", "b1", "a2", "b2"])
    arrow = Homomorphism(lhs, rhs, {"p": "p"})
    match = Homomorphism(lhs, g, {"p": "i"})
    plan = build_relation_plan(
        h, "G", arrow, match, FORWARD,
        {"T": {"a1": "ty", "b1": "a1", "a2": "ty", "b2": "a2"}},
    )
    reports = apply_plan(h, plan)
    final = reports[-1].hierarchy
    assert len(final.graph("T").nodes) == 1  # everything shares one type
    assert len(final.graph("G").nodes) == 5
    assert final.validate_commutativity() == []


def test_backward_cleanup_deletion_propagates_along_chain():
    t = Graph(["sq"])
    g1 = Graph(["q1", "q2", "q3"])
    g2 = Graph(["r1", "r2", "r3"])
    h = (
        Hierarchy()
        .add_object("T", t).add_object("G1", g1).add_object("G2", g2)
        .add_typing("G1", "T", Homomorphism(g1, t, {n: "sq" for n in g1.nodes}))
        .add_typing("G2", "G1", Homomorphism(g2, g1, {"r1": "q1", "r2": "q2", "r3": "q3"}))
        .add_typing("G2", "T", Homomorphism(g2, t, {n: "sq" for n in g2.nodes}))
    )
    lhs = Graph(["sq"])
    iface = Graph(["w", "b"])
    rule_arrow = Homomorphism(iface, lhs, {"w": "sq", "b": "sq"})
    match = Homomorphism(lhs, t, {"sq": "sq"})
    plan = build_relation_plan(
        h, "T", rule_arrow, match, BACKWARD,
        {"G1": {"q1": "w", "q2": "b"}, "G2": {"r1": "w", "r2": "b"}},
    )
    reports = apply_plan(h, plan)
    final = reports[-1].hierarchy
    # q1/q2 and r1/r2 refined to a single copy; q3/r3 keep both clones
    assert len(final.graph("G1").nodes) == 4
    assert len(final.graph("G2").nodes) == 4
    assert len(final.graph("T").nodes) == 2
    assert final.validate_commutativity() == []
    assert len(reports) == 2


def test_deterministic_reports():
    rng1, rng2 = random.Random(12), random.Random(12)
    h1, h2 = random_hierarchy(rng1), random_hierarchy(rng2)
    o1, o2 = rng1.choice(h1.nodes()), rng2.choice(h2.nodes())
    p1 = random_forward_plan(rng1, h1, o1)
    p2 = random_forward_plan(rng2, h2, o2)
    r1, r2 = propagate_forward(h1, p1), propagate_forward(h2, p2)
    assert r1.hierarchy == r2.hierarchy
    assert r1.waves == r2.waves


# -- refusals, each with its full message ------------------------------------------


def _raised(cls, call, *args):
    with pytest.raises(cls) as caught:
        call(*args)
    return str(caught.value)


def _pair(g0: Graph, g1: Graph, typing: dict) -> Hierarchy:
    """g0 typed by g1."""
    return (
        Hierarchy()
        .add_object("g0", g0)
        .add_object("g1", g1)
        .add_typing("g0", "g1", Homomorphism(g0, g1, typing))
    )


def _add_plan() -> tuple[Hierarchy, PropagationPlan]:
    """x typed by u; a forward plan adding a at the origin g0."""
    g0 = Graph(["x"])
    h = _pair(g0, Graph(["u"]), {"x": "u"})
    rule = Homomorphism(g0, Graph(["x", "a"]), {"x": "x"})
    return h, PropagationPlan(origin="g0", rule=rule, match=identity(g0), direction=FORWARD)


def test_lift_rule_refuses_a_rule_on_another_pattern():
    lhs, other = Graph(["l"]), Graph(["o"])
    retyping = identity(lhs)
    r_minus = Homomorphism(Graph(["k"]), other, {"k": "o"})
    message = _raised(FactorizationError, library_lift_rule, retyping, r_minus, identity(lhs))
    assert message == "lift_rule: retyping and rule do not share a target"


def test_plan_with_a_factorization_of_the_other_direction_is_reported():
    h, plan = _add_plan()
    lhs = Graph(["x"])
    plan.factorizations["g1"] = BackwardFactorization(
        mid=lhs, post_arrow=identity(lhs), pre_arrow=identity(lhs), retyping=identity(lhs)
    )
    assert check_composability(h, plan) == ["node g1: expected a forward factorization"]


def test_strict_phase_that_merges_warns():
    g0 = Graph(["x", "y"])
    h = _pair(g0, Graph(["t"]), {"x": "t", "y": "t"})
    merged = Graph(["xy"])
    rule = Homomorphism(g0, merged, {"x": "xy", "y": "xy"})
    plan = PropagationPlan(origin="g0", rule=rule, match=identity(g0), direction=FORWARD)
    plan.factorizations["g1"] = ForwardFactorization(
        mid=merged,
        pre_arrow=rule,
        post_arrow=identity(merged),
        typing=Homomorphism(merged, h.graph("g1"), {"xy": "t"}),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert check_composability(h, plan) == []
    assert [(w.category, str(w.message)) for w in caught] == [
        (
            RuntimeWarning,
            "factorization at g1: strict-phase arrow is not a mono "
            "(the strict phase merges elements)",
        )
    ]


def test_parts_that_do_not_compose_to_the_rule_are_reported():
    h, plan = _add_plan()
    lhs, rhs = plan.rule.source, plan.rule.target
    plan.factorizations["g1"] = ForwardFactorization(
        mid=lhs,
        pre_arrow=identity(lhs),
        post_arrow=Homomorphism(lhs, rhs, {"x": "a"}),
        typing=Homomorphism(lhs, h.graph("g1"), {"x": "u"}),
    )
    assert check_composability(h, plan) == [
        "node g1: strict and canonical parts do not compose to the rule"
    ]


def test_retyping_square_failure_is_reported():
    t = Graph(["sq", "ci"])
    h = (
        Hierarchy()
        .add_object("G", Graph(["q1"]))
        .add_object("T", t)
        .add_typing("G", "T", Homomorphism(Graph(["q1"]), t, {"q1": "sq"}))
    )
    plan = PropagationPlan(origin="T", rule=identity(t), match=identity(t), direction=BACKWARD)
    (p,) = restriction_pullback(h.typing("G", "T"), identity(t)).pattern.nodes
    pattern = Graph([p])
    plan.factorizations["G"] = BackwardFactorization(
        mid=t,
        post_arrow=identity(t),
        pre_arrow=identity(t),
        retyping=Homomorphism(pattern, t, {p: "ci"}),
    )
    assert check_composability(h, plan) == [
        "node G: retyping square fails (instances retyped incompatibly)"
    ]


def test_connector_that_breaks_the_typing_square_is_reported():
    """g0 -> g1 -> g2, with a connector g1 -> g2 that keeps both rule
    triangles but sends the added node to a type other than its type's
    image."""
    g0, g1, g2 = Graph(["x"]), Graph(["u"]), Graph(["v", "v2"])
    h = (
        Hierarchy()
        .add_object("g0", g0).add_object("g1", g1).add_object("g2", g2)
        .add_typing("g0", "g1", Homomorphism(g0, g1, {"x": "u"}))
        .add_typing("g1", "g2", Homomorphism(g1, g2, {"u": "v"}))
    )
    rhs = Graph(["x", "a"])
    rule = Homomorphism(g0, rhs, {"x": "x"})
    plan = PropagationPlan(origin="g0", rule=rule, match=identity(g0), direction=FORWARD)
    for name, types in (("g1", {"x": "u", "a": "u"}), ("g2", {"x": "v", "a": "v2"})):
        plan.factorizations[name] = ForwardFactorization(
            mid=rhs, pre_arrow=rule, post_arrow=identity(rhs),
            typing=Homomorphism(rhs, h.graph(name), types),
        )
    plan.connectors[("g1", "g2")] = identity(rhs)
    assert check_composability(h, plan) == ["connector g1->g2: typing square fails"]


@pytest.mark.parametrize(
    "case, message",
    [
        ("direction", "propagate_forward needs a forward plan"),
        ("side", "match must be an instance of the rule's source"),
        ("origin", "match does not land in the origin object"),
        ("mono", "match must be a mono"),
    ],
)
def test_forward_plan_entry_refusals(case, message):
    g0 = Graph(["x"])
    h = _pair(g0, Graph(["u"]), {"x": "u"})
    rule, match, direction = identity(g0), identity(g0), FORWARD
    if case == "direction":
        direction = BACKWARD
    elif case == "side":
        match = Homomorphism(Graph(["y"]), g0, {"y": "x"})
    elif case == "origin":
        match = Homomorphism(g0, Graph(["x", "z"]), {"x": "x"})
    else:
        two = Graph(["p", "q"])
        rule, match = identity(two), Homomorphism(two, g0, {"p": "x", "q": "x"})
    plan = PropagationPlan(origin="g0", rule=rule, match=match, direction=direction)
    assert _raised(RewritingError, propagate_forward, h, plan) == message


def test_backward_relations_naming_no_instance_or_a_wrong_copy_are_refused(clone_delete_setup):
    hierarchy, rule = clone_delete_setup
    match = find_matches(rule, hierarchy.graph("T"), RESTRICTIVE)[0].instance
    args = (rule.left_leg, match, hierarchy.graph("G"), hierarchy.typing("G", "T"))
    assert _raised(
        RewritingError, derive_backward_factorization, *args, {"ghost": "sq_w"}
    ) == "related element ghost is not an instance of the matched pattern"
    assert _raised(
        RewritingError, derive_backward_factorization, *args, {"c1": "sq_w"}
    ) == "relation inconsistent with typing: sq_w is not a copy of the element typing c1"


def test_relation_plan_refuses_nodes_outside_the_sub_hierarchy_and_the_origin():
    h, plan = _add_plan()
    args = (h.add_object("far", Graph()), "g0", plan.rule, plan.match, FORWARD)
    assert _raised(RewritingError, build_relation_plan, *args, {"far": {}}) == (
        "relations given for nodes outside the affected sub-hierarchy: ['far']"
    )
    assert _raised(RewritingError, build_relation_plan, *args, {"g0": {}}) == (
        "the origin object cannot carry a relation"
    )


def test_forward_clean_up_beyond_the_origins_successors_is_refused():
    """G -> T1 -> T2 with no arrow G -> T2: a relation at T2 that links two
    added elements derives a clean-up merge at T2, where none is applied."""
    g, t1, t2 = Graph(["i"]), Graph(["u"]), Graph(["v"])
    h = (
        Hierarchy()
        .add_object("G", g).add_object("T1", t1).add_object("T2", t2)
        .add_typing("G", "T1", Homomorphism(g, t1, {"i": "u"}))
        .add_typing("T1", "T2", Homomorphism(t1, t2, {"u": "v"}))
    )
    lhs = Graph(["p"])
    arrow = Homomorphism(lhs, Graph(["p", "s1", "s2"]), {"p": "p"})
    match = Homomorphism(lhs, g, {"p": "i"})
    message = _raised(
        RewritingError, build_relation_plan, h, "G", arrow, match, FORWARD,
        {"T2": {"s2": "s1"}},
    )
    assert message == (
        "relation at T2 derives a clean-up merge, but clean-ups are applied at the "
        "origin's direct successors; relate the elements there instead"
    )


def test_backward_clean_up_beyond_the_origins_predecessors_is_refused():
    """T <- G1 <- G2 with no arrow G2 -> T: a relation at G2 that keeps one
    copy of a clone for one of its two instances derives a clean-up
    deletion at G2, where none is applied."""
    t, g1, g2 = Graph(["sq"]), Graph(["q1"]), Graph(["r1", "r2"])
    h = (
        Hierarchy()
        .add_object("T", t).add_object("G1", g1).add_object("G2", g2)
        .add_typing("G1", "T", Homomorphism(g1, t, {"q1": "sq"}))
        .add_typing("G2", "G1", Homomorphism(g2, g1, {"r1": "q1", "r2": "q1"}))
    )
    rule_arrow = Homomorphism(Graph(["w", "b"]), t, {"w": "sq", "b": "sq"})
    message = _raised(
        RewritingError, build_relation_plan, h, "T", rule_arrow, identity(t), BACKWARD,
        {"G2": {"r1": "w"}},
    )
    assert message == (
        "relation at G2 derives a clean-up deletion, but clean-ups are applied at the "
        "origin's direct predecessors; relate the instances there instead"
    )
