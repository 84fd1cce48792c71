"""The one homomorphism search, `graphs.homomorphism_maps`, against the
searches it replaced and against an independent matcher.

Connector derivation and `find_isomorphism` are compared with their
original backtracking searches, kept in reference_kernels.py, on seeded
random inputs: the same arrow (or none), the same isomorphism (or none).
`find_matches` is compared with networkx's VF2 monomorphism matcher, which
shares no code with sqpo.
"""

import json
import random
from pathlib import Path

import pytest

import reference_kernels as ref
import sqpo.propagation as propagation
from generators import (
    random_backward_plan,
    random_forward_plan,
    random_graph,
    random_hierarchy,
    random_hom_from,
    random_mono_into,
)
from sqpo import (
    EXPANSIVE,
    BackwardFactorization,
    ForwardFactorization,
    FORWARD,
    RESTRICTIVE,
    Graph,
    Homomorphism,
    Rule,
    build_canonical_plan,
    build_relation_plan,
    check_composability,
    find_isomorphism,
    find_matches,
    hierarchy_from_json,
    rule_from_json,
)
from sqpo.graphs import attrs_contained, homomorphism_maps

FIXTURES = Path(__file__).parent / "fixtures"


def _connector_via_kernel(mid_i, mid_j, candidates):
    """The new connector path on given candidate lists: node attributes go
    into the candidates, then the first non-injective map."""
    filtered = {
        e: [c for c in opts if attrs_contained(mid_i.attrs_of(e), mid_j.attrs_of(c))]
        for e, opts in candidates.items()
    }
    found = next(homomorphism_maps(mid_i, mid_j, filtered, injective=False), None)
    return None if found is None else Homomorphism(mid_i, mid_j, found)


def _same_arrow(new, old) -> None:
    assert (new is None) == (old is None)
    if new is not None:
        assert new.node_map == old.node_map


@pytest.mark.parametrize("seed", range(3))
def test_connector_search_matches_reference(seed):
    """Small graphs with sorted candidate lists: all targets, a random
    subset, a forced singleton or nothing at all."""
    rng = random.Random(9800 + seed)
    found = missing = 0
    for _ in range(150):
        mid_i = random_graph(rng, max_nodes=4, min_nodes=1, p_edge=0.35, prefix="e")
        if rng.random() < 0.6:
            mid_j = random_hom_from(rng, mid_i, prefix="c").target
        else:
            mid_j = random_graph(rng, max_nodes=4, min_nodes=1, p_edge=0.5, prefix="c")
        targets = sorted(mid_j.nodes)
        candidates = {}
        for e in sorted(mid_i.nodes):
            pick = rng.random()
            if pick < 0.3:
                candidates[e] = [rng.choice(targets)]
            elif pick < 0.35:
                candidates[e] = []
            elif pick < 0.6:
                candidates[e] = sorted(c for c in targets if rng.random() < 0.6)
            else:
                candidates[e] = targets
        old = ref._search_connector(mid_i, mid_j, candidates)
        _same_arrow(_connector_via_kernel(mid_i, mid_j, candidates), old)
        found += old is not None
        missing += old is None
    assert found and missing


def _mix_with_canonical(rng, h, plan):
    """The plan with some factorizations swapped for the canonical ones, so
    that some typing arrows join a strict and a canonical factorization."""
    canonical = build_canonical_plan(h, plan.origin, plan.rule, plan.match, plan.direction)
    for name in sorted(plan.factorizations):
        if rng.random() < 0.5:
            plan.factorizations[name] = canonical.factorizations[name]
    return plan


def test_derived_connectors_match_reference(monkeypatch):
    """Every connector that check_composability derives, forward and
    backward, equals the one the original derivation finds: for the chain
    fixture, whose g1->g2 connector does not exist, and for random plans
    partly swapped to canonical factorizations at the origin that affects
    the most objects."""
    outcomes = []

    def checked(new, old):
        def derive(*args):
            arrow = new(*args)
            _same_arrow(arrow, old(*args))
            outcomes.append(arrow is not None)
            return arrow

        return derive

    monkeypatch.setattr(
        propagation,
        "_derive_forward_connector",
        checked(propagation._derive_forward_connector, ref._derive_forward_connector),
    )
    monkeypatch.setattr(
        propagation,
        "_derive_backward_connector",
        checked(propagation._derive_backward_connector, ref._derive_backward_connector),
    )
    h = hierarchy_from_json(json.loads((FIXTURES / "chain.hierarchy.json").read_text()))
    rule = rule_from_json(json.loads((FIXTURES / "chain.rule.json").read_text()))
    plan = build_relation_plan(
        h, "g0", rule.right_leg, Homomorphism(rule.interface, h.graph("g0"), {}),
        FORWARD, {"g1": {"a": "t"}},
    )
    assert check_composability(h, plan)
    assert outcomes[-1] is False

    for seed in range(3):
        rng = random.Random(9900 + seed)
        for _ in range(40):
            h = random_hierarchy(rng, max_objects=6)
            forward = rng.random() < 0.5
            affected = h.forward_subgraph if forward else h.backward_subgraph
            origin = max(sorted(h.nodes()), key=lambda n: len(affected(n).nodes()))
            make = random_forward_plan if forward else random_backward_plan
            check_composability(h, _mix_with_canonical(rng, h, make(rng, h, origin)))
    assert outcomes.count(True) > 100


def _loose_map(rng, source: Graph, target: Graph) -> Homomorphism:
    """Any node map source→target, not checked to be a homomorphism."""
    targets = sorted(target.nodes)
    return Homomorphism(source, target, {n: rng.choice(targets) for n in sorted(source.nodes)})


@pytest.mark.parametrize("seed", range(3))
def test_derived_connectors_of_loose_factorizations_match_reference(seed):
    """Factorizations with random arrows over few labels, so that several
    candidates pass the post-arrow triangle and the typing, node-attribute,
    edge and forced-map conditions each decide some connectors."""
    rng = random.Random(10300 + seed)
    outcomes = []
    for _ in range(200):
        lhs, lhs_plus = Graph(["a0"]), Graph(["z0", "z1"])
        mid_i = random_graph(rng, max_nodes=3, min_nodes=1, p_edge=0.3, p_attr=0.2, prefix="e")
        mid_j = random_graph(rng, max_nodes=5, min_nodes=2, p_edge=0.6, p_attr=0.7, prefix="c")
        pre_i, pre_j = _loose_map(rng, lhs, mid_i), _loose_map(rng, lhs, mid_j)
        post_i, post_j = _loose_map(rng, mid_i, lhs_plus), _loose_map(rng, mid_j, lhs_plus)
        if rng.random() < 0.5:
            t_i, t_j = Graph(["t0", "t1"]), Graph(["s0", "s1"])
            fx_i = ForwardFactorization(mid_i, pre_i, post_i, _loose_map(rng, mid_i, t_i))
            fx_j = ForwardFactorization(mid_j, pre_j, post_j, _loose_map(rng, mid_j, t_j))
            args = (fx_i, fx_j, _loose_map(rng, t_i, t_j))
            new, old = propagation._derive_forward_connector, ref._derive_forward_connector
        else:
            p_i, p_j = Graph(["p0", "p1"]), Graph(["q0", "q1"])
            fx_i = BackwardFactorization(mid_i, post_i, pre_i, _loose_map(rng, p_i, mid_i))
            fx_j = BackwardFactorization(mid_j, post_j, pre_j, _loose_map(rng, p_j, mid_j))
            args = (fx_i, fx_j, _loose_map(rng, p_i, p_j))
            new, old = propagation._derive_backward_connector, ref._derive_backward_connector
        arrow = new(*args)
        _same_arrow(arrow, old(*args))
        outcomes.append(arrow is not None)
    assert outcomes.count(True) > 5 and outcomes.count(False) > 5


def _permuted(rng, g: Graph) -> tuple[Graph, dict[str, str]]:
    names = [f"q{i}" for i in range(len(g.nodes))]
    rng.shuffle(names)
    perm = dict(zip(sorted(g.nodes), names))
    copy = Graph(
        perm.values(),
        [(perm[u], perm[v]) for (u, v) in g.edges],
        {perm[n]: attrs for n, attrs in g.node_attrs.items()},
        {(perm[u], perm[v]): attrs for (u, v), attrs in g.edge_attrs.items()},
    )
    return copy, perm


@pytest.mark.parametrize("seed", range(3))
def test_find_isomorphism_of_permuted_copies_matches_reference(seed):
    """Permuted copies, alone, with typings into a shared graph, and with a
    right or a wrong anchor; both searches return the same bijection."""
    rng = random.Random(10000 + seed)
    for _ in range(60):
        g = random_graph(rng, max_nodes=6, p_edge=0.35, p_attr=0.3, prefix="n")
        copy, perm = _permuted(rng, g)
        typing1 = typing2 = None
        if g.nodes and rng.random() < 0.5:
            typing1 = random_hom_from(rng, g, prefix="t")
            typing2 = Homomorphism(copy, typing1.target, {perm[n]: typing1[n] for n in g.nodes})
        anchor = None
        if g.nodes and rng.random() < 0.5:
            n = rng.choice(sorted(g.nodes))
            anchor = {n: perm[n] if rng.random() < 0.7 else rng.choice(sorted(copy.nodes))}
        old = ref.find_isomorphism(g, copy, typing1, typing2, anchor)
        assert find_isomorphism(g, copy, typing1, typing2, anchor) == old
        if anchor is None:
            assert old is not None


def _swap_edge_attrs(rng, g: Graph) -> Graph | None:
    """g with the attributes of two differently attributed edges swapped,
    or None when all edges carry the same attributes."""
    edges = sorted(g.edges)
    pairs = [(a, b) for a in edges for b in edges if a < b and g.attrs_of(a) != g.attrs_of(b)]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    attrs = dict(g.edge_attrs)
    attrs[a], attrs[b] = g.attrs_of(b), g.attrs_of(a)
    return Graph(g.nodes, g.edges, g.node_attrs, attrs)


def _rewire_edge(rng, g: Graph) -> Graph | None:
    """g with one edge moved to a free node pair, keeping its attributes."""
    free = [(u, v) for u in sorted(g.nodes) for v in sorted(g.nodes) if (u, v) not in g.edges]
    if not g.edges or not free:
        return None
    old = rng.choice(sorted(g.edges))
    new = rng.choice(free)
    attrs = {e: a for e, a in g.edge_attrs.items() if e != old}
    if g.attrs_of(old):
        attrs[new] = g.attrs_of(old)
    return Graph(g.nodes, (g.edges - {old}) | {new}, g.node_attrs, attrs)


@pytest.mark.parametrize("seed", range(3))
def test_find_isomorphism_of_equal_count_pairs_matches_reference(seed):
    """Pairs with equal node and edge counts that are mostly not isomorphic:
    one edge rewired, or the attributes of two edges swapped."""
    rng = random.Random(10100 + seed)
    outcomes = []
    for _ in range(80):
        g = random_graph(rng, max_nodes=5, min_nodes=2, p_edge=0.4, p_edge_attr=0.5)
        damaged = (_swap_edge_attrs if rng.random() < 0.5 else _rewire_edge)(rng, g)
        if damaged is None:
            continue
        other, _ = _permuted(rng, damaged)
        old = ref.find_isomorphism(g, other)
        assert find_isomorphism(g, other) == old
        outcomes.append(old is None)
    assert True in outcomes


def test_edge_attribute_totals_decide_isomorphism():
    """The identity carries every edge attribute of g into `more`, but
    `more` holds one value more, so the two are not isomorphic; swapping
    the two edges' attributes gives a copy that is, by swapping the edges."""
    edges = [("a", "b"), ("c", "d")]
    g = Graph("abcd", edges, {}, {("a", "b"): {"k": ["x"]}, ("c", "d"): {"k": ["x", "y"]}})
    more = Graph("abcd", edges, {}, {e: {"k": ["x", "y"]} for e in edges})
    swapped = Graph("abcd", edges, {}, {("a", "b"): {"k": ["x", "y"]}, ("c", "d"): {"k": ["x"]}})
    for search in (find_isomorphism, ref.find_isomorphism):
        assert search(g, more) is None
        assert search(g, swapped) == {"a": "c", "b": "d", "c": "a", "d": "b"}


def _to_networkx(nx, g: Graph):
    d = nx.DiGraph()
    for n in g.nodes:
        d.add_node(n, attrs=g.attrs_of(n))
    for e in g.edges:
        d.add_edge(*e, attrs=g.attrs_of(e))
    return d


def _contains(host_data, pattern_data) -> bool:
    return attrs_contained(pattern_data["attrs"], host_data["attrs"])


@pytest.mark.parametrize("seed", range(3))
def test_find_matches_agrees_with_networkx(seed):
    """The set of matches equals networkx's subgraph monomorphisms with
    attribute containment on nodes and edges, for both match kinds."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    rng = random.Random(10200 + seed)
    total = 0
    for _ in range(30):
        host = random_graph(rng, max_nodes=7, min_nodes=1, p_edge=0.35, prefix="h")
        if rng.random() < 0.5:
            pattern = random_mono_into(rng, host).source
        else:
            pattern = random_graph(rng, max_nodes=3, p_edge=0.4, prefix="p")
        rule = Rule.identity_rule(pattern)
        if pattern.nodes and rng.random() < 0.5:
            # a rule whose interface clones nothing but drops one lhs node,
            # so the two kinds search different patterns
            dropped = rng.choice(sorted(pattern.nodes))
            interface = pattern.delete_node(dropped)
            ident = {n: n for n in interface.nodes}
            rule = Rule(
                pattern,
                interface,
                interface,
                Homomorphism(interface, pattern, ident),
                Homomorphism(interface, interface, ident),
            )
        for kind in (RESTRICTIVE, EXPANSIVE):
            side = rule.lhs if kind == RESTRICTIVE else rule.interface
            matcher = DiGraphMatcher(
                _to_networkx(nx, host),
                _to_networkx(nx, side),
                node_match=_contains,
                edge_match=_contains,
            )
            expected = {
                frozenset((p, h) for h, p in found.items())
                for found in matcher.subgraph_monomorphisms_iter()
            }
            got = [frozenset(m.instance.node_map.items()) for m in find_matches(rule, host, kind)]
            assert len(got) == len(set(got))
            assert set(got) == expected
            total += len(got)
    assert total
