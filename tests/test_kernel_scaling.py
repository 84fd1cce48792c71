"""Scaling guards for the rewrite kernels and for hierarchy validation.

The timed guards run one kernel on a 5000-node, 4000-edge graph and require it to
finish within a CPU-time budget (`time.process_time`, so other processes on
the host do not count). On a 2-core x86-64 container host with CPython 3.11
the near-linear kernels take 0.02-0.07 s here and the budgets are 30-40 times
that, so a host running twice as slow stays far inside them. The pair-loop
kernels kept in reference_kernels.py take 3.6-12.7 s on the same host, so a
reintroduced loop over all pairs of nodes fails these tests.

The delta guards count the work of three one-node forward rewrites into a
5000-node object, and of a backward clone and delete of a type with six
instances there: composed and compared map entries, scanned elements and
host index entries stay within a budget set by the rule and its instances,
whatever the size of the object (the previous steps did 24,000 to 255,195
of each forward and 36,402 to 90,154 backward).

Two matching guards count work too: matching two attributed nodes twice
on that graph indexes it once and checks attributes only on the smallest
posting list of the node that wants two values (at most 20 calls here,
against 20,000 when every pattern node filtered the whole sorted host),
and a fully anchored match indexes nothing.

Two guards count work instead of timing it: a one-node add pushed out into
that graph and a one-node clone by final_pbc must not re-normalize any
attribute dict and may call the attribute algebra only for the rule and the
edges at the matched node. Building every node of the result afresh made
9,001-9,003 such calls here.

The hierarchy guards count calls instead of timing them: one rewrite
propagated through a 20-layer hierarchy must build few composites (`compose`
and `Homomorphism._patched` calls made by sqpo.hierarchy), check
commutativity twice (the input and the result) and walk each source at
most once, and only sources that reach an updated object. Re-checking
every path pair of the whole hierarchy after each object makes 87,548 (fwd
add) and 88,236 (bwd clone) composes here, a memo that walks every
affected source's whole cone after each object 12,396, a dirty-region
recheck after each object 1,332 (39 checks, about 780 walks), and one
check of the result 684, against a budget of 1,000. The counts are
deterministic, so host speed cannot trip them.

The plan-resolution guards count `restriction_pullback` (patched in every
sqpo module that holds it) and `Hierarchy.composed_typing` calls. A plan is
resolved once, so building, checking and propagating it makes one
restriction per affected object and one composed typing per affected
object other than the origin. On G -> M -> T plus G -> T that is 3 and 2
for a backward clone (9 and 6 when each consumer made its own), 2 composed
typings for a forward add (4 before), and 3 restrictions for `sqpo
rewrite --plan` with an explicit backward factorization (10 before). The
backward clone calls `category.pullback` 5 times (3 restrictions and 2
lifts); 7 when `build_canonical_plan` also pulled back for a clean-up that an
empty relation cannot derive.

The CLI guards count calls too: `sqpo validate` on a file of 2 graphs
checks each graph once (4 `Graph.validate` calls before), and `sqpo
rewrite --plan` derives no factorization for a node the plan file gives (1
`derive_forward_factorization` call before, for strict_plan's T).

The JSON guards count calls too. `sqpo rewrite` and `sqpo validate` on an
attributed G -> M -> T plus G -> T hierarchy of 1000 data nodes must never
reach `json.encoder._make_iterencode`, the stdlib's pure-Python encoder
that `json.dumps(..., indent=2)` runs; loading that hierarchy must not call
`normalize_attrs`, which the public `Graph` constructor runs once per
attributed node and edge (1,976 times here).

On a hierarchy shaped like the benchmark's data hierarchy (1000 data nodes
over 32 mid types over 8 kinds, each node carrying its kind), whose file
holds 8 distinct raw attribute values, the loader checks 8 values
(`attrs_from_json`; 1,040 calls when each node's value was checked), the
writer builds 8 attribute objects (`attrs_to_json`; 1,040 before) and
`dumps_canonical` makes 31 `_dumps` calls, one per list, map or distinct
shared value (5,026 before, one per member). Four threads that
load and dump that file at once each get the single-thread bytes: the memos
live in one call.
"""

import io
import json
import json.encoder
import random
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sqpo
import sqpo.category
import sqpo.cli
import sqpo.graphs
import sqpo.hierarchy
import sqpo.propagation
import sqpo.relations
from sqpo import (
    BACKWARD,
    EXPANSIVE,
    FORWARD,
    RESTRICTIVE,
    AddEdge,
    AddNode,
    CloneNode,
    DeleteNode,
    Graph,
    Hierarchy,
    Homomorphism,
    MergeNodes,
    Rule,
    apply_plan,
    build_canonical_plan,
    build_relation_plan,
    build_rule,
    final_pbc,
    find_matches,
    graph_to_json,
    hierarchy_to_json,
    pullback,
    pushout,
    rule_to_json,
)

NODES = 5000
EDGES = 4000


@pytest.fixture(scope="module")
def big():
    """A seeded 5000-node, 4000-edge graph typed by a one-node schema with a
    self-loop, so every node and edge lies over the schema's single type."""
    rng = random.Random(5000)
    nodes = [f"n{i}" for i in range(NODES)]
    edges = set()
    while len(edges) < EDGES:
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    g = Graph(nodes, edges, {"n0": {"k": ["x"]}}, {e: {"k": ["y"]} for e in list(edges)[:50]})
    schema = Graph(["T"], [("T", "T")], {"T": {"k": ["x"]}}, {("T", "T"): {"k": ["y"]}})
    typing = Homomorphism(g, schema, {n: "T" for n in nodes})
    return g, schema, typing


def _cpu_seconds(fn):
    start = time.process_time()
    result = fn()
    return time.process_time() - start, result


def test_final_pbc_clone_scales(big):
    g, _, _ = big
    lhs = Graph(["a"])
    interface = Graph(["a1", "a2"])
    clone = Homomorphism(interface, lhs, {"a1": "a", "a2": "a"})
    match = Homomorphism(lhs, g, {"a": "n1"})
    seconds, res = _cpu_seconds(lambda: final_pbc(clone, match))
    assert len(res.apex.nodes) == NODES + 1
    assert seconds < 1.0, f"final_pbc took {seconds:.2f} s of CPU"


def test_pullback_of_typing_scales(big):
    g, schema, typing = big
    pattern = Graph(["p"], [("p", "p")])
    mono = Homomorphism(pattern, schema, {"p": "T"})
    seconds, res = _cpu_seconds(lambda: pullback(typing, mono))
    assert len(res.apex.nodes) == NODES
    assert len(res.apex.edges) == EDGES
    assert seconds < 1.2, f"pullback took {seconds:.2f} s of CPU"


def test_find_matches_edge_pattern_scales(big):
    g, _, _ = big
    pattern = Graph(["u", "v"], [("u", "v")])
    rule = Rule.identity_rule(pattern)
    seconds, matches = _cpu_seconds(lambda: find_matches(rule, g))
    assert len(matches) == len({e for e in g.edges if e[0] != e[1]})
    assert seconds < 2.5, f"find_matches took {seconds:.2f} s of CPU"


def _count_attr_work(monkeypatch):
    """Count calls of the attribute normalizer and of the attribute algebra
    the constructions use."""
    calls = {"normalize_attrs": 0, "attrs_union": 0, "attrs_difference": 0}
    for module, name in (
        (sqpo.graphs, "normalize_attrs"),
        (sqpo.category, "attrs_union"),
        (sqpo.category, "attrs_difference"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_repeated_match_filters_posting_lists_only(big, monkeypatch):
    """Matching twice on the same host indexes it once. A pattern node that
    wants two values checks node attributes only on its smallest posting
    list; one that wants a single value takes its posting list as it is."""
    g, _, _ = big
    node_attrs = dict(g.node_attrs)
    node_attrs.update({f"n{i}": {"k": frozenset({"x"})} for i in range(1, 100)})
    node_attrs.update({f"n{i}": {"k": frozenset({"x"}), "j": frozenset({1})} for i in range(50, 60)})
    g = Graph._of(g.nodes, g.edges, node_attrs, g.edge_attrs)  # no cached index yet
    pattern = Graph(["u", "v"], [], {"u": {"k": ["x"], "j": [True]}, "v": {"k": ["x"]}})
    calls = {"attrs_contained": 0, "index_builds": 0}
    contained, index = sqpo.rules.attrs_contained, Graph._candidate_index

    def counting(sub, sup):
        calls["attrs_contained"] += 1
        return contained(sub, sup)

    def indexing(host):
        calls["index_builds"] += not hasattr(host, "_index")
        return index(host)

    monkeypatch.setattr(sqpo.rules, "attrs_contained", counting)
    monkeypatch.setattr(Graph, "_candidate_index", indexing)
    rule = Rule.identity_rule(pattern)
    runs = [find_matches(rule, g) for _ in range(2)]
    assert [m.instance.node_map for m in runs[0]] == [m.instance.node_map for m in runs[1]]
    us, vs = sorted(f"n{i}" for i in range(50, 60)), sorted(f"n{i}" for i in range(100))
    assert [(m.instance["u"], m.instance["v"]) for m in runs[0]] == [
        (u, v) for u in us for v in vs if u != v
    ]
    postings = g._index[1]
    budget = 2 * min(len(postings[("k", "x")]), len(postings[("j", 1)]))
    assert budget == 20
    assert calls["index_builds"] == 1 and calls["attrs_contained"] <= budget, calls


def test_anchored_match_builds_no_index(big):
    g, _, _ = big
    g = Graph._of(g.nodes, g.edges, g.node_attrs, g.edge_attrs)
    pattern = Graph(["u", "v"], [], {"u": {"k": ["x"]}})
    matches = find_matches(Rule.identity_rule(pattern), g, anchor={"u": "n0", "v": "n1"})
    assert len(matches) == 1
    assert not hasattr(g, "_index") and not hasattr(g, "_adjacent")


def test_edgeless_match_builds_no_adjacency(big, monkeypatch):
    """An unanchored 1-node match on a fresh graph has no edge to prune or
    narrow by, so it never builds the host's adjacency lists; it still
    finds every node, in sorted order."""
    g, _, _ = big
    g = Graph._of(g.nodes, g.edges, g.node_attrs, g.edge_attrs)
    built = []
    adjacency = Graph._adjacency

    def counting(host):
        built.append(host)
        return adjacency(host)

    monkeypatch.setattr(Graph, "_adjacency", counting)
    matches = find_matches(Rule.identity_rule(Graph(["u"])), g)
    assert built == [] and not hasattr(g, "_adjacent")
    assert [m.instance.node_map for m in matches] == [{"u": n} for n in sorted(g.nodes)]


def _edges_at(g, n):
    return sum(1 for e in g.edges if n in e)


def test_pushout_of_a_node_add_works_on_the_match_only(big, monkeypatch):
    """Adding one node next to a host node touches that node, its edges and
    the rule; the other 4999 nodes and their edges are carried over as they
    are."""
    g, _, _ = big
    interface = Graph(["x"])
    rhs = Graph(["x", "new"], [("x", "new")], {"new": {"k": ["z"]}})
    match = Homomorphism(interface, g, {"x": "n0"})
    add = Homomorphism(interface, rhs, {"x": "x"})
    calls = _count_attr_work(monkeypatch)
    res = pushout(match, add)
    assert len(res.apex.nodes) == NODES + 1
    assert len(res.apex.edges) == EDGES + 1
    assert calls["normalize_attrs"] == 0
    budget = len(rhs.nodes) + len(rhs.edges) + 1 + _edges_at(g, "n0")
    assert calls["attrs_union"] <= budget, calls
    assert calls["attrs_difference"] == 0


def test_final_pbc_of_a_node_clone_works_on_the_match_only(big, monkeypatch):
    """Cloning one host node touches that node and its edges; the other
    4999 nodes keep their ids, attributes and edges."""
    g, _, _ = big
    lhs = Graph(["a"])
    interface = Graph(["a1", "a2"])
    clone = Homomorphism(interface, lhs, {"a1": "a", "a2": "a"})
    match = Homomorphism(lhs, g, {"a": "n0"})
    calls = _count_attr_work(monkeypatch)
    res = final_pbc(clone, match)
    assert len(res.apex.nodes) == NODES + 1
    assert all(res.project[n] == n for n in g.nodes if n != "n0")
    assert calls["normalize_attrs"] == 0
    budget = 2 * (len(interface.nodes) + len(interface.edges) + 4 * _edges_at(g, "n0"))
    assert calls["attrs_difference"] <= budget, calls
    assert calls["attrs_union"] == 0


LAYERS = 20
COMPOSITE_BUDGET = 1_000


@pytest.fixture(scope="module")
def layered():
    """20 layers of 2 objects holding the same 6-node graph; every object is
    typed by both objects of the next layer through the identity map."""
    nodes = [f"v{i}" for i in range(6)]
    edges = [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)]
    edges += [(nodes[i], nodes[i + 3]) for i in range(3)]
    names = [f"L{layer:02d}{side}" for layer in range(LAYERS) for side in "ab"]
    graphs = {name: Graph(nodes, edges) for name in names}
    h = Hierarchy()
    for name in names:
        h = h.add_object(name, graphs[name])
    for layer in range(LAYERS - 1):
        for a in "ab":
            for b in "ab":
                src, dst = f"L{layer:02d}{a}", f"L{layer + 1:02d}{b}"
                h = h.add_typing(
                    src, dst, Homomorphism(graphs[src], graphs[dst], {n: n for n in nodes})
                )
    return h


def _counted_rewrite(monkeypatch, h, origin, edits, direction):
    """Apply a canonical plan of `edits` at origin; returns the composites
    sqpo.hierarchy built, the sources each commutativity check walked
    (one list per check) and the last report."""
    composites, walked = 0, []
    compose, patched = sqpo.hierarchy.compose, Homomorphism._patched.__func__
    walk = Hierarchy._walk

    def counting_compose(g, f):
        nonlocal composites
        composites += 1
        return compose(g, f)

    def counting_patched(cls, *args):
        nonlocal composites
        composites += sys._getframe(1).f_globals["__name__"] == "sqpo.hierarchy"
        return patched(cls, *args)

    def recording_walk(self, a, *args):
        walked[-1].append(a)
        return walk(self, a, *args)

    check = Hierarchy.validate_commutativity

    def recording_check(self):
        walked.append([])
        return check(self)

    monkeypatch.setattr(sqpo.hierarchy, "compose", counting_compose)
    monkeypatch.setattr(Homomorphism, "_patched", classmethod(counting_patched))
    monkeypatch.setattr(Hierarchy, "_walk", recording_walk)
    monkeypatch.setattr(Hierarchy, "validate_commutativity", recording_check)
    rule = build_rule(Graph(["x"]), edits)
    forward = direction == FORWARD
    kind = EXPANSIVE if forward else RESTRICTIVE
    (match,) = find_matches(rule, h.graph(origin), kind, {"x": "v0"})
    arrow = rule.right_leg if forward else rule.left_leg
    plan = build_canonical_plan(h, origin, arrow, match.instance, direction)
    reports = apply_plan(h, plan)
    assert all(not v for report in reports for _, v in report.steps)
    return composites, walked, reports[-1]


def _assert_cone_rechecks(h, walked, report):
    """The rewrite made two checks, the input's and the result's, and
    walked each source at most once over both, and only sources that reach
    an updated object."""
    assert len(walked) == 2, len(walked)
    sources = walked[0] + walked[1]
    assert len(sources) == len(set(sources)), sources
    updated = set().union(*(h.ancestors(i) for i, _ in report.steps))
    assert set(sources) <= updated


def test_forward_add_in_deep_hierarchy_composes_little(layered, monkeypatch):
    composites, walked, report = _counted_rewrite(
        monkeypatch, layered, "L00a", [AddNode("n"), AddEdge("x", "n")], FORWARD
    )
    assert len(report.steps) == 2 * LAYERS - 1
    assert 0 < composites <= COMPOSITE_BUDGET, f"{composites} composites in sqpo.hierarchy"
    _assert_cone_rechecks(layered, walked, report)


def test_backward_clone_in_deep_hierarchy_composes_little(layered, monkeypatch):
    top = f"L{LAYERS - 1:02d}a"
    composites, walked, report = _counted_rewrite(
        monkeypatch, layered, top, [CloneNode("x", "x1", "x2")], BACKWARD
    )
    assert len(report.steps) == 2 * LAYERS - 1
    assert 0 < composites <= COMPOSITE_BUDGET, f"{composites} composites in sqpo.hierarchy"
    _assert_cone_rechecks(layered, walked, report)


DATA_NODES = 5000
DELTA_BUDGET = 200


def _typed_hierarchy(n_nodes: int, n_edges: int) -> Hierarchy:
    """G -> M -> T plus G -> T: a seeded G of n_nodes nodes and n_edges
    edges over a complete 12-node M over a complete 4-node T, node i of G
    typed by m(i mod 12) and m(j) by t(j mod 4)."""
    rng = random.Random(6)
    g_nodes = [f"g{i}" for i in range(n_nodes)]
    edges = set()
    while len(edges) < n_edges:
        edges.add((rng.choice(g_nodes), rng.choice(g_nodes)))
    m_nodes = [f"m{j}" for j in range(12)]
    t_nodes = [f"t{k}" for k in range(4)]
    g = Graph(g_nodes, edges)
    m = Graph(m_nodes, [(a, b) for a in m_nodes for b in m_nodes])
    t = Graph(t_nodes, [(a, b) for a in t_nodes for b in t_nodes])
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, {f"m{j}": f"t{j % 4}" for j in range(12)}))
    h = h.add_typing(
        "G", "M", Homomorphism(g, m, {f"g{i}": f"m{i % 12}" for i in range(n_nodes)})
    )
    return h.add_typing(
        "G", "T", Homomorphism(g, t, {f"g{i}": f"t{i % 4}" for i in range(n_nodes)})
    )


@pytest.fixture(scope="module")
def typed_data():
    return _typed_hierarchy(DATA_NODES, EDGES)


def _count_delta_work(monkeypatch):
    """Sum, over every call in any sqpo module: the source nodes of each
    `compose` and `hom_equal`, the source nodes and edges each validity
    check scans, and the host adjacency entries built while matching."""
    counts = {"compose": 0, "hom_equal": 0, "violation": 0, "adjacency": 0}
    modules = [getattr(sqpo, name) for name in (
        "graphs", "category", "rules", "hierarchy", "propagation", "relations"
    )]
    for name in ("compose", "hom_equal"):
        original = getattr(sqpo.graphs, name)

        def counting(g, f, _original=original, _name=name):
            counts[_name] += len(f.source.nodes if _name == "compose" else g.source.nodes)
            return _original(g, f)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    violation = sqpo.graphs._violation

    def scanning(h, nodes, edges, keys, everywhere):
        counts["violation"] += len(nodes) + len(edges)
        return violation(h, nodes, edges, keys, everywhere)

    monkeypatch.setattr(sqpo.graphs, "_violation", scanning)
    adjacency = Graph._adjacency

    def indexing(g):
        fresh = not hasattr(g, "_adjacent")
        succ, pred = adjacency(g)
        if fresh and counts.get("matching"):
            counts["adjacency"] += sum(map(len, succ.values())) + sum(map(len, pred.values()))
        return succ, pred

    monkeypatch.setattr(Graph, "_adjacency", indexing)
    return counts


def test_forward_steps_work_at_the_delta_only(typed_data, monkeypatch):
    """A one-node canonical insert, a relation insert and a merge into the
    5000-node G of G -> M -> T plus G -> T, each from the same base, with an
    anchored match. Typings are rebuilt as patches and checked at the
    delta, the commutativity memo compares only patched keys, and
    `composed_typing` reads the memo, so each of the four sums stays within
    a budget set by the rule and the delta, whatever the size of G.

    Here the sums are 83, 156, 54 and 0. The same three ops with the
    previous steps, which rebuilt, checked and composed every typing over
    all of G and indexed the host on every match, gave 255,195 source
    nodes composed, 54,528 elements scanned by homomorphism_violation,
    45,055 entries compared by hom_equal and 24,000 host adjacency entries
    built by the anchored matches."""
    h = typed_data
    counts = _count_delta_work(monkeypatch)
    g = h.graph("G")
    ops = [
        ([AddNode("n"), AddEdge("x", "n")], {"x": "g5"}, {}),
        ([AddNode("n"), AddEdge("x", "n")], {"x": "g7"}, {"M": {"n": "m7"}, "T": {"n": "t3"}}),
        ([MergeNodes(("x", "y"), "xy")], {"x": "g1", "y": "g13"}, {}),
    ]
    for edits, anchor, relations in ops:
        rule = build_rule(Graph(sorted(anchor)), edits)
        counts["matching"] = 1
        (match,) = find_matches(rule, g, EXPANSIVE, anchor)
        counts["matching"] = 0
        plan = build_relation_plan(h, "G", rule.right_leg, match.instance, FORWARD, relations)
        reports = apply_plan(h, plan)
        assert all(not v for report in reports for _, v in report.steps)
        assert len(reports[-1].hierarchy.graph("G").nodes) in (DATA_NODES + 1, DATA_NODES - 1)
    del counts["matching"]
    assert all(value <= DELTA_BUDGET for value in counts.values()), counts


RARE = 6
BACKWARD_BUDGET = 500


@pytest.fixture(scope="module")
def rare_type():
    """G -> M -> T plus G -> T with the 5000-node G of `typed_data`, whose
    type t3 has only RARE instances: g0 to g5 are typed by m11, which alone
    lies over t3, and every other node i of G by m(i mod 11), over t(i mod
    11 mod 3)."""
    base = _typed_hierarchy(DATA_NODES, EDGES)
    g, m, t = base.graph("G"), base.graph("M"), base.graph("T")
    g_m = {f"g{i}": "m11" if i < RARE else f"m{i % 11}" for i in range(DATA_NODES)}
    m_t = {f"m{j}": "t3" if j == 11 else f"t{j % 3}" for j in range(12)}
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, m_t))
    h = h.add_typing("G", "M", Homomorphism(g, m, g_m))
    return h.add_typing("G", "T", Homomorphism(g, t, {n: m_t[g_m[n]] for n in g.nodes}))


def test_backward_steps_work_at_the_delta_only(rare_type, monkeypatch):
    """A canonical clone and a delete of t3, which has RARE instances in the
    5000-node G, each from the same base. Typings are rebuilt as patches
    and checked at the delta, and the commutativity memo compares only
    patched keys, so the sums of source nodes composed and compared and of
    elements scanned by validity checks stay within a budget set by the
    instances of t3 and the edges at them (and at m11 in the 12-node M),
    whatever the size of G.

    Here the sums are 82 (compose), 56 (hom_equal) and 198 (validity
    checks). The previous steps, which rebuilt, validated and compared
    every typing over all of its source, gave 90,154, 50,080 and 36,402."""
    h = rare_type
    counts = _count_delta_work(monkeypatch)
    for edits, nodes in (([CloneNode("x", "x1", "x2")], DATA_NODES + RARE),
                         ([DeleteNode("x")], DATA_NODES - RARE)):
        rule = build_rule(Graph(["x"]), edits)
        (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": "t3"})
        plan = build_canonical_plan(h, "T", rule.left_leg, match.instance, BACKWARD)
        reports = apply_plan(h, plan)
        assert all(not v for report in reports for _, v in report.steps)
        assert len(reports[-1].hierarchy.graph("G").nodes) == nodes
    sums = {key: counts[key] for key in ("compose", "hom_equal", "violation")}
    assert all(value <= BACKWARD_BUDGET for value in sums.values()), sums


def _count_plan_resolution(monkeypatch):
    """Count `restriction_pullback` and `category.pullback` calls, each
    patched in every sqpo module that holds the function, and
    `Hierarchy.composed_typing` calls."""
    counts = {"restriction_pullback": 0, "pullback": 0, "composed_typing": 0}
    for name, original in [
        ("restriction_pullback", sqpo.propagation.restriction_pullback),
        ("pullback", sqpo.category.pullback),
    ]:

        def pulling(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (sqpo, sqpo.category, sqpo.propagation, sqpo.relations, sqpo.cli):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, pulling)
    composed = Hierarchy.composed_typing

    def composing(self, a, b):
        counts["composed_typing"] += 1
        return composed(self, a, b)

    monkeypatch.setattr(Hierarchy, "composed_typing", composing)
    return counts


def test_backward_plan_resolved_once_per_affected_object(typed_data, monkeypatch):
    """Building, checking and propagating a canonical backward clone of a T
    node through G -> M -> T plus G -> T makes one restriction pullback and
    one composed typing per affected object other than the origin: 2 and 2.
    The origin's restriction is the match itself (3 restriction pullbacks
    when the origin's was pulled back along its identity typing; 9 and 6
    when the plan builder, the composability check and the propagation
    step each made their own). It calls `category.pullback` 4 times, for
    the 2 restrictions and the lifts at M and G: the origin's lift is the
    rule, and an empty relation rejects no copy, so `build_canonical_plan`
    makes no clean-up pullback (7 calls when it made one at M and G)."""
    h = typed_data
    counts = _count_plan_resolution(monkeypatch)
    rule = build_rule(Graph(["x"]), [CloneNode("x", "x1", "x2")])
    (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": "t1"})
    plan = build_canonical_plan(h, "T", rule.left_leg, match.instance, BACKWARD)
    reports = apply_plan(h, plan)
    assert [len(r.steps) for r in reports] == [3]
    assert counts == {"restriction_pullback": 2, "pullback": 4, "composed_typing": 2}


def test_forward_plan_resolved_once_per_affected_object(typed_data, monkeypatch):
    """A canonical one-node forward add at G makes one composed typing per
    affected object other than the origin, 2 (4 when the plan builder and
    the composability check each made their own), and no restriction."""
    h = typed_data
    counts = _count_plan_resolution(monkeypatch)
    rule = build_rule(Graph(["x"]), [AddNode("n"), AddEdge("x", "n")])
    (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": "g5"})
    plan = build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)
    reports = apply_plan(h, plan)
    assert [len(r.steps) for r in reports] == [3]
    assert counts == {"restriction_pullback": 0, "pullback": 0, "composed_typing": 2}


def test_cli_plan_file_resolved_once_per_affected_object(tmp_path, monkeypatch):
    """`sqpo rewrite --plan` with an explicit backward factorization at M
    makes one restriction pullback per affected object other than the
    origin, whose restriction is the match: the plan file's retyping is read
    against the restriction the plan builder made (it made a second one,
    and each consumer its own: 10 in all; 3 while the origin's was pulled
    back along its identity typing)."""
    h = _typed_hierarchy(48, 40)
    rule = build_rule(Graph(["x"]), [CloneNode("x", "x1", "x2")])
    match = find_matches(rule, h.graph("T"), RESTRICTIVE)[0].instance
    fx = build_canonical_plan(h, "T", rule.left_leg, match, BACKWARD).factorizations["M"]
    files = {
        "h.json": hierarchy_to_json(h),
        "rule.json": rule_to_json(rule),
        "plan.json": {"factorizations": {"M": {
            "mid": graph_to_json(fx.mid),
            "pre": fx.pre_arrow.node_map,
            "post": fx.post_arrow.node_map,
            "typing_or_retyping": fx.retyping.node_map,
        }}},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    counts = _count_plan_resolution(monkeypatch)
    code = sqpo.cli.main([
        "rewrite", str(tmp_path / "h.json"), "T", str(tmp_path / "rule.json"), "0",
        "--direction", "bwd", "--plan", str(tmp_path / "plan.json"),
        "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
    ])
    assert code == 0
    assert counts["restriction_pullback"] == 2


FIXTURES = Path(__file__).parent / "fixtures"


def test_cli_validate_checks_each_graph_once(monkeypatch):
    """`sqpo validate` on a file of 2 graphs runs `Graph.validate` twice:
    the loader checks each graph, and the hierarchy check does not check
    them again (it did, making 4 calls)."""
    calls = []
    original = Graph.validate

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(Graph, "validate", counting)
    with redirect_stdout(io.StringIO()):
        assert sqpo.cli.main(["validate", str(FIXTURES / "merge_add.hierarchy.json")]) == 0
    assert len(calls) == 2


def test_cli_plan_file_derives_nothing_for_its_nodes(tmp_path, monkeypatch):
    """`sqpo rewrite --plan` with an explicit factorization at T, the one
    affected node besides the origin, derives no forward factorization (it
    derived one for T and threw it away)."""
    calls = []
    original = sqpo.relations.derive_forward_factorization

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sqpo.relations, "derive_forward_factorization", counting)
    with redirect_stdout(io.StringIO()):
        assert sqpo.cli.main([
            "rewrite", str(FIXTURES / "strict_plan.hierarchy.json"), "G",
            str(FIXTURES / "strict_plan.rule.json"), "0", "--direction", "fwd",
            "--plan", str(FIXTURES / "strict_plan.plan.json"),
            "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
        ]) == 0
    assert calls == []


def _attributed_hierarchy_json(n_nodes: int) -> dict:
    """`_typed_hierarchy(n_nodes, 0.8 n_nodes)` as JSON, every node carrying
    a kind and every edge a label (their images carry them too, so every
    typing stays valid)."""
    obj = hierarchy_to_json(_typed_hierarchy(n_nodes, n_nodes * 4 // 5))
    for graph in obj["graphs"].values():
        for node in graph["nodes"]:
            node["attrs"] = {"kind": ["data", 2, True]}
        for edge in graph["edges"]:
            edge["attrs"] = {"label": ["link"]}
    return obj


@pytest.fixture(scope="module")
def attributed_json():
    return _attributed_hierarchy_json(1000)


def test_loading_a_hierarchy_normalizes_nothing(attributed_json, monkeypatch):
    calls = _count_attr_work(monkeypatch)
    h = sqpo.hierarchy_from_json(attributed_json)
    assert len(h.graph("G").node_attrs) == 1000 and len(h.graph("G").edge_attrs) == 800
    assert calls["normalize_attrs"] == 0


def test_cli_never_runs_the_pure_python_encoder(attributed_json, tmp_path, monkeypatch):
    (tmp_path / "h.json").write_text(json.dumps(attributed_json))
    rule = build_rule(Graph(["x"], (), {"x": {"kind": ["data"]}}), [AddNode("y")])
    (tmp_path / "rule.json").write_text(json.dumps(rule_to_json(rule)))
    calls = []
    original = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    out = io.StringIO()
    with redirect_stdout(out):
        assert sqpo.cli.main(["validate", str(tmp_path / "h.json")]) == 0
        assert sqpo.cli.main([
            "rewrite", str(tmp_path / "h.json"), "G", str(tmp_path / "rule.json"), "0",
            "--direction", "fwd", "-o", str(tmp_path / "out.json"),
        ]) == 0
    assert (tmp_path / "out.json").read_text().startswith('{\n  "graphs": {')
    assert calls == []


def _data_hierarchy_json(n: int) -> dict:
    """A hierarchy shaped like the benchmark's data hierarchy, as JSON: G of
    n nodes and 0.8 n seeded edges, each node typed by one of 32 mid types
    of a complete M and each mid type by one of 8 kinds of a complete T.
    Every node carries its kind (`{"kind": ["k3"]}`), and edges carry none."""
    rng = random.Random(7)
    mid_of = [i % 32 for i in range(n)]
    rng.shuffle(mid_of)
    edges = set()
    while len(edges) < n * 4 // 5:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((f"g{u}", f"g{v}"))
    kinds = {f"g{i}": mid_of[i] % 8 for i in range(n)}
    kinds.update({f"m{j}": j % 8 for j in range(32)})
    kinds.update({f"t{k}": k for k in range(8)})

    def graph(ids, graph_edges):
        return Graph(ids, graph_edges, {x: {"kind": [f"k{kinds[x]}"]} for x in ids})

    t_ids, m_ids = [f"t{k}" for k in range(8)], [f"m{j}" for j in range(32)]
    t = graph(t_ids, [(a, b) for a in t_ids for b in t_ids])
    m = graph(m_ids, [(a, b) for a in m_ids for b in m_ids])
    g = graph([f"g{i}" for i in range(n)], edges)
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, {x: f"t{kinds[x]}" for x in m.nodes}))
    h = h.add_typing("G", "M", Homomorphism(g, m, {f"g{i}": f"m{mid_of[i]}" for i in range(n)}))
    h = h.add_typing("G", "T", Homomorphism(g, t, {x: f"t{kinds[x]}" for x in g.nodes}))
    return hierarchy_to_json(h)


@pytest.fixture(scope="module")
def data_text():
    return sqpo.graphs.dumps_canonical(_data_hierarchy_json(1000))


def _counting(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_json_work_follows_distinct_attribute_values(data_text, monkeypatch):
    obj = json.loads(data_text)
    raw = {json.dumps(e["attrs"]) for g in obj["graphs"].values() for e in g["nodes"] + g["edges"] if "attrs" in e}
    assert len(raw) == 8
    checked = _counting(monkeypatch, sqpo.graphs, "attrs_from_json")
    h = sqpo.hierarchy_from_json(obj)
    assert len(checked) <= 8

    graphs = [h.graph(name) for name in h.nodes()]
    distinct = {id(a) for g in graphs for a in [*g.node_attrs.values(), *g.edge_attrs.values()]}
    assert len(distinct) == 8
    built = _counting(monkeypatch, sqpo.graphs, "attrs_to_json")
    out = hierarchy_to_json(h)
    assert len(built) <= len(distinct)

    encoded = _counting(monkeypatch, sqpo.graphs, "_dumps")
    assert sqpo.graphs.dumps_canonical(out) == data_text
    assert len(encoded) <= 40


def test_threads_load_and_dump_one_file_alike(data_text):
    """4 threads, more than the cores of a small host, with a short switch
    interval, each round-tripping the file and a variant with renamed
    attribute keys and values in turn: each round trip must give its input's
    own bytes, which a text cache kept across calls breaks once ids are
    reused."""
    texts = [data_text, data_text.replace('"k', '"kind ')]
    results: dict[int, list[str]] = {}

    def work(i):
        results[i] = [
            sqpo.graphs.dumps_canonical(hierarchy_to_json(sqpo.hierarchy_from_json(json.loads(text))))
            for text in texts * 2
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: texts * 2 for i in range(4)}
