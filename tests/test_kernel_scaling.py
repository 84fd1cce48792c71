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
attribute dict and may take a union or subtractive step (a
`category._joined` or `category._kept` call, whether it computes a dict or
hands on an operand) only for the rule and the edges at the matched node.
Building every node of the result afresh made 9,001-9,003 such calls here.

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

A layered hierarchy typed one arrow at a time (as the deep_layers
benchmark sets it up) stays known valid, so each `add_typing` walks no
source and composes only along its frontier pairs: 2 composites for an
arrow whose tail has up to 45 ancestors, 40 in all at 12 layers and 88 at
24. Extending each ancestor's entry at every arrow built 220 and 1,012,
and dropping those entries 3,410 and 31,878. The first check after the
build walks every source once and builds what one check of the same
hierarchy built in bulk builds (220 composites and full comparisons at 12
layers, 1,012 at 24). Typing 200 nuggets into the action graph of a
KAMI-style hierarchy composes nothing, and each call hands the memo's log
its one arrow without reading what the log holds already. Adding 200
isolated objects to a layered hierarchy sorts no arrow (the constructor
sorted all 44 on each call).

The forward pushout guards count union steps (`category._joined` calls,
each an `attrs_union` call unless it hands on an operand) inside each
pushout of a canonical insert, a relation insert and a merge into G of
G -> M -> T plus G -> T, over a complete 12-node M and 4-node T: one per
class member and per edge built, which is one per C edge plus one per
host edge at a node whose id changed. The edges at a touched node that
keeps its id are carried over, though still listed for the step's check:
rebuilding them made up to 7 more steps in T's pushout, 23 in M's and 3
in G's.

The sharing guard clones a type whose instances, their type in M and the
pattern carry equal attribute dicts, through the 5000-node G: every
element of each rewritten object holds the very dict of the element it
copies or keeps, and no pair or copy computes an intersection or a
difference (53 calls when each was computed).

The trace guard runs forward inserts and a merge, and backward clones and
a delete, on the 5000-node G (relation plans with clean-ups among them),
and a single-graph `sqpo_rewrite`: no trace in a report, and neither of the
rewrite's traces, builds its node map, since every step reads images
through the trace's delta. Read afterwards, each map equals the eager one
that `pushout` and `final_pbc` built before, a whole-host identity map.

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
distinct value of the common shape and once per other attributed element:
1,019 times here, where the nodes' three-value dicts make 1,000 of the
1,976 attributed elements (it ran once per element before). One `sqpo
rewrite` of that file sorts the node set or the edge set of no graph it
loads, and each set
of a graph it writes at most once (`sorted` patched in every sqpo module):
the loader keeps the file's sorted lists and the constructions carry them
over, where each written graph's node set and edge set were sorted once
each before (and a forward insert once sorted the loaded G's nodes twice,
a backward delete the rewritten G's twice). Repeated `sqpo.cli.main` calls
in one process build no argument parser (each built one before, with
three subparsers).

On a hierarchy shaped like the benchmark's data hierarchy (1000 data nodes
over 32 mid types over 8 kinds, each node carrying its kind), whose file
holds 8 distinct raw attribute values, the loader checks 8 values
(`attrs_from_json`; 1,040 calls when each node's value was checked), the
writer builds 8 attribute objects (`attrs_to_json`; 1,040 before) and
`dumps_canonical` makes 31 `_dumps` calls, one per list, map or distinct
shared value (5,026 before, one per member). Four threads that
load and dump that file at once each get the single-thread bytes: the memos
live in one call.

The constructor guards count `normalize_attrs` calls too: building the
data_fwd-shaped G of 2,000 nodes over 8 kinds normalizes 8 values (2,000
before), equal values of the common shape are one dict on nodes and
edges alike, and `clone_node` on a 1,000-node graph whose 800 edges carry
one label normalizes at most 9 (1,802 before, as its result goes through
the constructor).
"""

import argparse
import contextlib
import io
import json
import json.encoder
import random
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import reference_kernels as ref
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
    Skeleton,
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
    """Count calls of the attribute normalizer and the union and
    subtractive steps of the constructions (`category._joined` and
    `category._kept`), which count whether they compute a dict or hand on
    an operand."""
    calls = {"normalize_attrs": 0, "_joined": 0, "_kept": 0}
    for module, name in (
        (sqpo.graphs, "normalize_attrs"),
        (sqpo.category, "_joined"),
        (sqpo.category, "_kept"),
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
    assert calls["_joined"] <= budget, calls
    assert calls["_kept"] == 0


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
    budget = len(interface.nodes) + len(interface.edges) + 4 * _edges_at(g, "n0")
    assert calls["_kept"] <= budget, calls
    assert calls["_joined"] == 0


LAYERS = 20
COMPOSITE_BUDGET = 1_000


def _layered_shape(layers: int):
    """`layers` layers of 2 objects holding the same 6-node graph, each
    typed by both objects of the next layer through the identity map: the
    graphs, and the arrows layer by layer."""
    nodes = [f"v{i}" for i in range(6)]
    edges = [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)]
    edges += [(nodes[i], nodes[i + 3]) for i in range(3)]
    names = [f"L{layer:02d}{side}" for layer in range(layers) for side in "ab"]
    graphs = {name: Graph(nodes, edges) for name in names}
    pairs = [
        (f"L{layer:02d}{a}", f"L{layer + 1:02d}{b}")
        for layer in range(layers - 1) for a in "ab" for b in "ab"
    ]
    identity_map = {n: n for n in nodes}
    return graphs, {(u, v): Homomorphism(graphs[u], graphs[v], identity_map) for u, v in pairs}


def _typed_one_by_one(graphs: dict, arrows: dict) -> Hierarchy:
    h = Hierarchy()
    for name, g in graphs.items():
        h = h.add_object(name, g)
    for (src, dst), hom in arrows.items():
        h = h.add_typing(src, dst, hom)
    return h


@pytest.mark.parametrize("kinds", [False, True], ids=["plain", "skeleton"])
def test_add_object_sorts_no_arrows(kinds, monkeypatch):
    """Adding 200 isolated objects to a typed 12-layer hierarchy, one at a
    time as a KAMI-style build adds its nuggets, sorts no arrow
    (`hierarchy._adjacency`, which the constructor runs over every arrow:
    once per call before) and gives the hierarchy the constructor builds,
    with the same shape lists and skeleton assignment."""
    graphs, arrows = _layered_shape(12)
    skeleton, assignment = None, {}
    if kinds:
        skeleton = Skeleton.create([f"k{i:02d}" for i in range(12)],
                                   [(f"k{i:02d}", f"k{i + 1:02d}") for i in range(11)])
        assignment = {name: f"k{name[1:3]}" for name in graphs}
    h = Hierarchy(graphs, arrows, skeleton, assignment)
    nuggets = {f"N{i:03d}": Graph([f"x{i}", "y"], [(f"x{i}", "y")]) for i in range(200)}
    nugget_kinds = dict.fromkeys(nuggets, "k00") if kinds else {}
    sorts = []
    adjacency = sqpo.hierarchy._adjacency

    def counting(edges):
        sorts.append(len(edges))
        return adjacency(edges)

    monkeypatch.setattr(sqpo.hierarchy, "_adjacency", counting)
    out = h
    for name, g in nuggets.items():
        out = out.add_object(name, g, nugget_kinds.get(name))
    assert sorts == []
    monkeypatch.undo()
    want = Hierarchy({**graphs, **nuggets}, arrows, skeleton, {**assignment, **nugget_kinds})
    assert out == want
    assert out.nodes() == want.nodes() and out.edges() == want.edges()
    for n in want.nodes():
        assert out.successors(n) == want.successors(n)
        assert out.predecessors(n) == want.predecessors(n)
    assert out.validate() == [] and h.nodes() == sorted(graphs)


@pytest.fixture(scope="module")
def layered():
    """The layered shape at 20 layers, typed one arrow at a time and then
    checked once. Typing leaves every entry to that first check, which
    walks all 40 sources and builds the 684 composites that the add_typing
    calls built before; the rewrites below count from its memo."""
    h = _typed_one_by_one(*_layered_shape(LAYERS))
    assert h.validate_commutativity() == []
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


def _count_check_work(monkeypatch) -> dict:
    """Counts of the composites sqpo.hierarchy builds and of the comparing
    edges it compares at every node ("full"), and the sources walked."""
    counts = {"composites": 0, "full": 0, "walked": []}
    compose, verdict, walk = sqpo.hierarchy.compose, Hierarchy._verdict, Hierarchy._walk

    def counting_compose(g, f):
        counts["composites"] += 1
        return compose(g, f)

    def counting_verdict(self, a, u, v, canon, parent, keys):
        counts["full"] += keys is None
        return verdict(self, a, u, v, canon, parent, keys)

    def recording_walk(self, a, *args):
        counts["walked"].append(a)
        return walk(self, a, *args)

    monkeypatch.setattr(sqpo.hierarchy, "compose", counting_compose)
    monkeypatch.setattr(Hierarchy, "_verdict", counting_verdict)
    monkeypatch.setattr(Hierarchy, "_walk", recording_walk)
    return counts


def _count_frontier_pairs(monkeypatch) -> list:
    """The number of frontier pairs of each add_typing that looks for them."""
    pairs = []
    frontier = sqpo.hierarchy._frontier

    def recording(*args):
        got = frontier(*args)
        pairs.append(len(got[2]))
        return got

    monkeypatch.setattr(sqpo.hierarchy, "_frontier", recording)
    return pairs


@pytest.mark.parametrize("layers, composites", [(12, 220), (24, 1_012)])
def test_add_typing_builds_what_the_bulk_check_builds(layers, composites, monkeypatch):
    """Typing a layered hierarchy one arrow at a time, as the deep_layers
    benchmark sets it up, keeps it known valid: each add_typing walks no
    source, compares nothing in full and composes along its frontier pairs
    only, at most path length times per pair and here at most 2 per arrow,
    however many ancestors its tail has. The first check after the build
    walks every source once and builds as many composites and makes as
    many full comparisons as one check of the same hierarchy built in
    bulk. When each add_typing extended its tail's ancestors' entries, the
    build itself built those composites; dropping the entries instead
    built 3,410 at 12 layers and 31,878 at 24."""
    graphs, arrows = _layered_shape(layers)
    counts = _count_check_work(monkeypatch)
    assert Hierarchy(graphs, arrows).validate() == []
    assert counts["composites"] == counts["full"] == composites

    h = _typed_one_by_one(graphs, {})
    pairs = _count_frontier_pairs(monkeypatch)
    counts.update(composites=0, full=0, walked=[])
    per_arrow, ancestors = [], []
    for (a, b), hom in arrows.items():
        before = counts["composites"]
        ancestors.append(len(h.ancestors(a)))
        h = h.add_typing(a, b, hom)
        per_arrow.append(counts["composites"] - before)
    assert counts["walked"] == [] and counts["full"] == 0
    assert len(pairs) == len(arrows)
    assert all(n <= p * (layers - 1) for n, p in zip(per_arrow, pairs)), (per_arrow, pairs)
    assert max(per_arrow) == 2 and max(ancestors) == 2 * layers - 3
    assert sum(per_arrow) == 4 * (layers - 2)

    assert h.validate_commutativity() == []
    assert counts["composites"] - sum(per_arrow) == counts["full"] == composites
    assert sorted(counts["walked"]) == sorted(graphs)
    assert h == Hierarchy(graphs, arrows)


def test_typing_nuggets_composes_nothing_and_logs_one_arrow(monkeypatch):
    """A KAMI-style build: an action graph A typed by a meta-model T, then
    200 nuggets, each added and typed into A. A nugget's only ancestor is
    itself and it has no other arrow, so its add_typing has no frontier
    pair and composes nothing. Each call hands the memo's log just its
    arrow and never reads the log as a whole (`_Memo.merged`), so the log
    costs every call the same however many arrows came before; only the
    check after the build reads it, once."""
    kinds = [f"t{i}" for i in range(4)]
    t = Graph(kinds, [(u, v) for u in kinds for v in kinds])
    a_nodes = [f"a{i}" for i in range(12)]
    action = Graph(a_nodes, [(a_nodes[i], a_nodes[i + 1]) for i in range(11)])
    h = Hierarchy().add_object("T", t).add_object("A", action)
    h = h.add_typing("A", "T", Homomorphism(action, t, {x: kinds[i % 4] for i, x in enumerate(a_nodes)}))
    nuggets = {f"N{j:03d}": Graph(["x", "y"], [("x", "y")]) for j in range(200)}
    counts = _count_check_work(monkeypatch)
    pairs = _count_frontier_pairs(monkeypatch)
    logged, merged = [], []
    logged_fn, merged_fn = sqpo.hierarchy._Memo.logged, sqpo.hierarchy._Memo.merged

    def recording_logged(memo, arrows, sources, added):
        logged.append((len(arrows), len(sources), len(added)))
        return logged_fn(memo, arrows, sources, added)

    def recording_merged(memo):
        merged.append(memo)
        return merged_fn(memo)

    monkeypatch.setattr(sqpo.hierarchy._Memo, "logged", recording_logged)
    monkeypatch.setattr(sqpo.hierarchy._Memo, "merged", recording_merged)
    for j, (name, g) in enumerate(nuggets.items()):
        typing = Homomorphism(g, action, {"x": f"a{j % 11}", "y": f"a{j % 11 + 1}"})
        h = h.add_object(name, g).add_typing(name, "A", typing)
    assert counts["composites"] == 0 and counts["walked"] == []
    assert pairs == [0] * len(nuggets)
    assert logged == [(1, 0, 1)] * len(nuggets) and merged == []
    assert h.validate_commutativity() == [] and len(merged) == 1
    arrows = {(n, "A"): h.typing(n, "A") for n in nuggets}
    assert h == Hierarchy({"T": t, "A": action, **nuggets}, {("A", "T"): h.typing("A", "T"), **arrows})


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
    violation = sqpo.graphs._violation_at

    def scanning(h, nodes, edges, keys):
        counts["violation"] += len(nodes) + len(edges)
        return violation(h, nodes, edges, keys)

    for module in modules:
        if getattr(module, "_violation_at", None) is violation:
            monkeypatch.setattr(module, "_violation_at", scanning)
    adjacency = Graph._adjacency

    def indexing(g):
        fresh = not hasattr(g, "_adjacent")
        succ, pred = adjacency(g)
        if fresh and counts.get("matching"):
            counts["adjacency"] += sum(map(len, succ.values())) + sum(map(len, pred.values()))
        return succ, pred

    monkeypatch.setattr(Graph, "_adjacency", indexing)
    return counts


_FORWARD_OPS = [
    ([AddNode("n"), AddEdge("x", "n")], {"x": "g5"}, {}),
    ([AddNode("n"), AddEdge("x", "n")], {"x": "g7"}, {"M": {"n": "m7"}, "T": {"n": "t3"}}),
    ([MergeNodes(("x", "y"), "xy")], {"x": "g1", "y": "g13"}, {}),
]


def _forward_rewrite(h, edits, anchor, relations):
    rule = build_rule(Graph(sorted(anchor)), edits)
    (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, anchor)
    plan = build_relation_plan(h, "G", rule.right_leg, match.instance, FORWARD, relations)
    return apply_plan(h, plan)


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
    for edits, anchor, relations in _FORWARD_OPS:
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


def _count_pushout_work(monkeypatch) -> list:
    """One record per `category.pushout` call that propagation makes: the
    span, the result and the union steps (`category._joined` calls, each
    of which calls `attrs_union` or hands on an operand) made inside it."""
    records: list[dict] = []
    union, construct = sqpo.category._joined, sqpo.category.pushout

    def counting(a, b):
        if records and "result" not in records[-1]:
            records[-1]["unions"] += 1
        return union(a, b)

    def recording(f, g):
        records.append({"f": f, "g": g, "unions": 0})
        records[-1]["result"] = construct(f, g)
        return records[-1]["result"]

    monkeypatch.setattr(sqpo.category, "_joined", counting)
    monkeypatch.setattr(sqpo.propagation, "pushout", recording)
    return records


@pytest.mark.parametrize("op", range(len(_FORWARD_OPS)), ids=["insert", "relation", "merge"])
def test_forward_pushouts_build_only_moved_and_rule_edges(typed_data, op, monkeypatch):
    """A canonical insert, a relation insert and a merge into G of G -> M ->
    T plus G -> T, whose M and T are complete. Each pushout unites the
    attributes of the classes of its touched nodes and C's nodes, and builds
    again only C's edge images and the edges at the host nodes whose id
    changed: the inserts none of the 7 edges at a touched type of T or
    the 23 at one of M, the merge the edges at its two merged nodes. The
    other edges at touched nodes are carried over, yet listed for the check
    (`_rebuilt`). Building every edge at a touched node again made that
    many more union steps."""
    records = _count_pushout_work(monkeypatch)
    _forward_rewrite(typed_data, *_FORWARD_OPS[op])
    assert [r["f"].target for r in records] == [typed_data.graph(n) for n in "TMG"]
    carried = []
    for r in records:
        f, c, res = r["f"], r["g"].target, r["result"]
        b = f.target
        touched = {f[a] for a in f.source.nodes}
        moved = res._moved
        at_moved = sum(1 for e in b.edges if moved.intersection(e))
        classes = len(touched) + len(moved - touched) + len(c.nodes)
        assert r["unions"] == classes + len(c.edges) + at_moved, (b, r["unions"])
        assert bool(moved) == (op == 2 and b is typed_data.graph("G"))
        assert at_moved or not moved
        listed = {res.from_b[n] for n in touched | moved} | set(res.from_c.node_map.values())
        assert sorted(res._rebuilt) == sorted(e for e in res.apex.edges if listed.intersection(e))
        built = {res.from_c.edge_image(e) for e in c.edges}
        built.update(res.from_b.edge_image(e) for e in b.edges if moved.intersection(e))
        carried.append(len(set(res._rebuilt) - built))
    # all but at most one of the 7 edges at a touched type of the complete T
    # and of the 23 at one of M are carried
    assert carried[0] >= 6 and carried[1] >= 22, carried


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


@pytest.fixture(scope="module")
def kinded_rare_type(rare_type):
    """rare_type with every node carrying its type in T as its kind
    ({"kind": ["t3"]} on g0 to g5, m11 and t3) and every edge {"e": ["y"]}.
    Each graph shares one dict per kind, as the loader does; the graphs
    hold distinct, equal dicts, so each typing maps every element to one
    with an equal dict."""
    h = rare_type
    to_t = {"G": h.typing("G", "T"), "M": h.typing("M", "T")}
    graphs = {}
    for name in ("G", "M", "T"):
        g = h.graph(name)
        kinds = {t: {"kind": frozenset({t})} for t in h.graph("T").nodes}
        kind_of = to_t[name].node_map if name in to_t else {t: t for t in g.nodes}
        graphs[name] = Graph._of(
            g.nodes, g.edges, {n: kinds[kind_of[n]] for n in g.nodes},
            dict.fromkeys(g.edges, {"e": frozenset({"y"})}),
        )
    out = Hierarchy()
    for name, g in graphs.items():
        out = out.add_object(name, g)
    for a, b in (("M", "T"), ("G", "M"), ("G", "T")):
        out = out.add_typing(a, b, Homomorphism(graphs[a], graphs[b], h.typing(a, b).node_map))
    return out


def test_backward_clone_hands_on_attribute_dicts(kinded_rare_type, monkeypatch):
    """A canonical clone of t3, whose pattern carries t3's kind, through the
    5000-node G of kinded_rare_type. Every node and edge of each rewritten
    object holds the attribute dict of the element it copies or keeps,
    the same object, and the constructions call neither
    `attrs_intersection` nor `attrs_difference`: each element's attributes
    equal those of the element it is paired with, and the clone subtracts
    nothing. Computing every pair's and copy's attributes made 21
    intersections and 32 differences here, each a new dict."""
    h = kinded_rare_type
    calls = Counter()
    for name in ("attrs_intersection", "attrs_difference"):
        original = getattr(sqpo.graphs, name)

        def counting(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for module in (sqpo.graphs, sqpo.category, sqpo.propagation, sqpo.relations):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    pattern = Graph(["x"], [], {"x": {"kind": ["t3"]}})
    rule = build_rule(pattern, [CloneNode("x", "x1", "x2")])
    (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": "t3"})
    plan = build_canonical_plan(h, "T", rule.left_leg, match.instance, BACKWARD)
    (report,) = apply_plan(h, plan)
    assert all(not v for _, v in report.steps)
    assert dict(calls) == {}, calls
    new = report.hierarchy
    assert len(new.graph("G").nodes) == DATA_NODES + RARE
    assert sorted(report.traces) == ["G", "M", "T"]
    for name, trace in report.traces.items():
        old, now = h.graph(name), new.graph(name)
        assert trace.source is now and trace.target is old
        for n in now.nodes:
            assert now.node_attrs[n] is old.node_attrs[trace[n]], (name, n)
        for (u, v) in now.edges:
            assert now.edge_attrs[(u, v)] is old.edge_attrs[(trace[u], trace[v])], (name, u, v)


def test_rewrites_build_no_trace_map(typed_data, rare_type):
    """Forward inserts (canonical, by relation, and by a relation with a
    clean-up merge) and a merge into the 5000-node G of typed_data, and a
    clone (canonical, and by a relation with a clean-up deletion) and a
    delete of t3 in rare_type, each from its base; then a clone and an add
    by `sqpo_rewrite` on G alone. No report trace, and neither `g_left`
    nor `g_right`, has built its node map: each step reads images through
    the trace's delta. Read node by node, and then whole, each trace gives
    the map the constructions built eagerly before: the identity on its
    source, re-set at its delta. Building those maps in every pushout and
    final pullback complement cost about 0.2 ms per step at 2000 nodes."""
    traces = []
    forward_ops = [
        *_FORWARD_OPS,
        ([AddNode("n1"), AddNode("n2"), AddEdge("x", "n1")], {"x": "g5"},
         {"M": {"n1": "n2", "n2": "m5"}, "T": {"n2": "t1"}}),
    ]
    for edits, anchor, relations in forward_ops:
        reports = _forward_rewrite(typed_data, edits, anchor, relations)
        assert all(not v for report in reports for _, v in report.steps)
        traces += [t for report in reports for t in report.traces.values()]
    assert len(reports) == 2  # the last relation derives a clean-up merge in M
    h = rare_type
    for edits, relations in (
        ([CloneNode("x", "x1", "x2")], {}),
        ([CloneNode("x", "x1", "x2")], {"G": {"g0": "x1"}}),
        ([DeleteNode("x")], {}),
    ):
        rule = build_rule(Graph(["x"]), edits)
        (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": "t3"})
        plan = build_relation_plan(h, "T", rule.left_leg, match.instance, BACKWARD, relations)
        reports = apply_plan(h, plan)
        assert all(not v for report in reports for _, v in report.steps)
        assert len(reports) == 1 + bool(relations)  # a clean-up deletion in G
        traces += [t for report in reports for t in report.traces.values()]
    rule = build_rule(
        Graph(["x"]), [CloneNode("x", "x1", "x2"), AddNode("n"), AddEdge("x1", "n")]
    )
    (match,) = find_matches(rule, typed_data.graph("G"), RESTRICTIVE, {"x": "g5"})
    result = sqpo.sqpo_rewrite(rule, match)
    traces += [result.g_left, result.g_right]
    assert len(traces) > 20 and not any(map(ref.node_map_built, traces))
    for t in traces:
        eager = ref.identity_except(t.source.nodes, t._delta)
        assert len(t._delta) <= 12  # the touched nodes, not the host
        assert {n: t[n] for n in t.source.nodes} == eager and not ref.node_map_built(t)
        assert t.node_map == eager and ref.node_map_built(t)
    assert sqpo.graphs.homomorphism_violation(result.g_left) is None
    assert sqpo.graphs.homomorphism_violation(result.g_right) is None


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


def test_cli_validate_checks_each_graph_once(tmp_path, monkeypatch):
    """`sqpo validate` on a valid file of 2 graphs runs `Graph.validate`
    on neither: the loader checks each graph's edge endpoints at C level,
    and the hierarchy check does not check the graphs again (it did,
    making 4 calls, and the loader alone made 2). A graph with a dangling
    edge runs `Graph.validate` once, for its message."""
    calls = []
    original = Graph.validate

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(Graph, "validate", counting)
    path = FIXTURES / "merge_add.hierarchy.json"
    with redirect_stdout(io.StringIO()):
        assert sqpo.cli.main(["validate", str(path)]) == 0
    assert len(calls) == 0

    broken = json.loads(path.read_text(encoding="utf-8"))
    broken["graphs"]["T"]["edges"].append({"from": "b", "to": "nowhere"})
    (tmp_path / "broken.json").write_text(json.dumps(broken), encoding="utf-8")
    with redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert sqpo.cli.main(["validate", str(tmp_path / "broken.json")]) == 2
    assert len(calls) == 1


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


@pytest.mark.parametrize("edit, direction", [(AddNode("y"), "fwd"), (DeleteNode("x"), "bwd")])
def test_cli_rewrite_sorts_each_graph_once(attributed_json, tmp_path, monkeypatch, edit, direction):
    """One `sqpo rewrite` of the 1000-node file, a forward insert or a
    backward delete at G, sorts the node set or the edge set of no graph it
    loads: the file lists them in order. It sorts each set of a graph it
    writes at most once (none here: the rewritten graphs carry their host's
    order over)."""
    (tmp_path / "h.json").write_text(json.dumps(attributed_json))
    rule = build_rule(Graph(["x"], (), {"x": {"kind": ["data"]}}), [edit])
    (tmp_path / "rule.json").write_text(json.dumps(rule_to_json(rule)))
    loaded, written = [], []
    load, write = sqpo.cli._load_hierarchy, sqpo.cli._hierarchy_text
    monkeypatch.setattr(sqpo.cli, "_load_hierarchy", lambda *args: loaded.append(load(*args)) or loaded[-1])
    monkeypatch.setattr(sqpo.cli, "_hierarchy_text", lambda h, *rest: written.append(h) or write(h, *rest))
    sorts = []  # each frozenset sorted, kept alive so that no id is reused

    def counting(iterable, *args, **kwargs):
        if type(iterable) is frozenset:
            sorts.append(iterable)
        return sorted(iterable, *args, **kwargs)

    for name in [m for m in sys.modules if m.startswith("sqpo.")]:
        monkeypatch.setattr(sys.modules[name], "sorted", counting, raising=False)
    assert sqpo.cli.main([
        "rewrite", str(tmp_path / "h.json"), "G", str(tmp_path / "rule.json"), "0",
        "--direction", direction, "-o", str(tmp_path / "out.json"),
    ]) == 0
    (before,), (after,) = loaded, written
    assert len(after.graph("G").nodes) == (1001 if direction == "fwd" else 999)
    counts = {
        (which, name, part): sum(s is getattr(h.graph(name), part) for s in sorts)
        for which, h in (("loaded", before), ("written", after))
        for name in h.nodes() for part in ("nodes", "edges")
    }
    assert not any(n for (which, _, _), n in counts.items() if which == "loaded"), counts
    assert max(counts.values()) <= 1, counts


def test_cli_main_builds_its_parser_once(tmp_path, monkeypatch):
    """The CLI's argument parser is built once per process: repeated
    `sqpo.cli.main` calls build no parser of their own."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    with redirect_stdout(io.StringIO()):
        for _ in range(3):
            assert sqpo.cli.main(["validate", str(FIXTURES / "merge_add.hierarchy.json")]) == 0
        assert sqpo.cli.main([
            "rewrite", str(FIXTURES / "merge_add.hierarchy.json"), "G",
            str(FIXTURES / "merge_add.rule.json"), "0", "--direction", "fwd",
            "-o", str(tmp_path / "out.json"),
        ]) == 0
    assert built == []


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


def _kinded_graph_args(n: int, labelled: bool = False) -> tuple:
    """Constructor arguments of a G shaped like the data_fwd benchmark's:
    n nodes, each carrying one of 8 kinds (`{"kind": ["k3"]}`), and 0.8 n
    seeded edges, which carry one label if `labelled`."""
    rng = random.Random(7)
    kinds = [i % 8 for i in range(n)]
    rng.shuffle(kinds)
    nodes = [f"g{i}" for i in range(n)]
    edges = set()
    while len(edges) < n * 4 // 5:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((nodes[u], nodes[v]))
    node_attrs = {x: {"kind": [f"k{k}"]} for x, k in zip(nodes, kinds)}
    edge_attrs = {e: {"label": ["link"]} for e in edges} if labelled else {}
    return nodes, edges, node_attrs, edge_attrs


def test_building_a_graph_normalizes_each_distinct_value_once(monkeypatch):
    calls = _count_attr_work(monkeypatch)
    g = Graph(*_kinded_graph_args(2000))
    assert calls["normalize_attrs"] == 8
    shared: dict = {}
    for attrs in g.node_attrs.values():
        assert shared.setdefault(attrs["kind"], attrs) is attrs
    assert len(g.node_attrs) == 2000 and len(shared) == 8


def test_equal_node_and_edge_values_share_one_dict():
    nodes, edges, node_attrs, edge_attrs = _kinded_graph_args(200, labelled=True)
    node_attrs["g0"] = {"label": ("link",)}  # every container of one str has the common shape
    node_attrs["g1"] = {"label": frozenset({"link"})}
    g = Graph(nodes, edges, node_attrs, edge_attrs)
    held = [g.node_attrs["g0"], g.node_attrs["g1"], *g.edge_attrs.values()]
    assert all(attrs is held[0] for attrs in held)


def test_clone_node_normalizes_each_distinct_value_once(monkeypatch):
    g = Graph(*_kinded_graph_args(1000, labelled=True))
    calls = _count_attr_work(monkeypatch)
    out = g.clone_node("g0", "c1", "c2")
    assert len(out.nodes) == 1001
    assert calls["normalize_attrs"] <= 9  # 8 kinds and one label
    assert out.node_attrs["c1"] is out.node_attrs["c2"]
