"""Differential and retention tests of the delta forward steps.

`propagate_forward` rebuilds each typing as a patch of the arrow it
replaces and checks it only at the step's delta (see its docstring). These
tests run random forward plans and require:

* every rebuilt typing to equal the one the old full rebuild produced;
* the delta check to answer exactly as the full `homomorphism_violation`
  does, on the rebuilt typing and on copies corrupted at delta nodes, with
  the same message when it fails;
* the edges it checks to be exactly the edges at the delta;
* a chain of rewrites to keep no earlier graph alive;
* threads racing to fill the lazy caches of a shared base to get the
  results of a sequential run.
"""

import gc
import random
import sys
import threading
import weakref

import sqpo.propagation
from sqpo import (
    EXPANSIVE,
    FORWARD,
    AddEdge,
    AddNode,
    MergeNodes,
    Graph,
    Hierarchy,
    Homomorphism,
    apply_plan,
    build_canonical_plan,
    build_relation_plan,
    build_rule,
    find_matches,
    hierarchy_to_json,
    propagate_forward,
)
from sqpo.graphs import homomorphism_violation

from generators import random_forward_plan, random_hierarchy


def test_rebuilt_typings_equal_the_full_rebuild():
    """The old step rebuilt i -> j from the old arrow over every node of i
    and set k -> i to trace_i after the old arrow; the last write wins."""
    rng = random.Random(606)
    compared = 0
    for _ in range(40):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        origin = rng.choice(h.nodes())
        plan = random_forward_plan(rng, h, origin)
        rep = propagate_forward(h, plan)
        traces, instances = rep.traces, rep.instances
        for (a, b), arrow in rep.updated_typings.items():
            old = h.typing(a, b)
            if a in traces:
                expected = {traces[a][n]: traces[b][old[n]] for n in old.source.nodes}
                expected.update(
                    (instances[a][c], instances[b][c]) for c in plan.rule.target.nodes
                )
            else:
                expected = {n: traces[b][old[n]] for n in old.source.nodes}
            assert arrow.node_map == expected
            assert homomorphism_violation(arrow) is None
            compared += 1
    assert compared > 40


KINDS = (
    "map not total",
    "maps to unknown node",
    "has no image edge",
    "attributes of node",
    "attributes of edge",
)


def test_delta_check_answers_as_the_full_check(monkeypatch):
    """Each delta check is repeated by the full check, and so is the check
    of copies with one delta node sent elsewhere (to each target node, to a
    missing node, or nowhere); every kind of violation occurs."""
    original = sqpo.propagation._violation_at
    outcomes = {"pass": 0, "fail": 0}
    kinds = set()

    def checked(arrow, nodes, edges, keys):
        got = original(arrow, nodes, edges, keys)
        assert got == homomorphism_violation(arrow)
        assert set(edges) == {e for e in arrow.source.edges if e[0] in nodes or e[1] in nodes}
        targets = sorted(arrow.target.nodes) + ["missing", None]
        for d in sorted(nodes)[:3]:
            for t in targets:
                node_map = dict(arrow.node_map)
                if t is None:
                    del node_map[d]
                else:
                    node_map[d] = t
                bad = Homomorphism._of(arrow.source, arrow.target, node_map)
                want = homomorphism_violation(bad)
                assert original(bad, nodes, edges, keys) == want
                outcomes["fail" if want else "pass"] += 1
                if want:
                    kinds.add(next(k for k in KINDS if k in want))
        return got

    monkeypatch.setattr(sqpo.propagation, "_violation_at", checked)
    rng = random.Random(31)
    for _ in range(60):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        origin = rng.choice(h.nodes())
        rep = propagate_forward(h, random_forward_plan(rng, h, origin))
        assert all(not v for _, v in rep.steps)
    # an added edge typed strictly onto an attributed edge: sending its new
    # end to the loop's node keeps an image edge that lacks the attribute
    t = Graph(["t0", "t1"], [("t0", "t0"), ("t0", "t1")], {}, {("t0", "t1"): {"k": ["a"]}})
    g = Graph(["x"])
    h = Hierarchy().add_object("G", g).add_object("T", t)
    h = h.add_typing("G", "T", Homomorphism(g, t, {"x": "t0"}))
    rhs = Graph(["x", "n"], [("x", "n")], {}, {("x", "n"): {"k": ["a"]}})
    rule = Homomorphism(g, rhs, {"x": "x"})
    match = Homomorphism(g, g, {"x": "x"})
    plan = build_relation_plan(h, "G", rule, match, FORWARD, {"T": {"n": "t1"}})
    assert not propagate_forward(h, plan).steps[-1][1]
    assert outcomes["pass"] and outcomes["fail"], outcomes
    assert kinds == set(KINDS), kinds


def _typed_chain() -> Hierarchy:
    """G -> M -> T plus G -> T, with 8, 4 and 2 nodes."""
    g = Graph([f"g{i}" for i in range(8)], [(f"g{i}", f"g{(i + 1) % 8}") for i in range(8)])
    m = Graph([f"m{i}" for i in range(4)], [(f"m{i}", f"m{j}") for i in range(4) for j in range(4)])
    t = Graph(["t0", "t1"], [(a, b) for a in ("t0", "t1") for b in ("t0", "t1")])
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, {f"m{i}": f"t{i % 2}" for i in range(4)}))
    h = h.add_typing("G", "M", Homomorphism(g, m, {f"g{i}": f"m{i % 4}" for i in range(8)}))
    return h.add_typing("G", "T", Homomorphism(g, t, {f"g{i}": f"t{i % 2}" for i in range(8)}))


def test_a_chain_of_forward_rewrites_keeps_no_earlier_graph_alive():
    """Patched typings hold the maps they patched only weakly and the memo
    holds no hierarchy, so after three rewrites at G (each replaces every
    object) only the last hierarchy's graphs survive a collection."""
    h = _typed_chain()
    earlier = []
    for step in range(3):
        earlier += [weakref.ref(h.graph(n)) for n in h.nodes()]
        rule = build_rule(Graph(["x"]), [AddNode(f"n{step}"), AddEdge("x", f"n{step}")])
        (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": "g0"})
        plan = build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)
        h = apply_plan(h, plan)[-1].hierarchy
        del rule, match, plan
    assert h.validate() == []
    gc.collect()
    assert len(earlier) == 9
    assert [ref() for ref in earlier] == [None] * 9


def test_threads_sharing_cold_caches_get_the_sequential_results():
    """Adjacency lists, preimage lists and the check memo of a shared base
    fill lazily; threads that race to fill them must each see complete
    ones. Eight threads rewrite one cold base at every node of G, with a
    short switch interval, and must match a sequential run on another."""

    def rewrite(h, node):
        rule = build_rule(Graph(["x"]), [AddNode("n"), AddEdge("x", "n")])
        (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": node})
        plan = build_relation_plan(h, "G", rule.right_leg, match.instance, FORWARD, {})
        reports = apply_plan(h, plan)
        return hierarchy_to_json(reports[-1].hierarchy), [r.steps for r in reports]

    nodes = sorted(_typed_chain().graph("G").nodes)
    expected = {node: rewrite(_typed_chain(), node) for node in nodes}
    shared = _typed_chain()
    results, errors = [], []

    def work(offset):
        try:
            for node in nodes[offset:] + nodes[:offset]:
                results.append((node, rewrite(shared, node)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 8 * len(nodes)
    assert all(got == expected[node] for node, got in results)


def test_a_node_renamed_by_the_pushout_is_retyped_everywhere():
    """Merging a and b in G makes the fused class take the id a_b, so the
    untouched node a_b is renamed (to a_b#2). The trace records both, the
    delta takes in the renamed node, and the arrows from K (below G) and
    to T are re-set there, as the full rebuild would set them."""
    g = Graph(["a", "b", "a_b", "c"], [("a_b", "c"), ("c", "a")])
    t = Graph(["t"], [("t", "t")])
    k = Graph(["ka", "kb", "kab", "kc"], [("kab", "kc"), ("kc", "ka")])
    h = Hierarchy().add_object("K", k).add_object("G", g).add_object("T", t)
    h = h.add_typing("G", "T", Homomorphism(g, t, dict.fromkeys(g.nodes, "t")))
    h = h.add_typing("K", "T", Homomorphism(k, t, dict.fromkeys(k.nodes, "t")))
    h = h.add_typing(
        "K", "G", Homomorphism(k, g, {"ka": "a", "kb": "b", "kab": "a_b", "kc": "c"})
    )
    rule = build_rule(Graph(["x", "y"]), [MergeNodes(("x", "y"), "xy")])
    (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": "a", "y": "b"})
    plan = build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)
    rep = propagate_forward(h, plan)
    trace = rep.traces["G"]
    assert trace._changes_since(None) == {"a", "b", "a_b"}
    assert {n: trace[n] for n in g.nodes} == {"a": "a_b", "b": "a_b", "a_b": "a_b#2", "c": "c"}
    assert all(not v for _, v in rep.steps)
    assert rep.hierarchy.validate() == []
    assert rep.hierarchy.typing("K", "G").node_map == {
        "ka": "a_b", "kb": "a_b", "kab": "a_b#2", "kc": "c"
    }
    assert rep.hierarchy.typing("G", "T").node_map == dict.fromkeys(["a_b", "a_b#2", "c"], "t")
