"""Differential and retention tests of the delta propagation steps.

`propagate_forward` and `propagate_backward` rebuild each typing as a patch
of the arrow it replaces and check it only at the step's delta (see their
docstrings). These tests run random forward and backward plans (backward
ones with derived clean-up deletions too) and require:

* every rebuilt typing to equal the one the old full rebuild produced (for
  backward steps, the whole report of the old step, kept in
  reference_kernels.py, with the same exception where it raises);
* the delta check to answer exactly as the full `homomorphism_violation`
  does, on the rebuilt typing and on copies corrupted at delta nodes, with
  the same message when it fails;
* the edges it checks to be exactly the edges at the delta;
* `apply_plan` to give the reports of the old one, which rebuilt
  a map over every node of every traced object after each clean-up;
* a chain of rewrites to keep no earlier graph alive, also through the
  deferred orders that carry a host's sorted ids over to a rewritten graph;
* threads racing to fill the lazy caches of a shared base to get the
  results of a sequential run.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

import reference_kernels as ref
import sqpo.propagation
import sqpo.relations
from sqpo import (
    BACKWARD,
    EXPANSIVE,
    FORWARD,
    RESTRICTIVE,
    SqpoError,
    AddEdge,
    AddNode,
    CloneNode,
    MergeNodes,
    Graph,
    Hierarchy,
    Homomorphism,
    apply_plan,
    build_canonical_plan,
    build_relation_plan,
    build_rule,
    find_matches,
    hierarchy_from_json,
    hierarchy_to_json,
    propagate_backward,
    propagate_forward,
)
from sqpo.graphs import dumps_canonical, homomorphism_violation

from generators import random_backward_plan, random_forward_plan, random_hierarchy


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


def _checking_delta_checks(monkeypatch):
    """Patch propagation's delta check to repeat each call with the full
    check, and with copies of the arrow that send one delta node elsewhere
    (to each target node, to a missing node, or nowhere). Returns the
    outcomes seen and the kinds of violation met."""
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
    return outcomes, kinds


def test_delta_check_answers_as_the_full_check(monkeypatch):
    """Each delta check of a forward step is repeated by the full check,
    and so is the check of corrupted copies; every kind of violation
    occurs."""
    outcomes, kinds = _checking_delta_checks(monkeypatch)
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


def _apply(h, plan, step):
    """apply_plan with `step` as its backward step: the reports, or the
    type and message of what it raised."""
    original = sqpo.relations.propagate_backward
    sqpo.relations.propagate_backward = step
    try:
        return apply_plan(h, plan)
    except (SqpoError, KeyError, TypeError) as exc:
        return type(exc), str(exc)
    finally:
        sqpo.relations.propagate_backward = original


def _summary(report):
    maps = {
        "traces": report.traces,
        "instances": report.instances,
        "typings": report.updated_typings,
    }
    return (
        report.origin,
        report.waves,
        report.steps,
        {
            kind: {
                key: (arrow.source, arrow.target, arrow.node_map)
                for key, arrow in arrows.items()
            }
            for kind, arrows in maps.items()
        },
        hierarchy_to_json(report.hierarchy),
    )


def test_backward_typings_equal_the_full_rebuild():
    """Random backward plans, canonical, strict and with derived clean-up
    deletions (each applied by `propagate_backward` too), give the reports
    of the old step that rebuilt, validated and compared every typing in
    full: the same waves, steps, traces, instances, typings and
    hierarchies, or the same exception."""
    rng = random.Random(909)
    compared = cleanups = 0
    for trial in range(100):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        origin = rng.choice(h.nodes())
        try:
            plan = random_backward_plan(rng, h, origin, partial=trial % 2 == 1)
        except SqpoError:
            continue
        got = _apply(h, plan, propagate_backward)
        plan._resolution = None
        want = _apply(h, plan, ref.propagate_backward)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert [_summary(r) for r in got] == [_summary(r) for r in want]
        for report in got:
            assert all(not v for _, v in report.steps)
            for arrow in report.updated_typings.values():
                assert homomorphism_violation(arrow) is None
        compared += sum(len(r.updated_typings) for r in got)
        cleanups += len(got) - 1
    assert compared > 150 and cleanups > 10, (compared, cleanups)


def test_backward_delta_check_answers_as_the_full_check(monkeypatch):
    """Each delta check of a backward step is repeated by the full check,
    and so is the check of copies corrupted at a delta node: the same
    answer and message, over every kind of violation."""
    outcomes, kinds = _checking_delta_checks(monkeypatch)
    rng = random.Random(37)
    for trial in range(60):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        origin = rng.choice(h.nodes())
        try:
            plan = random_backward_plan(rng, h, origin, partial=trial % 3 == 2)
            reports = apply_plan(h, plan)
        except SqpoError:
            continue
        assert all(not v for rep in reports for _, v in rep.steps)
    assert outcomes["pass"] and outcomes["fail"], outcomes
    assert kinds == set(KINDS), kinds


def test_backward_step_raises_where_the_old_step_raised(monkeypatch):
    """With the entry checks skipped and G's restriction cut down to b, the
    step at M meets an untouched node a of G over ma, which the rule
    deleted from M. The old step's lookup of ma among M's untouched nodes
    raised KeyError naming it, and the patched step raises the same, in the
    step itself: the per-object `step` of `propagate_backward`, and the
    body of the reference loop."""
    g = Graph(["a", "b"], [("a", "b")])
    m = Graph(["ma", "mb"], [("ma", "mb")])
    t = Graph(["t"], [("t", "t")])
    h = Hierarchy().add_object("G", g).add_object("M", m).add_object("T", t)
    h = h.add_typing("M", "T", Homomorphism(m, t, {"ma": "t", "mb": "t"}))
    h = h.add_typing("G", "M", Homomorphism(g, m, {"a": "ma", "b": "mb"}))
    h = h.add_typing("G", "T", Homomorphism(g, t, {"a": "t", "b": "t"}))
    lhs = Graph(["x"])
    rule = Homomorphism(Graph(), lhs, {})
    match = Homomorphism(lhs, t, {"x": "t"})

    def unchecked(h, plan, direction):
        return sqpo.propagation._resolve(h, plan)

    monkeypatch.setattr(sqpo.propagation, "_checked_resolution", unchecked)
    monkeypatch.setattr(ref, "_checked_resolution", unchecked)
    raised = []
    for step in (propagate_backward, ref.propagate_backward):
        plan = build_relation_plan(h, "T", rule, match, BACKWARD, {})
        res = sqpo.propagation._resolve(h, plan)
        keep = Graph(["p"])
        rp = sqpo.propagation.RestrictionResult(
            keep, Homomorphism(keep, g, {"p": "b"}), Homomorphism(keep, lhs, {"p": "x"})
        )
        res.restrictions["G"] = rp
        plan.factorizations["G"] = sqpo.relations._derive_backward(rule, rp, {})[0]
        with pytest.raises(KeyError) as exc:
            step(h, plan)
        raised.append((exc.value.args, exc.traceback[-1].name))
    assert raised == [(("ma",), "step"), (("ma",), "propagate_backward")]


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


def test_carried_orders_keep_no_earlier_graph_alive():
    """A construction leaves its apex a deferred order that holds the host's
    id list and the apex's own sets, never a graph. Rewrites alternate
    between forward adds at G and backward clones at T, starting from a
    loaded file (deferred orders of the ids it listed), and every other
    hierarchy's orders are read before the next rewrite (lists, which it
    carries over): only the last hierarchy's graphs survive a collection."""
    h = hierarchy_from_json(hierarchy_to_json(_typed_chain()))
    earlier, carried = [], 0
    for step in range(6):
        for n in h.nodes():
            g = h.graph(n)
            for slot in ("_order", "_sorted_edges"):
                deferred = getattr(g, slot, None)
                assert not any(isinstance(x, Graph) for x in gc.get_referents(deferred))
                carried += type(deferred) is tuple
            earlier.append(weakref.ref(g))
            if step % 2:
                g._node_order(), g._edge_order()
        if step % 2:
            rule = build_rule(Graph(["x"]), [CloneNode("x", "x1", "x2")])
            (match,) = find_matches(rule, h.graph("T"), RESTRICTIVE, {"x": min(h.graph("T").nodes)})
            plan = build_canonical_plan(h, "T", rule.left_leg, match.instance, BACKWARD)
        else:
            rule = build_rule(Graph(["x"]), [AddNode(f"n{step}"), AddEdge("x", f"n{step}")])
            anchor = min(h.graph("G").nodes)
            (match,) = find_matches(rule, h.graph("G"), EXPANSIVE, {"x": anchor})
            plan = build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)
        h = apply_plan(h, plan)[-1].hierarchy
        del rule, match, plan, g, deferred
    assert carried >= 12
    assert h.validate() == []
    gc.collect()
    assert len(earlier) == 18
    assert [ref() for ref in earlier] == [None] * 18


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
    untouched node a_b is renamed (to a_b#2). The trace moves all three,
    the delta takes in the renamed node, and the arrows from K (below G) and
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
    assert {n for n in g.nodes if trace[n] != n} == {"a", "b", "a_b"}
    assert {n: trace[n] for n in g.nodes} == {"a": "a_b", "b": "a_b", "a_b": "a_b#2", "c": "c"}
    assert all(not v for _, v in rep.steps)
    assert rep.hierarchy.validate() == []
    assert rep.hierarchy.typing("K", "G").node_map == {
        "ka": "a_b", "kb": "a_b", "kab": "a_b#2", "kc": "c"
    }
    assert rep.hierarchy.typing("G", "T").node_map == dict.fromkeys(["a_b", "a_b#2", "c"], "t")


def test_a_trace_answers_only_at_its_source_nodes():
    """A report's trace is indexed like a plain map: a node outside its
    source, whether one the rewrite made or none at all, raises KeyError
    naming it."""
    g = Graph(["a", "b"], [("a", "b")])
    t = Graph(["t"], [("t", "t")])
    h = Hierarchy().add_object("G", g).add_object("T", t)
    h = h.add_typing("G", "T", Homomorphism(g, t, dict.fromkeys(g.nodes, "t")))
    rule = build_rule(Graph(["x", "y"]), [MergeNodes(("x", "y"), "xy")])
    (match,) = find_matches(rule, g, EXPANSIVE, {"x": "a", "y": "b"})
    trace = propagate_forward(h, build_canonical_plan(h, "G", rule.right_leg, match.instance, FORWARD)).traces["G"]
    assert (trace["a"], trace["b"]) == ("a_b", "a_b")
    for node in ("a_b", "nowhere"):
        with pytest.raises(KeyError) as raised:
            trace[node]
        assert raised.value.args == (node,)


def _typed_layer(rng, prefix: str, size: int, under: Graph | None):
    """A graph of `size` nodes named prefix0, prefix1, ... with each edge
    drawn with probability 1/2, and its typing into `under` (a random node
    map; only edges over an edge of `under` are drawn). No typing when
    `under` is None."""
    nodes = [f"{prefix}{i}" for i in range(size)]
    typing = None if under is None else {n: rng.choice(sorted(under.nodes)) for n in nodes}
    edges = [
        (a, b)
        for a in nodes
        for b in nodes
        if (typing is None or (typing[a], typing[b]) in under.edges) and rng.random() < 0.5
    ]
    g = Graph(nodes, edges)
    return g, None if typing is None else Homomorphism(g, under, typing)


def _chain(rng, names, prefixes, sizes):
    """The hierarchy low -> mid -> top plus low -> top, for `names` (low,
    mid, top), of random typed layers with node counts drawn from `sizes`
    (low, mid, top ranges)."""
    top, _ = _typed_layer(rng, prefixes[2], rng.randint(*sizes[2]), None)
    mid, mid_top = _typed_layer(rng, prefixes[1], rng.randint(*sizes[1]), top)
    low, low_mid = _typed_layer(rng, prefixes[0], rng.randint(*sizes[0]), mid)
    low_name, mid_name, top_name = names
    h = Hierarchy().add_object(low_name, low).add_object(mid_name, mid).add_object(top_name, top)
    h = h.add_typing(low_name, mid_name, low_mid).add_typing(mid_name, top_name, mid_top)
    low_top = Homomorphism(low, top, {n: mid_top[low_mid[n]] for n in low.nodes})
    return h.add_typing(low_name, top_name, low_top)


def _backward_cleanup_chain(rng):
    """A clone of a node of T, with relations at G1 -> T and G2 -> G1 (G2
    -> T too) that each relate some of its instances: both derive clean-up
    deletions, and G1's propagates into G2. G2's relation mostly follows
    G1's through G2 -> G1, so it often names what G1's clean-up deleted."""
    h = _chain(rng, ("G2", "G1", "T"), "rqt", ((3, 7), (3, 6), (1, 2)))
    x = rng.choice(sorted(h.graph("T").nodes))
    loop = [("p", "p")] if (x, x) in h.graph("T").edges and rng.random() < 0.5 else []
    edits = [CloneNode("p", "w", "b")]
    if rng.random() < 0.3:
        edits.append(CloneNode("b", "b1", "b2"))
    rule = build_rule(Graph(["p"], loop), edits)
    copies = sorted(rule.interface.nodes)
    match = Homomorphism(rule.lhs, h.graph("T"), {"p": x})
    to_t, g2_g1 = h.typing("G1", "T"), h.typing("G2", "G1")
    first = {
        q: rng.choice(copies)
        for q in sorted(to_t.source.nodes)
        if to_t[q] == x and rng.random() < 0.5
    }
    second = {}
    for r in sorted(g2_g1.source.nodes):
        if to_t[g2_g1[r]] == x and rng.random() < 0.7:
            mirrored = first.get(g2_g1[r])
            second[r] = mirrored if mirrored and rng.random() < 0.8 else rng.choice(copies)
    relations = {name: rel for name, rel in (("G1", first), ("G2", second)) if rel}
    return h, build_relation_plan(h, "T", rule.left_leg, match, BACKWARD, relations)


def _forward_cleanup_chain(rng):
    """Nodes added next to a node of G, with relations at G -> T1 and T1
    -> T2 (G -> T2 too) that merge added nodes among themselves or with
    old ones: both derive clean-up merges, and T1's propagates into T2.
    T2's relation mostly follows T1's through T1 -> T2, so it often names
    what T1's clean-up merged."""
    h = _chain(rng, ("G", "T1", "T2"), "iuv", ((1, 5), (1, 5), (1, 3)))
    added = [f"s{j}" for j in range(rng.randint(2, 4))]
    edits = [AddNode(s) for s in added] + [AddEdge("p", s) for s in added if rng.random() < 0.3]
    rule = build_rule(Graph(["p"]), edits)
    anchor = rng.choice(sorted(h.graph("G").nodes))
    match = Homomorphism(rule.interface, h.graph("G"), {"p": anchor})
    t1_t2 = h.typing("T1", "T2")
    first = {}
    for s in added[1:]:
        roll = rng.random()
        if roll < 0.6:
            first[s] = rng.choice(added)
        elif roll < 0.75:
            first[s] = rng.choice(sorted(t1_t2.source.nodes))
    second = {}
    for s in added[1:]:
        if s in first and rng.random() < 0.8:
            value = first[s]
            second[s] = value if value in added else t1_t2[value]
        elif rng.random() < 0.4:
            second[s] = rng.choice(added)
    relations = {name: rel for name, rel in (("T1", first), ("T2", second)) if rel}
    return h, build_relation_plan(h, "G", rule.right_leg, match, FORWARD, relations)


def _named_after_moving(plan, reports) -> bool:
    """Whether the first clean-up moved or deleted an element that the
    second one names (what `apply_plan`'s element tracking is for)."""
    nodes = sorted(plan.cleanups)
    if len(nodes) < 2 or len(reports) < 2 or nodes[1] not in reports[1].traces:
        return False
    main, node, trace = reports[0], nodes[1], reports[1].traces[nodes[1]]
    if plan.direction == FORWARD:
        named = {
            main.traces[node][e] if tag == "old" else main.instances[node][e]
            for refs in plan.cleanups[node]
            for tag, e in refs
        }
        return any(trace[x] != x for x in named)
    kept = {trace[y]: y for y in trace.source.nodes}
    named = {main.instances[node][q] for q in plan.cleanups[node]}
    return any(kept.get(x) != x for x in named)


def _outcome(h, plan, apply):
    """The reports `apply` makes and their hierarchy and report bytes, or
    None and the type and message of what it raised."""
    plan._resolution = None
    try:
        reports = apply(h, plan)
    except (SqpoError, KeyError, TypeError) as exc:
        return None, (type(exc), str(exc))
    hierarchies = [dumps_canonical(hierarchy_to_json(r.hierarchy)) for r in reports]
    return reports, (hierarchies, dumps_canonical(ref.report_json(reports)))


@pytest.mark.parametrize("build", [_backward_cleanup_chain, _forward_cleanup_chain])
def test_cleanup_tracking_equals_the_rebuilt_maps(build):
    """Random relation plans with clean-ups at two neighbours of the origin,
    one typed by the other, give the hierarchies and report bytes of the
    old `apply_plan`, which rebuilt a map over every node of every traced
    object after each clean-up, or the same exception. At least 20 of them
    have the first clean-up move or delete an element that the second
    names."""
    rng = random.Random(1414)
    compared = followed = 0
    for _ in range(150):
        try:
            h, plan = build(rng)
        except SqpoError:
            continue
        got, got_bytes = _outcome(h, plan, apply_plan)
        want, want_bytes = _outcome(h, plan, ref.apply_plan)
        assert got_bytes == want_bytes
        if want is not None:
            compared += 1
            followed += _named_after_moving(plan, want)
    assert compared > 100 and followed >= 20, (compared, followed)
