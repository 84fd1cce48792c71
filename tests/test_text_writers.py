"""Byte-for-byte differential tests of the text writers that `sqpo rewrite`
uses, `hierarchy._hierarchy_text`, `graphs._graph_text` and
`cli._report_text`, against the stdlib's `indent=2` encoder over the trees
written before: `hierarchy_to_json`, `graph_to_json` and the reference
kernels' `report_json`.

The cases cover every fixture hierarchy, random hierarchies with the
reports of forward and backward runs (clean-ups included), a skeleton, an
empty hierarchy, graphs without nodes or edges, attributed edges, ids and
values that need escaping, int and bool values and one attribute dict shared
by several graphs. The golden CLI runs, forward clean-ups among them, are
checked in test_canonical_json.py."""

import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from generators import random_backward_plan, random_forward_plan, random_hierarchy
from sqpo import (
    Graph, Hierarchy, Homomorphism, RewriteReport, Skeleton, SqpoError, apply_plan, graph_to_json,
    hierarchy_from_json, hierarchy_to_json,
)
from sqpo.cli import _report_text
from sqpo.graphs import _graph_text
from sqpo.hierarchy import _hierarchy_text

FIXTURES = Path(__file__).parent / "fixtures"
HIERARCHY_FILES = sorted(
    p for p in FIXTURES.rglob("*.json") if "graphs" in json.loads(p.read_text(encoding="utf-8"))
)

# a quote, a backslash, every control character, DEL, non-ASCII, an astral
# character and a lone surrogate, which passes through unchanged
AWKWARD = ['q"uote', "back\\slash", "".join(map(chr, range(0x20))), "\x7f", "é∥ß", "😀", "\ud800"]


def _same_hierarchy_bytes(h: Hierarchy) -> str:
    text = _hierarchy_text(h)
    assert text == ref.dumps_canonical(hierarchy_to_json(h))
    return text


def _same_report_bytes(reports) -> None:
    assert _report_text(reports) == ref.dumps_canonical(ref.report_json(reports))


def test_fixture_hierarchies():
    assert len(HIERARCHY_FILES) == 16
    for path in HIERARCHY_FILES:
        h = hierarchy_from_json(json.loads(path.read_text(encoding="utf-8")), validate=False)
        assert _same_hierarchy_bytes(h) == path.read_text(encoding="utf-8"), path.name


def test_random_hierarchies_and_the_reports_of_their_runs():
    """Each draw's hierarchy, then a forward and a backward run from a random
    object: their results and reports. Every other backward plan is partial,
    which derives clean-up deletions (and may be refused)."""
    rng = random.Random(22)
    runs = {"forward": 0, "backward": 0}
    cleanups = dict(runs)
    for trial in range(60):
        h = random_hierarchy(rng)
        _same_hierarchy_bytes(h)
        for direction in runs:
            origin = rng.choice(h.nodes())
            try:
                if direction == "forward":
                    plan = random_forward_plan(rng, h, origin)
                else:
                    plan = random_backward_plan(rng, h, origin, partial=trial % 2 == 1)
                reports = apply_plan(h, plan)
            except SqpoError:
                continue
            _same_hierarchy_bytes(reports[-1].hierarchy)
            _same_report_bytes(reports)
            runs[direction] += 1
            cleanups[direction] += len(reports) - 1
    assert min(runs.values()) > 40 and cleanups["backward"] > 5, (runs, cleanups)


def test_skeleton_and_empty_hierarchies():
    assert _same_hierarchy_bytes(Hierarchy()) == '{\n  "graphs": {},\n  "typings": []\n}\n'
    sk = Skeleton.create(["d", "s", "é"], [("d", "s"), ("d", "é")])
    g, t = Graph(["x", "y"], [("x", "y")]), Graph(["t"], [("t", "t")])
    h = Hierarchy({"G": g, "T": t}, {("G", "T"): Homomorphism(g, t, {"x": "t", "y": "t"})}, sk, {"G": "d", "T": "s"})
    assert '"skeleton": {' in _same_hierarchy_bytes(h)
    _same_hierarchy_bytes(Hierarchy({}, {}, sk, {}))


def _awkward_hierarchy() -> Hierarchy:
    """Escaped ids in graph names, node ids, attribute keys and values; int
    and bool values; graphs with no nodes and with no edges; attributed edges;
    and one raw attribute value in three graphs, which the loader shares as
    one dict."""
    shared = {"kind": ["data", 2, True, -7, 0, 2**70]}
    g_nodes = [{"id": n, "attrs": shared} for n in AWKWARD] + [{"id": "plain"}]
    g_edges = [
        {"from": a, "to": b, "attrs": {b: [a, 1, False]}} for a, b in zip(AWKWARD, AWKWARD[1:])
    ] + [{"from": "plain", "to": AWKWARD[0]}, {"from": AWKWARD[-1], "to": "plain", "attrs": shared}]
    obj = {
        "graphs": {
            AWKWARD[0]: {"nodes": g_nodes, "edges": g_edges},
            "T\t": {"nodes": [{"id": "t", "attrs": shared}], "edges": [{"from": "t", "to": "t"}]},
            "nodes only": {"nodes": [{"id": n, "attrs": {n: [n]}} for n in AWKWARD], "edges": []},
            "empty": {"nodes": [], "edges": []},
        },
        "typings": [
            {"from": AWKWARD[0], "to": "T\t", "map": {n["id"]: "t" for n in g_nodes}},
            {"from": "nodes only", "to": AWKWARD[0], "map": {n: n for n in reversed(AWKWARD)}},
        ],
    }
    return hierarchy_from_json(obj, validate=False)  # the writers need no valid typing


def test_escaped_ids_and_values_and_a_shared_attribute_dict():
    h = _awkward_hierarchy()
    g, t = h.graph(AWKWARD[0]), h.graph("T\t")
    assert g.node_attrs[AWKWARD[1]] is t.node_attrs["t"] is g.edge_attrs[(AWKWARD[-1], "plain")]
    text = _same_hierarchy_bytes(h)
    assert "\ud800" in text and '"T\\t"' in text and "1180591620717411303424" in text


def test_graph_text_at_top_level():
    h = _awkward_hierarchy()
    graphs = [h.graph(n) for n in h.nodes()] + [
        Graph(), Graph(["a"]), Graph(["a", "b"], [("a", "b"), ("b", "b")], {}, {("a", "b"): {"w": [3, True]}}),
    ]
    for g in graphs:
        text = _graph_text(g, "\n", sorted(g.nodes), {}) + "\n"
        assert text == ref.dumps_canonical(graph_to_json(g))


_ids = st.text(max_size=4)
_values = st.frozensets(st.integers(-3, 3) | st.booleans() | st.text(max_size=3), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_ids, unique=True, max_size=5).flatmap(lambda nodes: st.tuples(
        st.just(nodes),
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=6) if nodes else st.just([]),
        st.dictionaries(st.sampled_from(nodes), st.dictionaries(_ids, _values, min_size=1, max_size=2))
        if nodes else st.just({}),
    ))
)
def test_drawn_graphs(parts):
    nodes, edges, node_attrs = parts
    edge_attrs = {e: node_attrs[e[0]] for e in edges if e[0] in node_attrs}
    g = Graph(nodes, edges, node_attrs, edge_attrs)
    assert _graph_text(g, "\n", sorted(g.nodes), {}) + "\n" == ref.dumps_canonical(graph_to_json(g))


def _report(h: Hierarchy, **fields) -> RewriteReport:
    base = dict(hierarchy=h, origin="G", direction="forward", waves=[], traces={}, instances={},
                updated_typings={}, steps=[])
    return RewriteReport(**{**base, **fields})


def test_hand_made_reports():
    """Empty and escaped fields: no waves, traces, instances, typings or
    steps; awkward ids in every map and violation; one map's source graph in
    several maps; no application at all."""
    h = _awkward_hierarchy()
    g, t = h.graph(AWKWARD[0]), h.graph("T\t")
    ident = Homomorphism(g, g, {n: n for n in g.nodes})
    typing = h.typing(AWKWARD[0], "T\t")
    empty = Homomorphism(Graph(), t, {})
    reports = [
        _report(h),
        _report(h, origin=AWKWARD[2], direction="backward", waves=[[AWKWARD[0]], ["T\t", "x"]],
                traces={AWKWARD[0]: ident, "T\t": Homomorphism(t, t, {"t": "t"})},
                instances={"\ud800": empty, "z": typing},
                updated_typings={(AWKWARD[0], "T\t"): typing, ("a", "\x00"): empty},
                steps=[(AWKWARD[0], []), ("T\t", ['violation "quoted" \\ é', "two"])]),
    ]
    _same_report_bytes(reports)
    _same_report_bytes(reports[:1])
    _same_report_bytes([])
