"""Byte-for-byte differential tests of `dumps_canonical` against the
stdlib's `indent=2` encoder kept in reference_kernels.py, and a check that
the fixture generator still writes the checked-in input files.

The writer must give exactly `json.dumps(obj, indent=2,
ensure_ascii=False) + "\\n"` for every value sqpo writes: every fixture
file, random hierarchies and rules, the outputs and reports of the golden
CLI runs, strings that need escaping, arbitrary JSON trees and values that
reach one object from several places. Attribute values that Python equality
fuses (1, True, 1.0) stay apart through the loader's attribute memo."""

import contextlib
import io
import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import make_fixtures
import reference_kernels as ref
import sqpo.cli
from generators import random_graph, random_hierarchy
from sqpo import (
    AddNode, CloneNode, DeleteNode, Graph, HierarchyError, MergeNodes, Rule, build_rule,
    hierarchy_from_json, hierarchy_to_json, rule_to_json,
)
from sqpo.graphs import dumps_canonical

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.rglob("*.json"))


def _same_bytes(obj) -> None:
    assert dumps_canonical(obj) == ref.dumps_canonical(obj)


def test_every_fixture_file_is_a_fixpoint():
    assert len(FIXTURE_FILES) == 39
    for path in FIXTURE_FILES:
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert dumps_canonical(obj) == text, path.name
        _same_bytes(obj)


def test_random_hierarchies_and_rules():
    rng = random.Random(8)
    for _ in range(60):
        _same_bytes(hierarchy_to_json(random_hierarchy(rng)))
        pattern = random_graph(rng, max_nodes=4, min_nodes=2, alphabet=("x", 2, True, "é"))
        _same_bytes(rule_to_json(Rule.identity_rule(pattern)))
        a, b = sorted(pattern.nodes)[:2]
        for edits in ([CloneNode(a, "c1", "c2")], [MergeNodes((a, b), "ab")], [DeleteNode(b)]):
            _same_bytes(rule_to_json(build_rule(pattern, edits)))


GOLDEN_RUNS = [
    ("merge_add.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add.relation.json"),
    ("merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add_variant.relation.json"),
    ("merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add_direct.relation.json"),
    ("clone_delete.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
    ("clone_delete_partial.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
    ("set_example.hierarchy.json", "n0", "set_example.rule.json", "fwd", "set_example.relation.json"),
    ("diamond.hierarchy.json", "k0", "diamond.rule.json", "bwd", "diamond.relation.json"),
]


@pytest.mark.parametrize("hier, node, rule, direction, relation", GOLDEN_RUNS)
def test_golden_runs_write_the_reference_bytes(tmp_path, monkeypatch, hier, node, rule, direction, relation):
    """Both texts the CLI writes in a golden run, the rewritten hierarchy and
    the report, equal the reference encoder's text of `hierarchy_to_json` of
    the result and of the reference kernels' `report_json` of the reports."""
    runs, apply_plan = [], sqpo.cli.apply_plan

    def recorded(h, plan):
        runs.append(apply_plan(h, plan))
        return runs[-1]

    monkeypatch.setattr(sqpo.cli, "apply_plan", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        code = sqpo.cli.main([
            "rewrite", str(FIXTURES / hier), node, str(FIXTURES / rule), "0",
            "--direction", direction, "--relation", str(FIXTURES / relation),
            "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
        ])
    assert code == 0 and len(runs) == 1
    reports = runs[0]
    written = [(tmp_path / name).read_text(encoding="utf-8") for name in ("out.json", "report.json")]
    assert written == [
        ref.dumps_canonical(hierarchy_to_json(reports[-1].hierarchy)),
        ref.dumps_canonical(ref.report_json(reports)),
    ]


CONTROL = "".join(chr(c) for c in range(0x20))
HAND_MADE = [
    None, True, False, 0, 1, -1, 2**70, -(2**70),
    "", '"', "\\", "\\\"", CONTROL, "\x7f", "é∥ß", "日本語", "  ", "😀𝄞",
    "\ud800",  # a lone surrogate passes through unchanged, as in the stdlib
    {}, [], (), {"a": {}}, {"a": []}, [[], {}], [[[[]]]], {"a": {"b": {"c": {}}}},
    [True, 1, False, 0, None], {"t": True, "one": 1, "none": None},
    ("tuple", ("nested", 2)), {"k": (1, 2)}, [[1, [2, [3, []]]], {}],
    {CONTROL: CONTROL, " ": [" "], "😀": {"é": -5}},
    {"z": 1, "a": 2},  # insertion order, not sorted
]


@pytest.mark.parametrize("value", HAND_MADE, ids=range(len(HAND_MADE)))
def test_hand_made_values(value):
    _same_bytes(value)


def test_unsupported_values_raise_type_error():
    """Callables too: only the writers' private leaf type is called."""
    def leaf(newline):
        return "{}"

    for value in (1.5, {1: "a"}, {"a": {1, 2}}, object(), leaf, partial(str, "x"), [{"k": leaf}]):
        with pytest.raises(TypeError):
            dumps_canonical(value)


_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_arbitrary_json_trees(value):
    _same_bytes(value)


@st.composite
def _shared_values(draw):
    """A JSON value in which a few dict and list objects are reached from
    several places, at one depth and at different depths: mostly as the
    values of rows (the dict members of a list), mixed with scalars and with
    empty `{}` and `[]`. `json.dumps` sees a tree; the writer caches the
    text of a row value by its id and indentation, which this exercises."""
    pool = draw(st.lists(
        st.dictionaries(st.text(max_size=3), _json_trees, min_size=1, max_size=3)
        | st.lists(_json_trees, min_size=1, max_size=3),
        min_size=1, max_size=3,
    ))
    value = st.sampled_from(pool) | _json_trees | st.just({}) | st.just([])
    rows = draw(st.lists(st.dictionaries(st.text(max_size=3), value, max_size=3) | value, max_size=6))
    return {"rows": rows, "pool": pool, "deeper": [rows, {"rows": rows}, [[draw(value)]]]}


@settings(max_examples=300, deadline=None)
@given(_shared_values())
def test_shared_json_values(value):
    _same_bytes(value)


def _exactness_hierarchy() -> dict:
    """A hierarchy file whose G nodes carry `[1]`, `[true]`, `["1"]`, `[0]`
    and `[false]`, values that Python equality fuses (1 == True == 1.0), and
    whose first edge and a T edge carry the same raw value as node n0."""
    values = [[1], [True], ["1"], [0], [False]]
    kinds = ["ints", "bools", "strs", "ints", "bools"]
    return {
        "graphs": {
            "G": {
                "nodes": [{"id": f"n{i}", "attrs": {"v": v}} for i, v in enumerate(values)],
                "edges": [{"from": "n0", "to": "n1", "attrs": {"v": [1]}},
                          {"from": "n2", "to": "n4"}],
            },
            "T": {
                "nodes": [{"id": "bools", "attrs": {"v": [False, True]}},
                          {"id": "ints", "attrs": {"v": [0, 1]}},
                          {"id": "strs", "attrs": {"v": ["1"]}}],
                "edges": [{"from": "ints", "to": "bools", "attrs": {"v": [1]}},
                          {"from": "strs", "to": "bools"}],
            },
        },
        "typings": [{"from": "G", "to": "T", "map": {f"n{i}": k for i, k in enumerate(kinds)}}],
    }


def test_colliding_attribute_values_round_trip_exactly(tmp_path):
    """The loader's attribute memo tells apart values that compare equal,
    and shares a dict only between equal raw values: the file comes back
    byte for byte from the library and through `sqpo rewrite`."""
    text = dumps_canonical(_exactness_hierarchy())
    h = hierarchy_from_json(json.loads(text))
    g = h.graph("G")
    assert [type(x) for n in sorted(g.nodes) for x in g.node_attrs[n]["v"]] == [int, bool, str, int, bool]
    assert g.node_attrs["n0"] is g.edge_attrs[("n0", "n1")] is h.graph("T").edge_attrs[("ints", "bools")]
    assert dumps_canonical(hierarchy_to_json(h)) == text

    (tmp_path / "h.json").write_text(text, encoding="utf-8")
    rule = build_rule(Graph(), [AddNode("new", {"v": [True]})])
    (tmp_path / "rule.json").write_text(dumps_canonical(rule_to_json(rule)), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert sqpo.cli.main([
            "rewrite", str(tmp_path / "h.json"), "G", str(tmp_path / "rule.json"), "0",
            "--direction", "fwd", "-o", str(tmp_path / "out.json"),
        ]) == 0
    before, after = json.loads(text)["graphs"], json.loads((tmp_path / "out.json").read_text())["graphs"]
    for name in before:
        for part in ("nodes", "edges"):
            kept = {dumps_canonical(entry) for entry in after[name][part]}
            assert {dumps_canonical(entry) for entry in before[name][part]} <= kept, (name, part)


@pytest.mark.parametrize("bad, path", [
    ({"v": [1.0]}, "graphs.G.nodes[5].attrs.v[0]: "),  # 1.0 == 1
    ({"v": [1, True]}, "graphs.G.nodes[5].attrs.v: "),
    ({"v": 1}, "graphs.G.nodes[5].attrs.v: "),
])
def test_malformed_value_after_an_equal_valid_one_names_its_own_path(bad, path):
    obj = _exactness_hierarchy()
    obj["graphs"]["G"]["nodes"].append({"id": "n5", "attrs": bad})
    with pytest.raises(HierarchyError) as info:
        hierarchy_from_json(obj)
    assert str(info.value).startswith(path)


def test_fixture_inputs_regenerate_byte_for_byte(tmp_path, monkeypatch):
    """The fixture generator's input builders (not the golden CLI runs)
    write exactly the checked-in input files."""
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    builders = [f for name, f in vars(make_fixtures).items() if name.endswith("_inputs")]
    assert len(builders) == 6
    for build in builders:
        build()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    inputs = sorted(p.relative_to(FIXTURES) for p in FIXTURES.glob("*.json"))
    assert written == inputs
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
