"""Byte-for-byte differential tests of `dumps_canonical` against the
stdlib's `indent=2` encoder kept in reference_kernels.py, and a check that
the fixture generator still writes the checked-in input files.

The writer must give exactly `json.dumps(obj, indent=2,
ensure_ascii=False) + "\\n"` for every value sqpo writes: every fixture
file, random hierarchies and rules, the outputs and reports of the golden
CLI runs, strings that need escaping and arbitrary JSON trees."""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import make_fixtures
import reference_kernels as ref
import sqpo.cli
from generators import random_graph, random_hierarchy
from sqpo import CloneNode, DeleteNode, MergeNodes, Rule, build_rule, hierarchy_to_json, rule_to_json
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
    """Every text the CLI renders in a golden run, the rewritten hierarchy
    and the report, equals the reference encoder's."""
    rendered = []

    def checked(obj):
        text = dumps_canonical(obj)
        assert text == ref.dumps_canonical(obj)
        rendered.append(text)
        return text

    monkeypatch.setattr(sqpo.cli, "dumps_canonical", checked)
    with contextlib.redirect_stdout(io.StringIO()):
        code = sqpo.cli.main([
            "rewrite", str(FIXTURES / hier), node, str(FIXTURES / rule), "0",
            "--direction", direction, "--relation", str(FIXTURES / relation),
            "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
        ])
    assert code == 0
    assert len(rendered) == 2 and '"applications"' in rendered[1]


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
    for value in (1.5, {1: "a"}, {"a": {1, 2}}, object()):
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
