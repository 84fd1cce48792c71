"""Boundary fuzz of the hierarchy and rule loaders, and a differential of
the loaders' trusted construction against the public constructors.

The loaders build graphs through `Graph._of` and typings and rule legs
through `Homomorphism._of`, skipping the constructors' normalization. A
bounded `hypothesis` search mutates fixture hierarchy and rule files (a
dropped key; a value swapped for a number, list, null or dict; a duplicate
attribute value; a dangling edge; an unknown typing target), one hierarchy
given a skeleton first, and requires:

- `sqpo validate` and `sqpo match`, run in-process on the mutated file,
  return 0, 1 or 2 and never raise, and so does `sqpo rewrite --plan` on
  a mutated fixture plan file;
- every graph that loads equals the original loader's result (the public
  `Graph` constructor over the same JSON) and is normalized, and every
  typing or leg equals its rebuild by the public `Homomorphism`
  constructor, with str keys and values;
- a graph the original loader rejects is rejected too, with the original
  message behind the JSON path of the offending value, or, for an `attrs`
  value that is not an object, with the message that says so.

A hierarchy, rule, relation or plan file that is not UTF-8, or whose JSON
nests deeper than the decoder recurses, exits 2 with `cannot parse PATH`.
A container that is not a list (a graph's `nodes` or `edges`, a
hierarchy's `typings` or skeleton `edges`, a plan's `connectors`) is
refused at its own JSON path, with exit 2 from the CLI.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_kernels as ref
import sqpo.cli
from sqpo import (
    GraphElementError, HierarchyError, Homomorphism, SqpoError, hierarchy_from_json, rule_from_json,
)
from test_kernel_differential import _assert_normalized

FIXTURES = Path(__file__).parent / "fixtures"
# (hierarchy file, object to match at, rule file, whether to give the
# hierarchy a skeleton: no fixture file has one)
CASES = [
    ("merge_add.hierarchy.json", "G", "merge_add.rule.json", False),
    ("clone_delete.hierarchy.json", "T", "clone_delete.rule.json", False),
    ("diamond.hierarchy.json", "k0", "diamond.rule.json", False),
    ("strict_plan.hierarchy.json", "G", "strict_plan.rule.json", False),
    ("broken_diamond.hierarchy.json", "a", "chain.rule.json", False),
    ("strict_plan.hierarchy.json", "G", "strict_plan.rule.json", True),
]
MUTATIONS = ("drop", "number", "list", "null", "dict", "duplicate", "dangling", "unknown")
# the keys of the maps whose values are node ids (typings and connectors,
# rule legs and plan factorization arrows); the relations of a plan file
# are such maps too
MAPS = ("map", "left", "right", "pre", "post", "typing_or_retyping")


def _spots(obj, path=()):
    """The JSON path of every value in obj, the root first."""
    yield path
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _spots(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _spots(v, path + (i,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(draw, obj):
    """obj with one drawn mutation applied at a drawn spot (in place; the
    root itself may be replaced, so the result is returned)."""
    kind = draw(st.sampled_from(MUTATIONS))
    spots = list(_spots(obj))
    if kind == "duplicate":
        lists = [p for p in spots if len(p) >= 2 and p[-2] == "attrs" and isinstance(_at(obj, p), list)]
        if lists:
            values = _at(obj, draw(st.sampled_from(lists)))
            values.extend(values[:1] or [1, True])
            return obj
        kind = "number"
    if kind == "dangling":
        graphs = [p for p in spots if isinstance(_at(obj, p), dict) and isinstance(_at(obj, p).get("edges"), list)]
        if graphs:
            g = _at(obj, draw(st.sampled_from(graphs)))
            nodes = g.get("nodes") if isinstance(g.get("nodes"), list) else []
            ids = [n["id"] for n in nodes if isinstance(n, dict) and "id" in n] or ["x"]
            g["edges"].append({"from": draw(st.sampled_from(ids)), "to": "nowhere"})
            return obj
        kind = "drop"
    if kind == "unknown":
        targets = [
            p for p in spots
            if len(p) >= 2 and (p[-1] == "to" or p[-2] in MAPS or p[:1] == ("relation",) and len(p) == 3)
        ]
        if targets:
            path = draw(st.sampled_from(targets))
            _at(obj, path[:-1])[path[-1]] = "nowhere"
            return obj
        kind = "drop"
    path = draw(st.sampled_from(spots))
    if kind == "drop":
        if not path:
            return {}
        parent = _at(obj, path[:-1])
        del parent[path[-1]]
        return obj
    value = {"number": 7, "list": draw(st.sampled_from([[], ["x"], [1]])), "null": None,
             "dict": draw(st.sampled_from([{}, {"x": "y"}]))}[kind]
    if not path:
        return value
    _at(obj, path[:-1])[path[-1]] = value
    return obj


def _with_skeleton(obj):
    """obj with a skeleton of one kind per graph and one edge per typing."""
    obj["skeleton"] = {
        "nodes": [f"kind_{name}" for name in obj["graphs"]],
        "edges": [[f"kind_{t['from']}", f"kind_{t['to']}"] for t in obj["typings"]],
        "assignment": {name: f"kind_{name}" for name in obj["graphs"]},
    }
    return obj


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return sqpo.cli.main(argv)


def _check_graph(g, raw) -> None:
    assert g == ref.graph_from_json(raw)
    _assert_normalized(g)


def _check_hom(hom: Homomorphism, raw) -> None:
    assert hom.node_map == Homomorphism(hom.source, hom.target, raw).node_map
    assert all(type(k) is str and type(v) is str for k, v in hom.node_map.items())


def _check_rejected_graphs(graphs) -> None:
    """Each graph value the original loader rejects, the new one rejects
    with the same message behind a JSON path. The original loader does not
    check that an `attrs` value is an object: it reports the error of
    iterating over it, or raises IndexError for a list of numbers
    (`[1]`). Where the new loader rejects such a value, its message says
    so instead."""
    if not isinstance(graphs, dict):
        return
    for raw in graphs.values():
        try:
            ref.graph_from_json(raw)
        except (GraphElementError, IndexError) as old:
            try:
                sqpo.graph_from_json(raw)
            except GraphElementError as new:
                at_attrs = new.json_path[-1:] == ("attrs",)
                if at_attrs and not isinstance(value := _at(raw, new.json_path), dict):
                    expected = f"attributes must be an object, not {type(value).__name__}"
                    assert new.detail == f"malformed graph: {expected}"
                else:
                    assert isinstance(old, GraphElementError)
                    assert new.detail == str(old) and str(new).endswith(str(old))
            else:
                raise AssertionError(f"loaded a graph the original loader rejects: {old!r}")


def _check_hierarchy(obj) -> None:
    if isinstance(obj, dict):
        _check_rejected_graphs(obj.get("graphs"))
    try:
        h = hierarchy_from_json(obj, validate=False)
    except SqpoError:
        return
    for name in h.nodes():
        _check_graph(h.graph(name), obj["graphs"][name])
    for typing in obj.get("typings", []):
        _check_hom(h.typing(typing["from"], typing["to"]), typing["map"])


def _check_rule(obj) -> None:
    if isinstance(obj, dict):
        _check_rejected_graphs({k: obj[k] for k in ("lhs", "interface", "rhs") if k in obj})
    try:
        rule = rule_from_json(obj)
    except SqpoError:
        return
    for key, g in (("lhs", rule.lhs), ("interface", rule.interface), ("rhs", rule.rhs)):
        _check_graph(g, obj[key])
    _check_hom(rule.left_leg, obj["left"])
    _check_hom(rule.right_leg, obj["right"])


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_files_end_in_an_exit_code(tmp_path, data):
    hier, node, rule, skeleton = data.draw(st.sampled_from(CASES))
    mutate_rule = data.draw(st.booleans())
    h_obj = json.loads((FIXTURES / hier).read_text())
    if skeleton:
        h_obj = _with_skeleton(h_obj)
    r_obj = json.loads((FIXTURES / rule).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        if mutate_rule:
            r_obj = _mutate(data.draw, r_obj)
        else:
            h_obj = _mutate(data.draw, h_obj)
    h_path, r_path = tmp_path / "fuzz.hierarchy.json", tmp_path / "fuzz.rule.json"
    h_path.write_text(json.dumps(h_obj))
    r_path.write_text(json.dumps(r_obj))
    assert _run(["validate", str(h_path)]) in (0, 1, 2)
    kind = data.draw(st.sampled_from(["restrictive", "expansive"]))
    assert _run(["match", str(h_path), node, str(r_path), "--kind", kind]) in (0, 1, 2)
    _check_hierarchy(copy.deepcopy(h_obj))
    _check_rule(copy.deepcopy(r_obj))


_DROP = object()


def test_every_skeleton_mutation_ends_in_an_exit_code(tmp_path):
    """The fuzz rarely draws a spot in the skeleton, so every spot there is
    swept with every mutation: `sqpo validate` returns 0, 1 or 2."""
    base = _with_skeleton(json.loads((FIXTURES / "strict_plan.hierarchy.json").read_text()))
    values = [7, [], ["x"], None, {}, {"x": "y"}]
    path = tmp_path / "sweep.hierarchy.json"
    spots = [p for p in _spots(base) if p[:1] == ("skeleton",)]
    for spot in spots:
        for value in [_DROP, *values]:
            obj = copy.deepcopy(base)
            if value is _DROP:
                del _at(obj, spot[:-1])[spot[-1]]
            else:
                _at(obj, spot[:-1])[spot[-1]] = value
            path.write_text(json.dumps(obj))
            assert _run(["validate", str(path)]) in (0, 1, 2), (spot, value)
            _check_hierarchy(obj)
    assert len(spots) == 11


# (hierarchy file, origin, rule file, plan file); both plans are forward
PLAN_CASES = [
    ("strict_plan.hierarchy.json", "G", "strict_plan.rule.json", "strict_plan.plan.json"),
    ("merge_add.hierarchy.json", "G", "merge_add.rule.json", "merge_add.plan.json"),
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_plan_files_end_in_an_exit_code(tmp_path, data):
    """`sqpo rewrite --plan`, run in-process on a fixture plan file with one
    or two mutations, returns 0, 1 or 2 and never raises."""
    hier, node, rule, plan = data.draw(st.sampled_from(PLAN_CASES))
    p_obj = json.loads((FIXTURES / plan).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        p_obj = _mutate(data.draw, p_obj)
    p_path = tmp_path / "fuzz.plan.json"
    p_path.write_text(json.dumps(p_obj))
    code = _run([
        "rewrite", str(FIXTURES / hier), node, str(FIXTURES / rule), "0",
        "--direction", "fwd", "--plan", str(p_path),
        "-o", str(tmp_path / "out.json"), "--report", str(tmp_path / "report.json"),
    ])
    assert code in (0, 1, 2)


def test_fixture_files_load_as_their_rebuilds():
    for path in sorted(FIXTURES.glob("*.hierarchy.json")):
        _check_hierarchy(json.loads(path.read_text()))
    for path in sorted(FIXTURES.glob("*.rule.json")):
        _check_rule(json.loads(path.read_text()))


def test_duplicate_node_entries_keep_the_last_attributes():
    """A node listed twice takes the attributes of its last entry with an
    `attrs` key, and an empty `attrs` there leaves it bare, as building
    through the public constructor does."""
    for raw in (
        {"nodes": [{"id": "a", "attrs": {"k": ["x"]}}, {"id": "a", "attrs": {}}], "edges": []},
        {"nodes": [{"id": "a", "attrs": {"k": ["x"]}}, {"id": "a", "attrs": {"k": []}}], "edges": []},
        {"nodes": [{"id": "a", "attrs": {"k": ["x"]}}, {"id": "a"}], "edges": []},
        {"nodes": [{"id": "a"}], "edges": [{"from": "a", "to": "a", "attrs": {"k": [1]}},
                                           {"from": "a", "to": "a", "attrs": {}}]},
    ):
        _check_graph(sqpo.graph_from_json(raw), raw)


# text that is not UTF-8 (a UTF-16 byte order mark), JSON nested far
# deeper than the decoder recurses, and an integer with more digits than
# int() converts by default (4300)
UNPARSABLE = {
    "not utf-8": b"\xff\xfe{}",
    "deeply nested": b"[" * 200_000,
    "long integer": b"[" + b"9" * 5000 + b"]",
}
# each input file of `sqpo rewrite` on merge_add, in its place on the
# command line; with its fixture files the rewrite exits 0
REWRITE_FILES = {"hierarchy": "merge_add.hierarchy.json", "rule": "merge_add.rule.json"}


def _rewrite_argv(tmp_path, files: dict, option: str, extra: str) -> list:
    return [
        "rewrite", files["hierarchy"], "G", files["rule"], "0", "--direction", "fwd",
        option, files[extra], "-o", str(tmp_path / "out.json"),
        "--report", str(tmp_path / "report.json"),
    ]


def test_unparsable_files_exit_2_naming_the_file(tmp_path):
    """A hierarchy, rule, relation or plan file that is not UTF-8, whose
    JSON nests deeper than the decoder recurses, or whose integer is too
    long to convert, ends in exit 2 with `cannot parse PATH`, not in a
    traceback."""
    fixtures = {
        **{role: str(FIXTURES / name) for role, name in REWRITE_FILES.items()},
        "relation": str(FIXTURES / "merge_add.relation.json"),
        "plan": str(FIXTURES / "merge_add.plan.json"),
    }
    for option, extra in (("--relation", "relation"), ("--plan", "plan")):
        assert _run(_rewrite_argv(tmp_path, fixtures, option, extra)) == 0
    for case, data in UNPARSABLE.items():
        for role in fixtures:
            path = tmp_path / f"{role}.json"
            path.write_bytes(data)
            files = {**fixtures, role: str(path)}
            option, extra = ("--plan", "plan") if role == "plan" else ("--relation", "relation")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = sqpo.cli.main(_rewrite_argv(tmp_path, files, option, extra))
            assert code == 2, (case, role)
            assert err.getvalue().startswith(f"error: cannot parse {path}: "), (case, role)
            if role == "hierarchy":
                assert _run(["validate", str(path)]) == 2, case


NOT_ITERABLE = "'int' object is not iterable"


def _errors(argv) -> tuple:
    """The exit code and the standard error of an in-process `sqpo` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = sqpo.cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("graph, path", [
    ({"nodes": [{"id": "a", "attrs": {"k": ["x"]}}], "edges": 5}, "edges"),
    ({"nodes": 5}, "nodes"),
], ids=["edges", "nodes"])
def test_a_graph_container_that_is_no_list_is_located_at_itself(tmp_path, graph, path):
    """A graph whose `nodes` or `edges` value is not a list raises at that
    value's path, not at the last row read before it, both from the
    library loader and, in a hierarchy file, from `sqpo validate` (exit 2)."""
    with pytest.raises(GraphElementError) as raised:
        sqpo.graph_from_json(graph)
    assert str(raised.value) == f"{path}: malformed graph: {NOT_ITERABLE}"
    file = tmp_path / "h.json"
    file.write_text(json.dumps({"graphs": {"G": graph}}))
    assert _errors(["validate", str(file)]) == (
        2, f"error: invalid hierarchy in {file}: graphs.G.{path}: graph G: malformed graph: {NOT_ITERABLE}\n"
    )


@pytest.mark.parametrize("damage, path", [
    (lambda obj: obj.update(typings=5), "typings"),
    (lambda obj: obj.update(skeleton={"nodes": ["k"], "edges": 5}), "skeleton.edges"),
], ids=["typings", "skeleton-edges"])
def test_a_hierarchy_container_that_is_no_list_is_located_at_itself(tmp_path, damage, path):
    """A hierarchy whose `typings` or skeleton `edges` value is not a list
    raises at that value's path, not at the last graph or the skeleton."""
    obj = json.loads((FIXTURES / "merge_add.hierarchy.json").read_text())
    damage(obj)
    with pytest.raises(HierarchyError) as raised:
        hierarchy_from_json(obj)
    assert str(raised.value) == f"{path}: malformed hierarchy: {NOT_ITERABLE}"
    file = tmp_path / "h.json"
    file.write_text(json.dumps(obj))
    assert _errors(["validate", str(file)]) == (
        2, f"error: invalid hierarchy in {file}: {path}: malformed hierarchy: {NOT_ITERABLE}\n"
    )


@pytest.mark.parametrize("hier, node, rule, plan", PLAN_CASES, ids=["with-factorizations", "relation-only"])
def test_plan_connectors_that_are_no_list_are_located_at_themselves(tmp_path, hier, node, rule, plan):
    """A plan file whose `connectors` value is not a list is refused (exit 2)
    at that value's path, not at the last factorization nor at none."""
    obj = json.loads((FIXTURES / plan).read_text())
    obj["connectors"] = 5
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    assert _errors([
        "rewrite", str(FIXTURES / hier), node, str(FIXTURES / rule), "0", "--direction", "fwd",
        "--plan", str(path), "-o", str(tmp_path / "out.json"),
    ]) == (2, f"error: invalid plan in {path}: connectors: malformed plan: {NOT_ITERABLE}\n")
    assert list(tmp_path.iterdir()) == [path]
