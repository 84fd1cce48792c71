import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sqpo.cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sqpo.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_validate_ok():
    proc = run_cli("validate", FIXTURES / "merge_add.hierarchy.json")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_validate_broken_diamond():
    proc = run_cli("validate", FIXTURES / "broken_diamond.hierarchy.json")
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PAIR a d: ")
    assert " != " in lines[0] and " at node " in lines[0]


def test_validate_missing_file():
    proc = run_cli("validate", FIXTURES / "does_not_exist.json")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_match_counts_and_anchor():
    proc = run_cli(
        "match",
        FIXTURES / "merge_add.hierarchy.json",
        "G",
        FIXTURES / "merge_add.rule.json",
        "--kind",
        "expansive",
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "merge_add.matches.json").read_text()
    matches = json.loads(proc.stdout)
    assert len(matches) == 4

    anchored = run_cli(
        "match",
        FIXTURES / "merge_add.hierarchy.json",
        "G",
        FIXTURES / "merge_add.rule.json",
        "--kind",
        "expansive",
        "--anchor",
        "cw=w1",
    )
    assert len(json.loads(anchored.stdout)) == 2


def test_match_no_matches_is_ok():
    proc = run_cli(
        "match",
        FIXTURES / "merge_add.hierarchy.json",
        "T",
        FIXTURES / "clone_delete.rule.json",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == []


GOLDEN_REWRITES = [
    ("merge_add", "merge_add.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add.relation.json"),
    ("merge_add_variant", "merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add_variant.relation.json"),
    ("clone_delete", "clone_delete.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
    ("clone_delete_partial", "clone_delete_partial.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
    ("set_example", "set_example.hierarchy.json", "n0", "set_example.rule.json", "fwd", "set_example.relation.json"),
    ("diamond", "diamond.hierarchy.json", "k0", "diamond.rule.json", "bwd", "diamond.relation.json"),
]


@pytest.mark.parametrize("name, hier, node, rule, direction, relation", GOLDEN_REWRITES)
def test_rewrite_matches_golden(tmp_path, name, hier, node, rule, direction, relation):
    out = tmp_path / "out.json"
    report = tmp_path / "report.json"
    proc = run_cli(
        "rewrite",
        FIXTURES / hier,
        node,
        FIXTURES / rule,
        "0",
        "--direction",
        direction,
        "--relation",
        FIXTURES / relation,
        "-o",
        out,
        "--report",
        report,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (GOLDEN / f"{name}.out.json").read_text()
    assert report.read_text() == (GOLDEN / f"{name}.report.json").read_text()
    # rewritten hierarchies validate cleanly
    check = run_cli("validate", out)
    assert check.returncode == 0


def _shuffled(obj: dict, seed: int) -> dict:
    """A copy of the hierarchy file `obj` whose graphs list their nodes and
    edges in a shuffled order, each with one entry listed twice."""
    rng = random.Random(seed)
    out = json.loads(json.dumps(obj))
    for graph in out["graphs"].values():
        for key in ("nodes", "edges"):
            entries = graph.get(key, [])
            if entries:
                entries.append(dict(rng.choice(entries)))
                rng.shuffle(entries)
    return out


@pytest.mark.parametrize("name, hier, node, rule, direction, relation", GOLDEN_REWRITES)
def test_rewrite_of_a_shuffled_file_writes_the_same_bytes(
    tmp_path, capsys, name, hier, node, rule, direction, relation
):
    """The loader keeps the sorted node and edge lists a file gives, and
    sorts those of a file that lists them otherwise: `sqpo rewrite` of a
    file listing them shuffled, with repeats, writes the golden output and
    report bytes, and `sqpo validate` of it prints what it prints for the
    sorted file (in process, so the CLI's caches are shared between runs)."""
    shuffled = tmp_path / "shuffled.hierarchy.json"
    shuffled.write_text(json.dumps(_shuffled(json.loads((FIXTURES / hier).read_text()), 27)))
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    for path in (shuffled, FIXTURES / hier):
        assert sqpo.cli.main([
            "rewrite", str(path), node, str(FIXTURES / rule), "0", "--direction", direction,
            "--relation", str(FIXTURES / relation), "-o", str(out), "--report", str(report),
        ]) == 0
        assert out.read_text() == (GOLDEN / f"{name}.out.json").read_text()
        assert report.read_text() == (GOLDEN / f"{name}.report.json").read_text()
        capsys.readouterr()


@pytest.mark.parametrize("hier", sorted(p.name for p in FIXTURES.glob("*.hierarchy.json")))
def test_validate_of_a_shuffled_file_prints_the_same(tmp_path, capsys, hier):
    shuffled = tmp_path / "shuffled.hierarchy.json"
    shuffled.write_text(json.dumps(_shuffled(json.loads((FIXTURES / hier).read_text()), 27)))
    results = []
    for path in (FIXTURES / hier, shuffled):
        code = sqpo.cli.main(["validate", str(path)])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    assert hier != "broken_diamond.hierarchy.json" or results[0][0] == 1


def test_rewrite_canonical_flag(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(
        "rewrite",
        FIXTURES / "merge_add.hierarchy.json",
        "G",
        FIXTURES / "merge_add.rule.json",
        "0",
        "--direction",
        "fwd",
        "--canonical",
        "-o",
        out,
        "--report",
        tmp_path / "report.json",
    )
    assert proc.returncode == 0, proc.stderr
    hierarchy = json.loads(out.read_text())
    # without clean-up the two squares keep distinct types
    assert len(hierarchy["graphs"]["T"]["nodes"]) == 3


def test_rewrite_composability_violation_exits_1(tmp_path):
    proc = run_cli(
        "rewrite",
        FIXTURES / "chain.hierarchy.json",
        "g0",
        FIXTURES / "chain.rule.json",
        "0",
        "--direction",
        "fwd",
        "--relation",
        FIXTURES / "chain.relation.json",
        "-o",
        tmp_path / "out.json",
        "--report",
        tmp_path / "report.json",
    )
    assert proc.returncode == 1
    assert "g1->g2" in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_rewrite_bad_match_index(tmp_path):
    for index in ("99", "-1"):
        proc = run_cli(
            "rewrite",
            FIXTURES / "merge_add.hierarchy.json",
            "G",
            FIXTURES / "merge_add.rule.json",
            index,
            "--direction",
            "fwd",
            "--canonical",
            "-o",
            tmp_path / "out.json",
        )
        assert proc.returncode == 1
        # an index past the end has drawn, and counts, every match
        assert proc.stderr.endswith(f"match index {index} out of range (4 matches)\n")


def test_rewrite_direction_requires_trivial_other_leg(tmp_path):
    cases = [
        (
            "clone_delete", "T", "fwd",
            "forward rewriting needs a rule whose restrictive part is trivial "
            "(lhs equal to the interface, identity left leg)",
        ),
        (
            "merge_add", "G", "bwd",
            "backward rewriting needs a rule whose expansive part is trivial "
            "(rhs equal to the interface, identity right leg)",
        ),
    ]
    for fixture, node, direction, message in cases:
        proc = run_cli(
            "rewrite",
            FIXTURES / f"{fixture}.hierarchy.json",
            node,
            FIXTURES / f"{fixture}.rule.json",
            "0",
            "--direction",
            direction,
            "--canonical",
            "-o",
            tmp_path / "out.json",
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"


def test_rewrite_with_explicit_plan_file(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(
        "rewrite",
        FIXTURES / "strict_plan.hierarchy.json",
        "G",
        FIXTURES / "strict_plan.rule.json",
        "0",
        "--direction",
        "fwd",
        "--plan",
        FIXTURES / "strict_plan.plan.json",
        "-o",
        out,
        "--report",
        tmp_path / "report.json",
    )
    assert proc.returncode == 0, proc.stderr
    hierarchy = json.loads(out.read_text())
    # fully strict: the typing object is untouched, the new node is typed t2
    assert [n["id"] for n in hierarchy["graphs"]["T"]["nodes"]] == ["t1", "t2"]
    assert hierarchy["typings"][0]["map"]["a"] == "t2"


def test_plan_file_relation_field_matches_relation_flag(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(
        "rewrite",
        FIXTURES / "merge_add.hierarchy.json",
        "G",
        FIXTURES / "merge_add.rule.json",
        "0",
        "--direction",
        "fwd",
        "--plan",
        FIXTURES / "merge_add.plan.json",
        "-o",
        out,
        "--report",
        tmp_path / "report.json",
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (GOLDEN / "merge_add.out.json").read_text()


def test_cli_runs_are_byte_identical(tmp_path):
    results = []
    for attempt in range(2):
        out = tmp_path / f"out{attempt}.json"
        report = tmp_path / f"report{attempt}.json"
        proc = run_cli(
            "rewrite",
            FIXTURES / "diamond.hierarchy.json",
            "k0",
            FIXTURES / "diamond.rule.json",
            "0",
            "--direction",
            "bwd",
            "--relation",
            FIXTURES / "diamond.relation.json",
            "-o",
            out,
            "--report",
            report,
        )
        assert proc.returncode == 0
        results.append((out.read_bytes(), report.read_bytes()))
    assert results[0] == results[1]


def _without_first_node_id(obj):
    del obj["graphs"]["G"]["nodes"][0]["id"]
    return obj


def _without_first_typing_target(obj):
    del obj["typings"][0]["to"]
    return obj


def _with_skeleton_edge(edge):
    def damage(obj):
        obj["skeleton"] = {"nodes": ["a"], "edges": [edge], "assignment": {}}
        return obj

    return damage


def _with_skeleton(**part):
    """A skeleton over merge_add's G -> T, with `part` replacing its nodes,
    edges or assignment."""
    def damage(obj):
        obj["skeleton"] = {
            "nodes": ["g", "t"], "edges": [["g", "t"]], "assignment": {"G": "g", "T": "t"},
            **part,
        }
        return obj

    return damage


def _with_first_node_id(value):
    def damage(obj):
        obj["graphs"]["G"]["nodes"][0]["id"] = value
        return obj

    return damage


def _with_edge_to_a_number(obj):
    obj["graphs"]["G"]["edges"].append({"from": "b1", "to": 7})
    return obj


def _with_number_in_typing_map(obj):
    obj["typings"][0]["map"]["b1"] = 5
    return obj


@pytest.mark.parametrize(
    "damage, needle",
    [
        (_without_first_node_id, "missing key 'id'"),
        (_without_first_typing_target, "missing key 'to'"),
        (lambda obj: [obj], "malformed hierarchy"),
        (_with_skeleton_edge(["a"]),
         'malformed hierarchy: skeleton edge ["a"] is not a pair of kinds'),
        (_with_skeleton_edge(["a", "a", "a"]),
         'malformed hierarchy: skeleton edge ["a", "a", "a"] is not a pair of kinds'),
        (_with_skeleton(edges=[["g", "t"], ["g", "zz"]]),
         "skeleton.edges[1]: skeleton edge (g,zz) has unknown endpoint"),
        (_with_skeleton(edges=[["g", "t"], ["t", "g"]]), "skeleton: skeleton must be acyclic"),
        (_with_skeleton(edges=[["t", "t"]]), "skeleton: skeleton must be acyclic"),
        (_with_skeleton(nodes="kk"),
         'skeleton.nodes: malformed hierarchy: skeleton nodes "kk" are not a list of kinds'),
        (_with_skeleton(nodes=["g", 5]),
         'skeleton.nodes: malformed hierarchy: skeleton nodes ["g", 5] are not a list of kinds'),
        (_with_skeleton(assignment=["abc"]), "skeleton.assignment: malformed hierarchy"),
        (_with_skeleton(assignment=["Ak"]), "skeleton.assignment: malformed hierarchy"),
        (_with_skeleton(assignment={"G": 5, "T": "t"}),
         "skeleton.assignment.G: malformed hierarchy: skeleton assignment maps G to 5, not to a node id"),
        (_with_first_node_id([1]), "graph G: malformed graph: node id [1] is not a string"),
        (_with_first_node_id(None), "graph G: malformed graph: node id null is not a string"),
        (_with_edge_to_a_number,
         'graph G: malformed graph: edge ["b1", 7] has an endpoint that is not a string'),
        (_with_number_in_typing_map,
         "malformed hierarchy: typing G -> T maps b1 to 5, not to a node id"),
    ],
    ids=[
        "node-without-id",
        "typing-without-to",
        "top-level-list",
        "skeleton-edge-of-one",
        "skeleton-edge-of-three",
        "skeleton-edge-unknown-endpoint",
        "skeleton-cycle",
        "skeleton-self-loop",
        "skeleton-nodes-string",
        "skeleton-kind-number",
        "skeleton-assignment-list",
        "skeleton-assignment-pair-string",
        "skeleton-assignment-kind-number",
        "node-id-list",
        "node-id-null",
        "edge-endpoint-number",
        "typing-image-number",
    ],
)
def test_validate_malformed_json_exits_2(tmp_path, damage, needle):
    obj = json.loads((FIXTURES / "merge_add.hierarchy.json").read_text())
    path = tmp_path / "bad.hierarchy.json"
    path.write_text(json.dumps(damage(obj)))
    proc = run_cli("validate", path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and needle in proc.stderr


@pytest.mark.parametrize(
    "assignment, violations",
    [
        ({"G": "g", "T": "t"}, []),
        ({"G": "zzz", "T": "t"},
         ["node G: unknown skeleton kind zzz", "typing G -> T has no skeleton edge zzz -> t"]),
        ({"G": "g", "T": "t", "X": "g"}, ["skeleton assignment names unknown graph X"]),
        ({"G": "g"}, ["node T lacks a skeleton assignment"]),
    ],
    ids=["valid", "unknown-kind", "unknown-graph", "missing"],
)
def test_validate_reports_skeleton_assignment(tmp_path, assignment, violations):
    obj = json.loads((FIXTURES / "merge_add.hierarchy.json").read_text())
    path = tmp_path / "skeleton.hierarchy.json"
    path.write_text(json.dumps(_with_skeleton(assignment=assignment)(obj)))
    proc = run_cli("validate", path)
    assert (proc.returncode, proc.stderr) == (1 if violations else 0, "")
    assert proc.stdout.splitlines() == violations


def test_validate_deep_skeleton_chain(tmp_path):
    """A skeleton chain of 5,000 kinds, far deeper than the interpreter's
    recursion limit, validates."""
    kinds = [f"k{i:04d}" for i in range(5000)]
    obj = {
        "skeleton": {
            "nodes": kinds,
            "edges": [[u, v] for u, v in zip(kinds, kinds[1:])],
            "assignment": {"G": kinds[0]},
        },
        "graphs": {"G": {"nodes": [{"id": "a"}], "edges": []}},
        "typings": [],
    }
    path = tmp_path / "deep.hierarchy.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("validate", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_rewrite_malformed_rule_exits_2(tmp_path):
    rule = json.loads((FIXTURES / "merge_add.rule.json").read_text())
    del rule["left"]
    path = tmp_path / "bad.rule.json"
    path.write_text(json.dumps(rule))
    proc = run_cli(
        "rewrite", FIXTURES / "merge_add.hierarchy.json", "G", path, "0",
        "--direction", "fwd", "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and "missing key 'left'" in proc.stderr


def _with_first_lhs_node_id(value):
    def damage(rule):
        rule["lhs"]["nodes"][0]["id"] = value
        return rule

    return damage


def _with_number_in_left_leg(rule):
    rule["left"][sorted(rule["left"])[0]] = 3
    return rule


@pytest.mark.parametrize(
    "damage, needle",
    [
        (_with_first_lhs_node_id([1]), "malformed graph: node id [1] is not a string"),
        (_with_first_lhs_node_id(None), "malformed graph: node id null is not a string"),
        (_with_number_in_left_leg, "malformed rule: left leg maps"),
    ],
    ids=["lhs-node-id-list", "lhs-node-id-null", "left-leg-image-number"],
)
def test_rewrite_rule_with_non_string_ids_exits_2(tmp_path, damage, needle):
    rule = json.loads((FIXTURES / "merge_add.rule.json").read_text())
    path = tmp_path / "bad.rule.json"
    path.write_text(json.dumps(damage(rule)))
    proc = run_cli(
        "rewrite", FIXTURES / "merge_add.hierarchy.json", "G", path, "0",
        "--direction", "fwd", "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and needle in proc.stderr


def test_module_run_writes_nothing_to_stderr():
    """`python -m sqpo.cli` runs the CLI module as __main__; the package
    must not have imported it already, or runpy prints a RuntimeWarning."""
    proc = run_cli("validate", FIXTURES / "merge_add.hierarchy.json")
    assert proc.returncode == 0
    assert proc.stderr == ""


def _without_mid(plan):
    del plan["factorizations"]["T"]["mid"]
    return plan


def _mid_node_without_id(plan):
    del plan["factorizations"]["T"]["mid"]["nodes"][0]["id"]
    return plan


def _connector_without_map(plan):
    plan["connectors"] = [{"from": "T", "to": "T"}]
    return plan


def _factorizations_list(plan):
    plan["factorizations"] = []
    return plan


@pytest.mark.parametrize(
    "damage, needle",
    [
        (_without_mid, "missing key 'mid'"),
        (_mid_node_without_id, "malformed graph: missing key 'id'"),
        (_connector_without_map, "missing key 'map'"),
        (_factorizations_list, "plan factorizations must map node names"),
        (lambda plan: [plan], "plan file must hold a JSON object"),
    ],
    ids=[
        "factorization-without-mid",
        "mid-node-without-id",
        "connector-without-map",
        "factorizations-list",
        "top-level-list",
    ],
)
def test_rewrite_malformed_plan_exits_2(tmp_path, damage, needle):
    plan = json.loads((FIXTURES / "strict_plan.plan.json").read_text())
    path = tmp_path / "bad.plan.json"
    path.write_text(json.dumps(damage(plan)))
    proc = run_cli(
        "rewrite", FIXTURES / "strict_plan.hierarchy.json", "G",
        FIXTURES / "strict_plan.rule.json", "0", "--direction", "fwd",
        "--plan", path, "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and needle in proc.stderr


def _set_typing_of_a(value):
    def damage(plan):
        plan["factorizations"]["T"]["typing_or_retyping"]["a"] = value
        return plan

    return damage


def _numeric_pre(plan):
    plan["factorizations"]["T"]["pre"]["p"] = 5
    return plan


def _numeric_connector(plan):
    plan["connectors"] = [{"from": "T", "to": "T", "map": {"p": 5}}]
    return plan


def _origin_factorization(plan):
    plan["factorizations"]["G"] = {"pre": {"p": "zz"}, "post": {"q": "nope"}}
    return plan


@pytest.mark.parametrize(
    "damage, code, needle",
    [
        (_set_typing_of_a("zz"), 1, "node T: malformed factorization (typing: node a maps to unknown node zz)"),
        (_numeric_pre, 2, "factorization T pre maps p to 5, not to a node id"),
        (_set_typing_of_a(5), 2, "factorization T typing_or_retyping maps a to 5, not to a node id"),
        (_numeric_connector, 2, "connector T->T maps p to 5, not to a node id"),
        (_origin_factorization, 2, "plan factorization for G: the origin takes no factorization"),
    ],
    ids=[
        "unknown-node", "number-in-pre", "number-in-typing", "number-in-connector",
        "origin-factorization",
    ],
)
def test_rewrite_plan_with_bad_node_ids(tmp_path, damage, code, needle):
    """A plan arrow to a node the object lacks is rejected by the
    composability check (exit 1); a JSON number where a node id belongs is
    an input error naming the file and the entry (exit 2). Neither prints a
    traceback or a warning, or writes an output."""
    plan = json.loads((FIXTURES / "strict_plan.plan.json").read_text())
    path = tmp_path / "bad.plan.json"
    path.write_text(json.dumps(damage(plan)))
    proc = run_cli(
        "rewrite", FIXTURES / "strict_plan.hierarchy.json", "G",
        FIXTURES / "strict_plan.rule.json", "0", "--direction", "fwd",
        "--plan", path, "-o", tmp_path / "out.json",
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert needle in proc.stderr
    if code == 1:
        assert proc.stderr.startswith("error: plan rejected by composability check:\n")
    else:
        assert f"invalid plan in {path}: " in proc.stderr
    assert list(tmp_path.iterdir()) == [path]


def _graph(*ids):
    return {"nodes": [{"id": n} for n in ids], "edges": []}


def _run_typed_chain_plan(tmp_path, connectors=None):
    """`sqpo rewrite --plan` at G of G -> M -> T plus G -> T, with a rule
    that adds a node beside x and a forward plan file that types it as x at
    M and at T, plus `connectors` when given; returns the process."""
    tmp_path.mkdir()
    plan = {"factorizations": {
        name: {"mid": _graph("x", "a"), "pre": {"x": "x"}, "post": {"x": "x", "a": "a"},
               "typing_or_retyping": {"x": image, "a": image}}
        for name, image in (("M", "u"), ("T", "v"))
    }}
    if connectors is not None:
        plan["connectors"] = connectors
    files = {
        "h.json": {
            "graphs": {"G": _graph("x"), "M": _graph("u"), "T": _graph("v")},
            "typings": [
                {"from": "G", "to": "M", "map": {"x": "u"}},
                {"from": "G", "to": "T", "map": {"x": "v"}},
                {"from": "M", "to": "T", "map": {"u": "v"}},
            ],
        },
        "rule.json": {"lhs": _graph("x"), "interface": _graph("x"), "rhs": _graph("x", "a"),
                      "left": {"x": "x"}, "right": {"x": "x"}},
        "plan.json": plan,
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return run_cli(
        "rewrite", tmp_path / "h.json", "G", tmp_path / "rule.json", "0", "--direction", "fwd",
        "--plan", tmp_path / "plan.json", "-o", tmp_path / "out.json", "--report", tmp_path / "report.json",
    )


def test_rewrite_plan_with_an_explicit_connector(tmp_path):
    """A valid connector in the plan file gives the bytes of the same plan
    without it, from which the same connector is derived."""
    derived = _run_typed_chain_plan(tmp_path / "derived")
    given = _run_typed_chain_plan(
        tmp_path / "given", [{"from": "M", "to": "T", "map": {"x": "x", "a": "a"}}]
    )
    assert derived.returncode == given.returncode == 0, derived.stderr + given.stderr
    for name in ("out.json", "report.json"):
        text = (tmp_path / "given" / name).read_bytes()
        assert text == (tmp_path / "derived" / name).read_bytes()
    assert '"a": "u"' in (tmp_path / "given" / "out.json").read_text()


@pytest.mark.parametrize(
    "connector, code, needle",
    [
        ({"from": "T", "to": "M", "map": {"x": "zz"}}, 1,
         "connector T->M: not a typing of the affected sub-hierarchy"),
        ({"from": "M", "to": "T", "map": {"x": "zz", "a": "a"}}, 1,
         "connector M->T: node x maps to unknown node zz"),
        ({"from": "G", "to": "M", "map": {"x": "x"}}, 2,
         "connector G->M names nodes without factorizations"),
    ],
    ids=["reversed-typing", "unknown-node", "from-the-origin"],
)
def test_rewrite_plan_with_a_bad_connector(tmp_path, connector, code, needle):
    """A connector on a pair that is no typing, or one that maps a node off
    its target, fails the composability check (exit 1); one that names the
    origin, which takes no factorization, is an input error (exit 2)."""
    proc = _run_typed_chain_plan(tmp_path / "run", [connector])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and needle in proc.stderr
    assert not (tmp_path / "run" / "out.json").exists()


def test_rewrite_plan_with_an_unknown_retyping_key_exits_2(tmp_path):
    """A backward `typing_or_retyping` key that is neither a node of the
    restriction pattern nor an instance element is an input error."""
    plan = {"factorizations": {"G": {
        "mid": _graph("q"), "pre": {}, "post": {}, "typing_or_retyping": {"nowhere": "q"},
    }}}
    path = tmp_path / "bad.plan.json"
    path.write_text(json.dumps(plan))
    proc = run_cli(
        "rewrite", FIXTURES / "clone_delete.hierarchy.json", "T",
        FIXTURES / "clone_delete.rule.json", "0", "--direction", "bwd",
        "--plan", path, "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (
        f"invalid plan in {path}: plan factorization for G: nowhere is neither a "
        "restriction-pattern node nor an instance element"
    ) in proc.stderr
    assert list(tmp_path.iterdir()) == [path]


def _fixture_with(name, damage):
    obj = json.loads((FIXTURES / name).read_text())
    damage(obj)
    return obj


@pytest.mark.parametrize(
    "kind, obj, message",
    [
        (
            "plan",
            _fixture_with("strict_plan.plan.json", lambda p: p["factorizations"]["T"]["mid"]["nodes"][1].update(attrs={"k": [1.5]})),
            "factorizations.T.mid.nodes[1].attrs.k[0]: malformed plan: "
            "attribute values must be str, int or bool, got float",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h["graphs"]["T"]["nodes"][1].update(id=5)),
            "graphs.T.nodes[1]: graph T: malformed graph: node id 5 is not a string",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h["typings"][0]["map"].update(i=["t1"])),
            'typings[0].map.i: malformed hierarchy: typing G -> T maps i to ["t1"], not to a node id',
        ),
        (
            "rule",
            _fixture_with("strict_plan.rule.json", lambda r: r["rhs"]["nodes"][0].update(attrs={"k": "x"})),
            "rhs.nodes[0].attrs.k: attribute k: expected a list of values",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h["graphs"]["T"]["edges"].extend(
                {"from": u, "to": v} for u, v in (("t2", "zz"), ("t1", "t1"), ("t1", "zz"))
            )),
            "graphs.T.edges[2]: graph T: invalid graph: dangling edge (t1,zz): missing target "
            "node zz; dangling edge (t2,zz): missing target node zz",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h["graphs"]["G"]["nodes"][0].update(attrs=[1])),
            "graphs.G.nodes[0].attrs: graph G: malformed graph: attributes must be an object, not list",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h["graphs"]["T"]["edges"].append(
                {"from": "t1", "to": "t2", "attrs": [5, 6]}
            )),
            "graphs.T.edges[0].attrs: graph T: malformed graph: attributes must be an object, not list",
        ),
        (
            "hierarchy",
            _fixture_with("strict_plan.hierarchy.json", lambda h: h.update(graphs=[1])),
            "graphs: malformed hierarchy: graphs must be an object, not list",
        ),
        (
            "rule",
            _fixture_with("strict_plan.rule.json", lambda r: r["lhs"]["nodes"][0].update(attrs=[1])),
            "lhs.nodes[0].attrs: malformed graph: attributes must be an object, not list",
        ),
        (
            "plan",
            _fixture_with("strict_plan.plan.json", lambda p: p["factorizations"]["T"]["mid"]["nodes"][0].update(attrs=[1])),
            "factorizations.T.mid.nodes[0].attrs: malformed plan: malformed graph: "
            "attributes must be an object, not list",
        ),
    ],
    ids=[
        "graph-attribute-value", "hierarchy-node-id", "hierarchy-typing-entry", "rule-attribute",
        "hierarchy-dangling-edge", "hierarchy-node-attrs-list", "hierarchy-edge-attrs-list",
        "hierarchy-graphs-list", "rule-attrs-list", "plan-mid-attrs-list",
    ],
)
def test_loader_messages_name_the_json_path(tmp_path, kind, obj, message):
    """Each loader names the JSON path of a malformed value before the
    message it gave without one; the graph loader is reached through a
    plan factorization's `mid`. Dangling edges are named at the first
    entry of the first of them in sorted order."""
    files = {k: FIXTURES / f"strict_plan.{k}.json" for k in ("hierarchy", "rule", "plan")}
    path = files[kind] = tmp_path / f"bad.{kind}.json"
    path.write_text(json.dumps(obj))
    proc = run_cli(
        "rewrite", files["hierarchy"], "G", files["rule"], "0", "--direction", "fwd",
        "--plan", files["plan"], "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: invalid {kind} in {path}: {message}\n"


@pytest.mark.parametrize("command", ["validate", "match"])
@pytest.mark.parametrize(
    "damage",
    [
        lambda h: h["graphs"]["G"]["nodes"][0].update(attrs=[1]),
        lambda h: h["graphs"]["T"]["edges"].append({"from": "t1", "to": "t2", "attrs": [5, 6]}),
        lambda h: h.update(graphs=[1]),
    ],
    ids=["node-attrs", "edge-attrs", "graphs"],
)
def test_non_object_attrs_or_graphs_exit_2(tmp_path, command, damage):
    """A list where a hierarchy file needs the object of a node's or an
    edge's attributes, or of its graphs, is an input error naming its JSON
    path (a list of numbers was read by index and raised IndexError)."""
    path = tmp_path / "bad.hierarchy.json"
    path.write_text(json.dumps(_fixture_with("strict_plan.hierarchy.json", damage)))
    args = [command, path] + (["G", FIXTURES / "strict_plan.rule.json"] if command == "match" else [])
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: invalid hierarchy in {path}: graphs")
    assert "must be an object, not list" in proc.stderr and "Traceback" not in proc.stderr


def test_rewrite_failing_report_leaves_no_partial_output(tmp_path, monkeypatch):
    """Both outputs are rendered before any file is opened and renamed into
    place only once written: if rendering the report fails, an existing
    output file keeps its old content and no new or temporary file appears."""
    import sqpo.cli

    out, report = tmp_path / "out.json", tmp_path / "report.json"
    out.write_text("old\n")
    args = [
        "rewrite", str(FIXTURES / "merge_add.hierarchy.json"), "G",
        str(FIXTURES / "merge_add.rule.json"), "0", "--direction", "fwd",
        "--relation", str(FIXTURES / "merge_add.relation.json"),
        "-o", str(out), "--report", str(report),
    ]

    def broken_report(reports, map_texts=None):
        raise RuntimeError("report rendering failed")

    with monkeypatch.context() as patch:
        patch.setattr(sqpo.cli, "_report_json", broken_report)
        with pytest.raises(RuntimeError, match="report rendering failed"):
            sqpo.cli.main(args)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert out.read_text() == "old\n"

    assert sqpo.cli.main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "report.json"]
    assert out.read_text() == (GOLDEN / "merge_add.out.json").read_text()
    assert report.read_text() == (GOLDEN / "merge_add.report.json").read_text()


@pytest.mark.parametrize("directory", ["out", "report"])
def test_rewrite_onto_a_directory_keeps_the_old_output(tmp_path, directory):
    """A target that is an existing directory is refused before any file is
    staged or renamed: the other output keeps its old bytes and no temporary
    file is left."""
    targets = {"out": tmp_path / "out", "report": tmp_path / "report"}
    for name, path in targets.items():
        if name == directory:
            path.mkdir()
        else:
            path.write_text("old\n")
    proc = run_cli(
        "rewrite", FIXTURES / "merge_add.hierarchy.json", "G",
        FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
        "-o", targets["out"], "--report", targets["report"],
    )
    assert proc.returncode == 2, proc.stderr
    assert f"error: cannot write {targets[directory]}: Is a directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "report"]
    assert list(targets[directory].iterdir()) == []
    assert [path.read_text() for name, path in targets.items() if name != directory] == ["old\n"]


def test_rewrite_unwritable_output_exits_2(tmp_path):
    missing = tmp_path / "no_such_dir"
    proc = run_cli(
        "rewrite", FIXTURES / "merge_add.hierarchy.json", "G",
        FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
        "-o", missing / "out.json", "--report", tmp_path / "report.json",
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"cannot write {missing / 'out.json'}" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("report", ["out.json", "sub/../out.json", "link.json"])
def test_rewrite_output_and_report_on_one_file_exits_2(tmp_path, report):
    """`-o F --report F` (also through another spelling of the path, or a
    symlink to it) is an input error before anything is written: the
    report's rename would replace the rewritten hierarchy."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to(tmp_path / "out.json")
    report = f"{tmp_path}/{report}"
    proc = run_cli(
        "rewrite", FIXTURES / "merge_add.hierarchy.json", "G",
        FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
        "-o", tmp_path / "out.json", "--report", report,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: --output and --report name the same file: {report}\n"
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "sub"]


@pytest.mark.parametrize(
    "hier, node, rule, direction, flag, content, bad_node",
    [
        ("merge_add", "G", "merge_add", "fwd", "--relation", {"T": ["a"]}, "T"),
        ("merge_add", "G", "merge_add", "fwd", "--relation", {"T": 5}, "T"),
        ("merge_add", "G", "merge_add", "fwd", "--relation", {"T": None}, "T"),
        ("merge_add", "G", "merge_add", "fwd", "--relation", {"T": {"s2": ["s1"]}}, "T"),
        ("clone_delete", "T", "clone_delete", "bwd", "--relation", {"G": ["x"]}, "G"),
        ("merge_add", "G", "merge_add", "fwd", "--plan", {"relation": {"T": 5}}, "T"),
    ],
    ids=["list", "number", "null", "list-value", "clone-delete-list", "plan-number"],
)
def test_rewrite_malformed_relation_exits_2(
    tmp_path, hier, node, rule, direction, flag, content, bad_node
):
    """A per-node relation that is not an object of strings is an input
    error naming the file and the node, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    proc = run_cli(
        "rewrite", FIXTURES / f"{hier}.hierarchy.json", node,
        FIXTURES / f"{rule}.rule.json", "0", "--direction", direction,
        flag, path, "-o", tmp_path / "out.json",
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr and f"for node {bad_node} " in proc.stderr
    assert not (tmp_path / "out.json").exists()


def test_rewrite_builds_matches_only_up_to_the_index(tmp_path, monkeypatch):
    """Rewriting at match 0 of a 3-node discrete pattern in a 60-node object
    builds one match, not all 60·59·58 of them."""
    import sqpo.cli
    import sqpo.rules
    from sqpo import Graph, Hierarchy, Rule, hierarchy_to_json, rule_to_json
    from sqpo.graphs import dumps_canonical

    hier = tmp_path / "big.hierarchy.json"
    rule = tmp_path / "three.rule.json"
    g = Graph([f"v{i:02d}" for i in range(60)])
    hier.write_text(dumps_canonical(hierarchy_to_json(Hierarchy().add_object("G", g))))
    rule.write_text(dumps_canonical(rule_to_json(Rule.identity_rule(Graph(["a", "b", "c"])))))
    built = []

    class CountedMatch(sqpo.rules.Match):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sqpo.rules, "Match", CountedMatch)
    args = ["rewrite", str(hier), "G", str(rule), "0", "--direction", "fwd",
            "-o", str(tmp_path / "out.json")]
    assert sqpo.cli.main(args) == 0
    assert len(built) == 1
    assert built[0][0].node_map == {"a": "v00", "b": "v01", "c": "v02"}


def _typed_data_file(path: Path, g_t: dict | None = None, m_t: dict | None = None,
                     complete: bool = False) -> Path:
    """G -> M -> T plus G -> T over a 3-kind T whose only edges are the
    loops and k0 -> k1 (all 9 if `complete`), a 6-node M and a 12-node G,
    each with every edge its typing allows. G -> T is the composite unless
    `g_t` re-maps some of its nodes; `m_t` re-maps M's."""
    kinds = ["k0", "k1", "k2"]
    t_edges = [[k, k] for k in kinds] + [["k0", "k1"]]
    if complete:
        t_edges = [[u, v] for u in kinds for v in kinds]
    m_kind = {f"m{j}": kinds[j % 3] for j in range(6)}
    m_edges = [[m, n] for m in m_kind for n in m_kind if [m_kind[m], m_kind[n]] in t_edges]
    g_mid = {f"g{i:02d}": f"m{i // 2 % 6}" for i in range(12)}
    g_edges = [[g, h] for g in g_mid for h in g_mid if [g_mid[g], g_mid[h]] in m_edges]
    m_map = {**m_kind, **(m_t or {})}
    g_map = {g: m_kind[m] for g, m in g_mid.items()}
    g_map.update(g_t or {})

    def graph(ids, edges):
        return {"nodes": [{"id": n} for n in ids], "edges": [{"from": u, "to": v} for u, v in edges]}

    obj = {
        "graphs": {"T": graph(kinds, t_edges), "M": graph(m_kind, m_edges), "G": graph(g_mid, g_edges)},
        "typings": [
            {"from": "G", "to": "M", "map": g_mid},
            {"from": "G", "to": "T", "map": g_map},
            {"from": "M", "to": "T", "map": m_map},
        ],
    }
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("g_t, m_t, lines", [
    ({}, {}, []),
    ({"g00": "k2"}, {}, ["typing G -> T: edge (g00,g01) has no image edge"]),
    ({"g00": "k2"}, {"m1": "k0"}, [
        "typing G -> T: edge (g00,g01) has no image edge",
        "typing M -> T: edge (m4,m1) has no image edge",
    ]),
    ({"g02": "zz"}, {}, ["typing G -> T: node g02 maps to unknown node zz"]),
], ids=["commutes", "g-t-invalid", "both-invalid", "g-t-off-target"])
def test_validate_judges_each_typing_in_sorted_order(tmp_path, capsys, monkeypatch, g_t, m_t, lines):
    """`sqpo validate` of G -> M -> T plus G -> T: a G -> T that equals the
    composite of the other two is a homomorphism without a walk of its own
    (`homomorphism_violation`); one that does not is walked, and its
    problem is reported where sorted edge order puts it, before M -> T's."""
    path = _typed_data_file(tmp_path / "h.json", g_t, m_t)
    walked = []
    violation = sqpo.hierarchy.homomorphism_violation

    def recording(hom):
        walked.append(len(hom.source.nodes))
        return violation(hom)

    monkeypatch.setattr(sqpo.hierarchy, "homomorphism_violation", recording)
    code = sqpo.cli.main(["validate", str(path)])
    assert (code, capsys.readouterr().out.splitlines()) == (1 if lines else 0, lines)
    assert sorted(walked) == ([6, 12] if not lines else [6, 12, 12])  # M -> T, G -> M (, G -> T)


def test_validate_reports_a_g_t_that_does_not_commute(tmp_path, capsys):
    """Into a complete T, G -> T is a homomorphism but sends g00 and g01 to
    k1 where G -> M -> T sends them to k0: the file's only problem is the
    pair (G, T), reported by the commutativity check."""
    path = _typed_data_file(tmp_path / "h.json", {"g00": "k1", "g01": "k1"}, complete=True)
    code = sqpo.cli.main(["validate", str(path)])
    assert (code, capsys.readouterr().out) == (1, "PAIR G T: G->T != G->M->T at node g00\n")


def _strict_plan_argv(tmp_path, plan: dict) -> list:
    """`sqpo rewrite --plan` at G of the strict_plan fixture, with `plan`
    written as the plan file."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return ["rewrite", str(FIXTURES / "strict_plan.hierarchy.json"), "G",
            str(FIXTURES / "strict_plan.rule.json"), "0", "--direction", "fwd",
            "--plan", str(path), "-o", str(tmp_path / "out.json")]


def _with_unaffected_factorization(plan):
    plan["factorizations"]["nowhere"] = plan["factorizations"]["T"]
    return plan


@pytest.mark.parametrize("damage, message", [
    (lambda plan: {**plan, "origin": "T"},
     "plan file names a different origin than the command line"),
    (_with_unaffected_factorization, "plan factorization for nowhere: not an affected node"),
], ids=["other-origin", "unaffected-node"])
def test_rewrite_refuses_a_plan_for_other_nodes(tmp_path, capsys, damage, message):
    """A plan file that names another origin than the command line, or
    gives a factorization for a node the rewrite does not affect, is an
    input error (exit 2) that writes nothing."""
    plan = damage(json.loads((FIXTURES / "strict_plan.plan.json").read_text()))
    code = sqpo.cli.main(_strict_plan_argv(tmp_path, plan))
    path = tmp_path / "plan.json"
    assert (code, capsys.readouterr().err) == (2, f"error: invalid plan in {path}: {message}\n")
    assert list(tmp_path.iterdir()) == [path]


def test_match_refuses_a_bad_anchor(capsys):
    code = sqpo.cli.main(["match", str(FIXTURES / "merge_add.hierarchy.json"), "G",
                          str(FIXTURES / "merge_add.rule.json"), "--anchor", "x"])
    assert (code, capsys.readouterr()) == (2, ("", "error: bad anchor 'x': expected PATTERN=NODE\n"))


def _rewrite_with_a_failing_rename(tmp_path, monkeypatch, failing_dst, existing: bool):
    """`sqpo rewrite` of merge_add with `-o` and `--report`, which hold
    earlier bytes if `existing`, while renaming anything onto
    `failing_dst` raises EACCES. Returns the exit code and the files in
    tmp_path with their bytes."""
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    if existing:
        out.write_text("earlier hierarchy\n")
        report.write_text("earlier report\n")
    replace = os.replace

    def failing(src, dst):
        if dst == str(failing_dst):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    code = sqpo.cli.main([
        "rewrite", str(FIXTURES / "merge_add.hierarchy.json"), "G", str(FIXTURES / "merge_add.rule.json"),
        "0", "--direction", "fwd", "-o", str(out), "--report", str(report),
    ])
    return code, {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def test_a_failed_rename_leaves_no_staged_file(tmp_path, capsys, monkeypatch):
    """When the report's rename fails after the output's has succeeded, the
    rewrite exits 2 naming the report, and the output, which did not exist
    before, is removed again: no output, no staged `*.tmp` file and no
    `*.bak` backup is left."""
    report = tmp_path / "report.json"
    code, files = _rewrite_with_a_failing_rename(tmp_path, monkeypatch, report, existing=False)
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write {report}: {os.strerror(errno.EACCES)}\n")
    assert files == {}


def test_a_failed_rename_puts_earlier_files_back(tmp_path, capsys, monkeypatch):
    """The same failure over earlier `-o` and `--report` files: the output
    is put back from its backup, so both files keep their bytes, and no
    `*.tmp` or `*.bak` file is left."""
    report = tmp_path / "report.json"
    code, files = _rewrite_with_a_failing_rename(tmp_path, monkeypatch, report, existing=True)
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write {report}: {os.strerror(errno.EACCES)}\n")
    assert files == {"out.json": b"earlier hierarchy\n", "report.json": b"earlier report\n"}


def test_outputs_replace_earlier_files_and_leave_no_backup(tmp_path, capsys, monkeypatch):
    """A run that succeeds over earlier files writes both and removes the
    backups it made of them."""
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    code, files = _rewrite_with_a_failing_rename(tmp_path / "old", monkeypatch, None, existing=True)
    assert code == 0
    assert _rewrite_with_a_failing_rename(tmp_path / "new", monkeypatch, None, existing=False) == (0, files)
    assert sorted(files) == ["out.json", "report.json"]
    capsys.readouterr()


def test_a_failed_backup_fails_before_any_rename(tmp_path, capsys, monkeypatch):
    """If an existing output cannot be hard-linked to a backup, the rewrite
    exits 2 before renaming anything: both earlier files keep their bytes
    and nothing staged is left."""
    link = os.link

    def failing(src, dst, **kwargs):
        if src.endswith("report.json"):
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))
        return link(src, dst, **kwargs)

    monkeypatch.setattr(os, "link", failing)
    code, files = _rewrite_with_a_failing_rename(tmp_path, monkeypatch, None, existing=True)
    report = tmp_path / "report.json"
    assert (code, capsys.readouterr().err) == (2, f"error: cannot write {report}: {os.strerror(errno.EPERM)}\n")
    assert files == {"out.json": b"earlier hierarchy\n", "report.json": b"earlier report\n"}
