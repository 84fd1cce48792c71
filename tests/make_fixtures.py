"""Regenerate the committed fixture corpus (inputs and golden outputs).

Run from the repository root:  python tests/make_fixtures.py

`python tests/make_fixtures.py --goldens-into DIR` writes only the golden
outputs, from the committed inputs, into DIR, so that they can be compared
byte for byte with tests/fixtures/golden without rewriting it.

Inputs are written from first principles; golden outputs are produced by
driving the CLI on them, after the suite's structural assertions have
pinned their content."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from sqpo import Graph, Hierarchy, Homomorphism, Rule, identity
from sqpo.graphs import dumps_canonical, graph_to_json
from sqpo.hierarchy import hierarchy_to_json
from sqpo.rules import rule_to_json

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden"


def write(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_canonical(obj), encoding="utf-8")


def merge_add_inputs():
    t = Graph(
        ["w", "b"],
        node_attrs={"w": {"colour": ["white"]}, "b": {"colour": ["black"]}},
    )
    g = Graph(
        ["w1", "w2", "b1", "b2"],
        node_attrs={
            "w1": {"colour": ["white"]},
            "w2": {"colour": ["white"]},
            "b1": {"colour": ["black"]},
            "b2": {"colour": ["black"]},
        },
    )
    h = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t)
        .add_typing("G", "T", Homomorphism(g, t, {"w1": "w", "w2": "w", "b1": "b", "b2": "b"}))
    )
    lhs = Graph(
        ["cw", "cb"],
        node_attrs={"cw": {"colour": ["white"]}, "cb": {"colour": ["black"]}},
    )
    rhs = Graph(["cwb", "s1", "s2"], node_attrs={"cwb": {"colour": ["white", "black"]}})
    rule = Rule(lhs, lhs, rhs, identity(lhs), Homomorphism(lhs, rhs, {"cw": "cwb", "cb": "cwb"}))
    write(FIXTURES / "merge_add.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "merge_add.rule.json", rule_to_json(rule))
    write(FIXTURES / "merge_add.relation.json", {"T": {"s2": "s1"}})

    # variant: a square type already exists in T
    t_var = Graph(
        ["w", "b", "sq"],
        node_attrs={"w": {"colour": ["white"]}, "b": {"colour": ["black"]}},
    )
    h_var = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t_var)
        .add_typing("G", "T", Homomorphism(g, t_var, {"w1": "w", "w2": "w", "b1": "b", "b2": "b"}))
    )
    write(FIXTURES / "merge_add_variant.hierarchy.json", hierarchy_to_json(h_var))
    write(FIXTURES / "merge_add_variant.relation.json", {"T": {"s1": "sq", "s2": "s1"}})
    write(FIXTURES / "merge_add_direct.relation.json", {"T": {"s1": "sq", "s2": "sq"}})


def clone_delete_inputs():
    t = Graph(
        ["circ", "sq"],
        node_attrs={"circ": {"shape": ["circle"]}, "sq": {"shape": ["square"]}},
    )

    def instance_graph(names):
        return Graph(
            names,
            node_attrs={
                n: {"shape": ["circle" if n.startswith("c") else "square"]}
                for n in names
            },
        )

    def typing(g):
        return Homomorphism(
            g, t, {n: ("circ" if n.startswith("c") else "sq") for n in g.nodes}
        )

    g = instance_graph(["c1", "c2", "q1", "q2"])
    h = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t)
        .add_typing("G", "T", typing(g))
    )
    lhs = Graph(
        ["circ", "sq"],
        node_attrs={"circ": {"shape": ["circle"]}, "sq": {"shape": ["square"]}},
    )
    iface = Graph(
        ["sq_w", "sq_b"],
        node_attrs={"sq_w": {"shape": ["square"]}, "sq_b": {"shape": ["square"]}},
    )
    rule = Rule(
        lhs,
        iface,
        iface,
        Homomorphism(iface, lhs, {"sq_w": "sq", "sq_b": "sq"}),
        identity(iface),
    )
    write(FIXTURES / "clone_delete.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "clone_delete.rule.json", rule_to_json(rule))
    write(FIXTURES / "clone_delete.relation.json", {"G": {"q1": "sq_w", "q2": "sq_b"}})

    g3 = instance_graph(["c1", "c2", "q1", "q2", "q3"])
    h3 = (
        Hierarchy()
        .add_object("G", g3)
        .add_object("T", t)
        .add_typing("G", "T", typing(g3))
    )
    write(FIXTURES / "clone_delete_partial.hierarchy.json", hierarchy_to_json(h3))


def set_example_inputs():
    empty = Graph()
    n1, n2 = Graph(["w"]), Graph(["b"])
    h = (
        Hierarchy()
        .add_object("n0", empty)
        .add_object("n1", n1)
        .add_object("n2", n2)
        .add_typing("n0", "n1", Homomorphism(empty, n1, {}))
        .add_typing("n0", "n2", Homomorphism(empty, n2, {}))
    )
    rhs = Graph(["w", "b"])
    rule = Rule(empty, empty, rhs, identity(empty), Homomorphism(empty, rhs, {}))
    write(FIXTURES / "set_example.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "set_example.rule.json", rule_to_json(rule))
    write(FIXTURES / "set_example.relation.json", {"n1": {"w": "w"}, "n2": {"b": "b"}})


def diamond_inputs():
    k0 = Graph(["a", "b"])
    k1 = Graph(["a1", "b1"])
    k2 = Graph(["a2", "b2"])
    h = (
        Hierarchy()
        .add_object("k0", k0)
        .add_object("k1", k1)
        .add_object("k2", k2)
        .add_typing("k1", "k0", Homomorphism(k1, k0, {"a1": "a", "b1": "b"}))
        .add_typing("k2", "k0", Homomorphism(k2, k0, {"a2": "a", "b2": "b"}))
    )
    iface = Graph(["aw", "ab", "bw", "bb"])
    rule = Rule(
        k0,
        iface,
        iface,
        Homomorphism(iface, k0, {"aw": "a", "ab": "a", "bw": "b", "bb": "b"}),
        identity(iface),
    )
    write(FIXTURES / "diamond.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "diamond.rule.json", rule_to_json(rule))
    write(FIXTURES / "diamond.relation.json", {"k1": {"b1": "bw"}, "k2": {"a2": "aw"}})


def plan_inputs():
    g = Graph(["i"])
    t = Graph(["t1", "t2"])
    h = (
        Hierarchy()
        .add_object("G", g)
        .add_object("T", t)
        .add_typing("G", "T", Homomorphism(g, t, {"i": "t1"}))
    )
    lhs = Graph(["p"])
    rhs = Graph(["p", "a"])
    rule = Rule(lhs, lhs, rhs, identity(lhs), Homomorphism(lhs, rhs, {"p": "p"}))
    write(FIXTURES / "strict_plan.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "strict_plan.rule.json", rule_to_json(rule))
    write(
        FIXTURES / "strict_plan.plan.json",
        {
            "factorizations": {
                "T": {
                    "mid": graph_to_json(rhs),
                    "pre": {"p": "p"},
                    "post": {"p": "p", "a": "a"},
                    "typing_or_retyping": {"p": "t1", "a": "t2"},
                }
            }
        },
    )
    # plan file carrying only a relation: equivalent to --relation
    write(FIXTURES / "merge_add.plan.json", {"relation": {"T": {"s2": "s1"}}})


def invalid_inputs():
    # diamond with deliberately unequal composites: built raw, bypassing
    # the constructor checks
    graphs = {
        "a": graph_to_json(Graph(["x", "y"])),
        "b": graph_to_json(Graph(["bx", "by"])),
        "c": graph_to_json(Graph(["cx", "cy"])),
        "d": graph_to_json(Graph(["dx", "dy"])),
    }
    typings = [
        {"from": "a", "to": "b", "map": {"x": "bx", "y": "by"}},
        {"from": "a", "to": "c", "map": {"x": "cx", "y": "cy"}},
        {"from": "b", "to": "d", "map": {"bx": "dx", "by": "dy"}},
        {"from": "c", "to": "d", "map": {"cx": "dy", "cy": "dx"}},
    ]
    write(FIXTURES / "broken_diamond.hierarchy.json", {"graphs": graphs, "typings": typings})

    # chain whose relation-derived plan is not composable
    g0, g1, g2 = Graph(), Graph(["t"]), Graph(["t"])
    h = (
        Hierarchy()
        .add_object("g0", g0)
        .add_object("g1", g1)
        .add_object("g2", g2)
        .add_typing("g0", "g1", Homomorphism(g0, g1, {}))
        .add_typing("g1", "g2", Homomorphism(g1, g2, {"t": "t"}))
    )
    rhs = Graph(["a"])
    rule = Rule(g0, g0, rhs, identity(g0), Homomorphism(g0, rhs, {}))
    write(FIXTURES / "chain.hierarchy.json", hierarchy_to_json(h))
    write(FIXTURES / "chain.rule.json", rule_to_json(rule))
    write(FIXTURES / "chain.relation.json", {"g1": {"a": "t"}})


def run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sqpo.cli", *args],
        capture_output=True,
        text=True,
        cwd=HERE.parent,
    )


# name, hierarchy, origin, rule, match index, direction, relation
REWRITE_JOBS = [
    ("merge_add", "merge_add.hierarchy.json", "G", "merge_add.rule.json", "0", "fwd", "merge_add.relation.json"),
    ("merge_add_variant", "merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "0", "fwd", "merge_add_variant.relation.json"),
    ("merge_add_direct", "merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "0", "fwd", "merge_add_direct.relation.json"),
    ("clone_delete", "clone_delete.hierarchy.json", "T", "clone_delete.rule.json", "0", "bwd", "clone_delete.relation.json"),
    ("clone_delete_partial", "clone_delete_partial.hierarchy.json", "T", "clone_delete.rule.json", "0", "bwd", "clone_delete.relation.json"),
    ("set_example", "set_example.hierarchy.json", "n0", "set_example.rule.json", "0", "fwd", "set_example.relation.json"),
    ("diamond", "diamond.hierarchy.json", "k0", "diamond.rule.json", "0", "bwd", "diamond.relation.json"),
]


def goldens(into: Path = GOLDEN) -> None:
    """Drive the CLI on the committed inputs and write the golden outputs
    into `into`: each rewrite job's hierarchy and report, and the matches
    of merge_add."""
    into.mkdir(parents=True, exist_ok=True)
    for name, hier, node, rule, idx, direction, relation in REWRITE_JOBS:
        out = into / f"{name}.out.json"
        report = into / f"{name}.report.json"
        proc = run_cli(
            "rewrite",
            str(FIXTURES / hier),
            node,
            str(FIXTURES / rule),
            idx,
            "--direction",
            direction,
            "--relation",
            str(FIXTURES / relation),
            "-o",
            str(out),
            "--report",
            str(report),
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name}: rewrite failed\n{proc.stderr}")
    match = run_cli(
        "match",
        str(FIXTURES / "merge_add.hierarchy.json"),
        "G",
        str(FIXTURES / "merge_add.rule.json"),
        "--kind",
        "expansive",
    )
    if match.returncode != 0:
        raise SystemExit(f"match failed\n{match.stderr}")
    (into / "merge_add.matches.json").write_text(match.stdout, encoding="utf-8")


def main():
    if sys.argv[1:2] == ["--goldens-into"]:  # the committed inputs stay as they are
        goldens(Path(sys.argv[2]).resolve())
        return
    if FIXTURES.exists():
        shutil.rmtree(FIXTURES)
    merge_add_inputs()
    clone_delete_inputs()
    set_example_inputs()
    diamond_inputs()
    plan_inputs()
    invalid_inputs()
    goldens()
    print(f"fixtures written to {FIXTURES}")


if __name__ == "__main__":
    main()
