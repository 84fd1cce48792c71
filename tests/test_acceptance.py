"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line on the real stdout (visible with or without capture)."""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sqpo import (
    BACKWARD,
    FORWARD,
    EXPANSIVE,
    Graph,
    Hierarchy,
    Homomorphism,
    RESTRICTIVE,
    RewritingError,
    build_relation_plan,
    check_composability,
    compose,
    derive_backward_factorization,
    derive_forward_factorization,
    final_pbc,
    find_matches,
    hierarchy_from_json,
    identity,
    image_factorization,
    is_mono,
    propagate_backward,
    propagate_forward,
    pullback,
    pushout,
    rule_from_json,
)
from sqpo.isomorphism import find_isomorphism

from generators import (
    random_backward_plan,
    random_forward_plan,
    random_graph,
    random_hierarchy,
    random_hom_from,
    random_hom_into,
    random_mono_into,
)
from paper_oracles import (
    OracleConfig,
    backward_canonical,
    backward_strict,
    forward_canonical,
    forward_strict,
    lift_rule,
    project_rule,
    verify_final_pbc_up,
    verify_image_up,
    verify_pullback_up,
    verify_pushout_up,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def _report(criterion: str, ok: bool) -> None:
    import conftest

    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def _criterion(name):
    """Print the PASS/FAIL line even when the body throws."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            _report(name, exc_type is None)
            return False

    return _Ctx()


def test_criterion_1_universal_property_oracles():
    with _criterion("1 universal-property oracles"):
        rng = random.Random(20260808)
        config = OracleConfig(node_bound=4)
        started = time.monotonic()
        for _ in range(200):
            c = random_graph(rng, max_nodes=5, min_nodes=1)
            f = random_hom_into(rng, c, max_nodes=5, prefix="a")
            g = random_hom_into(rng, c, max_nodes=5, prefix="b")
            assert verify_pullback_up(pullback(f, g), f, g, config)
        for _ in range(200):
            a = random_graph(rng, max_nodes=5)
            f = random_hom_from(rng, a, prefix="b")
            g = random_hom_from(rng, a, prefix="c")
            assert verify_pushout_up(pushout(f, g), f, g, config)
        for _ in range(200):
            mid = random_graph(rng, max_nodes=5, prefix="l")
            f = random_hom_into(rng, mid, max_nodes=5, prefix="k")
            m = random_hom_from(rng, mid, prefix="g", injective=True)
            assert verify_final_pbc_up(final_pbc(f, m), f, m, config)
        for _ in range(200):
            target = random_graph(rng, max_nodes=5, min_nodes=1)
            f = random_hom_into(rng, target, max_nodes=5)
            assert verify_image_up(image_factorization(f), f, config)
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"


def _load(path):
    return hierarchy_from_json(json.loads(path.read_text()))


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sqpo.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def test_criterion_2_forward_golden_example(tmp_path):
    with _criterion("2 forward golden example"):
        h = _load(FIXTURES / "merge_add.hierarchy.json")
        rule = rule_from_json(json.loads((FIXTURES / "merge_add.rule.json").read_text()))
        g, t = h.graph("G"), h.graph("T")
        typing = h.typing("G", "T")
        match = find_matches(rule, g, EXPANSIVE)[0].instance

        strict = forward_strict(
            g, t, typing, identity(rule.interface), match, compose(typing, match)
        )
        canon = forward_canonical(
            strict.graph, t, strict.typing, rule.right_leg, strict.instance
        )
        assert len(canon.typing_graph.nodes) == 3  # merged circle + 2 squares
        assert len(canon.graph.nodes) == 5

        # committed golden bytes (clean-up merge yields two types)
        out = tmp_path / "out.json"
        report = tmp_path / "report.json"
        proc = _run_cli(
            "rewrite", FIXTURES / "merge_add.hierarchy.json", "G",
            FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
            "--relation", FIXTURES / "merge_add.relation.json",
            "-o", out, "--report", report,
        )
        assert proc.returncode == 0
        assert out.read_bytes() == (GOLDEN / "merge_add.out.json").read_bytes()
        final = _load(out)
        assert len(final.graph("T").nodes) == 2
        assert len(final.graph("G").nodes) == 5

        # strict variant + clean-up vs both-strict direct route
        variant_out = tmp_path / "variant.json"
        proc = _run_cli(
            "rewrite", FIXTURES / "merge_add_variant.hierarchy.json", "G",
            FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
            "--relation", FIXTURES / "merge_add_variant.relation.json",
            "-o", variant_out, "--report", tmp_path / "vr.json",
        )
        assert proc.returncode == 0
        assert variant_out.read_bytes() == (GOLDEN / "merge_add_variant.out.json").read_bytes()
        direct_out = tmp_path / "direct.json"
        proc = _run_cli(
            "rewrite", FIXTURES / "merge_add_variant.hierarchy.json", "G",
            FIXTURES / "merge_add.rule.json", "0", "--direction", "fwd",
            "--relation", FIXTURES / "merge_add_direct.relation.json",
            "-o", direct_out, "--report", tmp_path / "dr.json",
        )
        assert proc.returncode == 0
        variant_h, direct_h = _load(variant_out), _load(direct_out)
        assert (
            find_isomorphism(variant_h.graph("T"), direct_h.graph("T")) is not None
        )
        assert (
            find_isomorphism(variant_h.graph("G"), direct_h.graph("G")) is not None
        )


def test_criterion_3_backward_golden_example(tmp_path):
    with _criterion("3 backward golden example"):
        h = _load(FIXTURES / "clone_delete.hierarchy.json")
        rule = rule_from_json(json.loads((FIXTURES / "clone_delete.rule.json").read_text()))
        g, t = h.graph("G"), h.graph("T")
        typing = h.typing("G", "T")
        match = find_matches(rule, t, RESTRICTIVE)[0].instance
        fact, doomed = derive_backward_factorization(
            rule.left_leg, match, g, typing, {"q1": "sq_w", "q2": "sq_b"}
        )
        assert doomed == []
        strict = backward_strict(t, match, fact.post_arrow, fact.retyping, g, typing)
        assert len(strict.graph.nodes) == 3  # circle + two square refinements
        assert len({strict.typing["q1"], strict.typing["q2"]}) == 2
        canon = backward_canonical(
            strict.graph, strict.typing, fact.pre_arrow, strict.instance
        )
        assert len(canon.graph.nodes) == 2  # circles deleted

        out = tmp_path / "out.json"
        proc = _run_cli(
            "rewrite", FIXTURES / "clone_delete.hierarchy.json", "T",
            FIXTURES / "clone_delete.rule.json", "0", "--direction", "bwd",
            "--relation", FIXTURES / "clone_delete.relation.json",
            "-o", out, "--report", tmp_path / "r.json",
        )
        assert proc.returncode == 0
        assert out.read_bytes() == (GOLDEN / "clone_delete.out.json").read_bytes()

        # partial refinement with clean-up: golden comparison plus agreement
        # with the explicit two-phase clean-up route
        partial_out = tmp_path / "partial.json"
        proc = _run_cli(
            "rewrite", FIXTURES / "clone_delete_partial.hierarchy.json", "T",
            FIXTURES / "clone_delete.rule.json", "0", "--direction", "bwd",
            "--relation", FIXTURES / "clone_delete.relation.json",
            "-o", partial_out, "--report", tmp_path / "pr.json",
        )
        assert proc.returncode == 0
        assert partial_out.read_bytes() == (GOLDEN / "clone_delete_partial.out.json").read_bytes()
        partial_h = _load(partial_out)
        assert len(partial_h.graph("G").nodes) == 4  # q1, q2 refined; q3 twice

        h3 = _load(FIXTURES / "clone_delete_partial.hierarchy.json")
        g3, typing3 = h3.graph("G"), h3.typing("G", "T")
        fact3, doomed3 = derive_backward_factorization(
            rule.left_leg, match, g3, typing3, {"q1": "sq_w", "q2": "sq_b"}
        )
        assert len(doomed3) == 2
        strict3 = backward_strict(t, match, fact3.post_arrow, fact3.retyping, g3, typing3)
        canon3 = backward_canonical(
            strict3.graph, strict3.typing, fact3.pre_arrow, strict3.instance
        )
        lifted3 = lift_rule(
            fact3.retyping, fact3.pre_arrow, strict3.restriction.instance,
            t_minus=canon3, h_prime=strict3.typing,
        )
        from paper_oracles import backward_cleanup
        from reference_kernels import induced_subgraph

        keep = sorted(set(lifted3.pattern.nodes) - set(doomed3))
        selection = induced_subgraph(lifted3.pattern, keep)
        cleanup = backward_cleanup(
            lifted3.graph,
            lifted3.instance,
            Homomorphism(selection, lifted3.pattern, {n: n for n in keep}),
            h_minus=lifted3.typing,
        )
        assert cleanup.graph == partial_h.graph("G")


def test_criterion_4_equivalence_theorems():
    with _criterion("4 equivalence theorems"):
        rng = random.Random(44)

        # (a) direct vs projection-route typing-object update
        done = 0
        while done < 100:
            t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
            typing = random_hom_into(rng, t, max_nodes=5, prefix="g")
            g = typing.source
            m = random_mono_into(rng, g)
            rule = random_hom_from(rng, m.source, prefix="r", p_merge=0.0)
            fact, _ = derive_forward_factorization(rule, compose(typing, m), {})
            strict = forward_strict(g, t, typing, fact.pre_arrow, m, fact.typing)
            canon = forward_canonical(
                strict.graph, t, strict.typing, fact.post_arrow, strict.instance
            )
            proj = project_rule(fact.post_arrow, compose(strict.typing, strict.instance))
            via = pushout(proj.instance, proj.projected)
            anchor = {canon.typing_trace[n]: via.from_b[n] for n in t.nodes}
            iso = find_isomorphism(canon.typing_graph, via.apex, anchor=anchor)
            assert iso is not None
            # retyping of the rewritten object agrees through the iso
            via_retype = {
                n: iso[canon.typing[n]] for n in canon.graph.nodes
            }
            assert all(v in via.apex.nodes for v in via_retype.values())
            done += 1

        # (b) direct vs lifting-route source update
        done = 0
        while done < 100:
            t = random_graph(rng, max_nodes=4, min_nodes=1, prefix="t")
            typing = random_hom_into(rng, t, max_nodes=5, prefix="g")
            g = typing.source
            m = random_mono_into(rng, t)
            rule = random_hom_into(rng, m.source, max_nodes=4, prefix="k")
            fact, _ = derive_backward_factorization(rule, m, g, typing, {})
            strict = backward_strict(t, m, fact.post_arrow, fact.retyping, g, typing)
            canon = backward_canonical(
                strict.graph, strict.typing, fact.pre_arrow, strict.instance
            )
            lifted = lift_rule(
                fact.retyping, fact.pre_arrow, strict.restriction.instance,
                t_minus=canon, h_prime=strict.typing,
            )
            assert find_isomorphism(
                lifted.graph, canon.graph, typing1=lifted.typing, typing2=canon.typing
            ) is not None
            done += 1

        # (c) phased rewrite equals direct rewrite, both directions
        for _ in range(50):
            a = random_graph(rng, max_nodes=4)
            m = random_hom_from(rng, a, prefix="g", injective=True)
            r1 = random_hom_from(rng, a, prefix="m")
            r2 = random_hom_from(rng, r1.target, prefix="p")
            first = pushout(m, r1)
            second = pushout(first.from_c, r2)
            direct = pushout(m, compose(r2, r1))
            pasted = compose(second.from_b, first.from_b)
            anchor = {pasted[n]: direct.from_b[n] for n in m.target.nodes}
            for c in r2.target.nodes:
                want = direct.from_c[c]
                assert anchor.setdefault(second.from_c[c], want) == want
            assert find_isomorphism(second.apex, direct.apex, anchor=anchor) is not None
        for _ in range(50):
            mid = random_graph(rng, max_nodes=4, prefix="l")
            r_prime = random_hom_into(rng, mid, max_nodes=4, prefix="w")
            r_minus = random_hom_into(rng, r_prime.source, max_nodes=4, prefix="k")
            m = random_hom_from(rng, mid, prefix="g", injective=True)
            first = final_pbc(r_prime, m)
            second = final_pbc(r_minus, first.embed)
            direct = final_pbc(compose(r_prime, r_minus), m)
            assert find_isomorphism(
                second.apex,
                direct.apex,
                typing1=compose(first.project, second.project),
                typing2=direct.project,
            ) is not None


def test_criterion_5_hierarchy_validity_preservation():
    with _criterion("5 hierarchy validity preservation"):
        rng = random.Random(55)
        diamonds_seen = 0
        runs = 0
        while runs < 100:
            h = random_hierarchy(rng, max_objects=6, max_edges=8)
            paths = _count_parallel_paths(h)
            if paths:
                diamonds_seen += 1
            origin = rng.choice(h.nodes())
            forward = rng.random() < 0.5
            if forward:
                plan = random_forward_plan(rng, h, origin)
                assert check_composability(h, plan) == []
                rep = propagate_forward(h, plan)
            else:
                plan = random_backward_plan(rng, h, origin)
                assert check_composability(h, plan) == []
                rep = propagate_backward(h, plan)
            assert all(not v for _, v in rep.steps), rep.steps
            assert rep.hierarchy.validate_commutativity() == []
            runs += 1
        assert diamonds_seen > 0  # corpus includes multi-path shapes

        # the worked examples reproduce their orderings and results exactly
        empty = Graph()
        n1, n2 = Graph(["w"]), Graph(["b"])
        h = (
            Hierarchy()
            .add_object("n0", empty).add_object("n1", n1).add_object("n2", n2)
            .add_typing("n0", "n1", Homomorphism(empty, n1, {}))
            .add_typing("n0", "n2", Homomorphism(empty, n2, {}))
        )
        plan = build_relation_plan(
            h, "n0", Homomorphism(empty, Graph(["w", "b"]), {}),
            Homomorphism(empty, empty, {}), FORWARD,
            {"n1": {"w": "w"}, "n2": {"b": "b"}},
        )
        rep = propagate_forward(h, plan)
        assert rep.waves == [["n1", "n2"], ["n0"]]
        assert all(rep.hierarchy.graph(n).nodes == {"w", "b"} for n in ("n0", "n1", "n2"))

        k0, k1, k2 = Graph(["a", "b"]), Graph(["a1", "b1"]), Graph(["a2", "b2"])
        hh = (
            Hierarchy()
            .add_object("k0", k0).add_object("k1", k1).add_object("k2", k2)
            .add_typing("k1", "k0", Homomorphism(k1, k0, {"a1": "a", "b1": "b"}))
            .add_typing("k2", "k0", Homomorphism(k2, k0, {"a2": "a", "b2": "b"}))
        )
        iface = Graph(["aw", "ab", "bw", "bb"])
        plan2 = build_relation_plan(
            hh, "k0",
            Homomorphism(iface, k0, {"aw": "a", "ab": "a", "bw": "b", "bb": "b"}),
            identity(k0), BACKWARD,
            {"k1": {"b1": "bw"}, "k2": {"a2": "aw"}},
        )
        rep2 = propagate_backward(hh, plan2)
        assert rep2.waves == [["k1", "k2"], ["k0"]]
        assert len(rep2.hierarchy.graph("k0").nodes) == 4
        assert len(rep2.hierarchy.graph("k1").nodes) == 3
        assert len(rep2.hierarchy.graph("k2").nodes) == 3


def _count_parallel_paths(h: Hierarchy) -> int:
    """Number of ordered node pairs joined by at least two distinct paths."""

    def walk(node):
        counts: dict[str, int] = {}
        for b in h.successors(node):
            counts[b] = counts.get(b, 0) + 1
            for c, k in walk(b).items():
                counts[c] = counts.get(c, 0) + k
        return counts

    return sum(
        1 for a in h.nodes() for k in walk(a).values() if k >= 2
    )


def test_criterion_6_composability_detection():
    with _criterion("6 composability detection"):
        h = hierarchy_from_json(json.loads((FIXTURES / "chain.hierarchy.json").read_text()))
        rule = rule_from_json(json.loads((FIXTURES / "chain.rule.json").read_text()))
        g0 = h.graph("g0")
        plan = build_relation_plan(
            h, "g0", rule.right_leg, Homomorphism(rule.interface, g0, {}),
            FORWARD, {"g1": {"a": "t"}},
        )
        violations = check_composability(h, plan)
        assert len(violations) == 1
        assert "g1->g2" in violations[0]
        with pytest.raises(RewritingError):
            propagate_forward(h, plan)
        # consistent random plans are never falsely rejected
        rng = random.Random(66)
        for _ in range(30):
            hier = random_hierarchy(rng)
            origin = rng.choice(hier.nodes())
            plan = random_forward_plan(rng, hier, origin)
            assert check_composability(hier, plan) == []


def test_criterion_7_cli_determinism(tmp_path):
    with _criterion("7 CLI determinism"):
        corpus = [
            ("validate", FIXTURES / "merge_add.hierarchy.json"),
            ("validate", FIXTURES / "broken_diamond.hierarchy.json"),
            ("match", FIXTURES / "merge_add.hierarchy.json", "G",
             FIXTURES / "merge_add.rule.json", "--kind", "expansive"),
        ]
        rewrites = [
            ("merge_add.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add.relation.json"),
            ("merge_add_variant.hierarchy.json", "G", "merge_add.rule.json", "fwd", "merge_add_variant.relation.json"),
            ("clone_delete.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
            ("clone_delete_partial.hierarchy.json", "T", "clone_delete.rule.json", "bwd", "clone_delete.relation.json"),
            ("set_example.hierarchy.json", "n0", "set_example.rule.json", "fwd", "set_example.relation.json"),
            ("diamond.hierarchy.json", "k0", "diamond.rule.json", "bwd", "diamond.relation.json"),
        ]
        snapshots = []
        for attempt in range(2):
            blob = []
            for cmd in corpus:
                proc = _run_cli(*cmd)
                blob.append((proc.returncode, proc.stdout))
            for hier, node, rule, direction, relation in rewrites:
                out = tmp_path / f"{attempt}_{hier}.out"
                report = tmp_path / f"{attempt}_{hier}.report"
                proc = _run_cli(
                    "rewrite", FIXTURES / hier, node, FIXTURES / rule, "0",
                    "--direction", direction, "--relation", FIXTURES / relation,
                    "-o", out, "--report", report,
                )
                assert proc.returncode == 0
                blob.append((out.read_bytes(), report.read_bytes()))
            snapshots.append(blob)
        assert snapshots[0] == snapshots[1]
