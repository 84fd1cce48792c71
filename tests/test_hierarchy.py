import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sqpo

from sqpo import (
    Graph,
    Hierarchy,
    HierarchyError,
    Homomorphism,
    Skeleton,
    compose,
    hierarchy_from_json,
    hierarchy_to_json,
    hom_equal,
    identity,
)
from sqpo.graphs import dumps_canonical
from sqpo.hierarchy import _acyclic, _waves

from generators import random_hierarchy


def _two_object():
    t = Graph(["circ", "sq"])
    g = Graph(["c1", "q1"])
    h = Hierarchy().add_object("G", g).add_object("T", t)
    return h.add_typing("G", "T", Homomorphism(g, t, {"c1": "circ", "q1": "sq"}))


def test_two_object_hierarchy_valid():
    h = _two_object()
    assert h.validate_commutativity() == []
    assert h.validate() == []


def test_maps_out_of_empty_graph():
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
    assert h.validate_commutativity() == []
    sub = h.forward_subgraph("n0")
    assert sub.nodes() == ["n0", "n1", "n2"]


def _diamond(broken: bool):
    a = Graph(["x", "y"])
    b = Graph(["bx", "by"])
    c = Graph(["cx", "cy"])
    d = Graph(["dx", "dy"])
    h = (
        Hierarchy()
        .add_object("a", a)
        .add_object("b", b)
        .add_object("c", c)
        .add_object("d", d)
        .add_typing("a", "b", Homomorphism(a, b, {"x": "bx", "y": "by"}))
        .add_typing("a", "c", Homomorphism(a, c, {"x": "cx", "y": "cy"}))
        .add_typing("b", "d", Homomorphism(b, d, {"bx": "dx", "by": "dy"}))
    )
    last = {"cx": "dy", "cy": "dx"} if broken else {"cx": "dx", "cy": "dy"}
    return h, Homomorphism(c, d, last)


def test_valid_diamond_commutes():
    h, last = _diamond(broken=False)
    h = h.add_typing("c", "d", last)
    assert h.validate_commutativity() == []
    # both legs agree with the composed typing
    via_b = compose(h.typing("b", "d"), h.typing("a", "b"))
    assert hom_equal(h.composed_typing("a", "d"), via_b)


def test_broken_diamond_rejected_and_reported():
    h, last = _diamond(broken=True)
    with pytest.raises(HierarchyError):
        h.add_typing("c", "d", last)
    forced = h.replace(arrows={("c", "d"): last})
    violations = forced.validate_commutativity()
    assert len(violations) == 1
    v = violations[0]
    assert (v.source, v.target) == ("a", "d")
    assert v.witness in {"x", "y"}
    assert str(v).startswith("PAIR a d: ")


def test_add_typing_rejects_cycles_and_bad_homs():
    g1, g2 = Graph(["u"]), Graph(["v"])
    h = Hierarchy().add_object("1", g1).add_object("2", g2)
    h = h.add_typing("1", "2", Homomorphism(g1, g2, {"u": "v"}))
    with pytest.raises(HierarchyError):
        h.add_typing("2", "1", Homomorphism(g2, g1, {"v": "u"}))
    with pytest.raises(HierarchyError):
        h.add_typing("1", "2", Homomorphism(g1, g2, {"u": "v"}))  # duplicate
    fresh = Hierarchy().add_object("1", g1).add_object("2", g2)
    with pytest.raises(HierarchyError):
        fresh.add_typing("1", "2", Homomorphism(g1, g2, {"u": "zz"}))
    with pytest.raises(HierarchyError, match="cycle"):
        h.add_typing("1", "1", identity(g1))
    g3 = Graph(["w"])
    h = h.add_object("3", g3).add_typing("2", "3", Homomorphism(g2, g3, {"v": "w"}))
    with pytest.raises(HierarchyError, match="cycle"):
        h.add_typing("3", "1", Homomorphism(g3, g1, {"w": "u"}))


def test_tree_hierarchies_always_commute():
    rng = random.Random(9)
    for _ in range(20):
        h = random_hierarchy(rng)
        assert h.validate_commutativity() == []


def test_forward_backward_subgraphs_on_chain():
    g = Graph(["n"])
    h = Hierarchy()
    for name in ("N", "A", "M"):
        h = h.add_object(name, g)
    h = h.add_typing("N", "A", identity(g)).add_typing("A", "M", identity(g))
    fwd = h.forward_subgraph("A")
    assert fwd.nodes() == ["A", "M"] and fwd.edges() == [("A", "M")]
    bwd = h.backward_subgraph("A")
    assert bwd.nodes() == ["A", "N"] and bwd.edges() == [("N", "A")]
    whole = h.forward_subgraph("N")
    assert whole.nodes() == ["A", "M", "N"]


def _is_unique_source(sub: Hierarchy, s: str) -> bool:
    sources = [n for n in sub.nodes() if not sub.predecessors(n)]
    return sources == [s]


def _is_unique_sink(sub: Hierarchy, s: str) -> bool:
    sinks = [n for n in sub.nodes() if not sub.successors(n)]
    return sinks == [s]


def test_subgraph_unique_source_sink_and_maximality():
    rng = random.Random(13)
    for _ in range(25):
        h = random_hierarchy(rng)
        for s in h.nodes():
            fwd = h.forward_subgraph(s)
            assert _is_unique_source(fwd, s)
            bwd = h.backward_subgraph(s)
            assert _is_unique_sink(bwd, s)
            # maximality: any adjacent excluded node would add a second
            # source (resp. sink)
            for n in h.nodes():
                if n in set(fwd.nodes()):
                    continue
                if any(a in set(fwd.nodes()) for a in h.successors(n)):
                    bigger = h._induced(set(fwd.nodes()) | {n})
                    assert not _is_unique_source(bigger, s)
            for n in h.nodes():
                if n in set(bwd.nodes()):
                    continue
                if any(a in set(bwd.nodes()) for a in h.predecessors(n)):
                    bigger = h._induced(set(bwd.nodes()) | {n})
                    assert not _is_unique_sink(bigger, s)


def test_composed_typing_identity_and_chain():
    g = Graph(["n", "m"], [("n", "m")])
    h = Hierarchy().add_object("N", g).add_object("A", g).add_object("M", g)
    h = h.add_typing("N", "A", identity(g)).add_typing("A", "M", identity(g))
    assert hom_equal(h.composed_typing("N", "N"), identity(g))
    composite = h.composed_typing("N", "M")
    assert hom_equal(composite, identity(g))
    with pytest.raises(HierarchyError):
        h.composed_typing("M", "N")


def test_composed_typing_functorial():
    rng = random.Random(17)
    for _ in range(15):
        h = random_hierarchy(rng)
        nodes = h.nodes()
        for a in nodes:
            for b in h.successors(a):
                for c in h.successors(b):
                    left = h.composed_typing(a, c)
                    right = compose(h.composed_typing(b, c), h.composed_typing(a, b))
                    assert hom_equal(left, right)


def test_skeleton_constrains_shape():
    sk = Skeleton.create(["data", "schema"], [("data", "schema")])
    g, t = Graph(["x"]), Graph(["y"])
    h = Hierarchy(skeleton=sk)
    h = h.add_object("G", g, kind="data").add_object("T", t, kind="schema")
    h = h.add_typing("G", "T", Homomorphism(g, t, {"x": "y"}))
    assert h.validate() == []
    h2 = Hierarchy(skeleton=sk).add_object("G", g, kind="schema").add_object(
        "T", t, kind="data"
    )
    with pytest.raises(HierarchyError):
        h2.add_typing("G", "T", Homomorphism(g, t, {"x": "y"}))
    with pytest.raises(HierarchyError):
        Hierarchy(skeleton=sk).add_object("G", g)  # kind required


def test_skeleton_add_typing_names_an_unassigned_endpoint():
    """A skeleton hierarchy built by the constructor, or loaded unvalidated,
    may hold an object with no kind: add_typing refuses an arrow at it with
    the message validate() gives, not a bare KeyError."""
    sk = Skeleton.create(["data", "schema"], [("data", "schema")])
    g, t = Graph(["x"]), Graph(["y"])
    h = Hierarchy({"x": g, "y": t}, {}, sk, {"x": "data"})
    message = "node y lacks a skeleton assignment"
    assert h.validate() == [message]
    with pytest.raises(HierarchyError, match=f"^{message}$"):
        h.add_typing("x", "y", Homomorphism(g, t, {"x": "y"}))
    loaded = hierarchy_from_json(hierarchy_to_json(h), validate=False)
    with pytest.raises(HierarchyError, match=f"^{message}$"):
        loaded.add_typing("x", "y", Homomorphism(g, t, {"x": "y"}))
    with pytest.raises(HierarchyError, match="^node y lacks a skeleton assignment$"):
        loaded.add_typing("y", "x", Homomorphism(t, g, {"y": "x"}))


def test_skeleton_must_be_acyclic():
    with pytest.raises(HierarchyError):
        Skeleton.create(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(HierarchyError):
        Skeleton.create(["a", "b"], [("a", "b"), ("b", "b")])


def _chain(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = [f"k{i:05d}" for i in range(n)]
    return names, list(zip(names, names[1:]))


def test_skeleton_on_a_deep_chain():
    """Acyclicity is checked by an iterative peel, so a chain far deeper
    than the interpreter's recursion limit is accepted, and closing it into
    a cycle is rejected."""
    kinds, edges = _chain(20000)
    assert len(Skeleton.create(kinds, edges).edges) == 19999
    with pytest.raises(HierarchyError, match="acyclic"):
        Skeleton.create(kinds, edges + [(kinds[-1], kinds[0])])


def test_waves_on_a_deep_chain():
    names, edges = _chain(5000)
    empty = Graph()
    h = Hierarchy({n: empty for n in names}, {e: identity(empty) for e in edges})
    assert _waves(h.nodes(), h._succ, h._pred) == [[n] for n in reversed(names)]
    assert _waves(h.nodes(), h._pred, h._succ) == [[n] for n in names]
    assert _acyclic(h.nodes(), h._succ, h._pred)


def test_hierarchy_json_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        h = random_hierarchy(rng)
        obj = hierarchy_to_json(h)
        back = hierarchy_from_json(obj)
        assert back == h
        assert dumps_canonical(hierarchy_to_json(back)) == dumps_canonical(obj)


def test_hierarchy_json_with_skeleton():
    sk = Skeleton.create(["d", "s"], [("d", "s")])
    g, t = Graph(["x"]), Graph(["y"])
    h = (
        Hierarchy(skeleton=sk)
        .add_object("G", g, kind="d")
        .add_object("T", t, kind="s")
        .add_typing("G", "T", Homomorphism(g, t, {"x": "y"}))
    )
    back = hierarchy_from_json(hierarchy_to_json(h))
    assert back == h
    assert back.skeleton == sk
    assert back.skeleton_map == {"G": "d", "T": "s"}


def test_hierarchies_differing_only_in_the_skeleton_are_unequal():
    """Equality covers what `hierarchy_to_json` writes: the skeleton and
    each object's assignment, as well as the objects and arrows."""
    sk = Skeleton.create(["X", "Y"], [("X", "Y")])
    g = Graph(["x"])
    plain = Hierarchy().add_object("A", g)
    kinded = Hierarchy({"A": g}, {}, sk, {"A": "X"})
    assert plain != kinded and kinded != plain
    assert dumps_canonical(hierarchy_to_json(plain)) != dumps_canonical(hierarchy_to_json(kinded))
    other = Skeleton.create(["X", "Y"], [])
    assert kinded != Hierarchy({"A": g}, {}, other, {"A": "X"})
    assert kinded == Hierarchy({"A": g}, {}, Skeleton.create(["Y", "X"], [("X", "Y")]), {"A": "X"})


def test_hierarchies_differing_only_in_one_assignment_are_unequal():
    sk = Skeleton.create(["d", "m", "s"], [("d", "s"), ("m", "s")])
    g, t = Graph(["x"]), Graph(["y"])
    typing = {("G", "T"): Homomorphism(g, t, {"x": "y"})}
    one = Hierarchy({"G": g, "T": t}, typing, sk, {"G": "d", "T": "s"})
    assert one == Hierarchy({"G": g, "T": t}, typing, sk, {"G": "d", "T": "s"})
    assert one != Hierarchy({"G": g, "T": t}, typing, sk, {"G": "m", "T": "s"})
    assert one != Hierarchy({"G": g, "T": t}, typing, sk, {"G": "d"})


def test_hierarchy_json_roundtrip_keeps_the_skeleton():
    sk = Skeleton.create(["d", "m", "s"], [("d", "m"), ("m", "s"), ("d", "s")])
    rng = random.Random(31)
    for _ in range(5):
        h = random_hierarchy(rng)
        kinds = dict(zip(h.nodes(), "dms" * len(h.nodes())))
        with_sk = Hierarchy(
            {n: h.graph(n) for n in h.nodes()}, {e: h.typing(*e) for e in h.edges()}, sk, kinds
        )
        obj = hierarchy_to_json(with_sk)
        back = hierarchy_from_json(obj, validate=False)
        assert back == with_sk and back != h
        assert dumps_canonical(hierarchy_to_json(back)) == dumps_canonical(obj)


def test_random_hierarchy_is_reproducible_across_processes():
    """The generator draws the same hierarchies whatever the string hash
    seed, so a randomized test checks the same cases on every run."""
    script = (
        "import random\n"
        "from generators import random_hierarchy\n"
        "from sqpo import hierarchy_to_json\n"
        "from sqpo.graphs import dumps_canonical\n"
        "for seed in (909, 11, 12, 14):\n"
        "    h = random_hierarchy(random.Random(seed))\n"
        "    print(dumps_canonical(hierarchy_to_json(h)))\n"
    )
    paths = [str(Path(sqpo.__file__).parents[1]), str(Path(__file__).parent)]
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
