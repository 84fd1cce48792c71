"""Differential tests of the memoized commutativity check.

`Hierarchy.validate_commutativity` keeps each source's composites and
verdicts across `replace()` and walks again only the sources a replacement
touched.
These tests drive random chains of replacements, and whole propagations,
and require every check to equal the original full check kept in
reference_kernels.py: the same violations in the same order, or the same
exception type and message.
"""

import random

import pytest

import sqpo.hierarchy
from sqpo import (
    CompositionError,
    Graph,
    Hierarchy,
    HierarchyError,
    Homomorphism,
    SqpoError,
    propagate_backward,
    propagate_forward,
)

from generators import random_backward_plan, random_forward_plan, random_hierarchy
from reference_kernels import composed_typing as bfs_composed_typing
from reference_kernels import validate_commutativity as full_check


def _oracle(h: Hierarchy):
    objects = {n: h.graph(n) for n in h.nodes()}
    arrows = {e: h.typing(*e) for e in h.edges()}
    try:
        return full_check(objects, arrows)
    except Exception as exc:  # compared by type and message below
        return exc


def _assert_matches_oracle(h: Hierarchy) -> str:
    expected = _oracle(h)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            h.validate_commutativity()
        assert str(info.value) == str(expected)
        return "raised"
    got = h.validate_commutativity()
    assert [str(v) for v in got] == [str(v) for v in expected]
    assert got == expected
    return "violations" if got else "clean"


def _renamed(g: Graph, extra: bool) -> tuple[Graph, dict[str, str]]:
    """A copy of g with every node id primed, and optionally one extra
    isolated node; returns it with the renaming of g's nodes."""
    rename = {n: n + "'" for n in g.nodes}
    nodes = list(rename.values()) + (["extra'"] if extra else [])
    edges = [(rename[u], rename[v]) for (u, v) in g.edges]
    node_attrs = {rename[n]: a for n, a in g.node_attrs.items()}
    edge_attrs = {(rename[u], rename[v]): a for (u, v), a in g.edge_attrs.items()}
    return Graph(nodes, edges, node_attrs, edge_attrs), rename


def _swap(rng: random.Random, h: Hierarchy):
    """Replace one object by a renamed copy (possibly with an extra node) and
    return it with the arrows re-pointed at it. The extra node's images are
    chosen per outgoing arrow, so composites from it may disagree."""
    x = rng.choice(h.nodes())
    old = h.graph(x)
    new, rename = _renamed(old, extra=rng.random() < 0.5)
    patch = {}
    for k in h.predecessors(x):
        arrow = h.typing(k, x)
        patch[(k, x)] = Homomorphism(
            arrow.source, new, {n: rename[arrow[n]] for n in arrow.source.nodes}
        )
    for j in h.successors(x):
        arrow = h.typing(x, j)
        mapping = {rename[n]: arrow[n] for n in old.nodes}
        for n in new.nodes - set(mapping):
            mapping[n] = rng.choice(sorted(arrow.target.nodes))
        patch[(x, j)] = Homomorphism(new, arrow.target, mapping)
    return {x: new}, patch


def _perturbed_arrow(rng: random.Random, h: Hierarchy):
    """One arrow with one node sent elsewhere in the same target graph."""
    a, b = rng.choice(h.edges())
    arrow = h.typing(a, b)
    mapping = dict(arrow.node_map)
    n = rng.choice(sorted(arrow.source.nodes))
    mapping[n] = rng.choice(sorted(arrow.target.nodes))
    return {(a, b): Homomorphism(arrow.source, arrow.target, mapping)}


def _new_arrow(rng: random.Random, h: Hierarchy):
    """A random map along a pair that has no arrow yet, lower index to
    higher, so the shape stays acyclic; None when every pair is taken."""
    names = sorted(h.nodes(), key=lambda n: int(n[1:]))
    taken = set(h.edges())
    free = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if (a, b) not in taken]
    if not free:
        return None
    a, b = rng.choice(free)
    source, target = h.graph(a), h.graph(b)
    targets = sorted(target.nodes)
    return {(a, b): Homomorphism(source, target, {n: rng.choice(targets) for n in source.nodes})}


def test_replace_chains_match_full_check():
    rng = random.Random(2024)
    outcomes = {"clean": 0, "violations": 0, "raised": 0}
    kinds = {"swap": 0, "perturb": 0, "bare_swap": 0, "repair": 0, "new_arrow": 0, "batched": 0}
    for _ in range(120):
        h = random_hierarchy(rng, max_objects=7, max_edges=12)
        pending = None  # arrows still pointing at a swapped-out object
        for _ in range(10):
            replaced = 0
            for _ in range(rng.choice([1, 1, 2, 3])):
                roll = rng.random()
                if pending is not None:
                    if roll < 0.3:  # re-point some or all of the stale arrows
                        keys = sorted(pending)
                        fixed = set(rng.sample(keys, rng.randint(1, len(keys))))
                        h = h.replace(arrows={e: pending[e] for e in fixed})
                        pending = {e: pending[e] for e in keys if e not in fixed} or None
                        kinds["repair"] += 1
                    else:
                        h = h.replace(arrows=_perturbed_arrow(rng, h))
                        kinds["perturb"] += 1
                elif roll < 0.15:
                    objects, pending = _swap(rng, h)
                    h = h.replace(objects=objects)
                    pending = pending or None
                    kinds["bare_swap"] += 1
                elif roll < 0.4:
                    objects, patch = _swap(rng, h)
                    h = h.replace(objects=objects, arrows=patch)
                    kinds["swap"] += 1
                elif roll < 0.85:
                    h = h.replace(arrows=_perturbed_arrow(rng, h))
                    kinds["perturb"] += 1
                else:
                    added = _new_arrow(rng, h)
                    if added is None:
                        continue
                    h = h.replace(arrows=added)
                    kinds["new_arrow"] += 1
                replaced += 1
            kinds["batched"] += replaced > 1
            outcomes[_assert_matches_oracle(h)] += 1
    assert all(outcomes.values()), outcomes
    assert all(kinds.values()), kinds



def _as_patches(rng: random.Random, h: Hierarchy, before: Hierarchy, arrows: dict) -> dict:
    """The same arrows, each built by `Homomorphism._patched` from the arrow
    it replaces or, one time in ten each, from the one before that or from
    a map the hierarchy never held (a patch the memo must not trust)."""
    out = {}
    for e, arrow in arrows.items():
        base = h.typing(*e)
        roll = rng.random()
        if roll < 0.1 and e in before.edges():
            base = before.typing(*e)
        elif roll < 0.2:  # a copy of the new arrow: the patch records nothing
            base = Homomorphism(arrow.source, arrow.target, arrow.node_map)
        keys = set(base.node_map) | set(arrow.node_map)
        out[e] = Homomorphism._patched(base, arrow.source, arrow.target, arrow.node_map, keys)
    return out


def test_patched_replace_chains_match_full_check(monkeypatch):
    """The chains above with every replaced arrow built as a patch, so the
    check compares edges that held only at the patched keys and their
    preimages; it must still equal the full check, violations and
    witnesses included."""
    original = Hierarchy._verdict
    delta = {"held": 0, "broke": 0}

    def counting(self, a, u, v, canon, parent, keys):
        got = original(self, a, u, v, canon, parent, keys)
        if keys is not None:
            delta["broke" if got else "held"] += 1
        return got

    monkeypatch.setattr(Hierarchy, "_verdict", counting)
    rng = random.Random(2025)
    outcomes = {"clean": 0, "violations": 0, "raised": 0}
    for _ in range(120):
        h = before = random_hierarchy(rng, max_objects=7, max_edges=12)
        pending = None
        for _ in range(10):
            for _ in range(rng.choice([1, 1, 2, 3])):
                roll = rng.random()
                if pending is not None:
                    if roll < 0.3:
                        fixed = dict(list(pending.items())[: rng.randint(1, len(pending))])
                        patch = _as_patches(rng, h, before, fixed)
                        pending = {e: a for e, a in pending.items() if e not in fixed} or None
                        h, before = h.replace(arrows=patch), h
                    else:
                        patch = _as_patches(rng, h, before, _perturbed_arrow(rng, h))
                        h, before = h.replace(arrows=patch), h
                elif roll < 0.15:
                    objects, pending = _swap(rng, h)
                    h, before = h.replace(objects=objects), h
                    pending = pending or None
                elif roll < 0.45:
                    objects, patch = _swap(rng, h)
                    patch = _as_patches(rng, h, before, patch)
                    h, before = h.replace(objects=objects, arrows=patch), h
                else:
                    patch = _as_patches(rng, h, before, _perturbed_arrow(rng, h))
                    h, before = h.replace(arrows=patch), h
            outcomes[_assert_matches_oracle(h)] += 1
    assert all(outcomes.values()), outcomes
    assert all(delta.values()), delta


def test_tree_edge_failure_wins_over_earlier_comparison_failure():
    """Object d is swapped and only the arrow b -> d re-pointed. From a, the
    comparing edge c -> d (stale target) is walked before the tree edge
    d -> e (stale source); the full check composes all tree edges before
    comparing, so the failing compose is what it raises."""
    g = Graph(["x"])
    h = Hierarchy()
    for name in "abcde":
        h = h.add_object(name, g)
    for e in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")]:
        h = h.add_typing(*e, Homomorphism(g, g, {"x": "x"}))
    d2 = Graph(["x", "y"])
    bad = h.replace(
        objects={"d": d2}, arrows={("b", "d"): Homomorphism(g, d2, {"x": "x"})}
    )
    with pytest.raises(CompositionError, match="f.target differs from g.source"):
        bad.validate_commutativity()
    assert _assert_matches_oracle(bad) == "raised"


def test_cycle_back_to_the_source_compares_the_round_trip():
    """A shape built directly, without validation, with arrows a -> b and
    b -> a: from each source the edge back to it compares the source's
    identity with the round trip. Identities both ways hold; a swap on the
    way back breaks at x from both sides, as in the full check."""
    g = Graph(["x", "y"])
    there = Homomorphism(g, g, {"x": "x", "y": "y"})
    for back, expected in [
        (there, []),
        (
            Homomorphism(g, g, {"x": "y", "y": "x"}),
            ["PAIR a a: a != a->b->a at node x", "PAIR b b: b != b->a->b at node x"],
        ),
    ]:
        h = Hierarchy({"a": g, "b": g}, {("a", "b"): there, ("b", "a"): back})
        assert [str(v) for v in h.validate_commutativity()] == expected
        assert _assert_matches_oracle(h) == ("violations" if expected else "clean")


def test_patched_composite_checks_its_endpoints():
    """With the memo of a -> u -> v filled, u's object and a -> u (a patch
    of the old arrow) are replaced but u -> v is not, so its source is
    stale. The composite at v raises the error that the same hierarchy
    rebuilt without a memo and the full check raise."""
    g = Graph(["x"])
    ident = Homomorphism(g, g, {"x": "x"})
    h = Hierarchy()
    for name in "auv":
        h = h.add_object(name, g)
    h = h.add_typing("a", "u", ident).add_typing("u", "v", ident)
    assert h.validate_commutativity() == []
    u2 = Graph(["x", "y"])
    patch = Homomorphism._patched(ident, g, u2, {"x": "y"}, ["x"])
    bad = h.replace(objects={"u": u2}, arrows={("a", "u"): patch})
    unmemoized = Hierarchy(
        {n: bad.graph(n) for n in bad.nodes()}, {e: bad.typing(*e) for e in bad.edges()}
    )
    message = "compose: f.target differs from g.source"
    with pytest.raises(CompositionError, match=message):
        unmemoized.validate_commutativity()
    with pytest.raises(CompositionError, match=message):
        bad.validate_commutativity()
    assert _assert_matches_oracle(bad) == "raised"


def test_replace_outside_a_cone_leaves_that_source_unwalked(monkeypatch):
    """Source a's cone {a, b, c} holds a violation; replacing e and the
    arrows d -> e and d -> c (which ends in the cone but starts outside it)
    touches nothing a composes. The next check must compose nothing from a,
    hand back a's stored composites and verdicts as they are, and clear a's
    marks, while d, whose arrows were replaced, is walked again: its entry
    is refreshed, holds the replaced arrows (the composites at d's
    successors) and has its marks cleared."""
    ga, gb, gc = Graph(["x", "y"]), Graph(["p", "q"]), Graph(["r1", "r2"])
    gd, ge = Graph(["s"]), Graph(["t"])
    h = Hierarchy(
        {"a": ga, "b": gb, "c": gc, "d": gd, "e": ge},
        {
            ("a", "b"): Homomorphism(ga, gb, {"x": "p", "y": "q"}),
            ("a", "c"): Homomorphism(ga, gc, {"x": "r1", "y": "r1"}),
            ("b", "c"): Homomorphism(gb, gc, {"p": "r2", "q": "r2"}),
            ("d", "e"): Homomorphism(gd, ge, {"s": "t"}),
            ("d", "c"): Homomorphism(gd, gc, {"s": "r1"}),
        },
    )
    before = h.validate_commutativity()
    assert [str(v) for v in before] == ["PAIR a c: a->c != a->b->c at node x"]
    entry = h._memo.entries["a"]
    ge2 = Graph(["t", "u"])
    h2 = h.replace(
        objects={"e": ge2},
        arrows={
            ("d", "e"): Homomorphism(gd, ge2, {"s": "u"}),
            ("d", "c"): Homomorphism(gd, gc, {"s": "r2"}),
        },
    )
    replaced, sources, _ = h2._memo.merged()
    assert sources and replaced

    composed_from = []
    original = sqpo.hierarchy.compose

    def counting(g, f):
        composed_from.append(f.source)
        return original(g, f)

    monkeypatch.setattr(sqpo.hierarchy, "compose", counting)
    assert h2.validate_commutativity() == before
    assert not any(src is ga for src in composed_from)
    walked = h2._memo.entries["d"]
    assert walked is not h._memo.entries["d"]
    assert walked.canon["e"] is h2.typing("d", "e")
    assert walked.canon["c"] is h2.typing("d", "c")
    assert h2._memo.merged() == ({}, frozenset(), frozenset())
    after = h2._memo.entries["a"]
    assert after.canon is entry.canon and after.verdicts is entry.verdicts
    assert _assert_matches_oracle(h2) == "violations"


def _unmemoized(h: Hierarchy) -> Hierarchy:
    return Hierarchy({n: h.graph(n) for n in h.nodes()}, {e: h.typing(*e) for e in h.edges()})


def _walks(h: Hierarchy) -> dict:
    """Each memo entry as the walk it records: the nodes holding a composite
    and each comparing edge's verdict, both in walk order."""
    return {
        a: (list(c.canon), [(e, str(x)) for e, x in c.verdicts.items()])
        for a, c in h._memo.entries.items()
    }


@pytest.fixture
def rechecks(monkeypatch) -> set:
    """The sources that have an entry and are walked anew."""
    seen: set = set()
    walk = Hierarchy._walk

    def recording(self, a, entry, replaced):
        if entry is not None:
            seen.add(a)
        return walk(self, a, entry, replaced)

    monkeypatch.setattr(Hierarchy, "_walk", recording)
    return seen


def _answer(h: Hierarchy):
    """h's violations, or the type and message of what its check raises."""
    try:
        return [str(v) for v in h.validate_commutativity()]
    except Exception as exc:
        return type(exc), str(exc)


def _check_added(h: Hierarchy, arrows: dict) -> tuple[Hierarchy, str]:
    """h with `arrows` added by `replace`: its check equals the full check
    and the check of the same hierarchy without a memo, and after a check
    that passes each memo entry records the walk a memo-free check records.
    Before that check, `composed_typing` answers as the breadth-first walk
    does. Adding the arrows one at a time by `add_typing` answers as on the
    memo-free copy too."""
    out = h.replace(arrows=arrows)
    for a in out.nodes():
        for b in out.nodes():
            _same_composite(out, a, b)
    outcome = _assert_matches_oracle(out)
    fresh = _unmemoized(out)
    assert _answer(out) == _answer(fresh)
    if outcome != "raised":
        assert _walks(out) == _walks(fresh)
    assert _added_one_by_one(h, arrows) == _added_one_by_one(_unmemoized(h), arrows)
    return out, outcome


def _added_one_by_one(h: Hierarchy, arrows: dict):
    """`add_typing` of each arrow in turn: the memo entries after a check of
    the result, and its arrows, or the type and message of what it raises.
    (On a valid hierarchy `add_typing` leaves the entries it makes stale to
    the log, so they are read after the check that rebuilds them.)"""
    try:
        for e, hom in arrows.items():
            h = h.add_typing(*e, hom)
    except Exception as exc:
        return type(exc), str(exc)
    h.validate_commutativity()
    return _walks(h), [(e, h.typing(*e).node_map) for e in h.edges()]


_G = Graph(["x", "y"])
_SAME, _SWAP = {"x": "x", "y": "y"}, {"x": "y", "y": "x"}


def _chain_of(edges, maps=None) -> Hierarchy:
    """Objects holding _G, with the identity along `edges` unless `maps`
    gives a map, typed one arrow at a time and then checked, so that every
    object has a current entry."""
    h = Hierarchy({n: _G for e in edges for n in e}, {})
    for e in edges:
        h = h.add_typing(*e, Homomorphism(_G, _G, (maps or {}).get(e, _SAME)))
    h.validate_commutativity()
    return h


def _typed_then_checked(h: Hierarchy, arrows: dict, rechecks: set):
    """Which sources that have an entry `add_typing` of each arrow in turn,
    and a check of the result after it, walk anew: what add_typing walked,
    and what the check walked or the refusal's message."""
    rechecks.clear()
    try:
        for e, hom in arrows.items():
            h = h.add_typing(*e, hom)
    except HierarchyError as exc:
        return set(rechecks), str(exc)
    typed = set(rechecks)
    rechecks.clear()
    h.validate_commutativity()
    return typed, set(rechecks)


@pytest.mark.parametrize("mapping", [_SAME, _SWAP])
def test_added_arrow_with_an_earlier_path_re_walks(mapping, rechecks):
    """From a, e is reached through a -> c -> d -> e; an arrow b -> e
    reaches it earlier, so e's tree parent and place in the walk change:
    the order, the tree and the paths in a violation must be the new
    walk's. Typed by `add_typing` into the valid hierarchy, an arrow whose
    frontier pair (a, e) agrees walks nothing, and the next check walks a
    and b anew from the log; one that disagrees makes add_typing run the
    full check, which walks the same way and names the new walk's paths."""
    h = _chain_of([("a", "b"), ("a", "c"), ("c", "d"), ("d", "e")])
    assert list(h._memo.entries["a"].canon) == ["a", "b", "c", "d", "e"]
    added = {("b", "e"): Homomorphism(_G, _G, mapping)}
    walks = {"a", "b"}
    if mapping is _SAME:
        assert _typed_then_checked(h, added, rechecks) == (set(), walks)
    else:
        assert _typed_then_checked(h, added, rechecks) == (
            walks, "typing breaks commutativity: PAIR a e: a->b->e != a->c->d->e at node x"
        )
    rechecks.clear()
    out, outcome = _check_added(h, added)
    assert list(out._memo.entries["a"].canon) == ["a", "b", "c", "e", "d"]
    assert rechecks == walks
    if mapping is _SWAP:
        assert outcome == "violations"
        assert [str(v) for v in out.validate_commutativity()] == [
            "PAIR a e: a->b->e != a->c->d->e at node x"
        ]
    else:
        assert outcome == "clean"


@pytest.mark.parametrize("mapping", [_SAME, _SWAP])
def test_added_arrow_to_a_node_new_to_the_cone_re_walks(mapping, rechecks):
    """From a, the arrow b -> c reaches c and f, new to a's cone, after
    every old node; c -> d then compares with a -> d. a's entry is walked
    anew: by the check after `add_typing`, which walks nothing when the
    frontier pair (a, d) agrees, or by add_typing's full check when it does
    not."""
    h = _chain_of([("a", "b"), ("a", "d"), ("c", "d"), ("c", "f")], {("c", "d"): mapping})
    walks = {"a", "b"}
    added = {("b", "c"): Homomorphism(_G, _G, _SAME)}
    if mapping is _SAME:
        assert _typed_then_checked(h, added, rechecks) == (set(), walks)
    else:
        assert _typed_then_checked(h, added, rechecks) == (
            walks, "typing breaks commutativity: PAIR a d: a->d != a->b->c->d at node x"
        )
    rechecks.clear()
    out, outcome = _check_added(h, added)
    assert list(out._memo.entries["a"].canon) == ["a", "b", "d", "c", "f"]
    assert rechecks == walks
    if mapping is _SWAP:
        assert [str(v) for v in out.validate_commutativity()] == [
            "PAIR a d: a->d != a->b->c->d at node x"
        ]
    else:
        assert outcome == "clean"


def test_re_walked_entry_keeps_its_violations(rechecks):
    """From a, the comparing edge b -> d breaks; an arrow d -> c, to an
    object new to a's cone, comes after it in a's walk. a's entry is walked
    anew and finds the violation again."""
    h = Hierarchy(
        {n: _G for n in "abcd"},
        {
            ("a", "b"): Homomorphism(_G, _G, _SAME),
            ("a", "d"): Homomorphism(_G, _G, _SAME),
            ("b", "d"): Homomorphism(_G, _G, _SWAP),
        },
    )
    assert _answer(h) == ["PAIR a d: a->d != a->b->d at node x"]
    out, outcome = _check_added(h, {("d", "c"): Homomorphism(_G, _G, _SAME)})
    assert outcome == "violations"
    assert rechecks == {"a", "b", "d"}
    assert _answer(out) == ["PAIR a d: a->d != a->b->d at node x"]


def test_added_arrow_after_a_swap_re_walks_with_the_log_holding_both(rechecks):
    """Object b is replaced by a renamed copy with an extra node and its
    arrows re-pointed; before any check, b gets a new arrow to d. The log
    then holds the re-pointed arrows and the added one, and a and b, which
    see a re-pointed arrow, are walked anew. A replaced hierarchy is not
    known valid, so `add_typing` walks them itself, in its full check, and
    leaves nothing to the check after it."""
    h = _chain_of([("a", "b"), ("b", "c"), ("a", "c")]).add_object("d", Graph(["p"]))
    new, rename = _renamed(_G, extra=True)
    swapped = h.replace(
        objects={"b": new},
        arrows={
            ("a", "b"): Homomorphism(_G, new, {n: rename[n] for n in _G.nodes}),
            ("b", "c"): Homomorphism(new, _G, {"x'": "x", "y'": "y", "extra'": "x"}),
        },
    )
    added = {("b", "d"): Homomorphism(new, h.graph("d"), dict.fromkeys(new.nodes, "p"))}
    logged = swapped.replace(arrows=added)._memo.merged()[0]
    assert set(logged) == {("a", "b"), ("b", "c"), ("b", "d")}
    walks = {"a", "b"}
    assert _typed_then_checked(swapped, added, rechecks) == (walks, set())
    rechecks.clear()
    out, outcome = _check_added(swapped, added)
    assert outcome == "clean"
    assert rechecks == walks
    assert list(out._memo.entries["a"].canon) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("touched", [False, True])
def test_added_comparing_edge_fails_but_a_later_tree_edge_fails_first(touched, rechecks):
    """Objects y and w are replaced by renamed copies, their arrows left as
    they were. Two arrows are added from the new graphs' side: u -> y, a
    comparing edge from a whose endpoints differ, and, later in a's walk,
    w -> z, a tree edge whose compose fails. The tree-edge failure is what
    the check raises, whether or not one of a's arrows is re-set too."""
    h = _chain_of([("a", "u"), ("a", "y"), ("u", "w"), ("z", "q")])
    y2, _ = _renamed(_G, extra=False)
    w2 = Graph(["x'", "y'", "w'"])
    h = h.replace(objects={"y": y2, "w": w2})
    if touched:
        h = h.replace(arrows={("a", "u"): Homomorphism(_G, _G, _SAME)})
    added = {
        ("u", "y"): Homomorphism(_G, y2, {"x": "x'", "y": "y'"}),
        ("w", "z"): Homomorphism(w2, _G, {"x'": "x", "y'": "y", "w'": "x"}),
    }
    rechecks.clear()
    _, outcome = _check_added(h, added)
    assert outcome == "raised"
    assert "a" in rechecks
    with pytest.raises(CompositionError, match="f.target differs from g.source"):
        h.replace(arrows=added).validate_commutativity()
    only = h.replace(arrows={("u", "y"): added[("u", "y")]})
    with pytest.raises(CompositionError, match="hom_equal: endpoints differ"):
        only.validate_commutativity()
    assert _assert_matches_oracle(only) == "raised"


def test_propagation_steps_match_full_check(monkeypatch):
    """Every check a propagation makes equals the full check. A clean input
    gets two checks, its own and the result's, and every step reports [].
    An input with violations (one arrow perturbed) gets its own check and
    then one per step, each the step's report."""
    original = Hierarchy.validate_commutativity
    checked = []

    def validate_against_oracle(self):
        got = original(self)
        assert got == _oracle(self)
        checked.append(len(got))
        return got

    monkeypatch.setattr(Hierarchy, "validate_commutativity", validate_against_oracle)
    rng = random.Random(77)
    steps = 0
    inputs = {"clean": 0, "violations": 0}
    for i in range(36):
        h = random_hierarchy(rng, max_objects=7, max_edges=12)
        if i % 3 == 2:
            h = h.replace(arrows=_perturbed_arrow(rng, h))
        origin = rng.choice(h.nodes())
        checked.clear()
        try:
            if i % 2 == 0:
                rep = propagate_forward(h, random_forward_plan(rng, h, origin))
            else:
                rep = propagate_backward(h, random_backward_plan(rng, h, origin))
        except SqpoError:
            continue
        reports = [len(v) for _, v in rep.steps]
        if checked[0]:
            assert checked == [checked[0]] + reports
            inputs["violations"] += 1
        else:
            assert checked == [0, 0] and not any(reports)
            inputs["clean"] += 1
        steps += len(rep.steps)
    assert steps > 24 and all(inputs.values()), (steps, inputs)


def _same_composite(h: Hierarchy, a: str, b: str) -> str:
    """composed_typing(a, b) against the original breadth-first walk: an
    equal map between equal graphs, or the same exception type and
    message."""
    try:
        expected = bfs_composed_typing(h, a, b)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            h.composed_typing(a, b)
        assert str(info.value) == str(exc)
        return "raised"
    got = h.composed_typing(a, b)
    assert got.source == expected.source and got.target == expected.target
    assert {n: got[n] for n in got.source.nodes} == expected.node_map
    return "equal"


def test_composed_typing_matches_the_breadth_first_walk():
    """Random replacement chains, as above; before each comparison the
    memo is refilled, left stale (marked by the replacements since) or
    filled by a check that raised. Hierarchies that do not commute, stale
    memos and endpoint mismatches all occur."""
    rng = random.Random(4242)
    outcomes = {"equal": 0, "raised": 0}
    memo = {"current": 0, "stale": 0, "none": 0}
    kinds = {"noncommuting": 0, "mismatch": 0}
    for _ in range(100):
        h = random_hierarchy(rng, max_objects=7, max_edges=12)
        stale = False  # some arrows still point at a swapped-out object
        for _ in range(8):
            roll = rng.random()
            if roll < 0.2 and not stale:
                objects, pending = _swap(rng, h)
                keep = {e: pending[e] for e in pending if rng.random() < 0.5}
                h = h.replace(objects=objects, arrows=keep)
                stale = len(keep) < len(pending)
            elif roll < 0.5 and not stale:
                objects, patch = _swap(rng, h)
                h = h.replace(objects=objects, arrows=patch)
            else:
                h = h.replace(arrows=_perturbed_arrow(rng, h))
            if rng.random() < 0.2:  # the same hierarchy with an empty memo
                h = Hierarchy({n: h.graph(n) for n in h.nodes()}, {e: h.typing(*e) for e in h.edges()})
            if rng.random() < 0.6:
                try:
                    kinds["noncommuting"] += bool(h.validate_commutativity())
                except CompositionError:
                    kinds["mismatch"] += 1
            for _ in range(4):
                a, b = rng.choice(h.nodes()), rng.choice(h.nodes())
                replaced, sources, _ = h._memo.merged()
                logged = sources or replaced
                memo["none" if a not in h._memo.entries else "stale" if logged else "current"] += 1
                outcomes[_same_composite(h, a, b)] += 1
    assert all(outcomes.values()), outcomes
    assert all(memo.values()), memo
    assert all(kinds.values()), kinds
