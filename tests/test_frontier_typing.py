"""Differential tests of `add_typing` on a hierarchy known valid.

There `add_typing(a, b)` compares the composites through the new arrow
with the old ones at the frontier pairs only (see
`Hierarchy._frontier_agrees`); a hierarchy not known valid, or a frontier
pair that differs, takes the full check. Each shape below is typed both
ways, on the hierarchy itself and on a copy built by the constructor
(which is not known valid while it has arrows): the results must be
equal hierarchies answering every `composed_typing` alike, or refusals
with the same type and message.
"""

import pytest

from sqpo import Graph, Hierarchy, HierarchyError, Homomorphism, Skeleton

_G = Graph(["x", "y"], [("x", "y")])
_SAME, _SWAP = {"x": "x", "y": "y"}, {"x": "y", "y": "x"}
_LOOP = Graph(["x", "y"], [("x", "y"), ("y", "x")])  # where a swap is a homomorphism


def _typed(edges, graph=_G, maps=None, skeleton=None, kinds=None) -> Hierarchy:
    """Objects holding `graph`, typed along `edges` one arrow at a time by
    the identity unless `maps` gives a map: a hierarchy known valid."""
    h = Hierarchy(skeleton=skeleton)
    for n in sorted({n for e in edges for n in e} | set(kinds or ())):
        h = h.add_object(n, graph, (kinds or {}).get(n))
    for e in edges:
        h = h.add_typing(*e, Homomorphism(graph, graph, (maps or {}).get(e, _SAME)))
    assert h._memo.valid
    return h


def _unmarked(h: Hierarchy) -> Hierarchy:
    out = Hierarchy(
        {n: h.graph(n) for n in h.nodes()}, {e: h.typing(*e) for e in h.edges()},
        h.skeleton, h.skeleton_map,
    )
    assert not out._memo.valid
    return out


def _answers(h: Hierarchy):
    """h's arrows and every pair's composite (or what it raises)."""
    pairs = {}
    for a in h.nodes():
        for b in h.nodes():
            try:
                got = h.composed_typing(a, b)
                pairs[(a, b)] = (got.source, got.target, got.node_map)
            except Exception as exc:
                pairs[(a, b)] = (type(exc), str(exc))
    return [(e, h.typing(*e).node_map) for e in h.edges()], pairs


def _typing(h: Hierarchy, a: str, b: str, mapping: dict):
    try:
        out = h.add_typing(a, b, Homomorphism(h.graph(a), h.graph(b), mapping))
    except Exception as exc:
        return type(exc), str(exc)
    return out


@pytest.fixture
def frontier(monkeypatch) -> list:
    """Each frontier comparison `add_typing` makes: whether it agreed."""
    seen = []
    agrees = Hierarchy._frontier_agrees

    def recording(self, *args):
        seen.append(agrees(self, *args))
        return seen[-1]

    monkeypatch.setattr(Hierarchy, "_frontier_agrees", recording)
    return seen


def _same_both_ways(h: Hierarchy, a: str, b: str, mapping: dict, frontier: list):
    """add_typing(a, b) on h, which is known valid, and on its unmarked
    copy: the same outcome. Returns it, and whether the frontier agreed."""
    frontier.clear()
    got = _typing(h, a, b, mapping)
    assert len(frontier) == 1
    agreed = frontier.pop()
    want = _typing(_unmarked(h), a, b, mapping)
    assert frontier == []  # the copy took the full check
    if isinstance(want, tuple):
        assert got == want
        assert not agreed
        return want, agreed
    assert isinstance(got, Hierarchy) and got == want
    assert got._memo.valid and not want._memo.valid
    assert _answers(got) == _answers(want)
    assert got.validate_commutativity() == want.validate_commutativity() == []
    return got, agreed


@pytest.mark.parametrize("mapping", [_SAME, _SWAP])
def test_closing_a_diamond(mapping, frontier):
    """s -> a and s -> b exist; a -> b closes the diamond. Its one frontier
    pair is (s, b), and an ancestor p of s is derived from it."""
    h = _typed([("p", "s"), ("s", "a"), ("s", "b")], _LOOP)
    got, agreed = _same_both_ways(h, "a", "b", mapping, frontier)
    if mapping is _SAME:
        assert agreed and isinstance(got, Hierarchy)
    else:
        assert got == (HierarchyError, "typing breaks commutativity: "
                       "PAIR p b: p->s->b != p->s->a->b at node x; "
                       "PAIR s b: s->b != s->a->b at node x")


@pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
@pytest.mark.parametrize("mapping", [_SAME, _SWAP])
def test_several_entry_points_into_the_cone(joined, mapping, frontier):
    """b's cone holds u and v, and s enters it at both through x; `joined`
    adds u -> w and v -> w, which s reaches only through u and v. Apart,
    x -> u swaps and nothing else does, so each map of a -> b disagrees at
    exactly one of the two entries; joined, b -> u and u -> w swap too, and
    the identity agrees at both."""
    edges = [("s", "a"), ("s", "x"), ("x", "u"), ("x", "v"), ("b", "u"), ("b", "v")]
    maps = {("x", "u"): _SWAP}
    if joined:
        edges += [("u", "w"), ("v", "w")]
        maps.update({("b", "u"): _SWAP, ("u", "w"): _SWAP})
    h = _typed(edges, _LOOP, maps)
    got, agreed = _same_both_ways(h, "a", "b", mapping, frontier)
    assert agreed == isinstance(got, Hierarchy) == (joined and mapping is _SAME)
    if not joined:
        where = "u" if mapping is _SAME else "v"
        assert got[1] == (
            f"typing breaks commutativity: PAIR s {where}: s->x->{where} != s->a->b->{where} at node x"
        )


def test_break_reported_at_pairs_the_frontier_skips(frontier):
    """q -> p -> s -> a, with s -> t and b -> t; the new arrow a -> b
    disagrees at its frontier pair (s, t), and so, composed with the old
    arrows, at (p, t) and (q, t), which the frontier skips. The full
    check then names all three, in its own order."""
    h = _typed([("q", "p"), ("p", "s"), ("s", "a"), ("s", "t"), ("b", "t")], _LOOP)
    got, agreed = _same_both_ways(h, "a", "b", _SWAP, frontier)
    assert not agreed
    assert got[1] == (
        "typing breaks commutativity: "
        "PAIR p t: p->s->t != p->s->a->b->t at node x; "
        "PAIR q t: q->p->s->t != q->p->s->a->b->t at node x; "
        "PAIR s t: s->t != s->a->b->t at node x"
    )


def test_a_pair_entering_deep_in_the_cone(frontier):
    """s reaches t only through a chain outside b's cone that enters it at
    t, below b -> c -> t: the new composite goes a -> b -> c -> t."""
    edges = [("s", "a"), ("s", "x"), ("x", "y"), ("y", "t"), ("b", "c"), ("c", "t")]
    for maps, agree in (({}, True), ({("c", "t"): _SWAP}, False)):
        h = _typed(edges, _LOOP, maps)
        got, agreed = _same_both_ways(h, "a", "b", _SAME, frontier)
        assert agreed is agree


@pytest.mark.parametrize("kind_b", ["mid", "top"])
def test_skeleton_hierarchies(kind_b, frontier):
    """With a skeleton, the frontier path keeps the skeleton check: an
    arrow along a skeleton edge is compared at its frontier, one along no
    skeleton edge is refused with the full path's message."""
    sk = Skeleton.create(["low", "mid", "top"], [("low", "mid"), ("mid", "top"), ("low", "top")])
    kinds = {"s": "low", "a": "mid", "b": kind_b, "t": "top"}
    h = _typed([("s", "a"), ("s", "t")] + ([("b", "t")] if kind_b == "mid" else [("s", "b")]),
               skeleton=sk, kinds=kinds)
    if kind_b == "top":  # mid -> top: the arrow a -> b is allowed, and (s, b) compared
        got, agreed = _same_both_ways(h, "a", "b", _SAME, frontier)
        assert agreed and isinstance(got, Hierarchy)
        with pytest.raises(HierarchyError, match="has no skeleton edge top -> mid"):
            h.add_typing("b", "a", Homomorphism(_G, _G, _SAME))
    else:  # mid -> mid: no skeleton edge, refused before any comparison
        frontier.clear()
        want = _typing(_unmarked(h), "a", "b", _SAME)
        assert _typing(h, "a", "b", _SAME) == want
        assert want == (HierarchyError, "typing a -> b has no skeleton edge mid -> mid")
        assert frontier == []


def test_unmarked_hierarchy_takes_the_full_check(frontier):
    """A constructor-built hierarchy with a partial map x -> y that no walk
    composes (x's only arrow, a first hop) checks clean but is not known
    valid. Typing w -> x composes that map in the full check, which raises
    as it does without the memo; on the frontier path there would be no
    pair to compare and the typing would pass."""
    small = Graph(["x"], [("x", "x")])
    h = Hierarchy({"w": _G, "x": _G, "y": small}, {("x", "y"): Homomorphism(_G, small, {"x": "x"})})
    assert h.validate_commutativity() == [] and not h._memo.valid
    assert h.validate() == ["typing x -> y: map not total: node y has no image"] and not h._memo.valid
    with pytest.raises(KeyError):
        h.add_typing("w", "x", Homomorphism(_G, _G, _SAME))
    assert frontier == []
    # a typing that passes the full check leaves the result unmarked
    out = h.add_typing("w", "y", Homomorphism(_G, small, {"x": "x", "y": "x"}))
    assert frontier == [] and not out._memo.valid


def test_what_keeps_and_drops_the_mark():
    """No arrows, a clean `validate` and a passing `add_typing` into a
    valid hierarchy mark it; `add_object` keeps the mark; `replace`, even
    of an arrow by itself, and a check alone do not."""
    h = _typed([("a", "b")])
    assert Hierarchy({"a": _G})._memo.valid
    assert h.add_object("c", _G)._memo.valid
    same = h.replace(arrows={("a", "b"): h.typing("a", "b")})
    assert not same._memo.valid
    assert same.validate_commutativity() == [] and not same._memo.valid
    assert same.validate() == [] and same._memo.valid
    assert not h.replace(objects={"c": _G})._memo.valid
