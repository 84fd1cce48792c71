"""Differentials of the load and check fast paths against the walks they
replaced, which reference_kernels.py keeps:

- `graph_from_json` reads a graph's rows in one pass that knows only the
  row index, keys its attribute memo by (key, value) for one str key with
  one str value, and checks edge endpoints against the listed nodes at C
  level; `loader_walk` sets the JSON path of every row it reads, keys the
  memo by repr and finds dangling edges by `Graph.validate`. On drawn
  documents of two graphs that share a memo, full of memo-key traps
  (`["1"]`, `[1]`, `[true]`, `[1, true]`, a repeated value, two-key dicts
  in both key orders, empty `attrs`, repeated node entries, non-str ids
  and images, dangling edges, malformed rows), both give equal graphs with
  the same listed orders and the same sharing of attribute dicts, or raise
  the same exception with the same message and JSON path.
- `_node_map_from_json` checks a dict's images at C level; `node_map_walk`
  walks every entry.
- `Hierarchy._verdict` compares the whole composite with the fixed map at
  C level; `verdict_walk` compares node by node in Python. On random
  hierarchies with one arrow broken (a map that differs at one node, a
  partial map, a map with extra keys, an image missing from the next
  arrow) or every arrow out of one object partial at one node,
  `validate_commutativity` gives the same violations with the same
  witness, or raises the same exception. The same holds for a checked
  hierarchy with one arrow replaced by a patch that differs at a few keys,
  whose re-check compares the edges that held only at those keys.
"""

import copy
import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from generators import random_hierarchy
from sqpo import Hierarchy, Homomorphism, graph_from_json
from sqpo.graphs import _node_map_from_json

# raw attribute values whose memo keys a careless key would confuse: equal
# under Python equality but not as JSON, one key with a str that is not in
# a list, equal dicts with their keys in either order, invalid ones
TRAPS = [
    {"k": ["1"]}, {"k": [1]}, {"k": [True]}, {"k": [1, True]}, {"k": ["1", 1]},
    {"k": ["k", "k"]}, {"k": ["x"]}, {"j": ["x"]}, {"k": "x"}, {"k": "xy"},
    {"a": ["x"], "b": ["y"]}, {"b": ["y"], "a": ["x"]}, {}, {"k": []},
    {"k": [1.0]}, {"k": [["x"]]}, {"k": {"x": 1}}, {"k": [None]}, [], "k", None,
]
IDS = ["a", "b", "c", "1"]
ODD_IDS = [1, True, None, ["a"], {"id": "a"}]


@st.composite
def _documents(draw):
    """Two graphs' JSON; with `odd`, non-str ids, endpoints off the listed
    nodes and malformed rows may appear."""
    odd = draw(st.booleans())
    ids = st.sampled_from(IDS + ODD_IDS if odd else IDS)
    endpoints = st.sampled_from(IDS + ["nowhere"] + ODD_IDS if odd else IDS)
    attrs = st.sampled_from(range(len(TRAPS))).map(lambda i: copy.deepcopy(TRAPS[i]))

    def row(entry):
        return st.builds(lambda e, a: {**e, "attrs": a} if a is not None else e,
                         entry, st.none() | attrs)

    nodes = row(st.builds(lambda n: {"id": n}, ids))
    edges = row(st.builds(lambda u, v: {"from": u, "to": v}, endpoints, endpoints))
    if odd:
        nodes = nodes | st.sampled_from([{}, "a", 7, {"attrs": {"k": ["x"]}}])
        edges = edges | st.sampled_from([{"from": "a"}, ["a", "b"]])
    graph = st.fixed_dictionaries({"nodes": st.lists(nodes, max_size=6), "edges": st.lists(edges, max_size=5)})
    return draw(st.lists(graph, min_size=2, max_size=2))


def _loaded(load, docs):
    """The graphs `load` builds from docs with one memo, or the first
    exception with its message and JSON path."""
    memo, graphs = {}, []
    try:
        for doc in docs:
            graphs.append(load(doc, memo))
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "json_path", None), getattr(exc, "detail", None))
    listed = [(list(g._order), list(g._sorted_edges)) for g in graphs]
    seen: dict = {}  # each attribute dict by first appearance
    sharing = [
        seen.setdefault(id(attrs), len(seen))
        for g in graphs for attrs in chain(g.node_attrs.values(), g.edge_attrs.values())
    ]
    return graphs, listed, sharing, [(g._node_order(), g._edge_order()) for g in graphs]


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_loader_matches_the_walk(docs):
    want = _loaded(ref.loader_walk, copy.deepcopy(docs))
    assert _loaded(graph_from_json, docs) == want


def test_trap_values_load_in_one_pass():
    """A valid document of every valid trap loads as the walk loads it, and
    shares attribute dicts exactly as the repr-keyed memo does: `["1"]`,
    `[1]` and `[true]` apart, a repeated value as one dict, equal two-key
    dicts in different key orders apart."""
    values = [{"k": ["1"]}, {"k": [1]}, {"k": [True]}, {"k": ["1", 1]}, {"k": ["x"]}, {"j": ["x"]},
              {"k": ["x"]}, {"a": ["x"], "b": ["y"]}, {"b": ["y"], "a": ["x"]}, {}, {"k": []}]
    doc = {
        "nodes": [{"id": f"n{i}", "attrs": v} for i, v in enumerate(values)] + [{"id": "n0"}],
        "edges": [{"from": "n0", "to": "n1", "attrs": {"k": ["x"]}}, {"from": "n1", "to": "n0"}],
    }
    got = _loaded(graph_from_json, [doc, copy.deepcopy(doc)])
    assert got == _loaded(ref.loader_walk, [copy.deepcopy(doc), copy.deepcopy(doc)])
    (g, _), _, sharing, _ = got
    assert g.node_attrs["n4"] is g.node_attrs["n6"] is g.edge_attrs[("n0", "n1")]
    assert len({id(g.node_attrs[f"n{i}"]) for i in range(9)}) == 8
    assert sharing[:10] == sharing[10:]  # the second graph reuses the first's dicts


class _Id(str):
    """A str subclass, which a library caller may pass and `json.load`
    never makes."""


def test_str_subclass_ids_load_as_the_walk_loads_them():
    """Node ids and edge endpoints of a str subclass pass the loader's
    `isinstance` checks, and node map images of one fail the map's exact
    type check and load by its walk, as the reference walks load them."""
    doc = {"nodes": [{"id": _Id("a")}, {"id": "b", "attrs": {"k": ["x"]}}],
           "edges": [{"from": _Id("a"), "to": "b"}, {"from": "b", "to": _Id("b")}]}
    got = _loaded(graph_from_json, [doc, copy.deepcopy(doc)])
    assert got == _loaded(ref.loader_walk, [copy.deepcopy(doc), copy.deepcopy(doc)])
    assert got[0][0].nodes == {"a", "b"}
    raw = {"x": _Id("a")}
    assert _node_map_from_json(raw, "typing G -> T") == ref.node_map_walk(raw, "typing G -> T") == {"x": "a"}


_images = st.sampled_from(["a", "b", "", "é\n"]) | st.sampled_from([1, True, None, ["a"], {"x": "y"}, 1.5])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), _images, max_size=4)
       | st.sampled_from([[], ["a"], "a", 7, None]))
def test_node_map_loader_matches_the_walk(raw):
    def run(load):
        try:
            return load(copy.deepcopy(raw), "typing G -> T")
        except Exception as exc:
            return (type(exc), str(exc), getattr(exc, "json_path", None))

    assert run(_node_map_from_json) == run(ref.node_map_walk)


def _unchecked(h: Hierarchy, arrows: dict) -> Hierarchy:
    """h's objects with `arrows`, as a new hierarchy with an empty memo."""
    return Hierarchy({x: h.graph(x) for x in h.nodes()}, arrows)


def _broken(rng, h: Hierarchy, kind: str) -> Hierarchy | None:
    """h with one arrow's map broken by `kind` ("none" breaks nothing), as
    a new hierarchy with an empty memo, or None if the drawn arrow cannot
    be broken that way."""
    arrows = {e: h.typing(*e) for e in h.edges()}
    if kind == "none":
        return _unchecked(h, arrows)
    e = rng.choice(sorted(arrows))
    old = arrows[e]
    node_map = dict(old.node_map)
    n = rng.choice(sorted(node_map)) if node_map else None
    if kind == "differs":
        others = sorted(old.target.nodes - {node_map.get(n)})
        if n is None or not others:
            return None
        node_map[n] = rng.choice(others)
    elif kind == "partial":
        if n is None:
            return None
        del node_map[n]
    elif kind == "partial source":  # every arrow out of the source, at one node
        if n is None:
            return None
        for f in [f for f in arrows if f[0] == e[0]]:
            arrows[f] = Homomorphism._of(arrows[f].source, arrows[f].target,
                                         {k: x for k, x in arrows[f].node_map.items() if k != n})
        return _unchecked(h, arrows)
    elif kind == "extra":
        node_map["extra"] = rng.choice(sorted(old.target.nodes))
    else:  # an image that the arrows out of the target do not map
        if n is None:
            return None
        node_map[n] = "ghost"
    arrows[e] = Homomorphism._of(old.source, old.target, node_map)
    return _unchecked(h, arrows)


def _verdicts(h: Hierarchy):
    try:
        return h.validate_commutativity()
    except Exception as exc:
        return (type(exc), exc.args)


# each kind of break, and the outcome it must give in some draws (both
# checks ignore a key outside the source graph, so extra keys break nothing)
BREAKS = {"none": "held", "differs": "violated", "partial": "raised", "partial source": "raised",
          "extra": "held", "missing image": "raised"}


@pytest.mark.parametrize("kind", sorted(BREAKS))
def test_whole_map_verdict_matches_the_walk(kind, monkeypatch):
    rng = random.Random(f"verdict {kind}")
    outcomes = {"held": 0, "violated": 0, "raised": 0}
    for _ in range(150):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        broken = _broken(rng, h, kind)
        if broken is None:
            continue
        again = _unchecked(broken, {e: broken.typing(*e) for e in broken.edges()})
        got = _verdicts(broken)
        with monkeypatch.context() as patch:
            patch.setattr(Hierarchy, "_verdict", ref.verdict_walk)
            want = _verdicts(again)
        assert got == want
        outcomes["raised" if isinstance(got, tuple) else "violated" if got else "held"] += 1
    assert outcomes["held"] > 20 and outcomes[BREAKS[kind]] > 20, outcomes


def _patch(rng, h: Hierarchy) -> dict | None:
    """One arrow of h as a `Homomorphism._patched` copy re-set at a few
    keys, all to their own image, to another node of the target, to no
    image or to an image outside the target; None if the drawn arrow maps
    no node."""
    e = rng.choice(h.edges())
    old = h.typing(*e)
    if not old.node_map:
        return None
    keys = rng.sample(sorted(old.node_map), rng.randint(1, min(3, len(old.node_map))))
    kind = rng.choice(["same", "differs", "dropped", "ghost"])
    updates = {}
    for k in keys:
        if kind == "same":
            updates[k] = old.node_map[k]
        elif kind == "differs":
            updates[k] = rng.choice(sorted(old.target.nodes))
        elif kind == "ghost":
            updates[k] = "ghost"
    return {e: Homomorphism._patched(old, old.source, old.target, updates, keys)}


def test_keyed_verdict_matches_the_walk(monkeypatch):
    """A re-check after a patched arrow compares at the patch's keys; it
    gives what the walk gives at those keys."""
    rng = random.Random("keyed verdict")
    outcomes = {"held": 0, "violated": 0, "raised": 0}
    keyed = 0
    verdict = Hierarchy._verdict

    def counting(self, a, u, v, canon, parent, keys):
        nonlocal keyed
        keyed += keys is not None
        return verdict(self, a, u, v, canon, parent, keys)

    for _ in range(300):
        h = random_hierarchy(rng, max_objects=6, max_edges=10)
        h.validate_commutativity()
        arrows = _patch(rng, h)
        if arrows is None:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(Hierarchy, "_verdict", counting)
            got = _verdicts(h.replace(arrows=arrows))
        with monkeypatch.context() as patch:
            patch.setattr(Hierarchy, "_verdict", ref.verdict_walk)
            want = _verdicts(h.replace(arrows=arrows))
        assert got == want
        outcomes["raised" if isinstance(got, tuple) else "violated" if got else "held"] += 1
    assert keyed > 20 and min(outcomes.values()) > 20, (keyed, outcomes)
