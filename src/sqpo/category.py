"""Categorical constructions on attributed graphs: pullback, pushout,
final pullback complement over a mono, and image factorization.

Attribute flow is fixed per construction: intersection on pullbacks,
union on pushouts and image factorizations, and a subtractive rule on
pullback complements. Attributes are computed only where they differ:
where that algebra would give back a dict equal to one of its inputs (two
equal dicts intersected, a union with an empty or an equal side, a
complement that subtracts nothing), the result holds that input's dict
object itself, the one whose values the algebra keeps on a tie between 1
and True. Attribute dicts are shared immutable values, as the loader and
the untouched host elements of every step share them; nothing writes into
one.

Node ids of constructed graphs are derived deterministically from the
input ids ("a⋈b" for pullback pairs, representative concatenation for
pushout classes, "g∥k" for complement clones), with a counter suffix on
collision, so repeated runs produce bit-identical output.

The constructions are driven by edges and indexes, never by pairs of nodes:

* pullback costs O(|B| + pairs + joined edges), up to a sort of the
  pairs, once f's preimage lists and A's adjacency lists are built (each
  is cached on its value): the pairs come from f's preimages of g's
  image, and the A-edges at paired nodes are joined with the B-edges on
  their common image edge;
* pushout and final_pbc work element by element only on the rewritten part
  of the host: pushout on A, C, f's image in B and the B-edges at it, of
  which it builds again only those at a node whose id changed (the rest
  keep their ids and attribute dicts, but are still listed as built);
  final_pbc on K, L, m's image in G and the sum over G-edges (u, v) at it
  of copies(u)·copies(v), where copies(g) is 1 for an untouched node, the
  number of K-preimages for a matched one and 0 for a deleted one. Every
  other host node and edge keeps its id and its attribute dict; they are
  carried over by set and dict copies. Both find the edges at the
  rewritten part in the host's cached adjacency lists (built once per
  graph); neither sorts the host. Pushout's result lists the host nodes
  whose id changed, and final_pbc's the edges it built at the copies. The
  trace each returns (pushout's arrow from the host, final_pbc's projection
  to it) is a `graphs._Trace`: it holds its images at the rewritten part
  only and is the identity elsewhere, so no host-sized map is built unless
  a caller reads the whole map. Where the host holds its sorted node ids
  or edges as a list, the result starts with that list as a deferred
  order (`graphs._carry_orders`), which its first reader completes;
* image_factorization is near-linear (sorting).

Node ids are still assigned exactly as a loop over all classes, pairs or
copies in sorted order would assign them.

The test suite checks each construction against a brute-force oracle of
its universal property (`tests/paper_oracles.py`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .exceptions import CompositionError, NotMonoError
from .graphs import (
    _NO_ATTRS,
    Attrs,
    Graph,
    Homomorphism,
    _Trace,
    _carry_orders,
    attrs_difference,
    attrs_intersection,
    attrs_union,
    fresh_id,
    is_mono,
)


@dataclass(frozen=True)
class PullbackResult:
    apex: Graph
    to_a: Homomorphism  # apex → f.source
    to_b: Homomorphism  # apex → g.source


@dataclass(frozen=True)
class PushoutResult:
    apex: Graph
    from_b: Homomorphism  # f.target → apex
    from_c: Homomorphism  # g.target → apex
    # every apex edge at an image of f or of C, or at a B node whose id
    # changed: built there, or carried over at a touched node that kept its
    # id; the forward step checks its typings at these edges (see `pushout`)
    _rebuilt: tuple = field(default=(), repr=False, compare=False)
    # the B nodes whose id changed: fused with another, or renamed
    _moved: frozenset = field(default=frozenset(), repr=False, compare=False)


@dataclass(frozen=True)
class PbcResult:
    apex: Graph
    embed: Homomorphism  # K ↣ apex
    project: Homomorphism  # apex → G
    # the apex edges built at the copies of matched nodes; every other apex
    # edge is a host edge between untouched nodes, kept as it was
    _rebuilt: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class ImageFactorizationResult:
    image: Graph
    restrict: Homomorphism  # A → image
    include: Homomorphism  # image ↣ B


# The attribute algebra of the constructions. Each hands on an input's dict
# itself where the algebra would give back a dict equal to it, with the
# same values: attribute dicts are shared immutable values, which no
# construction writes into.


def _met(x: Attrs, y: Attrs) -> Attrs:
    """attrs_intersection(x, y), or y itself if x equals it: of two equal
    values of different types (1 and True), the intersection keeps y's."""
    if x is y or x == y:
        return y
    return attrs_intersection(x, y)


def _joined(x: Attrs, y: Attrs) -> Attrs:
    """attrs_union(x, y), or x itself if y is empty or equals it (the union
    keeps x's values), or y itself if x is empty."""
    if not y or x is y or x == y:
        return x
    if not x:
        return y
    return attrs_union(x, y)


def _kept(g: Attrs, l: Attrs, k: Attrs) -> Attrs:
    """The subtractive rule g - (l - k), or g itself if l equals k, when
    nothing is subtracted."""
    if l is k or l == k:
        return g
    return attrs_difference(g, attrs_difference(l, k))


def pullback(f: Homomorphism, g: Homomorphism) -> PullbackResult:
    """Pullback of the cospan f: A→C ← B :g.

    Apex nodes are the pairs (a, b) with f(a) = g(b); edges need an edge in
    both components; attributes are intersected key-wise. A pair whose two
    dicts are equal holds b's dict itself, whose values the intersection
    keeps.

    The pairs come from f's cached preimage lists over g's image, in sorted
    order, and the A-edges from A's cached adjacency lists at the paired
    nodes, so beyond B the work is proportional to the pairs and their
    edges, not to A.
    """
    if f.target != g.target:
        raise CompositionError("pullback: arrows do not share a target")
    a_graph, b_graph = f.source, g.source
    f_map, g_map = f.node_map, g.node_map
    over = f._preimages()
    pairs = sorted((a, b) for b in b_graph.nodes for a in over.get(g_map[b], ()))
    ids: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    node_attrs: dict[str, dict] = {}
    a_attrs, b_attrs = a_graph.node_attrs.get, b_graph.node_attrs.get
    for (a, b) in pairs:
        pid = fresh_id(f"{a}⋈{b}", taken)
        taken.add(pid)
        ids[(a, b)] = pid
        attrs = _met(a_attrs(a, _NO_ATTRS), b_attrs(b, _NO_ATTRS))
        if attrs:
            node_attrs[pid] = attrs
    # join the A-edges out of paired nodes and the B-edges on their common
    # image edge in C
    b_edges_over: dict[tuple, list[tuple[str, str]]] = {}
    for (b1, b2) in b_graph.edges:
        b_edges_over.setdefault((g_map.get(b1), g_map.get(b2)), []).append((b1, b2))
    a_succ = a_graph._adjacency()[0]
    a_attrs, b_attrs = a_graph.edge_attrs.get, b_graph.edge_attrs.get
    edges: set[tuple[str, str]] = set()
    edge_attrs: dict[tuple[str, str], dict] = {}
    for a1 in {a for a, _ in pairs}:
        for a2 in a_succ.get(a1, ()):
            for (b1, b2) in b_edges_over.get((f_map[a1], f_map.get(a2)), ()):
                p1, p2 = ids.get((a1, b1)), ids.get((a2, b2))
                if p1 is not None and p2 is not None:
                    edges.add((p1, p2))
                    attrs = _met(a_attrs((a1, a2), _NO_ATTRS), b_attrs((b1, b2), _NO_ATTRS))
                    if attrs:
                        edge_attrs[(p1, p2)] = attrs
    apex = Graph._of(taken, edges, node_attrs, edge_attrs)
    to_a = Homomorphism._of(apex, a_graph, {ids[p]: p[0] for p in pairs})
    to_b = Homomorphism._of(apex, b_graph, {ids[p]: p[1] for p in pairs})
    return PullbackResult(apex, to_a, to_b)


def _class_base_id(members) -> str:
    b_ids = sorted(m[1] for m in members if m[0] == "B")
    if b_ids:
        return "_".join(b_ids)
    return "_".join(sorted(m[1] for m in members))


class _Taken:
    """Membership view for `fresh_id`: the ids assigned so far plus those
    that `kept` says keep their own id (untouched host nodes)."""

    __slots__ = ("assigned", "kept")

    def __init__(self, assigned: set[str], kept):
        self.assigned, self.kept = assigned, kept

    def __contains__(self, n) -> bool:
        return n in self.assigned or self.kept(n)


def pushout(f: Homomorphism, g: Homomorphism) -> PushoutResult:
    """Pushout of the span f: A→B, g: A→C.

    Apex nodes are equivalence classes of B ⊔ C generated by f(a) ~ g(a);
    classes keep the id of their B-side member(s) (concatenated when the
    class fuses several), so unchanged host nodes keep their ids.
    Attributes are united over each class, in sorted member order; a class
    whose other members' dicts are empty or equal to its first attributed
    member's holds that member's dict itself, as does an edge.

    Only the touched part is built element by element: the image of f in B
    and all of C. Every other B node is a class of its own; it keeps its id,
    its attributes and its edges, copied in bulk, unless a class before it
    in the sorted class order took its id (a fused class "x_y" against a
    host node "x_y", say). Such a node is renamed in its turn, exactly as a
    pass over all classes in sorted order would. Of the edges, only those
    at a B node whose id changed and the images of C's edges are built
    again; a C edge landing on a host edge unites its attributes with that
    edge's. Every other edge at a touched node keeps its id and its
    attribute dict. The result lists the B nodes whose id changed
    (`_moved`) and every apex edge at an image of f or of C, or at such a
    node, carried or built (`_rebuilt`): the forward step checks its
    typings there.

    `from_b` is a `_Trace` whose delta maps f's image and the moved nodes
    to their classes; every other B node is its own image.
    """
    if f.source != g.source:
        raise CompositionError("pushout: arrows do not share a source")
    b_graph, c_graph = f.target, g.target
    f_map, g_map = f.node_map, g.node_map
    b_nodes = b_graph.nodes
    touched = {f_map[a] for a in f.source.nodes}

    def untouched(n) -> bool:
        return n in b_nodes and n not in touched

    # union-find over the touched part of B ⊔ C
    parent = {("B", b): ("B", b) for b in touched if b in b_nodes}
    parent.update((("C", c), ("C", c)) for c in c_graph.nodes)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in sorted(f.source.nodes):
        rx, ry = find(("B", f_map[a])), find(("C", g_map[a]))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    keyed = sorted((_class_base_id(ms), sorted(ms)) for ms in classes.values())

    # merge the touched classes with the untouched nodes whose id an earlier
    # class took, in sorted class order
    ids: dict[tuple[str, str], str] = {}
    assigned: set[str] = set()
    renamed: list[tuple[str, list]] = []
    node_attrs = dict(b_graph.node_attrs)
    c_attrs = c_graph.node_attrs.get
    new_attrs: dict[str, dict] = {}
    i = 0
    while i < len(keyed) or renamed:
        if renamed and (i == len(keyed) or renamed[0] < keyed[i]):
            key = heapq.heappop(renamed)
        else:
            key = keyed[i]
            i += 1
        base, members = key
        # an untouched node keeps its id if its singleton class sorts earlier
        qid = fresh_id(
            base, _Taken(assigned, lambda n: untouched(n) and (n, [("B", n)]) < key)
        )
        assigned.add(qid)
        if untouched(qid):
            heapq.heappush(renamed, (qid, [("B", qid)]))
        attrs = _NO_ATTRS
        for tag, n in members:
            ids[(tag, n)] = qid
            if tag == "B":
                attrs = _joined(attrs, node_attrs.pop(n, _NO_ATTRS))
            else:
                attrs = _joined(attrs, c_attrs(n, _NO_ATTRS))
        if attrs:
            new_attrs[qid] = attrs
    node_attrs.update(new_attrs)

    b_ids = {n: qid for (tag, n), qid in ids.items() if tag == "B"}
    moved = {n: qid for n, qid in b_ids.items() if qid != n}
    # every B edge at a touched or renamed node is listed for the check, but
    # only those at a moved node are built again, under the new ids; the
    # others keep their ids and attribute dicts
    succ, pred = b_graph._adjacency()
    listed = {(n, v) for n in b_ids for v in succ.get(n, ())}
    listed.update((u, n) for n in b_ids for u in pred.get(n, ()))
    moved_edges = [e for e in listed if e[0] in moved or e[1] in moved]
    edge_attrs = dict(b_graph.edge_attrs)
    new_edge_attrs: dict[tuple[str, str], dict] = {}
    for (u, v) in sorted(moved_edges):
        e = (moved.get(u, u), moved.get(v, v))
        new_edge_attrs[e] = _joined(
            new_edge_attrs.get(e, _NO_ATTRS), edge_attrs.pop((u, v), _NO_ATTRS)
        )
    # a C edge unites its attributes with those of the apex edge it lands
    # on: one built above, or a carried B edge
    c_attrs = c_graph.edge_attrs.get
    for (u, v) in sorted(c_graph.edges):
        e = (ids[("C", u)], ids[("C", v)])
        united = new_edge_attrs.get(e)
        new_edge_attrs[e] = _joined(
            edge_attrs.get(e, _NO_ATTRS) if united is None else united,
            c_attrs((u, v), _NO_ATTRS),
        )
    edge_attrs.update((e, attrs) for e, attrs in new_edge_attrs.items() if attrs)
    nodes = b_nodes.difference(moved) if moved else b_nodes
    edges = b_graph.edges.difference(moved_edges) if moved_edges else b_graph.edges
    apex = Graph._of(
        nodes.union(assigned), edges.union(new_edge_attrs), node_attrs, edge_attrs
    )
    _carry_orders(b_graph, apex)
    from_b = _Trace(b_graph, apex, b_ids)
    from_c = Homomorphism._of(c_graph, apex, {c: ids[("C", c)] for c in c_graph.nodes})
    listed.difference_update(moved_edges)
    listed.update(new_edge_attrs)
    return PushoutResult(apex, from_b, from_c, tuple(listed), frozenset(moved))


def final_pbc(f: Homomorphism, m: Homomorphism) -> PbcResult:
    """Final pullback complement of f: K→L followed by the mono m: L↣G.

    Implements side-effecting deletion (nodes of L without f-preimage
    disappear from G together with incident edges) and cloning (nodes of L
    with several preimages are duplicated). Clone attributes follow the
    subtractive rule G(g) minus (L(l) minus K(k)), which is the largest
    choice keeping the square a pullback. A copy of a node or edge loses
    nothing, and holds G's dict itself, where its K element carries the
    attributes of its L image, or where it lies over no L element.

    Only the matched part is built element by element: the image of m and
    the edges at it, found in G's cached adjacency lists, once per pair of
    copies of its ends (each matched node's copy list is built once). Every
    other G node keeps its id, its attributes and its edges, copied in
    bulk. The result records the apex edges built at the copies
    (`_rebuilt`): they are all the apex edges at a copy.

    `project` is a `_Trace` whose delta maps each copy to the G node it
    copies; every other apex node is an untouched G node and its own image.
    """
    if f.target != m.source:
        raise CompositionError("final_pbc: arrows not composable")
    if not is_mono(m):
        raise NotMonoError("final_pbc: second arrow must be a mono")
    k_graph, l_graph, g_graph = f.source, f.target, m.target
    f_map, m_map = f.node_map, m.node_map
    matched = {m_map[l] for l in l_graph.nodes}
    preimages: dict[str, list[str]] = {l: [] for l in l_graph.nodes}
    for k in sorted(k_graph.nodes):
        preimages[f_map[k]].append(k)
    untouched = g_graph.nodes.difference(matched)

    # copies of matched nodes; untouched nodes keep their ids and come first
    # in the id order, so a copy id skips them
    assigned: set[str] = set()
    taken = _Taken(assigned, untouched.__contains__)
    node_attrs = dict(g_graph.node_attrs)
    for g in matched:
        node_attrs.pop(g, None)
    g_attrs, l_attrs, k_attrs = (x.node_attrs.get for x in (g_graph, l_graph, k_graph))
    # the copies of each matched G node, as (k, copy id) pairs
    copied: dict[str, list[tuple[str, str]]] = {}
    for l in sorted(l_graph.nodes):
        g = m_map[l]
        copied[g] = []
        for k in preimages[l]:
            base = g if len(preimages[l]) == 1 else f"{g}∥{k}"
            nid = fresh_id(base, taken)
            assigned.add(nid)
            copied[g].append((k, nid))
            attrs = _kept(
                g_attrs(g, _NO_ATTRS), l_attrs(l, _NO_ATTRS), k_attrs(k, _NO_ATTRS)
            )
            if attrs:
                node_attrs[nid] = attrs

    succ, pred = g_graph._adjacency()
    moved_edges = {(g, v) for g in matched for v in succ.get(g, ())}
    moved_edges.update((u, g) for g in matched for u in pred.get(g, ()))
    edges = set(g_graph.edges)
    edges.difference_update(moved_edges)
    edge_attrs = dict(g_graph.edge_attrs)
    # drop them all first: a copy's id may be another matched node's id
    for g_edge in moved_edges:
        edge_attrs.pop(g_edge, None)
    g_attrs, l_attrs, k_attrs = (x.edge_attrs.get for x in (g_graph, l_graph, k_graph))
    rebuilt: list[tuple[str, str]] = []
    # every apex edge lies over a G edge, between copies of its ends: an
    # untouched node is its own copy, a deleted one has none
    for g_edge in moved_edges:
        over = g_attrs(g_edge, _NO_ATTRS)
        u, v = g_edge
        for k1, d1 in copied.get(u, ((None, u),)):
            for k2, d2 in copied.get(v, ((None, v),)):
                attrs = over
                if k1 is not None and k2 is not None:
                    l_edge = (f_map[k1], f_map[k2])
                    if l_edge in l_graph.edges:
                        if (k1, k2) not in k_graph.edges:
                            continue
                        attrs = _kept(
                            over, l_attrs(l_edge, _NO_ATTRS), k_attrs((k1, k2), _NO_ATTRS)
                        )
                rebuilt.append((d1, d2))
                if attrs:
                    edge_attrs[(d1, d2)] = attrs
    edges.update(rebuilt)

    apex = Graph._of(untouched.union(assigned), edges, node_attrs, edge_attrs)
    _carry_orders(g_graph, apex)
    embed = Homomorphism._of(k_graph, apex, {k: d for cs in copied.values() for k, d in cs})
    project = _Trace(apex, g_graph, {d: g for g, cs in copied.items() for _, d in cs})
    return PbcResult(apex, embed, project, tuple(rebuilt))


def image_factorization(f: Homomorphism) -> ImageFactorizationResult:
    """Factor f: A→B through its image subgraph of B.

    The image carries the hit nodes and hit edges with attributes united
    over preimages, making the first factor a homomorphism and the second
    a mono. An element hit once, or only by equal or empty dicts besides
    its first, holds its first preimage's dict itself.
    """
    a_graph, b_graph = f.source, f.target
    a_attrs = a_graph.node_attrs.get
    node_attrs: dict[str, dict] = {}
    for a in sorted(a_graph.nodes):
        node_attrs[f[a]] = _joined(node_attrs.get(f[a], _NO_ATTRS), a_attrs(a, _NO_ATTRS))
    a_attrs = a_graph.edge_attrs.get
    edge_attrs: dict[tuple[str, str], dict] = {}
    for e in sorted(a_graph.edges):
        img = f.edge_image(e)
        edge_attrs[img] = _joined(edge_attrs.get(img, _NO_ATTRS), a_attrs(e, _NO_ATTRS))
    image = Graph._of(
        node_attrs.keys(),
        edge_attrs.keys(),
        {n: attrs for n, attrs in node_attrs.items() if attrs},
        {e: attrs for e, attrs in edge_attrs.items() if attrs},
    )
    restrict = Homomorphism(a_graph, image, dict(f.node_map))
    include = Homomorphism(image, b_graph, {n: n for n in image.nodes})
    return ImageFactorizationResult(image, restrict, include)
