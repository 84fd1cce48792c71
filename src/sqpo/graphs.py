"""Attributed simple directed graphs and their homomorphisms.

Graphs are immutable values: nodes are opaque string ids, edges are ordered
pairs of node ids (self-loops allowed, parallel edges impossible), and every
node or edge may carry set-valued attributes (a mapping from string keys to
finite sets of scalar values). Homomorphisms are total node maps that
preserve edges and satisfy key-wise attribute containment.

All edit operations return new graphs; nothing here mutates in place, so
values can be shared freely across threads. Private caches fill on first
use and never go stale, since nothing changes: a graph's adjacency lists,
sorted node ids, sorted edges and candidate index, and a homomorphism's
preimage lists. A graph may start with a deferred order instead of a
sorted one, which its first reader completes: the ids its file listed, or
the sorted ids of the host a construction changed (`_sorted_ids`).
A homomorphism built as a patch of another records the keys whose image
changed, which lets propagation and the commutativity memo work only where
a rewrite did. A rewrite's trace is the identity except at the nodes the
rewrite touched (`_Trace`), so it holds only those and builds its node map
when read. Copies and pickles hold the values alone and drop every private
cache.
"""

from __future__ import annotations

import json
import weakref
from functools import partial
from itertools import chain, islice
from operator import lt
from typing import Iterable, Iterator, Mapping, Union

from .exceptions import (
    CompositionError,
    GraphElementError,
    InvalidHomomorphism,
)

AttrValue = Union[str, int, bool]
Attrs = dict[str, frozenset]
EdgeId = tuple[str, str]
_EMPTY: frozenset = frozenset()
_NO_ATTRS: Attrs = {}  # never modified


def value_sort_key(value: AttrValue) -> tuple:
    """Total order on attribute values: booleans, then integers, then strings."""
    if isinstance(value, bool):
        return (0, int(value), "")
    if isinstance(value, int):
        return (1, value, "")
    return (2, 0, value)


def _check_value(value) -> AttrValue:
    if not isinstance(value, (str, int, bool)):
        raise GraphElementError(
            f"attribute values must be str, int or bool, got {type(value).__name__}"
        )
    return value


def normalize_attrs(raw: Mapping | None) -> Attrs:
    """Normalize an attribute mapping: freeze value sets, drop empty ones."""
    if not raw:
        return {}
    out: Attrs = {}
    for key in raw:
        values = raw[key]
        if isinstance(values, (str, int, bool)):
            values = [values]
        vs = frozenset(_check_value(v) for v in values)
        if vs:
            out[str(key)] = vs
    return out


def attrs_union(a: Mapping, b: Mapping) -> Attrs:
    out = {k: frozenset(v) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, frozenset()) | frozenset(v)
    return {k: v for k, v in out.items() if v}


def attrs_intersection(a: Mapping, b: Mapping) -> Attrs:
    out = {}
    for k in a.keys() & b.keys():
        vs = frozenset(a[k]) & frozenset(b[k])
        if vs:
            out[k] = vs
    return out


def attrs_difference(a: Mapping, b: Mapping) -> Attrs:
    """Key-wise a minus b, dropping emptied keys."""
    out = {}
    for k, v in a.items():
        vs = frozenset(v) - frozenset(b.get(k, ()))
        if vs:
            out[k] = vs
    return out


def attrs_contained(sub: Attrs, sup: Attrs) -> bool:
    """Key-wise containment of normalized attributes: every value of sub
    appears in sup under the same key."""
    for k, v in sub.items():
        if not v <= sup.get(k, _EMPTY):
            return False
    return True


def fresh_id(base: str, taken) -> str:
    """Deterministic fresh id: base itself, else base with the lowest free counter."""
    if base not in taken:
        return base
    k = 2
    while f"{base}#{k}" in taken:
        k += 1
    return f"{base}#{k}"


class Graph:
    """A finite attributed simple directed graph."""

    __slots__ = (
        "nodes", "edges", "node_attrs", "edge_attrs", "_adjacent", "_order", "_sorted_edges",
        "_index", "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[EdgeId] = (),
        node_attrs: Mapping[str, Mapping] | None = None,
        edge_attrs: Mapping[EdgeId, Mapping] | None = None,
    ):
        object.__setattr__(self, "nodes", frozenset(str(n) for n in nodes))
        object.__setattr__(
            self, "edges", frozenset((str(u), str(v)) for u, v in edges)
        )
        na = {}
        for n, attrs in (node_attrs or {}).items():
            normalized = normalize_attrs(attrs)
            if normalized:
                na[str(n)] = normalized
        ea = {}
        for e, attrs in (edge_attrs or {}).items():
            normalized = normalize_attrs(attrs)
            if normalized:
                ea[(str(e[0]), str(e[1]))] = normalized
        object.__setattr__(self, "node_attrs", na)
        object.__setattr__(self, "edge_attrs", ea)

    @classmethod
    def _of(
        cls,
        nodes: Iterable[str],
        edges: Iterable[EdgeId],
        node_attrs: dict[str, Attrs],
        edge_attrs: dict[EdgeId, Attrs],
    ) -> "Graph":
        """Wrap parts that are already normalized (str ids, non-empty frozenset
        values, no empty attribute dicts), skipping the normalization pass of
        `__init__`; the attribute maps are taken over, not copied."""
        g = object.__new__(cls)
        object.__setattr__(g, "nodes", frozenset(nodes))
        object.__setattr__(g, "edges", frozenset(edges))
        object.__setattr__(g, "node_attrs", node_attrs)
        object.__setattr__(g, "edge_attrs", edge_attrs)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph instances are immutable")

    def __reduce__(self):
        return (Graph._of, (self.nodes, self.edges, self.node_attrs, self.edge_attrs))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.edges == other.edges
            and self.node_attrs == other.node_attrs
            and self.edge_attrs == other.edge_attrs
        )

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges)"

    # -- accessors ---------------------------------------------------------

    def attrs_of(self, element: str | EdgeId) -> Attrs:
        if isinstance(element, tuple):
            return self.edge_attrs.get(element, {})
        return self.node_attrs.get(element, {})

    def _adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Unsorted successor and predecessor lists of every node with an
        edge, built on first use and kept: the graph never changes."""
        try:
            return self._adjacent
        except AttributeError:
            pass
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for (u, v) in self.edges:
            succ.setdefault(u, []).append(v)
            pred.setdefault(v, []).append(u)
        object.__setattr__(self, "_adjacent", (succ, pred))
        return succ, pred

    def _node_order(self) -> list[str]:
        """The node ids in sorted order, built on first use and kept (see
        `_sorted_ids`). Callers only read the list."""
        return _sorted_ids(self, "_order", self.nodes)

    def _edge_order(self) -> list[EdgeId]:
        """The edges in sorted order, built on first use and kept (see
        `_sorted_ids`). Callers only read the list."""
        return _sorted_ids(self, "_sorted_edges", self.edges)

    def _candidate_index(self) -> tuple[list[str], dict[tuple, list[str]]]:
        """The node ids in sorted order and, for each (attribute key, value)
        pair, the nodes carrying it in that order; built on first use and
        kept. Keys compare by Python equality, as `attrs_contained` does, so
        1 and True share a list."""
        try:
            return self._index
        except AttributeError:
            pass
        ordered = self._node_order()
        postings: dict[tuple, list[str]] = {}
        attrs = self.node_attrs.get
        for n in ordered:
            for k, values in attrs(n, _NO_ATTRS).items():
                for v in values:
                    postings.setdefault((k, v), []).append(n)
        object.__setattr__(self, "_index", (ordered, postings))
        return ordered, postings

    def validate(self) -> list[str]:
        """Check the graph invariants; one message per violation, sorted."""
        violations = []
        nodes = self.nodes
        for (u, v) in sorted(e for e in self.edges if not (e[0] in nodes and e[1] in nodes)):
            if u not in nodes:
                violations.append(f"dangling edge ({u},{v}): missing source node {u}")
            if v not in nodes:
                violations.append(f"dangling edge ({u},{v}): missing target node {v}")
        for n in sorted(self.node_attrs.keys() - nodes):
            violations.append(f"attributes on unknown node {n}")
        for e in sorted(self.edge_attrs.keys() - self.edges):
            violations.append(f"attributes on unknown edge ({e[0]},{e[1]})")
        return violations

    # -- primitive edits ---------------------------------------------------

    def add_node(self, n: str, attrs: Mapping | None = None) -> "Graph":
        n = str(n)  # as the constructor coerces it
        if n in self.nodes:
            raise GraphElementError(f"node id collision: {n}")
        return Graph(
            self.nodes | {n},
            self.edges,
            {**self.node_attrs, n: attrs or {}},
            self.edge_attrs,
        )

    def add_edge(self, u: str, v: str, attrs: Mapping | None = None) -> "Graph":
        u, v = str(u), str(v)  # as the constructor coerces them
        if u not in self.nodes or v not in self.nodes:
            raise GraphElementError(f"add_edge({u},{v}): unknown endpoint")
        if (u, v) in self.edges:
            raise GraphElementError(f"edge ({u},{v}) already exists")
        return Graph(
            self.nodes,
            self.edges | {(u, v)},
            self.node_attrs,
            {**self.edge_attrs, (u, v): attrs or {}},
        )

    def delete_node(self, n: str) -> "Graph":
        """Remove a node together with all incident edges (side-effect deletion)."""
        if n not in self.nodes:
            raise GraphElementError(f"delete_node: unknown node {n}")
        keep = {e for e in self.edges if n not in e}
        return Graph(
            self.nodes - {n},
            keep,
            {k: v for k, v in self.node_attrs.items() if k != n},
            {e: v for e, v in self.edge_attrs.items() if e in keep},
        )

    def delete_edge(self, u: str, v: str) -> "Graph":
        if (u, v) not in self.edges:
            raise GraphElementError(f"delete_edge: unknown edge ({u},{v})")
        return Graph(
            self.nodes,
            self.edges - {(u, v)},
            self.node_attrs,
            {e: a for e, a in self.edge_attrs.items() if e != (u, v)},
        )

    def clone_node(self, n: str, copy1: str, copy2: str) -> "Graph":
        """Replace n by two copies carrying its attributes and incident edges.

        A self-loop on n yields loops on both copies plus both cross edges.
        """
        if n not in self.nodes:
            raise GraphElementError(f"clone_node: unknown node {n}")
        copy1, copy2 = str(copy1), str(copy2)  # as the constructor coerces them
        if copy1 == copy2:
            raise GraphElementError("clone_node: copies need distinct ids")
        for c in (copy1, copy2):
            if c in self.nodes - {n}:
                raise GraphElementError(f"clone_node: id collision {c}")
        copies = (copy1, copy2)

        def expand(x):
            return copies if x == n else (x,)

        edges = set()
        edge_attrs = {}
        for (u, v) in self.edges:
            for uu in expand(u):
                for vv in expand(v):
                    edges.add((uu, vv))
                    attrs = self.edge_attrs.get((u, v))
                    if attrs:
                        edge_attrs[(uu, vv)] = attrs
        node_attrs = {k: v for k, v in self.node_attrs.items() if k != n}
        if n in self.node_attrs:
            node_attrs[copy1] = self.node_attrs[n]
            node_attrs[copy2] = self.node_attrs[n]
        return Graph((self.nodes - {n}) | set(copies), edges, node_attrs, edge_attrs)

    def merge_nodes(self, group: Iterable[str], new_id: str) -> "Graph":
        """Fuse a set of nodes: attributes united, incident edges redirected."""
        group = set(group)
        unknown = group - self.nodes
        if unknown:
            raise GraphElementError(f"merge_nodes: unknown nodes {sorted(unknown)}")
        if not group:
            raise GraphElementError("merge_nodes: empty group")
        new_id = str(new_id)  # as the constructor coerces it
        if new_id in self.nodes - group:
            raise GraphElementError(f"merge_nodes: id collision {new_id}")

        def rename(x):
            return new_id if x in group else x

        edges = set()
        edge_attrs: dict[EdgeId, Attrs] = {}
        for (u, v) in self.edges:
            e = (rename(u), rename(v))
            edges.add(e)
            attrs = self.edge_attrs.get((u, v))
            if attrs:
                edge_attrs[e] = attrs_union(edge_attrs.get(e, {}), attrs)
        merged_attrs: Attrs = {}
        for n in group:
            merged_attrs = attrs_union(merged_attrs, self.node_attrs.get(n, {}))
        node_attrs = {k: v for k, v in self.node_attrs.items() if k not in group}
        if merged_attrs:
            node_attrs[new_id] = merged_attrs
        return Graph((self.nodes - group) | {new_id}, edges, node_attrs, edge_attrs)

    def add_attrs(self, element: str | EdgeId, attrs: Mapping) -> "Graph":
        self._check_element(element)
        new = normalize_attrs(attrs)
        if isinstance(element, tuple):
            merged = attrs_union(self.edge_attrs.get(element, {}), new)
            return Graph(self.nodes, self.edges, self.node_attrs,
                         {**self.edge_attrs, element: merged})
        merged = attrs_union(self.node_attrs.get(element, {}), new)
        return Graph(self.nodes, self.edges, {**self.node_attrs, element: merged},
                     self.edge_attrs)

    def remove_attrs(self, element: str | EdgeId, attrs: Mapping) -> "Graph":
        self._check_element(element)
        drop = normalize_attrs(attrs)
        if isinstance(element, tuple):
            left = attrs_difference(self.edge_attrs.get(element, {}), drop)
            edge_attrs = {e: a for e, a in self.edge_attrs.items() if e != element}
            if left:
                edge_attrs[element] = left
            return Graph(self.nodes, self.edges, self.node_attrs, edge_attrs)
        left = attrs_difference(self.node_attrs.get(element, {}), drop)
        node_attrs = {n: a for n, a in self.node_attrs.items() if n != element}
        if left:
            node_attrs[element] = left
        return Graph(self.nodes, self.edges, node_attrs, self.edge_attrs)

    def _check_element(self, element):
        if isinstance(element, tuple):
            if element not in self.edges:
                raise GraphElementError(f"unknown edge {element}")
        elif element not in self.nodes:
            raise GraphElementError(f"unknown node {element}")


# A graph's sorted node ids and its sorted edges sit in a slot each
# (`_order`, `_sorted_edges`). Until a reader needs the list, a slot may hold
# a deferred order, which holds lists and sets of ids but never a graph:
#
# * a `_Listed`: the ids as the graph's file listed them (`graph_from_json`),
#   kept if strictly increasing and sorted otherwise;
# * a (host order, ids) pair that `pushout` and `final_pbc` leave their
#   apex when their host holds its order as a list (`_carry_orders`): the
#   host's order without the ids gone, merged with the new ids sorted.
#
# Either costs a linear pass where a sort would cost n log n comparisons,
# and either is completed by its first reader; racing readers build equal
# lists. A carried pair is not carried on, so no chain of rewrites grows one.


class _Listed(list):
    """The ids of a graph as its file listed them: a deferred order."""

    __slots__ = ()


def _sorted_ids(g: Graph, slot: str, ids: frozenset) -> list:
    """`ids`, g's nodes or edges, in sorted order: the list in g's `slot`,
    built on first use from the deferred order there, if any, else by
    sorting, and kept."""
    order = getattr(g, slot, None)
    if type(order) is list:
        return order
    if order is None:
        order = sorted(ids)
    elif type(order) is _Listed:
        order = _checked_order(order)
    else:
        order = _carried_order(*order)
    object.__setattr__(g, slot, order)
    return order


def _checked_order(listed: _Listed) -> list:
    """The ids a file listed, in sorted order without repeats: the list
    itself if strictly increasing."""
    if all(map(lt, listed, islice(listed, 1, None))):
        return list(listed)
    return sorted(set(listed))


def _carried_order(host: list, ids: frozenset) -> list:
    """`ids` in sorted order, from `host`, the sorted ids of a graph that
    shares most of them (or a `_Listed` of them): host without the ids
    that are gone, merged with the sorted new ones."""
    if type(host) is _Listed:
        host = _checked_order(host)
    order = [x for x in host if x in ids]
    if len(order) < len(ids):
        order += sorted(ids.difference(order))
        order.sort()  # one merge of two sorted runs
    return order


def _carry_orders(host: Graph, apex: Graph) -> None:
    """Leave apex, a graph built from host by changing a few of its nodes
    and edges, a deferred order of each kind that host holds as a list."""
    order = getattr(host, "_order", None)
    if isinstance(order, list):
        object.__setattr__(apex, "_order", (order, apex.nodes))
    order = getattr(host, "_sorted_edges", None)
    if isinstance(order, list):
        object.__setattr__(apex, "_sorted_edges", (order, apex.edges))


class Homomorphism:
    """A structure-preserving node map between two graphs."""

    __slots__ = ("source", "target", "node_map", "_patch", "_inverse", "__weakref__")

    def __init__(self, source: Graph, target: Graph, node_map: Mapping[str, str]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(
            self, "node_map", {str(k): str(v) for k, v in node_map.items()}
        )

    @classmethod
    def _of(cls, source: Graph, target: Graph, node_map: dict[str, str]) -> "Homomorphism":
        """Wrap a node map whose keys and values are already str, skipping
        the conversion pass of `__init__`; the map is taken over, not copied."""
        h = object.__new__(cls)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "target", target)
        object.__setattr__(h, "node_map", node_map)
        return h

    @classmethod
    def _patched(
        cls, old: "Homomorphism", source: Graph, target: Graph, updates: dict[str, str], keys
    ) -> "Homomorphism":
        """old's node map re-set at `keys`: a key takes its value in
        `updates`, or is dropped when `updates` lacks it; every other key
        keeps old's image. The map is a C-level copy of old's, or old's own
        when no image changes (maps are never modified). Records the keys
        whose image really changed (see `_changes_since`) and holds old only
        weakly, so a chain of patches does not keep its ancestors alive."""
        node_map, changed = old.node_map, []
        for k in keys:
            now = updates.get(k)
            if node_map.get(k) != now:
                if not changed:
                    node_map = dict(node_map)
                changed.append(k)
                if now is None:
                    del node_map[k]
                else:
                    node_map[k] = now
        h = cls._of(source, target, node_map)
        object.__setattr__(h, "_patch", (weakref.ref(old), frozenset(changed)))
        return h

    def _changes_since(self, old: "Homomorphism") -> frozenset | None:
        """The keys at which this map may differ from old's: the keys
        `_patched` re-set if it was patched from old (while old is alive),
        else None, as for old itself, which no caller passes (propagation
        replaces arrows by new maps); unknown keys are merely conservative."""
        record = getattr(self, "_patch", None)
        if record is None or record[0]() is not old:
            return None
        return record[1]

    def _preimages(self) -> dict[str, list[str]]:
        """For each image, the source nodes that map to it; built on first
        use and kept."""
        try:
            return self._inverse
        except AttributeError:
            pass
        node_map = self.node_map
        inverse: dict[str, list[str]] = {}
        for n in self.source.nodes:
            inverse.setdefault(node_map[n], []).append(n)
        object.__setattr__(self, "_inverse", inverse)
        return inverse

    def __setattr__(self, name, value):
        raise AttributeError("Homomorphism instances are immutable")

    def __reduce__(self):
        return (Homomorphism._of, (self.source, self.target, self.node_map))

    def __getitem__(self, node: str) -> str:
        return self.node_map[node]

    def __eq__(self, other):
        if not isinstance(other, Homomorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return all(self.node_map[n] == other.node_map[n] for n in self.source.nodes)

    def __hash__(self):  # over what __eq__ reads: the images of the source's nodes
        nodes = self.source.nodes
        return hash(frozenset(zip(nodes, map(self.node_map.get, nodes))))

    def __repr__(self):
        items = ", ".join(f"{k}→{v}" for k, v in sorted(self.node_map.items()))
        return f"Homomorphism({{{items}}})"

    def edge_image(self, edge: EdgeId) -> EdgeId:
        return (self.node_map[edge[0]], self.node_map[edge[1]])

    def validate(self) -> None:
        """Raise InvalidHomomorphism unless this is a valid homomorphism."""
        problem = homomorphism_violation(self)
        if problem is not None:
            raise InvalidHomomorphism(problem)


class _Trace(Homomorphism):
    """The identity on its source's nodes except at the keys of `delta`,
    which are source nodes: the trace of a rewrite step, which keeps every
    node it does not touch. It holds only `delta`, so a step costs what it
    touches; indexing reads through it, and `node_map` is built on its
    first read and kept. Two racing readers build equal maps."""

    __slots__ = ("_delta",)

    def __init__(self, source: Graph, target: Graph, delta: dict[str, str]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_delta", delta)

    def __getattr__(self, name):  # only reached while a slot is unset
        if name != "node_map":
            raise AttributeError(f"'_Trace' object has no attribute '{name}'")
        node_map = {n: n for n in self.source.nodes}
        node_map.update(self._delta)
        object.__setattr__(self, "node_map", node_map)
        return node_map

    def __getitem__(self, node: str) -> str:
        image = self._delta.get(node)
        if image is not None:
            return image
        if node in self.source.nodes:
            return node
        raise KeyError(node)

    def __reduce__(self):
        return (_Trace, (self.source, self.target, self._delta))


def homomorphism_violation(h: Homomorphism) -> str | None:
    """First reason h fails to be a homomorphism, or None if it is one.

    The checks run at C level first: every source node has an image in
    the target and no other node has one, every source edge's image is a
    target edge, and every attribute dict equals its image's. Only what
    fails them is walked in Python, where each check collects its
    offenders in one unsorted pass and reports the smallest: the whole map
    after a failed node or edge check, the attribute dicts after a failed
    equality (a dict contained in its image but not equal to it passes).
    So the message names the first violation in sorted element order, and
    nothing is sorted on the valid path.
    """
    source, target, node_map = h.source, h.target, h.node_map
    nodes, get = source.nodes, node_map.get
    ends = map(get, chain.from_iterable(source.edges))
    if not (
        len(node_map) == len(nodes)
        and target.nodes.issuperset(map(get, nodes))
        and target.edges.issuperset(zip(ends, ends))
    ):
        return _violation(h, nodes, source.edges, node_map, everywhere=True)
    node_attrs, edge_attrs = source.node_attrs, source.edge_attrs
    ends = map(get, chain.from_iterable(edge_attrs))
    # list equality compares each pair by identity first: a loaded file and
    # the constructions share equal attribute dicts
    if (
        not node_attrs
        or list(node_attrs.values()) == list(map(target.node_attrs.get, map(get, node_attrs)))
    ) and (
        not edge_attrs
        or list(edge_attrs.values()) == list(map(target.edge_attrs.get, zip(ends, ends)))
    ):
        return None
    return _attrs_violation(h, node_attrs.items(), edge_attrs.items())


def _violation_at(h: Homomorphism, nodes, edges, keys) -> str | None:
    """`homomorphism_violation` restricted to the source nodes `nodes`, the
    source edges `edges` and the map keys `keys`. It gives the full check's
    answer whenever every violation lies there: the caller must know that
    every other node keeps a valid image and every other edge a valid image
    edge."""
    return _violation(h, nodes, edges, keys, everywhere=False)


def _violation(h: Homomorphism, nodes, edges, keys, everywhere: bool) -> str | None:
    source, target, node_map = h.source, h.target, h.node_map
    bad = [n for n in nodes if n not in node_map or node_map[n] not in target.nodes]
    if bad:
        n = min(bad)
        if n not in node_map:
            return f"map not total: node {n} has no image"
        return f"node {n} maps to unknown node {node_map[n]}"
    bad = [n for n in keys if n not in source.nodes and n in node_map]
    if bad:
        return f"map defined on unknown node {min(bad)}"
    get = node_map.get
    bad = [e for e in edges if (get(e[0]), get(e[1])) not in target.edges]
    if bad:
        e = min(bad)
        h.edge_image(e)  # raises KeyError if e dangles off an unmapped node
        return f"edge ({e[0]},{e[1]}) has no image edge"
    if everywhere:  # every attribute dict, without a lookup per element
        return _attrs_violation(h, source.node_attrs.items(), source.edge_attrs.items())
    na, ea = source.node_attrs, source.edge_attrs
    return _attrs_violation(
        h, [(n, na[n]) for n in nodes if n in na], [(e, ea[e]) for e in edges if e in ea]
    )


def _attrs_violation(h: Homomorphism, node_attrs, edge_attrs) -> str | None:
    """The smallest node, else the smallest edge, of the (element,
    attribute dict) pairs given whose dict is not contained in its image's,
    for an h whose nodes and edges all have images."""
    source, target, node_map = h.source, h.target, h.node_map
    # equal attributes are contained: the common case costs one comparison
    image_attrs = target.node_attrs.get
    bad = [
        n
        for n, attrs in node_attrs
        if n in source.nodes
        and attrs != (image := image_attrs(node_map[n], _NO_ATTRS))
        and not attrs_contained(attrs, image)
    ]
    if bad:
        return f"attributes of node {min(bad)} not contained in its image"
    image_attrs = target.edge_attrs.get
    bad = [
        e
        for e, attrs in edge_attrs
        if e in source.edges
        and attrs != (image := image_attrs(h.edge_image(e), _NO_ATTRS))
        and not attrs_contained(attrs, image)
    ]
    if bad:
        e = min(bad)
        return f"attributes of edge ({e[0]},{e[1]}) not contained in its image"
    return None


def is_homomorphism(h: Homomorphism) -> bool:
    return homomorphism_violation(h) is None


def is_mono(h: Homomorphism) -> bool:
    """Homomorphism with an injective node map."""
    if not is_homomorphism(h):
        return False
    images = set(h.node_map[n] for n in h.source.nodes)
    return len(images) == len(h.source.nodes)


def is_epi(h: Homomorphism) -> bool:
    """Surjective on nodes and edges, with every target attribute value covered."""
    if not is_homomorphism(h):
        return False
    if {h[n] for n in h.source.nodes} != h.target.nodes:
        return False
    if {h.edge_image(e) for e in h.source.edges} != h.target.edges:
        return False
    covered_nodes: dict[str, Attrs] = {}
    for n in h.source.nodes:
        covered_nodes[h[n]] = attrs_union(
            covered_nodes.get(h[n], {}), h.source.attrs_of(n)
        )
    for t, attrs in h.target.node_attrs.items():
        if not attrs_contained(attrs, covered_nodes.get(t, {})):
            return False
    covered_edges: dict[EdgeId, Attrs] = {}
    for e in h.source.edges:
        img = h.edge_image(e)
        covered_edges[img] = attrs_union(covered_edges.get(img, {}), h.source.attrs_of(e))
    for e, attrs in h.target.edge_attrs.items():
        if not attrs_contained(attrs, covered_edges.get(e, {})):
            return False
    return True


def identity(g: Graph) -> Homomorphism:
    return Homomorphism._of(g, g, {n: n for n in g.nodes})


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    """The composite g∘f (apply f first)."""
    if f.target != g.source:
        raise CompositionError("compose: f.target differs from g.source")
    gm, fm = g.node_map, f.node_map
    return Homomorphism._of(f.source, g.target, {n: gm[fm[n]] for n in f.source.nodes})


def hom_equal(f: Homomorphism, g: Homomorphism) -> bool:
    """Extensional equality of node maps between equal endpoints."""
    if f.source != g.source or f.target != g.target:
        raise CompositionError("hom_equal: endpoints differ")
    return all(f.node_map[n] == g.node_map[n] for n in f.source.nodes)


def homomorphism_maps(
    pattern: Graph,
    host: Graph,
    candidates: Mapping[str, list[str]],
    injective: bool,
) -> Iterator[dict[str, str]]:
    """Node maps pattern→host that send every pattern edge onto a host edge
    with key-wise attribute containment, each node's image drawn from its
    sorted candidate list; yielded in lexicographic order over the sorted
    pattern nodes. Node attributes are for the caller to filter into the
    candidates (`rules._iter_matches` draws them from the host's
    `_candidate_index`); the lists are read, never modified.

    A VF2-style backtracking search (Cordella et al. 2004): each pattern
    node checks only its edges to earlier nodes, and its candidates narrow
    to the host neighbours of an earlier node's image when those are fewer.
    With `injective`, images are distinct and a candidate with fewer in- or
    out-edges than its pattern node is pruned up front.

    Pruning and narrowing read the host's cached adjacency lists. When the
    pattern has no edge or no node has two candidates (a fully anchored
    match) they cannot change the result, so the host is not indexed.
    """
    no_nodes: list[str] = []
    narrow = bool(pattern.edges) and any(len(candidates[n]) > 1 for n in pattern.nodes)
    g_succ, g_pred = host._adjacency() if narrow else ({}, {})
    p_out: dict[str, int] = {}
    p_in: dict[str, int] = {}
    for (u, v) in pattern.edges:
        p_out[u] = p_out.get(u, 0) + 1
        p_in[v] = p_in.get(v, 0) + 1

    order = sorted(pattern.nodes)
    options: dict[str, list[str]] = {}
    for n in order:
        opts = candidates[n]
        if (n, n) in pattern.edges:
            opts = [c for c in opts if (c, c) in host.edges]
        n_out, n_in = p_out.get(n, 0), p_in.get(n, 0)
        if narrow and injective and (n_out or n_in):
            opts = [
                c
                for c in opts
                if n_out <= len(g_succ.get(c, no_nodes)) and n_in <= len(g_pred.get(c, no_nodes))
            ]
        options[n] = opts

    # for each pattern node, its edges to earlier nodes in the search order:
    # (earlier node, pattern edge, host-side adjacency of the earlier image,
    # whether the node is the edge's source); self-loops are checked apart
    position = {n: i for i, n in enumerate(order)}
    links: dict[str, list] = {n: [] for n in order}
    for (u, v) in pattern.edges:
        if u == v or u not in position or v not in position:
            continue
        if position[u] < position[v]:
            links[v].append((u, (u, v), g_succ, False))
        else:
            links[u].append((v, (u, v), g_pred, True))
    allowed = {n: set(options[n]) for n in order if links[n]}

    assignment: dict[str, str] = {}
    used: set[str] = set()

    def fits(n: str, c: str) -> bool:
        for p_node, edge, _, n_is_source in links[n]:
            img = assignment[p_node]
            host_edge = (c, img) if n_is_source else (img, c)
            if host_edge not in host.edges:
                return False
            if not attrs_contained(pattern.attrs_of(edge), host.attrs_of(host_edge)):
                return False
        return (n, n) not in pattern.edges or attrs_contained(
            pattern.attrs_of((n, n)), host.attrs_of((c, c))
        )

    def choices(n: str) -> Iterator[str]:
        """n's options, narrowed to the host neighbours of an earlier node's
        image when those are fewer."""
        opts = options[n]
        if not narrow:
            return iter(opts)
        nearest = None
        for p_node, _, adjacency, _ in links[n]:
            near = adjacency.get(assignment[p_node], no_nodes)
            if len(near) < len(opts) and (nearest is None or len(near) < len(nearest)):
                nearest = near
        if nearest is not None:
            opts = sorted(c for c in nearest if c in allowed[n])
        return iter(opts)

    if not order:
        yield {}
        return
    # depth first over a stack of candidate iterators, one per node in order;
    # the node on top drops its image before it tries its next candidate
    stack = [choices(order[0])]
    while stack:
        n = order[len(stack) - 1]
        used.discard(assignment.pop(n, None))
        for c in stack[-1]:
            if not (injective and c in used) and fits(n, c):
                assignment[n] = c
                used.add(c)
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            yield dict(assignment)
        else:
            stack.append(choices(order[len(stack)]))


# -- JSON format ------------------------------------------------------------


def attrs_to_json(attrs: Mapping) -> dict:
    return {
        k: sorted(attrs[k], key=value_sort_key) for k in sorted(attrs)
    }


def attrs_from_json(obj: Mapping) -> Attrs:
    if not isinstance(obj, dict):
        raise TypeError(f"attributes must be an object, not {type(obj).__name__}")
    out = {}
    for k in obj:
        raw = obj[k]
        if not isinstance(raw, list):
            raise _located(GraphElementError, (k,), f"attribute {k}: expected a list of values")
        try:
            values = frozenset(map(_check_value, raw))
        except GraphElementError as exc:
            i = next(i for i, v in enumerate(raw) if not isinstance(v, (str, int, bool)))
            raise _located(GraphElementError, (k, i), str(exc)) from exc
        # sets fuse values that are equal under Python equality (1 == True),
        # which would break byte-exact round-trips; reject them up front
        if len(values) != len(raw):
            raise _located(
                GraphElementError,
                (k,),
                f"attribute {k}: duplicate (or boolean/integer-colliding) value",
            )
        if values:
            out[str(k)] = values
    return out


def graph_to_json(g: Graph, shared: dict | None = None) -> dict:
    """g as JSON, with one JSON object per attribute dict: `shared` maps its
    `id()` to it. A caller writing several graphs may pass them one map if
    it keeps them all alive meanwhile, so that no id is reused."""
    shared = {} if shared is None else shared
    nodes = []
    node_attrs, edge_attrs = g.node_attrs.get, g.edge_attrs.get
    for n in g._node_order():
        entry: dict = {"id": n}
        if attrs := node_attrs(n):  # attribute JSON is never empty
            entry["attrs"] = shared.get(id(attrs)) or shared.setdefault(id(attrs), attrs_to_json(attrs))
        nodes.append(entry)
    edges = []
    for e in g._edge_order():
        entry = {"from": e[0], "to": e[1]}
        if attrs := edge_attrs(e):
            entry["attrs"] = shared.get(id(attrs)) or shared.setdefault(id(attrs), attrs_to_json(attrs))
        edges.append(entry)
    return {"nodes": nodes, "edges": edges}


def json_shape_message(what: str, exc: Exception) -> str:
    """Message for a JSON value of the wrong shape: a missing key, or a
    list, string or number where an object was expected (and vice versa)."""
    if isinstance(exc, KeyError):
        return f"malformed {what}: missing key {exc.args[0]!r}"
    return f"malformed {what}: {getattr(exc, 'detail', exc)}"


def _located(error: type, path: tuple, detail: str) -> Exception:
    """`error` about the JSON value at `path`, a tuple of object keys and
    list indices: its message is the path, as in `graphs.G.nodes[3]`, a
    colon and `detail`. The path and the detail stay on the exception, so
    a loader that read the value from inside a larger document can re-raise
    it with the longer path (`_relocated`)."""
    text = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path).removeprefix(".")
    exc = error(f"{text}: {detail}" if text else detail)
    exc.json_path, exc.detail = path, detail
    return exc


def _relocated(error: type, path: tuple, exc: Exception, what: str, context: str = "") -> Exception:
    """`exc`, raised while loading the `what` at JSON path `path`, as an
    `error` located there with `context` before its detail. A value of the
    wrong shape (KeyError, TypeError, AttributeError) is described by
    `json_shape_message`; an error a nested loader located keeps its detail
    and adds its own path to `path`."""
    if isinstance(exc, (KeyError, TypeError, AttributeError)):
        detail = json_shape_message(what, exc)
    else:
        detail = getattr(exc, "detail", str(exc))
    return _located(error, path + getattr(exc, "json_path", ()), context + detail)


def _node_map_from_json(raw: Mapping, what: str) -> dict[str, str]:
    """A node map read from JSON, whose images must be JSON strings (a
    library constructor would coerce them with str()); raises TypeError
    naming `what` and the entry, located at the entry's key, otherwise.
    JSON object keys are always strings, so a copy of the map can back a
    `Homomorphism._of`. The images of a dict are checked at C level; only
    a map that fails the check is walked, to name its first offender."""
    if type(raw) is dict and _all_str(raw.values()):
        return dict(raw)
    for k, v in raw.items():
        if not isinstance(v, str):
            raise _located(TypeError, (k,), f"{what} maps {k} to {json.dumps(v)}, not to a node id")
    return dict(raw)


def _all_str(values) -> bool:
    """Whether every value is a str (not of a subclass), checked at C level."""
    return {*map(type, values)} <= {str}


def _memo_key(raw):
    """The key of a raw attribute value in `graph_from_json`'s memo: the
    (key, value) pair of the common shape, one str key with a list of one
    str value, and the repr of any other. Two values that `json.load` made
    get equal keys exactly when their reprs are equal: a pair never equals
    a repr, and two pairs are equal only when their texts are."""
    if type(raw) is dict and len(raw) == 1:
        for k, values in raw.items():
            if type(k) is str and type(values) is list and len(values) == 1 and type(values[0]) is str:
                return k, values[0]
    return repr(raw)


def graph_from_json(obj: Mapping, memo: dict | None = None) -> Graph:
    """Load a graph. A malformed node, edge or attribute value raises
    GraphElementError naming its JSON path (`nodes[3]: ...`); an edge off
    the listed nodes raises it listing every such violation, at the path of
    the first entry of the first such edge in sorted order (`edges[4]`).

    Equal raw attribute values are checked once and share one dict: `memo`,
    one per document, holds each valid value by `_memo_key`, which tells
    `[1]`, `[true]`, `["1"]` and `[1.0]` apart where equality would not.

    One pass reads the rows and keeps no JSON path; then one C-level check
    each finds the node ids all str and the edge endpoints all listed. Any
    failure loads the graph again by `_graph_walk`, which locates and words
    the first problem."""
    memo = {} if memo is None else memo
    try:
        nodes, node_attrs = _Listed(), {}
        for entry in obj.get("nodes", []):
            nodes.append(n := entry["id"])
            if "attrs" in entry:
                if (attrs := memo.get(key := _memo_key(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = attrs_from_json(raw)
                if attrs:
                    node_attrs[n] = attrs
                else:  # an empty dict would break `Graph._of`'s precondition
                    node_attrs.pop(n, None)
        edges, edge_attrs = _Listed(), {}
        for entry in obj.get("edges", []):
            edges.append(e := (entry["from"], entry["to"]))
            if "attrs" in entry:
                if (attrs := memo.get(key := _memo_key(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = attrs_from_json(raw)
                if attrs:
                    edge_attrs[e] = attrs
                else:
                    edge_attrs.pop(e, None)
        node_set = frozenset(nodes)
        # ids all str, so an endpoint in node_set is a str id too
        loaded = _all_str(nodes) and node_set.issuperset(chain.from_iterable(edges))
    except (KeyError, TypeError, AttributeError, RecursionError, GraphElementError):
        loaded = False  # the walk raises on the first problem, with its path
    if not loaded:
        return _graph_walk(obj, memo)
    g = Graph._of(node_set, edges, node_attrs, edge_attrs)
    object.__setattr__(g, "_order", nodes)  # deferred orders: see `_sorted_ids`
    object.__setattr__(g, "_sorted_edges", edges)
    return g


def _graph_walk(obj: Mapping, memo: dict) -> Graph:
    """`graph_from_json` row by row, keeping the JSON path of the value it
    reads, so that the first problem raises located there."""
    where: tuple = ()
    try:
        nodes = _Listed()
        node_attrs = {}
        for i, entry in enumerate(obj.get("nodes", [])):
            where = ("nodes", i)
            n = entry["id"]
            if not isinstance(n, str):
                raise TypeError(f"node id {json.dumps(n)} is not a string")
            nodes.append(n)
            if "attrs" in entry:
                where = ("nodes", i, "attrs")
                if (attrs := memo.get(key := _memo_key(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = attrs_from_json(raw)
                if attrs:
                    node_attrs[n] = attrs
                else:
                    node_attrs.pop(n, None)
        edges = _Listed()
        edge_attrs = {}
        for i, entry in enumerate(obj.get("edges", [])):
            where = ("edges", i)
            e = (entry["from"], entry["to"])
            if not (isinstance(e[0], str) and isinstance(e[1], str)):
                raise TypeError(f"edge {json.dumps(list(e))} has an endpoint that is not a string")
            edges.append(e)
            if "attrs" in entry:
                where = ("edges", i, "attrs")
                if (attrs := memo.get(key := _memo_key(raw := entry["attrs"]))) is None:
                    attrs = memo[key] = attrs_from_json(raw)
                if attrs:
                    edge_attrs[e] = attrs
                else:
                    edge_attrs.pop(e, None)
    except (KeyError, TypeError, AttributeError, GraphElementError) as exc:
        raise _relocated(GraphElementError, where, exc, "graph") from exc
    g = Graph._of(nodes, edges, node_attrs, edge_attrs)
    problems = g.validate()
    if problems:  # only dangling edges: attributes sit on listed elements
        first = min(e for e in edges if not (e[0] in g.nodes and e[1] in g.nodes))
        raise _located(
            GraphElementError, ("edges", edges.index(first)), "invalid graph: " + "; ".join(problems)
        )
    object.__setattr__(g, "_order", nodes)
    object.__setattr__(g, "_sorted_edges", edges)
    return g


_encode_str = json.encoder.encode_basestring


class _Leaf(partial):
    """A value of a tree for `_dumps` that writes its own text: `_dumps`
    calls it with the line break and indentation of its line. The CLI's
    writers put a graph (`_graph_text`) or a node map (`_map_text`) in
    their trees as one."""

    __slots__ = ()


def dumps_canonical(obj) -> str:
    """Canonical JSON text: exactly the bytes of `json.dumps(obj, indent=2,
    ensure_ascii=False)` followed by a newline, for every value made of
    dicts with str keys (in their insertion order: callers sort keys by
    construction), lists, tuples, str, int, bool and None; a `_Leaf` is
    written by calling it, and anything else raises TypeError.

    `indent` makes CPython fall back to its pure-Python encoder, so the
    text is joined here instead: strings are escaped by the C
    `json.encoder.encode_basestring` the stdlib uses for
    `ensure_ascii=False`, ints by `int.__repr__`, and each container is one
    join over its members, with `{}` and `[]` for empty ones. A list joins
    its dict members (rows) itself, and caches the text of their non-str
    values by (id, indentation): a value that many rows share is encoded
    once per depth. obj outlives the call's cache, so no id is reused."""
    return _dumps(obj, "\n", {}) + "\n"


def _dumps(obj, newline: str, texts: dict) -> str:
    """obj's indent=2 text; `newline` is a line break plus the indentation
    of obj's own line, which its members indent two spaces past."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + (_encode_str(v) if type(v) is str else _dumps(v, inner, texts))
            for k, v in obj.items()
        ]) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        row_inner = inner + "  "
        heads: dict = {}  # each row key's text, with the separator before it
        members = []
        for v in obj:
            if type(v) is str:
                members.append(_encode_str(v))
            elif type(v) is dict and v:
                row = ""
                for k, x in v.items():
                    if (head := heads.get(k)) is None:
                        head = heads[k] = "," + row_inner + _encode_str(k) + ": "
                    if type(x) is str:
                        text = _encode_str(x)
                    elif (text := texts.get((id(x), row_inner))) is None:
                        text = texts[id(x), row_inner] = _dumps(x, row_inner, texts)
                    row += head + text
                members.append("{" + row[1:] + inner + "}")
            else:
                members.append(_dumps(v, inner, texts))
        return "[" + inner + ("," + inner).join(members) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if type(obj) is _Leaf:
        return obj(newline)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _map_text(hom: Homomorphism, newline: str, texts: dict | None = None) -> str:
    """`_dumps` of hom's node map over its source's sorted node ids, in one
    call of the C encoder: without `indent` it joins the members with any
    separator, so the separator carries the line break and the indentation.

    `texts`, if given, maps the `id()` of each hom already written to its
    line break and text, so that a caller writing one map twice (as both
    files of a `sqpo rewrite` do) encodes it once and keeps the hom alive
    meanwhile. At another depth the text is the kept one with each line
    break and its indentation replaced: the encoder escapes every control
    character inside a string, so a raw line break only starts a separator
    or the closing line."""
    if texts is not None and (known := texts.get(id(hom))) is not None:
        at, text = known
        return text if at == newline else text.replace(at, newline)
    nodes = hom.source._node_order()
    if not nodes:
        return "{}"
    m, inner = hom.node_map, newline + "  "
    text = json.dumps({k: m[k] for k in nodes}, ensure_ascii=False, separators=("," + inner, ": "))
    text = "{" + inner + text[1:-1] + newline + "}"
    if texts is not None:
        texts[id(hom)] = newline, text
    return text


def _graph_text(g: Graph, newline: str, attr_texts: dict) -> str:
    """`_dumps(graph_to_json(g), newline, ...)`, one f-string per row and no
    row dicts. `attr_texts` maps the `id()` of each attribute dict to its
    text at the rows' depth and fills as rows need it: a caller writing
    several graphs at one depth may pass them one map if it keeps them all
    alive meanwhile, so that no id is reused."""
    inner = newline + "  "
    rows = inner + "  "
    fields = rows + "  "
    sep, end = "," + rows, rows + "}"
    id_head, from_head = "{" + fields + '"id": ', "{" + fields + '"from": '
    to_sep, attrs_sep = "," + fields + '"to": ', "," + fields + '"attrs": '

    def attrs_text(attrs) -> str:
        if (text := attr_texts.get(id(attrs))) is None:
            text = attr_texts[id(attrs)] = _dumps(attrs_to_json(attrs), fields, {})
        return text

    enc, node_attrs, edge_attrs = _encode_str, g.node_attrs.get, g.edge_attrs.get
    node_rows = [
        f"{id_head}{enc(n)}{attrs_sep}{attrs_text(attrs)}{end}" if (attrs := node_attrs(n))
        else f"{id_head}{enc(n)}{end}"
        for n in g._node_order()
    ]
    edge_rows = [
        f"{from_head}{enc(e[0])}{to_sep}{enc(e[1])}{attrs_sep}{attrs_text(attrs)}{end}"
        if (attrs := edge_attrs(e))
        else f"{from_head}{enc(e[0])}{to_sep}{enc(e[1])}{end}"
        for e in g._edge_order()
    ]
    node_list = "[" + rows + sep.join(node_rows) + inner + "]" if node_rows else "[]"
    edge_list = "[" + rows + sep.join(edge_rows) + inner + "]" if edge_rows else "[]"
    return "{" + inner + '"nodes": ' + node_list + "," + inner + '"edges": ' + edge_list + newline + "}"
