"""Hierarchies: DAGs of graphs and typing homomorphisms.

A hierarchy assigns a graph to each name and a typing homomorphism to each
shape edge, subject to two structural invariants that are enforced on
every mutation: the shape is acyclic, and all parallel path composites
between any two names are equal (the commutativity condition). An optional
skeleton constrains the shape: when present, every shape edge must map to
a skeleton edge under the declared assignment.

Commutativity checks cost what a rewrite touched. Each source's memo entry
keeps its breadth-first walk (its cone in walk order and each node's tree
parent), the composite fixed at each node of its cone (at a successor, the
arrow itself, never composed with an identity) and, in walk order, the
verdict of every other edge.

* Cone index. `replace` logs in the memo what changed since its entries
  were filled: the arrows replaced, with the keys at which each patch (see
  `Homomorphism._patched`) may differ from the arrow it replaced, and the
  sources that see them (the ancestors of the arrows' tails) or whose
  object was replaced; and the arrows added, logged with unknown keys. A
  check walks those sources and the sources whose cone holds an added
  arrow's tail.
* One-pass walk. A walk visits each edge of the source's cone once, in
  walk order, the first edge to reach a node being its tree edge. A first
  hop is the arrow, with its logged keys; below it a composite is composed
  whole. A comparing edge that held and joins two first hops is compared
  only where it can have changed (`_moved_keys`).
* `add_typing(a, b)` costs the paths its arrow adds. The entries of a's
  ancestors stay. An ancestor that sees nothing else, whose old walk
  ends before the new arrow (`_extension`; always so in a hierarchy typed
  layer by layer), keeps its walk and visits only the new arrow and the
  nodes first reached through it. Any other ancestor walks anew in the new
  order.

The memo holds no hierarchy, patches hold their bases only weakly, and
equality, repr and JSON ignore it. A check installs a new memo in one
assignment and a check that raises installs none, so concurrent checks
are idempotent. `composed_typing` returns the memo's composite when the
entry is current.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

from .exceptions import CompositionError, GraphElementError, HierarchyError
from .graphs import (
    Graph,
    Homomorphism,
    _dumps,
    _encode_str,
    _graph_text,
    _located,
    _node_map_from_json,
    _node_map_text,
    _relocated,
    compose,
    graph_from_json,
    graph_to_json,
    hom_equal,
    homomorphism_violation,
    identity,
)


@dataclass(frozen=True)
class Skeleton:
    """A DAG of node kinds constraining a hierarchy's shape."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def create(cls, nodes, edges) -> "Skeleton":
        """A skeleton over `nodes`; the first edge (in the given order) with
        an unknown endpoint raises, its index kept as the error's JSON path."""
        edges = [tuple(e) for e in edges]
        sk = cls(frozenset(nodes), frozenset(edges))
        for i, (u, v) in enumerate(edges):
            if u not in sk.nodes or v not in sk.nodes:
                exc = HierarchyError(f"skeleton edge ({u},{v}) has unknown endpoint")
                exc.json_path = ("edges", i)
                raise exc
        if not _acyclic(sk.nodes, *_adjacency(sk.edges)):
            raise HierarchyError("skeleton must be acyclic")
        return sk


def _adjacency(edges) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """The successors and the predecessors of each endpoint of `edges`, in
    sorted edge order."""
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for (a, b) in sorted(edges):
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)
    return succ, pred


def _extended(succ: dict, pred: dict, edges) -> tuple[dict, dict]:
    """`_adjacency` of the edges behind succ and pred (left as they are)
    and of `edges`, which are new."""
    succ, pred = dict(succ), dict(pred)
    for (a, b) in edges:
        succ[a] = sorted((*succ.get(a, ()), b))
        pred[b] = sorted((*pred.get(b, ()), a))
    return succ, pred


def _waves(nodes, ahead, behind) -> list[list[str]]:
    """Peel a shape into waves: the sorted nodes with nothing left ahead of
    them, repeatedly. A node joins the wave after the one that removed the
    last node ahead of it. Passing the successor lists as `ahead` and the
    predecessor lists as `behind` peels sinks first; the other way round,
    sources first. A node on a cycle, a self-loop included, never comes
    free, so the waves hold every node exactly when the shape is acyclic."""
    pending = {n: len(ahead.get(n, ())) for n in nodes}
    wave = sorted(n for n, k in pending.items() if k == 0)
    waves = []
    while wave:
        waves.append(wave)
        freed = []
        for n in wave:
            for m in behind.get(n, ()):
                pending[m] -= 1
                if pending[m] == 0:
                    freed.append(m)
        wave = sorted(freed)
    return waves


def _acyclic(nodes, succ, pred) -> bool:
    return sum(map(len, _waves(nodes, succ, pred))) == len(nodes)


@dataclass(frozen=True)
class CommutativityViolation:
    source: str
    target: str
    path_a: tuple[str, ...]
    path_b: tuple[str, ...]
    witness: str  # node of ⟦source⟧ on which the two composites differ

    def __str__(self):
        return (
            f"PAIR {self.source} {self.target}: "
            f"{'->'.join(self.path_a)} != {'->'.join(self.path_b)} "
            f"at node {self.witness}"
        )


class _Check(NamedTuple):
    """One source's memo entry: its cone in walk order, each node's tree
    parent, composite (None at the source) and each comparing edge's
    verdict (None where it held), in walk order, and the violations among
    them. `Hierarchy._checks` sets `changed`: what was replaced since."""

    order: list[str]
    parent: dict[str, str]
    canon: dict[str, Homomorphism | None]
    verdicts: dict[tuple[str, str], CommutativityViolation | None]
    violations: tuple[CommutativityViolation, ...]
    changed: frozenset = frozenset()


class _Memo(NamedTuple):
    """Entries current up to the changes since they were filled (the log):
    the arrows replaced or added, with their patch keys (None when not
    known, as for an added arrow); the sources that see a replaced arrow or
    whose object was replaced; and the arrows added."""

    entries: dict[str, _Check]
    arrows: dict[tuple[str, str], frozenset | None] = {}  # never modified
    sources: frozenset = frozenset()
    added: frozenset = frozenset()

    def grown(self, entry: _Check) -> list[tuple[str, str]]:
        """The added arrows that start in entry's cone."""
        return [e for e in self.added if e[0] in entry.canon]


def _reach(starts, step: dict) -> set[str]:
    """`starts` and everything reachable from them through the lists of `step`."""
    out = set(starts)
    frontier = list(out)
    while frontier:
        for v in step.get(frontier.pop(), ()):
            if v not in out:
                out.add(v)
                frontier.append(v)
    return out


_NOTHING: frozenset = frozenset()


def _moved_keys(ku, kv, ke, old_u: Homomorphism) -> set:
    """The source's nodes at which edge u -> v's composite or comparison
    can have changed, given the keys ku, kv at which the composites at u and
    v may differ from the entry's and ke at which the arrow may. Outside ku
    the composite at u keeps its image y under old_u (the entry's), and the
    arrow keeps y's image unless y is in ke; outside kv, v's composite keeps
    its value. So only ku, kv and the old_u-preimages of ke can change."""
    keys = set(ku)
    keys.update(kv)
    hit = [y for y in ke if y in old_u.target.nodes]
    if hit:
        preimages = old_u._preimages()
        for y in hit:
            keys.update(preimages.get(y, ()))
    return keys


def _breadth_first(succ: dict, a: str) -> tuple[list[str], dict[str, int], dict[str, str]]:
    """The walk from a in sorted successor order: the nodes reached, in
    order, each one's place in it and the node it was first reached from."""
    order, pos, parent = [a], {a: 0}, {}
    for u in order:  # grows while walking
        for v in succ.get(u, ()):
            if v not in pos:
                pos[v], parent[v] = len(order), u
                order.append(v)
    return order, pos, parent


def _extension(entry: _Check, grown: list) -> list | None:
    """The added arrows `grown`, which start in entry's cone, as (tail,
    (head,)) pairs in walk order, when they all come after the last edge of
    entry's walk; else None. The old walk is then the start of the new one:
    each old node keeps its place, tree parent, composite and verdicts, an
    added arrow compares or first reaches a node new to the cone, and the
    new nodes come after every old one."""
    at = entry.order.index
    keys = sorted((at(u), v, u) for (u, v) in grown)
    ends = []  # the last tree edge, and the last comparing one
    if len(entry.order) > 1:
        v = entry.order[-1]
        ends.append((at(entry.parent[v]), v))
    if entry.verdicts:
        u, v = next(reversed(entry.verdicts))
        ends.append((at(u), v))
    if ends and keys[0][:2] < max(ends):
        return None
    return [(u, (v,)) for _, v, u in keys]


def _tree_path(parent: dict[str, str], v: str) -> tuple[str, ...]:
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


class Hierarchy:
    """Immutable hierarchy value; mutators return extended copies."""

    __slots__ = (
        "_objects", "_arrows", "skeleton", "skeleton_map", "_succ", "_pred", "_memo"
    )

    def __init__(
        self,
        objects: dict[str, Graph] | None = None,
        arrows: dict[tuple[str, str], Homomorphism] | None = None,
        skeleton: Skeleton | None = None,
        skeleton_map: dict[str, str] | None = None,
    ):
        arrows = dict(arrows or {})
        memo = _Memo({})
        self._fill(dict(objects or {}), arrows, skeleton, skeleton_map, *_adjacency(arrows), memo)

    def _fill(self, objects, arrows, skeleton, skeleton_map, succ, pred, memo):
        object.__setattr__(self, "_objects", objects)
        object.__setattr__(self, "_arrows", arrows)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "skeleton_map", dict(skeleton_map or {}))
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_memo", memo)

    def __setattr__(self, name, value):
        raise AttributeError("Hierarchy instances are immutable")

    @property
    def _checks(self) -> dict[str, _Check]:
        """The memo entries, each with `changed` set to the arrow keys
        replaced or added since it was filled and the sources that see a
        replaced one."""
        changed = self._memo.sources.union(self._memo.arrows)
        return {a: c._replace(changed=changed) for a, c in self._memo.entries.items()}

    def __eq__(self, other):
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self._objects == other._objects
            and self.skeleton == other.skeleton
            and self.skeleton_map == other.skeleton_map
            and set(self._arrows) == set(other._arrows)
            and all(hom_equal(self._arrows[e], other._arrows[e]) for e in self._arrows)
        )

    def __repr__(self):
        return f"Hierarchy({sorted(self._objects)}, {sorted(self._arrows)})"

    # -- access --------------------------------------------------------------

    def nodes(self) -> list[str]:
        return sorted(self._objects)

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._arrows)

    def graph(self, name: str) -> Graph:
        try:
            return self._objects[name]
        except KeyError:
            raise HierarchyError(f"unknown hierarchy node {name}") from None

    def typing(self, a: str, b: str) -> Homomorphism:
        try:
            return self._arrows[(a, b)]
        except KeyError:
            raise HierarchyError(f"no typing {a} -> {b}") from None

    def successors(self, n: str) -> list[str]:
        return list(self._succ.get(n, ()))

    def predecessors(self, n: str) -> list[str]:
        return list(self._pred.get(n, ()))

    # -- construction ----------------------------------------------------------

    def add_object(self, name: str, g: Graph, kind: str | None = None) -> "Hierarchy":
        if name in self._objects:
            raise HierarchyError(f"node {name} already exists")
        problems = g.validate()
        if problems:
            raise HierarchyError(f"invalid graph for {name}: " + "; ".join(problems))
        skeleton_map = self.skeleton_map
        if self.skeleton is not None:
            if kind is None:
                raise HierarchyError(f"node {name}: skeleton kind required")
            if kind not in self.skeleton.nodes:
                raise HierarchyError(f"node {name}: unknown skeleton kind {kind}")
            skeleton_map = {**skeleton_map, name: kind}
        # an isolated object adds no arrow and changes no cone
        out = object.__new__(Hierarchy)
        out._fill(
            {**self._objects, name: g}, self._arrows, self.skeleton, skeleton_map,
            self._succ, self._pred, self._memo,
        )
        return out

    def add_typing(self, a: str, b: str, hom: Homomorphism) -> "Hierarchy":
        if a not in self._objects or b not in self._objects:
            raise HierarchyError(f"add_typing({a},{b}): unknown node")
        if (a, b) in self._arrows:
            raise HierarchyError(f"typing {a} -> {b} already exists")
        if hom.source != self._objects[a] or hom.target != self._objects[b]:
            raise HierarchyError(f"typing {a} -> {b}: endpoint graphs do not match")
        problem = homomorphism_violation(hom)
        if problem is not None:
            raise HierarchyError(f"typing {a} -> {b} invalid: {problem}")
        if a in self.descendants(b):
            raise HierarchyError(f"typing {a} -> {b} would introduce a cycle")
        if self.skeleton is not None:
            for n in (a, b):  # possible in a hierarchy built or loaded unvalidated
                if n not in self.skeleton_map:
                    raise HierarchyError(f"node {n} lacks a skeleton assignment")
            ka, kb = self.skeleton_map[a], self.skeleton_map[b]
            if (ka, kb) not in self.skeleton.edges:
                raise HierarchyError(
                    f"typing {a} -> {b} has no skeleton edge {ka} -> {kb}"
                )
        candidate = self.replace(arrows={(a, b): hom})
        violations = candidate.validate_commutativity()
        if violations:
            raise HierarchyError(
                "typing breaks commutativity: " + "; ".join(str(v) for v in violations)
            )
        return candidate

    def replace(
        self,
        objects: dict[str, Graph] | None = None,
        arrows: dict[tuple[str, str], Homomorphism] | None = None,
    ) -> "Hierarchy":
        """Bulk functional update used by propagation; does not re-validate.
        The memo is carried with the replacements added to its log (see the
        module docstring); a new arrow is logged with unknown patch keys, and
        its tail's ancestors keep their entries."""
        objects, arrows = objects or {}, arrows or {}
        old, memo = self._arrows, self._memo
        new_arrows = {**old, **arrows}
        succ, pred, added = self._succ, self._pred, memo.added
        if len(new_arrows) != len(old):
            new = [e for e in arrows if e not in old]
            succ, pred = _extended(succ, pred, new)
            added = added.union(new)
        known = {e: h._changes_since(old[e]) if e in old else None for e, h in arrows.items()}
        tails = {u for (u, v) in known if (u, v) in old}
        sources = frozenset(_reach(tails, pred).union(objects, memo.sources))
        for e, keys in memo.arrows.items():  # one log since the entries: patch keys unite
            now = known.get(e, _NOTHING)
            known[e] = None if keys is None or now is None else keys | now
        out = object.__new__(Hierarchy)
        out._fill(
            {**self._objects, **objects}, new_arrows, self.skeleton, self.skeleton_map,
            succ, pred, _Memo(memo.entries, known, sources, added),
        )
        return out

    # -- validation ------------------------------------------------------------

    def validate_commutativity(self) -> list[CommutativityViolation]:
        """All pairs of parallel path composites must be equal.

        For each source, a breadth-first walk in sorted successor order fixes
        one composite per reachable node along the first edge that reaches
        it; every other edge extension is compared against it, which covers
        all path pairs by induction. Memo entries are rechecked only where
        the logged changes reach (see the module docstring).
        """
        memo = self._memo
        widened = _reach({u for (u, _) in memo.added}, self._pred)  # ancestors of added arrows
        fresh: dict[str, _Check] = {}
        violations = []
        for a in self.nodes():
            entry = memo.entries.get(a)
            grown = memo.grown(entry) if a in widened and entry is not None else None
            if grown and a not in memo.sources:
                entry = self._walk(a, entry, memo.arrows, _extension(entry, grown))
            elif entry is None or grown or a in memo.sources:
                entry = self._walk(a, entry, memo.arrows)
            fresh[a] = entry
            violations.extend(entry.violations)
        if memo.sources or memo.added or len(fresh) != len(memo.entries):
            object.__setattr__(self, "_memo", _Memo(fresh))
        return violations

    def _walk(self, a: str, entry: _Check | None, replaced: dict, head=None) -> _Check:
        """a's check: one pass over its cone's edges in walk order, where the
        first edge to reach a node is its tree edge and every other edge
        compares. With `head` (see `_extension`), the pass starts from a copy
        of the entry and visits only the added arrows in `head` and the
        edges of the nodes they reach first. A failing compose on a tree
        edge raises at once, one on a comparing edge after the walk, so the
        first tree-edge failure wins. Only a first hop's composite has known
        keys at which it may differ from the entry's: its arrow's keys in
        `replaced`; every other composite is composed whole."""
        succ = self._succ
        if head is None:
            order, parent, canon, verdicts, failed, head = [a], {}, {a: None}, {}, [], ()
        else:
            order, parent = list(entry.order), dict(entry.parent)
            canon, verdicts = dict(entry.canon), dict(entry.verdicts)
            failed = list(entry.violations)

        def moved(x):
            return replaced.get((a, x), _NOTHING) if parent.get(x) == a else None

        deferred = None
        tails = islice(order, len(order) if head else 0, None)  # grows while walking
        for u, vs in chain(head, ((u, succ.get(u, ())) for u in tails)):
            for v in vs:
                e = (u, v)
                if v not in canon:
                    order.append(v)
                    parent[v] = u
                    if u == a:
                        canon[v] = self._first_hop(a, v)
                    else:
                        canon[v] = compose(self._arrows[e], canon[u])
                elif deferred is None:
                    keys = None
                    if entry is not None and entry.verdicts.get(e, _NOTHING) is None:
                        ku, kv, ke = moved(u), moved(v), replaced.get(e, _NOTHING)
                        if None not in (ku, kv, ke):
                            keys = _moved_keys(ku, kv, ke, entry.canon[u])
                    try:
                        verdicts[e] = x = self._verdict(a, u, v, canon, parent, keys)
                    except (CompositionError, KeyError) as exc:
                        deferred = exc
                    else:
                        if x is not None:
                            failed.append(x)
        if deferred is not None:
            raise deferred
        return _Check(order, parent, canon, verdicts, tuple(failed))

    def _first_hop(self, a: str, v: str) -> Homomorphism:
        """The composite along the one arrow a -> v: the arrow itself, after
        the endpoint check composing it with a's identity would make (its
        map is taken to be total, as `validate` checks first)."""
        arrow = self._arrows[(a, v)]
        if arrow.source is not self._objects[a] and arrow.source != self._objects[a]:
            raise CompositionError("compose: f.target differs from g.source")
        return arrow

    def _verdict(self, a, u, v, canon, parent, keys) -> CommutativityViolation | None:
        """Compare the arrow u -> v after canon[u] with canon[v] at `keys`
        (None: at every node of a's graph), with the endpoint checks and the
        lookups of `compose` and then of `hom_equal`."""
        arrow, first, fixed = self._arrows[(u, v)], canon[u], canon[v]
        if a in (u, v):  # a cycle back to the source, in a shape left unchecked
            first = first or identity(self._objects[a])
            fixed = fixed or identity(self._objects[a])
        if first.target is not arrow.source and first.target != arrow.source:
            raise CompositionError("compose: f.target differs from g.source")
        am, fm, nodes = arrow.node_map, first.node_map, first.source.nodes
        values = {n: am[fm[n]] for n in (nodes if keys is None else keys) if n in nodes}
        if (first.source is not fixed.source and first.source != fixed.source) or (
            arrow.target is not fixed.target and arrow.target != fixed.target
        ):  # identity first: graphs compare by value
            raise CompositionError("hom_equal: endpoints differ")
        xm = fixed.node_map
        bad = [n for n, y in values.items() if y != xm[n]]
        if not bad:
            return None
        return CommutativityViolation(
            a, v, _tree_path(parent, v), _tree_path(parent, u) + (v,), min(bad)
        )

    def validate(self) -> list[str]:
        """Full structural validation, as messages (commutativity included)."""
        return self._validate(graphs=True)

    def _validate(self, graphs: bool) -> list[str]:
        """`validate`, with the graph invariants checked only if `graphs`:
        graphs a loader has checked already have no violation to report."""
        problems = []
        for name in self.nodes() if graphs else ():
            for p in self._objects[name].validate():
                problems.append(f"graph {name}: {p}")
        for (a, b) in self.edges():
            hom = self._arrows[(a, b)]
            if hom.source != self._objects[a] or hom.target != self._objects[b]:
                problems.append(f"typing {a} -> {b}: endpoint graphs do not match")
                continue
            problem = homomorphism_violation(hom)
            if problem is not None:
                problems.append(f"typing {a} -> {b}: {problem}")
        if not _acyclic(self._objects, self._succ, self._pred):
            problems.append("shape contains a cycle")
        if self.skeleton is not None:
            for name in self.nodes():
                if name not in self.skeleton_map:
                    problems.append(f"node {name} lacks a skeleton assignment")
            for name, kind in sorted(self.skeleton_map.items()):
                if name not in self._objects:
                    problems.append(f"skeleton assignment names unknown graph {name}")
                elif kind not in self.skeleton.nodes:
                    problems.append(f"node {name}: unknown skeleton kind {kind}")
            for (a, b) in self.edges():
                ka, kb = self.skeleton_map.get(a), self.skeleton_map.get(b)
                if ka is not None and kb is not None and (ka, kb) not in self.skeleton.edges:
                    problems.append(f"typing {a} -> {b} has no skeleton edge {ka} -> {kb}")
        if not problems:
            problems.extend(str(v) for v in self.validate_commutativity())
        return problems

    # -- queries ---------------------------------------------------------------

    def descendants(self, s: str) -> set[str]:
        self.graph(s)
        return _reach((s,), self._succ)

    def ancestors(self, s: str) -> set[str]:
        self.graph(s)
        return _reach((s,), self._pred)

    def _induced(self, keep: set[str]) -> "Hierarchy":
        return Hierarchy(
            {n: g for n, g in self._objects.items() if n in keep},
            {e: h for e, h in self._arrows.items() if e[0] in keep and e[1] in keep},
            self.skeleton,
            {n: k for n, k in self.skeleton_map.items() if n in keep},
        )

    def forward_subgraph(self, s: str) -> "Hierarchy":
        """Largest sub-hierarchy in which s is the unique source: the
        induced sub-hierarchy on everything reachable from s."""
        return self._induced(self.descendants(s))

    def backward_subgraph(self, s: str) -> "Hierarchy":
        """Largest sub-hierarchy in which s is the unique sink: the induced
        sub-hierarchy on everything reaching s."""
        return self._induced(self.ancestors(s))

    def composed_typing(self, a: str, b: str) -> Homomorphism:
        """The (unique, by commutativity) composite of any path a → b: the
        one along the path a breadth-first walk in sorted successor order
        reaches b by, whose first hop is an arrow itself. It is the memo's
        when a's entry is current; otherwise the walk composes each node's
        composite as it reaches it, until it leaves b."""
        if a == b:
            return identity(self.graph(a))
        self.graph(b)
        memo = self._memo
        entry = memo.entries.get(a)
        if entry is not None and a not in memo.sources and not memo.grown(entry):
            canon = entry.canon
        else:
            self.graph(a)
            order, pos, parent = _breadth_first(self._succ, a)
            canon = {}
            for v in order[1:]:
                u = parent[v]
                if b in pos and pos[u] >= pos[b]:
                    break
                if u == a:
                    canon[v] = self._first_hop(a, v)
                else:
                    canon[v] = compose(self._arrows[(u, v)], canon[u])
        if b in canon:
            return canon[b]
        raise HierarchyError(f"no path {a} -> {b}")


# -- JSON format -----------------------------------------------------------------


def _skeleton_json(h: Hierarchy) -> dict:
    return {
        "nodes": sorted(h.skeleton.nodes),
        "edges": [list(e) for e in sorted(h.skeleton.edges)],
        "assignment": {k: h.skeleton_map[k] for k in sorted(h.skeleton_map)},
    }


def hierarchy_to_json(h: Hierarchy) -> dict:
    out: dict = {}
    if h.skeleton is not None:
        out["skeleton"] = _skeleton_json(h)
    shared: dict = {}  # one attribute JSON object per dict, across graphs
    out["graphs"] = {name: graph_to_json(h.graph(name), shared) for name in h.nodes()}
    out["typings"] = []
    for (a, b) in h.edges():
        m, nodes = h.typing(a, b).node_map, sorted(h.graph(a).nodes)
        out["typings"].append({"from": a, "to": b, "map": {k: m[k] for k in nodes}})
    return out


def _hierarchy_text(h: Hierarchy) -> str:
    """`dumps_canonical(hierarchy_to_json(h))`, written from h's graphs and
    arrows without the tree: each graph's node ids are sorted once, for its
    rows and for the maps of its typings, and each attribute dict's text is
    rendered once (h keeps every dict alive meanwhile, so no id is reused)."""
    members = []
    if h.skeleton is not None:
        members.append('"skeleton": ' + _dumps(_skeleton_json(h), "\n  ", {}))
    order: dict[str, list[str]] = {}
    attr_texts: dict = {}
    graphs = []
    for name in h.nodes():
        g = h.graph(name)
        nodes = order[name] = sorted(g.nodes)
        graphs.append(_encode_str(name) + ": " + _graph_text(g, "\n    ", nodes, attr_texts))
    members.append('"graphs": ' + ("{\n    " + ",\n    ".join(graphs) + "\n  }" if graphs else "{}"))
    typings = []
    for (a, b) in h.edges():
        m = h.typing(a, b).node_map
        typings.append(
            f'{{\n      "from": {_encode_str(a)},\n      "to": {_encode_str(b)},\n      "map": '
            + _node_map_text({k: m[k] for k in order[a]}, "\n      ") + "\n    }"
        )
    members.append('"typings": ' + ("[\n    " + ",\n    ".join(typings) + "\n  ]" if typings else "[]"))
    return "{\n  " + ",\n  ".join(members) + "\n}\n"


def hierarchy_from_json(obj: dict, validate: bool = True) -> Hierarchy:
    """Parse a hierarchy. With validate=True (the default) any structural
    or commutativity problem raises; validate=False defers to the caller,
    so invalid files can still be loaded for reporting. A malformed value
    raises HierarchyError naming its JSON path, as in
    `graphs.G.nodes[3]: graph G: malformed graph: ...`."""
    where: tuple = ()
    try:
        skeleton = None
        assignment: dict[str, str] = {}
        if "skeleton" in obj and obj["skeleton"] is not None:
            where = ("skeleton",)
            sk = obj["skeleton"]
            nodes = sk.get("nodes", [])
            if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
                where = ("skeleton", "nodes")
                raise TypeError(f"skeleton nodes {json.dumps(nodes)} are not a list of kinds")
            edges = []
            for i, e in enumerate(sk.get("edges", [])):
                where = ("skeleton", "edges", i)
                if not isinstance(e, list) or len(e) != 2:
                    raise TypeError(f"skeleton edge {json.dumps(e)} is not a pair of kinds")
                edges.append(tuple(e))
            where = ("skeleton",)
            try:
                skeleton = Skeleton.create(nodes, edges)
            except HierarchyError as exc:
                raise _relocated(HierarchyError, where, exc, "skeleton") from exc
            where = ("skeleton", "assignment")
            assignment = _node_map_from_json(sk.get("assignment", {}), "skeleton assignment")
        objects = {}
        memo: dict = {}  # one attribute memo for every graph in the file
        where, graphs = ("graphs",), obj.get("graphs", {})
        if not isinstance(graphs, dict):
            raise TypeError(f"graphs must be an object, not {type(graphs).__name__}")
        for name in graphs:
            where = ("graphs", name)
            try:
                objects[name] = graph_from_json(graphs[name], memo)
            except GraphElementError as exc:
                raise _relocated(HierarchyError, where, exc, "graph", f"graph {name}: ") from exc
        arrows = {}
        for i, typing in enumerate(obj.get("typings", [])):
            where = ("typings", i)
            a, b = typing["from"], typing["to"]
            if a not in objects or b not in objects:
                raise _located(HierarchyError, where, f"typing {a} -> {b} references an unknown graph")
            where = ("typings", i, "map")
            node_map = _node_map_from_json(typing["map"], f"typing {a} -> {b}")
            arrows[(a, b)] = Homomorphism._of(objects[a], objects[b], node_map)
    except (KeyError, TypeError, AttributeError) as exc:
        raise _relocated(HierarchyError, where, exc, "hierarchy") from exc
    h = Hierarchy(objects, arrows, skeleton, assignment)
    if validate:  # `graph_from_json` has checked every graph
        problems = h._validate(graphs=False)
        if problems:
            raise HierarchyError("invalid hierarchy: " + "; ".join(problems))
    return h
