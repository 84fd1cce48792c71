"""Hierarchies: DAGs of graphs and typing homomorphisms.

A hierarchy assigns a graph to each name and a typing homomorphism to each
shape edge, subject to two structural invariants that are enforced on
every mutation: the shape is acyclic, and all parallel path composites
between any two names are equal (the commutativity condition). An optional
skeleton constrains the shape: when present, every shape edge must map to
a skeleton edge under the declared assignment.

Commutativity checks cost what a rewrite touched. Each source's memo entry
keeps, in the order of its breadth-first walk, the composite fixed at each
node of its cone (at a successor, the arrow itself, never composed with an
identity) and the verdict of every other edge, and the violations among
those verdicts. A source the log reaches is walked anew.

* Cone index. `replace` logs in the memo what changed since its entries
  were filled: the arrows replaced, with the keys at which each patch (see
  `Homomorphism._patched`) may differ from the arrow it replaced, and the
  sources that see them (the ancestors of the arrows' tails) or whose
  object was replaced; and the arrows added, logged with unknown keys.
  Each call links its own changes to the log, in time proportional to
  them, and a check reads the chain as one change. It walks those sources
  and the sources whose cone holds an added arrow's tail.
* One-pass walk. A walk visits each edge of the source's cone once, in
  walk order, the first edge to reach a node being its tree edge. A first
  hop is the arrow, with its logged keys; below it a composite is composed
  whole. A comparing edge that held and joins two first hops is compared
  only where it can have changed (`_moved_keys`).
* Valid mark. The memo also records whether the hierarchy is known
  valid: every arrow a homomorphism between its endpoint objects and all
  parallel paths equal. A hierarchy with no arrows is, a `validate` that
  finds nothing marks it, and `add_typing` into a valid hierarchy keeps
  it, as do `add_object` and a rewrite whose result commutes (see
  `propagation._propagate`); `replace` and pickling drop it. A check
  alone never marks it, since it does not check that maps are total.
* `add_typing(a, b)` on a valid hierarchy compares only the path pairs its
  arrow creates. Each new path runs s ~> a -> b ~> t, for s in a's
  ancestors (a included) and t in b's cone, and the old paths agree, so
  the new ones agree with each other and only a pair that had a path
  before can break. It is compared at the frontier pairs only: where an
  arrow s -> x leaves a's ancestors and the walk on from x first enters
  b's cone, at t. Any other pair follows from one of these by composing
  one old arrow: from (s', t) if the old path's first hop s' reaches a,
  else from (s, t'), t' the node before t on a path inside b's cone. Each
  composite is built along one path. The ancestors' entries are left to
  the log, for the next check to rebuild. A comparison that differs, or a
  hierarchy not known valid, takes the full check, so a refusal reads as
  before.
* Composite typings. `validate` does not walk an arrow a -> b whose map
  equals the composite of arrows a -> w and w -> b it found to be
  homomorphisms: so is their composite.

The memo holds no hierarchy, patches hold their bases only weakly, and
equality, repr and JSON ignore it. A check installs a new memo in one
assignment and a check that raises installs none, so concurrent checks
are idempotent. `composed_typing` returns the memo's composite when the
entry is current.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .exceptions import CompositionError, GraphElementError, HierarchyError
from .graphs import (
    Graph,
    Homomorphism,
    _graph_text,
    _Leaf,
    _located,
    _map_text,
    _node_map_from_json,
    _relocated,
    compose,
    dumps_canonical,
    graph_from_json,
    graph_to_json,
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
        for lists, u, v in ((succ, a, b), (pred, b, a)):
            lists[u] = new = list(lists.get(u, ()))  # the old list stays as it is
            insort(new, v)
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
    """One source's memo entry: the composite at each node of its cone
    (None at the source) and each comparing edge's verdict (None where it
    held), both in walk order, and the violations among them."""

    canon: dict[str, Homomorphism | None]
    verdicts: dict[tuple[str, str], CommutativityViolation | None]
    violations: tuple[CommutativityViolation, ...]


_NOTHING: frozenset = frozenset()
_CLEAN = ({}, _NOTHING, _NOTHING)  # an empty log, merged (never modified)


class _Memo:
    """A hierarchy's entries, current up to the changes since they were
    filled (the log), and whether the hierarchy is known `valid`: every
    arrow a homomorphism between its endpoint objects and all parallel
    paths equal. The log is a chain of `replace` calls, newest first, each
    with the arrows it replaced or added and their patch keys (None when not
    known, as for an added arrow), the sources that see a replaced arrow or
    whose object it replaced, and the arrows it added; `merged` reads it as
    one change."""

    __slots__ = ("entries", "valid", "_log", "_merged")

    def __init__(self, entries: dict[str, _Check], valid: bool = False, log=None, merged=None):
        self.entries, self.valid, self._log = entries, valid, log
        self._merged = _CLEAN if log is None else merged

    def logged(self, arrows: dict, sources, added) -> "_Memo":
        """This memo with one more call in its log, in time proportional to
        that call's changes; a replaced hierarchy is not known valid."""
        return _Memo(self.entries, False, (self._log, arrows, sources, added))

    def marked(self) -> "_Memo":
        """This memo, known valid."""
        return _Memo(self.entries, True, self._log, self._merged)

    def merged(self) -> tuple[dict, frozenset, frozenset]:
        """The log as one change: each arrow's patch keys united over the
        calls (unknown if unknown in any), and the union of the sources and
        of the added arrows. Built on first use and kept; racing readers
        build equal values."""
        merged = self._merged
        if merged is None:
            calls, log = [], self._log
            while log is not None:
                log, *call = log
                calls.append(call)
            arrows: dict = {}
            sources: set = set()
            added: set = set()
            for known, seen, new in reversed(calls):
                for e, keys in known.items():
                    was = arrows.get(e, _NOTHING)
                    arrows[e] = None if was is None or keys is None else was | keys
                sources.update(seen)
                added.update(new)
            merged = self._merged = (arrows, frozenset(sources), frozenset(added))
        return merged

    def grown(self, entry: _Check) -> list[tuple[str, str]]:
        """The added arrows that start in entry's cone."""
        return [e for e in self.merged()[2] if e[0] in entry.canon]


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


def _entries(succ: dict, starts, below) -> dict[str, set[str]]:
    """For each node reachable from `starts` without entering `below`, the
    nodes of `below` it reaches by a path whose other nodes lie outside it:
    where it enters `below`. The shape must be acyclic."""
    entries: dict[str, set[str]] = {}
    stack = list(starts)
    while stack:
        x = stack[-1]
        if x in entries:
            stack.pop()
            continue
        later = [y for y in succ.get(x, ()) if y not in below and y not in entries]
        if later:
            stack.extend(later)
            continue
        stack.pop()
        got = set()
        for y in succ.get(x, ()):
            if y in below:
                got.add(y)
            else:
                got.update(entries[y])
        entries[x] = got
    return entries


def _frontier(succ: dict, pred: dict, a: str, below: set[str]):
    """For a new arrow a -> b whose head's cone is `below`: a's ancestors
    (a included), the `_entries` of the nodes their arrows leave them for,
    and the frontier pairs (s, t), where an arrow s -> x leaves a's
    ancestors and t is x or where x's walk enters `below`."""
    ups = _reach((a,), pred)
    sides = {s: [x for x in succ.get(s, ()) if x not in ups] for s in ups}
    entries = _entries(succ, (x for xs in sides.values() for x in xs if x not in below), below)
    pairs = [
        (s, t) for s, xs in sides.items()
        for t in set().union(*((x,) if x in below else entries[x] for x in xs))
    ]
    return ups, entries, pairs


def _composite(arrows: dict, known: dict, x: str, step, forward: bool = True):
    """The composite along the path from x that `step` extends one node at a
    time until it meets a node `known` holds. Forward, `known` maps a node
    to the composite from it to the path's end; backward (`step` picks a
    predecessor), from the path's start to it. None stands for an identity.
    Fills `known` along the path."""
    path = [x]
    while path[-1] not in known:
        path.append(step(path[-1]))
    got = known[path[-1]]
    for near, far in reversed(list(zip(path, path[1:]))):
        arrow = arrows[(near, far) if forward else (far, near)]
        if got is not None:
            arrow = compose(got, arrow) if forward else compose(arrow, got)
        known[near] = got = arrow
    return got


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
        memo = _Memo({}, valid=not arrows)
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

    def __reduce__(self):  # the memo is a private cache, so it is dropped
        return (Hierarchy, (self._objects, self._arrows, self.skeleton, self.skeleton_map))

    def __eq__(self, other):
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self._objects == other._objects
            and self.skeleton == other.skeleton
            and self.skeleton_map == other.skeleton_map
            and self._arrows == other._arrows
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
        below = self.descendants(b)
        if a in below:
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
        valid = self._memo.valid
        if not (valid and self._frontier_agrees(a, b, hom, below)):
            violations = candidate.validate_commutativity()
            if violations:
                raise HierarchyError(
                    "typing breaks commutativity: " + "; ".join(str(v) for v in violations)
                )
        if valid:
            object.__setattr__(candidate, "_memo", candidate._memo.marked())
        return candidate

    def _frontier_agrees(self, a: str, b: str, hom: Homomorphism, below: set[str]) -> bool:
        """Whether this valid hierarchy keeps all parallel paths equal once
        hom, a homomorphism, types a by b, where `below` is b's cone and
        holds no ancestor of a: whether the composite through the new arrow
        equals the old one at each frontier pair (see the module docstring).
        Each composite is built along one path, which in a valid hierarchy
        every parallel path equals."""
        succ, pred, arrows = self._succ, self._pred, self._arrows
        ups, entries, pairs = _frontier(succ, pred, a, below)
        em = hom.node_map
        down: dict = {a: None}  # s -> the composite s ~> a
        into: dict = {b: None}  # t -> the composite b ~> t
        for s, t in pairs:
            first = _composite(arrows, down, s, lambda x: next(y for y in succ[x] if y in ups))
            then = _composite(
                arrows, into, t, lambda x: next(y for y in pred[x] if y in below), forward=False
            )
            was = _composite(  # only a first hop x out of `ups` has entries[x]
                arrows, {t: None}, s,
                lambda x: next(y for y in succ[x] if y == t or t in entries.get(y, ())),
            )
            m = em if first is None else {n: em[y] for n, y in first.node_map.items()}
            if then is not None:
                tm = then.node_map
                m = {n: tm[y] for n, y in m.items()}
            if m != was.node_map:
                return False
        return True

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
        old = self._arrows
        new_arrows = {**old, **arrows}
        succ, pred, added = self._succ, self._pred, ()
        if len(new_arrows) != len(old):
            added = tuple(e for e in arrows if e not in old)
            succ, pred = _extended(succ, pred, added)
        known = {e: h._changes_since(old[e]) if e in old else None for e, h in arrows.items()}
        tails = {u for (u, v) in arrows if (u, v) in old}
        sources = _reach(tails, pred).union(objects)
        out = object.__new__(Hierarchy)
        out._fill(
            {**self._objects, **objects} if objects else self._objects, new_arrows,
            self.skeleton, self.skeleton_map, succ, pred,
            self._memo.logged(known, sources, added),
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
        replaced, sources, added = memo.merged()
        widened = _reach({u for (u, _) in added}, self._pred)  # ancestors of added arrows
        fresh: dict[str, _Check] = {}
        violations = []
        for a in self.nodes():
            entry = memo.entries.get(a)
            if entry is None or a in sources or (a in widened and memo.grown(entry)):
                entry = self._walk(a, entry, replaced)
            fresh[a] = entry
            violations.extend(entry.violations)
        if sources or added or len(fresh) != len(memo.entries):
            object.__setattr__(self, "_memo", _Memo(fresh, memo.valid))
        return violations

    def _walk(self, a: str, entry: _Check | None, replaced: dict) -> _Check:
        """a's check: one pass over its cone's edges in walk order, where the
        first edge to reach a node is its tree edge and every other edge
        compares. A failing compose on a tree edge raises at once, one on a
        comparing edge after the walk, so the first tree-edge failure wins.
        Only a first hop's composite has known keys at which it may differ
        from the entry's: its arrow's keys in `replaced`; every other
        composite is composed whole."""
        succ = self._succ
        order, parent, canon, verdicts, failed = [a], {}, {a: None}, {}, []

        def moved(x):
            return replaced.get((a, x), _NOTHING) if parent.get(x) == a else None

        deferred = None
        for u in order:  # grows while walking
            for v in succ.get(u, ()):
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
        return _Check(canon, verdicts, tuple(failed))

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
        lookups of `compose` and then of `hom_equal`. The two image lists are
        built and compared at C level; only lists that differ are walked, to
        name the smallest node at which they do."""
        arrow, first, fixed = self._arrows[(u, v)], canon[u], canon[v]
        if a in (u, v):  # a cycle back to the source, in a shape left unchecked
            first = first or identity(self._objects[a])
            fixed = fixed or identity(self._objects[a])
        if first.target is not arrow.source and first.target != arrow.source:
            raise CompositionError("compose: f.target differs from g.source")
        nodes = first.source.nodes
        at = nodes if keys is None else [*filter(nodes.__contains__, keys)]
        got = [*map(arrow.node_map.__getitem__, map(first.node_map.__getitem__, at))]
        if (first.source is not fixed.source and first.source != fixed.source) or (
            arrow.target is not fixed.target and arrow.target != fixed.target
        ):  # identity first: graphs compare by value
            raise CompositionError("hom_equal: endpoints differ")
        want = [*map(fixed.node_map.__getitem__, at)]
        if got == want:
            return None
        return CommutativityViolation(
            a, v, _tree_path(parent, v), _tree_path(parent, u) + (v,),
            min(n for n, y, x in zip(at, got, want) if y != x),
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
        found = self._typing_problems()
        for (a, b) in self.edges():
            if found[(a, b)] is not None:
                problems.append(f"typing {a} -> {b}: {found[(a, b)]}")
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
        if not problems:
            object.__setattr__(self, "_memo", self._memo.marked())
        return problems

    def _typing_problems(self) -> dict[tuple[str, str], str | None]:
        """Each arrow's endpoint or homomorphism problem, or None. Endpoints
        are compared first, in sorted edge order. An arrow a -> b whose map
        equals the composite of arrows a -> w and w -> b already judged
        without a problem is a homomorphism, as a composite of homomorphisms
        is, and is not walked. Tails are judged sinks first and each tail's
        arrows sources first, so both arrows of such a composite come before
        it; the arrows of a tail on or behind a cycle, which the peel leaves
        out, come last."""
        objects, arrows, succ, pred = self._objects, self._arrows, self._succ, self._pred
        found: dict[tuple[str, str], str | None] = {}
        for (a, b) in self.edges():
            hom = arrows[(a, b)]
            if hom.source != objects[a] or hom.target != objects[b]:
                found[(a, b)] = "endpoint graphs do not match"
        rank = {n: i for i, n in enumerate(chain.from_iterable(_waves(objects, succ, pred)))}
        ordered = [
            (a, b) for a in rank for b in sorted(succ.get(a, ()), key=rank.get, reverse=True)
        ]
        for e in chain(ordered, (e for e in arrows if e[0] not in rank)):
            if e in found:
                continue
            a, b = e
            hom = arrows[e]
            between = min(succ[a], pred[b], key=len)  # found.get(e, "") is None: judged valid
            w = next((w for w in between if found.get((a, w), "") is None
                      and found.get((w, b), "") is None), None)
            if w is not None:
                m1, m2 = arrows[(a, w)].node_map, arrows[(w, b)].node_map
                if hom.node_map == dict(zip(m1, map(m2.__getitem__, m1.values()))):
                    found[e] = None
                    continue
            found[e] = homomorphism_violation(hom)
        return found

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
        if entry is not None and a not in memo.merged()[1] and not memo.grown(entry):
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
        m = h.typing(a, b).node_map
        out["typings"].append({"from": a, "to": b, "map": {k: m[k] for k in h.graph(a)._node_order()}})
    return out


def _hierarchy_text(h: Hierarchy, map_texts: dict | None = None) -> str:
    """`dumps_canonical(hierarchy_to_json(h))`, from a tree whose graphs and
    typing maps are leaves: each graph's rows are written as strings and
    each map by the C encoder, and each attribute dict's text is rendered
    once (h keeps every dict alive meanwhile, so no id is reused). A caller
    that writes some of h's typings elsewhere in the same call may pass one
    `map_texts` to both writers (see `_map_text`)."""
    tree: dict = {} if h.skeleton is None else {"skeleton": _skeleton_json(h)}
    attr_texts: dict = {}  # every graph sits at one depth
    tree["graphs"] = {name: _Leaf(_graph_text, h.graph(name), attr_texts=attr_texts) for name in h.nodes()}
    tree["typings"] = [
        {"from": a, "to": b, "map": _Leaf(_map_text, h.typing(a, b), texts=map_texts)} for (a, b) in h.edges()
    ]
    return dumps_canonical(tree)


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
            where, edges = ("skeleton", "edges"), []
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
        where, arrows = ("typings",), {}
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
