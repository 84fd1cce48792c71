"""Hierarchies: DAGs of graphs and typing homomorphisms.

A hierarchy assigns a graph to each name and a typing homomorphism to each
shape edge, subject to two structural invariants that are enforced on
every mutation: the shape is acyclic, and all parallel path composites
between any two names are equal (the commutativity condition). An optional
skeleton constrains the shape: when present, every shape edge must map to
a skeleton edge under the declared assignment.

Commutativity checks are incremental. For each source, the check memo keeps
the composite fixed for every node of the source's cone and the verdict of
every other edge (a violation or none). The composite at a successor of the
source is the arrow to it itself, so no identity map is built or composed.
`replace` carries the memo to the new hierarchy only when the set of arrow
keys is unchanged, since the shape fixes each source's walk; each entry is
marked with the replaced names and arrow keys, and the next check composes
again only the edges whose own arrow, tree path or source graph was
replaced; a source whose cone holds none of them reuses its verdicts without
walking. A replaced arrow built as a patch of the one it replaces (see
`Homomorphism._patched`) also leaves the keys at which the two may differ;
a comparing edge that held before is then compared only at those keys and
at their preimages, which is all a rewrite can change. Every other
construction starts with an empty memo, and a check that raises keeps the
entry it started from. The memo holds no hierarchy and patches hold the maps
they patched only weakly, so a chain of rewrites does not keep its
ancestors alive; equality, repr and JSON ignore the memo. Two threads
checking the same hierarchy write equal entries, so concurrent fills are
idempotent. `composed_typing` returns the memo's composite when the entry is
current.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .exceptions import CompositionError, GraphElementError, HierarchyError
from .graphs import (
    Graph,
    Homomorphism,
    _located,
    _node_map_from_json,
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
        sk = cls(frozenset(nodes), frozenset(tuple(e) for e in edges))
        for (u, v) in sk.edges:
            if u not in sk.nodes or v not in sk.nodes:
                raise HierarchyError(f"skeleton edge ({u},{v}) has unknown endpoint")
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
    """Memo of one source's commutativity check: the composite fixed for
    each node of its cone (None at the source itself), the verdict of each
    comparing edge (a violation or None), the names and arrow keys replaced
    since it was filled, and for each replaced arrow that was patched from
    the one before it every time, the keys at which it may differ from the
    arrow the entry saw."""

    canon: dict[str, Homomorphism | None]
    verdicts: dict[tuple[str, str], CommutativityViolation | None]
    changed: frozenset
    patched: dict[tuple[str, str], frozenset]


def _merge_patches(entry: _Check, replaced, known: dict) -> dict:
    """The entry's patch keys after one more replacement of the arrows
    `replaced`, of which those in `known` are patches of the arrows they
    replace: key sets of one arrow unite, and an arrow replaced once
    without a patch stays unknown. Neither input is modified."""
    if not entry.changed:
        return known
    out = {e: keys for e, keys in entry.patched.items() if e not in replaced}
    for e, keys in known.items():
        if e not in entry.changed:
            out[e] = keys
        elif e in entry.patched:
            out[e] = entry.patched[e] | keys
    return out


_NOTHING: frozenset = frozenset()


def _moved_keys(ku, kv, ke, old_u: Homomorphism) -> set | None:
    """The nodes of the source's graph at which a comparing edge u -> v can
    have changed since it held, or None when that is not known.

    ku and kv are the keys at which the composites at u and v may differ
    from the ones it was checked with, and ke the keys at which the arrow
    u -> v may differ from the old one. Outside ku the composite at u keeps
    its image y (under old_u, the old composite at u), and unless y lies in
    ke the arrow keeps y's image, so the edge's candidate composite keeps
    its value; outside kv so does the fixed one. They were equal, so they
    can only differ in ku, kv and the old_u-preimages of ke.
    """
    if ku is None or kv is None or ke is None:
        return None
    keys = set(ku)
    keys.update(kv)
    hit = [y for y in ke if y in old_u.target.nodes]
    if hit:
        preimages = old_u._preimages()
        for y in hit:
            keys.update(preimages.get(y, ()))
    return keys


def _tree_path(parent: dict[str, str], v: str) -> tuple[str, ...]:
    path = [v]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


class Hierarchy:
    """Immutable hierarchy value; mutators return extended copies."""

    __slots__ = (
        "_objects", "_arrows", "skeleton", "skeleton_map", "_succ", "_pred", "_checks"
    )

    def __init__(
        self,
        objects: dict[str, Graph] | None = None,
        arrows: dict[tuple[str, str], Homomorphism] | None = None,
        skeleton: Skeleton | None = None,
        skeleton_map: dict[str, str] | None = None,
    ):
        arrows = dict(arrows or {})
        self._fill(dict(objects or {}), arrows, skeleton, skeleton_map, *_adjacency(arrows), {})

    def _fill(self, objects, arrows, skeleton, skeleton_map, succ, pred, checks):
        object.__setattr__(self, "_objects", objects)
        object.__setattr__(self, "_arrows", arrows)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "skeleton_map", dict(skeleton_map or {}))
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)
        object.__setattr__(self, "_checks", checks)

    def __setattr__(self, name, value):
        raise AttributeError("Hierarchy instances are immutable")

    def __eq__(self, other):
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self._objects == other._objects
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
        skeleton_map = dict(self.skeleton_map)
        if self.skeleton is not None:
            if kind is None:
                raise HierarchyError(f"node {name}: skeleton kind required")
            if kind not in self.skeleton.nodes:
                raise HierarchyError(f"node {name}: unknown skeleton kind {kind}")
            skeleton_map[name] = kind
        return Hierarchy(
            {**self._objects, name: g}, self._arrows, self.skeleton, skeleton_map
        )

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
            ka, kb = self.skeleton_map[a], self.skeleton_map[b]
            if (ka, kb) not in self.skeleton.edges:
                raise HierarchyError(
                    f"typing {a} -> {b} has no skeleton edge {ka} -> {kb}"
                )
        candidate = Hierarchy(
            self._objects, {**self._arrows, (a, b): hom}, self.skeleton, self.skeleton_map
        )
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

        When no new arrow key appears, the shape is shared and the check
        memo is carried over, each entry marked with the replaced names and
        arrow keys (and the patch keys of patched arrows) so the next
        `validate_commutativity` redoes only the composites those reach.
        """
        new_objects = {**self._objects, **(objects or {})}
        new_arrows = {**self._arrows, **(arrows or {})}
        if len(new_arrows) != len(self._arrows):
            return Hierarchy(new_objects, new_arrows, self.skeleton, self.skeleton_map)
        arrows = arrows or {}
        changed = frozenset(objects or ()) | frozenset(arrows)
        known = {}
        for e, arrow in arrows.items():
            keys = arrow._changes_since(self._arrows[e])
            if keys is not None:
                known[e] = keys
        # iterate a copy: another thread may be filling this memo
        checks = {
            a: _Check(
                entry.canon,
                entry.verdicts,
                entry.changed | changed,
                _merge_patches(entry, arrows, known),
            )
            for a, entry in self._checks.copy().items()
        }
        out = object.__new__(Hierarchy)
        out._fill(
            new_objects, new_arrows, self.skeleton, self.skeleton_map,
            self._succ, self._pred, checks,
        )
        return out

    # -- validation ------------------------------------------------------------

    def validate_commutativity(self) -> list[CommutativityViolation]:
        """All pairs of parallel path composites must be equal.

        For each source, a breadth-first walk in sorted successor order fixes
        one composite per reachable node along the first edge that reaches
        it; every other edge extension is compared against it, which covers
        all path pairs by induction. Each source's composites and verdicts
        are memoized (see the module docstring), so only the parts of its
        cone that a `replace` touched are composed again.
        """
        violations = []
        for a in self.nodes():
            violations.extend(self._check_source(a, self._checks.get(a)))
        return violations

    def _check_source(self, a: str, entry: _Check | None) -> list[CommutativityViolation]:
        """Walk a's cone once: redo each edge whose inputs changed since
        `entry` was filled (every edge without an entry), reuse the rest.

        A failing compose on a tree edge raises at once; a failure on a
        comparing edge is raised after the walk, so the first tree-edge
        failure wins, as when all tree edges are composed before any
        comparison. Only a walk that raises nothing updates the memo. When
        nothing replaced lies in the cone (no object of it, no arrow out of
        it), the stored verdicts are returned without a walk.

        `moved[v]` holds the keys of a's graph at which canon[v] may differ
        from the entry's composite, or None when that is not known (always
        at a itself): nothing for a reused composite, the arrow's patch keys
        for a successor of a, and None for a composite built again. A
        comparing edge that held when the entry was filled, and whose keys
        are known, is compared at those keys only (see `_moved_keys`).
        """
        if entry is not None and not any(
            (x[0] if isinstance(x, tuple) else x) in entry.canon for x in entry.changed
        ):
            if entry.changed:
                self._checks[a] = entry._replace(changed=frozenset(), patched={})
            return [v for v in entry.verdicts.values() if v is not None]
        arrows, succ = self._arrows, self._succ
        changed = entry.changed if entry is not None else frozenset()
        patched = entry.patched if entry is not None else {}
        dirty = {a: entry is None or a in changed}
        canon: dict[str, Homomorphism | None] = {a: None}
        moved: dict[str, frozenset | None] = {a: None}
        parent: dict[str, str] = {}
        verdicts: dict[tuple[str, str], CommutativityViolation | None] = {}
        deferred: Exception | None = None
        order = [a]
        for u in order:  # grows while walking: breadth-first
            for v in succ.get(u, ()):
                e = (u, v)
                if v not in canon:
                    redo = dirty[u] or e in changed
                    if not redo:
                        canon[v], moved[v] = entry.canon[v], _NOTHING
                    elif u == a:
                        canon[v] = self._first_hop(a, v)
                        moved[v] = (
                            None if entry is None
                            else patched.get(e) if e in changed
                            else _NOTHING
                        )
                    else:
                        canon[v], moved[v] = compose(arrows[e], canon[u]), None
                    dirty[v] = redo
                    parent[v] = u
                    order.append(v)
                elif deferred is not None:
                    continue
                elif dirty[u] or dirty[v] or e in changed:
                    try:
                        keys = None
                        ku, kv = moved[u], moved[v]
                        if ku is not None and kv is not None and entry.verdicts[e] is None:
                            ke = patched.get(e) if e in changed else _NOTHING
                            keys = _moved_keys(ku, kv, ke, entry.canon[u])
                        verdicts[e] = self._verdict(a, u, v, canon, parent, keys)
                    except (CompositionError, KeyError) as exc:
                        deferred = exc
                else:
                    verdicts[e] = entry.verdicts[e]
        if deferred is not None:
            raise deferred
        self._checks[a] = _Check(canon, verdicts, frozenset(), {})
        return [v for v in verdicts.values() if v is not None]

    def _first_hop(self, a: str, v: str) -> Homomorphism:
        """The composite along the one arrow a -> v: the arrow itself, once
        it passes the endpoint check that composing it with a's identity
        would make. Its map is taken to be total on a's graph, as a typing's
        is; a map that is not is no homomorphism, which `validate` reports
        before it checks commutativity."""
        arrow = self._arrows[(a, v)]
        if arrow.source != self._objects[a]:
            raise CompositionError("compose: f.target differs from g.source")
        return arrow

    def _verdict(self, a, u, v, canon, parent, keys) -> CommutativityViolation | None:
        """Compare the arrow u -> v after canon[u] with canon[v]: everywhere,
        or with `keys` only at those nodes of a's graph, after the endpoint
        checks of `compose` and `hom_equal`."""
        arrow, first, fixed = self._arrows[(u, v)], canon[u], canon[v]
        if a in (u, v):  # a cycle back to the source, in a shape left unchecked
            first = first or identity(self._objects[a])
            fixed = fixed or identity(self._objects[a])
        if keys is None:
            candidate = compose(arrow, first)
            if hom_equal(candidate, fixed):
                return None
            witness = next(
                n for n in sorted(self._objects[a].nodes) if candidate[n] != fixed[n]
            )
        else:
            if first.target != arrow.source:
                raise CompositionError("compose: f.target differs from g.source")
            if first.source != fixed.source or arrow.target != fixed.target:
                raise CompositionError("hom_equal: endpoints differ")
            am, fm, xm = arrow.node_map, first.node_map, fixed.node_map
            nodes = first.source.nodes
            bad = [n for n in keys if n in nodes and am[fm[n]] != xm[n]]
            if not bad:
                return None
            witness = min(bad)
        return CommutativityViolation(
            a, v, _tree_path(parent, v), _tree_path(parent, u) + (v,), witness
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
        return self._reach(s, self.successors)

    def ancestors(self, s: str) -> set[str]:
        return self._reach(s, self.predecessors)

    def _reach(self, s: str, step) -> set[str]:
        """s and every object reachable from it through `step`."""
        self.graph(s)
        out = {s}
        frontier = [s]
        while frontier:
            for v in step(frontier.pop()):
                if v not in out:
                    out.add(v)
                    frontier.append(v)
        return out

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
        reaches b by, whose first hop is an arrow itself. When a's check
        memo is current (filled, nothing replaced since), its composite is
        returned without a walk."""
        if a == b:
            return identity(self.graph(a))
        self.graph(b)
        entry = self._checks.get(a)
        if entry is not None and not entry.changed:
            if b in entry.canon:
                return entry.canon[b]
            raise HierarchyError(f"no path {a} -> {b}")
        self.graph(a)
        canon: dict[str, Homomorphism | None] = {a: None}
        frontier = [a]
        while frontier:
            u = frontier.pop(0)
            if u == b:
                return canon[b]
            for v in self.successors(u):
                if v not in canon:
                    if u == a:
                        canon[v] = self._first_hop(a, v)
                    else:
                        canon[v] = compose(self._arrows[(u, v)], canon[u])
                    frontier.append(v)
        if b in canon:
            return canon[b]
        raise HierarchyError(f"no path {a} -> {b}")


# -- JSON format -----------------------------------------------------------------


def hierarchy_to_json(h: Hierarchy) -> dict:
    out: dict = {}
    if h.skeleton is not None:
        out["skeleton"] = {
            "nodes": sorted(h.skeleton.nodes),
            "edges": [list(e) for e in sorted(h.skeleton.edges)],
            "assignment": {k: h.skeleton_map[k] for k in sorted(h.skeleton_map)},
        }
    out["graphs"] = {name: graph_to_json(h.graph(name)) for name in h.nodes()}
    out["typings"] = [
        {
            "from": a,
            "to": b,
            "map": {k: h.typing(a, b)[k] for k in sorted(h.graph(a).nodes)},
        }
        for (a, b) in h.edges()
    ]
    return out


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
            skeleton = Skeleton.create(nodes, edges)
            where = ("skeleton", "assignment")
            assignment = _node_map_from_json(sk.get("assignment", {}), "skeleton assignment")
        objects = {}
        for name in obj.get("graphs", {}):
            where = ("graphs", name)
            try:
                objects[name] = graph_from_json(obj["graphs"][name])
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
