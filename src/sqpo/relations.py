"""Relation-controlled propagation.

Instead of spelling out a factorization per affected object, a caller can
give, per object, a single relation:

* forward — maps elements added by the rule either to existing elements of
  the target object (type them there, strictly) or to other added elements
  (give them one shared fresh type, via a derived clean-up merge);
* backward — maps instances in the source object to the clone copy that
  should retype them; fully related clones are refined strictly, partially
  related ones are cloned canonically with a derived clean-up deleting the
  unwanted copies, and unrelated ones propagate canonically.

Unrelated added elements / clones propagate canonically. Derived clean-ups
are applied as separate rule applications at the origin's direct neighbours.
"""

from __future__ import annotations

from collections.abc import Container

from .edits import MergeNodes
from .exceptions import RewritingError
from .graphs import (
    Graph,
    Homomorphism,
    attrs_contained,
    compose,
    fresh_id,
)
from .category import pullback
from .hierarchy import Hierarchy
from .propagation import (
    FORWARD,
    BackwardFactorization,
    ForwardFactorization,
    PropagationPlan,
    RestrictionResult,
    RewriteReport,
    _resolve,
    propagate_backward,
    propagate_forward,
    restriction_pullback,
)
from .rules import build_rule


def derive_forward_factorization(
    rule: Homomorphism,
    base_typing: Homomorphism,
    relation: dict[str, str],
) -> tuple[ForwardFactorization, list[list[tuple[str, str]]]]:
    """Derive a forward factorization (plus clean-up merge groups) from a
    relation on the rule's added elements."""
    lhs, rhs = rule.source, rule.target
    target = base_typing.target
    added = sorted(rhs.nodes - {rule[a] for a in lhs.nodes})
    added_set = set(added)

    parent: dict[str, str] = {a: a for a in added}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    direct: dict[str, str] = {}
    for key in sorted(relation):
        value = relation[key]
        if key not in added_set:
            raise RewritingError(
                f"relation key {key} is not an element added by the rule"
            )
        if value in target.nodes:  # typing into the target wins over added links
            direct[key] = value
        elif value in added_set:
            ra, rb = find(key), find(value)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        else:
            raise RewritingError(
                f"relation value {value} is neither an added element nor an "
                "element of the target object"
            )

    # a group of k added elements is joined by k - 1 keys, each mapped to an
    # added element, so at most one of its keys is typed into the target
    group_target: dict[str, str] = {}
    for a, t in direct.items():
        group_target[find(a)] = t

    strict: dict[str, str] = {}  # added element -> target element
    for a, t in sorted(direct.items()):
        if not attrs_contained(rhs.attrs_of(a), target.attrs_of(t)):
            raise RewritingError(
                f"relation inconsistent with typing: attributes of added "
                f"element {a} are not contained in those of {t}"
            )
        strict[a] = t

    # mid object: the rule source plus the strictly typed added elements
    taken = set(lhs.nodes)
    strict_name: dict[str, str] = {}
    for a in sorted(strict):
        name = fresh_id(a, taken)
        taken.add(name)
        strict_name[a] = name
    post_map = {u: rule[u] for u in lhs.nodes}
    typing_map = {u: base_typing[u] for u in lhs.nodes}
    for a, name in strict_name.items():
        post_map[name] = a
        typing_map[name] = strict[a]

    # attribute additions stay canonical; strict elements carry their full
    # rhs attributes (containment in the target was checked above)
    node_attrs = {u: lhs.attrs_of(u) for u in lhs.nodes}
    for a, name in strict_name.items():
        node_attrs[name] = rhs.attrs_of(a)

    strict_names = set(strict_name.values())
    edges = {}
    mid_nodes = sorted(taken)
    for u in mid_nodes:
        for v in mid_nodes:
            rhs_edge = (post_map[u], post_map[v])
            if rhs_edge not in rhs.edges:
                continue
            if (u, v) in lhs.edges:
                edges[(u, v)] = lhs.attrs_of((u, v))
            elif (
                (u in strict_names or v in strict_names)
                and (typing_map[u], typing_map[v]) in target.edges
                and attrs_contained(
                    rhs.attrs_of(rhs_edge),
                    target.attrs_of((typing_map[u], typing_map[v])),
                )
            ):
                edges[(u, v)] = rhs.attrs_of(rhs_edge)
    mid = Graph(mid_nodes, edges.keys(), node_attrs, edges)
    fact = ForwardFactorization(
        mid=mid,
        pre_arrow=Homomorphism(lhs, mid, {u: u for u in lhs.nodes}),
        post_arrow=Homomorphism(mid, rhs, post_map),
        typing=Homomorphism(mid, target, typing_map),
    )
    fact.pre_arrow.validate()
    fact.post_arrow.validate()
    fact.typing.validate()

    groups: dict[str, list[str]] = {}
    for a in added:
        groups.setdefault(find(a), []).append(a)
    cleanup: list[list[tuple[str, str]]] = []
    for root in sorted(groups):
        members = groups[root]
        canonical_members = [a for a in members if a not in strict]
        refs: list[tuple[str, str]] = []
        if root in group_target:
            refs.append(("old", group_target[root]))
        refs.extend(("new", a) for a in sorted(canonical_members))
        if len(refs) >= 2:
            cleanup.append(refs)
    return fact, cleanup


def derive_backward_factorization(
    rule: Homomorphism,
    match: Homomorphism,
    source: Graph,
    typing_to_origin: Homomorphism,
    relation: dict[str, str],
) -> tuple[BackwardFactorization, list[str]]:
    """Derive a backward factorization (plus clean-up selection) from a
    relation assigning clone copies to instances of the source object
    (typing_to_origin's source)."""
    rp = restriction_pullback(typing_to_origin, match)
    return _derive_backward(rule, rp, relation)


def _derive_backward(
    rule: Homomorphism, rp: RestrictionResult, relation: dict[str, str]
) -> tuple[BackwardFactorization, list[str]]:
    """`derive_backward_factorization` from the source's restriction."""
    lhs = rule.target  # pattern matched in the origin
    m_hat_inv = {rp.instance[p]: p for p in rp.pattern.nodes}

    copies: dict[str, list[str]] = {l: [] for l in lhs.nodes}
    for k in sorted(rule.source.nodes):
        copies[rule[k]].append(k)
    instances: dict[str, list[str]] = {l: [] for l in lhs.nodes}
    for p in sorted(rp.pattern.nodes):
        instances[rp.to_lhs[p]].append(p)

    assigned: dict[str, str] = {}  # pattern node -> clone copy
    for g_node in sorted(relation):
        copy = relation[g_node]
        p = m_hat_inv.get(g_node)
        if p is None:
            raise RewritingError(
                f"related element {g_node} is not an instance of the matched pattern"
            )
        if copy not in rule.source.nodes or rule[copy] != rp.to_lhs[p]:
            raise RewritingError(
                f"relation inconsistent with typing: {copy} is not a copy of "
                f"the element typing {g_node}"
            )
        assigned[p] = copy

    strict_clones: set[str] = set()
    for l in sorted(lhs.nodes):
        if len(copies[l]) < 2:
            continue
        related = [p for p in instances[l] if p in assigned]
        if instances[l] and len(related) == len(instances[l]):
            strict_clones.add(l)

    taken: set[str] = set()
    copy_name: dict[str, str] = {}
    passthrough: dict[str, str] = {}
    for l in sorted(lhs.nodes):
        if l in strict_clones:
            for k in copies[l]:
                name = fresh_id(k, taken)
                taken.add(name)
                copy_name[k] = name
        else:
            name = fresh_id(l, taken)
            taken.add(name)
            passthrough[l] = name

    post_map: dict[str, str] = {}
    for k, name in copy_name.items():
        post_map[name] = rule[k]
    for l, name in passthrough.items():
        post_map[name] = l
    node_attrs = {name: lhs.attrs_of(post_map[name]) for name in taken}
    edges = {}
    for u in sorted(taken):
        for v in sorted(taken):
            l_edge = (post_map[u], post_map[v])
            if l_edge in lhs.edges:
                edges[(u, v)] = lhs.attrs_of(l_edge)
    mid = Graph(taken, edges.keys(), node_attrs, edges)

    pre_map = {}
    for k in rule.source.nodes:
        pre_map[k] = copy_name.get(k, passthrough.get(rule[k]))
    retyping_map = {}
    for p in rp.pattern.nodes:
        l = rp.to_lhs[p]
        if l in strict_clones:
            retyping_map[p] = copy_name[assigned[p]]
        else:
            retyping_map[p] = passthrough[l]
    fact = BackwardFactorization(
        mid=mid,
        post_arrow=Homomorphism(mid, lhs, post_map),
        pre_arrow=Homomorphism(rule.source, mid, pre_map),
        retyping=Homomorphism(rp.pattern, mid, retyping_map),
    )
    fact.post_arrow.validate()
    fact.pre_arrow.validate()
    fact.retyping.validate()

    # clean-up: over the canonical lifted pattern, drop clone copies the
    # relation rejected (partial refinements); an empty relation rejects none
    if not relation:
        return fact, []
    lifted = pullback(fact.retyping, fact.pre_arrow)
    doomed = []
    for q in sorted(lifted.apex.nodes):
        p = lifted.to_a[q]
        k = lifted.to_b[q]
        g_node = rp.instance[p]
        if g_node in relation and relation[g_node] != k:
            doomed.append(q)
    return fact, doomed


# -- plan builders and the application driver -------------------------------------


def build_canonical_plan(
    h: Hierarchy,
    origin: str,
    rule: Homomorphism,
    match: Homomorphism,
    direction: str,
) -> PropagationPlan:
    """Plan with the fully propagating factorization at every affected node."""
    return build_relation_plan(h, origin, rule, match, direction, {})


def build_relation_plan(
    h: Hierarchy,
    origin: str,
    rule: Homomorphism,
    match: Homomorphism,
    direction: str,
    relations: dict[str, dict[str, str]],
) -> PropagationPlan:
    """Plan whose factorizations are derived from per-node relations;
    nodes without a relation entry propagate canonically."""
    return _relation_plan(h, origin, rule, match, direction, relations, ())


def _relation_plan(
    h: Hierarchy,
    origin: str,
    rule: Homomorphism,
    match: Homomorphism,
    direction: str,
    relations: dict[str, dict[str, str]],
    given: Container[str],
) -> PropagationPlan:
    """`build_relation_plan`, deriving nothing for the nodes in `given`:
    the caller supplies their factorizations."""
    plan = PropagationPlan(
        origin=origin, rule=rule, match=match, direction=direction
    )
    res = _resolve(h, plan)
    unknown = set(relations) - set(res.sub.nodes())
    if unknown:
        raise RewritingError(
            f"relations given for nodes outside the affected sub-hierarchy: "
            f"{sorted(unknown)}"
        )
    if origin in relations:
        raise RewritingError("the origin object cannot carry a relation")
    if direction == FORWARD:
        neighbours, words = h.successors, ("merge", "successors", "elements")
    else:
        neighbours, words = h.predecessors, ("deletion", "predecessors", "instances")
    for name in res.typings:
        if name in given:
            continue
        relation = relations.get(name, {})
        if direction == FORWARD:
            fact, cleanup = derive_forward_factorization(
                rule, compose(res.typings[name], match), relation
            )
        else:
            fact, cleanup = _derive_backward(rule, res.restrictions[name], relation)
        plan.factorizations[name] = fact
        if cleanup:
            if name not in neighbours(origin):
                what, side, elements = words
                raise RewritingError(
                    f"relation at {name} derives a clean-up {what}, but clean-ups are "
                    f"applied at the origin's direct {side}; relate the {elements} there "
                    "instead"
                )
            plan.cleanups[name] = cleanup
    return plan


def apply_plan(h: Hierarchy, plan: PropagationPlan) -> list[RewriteReport]:
    """Run the propagation, then any derived clean-ups as separate rule
    applications at the origin's direct neighbours. Returns all reports;
    the last one holds the final hierarchy."""
    forward = plan.direction == FORWARD
    propagate = propagate_forward if forward else propagate_backward
    main = propagate(h, plan)
    reports = [main]
    current = main.hierarchy

    def resolve(node: str, element: str | None) -> str | None:
        """Where a post-propagation element of `node` went, followed through
        the traces of the clean-ups made so far (one may propagate into the
        objects a later one touches); None once deleted. A backward clean-up
        rule has an empty interface, so each final pullback complement it
        makes (at its origin or propagated) deletes all it matches and keeps
        every other node's id: its trace is the identity on its source."""
        for trace in (rep.traces[node] for rep in reports[1:] if node in rep.traces):
            if forward:
                element = trace.node_map.get(element)
            elif element not in trace.source.nodes:
                element = None
        return element

    for node in sorted(plan.cleanups):
        if forward:
            groups = []
            for refs in plan.cleanups[node]:
                raw = {
                    main.traces[node][elem] if tag == "old" else main.instances[node][elem]
                    for tag, elem in refs
                }
                resolved = {r for r in (resolve(node, x) for x in raw) if r}
                if len(resolved) >= 2:
                    # coalesce with any group sharing an element (two groups
                    # may point at the same existing target)
                    for other in [g2 for g2 in groups if g2 & resolved]:
                        groups.remove(other)
                        resolved |= other
                    groups.append(resolved)
            if not groups:
                continue
            groups = sorted(sorted(grp) for grp in groups)
            pattern = Graph(n for grp in groups for n in grp)
            edits = []
            taken = set(pattern.nodes)
            for grp in groups:
                merged = fresh_id("_".join(grp), taken - set(grp))
                taken.add(merged)
                edits.append(MergeNodes(tuple(grp), merged))
            arrow = build_rule(pattern, edits).right_leg
            match2 = Homomorphism(
                pattern, current.graph(node), {n: n for n in pattern.nodes}
            )
        else:
            raw = {main.instances[node][q] for q in plan.cleanups[node]}
            doomed = sorted({r for r in (resolve(node, x) for x in raw) if r})
            if not doomed:
                continue
            # a deletion with an empty interface reads no edge or attribute of its pattern
            pattern = Graph._of(doomed, (), {}, {})
            arrow = Homomorphism(Graph(), pattern, {})
            match2 = Homomorphism._of(pattern, current.graph(node), dict(zip(doomed, doomed)))
        plan2 = build_canonical_plan(current, node, arrow, match2, plan.direction)
        rep = propagate(current, plan2)
        current = rep.hierarchy
        reports.append(rep)
    return reports


def induced_subgraph(g: Graph, nodes) -> Graph:
    keep = set(nodes)
    return Graph(
        keep,
        {e for e in g.edges if e[0] in keep and e[1] in keep},
        {n: a for n, a in g.node_attrs.items() if n in keep},
        {e: a for e, a in g.edge_attrs.items() if e[0] in keep and e[1] in keep},
    )
