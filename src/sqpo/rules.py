"""Rewrite rules, match enumeration and the single-graph rewrite step.

A rule is a span of homomorphisms lhs ← interface → rhs. The left leg is
the restrictive part (clones and deletions: non-injective or non-surjective
on the interface side), the right leg the expansive part (merges and
additions). Rules can be written down directly or derived from a pattern
plus a list of primitive edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .category import final_pbc, pushout
from .edits import (
    CloneNode,
    DeleteEdge,
    DeleteNode,
    Edit,
    MergeNodes,
    RemoveAttrs,
    apply_edit,
)
from .exceptions import GraphElementError, InvalidHomomorphism, RewritingError
from .graphs import (
    Graph,
    Homomorphism,
    _node_map_from_json,
    _relocated,
    attrs_contained,
    fresh_id,
    graph_from_json,
    graph_to_json,
    homomorphism_maps,
    identity,
    is_mono,
    normalize_attrs,
)

RESTRICTIVE = "restrictive"
EXPANSIVE = "expansive"


@dataclass(frozen=True)
class Rule:
    """A span rule lhs ← interface → rhs."""

    lhs: Graph
    interface: Graph
    rhs: Graph
    left_leg: Homomorphism  # interface → lhs
    right_leg: Homomorphism  # interface → rhs

    def validate(self) -> None:
        if self.left_leg.source != self.interface or self.left_leg.target != self.lhs:
            raise InvalidHomomorphism("rule: left leg endpoints are wrong")
        if self.right_leg.source != self.interface or self.right_leg.target != self.rhs:
            raise InvalidHomomorphism("rule: right leg endpoints are wrong")
        self.left_leg.validate()
        self.right_leg.validate()

    @classmethod
    def identity_rule(cls, pattern: Graph) -> "Rule":
        ident = identity(pattern)
        return cls(pattern, pattern, pattern, ident, ident)


@dataclass(frozen=True)
class Match:
    """A mono instance of a rule: from the lhs (restrictive) or the
    interface (expansive)."""

    instance: Homomorphism
    kind: str  # RESTRICTIVE | EXPANSIVE


def rule_to_json(rule: Rule) -> dict:
    shared: dict = {}
    return {
        "lhs": graph_to_json(rule.lhs, shared),
        "interface": graph_to_json(rule.interface, shared),
        "rhs": graph_to_json(rule.rhs, shared),
        "left": {k: rule.left_leg[k] for k in sorted(rule.interface.nodes)},
        "right": {k: rule.right_leg[k] for k in sorted(rule.interface.nodes)},
    }


def rule_from_json(obj: dict) -> Rule:
    """Load a rule; a malformed value raises GraphElementError (in one of
    its graphs) or RewritingError naming its JSON path, as in
    `lhs.nodes[0]: malformed graph: ...`."""
    where: tuple = ()
    try:
        graphs, memo = [], {}
        for key in ("lhs", "interface", "rhs"):
            where = (key,)
            try:
                graphs.append(graph_from_json(obj[key], memo))
            except GraphElementError as exc:
                raise _relocated(GraphElementError, where, exc, "graph") from exc
        lhs, interface, rhs = graphs
        where = ("left",)
        left = _node_map_from_json(obj["left"], "left leg")
        where = ("right",)
        right = _node_map_from_json(obj["right"], "right leg")
        rule = Rule(
            lhs,
            interface,
            rhs,
            Homomorphism._of(interface, lhs, left),
            Homomorphism._of(interface, rhs, right),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise _relocated(RewritingError, where, exc, "rule") from exc
    rule.validate()
    return rule


class _RuleState:
    """Mutable scratch state while replaying edits into a rule."""

    def __init__(self, pattern: Graph):
        self.lhs = pattern
        self.p = pattern
        self.r = pattern
        self.p2l = {n: n for n in pattern.nodes}
        self.p2r = {n: n for n in pattern.nodes}

    def preimages(self, r_node: str) -> list[str]:
        return sorted(p for p, img in self.p2r.items() if img == r_node)

    def drop_interface_nodes(self, doomed) -> None:
        for n in sorted(doomed):
            self.p = self.p.delete_node(n)
            del self.p2l[n]
            del self.p2r[n]


def build_rule(pattern: Graph, edits: list[Edit]) -> Rule:
    """Derive a span rule whose effect on any match equals replaying the
    edits imperatively; the rhs replays them through `apply_edit`.

    Clones and deletions accumulate on the left leg, merges and additions
    on the right; attribute edits adjust the legs' containments.
    """
    st = _RuleState(pattern)
    for edit in edits:
        st.r = apply_edit(st.r, edit)
        if isinstance(edit, DeleteNode):
            st.drop_interface_nodes(st.preimages(edit.node))
        elif isinstance(edit, DeleteEdge):
            doomed = [
                e
                for e in st.p.edges
                if (st.p2r[e[0]], st.p2r[e[1]]) == (edit.source, edit.target)
            ]
            for e in sorted(doomed):
                st.p = st.p.delete_edge(*e)
        elif isinstance(edit, CloneNode):
            pre = st.preimages(edit.node)
            for p_node in pre:
                if len(pre) == 1:
                    names = (edit.copy1, edit.copy2)
                else:
                    names = (f"{p_node}∥{edit.copy1}", f"{p_node}∥{edit.copy2}")
                c1 = fresh_id(names[0], st.p.nodes - {p_node})
                c2 = fresh_id(names[1], (st.p.nodes - {p_node}) | {c1})
                st.p = st.p.clone_node(p_node, c1, c2)
                l_img = st.p2l.pop(p_node)
                st.p2r.pop(p_node)
                st.p2l[c1] = st.p2l[c2] = l_img
                st.p2r[c1] = edit.copy1
                st.p2r[c2] = edit.copy2
        elif isinstance(edit, MergeNodes):
            group = set(edit.group)
            for p_node, img in st.p2r.items():
                if img in group:
                    st.p2r[p_node] = edit.merged
        elif isinstance(edit, RemoveAttrs):
            drop = normalize_attrs(edit.attrs)
            if isinstance(edit.element, tuple):
                for e in sorted(st.p.edges):
                    if (st.p2r[e[0]], st.p2r[e[1]]) == edit.element:
                        st.p = st.p.remove_attrs(e, drop)
            else:
                for p_node in st.preimages(edit.element):
                    st.p = st.p.remove_attrs(p_node, drop)
    rule = Rule(
        st.lhs,
        st.p,
        st.r,
        Homomorphism(st.p, st.lhs, st.p2l),
        Homomorphism(st.p, st.r, st.p2r),
    )
    rule.validate()
    return rule


def find_matches(
    rule: Rule,
    g: Graph,
    kind: str = RESTRICTIVE,
    anchor: dict[str, str] | None = None,
) -> list[Match]:
    """All monos of the rule's pattern into g, in deterministic order.

    The pattern is the lhs for restrictive matches and the interface for
    expansive ones. `anchor` pre-assigns pattern nodes to graph nodes.
    """
    return list(_iter_matches(rule, g, kind, anchor))


def _iter_matches(
    rule: Rule,
    g: Graph,
    kind: str = RESTRICTIVE,
    anchor: dict[str, str] | None = None,
) -> Iterator[Match]:
    """The matches of `find_matches`, built one at a time as they are drawn."""
    if kind not in (RESTRICTIVE, EXPANSIVE):
        raise RewritingError(f"unknown match kind {kind!r}")
    pattern = rule.lhs if kind == RESTRICTIVE else rule.interface
    anchor = anchor or {}
    for k, v in anchor.items():
        if k not in pattern.nodes:
            raise GraphElementError(f"anchor: unknown pattern node {k}")
        if v not in g.nodes:
            raise GraphElementError(f"anchor: unknown graph node {v}")
    # only a pattern node without an anchor indexes the host; its smallest
    # posting list is a subsequence of the sorted host, so order is kept
    hosts, postings = g._candidate_index() if pattern.nodes - anchor.keys() else ([], {})
    host_attrs = g.node_attrs
    candidates = {}
    for n in pattern.nodes:
        want = pattern.attrs_of(n)
        pairs = [(k, v) for k, vs in want.items() for v in vs]
        if n in anchor:
            pool = [anchor[n]]
        elif len(pairs) > 1:
            pool = min((postings.get(p, ()) for p in pairs), key=len)
        else:  # all hosts, or the one posting list, hold exactly the nodes that match
            candidates[n] = postings.get(pairs[0], []) if pairs else hosts
            continue
        candidates[n] = [c for c in pool if attrs_contained(want, host_attrs.get(c, {}))]
    for node_map in homomorphism_maps(pattern, g, candidates, injective=True):
        yield Match(Homomorphism(pattern, g, node_map), kind)


@dataclass(frozen=True)
class SqpoRewriteResult:
    """Full trace of one sesqui-pushout rewrite step."""

    mid: Graph  # complement graph
    g_left: Homomorphism  # mid → input graph
    m_mid: Homomorphism  # interface ↣ mid
    output: Graph
    g_right: Homomorphism  # mid → output
    m_out: Homomorphism  # rhs ↣ output


def sqpo_rewrite(rule: Rule, match: Match) -> SqpoRewriteResult:
    """Rewrite at a restrictive match: complement out the left leg, then
    push out the right leg."""
    if match.kind != RESTRICTIVE:
        raise RewritingError("sqpo_rewrite needs a restrictive match")
    if match.instance.source != rule.lhs:
        raise RewritingError("match is not an instance of the rule's lhs")
    if not is_mono(match.instance):
        raise RewritingError("match must be a mono")
    pbc = final_pbc(rule.left_leg, match.instance)
    po = pushout(pbc.embed, rule.right_leg)
    return SqpoRewriteResult(
        mid=pbc.apex,
        g_left=pbc.project,
        m_mid=pbc.embed,
        output=po.apex,
        g_right=po.from_b,
        m_out=po.from_c,
    )
