"""Propagation of rewrites through a hierarchy.

Expansive rewrites (adds, merges) propagate forward along typing arrows;
restrictive rewrites (clones, deletions) propagate backward against them.
Each affected object gets a factorization splitting the rule into a strict
part (already typed by / retyped into the existing object) and a canonical
part (whose effects propagate). Factorizations along a typing arrow must be
composable — connected by an arrow between their middle objects making the
rule triangles and the typing square commute — and then the whole
sub-hierarchy can be updated wave by wave while staying valid throughout.

Plans are validated up front (coverage, arrows that are homomorphisms,
factorization squares, composability) so that no wave can fail midway; a
rejected plan leaves the hierarchy untouched.

A plan is resolved once: the plan builders, the composability check and
the propagation steps share one resolution holding the affected
sub-hierarchy, each affected object's composed typing, the origin's
factorization and, backward, each object's restriction (the pullback of
its typing against the match; at the origin, the match itself) and the
pattern connectors along the sub-hierarchy's arrows. It is left on the
plan and rebuilt only for a different `Hierarchy` object.

A rewrite propagates only through `propagate_forward` and
`propagate_backward`. The paper's per-edge strict, canonical, projection
and clean-up phases, by which it proves propagation correct, serve the
test suite as an oracle for them (`tests/paper_oracles.py`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .category import final_pbc, pullback, pushout
from .exceptions import (
    FactorizationError,
    InvalidHomomorphism,
    NotMonoError,
    RewritingError,
)
from .graphs import (
    Graph,
    Homomorphism,
    _violation_at,
    attrs_contained,
    compose,
    hom_equal,
    homomorphism_maps,
    homomorphism_violation,
    identity,
    is_mono,
)
from .hierarchy import Hierarchy, _waves

FORWARD = "forward"
BACKWARD = "backward"


# -- factorizations ----------------------------------------------------------


@dataclass(frozen=True)
class ForwardFactorization:
    """Split of an expansive rule L→L⁺ relative to one typing target.

    pre_arrow (L→mid) is the strict part, post_arrow (mid→L⁺) the canonical
    part, and typing (mid→target) types the strict part in the target.
    """

    mid: Graph
    pre_arrow: Homomorphism
    post_arrow: Homomorphism
    typing: Homomorphism


@dataclass(frozen=True)
class BackwardFactorization:
    """Split of a restrictive rule L⁻→L relative to one typed source.

    post_arrow (mid→L) is the strict part, pre_arrow (L⁻→mid) the canonical
    part, and retyping (restriction pattern→mid) reassigns the instances
    touched by the strict part.
    """

    mid: Graph
    post_arrow: Homomorphism
    pre_arrow: Homomorphism
    retyping: Homomorphism


@dataclass
class PropagationPlan:
    origin: str
    rule: Homomorphism  # forward: L→L⁺; backward: L⁻→L
    match: Homomorphism  # mono from L into the origin object
    direction: str
    factorizations: dict[str, ForwardFactorization | BackwardFactorization] = field(
        default_factory=dict
    )
    connectors: dict[tuple[str, str], Homomorphism] = field(default_factory=dict)
    # clean-up derived from relations; applied as separate rule applications
    cleanups: dict[str, list] = field(default_factory=dict)
    # the values its checks and steps share (see `_resolve`)
    _resolution: _Resolution | None = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass
class RewriteReport:
    """Everything a caller needs to re-anchor references after propagation."""

    hierarchy: Hierarchy
    origin: str
    direction: str
    waves: list[list[str]]
    # forward: old→new; backward: new→old. Each is a `graphs._Trace`, the
    # identity except at the nodes its step touched, whose node map is
    # built only when read
    traces: dict[str, Homomorphism]
    instances: dict[str, Homomorphism]
    updated_typings: dict[tuple[str, str], Homomorphism]
    steps: list[tuple[str, list[str]]]  # per-object validation results


# -- restriction and lifting ----------------------------------------------------


@dataclass(frozen=True)
class RestrictionResult:
    pattern: Graph  # L_G
    instance: Homomorphism  # m̂: L_G ↣ G
    to_lhs: Homomorphism  # ĥ: L_G → L


def restriction_pullback(h: Homomorphism, m: Homomorphism) -> RestrictionResult:
    """The sub-object of h's source G whose typing can be modified by a rule
    matched at m: the pullback of the typing h: G → T against the match.
    Its projection to G is a mono: the apex pairs are (g, l) with h(g) =
    m(l), and a mono m gives each g at most one l; an apex edge needs an
    edge in both components and apex attributes are intersected, so the
    projection is a homomorphism."""
    if not is_mono(m):
        raise NotMonoError("restriction_pullback: match must be a mono")
    pb = pullback(h, m)
    return RestrictionResult(pb.apex, pb.to_a, pb.to_b)


@dataclass(frozen=True)
class LiftResult:
    pattern: Graph  # L_G⁻
    lift: Homomorphism  # r̂⁻: L_G⁻ → L_G
    to_rhs: Homomorphism  # ĥ⁻: L_G⁻ → L⁻
    graph: Graph  # G⁻
    trace: Homomorphism  # g⁻: G⁻ → G
    instance: Homomorphism  # m̂⁻: L_G⁻ ↣ G⁻
    # the edges of G⁻ at the lifted copies (see `PbcResult`)
    _rebuilt: tuple = field(default=(), repr=False, compare=False)


def lift_rule(
    retyping: Homomorphism, r_minus: Homomorphism, m_hat: Homomorphism
) -> LiftResult:
    """Lift the canonical part of a restrictive rule to the typed object:
    pullback against the retyping, then complement out the lifted rule."""
    if retyping.target != r_minus.target:
        raise FactorizationError("lift_rule: retyping and rule do not share a target")
    pb = pullback(retyping, r_minus)
    return _lifted(pb.to_a, pb.to_b, m_hat)


def _lifted(lift: Homomorphism, to_rhs: Homomorphism, m_hat: Homomorphism) -> LiftResult:
    """The lifted rule `lift` with its arrow `to_rhs` to L⁻, complemented out
    at m̂."""
    pbc = final_pbc(lift, m_hat)
    return LiftResult(lift.source, lift, to_rhs, pbc.apex, pbc.project, pbc.embed, pbc._rebuilt)


# -- plans, composability, propagation -------------------------------------------


@dataclass(frozen=True)
class _Resolution:
    """What the plan builders, `check_composability` and the propagation
    steps all read, built once per plan and hierarchy: the affected
    sub-hierarchy; each affected object's composed typing (from the origin
    forward, to it backward; the origin has none); the origin's
    factorization; and, backward, each object's restriction (the match at
    the origin) and the pattern connector along each arrow of the
    sub-hierarchy (None where the two restrictions are inconsistent)."""

    hierarchy: Hierarchy
    sub: Hierarchy
    typings: dict[str, Homomorphism]
    origin_fx: ForwardFactorization | BackwardFactorization
    restrictions: dict[str, RestrictionResult]
    pattern_conns: dict[tuple[str, str], Homomorphism | None]


def _resolve(h: Hierarchy, plan: PropagationPlan) -> _Resolution:
    """The plan's resolution against h: the one left on the plan when it
    was made against this very hierarchy object (hierarchies are immutable,
    and a plan's origin, rule, match and direction are fixed once built),
    else a new one, which is left on the plan in its place. Backward, the
    origin's restriction, the pullback of its identity typing against the
    match, is the match itself: (L, match, identity(L)), built without a
    pullback and with L's ids, which no output shows."""
    res = plan._resolution
    if res is not None and res.hierarchy is h:
        return res
    origin, match = plan.origin, plan.match
    restrictions: dict[str, RestrictionResult] = {}
    pattern_conns: dict[tuple[str, str], Homomorphism | None] = {}
    if plan.direction == FORWARD:
        sub = h.forward_subgraph(origin)
        typings = {n: h.composed_typing(origin, n) for n in sub.nodes() if n != origin}
        lhs = plan.rule.source
        origin_fx = ForwardFactorization(
            mid=lhs, pre_arrow=identity(lhs), post_arrow=plan.rule, typing=match
        )
    else:
        sub = h.backward_subgraph(origin)
        typings = {n: h.composed_typing(n, origin) for n in sub.nodes() if n != origin}
        if not is_mono(match):
            raise NotMonoError("restriction_pullback: match must be a mono")
        restrictions[origin] = RestrictionResult(match.source, match, identity(match.source))
        for name, typing in typings.items():
            restrictions[name] = restriction_pullback(typing, match)
        for (i, j) in sub.edges():
            pattern_conns[(i, j)] = _restriction_connector(
                h, i, j, restrictions[i], restrictions[j]
            )
        lhs = plan.rule.target
        origin_fx = BackwardFactorization(
            mid=lhs,
            post_arrow=identity(lhs),
            pre_arrow=plan.rule,
            retyping=restrictions[origin].to_lhs,
        )
    res = _Resolution(h, sub, typings, origin_fx, restrictions, pattern_conns)
    plan._resolution = res
    return res


def _restriction_connector(
    h: Hierarchy, i: str, j: str, rp_i: RestrictionResult, rp_j: RestrictionResult
) -> Homomorphism | None:
    """The induced arrow between restriction patterns along a typing edge."""
    h_ij = h.typing(i, j)
    lookup = {(rp_j.instance[p], rp_j.to_lhs[p]): p for p in rp_j.pattern.nodes}
    mapping = {}
    for p in rp_i.pattern.nodes:
        target = lookup.get((h_ij[rp_i.instance[p]], rp_i.to_lhs[p]))
        if target is None:
            return None
        mapping[p] = target
    return Homomorphism(rp_i.pattern, rp_j.pattern, mapping)


def _derive_connector(
    fx_i: ForwardFactorization | BackwardFactorization,
    fx_j: ForwardFactorization | BackwardFactorization,
    forced_pairs: list[tuple[str, str]],
    typed=None,
) -> Homomorphism | None:
    """First arrow mid_i→mid_j, in the search order of `homomorphism_maps`,
    that sends each forced node e to its `want` for every (e, want) pair,
    keeps the post-arrow triangle and, when `typed` is given, satisfies
    typed(e, c) for each node e and its image c."""
    forced: dict[str, str] = {}
    for e, want in forced_pairs:
        if forced.setdefault(e, want) != want:
            return None
    mid_i, mid_j = fx_i.mid, fx_j.mid
    targets = sorted(mid_j.nodes)
    candidates = {
        e: [
            c
            for c in ([forced[e]] if e in forced else targets)
            if fx_j.post_arrow[c] == fx_i.post_arrow[e]
            and (typed is None or typed(e, c))
            and attrs_contained(mid_i.attrs_of(e), mid_j.attrs_of(c))
        ]
        for e in sorted(mid_i.nodes)
    }
    found = next(homomorphism_maps(mid_i, mid_j, candidates, injective=False), None)
    return None if found is None else Homomorphism(mid_i, mid_j, found)


def _derive_forward_connector(
    fx_i: ForwardFactorization, fx_j: ForwardFactorization, h_ij: Homomorphism
) -> Homomorphism | None:
    pre_i, pre_j = fx_i.pre_arrow, fx_j.pre_arrow
    return _derive_connector(
        fx_i,
        fx_j,
        [(pre_i[a], pre_j[a]) for a in pre_i.source.nodes],
        lambda e, c: fx_j.typing[c] == h_ij[fx_i.typing[e]],
    )


def _derive_backward_connector(
    fx_i: BackwardFactorization,
    fx_j: BackwardFactorization,
    pattern_connector: Homomorphism,
) -> Homomorphism | None:
    pre_i, pre_j = fx_i.pre_arrow, fx_j.pre_arrow
    forced_pairs = [(pre_i[k], pre_j[k]) for k in pre_i.source.nodes]
    forced_pairs += [
        (fx_i.retyping[p], fx_j.retyping[pattern_connector[p]])
        for p in fx_i.retyping.source.nodes
    ]
    return _derive_connector(fx_i, fx_j, forced_pairs)


def check_composability(h: Hierarchy, plan: PropagationPlan) -> list[str]:
    """All reasons the plan cannot drive a validity-preserving propagation.

    Checks coverage of the affected sub-hierarchy, that every explicit
    connector sits on a typing of the sub-hierarchy, that every arrow of
    each factorization and every explicit connector is a homomorphism, the
    per-object factorization squares, and — for every typing arrow inside
    the sub-hierarchy — the composability triangles and typing (forward)
    or retyping (backward) square of the connector, deriving one when the
    plan does not name it."""
    res = _resolve(h, plan)
    forward = plan.direction == FORWARD
    kind = ForwardFactorization if forward else BackwardFactorization
    violations: list[str] = []
    facts = {plan.origin: res.origin_fx}
    for name in res.typings:
        fx = plan.factorizations.get(name)
        if fx is None:
            violations.append(f"node {name}: no factorization provided")
            continue
        if not isinstance(fx, kind):
            violations.append(f"node {name}: expected a {plan.direction} factorization")
            continue
        facts[name] = fx
        third = ("typing", fx.typing) if forward else ("retyping", fx.retyping)
        problems = [
            f"{label}: {problem}"
            for label, arrow in (("pre", fx.pre_arrow), ("post", fx.post_arrow), third)
            if (problem := homomorphism_violation(arrow)) is not None
        ]
        if problems:
            violations.append(f"node {name}: malformed factorization ({'; '.join(problems)})")
            continue
        if forward and not is_mono(fx.pre_arrow):
            warnings.warn(
                f"factorization at {name}: strict-phase arrow is not a mono "
                "(the strict phase merges elements)",
                RuntimeWarning,
                stacklevel=2,
            )
        try:  # endpoint mismatches raise
            if not hom_equal(compose(fx.post_arrow, fx.pre_arrow), plan.rule):
                violations.append(
                    f"node {name}: strict and canonical parts do not compose to the rule"
                )
            if forward:
                base = compose(res.typings[name], plan.match)
                if not hom_equal(compose(fx.typing, fx.pre_arrow), base):
                    violations.append(
                        f"node {name}: typing square fails (strict part typed incompatibly)"
                    )
            else:
                rp = res.restrictions[name]
                if fx.retyping.source != rp.pattern:
                    violations.append(
                        f"node {name}: retyping not defined on the canonical restriction"
                    )
                elif not hom_equal(compose(fx.post_arrow, fx.retyping), rp.to_lhs):
                    violations.append(
                        f"node {name}: retyping square fails (instances retyped incompatibly)"
                    )
        except Exception as exc:
            violations.append(f"node {name}: malformed factorization ({exc})")
    for (i, j) in sorted(plan.connectors.keys() - set(res.sub.edges())):
        violations.append(f"connector {i}->{j}: not a typing of the affected sub-hierarchy")

    if violations:
        return violations

    for (i, j) in res.sub.edges():
        fx_i, fx_j = facts[i], facts[j]
        ell = plan.connectors.get((i, j))
        if forward:
            h_ij = h.typing(i, j)
        else:
            pattern_conn = res.pattern_conns[(i, j)]
            if pattern_conn is None:
                violations.append(
                    f"connector {i}->{j}: restriction patterns are inconsistent"
                )
                continue
        if ell is not None:
            problem = homomorphism_violation(ell)
            if problem is not None:
                violations.append(f"connector {i}->{j}: {problem}")
                continue
        elif forward:
            ell = _derive_forward_connector(fx_i, fx_j, h_ij)
        else:
            ell = _derive_backward_connector(fx_i, fx_j, pattern_conn)
        if ell is None:
            violations.append(
                f"connector {i}->{j}: no composability arrow exists between the "
                "factorizations (one postpones work the other performs)"
            )
            continue
        if not hom_equal(compose(ell, fx_i.pre_arrow), fx_j.pre_arrow):
            violations.append(
                f"connector {i}->{j}: composability triangle (rule source side) fails"
            )
        if not hom_equal(compose(fx_j.post_arrow, ell), fx_i.post_arrow):
            violations.append(
                f"connector {i}->{j}: composability triangle (rule target side) fails"
            )
        if forward:
            if not hom_equal(compose(fx_j.typing, ell), compose(h_ij, fx_i.typing)):
                violations.append(f"connector {i}->{j}: typing square fails")
        elif not hom_equal(compose(ell, fx_i.retyping), compose(fx_j.retyping, pattern_conn)):
            violations.append(f"connector {i}->{j}: retyping square fails")
    return violations


def _checked_resolution(h: Hierarchy, plan: PropagationPlan, direction: str) -> _Resolution:
    """The entry checks of `propagate_forward` and `propagate_backward`: a
    plan of the direction, a mono match of the rule's matched side into
    the origin, and no `check_composability` violation. Returns the plan's
    resolution against h."""
    if plan.direction != direction:
        raise RewritingError(f"propagate_{direction} needs a {direction} plan")
    side = "source" if direction == FORWARD else "target"
    if plan.match.source != getattr(plan.rule, side):
        raise RewritingError(f"match must be an instance of the rule's {side}")
    if plan.match.target != h.graph(plan.origin):
        raise RewritingError("match does not land in the origin object")
    if not is_mono(plan.match):
        raise RewritingError("match must be a mono")
    violations = check_composability(h, plan)
    if violations:
        raise RewritingError(
            "plan rejected by composability check:\n" + "\n".join(violations)
        )
    return _resolve(h, plan)


def _commutes(h: Hierarchy) -> bool:
    """Whether h's commutativity check finds no violation and raises nothing
    (a check that raises has the steps checked in order)."""
    try:
        return not h.validate_commutativity()
    except Exception:
        return False


def _propagate(h: Hierarchy, plan: PropagationPlan, direction: str, step) -> RewriteReport:
    """The wave loop of both directions: after the entry checks, each object
    of the affected sub-hierarchy, sinks first forward and sources first
    backward, is updated by `step(res, i, current, instances)`, which
    returns i's new graph, trace and instance and the patched arrows at i,
    and the hierarchy is rebuilt by one `replace` per object.

    A valid input stays valid through every step of a plan that passed the
    composability check (the paper's preservation results), so if the
    input and the result both commute every step reports [], and a result
    whose input was known valid is known valid too (see
    `Hierarchy.add_typing`). Else the per-step hierarchies are checked in
    order, also after a step raised, so that a check that raises before
    that step raises first: the report and any exception are those of a
    check after every step."""
    res = _checked_resolution(h, plan, direction)
    sub = res.sub
    ahead, behind = (sub._succ, sub._pred) if direction == FORWARD else (sub._pred, sub._succ)
    waves = _waves(sub.nodes(), ahead, behind)
    current = h
    traces: dict[str, Homomorphism] = {}
    instances: dict[str, Homomorphism] = {}
    updated: dict[tuple[str, str], Homomorphism] = {}
    valid, clean, kept = h._memo.valid, _commutes(h), []
    try:
        for i in [n for wave in waves for n in wave]:
            graph, traces[i], instances[i], patch = step(res, i, current, instances)
            current = current.replace(objects={i: graph}, arrows=patch)
            updated.update(patch)
            kept.append((i, current))
    finally:
        clean = clean and _commutes(current)
        steps = [
            (i, [] if clean else [str(v) for v in after.validate_commutativity()])
            for i, after in kept
        ]
    if valid and clean:
        object.__setattr__(current, "_memo", current._memo.marked())
    return RewriteReport(current, plan.origin, direction, waves, traces, instances, updated, steps)


def propagate_forward(h: Hierarchy, plan: PropagationPlan) -> RewriteReport:
    """Propagate an expansive rewrite from the origin through everything it
    types, sinks first, keeping the hierarchy valid after every object.

    Each step does per-element work only at its delta. Object i is pushed
    out along its factorization; the pushout keeps every node of i outside
    the typing's image with its id, attributes and edges, unless a fused
    class took its id, and its result lists the nodes whose id changed
    (`moved`). The delta is the set of new nodes the pushout built: the
    images of the rule's right-hand side and of the moved nodes. Every
    typing at i is rebuilt as a patch of the arrow it replaces:

    * i -> j (j was updated earlier, so the arrow already lands in the new
      j) is re-set at the touched old nodes of i and at the delta, from the
      old arrow and the instance squares, and is checked only at the delta
      and at the edges the pushout built (`_rebuilt`). That check is sound:
      an untouched node x keeps its id, attributes and edges, its image is
      trace_j(old(x)), a composite of homomorphisms, so every edge and
      attribute at x that does not meet the delta keeps a valid image.
      A failure raises the message of the full check, since every
      violation lies in what is checked.
    * k -> i is re-set at the preimages of the moved nodes: elsewhere its
      composite with i's trace keeps its value.

    i's trace is the pushout's `from_b`, a `_Trace`; the step reads its
    images through the trace's delta, which holds every key it reads (the
    touched and the moved nodes), and never builds its node map.

    The two parts of the new i -> j agree wherever both define an image,
    so they are joined without a check: on a plan that passed
    `check_composability`, each generator typing_i(m) ~ post_i(m) of the
    pushout's classes gets one image, since the current arrow is
    trace_j ∘ h_ij (j's step re-set it at the preimages of j's moved
    nodes, and trace_j is the identity elsewhere) and

        trace_j(h_ij(typing_i(m))) = trace_j(typing_j(ell(m)))  (typing square)
                                   = inst_j(post_j(ell(m)))      (j's pushout square)
                                   = inst_j(post_i(m))           (post triangle)

    for the connector ell: mid_i -> mid_j that the check found. So both
    parts are one map on classes; a moved node that f does not touch is a
    class of its own.

    The patches record their keys, so the result's commutativity check
    compares only where they changed (see `hierarchy`, `_propagate`).
    """
    rhs = plan.rule.target

    def step(res, i, current, instances):
        fx = res.origin_fx if i == plan.origin else plan.factorizations[i]
        po = pushout(fx.typing, fx.post_arrow)
        ti, ii = po.from_b._delta, po.from_c.node_map
        moved = po._moved
        touched = {fx.typing[m] for m in fx.mid.nodes} | moved
        delta = {ii[c] for c in rhs.nodes} | {ti[n] for n in moved}
        patch: dict[tuple[str, str], Homomorphism] = {}
        for j in current.successors(i):
            arrow = current.typing(i, j)
            am, ij = arrow.node_map, instances[j].node_map
            mapping = {ti[n]: am[n] for n in touched}
            mapping.update((ii[c], ij[c]) for c in rhs.nodes)
            arrow = Homomorphism._patched(
                arrow, po.apex, arrow.target, mapping, touched | delta
            )
            problem = _violation_at(arrow, delta, po._rebuilt, touched)
            if problem is not None:
                raise InvalidHomomorphism(problem)
            patch[(i, j)] = arrow
        for k in current.predecessors(i):
            arrow = current.typing(k, i)
            am = arrow.node_map
            preimages = arrow._preimages() if moved else {}
            keys = [x for n in moved for x in preimages.get(n, ())]
            patch[(k, i)] = Homomorphism._patched(
                arrow, arrow.source, po.apex, {x: ti[am[x]] for x in keys}, keys
            )
        return po.apex, po.from_b, po.from_c, patch

    return _propagate(h, plan, FORWARD, step)


def propagate_backward(h: Hierarchy, plan: PropagationPlan) -> RewriteReport:
    """Propagate a restrictive rewrite from the origin through everything
    typed by it, sources first, keeping the hierarchy valid after every
    object.

    Each step does per-element work only at its delta. Object i is
    rewritten by a final pullback complement of its lifted rule (at the
    origin, the rule) over the image of its restriction (the match). It
    keeps every other node with its id, attributes and edges; its trace is
    the identity there, and it records the edges it built at the copies.
    The delta is the set of copies, the images of the lifted pattern. Every
    typing at i is rebuilt as a patch of the arrow it replaces:

    * k -> i (k was updated earlier, so the arrow is old(k, i) after k's
      trace) is re-set at k's copies, each to the instance of the image of
      its lifted pattern node through the pattern connector and i's lift. An
      untouched node of k whose image lies in i's matched part has no image
      left; the step raises KeyError naming that image, as a lookup among
      i's untouched nodes would (a valid plan has none: such a node lies in
      k's restriction). The arrow is checked only at the copies and at the
      edges of k built at them, and its square with the traces only at the
      copies. That check is sound: an untouched node x of k keeps its id,
      attributes and edges, and its image old(x), outside i's matched part,
      keeps its own; so every edge between untouched nodes keeps its image
      edge, and the square holds at x since trace_i is the identity at
      old(x). A failure raises the message of the full check, since every
      violation lies in what is checked.
    * i -> j is re-set at i's matched nodes (which leave i) and at its
      copies, each copy c taking the image of trace_i(c); elsewhere trace_i
      is the identity, so the patch is the composite of the old arrow and
      trace_i.

    i's trace is the final pullback complement's `project`, a `_Trace`; the
    step reads its images, and k's, through their deltas, which hold every
    key it reads (the copies), and never builds a node map.

    The re-set k -> i commutes with the traces at every copy by
    construction, so it is not compared with them: a copy x = inst_k(q)
    maps to y = inst_i(q') with lift_i(q') = conn(p) for p = lift_k(q), and

        trace_i(y) = matched_i(conn(p))         (i's complement square)
                   = h_ki(matched_k(p))         (conn is built by this lookup)
                   = h_ki(trace_k(x))           (k's complement square)

    where conn is the pattern connector along k -> i and h_ki the old arrow.

    The patches record their keys, so the result's commutativity check
    compares only where they changed (see `hierarchy`, `_propagate`).
    """
    lifts: dict[str, LiftResult] = {}

    def step(res, i, current, instances):
        matched = res.restrictions[i].instance
        if i == plan.origin:  # the origin's restriction is L: the rule is its lift
            lift = _lifted(plan.rule, identity(plan.rule.source), matched)
        else:
            fx = plan.factorizations[i]
            lift = lift_rule(fx.retyping, fx.pre_arrow, matched)
        lifts[i], new_graph = lift, lift.graph
        pairs = {(lift.lift[q], lift.to_rhs[q]): q for q in lift.pattern.nodes}
        ti, ii = lift.trace._delta, lift.instance.node_map
        matched_i = {matched[p] for p in matched.source.nodes}
        copies_i = [ii[p] for p in lift.pattern.nodes]
        patch: dict[tuple[str, str], Homomorphism] = {}
        for k in current.predecessors(i):
            arrow = current.typing(k, i)  # old(k, i) after trace_k
            old, lk = h.typing(k, i), lifts[k]
            # each node of L_G_k⁻ goes to the instance of its image in L_G_i⁻
            # (in L⁻ at the origin), found through the pattern connector
            conn, lift_k = res.pattern_conns[(k, i)].node_map, lk.lift.node_map
            to_rhs, inst = lk.to_rhs.node_map, lk.instance.node_map
            mapping = {inst[q]: ii[pairs[conn[lift_k[q]], to_rhs[q]]] for q in lk.pattern.nodes}
            preimages = old._preimages()
            stray = [
                x for y in matched_i for x in preimages.get(y, ())
                if x in lk.graph.nodes and x not in mapping
            ]
            if stray:  # an untouched node of k over a node that left i
                raise KeyError(arrow[min(stray)])
            arrow = Homomorphism._patched(arrow, lk.graph, new_graph, mapping, mapping)
            problem = _violation_at(arrow, mapping, lk._rebuilt, mapping)
            if problem is not None:
                raise InvalidHomomorphism(problem)
            patch[(k, i)] = arrow
        keys = matched_i.union(copies_i)
        for j in current.successors(i):
            arrow = current.typing(i, j)
            am = arrow.node_map
            patch[(i, j)] = Homomorphism._patched(
                arrow, new_graph, arrow.target, {c: am[ti[c]] for c in copies_i}, keys
            )
        return new_graph, lift.trace, lift.instance, patch

    return _propagate(h, plan, BACKWARD, step)
