"""The paper's proof route, kept as test oracles.

The brute-force universal-property verifiers `verify_*_up` check a
candidate pullback, pushout, final pullback complement or image
factorization. Each one re-derives the defining property of its
construction from scratch (own pair enumeration, own union-find) and
checks mediating-arrow existence and uniqueness against the complete
generating family of test graphs of the category: single-node and
single-edge graphs over the attribute alphabet present in the inputs,
which suffices because every graph is assembled from nodes, edges and
attribute values. They never call the construction they verify.

The per-edge phases rewrite one typing arrow h: G -> T the way the paper
proves propagation correct: a strict and a canonical phase, the
projection of a rule onto the typing object (forward), its lifting to the
typed object (backward) and the clean-up rules. `sqpo` propagates through
the wave propagators `propagate_forward` and `propagate_backward` only;
the tests compare those against these phases. `lift_rule` here wraps the
library's and also reconstructs the typing of the lifted object.

Two errors are raised only here: `ResourceBoundExceeded` by a verifier
that hits its `OracleConfig` bound, and `NotEpiError` by the forward
clean-up phase.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

from sqpo.category import (
    ImageFactorizationResult,
    PbcResult,
    PullbackResult,
    PushoutResult,
    final_pbc,
    image_factorization,
    pullback,
    pushout,
)
from sqpo.exceptions import (
    FactorizationError,
    NotMonoError,
    RewritingError,
    SqpoError,
)
from sqpo.graphs import (
    Graph,
    Homomorphism,
    attrs_contained,
    attrs_difference,
    attrs_intersection,
    attrs_union,
    compose,
    hom_equal,
    is_epi,
    is_homomorphism,
    is_mono,
)
from sqpo.propagation import LiftResult, restriction_pullback
from sqpo.propagation import lift_rule as library_lift_rule


def merge_assignment(context: str, *parts: dict) -> dict:
    """The union of the maps `parts`, raising FactorizationError at a key
    two of them send to different images."""
    out: dict = {}
    for part in parts:
        for k, v in part.items():
            if k in out and out[k] != v:
                raise FactorizationError(
                    f"{context}: element {k} would need to map to both {out[k]} and {v}"
                )
            out[k] = v
    return out


class NotEpiError(SqpoError):
    """An arrow required to be an epi is not surjective on nodes, edges and attributes."""


class ResourceBoundExceeded(SqpoError):
    """A verifier hit its configured enumeration bound.

    The message names the bound that was hit.
    """


# -- universal-property oracles ----------------------------------------------


@dataclass
class OracleConfig:
    """Bounds for the universal-property verifiers.

    node_bound caps the size of test graphs (the complete generating family
    needs graphs of up to 2 nodes); max_probes caps the number of cone /
    competitor probes before giving up.
    """

    node_bound: int = 4
    max_probes: int = 500_000


_DEFAULT_CONFIG = OracleConfig()


def _guard(config: OracleConfig, probes: int):
    if config.node_bound < 2:
        raise ResourceBoundExceeded(
            f"test-graph node bound {config.node_bound} is below the "
            "complete generating family (single edges need 2 nodes)"
        )
    if probes > config.max_probes:
        raise ResourceBoundExceeded(
            f"verifier probe budget exceeded: {probes} > max_probes="
            f"{config.max_probes}"
        )


def verify_pullback_up(
    result: PullbackResult,
    f: Homomorphism,
    g: Homomorphism,
    config: OracleConfig = _DEFAULT_CONFIG,
) -> bool:
    """Check that `result` satisfies the pullback universal property.

    Probes every cone from single-node and single-edge test graphs (with
    the largest compatible attribute sets; smaller ones follow by
    monotonicity) for existence and uniqueness of a mediating arrow.
    """
    a_graph, b_graph = f.source, g.source
    apex, to_a, to_b = result.apex, result.to_a, result.to_b
    if not (is_homomorphism(to_a) and is_homomorphism(to_b)):
        return False
    if not hom_equal(compose(f, to_a), compose(g, to_b)):
        return False
    _guard(
        config,
        len(a_graph.nodes) * len(b_graph.nodes)
        + len(a_graph.edges) * len(b_graph.edges),
    )

    mediator: dict[tuple[str, str], str] = {}
    seen: dict[tuple[str, str], list[str]] = {}
    for p in apex.nodes:
        seen.setdefault((to_a[p], to_b[p]), []).append(p)
    for a in a_graph.nodes:
        for b in b_graph.nodes:
            if f[a] != g[b]:
                continue
            candidates = seen.get((a, b), [])
            if len(candidates) != 1:
                return False  # no mediator, or two mediators for the bare-node cone
            p = candidates[0]
            expected = attrs_intersection(a_graph.attrs_of(a), b_graph.attrs_of(b))
            if apex.attrs_of(p) != expected:
                return False
            mediator[(a, b)] = p
    required_edges = {}
    for ea in a_graph.edges:
        for eb in b_graph.edges:
            if f.edge_image(ea) != g.edge_image(eb):
                continue
            p1 = mediator.get((ea[0], eb[0]))
            p2 = mediator.get((ea[1], eb[1]))
            if p1 is None or p2 is None:
                return False
            required_edges[(p1, p2)] = attrs_intersection(
                a_graph.attrs_of(ea), b_graph.attrs_of(eb)
            )
    if set(required_edges) != apex.edges:
        return False
    return all(apex.attrs_of(e) == attrs for e, attrs in required_edges.items())


def verify_pushout_up(
    result: PushoutResult,
    f: Homomorphism,
    g: Homomorphism,
    config: OracleConfig = _DEFAULT_CONFIG,
) -> bool:
    """Check that `result` satisfies the pushout universal property.

    Recomputes the identification classes with an independent union-find
    and checks that the candidate identifies exactly those, covers exactly
    the image edges, and unites exactly the class attributes — which is
    equivalent to unique mediation into every co-cone.
    """
    b_graph, c_graph = f.target, g.target
    apex, from_b, from_c = result.apex, result.from_b, result.from_c
    if not (is_homomorphism(from_b) and is_homomorphism(from_c)):
        return False
    if not hom_equal(compose(from_b, f), compose(from_c, g)):
        return False
    _guard(config, len(b_graph.nodes) + len(c_graph.nodes))

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in b_graph.nodes:
        parent[("B", b)] = ("B", b)
    for c in c_graph.nodes:
        parent[("C", c)] = ("C", c)
    for a in f.source.nodes:
        rx, ry = find(("B", f[a])), find(("C", g[a]))
        if rx != ry:
            parent[ry] = rx

    def image(tagged):
        tag, n = tagged
        return from_b[n] if tag == "B" else from_c[n]

    by_root: dict = {}
    for x in parent:
        by_root.setdefault(find(x), []).append(x)
    images_seen = set()
    for members in by_root.values():
        imgs = {image(x) for x in members}
        if len(imgs) != 1:
            return False  # candidate fails to identify a generated pair
        img = imgs.pop()
        if img in images_seen:
            return False  # candidate identifies more than generated
        images_seen.add(img)
        attrs: dict = {}
        for tag, n in members:
            origin = b_graph if tag == "B" else c_graph
            attrs = attrs_union(attrs, origin.attrs_of(n))
        if apex.attrs_of(img) != attrs:
            return False
    if images_seen != apex.nodes:
        return False
    required_edges: dict = {}
    for tag, origin, arrow in (("B", b_graph, from_b), ("C", c_graph, from_c)):
        for e in origin.edges:
            img = arrow.edge_image(e)
            required_edges[img] = attrs_union(
                required_edges.get(img, {}), origin.attrs_of(e)
            )
    if set(required_edges) != apex.edges:
        return False
    return all(apex.attrs_of(e) == attrs for e, attrs in required_edges.items())


def verify_final_pbc_up(
    result: PbcResult,
    f: Homomorphism,
    m: Homomorphism,
    config: OracleConfig = _DEFAULT_CONFIG,
) -> bool:
    """Check that `result` is the *final* pullback complement of (f, m).

    First verifies the square is a pullback (element-level, with apex
    f.source), then probes finality against every competitor square built
    on single-node and single-edge test graphs: each one must admit
    exactly one mediating arrow into the candidate.
    """
    k_graph, l_graph, g_graph = f.source, f.target, m.target
    apex, embed, project = result.apex, result.embed, result.project
    if not is_mono(m):
        return False
    if not (is_homomorphism(embed) and is_homomorphism(project)):
        return False
    if not hom_equal(compose(project, embed), compose(m, f)):
        return False
    _guard(
        config,
        len(l_graph.nodes) * len(apex.nodes)
        + len(g_graph.edges) * max(1, len(k_graph.nodes)) ** 2,
    )

    # --- pullback premise, apex K over the cospan (m, project)
    seen: dict[tuple[str, str], list[str]] = {}
    for x in k_graph.nodes:
        seen.setdefault((f[x], embed[x]), []).append(x)
    k_at: dict[tuple[str, str], str] = {}
    for l in l_graph.nodes:
        for d_node in apex.nodes:
            if m[l] != project[d_node]:
                continue
            candidates = seen.get((l, d_node), [])
            if len(candidates) != 1:
                return False
            x = candidates[0]
            expected = attrs_intersection(l_graph.attrs_of(l), apex.attrs_of(d_node))
            if k_graph.attrs_of(x) != expected:
                return False
            k_at[(l, d_node)] = x
    required_k_edges = {}
    for le in l_graph.edges:
        for de in apex.edges:
            if m.edge_image(le) != project.edge_image(de):
                continue
            x1 = k_at.get((le[0], de[0]))
            x2 = k_at.get((le[1], de[1]))
            if x1 is None or x2 is None:
                return False
            required_k_edges[(x1, x2)] = attrs_intersection(
                l_graph.attrs_of(le), apex.attrs_of(de)
            )
    if set(required_k_edges) != k_graph.edges:
        return False
    for e, attrs in required_k_edges.items():
        if k_graph.attrs_of(e) != attrs:
            return False

    # --- finality: node competitors
    m_inv = {m[l]: l for l in l_graph.nodes}
    k_preimages: dict[str, list[str]] = {l: [] for l in l_graph.nodes}
    for x in k_graph.nodes:
        k_preimages[f[x]].append(x)
    over: dict[str, list[str]] = {}
    for d_node in apex.nodes:
        over.setdefault(project[d_node], []).append(d_node)
    for g in g_graph.nodes:
        l = m_inv.get(g)
        if l is None:
            candidates = over.get(g, [])
            if len(candidates) != 1:
                return False
            if apex.attrs_of(candidates[0]) != g_graph.attrs_of(g):
                return False
        else:
            for x in k_preimages[l]:
                widest = attrs_difference(
                    g_graph.attrs_of(g),
                    attrs_difference(l_graph.attrs_of(l), k_graph.attrs_of(x)),
                )
                if not attrs_contained(widest, apex.attrs_of(embed[x])):
                    return False

    # --- finality: edge competitors
    def endpoint_options(g):
        l = m_inv.get(g)
        if l is None:
            return [(over[g][0], None)]
        return [(embed[x], x) for x in k_preimages[l]]

    for (g1, g2) in g_graph.edges:
        for (d1, x1) in endpoint_options(g1):
            for (d2, x2) in endpoint_options(g2):
                widest = g_graph.attrs_of((g1, g2))
                if x1 is not None and x2 is not None:
                    l_edge = (f[x1], f[x2])
                    if l_edge in l_graph.edges:
                        if (x1, x2) not in k_graph.edges:
                            continue  # no homomorphism from the competitor apex
                        widest = attrs_difference(
                            widest,
                            attrs_difference(
                                l_graph.attrs_of(l_edge),
                                k_graph.attrs_of((x1, x2)),
                            ),
                        )
                if (d1, d2) not in apex.edges:
                    return False
                if not attrs_contained(widest, apex.attrs_of((d1, d2))):
                    return False
    return True


def verify_image_up(
    result: ImageFactorizationResult,
    f: Homomorphism,
    config: OracleConfig = _DEFAULT_CONFIG,
) -> bool:
    """Check the image-factorization universal property.

    The mono part must be injective, the composite must equal f, the first
    factor must cover the image object, and the image must coincide
    element-wise with the direct image of f — this forces the unique
    comparison into every competing mono factorization.
    """
    a_graph, b_graph = f.source, f.target
    image, restrict, include = result.image, result.restrict, result.include
    if not (is_homomorphism(restrict) and is_homomorphism(include)):
        return False
    if not is_mono(include):
        return False
    if not hom_equal(compose(include, restrict), f):
        return False
    if not is_epi(restrict):
        return False
    _guard(config, len(a_graph.nodes) + len(a_graph.edges))

    node_attrs: dict[str, dict] = {}
    for a in a_graph.nodes:
        node_attrs[f[a]] = attrs_union(node_attrs.get(f[a], {}), a_graph.attrs_of(a))
    edge_attrs: dict = {}
    for e in a_graph.edges:
        img = f.edge_image(e)
        edge_attrs[img] = attrs_union(edge_attrs.get(img, {}), a_graph.attrs_of(e))
    if {include[i] for i in image.nodes} != set(node_attrs):
        return False
    for i in image.nodes:
        if image.attrs_of(i) != node_attrs[include[i]]:
            return False
    if {include.edge_image(e) for e in image.edges} != set(edge_attrs):
        return False
    for e in image.edges:
        if image.attrs_of(e) != edge_attrs[include.edge_image(e)]:
            return False
    return True


# -- single-edge forward phases ------------------------------------------------


@dataclass(frozen=True)
class ForwardStrictResult:
    graph: Graph  # G′
    trace: Homomorphism  # G → G′
    instance: Homomorphism  # mid ↣ G′
    typing: Homomorphism  # G′ → T


def forward_strict(
    g: Graph,
    t: Graph,
    h: Homomorphism,
    r_prime: Homomorphism,
    m: Homomorphism,
    x: Homomorphism,
) -> ForwardStrictResult:
    """Strict phase of a forward rewrite: apply the part of the rule that is
    already typed by the target, leaving the target untouched."""
    if not is_mono(m):
        raise NotMonoError("forward_strict: instance must be a mono")
    if not hom_equal(compose(x, r_prime), compose(h, m)):
        raise FactorizationError(
            "forward_strict: typing of the strict part does not extend the instance typing"
        )
    if not is_mono(r_prime):
        warnings.warn(
            "strict-phase arrow is not a mono: the strict phase merges elements",
            RuntimeWarning,
            stacklevel=2,
        )
    po = pushout(m, r_prime)
    mapping = merge_assignment(
        "forward_strict retyping",
        {po.from_b[n]: h[n] for n in g.nodes},
        {po.from_c[l]: x[l] for l in r_prime.target.nodes},
    )
    typing = Homomorphism(po.apex, t, mapping)
    typing.validate()
    return ForwardStrictResult(po.apex, po.from_b, po.from_c, typing)


@dataclass(frozen=True)
class ForwardCanonicalResult:
    graph: Graph  # G⁺
    typing_graph: Graph  # T⁺
    typing: Homomorphism  # h⁺: G⁺ → T⁺
    trace: Homomorphism  # g⁺: G′ → G⁺
    typing_trace: Homomorphism  # t⁺: T → T⁺
    instance: Homomorphism  # m⁺: L⁺ ↣ G⁺


def forward_canonical(
    g_prime: Graph,
    t: Graph,
    h_prime: Homomorphism,
    r_plus: Homomorphism,
    m_prime: Homomorphism,
) -> ForwardCanonicalResult:
    """Canonical phase: finish the rewrite and propagate its effects to the
    typing object."""
    po1 = pushout(m_prime, r_plus)
    po2 = pushout(h_prime, po1.from_b)
    return ForwardCanonicalResult(
        graph=po1.apex,
        typing_graph=po2.apex,
        typing=po2.from_c,
        trace=po1.from_b,
        typing_trace=po2.from_b,
        instance=po1.from_c,
    )


@dataclass(frozen=True)
class ProjectedRule:
    pattern: Graph  # L_T
    to_pattern: Homomorphism  # mid → L_T
    projected: Homomorphism  # L_T → L_T⁺
    instance: Homomorphism  # L_T ↣ T
    rhs: Graph  # L_T⁺
    rhs_embed: Homomorphism  # L⁺ → L_T⁺


def project_rule(r_plus: Homomorphism, typing: Homomorphism) -> ProjectedRule:
    """Project the canonical part of a rule onto the typing object: image
    factorization of the typing followed by a pushout with the rule."""
    if r_plus.source != typing.source:
        raise FactorizationError("project_rule: arrows do not share a source")
    imf = image_factorization(typing)
    po = pushout(imf.restrict, r_plus)
    return ProjectedRule(
        pattern=imf.image,
        to_pattern=imf.restrict,
        projected=po.from_b,
        instance=imf.include,
        rhs=po.apex,
        rhs_embed=po.from_c,
    )


@dataclass(frozen=True)
class ForwardCleanupResult:
    graph: Graph  # T⊕
    trace: Homomorphism  # t⊕: T⁺ ↠ T⊕
    typing: Homomorphism | None  # t⊕ ∘ h⁺


def forward_cleanup(
    t_plus: Graph,
    m_hat_plus: Homomorphism,
    r_oplus: Homomorphism,
    h_plus: Homomorphism | None = None,
) -> ForwardCleanupResult:
    """Merge freshly added elements of the updated typing object."""
    if not is_epi(r_oplus):
        raise NotEpiError("forward_cleanup: clean-up rule must be an epi")
    if m_hat_plus.target != t_plus:
        raise FactorizationError("forward_cleanup: instance does not land in the target")
    po = pushout(m_hat_plus, r_oplus)
    typing = compose(po.from_b, h_plus) if h_plus is not None else None
    return ForwardCleanupResult(po.apex, po.from_b, typing)


# -- single-edge backward phases -------------------------------------------------


@dataclass(frozen=True)
class BackwardStrictResult:
    graph: Graph  # T′
    trace: Homomorphism  # t′: T′ → T
    instance: Homomorphism  # m′: mid ↣ T′
    typing: Homomorphism  # h′: G → T′
    restriction: RestrictionResult


def backward_strict(
    t: Graph,
    m: Homomorphism,
    r_prime: Homomorphism,
    retyping: Homomorphism,
    g: Graph,
    h: Homomorphism,
) -> BackwardStrictResult:
    """Strict phase of a backward rewrite: clone/delete in the typing object
    and retype the instances, leaving the typed object untouched."""
    rp = restriction_pullback(h, m)
    if retyping.source != rp.pattern:
        raise FactorizationError(
            "backward_strict: retyping must be defined on the canonical restriction"
        )
    strict_image = {r_prime[n] for n in r_prime.source.nodes}
    for p in sorted(rp.pattern.nodes):
        if rp.to_lhs[p] not in strict_image:
            raise RewritingError(
                f"element {rp.to_lhs[p]} deleted by the strict phase still has "
                f"an instance ({rp.instance[p]})"
            )
    if not hom_equal(compose(r_prime, retyping), rp.to_lhs):
        raise FactorizationError(
            "backward_strict: retyping does not factor the restriction typing"
        )
    pbc = final_pbc(r_prime, m)
    bot: dict[str, str] = {}
    m_image = {m[l] for l in m.source.nodes}
    for d in pbc.apex.nodes:
        tn = pbc.project[d]
        if tn not in m_image:
            bot[tn] = d
    m_hat_inv = {rp.instance[p]: p for p in rp.pattern.nodes}
    mapping = {}
    for n in g.nodes:
        if n in m_hat_inv:
            mapping[n] = pbc.embed[retyping[m_hat_inv[n]]]
        else:
            mapping[n] = bot[h[n]]
    typing = Homomorphism(g, pbc.apex, mapping)
    typing.validate()
    if not hom_equal(compose(pbc.project, typing), h):
        raise FactorizationError("backward_strict: retyping does not restore the typing")
    return BackwardStrictResult(pbc.apex, pbc.project, pbc.embed, typing, rp)


@dataclass(frozen=True)
class BackwardCanonicalResult:
    typing_graph: Graph  # T⁻
    typing_trace: Homomorphism  # t⁻: T⁻ → T′
    instance: Homomorphism  # m⁻: L⁻ ↣ T⁻
    graph: Graph  # G⁻
    trace: Homomorphism  # g⁻: G⁻ → G
    typing: Homomorphism  # h⁻: G⁻ → T⁻


def backward_canonical(
    t_prime: Graph,
    h_prime: Homomorphism,
    r_minus: Homomorphism,
    m_prime: Homomorphism,
) -> BackwardCanonicalResult:
    """Canonical phase: finish the rewrite of the typing object and pull the
    typed object back along it."""
    pbc = final_pbc(r_minus, m_prime)
    pb = pullback(h_prime, pbc.project)
    return BackwardCanonicalResult(
        typing_graph=pbc.apex,
        typing_trace=pbc.project,
        instance=pbc.embed,
        graph=pb.apex,
        trace=pb.to_a,
        typing=pb.to_b,
    )


@dataclass(frozen=True)
class TypedLiftResult(LiftResult):
    typing: Homomorphism | None = None  # h⁻: G⁻ → T⁻ when the T⁻ square is supplied


def lift_rule(
    retyping: Homomorphism,
    r_minus: Homomorphism,
    m_hat: Homomorphism,
    t_minus: BackwardCanonicalResult | None = None,
    h_prime: Homomorphism | None = None,
) -> TypedLiftResult:
    """The library's `lift_rule`, plus the typing h⁻: G⁻ → T⁻ of the lifted
    object when the canonical phase of T (t_minus) and the strict typing
    h′: G → T′ are supplied."""
    lift = library_lift_rule(retyping, r_minus, m_hat)
    typing = None
    if t_minus is not None and h_prime is not None:
        emb_inv = {lift.instance[p]: p for p in lift.pattern.nodes}
        minus_clones = {t_minus.instance[k] for k in t_minus.instance.source.nodes}
        bot = {
            t_minus.typing_trace[y]: y
            for y in t_minus.typing_graph.nodes
            if y not in minus_clones
        }
        mapping = {}
        for x in lift.graph.nodes:
            if x in emb_inv:
                mapping[x] = t_minus.instance[lift.to_rhs[emb_inv[x]]]
            else:
                mapping[x] = bot[h_prime[lift.trace[x]]]
        typing = Homomorphism(lift.graph, t_minus.typing_graph, mapping)
        typing.validate()
        if not hom_equal(
            compose(t_minus.typing_trace, typing), compose(h_prime, lift.trace)
        ):
            raise FactorizationError("lift_rule: reconstructed typing does not commute")
        if not hom_equal(
            compose(typing, lift.instance), compose(t_minus.instance, lift.to_rhs)
        ):
            raise FactorizationError("lift_rule: reconstructed typing misses the instance")
    return TypedLiftResult(
        **{f.name: getattr(lift, f.name) for f in fields(lift)}, typing=typing
    )


@dataclass(frozen=True)
class BackwardCleanupResult:
    graph: Graph  # G⊖
    trace: Homomorphism  # g⊖: G⊖ ↣ G⁻
    typing: Homomorphism | None


def backward_cleanup(
    g_minus: Graph,
    m_hat_minus: Homomorphism,
    r_ominus: Homomorphism,
    h_minus: Homomorphism | None = None,
) -> BackwardCleanupResult:
    """Delete unwanted clones left over by a canonical backward phase."""
    if not is_mono(r_ominus):
        raise NotMonoError("backward_cleanup: clean-up rule must be a mono")
    if m_hat_minus.target != g_minus:
        raise FactorizationError("backward_cleanup: instance does not land in the graph")
    pbc = final_pbc(r_ominus, m_hat_minus)
    typing = compose(h_minus, pbc.project) if h_minus is not None else None
    return BackwardCleanupResult(pbc.apex, pbc.project, typing)

