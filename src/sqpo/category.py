"""Categorical constructions on attributed graphs: pullback, pushout,
final pullback complement over a mono, and image factorization.

Attribute flow is fixed per construction: intersection on pullbacks,
union on pushouts and image factorizations, and a subtractive rule on
pullback complements. Node ids of constructed graphs are derived
deterministically from the input ids ("a⋈b" for pullback pairs,
representative concatenation for pushout classes, "g∥k" for complement
clones), with a counter suffix on collision, so repeated runs produce
bit-identical output.

The constructions are driven by edges and indexes, never by pairs of nodes:

* pullback costs O(|A| + |B| + joined edges), up to a sort of the nodes:
  B nodes are bucketed by image, and A-edges and B-edges are joined on
  their common image edge;
* final_pbc costs O(|V_G| + sum over G-edges (u, v) of copies(u)·copies(v)),
  up to a sort of the nodes, where copies(g) is 1 for an untouched node,
  the number of K-preimages for a matched one and 0 for a deleted one;
* pushout and image_factorization are near-linear (union-find, sorting).

Node ids are still assigned in sorted order of the input ids, exactly as a
loop over all pairs of nodes would assign them.

The verify_*_up functions are brute-force universal-property oracles used
by the test suite. Each one re-derives the defining property of its
construction from scratch (own pair enumeration, own union-find) and
checks mediating-arrow existence and uniqueness against the complete
generating family of test graphs of this category — single-node and
single-edge graphs over the attribute alphabet present in the inputs,
which suffices because every graph is assembled from nodes, edges and
attribute values. They never call the construction they verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import (
    CompositionError,
    NotMonoError,
    ResourceBoundExceeded,
)
from .graphs import (
    Graph,
    Homomorphism,
    attrs_contained,
    attrs_difference,
    attrs_intersection,
    attrs_union,
    compose,
    fresh_id,
    hom_equal,
    is_homomorphism,
    is_mono,
    is_epi,
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


@dataclass(frozen=True)
class PbcResult:
    apex: Graph
    embed: Homomorphism  # K ↣ apex
    project: Homomorphism  # apex → G


@dataclass(frozen=True)
class ImageFactorizationResult:
    image: Graph
    restrict: Homomorphism  # A → image
    include: Homomorphism  # image ↣ B


def pullback(f: Homomorphism, g: Homomorphism) -> PullbackResult:
    """Pullback of the cospan f: A→C ← B :g.

    Apex nodes are the pairs (a, b) with f(a) = g(b); edges need an edge in
    both components; attributes are intersected key-wise.
    """
    if f.target != g.target:
        raise CompositionError("pullback: arrows do not share a target")
    a_graph, b_graph = f.source, g.source
    over: dict[str, list[str]] = {}
    for b in sorted(b_graph.nodes):
        over.setdefault(g[b], []).append(b)
    pairs = [(a, b) for a in sorted(a_graph.nodes) for b in over.get(f[a], ())]
    ids: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    for (a, b) in pairs:
        pid = fresh_id(f"{a}⋈{b}", taken)
        taken.add(pid)
        ids[(a, b)] = pid
    node_attrs = {
        ids[(a, b)]: attrs_intersection(a_graph.attrs_of(a), b_graph.attrs_of(b))
        for (a, b) in pairs
    }
    # join A-edges and B-edges on their common image edge in C
    f_map, g_map = f.node_map, g.node_map
    b_edges_over: dict[tuple, list[tuple[str, str]]] = {}
    for (b1, b2) in b_graph.edges:
        b_edges_over.setdefault((g_map.get(b1), g_map.get(b2)), []).append((b1, b2))
    edges = {}
    for (a1, a2) in a_graph.edges:
        for (b1, b2) in b_edges_over.get((f_map.get(a1), f_map.get(a2)), ()):
            p1, p2 = ids.get((a1, b1)), ids.get((a2, b2))
            if p1 is not None and p2 is not None:
                edges[(p1, p2)] = attrs_intersection(
                    a_graph.attrs_of((a1, a2)), b_graph.attrs_of((b1, b2))
                )
    apex = Graph(ids.values(), edges.keys(), node_attrs, edges)
    to_a = Homomorphism(apex, a_graph, {ids[p]: p[0] for p in pairs})
    to_b = Homomorphism(apex, b_graph, {ids[p]: p[1] for p in pairs})
    return PullbackResult(apex, to_a, to_b)


def _pushout_classes(f: Homomorphism, g: Homomorphism):
    """Union-find partition of B ⊔ C generated by f(a) ~ g(a)."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            # deterministic: smaller tagged id becomes the root
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx

    for b in f.target.nodes:
        parent[("B", b)] = ("B", b)
    for c in g.target.nodes:
        parent[("C", c)] = ("C", c)
    for a in sorted(f.source.nodes):
        union(("B", f[a]), ("C", g[a]))
    classes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return [sorted(members) for members in classes.values()]


def _class_base_id(members) -> str:
    b_ids = sorted(m[1] for m in members if m[0] == "B")
    if b_ids:
        return "_".join(b_ids)
    return "_".join(sorted(m[1] for m in members))


def pushout(f: Homomorphism, g: Homomorphism) -> PushoutResult:
    """Pushout of the span f: A→B, g: A→C.

    Apex nodes are equivalence classes of B ⊔ C generated by f(a) ~ g(a);
    classes keep the id of their B-side member(s) (concatenated when the
    class fuses several), so unchanged host nodes keep their ids.
    Attributes are united over each class.
    """
    if f.source != g.source:
        raise CompositionError("pushout: arrows do not share a source")
    b_graph, c_graph = f.target, g.target
    classes = _pushout_classes(f, g)
    classes.sort(key=lambda ms: (_class_base_id(ms), ms))
    ids: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    class_attrs: dict[str, dict] = {}
    for members in classes:
        qid = fresh_id(_class_base_id(members), taken)
        taken.add(qid)
        attrs: dict = {}
        for tag, n in members:
            ids[(tag, n)] = qid
            origin = b_graph if tag == "B" else c_graph
            attrs = attrs_union(attrs, origin.attrs_of(n))
        class_attrs[qid] = attrs
    edges: dict[tuple[str, str], dict] = {}
    for tag, origin in (("B", b_graph), ("C", c_graph)):
        for (u, v) in sorted(origin.edges):
            e = (ids[(tag, u)], ids[(tag, v)])
            edges[e] = attrs_union(edges.get(e, {}), origin.attrs_of((u, v)))
    apex = Graph(taken, edges.keys(), class_attrs, edges)
    from_b = Homomorphism(b_graph, apex, {b: ids[("B", b)] for b in b_graph.nodes})
    from_c = Homomorphism(c_graph, apex, {c: ids[("C", c)] for c in c_graph.nodes})
    return PushoutResult(apex, from_b, from_c)


def final_pbc(f: Homomorphism, m: Homomorphism) -> PbcResult:
    """Final pullback complement of f: K→L followed by the mono m: L↣G.

    Implements side-effecting deletion (nodes of L without f-preimage
    disappear from G together with incident edges) and cloning (nodes of L
    with several preimages are duplicated). Clone attributes follow the
    subtractive rule G(g) minus (L(l) minus K(k)), which is the largest
    choice keeping the square a pullback.
    """
    if f.target != m.source:
        raise CompositionError("final_pbc: arrows not composable")
    if not is_mono(m):
        raise NotMonoError("final_pbc: second arrow must be a mono")
    k_graph, l_graph, g_graph = f.source, f.target, m.target
    m_inv = {m[l]: l for l in l_graph.nodes}
    preimages: dict[str, list[str]] = {l: [] for l in l_graph.nodes}
    for k in sorted(k_graph.nodes):
        preimages[f[k]].append(k)

    # node key: (g, None) for untouched nodes, (g, k) for copies of instances
    ids: dict[tuple[str, str | None], str] = {}
    taken: set[str] = set()
    node_attrs: dict[str, dict] = {}
    for g in sorted(g_graph.nodes):
        if g not in m_inv:
            nid = fresh_id(g, taken)
            taken.add(nid)
            ids[(g, None)] = nid
            node_attrs[nid] = g_graph.attrs_of(g)
    for l in sorted(l_graph.nodes):
        g = m[l]
        for k in preimages[l]:
            base = g if len(preimages[l]) == 1 else f"{g}∥{k}"
            nid = fresh_id(base, taken)
            taken.add(nid)
            ids[(g, k)] = nid
            node_attrs[nid] = attrs_difference(
                g_graph.attrs_of(g),
                attrs_difference(l_graph.attrs_of(l), k_graph.attrs_of(k)),
            )

    # copies of a G node: itself if untouched, its K-preimages if matched
    # (none if deleted); every apex edge lies over a G edge
    copies = {g: [None] for g in g_graph.nodes if g not in m_inv}
    copies.update((g, preimages[l]) for g, l in m_inv.items())
    edges: dict[tuple[str, str], dict] = {}
    for g_edge in g_graph.edges:
        g1, g2 = g_edge
        for k1 in copies.get(g1, ()):
            for k2 in copies.get(g2, ()):
                if k1 is not None and k2 is not None:
                    l_edge = (f[k1], f[k2])
                    if l_edge in l_graph.edges:
                        if (k1, k2) not in k_graph.edges:
                            continue
                        attrs = attrs_difference(
                            g_graph.attrs_of(g_edge),
                            attrs_difference(
                                l_graph.attrs_of(l_edge), k_graph.attrs_of((k1, k2))
                            ),
                        )
                        edges[(ids[(g1, k1)], ids[(g2, k2)])] = attrs
                        continue
                edges[(ids[(g1, k1)], ids[(g2, k2)])] = g_graph.attrs_of(g_edge)

    apex = Graph(taken, edges.keys(), node_attrs, edges)
    embed = Homomorphism(k_graph, apex, {k: ids[(m[f[k]], k)] for k in k_graph.nodes})
    project = Homomorphism(apex, g_graph, {ids[p]: p[0] for p in ids})
    return PbcResult(apex, embed, project)


def image_factorization(f: Homomorphism) -> ImageFactorizationResult:
    """Factor f: A→B through its image subgraph of B.

    The image carries the hit nodes and hit edges with attributes united
    over preimages, making the first factor a homomorphism and the second
    a mono.
    """
    a_graph, b_graph = f.source, f.target
    node_attrs: dict[str, dict] = {}
    for a in sorted(a_graph.nodes):
        node_attrs[f[a]] = attrs_union(node_attrs.get(f[a], {}), a_graph.attrs_of(a))
    edge_attrs: dict[tuple[str, str], dict] = {}
    for e in sorted(a_graph.edges):
        img = f.edge_image(e)
        edge_attrs[img] = attrs_union(edge_attrs.get(img, {}), a_graph.attrs_of(e))
    image = Graph(node_attrs.keys(), edge_attrs.keys(), node_attrs, edge_attrs)
    restrict = Homomorphism(a_graph, image, dict(f.node_map))
    include = Homomorphism(image, b_graph, {n: n for n in image.nodes})
    return ImageFactorizationResult(image, restrict, include)


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
