import random

import pytest

from sqpo import (
    Graph,
    Homomorphism,
    NotMonoError,
    are_isomorphic,
    compose,
    final_pbc,
    hom_equal,
    identity,
    image_factorization,
    is_homomorphism,
    is_mono,
    pullback,
    pushout,
)
from sqpo.isomorphism import find_isomorphism

from generators import random_graph, random_hom_from, random_hom_into, random_mono_into
from paper_oracles import (
    OracleConfig,
    ResourceBoundExceeded,
    verify_final_pbc_up,
    verify_image_up,
    verify_pullback_up,
    verify_pushout_up,
)


def _random_cospan(rng):
    c = random_graph(rng, max_nodes=4, min_nodes=1)
    f = random_hom_into(rng, c, max_nodes=4, prefix="a")
    g = random_hom_into(rng, c, max_nodes=4, prefix="b")
    return f, g


def _random_span(rng):
    a = random_graph(rng, max_nodes=4, min_nodes=0)
    f = random_hom_from(rng, a, prefix="b")
    g = random_hom_from(rng, a, prefix="c")
    return f, g


def _random_pbc_input(rng):
    l_graph = random_graph(rng, max_nodes=4, min_nodes=0, prefix="l")
    f = random_hom_into(rng, l_graph, max_nodes=4, prefix="k")
    m = random_hom_from(rng, l_graph, prefix="g", injective=True)
    return f, m


def test_pullback_of_identities_is_diagonal():
    c = Graph(["u", "v"], [("u", "v")], {"u": {"k": ["a"]}})
    res = pullback(identity(c), identity(c))
    assert are_isomorphic(res.apex, c)
    assert verify_pullback_up(res, identity(c), identity(c))


def test_pullback_instance_restriction():
    # all four instances sit over the identity match on the type graph
    t = Graph(["circ", "sq"])
    g = Graph(["c1", "c2", "q1", "q2"])
    h = Homomorphism(g, t, {"c1": "circ", "c2": "circ", "q1": "sq", "q2": "sq"})
    res = pullback(h, identity(t))
    assert are_isomorphic(res.apex, g)
    assert verify_pullback_up(res, h, identity(t))


def test_pullback_attrs_intersect():
    c = Graph(["t"], node_attrs={"t": {"k": ["a", "b", "c"]}})
    a = Graph(["x"], node_attrs={"x": {"k": ["a", "b"]}})
    b = Graph(["y"], node_attrs={"y": {"k": ["b", "c"]}})
    res = pullback(Homomorphism(a, c, {"x": "t"}), Homomorphism(b, c, {"y": "t"}))
    (node,) = res.apex.nodes
    assert res.apex.attrs_of(node) == {"k": frozenset(["b"])}


def test_wrong_pullback_rejected():
    c = Graph(["u", "v"], [("u", "v")])
    a = Graph(["x", "y"], [("x", "y")])
    f = Homomorphism(a, c, {"x": "u", "y": "v"})
    res = pullback(f, f)
    # drop one edge: no longer satisfies the universal property
    broken = Graph(res.apex.nodes, [], res.apex.node_attrs, {})
    from sqpo.category import PullbackResult

    bad = PullbackResult(
        broken,
        Homomorphism(broken, a, res.to_a.node_map),
        Homomorphism(broken, a, res.to_b.node_map),
    )
    assert not verify_pullback_up(bad, f, f)


def test_pushout_along_identity():
    a = random_graph(random.Random(5), max_nodes=4)
    f = random_hom_from(random.Random(6), a, prefix="b")
    res = pushout(f, identity(a))
    assert res.apex == f.target  # host-side ids are kept
    assert verify_pushout_up(res, f, identity(a))


def test_pushout_merge_and_add():
    l = Graph(["w", "b"], node_attrs={"w": {"c": ["white"]}, "b": {"c": ["black"]}})
    g = Graph(
        ["w1", "w2", "b1", "b2"],
        node_attrs={
            "w1": {"c": ["white"]},
            "w2": {"c": ["white"]},
            "b1": {"c": ["black"]},
            "b2": {"c": ["black"]},
        },
    )
    lp = Graph(["wb", "s1", "s2"], node_attrs={"wb": {"c": ["white", "black"]}})
    m = Homomorphism(l, g, {"w": "w1", "b": "b1"})
    r = Homomorphism(l, lp, {"w": "wb", "b": "wb"})
    res = pushout(m, r)
    assert len(res.apex.nodes) == 5
    merged = res.from_b["w1"]
    assert merged == res.from_b["b1"]
    assert res.apex.attrs_of(merged) == {"c": frozenset(["white", "black"])}
    assert verify_pushout_up(res, m, r)


def test_pushout_preserves_monos():
    rng = random.Random(21)
    for _ in range(30):
        a = random_graph(rng, max_nodes=4)
        f = random_hom_from(rng, a, prefix="b")
        g = random_hom_from(rng, a, prefix="c", injective=True)
        assert is_mono(g)
        res = pushout(f, g)
        assert is_mono(res.from_b)


def test_final_pbc_identity_left():
    rng = random.Random(31)
    l = random_graph(rng, max_nodes=4, min_nodes=1, prefix="l")
    m = random_hom_from(rng, l, prefix="g", injective=True)
    res = final_pbc(identity(l), m)
    assert res.apex == m.target
    assert hom_equal(res.embed, m)
    assert verify_final_pbc_up(res, identity(l), m)


def test_final_pbc_clone_and_delete():
    t = Graph(["circ", "sq"])
    lhs = Graph(["circ", "sq"])
    k = Graph(["sq_w", "sq_b"])
    f = Homomorphism(k, lhs, {"sq_w": "sq", "sq_b": "sq"})
    m = Homomorphism(lhs, t, {"circ": "circ", "sq": "sq"})
    res = final_pbc(f, m)
    assert len(res.apex.nodes) == 2
    assert {res.project[n] for n in res.apex.nodes} == {"sq"}
    assert verify_final_pbc_up(res, f, m)


def test_final_pbc_deletes_with_side_effects():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lhs = Graph(["x"])
    k = Graph()
    f = Homomorphism(k, lhs, {})
    m = Homomorphism(lhs, g, {"x": "b"})
    res = final_pbc(f, m)
    assert res.apex.nodes == {"a", "c"}
    assert res.apex.edges == set()  # incident edges deleted as a side effect
    assert verify_final_pbc_up(res, f, m)


def test_final_pbc_keeps_unmatched_edges_between_kept_nodes():
    # pattern matches two disconnected nodes joined by an edge in the host
    g = Graph(["a", "b"], [("a", "b")])
    lhs = Graph(["x", "y"])
    m = Homomorphism(lhs, g, {"x": "a", "y": "b"})
    res = final_pbc(identity(lhs), m)
    assert res.apex == g
    assert verify_final_pbc_up(res, identity(lhs), m)


def test_final_pbc_requires_mono():
    l = Graph(["a", "b"])
    g = Graph(["c"])
    with pytest.raises(NotMonoError):
        final_pbc(identity(l), Homomorphism(l, g, {"a": "c", "b": "c"}))


def test_image_factorization_mono_is_iso():
    rng = random.Random(41)
    g = random_graph(rng, max_nodes=4, min_nodes=1)
    mono = random_mono_into(rng, g)
    res = image_factorization(mono)
    assert are_isomorphic(res.image, mono.source)
    assert verify_image_up(res, mono)


def test_image_factorization_constant():
    a = Graph(["x", "y", "z"])
    b = Graph(["p", "q"])
    f = Homomorphism(a, b, {"x": "p", "y": "p", "z": "p"})
    res = image_factorization(f)
    assert res.image.nodes == {"p"}
    assert verify_image_up(res, f)


def test_oracle_config_bounds():
    g = Graph(["a"])
    res = pullback(identity(g), identity(g))
    with pytest.raises(ResourceBoundExceeded):
        verify_pullback_up(res, identity(g), identity(g), OracleConfig(node_bound=1))
    with pytest.raises(ResourceBoundExceeded):
        verify_pullback_up(
            res, identity(g), identity(g), OracleConfig(max_probes=0)
        )


# -- randomized oracle runs (smaller than the acceptance loops) -----------------


def test_random_pullbacks_pass_oracle():
    rng = random.Random(101)
    for _ in range(40):
        f, g = _random_cospan(rng)
        assert verify_pullback_up(pullback(f, g), f, g)


def test_random_pushouts_pass_oracle():
    rng = random.Random(102)
    for _ in range(40):
        f, g = _random_span(rng)
        assert verify_pushout_up(pushout(f, g), f, g)


def test_random_final_pbcs_pass_oracle():
    from sqpo import PullbackResult

    rng = random.Random(103)
    for _ in range(40):
        f, m = _random_pbc_input(rng)
        res = final_pbc(f, m)
        assert verify_final_pbc_up(res, f, m)
        # the complement square is itself a pullback
        assert verify_pullback_up(PullbackResult(f.source, f, res.embed), m, res.project)


def test_random_image_factorizations_pass_oracle():
    rng = random.Random(104)
    for _ in range(40):
        target = random_graph(rng, max_nodes=4, min_nodes=1)
        f = random_hom_into(rng, target, max_nodes=5)
        assert verify_image_up(image_factorization(f), f)


def test_oracles_reject_tampered_candidates():
    """Each verifier must catch structural damage to a correct result."""
    from sqpo import ImageFactorizationResult, PbcResult, PullbackResult, PushoutResult

    rng = random.Random(202)
    # pullback with a junk extra node
    f, g = _random_cospan(rng)
    res = pullback(f, g)
    padded = Graph(
        res.apex.nodes | {"junk"},
        res.apex.edges,
        {**res.apex.node_attrs},
        res.apex.edge_attrs,
    )
    a_any = sorted(f.source.nodes)[0]
    b_imgs = [b for b in sorted(g.source.nodes) if g[b] == f[a_any]]
    if b_imgs:
        bad = PullbackResult(
            padded,
            Homomorphism(padded, f.source, {**res.to_a.node_map, "junk": a_any}),
            Homomorphism(padded, g.source, {**res.to_b.node_map, "junk": b_imgs[0]}),
        )
        assert not verify_pullback_up(bad, f, g)

    # pushout that forgets to merge
    a = Graph(["x", "y"])
    b = Graph(["bx", "by"])
    c = Graph(["c"])
    f2 = Homomorphism(a, b, {"x": "bx", "y": "by"})
    g2 = Homomorphism(a, c, {"x": "c", "y": "c"})
    good = pushout(f2, g2)
    assert verify_pushout_up(good, f2, g2)
    unmerged = Graph(["bx", "by", "c"])
    bad_po = PushoutResult(
        unmerged,
        Homomorphism(b, unmerged, {"bx": "bx", "by": "by"}),
        Homomorphism(c, unmerged, {"c": "c"}),
    )
    assert not verify_pushout_up(bad_po, f2, g2)

    # complement missing a host edge between kept nodes (not final)
    host = Graph(["a", "b"], [("a", "b")])
    lhs = Graph(["x", "y"])
    m3 = Homomorphism(lhs, host, {"x": "a", "y": "b"})
    res3 = final_pbc(identity(lhs), m3)
    assert verify_final_pbc_up(res3, identity(lhs), m3)
    smaller = Graph(["a", "b"])
    bad_pbc = PbcResult(
        smaller,
        Homomorphism(lhs, smaller, {"x": "a", "y": "b"}),
        Homomorphism(smaller, host, {"a": "a", "b": "b"}),
    )
    assert not verify_final_pbc_up(bad_pbc, identity(lhs), m3)

    # image with a node the arrow never hits
    a4 = Graph(["s"])
    b4 = Graph(["p", "q"])
    f4 = Homomorphism(a4, b4, {"s": "p"})
    res4 = image_factorization(f4)
    assert verify_image_up(res4, f4)
    fat = Graph(["p", "q"])
    bad_if = ImageFactorizationResult(
        fat,
        Homomorphism(a4, fat, {"s": "p"}),
        Homomorphism(fat, b4, {"p": "p", "q": "q"}),
    )
    assert not verify_image_up(bad_if, f4)

    # attribute-level damage: clone keeping too few attribute values
    lhs5 = Graph(["l"], node_attrs={"l": {"k": ["a", "b"]}})
    k5 = Graph(["k1"], node_attrs={"k1": {"k": ["a"]}})
    f5 = Homomorphism(k5, lhs5, {"k1": "l"})
    host5 = Graph(["h"], node_attrs={"h": {"k": ["a", "b", "c"]}})
    m5 = Homomorphism(lhs5, host5, {"l": "h"})
    res5 = final_pbc(f5, m5)
    (node5,) = res5.apex.nodes
    assert res5.apex.attrs_of(node5) == {"k": frozenset(["a", "c"])}
    assert verify_final_pbc_up(res5, f5, m5)
    starved = Graph([node5], node_attrs={node5: {"k": ["a"]}})
    bad5 = PbcResult(
        starved,
        Homomorphism(k5, starved, {"k1": node5}),
        Homomorphism(starved, host5, {node5: "h"}),
    )
    assert not verify_final_pbc_up(bad5, f5, m5)


# -- pasting lemmas -------------------------------------------------------------


def test_pushout_pasting():
    rng = random.Random(105)
    for _ in range(30):
        a = random_graph(rng, max_nodes=4)
        m = random_hom_from(rng, a, prefix="g", injective=True)
        r1 = random_hom_from(rng, a, prefix="m")
        r2 = random_hom_from(rng, r1.target, prefix="p")
        first = pushout(m, r1)
        second = pushout(first.from_c, r2)
        direct = pushout(m, compose(r2, r1))
        pasted = compose(second.from_b, first.from_b)
        # both co-cone legs must match under the comparison, which pins it
        anchor = {pasted[n]: direct.from_b[n] for n in m.target.nodes}
        for c2 in r2.target.nodes:
            want = direct.from_c[c2]
            assert anchor.setdefault(second.from_c[c2], want) == want
        iso = find_isomorphism(second.apex, direct.apex, anchor=anchor)
        assert iso is not None


def test_final_pbc_horizontal_pasting():
    rng = random.Random(106)
    for _ in range(30):
        mid = random_graph(rng, max_nodes=4, min_nodes=0, prefix="l")
        r_prime = random_hom_into(rng, mid, max_nodes=4, prefix="w")
        r_minus = random_hom_into(rng, r_prime.source, max_nodes=4, prefix="k")
        m = random_hom_from(rng, mid, prefix="g", injective=True)
        first = final_pbc(r_prime, m)
        second = final_pbc(r_minus, first.embed)
        direct = final_pbc(compose(r_prime, r_minus), m)
        iso = find_isomorphism(
            second.apex,
            direct.apex,
            compose(first.project, second.project),
            direct.project,
        )
        assert iso is not None


def test_constructed_squares_commute():
    rng = random.Random(107)
    for _ in range(30):
        f, g = _random_cospan(rng)
        res = pullback(f, g)
        assert hom_equal(compose(f, res.to_a), compose(g, res.to_b))
        s, t = _random_span(rng)
        po = pushout(s, t)
        assert hom_equal(compose(po.from_b, s), compose(po.from_c, t))
        pf, pm = _random_pbc_input(rng)
        pbc = final_pbc(pf, pm)
        assert hom_equal(compose(pbc.project, pbc.embed), compose(pm, pf))
        assert is_mono(pbc.embed)
        assert is_homomorphism(pbc.project)
