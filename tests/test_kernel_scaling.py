"""Scaling guards for the rewrite kernels.

Each test runs one kernel on a 5000-node, 4000-edge graph and requires it to
finish within a CPU-time budget (`time.process_time`, so other processes on
the host do not count). On a 2-core x86-64 container host with CPython 3.11
the near-linear kernels take 0.02-0.07 s here and the budgets are 30-40 times
that, so a host running twice as slow stays far inside them. The pair-loop
kernels kept in reference_kernels.py take 3.6-12.7 s on the same host, so a
reintroduced loop over all pairs of nodes fails these tests.
"""

import random
import time

import pytest

from sqpo import (
    Graph,
    Homomorphism,
    Rule,
    final_pbc,
    find_matches,
    pullback,
)

NODES = 5000
EDGES = 4000


@pytest.fixture(scope="module")
def big():
    """A seeded 5000-node, 4000-edge graph typed by a one-node schema with a
    self-loop, so every node and edge lies over the schema's single type."""
    rng = random.Random(5000)
    nodes = [f"n{i}" for i in range(NODES)]
    edges = set()
    while len(edges) < EDGES:
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    g = Graph(nodes, edges, {"n0": {"k": ["x"]}}, {e: {"k": ["y"]} for e in list(edges)[:50]})
    schema = Graph(["T"], [("T", "T")], {"T": {"k": ["x"]}}, {("T", "T"): {"k": ["y"]}})
    typing = Homomorphism(g, schema, {n: "T" for n in nodes})
    return g, schema, typing


def _cpu_seconds(fn):
    start = time.process_time()
    result = fn()
    return time.process_time() - start, result


def test_final_pbc_clone_scales(big):
    g, _, _ = big
    lhs = Graph(["a"])
    interface = Graph(["a1", "a2"])
    clone = Homomorphism(interface, lhs, {"a1": "a", "a2": "a"})
    match = Homomorphism(lhs, g, {"a": "n1"})
    seconds, res = _cpu_seconds(lambda: final_pbc(clone, match))
    assert len(res.apex.nodes) == NODES + 1
    assert seconds < 1.0, f"final_pbc took {seconds:.2f} s of CPU"


def test_pullback_of_typing_scales(big):
    g, schema, typing = big
    pattern = Graph(["p"], [("p", "p")])
    mono = Homomorphism(pattern, schema, {"p": "T"})
    seconds, res = _cpu_seconds(lambda: pullback(typing, mono))
    assert len(res.apex.nodes) == NODES
    assert len(res.apex.edges) == EDGES
    assert seconds < 1.2, f"pullback took {seconds:.2f} s of CPU"


def test_find_matches_edge_pattern_scales(big):
    g, _, _ = big
    pattern = Graph(["u", "v"], [("u", "v")])
    rule = Rule.identity_rule(pattern)
    seconds, matches = _cpu_seconds(lambda: find_matches(rule, g))
    assert len(matches) == len({e for e in g.edges if e[0] != e[1]})
    assert seconds < 2.5, f"find_matches took {seconds:.2f} s of CPU"
