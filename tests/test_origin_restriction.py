"""Differential test of the backward origin's restriction.

Pulled back along the origin's identity typing, the match is its own
restriction, so `propagation._resolve` gives the origin the restriction
(L, match, identity(L)) and the backward step lifts the rule itself there,
on the path of every other object. The original resolution pulled
identity(G) back against the match, and the original step complemented the
match out at the origin on a path of its own; both are kept in
reference_kernels.py. A `hypothesis` test builds and applies the same
backward plans under each and requires the same whole `apply_plan`
reports, every field of each and the `--report` JSON bytes, or the same
exception type and message.

The inputs are random valid hierarchies with canonical plans, strict
relation plans and partial relation plans, which derive clean-up deletions
(a clean-up's pattern is the discrete graph on the doomed nodes) and are
sometimes refused; plans with an explicit connector into the origin, exact
or with one node sent elsewhere (refused); and non-mono matches. The test
asserts that each of these cases occurred.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
import sqpo.propagation
import sqpo.relations
from generators import random_backward_plan, random_hierarchy
from sqpo import (
    BACKWARD,
    Homomorphism,
    NotMonoError,
    RewritingError,
    apply_plan,
    build_canonical_plan,
)
from sqpo.graphs import dumps_canonical
from test_step_checks import _summary


def _connector_into_origin(rng: random.Random, plan, exact: bool) -> bool:
    """Name an explicit connector along one arrow k -> origin: the strict
    part of k's factorization, which is the connector into the origin's
    factorization (its mid is L and its strict part the identity), or that
    map with one node sent to another node of L. Returns False when the
    plan's origin has no such arrow."""
    res = plan._resolution
    into = sorted(k for (k, i) in res.sub.edges() if i == plan.origin)
    if not into:
        return False
    k = rng.choice(into)
    post = plan.factorizations[k].post_arrow
    mapping = dict(post.node_map)
    if not exact and mapping:
        n = rng.choice(sorted(mapping))
        mapping[n] = rng.choice(sorted(post.target.nodes - {mapping[n]}) or [mapping[n]])
    plan.connectors[(k, plan.origin)] = Homomorphism(post.source, post.target, mapping)
    return True


def _non_mono(match: Homomorphism) -> Homomorphism | None:
    """The match with every pattern node sent to the image of the first,
    when the pattern has two nodes or more."""
    nodes = sorted(match.source.nodes)
    if len(nodes) < 2:
        return None
    return Homomorphism(match.source, match.target, {n: match[nodes[0]] for n in nodes})


def _outcome(seed: int, kind: str):
    """Build and apply the seed's backward plan of the given kind: the
    summary of every report and the `--report` bytes, or the exception's
    type and message; and whether the kind could be drawn."""
    rng = random.Random(seed)
    h = random_hierarchy(rng, max_objects=6, max_edges=10)
    origin = rng.choice(h.nodes())
    try:
        plan = random_backward_plan(rng, h, origin, partial=kind == "partial")
        if kind == "non-mono":
            match = _non_mono(plan.match)
            if match is None:
                return None, False
            plan = build_canonical_plan(h, origin, plan.rule, match, BACKWARD)
        elif kind in ("connector", "bad connector"):
            if not _connector_into_origin(rng, plan, kind == "connector"):
                return None, False
        reports = apply_plan(h, plan)
    except Exception as exc:
        return (type(exc), str(exc)), True
    return ([_summary(r) for r in reports], dumps_canonical(ref.report_json(reports))), True


def _pulled_back_origin(patch: pytest.MonkeyPatch) -> None:
    """Resolve and propagate backward plans as the original code did."""
    for module in (sqpo.propagation, sqpo.relations):
        patch.setattr(module, "_resolve", ref.resolve_pulled_back_origin)
    patch.setattr(sqpo.relations, "propagate_backward", ref.propagate_backward_origin_branch)


CASES = ["applied", "clean-up applied", "refused", "connector passed", "bad connector refused",
         "non-mono refused"]


def test_reports_equal_the_pulled_back_origin():
    seen: Counter = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["canonical", "partial", "connector", "bad connector", "non-mono"]),
    )
    def compare(seed, kind):
        got, drawn = _outcome(seed, kind)
        with pytest.MonkeyPatch.context() as patch:
            _pulled_back_origin(patch)
            want, _ = _outcome(seed, kind)
        assert got == want
        if not drawn:
            return
        if isinstance(want[0], list):
            seen["applied"] += 1
            seen["clean-up applied"] += len(want[0]) > 1
            seen["connector passed"] += kind == "connector"
        elif want[0] is NotMonoError:
            seen["non-mono refused"] += kind == "non-mono"
        elif want[0] is RewritingError and "composability" in want[1]:
            seen["refused"] += 1
            seen["bad connector refused"] += kind == "bad connector"

    compare()
    for case in CASES:
        assert seen[case], (case, seen)
