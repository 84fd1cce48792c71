"""Differential test of the commutativity checks of a propagation.

`propagate_forward` and `propagate_backward` check the input before the
first step and the result after the last, and check the kept per-step
hierarchies in order only when one of those is not clean, also after a
step raised (see `propagation._propagate`, the wave loop both share). The
loops that check after every step are kept in reference_kernels.py. A
`hypothesis` test runs both on the same plans and requires the same whole
report, every field and its `--report` JSON bytes, or the same exception
type and message.

The inputs are random valid hierarchies, hierarchies with one arrow sent
elsewhere (some have violations) and hierarchies with one object swapped
for a larger copy that its arrows do not leave (their check raises); on
the last two, some plans are refused and some steps raise. Some runs also
corrupt the hierarchy in the middle of a propagation, at the `replace` of
one step, outside the objects the propagation updates, so that no later
step touches it: a stale object or a moved arrow from then on, and
sometimes a raise at a later step. On a clean input that is the only way
to reach a result that is not clean, or a step that raises after an
earlier step's check would have. On an input with violations, the per-step
loop stops at the first check that raises, while the loop under test runs
every step before it checks. The test asserts that each of these cases
occurred.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from generators import random_backward_plan, random_forward_plan, random_hierarchy
from sqpo import Graph, Hierarchy, Homomorphism, RewritingError, SqpoError
from sqpo import propagate_backward, propagate_forward
from sqpo.cli import _report_json
from sqpo.graphs import dumps_canonical


def _moved_arrow(rng: random.Random, h: Hierarchy, names) -> dict | None:
    """One arrow between `names` with one node sent elsewhere in the same
    target graph, if it has another node."""
    edges = [(a, b) for (a, b) in h.edges() if a in names and b in names]
    if not edges:
        return None
    a, b = rng.choice(edges)
    arrow = h.typing(a, b)
    mapping = dict(arrow.node_map)
    n = rng.choice(sorted(arrow.source.nodes))
    mapping[n] = rng.choice(sorted(arrow.target.nodes - {mapping[n]}) or [mapping[n]])
    return {"arrows": {(a, b): Homomorphism(arrow.source, arrow.target, mapping)}}


def _stale_object(rng: random.Random, h: Hierarchy, names) -> dict | None:
    """One object among `names` that has successors, swapped for a copy
    with one more node; its arrows still leave the old graph, so a check
    from it raises."""
    sources = [n for n in h.nodes() if n in names and h.successors(n)]
    if not sources:
        return None
    x = rng.choice(sources)
    g = h.graph(x)
    return {"objects": {x: Graph._of(g.nodes | {"extra"}, g.edges, g.node_attrs, g.edge_attrs)}}


def _corrupting(rng: random.Random, h: Hierarchy, steps: set):
    """A stand-in for `Hierarchy.replace` that, after the step at one
    object, also applies a stale object or a moved arrow outside the
    objects in `steps` (so no later step touches it), and that raises at
    the step at another object, when one is drawn."""
    outside = set(h.nodes()) - steps
    at, raise_at = rng.choice(sorted(steps)), rng.choice(sorted(steps) + [None])
    kinds = [_moved_arrow, _stale_object][:: 1 if rng.random() < 0.75 else -1]
    corrupt = kinds[0](rng, h, outside) or kinds[1](rng, h, outside)
    replace = Hierarchy.replace

    def corrupting_replace(self, objects=None, arrows=None):
        if objects and raise_at in objects:
            raise RewritingError(f"injected refusal at {raise_at}")
        out = replace(self, objects, arrows)
        if objects and at in objects and corrupt:
            out = replace(out, **corrupt)
        return out

    return corrupting_replace


def _summary(report) -> tuple:
    """Every field of a report, and its `--report` bytes."""
    h = report.hierarchy

    def arrows(homs):
        return {k: (a.source, a.target, dict(a.node_map)) for k, a in homs.items()}

    return (
        {n: h.graph(n) for n in h.nodes()},
        arrows({e: h.typing(*e) for e in h.edges()}),
        report.origin,
        report.direction,
        report.waves,
        arrows(report.traces),
        arrows(report.instances),
        arrows(report.updated_typings),
        report.steps,
        dumps_canonical(_report_json([report])),
    )


def _outcome(propagate, h, plan):
    """The summary of the report, or the exception's type and message with
    where it came from: a commutativity check, the entry checks, or a
    step."""
    plan._resolution = None
    try:
        return _summary(propagate(h, plan)), None
    except Exception as exc:
        frames, tb = set(), exc.__traceback__
        while tb is not None:
            frames.add(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        if "validate_commutativity" in frames:
            where = "check raised"
        elif "_checked_resolution" in frames:
            where = "plan refused"
        else:
            where = "step raised"
        return (type(exc), str(exc)), where


def _input_check(h: Hierarchy) -> str:
    try:
        return "violations" if h.validate_commutativity() else "clean"
    except Exception:
        return "raised"


CASES = [
    "input clean", "input violations", "input raised", "step raised", "injected step raised",
    "check raised", "plan refused", "clean input, result not clean",
    "clean input, a step's check raised", "input violations, a step's check raised",
]


def test_reports_equal_the_per_step_checks():
    seen: Counter = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        forward=st.booleans(),
        kind=st.sampled_from(["valid", "moved arrow", "stale object"]),
        corrupt=st.booleans(),
    )
    def compare(seed, forward, kind, corrupt):
        rng = random.Random(seed)
        h = random_hierarchy(rng, max_objects=7, max_edges=12)
        everything = set(h.nodes())
        if kind == "moved arrow":
            h = h.replace(**_moved_arrow(rng, h, everything))
        elif kind == "stale object":
            h = h.replace(**_stale_object(rng, h, everything))
        origin = rng.choice(h.nodes())
        try:
            if forward:
                plan = random_forward_plan(rng, h, origin)
            else:
                plan = random_backward_plan(rng, h, origin, partial=rng.random() < 0.3)
        except (SqpoError, KeyError):
            seen["plan not built"] += 1
            return
        checked = _input_check(h)
        with pytest.MonkeyPatch.context() as patch:
            if corrupt:
                steps = h.descendants(origin) if forward else h.ancestors(origin)
                patch.setattr(Hierarchy, "replace", _corrupting(rng, h, steps))
            if forward:
                got = _outcome(propagate_forward, h, plan)
                want = _outcome(ref.propagate_forward_per_step, h, plan)
            else:
                got = _outcome(propagate_backward, h, plan)
                want = _outcome(ref.propagate_backward_per_step, h, plan)
        assert got == want
        summary, where = want
        seen[f"input {checked}"] += 1
        if where == "step raised" and "injected refusal" in want[0][1]:
            where = "injected step raised"
        if where is not None:
            seen[where] += 1
        if checked == "clean" and where is None and any(v for _, v in summary[8]):
            seen["clean input, result not clean"] += 1
        if checked == "clean" and where == "check raised":
            seen["clean input, a step's check raised"] += 1
        if checked == "violations" and where == "check raised":
            seen["input violations, a step's check raised"] += 1

    compare()
    for case in CASES:
        assert seen[case], (case, seen)
