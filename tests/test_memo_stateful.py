"""Stateful differential test of the commutativity memo.

A `hypothesis` state machine starts from `generators.random_hierarchy` and
chains typings added with `add_typing`, forward rewrites and backward
rewrites, under canonical and relation plans with their clean-ups. After
each step the hierarchy, which carries its memo from step to step, must
answer exactly as a memo-free copy read back from its own JSON: the same
`validate_commutativity` verdicts, the same `composed_typing` for every
pair of objects, and for a rewrite the same report bytes and hierarchy
bytes (or the same exception type and message). A full validation, as
the copy's, marks a hierarchy that passes it valid, and so does a rewrite
of a hierarchy marked valid: a memo-free validation of its result must
find nothing, and a typing is added to it next. A typing added to a valid
hierarchy is compared at its frontier pairs only, and one added to any
other hierarchy (the copy, or one that `replace` or the constructor
returned, which the unmark rule makes) by the full check, so the typing
rule compares the two paths. After a check that passes, each memo entry
records the walk the copy's check records: the same nodes with a
composite and verdicts in walk order. Typings added by `add_typing`
and rewrites make some sources that have an entry walk anew.
Neither a typing added nor a rewrite, refused or not, writes into an
attribute dict of the hierarchy's graphs or the rule's: the constructions
share those dicts instead of copying them.
"""

import random
import sys
import threading
from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

import generators
import reference_kernels as ref
import sqpo.hierarchy
from generators import (
    assert_attrs_unchanged,
    attr_snapshot,
    random_backward_plan,
    random_forward_plan,
    random_hierarchy,
)
from sqpo import Hierarchy, Homomorphism, apply_plan, hierarchy_from_json, hierarchy_to_json
from sqpo.graphs import dumps_canonical

SEEDS = st.integers(0, 2**32 - 1)


def _memo_free(h):
    return hierarchy_from_json(hierarchy_to_json(h), validate=False)


def _outcome(call):
    """What `call()` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return (type(exc), str(exc))


def _walks(h):
    """Each memo entry as the walk it records (see the module docstring)."""
    return {
        a: (list(c.canon), [(e, str(x)) for e, x in c.verdicts.items()])
        for a, c in h._memo.entries.items()
    }


def _composite(h, a, b):
    got = h.composed_typing(a, b)
    return got.source, got.target, {n: got[n] for n in sorted(got.source.nodes)}


class MemoMachine(RuleBasedStateMachine):
    def __init__(self, seen: Counter, relations: list):
        super().__init__()
        self.seen, self.relations = seen, relations

    @initialize(seed=SEEDS)
    def build(self, seed):
        self.h = random_hierarchy(random.Random(seed), max_objects=6, max_edges=8)

    def _same_answers(self, h):
        """h answers as its memo-free copy does."""
        fresh = _memo_free(h)
        verdicts = _outcome(lambda: [str(v) for v in h.validate_commutativity()])
        assert verdicts == _outcome(lambda: [str(v) for v in fresh.validate_commutativity()])
        kind = "raised" if isinstance(verdicts, tuple) else "violations" if verdicts else "clean"
        self.seen[kind] += 1
        if kind != "raised":
            assert _walks(h) == _walks(fresh)
        for a in h.nodes():
            for b in h.nodes():
                got = _outcome(lambda: _composite(h, a, b))
                assert got == _outcome(lambda: _composite(fresh, a, b)), (a, b)

    @rule(seed=SEEDS)
    def add_typing(self, seed):
        """A typing along a free pair of objects (lower index to higher, so
        the shape stays acyclic): the composite along an existing path,
        which commutes, or a random map, which mostly fails."""
        self._typing(seed)

    @rule(by_replace=st.booleans())
    def unmark(self, by_replace):
        """The hierarchy, no longer known valid: an empty `replace`, or a
        copy built by the constructor, which is not known valid while it
        has arrows."""
        h = self.h
        if by_replace:
            self.h = h.replace()
        else:
            self.h = Hierarchy(
                {n: h.graph(n) for n in h.nodes()}, {e: h.typing(*e) for e in h.edges()},
                h.skeleton, h.skeleton_map,
            )
        assert not self.h._memo.valid or not self.h.edges()
        self.seen["unmarked"] += 1
        self._same_answers(self.h)

    def _typing(self, seed):
        """`add_typing` on the hierarchy and on its memo-free copy, which is
        not known valid: equal hierarchies or equal refusals."""
        rng = random.Random(seed)
        names = sorted(self.h.nodes(), key=lambda n: int(n[1:]))
        free = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if (a, b) not in self.h.edges()
        ]
        if not free:
            return
        a, b = rng.choice(free)
        source, target = self.h.graph(a), self.h.graph(b)
        if b in self.h.descendants(a) and rng.random() < 0.8:
            typing = self.h.composed_typing(a, b)
            hom = Homomorphism(source, target, {n: typing[n] for n in source.nodes})
        else:
            images = sorted(target.nodes)
            hom = Homomorphism(source, target, {n: rng.choice(images) for n in source.nodes})
        snapshot = attr_snapshot(*map(self.h.graph, self.h.nodes()))
        self.seen["typing on a valid hierarchy" if self.h._memo.valid else "typing unmarked"] += 1
        got = _outcome(lambda: self.h.add_typing(a, b, hom))
        fresh = _outcome(lambda: _memo_free(self.h).add_typing(a, b, hom))
        assert_attrs_unchanged(snapshot)
        if isinstance(got, tuple):
            assert got == fresh
            self.seen["typing refused"] += 1
            # the refused arrow added unchecked: its violations and walks
            self._same_answers(self.h.replace(arrows={(a, b): hom}))
            return
        assert dumps_canonical(hierarchy_to_json(got)) == dumps_canonical(
            hierarchy_to_json(fresh)
        )
        self.seen["typing added"] += 1
        self.h = got
        self._same_answers(self.h)

    @rule()
    def validate(self):
        """A full validation, as the memo-free copy's; one that finds
        nothing marks the hierarchy valid, so that a typing added next is
        compared at its frontier pairs only."""
        problems = self.h.validate()
        assert problems == _memo_free(self.h).validate()
        assert self.h._memo.valid == (not problems)
        self.seen["marked valid" if not problems else "validation failed"] += 1

    @rule(seed=SEEDS, forward=st.booleans(), partial=st.booleans())
    def rewrite(self, seed, forward, partial):
        """A random forward or backward plan at a random origin, built the
        same way for both hierarchies, and applied with its clean-ups."""
        origin = random.Random(seed).choice(self.h.nodes())
        snapshots = []

        def run(h):
            rng = random.Random(seed + 1)
            if forward:
                plan = random_forward_plan(rng, h, origin)
            else:
                plan = random_backward_plan(rng, h, origin, partial=partial)
            kind = "relation" if self.relations.pop() else "canonical"
            graphs = [h.graph(n) for n in h.nodes()]
            snapshots.append(attr_snapshot(*graphs, plan.rule.source, plan.rule.target))
            return apply_plan(h, plan), kind, bool(plan.cleanups)

        got = _outcome(lambda: run(self.h))
        fresh = _outcome(lambda: run(_memo_free(self.h)))
        # propagation wrote into no attribute dict of its inputs, whether it
        # succeeded or raised
        for snapshot in snapshots:
            assert_attrs_unchanged(snapshot)
        if isinstance(got, tuple) and isinstance(got[0], type):
            assert got == fresh
            self.seen["rewrite refused"] += 1
            return
        (reports, kind, cleanups), (fresh_reports, _, _) = got, fresh
        assert dumps_canonical(ref.report_json(reports)) == dumps_canonical(
            ref.report_json(fresh_reports)
        )
        after, fresh_after = reports[-1].hierarchy, fresh_reports[-1].hierarchy
        assert dumps_canonical(hierarchy_to_json(after)) == dumps_canonical(
            hierarchy_to_json(fresh_after)
        )
        self.seen[("fwd" if forward else "bwd", kind)] += 1
        self.seen["clean-ups"] += cleanups
        # a rewrite of a valid hierarchy keeps the mark, which a memo-free
        # validation confirms, and one of any other hierarchy leaves it off
        assert after._memo.valid == self.h._memo.valid
        if after._memo.valid:
            assert _memo_free(after).validate() == []
            self.seen["rewrite kept the mark"] += 1
        self.h = after
        self._same_answers(self.h)
        if after._memo.valid:  # typed marked and as an unmarked copy
            self._typing(seed + 2)


def test_memo_answers_as_a_memo_free_copy(monkeypatch):
    seen: Counter = Counter()
    relations: list[bool] = []  # whether each plan built had relations
    build = generators.build_relation_plan
    walk = sqpo.hierarchy.Hierarchy._walk

    def recording_walk(h, a, entry, replaced):
        if entry is not None:
            seen["entry re-walked"] += 1
        return walk(h, a, entry, replaced)

    monkeypatch.setattr(sqpo.hierarchy.Hierarchy, "_walk", recording_walk)
    frontier = sqpo.hierarchy.Hierarchy._frontier_agrees

    def recording_frontier(h, a, b, hom, below):
        agrees = frontier(h, a, b, hom, below)
        seen["frontier agrees" if agrees else "frontier differs"] += 1
        return agrees

    monkeypatch.setattr(sqpo.hierarchy.Hierarchy, "_frontier_agrees", recording_frontier)

    def recording(h, origin, rule, match, direction, given):
        relations.append(bool(given))
        return build(h, origin, rule, match, direction, given)

    monkeypatch.setattr(generators, "build_relation_plan", recording)
    run_state_machine_as_test(
        lambda: MemoMachine(seen, relations),
        settings=settings(
            max_examples=100, stateful_step_count=10, deadline=None, derandomize=True,
            database=None,
        ),
    )
    for key in ["clean", "violations", "typing added", "typing refused", "clean-ups", ("fwd", "relation"),
                ("fwd", "canonical"), ("bwd", "relation"), ("bwd", "canonical"),
                "entry re-walked", "marked valid", "typing on a valid hierarchy",
                "typing unmarked", "frontier agrees", "frontier differs", "unmarked",
                "rewrite kept the mark"]:
        assert seen[key], (key, seen)


def _answers(h):
    """Every answer the memo serves: the verdicts and each pair's composite
    (or what they raise)."""
    verdicts = _outcome(lambda: [str(v) for v in h.validate_commutativity()])
    pairs = {(a, b): _outcome(lambda: _composite(h, a, b)) for a in h.nodes() for b in h.nodes()}
    return verdicts, pairs


def test_concurrent_checks_agree():
    """Threads check and query the same hierarchies at once, each after a
    rewrite and one more arrow replaced or added, so every memo starts
    stale and several threads install theirs. Every answer equals the
    memo-free copy's."""
    rng = random.Random(9)
    cases = []
    added = 0
    for i in range(12):
        h = random_hierarchy(rng, max_objects=6, max_edges=8)
        h = apply_plan(h, random_forward_plan(rng, h, rng.choice(h.nodes())))[-1].hierarchy
        names = sorted(h.nodes(), key=lambda n: int(n[1:]))
        free = [(a, b) for j, a in enumerate(names) for b in names[j + 1:] if (a, b) not in h.edges()]
        if i % 2 and free:  # a random map along a free pair, lower index to higher
            a, b = rng.choice(free)
            source, target = h.graph(a), h.graph(b)
            images = sorted(target.nodes)
            mapping = {n: rng.choice(images) for n in source.nodes}
            h = h.replace(arrows={(a, b): Homomorphism(source, target, mapping)})
            added += 1
        else:
            a, b = rng.choice(h.edges())
            arrow = h.typing(a, b)
            mapping = dict(arrow.node_map)
            mapping[rng.choice(sorted(mapping))] = rng.choice(sorted(arrow.target.nodes))
            h = h.replace(arrows={(a, b): Homomorphism(arrow.source, arrow.target, mapping)})
        cases.append((h, _answers(_memo_free(h))))
    assert added  # some memos see an added arrow
    failures = []

    def worker(seed):
        order = random.Random(seed).sample(cases, len(cases))
        for h, expected in order:
            if _answers(h) != expected:
                failures.append(h)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert any(expected[0] for _, expected in cases)  # some memo holds violations
