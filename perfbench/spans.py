"""Span tracing of sqpo's public functions, installed from outside the library.

`Tracer.install()` replaces each traced function with a wrapper in every
sqpo module that holds it (a function imported with `from .x import f`
lives in several module namespaces), and wraps `Hierarchy` methods on the
class. `uninstall()` restores the originals, so untraced ops run the
unmodified library.

Each wrapper records a span: name, start, end, parent span, op id, and the
element counts (nodes plus edges) of the graphs going in and coming out.
Self time is a span's duration minus the durations of its direct child
spans. Totals per span name are kept for every op; the first `max_spans`
raw spans are kept in memory and written out by `dump()`.
`Hierarchy.successors` and `predecessors` run inside every validation loop,
so they are only counted, not spanned. The CLI's file loading and report
building have no public entry point, so `cli.load` and `cli.write` wrap its
module-level helpers `_load_json` and `_report_json`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

_perf = time.perf_counter

SQPO_MODULES = (
    "sqpo",
    "sqpo.graphs",
    "sqpo.category",
    "sqpo.rules",
    "sqpo.hierarchy",
    "sqpo.propagation",
    "sqpo.relations",
    "sqpo.cli",
)


def graph_elems(g) -> int:
    return len(g.nodes) + len(g.edges)


def _hom_graphs(*homs):
    graphs = {}
    for h in homs:
        for g in (h.source, h.target):
            graphs[id(g)] = g
    return sum(graph_elems(g) for g in graphs.values())


def _hier_elems(h) -> int:
    return sum(graph_elems(h.graph(n)) for n in h.nodes())


# size functions: (args, kwargs) -> input elements; result -> output elements
def _in_homs(args, kwargs):
    return _hom_graphs(*args[:2])


def _in_match(args, kwargs):
    return graph_elems(args[0].lhs) + graph_elems(args[1])


def _out_apex(result):
    return graph_elems(result.apex)


def _out_matches(result):
    return len(result)


# (module, attribute, span name, input size fn, output size fn)
FUNCTIONS = (
    ("sqpo.graphs", "compose", "graphs.compose", None, None),
    ("sqpo.graphs", "hom_equal", "graphs.hom_equal", None, None),
    ("sqpo.graphs", "is_mono", "graphs.is_mono", None, None),
    ("sqpo.graphs", "homomorphism_violation", "graphs.homomorphism_violation", None, None),
    ("sqpo.graphs", "graph_to_json", "graphs.json", None, None),
    ("sqpo.graphs", "graph_from_json", "graphs.json", None, None),
    ("sqpo.graphs", "dumps_canonical", "graphs.dumps", None, None),
    ("sqpo.category", "pullback", "category.pullback", _in_homs, _out_apex),
    ("sqpo.category", "pushout", "category.pushout", _in_homs, _out_apex),
    ("sqpo.category", "final_pbc", "category.final_pbc", _in_homs, _out_apex),
    ("sqpo.rules", "find_matches", "rules.find_matches", _in_match, _out_matches),
    ("sqpo.rules", "build_rule", "rules.build_rule", None, None),
    ("sqpo.rules", "rule_from_json", "rules.from_json", None, None),
    ("sqpo.hierarchy", "hierarchy_to_json", "hierarchy.to_json", None, None),
    ("sqpo.hierarchy", "hierarchy_from_json", "hierarchy.from_json", None, None),
    ("sqpo.propagation", "check_composability", "propagation.check_composability", None, None),
    ("sqpo.propagation", "propagate_forward", "propagation.propagate_forward", None, None),
    ("sqpo.propagation", "propagate_backward", "propagation.propagate_backward", None, None),
    ("sqpo.propagation", "restriction_pullback", "propagation.restriction_pullback", None, None),
    ("sqpo.propagation", "lift_rule", "propagation.lift_rule", None, None),
    ("sqpo.relations", "build_relation_plan", "relations.build_relation_plan", None, None),
    ("sqpo.relations", "derive_forward_factorization", "relations.derive_forward_factorization", None, None),
    ("sqpo.relations", "derive_backward_factorization", "relations.derive_backward_factorization", None, None),
    ("sqpo.relations", "apply_plan", "relations.apply_plan", None, None),
    ("sqpo.cli", "main", "cli.main", None, None),
    ("sqpo.cli", "_load_json", "cli.load", None, None),
    ("sqpo.cli", "_report_json", "cli.write", None, None),
)

# Hierarchy methods: (method, span name, input size fn)
METHODS = (
    ("add_typing", "hierarchy.add_typing", lambda args, kwargs: _hier_elems(args[0])),
    ("validate_commutativity", "hierarchy.validate_commutativity", lambda args, kwargs: _hier_elems(args[0])),
    ("composed_typing", "hierarchy.composed_typing", None),
    ("validate", "hierarchy.validate", lambda args, kwargs: _hier_elems(args[0])),
    ("forward_subgraph", "hierarchy.subgraph", None),
    ("backward_subgraph", "hierarchy.subgraph", None),
)
COUNTED_METHODS = (
    ("successors", "hierarchy.successors"),
    ("predecessors", "hierarchy.predecessors"),
)


class Totals:
    """Per span name: calls, summed duration, self time and element counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.in_elems = defaultdict(int)
        self.out_elems = defaultdict(int)

    def add(self, other: "Totals") -> None:
        for field in ("calls", "total_s", "self_s", "in_elems", "out_elems"):
            mine, theirs = getattr(self, field), getattr(other, field)
            for k, v in theirs.items():
                mine[k] += v


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = None
        self.totals = Totals()
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._installed = False
        self._build_patches()

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name, in_size, out_size):
        tracer = self
        stack = self._stack

        def finish(frame, start, end, n_in, n_out):
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            t = tracer.totals
            t.calls[name] += 1
            t.total_s[name] += dur
            t.self_s[name] += dur - frame[0]
            t.in_elems[name] += n_in
            t.out_elems[name] += n_out
            if len(tracer.spans) < tracer.max_spans:
                parent = stack[-1][1] if stack else -1
                tracer.spans.append(
                    (name, start, end, frame[1], parent, tracer.op_id, n_in, n_out)
                )
            else:
                tracer.dropped += 1

        def wrapper(*args, **kwargs):
            n_in = in_size(args, kwargs) if in_size else 0
            frame = [0.0, tracer._next_id]  # child seconds, span id
            tracer._next_id += 1
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(frame, start, _perf(), n_in, 0)
                raise
            end = _perf()
            finish(frame, start, end, n_in, out_size(result) if out_size else 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.totals.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def _build_patches(self):
        modules = [importlib.import_module(m) for m in SQPO_MODULES]
        for mod_name, attr, name, in_size, out_size in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._span_wrapper(original, name, in_size, out_size)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        hierarchy_cls = importlib.import_module("sqpo.hierarchy").Hierarchy
        for method, name, in_size in METHODS:
            original = vars(hierarchy_cls)[method]
            wrapper = self._span_wrapper(original, name, in_size, None)
            self._patches.append((hierarchy_cls, method, original, wrapper))
        for method, name in COUNTED_METHODS:
            original = vars(hierarchy_cls)[method]
            self._patches.append(
                (hierarchy_cls, method, original, self._count_wrapper(original, name))
            )

    def install(self) -> None:
        if not self._installed:
            for owner, key, _, wrapper in self._patches:
                setattr(owner, key, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)
            self._installed = False

    def run(self, op_id, fn, *args):
        """Call fn(*args) with the wrappers installed. Returns its result and
        the totals of this call alone; they are also added to `totals`."""
        outer = self.totals
        self.totals = Totals()
        self.op_id = op_id
        self.install()
        try:
            return fn(*args), self.totals
        finally:
            self.uninstall()
            self.op_id = None
            outer.add(self.totals)
            self.totals = outer

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines after a header line."""
        header = {
            "fields": ["name", "start", "end", "id", "parent", "op", "in_elems", "out_elems"],
            "kept": len(self.spans),
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span), ensure_ascii=False) + "\n")
