"""Benchmark workloads: seeded inputs, the timed ops and their output checks.

Every workload draws its inputs from a `random.Random` seeded by the
workload name and the `--seed` value, builds one immutable base hierarchy
in `setup()` (only sqpo calls happen there, so the draws are not timed),
and then offers a fixed rotation of ops. Each op starts from the base
hierarchy, so no op feeds the next. Ops of one kind cycle through a small
pool of seeded inputs; a repeated input must give byte-identical output.

Expected element counts are derived from the generator data alone, never
from sqpo. sqpo functions are looked up on the `sqpo` package at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import sqpo
import sqpo.cli
from sqpo.edits import AddEdge, AddNode, CloneNode, DeleteNode, MergeNodes

KINDS = 8  # schema types in T
MID = 32  # mid types in M
DATA_EDGE_RATIO = 0.8
DEEP_LAYERS = 12
DEEP_GRAPH_NODES = 6
DEEP_GRAPH_EDGES = 9  # fixed, so the seed changes the shape but not the size


@dataclass
class Outcome:
    """What the checks found for one op."""

    problems: list[str]
    digest: str  # sha256 of the op's canonical output
    applications: int = 0  # rule applications (propagation plus clean-ups)
    objects_updated: int = 0  # per-object steps over all reports


@dataclass
class Op:
    family: str  # match | fwd | bwd | validate
    kind: str
    key: str  # identifies the input; equal keys must give equal digests
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counts(h) -> dict[str, tuple[int, int]]:
    return {n: (len(h.graph(n).nodes), len(h.graph(n).edges)) for n in h.nodes()}


def _count_problems(h, expected: dict[str, tuple[int, int]]) -> list[str]:
    actual = _counts(h)
    return [
        f"{name}: expected {want[0]} nodes / {want[1]} edges, got {actual[name][0]} / {actual[name][1]}"
        for name, want in sorted(expected.items())
        if actual.get(name) != want
    ]


def report_summary(reports) -> list[dict]:
    return [
        {"origin": r.origin, "direction": r.direction, "waves": r.waves,
         "steps": [[node, viols] for node, viols in r.steps]}
        for r in reports
    ]


def check_reports(reports, expected, validated: dict, key: str) -> Outcome:
    """Checks shared by the library rewrite ops."""
    final = reports[-1].hierarchy
    problems = [
        f"report {i}: step at {node} lists violations {viols}"
        for i, r in enumerate(reports)
        for node, viols in r.steps
        if viols
    ]
    problems += _count_problems(final, expected)
    digest = _sha({"hierarchy": sqpo.hierarchy_to_json(final), "reports": report_summary(reports)})
    # the run loop requires a repeated input to reproduce its first output
    # byte for byte, so only a new output needs the full validation
    if validated.get(key) != digest:
        problems += [f"validate: {p}" for p in final.validate()]
        validated.setdefault(key, digest)
    return Outcome(
        problems,
        digest,
        applications=len(reports),
        objects_updated=sum(len(r.steps) for r in reports),
    )


def library_rewrite(h, origin, pattern_spec, edits, anchor, direction, relations=None):
    """Anchored match, plan and application through the public API."""
    nodes, node_attrs = pattern_spec
    rule = sqpo.build_rule(sqpo.Graph(nodes, (), node_attrs), edits)
    forward = direction == sqpo.FORWARD
    kind = sqpo.EXPANSIVE if forward else sqpo.RESTRICTIVE
    matches = sqpo.find_matches(rule, h.graph(origin), kind, anchor)
    if len(matches) != 1:
        raise RuntimeError(f"anchored match found {len(matches)} matches, expected 1")
    arrow = rule.right_leg if forward else rule.left_leg
    match = matches[0].instance
    if relations:
        plan = sqpo.build_relation_plan(h, origin, arrow, match, direction, relations)
    else:
        plan = sqpo.build_canonical_plan(h, origin, arrow, match, direction)
    return sqpo.apply_plan(h, plan)


def rewrite_op(owner, family, kind, key, origin, pattern, edits, anchor, expected,
               relations=None) -> Op:
    """A library rewrite at `owner.base`, checked against `expected` counts."""
    direction = sqpo.FORWARD if family == "fwd" else sqpo.BACKWARD

    def run():
        return library_rewrite(owner.base, origin, pattern, edits, anchor, direction, relations)

    return Op(family, kind, key, run,
              lambda reports: check_reports(reports, expected, owner.validated, key))


# -- the data hierarchy: G -> M -> T plus G -> T -----------------------------------


def _kind(k: int) -> str:
    return f"k{k}"


@dataclass
class DataSpec:
    """Generator data of the data hierarchy, as plain Python values."""

    n: int
    mid_of: list[int]  # data node index -> mid type index
    edges: list[tuple[int, int]]

    @classmethod
    def draw(cls, rng, n: int) -> "DataSpec":
        # balanced: each schema type gets n / KINDS instances whatever the
        # seed, so the cost of an op on a type does not vary between seeds
        mid_of = [i % MID for i in range(n)]
        rng.shuffle(mid_of)
        edges: set[tuple[int, int]] = set()
        while len(edges) < int(DATA_EDGE_RATIO * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        return cls(n, mid_of, sorted(edges))

    def type_of(self, i: int) -> int:
        return self.mid_of[i] % KINDS

    def instances(self, t: int) -> list[int]:
        return [i for i in range(self.n) if self.type_of(i) == t]

    def graph_args(self):
        """Constructor arguments of T, M and G and the typing maps."""
        t_ids = [f"t{k}" for k in range(KINDS)]
        m_ids = [f"m{j}" for j in range(MID)]
        g_ids = [f"g{i}" for i in range(self.n)]
        return {
            "T": (t_ids, [(a, b) for a in t_ids for b in t_ids],
                  {f"t{k}": {"kind": [_kind(k)]} for k in range(KINDS)}),
            "M": (m_ids, [(a, b) for a in m_ids for b in m_ids],
                  {f"m{j}": {"kind": [_kind(j % KINDS)]} for j in range(MID)}),
            "G": (g_ids, [(g_ids[u], g_ids[v]) for u, v in self.edges],
                  {g_ids[i]: {"kind": [_kind(self.type_of(i))]} for i in range(self.n)}),
            ("M", "T"): {f"m{j}": f"t{j % KINDS}" for j in range(MID)},
            ("G", "M"): {g_ids[i]: f"m{self.mid_of[i]}" for i in range(self.n)},
            ("G", "T"): {g_ids[i]: f"t{self.type_of(i)}" for i in range(self.n)},
        }

    def base_counts(self) -> dict[str, tuple[int, int]]:
        return {"T": (KINDS, KINDS**2), "M": (MID, MID**2), "G": (self.n, len(self.edges))}

    def copies_edges(self, copies: dict[int, int]) -> int:
        """Data edges after each node i is replaced by copies.get(i, 1) nodes
        (0 deletes it); every copy keeps all incident edges."""
        return sum(copies.get(u, 1) * copies.get(v, 1) for u, v in self.edges)


def build_data(args):
    """The sqpo calls that build the data hierarchy (timed as set-up)."""
    graphs = {name: sqpo.Graph(*args[name]) for name in ("T", "M", "G")}
    h = sqpo.Hierarchy()
    for name in ("T", "M", "G"):
        h = h.add_object(name, graphs[name])
    for a, b in (("M", "T"), ("G", "M"), ("G", "T")):
        h = h.add_typing(a, b, sqpo.Homomorphism(graphs[a], graphs[b], args[(a, b)]))
    return h


class DataWorkload:
    """Shared by data_fwd, schema_bwd and cli_batch."""

    pool = 6

    def __init__(self, rng, n: int):
        self.rng = rng
        self.spec = DataSpec.draw(rng, n)
        self.args = self.spec.graph_args()
        self.base = None
        self.validated: dict[str, str] = {}

    def setup(self):
        self.base = build_data(self.args)

    def g(self, i: int) -> str:
        return f"g{i}"

    # expected counts after each rewrite kind, from the generator data

    def expect_insert(self, canonical: bool):
        spec = self.spec
        if canonical:
            return {"T": (KINDS + 1, KINDS**2 + 1), "M": (MID + 1, MID**2 + 1),
                    "G": (spec.n + 1, len(spec.edges) + 1)}
        return {**spec.base_counts(), "G": (spec.n + 1, len(spec.edges) + 1)}

    def expect_merge(self, a: int, b: int):
        spec = self.spec
        rename = {a: a, b: a}
        merged = {(rename.get(u, u), rename.get(v, v)) for u, v in spec.edges}
        return {**spec.base_counts(), "G": (spec.n - 1, len(merged))}

    def expect_clone(self, t: int, keep_one: set[int] = frozenset()):
        """Canonical clone of type t; instances in keep_one end with one copy
        (their spare copy is deleted by a clean-up)."""
        spec = self.spec
        inst = spec.instances(t)
        copies = {i: (1 if i in keep_one else 2) for i in inst}
        m_types = MID + MID // KINDS
        return {"T": (KINDS + 1, (KINDS + 1) ** 2), "M": (m_types, m_types**2),
                "G": (spec.n + len(inst) - len(keep_one), spec.copies_edges(copies))}

    def expect_delete(self, t: int):
        spec = self.spec
        inst = spec.instances(t)
        m_types = MID - MID // KINDS
        return {"T": (KINDS - 1, (KINDS - 1) ** 2), "M": (m_types, m_types**2),
                "G": (spec.n - len(inst), spec.copies_edges({i: 0 for i in inst}))}

    # op builders

    def insert_op(self, idx: int, x: int, canonical: bool) -> Op:
        spec = self.spec
        kind = _kind(spec.type_of(x))
        pattern = (["x"], {"x": {"kind": [kind]}})
        if canonical:
            edits = [AddNode("n", {"kind": ["new"]}), AddEdge("x", "n")]
            relations = None
        else:
            edits = [AddNode("n", {"kind": [kind]}), AddEdge("x", "n")]
            relations = {"M": {"n": f"m{spec.mid_of[x]}"}, "T": {"n": f"t{spec.type_of(x)}"}}
        name = "insert" if canonical else "relation_insert"
        return rewrite_op(self, "fwd", name, f"{name}/{idx}", "G", pattern, edits,
                               {"x": self.g(x)}, self.expect_insert(canonical), relations)

    def merge_op(self, idx: int, a: int, b: int) -> Op:
        kind = _kind(self.spec.type_of(a))
        pattern = (["a", "b"], {"a": {"kind": [kind]}, "b": {"kind": [kind]}})
        edits = [MergeNodes(("a", "b"), "ab")]
        return rewrite_op(self, "fwd", "merge", f"merge/{idx}", "G", pattern, edits,
                               {"a": self.g(a), "b": self.g(b)}, self.expect_merge(a, b))

    def clone_op(self, idx: int, t: int, split: dict[int, str] | None = None) -> Op:
        pattern = (["x"], {"x": {"kind": [_kind(t)]}})
        edits = [CloneNode("x", "x1", "x2")]
        if split is None:
            return rewrite_op(self, "bwd", "clone", f"clone/{idx}", "T", pattern, edits,
                                   {"x": f"t{t}"}, self.expect_clone(t))
        relations = {"G": {self.g(i): copy for i, copy in split.items()}}
        return rewrite_op(self, "bwd", "relation_clone", f"relation_clone/{idx}", "T",
                               pattern, edits, {"x": f"t{t}"},
                               self.expect_clone(t, set(split)), relations)

    def delete_op(self, idx: int, t: int) -> Op:
        pattern = (["x"], {"x": {"kind": [_kind(t)]}})
        return rewrite_op(self, "bwd", "delete", f"delete/{idx}", "T", pattern,
                               [DeleteNode("x")], {"x": f"t{t}"}, self.expect_delete(t))

    def match_op(self, idx: int, a: int, b: int) -> Op:
        spec = self.spec
        want = sum(1 for u, v in spec.edges if spec.type_of(u) == a and spec.type_of(v) == b)
        attrs = {"x": {"kind": [_kind(a)]}, "y": {"kind": [_kind(b)]}}

        def run():
            pattern = sqpo.Graph(["x", "y"], [("x", "y")], attrs)
            return sqpo.find_matches(sqpo.Rule.identity_rule(pattern), self.base.graph("G"))

        def check(matches):
            maps = [[m.instance["x"], m.instance["y"]] for m in matches]
            problems = [] if len(matches) == want else [
                f"match {_kind(a)}->{_kind(b)}: expected {want} matches, got {len(matches)}"]
            return Outcome(problems, _sha(maps))

        return Op("match", "match", f"match/{idx}", run, check)

    # seeded draws

    def draw_node(self) -> int:
        return self.rng.randrange(self.spec.n)

    def draw_pair(self) -> tuple[int, int]:
        """Two distinct data nodes of the same mid type."""
        spec = self.spec
        while True:
            a = self.draw_node()
            peers = [i for i in range(spec.n) if spec.mid_of[i] == spec.mid_of[a] and i != a]
            if peers:
                return a, self.rng.choice(peers)

    def draw_split(self, t: int) -> dict[int, str]:
        """Relate a third of t's instances to each copy; leave a third
        unrelated (cloned, no clean-up), with at least one of each."""
        inst = self.spec.instances(t)
        while True:
            split = {}
            for i in inst:
                r = self.rng.randrange(3)
                if r < 2:
                    split[i] = ("x1", "x2")[r]
            if 0 < len(split) < len(inst):
                return split


class DataFwd(DataWorkload):
    """Match queries alternate with canonical inserts, relation-typed
    inserts and merges at seeded data nodes."""

    n = 2000

    def __init__(self, rng):
        super().__init__(rng, self.n)
        self.ops = []
        for idx in range(self.pool):
            a, b = self.draw_pair()
            writes = (self.insert_op(idx, self.draw_node(), True),
                      self.insert_op(idx, self.draw_node(), False),
                      self.merge_op(idx, a, b))
            for j, op in enumerate(writes):
                reads = self.rng.randrange(KINDS), self.rng.randrange(KINDS)
                self.ops += [self.match_op(3 * idx + j, *reads), op]


class SchemaBwd(DataWorkload):
    """Canonical clones, relation-driven clones and deletes of schema types."""

    n = 1000

    def __init__(self, rng):
        super().__init__(rng, self.n)
        # each kind visits every schema type once per pass, in a seeded order
        clones, splits, deletes = (self.rng.sample(range(KINDS), KINDS) for _ in range(3))
        self.ops = []
        for idx in range(KINDS):
            self.ops += [self.clone_op(idx, clones[idx]),
                         self.clone_op(idx, splits[idx], self.draw_split(splits[idx])),
                         self.delete_op(idx, deletes[idx])]


# -- deep layered hierarchy ---------------------------------------------------------


class DeepLayers:
    """12 layers of 2 objects; every object is typed by both objects of the
    next layer. All objects hold the same 6-node graph and every typing is
    the identity map, so all parallel paths commute."""

    def __init__(self, rng):
        self.rng = rng
        nodes = [f"v{i}" for i in range(DEEP_GRAPH_NODES)]
        pairs = [(u, v) for u in nodes for v in nodes if u != v]
        self.edges = sorted(rng.sample(pairs, DEEP_GRAPH_EDGES))
        self.nodes = nodes
        self.objects = [f"L{layer:02d}{side}" for layer in range(DEEP_LAYERS) for side in "ab"]
        self.arrows = [
            (f"L{layer:02d}{a}", f"L{layer + 1:02d}{b}")
            for layer in range(DEEP_LAYERS - 1) for a in "ab" for b in "ab"
        ]
        self.identity = {n: n for n in nodes}
        self.base = None
        self.validated: dict[str, str] = {}
        # each kind visits every graph node once per pass, in a seeded order,
        # so the seed does not change the total work of a pass
        adds, clones = rng.sample(nodes, len(nodes)), rng.sample(nodes, len(nodes))
        self.ops = []
        for idx in range(len(nodes)):
            self.ops += [self.fwd_op(idx, rng.choice("ab"), adds[idx]),
                         self.bwd_op(idx, rng.choice("ab"), clones[idx])]

    def setup(self):
        graphs = {name: sqpo.Graph(self.nodes, self.edges) for name in self.objects}
        h = sqpo.Hierarchy()
        for name in self.objects:
            h = h.add_object(name, graphs[name])
        for a, b in self.arrows:
            h = h.add_typing(a, b, sqpo.Homomorphism(graphs[a], graphs[b], self.identity))
        self.base = h

    def _expected(self, changed: set[str], nodes: int, edges: int):
        base = (len(self.nodes), len(self.edges))
        return {o: ((nodes, edges) if o in changed else base) for o in self.objects}

    def fwd_op(self, idx, side, v) -> Op:
        origin = f"L00{side}"
        changed = {origin} | {o for o in self.objects if not o.startswith("L00")}
        expected = self._expected(changed, len(self.nodes) + 1, len(self.edges) + 1)
        return rewrite_op(self, "fwd", "add", f"add/{idx}", origin, (["x"], {}),
                          [AddNode("n"), AddEdge("x", "n")], {"x": v}, expected)

    def bwd_op(self, idx, side, v) -> Op:
        top = f"L{DEEP_LAYERS - 1:02d}"
        origin = f"{top}{side}"
        changed = {origin} | {o for o in self.objects if not o.startswith(top)}
        edges = sum((2 if a == v else 1) * (2 if b == v else 1) for a, b in self.edges)
        expected = self._expected(changed, len(self.nodes) + 1, edges)
        return rewrite_op(self, "bwd", "clone", f"clone/{idx}", origin, (["x"], {}),
                          [CloneNode("x", "x1", "x2")], {"x": v}, expected)


# -- the batch CLI --------------------------------------------------------------------


class CliBatch(DataWorkload):
    """The data hierarchy at N=1000 as JSON files; each op is one in-process
    `sqpo.cli.main` call. Rewrites are compared byte for byte with the
    library path on the in-memory inputs."""

    n = 1000
    pool = 4

    def __init__(self, rng, workdir: str):
        super().__init__(rng, self.n)
        self.workdir = workdir
        self.library: dict[str, tuple[bytes, Outcome]] = {}
        self.rules: dict[str, tuple] = {}  # rule file name -> (pattern, edits)
        self.ops = []
        inserts = [self.draw_node() for _ in range(self.pool)]
        deletes = self.rng.sample(range(KINDS), self.pool)
        for idx in range(self.pool):
            self.ops += [self.cli_insert_op(idx, inserts[idx]),
                         self.cli_delete_op(idx, deletes[idx]),
                         self.cli_validate_op()]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self):
        """Build the hierarchy and write it, the rules and the relations as
        JSON files."""
        super().setup()
        os.makedirs(self.workdir, exist_ok=True)
        files = {"base.hierarchy.json": sqpo.hierarchy_to_json(self.base)}
        for name, (pattern, edits, relations) in self.rules.items():
            nodes, node_attrs = pattern
            rule = sqpo.build_rule(sqpo.Graph(nodes, (), node_attrs), edits)
            files[f"{name}.rule.json"] = sqpo.rule_to_json(rule)
            if relations:
                files[f"{name}.relation.json"] = relations
        for name, obj in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(sqpo.graphs.dumps_canonical(obj))

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sqpo.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def cli_rewrite_op(self, family, kind, key, name, origin, index, anchor, expected) -> Op:
        """One `sqpo rewrite` call with rule file `name`, checked against the
        library path: an anchored match at the same element, same plan."""
        pattern, edits, relations = self.rules[name]
        direction = "fwd" if family == "fwd" else "bwd"
        argv = ["rewrite", self.path("base.hierarchy.json"), origin,
                self.path(f"{name}.rule.json"), str(index), "--direction", direction,
                "-o", self.path("out.json"), "--report", self.path("out.report.json")]
        if relations:
            argv += ["--relation", self.path(f"{name}.relation.json")]
        library_op = rewrite_op(self, family, kind, key, origin, pattern, edits, anchor,
                                expected, relations)

        def check(result) -> Outcome:
            code, _, err = result
            if code != 0:
                return Outcome([f"{key}: exit code {code}: {err.strip()}"], "")
            with open(self.path("out.json"), "rb") as fh:
                written = fh.read()
            with open(self.path("out.report.json"), "r", encoding="utf-8") as fh:
                apps = json.load(fh)["applications"]
            if key not in self.library:
                reports = library_op.run()
                want = sqpo.graphs.dumps_canonical(sqpo.hierarchy_to_json(reports[-1].hierarchy))
                self.library[key] = (want.encode("utf-8"), library_op.check(reports))
            want, library_outcome = self.library[key]
            problems = list(library_outcome.problems)
            if written != want:
                problems.append(f"{key}: CLI output differs from the library path")
            problems += [
                f"{key}: report step at {step['node']} lists violations"
                for app in apps for step in app["steps"] if step["violations"]
            ]
            summary = [[app["origin"], app["direction"], app["waves"],
                        [[s["node"], s["violations"]] for s in app["steps"]]] for app in apps]
            digest = hashlib.sha256(written + _sha(summary).encode()).hexdigest()
            return Outcome(problems, digest, applications=len(apps),
                           objects_updated=sum(len(app["steps"]) for app in apps))

        return Op(family, kind, key, lambda: self._call(argv), check)

    def cli_insert_op(self, idx: int, x: int) -> Op:
        """Relation-typed insert at data node x. The CLI takes a match index:
        x's position among the nodes of its kind in sorted id order, which
        is the order in which the CLI enumerates the expansive matches."""
        spec = self.spec
        kind = _kind(spec.type_of(x))
        name = f"insert{idx}"
        self.rules[name] = ((["x"], {"x": {"kind": [kind]}}),
                            [AddNode("n", {"kind": [kind]}), AddEdge("x", "n")],
                            {"M": {"n": f"m{spec.mid_of[x]}"}, "T": {"n": f"t{spec.type_of(x)}"}})
        same = sorted(self.g(i) for i in range(spec.n) if spec.type_of(i) == spec.type_of(x))
        return self.cli_rewrite_op("fwd", "cli_relation_insert", f"cli_relation_insert/{idx}",
                               name, "G", same.index(self.g(x)), {"x": self.g(x)},
                               self.expect_insert(canonical=False))

    def cli_delete_op(self, idx: int, t: int) -> Op:
        """Delete of schema type t, the only match of its pattern in T."""
        name = f"delete{idx}"
        self.rules[name] = ((["x"], {"x": {"kind": [_kind(t)]}}), [DeleteNode("x")], None)
        return self.cli_rewrite_op("bwd", "cli_delete", f"cli_delete/{idx}", name, "T", 0,
                               {"x": f"t{t}"}, self.expect_delete(t))

    def cli_validate_op(self) -> Op:
        argv = ["validate", self.path("base.hierarchy.json")]

        def check(result) -> Outcome:
            code, out, err = result
            problems = [] if code == 0 and not out else [
                f"validate: exit code {code}, output {out.strip()!r} {err.strip()!r}"]
            return Outcome(problems, _sha([code, out]))

        return Op("validate", "cli_validate", "cli_validate", lambda: self._call(argv), check)


WORKLOADS = {
    "data_fwd": DataFwd,
    "schema_bwd": SchemaBwd,
    "deep_layers": DeepLayers,
    "cli_batch": CliBatch,
}
