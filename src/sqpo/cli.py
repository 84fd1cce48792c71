"""Batch command-line front end.

Three subcommands: validate a hierarchy file, enumerate matches of a rule
at a node, and apply a rewrite with forward or backward propagation.
All output is canonical JSON / fixed-format text, so identical inputs
produce byte-identical outputs. Exit codes: 0 success, 1 domain violation,
2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import secrets
import sys
from pathlib import Path

from .exceptions import GraphElementError, SqpoError
from .graphs import (
    Homomorphism,
    _Leaf,
    _map_text,
    _node_map_from_json,
    _relocated,
    dumps_canonical,
    graph_from_json,
)
from .hierarchy import _hierarchy_text, hierarchy_from_json
from .propagation import (
    BACKWARD,
    FORWARD,
    BackwardFactorization,
    ForwardFactorization,
    PropagationPlan,
    RewriteReport,
    _resolve,
)
from .relations import _relation_plan, apply_plan, build_canonical_plan, build_relation_plan
from .rules import EXPANSIVE, RESTRICTIVE, _iter_matches, find_matches, rule_from_json


class _InputError(Exception):
    """File-level problem: missing, unparsable, schema-invalid."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, text that is not UTF-8 and
        # integers longer than int() converts; RecursionError, arrays or
        # objects nested deeper than the decoder recurses
        raise _InputError(f"cannot parse {path}: {exc}") from exc


def _load_hierarchy(path: str, validate: bool = True):
    try:
        return hierarchy_from_json(_load_json(path), validate=validate)
    except SqpoError as exc:
        raise _InputError(f"invalid hierarchy in {path}: {exc}") from exc


def _load_rule(path: str):
    try:
        return rule_from_json(_load_json(path))
    except SqpoError as exc:
        raise _InputError(f"invalid rule in {path}: {exc}") from exc


def _write_atomically(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text) to a fresh file beside its path, then rename
    them into place in order, so a failed run leaves no partial output."""
    for path, _ in outputs:
        if os.path.isdir(path):  # os.replace would fail only after earlier renames
            raise _InputError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    staged: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            tmp = f"{path}.{secrets.token_hex(6)}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def cmd_validate(args) -> int:
    h = _load_hierarchy(args.hierarchy, validate=False)
    violations = h._validate(graphs=False)  # the loader has checked every graph
    for v in violations:
        print(v)
    return 1 if violations else 0


def _parse_anchor(pairs) -> dict[str, str]:
    anchor = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise _InputError(f"bad anchor {pair!r}: expected PATTERN=NODE")
        k, v = pair.split("=", 1)
        anchor[k] = v
    return anchor


def cmd_match(args) -> int:
    h = _load_hierarchy(args.hierarchy)
    rule = _load_rule(args.rule)
    g = h.graph(args.node)
    matches = find_matches(rule, g, args.kind, _parse_anchor(args.anchor))
    out = [{"kind": m.kind, "map": _Leaf(_map_text, m.instance)} for m in matches]
    sys.stdout.write(dumps_canonical(out))
    return 0


def _report_json(reports: list[RewriteReport], map_texts: dict | None = None) -> str:
    """The report file's canonical text, from a tree whose node maps are
    leaves that `_map_text` writes; the typing maps through `map_texts`, if
    given, which the output hierarchy's writer may share."""

    def maps(homs: dict[str, Homomorphism]) -> dict:
        return {n: _Leaf(_map_text, homs[n]) for n in sorted(homs)}

    return dumps_canonical({"applications": [
        {
            "origin": rep.origin,
            "direction": rep.direction,
            "waves": rep.waves,
            "traces": maps(rep.traces),
            "instances": maps(rep.instances),
            "typings": [
                {"from": a, "to": b, "map": _Leaf(_map_text, rep.updated_typings[(a, b)], texts=map_texts)}
                for (a, b) in sorted(rep.updated_typings)
            ],
            "steps": [{"node": node, "violations": viols} for node, viols in rep.steps],
        }
        for rep in reports
    ]})


def _check_relations(relations, what: str) -> None:
    """Raise unless `relations` maps node names to relations that each map
    element ids to element ids."""
    if not isinstance(relations, dict):
        raise _InputError(f"{what} must map node names to relations")
    for node in sorted(relations):
        relation = relations[node]
        if not isinstance(relation, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in relation.items()
        ):
            raise _InputError(f"{what} for node {node} must map element ids to element ids")


def _parse_plan(h, origin, rule_arrow, match, direction, obj) -> PropagationPlan:
    """Build a plan from the plan-file schema: explicit factorizations win,
    relations (or the canonical default) fill the remaining nodes, and
    nothing is derived for a node the file gives."""
    if not isinstance(obj, dict):
        raise _InputError("plan file must hold a JSON object")
    if obj.get("origin") not in (None, origin):
        raise _InputError("plan file names a different origin than the command line")
    relations = obj.get("relation") or {}
    _check_relations(relations, "plan relation")
    explicit = obj.get("factorizations", {})
    if not isinstance(explicit, dict):
        raise _InputError("plan factorizations must map node names to factorizations")
    plan = _relation_plan(
        h,
        origin,
        rule_arrow,
        match,
        direction,
        {k: v for k, v in relations.items() if k not in explicit},
        explicit,
    )
    res = _resolve(h, plan)
    where: tuple = ()
    try:
        for name, spec in sorted(explicit.items()):
            if name == origin:
                raise _InputError(
                    f"plan factorization for {name}: the origin takes no factorization"
                )
            if name not in res.sub.nodes():
                raise _InputError(f"plan factorization for {name}: not an affected node")
            where = ("factorizations", name, "mid")
            try:
                mid = graph_from_json(spec["mid"])
            except GraphElementError as exc:
                raise _relocated(_InputError, where, exc, "graph", "malformed plan: ") from exc
            maps = {}
            for key in ("pre", "post", "typing_or_retyping"):
                where = ("factorizations", name, key)
                maps[key] = _node_map_from_json(spec[key], f"factorization {name} {key}")
            pre, post, raw = maps["pre"], maps["post"], maps["typing_or_retyping"]
            if direction == FORWARD:
                plan.factorizations[name] = ForwardFactorization(
                    mid=mid,
                    pre_arrow=Homomorphism(rule_arrow.source, mid, pre),
                    post_arrow=Homomorphism(mid, rule_arrow.target, post),
                    typing=Homomorphism(mid, h.graph(name), raw),
                )
            else:
                # retyping keys may name instance elements; translate to pattern nodes
                rp = res.restrictions[name]
                inst_inv = {rp.instance[p]: p for p in rp.pattern.nodes}
                retyping_map = {}
                for key, value in raw.items():
                    pattern_node = key if key in rp.pattern.nodes else inst_inv.get(key)
                    if pattern_node is None:
                        raise _InputError(
                            f"plan factorization for {name}: {key} is neither a "
                            "restriction-pattern node nor an instance element"
                        )
                    retyping_map[pattern_node] = value
                plan.factorizations[name] = BackwardFactorization(
                    mid=mid,
                    post_arrow=Homomorphism(mid, rule_arrow.target, post),
                    pre_arrow=Homomorphism(rule_arrow.source, mid, pre),
                    retyping=Homomorphism(rp.pattern, mid, retyping_map),
                )
        for k, conn in enumerate(obj.get("connectors", [])):
            where = ("connectors", k)
            i, j = conn["from"], conn["to"]
            fx_i = plan.factorizations.get(i)
            fx_j = plan.factorizations.get(j)
            if fx_i is None or fx_j is None:
                raise _InputError(f"connector {i}->{j} names nodes without factorizations")
            where = ("connectors", k, "map")
            node_map = _node_map_from_json(conn["map"], f"connector {i}->{j}")
            plan.connectors[(i, j)] = Homomorphism(fx_i.mid, fx_j.mid, node_map)
    except (KeyError, TypeError, AttributeError) as exc:
        raise _relocated(_InputError, where, exc, "plan") from exc
    return plan


# per --direction: the propagation direction, the match kind, the rule side
# and leg that must be trivial, the leg that is rewritten, and the part of
# the rule that the trivial leg leaves out
_DIRECTIONS = {
    "fwd": (FORWARD, EXPANSIVE, "lhs", "left_leg", "right_leg", "restrictive"),
    "bwd": (BACKWARD, RESTRICTIVE, "rhs", "right_leg", "left_leg", "expansive"),
}


def cmd_rewrite(args) -> int:
    out_path = args.output or str(Path(args.hierarchy).with_suffix("")) + ".rewritten.json"
    report_path = args.report or out_path + ".report.json"
    if os.path.realpath(out_path) == os.path.realpath(report_path):
        raise _InputError(f"--output and --report name the same file: {report_path}")
    h = _load_hierarchy(args.hierarchy)
    rule = _load_rule(args.rule)
    g = h.graph(args.node)

    direction, kind, side, leg, rewritten, part = _DIRECTIONS[args.direction]
    trivial = getattr(rule, leg)
    if getattr(rule, side) != rule.interface or any(
        trivial[n] != n for n in rule.interface.nodes
    ):
        raise _InputError(
            f"{direction} rewriting needs a rule whose {part} part is trivial "
            f"({side} equal to the interface, identity {leg.replace('_', ' ')})"
        )
    rule_arrow = getattr(rule, rewritten)

    # draw matches only up to the requested one; a miss has drawn them all
    count = 0
    for found in _iter_matches(rule, g, kind):
        if count == args.match_index:
            break
        count += 1
    else:
        print(f"match index {args.match_index} out of range ({count} matches)", file=sys.stderr)
        return 1
    match = found.instance

    if args.plan is not None:
        spec = _load_json(args.plan)
        try:
            plan = _parse_plan(h, args.node, rule_arrow, match, direction, spec)
        except _InputError as exc:
            raise _InputError(f"invalid plan in {args.plan}: {exc}") from exc
    elif args.relation is not None:
        relations = _load_json(args.relation)
        try:
            _check_relations(relations, "relation file")
        except _InputError as exc:
            raise _InputError(f"invalid relation in {args.relation}: {exc}") from exc
        plan = build_relation_plan(h, args.node, rule_arrow, match, direction, relations)
    else:
        plan = build_canonical_plan(h, args.node, rule_arrow, match, direction)

    reports = apply_plan(h, plan)
    final = reports[-1].hierarchy
    map_texts: dict = {}  # each typing map both files write is encoded once
    _write_atomically([
        (out_path, _hierarchy_text(final, map_texts)),
        (report_path, _report_json(reports, map_texts)),
    ])
    print(f"wrote {out_path}")
    print(f"wrote {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqpo",
        description="Rewrite attributed graph hierarchies with propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a hierarchy file")
    p_validate.add_argument("hierarchy")
    p_validate.set_defaults(func=cmd_validate)

    p_match = sub.add_parser("match", help="enumerate matches of a rule at a node")
    p_match.add_argument("hierarchy")
    p_match.add_argument("node")
    p_match.add_argument("rule")
    p_match.add_argument(
        "--kind", choices=[RESTRICTIVE, EXPANSIVE], default=RESTRICTIVE
    )
    p_match.add_argument(
        "--anchor",
        action="append",
        metavar="PATTERN=NODE",
        help="pre-assign a pattern node (repeatable)",
    )
    p_match.set_defaults(func=cmd_match)

    p_rewrite = sub.add_parser(
        "rewrite", help="apply a rule at a node and propagate"
    )
    p_rewrite.add_argument("hierarchy")
    p_rewrite.add_argument("node")
    p_rewrite.add_argument("rule")
    p_rewrite.add_argument("match_index", type=int)
    p_rewrite.add_argument("--direction", choices=["fwd", "bwd"], required=True)
    group = p_rewrite.add_mutually_exclusive_group()
    group.add_argument("--plan", help="plan file with explicit factorizations")
    group.add_argument("--relation", help="relation file for controlled propagation")
    group.add_argument(
        "--canonical",
        action="store_true",
        help="propagate everything canonically (default)",
    )
    p_rewrite.add_argument("-o", "--output", help="rewritten hierarchy file")
    p_rewrite.add_argument("--report", help="report file")
    p_rewrite.set_defaults(func=cmd_rewrite)
    return parser


# built once per process: parsing reads the parser and never changes it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SqpoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
