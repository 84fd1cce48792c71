"""Primitive edit commands on graphs.

Each command is a small value object; apply_edit dispatches it to the
corresponding Graph method and returns the edited graph. The rule builder
(`rules.build_rule`) calls apply_edit to build a rule's right-hand side and
tracks each command's effect on the rule's interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .exceptions import GraphElementError
from .graphs import EdgeId, Graph

Element = Union[str, EdgeId]


@dataclass(frozen=True)
class AddNode:
    node: str
    attrs: Mapping | None = None


@dataclass(frozen=True)
class AddEdge:
    source: str
    target: str
    attrs: Mapping | None = None


@dataclass(frozen=True)
class DeleteNode:
    node: str


@dataclass(frozen=True)
class DeleteEdge:
    source: str
    target: str


@dataclass(frozen=True)
class CloneNode:
    node: str
    copy1: str
    copy2: str


@dataclass(frozen=True)
class MergeNodes:
    group: tuple[str, ...]
    merged: str


@dataclass(frozen=True)
class AddAttrs:
    element: Element
    attrs: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class RemoveAttrs:
    element: Element
    attrs: Mapping = field(default_factory=dict)


Edit = Union[
    AddNode, AddEdge, DeleteNode, DeleteEdge, CloneNode, MergeNodes, AddAttrs, RemoveAttrs
]


def apply_edit(g: Graph, edit: Edit) -> Graph:
    """Apply one primitive edit, returning the edited graph."""
    if isinstance(edit, AddNode):
        return g.add_node(edit.node, edit.attrs)
    if isinstance(edit, AddEdge):
        return g.add_edge(edit.source, edit.target, edit.attrs)
    if isinstance(edit, DeleteNode):
        return g.delete_node(edit.node)
    if isinstance(edit, DeleteEdge):
        return g.delete_edge(edit.source, edit.target)
    if isinstance(edit, CloneNode):
        return g.clone_node(edit.node, edit.copy1, edit.copy2)
    if isinstance(edit, MergeNodes):
        return g.merge_nodes(edit.group, edit.merged)
    if isinstance(edit, AddAttrs):
        return g.add_attrs(edit.element, edit.attrs)
    if isinstance(edit, RemoveAttrs):
        return g.remove_attrs(edit.element, edit.attrs)
    raise GraphElementError(f"unknown edit {edit!r}")


def apply_edits(g: Graph, edits) -> Graph:
    for edit in edits:
        g = apply_edit(g, edit)
    return g
