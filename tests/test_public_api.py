"""The package's exported names: a literal list with no submodule in it.
The paper's per-edge propagation phases, the universal-property verifiers
and the two errors only they raise live in `paper_oracles`, next to the
tests that use them, and no longer resolve on the package; nor does the
CLI's former `Workspace`. Every exception the package exports is raised
somewhere in it."""

import ast
import inspect
import types
from pathlib import Path

import pytest

import sqpo
import sqpo.category
import sqpo.cli
import sqpo.exceptions
import sqpo.propagation

PUBLIC_NAMES = [
    "AddAttrs", "AddEdge", "AddNode", "BACKWARD", "BackwardFactorization",
    "CloneNode", "CommutativityViolation", "CompositionError", "DeleteEdge",
    "DeleteNode", "EXPANSIVE", "FORWARD", "FactorizationError",
    "ForwardFactorization", "Graph", "GraphElementError", "Hierarchy",
    "HierarchyError", "Homomorphism", "ImageFactorizationResult",
    "InvalidHomomorphism", "Match", "MergeNodes", "NotMonoError", "PbcResult",
    "PropagationPlan", "PullbackResult", "PushoutResult", "RESTRICTIVE",
    "RemoveAttrs", "RewriteReport", "RewritingError", "Rule", "Skeleton",
    "SqpoError", "SqpoRewriteResult", "apply_edit", "apply_edits", "apply_plan",
    "are_isomorphic", "build_canonical_plan", "build_relation_plan", "build_rule",
    "check_composability", "compose", "derive_backward_factorization",
    "derive_forward_factorization", "final_pbc", "find_isomorphism",
    "find_matches", "graph_from_json", "graph_to_json", "hierarchy_from_json",
    "hierarchy_to_json", "hom_equal", "identity", "image_factorization",
    "is_epi", "is_homomorphism", "is_mono", "lift_rule", "propagate_backward",
    "propagate_forward", "pullback", "pushout", "restriction_pullback",
    "rule_from_json", "rule_to_json", "sqpo_rewrite",
]

MOVED_NAMES = [
    "forward_strict", "forward_canonical", "project_rule", "forward_cleanup",
    "backward_strict", "backward_canonical", "backward_cleanup",
    "ForwardStrictResult", "ForwardCanonicalResult", "ProjectedRule",
    "ForwardCleanupResult", "BackwardStrictResult", "BackwardCanonicalResult",
    "BackwardCleanupResult",
    "OracleConfig", "verify_pullback_up", "verify_pushout_up",
    "verify_final_pbc_up", "verify_image_up",
    "Workspace", "NotEpiError", "ResourceBoundExceeded",
]


def test_public_names_are_pinned():
    assert sorted(sqpo.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module", [sqpo, sqpo.propagation, sqpo.category, sqpo.cli, sqpo.exceptions]
)
def test_moved_names_do_not_resolve(module):
    assert [name for name in MOVED_NAMES if hasattr(module, name)] == []


def test_no_submodule_is_exported():
    assert [n for n in sqpo.__all__ if isinstance(getattr(sqpo, n), types.ModuleType)] == []
    namespace: dict = {}
    exec("from sqpo import *", namespace)
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []


def test_every_leaf_exception_is_raised_in_the_library():
    """Each exception class no other one derives from appears in a `raise`
    statement of the package's source, raised itself or handed to the
    helper that builds it (as in `raise _located(HierarchyError, ...)`)."""
    classes = [
        c for _, c in inspect.getmembers(sqpo.exceptions, inspect.isclass)
        if c.__module__ == sqpo.exceptions.__name__
    ]
    leaves = {c.__name__ for c in classes if not any(d is not c and issubclass(d, c) for d in classes)}
    raised = set()
    for path in Path(sqpo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name))
    assert leaves and sorted(leaves - raised) == []


def test_every_unexported_definition_is_used_in_the_package():
    """Each module-level function or class of the package that `sqpo.__all__`
    does not export, and each private method, is referenced somewhere in
    the package's source: loaded by name, read as an attribute or imported.
    A definition only tests or the benchmark tracer reach belongs with
    them, not in the package."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(sqpo.__file__).parent.glob("*.py"))
    }
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in sqpo.__all__:
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("_")
                    and not item.name.endswith("__")
                )
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert defined
    assert [where for where, name in defined if name not in used] == []


def test_every_import_is_read():
    """Each name a module of the package imports is read somewhere in that
    module, so that a deletion leaves no import behind. `from __future__`
    imports and the names `sqpo.__all__` re-exports are left out."""
    unread = []
    for path in sorted(Path(sqpo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, a.name) for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if path.name == "__init__.py":
            read.update(sqpo.__all__)
        unread.extend(f"{path.stem}: {name}" for name in sorted(imported) if name not in read)
    assert unread == []
