"""The package's exported names. The paper's per-edge propagation phases and
the universal-property verifiers live in `paper_oracles`, next to the tests
that use them, and no longer resolve on the package."""

import pytest

import sqpo
import sqpo.category
import sqpo.propagation

PUBLIC_NAMES = [
    "AddAttrs", "AddEdge", "AddNode", "BACKWARD", "BackwardFactorization",
    "CloneNode", "CommutativityViolation", "CompositionError", "DeleteEdge",
    "DeleteNode", "EXPANSIVE", "FORWARD", "FactorizationError",
    "ForwardFactorization", "Graph", "GraphElementError", "Hierarchy",
    "HierarchyError", "Homomorphism", "ImageFactorizationResult",
    "InvalidHomomorphism", "Match", "MergeNodes", "NotEpiError", "NotMonoError",
    "PbcResult", "PropagationPlan", "PullbackResult", "PushoutResult",
    "RESTRICTIVE", "RemoveAttrs", "ResourceBoundExceeded", "RewriteReport",
    "RewritingError", "Rule", "Skeleton", "SqpoError", "SqpoRewriteResult",
    "Workspace", "apply_edit", "apply_edits", "apply_plan", "are_isomorphic",
    "build_canonical_plan", "build_relation_plan", "build_rule", "category",
    "check_composability", "compose", "derive_backward_factorization",
    "derive_forward_factorization", "edits", "exceptions", "final_pbc",
    "find_isomorphism", "find_matches", "graph_from_json", "graph_to_json",
    "graphs", "hierarchy", "hierarchy_from_json", "hierarchy_to_json",
    "hom_equal", "identity", "image_factorization", "is_epi", "is_homomorphism",
    "is_mono", "isomorphism", "lift_rule", "propagate_backward",
    "propagate_forward", "propagation", "pullback", "pushout", "relations",
    "restriction_pullback", "rule_from_json", "rule_to_json", "rules",
    "sqpo_rewrite",
]

MOVED_NAMES = [
    "forward_strict", "forward_canonical", "project_rule", "forward_cleanup",
    "backward_strict", "backward_canonical", "backward_cleanup",
    "ForwardStrictResult", "ForwardCanonicalResult", "ProjectedRule",
    "ForwardCleanupResult", "BackwardStrictResult", "BackwardCanonicalResult",
    "BackwardCleanupResult",
    "OracleConfig", "verify_pullback_up", "verify_pushout_up",
    "verify_final_pbc_up", "verify_image_up",
]


def test_public_names_are_pinned():
    assert sorted(sqpo.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", [sqpo, sqpo.propagation, sqpo.category])
def test_moved_names_do_not_resolve(module):
    assert [name for name in MOVED_NAMES if hasattr(module, name)] == []
