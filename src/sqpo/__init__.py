"""Sesqui-pushout rewriting of attributed graph hierarchies.

Graphs with set-valued attributes, their homomorphisms, the categorical
constructions needed for rewriting (pullback, pushout, final pullback
complement, image factorization), span rules with match enumeration, DAG
hierarchies of typed graphs, and forward/backward propagation of rewrites
that keeps every typing and path equality valid.
"""

from .category import (
    ImageFactorizationResult,
    PbcResult,
    PullbackResult,
    PushoutResult,
    final_pbc,
    image_factorization,
    pullback,
    pushout,
)
from .edits import (
    AddAttrs,
    AddEdge,
    AddNode,
    CloneNode,
    DeleteEdge,
    DeleteNode,
    MergeNodes,
    RemoveAttrs,
    apply_edit,
    apply_edits,
)
from .exceptions import (
    CompositionError,
    FactorizationError,
    GraphElementError,
    HierarchyError,
    InvalidHomomorphism,
    NotMonoError,
    RewritingError,
    SqpoError,
)
from .graphs import (
    Graph,
    Homomorphism,
    compose,
    graph_from_json,
    graph_to_json,
    hom_equal,
    identity,
    is_epi,
    is_homomorphism,
    is_mono,
)
from .hierarchy import (
    CommutativityViolation,
    Hierarchy,
    Skeleton,
    hierarchy_from_json,
    hierarchy_to_json,
)
from .isomorphism import are_isomorphic, find_isomorphism
from .propagation import (
    BACKWARD,
    FORWARD,
    BackwardFactorization,
    ForwardFactorization,
    PropagationPlan,
    RewriteReport,
    check_composability,
    lift_rule,
    propagate_backward,
    propagate_forward,
    restriction_pullback,
)
from .relations import (
    apply_plan,
    build_canonical_plan,
    build_relation_plan,
    derive_backward_factorization,
    derive_forward_factorization,
)
from .rules import (
    EXPANSIVE,
    RESTRICTIVE,
    Match,
    Rule,
    SqpoRewriteResult,
    build_rule,
    find_matches,
    rule_from_json,
    rule_to_json,
    sqpo_rewrite,
)

__all__ = [
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
