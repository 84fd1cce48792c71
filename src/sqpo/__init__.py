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
    NotEpiError,
    NotMonoError,
    ResourceBoundExceeded,
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

__all__ = [name for name in dir() if not name.startswith("_")] + ["Workspace"]


def __getattr__(name):
    # `Workspace` lives in the CLI module, which is loaded only when asked
    # for: importing it here would load it before `python -m sqpo.cli` runs
    # it as __main__, and runpy warns about that
    if name == "Workspace":
        from .cli import Workspace

        return Workspace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
