"""Exception hierarchy for the sqpo library."""


class SqpoError(Exception):
    """Base class for all library errors."""


class GraphElementError(SqpoError):
    """An operation referenced a missing element or collided with an existing id."""


class InvalidHomomorphism(SqpoError):
    """A map between graphs violates edge preservation or attribute containment."""


class CompositionError(SqpoError):
    """Arrow endpoints do not line up for composition or comparison."""


class NotMonoError(SqpoError):
    """An arrow required to be a mono is not injective."""


class HierarchyError(SqpoError):
    """Structural problem in a hierarchy: cycles, unknown nodes, broken commutativity."""


class RewritingError(SqpoError):
    """A rewrite or propagation step cannot be performed on the given inputs."""


class FactorizationError(RewritingError):
    """A factorization does not satisfy its defining squares/triangles."""

