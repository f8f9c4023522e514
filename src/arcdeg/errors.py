"""Exception types shared across the package."""


class ArcDegError(Exception):
    """Base class for all arcdeg errors."""


class TypeMismatch(ArcDegError):
    """Two operands were expected to have the same partition type."""


class InconsistentDiagram(ArcDegError):
    """An arc diagram cannot be completed to an object of the requested type."""


class MoveNotApplicable(ArcDegError):
    """A move refers to arcs or poles that are not present in the diagram."""


class NoDescentMove(ArcDegError):
    """Descent was requested for a pair of isomorphic objects."""


class NotComparable(ArcDegError):
    """A chain was requested for a pair that is not in hom order."""


class InternalInvariantViolation(ArcDegError):
    """An invariant that the algorithms guarantee does not hold."""
