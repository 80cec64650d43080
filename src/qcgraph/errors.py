"""Exception types shared across the package."""


class QcgError(Exception):
    """Base class for all package errors."""


class DegreeError(QcgError):
    """A vertex has degree 2 or degree >= 4."""


class BoundaryMismatch(QcgError):
    """Declared boundary vertices do not match the degree-1 vertices."""


class ZeroCycle(QcgError):
    """Edge classification is undefined for the zero cycle."""


class UnknownEdge(QcgError):
    """An edge id does not name an edge of the graph."""


class CutLeafEdge(QcgError):
    """Attempt to cut an edge incident to a univalent vertex."""


class RangeError(QcgError):
    """A doubled weight entry lies outside [0, k]."""


class IncompleteTable(QcgError):
    """A cocycle table is missing entries on its basis x weights domain."""


class NotACocycle(QcgError):
    """The table does not satisfy the twisted cocycle identity."""


class NotACoboundary(QcgError):
    """The cocycle has a nontrivial value on a fixed pair."""


class NotAHomomorphism(QcgError):
    """A prescribed character is not a homomorphism on its stabilizer."""


class NotFixed(QcgError):
    """The weight is not fixed by the cycle."""


class ParityFailure(QcgError):
    """The mod-2 parity identity failed on some stabilizer pair."""


class NotGammaN(QcgError):
    """The graph is not connected with first Betti number 1."""


class WeightMismatch(QcgError):
    """Fixed complement weight is incompatible with the cut-edge slots."""


class CapExceeded(QcgError):
    """An exhaustive verification would exceed the caller-supplied cap."""
