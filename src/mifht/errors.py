"""Exception hierarchy for the mifht package.

Every error that a caller might want to branch on gets its own class; all
derive from MifhtError so a bare ``except MifhtError`` catches the lot.
"""


class MifhtError(Exception):
    """Base class for all package errors."""


class OverlapError(MifhtError):
    """Interval endpoints are not strictly increasing / intervals overlap."""


class NonFiniteError(MifhtError):
    """An endpoint or input value is NaN or infinite."""


class DomainError(MifhtError):
    """A point lies outside the domain required by the operation."""


class EndpointError(DomainError):
    """Evaluation requested exactly at an interval endpoint."""


class ConvergenceError(MifhtError):
    """An adaptive scheme stalled before reaching its accuracy target."""


class RangeError(MifhtError):
    """Data is not in the range of the transform (moment test failed)."""


class DegenerateDiagonalError(MifhtError):
    """Some diagonal entry of the interaction matrix vanishes.

    Systems with a degenerate diagonal need analytic continuation of the
    data off the intervals and are outside the scope of this package.
    """


class ZeroLambdaError(MifhtError):
    """The spectral parameter lambda must be nonzero."""


class NearSingularError(MifhtError):
    """The discretized operator is numerically singular."""


class CoincidenceError(MifhtError):
    """Resolvent kernel requested at z == x without asking for the limit."""


class SymmetryError(MifhtError):
    """The operation requires a symmetric interaction matrix."""


class NonPositiveEigenvalueError(MifhtError):
    """The Bezout matrix of the endpoint polynomials is not positive definite."""


class RangeExceededError(MifhtError):
    """Argument lies beyond the tabulated range of an inverse map."""


class RangeViolationError(MifhtError):
    """Low-frequency energy test shows the data is not in the range."""


class SchemaError(MifhtError):
    """A problem file failed to parse; message carries line/field context."""


class TruncationWarning(UserWarning):
    """Channel energy near the t-grid boundary exceeds the trust threshold."""
