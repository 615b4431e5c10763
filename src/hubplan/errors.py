"""Exception types shared across the package."""


class HubplanError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(HubplanError):
    """A scalar or structural parameter violates its invariant."""


class ParseError(HubplanError):
    """A file could not be read, parsed or written.

    Carries enough position information (path, line, column name) to point
    at the offending record.
    """

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        loc = []
        if path is not None:
            loc.append(str(path))
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{': '.join([', '.join(loc), message])}"
        super().__init__(message)


class DegenerateColumnError(HubplanError):
    """A data column is constant where variation is required."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"column {column} is (numerically) constant")


class MomentFitError(HubplanError):
    """The cubic moment-matching transform could not be fitted."""

    def __init__(self, message, residual=None, dimension=None):
        self.residual = residual
        self.dimension = dimension
        super().__init__(message)


class DecompositionError(HubplanError):
    """A matrix factorization failed; ``minor`` is the 1-based order of the
    first non-positive-definite leading minor."""

    def __init__(self, minor):
        self.minor = minor
        super().__init__(
            f"matrix is not positive definite (leading minor {minor})")


class ModelBuildError(HubplanError):
    """Inconsistent inputs discovered while assembling the optimization model."""


class SolverError(HubplanError):
    """The solver hit a numerical or resource condition it cannot recover from."""


class MpsFormatError(HubplanError):
    """A model cannot be represented in, or read from, MPS text."""
