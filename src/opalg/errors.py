"""Exception types shared across the package."""


class OpalgError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(OpalgError):
    """Operands live on different algebras, grids or groups."""


class InvalidStateError(OpalgError):
    """A density (or Gram matrix derived from it) is not positive within tolerance."""


class NumericalError(OpalgError):
    """A computation could not certify its own output (rank collapse, unresolvable shells, ...)."""


class ValidationError(OpalgError):
    """A scenario document violates its schema.

    ``path`` is the dotted location of the offending field, ``line`` the
    1-based source line when the parser could recover it.
    """

    def __init__(self, message, path="", line=None):
        self.path = path
        self.line = line
        where = path or "<document>"
        if line is not None:
            where += f" (line {line})"
        super().__init__(f"{where}: {message}")
