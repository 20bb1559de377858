"""Exception types, the vertex budget they enforce and the text of the
numbers they report, shared across the package."""


class FreesplitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FreesplitError, ValueError):
    """Input violates a documented precondition (bad letter, empty family, ...)."""


class ParseError(InvalidInputError):
    """Text input could not be parsed; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# The vertex budget: the default ball cap, and the bound on Whitehead graphs
# and presentations.
DEFAULT_VERTEX_CAP = 2_000_000


def _int_text(n: int) -> str:
    """``str(n)``, or, for an int past the interpreter's limit on decimal
    conversion (4,300 digits by default), its sign and bit length."""
    try:
        return str(n)
    except ValueError:
        return f"{'a negative' if n < 0 else 'an'} int of {n.bit_length()} bits"


class ResourceCapError(FreesplitError):
    """A computation was refused because it would exceed the vertex budget."""

    def __init__(self, message, predicted=None, cap=None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


class InternalConsistencyError(FreesplitError):
    """A mathematical invariant failed; indicates a bug, not bad input."""


class UnsupportedExportError(FreesplitError, ValueError):
    """The requested export is not defined for this object."""
