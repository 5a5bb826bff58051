"""Exception types shared across the toolkit."""


class PolymatError(Exception):
    """Base class for all toolkit errors."""


class AmbientMismatchError(PolymatError, ValueError):
    """Operands live in rings with different variable counts."""


class InvalidArgumentError(PolymatError, ValueError):
    """An argument lies outside the values the operation accepts."""


class EmptyIdealError(PolymatError, ValueError):
    """A generating set must contain at least one monomial."""


class NotEquigeneratedError(PolymatError, ValueError):
    """The operation requires all minimal generators to share one degree."""


class BoundExceededError(PolymatError, RuntimeError):
    """A configured enumeration limit would be exceeded."""


class UnitIdealError(PolymatError, ValueError):
    """The unit ideal is not a valid input here."""


class OracleUnavailableError(PolymatError, RuntimeError):
    """The exponential oracle is gated off for inputs this large."""


class ParseError(PolymatError, ValueError):
    """Malformed monomial or ideal text; carries the offending position."""

    def __init__(self, message: str, position: int = 0, line: int = 1):
        super().__init__(f"{message} (line {line}, column {position + 1})")
        self.position = position
        self.line = line
