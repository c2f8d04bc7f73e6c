"""Exception types shared across the package."""


class AotError(Exception):
    """Base class for all package errors."""


class ShapeError(AotError, ValueError):
    """Tensor shapes incompatible with the requested operation."""


class NumericOverflowError(AotError, ArithmeticError):
    """Non-finite values appeared during a forward pass or a solve.

    ``where`` identifies the layer / solver step that produced them; ``row``
    is the batch row that failed first, when a batched solve raised.
    """

    def __init__(self, message: str, where=None, row: int | None = None):
        super().__init__(message)
        self.where = where
        self.row = row


class FormatError(AotError, ValueError):
    """A binary container (trajectory or checkpoint file) failed to parse."""


class UsageError(AotError, ValueError):
    """Invalid command-line usage or configuration."""
