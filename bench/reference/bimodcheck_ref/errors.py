"""Exception types shared across the package."""


class BimodcheckError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(BimodcheckError):
    """Operands live over different ground fields."""


class ShapeError(BimodcheckError):
    """Matrix or vector dimensions are incompatible."""


class SingularError(BimodcheckError):
    """A matrix required to be invertible (or right-invertible) is not."""


class ValidationError(BimodcheckError):
    """A structure violates one of its defining axioms."""


class PreconditionError(BimodcheckError):
    """An operation was invoked outside its mathematical precondition."""


class DimensionCapError(BimodcheckError):
    """A constructed space would exceed the configured dimension cap."""

    def __init__(self, message: str, requested: int, cap: int):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class SchemaError(BimodcheckError):
    """An input document does not match the expected schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
