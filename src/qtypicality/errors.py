"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class SchemaError(ValidationError):
    """Malformed scenario data: unknown labels, bad shapes, bad JSON layout."""


class TimeRangeError(ValidationError):
    """Time index outside the schedule of a structure or process."""


class ResourceLimitError(RuntimeError):
    """Request exceeds a hard computational guard: a wavepacket grid, a
    statistics enumeration, aggregation or sweep, or the path extensions
    that one graph slice would form."""
