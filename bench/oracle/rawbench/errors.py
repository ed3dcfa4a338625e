"""Shared exception types. The CLI maps these onto distinct exit codes."""


class RawBenchError(Exception):
    """Base class for all library errors."""


class ParameterError(RawBenchError, ValueError):
    """An operation was called with out-of-range or malformed parameters."""


class DimensionError(RawBenchError, ValueError):
    """Image/array shapes do not line up."""


class MissingDependencyError(RawBenchError, RuntimeError):
    """A required side input (depth map, asset image) was not supplied."""

    def __init__(self, name, message=None):
        self.name = name
        super().__init__(message or f"missing required side input: {name}")


class FormatError(RawBenchError, ValueError):
    """A file or JSON document failed strict validation.

    `code` is a stable machine-readable identifier (one per violation class).
    """

    def __init__(self, code, message):
        self.code = code
        super().__init__(f"{code}: {message}")


class MetricError(RawBenchError, ValueError):
    """A robustness metric is undefined for the given inputs."""
