"""Shared exception types, which the CLI maps onto exit codes 4-6
(`cli.EXIT_CODES`), and the type predicates the checks that raise them use.
No side input is required: corruptions fall back to procedural layers."""

import math

import numpy as np


def is_int(value) -> bool:
    """An integer, numpy integers included; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number (int or float, numpy scalars included), not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number that is finite as a float: NaN, the infinities and an
    int too large for a float are not."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


class RawBenchError(Exception):
    """Base class for all library errors."""


class ParameterError(RawBenchError, ValueError):
    """An operation was called with out-of-range or malformed parameters."""


class DimensionError(RawBenchError, ValueError):
    """Image/array shapes do not line up."""


class FormatError(RawBenchError, ValueError):
    """A file or JSON document failed strict validation.

    `code` is a stable machine-readable identifier (one per violation class).
    """

    def __init__(self, code, message):
        self.code = code
        super().__init__(f"{code}: {message}")


class MetricError(RawBenchError, ValueError):
    """A robustness metric is undefined for the given inputs."""
