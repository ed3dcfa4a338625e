"""`errors`: the type predicates behind every parameter check, and the
exception classes the CLI maps onto exit codes."""

import math

import numpy as np
import pytest

from rawbench import errors
from rawbench.errors import (DimensionError, FormatError, MetricError,
                             ParameterError, RawBenchError, is_finite_real,
                             is_int, is_real)

# value -> (is_int, is_real, is_finite_real)
PREDICATES = [
    (True, (False, False, False)),
    (False, (False, False, False)),
    (3, (True, True, True)),
    (np.int64(3), (True, True, True)),
    (np.uint64(2**64 - 1), (True, True, True)),
    (2.5, (False, True, True)),
    (np.float32(2.5), (False, True, True)),
    (math.nan, (False, True, False)),
    (np.float64(math.nan), (False, True, False)),
    (math.inf, (False, True, False)),
    (-math.inf, (False, True, False)),
    (10**400, (True, True, False)),  # an int no float can hold
    ("1", (False, False, False)),
    (None, (False, False, False)),
    (np.array(1.0), (False, False, False)),
]


@pytest.mark.parametrize("value, expected", PREDICATES,
                         ids=[repr(v) for v, _ in PREDICATES])
def test_predicates(value, expected):
    assert (is_int(value), is_real(value), is_finite_real(value)) == expected


ERRORS = (ParameterError, DimensionError, FormatError, MetricError)


def test_every_error_class_is_listed():
    # tooling guard: a new error class needs a row above
    defined = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, RawBenchError)}
    assert defined == {RawBenchError, *ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=[c.__name__ for c in ERRORS])
def test_errors_are_rawbench_and_value_errors(cls):
    error = cls("E_X", "bad") if cls is FormatError else cls("bad")
    assert isinstance(error, RawBenchError)
    assert isinstance(error, ValueError)


def test_format_error_carries_its_code():
    error = FormatError("E_SCHEMA_VALUE", "fit.json: budget must be >= 1")
    assert error.code == "E_SCHEMA_VALUE"
    assert str(error) == "E_SCHEMA_VALUE: fit.json: budget must be >= 1"
    with pytest.raises(ValueError, match="^E_SCHEMA_VALUE: "):
        raise error
