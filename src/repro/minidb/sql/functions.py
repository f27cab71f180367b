"""Scalar and aggregate function registries for the SQL executor.

SQL NULL is Python ``None``; every scalar function is strict (returns NULL
on NULL input) except ``COALESCE``; aggregates skip NULLs, as in PostgreSQL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from repro.errors import SQLError, SQLNameError, SQLTypeError


def order_key(value):
    """*value* in PostgreSQL's array order: element by element, NULL last, a
    prefix first. Python's list order agrees unless a NULL meets a non-NULL
    element and it raises: ordering code retries with these keys then."""
    if type(value) is not list:
        return value
    return tuple([(1, 0) if v is None else (0, v) for v in value])


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------
def _floor(x):
    if x is None:
        return None
    if isinstance(x, int):
        return x
    return math.floor(x)


def _ceil(x):
    if x is None:
        return None
    if isinstance(x, int):
        return x
    return math.ceil(x)


def _abs(x):
    return None if x is None else abs(x)


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _least(*args):
    return reduce(_MIN, args, None)  # the first of equal values, as min()


def _greatest(*args):
    return reduce(_MAX, args, None)


def _cardinality(arr):
    if arr is None:
        return None
    if not isinstance(arr, (list, tuple)):
        raise SQLTypeError(f"CARDINALITY expects an array, got {arr!r}")
    return len(arr)


def _array_length(arr, dim=1):
    if arr is None:
        return None
    if dim != 1:
        raise SQLTypeError("minidb arrays are one-dimensional")
    if not isinstance(arr, (list, tuple)):
        raise SQLTypeError(f"ARRAY_LENGTH expects an array, got {arr!r}")
    return len(arr) or None  # PostgreSQL returns NULL for empty arrays


def _mod(a, b):
    """The remainder of ``a / b``, with the dividend's sign (PostgreSQL):
    exact for integers, ``fmod`` once either side is a double."""
    if a is None or b is None:
        return None
    if b == 0:
        raise SQLError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        rem = abs(a) % abs(b)
        return -rem if a < 0 else rem
    return math.fmod(a, b)


def _power(a, b):
    """``a`` to the power ``b`` as a DOUBLE (PostgreSQL's ``power``); a
    power with no real value is an error, not a value."""
    if a is None or b is None:
        return None
    try:
        return math.pow(a, b)
    except ValueError:
        raise SQLError("zero raised to a negative power is undefined" if a == 0 else
                       "a negative number raised to a non-integer power yields "
                       "a complex result") from None
    except OverflowError:
        raise SQLError("value out of range: overflow") from None


def _sqrt(x):
    if x is None:
        return None
    if x < 0:
        raise SQLError("cannot take square root of a negative number")
    return math.sqrt(x)


def _round(x, digits=0):
    """*x* rounded to *digits* places, a tie away from zero as PostgreSQL
    rounds (Python's ``round`` goes to the even neighbour). The exact value
    is rounded, so only a tie that *x* holds exactly goes away from zero."""
    if x is None or isinstance(x, float) and not math.isfinite(x):
        return x
    scale = Fraction(10) ** digits
    rounded = math.floor(abs(Fraction(x)) * scale + Fraction(1, 2)) / scale
    if x < 0:
        rounded = -rounded
    return int(rounded) if digits and isinstance(x, int) else float(rounded)


def _lower(s):
    return None if s is None else s.lower()


def _upper(s):
    return None if s is None else s.upper()


def _length(s):
    return None if s is None else len(s)


SCALAR_FUNCTIONS = {
    "floor": _floor,
    "ceil": _ceil,
    "ceiling": _ceil,
    "abs": _abs,
    "coalesce": _coalesce,
    "least": _least,
    "greatest": _greatest,
    "cardinality": _cardinality,
    "array_length": _array_length,
    "mod": _mod,
    "power": _power,
    "sqrt": _sqrt,
    "round": _round,
    "lower": _lower,
    "upper": _upper,
    "length": _length,
}


def get_scalar(name: str):
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise SQLNameError(f"unknown function {name!r}") from None


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
# An aggregate is ``(init, step, final)``: a group's accumulator starts at
# ``init``, each input row makes it ``step(acc, value)`` and the group's
# result is ``final(acc)``. NULL inputs are skipped, so an accumulator that
# is still None saw no value and the result is NULL (COUNT starts at 0).
def _step(first, fold):
    def step(acc, value):
        if value is None:
            return acc
        return first(value) if acc is None else fold(acc, value)

    return step


def _same(acc):
    return acc


def _append(acc, value):
    acc.append(value)
    return acc


def _mean(acc):
    return None if acc is None else acc[0] / acc[1]


def _min(acc, v):
    try:
        return v if v < acc else acc
    except TypeError:  # an array holding a NULL element
        return v if order_key(v) < order_key(acc) else acc


def _max(acc, v):
    try:
        return v if acc < v else acc
    except TypeError:  # an array holding a NULL element
        return v if order_key(acc) < order_key(v) else acc


# MIN/MAX keep the first of equal values and SUM/AVG start from ``0 + v``:
# a fold equals ``min``/``max``/``sum`` over the list of inputs bit for bit.
_MIN, _MAX = _step(_same, _min), _step(_same, _max)
AGGREGATES = {
    "min": (None, _MIN, _same),
    "max": (None, _MAX, _same),
    "sum": (None, _step(lambda v: 0 + v, lambda acc, v: acc + v), _same),
    "avg": (
        None,
        _step(lambda v: (0 + v, 1), lambda acc, v: (acc[0] + v, acc[1] + 1)),
        _mean,
    ),
    "count": (0, _step(None, lambda acc, _v: acc + 1), _same),  # never None
    "array_agg": (None, _step(lambda v: [v], _append), _same),
    "bool_and": (None, _step(bool, lambda acc, v: acc and bool(v)), _same),
    "bool_or": (None, _step(bool, lambda acc, v: acc or bool(v)), _same),
}


# Set-returning functions (expanded by the executor, not evaluated here).
SET_RETURNING = {"unnest"}
