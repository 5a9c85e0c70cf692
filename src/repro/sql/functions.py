"""Scalar and aggregate SQL functions.

Scalar functions are plain Python callables registered in
:data:`SCALAR_FUNCTIONS`; they receive already-evaluated arguments and
must implement SQL NULL propagation themselves where appropriate (the
common case — return NULL when any argument is NULL — is provided by the
``_null_propagating`` decorator).  An argument a function cannot take
raises :class:`~repro.errors.SqlTypeError` naming the function, never a
bare Python error.

Aggregates are reducers registered in :data:`AGGREGATE_FUNCTIONS`:
each turns the argument values of one whole group into its result.
"""

from __future__ import annotations

import datetime
import decimal
import math
import operator
from functools import reduce
from typing import Any, Callable, Optional

from repro.errors import SqlError, SqlTypeError

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------

ScalarFn = Callable[..., Any]


def _null_propagating(fn: ScalarFn) -> ScalarFn:
    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_null_propagating
def _upper(value: str) -> str:
    """UPPER(text) — upper-case."""
    return str(value).upper()


@_null_propagating
def _lower(value: str) -> str:
    """LOWER(text) — lower-case."""
    return str(value).lower()


@_null_propagating
def _length(value: str) -> int:
    """LENGTH(text) — number of characters."""
    return len(str(value))


@_null_propagating
def _substr(value: str, start: int, length: Optional[int] = None) -> str:
    """SUBSTR(text, start[, length]) — 1-based substring, counted as
    ``sqlite3`` counts: a negative start counts from the end, position
    0 lies just before the first character, and a negative length takes
    the characters before the start."""
    text = str(value)
    begin = int(start)
    if length is None:
        if begin > 0:
            return text[begin - 1:]
        return text[max(len(text) + begin, 0):] if begin < 0 else text
    count = int(length)
    backwards = count < 0
    count = abs(count)
    if begin < 0:
        begin += len(text)
        if begin < 0:
            count = max(count + begin, 0)
            begin = 0
    elif begin > 0:
        begin -= 1
    elif count > 0:
        count -= 1
    if backwards:
        begin -= count
        if begin < 0:
            count += begin
            begin = 0
    return text[begin:begin + count]


@_null_propagating
def _trim(value: str) -> str:
    """TRIM(text) — strip leading/trailing spaces."""
    return str(value).strip(" ")


@_null_propagating
def _abs(value: float) -> float:
    """ABS(number)."""
    return abs(value)


#: Enough digits for the 16 of a float below 2**52 and 30 places.
_ROUNDING = decimal.Context(prec=60, rounding=decimal.ROUND_HALF_UP)


@_null_propagating
def _round(value: float, digits: int = 0) -> float:
    """ROUND(number[, digits]) — a REAL, rounded as ``sqlite3`` rounds:
    halves away from zero, on the number's shortest decimal spelling
    (``ROUND(2.675, 2)`` is 2.68), 0 to 30 places; a number of 2**52 or
    more has no fraction to round."""
    number = float(value)
    places = min(max(int(digits), 0), 30)
    if not abs(number) < 4503599627370496.0:
        return number
    if places == 0:
        return float(int(number + (-0.5 if number < 0 else 0.5)))
    return float(decimal.Decimal(repr(number)).quantize(
        decimal.Decimal(1).scaleb(-places), context=_ROUNDING))


@_null_propagating
def _floor(value: float) -> int:
    """FLOOR(number)."""
    return math.floor(value)


@_null_propagating
def _ceil(value: float) -> int:
    """CEIL(number)."""
    return math.ceil(value)


@_null_propagating
def _mod(left: float, right: float) -> float:
    """MOD(a, b) — the remainder of a division truncated toward zero,
    so it has the sign of *a* (as in ``sqlite3``, Oracle and DB2)."""
    if right == 0:
        raise SqlError("MOD by zero")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return math.fmod(left, right)


def _coalesce(*args: Any) -> Any:
    """COALESCE(a, b, ...) — first non-NULL argument."""
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(left: Any, right: Any) -> Any:
    """NULLIF(a, b) — NULL when a = b, else a."""
    return None if left == right else left


def _ifnull(value: Any, default: Any) -> Any:
    """IFNULL(a, b) — b when a is NULL, else a."""
    return default if value is None else value


@_null_propagating
def _concat(*args: Any) -> str:
    """CONCAT(a, b, ...) — string concatenation."""
    return "".join(str(arg) for arg in args)


def _replace(value: str, old: str, new: str) -> Optional[str]:
    """REPLACE(text, old, new); as in ``sqlite3``, an empty *old*
    replaces nothing, whatever *new* is (NULL included)."""
    if value is None or old is None:
        return None
    old = str(old)
    if not old:
        return str(value)
    return None if new is None else str(value).replace(old, str(new))


@_null_propagating
def _instr(value: str, needle: str) -> int:
    """INSTR(text, needle) — 1-based position, 0 when absent."""
    return str(value).find(str(needle)) + 1


@_null_propagating
def _year(value: datetime.date) -> int:
    """YEAR(date)."""
    return value.year


@_null_propagating
def _month(value: datetime.date) -> int:
    """MONTH(date)."""
    return value.month


@_null_propagating
def _day(value: datetime.date) -> int:
    """DAY(date)."""
    return value.day


@_null_propagating
def _date(value: str) -> datetime.date:
    """DATE('YYYY-MM-DD') — parse an ISO date."""
    if isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


def _reporting(name: str, fn: ScalarFn) -> ScalarFn:
    """*fn* as SQL function *name*: an argument of a kind it cannot take
    (the Python error that raises) is a :class:`SqlTypeError` naming it."""
    def call(*args: Any) -> Any:
        try:
            return fn(*args)
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            shown = ", ".join(map(repr, args))
            raise SqlTypeError(f"{name}({shown}): {exc}") from None
    call.__name__ = fn.__name__
    call.__doc__ = fn.__doc__
    return call


#: SQL name -> the function behind it (SUBSTRING and SUBSTR are one).
SCALAR_FUNCTIONS: dict[str, ScalarFn] = {
    "UPPER": _upper,
    "LOWER": _lower,
    "LENGTH": _length,
    "SUBSTR": _substr,
    "SUBSTRING": _substr,
    "TRIM": _trim,
    "ABS": _abs,
    "ROUND": _round,
    "FLOOR": _floor,
    "CEIL": _ceil,
    "CEILING": _ceil,
    "MOD": _mod,
    "COALESCE": _coalesce,
    "NULLIF": _nullif,
    "IFNULL": _ifnull,
    "NVL": _ifnull,  # Oracle spelling
    "CONCAT": _concat,
    "REPLACE": _replace,
    "INSTR": _instr,
    "YEAR": _year,
    "MONTH": _month,
    "DAY": _day,
    "DATE": _date,
}
SCALAR_FUNCTIONS = {name: _reporting(name, fn)
                    for name, fn in SCALAR_FUNCTIONS.items()}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

#: ``reducer(values, distinct=False)``: one group's argument values, in
#: row order, to the aggregate's result.
Reducer = Callable[..., Any]


def _present(values: list, distinct: bool) -> list:
    """NULLs never participate; DISTINCT keeps the first of equal values."""
    present = [value for value in values if value is not None]
    return list(dict.fromkeys(present)) if distinct else present


def _count(values: list, distinct: bool = False) -> int:
    """COUNT(expr) / COUNT(DISTINCT expr); COUNT(*) is the group's size."""
    return len(_present(values, distinct))


def _sum(values: list, distinct: bool = False) -> Any:
    """SUM(expr), added left to right — NULL over an empty or all-NULL
    input."""
    present = _present(values, distinct)
    return reduce(operator.add, present) if present else None


def _avg(values: list, distinct: bool = False) -> Optional[float]:
    """AVG(expr), added left to right from 0.0."""
    present = _present(values, distinct)
    return reduce(operator.add, present, 0.0) / len(present) if present else None


def _min(values: list, distinct: bool = False) -> Any:
    """MIN(expr)."""
    return min(_present(values, distinct), default=None)


def _max(values: list, distinct: bool = False) -> Any:
    """MAX(expr)."""
    return max(_present(values, distinct), default=None)


AGGREGATE_FUNCTIONS: dict[str, Reducer] = {
    "COUNT": _count,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": _min,
    "MAX": _max,
}


def is_aggregate(name: str) -> bool:
    """True when *name* (any case) is an aggregate function."""
    return name.upper() in AGGREGATE_FUNCTIONS
