"""Expression runtime: SQL value semantics and expression compilation.

:func:`compile_expr` turns an expression tree into a ``fn(row, params)``
closure with **deferred** parameter binding, so one compiled plan serves
every parameter vector (the prepared-statement contract). There is one kind
of closure: to the expression around it an aggregate is a column of the row,
and :func:`accumulator` lowers the call itself. The helpers around them
define the dialect's value semantics — three-valued logic, NULL-aware
comparison and arithmetic, ``NULLS LAST`` sort keys — and are shared by the
planner, the batch executor and the row-at-a-time reference model.
"""

from __future__ import annotations

import operator

import numpy as _np

from repro.errors import SQLError, SQLTypeError
from repro.minidb.sql import ast
from repro.minidb.sql.analyzer import is_array
from repro.minidb.sql.functions import AGGREGATES, get_scalar, order_key


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------
def _is_true(value) -> bool:
    return value is True


_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _cmp(compare, a, b):
    if a is None or b is None:
        return None
    try:
        return compare(a, b)
    except TypeError:
        if type(a) is list and type(b) is list:  # a NULL element
            return compare(order_key(a), order_key(b))
        raise


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_MOD = get_scalar("mod")  # ``%`` is MOD: exact on integers, the dividend's sign


def _bigint(value):
    """*value*, refused as PostgreSQL does when an integer leaves int64 (the
    column kernels decline any operand whose result could)."""
    if type(value) is int and not _I64_MIN <= value <= _I64_MAX:
        raise SQLTypeError("bigint out of range")
    return value


def _arith(op: str, a, b):
    if a is None or b is None:
        return None
    if op == "+":
        return _bigint(a + b)
    if op == "-":
        return _bigint(a - b)
    if op == "*":
        return _bigint(a * b)
    if op == "/":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise SQLError("division by zero")
            quotient = a // b
            if quotient < 0 and quotient * b != a:
                quotient += 1  # PostgreSQL truncates toward zero
            return _bigint(quotient)  # -2**63 / -1
        if b == 0:
            raise SQLError("division by zero")
        return a / b
    if op == "%":
        return _MOD(a, b)
    if op == "||":
        if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
            left = list(a) if isinstance(a, (list, tuple)) else [a]
            right = list(b) if isinstance(b, (list, tuple)) else [b]
            return left + right
        return str(a) + str(b)
    raise SQLError(f"unknown operator {op}")


def _logic_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _logic_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sort_rows(rows, key_fn_count: int, keys: list[tuple], descending: list[bool]):
    """Stable multi-key sort with NULLS LAST, honoring per-key direction.

    *rows* and *keys* are parallel lists; returns rows reordered.
    """
    order = list(range(len(rows)))
    for key_index in range(key_fn_count - 1, -1, -1):
        desc = descending[key_index]

        def sort_key(i, _k=key_index, _d=desc):
            value = keys[i][_k]
            if value is None:
                return (1, 0)
            return (0, _Reversed(value) if _d else value)

        try:
            order = sorted(order, key=sort_key)
        except TypeError:  # an array holding a NULL element
            keys = [element_keys(key) for key in keys]
            order = sorted(order, key=sort_key)
    return [rows[i] for i in order]


def element_keys(values) -> tuple:
    """*values* with every array as its ``order_key``."""
    return tuple(map(order_key, values))


class _Reversed:
    """Wrapper inverting comparisons, for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value


def composite_key(key: tuple, descending: list[bool]) -> tuple:
    """One totally-ordered sort key (NULLS LAST, per-key direction) — the
    single-pass equivalent of :func:`sort_rows`, used by Top-K (which
    rebuilds its keys from :func:`element_keys` when arrays hold NULLs)."""
    return tuple(
        (1, 0) if value is None else (0, _Reversed(value) if desc else value)
        for value, desc in zip(key, descending)
    )


def hashable(row) -> tuple:
    return tuple(tuple(v) if isinstance(v, list) else v for v in row)


def _subscript(value, what: str) -> int:
    """An array bound as the integer it is: an integral float counts as
    that integer (as it does for a probe key); anything else is refused."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SQLTypeError(f"array {what} must be an integer, got {value!r}")


def array_cut(lo, hi) -> slice:
    """The Python slice that is ``a[lo:hi]`` for non-NULL bounds (*hi*
    None: to the end): 1-based and inclusive, clamped to the array, and
    empty when *hi* is below *lo* or below 1 — never counted from the end.
    The one bound rule of the slice closure and UNNEST's raw reader."""
    lo = max(_subscript(lo, "slice lower bound"), 1)
    if hi is None:
        return slice(lo - 1, None)
    hi = _subscript(hi, "slice upper bound")
    return slice(lo - 1, max(hi, lo - 1))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
def compile_expr(expr, slots: dict):
    """Compile the bound expression *expr* into ``fn(row, params)``.

    *slots* maps each ``(source, column)`` of the input row to its position;
    the binder has already proved every reference resolves, every call is
    well placed and every aggregate call replaced by its column, so nothing
    is validated here.
    Parameters are *deferred*: the closure indexes into the vector passed at
    execution time, so compiled plans are parameter-independent and
    cacheable. A short vector is caught up front by the executor via the
    plan's ``arity``.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda _row, _params, _v=value: _v
    if isinstance(expr, ast.Param):
        idx = expr.index - 1
        return lambda _row, params, _i=idx: params[_i]
    if isinstance(expr, ast.BoundRef):
        idx = slots[expr.source, expr.column]
        if is_array(expr.type):
            # A long BIGINT[] cell decodes to an int64 ndarray
            # (values.decode_record); SQL reads it as the list it stores.
            def _array(row, _params, _i=idx):
                cell = row[_i]
                return cell.tolist() if type(cell) is _np.ndarray else cell

            return _array
        return lambda row, _params, _i=idx: row[_i]
    if isinstance(expr, ast.BinaryOp):
        left = compile_expr(expr.left, slots)
        right = compile_expr(expr.right, slots)
        op = expr.op
        if op == "AND":
            return lambda row, params: _logic_and(left(row, params), right(row, params))
        if op == "OR":
            return lambda row, params: _logic_or(left(row, params), right(row, params))
        if op in _COMPARE:
            return lambda row, params, _op=_COMPARE[op]: _cmp(
                _op, left(row, params), right(row, params)
            )
        return lambda row, params, _op=op: _arith(
            _op, left(row, params), right(row, params)
        )
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, slots)
        if expr.op == "-":
            def _neg(row, params):
                value = operand(row, params)
                return None if value is None else _bigint(-value)

            return _neg
        if expr.op == "NOT":
            def _not(row, params):
                value = operand(row, params)
                return None if value is None else not value

            return _not
        raise SQLError(f"unknown unary operator {expr.op}")
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, slots)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, ast.InList):
        operand = compile_expr(expr.operand, slots)
        item_fns = [compile_expr(i, slots) for i in expr.items]
        negated = expr.negated

        def _in(row, params):
            value = operand(row, params)
            if value is None:
                return None
            hit = any(value == fn(row, params) for fn in item_fns)
            return (not hit) if negated else hit

        return _in
    if isinstance(expr, ast.ArraySlice):
        base = compile_expr(expr.base, slots)
        low = high = None
        if expr.low is not None:
            low = compile_expr(expr.low, slots)
        if expr.high is not None:
            high = compile_expr(expr.high, slots)

        def _slice(row, params):
            arr = base(row, params)
            if arr is None:
                return None
            lo = low(row, params) if low is not None else 1
            hi = high(row, params) if high is not None else len(arr)
            if lo is None or hi is None:
                return None
            cut = array_cut(lo, hi)
            return arr[cut] if isinstance(arr, list) else list(arr[cut])

        return _slice
    if isinstance(expr, ast.ArrayIndex):
        base = compile_expr(expr.base, slots)
        index = compile_expr(expr.index, slots)

        def _index(row, params):
            arr = base(row, params)
            i = index(row, params)
            if arr is None or i is None:
                return None
            i = _subscript(i, "subscript")
            if not 1 <= i <= len(arr):
                return None  # PostgreSQL: out-of-range subscript is NULL
            return arr[i - 1]

        return _index
    if isinstance(expr, ast.ArrayLiteral):
        item_fns = [compile_expr(i, slots) for i in expr.items]
        return lambda row, params: [fn(row, params) for fn in item_fns]
    if isinstance(expr, ast.CaseExpr):
        when_fns = [
            (compile_expr(cond, slots), compile_expr(result, slots))
            for cond, result in expr.whens
        ]
        default_fn = None
        if expr.default is not None:
            default_fn = compile_expr(expr.default, slots)

        def _case(row, params):
            for cond_fn, result_fn in when_fns:
                if _is_true(cond_fn(row, params)):
                    return result_fn(row, params)
            return default_fn(row, params) if default_fn is not None else None

        return _case
    if isinstance(expr, ast.FuncCall):
        fn = get_scalar(expr.name)
        arg_fns = [compile_expr(a, slots) for a in expr.args]
        return lambda row, params, _f=fn: _f(*[a(row, params) for a in arg_fns])
    raise SQLError(f"cannot compile {type(expr).__name__}")


def accumulator(name, value_fn, distinct, key_fns, descending):
    """Lower one aggregate of a plan (:class:`~repro.minidb.sql.plan.Aggregate`
    describes it by these five) to ``(arg_fn, init, step, final)``: per input
    row ``acc = step(acc, arg_fn(row, params))`` from ``init``, then the
    group's value is ``final(acc)``.

    A plain call is its :data:`~repro.minidb.sql.functions.AGGREGATES` entry
    over ``value_fn``. A ``DISTINCT`` or ``ORDER BY`` call collects ``(keys,
    value)`` per row and folds that same step over the sorted, de-duplicated
    values when finalized."""
    init, step, final = AGGREGATES[name]
    if not (distinct or key_fns):
        return value_fn, init, step, final

    def pair_fn(row, params):
        return tuple(fn(row, params) for fn in key_fns), value_fn(row, params)

    def collect(pairs, pair):
        if pairs is None:
            return [pair]
        pairs.append(pair)
        return pairs

    def fold(pairs):
        pairs = pairs or []
        if key_fns:
            keys = [keys for keys, _ in pairs]
            pairs = sort_rows(pairs, len(key_fns), keys, descending)
        acc, seen = init, set()
        for _, value in pairs:
            if distinct:
                mark = tuple(value) if isinstance(value, list) else value
                if mark in seen:
                    continue
                seen.add(mark)
            acc = step(acc, value)
        return final(acc)

    return pair_fn, None, collect, fold
