"""AST node definitions for the minidb SQL dialect.

Every node carries an optional ``span`` — a ``(start, end)`` byte-offset
range into the original SQL text, attached by the parser and excluded from
equality/hashing so structural comparison (tests, GROUP BY matching) ignores
where a node came from. The analyzer uses spans to render caret diagnostics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, is_dataclass


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
class Expr:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int | float | str | bool | None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Param(Expr):
    index: int  # 1-based, as in $1
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class ColumnRef(Expr):
    table: str | None
    name: str
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class BoundRef(Expr):
    """A column reference after binding: column ``column`` of the FROM
    source ``source`` (its alias; ``None`` for a synthesized column such as
    a set operation's output), of lattice type ``type``.

    The binder puts one in place of every :class:`ColumnRef`; the planner
    finds a slot by ``(source, column)`` and never looks at a name again.
    Two spellings of one column compare equal — ``qualified`` only
    remembers which was written, for the printer."""

    source: str | None
    column: str
    type: object = field(default="unknown", compare=False)
    qualified: bool = field(default=False, compare=False, repr=False)
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    table: str | None = None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '+', '-', '*', '/', '%', '=', '<>', '<', '<=', '>', '>=',
    #          'AND', 'OR', '||'
    left: Expr
    right: Expr
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-', 'NOT'
    operand: Expr
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # lower-case
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False  # COUNT(*)
    agg_order_by: tuple["OrderItem", ...] = ()  # ARRAY_AGG(x ORDER BY ...)
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class WindowFunc(Expr):
    name: str  # only 'row_number' supported
    partition_by: tuple[Expr, ...]
    order_by: tuple["OrderItem", ...]
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class ArraySlice(Expr):
    base: Expr
    low: Expr | None
    high: Expr | None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class ArrayIndex(Expr):
    base: Expr
    index: Expr
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class ArrayLiteral(Expr):
    items: tuple[Expr, ...]
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class CaseExpr(Expr):
    whens: tuple[tuple[Expr, Expr], ...]  # (condition, result)
    default: Expr | None
    span: tuple | None = _span_field()


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class SubqueryRef:
    query: "Query"
    alias: str
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Join:
    """Explicit JOIN ... ON; comma joins are plain FROM-list entries."""

    left: object  # TableRef | SubqueryRef | Join
    right: object
    condition: Expr | None  # None for CROSS JOIN
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class SelectCore:
    items: tuple[SelectItem, ...]
    from_items: tuple[object, ...] = ()  # TableRef | SubqueryRef | Join
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    distinct: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Query:
    """One or more SELECT cores combined with UNION [ALL]."""

    cores: tuple[SelectCore, ...]
    set_ops: tuple[str, ...] = ()  # between cores: 'UNION' | 'UNION ALL'
    order_by: tuple[OrderItem, ...] = ()
    limit: Expr | None = None
    offset: Expr | None = None
    ctes: tuple[tuple[str, "Query"], ...] = ()
    span: tuple | None = _span_field()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...]
    if_not_exists: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty = all, in schema order
    rows: tuple[tuple[Expr, ...], ...] = ()  # VALUES form
    select: Query | None = None  # INSERT ... SELECT form
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]  # (column, new value)
    where: Expr | None = None
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Vacuum:
    table: str
    span: tuple | None = _span_field()


@dataclass(frozen=True)
class Explain:
    """EXPLAIN [ANALYZE] <statement>: run it, return the plan tree.

    With ``analyze`` the plan lines carry actual row counts and buffer-pool
    figures per operator (PostgreSQL's ``EXPLAIN ANALYZE``)."""

    statement: object
    analyze: bool = False
    span: tuple | None = _span_field()


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------
#: annotations of fields that hold a plain value, never a node
_PLAIN = ("str", "str | None", "int", "bool", "tuple[str, ...]")


class _NodeFields(dict):
    """Type -> names of the fields of the AST dataclass that can hold
    nodes: not ``span`` (positions never masquerade as children) and not
    the plainly-typed ones. None for any other type (a plain value).
    Filled the first time a type is looked up."""

    def __missing__(self, cls):
        names = None
        if is_dataclass(cls):
            names = tuple(
                f.name
                for f in fields(cls)
                if f.name != "span" and f.type not in _PLAIN
            )
        self[cls] = names
        return names


_FIELDS = _NodeFields()


def children(node) -> list:
    """The AST dataclasses directly under *node*, in source order.

    Purely structural: dataclass fields and the tuples inside them (CTE
    pairs, CASE whens, select lists) are opened, plain values are not.
    """
    out: list = []
    stack = [getattr(node, name) for name in reversed(_FIELDS[type(node)])]
    while stack:
        current = stack.pop()
        if isinstance(current, (tuple, list)):
            stack.extend(reversed(current))
        elif _FIELDS[type(current)] is not None:
            out.append(current)
    return out


def walk(node):
    """Yield *node* and every AST dataclass under it, depth-first, parents
    before children and siblings in source order."""
    stack = [node]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        current = pop()
        names = _FIELDS[type(current)]
        if names is not None:
            yield current
            for name in reversed(names):
                push(getattr(current, name))
        elif isinstance(current, (tuple, list)):
            extend(reversed(current))


def rewrite(node, fn):
    """Rebuild *node* bottom-up: every dataclass under it (children first,
    then the node itself) is replaced by ``fn(node)``. Untouched subtrees
    are shared with the input, and spans carry over."""
    names = _FIELDS[type(node)]
    if names is None:
        if not isinstance(node, tuple):
            return node
        new = tuple([rewrite(part, fn) for part in node])
        return node if all(map(operator.is_, new, node)) else new
    changed = None
    for name in names:
        old = getattr(node, name)
        new = rewrite(old, fn)
        if new is not old:
            if changed is None:  # a copy: the fields are set, no __init__ runs
                changed = object.__new__(type(node))
                changed.__dict__.update(node.__dict__)
            changed.__dict__[name] = new
    return fn(node if changed is None else changed)


def param_indices(node) -> tuple[int, ...]:
    """Sorted, deduplicated ``$n`` indices appearing anywhere in *node*.

    The planner stores these on the physical plan so the executor can
    validate a parameter vector up front instead of failing mid-stream."""
    return tuple(sorted({n.index for n in walk(node) if type(n) is Param}))
