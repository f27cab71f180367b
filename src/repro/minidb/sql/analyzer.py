"""The binder: static semantic analysis for minidb SQL, before execution.

Every statement is resolved exactly once, here. :class:`Analyzer` walks a
parsed statement and returns, next to its diagnostics, a **bound tree** the
planner lowers without looking a name up again:

* **Binding.** Every ``TableRef`` is resolved against the catalog and the
  CTE environment, every ``ColumnRef`` against the scope built from the
  ``FROM`` clause (qualifier-aware, ambiguity-checked) and replaced by an
  :class:`~repro.minidb.sql.ast.BoundRef` carrying ``(source, column,
  type)``. Stars are expanded, select items classified plain /
  aggregate-bearing / set-returning / window, ``GROUP BY`` aliases
  substituted and ``ORDER BY`` keys resolved to "output column *i*" or a
  bound expression (the name rules are in ``docs/SQL_DIALECT.md``). Every
  aggregate call of a core becomes a column ``__agg_j`` of the row its
  select items and ``HAVING`` are evaluated on (``BoundCore.aggs``).
* **Type checking.** A type is inferred for every bound expression over the
  lattice ``int | float | text | bool | null | unknown | (array, elem)`` and
  the dialect's rules are enforced: array subscripts only on arrays, numeric
  functions on numerics, aggregates neither nested nor in
  ``WHERE``/``GROUP BY``, ``GROUP BY`` validity, ``UNION`` arity and type
  compatibility, window-function and ``UNNEST`` placement.
* **Access paths.** :func:`analyze` lowers the bound tree with the planner
  (:func:`repro.minidb.sql.planner.lower`) and reads the access paths
  straight off the physical plan: :class:`PkLookup` nodes become PK point
  lookups, :class:`IndexNestedLoop` nodes per-row probes, :class:`SeqScan`
  nodes full scans — before reading a single page. The plan that is
  classified is the plan that executes, which is what lets PTLDB's paper
  bounds ("a v2v query touches exactly two label rows") be checked
  statically; see :func:`check_paper_bounds`.

A statement the binder accepts always has a plan; one it rejects never
reaches the planner. Diagnostics carry stable codes (see
``docs/ANALYZER.md``) and source spans, and render with a caret excerpt via
:meth:`Diagnostic.render`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import (
    AnalyzerCatalogError,
    AnalyzerNameError,
    AnalyzerStructureError,
    AnalyzerTypeError,
    SQLAnalysisError,
)
from repro.minidb.sql import ast
from repro.minidb.sql.diagnostics import (
    ERROR,
    Diagnostic,
    DiagnosticSink,
    Span,
)
from repro.minidb.sql.functions import (
    AGGREGATES,
    SCALAR_FUNCTIONS,
    SET_RETURNING,
)
from repro.minidb.values import (
    T_BIGINT,
    T_BIGINT_ARRAY,
    T_BOOL,
    T_DOUBLE,
    T_DOUBLE_ARRAY,
    T_TEXT,
    type_from_name,
)

# ---------------------------------------------------------------------------
# Type lattice
# ---------------------------------------------------------------------------
INT = "int"
FLOAT = "float"
TEXT = "text"
BOOL = "bool"
NULL = "null"
UNKNOWN = "unknown"

_TAG_TYPES = {
    T_BIGINT: INT,
    T_DOUBLE: FLOAT,
    T_TEXT: TEXT,
    T_BOOL: BOOL,
    T_BIGINT_ARRAY: ("array", INT),
    T_DOUBLE_ARRAY: ("array", FLOAT),
}

_NUMERIC = (INT, FLOAT, NULL, UNKNOWN)


def type_of_tag(tag: int):
    return _TAG_TYPES.get(tag, UNKNOWN)


def is_array(ty) -> bool:
    return isinstance(ty, tuple) and ty[0] == "array"


def _maybe_array(ty) -> bool:
    return is_array(ty) or ty in (NULL, UNKNOWN)


def _maybe_numeric(ty) -> bool:
    return ty in _NUMERIC


def type_name(ty) -> str:
    if is_array(ty):
        return f"{type_name(ty[1])}[]"
    return str(ty)


def unify(a, b):
    """Least upper bound of two lattice types; ``None`` if incompatible."""
    if a == b:
        return a
    for x, y in ((a, b), (b, a)):
        if x in (NULL, UNKNOWN):
            return y
    if {a, b} == {INT, FLOAT}:
        return FLOAT
    if is_array(a) and is_array(b):
        elem = unify(a[1], b[1])
        return None if elem is None else ("array", elem)
    return None


def _comparable(a, b) -> bool:
    return unify(a, b) is not None


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------
PK_POINT = "pk-point"  # B+Tree point lookup: every PK column pinned constant
PK_PROBE = "pk-probe"  # index nested loop: PK pinned per-row from left side
SEQ_SCAN = "seq-scan"  # full heap scan
CTE_SCAN = "cte-scan"  # materialized CTE re-read (no base pages)
SUBQUERY = "subquery"  # derived relation (its own accesses reported inside)

#: What operator name the executor's trace will show for each static class —
#: the bench runner diffs this prediction against the measured trace.
EXPECTED_OPERATOR = {
    PK_POINT: "Index Scan",
    PK_PROBE: "Index Nested Loop",
    SEQ_SCAN: "Seq Scan",
    CTE_SCAN: "CTE Scan",
    SUBQUERY: "Subquery Scan",
}

#: Tables holding paper label data: the TTL label tables themselves plus the
#: derived kNN/OTM auxiliary tables. The *naive* tables (paper Code 2) are
#: excluded — the naive scheme scans them by design.
_LABEL_TABLE = re.compile(r"^(lout|lin|knn_|otm_)")


def is_label_table(name: str) -> bool:
    return bool(_LABEL_TABLE.match(name)) and "naive" not in name


@dataclass(frozen=True)
class AccessPath:
    """Static classification of one relation access."""

    table: str  # base-table (or CTE / subquery alias) name
    alias: str
    kind: str  # PK_POINT | PK_PROBE | SEQ_SCAN | CTE_SCAN | SUBQUERY
    detail: str = ""
    span: Span | None = None

    @property
    def expected_operator(self) -> str:
        return EXPECTED_OPERATOR[self.kind]

    def describe(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        alias = f" AS {self.alias}" if self.alias != self.table else ""
        return f"{self.kind} on {self.table}{alias}{extra}"


# ---------------------------------------------------------------------------
# Analysis result
# ---------------------------------------------------------------------------
_ERROR_CLASS = {
    "SEM001": AnalyzerCatalogError,
    "SEM002": AnalyzerNameError,
    "SEM003": AnalyzerNameError,
    "SEM004": AnalyzerNameError,
    "SEM005": AnalyzerStructureError,
    "SEM006": AnalyzerCatalogError,
}


@dataclass
class Analysis:
    """Everything the analyzer learned about one statement."""

    sql: str | None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    access_paths: list[AccessPath] = field(default_factory=list)
    output: list[tuple[str, object]] = field(default_factory=list)
    #: the bound statement: a :class:`BoundQuery`, a :class:`BoundWrite`, or
    #: the DDL / VACUUM node itself (nothing in those to bind)
    bound: object = None
    #: the physical plan (repro.minidb.sql.plan.Plan) lowered from ``bound``;
    #: None exactly when the statement has errors
    plan: object = None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity != ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        return "\n".join(d.render(self.sql) for d in self.diagnostics)

    def raise_if_errors(self) -> None:
        """Raise the first error as the analyzer subclass of the exception
        the executor would have raised at runtime (so existing ``except``
        clauses and tests keep working)."""
        if not self.errors:
            return
        first = self.errors[0]
        cls = _ERROR_CLASS.get(first.code)
        if cls is None:
            prefix = first.code[:3]
            cls = {
                "TYP": AnalyzerTypeError,
                "AGG": AnalyzerStructureError,
                "WIN": AnalyzerStructureError,
                "SRF": AnalyzerStructureError,
            }.get(prefix, SQLAnalysisError)
        raise cls(first.render(self.sql))

    def summary(self) -> list[dict]:
        """JSON-friendly access-path list (consumed by the bench runner)."""
        return [
            {
                "table": p.table,
                "alias": p.alias,
                "kind": p.kind,
                "expected_operator": p.expected_operator,
                "detail": p.detail,
            }
            for p in self.access_paths
        ]


# ---------------------------------------------------------------------------
# The bound tree
# ---------------------------------------------------------------------------
PLAIN = "plain"  # aggregate-free scalar expression
AGG = "agg"  # contains an aggregate call
SRF = "srf"  # UNNEST(...): expands the row set
WINDOW = "window"  # ROW_NUMBER() OVER (...)


@dataclass
class BoundSource:
    """One ``FROM`` source, in syntactic order."""

    alias: str
    kind: str  # "table" | "cte" | "subquery"
    name: str  # base-table / CTE name (the alias, for a subquery)
    columns: list  # [(name, type), ...]
    on: list  # bound ON conjuncts: hold once this source has been joined
    node: object  # the TableRef / SubqueryRef, for access-path spans
    query: "BoundQuery | None" = None  # a subquery's body


@dataclass
class BoundItem:
    """One select item (stars already expanded).

    An ``SRF`` or ``WINDOW`` item's value is produced by an operator below
    the projection, in a column appended to the core's input row; ``ref``
    names that column, and is what ``GROUP BY`` / ``ORDER BY`` aliases of
    the item stand for. ``value`` is what the projection evaluates: the
    ``ref`` when there is one, and for an ``AGG`` item ``expr`` with every
    aggregate call replaced by its ``__agg_j`` column (``BoundCore.aggs``).

    A ``hidden`` item is an ORDER BY key that is not in the select list
    (PostgreSQL's "resjunk" column): the projection or aggregate computes
    it like any other item, after the visible ones, and the sort strips
    it, so it is in no result, CTE, subquery scan or inserted row."""

    expr: object  # bound expression (the UNNEST call / WindowFunc itself)
    name: str | None  # None for a hidden item: no name resolves to it
    type: object
    kind: str  # PLAIN | AGG | SRF | WINDOW
    ref: ast.BoundRef | None = None
    hidden: bool = False
    value: object = None

    def __post_init__(self):
        self.value = self.ref if self.ref is not None else self.expr


@dataclass
class BoundCore:
    """One ``SELECT`` core."""

    sources: list  # [BoundSource]
    where: list  # bound WHERE conjuncts
    items: list  # [BoundItem]: the select list, then the hidden sort keys
    grouped: bool  # GROUP BY, HAVING or an aggregate in the select list
    group_by: list  # bound keys, select aliases already substituted
    #: the structurally distinct aggregate calls (bound ``FuncCall``s) of the
    #: select list, HAVING and hidden sort keys; call *j* is the column
    #: ``__agg_j`` after the core's input row wherever those are evaluated
    aggs: list
    having: object  # bound expression over input row + ``aggs``, or None
    distinct: bool
    node: ast.SelectCore

    @property
    def columns(self) -> list:
        return [(it.name, it.type) for it in self.items if not it.hidden]


@dataclass
class BoundQuery:
    """A query: CTEs, one core or a set operation, then ORDER BY / LIMIT."""

    ctes: list  # [(name, BoundQuery)]
    parts: list  # one BoundCore, or the set operation's BoundCore|BoundQuery
    set_ops: tuple  # between parts: 'UNION' | 'UNION ALL'
    columns: list  # [(name, type)], types unified across the parts
    #: ``[(position, descending)]``: column *position* of the row under the
    #: sort — an output column, or a hidden one after them (a core's hidden
    #: items; ``order_exprs`` for a set operation)
    order_by: list
    limit: object  # bound expression or None
    offset: object
    node: ast.Query
    #: set operation only: sort keys that are expressions over the combined
    #: output row, appended to it as hidden columns ``len(columns) + j``
    order_exprs: list = field(default_factory=list)

    @property
    def core(self) -> "BoundCore | None":
        """The single core, or None for a set operation."""
        part = self.parts[0]
        single = len(self.parts) == 1 and isinstance(part, BoundCore)
        return part if single else None


@dataclass
class BoundWrite:
    """INSERT / DELETE / UPDATE against one base table."""

    node: object  # the ast.Insert / ast.Delete / ast.Update
    columns: list  # the table's [(name, type)]
    positions: list = field(default_factory=list)  # target slot per value
    #: INSERT ... VALUES: one list of bound expressions per row;
    #: UPDATE: one bound expression per assignment
    values: list = field(default_factory=list)
    where: object = None
    select: BoundQuery | None = None  # INSERT ... SELECT


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------
def flatten_and(expr) -> list:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return flatten_and(expr.left) + flatten_and(expr.right)
    return [expr]


def _first_calls(expr) -> tuple:
    """The first aggregate call and the first set-returning call in *expr*
    (either None), found in one walk."""
    agg = srf = None
    for node in ast.walk(expr):
        if isinstance(node, ast.FuncCall):
            if agg is None and node.name in AGGREGATES:
                agg = node
            if srf is None and node.name in SET_RETURNING:
                srf = node
    return agg, srf


def contains_aggregate(expr) -> bool:
    return _first_calls(expr)[0] is not None


def output_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, (ast.FuncCall, ast.WindowFunc)):
        return expr.name
    return "?column?"


# Scalar-function signatures: (min arity, max arity or None, arg rule,
# result rule). Rules are small tags interpreted by ``_check_scalar``.
_SCALAR_SIGS = {
    "floor": (1, 1, "numeric", INT),
    "ceil": (1, 1, "numeric", INT),
    "ceiling": (1, 1, "numeric", INT),
    "abs": (1, 1, "numeric", "arg"),
    "sqrt": (1, 1, "numeric", FLOAT),
    "power": (2, 2, "numeric", FLOAT),
    "mod": (2, 2, "numeric", "arg"),
    "round": (1, 2, "numeric", "arg"),
    "coalesce": (1, None, "any", "unify"),
    "least": (1, None, "any", "unify"),
    "greatest": (1, None, "any", "unify"),
    "cardinality": (1, 1, "array", INT),
    "array_length": (1, 2, "array-first", INT),
    "lower": (1, 1, "text", TEXT),
    "upper": (1, 1, "text", TEXT),
    "length": (1, 1, "text", INT),
}


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------
class Analyzer:
    """One-shot binding and checking of a parsed statement against a catalog."""

    def __init__(self, catalog, sql: str | None = None):
        self.catalog = catalog
        self.sql = sql
        self.sink = DiagnosticSink()
        # When a relation failed to resolve, its scope fragment is unknown;
        # suppress unknown-column cascades while > 0.
        self._poison = 0
        #: repr of a bound aggregate call -> its type (``__agg_j`` columns)
        self._agg_types: dict = {}

    # -- entry points ------------------------------------------------------
    def analyze(self, stmt) -> Analysis:
        output: list[tuple[str, object]] = []
        bound = stmt  # DDL / VACUUM: nothing to bind
        if isinstance(stmt, ast.Explain):
            return self.analyze(stmt.statement)
        if isinstance(stmt, ast.Query):
            bound = self._query(stmt, {})
            output = bound.columns
        elif isinstance(stmt, ast.CreateTable):
            self._create(stmt)
        elif isinstance(stmt, ast.DropTable):
            if not stmt.if_exists and not self.catalog.has(stmt.name):
                self._unknown_table(stmt.name, stmt)
        elif isinstance(stmt, ast.Insert):
            bound = self._insert(stmt)
        elif isinstance(stmt, ast.Delete):
            bound = self._delete(stmt)
        elif isinstance(stmt, ast.Update):
            bound = self._update(stmt)
        elif isinstance(stmt, ast.Vacuum):
            if not self.catalog.has(stmt.table):
                self._unknown_table(stmt.table, stmt)
        return Analysis(
            sql=self.sql,
            diagnostics=self.sink.items,
            output=output,
            bound=bound,
        )

    # -- diagnostics helpers ----------------------------------------------
    def _unknown_table(self, name: str, node) -> None:
        self.sink.error("SEM001", f'relation "{name}" does not exist', node)

    # -- statements --------------------------------------------------------
    def _create(self, stmt: ast.CreateTable) -> None:
        if self.catalog.has(stmt.name) and not stmt.if_not_exists:
            self.sink.error(
                "SEM006", f'relation "{stmt.name}" already exists', stmt
            )
        names = []
        for col in stmt.columns:
            if col.name in names:
                self.sink.error(
                    "SEM006",
                    f'duplicate column "{col.name}" in table "{stmt.name}"',
                    col,
                )
            names.append(col.name)
            try:
                type_from_name(col.type_name)
            except Exception:
                self.sink.error(
                    "TYP002", f'unknown type name "{col.type_name}"', col
                )
        for pk_col in stmt.primary_key:
            if pk_col not in names:
                self.sink.error(
                    "SEM006",
                    f'primary key column "{pk_col}" is not a column of '
                    f'"{stmt.name}"',
                    stmt,
                )

    def _table_columns(self, name: str, node):
        """``[(column, type)]`` of a DML target table, or None if unknown."""
        if not self.catalog.has(name):
            self._unknown_table(name, node)
            return None
        return [
            (col.name, type_of_tag(col.type_tag))
            for col in self.catalog.get(name).schema.columns
        ]

    def _delete(self, stmt: ast.Delete):
        columns = self._table_columns(stmt.table, stmt)
        if columns is None:
            return None
        return self._where(BoundWrite(stmt, columns))

    def _where(self, write: "BoundWrite") -> "BoundWrite":
        """Bind the WHERE clause of a DELETE / UPDATE against its table."""
        stmt = write.node
        if stmt.where is not None:
            scope = [(stmt.table, name, ty) for name, ty in write.columns]
            write.where = self._bind(stmt.where, scope)
            for conj in flatten_and(write.where):
                self._no_aggregates(conj, "WHERE")
                self._infer(conj, allow_agg=True)
        return write

    def _target_slots(self, stmt, columns, names):
        """Slot and type of each named target column (SEM002 if absent)."""
        by_name = {name: (i, ty) for i, (name, ty) in enumerate(columns)}
        slots = []
        for name in names:
            if name not in by_name:
                self.sink.error(
                    "SEM002",
                    f'column "{name}" of relation "{stmt.table}" '
                    "does not exist",
                    stmt,
                )
            slots.append(by_name.get(name, (None, UNKNOWN)))
        return slots

    def _update(self, stmt: ast.Update):
        columns = self._table_columns(stmt.table, stmt)
        if columns is None:
            return None
        scope = [(stmt.table, name, ty) for name, ty in columns]
        write = BoundWrite(stmt, columns)
        slots = self._target_slots(
            stmt, columns, [column for column, _ in stmt.assignments]
        )
        for (column, value), (slot, want) in zip(stmt.assignments, slots):
            if slot is None:
                continue
            self._no_aggregates(value, "UPDATE SET")
            bound, ty = self._check(value, scope, allow_agg=True)
            if unify(ty, want) is None:
                self.sink.error(
                    "TYP003",
                    f'cannot assign {type_name(ty)} to column "{column}" '
                    f"({type_name(want)})",
                    value,
                )
            write.positions.append(slot)
            write.values.append(bound)
        return self._where(write)

    def _insert(self, stmt: ast.Insert):
        columns = self._table_columns(stmt.table, stmt)
        if columns is None:
            return None
        write = BoundWrite(stmt, columns)
        slots = self._target_slots(
            stmt, columns, stmt.columns or [name for name, _ in columns]
        )
        write.positions = [slot for slot, _ in slots]
        targets = [ty for _, ty in slots]
        if stmt.select is not None:
            write.select = self._query(stmt.select, {})
            output = write.select.columns
            if len(output) != len(targets):
                self.sink.error(
                    "SEM005",
                    f"INSERT expects {len(targets)} values, "
                    f"got {len(output)}",
                    stmt,
                )
            else:
                for (name, ty), want in zip(output, targets):
                    if unify(ty, want) is None:
                        self.sink.error(
                            "TYP003",
                            f'INSERT column "{name}" has type '
                            f"{type_name(ty)}, expected {type_name(want)}",
                            stmt,
                        )
            return write
        for row in stmt.rows:
            if len(row) != len(targets):
                self.sink.error(
                    "SEM005",
                    f"INSERT expects {len(targets)} values, got {len(row)}",
                    row[0] if row else stmt,
                )
                continue
            bound_row = []
            for value, want in zip(row, targets):
                self._no_aggregates(value, "INSERT")
                bound, ty = self._check(value, [], allow_agg=True)  # constants
                if unify(ty, want) is None:
                    self.sink.error(
                        "TYP003",
                        f"INSERT value has type {type_name(ty)}, "
                        f"expected {type_name(want)}",
                        value,
                    )
                bound_row.append(bound)
            write.values.append(bound_row)
        return write

    # -- queries -----------------------------------------------------------
    def _query(self, query: ast.Query, env: dict) -> BoundQuery:
        """Bind a query. *env* maps each visible CTE name to its columns."""
        env = dict(env)
        ctes = []
        for name, cte_query in query.ctes:
            ctes.append((name, self._query(cte_query, env)))
            env[name] = ctes[-1][1].columns

        if len(query.cores) == 1 and isinstance(query.cores[0], ast.SelectCore):
            core, order_by, limit, offset = self._core(query, query.cores[0], env)
            return BoundQuery(
                ctes, [core], (), core.columns, order_by, limit, offset, query
            )

        parts = []
        for core in query.cores:
            if isinstance(core, ast.Query):
                parts.append(self._query(core, env))
            else:
                parts.append(self._core(ast.Query(cores=(core,)), core, env)[0])
        outputs = [part.columns for part in parts]
        width = len(outputs[0])
        merged = list(outputs[0])
        for op, part in zip(query.set_ops, outputs[1:]):
            if len(part) != width:
                self.sink.error(
                    "TYP004",
                    f"{op} operands have different column counts "
                    f"({width} vs {len(part)})",
                    query,
                )
                continue
            for i, ((name, a), (_, b)) in enumerate(zip(merged, part)):
                ty = unify(a, b)
                if ty is None:
                    self.sink.error(
                        "TYP005",
                        f'{op} column {i + 1} ("{name}") has incompatible '
                        f"types {type_name(a)} and {type_name(b)}",
                        query,
                    )
                    ty = UNKNOWN
                merged[i] = (name, ty)
        out_scope = [(None, name, ty) for name, ty in merged]
        order_exprs: list = []
        order_by = [
            (
                self._set_op_order_key(item, merged, out_scope, order_exprs),
                item.descending,
            )
            for item in query.order_by
        ]
        limit, offset = self._limit_offset(query)
        return BoundQuery(
            ctes, parts, query.set_ops, merged, order_by, limit, offset, query,
            order_exprs,
        )

    def _position(self, expr, width: int):
        """``ORDER BY <n>``: the 0-based output column, else None."""
        if not (isinstance(expr, ast.Literal) and isinstance(expr.value, int)):
            return None
        if not 1 <= expr.value <= width:
            self.sink.error(
                "SEM005",
                f"ORDER BY position {expr.value} is out of range "
                f"(select list has {width} items)",
                expr,
            )
        return expr.value - 1

    def _set_op_order_key(self, item, output, out_scope, order_exprs):
        """The position of one set-operation sort key: an output column, or
        an expression over the output row appended to *order_exprs*."""
        position = self._position(item.expr, len(output))
        if position is not None:
            return position
        self._no_aggregates(item.expr, "ORDER BY")
        key = self._check(item.expr, out_scope, allow_agg=True)[0]
        names = [name for name, _ in output]
        if isinstance(key, ast.BoundRef) and key.column in names:
            return names.index(key.column)
        if key not in order_exprs:
            order_exprs.append(key)
        return len(output) + order_exprs.index(key)

    def _limit_offset(self, query: ast.Query):
        bound = []
        for label, expr in (("LIMIT", query.limit), ("OFFSET", query.offset)):
            if expr is None:
                bound.append(None)
                continue
            self._no_aggregates(expr, label)
            value, literal = expr, False
            if isinstance(value, ast.UnaryOp) and value.op == "-":
                # fold LIMIT -1 (parsed as a unary minus over a literal)
                if isinstance(value.operand, ast.Literal) and isinstance(
                    value.operand.value, (int, float)
                ):
                    value, literal = ast.Literal(-value.operand.value), True
            if isinstance(value, ast.Literal):
                value, literal = value.value, True
            if literal:
                bad = not isinstance(value, int) or isinstance(value, bool)
                if bad or value < 0:
                    self.sink.error(
                        "TYP006",
                        f"{label} must be a non-negative integer, "
                        f"got {value!r}",
                        expr,
                    )
                bound.append(expr)
                continue
            # Runtime evaluates LIMIT/OFFSET against an empty row, so any
            # column reference in it cannot resolve.
            bound.append(self._check(expr, [], allow_agg=True)[0])
        return bound

    # -- one SELECT core ---------------------------------------------------
    def _core(self, query, core: ast.SelectCore, env):
        """Bind one core and, when it is the query's only one, the query's
        ORDER BY / LIMIT / OFFSET (they see the core's scope):
        ``(BoundCore, order_by, limit, offset)``."""
        sources, scope, poisoned = self._from(core.from_items, env)
        if poisoned:
            self._poison += 1
        try:
            return self._core_body(query, core, sources, scope)
        finally:
            if poisoned:
                self._poison -= 1

    def _core_body(self, query, core, sources, scope):
        where = []
        for conj in flatten_and(core.where):
            self._no_aggregates(conj, "WHERE")
            self._no_srf(conj)
            where.append(
                self._check(conj, scope, allow_agg=True, allow_srf=True)[0]
            )

        # Select list: expand stars, bind, and type the SRF / window items
        # (plain items are typed below, once ``grouped`` is known).
        items: list[BoundItem] = []
        for i, item in enumerate(self._expand_stars(core.items, scope)):
            expr = self._bind(item.expr, scope)
            name = output_name(item)
            agg, srf = _first_calls(expr)
            if srf is not None:
                ty = self._srf_item(expr)
                ref = ast.BoundRef(None, f"__srf_{i}", ty)
                items.append(BoundItem(expr, name, ty, SRF, ref))
            elif isinstance(expr, ast.WindowFunc):
                ty = self._window_item(expr)
                ref = ast.BoundRef(None, f"__win_{i}", ty)
                items.append(BoundItem(expr, name, ty, WINDOW, ref))
            else:
                kind = AGG if agg is not None else PLAIN
                items.append(BoundItem(expr, name, UNKNOWN, kind))

        grouped = (
            bool(core.group_by)
            or core.having is not None
            or any(it.kind == AGG for it in items)
        )

        # GROUP BY keys: a bare name is an input column first, then a select
        # alias (standing for that item's value).
        group_by = []
        for expr in core.group_by:
            self._no_aggregates(expr, "GROUP BY")
            self._no_srf(expr)
            alias = None
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and not any(name == expr.name for _, name, _ in scope)
            ):
                alias = next((it for it in items if it.name == expr.name), None)
            if alias is None:
                key = typed = self._bind(expr, scope)
            else:
                # The item itself must be aggregate-free to be a group key.
                key, typed = alias.value, alias.expr
                self._no_aggregates(typed, "GROUP BY")
            self._infer(typed, allow_agg=True, allow_srf=True)
            group_by.append(key)
        group_exprs = group_by
        if any(contains_aggregate(g) for g in group_by):
            # The keys themselves are invalid (AGG001 above) — ungrouped-
            # column checks against them would only produce noise.
            group_exprs = None

        for item in items:
            if item.kind in (PLAIN, AGG):
                item.type = self._infer(item.expr, allow_agg=grouped)
                if grouped:
                    self._check_grouped(item.expr, group_exprs, "select list")

        having = None
        if core.having is not None:
            self._no_srf(core.having)
            having, _ = self._check(
                core.having, scope, allow_agg=True, allow_srf=True
            )
            self._check_grouped(having, group_exprs, "HAVING")

        order_by, limit, offset = [], None, None
        if len(query.cores) == 1:
            width = len(items)
            order_by = [
                (
                    self._order_key(
                        item.expr, scope, items, width, grouped, group_exprs,
                        core.distinct,
                    ),
                    item.descending,
                )
                for item in query.order_by
            ]
            limit, offset = self._limit_offset(query)

        # Aggregates are columns: above the grouping, an aggregate call is
        # the column ``__agg_j`` of its slot in ``aggs``.
        aggs: dict = {}  # repr(call) -> call, in slot order
        for item in items:
            if item.kind == AGG:
                item.value = self._agg_columns(item.expr, aggs)
        if having is not None:
            having = self._agg_columns(having, aggs)
        bound = BoundCore(
            sources, where, items, grouped, group_by, list(aggs.values()),
            having, core.distinct, core,
        )
        return bound, order_by, limit, offset

    def _agg_columns(self, expr, aggs: dict):
        """*expr* with each aggregate call replaced by its column; a call
        not yet in *aggs* takes the next slot. Two calls are one when they
        are written alike: ``repr`` tells ``1`` from ``1.0`` and ``TRUE``,
        which ``==`` does not."""

        def column(node):
            if not (isinstance(node, ast.FuncCall) and node.name in AGGREGATES):
                return node
            key = repr(node)
            aggs.setdefault(key, node)
            return ast.BoundRef(
                None,
                f"__agg_{list(aggs).index(key)}",
                self._agg_types.get(key, UNKNOWN),
            )

        return ast.rewrite(expr, column)

    def _order_key(
        self, expr, scope, items, width, grouped, group_exprs, distinct
    ):
        """The position in *items* of one ORDER BY key of a single-core
        query. The first *width* items are the select list; a key that is
        none of them is appended as a hidden item.

        A bare name is an *output* name first, then an input column; a
        qualified name or a larger expression sees input columns only. Any
        key equal to a select item sorts on that item's computed value."""
        position = self._position(expr, width)
        if position is not None:
            return position
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            named = [i for i, it in enumerate(items) if it.name == expr.name]
            if named:
                first = items[named[0]].value
                if any(items[i].value != first for i in named[1:]):
                    self.sink.error(
                        "SEM003", f'ORDER BY "{expr.name}" is ambiguous', expr
                    )
                return named[0]
        self._no_srf(expr)
        key, ty = self._check(
            expr, scope, allow_agg=grouped, ctx="ORDER BY", allow_srf=True
        )
        if grouped:
            self._check_grouped(key, group_exprs, "ORDER BY")
        for i, item in enumerate(items):
            if item.expr == key:
                return i
        if distinct:
            # Which duplicate's key would order the one surviving row?
            self.sink.error(
                "SEM005",
                "for SELECT DISTINCT, ORDER BY expressions must appear in "
                "the select list",
                expr,
            )
        kind = AGG if contains_aggregate(key) else PLAIN
        items.append(BoundItem(key, None, ty, kind, hidden=True))
        return len(items) - 1

    # -- select-list special forms ----------------------------------------
    def _srf_item(self, expr):
        """UNNEST select item: must be the whole expression, arg an array."""
        if not (isinstance(expr, ast.FuncCall) and expr.name in SET_RETURNING):
            self.sink.error(
                "SRF001",
                "UNNEST must be the whole select expression in minidb",
                expr,
            )
            # Still type the inner expressions for follow-on diagnostics.
            self._infer(expr, allow_srf=True)
            return UNKNOWN
        if len(expr.args) != 1:
            self.sink.error("SRF001", "UNNEST takes exactly one argument", expr)
            for arg in expr.args:
                self._infer(arg)
            return UNKNOWN
        arg_ty = self._infer(expr.args[0])
        if not _maybe_array(arg_ty):
            self.sink.error(
                "TYP001",
                f"UNNEST expects an array, got {type_name(arg_ty)}",
                expr.args[0],
            )
            return UNKNOWN
        return arg_ty[1] if is_array(arg_ty) else UNKNOWN

    def _window_item(self, expr: ast.WindowFunc):
        if expr.name != "row_number":
            self.sink.error(
                "WIN002", f"unsupported window function {expr.name!r}", expr
            )
        for part in expr.partition_by:
            self._no_aggregates(part, "OVER (PARTITION BY)")
            self._infer(part, allow_agg=True)
        for item in expr.order_by:
            self._no_aggregates(item.expr, "OVER (ORDER BY)")
            self._infer(item.expr, allow_agg=True)
        return INT

    def _expand_stars(self, items, scope):
        out = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                out.append(item)
                continue
            table = item.expr.table
            matched = False
            for qual, name, _ in scope:
                if table is None or qual == table:
                    col = ast.ColumnRef(qual, name, span=item.expr.span)
                    out.append(ast.SelectItem(col, alias=name))
                    matched = True
            if not matched and not self._poison:
                self.sink.error(
                    "SEM002", f"no columns match {table or ''}.*", item.expr
                )
        return out

    # -- aggregate / SRF placement ----------------------------------------
    def _no_aggregates(self, expr, where: str) -> None:
        node = _first_calls(expr)[0]
        if node is not None:
            self.sink.error(
                "AGG001",
                f"aggregate {node.name}() is not allowed in {where}",
                node,
            )

    def _no_srf(self, expr) -> None:
        node = _first_calls(expr)[1]
        if node is not None:
            self.sink.error(
                "SRF001",
                "UNNEST is only allowed as a top-level select item",
                node,
            )

    def _check_grouped(self, expr, group_exprs, where: str) -> None:
        """AGG003: in a grouped query, bare columns must be group keys."""
        if group_exprs is None:  # keys invalid; cascade suppressed
            return
        if any(expr == g for g in group_exprs):
            return
        if isinstance(expr, (ast.Literal, ast.Param)):
            return
        if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATES:
            return
        if isinstance(expr, ast.WindowFunc):
            return  # windows are computed before grouping
        if isinstance(expr, ast.BoundRef):
            self.sink.error(
                "AGG003",
                f'column "{expr.column}" must appear in GROUP BY or be used '
                f"in an aggregate function ({where})",
                expr,
            )
            return
        for child in ast.children(expr):
            self._check_grouped(child, group_exprs, where)

    # -- expressions: bind, then type ---------------------------------------
    def _bind(self, expr, scope):
        """*expr* with every ColumnRef resolved to a BoundRef."""
        return ast.rewrite(
            expr,
            lambda node: self._resolve(node, scope)
            if isinstance(node, ast.ColumnRef)
            else node,
        )

    def _check(self, expr, scope, **context):
        """Bind *expr* against *scope* and type it: ``(bound, type)``."""
        bound = self._bind(expr, scope)
        return bound, self._infer(bound, **context)

    # -- expression typing ---------------------------------------------------
    def _infer(
        self,
        expr,
        allow_agg: bool = False,
        ctx: str = "expression",
        in_agg: bool = False,
        allow_srf: bool = False,
    ):
        recur = lambda e, **kw: self._infer(  # noqa: E731
            e,
            allow_agg=allow_agg,
            ctx=ctx,
            in_agg=in_agg,
            allow_srf=allow_srf,
            **kw,
        )
        if isinstance(expr, ast.Literal):
            value = expr.value
            if value is None:
                return NULL
            if isinstance(value, bool):
                return BOOL
            if isinstance(value, int):
                return INT
            if isinstance(value, float):
                return FLOAT
            return TEXT
        if isinstance(expr, ast.Param):
            return UNKNOWN
        if isinstance(expr, ast.BoundRef):
            return expr.type
        if isinstance(expr, ast.BinaryOp):
            left = recur(expr.left)
            right = recur(expr.right)
            return self._binary(expr, left, right)
        if isinstance(expr, ast.UnaryOp):
            ty = recur(expr.operand)
            if expr.op == "-":
                if not _maybe_numeric(ty):
                    self.sink.error(
                        "TYP003",
                        f"cannot negate {type_name(ty)}",
                        expr,
                    )
                return ty if ty in (INT, FLOAT) else UNKNOWN
            return BOOL  # NOT
        if isinstance(expr, ast.IsNull):
            recur(expr.operand)
            return BOOL
        if isinstance(expr, ast.InList):
            operand = recur(expr.operand)
            for it in expr.items:
                ty = recur(it)
                if not _comparable(operand, ty):
                    self.sink.error(
                        "TYP003",
                        f"IN list item of type {type_name(ty)} is not "
                        f"comparable with {type_name(operand)}",
                        it,
                    )
            return BOOL
        if isinstance(expr, ast.FuncCall):
            return self._func(expr, allow_agg, ctx, in_agg, allow_srf)
        if isinstance(expr, ast.WindowFunc):
            self.sink.error(
                "WIN001",
                "window functions are only allowed as top-level select items",
                expr,
            )
            return INT
        if isinstance(expr, ast.ArraySlice):
            base = recur(expr.base)
            if not _maybe_array(base):
                self.sink.error(
                    "TYP001",
                    f"cannot slice value of type {type_name(base)} "
                    "(array expected)",
                    expr,
                )
                base = UNKNOWN
            for bound in (expr.low, expr.high):
                if bound is None:
                    continue
                ty = recur(bound)
                if ty not in (INT, NULL, UNKNOWN):
                    self.sink.error(
                        "TYP003",
                        f"array slice bound must be an integer, "
                        f"got {type_name(ty)}",
                        bound,
                    )
            return base if is_array(base) else UNKNOWN
        if isinstance(expr, ast.ArrayIndex):
            base = recur(expr.base)
            idx = recur(expr.index)
            if not _maybe_array(base):
                self.sink.error(
                    "TYP001",
                    f"cannot subscript value of type {type_name(base)} "
                    "(array expected)",
                    expr,
                )
                return UNKNOWN
            if idx not in (INT, NULL, UNKNOWN):
                self.sink.error(
                    "TYP003",
                    f"array subscript must be an integer, got {type_name(idx)}",
                    expr.index,
                )
            return base[1] if is_array(base) else UNKNOWN
        if isinstance(expr, ast.ArrayLiteral):
            elem = NULL
            for it in expr.items:
                ty = recur(it)
                merged = unify(elem, ty)
                if merged is None:
                    self.sink.error(
                        "TYP003",
                        f"mixed element types in ARRAY[...]: "
                        f"{type_name(elem)} and {type_name(ty)}",
                        it,
                    )
                    merged = UNKNOWN
                elem = merged
            return ("array", elem)
        if isinstance(expr, ast.CaseExpr):
            result = NULL
            for cond, branch in expr.whens:
                recur(cond)
                ty = recur(branch)
                merged = unify(result, ty)
                result = merged if merged is not None else UNKNOWN
            if expr.default is not None:
                ty = recur(expr.default)
                merged = unify(result, ty)
                result = merged if merged is not None else UNKNOWN
            return result
        if isinstance(expr, ast.Star):
            self.sink.error(
                "SEM005", "* is only allowed in the select list", expr
            )
            return UNKNOWN
        return UNKNOWN

    def _binary(self, expr: ast.BinaryOp, left, right):
        op = expr.op
        if op in ("AND", "OR"):
            for side, ty in ((expr.left, left), (expr.right, right)):
                if is_array(ty) or ty == TEXT:
                    self.sink.error(
                        "TYP003",
                        f"argument of {op} must be boolean, "
                        f"got {type_name(ty)}",
                        side,
                    )
            return BOOL
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if not _comparable(left, right):
                self.sink.error(
                    "TYP003",
                    f"cannot compare {type_name(left)} with "
                    f"{type_name(right)} using {op}",
                    expr,
                )
            return BOOL
        if op == "||":
            if is_array(left) or is_array(right):
                arr = left if is_array(left) else right
                return arr
            return TEXT
        # + - * / %
        for side, ty in ((expr.left, left), (expr.right, right)):
            if not _maybe_numeric(ty):
                self.sink.error(
                    "TYP003",
                    f"operator {op} expects numeric operands, "
                    f"got {type_name(ty)}",
                    side,
                )
                return UNKNOWN
        if left == FLOAT or right == FLOAT:
            return FLOAT
        if left == INT and right == INT:
            return INT
        return UNKNOWN

    def _func(self, expr, allow_agg, ctx, in_agg, allow_srf):
        name = expr.name
        if name in SET_RETURNING:
            if not allow_srf:
                self.sink.error(
                    "SRF001",
                    "UNNEST is only allowed as a top-level select item",
                    expr,
                )
            for arg in expr.args:
                self._infer(arg)
            return UNKNOWN
        if name in AGGREGATES:
            ty = self._aggregate(expr, allow_agg, ctx, in_agg)
            self._agg_types[repr(expr)] = ty
            return ty
        if name not in SCALAR_FUNCTIONS:
            self.sink.error("SEM004", f"unknown function {name!r}", expr)
            for arg in expr.args:
                self._infer(arg, allow_agg=allow_agg, in_agg=in_agg)
            return UNKNOWN
        arg_types = [
            self._infer(arg, allow_agg=allow_agg, ctx=ctx, in_agg=in_agg)
            for arg in expr.args
        ]
        return self._check_scalar(expr, arg_types)

    def _check_scalar(self, expr, arg_types):
        lo, hi, arg_rule, result = _SCALAR_SIGS[expr.name]
        n = len(arg_types)
        if n < lo or (hi is not None and n > hi):
            want = str(lo) if hi == lo else f"{lo}..{hi or 'n'}"
            self.sink.error(
                "TYP002",
                f"{expr.name}() takes {want} argument(s), got {n}",
                expr,
            )
            return UNKNOWN
        check = arg_types if arg_rule != "array-first" else arg_types[:1]
        for i, ty in enumerate(check):
            if arg_rule == "numeric" and not _maybe_numeric(ty):
                self.sink.error(
                    "TYP002",
                    f"{expr.name}() expects numeric arguments, "
                    f"got {type_name(ty)}",
                    expr.args[i] if i < len(expr.args) else expr,
                )
            elif arg_rule in ("array", "array-first") and not _maybe_array(ty):
                self.sink.error(
                    "TYP002",
                    f"{expr.name}() expects an array, got {type_name(ty)}",
                    expr.args[i] if i < len(expr.args) else expr,
                )
            elif arg_rule == "text" and ty not in (TEXT, NULL, UNKNOWN):
                self.sink.error(
                    "TYP002",
                    f"{expr.name}() expects text, got {type_name(ty)}",
                    expr.args[i] if i < len(expr.args) else expr,
                )
        if result == "arg":
            return arg_types[0] if arg_types else UNKNOWN
        if result == "unify":
            out = NULL
            for ty in arg_types:
                merged = unify(out, ty)
                out = merged if merged is not None else UNKNOWN
            return out
        return result

    def _aggregate(self, expr, allow_agg, ctx, in_agg):
        if in_agg:
            self.sink.error(
                "AGG002",
                f"aggregate {expr.name}() cannot be nested inside "
                "another aggregate",
                expr,
            )
        elif not allow_agg:
            self.sink.error(
                "AGG001",
                f"aggregate {expr.name}() used outside of aggregation "
                "context",
                expr,
            )
        if expr.star:
            if expr.name != "count":
                self.sink.error(
                    "SEM005", f"{expr.name}(*) is not valid", expr
                )
            return INT
        if len(expr.args) != 1:
            self.sink.error(
                "SEM005",
                f"{expr.name}() takes exactly one argument",
                expr,
            )
            for arg in expr.args:
                self._infer(arg, in_agg=True)
            return UNKNOWN
        arg_ty = self._infer(expr.args[0], in_agg=True)
        for item in expr.agg_order_by:
            self._infer(item.expr, in_agg=True)
        name = expr.name
        if name in ("sum", "avg"):
            if not _maybe_numeric(arg_ty):
                self.sink.error(
                    "TYP002",
                    f"{name}() expects numeric input, got {type_name(arg_ty)}",
                    expr.args[0],
                )
            return FLOAT if name == "avg" else arg_ty
        if name == "count":
            return INT
        if name == "array_agg":
            return ("array", arg_ty if arg_ty != NULL else UNKNOWN)
        if name in ("bool_and", "bool_or"):
            if arg_ty not in (BOOL, NULL, UNKNOWN):
                self.sink.error(
                    "TYP002",
                    f"{name}() expects boolean input, got {type_name(arg_ty)}",
                    expr.args[0],
                )
            return BOOL
        return arg_ty  # min / max keep the input type (arrays included)

    # -- name resolution --------------------------------------------------
    def _resolve(self, ref: ast.ColumnRef, scope) -> ast.BoundRef:
        matches = [
            (qual, ty)
            for qual, name, ty in scope
            if name == ref.name and (ref.table is None or qual == ref.table)
        ]
        source, ty = matches[0] if len(matches) == 1 else (ref.table, UNKNOWN)
        if not matches:
            if not self._poison:
                label = f"{ref.table}.{ref.name}" if ref.table else ref.name
                self.sink.error(
                    "SEM002", f'column "{label}" does not exist', ref
                )
        elif len(matches) > 1:
            self.sink.error(
                "SEM003", f"ambiguous column reference {ref.name!r}", ref
            )
        return ast.BoundRef(
            source, ref.name, ty, ref.table is not None, span=ref.span
        )

    # -- FROM clause (sources and scope) -------------------------------------
    def _from(self, from_items, env):
        """Bind the FROM clause in syntactic source order:
        ``(sources, scope, poisoned)``. The scope lists every visible
        ``(source, column, type)``; an ON conjunct sees the sources up to
        and including the one it joins."""
        flat: list = []
        for item in from_items:
            self._flatten_joins(item, flat)
        sources, scope, poisoned = [], [], False
        for item, on_conjuncts in flat:
            source = self._load(item, env)
            if source is None:
                poisoned = True
            else:
                sources.append(source)
                scope = scope + [
                    (source.alias, name, ty) for name, ty in source.columns
                ]
            for conj in on_conjuncts:
                self._no_aggregates(conj, "JOIN ON")
                bound, _ = self._check(conj, scope, allow_agg=True)
                if source is not None:
                    source.on.append(bound)
        return sources, scope, poisoned

    def _flatten_joins(self, item, out, on_conjuncts=()):
        if isinstance(item, ast.Join):
            self._flatten_joins(item.left, out)
            self._flatten_joins(item.right, out, flatten_and(item.condition))
            return
        out.append((item, on_conjuncts))

    def _load(self, item, env) -> "BoundSource | None":
        """The bound source for one relation; None if it does not exist."""
        if isinstance(item, ast.SubqueryRef):
            query = self._query(item.query, env)
            return BoundSource(
                item.alias, "subquery", item.alias, query.columns, [], item, query
            )
        alias = item.alias or item.name
        if item.name in env:
            return BoundSource(alias, "cte", item.name, env[item.name], [], item)
        columns = self._table_columns(item.name, item)
        if columns is None:
            return None
        return BoundSource(alias, "table", item.name, columns, [], item)


# ---------------------------------------------------------------------------
# Plan-derived access paths
# ---------------------------------------------------------------------------
def _paths_from_plan(plan) -> list[AccessPath]:
    """Read access paths off a physical plan tree, in plan order (CTEs in
    definition order first, then join-tree load order)."""
    from repro.minidb.sql import plan as phys

    paths: list[AccessPath] = []

    def visit_query(qp) -> None:
        for _name, sub in qp.ctes:
            visit_query(sub)
        visit(qp.root)

    def visit(node) -> None:
        if isinstance(node, phys.QueryPlan):
            visit_query(node)
            return
        if isinstance(node, phys.ExplainPlan):
            visit(node.inner.statement)
            return
        if isinstance(node, phys.SubqueryScan):
            visit_query(node.subplan)
            paths.append(
                AccessPath(
                    node.alias, node.alias, SUBQUERY,
                    span=Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, phys.CteScan):
            paths.append(
                AccessPath(
                    node.cte_name, node.alias, CTE_SCAN,
                    span=Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, phys.PkLookup):
            paths.append(
                AccessPath(
                    node.table,
                    node.alias,
                    PK_POINT,
                    f"pk ({', '.join(node.pk)}) pinned constant",
                    Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, phys.SeqScan):
            paths.append(
                AccessPath(
                    node.table, node.alias, SEQ_SCAN, "",
                    span=Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, phys.IndexNestedLoop):
            visit(node.left)
            paths.append(
                AccessPath(
                    node.table,
                    node.alias,
                    PK_PROBE,
                    f"probed by ({', '.join(node.pk)}) per outer row",
                    Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, (phys.DeletePlan, phys.UpdatePlan)):
            # DELETE / UPDATE always scan the heap (BatchExecutor._matching_rows).
            paths.append(
                AccessPath(
                    node.table, node.table, SEQ_SCAN, "(DML scan)",
                    Span.of(node.ast_ref),
                )
            )
            return
        if isinstance(node, phys.InsertPlan):
            if node.select is not None:
                visit_query(node.select)
            return
        for child in node.children():
            visit(child)

    visit(plan.statement)
    return paths


def _flag_label_scans(analysis: Analysis, paths) -> None:
    """APL001: a full scan on a label table breaks the paper's bounds."""
    from repro.minidb.sql.diagnostics import WARNING

    for path in paths:
        if (
            path.kind == SEQ_SCAN
            and path.detail != "(DML scan)"
            and is_label_table(path.table)
        ):
            analysis.diagnostics.append(
                Diagnostic(
                    "APL001",
                    WARNING,
                    f'full scan on label table "{path.table}" — the paper '
                    "requires PK access on label data",
                    path.span,
                    hint="pin every primary-key column with an equality "
                    "predicate, or join through an already-restricted "
                    "relation",
                )
            )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def analyze(stmt, catalog, sql: str | None = None) -> Analysis:
    """Bind and check a parsed statement against *catalog* and, when it has
    no errors, lower the bound tree to its physical plan.

    The plan is attached as ``analysis.plan`` and the access paths are read
    off it, so the static classification is the executed plan by
    construction. Lowering an accepted statement cannot fail: an exception
    out of it is a bug in the binder, not a user error.
    """
    from repro.minidb.sql.planner import lower

    analysis = Analyzer(catalog, sql=sql).analyze(stmt)
    if analysis.ok:
        analysis.plan = lower(stmt, analysis.bound, catalog)
        paths = _paths_from_plan(analysis.plan)
        analysis.access_paths.extend(paths)
        _flag_label_scans(analysis, paths)
    return analysis


def analyze_sql(sql: str, catalog) -> Analysis:
    """Parse and analyze *sql* (convenience for the linter and tests)."""
    from repro.minidb.sql.parser import parse

    return analyze(parse(sql), catalog, sql=sql)


# ---------------------------------------------------------------------------
# Paper-bound checks (PTLDB, Efentakis EDBT 2016)
# ---------------------------------------------------------------------------
def check_paper_bounds(analysis: Analysis, family: str) -> list[Diagnostic]:
    """Check the paper's access-pattern guarantees for one query family.

    * ``v2v_*`` (Code 1): the query must touch the label tables ``lout`` and
      ``lin`` exactly once each, both as PK point lookups — the "exactly two
      label rows" bound. Violations get ``APL002``. The statement must also
      plan to ``Aggregate`` over a band ``Hash Join`` (``HashJoin.np_band``):
      a planner change that silently sends the label join back to the pair
      kernel is a lint failure, ``APL005``, not a slowdown found later.
    * ``knn_*`` / ``otm_*`` optimized (Codes 3-4): ``lout`` must be a point
      lookup and every non-naive auxiliary table must be reached through its
      primary key (point or per-row probe) — the "at most |hubs(q)| aux
      rows" bound. Violations get ``APL003``.
    * naive families (Code 2) scan their tables by design: no check.
    * ``analytics`` (``repro.ptldb.analytics``): the inverse shape. These
      queries aggregate whole base tables, so their documented (and
      expected) access is a full **sequential scan** of ``connections`` /
      ``trips`` — a PK access would mean the planner silently turned the
      scan-proving workload into a point query — and label tables must not
      appear at all. Violations get ``APL004``.

    Returns the appended diagnostics (also added to ``analysis``).
    """
    out: list[Diagnostic] = []

    def _fail(code: str, message: str) -> None:
        diag = Diagnostic(code, ERROR, message)
        analysis.diagnostics.append(diag)
        out.append(diag)

    label_paths = [
        p
        for p in analysis.access_paths
        if is_label_table(p.table)
    ]
    if family.startswith("v2v"):
        points = [p for p in label_paths if p.kind == PK_POINT]
        offending = [p for p in label_paths if p.kind not in (PK_POINT,)]
        tables = sorted(p.table for p in points)
        if offending or tables != ["lin", "lout"]:
            got = ", ".join(p.describe() for p in label_paths) or "none"
            _fail(
                "APL002",
                f"v2v query must touch exactly two label rows via PK point "
                f"lookups (one on lout, one on lin); got: {got}",
            )
        if analysis.plan is not None:
            root = getattr(analysis.plan.statement, "root", None)
            join = getattr(root, "child", None)
            if getattr(join, "np_band", None) is None:
                _fail(
                    "APL005",
                    "v2v label join must plan to the band-join kernel "
                    "(Aggregate over a band Hash Join); got: "
                    f"{getattr(root, 'label', root)} over "
                    f"{getattr(join, 'label', join)}",
                )
    elif "naive" not in family and (
        family.startswith("knn") or family.startswith("otm")
    ):
        lout = [p for p in label_paths if p.table in ("lout", "lin")]
        if not all(p.kind == PK_POINT for p in lout) or not lout:
            got = ", ".join(p.describe() for p in lout) or "none"
            _fail(
                "APL003",
                f"optimized {family} query must reach the label table via a "
                f"PK point lookup; got: {got}",
            )
        aux = [p for p in label_paths if p.table.startswith(("knn_", "otm_"))]
        bad = [p for p in aux if p.kind not in (PK_POINT, PK_PROBE)]
        if bad or not aux:
            got = ", ".join(p.describe() for p in aux) or "none"
            _fail(
                "APL003",
                f"optimized {family} query must probe its auxiliary table "
                f"by primary key; got: {got}",
            )
    elif family.startswith("analytics"):
        if label_paths:
            got = ", ".join(p.describe() for p in label_paths)
            _fail(
                "APL004",
                f"analytics query must not touch label tables; got: {got}",
            )
        base = [
            p
            for p in analysis.access_paths
            if p.table in ("connections", "trips")
        ]
        bad = [p for p in base if p.kind != SEQ_SCAN]
        if bad or not base:
            got = ", ".join(p.describe() for p in base) or "none"
            _fail(
                "APL004",
                f"analytics query must read its base tables via full "
                f"sequential scans (the scan-shaped access this family "
                f"documents); got: {got}",
            )
    return out
