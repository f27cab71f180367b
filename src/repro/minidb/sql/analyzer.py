"""Static semantic analysis for minidb SQL — runs before execution.

Three passes over a parsed statement, mirroring the executor's runtime
semantics so that anything the analyzer accepts the executor can run, and
anything the executor would reject mid-iteration the analyzer rejects up
front with a source location:

* **Pass 1 — binder.** Resolves every ``TableRef`` against the catalog and
  the CTE environment, and every ``ColumnRef`` against the scope built from
  the ``FROM`` clause (qualifier-aware, ambiguity-checked), exactly like
  the planner's ``_resolve``.
* **Pass 2 — type checker.** Infers a type for every expression over the
  lattice ``int | float | text | bool | null | unknown | (array, elem)``
  and enforces the dialect's semantic rules: array subscripts only on
  arrays, numeric functions on numerics, aggregates neither nested nor in
  ``WHERE``/``GROUP BY``, ``GROUP BY`` validity, ``UNION`` arity and type
  compatibility, window-function and ``UNNEST`` placement.
* **Pass 3 — access paths.** Runs the real planner
  (:func:`repro.minidb.sql.planner.plan_statement`) and reads the access
  paths straight off the physical plan tree: :class:`PkLookup` nodes become
  PK point lookups, :class:`IndexNestedLoop` nodes become per-row probes,
  :class:`SeqScan` nodes full scans — before reading a single page. There
  is no symbolic replay to drift out of sync: the plan that is classified
  is the plan that executes. This is what lets PTLDB's paper bounds ("a
  v2v query touches exactly two label rows") be checked statically; see
  :func:`check_paper_bounds`.

Diagnostics carry stable codes (see ``docs/ANALYZER.md``) and source spans,
and render with a caret excerpt via :meth:`Diagnostic.render`.
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
    AGGREGATE_FUNCTIONS,
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
    #: the physical plan (repro.minidb.sql.plan.Plan) the access paths were
    #: read from; None when analysis failed or planning was impossible
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

    def paths_for(self, table: str) -> list[AccessPath]:
        return [p for p in self.access_paths if p.table == table]

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
# Expression helpers
# ---------------------------------------------------------------------------
def _flatten_and(expr):
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _children(expr):
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, ast.FuncCall):
        return [*expr.args, *(item.expr for item in expr.agg_order_by)]
    if isinstance(expr, ast.WindowFunc):
        return [*expr.partition_by, *(item.expr for item in expr.order_by)]
    if isinstance(expr, ast.ArraySlice):
        return [e for e in (expr.base, expr.low, expr.high) if e is not None]
    if isinstance(expr, ast.ArrayIndex):
        return [expr.base, expr.index]
    if isinstance(expr, ast.ArrayLiteral):
        return list(expr.items)
    if isinstance(expr, ast.CaseExpr):
        out = []
        for cond, result in expr.whens:
            out.extend((cond, result))
        if expr.default is not None:
            out.append(expr.default)
        return out
    return []


def _walk(expr):
    yield expr
    for child in _children(expr):
        yield from _walk(child)


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
        return True
    return any(_contains_aggregate(c) for c in _children(expr))


def _contains_srf(expr) -> bool:
    if isinstance(expr, ast.FuncCall) and expr.name in SET_RETURNING:
        return True
    return any(_contains_srf(c) for c in _children(expr))


def _output_name(item: ast.SelectItem) -> str:
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
    "power": (2, 2, "numeric", UNKNOWN),
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
    """One-shot static analysis of a parsed statement against a catalog."""

    def __init__(self, catalog, sql: str | None = None):
        self.catalog = catalog
        self.sql = sql
        self.sink = DiagnosticSink()
        self.paths: list[AccessPath] = []
        # When a relation failed to resolve, its scope fragment is unknown;
        # suppress unknown-column cascades while > 0.
        self._poison = 0

    # -- entry points ------------------------------------------------------
    def analyze(self, stmt) -> Analysis:
        output: list[tuple[str, object]] = []
        if isinstance(stmt, ast.Explain):
            return self.analyze(stmt.statement)
        if isinstance(stmt, ast.Query):
            output = self._query(stmt, {})
        elif isinstance(stmt, ast.CreateTable):
            self._create(stmt)
        elif isinstance(stmt, ast.DropTable):
            if not stmt.if_exists and not self.catalog.has(stmt.name):
                self._unknown_table(stmt.name, stmt)
        elif isinstance(stmt, ast.Insert):
            self._insert(stmt)
        elif isinstance(stmt, ast.Delete):
            self._dml(stmt.table, stmt, stmt.where)
        elif isinstance(stmt, ast.Update):
            self._update(stmt)
        elif isinstance(stmt, ast.Vacuum):
            if not self.catalog.has(stmt.table):
                self._unknown_table(stmt.table, stmt)
        return Analysis(
            sql=self.sql,
            diagnostics=self.sink.items,
            access_paths=self.paths,
            output=output,
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

    def _table_scope(self, name: str, node):
        """Scope fragment for a DML target table, or None if unknown."""
        if not self.catalog.has(name):
            self._unknown_table(name, node)
            return None
        schema = self.catalog.get(name).schema
        return [
            (name, col.name, type_of_tag(col.type_tag))
            for col in schema.columns
        ]

    def _dml(self, table: str, stmt, where) -> None:
        scope = self._table_scope(table, stmt)
        if scope is None:
            return
        if where is not None:
            for conj in _flatten_and(where):
                self._no_aggregates(conj, "WHERE")
                self._infer(conj, scope, allow_agg=True)

    def _update(self, stmt: ast.Update) -> None:
        scope = self._table_scope(stmt.table, stmt)
        if scope is None:
            return
        by_name = {name: ty for _, name, ty in scope}
        for column, value in stmt.assignments:
            if column not in by_name:
                self.sink.error(
                    "SEM002",
                    f'column "{column}" of relation "{stmt.table}" '
                    "does not exist",
                    stmt,
                )
                continue
            self._no_aggregates(value, "UPDATE SET")
            ty = self._infer(value, scope, allow_agg=True)
            if unify(ty, by_name[column]) is None:
                self.sink.error(
                    "TYP003",
                    f'cannot assign {type_name(ty)} to column "{column}" '
                    f"({type_name(by_name[column])})",
                    value,
                )
        self._dml(stmt.table, stmt, stmt.where)

    def _insert(self, stmt: ast.Insert) -> None:
        scope = self._table_scope(stmt.table, stmt)
        if scope is None:
            return
        by_name = {name: ty for _, name, ty in scope}
        if stmt.columns:
            targets = []
            for col in stmt.columns:
                if col not in by_name:
                    self.sink.error(
                        "SEM002",
                        f'column "{col}" of relation "{stmt.table}" '
                        "does not exist",
                        stmt,
                    )
                    targets.append(UNKNOWN)
                else:
                    targets.append(by_name[col])
        else:
            targets = [ty for _, _, ty in scope]
        if stmt.select is not None:
            output = self._query(stmt.select, {})
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
            return
        for row in stmt.rows:
            if len(row) != len(targets):
                self.sink.error(
                    "SEM005",
                    f"INSERT expects {len(targets)} values, got {len(row)}",
                    row[0] if row else stmt,
                )
                continue
            for value, want in zip(row, targets):
                self._no_aggregates(value, "INSERT")
                ty = self._infer(value, [], allow_agg=True)  # constants only
                if unify(ty, want) is None:
                    self.sink.error(
                        "TYP003",
                        f"INSERT value has type {type_name(ty)}, "
                        f"expected {type_name(want)}",
                        value,
                    )

    # -- queries -----------------------------------------------------------
    def _query(self, query: ast.Query, env: dict) -> list[tuple[str, object]]:
        """Analyze a query; returns its output schema [(name, type), ...]."""
        env = dict(env)
        for name, cte_query in query.ctes:
            env[name] = self._query(cte_query, env)

        if len(query.cores) == 1 and isinstance(query.cores[0], ast.SelectCore):
            return self._core(query, query.cores[0], env)

        parts = []
        for core in query.cores:
            if isinstance(core, ast.Query):
                parts.append(self._query(core, env))
            else:
                parts.append(
                    self._core(ast.Query(cores=(core,)), core, env)
                )
        width = len(parts[0])
        merged = list(parts[0])
        for op, part in zip(query.set_ops, parts[1:]):
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
        for item in query.order_by:
            self._set_op_order_key(item, merged, out_scope)
        self._limit_offset(query)
        return merged

    def _set_op_order_key(self, item, output, out_scope) -> None:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(output):
                self.sink.error(
                    "SEM005",
                    f"ORDER BY position {expr.value} is out of range "
                    f"(select list has {len(output)} items)",
                    expr,
                )
            return
        self._no_aggregates(expr, "ORDER BY")
        self._infer(expr, out_scope, allow_agg=True)

    def _limit_offset(self, query: ast.Query) -> None:
        for label, expr in (("LIMIT", query.limit), ("OFFSET", query.offset)):
            if expr is None:
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
                continue
            # Runtime evaluates LIMIT/OFFSET against an empty row, so any
            # column reference in it cannot resolve.
            self._infer(expr, [], allow_agg=True)

    # -- one SELECT core ---------------------------------------------------
    def _core(self, query, core: ast.SelectCore, env) -> list:
        conjuncts = _flatten_and(core.where)
        scope, poisoned = self._from(core.from_items, env)
        if poisoned:
            self._poison += 1
        try:
            return self._core_body(query, core, scope, conjuncts)
        finally:
            if poisoned:
                self._poison -= 1

    def _core_body(self, query, core, scope, conjuncts) -> list:
        for conj in conjuncts:
            self._no_aggregates(conj, "WHERE")
            self._no_srf(conj)
            self._infer(conj, scope, allow_agg=True, allow_srf=True)

        # Select list: expand stars, then handle SRF / window / plain items.
        items = self._expand_stars(core.items, scope)
        out: list[tuple[str, object]] = []
        plain_exprs = []  # (index, expr) type-checked below
        for item in items:
            name = _output_name(item)
            expr = item.expr
            if _contains_srf(expr):
                out.append(
                    (item.alias or "unnest", self._srf_item(expr, scope))
                )
                continue
            if isinstance(expr, ast.WindowFunc):
                out.append(
                    (item.alias or expr.name, self._window_item(expr, scope))
                )
                continue
            plain_exprs.append((len(out), item))
            out.append((name, UNKNOWN))

        grouped = bool(core.group_by) or any(
            _contains_aggregate(item.expr)
            for item in items
            if not isinstance(item.expr, ast.WindowFunc)
        )

        # GROUP BY keys (may name a select alias, like the executor).
        group_exprs = []
        for expr in core.group_by:
            self._no_aggregates(expr, "GROUP BY")
            self._no_srf(expr)
            target = expr
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and not any(name == expr.name for _, name, _ in scope)
            ):
                for item in items:
                    if _output_name(item) == expr.name:
                        target = item.expr
                        break
            if target is not expr:
                # Alias resolved to a select item: the item itself must be
                # aggregate-free to serve as a group key.
                self._no_aggregates(target, "GROUP BY")
            self._infer(target, scope, allow_agg=True, allow_srf=True)
            group_exprs.append(target)
        if any(_contains_aggregate(g) for g in group_exprs):
            # The keys themselves are invalid (AGG001 above) — ungrouped-
            # column checks against them would only produce noise.
            group_exprs = None

        for out_idx, item in plain_exprs:
            ty = self._infer(item.expr, scope, allow_agg=grouped)
            out[out_idx] = (out[out_idx][0], ty)
            if grouped:
                self._check_grouped(item.expr, group_exprs, "select list")

        if core.having is not None:
            if not grouped:
                self.sink.warning(
                    "AGG004",
                    "HAVING without GROUP BY or aggregates is ignored "
                    "by the executor",
                    core.having,
                )
            self._no_srf(core.having)
            self._infer(core.having, scope, allow_agg=True, allow_srf=True)
            if grouped:
                self._check_grouped(core.having, group_exprs, "HAVING")

        if len(query.cores) == 1:
            for item in query.order_by:
                self._order_key(item, scope, items, out, grouped, group_exprs)
            self._limit_offset(query)
        return out

    def _order_key(self, item, scope, items, out, grouped, group_exprs):
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(out):
                self.sink.error(
                    "SEM005",
                    f"ORDER BY position {expr.value} is out of range "
                    f"(select list has {len(out)} items)",
                    expr,
                )
            return
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            if any(_output_name(it) == expr.name for it in items):
                return  # resolves to an output column
        self._no_srf(expr)
        self._infer(
            expr, scope, allow_agg=grouped, ctx="ORDER BY", allow_srf=True
        )
        if grouped:
            self._check_grouped(expr, group_exprs, "ORDER BY")

    # -- select-list special forms ----------------------------------------
    def _srf_item(self, expr, scope):
        """UNNEST select item: must be the whole expression, arg an array."""
        if not (isinstance(expr, ast.FuncCall) and expr.name in SET_RETURNING):
            self.sink.error(
                "SRF001",
                "UNNEST must be the whole select expression in minidb",
                expr,
            )
            # Still bind inner references for follow-on diagnostics.
            self._infer(expr, scope, allow_srf=True)
            return UNKNOWN
        if len(expr.args) != 1:
            self.sink.error("SRF001", "UNNEST takes exactly one argument", expr)
            for arg in expr.args:
                self._infer(arg, scope)
            return UNKNOWN
        arg_ty = self._infer(expr.args[0], scope)
        if not _maybe_array(arg_ty):
            self.sink.error(
                "TYP001",
                f"UNNEST expects an array, got {type_name(arg_ty)}",
                expr.args[0],
            )
            return UNKNOWN
        return arg_ty[1] if is_array(arg_ty) else UNKNOWN

    def _window_item(self, expr: ast.WindowFunc, scope):
        if expr.name != "row_number":
            self.sink.error(
                "WIN002", f"unsupported window function {expr.name!r}", expr
            )
        for part in expr.partition_by:
            self._no_aggregates(part, "OVER (PARTITION BY)")
            self._infer(part, scope, allow_agg=True)
        for item in expr.order_by:
            self._no_aggregates(item.expr, "OVER (ORDER BY)")
            self._infer(item.expr, scope, allow_agg=True)
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
                    col = ast.ColumnRef(qual, name)
                    if item.expr.span is not None:
                        object.__setattr__(col, "span", item.expr.span)
                    out.append(ast.SelectItem(col, alias=name))
                    matched = True
            if not matched and not self._poison:
                self.sink.error(
                    "SEM002", f"no columns match {table or ''}.*", item.expr
                )
        return out

    # -- aggregate / SRF placement ----------------------------------------
    def _no_aggregates(self, expr, where: str) -> None:
        for node in _walk(expr):
            if (
                isinstance(node, ast.FuncCall)
                and node.name in AGGREGATE_FUNCTIONS
            ):
                self.sink.error(
                    "AGG001",
                    f"aggregate {node.name}() is not allowed in {where}",
                    node,
                )
                return

    def _no_srf(self, expr) -> None:
        for node in _walk(expr):
            if isinstance(node, ast.FuncCall) and node.name in SET_RETURNING:
                self.sink.error(
                    "SRF001",
                    "UNNEST is only allowed as a top-level select item",
                    node,
                )
                return

    def _check_grouped(self, expr, group_exprs, where: str) -> None:
        """AGG003: in a grouped query, bare columns must be group keys."""
        if group_exprs is None:  # keys invalid; cascade suppressed
            return
        if any(expr == g for g in group_exprs):
            return
        if isinstance(expr, (ast.Literal, ast.Param)):
            return
        if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_FUNCTIONS:
            return
        if isinstance(expr, ast.WindowFunc):
            return  # windows are computed before grouping
        if isinstance(expr, ast.ColumnRef):
            self.sink.error(
                "AGG003",
                f'column "{expr.name}" must appear in GROUP BY or be used '
                f"in an aggregate function ({where})",
                expr,
            )
            return
        for child in _children(expr):
            self._check_grouped(child, group_exprs, where)

    # -- expression typing (pass 2) ----------------------------------------
    def _infer(
        self,
        expr,
        scope,
        allow_agg: bool = False,
        ctx: str = "expression",
        in_agg: bool = False,
        allow_srf: bool = False,
    ):
        recur = lambda e, **kw: self._infer(  # noqa: E731
            e,
            scope,
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
        if isinstance(expr, ast.ColumnRef):
            return self._resolve(expr, scope)
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
            return self._func(expr, scope, allow_agg, ctx, in_agg, allow_srf)
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

    def _func(self, expr, scope, allow_agg, ctx, in_agg, allow_srf):
        name = expr.name
        if name in SET_RETURNING:
            if not allow_srf:
                self.sink.error(
                    "SRF001",
                    "UNNEST is only allowed as a top-level select item",
                    expr,
                )
            for arg in expr.args:
                self._infer(arg, scope)
            return UNKNOWN
        if name in AGGREGATE_FUNCTIONS:
            return self._aggregate(expr, scope, allow_agg, ctx, in_agg)
        if name not in SCALAR_FUNCTIONS:
            self.sink.error("SEM004", f"unknown function {name!r}", expr)
            for arg in expr.args:
                self._infer(arg, scope, allow_agg=allow_agg, in_agg=in_agg)
            return UNKNOWN
        arg_types = [
            self._infer(arg, scope, allow_agg=allow_agg, ctx=ctx, in_agg=in_agg)
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

    def _aggregate(self, expr, scope, allow_agg, ctx, in_agg):
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
                self._infer(arg, scope, in_agg=True)
            return UNKNOWN
        arg_ty = self._infer(expr.args[0], scope, in_agg=True)
        for item in expr.agg_order_by:
            self._infer(item.expr, scope, in_agg=True)
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

    # -- name resolution (pass 1) -----------------------------------------
    def _resolve(self, ref: ast.ColumnRef, scope):
        matches = [
            ty
            for qual, name, ty in scope
            if name == ref.name and (ref.table is None or qual == ref.table)
        ]
        if not matches:
            if not self._poison:
                label = f"{ref.table}.{ref.name}" if ref.table else ref.name
                self.sink.error(
                    "SEM002", f'column "{label}" does not exist', ref
                )
            return UNKNOWN
        if len(matches) > 1:
            self.sink.error(
                "SEM003", f"ambiguous column reference {ref.name!r}", ref
            )
            return UNKNOWN
        return matches[0]

    # -- FROM clause (scope building) --------------------------------------
    def _from(self, from_items, env):
        """Build the core's name scope in syntactic source order.

        Access-path classification no longer happens here: the module-level
        :func:`analyze` runs the real planner and reads the paths off the
        plan tree. Returns (scope, poisoned).
        """
        if not from_items:
            return [], False
        sources = []
        for item in from_items:
            self._flatten_joins(item, sources)
        scope: list = []
        poisoned = False
        for item, on_conjuncts in sources:
            frag, bad = self._load(item, env)
            poisoned = poisoned or bad
            scope = scope + frag
            self._bind_on(scope, on_conjuncts)
        return scope, poisoned

    def _flatten_joins(self, item, out, on_conjuncts=None):
        if isinstance(item, ast.Join):
            self._flatten_joins(item.left, out)
            self._flatten_joins(item.right, out, _flatten_and(item.condition))
            return
        out.append((item, on_conjuncts or []))

    def _load(self, item, env):
        """Typed scope fragment for one relation. Returns (frag, poisoned)."""
        if isinstance(item, ast.SubqueryRef):
            output = self._query(item.query, env)
            return [(item.alias, name, ty) for name, ty in output], False
        alias = item.alias or item.name
        if item.name in env:
            return [(alias, name, ty) for name, ty in env[item.name]], False
        if not self.catalog.has(item.name):
            self._unknown_table(item.name, item)
            return [], True
        table = self.catalog.get(item.name)
        frag = [
            (alias, col.name, type_of_tag(col.type_tag))
            for col in table.schema.columns
        ]
        return frag, False

    def _bind_on(self, scope, on_conjuncts) -> None:
        for conj in on_conjuncts:
            self._no_aggregates(conj, "JOIN ON")
            self._infer(conj, scope, allow_agg=True)


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
    """Statically analyze a parsed statement against *catalog*.

    When semantic analysis succeeds, the statement is also lowered by the
    real planner and the physical plan is attached as ``analysis.plan``;
    access paths are read off that plan, so the static classification is
    the executed plan by construction.
    """
    from repro.errors import SQLError
    from repro.minidb.catalog import CatalogError
    from repro.minidb.sql.planner import plan_statement

    analysis = Analyzer(catalog, sql=sql).analyze(stmt)
    if analysis.ok:
        try:
            plan = plan_statement(stmt, catalog)
        except (SQLError, CatalogError):
            plan = None
        if plan is not None:
            analysis.plan = plan
            paths = _paths_from_plan(plan)
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
