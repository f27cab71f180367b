"""Logical-to-physical planner: lowers a parsed statement into a plan tree.

Planning is pure — no pages are read — and produces a
:class:`~repro.minidb.sql.plan.Plan` whose expressions are compiled to
``fn(ctx, params)`` closures with **deferred** parameter binding, so one
plan serves every parameter vector (the prepared-statement contract).

The access-path heuristics implement the three paths PTLDB's claims rest
on, in this order of preference:

* **primary-key pushdown** (:class:`PkLookup`) — conjuncts pinning every PK
  column of a table to a constant or parameter become a single B+Tree
  point lookup ("PTLDB needs to access exactly two rows" per v2v query);
* **index nested-loop join** (:class:`IndexNestedLoop`) — joining a derived
  relation against a base table on its full primary key probes at most one
  row per outer row (the optimized kNN/OTM queries);
* **hash join**, then a nested-loop cross product, for everything else.

Comma joins are reordered derived-first (CTEs and subqueries before base
tables) so the big label-side table ends up on the probed side — this is
what makes ``FROM knn_ea n1bb, n1`` touch only ``|n1|`` rows of ``knn_ea``,
as the paper requires.
"""

from __future__ import annotations

from repro.errors import SQLError, SQLNameError, SQLSyntaxError
from repro.minidb.values import is_array_type
from repro.minidb.sql import ast
from repro.minidb.sql import plan as phys
from repro.minidb.sql.expr import compile_expr, resolve as _resolve
from repro.minidb.sql.functions import SET_RETURNING, is_aggregate
from repro.minidb.sql.printer import render_expr


# ---------------------------------------------------------------------------
# Expression helpers (shared with the executor)
# ---------------------------------------------------------------------------
def _flatten_and(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _contains_aggregate(expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if is_aggregate(expr.name):
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.operand) or any(
            _contains_aggregate(i) for i in expr.items
        )
    if isinstance(expr, (ast.ArraySlice, ast.ArrayIndex)):
        inner = [expr.base]
        if isinstance(expr, ast.ArraySlice):
            inner += [e for e in (expr.low, expr.high) if e is not None]
        else:
            inner.append(expr.index)
        return any(_contains_aggregate(e) for e in inner)
    if isinstance(expr, ast.CaseExpr):
        parts = [e for pair in expr.whens for e in pair]
        if expr.default is not None:
            parts.append(expr.default)
        return any(_contains_aggregate(p) for p in parts)
    if isinstance(expr, ast.ArrayLiteral):
        return any(_contains_aggregate(i) for i in expr.items)
    return False


def _contains_srf(expr) -> bool:
    """Top-level set-returning call only: nested UNNEST is a compile error."""
    if isinstance(expr, ast.FuncCall) and expr.name in SET_RETURNING:
        return True
    return False



# ---------------------------------------------------------------------------
# numpy operand/comparison specs
# ---------------------------------------------------------------------------
# A spec is a small tuple tree the batch executor can evaluate over whole
# column batches (see repro.minidb.sql.npbatch): ("col", i), ("param", i),
# ("const", v), ("neg", spec), ("bin", op, a, b) with op in + - *,
# ("div", a, b), ("floor", spec), ("maxv"/"minv", spec, ...) for
# GREATEST/LEAST, and ("cmp", op, a, b). The division kernel reproduces
# SQL truncation toward zero exactly (numpy floors; the kernel adjusts)
# and refuses zero divisors so division-by-zero errors keep their row-path
# evaluation order. Specs are advisory: a None spec (or a runtime type
# the kernel rejects) falls back to the compiled closure with identical
# results.
_NP_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _np_operand(expr, schema):
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, int) and not isinstance(value, bool):
            return ("const", value)
        return None
    if isinstance(expr, ast.Param):
        return ("param", expr.index - 1)
    if isinstance(expr, ast.ColumnRef):
        try:
            return ("col", _resolve(schema, expr))
        except SQLError:
            return None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _np_operand(expr.operand, schema)
        return None if inner is None else ("neg", inner)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "/"):
        left = _np_operand(expr.left, schema)
        right = _np_operand(expr.right, schema)
        if left is None or right is None:
            return None
        if expr.op == "/":
            return ("div", left, right)
        return ("bin", expr.op, left, right)
    if isinstance(expr, ast.FuncCall):
        name = expr.name.lower()
        if name == "floor" and len(expr.args) == 1:
            inner = _np_operand(expr.args[0], schema)
            return None if inner is None else ("floor", inner)
        if name in ("greatest", "least") and expr.args:
            parts = [_np_operand(arg, schema) for arg in expr.args]
            if any(part is None for part in parts):
                return None
            return ("maxv" if name == "greatest" else "minv", *parts)
    return None


def _np_cmp(conj, schema):
    """Comparison spec for one WHERE conjunct, or None."""
    if isinstance(conj, ast.BinaryOp) and conj.op in _NP_CMP_OPS:
        left = _np_operand(conj.left, schema)
        right = _np_operand(conj.right, schema)
        if left is not None and right is not None:
            return ("cmp", conj.op, left, right)
    return None


_BAND_FLIP = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}


def _band_join(filter_specs, items, width):
    """``HashJoin.np_band`` for a join of left width *width*, or None.

    The residual filter must be exactly one ``<= < >= >`` between a left
    and a right column (normalised to ``L.a <op> R.b``), and every
    aggregate item MIN or MAX over a left column, a right column, or the
    sum/difference of one of each.
    """
    if len(filter_specs) != 1 or filter_specs[0] is None:
        return None
    _, op, a, b = filter_specs[0]
    if op not in _BAND_FLIP or a[0] != "col" or b[0] != "col":
        return None
    if a[1] >= width:
        a, b, op = b, a, _BAND_FLIP[op]
    if a[1] >= width or b[1] < width:
        return None  # both columns on one side
    out = []
    for item in items:
        if item[0] != "agg" or item[1] not in ("min", "max"):
            return None
        operand = item[2]
        if operand[0] == "col":
            parts = [(operand[1], False)]
        elif (
            operand[0] == "bin"
            and operand[1] in ("+", "-")
            and operand[2][0] == "col"
            and operand[3][0] == "col"
        ):
            parts = [(operand[2][1], False), (operand[3][1], operand[1] == "-")]
        else:
            return None
        l_col = r_col = minus = None
        for col, subtracted in parts:
            if col < width and l_col is None:
                l_col = col
                minus = "l" if subtracted else minus
            elif col >= width and r_col is None:
                r_col = col - width
                minus = "r" if subtracted else minus
            else:
                return None  # both operand columns on one side
        out.append((item[1], l_col, r_col, minus))
    return op, a[1], b[1] - width, tuple(out)


def _spec_cols(spec, out: set) -> None:
    """Collect every ``("col", i)`` index referenced by an np-spec tree."""
    kind = spec[0]
    if kind == "col":
        out.add(spec[1])
    elif kind in ("neg", "floor"):
        _spec_cols(spec[1], out)
    elif kind == "div":
        _spec_cols(spec[1], out)
        _spec_cols(spec[2], out)
    elif kind in ("bin", "cmp"):
        _spec_cols(spec[2], out)
        _spec_cols(spec[3], out)
    elif kind in ("maxv", "minv"):
        for part in spec[1:]:
            _spec_cols(part, out)



# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------
def plan_statement(stmt, catalog) -> phys.Plan:
    """Lower one parsed statement into an executable physical plan."""
    planner = Planner(catalog)
    node = planner.plan(stmt)
    planner.finalize_np_decode()
    return phys.Plan(node, ast.param_indices(stmt))


class Planner:
    def __init__(self, catalog):
        self.catalog = catalog
        #: CTE name -> {"scan", "out_arr", "uses"}: candidates for the
        #: cross-CTE np_decode analysis (see _register_cte). Lives for one
        #: statement; finalize_np_decode resolves it after planning.
        self._cte_np: dict = {}

    # -- statements -----------------------------------------------------
    def plan(self, stmt):
        if isinstance(stmt, ast.Explain):
            inner = phys.Plan(
                self.plan(stmt.statement), ast.param_indices(stmt.statement)
            )
            return phys.ExplainPlan(stmt.analyze, inner)
        if isinstance(stmt, ast.Query):
            return self.plan_query(stmt, {})
        if isinstance(stmt, ast.CreateTable):
            return phys.CreateTablePlan(stmt)
        if isinstance(stmt, ast.DropTable):
            return phys.DropTablePlan(stmt.name, stmt.if_exists, ast_ref=stmt)
        if isinstance(stmt, ast.Insert):
            return self._plan_insert(stmt)
        if isinstance(stmt, ast.Delete):
            return self._plan_delete(stmt)
        if isinstance(stmt, ast.Update):
            return self._plan_update(stmt)
        if isinstance(stmt, ast.Vacuum):
            return phys.VacuumPlan(stmt.table, ast_ref=stmt)
        raise SQLError(f"cannot execute {type(stmt).__name__}")

    def _plan_insert(self, stmt: ast.Insert):
        table = self.catalog.get(stmt.table)
        schema = table.schema
        if stmt.columns:
            positions = [schema.column_index(c) for c in stmt.columns]
        else:
            positions = list(range(len(schema.columns)))
        select = None
        row_fns = []
        if stmt.select is not None:
            select = self.plan_query(stmt.select, {})
        else:
            row_fns = [
                [compile_expr(e, [], grouped=False) for e in row]
                for row in stmt.rows
            ]
        return phys.InsertPlan(
            stmt.table, positions, len(schema.columns), row_fns, select,
            ast_ref=stmt,
        )

    def _plan_delete(self, stmt: ast.Delete):
        table = self.catalog.get(stmt.table)
        schema = [(stmt.table, n) for n in table.schema.column_names]
        where_fn = (
            compile_expr(stmt.where, schema, grouped=False)
            if stmt.where is not None
            else None
        )
        return phys.DeletePlan(stmt.table, where_fn, ast_ref=stmt)

    def _plan_update(self, stmt: ast.Update):
        table = self.catalog.get(stmt.table)
        schema = [(stmt.table, n) for n in table.schema.column_names]
        positions = [
            table.schema.column_index(col) for col, _ in stmt.assignments
        ]
        value_fns = [
            compile_expr(expr, schema, grouped=False)
            for _, expr in stmt.assignments
        ]
        where_fn = (
            compile_expr(stmt.where, schema, grouped=False)
            if stmt.where is not None
            else None
        )
        return phys.UpdatePlan(stmt.table, positions, value_fns, where_fn, ast_ref=stmt)

    # -- queries --------------------------------------------------------
    def plan_query(self, query: ast.Query, env: dict) -> phys.QueryPlan:
        """Plan one query. ``env`` maps visible CTE names to their output
        column lists (plan-time only; rows exist only at execution)."""
        env = dict(env)
        ctes = []
        for name, cte_query in query.ctes:
            sub = self.plan_query(cte_query, env)
            ctes.append((name, sub))
            env[name] = sub.columns
            self._register_cte(name, sub)

        if len(query.cores) == 1 and isinstance(query.cores[0], ast.SelectCore):
            node, columns = self._plan_single(query, query.cores[0], env)
            return phys.QueryPlan(ctes, node, columns, ast_ref=query)

        # Set operation (or single parenthesized sub-query).
        parts = []
        for core in query.cores:
            if isinstance(core, ast.Query):
                parts.append(self.plan_query(core, env))
            else:
                bare = ast.Query(cores=(core,))
                node, columns = self._plan_single(bare, core, env)
                parts.append(phys.QueryPlan([], node, columns, ast_ref=core))
        width = len(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != width:
                # Defense in depth: the analyzer rejects this statically
                # (TYP004) before any operand produces rows.
                raise SQLError("UNION operands have different column counts")
        node = parts[0]
        for op, part in zip(query.set_ops, parts[1:]):
            node = phys.Union(node, part, op)
        columns = parts[0].columns
        if query.order_by:
            schema = [(None, name) for name in columns]
            key_fns = [
                self._order_key_fn(item.expr, schema, columns)
                for item in query.order_by
            ]
            node = self._plan_order_limit(
                node, query, keyed=False, key_fns=key_fns
            )
        else:
            node = self._plan_order_limit(node, query, keyed=False, key_fns=None)
        return phys.QueryPlan(ctes, node, columns, ast_ref=query)

    def _order_key_fn(self, expr, schema, columns):
        """ORDER BY over set-operation output: position, name, or expr."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            idx = expr.value - 1
            return lambda row, _params, _i=idx: row[_i]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for i, name in enumerate(columns):
                if name == expr.name:
                    return lambda row, _params, _i=i: row[_i]
        return compile_expr(expr, schema, grouped=False)

    def _plan_order_limit(self, node, query: ast.Query, keyed, key_fns):
        limit_fn = (
            compile_expr(query.limit, [], grouped=False)
            if query.limit is not None
            else None
        )
        offset_fn = (
            compile_expr(query.offset, [], grouped=False)
            if query.offset is not None
            else None
        )
        if query.order_by:
            descending = [item.descending for item in query.order_by]
            if limit_fn is not None:
                # The paper's kNN hot case: ORDER BY + LIMIT k keeps a
                # bounded heap instead of sorting everything.
                return phys.TopK(
                    node, descending, keyed, key_fns, limit_fn, offset_fn
                )
            node = phys.Sort(node, descending, keyed, key_fns)
            if offset_fn is not None:
                node = phys.Limit(node, None, offset_fn)
            return node
        if limit_fn is not None or offset_fn is not None:
            return phys.Limit(node, limit_fn, offset_fn)
        return node

    # -- single SELECT core ---------------------------------------------
    def _plan_single(self, query: ast.Query, core: ast.SelectCore, env: dict):
        conjuncts = _flatten_and(core.where)
        used: set[int] = set()
        node, schema = self._plan_from(core.from_items, env, conjuncts, used)

        # Residual WHERE predicates not pushed into a scan or join.
        residual = [c for i, c in enumerate(conjuncts) if i not in used]
        if residual:
            predicates = [
                compile_expr(c, schema, grouped=False) for c in residual
            ]
            node = phys.Filter(node, predicates, _predicate_detail(residual))
            node.filter_specs = [_np_cmp(c, schema) for c in residual]

        items = self._expand_stars(core.items, schema)
        items, schema, node = self._plan_srfs(items, schema, node)
        items, schema, node = self._plan_windows(items, schema, node)

        columns = [_output_name(item) for item in items]
        grouped = bool(core.group_by) or any(
            _contains_aggregate(item.expr) for item in items
        )
        order_items = query.order_by if len(query.cores) == 1 else ()

        if grouped:
            group_fns = [
                self._group_key_fn(expr, schema, items) for expr in core.group_by
            ]
            item_fns = [
                compile_expr(it.expr, schema, grouped=True) for it in items
            ]
            having_fn = (
                compile_expr(core.having, schema, grouped=True)
                if core.having is not None
                else None
            )
            key_specs = [
                self._grouped_order_key(it.expr, schema, items)
                for it in order_items
            ] or None
            node = phys.Aggregate(
                node, group_fns, item_fns, having_fn, key_specs,
                len(core.group_by),
            )
            node.simple_spec = self._simple_agg_spec(
                items, schema, having_fn, key_specs
            )
            if node.simple_spec is not None:
                node.np_spec = self._np_agg_spec(
                    items, schema, core.group_by, key_specs
                )
                if node.np_spec is not None and isinstance(
                    node.child, phys.HashJoin
                ):
                    self._mark_fused_join(node.child, node.np_spec)
        else:
            item_fns = [
                compile_expr(it.expr, schema, grouped=False) for it in items
            ]
            key_specs = [
                self._order_key_for_core(it.expr, schema, items)
                for it in order_items
            ] or None
            node = phys.Project(node, item_fns, key_specs)
            node.simple_cols = self._simple_cols(items, schema)

        if core.distinct:
            node = phys.Distinct(node, keyed=bool(order_items))

        if len(query.cores) == 1:
            node = self._plan_order_limit(node, query, keyed=True, key_fns=None)
        return node, columns

    def _order_key_for_core(self, expr, schema, items):
        """Order key in a non-grouped core: alias, position, or expression.

        Returns an int (index into the output row) or ``fn(row, params)``
        over the input schema."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            return expr.value - 1  # positional: index into output row
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for i, item in enumerate(items):
                if _output_name(item) == expr.name:
                    # Prefer the already-computed output if the name is an
                    # alias not present in the input schema.
                    if not _name_in_schema(schema, expr.name):
                        return i
        idx = _match_output_expr(expr, items)
        if idx is not None:
            return idx
        return compile_expr(expr, schema, grouped=False)

    def _grouped_order_key(self, expr, schema, items):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            return expr.value - 1
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for i, item in enumerate(items):
                if _output_name(item) == expr.name:
                    return i
        idx = _match_output_expr(expr, items)
        if idx is not None:
            return idx
        return compile_expr(expr, schema, grouped=True)

    def _group_key_fn(self, expr, schema, items):
        # GROUP BY may name a select alias (PostgreSQL extension).
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            if not _name_in_schema(schema, expr.name):
                for item in items:
                    if _output_name(item) == expr.name:
                        return compile_expr(item.expr, schema, grouped=False)
        return compile_expr(expr, schema, grouped=False)

    # -- batch-kernel metadata ------------------------------------------
    def _simple_agg_spec(self, items, schema, having_fn, key_specs):
        """Streaming-accumulator recipe for the batch executor, or None.

        Each select item lowers to one of

        * ``("first", grouped_fn)`` — aggregate-free; every supported
          aggregate-free expression only reads the group's first row, so
          the accumulator keeps one row per group instead of all of them;
        * ``("agg", name, arg_fn)`` — a bare MIN/MAX/SUM/COUNT/AVG over a
          per-row expression, folded incrementally with the exact NULL
          semantics of the :mod:`functions` aggregates;
        * ``("count*", None)`` — COUNT(*).

        HAVING needs the full group, as do DISTINCT/ORDER BY aggregates,
        aggregates nested inside expressions, and non-integer sort-key
        specs — any of those returns None and the batch executor falls
        back to materializing group row lists (still batched, identical
        semantics, just slower).
        """
        if having_fn is not None:
            return None
        if key_specs is not None and not all(
            isinstance(s, int) for s in key_specs
        ):
            return None
        spec = []
        for item in items:
            entry = self._simple_agg_item(item.expr, schema)
            if entry is None:
                return None
            spec.append(entry)
        return spec

    def _simple_agg_item(self, expr, schema):
        if not _contains_aggregate(expr):
            if _contains_srf(expr):
                return None
            try:
                return ("first", compile_expr(expr, schema, grouped=True))
            except SQLError:
                return None
        if not (isinstance(expr, ast.FuncCall) and is_aggregate(expr.name)):
            return None  # aggregate nested inside a larger expression
        if expr.star:
            return ("count*", None) if expr.name == "count" else None
        if expr.distinct or expr.agg_order_by:
            return None
        if expr.name not in ("min", "max", "sum", "count", "avg"):
            return None
        if len(expr.args) != 1:
            return None
        arg = expr.args[0]
        if _contains_aggregate(arg) or _contains_srf(arg):
            return None
        try:
            return ("agg", expr.name, compile_expr(arg, schema, grouped=False))
        except SQLError:
            return None

    def _np_agg_spec(self, items, schema, group_by, key_specs):
        """Whole-column aggregation recipe for the numpy kernel, or None.

        Stricter than :meth:`_simple_agg_spec` (which must already have
        accepted the query): group keys and aggregate-free items must be
        plain columns, and only MIN/MAX/COUNT/COUNT(*) lower — SUM/AVG stay
        on the streaming accumulators (int64 overflow and float-division
        semantics are not worth replicating in the kernel). Returns
        ``(group_cols, item_specs)`` with item specs ``("first", col)``,
        ``("count*",)`` or ``("agg", name, operand_spec)``.
        """
        if len(group_by) > 1:
            return None
        group_cols = []
        for expr in group_by:
            if not isinstance(expr, ast.ColumnRef):
                return None
            try:
                group_cols.append(_resolve(schema, expr))
            except SQLError:
                return None
        spec = []
        for item in items:
            expr = item.expr
            if not _contains_aggregate(expr):
                if not isinstance(expr, ast.ColumnRef):
                    return None
                try:
                    spec.append(("first", _resolve(schema, expr)))
                except SQLError:
                    return None
                continue
            if not (isinstance(expr, ast.FuncCall) and is_aggregate(expr.name)):
                return None
            if expr.star:
                if expr.name != "count":
                    return None
                spec.append(("count*",))
                continue
            if expr.name not in ("min", "max", "count") or len(expr.args) != 1:
                return None
            operand = _np_operand(expr.args[0], schema)
            if operand is None:
                return None
            spec.append(("agg", expr.name, operand))
        return tuple(group_cols), spec

    def _mark_fused_join(self, jnode, np_spec):
        """Tell the HashJoin under a numpy-lowered Aggregate what is read
        (``np_read_cols``) and whether it can run as a band join
        (``np_band``); see :class:`~repro.minidb.sql.plan.HashJoin`."""
        if jnode.np_left_col is None:
            return  # no array join without plain-column keys
        group_cols, items = np_spec
        agg_cols = set(group_cols)
        for item in items:
            if item[0] == "first":
                agg_cols.add(item[1])
            elif item[0] == "agg":
                _spec_cols(item[2], agg_cols)
        gather_cols = set(agg_cols)
        for spec in jnode.filter_specs:
            if spec is not None:
                _spec_cols(spec, gather_cols)
        jnode.np_read_cols = (
            tuple(sorted(gather_cols)), tuple(sorted(agg_cols))
        )
        if not group_cols:
            jnode.np_band = _band_join(
                jnode.filter_specs, items, jnode.left_width
            )

    def _simple_cols(self, items, schema):
        """Input-column index per select item when all are plain columns."""
        cols = []
        for item in items:
            if not isinstance(item.expr, ast.ColumnRef):
                return None
            try:
                cols.append(_resolve(schema, item.expr))
            except SQLError:
                return None
        return cols

    # -- select-list machinery ------------------------------------------
    def _expand_stars(self, items, schema):
        out = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                table = item.expr.table
                matched = False
                for qual, name in schema:
                    if table is None or qual == table:
                        out.append(
                            ast.SelectItem(ast.ColumnRef(qual, name), alias=name)
                        )
                        matched = True
                if not matched:
                    raise SQLNameError(f"no columns match {table or ''}.*")
            else:
                out.append(item)
        return out

    def _plan_srfs(self, items, schema, node):
        srf_positions = [
            i for i, item in enumerate(items) if _contains_srf(item.expr)
        ]
        if not srf_positions:
            return items, schema, node
        srf_fns = []
        for i in srf_positions:
            expr = items[i].expr
            if not (
                isinstance(expr, ast.FuncCall) and expr.name in SET_RETURNING
            ):
                raise SQLSyntaxError(
                    "UNNEST must be the whole select expression in minidb"
                )
            if len(expr.args) != 1:
                raise SQLSyntaxError("UNNEST takes exactly one argument")
            srf_fns.append(compile_expr(expr.args[0], schema, grouped=False))

        new_schema = list(schema)
        new_items = list(items)
        for i in srf_positions:
            synth = f"__srf_{i}"
            new_schema.append((None, synth))
            new_items[i] = ast.SelectItem(
                ast.ColumnRef(None, synth), alias=items[i].alias or "unnest"
            )
        unnest = phys.Unnest(node, srf_fns)
        unnest.srf_positions = list(srf_positions)
        self._mark_np_decode(node, items, srf_positions, schema)
        return new_items, new_schema, unnest

    def _mark_np_decode(self, node, items, srf_positions, schema):
        """Let an UNNEST-feeding columnar scan decode arrays as ndarrays.

        Safe only when the array cells cannot reach any consumer that
        expects Python lists: every SRF argument must be a plain column
        reference (or an array slice over one), and every other select
        item plus every scan filter may touch scalar columns only. The
        check is conservative — failing it just keeps the
        (always-correct) list decode.

        A :class:`~repro.minidb.sql.plan.CteScan` source defers to the
        cross-CTE analysis instead: the scan itself decodes nothing, but
        proving that THIS use of the CTE only touches its array columns
        through UNNEST lets :meth:`finalize_np_decode` flip the flag on
        the scan that produced the CTE's rows.
        """
        if isinstance(node, phys.CteScan):
            self._mark_cte_use(node, items, srf_positions, schema)
            return
        arr = self._scan_np_arrays(node)
        if arr is None:
            return
        if self._items_np_safe(items, srf_positions, schema, arr):
            node.np_decode = True

    def _scan_np_arrays(self, node):
        """Output positions a scan could fill with ndarray cells, or None.

        The positions are the scanned columnar table's integer-array
        columns (offset by ``np_probe_base`` for an INL probe). None means
        the node is no candidate: wrong node/storage kind, no array
        columns, or key/filter machinery that would have to evaluate
        Python-list semantics on the array cells.
        """
        if not isinstance(
            node, (phys.SeqScan, phys.PkLookup, phys.IndexNestedLoop)
        ):
            return None
        try:
            table = self.catalog.get(node.table)
        except SQLError:
            return None
        tschema = table.schema
        if tschema.storage != "columnar":
            return None
        base = node.np_probe_base
        arr = {
            base + i
            for i, col in enumerate(tschema.columns)
            if is_array_type(col.type_tag)
        }
        if not arr:
            return None
        if any(
            tschema.column_index(c) + base in arr
            for c in getattr(node, "pk", ())
        ):
            return None
        filters = getattr(node, "filters", None) or []
        specs = node.filter_specs or []
        if len(specs) != len(filters) or any(s is None for s in specs):
            return None
        cols: set = set()
        for spec in specs:
            _spec_cols(spec, cols)
        if cols & arr:
            return None
        return arr

    def _items_np_safe(self, items, srf_positions, schema, arr):
        """True when select items confine *arr* positions to UNNEST args."""
        for i, item in enumerate(items):
            if i in srf_positions:
                if self._srf_arg_col(item.expr.args[0], schema, arr) is None:
                    return False
                continue
            for ref in ast.walk(item.expr):
                if not isinstance(ref, ast.ColumnRef):
                    continue
                try:
                    if _resolve(schema, ref) in arr:
                        return False
                except SQLError:
                    return False  # unresolvable (inner scope): conservative
        return True

    def _srf_arg_col(self, expr, schema, arr):
        """Input column an UNNEST argument reads, when ndarray-safe.

        Plain column references and array slices over one (with bounds
        free of array columns) evaluate identically on list and ndarray
        cells — the compiled slice closure preserves the ndarray view.
        Anything else returns None.
        """
        if isinstance(expr, ast.ColumnRef):
            try:
                return _resolve(schema, expr)
            except SQLError:
                return None
        if isinstance(expr, ast.ArraySlice) and isinstance(
            expr.base, ast.ColumnRef
        ):
            for bound in (expr.low, expr.high):
                if bound is None:
                    continue
                for ref in ast.walk(bound):
                    if not isinstance(ref, ast.ColumnRef):
                        continue
                    try:
                        if _resolve(schema, ref) in arr:
                            return None
                    except SQLError:
                        return None
            try:
                return _resolve(schema, expr.base)
            except SQLError:
                return None
        return None

    # -- cross-CTE np_decode ---------------------------------------------
    # The kNN/OTM plans probe the grouped label tables through an index
    # nested-loop whose rows materialize into a CTE; the UNNESTs then read
    # from CteScans, not from the probing scan itself. The analysis below
    # re-creates the direct-scan guarantee across that boundary: a CTE
    # whose rows come straight from a columnar scan (via a column-picking
    # Project) may carry ndarray cells iff EVERY scan of the CTE touches
    # those positions only as UNNEST arguments.

    def _register_cte(self, name, sub):
        """Record *name* as an np_decode candidate if its plan qualifies."""
        if name in self._cte_np:
            # Shadowed CTE name: use attribution would be ambiguous, so
            # neither definition participates.
            self._cte_np[name]["scan"] = None
            return
        info = {"scan": None, "out_arr": frozenset(), "uses": []}
        self._cte_np[name] = info
        root = sub.root
        if (
            not isinstance(root, phys.Project)
            or root.simple_cols is None
            or root.key_specs is not None
        ):
            return
        scan = root.child
        arr = self._scan_np_arrays(scan)
        if arr is None:
            return
        out_arr = frozenset(
            out_i
            for out_i, col_i in enumerate(root.simple_cols)
            if col_i in arr
        )
        if not out_arr:
            # The projection drops every array column before anything
            # downstream sees the rows: always safe, and the scan still
            # skips the list materialization.
            scan.np_decode = True
            return
        info["scan"] = scan
        info["out_arr"] = out_arr

    def _mark_cte_use(self, node, items, srf_positions, schema):
        """Upgrade one recorded CteScan use to "safe" if provably so."""
        info = self._cte_np.get(node.cte_name)
        if info is None or info["scan"] is None:
            return
        record = next((r for r in info["uses"] if r[0] is node), None)
        if record is None:
            return
        out_arr = info["out_arr"]
        filters = node.filters or []
        specs = node.filter_specs or []
        if len(specs) != len(filters) or any(s is None for s in specs):
            return
        cols: set = set()
        for spec in specs:
            _spec_cols(spec, cols)
        if cols & out_arr:
            return
        if not self._items_np_safe(items, srf_positions, schema, out_arr):
            return
        record[1] = True

    def finalize_np_decode(self):
        """Flip np_decode on CTE-producing scans once all uses are known.

        Called by :func:`plan_statement` after the whole statement is
        planned. A use that never reached :meth:`_mark_cte_use` (a join
        source, a SELECT without SRFs) stays unsafe and vetoes the flag —
        conservative by construction.
        """
        for info in self._cte_np.values():
            scan = info["scan"]
            if scan is None or not info["uses"]:
                continue
            if all(safe for _node, safe in info["uses"]):
                scan.np_decode = True

    def _plan_windows(self, items, schema, node):
        win_positions = [
            i
            for i, item in enumerate(items)
            if isinstance(item.expr, ast.WindowFunc)
        ]
        if not win_positions:
            return items, schema, node
        new_schema = list(schema)
        new_items = list(items)
        specs = []
        for i in win_positions:
            win = items[i].expr
            if win.name != "row_number":
                raise SQLError(f"unsupported window function {win.name!r}")
            specs.append(
                phys.WindowSpec(
                    [
                        compile_expr(e, schema, grouped=False)
                        for e in win.partition_by
                    ],
                    [
                        compile_expr(it.expr, schema, grouped=False)
                        for it in win.order_by
                    ],
                    [it.descending for it in win.order_by],
                )
            )
            synth = f"__win_{i}"
            new_schema.append((None, synth))
            new_items[i] = ast.SelectItem(
                ast.ColumnRef(None, synth),
                alias=items[i].alias or "row_number",
            )
        return new_items, new_schema, phys.Window(node, specs)

    # -- FROM clause ----------------------------------------------------
    def _plan_from(self, from_items, env, conjuncts, used):
        if not from_items:
            return phys.Result0(), []
        sources = []  # (item, on_conjuncts)
        for item in from_items:
            self._flatten_joins(item, sources)
        # Join-order heuristic: derived relations (CTEs, subqueries) first so
        # base tables can be probed by index nested-loop instead of scanned —
        # this is what makes "FROM knn_ea n1bb, n1" touch only |n1| rows of
        # knn_ea, as the paper requires. Comma joins only (ON pins order).
        if len(sources) > 1 and all(not on for _, on in sources):
            def _derived(source):
                item = source[0]
                if isinstance(item, ast.SubqueryRef):
                    return True
                return isinstance(item, ast.TableRef) and item.name in env

            small = [s for s in sources if _derived(s)]
            large = [s for s in sources if not _derived(s)]
            sources = small + large
        node, schema = self._plan_source(sources[0], env, conjuncts, used)
        for source in sources[1:]:
            node, schema = self._plan_join(
                node, schema, source, env, conjuncts, used
            )
        return node, schema

    def _flatten_joins(self, item, out, on_conjuncts=None):
        if isinstance(item, ast.Join):
            self._flatten_joins(item.left, out)
            self._flatten_joins(item.right, out, _flatten_and(item.condition))
            return
        out.append((item, on_conjuncts or []))

    def _plan_source(self, source, env, conjuncts, used):
        item, on_conjuncts = source
        all_conj = list(enumerate(conjuncts))
        if isinstance(item, ast.SubqueryRef):
            subplan = self.plan_query(item.query, env)
            schema = [(item.alias, n) for n in subplan.columns]
            filters, specs, _ = self._source_filters(
                schema, all_conj, on_conjuncts, used
            )
            node = phys.SubqueryScan(item.alias, subplan, filters, ast_ref=item)
            node.filter_specs = specs
            return node, schema
        alias = item.alias or item.name
        if item.name in env:
            schema = [(alias, n) for n in env[item.name]]
            filters, specs, pushed = self._source_filters(
                schema, all_conj, on_conjuncts, used
            )
            node = phys.CteScan(
                item.name, alias, filters, ast_ref=item,
                filter_text=_predicate_detail(pushed),
            )
            node.filter_specs = specs
            info = self._cte_np.get(item.name)
            if info is not None and info["scan"] is not None:
                # Every scan of an np_decode candidate starts out unsafe;
                # _mark_np_decode upgrades the ones it can prove harmless.
                info["uses"].append([node, False])
            return node, schema
        table = self.catalog.get(item.name)
        schema = [(alias, n) for n in table.schema.column_names]
        probe = self._pk_probe(table.schema.primary_key, alias, all_conj, used)
        if probe is not None:
            found, consumed = probe
            pk = table.schema.primary_key
            key_fns = [
                compile_expr(found[col], [], grouped=False) for col in pk
            ]
            # Pin predicates, recompiled against the row schema: the runtime
            # fallback path (non-integer parameter) scans and applies these.
            pin_fns = [
                compile_expr(conjuncts[idx], schema, grouped=False)
                for idx in consumed
            ]
            filters, specs, _ = self._source_filters(
                schema, all_conj, on_conjuncts, used
            )
            node = phys.PkLookup(
                item.name, alias, pk, key_fns, pin_fns, filters, ast_ref=item
            )
            node.filter_specs = specs
            return node, schema
        filters, specs, pushed = self._source_filters(
            schema, all_conj, on_conjuncts, used
        )
        node = phys.SeqScan(item.name, alias, filters, ast_ref=item)
        node.filter_specs = specs
        node.zone_eq_fn = self._zone_eq_fn(table, alias, pushed)
        return node, schema

    def _zone_eq_fn(self, table, alias, pushed):
        """Compile the zone-map skip key for a columnar seq scan, or None.

        Looks for an equality conjunct pinning the table's scalar zone
        column (hub) to a constant/parameter. Such a conjunct references
        only this source, so ``_source_filters`` always pushed it into the
        scan's own filters — skipping a page can therefore only skip rows
        the filter would reject anyway, on either executor.
        """
        schema_obj = table.schema
        zone = schema_obj.zone_info()
        if zone is None or zone[1]:  # array zone columns: no scalar equality
            return None
        zone_col = schema_obj.columns[zone[0]].name
        for conj in pushed:
            if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
                continue
            for col_side, const_side in (
                (conj.left, conj.right),
                (conj.right, conj.left),
            ):
                if (
                    isinstance(col_side, ast.ColumnRef)
                    and col_side.name == zone_col
                    and col_side.table in (None, alias)
                    and self._is_constant(const_side)
                ):
                    return compile_expr(const_side, [], grouped=False)
        return None

    def _source_filters(self, schema, all_conj, on_conjuncts, used):
        """Push down single-source filters (WHERE, then mandatory ON).

        Returns ``(predicates, specs, exprs)`` — compiled closures, parallel
        numpy comparison specs (entries may be None), and the conjunct ASTs
        actually claimed by this source.
        """
        predicates, specs, exprs = self._filters(schema, all_conj, used)
        on_preds, on_specs, on_exprs = self._filters(
            schema, list(enumerate(on_conjuncts, start=-1000)), set(),
            always=True,
        )
        return predicates + on_preds, specs + on_specs, exprs + on_exprs

    def _filters(self, schema, indexed_conjuncts, used, always=False):
        predicates = []
        specs = []
        exprs = []
        for idx, conj in indexed_conjuncts:
            if not always and idx in used:
                continue
            try:
                fn = compile_expr(conj, schema, grouped=False, strict_names=True)
            except SQLNameError:
                continue
            predicates.append(fn)
            specs.append(_np_cmp(conj, schema))
            exprs.append(conj)
            if not always:
                used.add(idx)
        return predicates, specs, exprs

    def _pk_probe(self, pk, alias, indexed_conjuncts, used):
        """If conjuncts pin every PK column to a constant, claim them.

        Static classification only — a parameter's runtime value is not
        inspected here. Non-integer *literals* are rejected (they can never
        match an integer key), matching what the analyzer used to prove
        symbolically; a non-integer *parameter* degrades at execution.
        """
        if not pk:
            return None
        found = {}
        consumed = []
        for idx, conj in indexed_conjuncts:
            if idx in used:
                continue
            pin = self._pk_pin(conj, alias, pk)
            if pin is not None and pin[0] not in found:
                found[pin[0]] = pin[1]
                consumed.append(idx)
        if set(found) != set(pk):
            return None
        for col in pk:
            value = found[col]
            if isinstance(value, ast.Literal) and not isinstance(value.value, int):
                return None
        used.update(consumed)
        return found, consumed

    def _pk_pin(self, conj, alias, pk):
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for col_side, const_side in (
            (conj.left, conj.right),
            (conj.right, conj.left),
        ):
            if (
                isinstance(col_side, ast.ColumnRef)
                and col_side.name in pk
                and col_side.table in (None, alias)
                and self._is_constant(const_side)
            ):
                return col_side.name, const_side
        return None

    def _is_constant(self, expr) -> bool:
        if isinstance(expr, (ast.Literal, ast.Param)):
            return True
        if isinstance(expr, ast.UnaryOp):
            return self._is_constant(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return self._is_constant(expr.left) and self._is_constant(expr.right)
        if isinstance(expr, ast.FuncCall) and not is_aggregate(expr.name):
            return all(self._is_constant(a) for a in expr.args)
        return False

    def _plan_join(self, left_node, left_schema, source, env, conjuncts, used):
        item, on_conjuncts = source
        candidates = [
            (i, c) for i, c in enumerate(conjuncts) if i not in used
        ] + [(None, c) for c in on_conjuncts]

        # --- index nested-loop join against a base table's primary key ----
        if isinstance(item, ast.TableRef) and item.name not in env:
            table = self.catalog.get(item.name)
            alias = item.alias or item.name
            pk = table.schema.primary_key
            if pk:
                pins: dict = {}
                pin_exprs: dict = {}
                consumed = []
                for idx, conj in candidates:
                    pin = self._inl_pin(conj, alias, pk, left_schema)
                    if pin is not None and pin[0] not in pins:
                        pins[pin[0]] = pin[1]
                        pin_exprs[pin[0]] = pin[2]
                        consumed.append(idx)
                if set(pins) == set(pk):
                    key_fns = [pins[col] for col in pk]
                    for idx in consumed:
                        if idx is not None:
                            used.add(idx)
                    schema = left_schema + [
                        (alias, n) for n in table.schema.column_names
                    ]
                    filters, specs, _ = self._post_join_filters(
                        schema, conjuncts, used, on_conjuncts
                    )
                    node = phys.IndexNestedLoop(
                        left_node, item.name, alias, pk, key_fns, filters,
                        ast_ref=item,
                    )
                    node.filter_specs = specs
                    node.np_probe_base = len(left_schema)
                    key_specs = [
                        _np_operand(pin_exprs[col], left_schema) for col in pk
                    ]
                    if all(spec is not None for spec in key_specs):
                        node.np_key_specs = key_specs
                    return node, schema

        # --- plan the right side, then hash or cross join -------------------
        right_node, right_schema = self._plan_source(
            (item, []), env, conjuncts, used
        )
        schema = left_schema + right_schema
        hash_pair = None
        for idx, conj in candidates:
            if idx in used:
                continue
            pair = self._equi_pair(conj, left_schema, right_schema)
            if pair is not None:
                hash_pair = (idx, conj, pair)
                break
        if hash_pair is not None:
            idx, key_conj, (left_fn, right_fn, left_expr, right_expr) = hash_pair
            if idx is not None:
                used.add(idx)
            filters, specs, residual = self._post_join_filters(
                schema, conjuncts, used, on_conjuncts
            )
            node = phys.HashJoin(
                left_node, right_node, left_fn, right_fn, filters,
                key_text=_predicate_detail([key_conj]),
                filter_text=_predicate_detail(residual),
            )
            node.filter_specs = specs
            node.left_width = len(left_schema)
            left_spec = _np_operand(left_expr, left_schema)
            right_spec = _np_operand(right_expr, right_schema)
            if (
                left_spec is not None
                and right_spec is not None
                and left_spec[0] == "col"
                and right_spec[0] == "col"
            ):
                node.np_left_col = left_spec[1]
                node.np_right_col = right_spec[1]
            return node, schema
        filters, specs, _ = self._post_join_filters(
            schema, conjuncts, used, on_conjuncts
        )
        node = phys.NestedLoop(left_node, right_node, filters)
        node.filter_specs = specs
        return node, schema

    def _post_join_filters(self, schema, conjuncts, used, on_conjuncts):
        """``(predicates, specs, exprs)`` of the residual join filter."""
        predicates, specs, exprs = self._filters(
            schema, list(enumerate(conjuncts)), used
        )
        # ON conjuncts are mandatory on the joined schema (re-checking a
        # conjunct already used to drive the join is harmless).
        predicates += [
            compile_expr(conj, schema, grouped=False) for conj in on_conjuncts
        ]
        specs += [_np_cmp(conj, schema) for conj in on_conjuncts]
        return predicates, specs, exprs + list(on_conjuncts)

    def _inl_pin(self, conj, alias, pk, left_schema):
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for col_side, other in ((conj.left, conj.right), (conj.right, conj.left)):
            if (
                isinstance(col_side, ast.ColumnRef)
                and col_side.name in pk
                and col_side.table == alias
            ):
                try:
                    fn = compile_expr(
                        other, left_schema, grouped=False, strict_names=True
                    )
                except SQLNameError:
                    continue
                return col_side.name, fn, other
        return None

    def _equi_pair(self, conj, left_schema, right_schema):
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for a, b in ((conj.left, conj.right), (conj.right, conj.left)):
            try:
                left_fn = compile_expr(
                    a, left_schema, grouped=False, strict_names=True
                )
            except SQLNameError:
                continue
            try:
                right_fn = compile_expr(
                    b, right_schema, grouped=False, strict_names=True
                )
            except SQLNameError:
                continue
            # Ensure sides do not also resolve on the opposite schema in a
            # way that makes the conjunct single-sided; good enough here.
            return left_fn, right_fn, a, b
        return None


def _match_output_expr(expr, items):
    """Index of a select item structurally identical to *expr*, or None.

    ``ORDER BY MIN(ta)`` where ``MIN(ta)`` is also a select item can sort on
    the already-computed output value instead of re-evaluating the aggregate
    per sort key. Expressions are compared by rendered SQL text (the printer
    is deterministic), which is sound because every supported expression is
    deterministic over its input rows. Plain column / positional references
    are handled by the callers' earlier rules; this match covers compound
    expressions only.
    """
    if isinstance(expr, (ast.ColumnRef, ast.Literal)):
        return None
    try:
        rendered = render_expr(expr)
    except SQLError:
        return None
    for i, item in enumerate(items):
        try:
            if render_expr(item.expr) == rendered:
                return i
        except SQLError:
            continue
    return None


def _name_in_schema(schema, name) -> bool:
    return any(col_name == name for _, col_name in schema)


def _output_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    if isinstance(expr, ast.WindowFunc):
        return expr.name
    return "?column?"


def _predicate_detail(conjuncts) -> str:
    if not conjuncts:
        return ""
    try:
        return "(" + " AND ".join(render_expr(c) for c in conjuncts) + ")"
    except SQLError:  # pragma: no cover - cosmetic only
        return ""
