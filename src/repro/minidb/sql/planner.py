"""Logical-to-physical planner: lowers the binder's tree into a plan tree.

The input is the bound tree of :mod:`repro.minidb.sql.analyzer` — sources,
conjuncts, classified select items and resolved sort keys, every column a
``(source, column, type)`` — so nothing here looks a name up: a column's
slot comes from its schema's ``(source, column)`` map, and whether a
conjunct can run at an operator is a set test on the sources it references.
Planning is pure — no pages are read — and produces a
:class:`~repro.minidb.sql.plan.Plan` whose expressions are compiled to
``fn(row, params)`` closures with **deferred** parameter binding, so one
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
tables), then base tables by ascending row count (``Table.row_count``, an
in-memory descriptor field, so planning still reads no pages; ties keep
FROM order), so the big label-side table ends up on the probed side — this
is what makes ``FROM knn_ea n1bb, n1`` touch only ``|n1|`` rows of
``knn_ea``, and a target-set build's ``FROM lin, tgt`` only ``|tgt|`` rows
of ``lin``, as the paper requires. A cached plan whose tables have since
grown or shrunk keeps its order: it may be slower, never wrong.
"""

from __future__ import annotations

from itertools import count
from operator import itemgetter

from repro.errors import SQLError
from repro.minidb.sql import ast
from repro.minidb.sql import plan as phys
from repro.minidb.sql.analyzer import (
    AGG,
    SRF,
    WINDOW,
    BoundQuery,
    BoundWrite,
    analyze,
    is_array,
)
from repro.minidb.sql.expr import accumulator, compile_expr
from repro.minidb.sql.printer import render_expr


class _Schema:
    """The row layout of one operator's output."""

    __slots__ = ("cols", "slots", "sources")

    def __init__(self, cols):
        self.cols = cols  # [(source, column)] by position
        #: (source, column) -> position: what compile_expr reads
        self.slots = {col: i for i, col in enumerate(cols)}
        self.sources = {source for source, _ in cols}

    @classmethod
    def of(cls, source) -> "_Schema":
        return cls([(source.alias, name) for name, _ in source.columns])

    def __add__(self, other: "_Schema") -> "_Schema":
        return _Schema(self.cols + other.cols)

    def __len__(self) -> int:
        return len(self.cols)

    def slot(self, ref: ast.BoundRef) -> int:
        return self.slots[ref.source, ref.column]

    def covers(self, expr) -> bool:
        """Whether every column *expr* references is in this row."""
        return all(ref.source in self.sources for ref in _refs(expr))


def _refs(expr):
    return (n for n in ast.walk(expr) if isinstance(n, ast.BoundRef))


def _agg_slots(aggs, base) -> dict:
    """Slot of each aggregate column ``__agg_j``: *base* + j."""
    return {(None, f"__agg_{j}"): base + j for j in range(len(aggs))}


def _one(_row, _params):
    """What ``COUNT(*)`` counts: a value that is never NULL."""
    return 1


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
    if isinstance(expr, ast.BoundRef):
        return ("col", schema.slot(expr))
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


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------
def lower(stmt, bound, catalog) -> phys.Plan:
    """Lower *bound*, the binder's tree for the error-free statement *stmt*,
    into an executable physical plan."""
    node = Planner(catalog).plan(bound)
    prepare(node)
    return phys.Plan(_explained(stmt, node), ast.param_indices(stmt))


def prepare(statement) -> None:
    """Set the prepared state of every operator under *statement* (a
    planned statement's node; ``plan.py`` lists the fields): what its
    executions would otherwise rebuild from parameter-free fields. The
    planner's last step, before the plan can be cached or shared; nothing
    in a plan changes after it."""
    for op, _label, parent, _query in phys.operators(statement):
        _prepare(op, parent)


def _prepare(op, parent) -> None:
    """*op*'s prepared fields; *parent* is the operator above it."""
    if getattr(op, "filters", None):
        op.check = _conjunction(op.filters)
    if isinstance(op, phys.Unnest):
        op.point = isinstance(op.child, phys.PkLookup)
        # A column is read raw; a slice's bounds read the parameters.
        op.readers = tuple(
            arg[0] if arg is not None and arg[1:] == (None, None) else None
            for arg in op.srf_args
        )
        if isinstance(parent, phys.Project):  # fused: a Project over it
            items = parent.item_fns
            srf_of = {pos: k for k, pos in enumerate(op.srf_positions)}
            op.base_fns = [fn for i, fn in enumerate(items) if i not in srf_of]
            slot = count()
            op.order = [
                len(op.base_fns) + srf_of[i] if i in srf_of else next(slot)
                for i in range(len(items))
            ]
    elif isinstance(op, phys.Aggregate):
        op.inits = [init for _arg, init, _step, _final in op.accs]
        op.steps = [
            (slot, arg_fn, step)
            for slot, (arg_fn, _init, step, _final) in enumerate(op.accs, 1)
        ]
        op.finals = [final for _arg, _init, _step, final in op.accs]
        op.band = isinstance(op.child, phys.HashJoin) and op.child.np_band is not None


def _conjunction(filters):
    """A predicate list as one callable: ``all(p(row, params) is True …)``.
    The single-predicate case — by far the most common in the paper
    corpus — skips the loop, which is measurable at batch row rates."""
    if len(filters) == 1:
        single = filters[0]

        def check(row, params):
            return single(row, params) is True

        return check
    filters = tuple(filters)

    def check(row, params):
        for p in filters:
            if p(row, params) is not True:
                return False
        return True

    return check


def _explained(stmt, node):
    """*node* under one ExplainPlan per ``EXPLAIN`` wrapped around it."""
    if not isinstance(stmt, ast.Explain):
        return node
    inner = _explained(stmt.statement, node)
    return phys.ExplainPlan(
        stmt.analyze, phys.Plan(inner, ast.param_indices(stmt.statement))
    )


def plan_statement(stmt, catalog) -> phys.Plan:
    """Bind one parsed statement, raise its first error, lower the rest."""
    analysis = analyze(stmt, catalog)
    analysis.raise_if_errors()
    return analysis.plan


class Planner:
    def __init__(self, catalog):
        self.catalog = catalog

    # -- statements -----------------------------------------------------
    def plan(self, bound):
        if isinstance(bound, BoundQuery):
            return self.plan_query(bound)
        if isinstance(bound, BoundWrite):
            return self._plan_write(bound)
        if isinstance(bound, ast.CreateTable):
            return phys.CreateTablePlan(bound)
        if isinstance(bound, ast.DropTable):
            return phys.DropTablePlan(bound.name, bound.if_exists, ast_ref=bound)
        if isinstance(bound, ast.Vacuum):
            return phys.VacuumPlan(bound.table, ast_ref=bound)
        raise SQLError(f"cannot execute {type(bound).__name__}")

    def _plan_write(self, write: BoundWrite):
        stmt = write.node
        slots = _Schema([(stmt.table, name) for name, _ in write.columns]).slots
        where_fn = (
            compile_expr(write.where, slots)
            if write.where is not None
            else None
        )
        if isinstance(stmt, ast.Delete):
            return phys.DeletePlan(stmt.table, where_fn, ast_ref=stmt)
        if isinstance(stmt, ast.Update):
            value_fns = [
                compile_expr(value, slots) for value in write.values
            ]
            return phys.UpdatePlan(
                stmt.table, write.positions, value_fns, where_fn, ast_ref=stmt
            )
        select = None
        if write.select is not None:
            select = self.plan_query(write.select)
        row_fns = [
            [compile_expr(value, {}) for value in row]
            for row in write.values
        ]
        return phys.InsertPlan(
            stmt.table, write.positions, len(write.columns), row_fns, select,
            ast_ref=stmt,
        )

    # -- queries --------------------------------------------------------
    def plan_query(self, query: BoundQuery) -> phys.QueryPlan:
        ctes = []
        for name, cte_query in query.ctes:
            ctes.append((name, self.plan_query(cte_query)))
        columns = [name for name, _ in query.columns]

        core = query.core
        if core is not None:
            node = self._plan_core(core)
            hidden = len(core.items) - len(columns)
            node = self._plan_order_limit(node, query, hidden)
            return phys.QueryPlan(ctes, node, columns, ast_ref=query.node)

        # Set operation (or single parenthesized sub-query).
        parts = []
        for part in query.parts:
            if isinstance(part, BoundQuery):
                parts.append(self.plan_query(part))
            else:
                names = [item.name for item in part.items]
                node = self._plan_core(part)
                parts.append(phys.QueryPlan([], node, names, ast_ref=part.node))
        node = parts[0]
        for op, part in zip(query.set_ops, parts[1:]):
            node = phys.Union(node, part)
            if op == "UNION":
                node = phys.Distinct(node)
        if query.order_exprs:
            # Sort keys that are expressions over the combined output row
            # become hidden columns after it, as a core's projection has them.
            slots = _Schema([(None, name) for name in columns]).slots
            item_fns = [
                (lambda row, _params, _i=i: row[_i]) for i in range(len(columns))
            ] + [
                compile_expr(key, slots)
                for key in query.order_exprs
            ]
            node = phys.Project(node, item_fns)
        node = self._plan_order_limit(node, query, len(query.order_exprs))
        return phys.QueryPlan(ctes, node, columns, ast_ref=query.node)

    def _plan_order_limit(self, node, query: BoundQuery, hidden):
        """ORDER BY / LIMIT / OFFSET over *node*, whose rows end in *hidden*
        sort-only columns."""
        limit_fn = (
            compile_expr(query.limit, {})
            if query.limit is not None
            else None
        )
        offset_fn = (
            compile_expr(query.offset, {})
            if query.offset is not None
            else None
        )
        if query.order_by:
            positions = [position for position, _ in query.order_by]
            descending = [desc for _, desc in query.order_by]
            width = len(query.columns) if hidden else None
            if limit_fn is not None:
                # The paper's kNN hot case: ORDER BY + LIMIT k keeps a
                # bounded heap instead of sorting everything.
                return phys.TopK(
                    node, positions, descending, width, limit_fn, offset_fn
                )
            node = phys.Sort(node, positions, descending, width)
            if offset_fn is not None:
                node = phys.Limit(node, None, offset_fn)
            return node
        if limit_fn is not None or offset_fn is not None:
            return phys.Limit(node, limit_fn, offset_fn)
        return node

    # -- single SELECT core ---------------------------------------------
    def _plan_core(self, core):
        used: set[int] = set()
        node, schema = self._plan_from(core.sources, core.where, used)
        # Every conjunct is claimed: the last source or join covers them all.
        assert len(used) == len(core.where)

        items = core.items
        node, schema = self._plan_srfs(items, schema, node)
        node, schema = self._plan_windows(items, schema, node)
        slots = schema.slots

        if core.grouped:
            group_fns = [compile_expr(key, slots) for key in core.group_by]
            aggs = [
                (
                    call.name,
                    _one if call.star else compile_expr(call.args[0], slots),
                    call.distinct,
                    [compile_expr(k.expr, slots) for k in call.agg_order_by],
                    [k.descending for k in call.agg_order_by],
                )
                for call in core.aggs
            ]
            # Items and HAVING see the group's first row, then its aggregates.
            slots = {**slots, **_agg_slots(core.aggs, len(schema))}
            having_fn = None
            if core.having is not None:
                having_fn = compile_expr(core.having, slots)
            node = phys.Aggregate(
                node,
                group_fns,
                aggs,
                [accumulator(*agg) for agg in aggs],
                [compile_expr(it.value, slots) for it in items],
                having_fn,
                len(schema),
            )
            spec = node.np_spec = self._np_agg_spec(core, schema)
            join = node.child
            if (
                spec is not None
                and not spec[0]
                and isinstance(join, phys.HashJoin)
                and join.np_left_col is not None
            ):
                join.np_band = _band_join(join.filter_specs, spec[1], join.left_width)
        else:
            item_fns = [compile_expr(it.value, slots) for it in items]
            node = phys.Project(node, item_fns)
            node.simple_cols = self._simple_cols(items, schema)
            if node.simple_cols is not None:
                node.array_cols = tuple(
                    i for i, item in enumerate(items) if is_array(item.value.type)
                )

        if core.distinct:
            node = phys.Distinct(node)
        return node

    # -- batch-kernel metadata ------------------------------------------
    def _np_agg_spec(self, core, schema):
        """Whole-column aggregation recipe for the numpy kernel, or None.

        Only without HAVING, when the group keys (any number) and the
        aggregate-free items are integer operands (``_np_operand``: columns,
        parameters, ``FLOOR(td / 3600)`` …) and every other item is a bare,
        non-DISTINCT MIN/MAX/COUNT/COUNT(*) or an ``ARRAY_AGG`` whose ORDER
        BY keys are operands too — SUM/AVG stay on the accumulators (int64
        overflow and float-division semantics are not worth replicating in
        the kernel). Returns ``(group_specs, item_specs)`` with item specs
        ``("first", operand)``, ``("count*",)``, ``("agg", name, operand)``
        or ``("agg", "array_agg", operand, ((key, descending), …))``.
        """
        if core.having is not None:
            return None
        group_specs = [_np_operand(key, schema) for key in core.group_by]
        if None in group_specs:
            return None
        agg_slots = _agg_slots(core.aggs, 0)
        spec = []
        for item in core.items:
            ref = item.value
            if item.kind != AGG:
                operand = _np_operand(ref, schema)
                if operand is None:
                    return None
                spec.append(("first", operand))
                continue
            if not isinstance(ref, ast.BoundRef):
                return None
            call = core.aggs[agg_slots[ref.source, ref.column]]
            if call.star:
                spec.append(("count*",))
                continue
            operand = _np_operand(call.args[0], schema)
            keys = tuple(
                (_np_operand(key.expr, schema), key.descending)
                for key in call.agg_order_by
            )
            if operand is None or call.distinct or any(k is None for k, _ in keys):
                return None
            if call.name == "array_agg":
                spec.append(("agg", call.name, operand, keys))
            elif call.name in ("min", "max", "count") and not keys:
                spec.append(("agg", call.name, operand))
            else:
                return None
        return tuple(group_specs), spec

    def _simple_cols(self, items, schema):
        """Input-column index per select item when all are plain columns."""
        if not all(isinstance(item.value, ast.BoundRef) for item in items):
            return None
        return [schema.slot(item.value) for item in items]

    # -- select-list machinery ------------------------------------------
    def _plan_srfs(self, items, schema, node):
        """Expand the UNNEST items below the projection: each one's output
        lands in the appended column its ``ref`` names."""
        srfs = [(i, item) for i, item in enumerate(items) if item.kind == SRF]
        if not srfs:
            return node, schema
        srf_fns = [
            compile_expr(item.expr.args[0], schema.slots)
            for _, item in srfs
        ]
        unnest = phys.Unnest(node, srf_fns)
        unnest.srf_positions = [i for i, _ in srfs]
        unnest.srf_args = [
            self._srf_chunk_arg(item.expr.args[0], schema) for _, item in srfs
        ]
        appended = [(item.ref.source, item.ref.column) for _, item in srfs]
        return unnest, schema + _Schema(appended)

    def _srf_chunk_arg(self, expr, schema):
        """``(itemgetter(slot), low_fn, high_fn)`` of an UNNEST argument the
        executor reads raw, its bounds once per chunk: a column, or a slice
        of one whose bounds reference no column. None for anything else."""
        bounds = (None, None)
        if isinstance(expr, ast.ArraySlice):
            expr, bounds = expr.base, (expr.low, expr.high)
            if any(b is not None and any(_refs(b)) for b in bounds):
                return None
        if not isinstance(expr, ast.BoundRef):
            return None
        fns = [None if b is None else compile_expr(b, schema.slots) for b in bounds]
        return (itemgetter(schema.slot(expr)), *fns)

    def _plan_windows(self, items, schema, node):
        wins = [item for item in items if item.kind == WINDOW]
        if not wins:
            return node, schema
        slots = schema.slots
        specs = [
            phys.WindowSpec(
                [
                    compile_expr(e, slots)
                    for e in item.expr.partition_by
                ],
                [
                    compile_expr(key.expr, slots)
                    for key in item.expr.order_by
                ],
                [key.descending for key in item.expr.order_by],
            )
            for item in wins
        ]
        appended = [(item.ref.source, item.ref.column) for item in wins]
        return phys.Window(node, specs), schema + _Schema(appended)

    # -- FROM clause ----------------------------------------------------
    def _plan_from(self, sources, conjuncts, used):
        if not sources:
            schema = _Schema([])
            filters, _, exprs = self._filters(schema, list(enumerate(conjuncts)), used)
            return phys.Result0(filters, _predicate_detail(exprs)), schema
        # Join-order heuristic: derived relations (CTEs, subqueries) first,
        # then base tables smallest first (stable), so the larger tables can
        # be probed by index nested-loop instead of scanned — this is what
        # makes "FROM knn_ea n1bb, n1" touch only |n1| rows of knn_ea and
        # "FROM lin, tgt" only |tgt| rows of lin, as the paper requires.
        # Comma joins only (ON pins order).
        if len(sources) > 1 and all(not source.on for source in sources):
            sources = [s for s in sources if s.kind != "table"] + sorted(
                (s for s in sources if s.kind == "table"),
                key=lambda s: self.catalog.get(s.name).row_count,
            )
        node, schema = self._plan_source(
            sources[0], sources[0].on, conjuncts, used
        )
        for source in sources[1:]:
            node, schema = self._plan_join(node, schema, source, conjuncts, used)
        return node, schema

    def _plan_source(self, source, on_conjuncts, conjuncts, used):
        all_conj = list(enumerate(conjuncts))
        schema = _Schema.of(source)
        if source.kind == "subquery":
            subplan = self.plan_query(source.query)
            filters, specs, _ = self._source_filters(
                schema, all_conj, on_conjuncts, used
            )
            node = phys.SubqueryScan(
                source.alias, subplan, filters, ast_ref=source.node
            )
            node.filter_specs = specs
            return node, schema
        if source.kind == "cte":
            filters, specs, pushed = self._source_filters(
                schema, all_conj, on_conjuncts, used
            )
            node = phys.CteScan(
                source.name, source.alias, filters, ast_ref=source.node,
                filter_text=_predicate_detail(pushed),
            )
            node.filter_specs = specs
            return node, schema
        table = self.catalog.get(source.name)
        pk = table.schema.primary_key
        probe = self._pk_probe(pk, source.alias, all_conj, used)
        filters, specs, _ = self._source_filters(
            schema, all_conj, on_conjuncts, used
        )
        if probe is not None:
            probe_fns = [compile_expr(probe[col], {}) for col in pk]
            node = phys.PkLookup(
                source.name, source.alias, pk, probe_fns, filters,
                ast_ref=source.node,
            )
        else:
            node = phys.SeqScan(
                source.name, source.alias, filters, ast_ref=source.node
            )
        node.filter_specs = specs
        return node, schema

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
            if (not always and idx in used) or not schema.covers(conj):
                continue
            predicates.append(compile_expr(conj, schema.slots))
            specs.append(_np_cmp(conj, schema))
            exprs.append(conj)
            if not always:
                used.add(idx)
        return predicates, specs, exprs

    def _pk_probe(self, pk, alias, indexed_conjuncts, used):
        """``{pk column: constant}`` if conjuncts pin every PK column to a
        constant (the conjuncts are then claimed), else None.

        Static classification only — a parameter's runtime value is not
        inspected here. Non-integer *literals* are rejected, matching what
        the analyzer used to prove symbolically; what a *parameter* probes
        with is decided at execution (see :class:`~plan.PkLookup`).
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
        return found

    def _pk_pin(self, conj, alias, pk):
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for col_side, const_side in (
            (conj.left, conj.right),
            (conj.right, conj.left),
        ):
            if (
                isinstance(col_side, ast.BoundRef)
                and col_side.source == alias
                and col_side.column in pk
                and self._is_constant(const_side)
            ):
                return col_side.column, const_side
        return None

    def _is_constant(self, expr) -> bool:
        if isinstance(expr, (ast.Literal, ast.Param)):
            return True
        if isinstance(expr, ast.UnaryOp):
            return self._is_constant(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            return self._is_constant(expr.left) and self._is_constant(expr.right)
        if isinstance(expr, ast.FuncCall):
            return all(self._is_constant(a) for a in expr.args)
        return False

    def _plan_join(self, left_node, left_schema, source, conjuncts, used):
        on_conjuncts = source.on
        candidates = [
            (i, c) for i, c in enumerate(conjuncts) if i not in used
        ] + [(None, c) for c in on_conjuncts]

        # --- index nested-loop join against a base table's primary key ----
        pk = ()
        if source.kind == "table":
            pk = self.catalog.get(source.name).schema.primary_key
        if pk:
            pins: dict = {}
            consumed = []
            for idx, conj in candidates:
                pin = self._inl_pin(conj, source.alias, pk, left_schema)
                if pin is not None and pin[0] not in pins:
                    pins[pin[0]] = pin[1]
                    consumed.append(idx)
            if set(pins) == set(pk):
                probe_fns = [
                    compile_expr(pins[col], left_schema.slots)
                    for col in pk
                ]
                used.update(idx for idx in consumed if idx is not None)
                schema = left_schema + _Schema.of(source)
                filters, specs, _ = self._post_join_filters(
                    schema, conjuncts, used, on_conjuncts
                )
                node = phys.IndexNestedLoop(
                    left_node, source.name, source.alias, pk, probe_fns, filters,
                    ast_ref=source.node,
                )
                node.filter_specs = specs
                probe_specs = [_np_operand(pins[col], left_schema) for col in pk]
                if all(spec is not None for spec in probe_specs):
                    node.np_probe_specs = probe_specs
                return node, schema

        # --- plan the right side, then hash or cross join -------------------
        right_node, right_schema = self._plan_source(source, [], conjuncts, used)
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
            idx, key_conj, (left_expr, right_expr) = hash_pair
            if idx is not None:
                used.add(idx)
            filters, specs, residual = self._post_join_filters(
                schema, conjuncts, used, on_conjuncts
            )
            node = phys.HashJoin(
                left_node,
                right_node,
                compile_expr(left_expr, left_schema.slots),
                compile_expr(right_expr, right_schema.slots),
                filters,
                key_text=_predicate_detail([key_conj]),
                filter_text=_predicate_detail(residual),
            )
            node.filter_specs = specs
            node.left_width = len(left_schema)
            if isinstance(left_expr, ast.BoundRef) and isinstance(
                right_expr, ast.BoundRef
            ):
                node.np_left_col = left_schema.slot(left_expr)
                node.np_right_col = right_schema.slot(right_expr)
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
            compile_expr(conj, schema.slots)
            for conj in on_conjuncts
        ]
        specs += [_np_cmp(conj, schema) for conj in on_conjuncts]
        return predicates, specs, exprs + list(on_conjuncts)

    def _inl_pin(self, conj, alias, pk, left_schema):
        """``(pk column, key expression)`` when *conj* equates a primary-key
        column of the probed source with an expression over the left row."""
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for col_side, other in ((conj.left, conj.right), (conj.right, conj.left)):
            if (
                isinstance(col_side, ast.BoundRef)
                and col_side.source == alias
                and col_side.column in pk
                and left_schema.covers(other)
            ):
                return col_side.column, other
        return None

    def _equi_pair(self, conj, left_schema, right_schema):
        """*conj*'s two sides as ``(left key, right key)`` when it equates
        an expression over the left row with one over the right row."""
        if not (isinstance(conj, ast.BinaryOp) and conj.op == "="):
            return None
        for a, b in ((conj.left, conj.right), (conj.right, conj.left)):
            if left_schema.covers(a) and right_schema.covers(b):
                return a, b
        return None


def _predicate_detail(conjuncts) -> str:
    if not conjuncts:
        return ""
    return "(" + " AND ".join(render_expr(c) for c in conjuncts) + ")"
