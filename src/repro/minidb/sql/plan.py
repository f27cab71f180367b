"""Physical plan tree: the contract between the planner and the executor.

The planner (:mod:`repro.minidb.sql.planner`) lowers the binder's tree into a
tree of the node classes below; the executor
(:mod:`repro.minidb.sql.vectorized`) interprets that tree as a pipeline of
batch generators. Nothing in this module touches storage —
a plan is a pure description with every column reference resolved to a slot
and every expression compiled to a ``fn(row, params)`` closure, so the same
plan object can be cached and re-executed with different parameter vectors
(prepared statements).

A plan carries its nodes' *prepared* state (the fields marked "Prepared"),
set once by the planner's last step, :func:`repro.minidb.sql.planner.prepare`,
from parameter-free fields; a statement binds only what reads its
parameters (slice bounds, LIMIT, probe keys) and pulls. Nothing is set
after the plan is cached, so the threads sharing it read one immutable tree.

Each node carries:

* ``name`` / ``detail`` — the operator label, identical to what the runtime
  trace shows, so ``EXPLAIN`` (static, via :func:`explain_lines`) and
  ``EXPLAIN ANALYZE`` (runtime, via the trace tree) render the same shape;
* ``ast_ref`` — the AST node the operator was lowered from, used by the
  analyzer to attach diagnostics spans to plan-derived access paths.

The access-path story (the paper's Codes 1-4) is readable straight off the
node types: :class:`PkLookup` is a single B+Tree point lookup ("exactly two
rows" per v2v query), :class:`IndexNestedLoop` probes a table by its full
primary key once per outer row ("at most ``|Lout|/|V|`` rows" per kNN
query), and :class:`SeqScan` is the full-scan fallback the label tables
must never take.
"""

from __future__ import annotations


class PlanNode:
    """Base class for physical operators."""

    name = "?"
    detail = ""
    ast_ref = None
    trace_at = None  # its slots' start in its plan's trace layout
    #: numpy comparison specs parallel to the node's ``filters`` list (an
    #: entry is ``None`` when a predicate has no array form). Set by the
    #: planner on filtering nodes; the executor evaluates present
    #: specs as boolean masks over column batches instead of calling the
    #: row closure per tuple. Purely an evaluation strategy — results are
    #: identical either way.
    filter_specs = None
    #: Prepared: the node's ``filters`` as one ``fn(row, params)`` that is
    #: true when every predicate is ``True`` (None: no filter).
    check = None

    def children(self):
        """Child operators in display order (sub-plans included)."""
        return ()

    @property
    def label(self) -> str:
        return f"{self.name} {self.detail}".rstrip()

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.label!r}>"


class QueryPlan:
    """One SELECT (or set operation): CTE sub-plans plus an operator tree.

    ``columns`` is the ordered list of output column names; the executor
    materializes each CTE once per execution, in definition order, before
    pulling from ``root``.
    """

    trace_at = None  # a CTE's sub-plan is the CTE's trace node

    def __init__(self, ctes, root, columns, ast_ref=None):
        self.ctes = ctes  # list[(name, QueryPlan)]
        self.root = root
        self.columns = columns  # list[str]
        self.ast_ref = ast_ref


class Plan:
    """A fully planned statement, ready to execute (and to cache).

    ``param_indices`` lists every ``$n`` the statement references (sorted);
    ``arity``, the shortest parameter vector that supplies them all (its
    highest ``$n``; none does when it names ``$0``), lets the executor
    reject a short vector before producing rows.
    """

    trace_layout = None  # a traced run's initial buffer (BatchExecutor), once kept

    def __init__(self, statement, param_indices=()):
        self.statement = statement  # QueryPlan or a DML/utility node
        indices = self.param_indices = tuple(param_indices)
        self.arity = float("inf") if 0 in indices else max(indices, default=0)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------
class Result0(PlanNode):
    """Empty FROM clause: one zero-column row (PostgreSQL's Result), emitted
    when every WHERE conjunct (all constant) holds."""

    name = "Result"

    def __init__(self, filters, filter_text=""):
        self.filters = filters
        self.detail = f"filter {filter_text}" if filter_text else ""


class SeqScan(PlanNode):
    name = "Seq Scan"

    def __init__(self, table, alias, filters, ast_ref=None):
        self.table = table
        self.alias = alias
        self.filters = filters  # list[fn(row, params)]
        self.ast_ref = ast_ref
        self.detail = f"on {table}"


class PkLookup(PlanNode):
    """Point lookup: every PK column pinned to a constant/parameter.

    ``probe_fns`` produce the key from the parameter vector. The probe-key
    rule is the index nested-loop join's: an integral float probes as that
    integer; NULL, a fractional float or any other value equals no BIGINT
    key, so the lookup returns no row and reads no page. There is no other
    access path behind this node.
    """

    name = "Index Scan"

    def __init__(self, table, alias, pk, probe_fns, filters, ast_ref=None):
        self.table = table
        self.alias = alias
        self.pk = pk
        self.probe_fns = probe_fns
        self.filters = filters
        self.ast_ref = ast_ref
        self.detail = f"using {table}_pkey on {table} (point lookup)"


class CteScan(PlanNode):
    name = "CTE Scan"

    def __init__(self, cte_name, alias, filters, ast_ref=None, filter_text=""):
        self.cte_name = cte_name
        self.alias = alias
        self.filters = filters
        self.ast_ref = ast_ref
        # filter_text: the pushed-down predicates, rendered for EXPLAIN.
        self.detail = f"on {cte_name}" + (
            f" filter {filter_text}" if filter_text else ""
        )


class SubqueryScan(PlanNode):
    name = "Subquery Scan"

    def __init__(self, alias, subplan, filters, ast_ref=None):
        self.alias = alias
        self.subplan = subplan  # QueryPlan
        self.filters = filters
        self.ast_ref = ast_ref
        self.detail = alias

    def children(self):
        return (self.subplan,)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
class IndexNestedLoop(PlanNode):
    """Probe a base table by its full primary key, once per outer row."""

    name = "Index Nested Loop"

    #: numpy operand specs parallel to ``probe_fns`` (planner-set when every
    #: probe-key expression lowers to the spec grammar). The batch executor
    #: then computes all probe keys of a column batch with array kernels
    #: instead of calling the per-row closures; any runtime surprise (NULL
    #: parameter, zero divisor, non-int64 result) falls back to the row
    #: closures with identical keys.
    np_probe_specs = None

    def __init__(self, left, table, alias, pk, probe_fns, filters, ast_ref=None):
        self.left = left
        self.table = table
        self.alias = alias
        self.pk = pk
        self.probe_fns = probe_fns  # evaluated against the left row
        self.filters = filters  # post-join predicates on the joined schema
        self.ast_ref = ast_ref
        self.detail = f"probe {table} by primary key ({', '.join(pk)})"

    def children(self):
        return (self.left,)


class HashJoin(PlanNode):
    """Equi-join: the right input is drained, then every left batch joins
    it and emits one output batch. The only fused form is the band merge
    (``np_band``), where the parent Aggregate drives the join."""

    name = "Hash Join"

    #: Column index of the equi-join key on each side when the key is a
    #: plain column reference (planner-set); the batch executor then joins
    #: a column batch against a columnar right side with
    #: ``npbatch.join_pairs`` (sort + ``np.searchsorted``), and any other
    #: batch through the row hash table.
    np_left_col = None
    np_right_col = None
    #: Number of columns the left input contributes to the joined schema
    #: (planner-set).
    left_width = None
    #: Band join, planner-set when the residual filter is exactly one
    #: ``L.a <op> R.b`` (``<= < >= >``) and the parent is an ungrouped
    #: MIN/MAX aggregate whose operands are an L column, an R column, or
    #: their sum/difference: ``(op, a_col, b_col, items)`` with ``a_col``
    #: indexing the left input, ``b_col`` the right, and one
    #: ``(name, l_col, r_col, minus)`` per aggregate (``minus`` is "l" or
    #: "r" for the subtracted side of a difference, else None). The
    #: Aggregate then runs ``npbatch.band_join_aggregate``, which never
    #: enumerates the joined pairs, and folds the join's rows only when
    #: that kernel declines. Purely an evaluation strategy.
    np_band = None

    def __init__(
        self, left, right, left_key, right_key, filters,
        key_text="", filter_text="",
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.filters = filters
        self.key_text = key_text  # rendered equi-join conjunct, for EXPLAIN
        self.filter_text = filter_text  # rendered residual conjuncts

    @property
    def detail(self):
        text = f"on {self.key_text}" if self.key_text else ""
        if self.filter_text:
            how = "band" if self.np_band is not None else "filter"
            text += f" {how} {self.filter_text}"
        return text.strip()

    def children(self):
        return (self.left, self.right)


class NestedLoop(PlanNode):
    name = "Nested Loop"
    detail = "(cross product)"

    def __init__(self, left, right, filters):
        self.left = left
        self.right = right
        self.filters = filters

    def children(self):
        return (self.left, self.right)


# ---------------------------------------------------------------------------
# Row pipeline
# ---------------------------------------------------------------------------
class Unnest(PlanNode):
    """Parallel set-returning expansion (PostgreSQL's ProjectSet): one kernel
    runs it, fused into the Project above or bare (under a WindowAgg or an
    Aggregate)."""

    name = "ProjectSet"

    def __init__(self, child, srf_fns):
        self.child = child
        self.srf_fns = srf_fns
        self.detail = f"(UNNEST x {len(srf_fns)})"
        #: Select-item positions the SRF outputs land in (parallel to
        #: ``srf_fns``), set by the planner. A parent Project fuses into the
        #: expansion with it: its non-SRF items are evaluated once per
        #: *input* row instead of once per output row.
        self.srf_positions = None
        #: Per SRF, ``Planner._srf_chunk_arg`` (read once per chunk) or None.
        #: These getters are the only readers that see a cell as decoded (an
        #: int64 ndarray for a long ``BIGINT[]``); ``srf_fns``, like every
        #: compiled expression, see the list.
        self.srf_args = [None] * len(srf_fns)
        #: Prepared: per SRF, ``read(row)`` of a plain-column argument (its
        #: getter) or None (a slice or an expression: bound per statement);
        #: whether the input is a point lookup (one row); fused under a
        #: Project, its non-SRF item closures and, per output column, its
        #: place in ``(base values…, SRF values…)`` (both None when bare).
        self.readers = self.base_fns = self.order = None
        self.point = False

    def children(self):
        return (self.child,)


class WindowSpec:
    """One row_number() column: partition keys plus an ordering."""

    __slots__ = ("part_fns", "order_fns", "descending")

    def __init__(self, part_fns, order_fns, descending):
        self.part_fns = part_fns
        self.order_fns = order_fns
        self.descending = descending


class Window(PlanNode):
    name = "WindowAgg"

    def __init__(self, child, specs):
        self.child = child
        self.specs = specs  # list[WindowSpec]

    def children(self):
        return (self.child,)


class Project(PlanNode):
    """Evaluate the select list: one output column per ``item_fns`` entry.

    An ORDER BY key that is not a select item is one more entry after the
    visible ones (a hidden column); the Sort/TopK above reads its keys by
    position and strips the hidden tail.
    """

    name = "Project"

    def __init__(self, child, item_fns):
        self.child = child
        self.item_fns = item_fns
        #: Input-column index per item when every select item is a plain
        #: column reference (planner-set); lets the batch executor project
        #: by tuple indexing instead of calling one closure per item.
        self.simple_cols = None
        #: Positions of ``simple_cols`` that are array-typed: tuple indexing
        #: bypasses the closures, so the projection itself turns a decoded
        #: ndarray cell into the list SQL reads.
        self.array_cols = ()

    def children(self):
        return (self.child,)


class Aggregate(PlanNode):
    """Grouped evaluation; blocking. Aggregates are columns: ``having_fn`` and
    ``item_fns`` (hidden sort columns trailing, as in :class:`Project`) are row
    closures over *the group's first input row + its aggregate values* —
    ``width`` input columns, NULL for an ungrouped aggregate over no rows.
    ``aggs[j]`` is ``(name, arg_fn, distinct, order_fns, descending)``, what the
    reference model reads; ``accs[j]`` its ``expr.accumulator``, what we fold."""

    def __init__(self, child, group_fns, aggs, accs, item_fns, having_fn, width):
        self.child = child
        self.group_fns = group_fns
        self.aggs = aggs
        self.accs = accs
        self.item_fns = item_fns
        self.having_fn = having_fn
        self.width = width
        #: numpy grouping recipe ``(group_specs, items)``, set by the
        #: planner for a HAVING-free aggregate whose keys and plain items are
        #: integer operands and whose aggregates are bare MIN/MAX/COUNT or
        #: ordered ARRAY_AGG: whole column batches then go through
        #: ``np.unique``, ``np.lexsort`` and ``reduceat``, not the fold.
        self.np_spec = None
        #: Prepared: a group's initial accumulators, ``(slot, arg_fn, step)``
        #: per aggregate (slot 0 is the group's first row), the finalizers,
        #: and whether the child is a band ``HashJoin`` this node drives.
        self.inits = self.steps = self.finals = None
        self.band = False
        if group_fns:
            self.name = "GroupAggregate"
            self.detail = f"({len(group_fns)} keys)"
        else:
            self.name = "Aggregate"

    def children(self):
        return (self.child,)


class Distinct(PlanNode):
    """Duplicate elimination over whole rows, first occurrence kept — also
    each distinct ``UNION`` (over its :class:`Union`). The binder rejects
    DISTINCT ordered by anything outside the select list, so no hidden
    column ever reaches this node."""

    name = "Unique"

    def __init__(self, child):
        self.child = child

    def children(self):
        return (self.child,)


class Sort(PlanNode):
    """Full sort; blocking. Sort key *k* of a row is ``row[positions[k]]``:
    a column of the child's row, visible or hidden. ``width`` is the number
    of visible columns when the child's rows carry hidden ones after them
    (the sort emits ``row[:width]``), else None."""

    name = "Sort"

    def __init__(self, child, positions, descending, width):
        self.child = child
        self.positions = positions
        self.descending = descending
        self.width = width
        self.detail = f"({len(positions)} keys)"

    def children(self):
        return (self.child,)


class TopK(PlanNode):
    """ORDER BY + LIMIT fused into a bounded heap (heapq.nsmallest): keeps
    offset+limit candidates instead of sorting the whole input. Same
    ``positions`` / ``width`` contract as :class:`Sort`."""

    name = "Top-K Sort"

    def __init__(self, child, positions, descending, width, limit_fn, offset_fn):
        self.child = child
        self.positions = positions
        self.descending = descending
        self.width = width
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn
        self.detail = f"({len(positions)} keys)"

    def children(self):
        return (self.child,)


class Limit(PlanNode):
    name = "Limit"

    def __init__(self, child, limit_fn, offset_fn):
        self.child = child
        self.limit_fn = limit_fn
        self.offset_fn = offset_fn

    def children(self):
        return (self.child,)


class Union(PlanNode):
    """One ``UNION ALL`` step (a distinct one is :class:`Distinct` over it);
    chains left-deep. Children are :class:`QueryPlan` (parenthesized
    operands) or plain operator nodes."""

    name = "Union All"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


# ---------------------------------------------------------------------------
# DML / utility statements
# ---------------------------------------------------------------------------
class CreateTablePlan(PlanNode):
    name = "Create Table"

    def __init__(self, stmt):
        self.stmt = stmt
        self.ast_ref = stmt
        self.detail = stmt.name


class DropTablePlan(PlanNode):
    name = "Drop Table"

    def __init__(self, table, if_exists, ast_ref=None):
        self.table = table
        self.if_exists = if_exists
        self.ast_ref = ast_ref
        self.detail = table


class InsertPlan(PlanNode):
    name = "Insert"

    def __init__(self, table, positions, width, row_fns, select, ast_ref=None):
        self.table = table
        self.positions = positions  # target slot per supplied value
        self.width = width  # total columns in the table
        self.row_fns = row_fns  # list[list[fn]] for VALUES
        self.select = select  # QueryPlan for INSERT ... SELECT
        self.ast_ref = ast_ref
        self.detail = f"on {table}"


class DeletePlan(PlanNode):
    name = "Delete"

    def __init__(self, table, where_fn, ast_ref=None):
        self.table = table
        self.where_fn = where_fn
        self.ast_ref = ast_ref
        self.detail = f"on {table}"


class UpdatePlan(PlanNode):
    name = "Update"

    def __init__(self, table, positions, value_fns, where_fn, ast_ref=None):
        self.table = table
        self.positions = positions
        self.value_fns = value_fns
        self.where_fn = where_fn
        self.ast_ref = ast_ref
        self.detail = f"on {table}"


class VacuumPlan(PlanNode):
    name = "Vacuum"

    def __init__(self, table, ast_ref=None):
        self.table = table
        self.detail = table
        self.ast_ref = ast_ref


class ExplainPlan(PlanNode):
    """EXPLAIN renders ``inner`` statically (no execution, no I/O);
    EXPLAIN ANALYZE executes it under a fresh trace collector."""

    def __init__(self, analyze, inner):
        self.analyze = analyze
        self.inner = inner  # Plan


# ---------------------------------------------------------------------------
# Static rendering (EXPLAIN without ANALYZE)
# ---------------------------------------------------------------------------
def operators(node, parent=None, query=None):
    """``(operator, label, parent, query)`` for every operator under
    *node*, parents first and siblings in order: the shape ``EXPLAIN``
    prints and the executor's trace records. A CTE is its sub-plan's
    :class:`QueryPlan`, labelled ``("CTE", name)``; *query* is the
    innermost enclosing :class:`QueryPlan` with CTEs, whose operators run
    only once that query is first pulled. ``EXPLAIN`` has none of its
    own."""
    if isinstance(node, QueryPlan):
        if node.ctes:
            query = node
        for name, sub in node.ctes:
            yield sub, ("CTE", name), parent, query
            yield from operators(sub, sub, query)
        yield from operators(node.root, parent, query)
        return
    if isinstance(node, ExplainPlan):
        return
    yield node, node, parent, query
    if isinstance(node, InsertPlan) and node.select is not None:
        yield from operators(node.select, node, query)
    for child in node.children():
        yield from operators(child, node, query)


def explain_lines(plan: Plan) -> list[str]:
    """Indented operator labels, mirroring the runtime trace tree shape."""
    node = plan.statement
    if isinstance(node, ExplainPlan):
        node = node.inner.statement
    lines: list[str] = []
    depths = {None: -1}
    for op, label, parent, _query in operators(node):
        depth = depths[op] = depths[parent] + 1
        label = " ".join(label) if type(label) is tuple else label.label
        lines.append("  " * depth + label)
    return lines
