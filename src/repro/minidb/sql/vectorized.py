"""The statement engine: a batch-at-a-time interpreter for physical plans.

Every statement a :class:`~repro.minidb.session.Session` runs — SELECT,
``INSERT … SELECT``, DML, DDL, ``VACUUM``, ``EXPLAIN ANALYZE`` — executes
here. Operators exchange **batches** instead of single rows, in exactly two
shapes: a list of up to ``batch_size`` row tuples, or a
:class:`~repro.minidb.sql.npbatch.ColumnChunk` of int64 columns (which
iterates as the same tuples). The per-pull bookkeeping — one generator
round trip, plus one trace window when tracing (two clock reads; eight
counter reads more where pages are touched) — amortizes over the whole
batch, an operator that makes at most one chunk opens a single window, and
hot inner loops run as list comprehensions or array kernels. For the
paper's CPU-bound families (kNN/OTM on SSD, Figures 7-8) that interpreter
overhead dominates, exactly the effect MonetDB/X100 vectorization removes.

An ORDER BY key is a column of the row under the sort — a select item, or a
hidden item the projection/aggregate computes after the visible ones — so
ordered and unordered queries run the same producers; ``Sort``/``Top-K``
read keys by position and strip the hidden tail. An aggregate is a column
too: the one ``Aggregate`` operator folds every grouped statement into one
accumulator per call and group, and evaluates ``HAVING`` and the select
items as ordinary row closures over *first row of the group + aggregate
values* — no group's rows are kept.

There is one hash join, one aggregate, one expansion kernel (for every
``ProjectSet``) and one ``Unique`` (also for a distinct ``UNION``). The hash
join drains its right input and joins each left batch either as columns
(``npbatch.join_pairs``, one gather per column, the residual filter as a
mask) or through the row hash table; the aggregate buffers column batches
for one ``npbatch.group_aggregate`` and folds anything else through its
accumulators. On top of plain batching, fused kernels cover the paper's
hot patterns (the planner marks the plans; see ``plan.py``):

* **hub intersection** — an ``Aggregate`` over a *band* ``HashJoin``
  (Code 1's ``UNNEST(lhubs) ⋈ UNNEST(rhubs)`` on ``key = key AND a <= b``
  under MIN/MAX) runs as the band merge and never forms a pair; only when
  that kernel declines does the hash join run, its rows folded by the
  aggregate;
* **array expansion** — ``Project`` over ``Unnest`` (the ``a[1:k]`` slice +
  ``FLOOR`` projection of Codes 2-4) runs inside the expansion kernel,
  which evaluates non-SRF items once per *input* row and emits a chunk's
  array elements column-wise, as ``ColumnChunk``s, when all its values are
  int64 and row by row when they are not (values + offsets: ``values``);
* **index nested loop** — emits ``BIGINT[]`` as values + offsets columns;
* **cross product** — a nested loop over a ``ColumnChunk`` and exact-int64
  right rows is ``np.repeat``/``np.tile`` columns and one filter mask;
* **batched Top-K / aggregate accumulation** — bounded-heap and
  accumulator updates per batch instead of per pulled row.

Fusion never crosses an I/O-performing operator, so per-operator I/O
attribution (and the analyzer's access-path proof) is unchanged: fused
interior operators still appear in the trace with their row counts, but
with zero self cost (their kernel time lands on the fusing parent).

Whether a batch travels as a ``ColumnChunk`` is decided by the data, never
by a switch: producers check eligibility once per chunk and every numpy
kernel either returns the row loop's exact result or declines, in which
case the same compiled row closures run on the same batch.

The row-at-a-time interpreter the equivalence suites run the same plans
on to pin rows and page I/O is a test fixture, not part of the engine
(``tests/minidb/row_executor.py``, driven by ``tests/minidb/reference.py``).
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import chain, compress, repeat, zip_longest
from operator import is_not, itemgetter

import numpy as np

from repro.errors import SQLError, SQLTypeError
from repro.minidb.catalog import owned
from repro.minidb.metrics import (
    CTE, LEAF_VISITS, LOOPS, PAGES, PLAIN, PROBES, PROBING, PULLS, ROWS, TIME,
    TraceCollector, render_plan,
)
from repro.minidb.sql import npbatch
from repro.minidb.sql import plan as phys
from repro.minidb.sql.result import _DONE, Result
from repro.minidb.sql.npbatch import ColumnChunk
from repro.minidb.sql.expr import (
    array_cut, composite_key, element_keys, hashable, sort_rows,
)

#: Rows per batch exchanged between operators (``db.batch_size``).
DEFAULT_BATCH_SIZE = 1024
#: Heap-scan readahead depth in pages (``db.readahead``; 0 disables).
DEFAULT_READAHEAD = 8
#: Rows from which an aggregate's first row batch is converted to columns
#: for ``group_aggregate``; a shorter one folds through the accumulators,
#: whose per-row cost stays under the kernel's fixed cost up to about 16
#: rows (docs/PERFORMANCE.md, "A write statement's fixed cost").
NP_AGG_MIN = 20


def _traced_batches(at, gen, collector):
    """Per-*batch* accounting: one trace window per pull, its bookkeeping
    amortized over up to ``batch_size`` rows. ``PULLS`` counts batches so
    traces expose rows-per-pull; a parent's window contains its children's
    (the ``self_*`` properties subtract them back out).
    """
    pull = partial(next, gen, _DONE)
    window, buf = collector.window, collector.buf
    pulls, rows = at + PULLS, at + ROWS
    try:
        while True:
            chunk = window(at, pull)
            if chunk is _DONE:
                return
            buf[pulls] += 1
            buf[rows] += len(chunk)
            yield chunk
    finally:
        gen.close()


def _once(pull, at, collector):
    """The batch stream of an operator that makes at most one chunk — a
    point lookup, its expansion, a scalar aggregate, a scan of a one-chunk
    CTE: ``pull()`` returns it in a list, or an empty list. Traced, that
    call is the single window of the node at *at*: none opens just to find
    it exhausted."""
    if collector is None:
        chunks = pull()
    elif chunks := collector.window(at, pull):
        collector.buf[at + PULLS] += 1
        collector.buf[at + ROWS] += len(chunks[0])
    yield from chunks


#: The trace node kind of each operator that is not ``PLAIN``: the ones
#: that touch pages, and a CTE (its sub-plan's ``QueryPlan``).
_TRACE_KINDS = dict.fromkeys(
    (phys.SeqScan, phys.PkLookup, phys.InsertPlan, phys.DeletePlan, phys.UpdatePlan,
     phys.VacuumPlan, phys.CreateTablePlan, phys.DropTablePlan), PAGES,
) | {phys.IndexNestedLoop: PROBING, phys.QueryPlan: CTE}


def _trace_layout(plan):
    """*plan*'s initial trace buffer: one node per operator of
    :func:`phys.operators`, whose ``trace_at`` it sets. A node under a
    query with CTEs names that query's first CTE as its owner, that CTE
    itself included: it ran only if that CTE was materialized. The plan
    keeps it from its second traced run on, so a plan that runs once (a
    target-set build's, which name fresh tables) holds none."""
    layout = plan.trace_layout
    if not layout:  # None: never traced; False: traced once
        collector = TraceCollector()
        for op, label, parent, query in phys.operators(plan.statement):
            owner = None if query is None else query.ctes[0][1]
            op.trace_at = collector.node(
                label,
                None if parent is None else parent.trace_at,
                _TRACE_KINDS.get(type(op), PLAIN),
                len(collector.buf) if owner is op else owner and owner.trace_at,
            )
        layout = collector.buf
        plan.trace_layout = plan.trace_layout is False and layout
    return layout


def _probe_key(parts):
    """The B+Tree key a join probes with, or ``None`` when no key can match:
    integers probe as themselves, an integral float as that integer; a
    NULL, a fractional float or any other value equals no BIGINT key."""
    key = []
    for part in parts:
        if isinstance(part, float) and part.is_integer():
            part = int(part)
        if not isinstance(part, int):
            return None
        key.append(part)
    return tuple(key)


#: What UNNEST expands: a Python or numpy array (NULL is the empty array).
_ARRAYS = frozenset((list, tuple, np.ndarray))
_INT64 = {np.dtype(np.int64)}


def _columns(arrays):
    """*arrays* as int64 columns (an ndarray as itself) when they are equally
    long and hold exact ``int``s inside int64; else None."""
    if not set(map(type, arrays)) <= _ARRAYS or len(set(map(len, arrays))) > 1:
        return None
    lists = [a for a in arrays if type(a) is not np.ndarray]
    if not set(map(type, chain.from_iterable(lists))) <= {int}:
        return None
    cols = list(map(np.asarray, arrays))
    return cols if {col.dtype for col in cols} == _INT64 else None


def _array_block(values, bases, counts, order):
    """A chunk as columns — each base item (*bases*: its values, one per row
    of *counts*) repeated by *counts*, then each SRF's *values*, placed by
    *order* (``Unnest.order``) — or None (row by row) when *values* are None
    or not int64 (a parameter's ndarray) or a base value is not an exact int64."""
    cols = _columns(bases) if bases else ()
    if values is None or cols is None or not {v.dtype for v in values} <= _INT64:
        return None
    cols = [*map(np.repeat, cols, repeat(counts)), *values]
    return ColumnChunk(cols if order is None else [cols[at] for at in order])


def _srf_cells(readers, rows):
    """Per SRF, its argument's array in each of *rows* (NULL: ``()``), read
    by *readers* (:meth:`BatchExecutor._srf_readers`), and whether every
    list element is an exact ``int`` (int64 would read ``1.5`` as ``1``)."""
    out = [list(map(read, rows)) for read in readers]
    kinds = set(map(type, chain.from_iterable(out)))
    if not kinds <= _ARRAYS:
        for cell in chain.from_iterable(out):  # NULLs, or a value UNNEST cannot expand
            if cell is not None and not isinstance(cell, tuple(_ARRAYS)):
                raise SQLTypeError(f"UNNEST expects an array, got {cell!r}")
        out = [[() if cell is None else cell for cell in cells] for cells in out]
    elif kinds == {np.ndarray}:  # no list elements to test
        return out, True
    lists = [cell for cell in chain.from_iterable(out) if type(cell) is not np.ndarray]
    return out, set(map(type, chain.from_iterable(lists))) <= {int}


def _as_list(array):
    """An array cell as SQL reads it: an int64 ndarray becomes its list."""
    return array.tolist() if type(array) is np.ndarray else array


def _lists(cells):
    """A column of array cells with every int64 ndarray as its list."""
    return list(map(_as_list, cells)) if np.ndarray in set(map(type, cells)) else cells


def _joined(pieces):
    """Output pieces of one kind (``ColumnChunk``s or row lists) as one."""
    if type(pieces[0]) is ColumnChunk:
        return npbatch.concat(pieces)
    return list(chain.from_iterable(pieces))


class BatchExecutor:
    """Executes one planned statement (any kind) against a catalog."""

    def __init__(
        self,
        catalog,
        params: tuple = (),
        collector=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        readahead: int = 0,
    ):
        self.catalog = catalog
        self.params = tuple(params)
        self.collector = collector
        self.buf = None  # the collector's: an operator's slots from its trace_at
        self.batch_size = max(1, int(batch_size))
        self.readahead = max(0, int(readahead))
        #: Per-statement INL probe memo by plan-node id: repeated probe
        #: keys hit the memo instead of the index.
        self._inl_caches: dict = {}

    # -- public entry point ---------------------------------------------
    def run(self, plan: phys.Plan) -> Result:
        given = len(self.params)
        if given < plan.arity:
            index = next(i for i in plan.param_indices if i > given)
            raise SQLError(
                f"parameter ${index} not supplied ({given} parameters given)"
            )
        if self.collector is not None:
            self.buf = self.collector.buf = _trace_layout(plan)[:]
        node = plan.statement
        if isinstance(node, phys.QueryPlan):
            return Result(list(node.columns), self._drain(node))
        run = self._RUN.get(type(node))
        if run is None:
            raise SQLError(f"cannot execute {type(node).__name__}")
        if self.collector is None or type(node) is phys.ExplainPlan:
            return run(self, node)
        # A statement that writes (DDL, DML, VACUUM) is the one window of
        # its plan node, which touches pages; its rows are the count.
        result = self.collector.window(node.trace_at, partial(run, self, node))
        self.buf[node.trace_at + ROWS] = result.rows[0][0] if result.columns else 0
        return result

    def _drain(self, qplan: phys.QueryPlan) -> list[tuple]:
        """Run a SELECT to completion and return all of its rows."""
        rows: list[tuple] = []
        for chunk in self._emit_query(qplan, {}, None):
            rows.extend(chunk)
        return rows

    # -- utility statements ----------------------------------------------
    def _run_explain(self, node: phys.ExplainPlan) -> Result:
        """Plain EXPLAIN renders statically (no execution, no I/O); EXPLAIN
        ANALYZE runs the statement under the statement's trace collector
        (a fresh one when not tracing), so its trace is the inner one."""
        if not node.analyze:
            lines = phys.explain_lines(node.inner)
            return Result(["plan"], [(line,) for line in lines])
        collector, pool = self.collector, self.catalog.pool
        if collector is None:
            collector = TraceCollector(pool.thread_stats(), pool.disk.thread_stats())
        inner = BatchExecutor(
            self.catalog,
            self.params,
            collector=collector,
            batch_size=self.batch_size,
            readahead=self.readahead,
        )
        inner.run(node.inner)
        lines = render_plan(collector.tree(), analyze=True)
        return Result(["plan"], [(line,) for line in lines])

    def _run_create(self, node: phys.CreateTablePlan) -> Result:
        from repro.minidb.catalog import TableSchema
        from repro.minidb.values import Column, type_from_name

        stmt = node.stmt
        columns = [
            Column(c.name, type_from_name(c.type_name)) for c in stmt.columns
        ]
        schema = TableSchema(stmt.name, columns, stmt.primary_key)
        self.catalog.create_table(schema, if_not_exists=stmt.if_not_exists)
        return Result([], [])

    def _run_drop(self, node: phys.DropTablePlan) -> Result:
        self.catalog.drop_table(node.table, if_exists=node.if_exists)
        return Result([], [])

    def _run_vacuum(self, node: phys.VacuumPlan) -> Result:
        return Result(["rows"], [(self.catalog.get(node.table).vacuum(),)])

    # -- DML --------------------------------------------------------------
    def _run_insert(self, node: phys.InsertPlan) -> Result:
        table = self.catalog.get(node.table)
        params = self.params
        if node.select is not None:
            # The whole source is materialized before the first insert:
            # a statement that reads the table it writes must not see
            # its own rows.
            source_rows = self._drain(node.select)
        else:
            source_rows = [
                tuple(fn((), params) for fn in fns) for fns in node.row_fns
            ]
        # The binder checked every source row's width (SEM005).
        rows = []
        for source in source_rows:
            row = [None] * node.width
            for position, value in zip(node.positions, source):
                row[position] = value
            rows.append(row)
        return Result(["count"], [(len(table.insert_many(rows)),)])

    def _run_delete(self, node: phys.DeletePlan) -> Result:
        table = self.catalog.get(node.table)
        victims = self._matching_rows(table, node.where_fn)
        for rid, row in victims:
            table.delete_row(rid, row)
        return Result(["count"], [(len(victims),)])

    def _run_update(self, node: phys.UpdatePlan) -> Result:
        table = self.catalog.get(node.table)
        params = self.params
        victims = self._matching_rows(table, node.where_fn)
        for rid, row in victims:
            new_row = list(row)
            for position, fn in zip(node.positions, node.value_fns):
                new_row[position] = fn(row, params)  # sees the old row
            table.update_row(rid, row, tuple(new_row))
        return Result(["count"], [(len(victims),)])

    def _matching_rows(self, table, where_fn):
        params = self.params
        matches = []
        for rid, raw in table.heap.scan():
            row = table.decode(raw)
            if where_fn is None or where_fn(row, params) is True:
                matches.append((rid, row))
        return matches

    _RUN = {
        phys.ExplainPlan: _run_explain,
        phys.CreateTablePlan: _run_create,
        phys.DropTablePlan: _run_drop,
        phys.InsertPlan: _run_insert,
        phys.DeletePlan: _run_delete,
        phys.UpdatePlan: _run_update,
        phys.VacuumPlan: _run_vacuum,
    }

    # -- tracing helpers -------------------------------------------------
    def _traced(self, node, gen, once=False):
        """*gen*'s batches, charged to *node* when tracing: a window per
        pull, or a single one when *gen* yields at most *once*."""
        if self.collector is None:
            return gen
        if once:
            return _once(partial(list, gen), node.trace_at, self.collector)
        return _traced_batches(node.trace_at, gen, self.collector)

    def _chunk_size(self, hint):
        """Rows per source batch; a LIMIT hint shrinks it so small limits
        over big tables do not read pages a row-at-a-time pull would not."""
        if hint is None:
            return self.batch_size
        return max(1, min(self.batch_size, hint))

    def _slices(self, rows, size=None):
        """*rows* (a list or one ``ColumnChunk``) in pieces of *size*
        (``batch_size`` unless a LIMIT hint made it smaller)."""
        size = size or self.batch_size
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def _filter_chunk(self, chunk, check, specs):
        """The rows of *chunk* that pass *check*: a ``ColumnChunk`` is
        masked by the predicates' array form (*specs*) when every one has
        it, anything else goes through the row closure."""
        params = self.params
        if type(chunk) is ColumnChunk:
            mask = npbatch.eval_masks(specs, chunk.cols, params, len(chunk))
            if mask is not None:
                return chunk.take(mask)
        return [row for row in chunk if check(row, params)]

    def _const_int(self, fn):
        value = fn((), self.params)
        if not isinstance(value, int) or value < 0:
            raise SQLError(
                f"LIMIT/OFFSET must be a non-negative integer, got {value!r}"
            )
        return value

    # -- query interpretation -------------------------------------------
    def _emit_query(self, qplan: phys.QueryPlan, env: dict, hint):
        if not qplan.ctes:
            return self._emit(qplan.root, env, hint)
        env = dict(env)

        def gen():
            for name, sub in qplan.ctes:
                # Materialized eagerly and whole. Draining is all it does, so
                # its figures are its root's (time included: it shares its
                # child's window edges); the trace records that it ran.
                chunks = list(self._emit_query(sub, env, None))
                if self.buf is not None:
                    self.buf[sub.trace_at + LOOPS] = 1
                if len(chunks) == 1:  # scanned as the chunk it is: n1b's arms share it
                    env[name] = chunks[0]
                elif chunks and all(type(c) is ColumnChunk for c in chunks):
                    env[name] = npbatch.concat(chunks)  # scans slice and mask it
                else:
                    env[name] = list(chain.from_iterable(chunks))
            yield from self._emit(qplan.root, env, hint)

        return gen()

    def _emit(self, node, env, hint):
        if isinstance(node, phys.QueryPlan):
            return self._emit_query(node, env, hint)
        return self._EMIT[type(node)](self, node, env, hint)

    # -- scans -----------------------------------------------------------
    def _emit_result0(self, node, env, hint):
        check, params = node.check, self.params

        def fetch():
            return [[()]] if check is None or check((), params) else []

        return _once(fetch, node.trace_at, self.collector)

    def _scan_chunks(self, table, check, hint):
        """Batched heap scan with buffer-pool readahead.

        A row-limit hint disables readahead: a bounded query may stop
        mid-table, and prefetching past the stopping page would charge
        reads a row-at-a-time pull never performs. Page-I/O parity with
        the reference model is a harder invariant than prefetch
        throughput.
        """
        params = self.params
        size = self._chunk_size(hint)
        readahead = self.readahead if hint is None else 0

        def gen():
            scan = table.scan(readahead=readahead)
            chunk: list[tuple] = []
            try:
                if check is not None:
                    for row in scan:
                        if check(row, params):
                            chunk.append(row)
                            if len(chunk) >= size:
                                yield chunk
                                chunk = []
                else:
                    for row in scan:
                        chunk.append(row)
                        if len(chunk) >= size:
                            yield chunk
                            chunk = []
                if chunk:
                    yield chunk
            finally:
                scan.close()

        return gen()

    def _emit_seq_scan(self, node, env, hint):
        table = self.catalog.get(node.table)
        return self._traced(node, self._scan_chunks(table, node.check, hint))

    def _emit_pk_lookup(self, node, env, hint):
        params, check = self.params, node.check
        table = self.catalog.get(node.table)

        def fetch():
            key = _probe_key([fn((), params) for fn in node.probe_fns])
            if key is not None:  # else it equals no key: no row, no page read
                row = table.lookup(key)
                if row is not None and (check is None or check(row, params)):
                    return [[row]]
            return []

        return _once(fetch, node.trace_at, self.collector)

    def _emit_cte_scan(self, node, env, hint):
        check = node.check
        size = self._chunk_size(hint)
        rows = env[node.cte_name]

        def scan(chunk):
            if check is not None:
                chunk = self._filter_chunk(chunk, check, node.filter_specs)
            return [chunk] if len(chunk) else []

        if len(rows) <= size:
            return _once(partial(scan, rows), node.trace_at, self.collector)
        return self._traced(
            node, (chunk for piece in self._slices(rows, size) for chunk in scan(piece))
        )

    def _emit_subquery_scan(self, node, env, hint):
        check = node.check
        inner = self._emit_query(
            node.subplan, env, hint if check is None else hint and 1
        )
        return self._traced(
            node, self._filtered(inner, check, node.filter_specs)
        )

    def _filtered(self, child, check, specs):
        """*child*'s batches with only the rows passing *check* (None: the
        same chunk objects flow upward)."""
        try:
            if check is None:
                yield from child
                return
            for chunk in child:
                kept = self._filter_chunk(chunk, check, specs)
                if len(kept):
                    yield kept
        finally:
            child.close()

    # -- joins -----------------------------------------------------------
    def _emit_inl(self, node, env, hint):
        buf, at = self.buf, node.trace_at
        left = self._emit(node.left, env, hint and 1)
        table = self.catalog.get(node.table)
        params = self.params
        probe_fns, check = node.probe_fns, node.check
        probe_specs, types = node.np_probe_specs, table.schema.types

        def gen():
            # key -> matching row (None = absent), for the whole statement.
            memo = self._inl_caches.setdefault(id(node), {})
            try:
                for chunk in left:
                    keys = None
                    if probe_specs is not None and isinstance(chunk, ColumnChunk):
                        # Whole-batch probe keys: one array evaluation per
                        # key column instead of a closure tree per row.
                        keys = npbatch.eval_keys(
                            probe_specs, chunk.cols, params, len(chunk)
                        )
                    if keys is None:
                        keys = [
                            _probe_key([fn(row, params) for fn in probe_fns])
                            for row in chunk
                        ]
                    # The chunk's unseen keys go to the index together, in
                    # key order: neighbours share a leaf and a heap page.
                    fresh = set(keys).difference(memo)
                    fresh.discard(None)
                    fresh = sorted(fresh)
                    matches, descents = table.lookup_many(fresh)
                    memo.update(zip(fresh, matches))
                    if buf is not None:
                        buf[at + LOOPS] += len(keys)
                        buf[at + PROBES] += len(fresh)
                        buf[at + LEAF_VISITS] += descents
                    matches = list(map(memo.get, keys))
                    rows = [m for m in matches if m is not None]
                    cols = type(chunk) is ColumnChunk and rows and npbatch.row_columns(rows, types)
                    if cols:
                        hits = np.fromiter(map(is_not, matches, repeat(None)), bool)
                        out = npbatch.ArrayChunk([c[hits] for c in chunk.cols] + cols, len(rows))
                    else:
                        out = [r + owned(m) for r, m in zip(chunk, matches) if m is not None]
                    if check is not None and out:
                        out = self._filter_chunk(out, check, node.filter_specs)
                    if len(out):
                        yield out
            finally:
                left.close()

        return self._traced(node, gen())

    def _build_buckets(self, right_chunks, right_key):
        """The row hash table: the right rows by their key, each key made
        hashable (an array cell is its tuple); a NULL key matches nothing."""
        params = self.params
        buckets: dict = {}
        for chunk in right_chunks:
            keys = hashable([right_key(row, params) for row in chunk])
            for key, row in zip(keys, chunk):
                if key is not None:
                    buckets.setdefault(key, []).append(row)
        return buckets

    def _emit_hash_join(self, node, env, hint):
        left = self._emit(node.left, env, hint and 1)
        right = self._emit(node.right, env, None)

        def gen():
            try:
                yield from self._hash_join(node, left, right)
            finally:
                left.close()
                right.close()

        return self._traced(node, gen())

    def _hash_join(self, node, left, right):
        """The one hash join: drain *right*, then one output batch per
        *left* batch that joins anything.

        A ``ColumnChunk`` left batch against an all-columnar right side
        with plain-column keys joins as :func:`npbatch.join_pairs` — one
        gather per column, then the residual filter as a mask; any other
        batch probes the row hash table, built on first use. Both give the
        rows in the same order. An empty right side still reads the whole
        left side.
        """
        params, check = self.params, node.check
        right_chunks = [chunk for chunk in right if len(chunk)]
        right_cols = None
        if node.np_left_col is not None and right_chunks and all(
            type(chunk) is ColumnChunk for chunk in right_chunks
        ):
            right_cols = npbatch.concat(right_chunks).cols
        buckets = None
        for chunk in left:
            if not right_chunks:
                continue
            if right_cols is not None and type(chunk) is ColumnChunk:
                li, ri = npbatch.join_pairs(
                    chunk.cols[node.np_left_col], right_cols[node.np_right_col]
                )
                out = ColumnChunk(
                    [col[li] for col in chunk.cols] + [col[ri] for col in right_cols],
                    n=len(li),
                )
            else:
                if buckets is None:
                    buckets = self._build_buckets(right_chunks, node.right_key)
                keys = hashable([node.left_key(row, params) for row in chunk])
                out = [
                    row + match
                    for key, row in zip(keys, chunk)
                    for match in buckets.get(key, ())  # no NULL key is in it
                ]
            if check is not None and len(out):
                out = self._filter_chunk(out, check, node.filter_specs)
            if len(out):
                yield out

    def _emit_nested_loop(self, node, env, hint):
        left = self._emit(node.left, env, hint and 1)
        right = self._emit(node.right, env, None)
        params, check = self.params, node.check
        size = self.batch_size

        def gen():
            try:
                right_rows: list[tuple] = []
                for chunk in right:
                    right_rows.extend(chunk)
                right_cols = _columns(list(zip(*right_rows))) if right_rows else None
                for chunk in left:
                    if right_cols is not None and type(chunk) is ColumnChunk:
                        # Left-major cross product as columns, masked whole,
                        # built for as many left rows as fill one batch.
                        m = len(right_rows)
                        step = max(1, size // m)
                        for start in range(0, len(chunk), step):
                            part = chunk[start : start + step]
                            cross = ColumnChunk(
                                [np.repeat(col, m) for col in part.cols]
                                + [np.tile(col, len(part)) for col in right_cols]
                            )
                            if check is not None:
                                cross = self._filter_chunk(cross, check, node.filter_specs)
                            yield from self._slices(cross)
                        continue
                    out = []
                    for left_row in chunk:
                        for right_row in right_rows:
                            row = left_row + right_row
                            if check is None or check(row, params):
                                out.append(row)
                        if len(out) >= size:
                            yield out
                            out = []
                    if out:
                        yield out
            finally:
                left.close()
                right.close()

        return self._traced(node, gen())

    # -- row pipeline -----------------------------------------------------
    def _srf_readers(self, unode):
        """Per SRF, ``read(row)``: its argument's array in *row*. A column
        is read raw by the plan's reader (``unode.readers``), so a long
        ``BIGINT[]`` stays the int64 ndarray it decoded to; any other
        argument's reader is bound to this statement's parameters
        (:meth:`_bound_reader`)."""
        readers = unode.readers
        if None not in readers:
            return readers
        return [
            read or self._bound_reader(arg, fn)
            for read, arg, fn in zip(readers, unode.srf_args, unode.srf_fns)
        ]

    def _bound_reader(self, arg, fn):
        """A constant-bound slice of a column (*arg*, ``Unnest.srf_args``)
        read raw (:meth:`_cut`), or, without *arg*, the row closure *fn*."""
        params = self.params
        if arg is None:
            return lambda row: fn(row, params)
        cut, getter = self._cut(arg), itemgetter(arg[0])
        if cut is None:
            return lambda row: None
        return lambda row: None if (c := getter(row)) is None else c[cut]

    def _cut(self, arg):
        """*arg*'s (``Unnest.srf_args``) slice; None: a NULL bound."""
        _, low, high = arg
        lo = 1 if low is None else low((), self.params)
        hi = None if high is None else high((), self.params)
        if lo is None or (high is not None and hi is None):
            return None
        return array_cut(lo, hi)

    def _emit_unnest(self, node, env, hint):
        """A bare ProjectSet (under a WindowAgg or an Aggregate)."""
        return self._traced(node, self._project_set(node, env, hint), node.point)

    def _emit_window(self, node, env, hint):
        """``ROW_NUMBER() OVER (...)``; blocking.

        Each spec is one stable sort of the input's indices plus a counter
        per partition key; the number is appended to the row *in place*, so
        the operator never holds its input and its output side by side.
        (Later specs evaluate on the extended rows: their closures index
        input columns by position, which appending does not move.)
        """
        child = self._emit(node.child, env, None)
        params = self.params
        size = self.batch_size

        def gen():
            rows: list[tuple] = []
            try:
                for chunk in child:
                    rows.extend(chunk)
            finally:
                child.close()
            for spec in node.specs:
                keys = [
                    tuple(fn(row, params) for fn in spec.order_fns)
                    for row in rows
                ]
                ordered = sort_rows(
                    range(len(rows)),
                    len(spec.order_fns),
                    keys,
                    spec.descending,
                )
                counters: dict = {}
                for i in ordered:
                    row = rows[i]
                    part = hashable(
                        tuple(fn(row, params) for fn in spec.part_fns)
                    )
                    counters[part] = number = counters.get(part, 0) + 1
                    rows[i] = row + (number,)
            # Emit in input order, releasing each slice as it is yielded
            # (popping from the tail of the reversed list is O(slice)), so
            # rows a consumer discards are freed while later ones wait.
            rows.reverse()
            while rows:
                chunk = rows[-size:]
                del rows[-size:]
                chunk.reverse()
                yield chunk

        return self._traced(node, gen())

    def _emit_project(self, node, env, hint):
        unode = node.child
        if not isinstance(unode, phys.Unnest):
            child = self._emit(unode, env, hint)
            return self._traced(node, self._projected(node, child))
        gen = self._project_set(unode, env, hint)
        # One input row expands into one chunk; a point lookup has one.
        return self._traced(node, gen, unode.point)

    def _projected(self, node, child):
        """*child*'s batches through *node*'s select list."""
        params = self.params
        item_fns = node.item_fns
        simple_cols = node.simple_cols
        try:
            for chunk in child:
                if simple_cols is None:
                    yield [
                        tuple(fn(row, params) for fn in item_fns)
                        for row in chunk
                    ]
                elif isinstance(chunk, ColumnChunk):
                    # Column projection: reindex the array list, zero
                    # copies, zero per-row work.
                    yield chunk.project(simple_cols)
                else:  # column by column: no per-row tuple building
                    cols = [map(itemgetter(i), chunk) for i in simple_cols]
                    for at in node.array_cols:
                        cols[at] = _lists(list(cols[at]))
                    yield list(zip(*cols))
        finally:
            child.close()

    def _project_set(self, unode, env, hint):
        """The array-expansion kernel every ProjectSet runs through.

        Fused under a Project (Codes 2-4), the non-SRF items of its select
        list (``unode.base_fns``) are the base items, evaluated once per
        input row that expands to anything, and *unode* is a fused trace
        node; bare, the input columns are the base items.

        An input chunk at a time, as values + lengths per SRF: a
        ``ColumnChunk``'s ``ArrayColumn``s cut by their constant bounds, any
        other chunk's SRF arguments read once (:func:`_srf_cells`) and, if
        their list elements are exact ints, converted by
        ``npbatch.array_values``. Int64 values and base values,
        each row's SRFs of one length, make columns (:func:`_array_block`);
        any other chunk expands row by row. Output breaks at each switch
        between the two and at the first input-row boundary with
        ``batch_size`` rows buffered. Under a LIMIT *hint* the source is
        pulled one row at a time and the buffer flushes at the hint: no
        page is read that a row-at-a-time pull would not read.
        """
        base_fns, order = unode.base_fns, unode.order  # bare: both None
        fused = order is not None
        child = self._emit(unode.child, env, None if hint is None else 1)
        params = self.params
        readers = self._srf_readers(unode)
        args, base_cols, cuts = unode.srf_args, unode.base_cols, None
        if not unode.point and None not in args and (base_cols is not None or not fused):
            cuts = [self._cut(arg) for arg in args]

        def bases_of(rows):
            """Per base item, its values in *rows*."""
            if fused:
                return [[fn(row, params) for row in rows] for fn in base_fns]
            return list(zip(*rows))

        def arrange(values):
            return values if order is None else [values[at] for at in order]

        buf, fused_at = (self.buf if fused else None), unode.trace_at
        if buf is not None:
            buf[fused_at + TIME] = None  # fused: its time is its children's

        def emitted(out):
            # A fused node counts what its Project emits; a bare one is
            # traced by its own window.
            if buf is not None:
                buf[fused_at + ROWS] += len(out)
            return out

        size = self._chunk_size(hint)

        def gen():
            held: list = []  # output pieces not yet yielded, all one kind
            held_len = 0
            try:
                for chunk in child:
                    arrays = cuts and isinstance(chunk, ColumnChunk) and [chunk.cols[arg[0]] for arg in args]
                    if arrays and set(map(type, arrays)) == {npbatch.ArrayColumn}:
                        rows = None  # values + offsets in: each SRF's cut
                        parts = list(map(npbatch.ArrayColumn.cut, arrays, cuts))
                        values, lens = [v for v, _ in parts], [n.tolist() for _, n in parts]
                    else:
                        rows = list(chunk)
                        cells, ints = _srf_cells(readers, rows)
                        if ints:
                            values, lens = npbatch.array_values(cells)
                            lens = lens if type(lens) is list else lens.tolist()
                        else:  # row by row: no int64 cast of other elements
                            values, lens = None, [list(map(len, column)) for column in cells]
                    lengths = lens[0]
                    if lens.count(lengths) < len(lens):  # NULL padding: row by row
                        values, lengths = None, list(map(max, *lens))
                    reps = list(filter(None, lengths))  # the rows that expand
                    if not reps:
                        continue
                    if rows is None:  # every row's base columns
                        cols = chunk.cols if base_cols is None else [chunk.cols[i] for i in base_cols]
                        block = _array_block(values, cols, lengths, order)
                    else:  # the base items of the rows that expand
                        if len(reps) < len(rows):
                            rows = list(compress(rows, lengths))
                            cells = [list(compress(column, lengths)) for column in cells]
                        bases = bases_of(rows)
                        block = _array_block(values, bases, reps, order)
                    if block is None:  # the chunk row by row, NULL-padded
                        if rows is None:
                            rows = list(compress(chunk, lengths))
                            cells, bases = _srf_cells(readers, rows)[0], bases_of(rows)
                        block = []
                        for j, row_cells in enumerate(zip(*cells)):
                            base = tuple([column[j] for column in bases])
                            for elements in zip_longest(*map(_as_list, row_cells)):
                                block.append(tuple(arrange(base + elements)))
                    if held and type(held[0]) is not type(block):
                        yield emitted(_joined(held))
                        held, held_len = [], 0
                    start = end = 0  # block[start:end]: rows not yet held
                    for n in reps:  # cut at input-row boundaries only
                        end += n
                        held_len += n
                        if held_len >= size:
                            held.append(block[start:end])
                            start = end
                            yield emitted(_joined(held))
                            held, held_len = [], 0
                    if end > start:
                        held.append(block[start:end] if start else block)
                if held:
                    yield emitted(_joined(held))
            finally:
                child.close()

        return gen()

    # -- aggregation ------------------------------------------------------
    def _emit_aggregate(self, node, env, hint):
        """Fold rows into per-group accumulators as batches arrive; filter
        (HAVING) and project when the input ends.

        A group keeps its first input row and one accumulator per aggregate
        (a ``DISTINCT``/``ORDER BY`` one holds that call's ``(keys, value)``
        pairs — never the group's rows). Over a band ``Hash Join`` this is
        the fused hub-intersection kernel (:meth:`_band_aggregate`).
        """
        params = self.params
        group_fns, having_fn, item_fns = node.group_fns, node.having_fn, node.item_fns
        # state of a group: [first row, accumulator 1, accumulator 2, ...]
        inits, steps, finals = node.inits, node.steps, node.finals

        def feed(row, groups):
            key = ()
            if group_fns:
                key = hashable([fn(row, params) for fn in group_fns])
            state = groups.get(key)
            if state is None:
                state = groups[key] = [row, *inits]
            for slot, arg_fn, step in steps:
                state[slot] = step(state[slot], arg_fn(row, params))

        def finalize(groups):
            if not groups and not group_fns:  # scalar aggregate over no rows
                groups[()] = [(None,) * node.width, *inits]
            out = []
            for first, *accs in groups.values():
                row = first + tuple([fin(acc) for fin, acc in zip(finals, accs)])
                if having_fn is None or having_fn(row, params) is True:
                    out.append(tuple([fn(row, params) for fn in item_fns]))
            return out

        if node.band:
            run = self._band_aggregate(node, env, feed, finalize)
        else:
            child = self._emit(node.child, env, None)

            def run():
                try:
                    return self._aggregated(node, child, feed, finalize)
                finally:
                    child.close()

        if not group_fns:  # ungrouped (a band too): one row, or none
            return _once(lambda: [rows] if (rows := run()) else [], node.trace_at, self.collector)

        def gen():
            yield from self._slices(run())

        return self._traced(node, gen())

    def _aggregated(self, node, chunks, feed, finalize):
        """*node*'s output rows over the batches *chunks*.

        Column chunks are buffered while every batch stays columnar (a row
        batch of exact int64 cells is converted to columns once, the first
        one only from ``NP_AGG_MIN`` rows); a single whole-column
        ``group_aggregate`` then replaces the per-row accumulator feed. Any
        other row batch (or a kernel refusal) drains the buffer through the
        accumulators instead — same groups, same order, same values.
        """
        groups: dict = {}
        np_chunks: list = []
        np_ok = node.np_spec is not None
        for chunk in chunks:
            if (
                np_ok
                and not isinstance(chunk, ColumnChunk)
                and (len(chunk) >= NP_AGG_MIN or np_chunks)
            ):
                cols = _columns(list(zip(*chunk)))
                chunk = chunk if cols is None else ColumnChunk(cols, n=len(chunk))
            if np_ok and type(chunk) is ColumnChunk:
                np_chunks.append(chunk)
                continue
            for buffered in np_chunks:
                for row in buffered:
                    feed(row, groups)
            np_chunks = []
            np_ok = False
            for row in chunk:
                feed(row, groups)
        if np_chunks:
            data = npbatch.concat(np_chunks)
            rows = npbatch.group_aggregate(node.np_spec, data.cols, self.params, len(data))
            if rows is not None:
                return rows
            for row in data:
                feed(row, groups)
        return finalize(groups)

    def _band_aggregate(self, node, env, feed, finalize):
        """Hub intersection: the band ``Hash Join`` under *node* never
        emits a pair.

        Both inputs are drained; when every batch is columnar,
        :func:`npbatch.band_join_aggregate` answers from ranges over the
        right side. If it declines, :meth:`_hash_join` runs over the
        buffered batches and :meth:`_aggregated` folds its output. Either
        way the join is a fused node: zero self cost, ``rows`` the joined
        pairs. Returns the function that computes *node*'s rows.
        """
        jnode = node.child
        left = self._emit(jnode.left, env, None)
        right = self._emit(jnode.right, env, None)

        def run():
            try:
                left_chunks, right_chunks = list(left), list(right)
            finally:
                left.close()
                right.close()
            done = None
            if (
                left_chunks
                and right_chunks
                and all(type(c) is ColumnChunk for c in left_chunks + right_chunks)
            ):
                done = npbatch.band_join_aggregate(
                    npbatch.concat(left_chunks).cols,
                    npbatch.concat(right_chunks).cols,
                    jnode,
                )
            if done is None:
                joined = list(self._hash_join(jnode, left_chunks, right_chunks))
                rows = self._aggregated(node, joined, feed, finalize)
                pairs = sum(map(len, joined))
            else:
                rows, pairs = done
                if rows is None:  # no pair: the aggregate's default row
                    rows = finalize({})
            buf = self.buf
            if buf is not None:  # fused: its time is its children's
                buf[jnode.trace_at + ROWS] = pairs
                buf[jnode.trace_at + TIME] = None
            return rows

        return run

    def _emit_distinct(self, node, env, hint):
        child = self._emit(node.child, env, hint and 1)

        def gen():
            seen = set()
            try:
                for chunk in child:
                    out = []
                    for row in chunk:
                        h = hashable(row)
                        if h not in seen:
                            seen.add(h)
                            out.append(row)
                    if out:
                        yield out
            finally:
                child.close()

        return self._traced(node, gen())

    # -- ordering / limiting ----------------------------------------------
    def _emit_sort(self, node, env, hint):
        child = self._emit(node.child, env, None)
        positions = node.positions
        width = node.width

        def gen():
            rows: list[tuple] = []
            try:
                for chunk in child:
                    rows.extend(chunk)
            finally:
                child.close()
            keys = [tuple(row[i] for i in positions) for row in rows]
            rows = sort_rows(rows, len(positions), keys, node.descending)
            if width is not None:
                rows = [row[:width] for row in rows]  # drop hidden sort columns
            yield from self._slices(rows)

        return self._traced(node, gen())

    def _emit_topk(self, node, env, hint):
        child = self._emit(node.child, env, None)
        limit = self._const_int(node.limit_fn)
        offset = (
            self._const_int(node.offset_fn)
            if node.offset_fn is not None
            else 0
        )
        positions = node.positions
        descending = node.descending
        width = node.width
        keep = offset + limit

        def entries(numbered, keys):
            """``(composite_key, input_seq, row)`` per ``(seq, row)``."""
            return [
                (composite_key(keys(row[i] for i in positions), descending), s, row)
                for s, row in numbered
            ]

        def gen():
            # The explicit sequence number reproduces nsmallest's stability
            # exactly (and guarantees rows are never compared), while the
            # bounded merge keeps at most keep + batch_size entries alive.
            best: list = []
            seq = 0
            keys = tuple
            try:
                for chunk in child if keep else ():  # LIMIT 0 reads nothing
                    merged = best + entries(enumerate(chunk, seq), keys)
                    seq += len(chunk)
                    try:
                        best = heapq.nsmallest(keep, merged)
                    except TypeError:  # an array holding a NULL element
                        keys = element_keys
                        best = heapq.nsmallest(keep, entries([e[1:] for e in merged], keys))
            finally:
                child.close()
            # row[:None] is the whole row: no hidden sort columns to drop
            yield from self._slices(
                [row[:width] for _key, _seq, row in best[offset:]]
            )

        return self._traced(node, gen())

    def _emit_limit(self, node, env, hint):
        limit = (
            self._const_int(node.limit_fn)
            if node.limit_fn is not None
            else None
        )
        offset = (
            self._const_int(node.offset_fn)
            if node.offset_fn is not None
            else 0
        )
        # The hint reaches the scans below: a one-to-one operator (a Project
        # without an SRF, an unfiltered Subquery Scan, a query root) forwards
        # the row count, every other streaming operator pulls its streaming
        # input a row at a time (``hint and 1``), a blocking input gets none.
        child_hint = None if limit is None else offset + limit
        child = self._emit(node.child, env, child_hint)

        def gen():
            skip = offset
            remaining = limit
            try:
                if remaining == 0:
                    return
                for chunk in child:
                    if skip:
                        if len(chunk) <= skip:
                            skip -= len(chunk)
                            continue
                        chunk = chunk[skip:]
                        skip = 0
                    if remaining is None:
                        yield chunk
                        continue
                    if len(chunk) >= remaining:
                        yield chunk[:remaining]
                        return
                    remaining -= len(chunk)
                    yield chunk
            finally:
                child.close()

        return self._traced(node, gen())

    def _emit_union(self, node, env, hint):
        left = self._emit(node.left, env, hint and 1)
        right = self._emit(node.right, env, hint and 1)

        def gen():
            try:
                yield from left
                yield from right
            finally:
                left.close()
                right.close()

        return self._traced(node, gen())

    _EMIT = {
        phys.Result0: _emit_result0,
        phys.SeqScan: _emit_seq_scan,
        phys.PkLookup: _emit_pk_lookup,
        phys.CteScan: _emit_cte_scan,
        phys.SubqueryScan: _emit_subquery_scan,
        phys.IndexNestedLoop: _emit_inl,
        phys.HashJoin: _emit_hash_join,
        phys.NestedLoop: _emit_nested_loop,
        phys.Unnest: _emit_unnest,
        phys.Window: _emit_window,
        phys.Project: _emit_project,
        phys.Aggregate: _emit_aggregate,
        phys.Distinct: _emit_distinct,
        phys.Sort: _emit_sort,
        phys.TopK: _emit_topk,
        phys.Limit: _emit_limit,
        phys.Union: _emit_union,
    }

