"""Row-at-a-time reference model for SELECT plans.

Not on any statement path: every statement a session runs executes on
:class:`~repro.minidb.sql.vectorized.BatchExecutor`. This interpreter runs
the *same* physical plans one row per generator pull — no batching, no
fusion, no numpy, no readahead — and exists so the
equivalence suites (``tests/minidb/reference.py``) can pin the engine's
rows and page I/O against an independent, obviously-correct reading of
each operator. Rows stream between operators; the only operators that
materialize their input are the blocking ones — Sort/Top-K, WindowAgg,
Aggregate, the hash-join build side and the nested-loop inner side — plus
CTEs, which are materialized once per execution as the paper's Codes 3-4
require.
"""

from __future__ import annotations

import heapq

from repro.errors import SQLError, SQLTypeError
from repro.minidb.sql import plan as phys
from repro.minidb.sql.expr import composite_key, element_keys, hashable, sort_rows
from repro.minidb.sql.functions import order_key
from repro.minidb.sql.result import _DONE, Result


# Aggregates over the list of a group's values (NULLs skipped), as the
# engine defined them before it folded accumulators.
def agg_min(values):
    present = [v for v in values if v is not None]
    return min(present, key=order_key) if present else None


def agg_max(values):
    present = [v for v in values if v is not None]
    return max(present, key=order_key) if present else None


def agg_sum(values):
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def agg_avg(values):
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def agg_count(values):
    return sum(1 for v in values if v is not None)


def agg_array(values):
    present = [v for v in values if v is not None]
    return present if present else None  # array_agg of nothing is NULL


def agg_bool_and(values):
    present = [v for v in values if v is not None]
    return all(present) if present else None


def agg_bool_or(values):
    present = [v for v in values if v is not None]
    return any(present) if present else None


LIST_AGGREGATES = {
    "min": agg_min,
    "max": agg_max,
    "sum": agg_sum,
    "avg": agg_avg,
    "count": agg_count,
    "array_agg": agg_array,
    "bool_and": agg_bool_and,
    "bool_or": agg_bool_or,
}


def _probe_key(parts):
    """The B+Tree key to probe with, or None when no key can match: an
    integral float equals the BIGINT of the same value; NULL, a fractional
    float or anything else equals no key."""
    key = tuple(
        int(k) if isinstance(k, float) and k.is_integer() else k for k in parts
    )
    return key if all(isinstance(k, int) for k in key) else None


def _listed(row):
    """A decoded row with every array cell a list: a long ``BIGINT[]``
    decodes to an int64 ndarray, which the model never reads."""
    if row is None:
        return None
    return tuple(cell.tolist() if hasattr(cell, "tolist") else cell for cell in row)


class Executor:
    """Interprets SELECT plans against a catalog, one row per pull."""

    def __init__(self, catalog, params: tuple = ()):
        self.catalog = catalog
        self.params = tuple(params)

    def run(self, qplan: phys.QueryPlan) -> Result:
        return Result(list(qplan.columns), list(self._emit_query(qplan, {})))

    # -- query interpretation ---------------------------------------------
    def _emit_query(self, qplan: phys.QueryPlan, env: dict):
        """Materialize CTEs (once, lazily, on first pull), then stream the
        root operator."""
        env = dict(env)

        def gen():
            for name, sub in qplan.ctes:
                env[name] = list(self._emit_query(sub, env))
            yield from self._emit(qplan.root, env)

        return gen()

    def _emit(self, node, env):
        if isinstance(node, phys.QueryPlan):
            return self._emit_query(node, env)
        return self._EMIT[type(node)](self, node, env)

    # -- scans -----------------------------------------------------------
    def _emit_result0(self, node, env):
        params = self.params

        def gen():
            if all(p((), params) is True for p in node.filters):
                yield ()

        return gen()

    def _emit_seq_scan(self, node, env):
        table = self.catalog.get(node.table)
        params = self.params
        filters = node.filters

        def gen():
            for row in map(_listed, table.scan()):
                if all(p(row, params) is True for p in filters):
                    yield row

        return gen()

    def _emit_pk_lookup(self, node, env):
        params = self.params
        table = self.catalog.get(node.table)
        filters = node.filters

        def gen():
            key = _probe_key(fn((), params) for fn in node.probe_fns)
            row = _listed(table.lookup(key)) if key is not None else None
            if row is not None and all(p(row, params) is True for p in filters):
                yield row

        return gen()

    def _emit_cte_scan(self, node, env):
        params = self.params
        filters = node.filters

        def gen():
            # env is read inside the generator: the enclosing query's CTE
            # loop has populated it by the time the first row is pulled.
            for row in env[node.cte_name]:
                if all(p(row, params) is True for p in filters):
                    yield row

        return gen()

    def _emit_subquery_scan(self, node, env):
        inner = self._emit_query(node.subplan, env)
        params = self.params
        filters = node.filters

        def gen():
            for row in inner:
                if all(p(row, params) is True for p in filters):
                    yield row

        return gen()

    # -- joins -----------------------------------------------------------
    def _emit_inl(self, node, env):
        left = self._emit(node.left, env)
        table = self.catalog.get(node.table)
        params = self.params
        probe_fns = node.probe_fns
        filters = node.filters

        def gen():
            probe_cache: dict = {}
            for left_row in left:
                key = _probe_key(fn(left_row, params) for fn in probe_fns)
                if key is None:
                    continue
                if key in probe_cache:
                    match = probe_cache[key]
                else:
                    match = _listed(table.lookup(key))
                    probe_cache[key] = match
                if match is None:
                    continue
                row = left_row + match
                if all(p(row, params) is True for p in filters):
                    yield row

        return gen()

    def _emit_hash_join(self, node, env):
        left = self._emit(node.left, env)
        right = self._emit(node.right, env)
        params = self.params
        left_key = node.left_key
        right_key = node.right_key
        filters = node.filters

        def gen():
            buckets: dict = {}
            for row in right:  # build side; an array key is its tuple
                key = hashable([right_key(row, params)])
                if key == (None,):
                    continue
                buckets.setdefault(key, []).append(row)
            for row in left:  # probe side
                key = hashable([left_key(row, params)])
                if key == (None,):
                    continue
                for match in buckets.get(key, ()):
                    out = row + match
                    if all(p(out, params) is True for p in filters):
                        yield out

        return gen()

    def _emit_nested_loop(self, node, env):
        left = self._emit(node.left, env)
        right = self._emit(node.right, env)
        params = self.params
        filters = node.filters

        def gen():
            right_rows = list(right)
            for left_row in left:
                for right_row in right_rows:
                    out = left_row + right_row
                    if all(p(out, params) is True for p in filters):
                        yield out

        return gen()

    # -- row pipeline ------------------------------------------------------
    def _emit_unnest(self, node, env):
        child = self._emit(node.child, env)
        params = self.params
        srf_fns = node.srf_fns

        def gen():
            for row in child:
                arrays = []
                max_len = 0
                for fn in srf_fns:
                    value = fn(row, params)
                    if value is None:
                        value = []
                    elif not isinstance(value, (list, tuple)):
                        raise SQLTypeError(
                            f"UNNEST expects an array, got {value!r}"
                        )
                    arrays.append(value)
                    max_len = max(max_len, len(value))
                for j in range(max_len):
                    yield row + tuple(
                        arr[j] if j < len(arr) else None for arr in arrays
                    )

        return gen()

    def _emit_window(self, node, env):
        child = self._emit(node.child, env)
        params = self.params

        def gen():
            rows = list(child)
            extras = [[] for _ in rows]
            for spec in node.specs:
                indexed = list(range(len(rows)))
                keys = [
                    tuple(fn(rows[i], params) for fn in spec.order_fns)
                    for i in indexed
                ]
                ordered = sort_rows(
                    indexed, len(spec.order_fns), keys, spec.descending
                )
                counters: dict = {}
                numbers = [0] * len(rows)
                for i in ordered:
                    part = hashable(
                        tuple(fn(rows[i], params) for fn in spec.part_fns)
                    )
                    counters[part] = counters.get(part, 0) + 1
                    numbers[i] = counters[part]
                for i in range(len(rows)):
                    extras[i].append(numbers[i])
            for row, extra in zip(rows, extras):
                yield row + tuple(extra)

        return gen()

    def _emit_project(self, node, env):
        child = self._emit(node.child, env)
        params = self.params
        item_fns = node.item_fns

        def gen():
            for row in child:
                yield tuple(fn(row, params) for fn in item_fns)

        return gen()

    def _emit_aggregate(self, node, env):
        """Materialize every group's rows, evaluate each aggregate over the
        group's list of values (:data:`LIST_AGGREGATES` — nothing shared
        with the engine's accumulators), then HAVING and the items over
        *first row of the group + aggregate values*."""
        child = self._emit(node.child, env)
        params = self.params

        def aggregate(rows, name, arg_fn, distinct, order_fns, descending):
            if order_fns:
                keys = [tuple(fn(r, params) for fn in order_fns) for r in rows]
                rows = sort_rows(list(rows), len(order_fns), keys, descending)
            values = [arg_fn(r, params) for r in rows]
            if distinct:
                seen = set()
                deduped = []
                for v in values:
                    key = tuple(v) if isinstance(v, list) else v
                    if key not in seen:
                        seen.add(key)
                        deduped.append(v)
                values = deduped
            return LIST_AGGREGATES[name](values)

        def gen():
            rows = list(child)
            if node.group_fns:
                groups: dict = {}
                for row in rows:
                    key = hashable(
                        tuple(fn(row, params) for fn in node.group_fns)
                    )
                    groups.setdefault(key, []).append(row)
                group_list = list(groups.values())
            else:
                group_list = [rows]  # one group, possibly empty
            for group_rows in group_list:
                first = group_rows[0] if group_rows else (None,) * node.width
                row = first + tuple(
                    aggregate(group_rows, *agg) for agg in node.aggs
                )
                if (
                    node.having_fn is not None
                    and node.having_fn(row, params) is not True
                ):
                    continue
                yield tuple(fn(row, params) for fn in node.item_fns)

        return gen()

    def _emit_distinct(self, node, env):
        child = self._emit(node.child, env)

        def gen():
            seen = set()
            for row in child:
                h = hashable(row)
                if h not in seen:
                    seen.add(h)
                    yield row

        return gen()

    def _emit_sort(self, node, env):
        child = self._emit(node.child, env)

        def gen():
            rows = list(child)
            keys = [tuple(row[i] for i in node.positions) for row in rows]
            for row in sort_rows(
                rows, len(node.positions), keys, node.descending
            ):
                yield row[: node.width]  # [:None] when nothing is hidden

        return gen()

    def _emit_topk(self, node, env):
        child = self._emit(node.child, env)
        limit = self._const_int(node.limit_fn)
        offset = (
            self._const_int(node.offset_fn)
            if node.offset_fn is not None
            else 0
        )
        descending = node.descending

        def gen():
            entries = (
                (
                    composite_key(
                        element_keys(row[i] for i in node.positions), descending
                    ),
                    row,
                )
                for row in child
            )
            # nsmallest is stable (documented as equivalent to a sorted()
            # prefix), so ties keep input order exactly like the full Sort.
            try:
                best = heapq.nsmallest(
                    offset + limit, entries, key=lambda e: e[0]
                )
            finally:
                # nsmallest(0, ...) never touches the stream: close the
                # child explicitly so scan pins are released either way.
                child.close()
            for _key, row in best[offset:]:
                yield row[: node.width]

        return gen()

    def _emit_limit(self, node, env):
        child = self._emit(node.child, env)
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

        def gen():
            # An early return below (limit satisfied) abandons the child
            # mid-stream; the explicit close releases any pins a suspended
            # scan still holds, without waiting for garbage collection.
            try:
                iterator = iter(child)
                for _ in range(offset):
                    if next(iterator, _DONE) is _DONE:
                        return
                if limit is None:
                    yield from iterator
                    return
                count = 0
                while count < limit:
                    row = next(iterator, _DONE)
                    if row is _DONE:
                        return
                    yield row
                    count += 1
            finally:
                child.close()

        return gen()

    def _const_int(self, fn):
        value = fn((), self.params)
        if not isinstance(value, int) or value < 0:
            raise SQLError(
                f"LIMIT/OFFSET must be a non-negative integer, got {value!r}"
            )
        return value

    def _emit_union(self, node, env):
        left = self._emit(node.left, env)
        right = self._emit(node.right, env)

        def gen():
            yield from left
            yield from right

        return gen()

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
