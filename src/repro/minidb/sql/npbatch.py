"""numpy batch kernels for the batch executor.

The batch executor moves chunks of rows between operators. Eligible
producers (the fused UNNEST producer over int64 label data, the index
nested loop) emit :class:`ColumnChunk` batches — parallel columns, one per
output column — instead of lists of tuples, and the filter-mask,
hash-join (pair discovery, and the band merge under an aggregate) and
aggregation kernels below operate on whole columns at once.

Two invariants make this a pure representation change:

* **Row compatibility.** ``ColumnChunk`` is sequence-like: ``len``,
  iteration, indexing, and slicing behave exactly like the list of tuples
  it stands for (iteration yields plain Python-int tuples). Any operator
  that was written against row chunks keeps working, unmodified, on a
  column chunk — it just pays a one-time materialization on first touch.
* **Fallback parity.** Every kernel either returns the bit-identical
  result of the row-at-a-time code path or signals ineligibility (``None``
  / an exception the caller catches), in which case the executor re-runs
  the compiled row closures on the same data. Specs are advisory,
  never load-bearing for correctness.

A column is non-NULL ``int64`` (an :class:`ArrayChunk` may also hold an
:class:`ArrayColumn`, which only UNNEST reads) — producers check
eligibility per batch, so NULL handling stays in the row closures. The
one NULL that can reach a kernel is a NULL *parameter* in a comparison;
SQL three-valued logic makes that predicate never-true, which is exactly
``np.zeros(n, bool)``.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from repro.minidb.values import T_BIGINT, T_BIGINT_ARRAY

_NULL = object()  # sentinel: a NULL operand inside a kernel expression
_INT64_MAX = 2**63 - 1


class ArrayColumn:
    """A ``BIGINT[]`` column as values + offsets: row *i*'s cell is
    ``values[offsets[i]:offsets[i + 1]]``, NULL (an empty range) where
    ``nulls[i]``; ``nulls`` is None when no cell is NULL."""

    __slots__ = ("values", "offsets", "nulls")

    def __init__(self, values, offsets, nulls=None):
        self.values, self.offsets, self.nulls = values, offsets, nulls

    def cut(self, part):
        """``(values, lengths)`` of ``cell[part]`` for every cell, as UNNEST
        expands them; *part* is an ``expr.array_cut`` slice, or None for a
        NULL bound (every cell NULL)."""
        values, offsets = self.values, self.offsets
        lengths = offsets[1:] - offsets[:-1]
        if part is None or part == slice(0, None):
            return (values, lengths) if part else (values[:0], lengths * 0)
        start = min(part.start, len(values))
        stop = len(values) if part.stop is None else min(part.stop, len(values))
        at = np.arange(len(values)) - np.repeat(offsets[:-1], lengths)
        if not start:  # a[1:k], the kNN arms' slice: a prefix of each cell
            return values[at < stop], np.minimum(lengths, stop)
        cut = np.minimum(lengths, stop) - np.minimum(lengths, start)
        return values[(at >= start) & (at < stop)], cut

    def tolist(self):
        """The cells as SQL reads them: a list each, None where NULL."""
        flat, offsets = self.values.tolist(), self.offsets.tolist()
        nulls = repeat(False) if self.nulls is None else self.nulls.tolist()
        return [None if null else flat[a:b] for a, b, null in zip(offsets, offsets[1:], nulls)]


def row_columns(rows, types):
    """*rows* (decoded records of column *types*, at least one) as columns:
    int64 per ``BIGINT``, an :class:`ArrayColumn` per ``BIGINT[]`` — one run
    of all elements cut per column — or None (rows) for another type, a NULL
    ``BIGINT`` or a NULL element."""
    if not set(types) <= {T_BIGINT, T_BIGINT_ARRAY}:
        return None
    n, cols = len(rows), list(zip(*rows))
    ints, arrays = ([i for i, t in enumerate(types) if t == k] for k in (T_BIGINT, T_BIGINT_ARRAY))
    cells = [cell for i in arrays for cell in cols[i]]
    lengths = np.array([-1 if c is None else len(c) for c in cells], np.int64)
    lengths = lengths.reshape(len(arrays), n)
    nulls = lengths < 0  # a NULL cell: an empty range
    offsets = np.zeros((len(arrays), n + 1), np.int64)
    np.cumsum(np.where(nulls, 0, lengths), 1, out=offsets[:, 1:])
    starts = [0, *offsets[:, -1].cumsum().tolist()]
    try:  # a NULL scalar or element raises TypeError
        scalars = np.array([cols[i] for i in ints], np.int64).reshape(len(ints), n)
        cells = chain.from_iterable([c for c in cells if c is not None])
        values = np.fromiter(cells, np.int64, starts[-1])
    except (TypeError, OverflowError):
        return None
    out = dict(zip(ints, scalars))
    for j, (i, null) in enumerate(zip(arrays, nulls.any(1).tolist())):
        out[i] = ArrayColumn(values[starts[j] : starts[j + 1]], offsets[j], nulls[j] if null else None)
    return [out[i] for i in range(len(types))]


class ColumnChunk:
    """A batch of rows stored as parallel int64 numpy columns.

    Drop-in sequence of row tuples: ``len(chunk)``, ``chunk[i]``,
    ``chunk[a:b]`` and iteration all match the equivalent
    ``list[tuple]``. Kernels reach the arrays via ``cols``.
    """

    __slots__ = ("cols", "n", "_rows")

    def __init__(self, cols, n=None):
        self.cols = list(cols)
        self.n = len(self.cols[0]) if n is None else n
        self._rows = None

    def __len__(self):
        return self.n

    def to_rows(self):
        """Materialize (and cache) the plain Python row tuples."""
        if self._rows is None:
            if self.cols:
                self._rows = list(zip(*[c.tolist() for c in self.cols]))
            else:
                self._rows = [()] * self.n
        return self._rows

    def __iter__(self):
        return iter(self.to_rows())

    def __getitem__(self, item):
        if isinstance(item, slice):
            return ColumnChunk(
                [c[item] for c in self.cols],
                n=len(range(*item.indices(self.n))),
            )
        return tuple(c[item].item() for c in self.cols)

    def take(self, mask):
        """Rows where the boolean *mask* is True, as a new chunk."""
        return ColumnChunk([c[mask] for c in self.cols])

    def project(self, col_indices):
        """Column subset/reorder, sharing the underlying arrays."""
        return type(self)([self.cols[i] for i in col_indices], n=self.n)


class ArrayChunk(ColumnChunk):
    """Columns only UNNEST reads (:class:`ArrayColumn`); all else reads rows."""

    __slots__ = ()

    def __getitem__(self, item):
        return self.to_rows()[item]


def concat(chunks):
    """Concatenate ColumnChunks into one (columns stacked per position)."""
    if len(chunks) == 1:
        return chunks[0]
    width = len(chunks[0].cols)
    return ColumnChunk(
        [np.concatenate([c.cols[i] for c in chunks]) for i in range(width)],
        n=sum(c.n for c in chunks),
    )


# ---------------------------------------------------------------------------
# Operand / predicate evaluation
# ---------------------------------------------------------------------------
def _magnitude(value) -> int:
    """The largest absolute value in an operand, as an exact Python int."""
    if isinstance(value, np.ndarray):
        if not value.size:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    return abs(int(value))


def eval_operand(spec, cols, params):
    """Evaluate an operand spec to an array, a Python int, or ``_NULL``.

    Raises TypeError for values the kernels must not touch (bools,
    non-ints) and for array arithmetic whose result could leave int64,
    where numpy wraps and Python does not — callers catch and fall back to
    the row closures.
    """
    kind = spec[0]
    if kind == "col":
        if type(col := cols[spec[1]]) is not np.ndarray:
            raise TypeError("an array column stays on the row path")
        return col
    if kind == "const":
        return spec[1]
    if kind == "param":
        value = params[spec[1]]
        if value is None:
            return _NULL
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"non-integer parameter {value!r} in kernel")
        return value
    if kind == "neg":
        inner = eval_operand(spec[1], cols, params)
        if inner is _NULL:
            return _NULL
        if isinstance(inner, np.ndarray) and _magnitude(inner) > _INT64_MAX:
            raise TypeError("negation may leave int64: the row path is exact")
        return -inner
    if kind == "bin":
        left = eval_operand(spec[2], cols, params)
        right = eval_operand(spec[3], cols, params)
        if left is _NULL or right is _NULL:
            return _NULL
        op = spec[1]
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            a, b = _magnitude(left), _magnitude(right)
            if (a * b if op == "*" else a + b) > _INT64_MAX:
                raise TypeError(
                    f"{op} may leave int64: the row path is exact"
                )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        return left * right
    if kind == "div":
        left = eval_operand(spec[1], cols, params)
        right = eval_operand(spec[2], cols, params)
        if left is _NULL or right is _NULL:
            return _NULL
        if isinstance(right, np.ndarray):
            if not (right != 0).all():
                raise TypeError("zero divisor: the row path raises in order")
        elif right == 0:
            raise TypeError("zero divisor: the row path raises in order")
        if _magnitude(left) > _INT64_MAX:  # -2**63 / -1 is not an int64
            raise TypeError("/ may leave int64: the row path is exact")
        quotient = left // right
        # SQL integer division truncates toward zero; floor division is one
        # less exactly when the signs differ and there is a remainder.
        return quotient + ((quotient < 0) & (quotient * right != left))
    if kind == "floor":
        inner = eval_operand(spec[1], cols, params)
        if inner is _NULL:
            return _NULL
        if isinstance(inner, np.ndarray):
            if not np.issubdtype(inner.dtype, np.integer):
                raise TypeError("FLOOR over non-integers stays on the row path")
            return inner
        if isinstance(inner, bool) or not isinstance(inner, (int, np.integer)):
            raise TypeError("FLOOR over non-integers stays on the row path")
        return inner  # FLOOR of an integer is the identity, as in SQL
    if kind in ("maxv", "minv"):
        fn = np.maximum if kind == "maxv" else np.minimum
        parts = [eval_operand(part, cols, params) for part in spec[1:]]
        if any(part is _NULL for part in parts):
            # GREATEST/LEAST are not strict (they skip NULLs); mixed
            # NULL/array semantics stay on the row closures.
            raise TypeError("NULL in GREATEST/LEAST stays on the row path")
        acc = parts[0]
        for part in parts[1:]:
            acc = fn(acc, part)
        return acc
    raise TypeError(f"unknown operand spec {spec!r}")


_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_mask(spec, cols, params, n):
    """Boolean keep-mask for one ``("cmp", op, a, b)`` spec."""
    left = eval_operand(spec[2], cols, params)
    right = eval_operand(spec[3], cols, params)
    if left is _NULL or right is _NULL:
        return np.zeros(n, dtype=bool)  # NULL comparison is never TRUE
    result = _CMP[spec[1]](left, right)
    if not isinstance(result, np.ndarray):  # both operands scalar
        return np.full(n, bool(result))
    return result


def eval_masks(specs, cols, params, n):
    """AND of all filter specs as one mask, or None to use the row path.

    None is returned when any conjunct has no spec (the planner could not
    lower it) or a parameter has a type the kernels refuse — identical
    semantics are then guaranteed by the compiled closures instead.
    """
    if specs is None or any(s is None for s in specs):
        return None
    mask = None  # the first conjunct's mask is the accumulator
    try:
        for spec in specs:
            part = eval_mask(spec, cols, params, n)
            mask = part if mask is None else mask & part
    except (TypeError, OverflowError):
        return None
    return np.ones(n, dtype=bool) if mask is None else mask


def eval_keys(specs, cols, params, n):
    """Probe-key tuples for an index nested-loop, or None for the row path.

    Evaluates each key spec over the left chunk's columns and zips the
    results into plain-int tuples — exactly the keys the per-row closures
    build, since specs lower only expressions with identical integer
    semantics. Anything surprising (NULL parameters, zero divisors,
    non-int64 results) returns None and the caller re-derives every key
    with the compiled closures.
    """
    key_cols = []
    try:
        for spec in specs:
            value = eval_operand(spec, cols, params)
            if value is _NULL:
                return None
            if isinstance(value, np.ndarray):
                if value.dtype != np.int64:
                    return None
                key_cols.append(value.tolist())
            elif isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            ):
                key_cols.append([int(value)] * n)
            else:
                return None
    except (TypeError, OverflowError):
        return None
    return list(zip(*key_cols))


# ---------------------------------------------------------------------------
# Join kernel
# ---------------------------------------------------------------------------
def join_pairs(left_keys, right_keys):
    """Matching (left_index, right_index) arrays for an equi-join.

    Output order replicates the row-path hash join exactly: left-major,
    and within one left row the matching right rows in their original
    (build insertion) order — the stable argsort preserves input order
    among equal keys, so ``order[starts + within]`` walks each bucket in
    insertion order.
    """
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    left_idx = np.repeat(np.arange(left_keys.shape[0]), counts)
    total = int(counts.sum())
    if total == 0:
        return left_idx, left_idx.copy()
    run_starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(run_starts, counts)
    right_idx = order[np.repeat(lo, counts) + within]
    return left_idx, right_idx


def band_join_aggregate(lhs, rhs, jnode):
    """``L.key = R.key AND L.a <op> R.b`` under ungrouped MIN/MAX, as a merge.

    With R ordered by ``(key, b)`` the R rows one L row joins are a
    contiguous range ``[lo, hi)``: the key's run from the first ``b`` that
    satisfies the comparison (``<=``/``<``) or up to the last one that does
    (``>=``/``>``). Both columns fold into one int64 composite
    ``key * width + value`` (``width`` spans every ``a`` and ``b`` present,
    so composite order is ``(key, value)`` order), which makes the order
    check one comparison and each range end one ``searchsorted``; the
    aggregate is then a ``reduceat`` over the ranges. No pair is
    enumerated and no column is gathered through pair indices.

    Whether R already is in ``(key, b)`` order is observed on every input
    and an unordered R is sorted first. A composite or an ``L ± R``
    aggregate operand that might not fit int64 returns None — the executor
    then runs the hash join and folds its rows. Otherwise the result is
    ``(rows, pairs)``: the finished output rows (None when no pair joins:
    the caller emits the aggregate's default row) and the number of joined
    pairs, exactly ``sum(hi - lo)``.
    """
    op, a_col, b_col, items = jnode.np_band
    lk, la = lhs[jnode.np_left_col], lhs[a_col]
    rk, rb = rhs[jnode.np_right_col], rhs[b_col]
    if not len(lk) or not len(rk):
        return None, 0
    vmin = min(int(la.min()), int(rb.min()))
    vmax = max(int(la.max()), int(rb.max()))
    width = vmax - vmin + 1
    kmax = max(
        1,  # the width alone must fit too
        abs(int(lk.min())), abs(int(lk.max())),
        abs(int(rk.min())), abs(int(rk.max())),
    )
    if kmax * width + max(abs(vmin), abs(vmax)) > _INT64_MAX:
        return None
    rc = rk * width + rb
    order = None
    if not (rc[1:] >= rc[:-1]).all():
        order = np.argsort(rc)
        rc = rc[order]
    lkw = lk * width
    if op in ("<=", "<"):
        lo = np.searchsorted(rc, lkw + la, "left" if op == "<=" else "right")
        hi = np.searchsorted(rc, lkw + vmax, "right")
    else:
        lo = np.searchsorted(rc, lkw + vmin, "left")
        hi = np.searchsorted(rc, lkw + la, "right" if op == ">=" else "left")
    matched = hi > lo
    lo = lo[matched]
    hi = hi[matched]
    pairs = int((hi - lo).sum())
    if not pairs:
        return None, 0
    # reduceat reduces [bounds[j], bounds[j+1]) for every j: interleaving
    # lo and hi makes the even slots the wanted ranges (the odd ones are
    # discarded), and one trailing element keeps hi == len(R) indexable.
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi

    def per_left_row(ufunc, col):
        values = rhs[col] if order is None else rhs[col][order]
        return ufunc.reduceat(np.concatenate((values, values[:1])), bounds)[::2]

    out = []
    for name, l_col, r_col, minus in items:
        reduce = np.minimum if name == "min" else np.maximum
        if r_col is None:
            values = lhs[l_col][matched]
        elif l_col is None:
            values = per_left_row(reduce, r_col)
        elif _magnitude(lhs[l_col]) + _magnitude(rhs[r_col]) > _INT64_MAX:
            return None  # L ± R may leave int64: only the row path is exact
        elif minus == "r":  # L - R: the extreme of the row needs R's opposite
            other = np.maximum if name == "min" else np.minimum
            values = lhs[l_col][matched] - per_left_row(other, r_col)
        elif minus == "l":
            values = per_left_row(reduce, r_col) - lhs[l_col][matched]
        else:
            values = per_left_row(reduce, r_col) + lhs[l_col][matched]
        out.append(int(reduce.reduce(values)))
    return [tuple(out)], pairs


# ---------------------------------------------------------------------------
# Aggregation kernel
# ---------------------------------------------------------------------------
def _int64_column(value, n):
    """An operand's value as an int64 column of *n* rows."""
    if isinstance(value, np.ndarray):
        return value
    if value is _NULL:
        raise TypeError("a NULL operand stays on the row path")
    return np.full(n, value, dtype=np.int64)


def group_aggregate(np_spec, cols, params, n):
    """Evaluate an ``Aggregate.np_spec`` over whole columns.

    Returns the finished output rows as plain Python tuples, in the exact
    order the streaming row accumulators produce (group first-appearance
    order), or None when the row path must decide instead — notably the
    zero-input scalar aggregate, whose default row (COUNT=0, MIN=NULL)
    the row path already implements.

    ``ARRAY_AGG(x ORDER BY k1 [DESC], …)`` is one ``np.lexsort`` over
    (group, order keys) — stable, so ties keep input order as the fold's
    stable sort does; a DESC key sorts by its bitwise complement, which
    reverses int64 order without overflow — and one split of the sorted
    values at the group offsets.
    """
    group_specs, items = np_spec
    if n == 0:  # no group; a scalar aggregate's default row is the row path's
        return [] if group_specs else None
    try:
        key_cols = [_int64_column(eval_operand(k, cols, params), n) for k in group_specs]
        # A scalar aggregate is one group.
        keys = key_cols[0] if key_cols else np.zeros(n, np.int64)
        for column in key_cols[1:]:
            # One int64 code for the key tuple: dense ranks combined, the
            # running code re-ranked first, so it stays below n * n.
            _, code = np.unique(keys, return_inverse=True)
            _, rank = np.unique(column, return_inverse=True)
            keys = code * (int(rank.max()) + 1) + rank
        uniq, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        # np.unique sorts by key value; remap group ids to first-appearance
        # order so output rows match the dict-insertion order of the
        # streaming accumulators.
        appearance = np.argsort(first_idx, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[appearance] = np.arange(len(uniq))
        group_of = rank[inverse]
        counts = np.bincount(group_of, minlength=len(uniq))
        starts = np.cumsum(counts) - counts
        first_rows = first_idx[appearance]

        def ordered(order_specs):
            """Row order by (group, keys…): np.lexsort's last key leads."""
            keys = [group_of]
            for spec, descending in order_specs:
                value = eval_operand(spec, cols, params)
                if value is not _NULL:  # a NULL key leaves every row tied
                    value = _int64_column(value, n)
                    keys.insert(0, ~value if descending else value)
            return np.lexsort(keys)

        columns = []
        for item in items:
            kind = item[0]
            if kind == "first":
                value = eval_operand(item[1], cols, params)
                columns.append(_int64_column(value, n)[first_rows].tolist())
            elif kind == "count*":
                columns.append(counts.tolist())
            else:  # ("agg", name, operand[, order specs])
                name, operand = item[1], item[2]
                values = eval_operand(operand, cols, params)
                if values is _NULL:
                    columns.append([0 if name == "count" else None] * len(uniq))
                    continue
                values = _int64_column(values, n)
                if name == "count":
                    columns.append(counts.tolist())  # columns are non-NULL
                elif name == "array_agg":  # values + offsets, split once
                    flat = values[ordered(item[3])].tolist()
                    pieces = zip(starts.tolist(), counts.tolist())
                    columns.append([flat[a : a + k] for a, k in pieces])
                else:
                    reduce = np.minimum if name == "min" else np.maximum
                    columns.append(
                        reduce.reduceat(values[ordered(())], starts).tolist()
                    )
        return list(zip(*columns))
    except (TypeError, OverflowError):
        return None
