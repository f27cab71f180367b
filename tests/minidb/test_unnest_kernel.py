"""The UNNEST kernel against the row-at-a-time reference model.

Every ``ProjectSet`` runs as one array-expansion kernel
(docs/ARCHITECTURE.md, "UNNEST→Project fusion"), fused into the
``Project`` above it or bare. Every input chunk, a PK point lookup's one
row included, becomes values + lengths per SRF (``npbatch.array_values``),
and the kernel decides per chunk: a chunk whose values and base values
are all int64, each row's SRFs of one length, expands column-wise; a
chunk with any other row (a NULL element, a ``DOUBLE[]`` cell, an
out-of-range value, ragged multi-SRF lengths) expands row by row. Either
way a base item runs only for a row that expands: ``a / g`` over a row
whose array is NULL or empty never divides. This suite drives it with a
seeded generator of

    SELECT [base exprs,] UNNEST(a)[, UNNEST(b)…] FROM t [WHERE …] [LIMIT n]

plus bare ProjectSets, with a WindowAgg or a GROUP BY above the expansion:

    SELECT [cols,] UNNEST(…)…, ROW_NUMBER() OVER (…) FROM t|s [WHERE …] [LIMIT n]

over one table whose ``BIGINT[]`` cells sit on both sides of
``NP_DECODE_MIN`` (short arrays decode as lists, arrays of 32+ elements as
int64 ndarrays), at two batch sizes, and checks each statement three ways:

* rows, in order and *typed*: ``1.5`` must stay ``1.5`` and ``2.0`` must
  not become ``2`` (``np.fromiter(…, int64)`` silently does both);
* cold page I/O equal to the reference model's;
* per-operator ``rows`` and ``pulls`` equal to ``unnest_kernel_pulls.json``
  — where the kernel cuts its output into chunks is part of its contract.

Regenerate the pulls file (only when chunking is meant to change, and say
so): ``PYTHONPATH=src python -m tests.minidb.test_unnest_kernel``.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SQLError
from repro.minidb.engine import Database
from repro.minidb.sql.npbatch import ColumnChunk
from repro.minidb.sql.vectorized import BatchExecutor
from repro.minidb.values import NP_DECODE_MIN
from tests.minidb.reference import FORMAT_ID, run_engine, run_or_refuse, run_reference

PULLS = Path(__file__).with_name("unnest_kernel_pulls.json")
BIG = 2**63 - 1
NAN, INF = float("nan"), float("inf")
BATCH_SIZES = (1024, 37)
STATEMENTS = 60


def _xs(i):
    """A BIGINT[] cell of every shape the kernel distinguishes."""
    kind = i % 11
    if kind == 0:
        return None
    if kind == 1:
        return []
    if kind == 2:
        return [i, None, i + 2]  # a NULL element: row path
    if kind == 3:
        return list(range(i, i + 40 + (i * 13) % 200))  # ndarray-decoded
    if kind == 4:
        return [-BIG, -1, 0, BIG]
    return [i * 10 + j for j in range((i * 7) % 5 + 1)]


def _ys(i):
    """Same length as ``xs`` on most rows, ragged on some."""
    xs = _xs(i) or []
    if i % 5 == 0:
        return [i] * (len(xs) + 2)
    if i % 7 == 3:
        return None
    return [-v if v is not None else None for v in xs]


def _ds(i):
    """DOUBLE[] cells: fractional, integral-valued, non-finite and NULL
    elements (``np.fromiter(…, int64)`` raises ValueError on a NaN)."""
    kind = i % 4
    if kind == 0:
        return [i + 0.5, -1.5, 2.25] if i % 8 else [i + 0.5, NAN, INF if i % 16 else -INF]
    if kind == 1:
        return [float(i), 2.0]  # integral floats stay floats
    if kind == 2:
        return [1.5, None]
    return None


def _g(i):
    if i % 13 == 0:
        return None
    if i % 17 == 0:
        return BIG if i % 2 else -BIG
    return (i * 31) % 23 - 11


ROWS = [(i, _g(i), _xs(i), _ys(i), _ds(i)) for i in range(1, 121)]


def make_db():
    db = Database()
    db.execute(
        "CREATE TABLE t (a BIGINT, g BIGINT, xs BIGINT[], ys BIGINT[], "
        "ds DOUBLE[], PRIMARY KEY (a))"
    )
    db.executemany("INSERT INTO t VALUES ($1, $2, $3, $4, $5)", ROWS)
    return db


@pytest.fixture(scope="module", params=[FORMAT_ID])
def stored(request):
    db = make_db()
    yield request.param, db
    db.close()


# ---------------------------------------------------------------------------
# The seeded statement generator
# ---------------------------------------------------------------------------
BASES = ["a", "g", "-a", "a * 3", "g / 7", "a + 0.5", "-g"]
SRFS = [
    "xs", "xs", "ys", "ds", "xs[2:4]", "ys[:3]", "xs[3:]", "ARRAY[a, g]",
]
WHERES = ["", "WHERE g > 0", "WHERE a % 3 <> 1", "WHERE a < 30"]
LIMITS = ["", "", " LIMIT 1", " LIMIT 7", " LIMIT 150", " LIMIT 2000"]


def statement(rng):
    items = [f"UNNEST({rng.choice(SRFS)})" for _ in range(rng.randint(1, 3))]
    items += rng.sample(BASES, rng.randint(0, 2))
    rng.shuffle(items)
    where = rng.choice(WHERES)
    return f"SELECT {', '.join(items)} FROM t {where}".rstrip() + rng.choice(
        LIMITS
    )


#: Bare ProjectSet: a WindowAgg or an Aggregate sits between it and the
#: projection, so its input columns are the kernel's base items. Over ``t``
#: they hold array cells (never columns); over ``s`` they are int64s but
#: for NULL ``g``/``x`` and the NULL elements of ``xs``.
BARE_FROMS = {
    "t": (SRFS, ["a", "g"], ["", "WHERE a % 3 <> 1", "WHERE a < 30"]),
    "(SELECT a, g, UNNEST(xs) AS x FROM t) s": (
        ["ARRAY[a, x]", "ARRAY[x, a]", "ARRAY[a, g, x]", "ARRAY[a]", "ARRAY[x]"],
        ["a", "g", "x", "x + 1"],
        ["", "WHERE x > 0", "WHERE a % 3 <> 1", "WHERE g IS NOT NULL"],
    ),
}
WINDOWS = [
    "ROW_NUMBER() OVER (ORDER BY a)",
    "ROW_NUMBER() OVER (PARTITION BY g ORDER BY a DESC)",
]
BARE_STATEMENTS = 30


def bare_statement(rng):
    source = rng.choice(list(BARE_FROMS))
    srfs, bases, wheres = BARE_FROMS[source]
    items = [f"UNNEST({rng.choice(srfs)})" for _ in range(rng.randint(1, 2))]
    where = rng.choice(wheres)
    if rng.random() < 0.25:  # Aggregate over the expansion
        return (
            f"SELECT UNNEST({rng.choice(srfs)}) AS y, COUNT(*), MIN(a) "
            f"FROM {source} {where} GROUP BY y".replace("  ", " ")
        )
    items += rng.sample(bases, rng.randint(0, 2)) + [rng.choice(WINDOWS)]
    rng.shuffle(items)
    return f"SELECT {', '.join(items)} FROM {source} {where}".rstrip() + rng.choice(
        LIMITS
    )


def statements():
    rng = random.Random("unnest-kernel")
    bare = random.Random("unnest-kernel/bare")
    return [statement(rng) for _ in range(STATEMENTS)] + [
        bare_statement(bare) for _ in range(BARE_STATEMENTS)
    ]


def typed(rows):
    """Rows with every value's type beside it: ``2 != 2.0`` here, and a NaN
    equals a NaN."""
    return [tuple((type(v).__name__, "NaN" if v != v else v) for v in row) for row in rows]


def pulls(db):
    return [[op.label, op.rows, op.pulls] for op in db.last_trace.operators()]


def key(layout, batch_size, sql):
    return f"{layout} {batch_size} {sql}"


def measured_pulls() -> dict:
    """``{key: per-operator [label, rows, pulls]}`` of every generated
    statement at both batch sizes."""
    out = {}
    db = make_db()
    for batch_size in BATCH_SIZES:
        db.batch_size = batch_size
        for sql in statements():
            if run_or_refuse(db, sql) is not None:
                out[key(FORMAT_ID, batch_size, sql)] = pulls(db)
    db.close()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(PULLS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_generated_statements_match_the_reference(stored, golden, batch_size):
    layout, db = stored
    db.batch_size = batch_size
    try:
        columnar = mixed = 0
        for sql in statements():
            engine = run_or_refuse(db, sql)
            if engine is None:  # refused: no pulls to pin
                assert key(layout, batch_size, sql) not in golden, sql
                continue
            got = pulls(db)
            assert db.pool.total_pins() == 0, sql
            reference = run_reference(db, sql)
            assert typed(engine.rows) == typed(reference.rows), sql
            assert engine.io == reference.io, sql
            assert got == golden[key(layout, batch_size, sql)], sql
            mixed += any(isinstance(v, float) for r in engine.rows for v in r)
            columnar += len(engine.rows) > batch_size
        assert mixed and columnar  # DOUBLE rows and multi-chunk expansions
    finally:
        db.batch_size = 1024


POINT_ITEMS = [
    "a, UNNEST(xs)",
    "UNNEST(xs), g, UNNEST(ys)",
    "a + 0.5, UNNEST(xs[2:4])",
    "g / 7, UNNEST(ds), a",
    "a / g, UNNEST(xs)",  # g = 0: a = 10 expands, 33 (xs NULL) and 56 (empty) do not
]
DIVIDES_BY_ZERO = "division by zero"


def answer(run, db, sql, a):
    """*run*'s (:func:`run_engine` or :func:`run_reference`) answer to *sql*
    at ``a``, or :data:`DIVIDES_BY_ZERO` where a base item divides by 0."""
    try:
        return run(db, sql, (a,))
    except SQLError as exc:
        assert str(exc) == DIVIDES_BY_ZERO, (sql, a)
        assert db.pool.total_pins() == 0, (sql, a)
        return DIVIDES_BY_ZERO


@pytest.mark.parametrize("items", POINT_ITEMS)
def test_point_lookups_with_base_items(stored, items):
    """A PK point lookup's one row is one chunk, base items included: a
    NULL, float or ±2^63−1 base value and every cell shape give the
    reference model's typed rows and pages, in one pull or none. A base item
    runs only for a row that expands, so both raise or neither does."""
    _, db = stored
    sql = f"SELECT {items} FROM t WHERE a = $1"
    for a in range(1, 121):
        engine = answer(run_engine, db, sql, a)
        if engine == DIVIDES_BY_ZERO:
            assert answer(run_reference, db, sql, a) == DIVIDES_BY_ZERO, (sql, a)
            continue
        (project,) = [op for op in db.last_trace.operators() if op.name == "Project"]
        reference = run_reference(db, sql, (a,))
        assert typed(engine.rows) == typed(reference.rows), (sql, a)
        assert engine.io == reference.io, (sql, a)
        assert project.pulls == (1 if engine.rows else 0), (sql, a)


def test_a_base_item_runs_only_for_rows_that_expand(stored):
    """``a / g`` divides by ``g = 0`` in rows 10, 33 and 56. Only 10's
    ``xs`` expands (33's is NULL, 56's empty), so a point lookup raises for
    10 alone, as the reference model does; a Seq Scan chunk holding 33 and
    56 among rows that expand answers as the reference model does, and
    one holding 10 raises."""
    _, db = stored
    point = "SELECT a / g, UNNEST(xs) FROM t WHERE a = $1"
    assert answer(run_engine, db, point, 10) == DIVIDES_BY_ZERO
    assert answer(run_reference, db, point, 10) == DIVIDES_BY_ZERO
    for a in (33, 56):
        assert run_engine(db, point, (a,)).rows == [] == run_reference(db, point, (a,)).rows
    scan = "SELECT a / g, UNNEST(xs) FROM t WHERE a > $1 AND a < 60"
    assert "Seq Scan" in str(db.execute("EXPLAIN " + scan, (30,)).rows)
    engine, reference = run_engine(db, scan, (30,)), run_reference(db, scan, (30,))
    assert engine.rows and typed(engine.rows) == typed(reference.rows)
    assert answer(run_engine, db, scan, 0) == DIVIDES_BY_ZERO


PARAM_STATEMENTS = [
    "SELECT UNNEST($1)",
    "SELECT a, UNNEST($1) FROM t WHERE a < 4",
    "SELECT a, UNNEST($1) FROM t WHERE a = 7",
    "SELECT x, COUNT(*) FROM (SELECT UNNEST($1) AS x) s GROUP BY x",
    "SELECT x FROM (SELECT UNNEST($1) AS x) s WHERE x = 1",
]


@pytest.mark.parametrize(
    "array",
    [np.array([1.5, 0.0, 2.0, 1.0, NAN, -INF]), np.array([True, False]), np.arange(3, dtype=np.int32)],
    ids=lambda array: array.dtype.name,
)
def test_an_ndarray_parameter_expands_as_its_list(stored, monkeypatch, array):
    """An array parameter is not checked against a schema: an ndarray of
    another dtype than int64 gives the rows its list gives, and the
    expansion makes no column of that dtype (a ``ColumnChunk`` is int64)."""
    _, db = stored
    dtypes = []

    def spied(self, *args):
        for chunk in kernel(self, *args):
            if type(chunk) is ColumnChunk:
                dtypes.extend(col.dtype for col in chunk.cols)
            yield chunk

    kernel = BatchExecutor._project_set
    monkeypatch.setattr(BatchExecutor, "_project_set", spied)
    for sql in PARAM_STATEMENTS:
        got = db.execute(sql, (array,)).rows
        assert typed(got) == typed(db.execute(sql, (array.tolist(),)).rows), sql
    assert set(dtypes) <= {np.dtype(np.int64)}


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM (SELECT a, UNNEST(xs) AS x FROM v) s WHERE x > 2 LIMIT 3",
        "SELECT * FROM (SELECT a, UNNEST(xs) AS x FROM v) s WHERE x > 2 LIMIT 2000",
        "SELECT a, UNNEST(xs) FROM v LIMIT 1500 OFFSET 7",
        # rows switch between columns and rows where g is NULL
        "SELECT a * 3, UNNEST(ARRAY[a, g]) FROM v LIMIT 150",
        "SELECT UNNEST(xs) FROM v WHERE a = 9",
        "SELECT a, UNNEST(xs) FROM v",
    ],
)
def test_fused_project_set_counts_the_rows_its_project_emits(sql):
    """A fused ProjectSet's ``rows`` are its Project's, also when a LIMIT
    closes the statement with expanded rows still buffered."""
    db = Database()
    db.execute("CREATE TABLE v (a BIGINT, g BIGINT, xs BIGINT[], PRIMARY KEY (a))")
    db.executemany(
        "INSERT INTO v VALUES ($1, $2, $3)",
        [(i, None if i % 5 == 2 else i, list(range(i, i + 5))) for i in range(3000)],
    )
    run_engine(db, sql)
    fused = [
        (op.rows, child.rows)
        for op in db.last_trace.operators()
        if op.name == "Project"
        for child in op.children
        if child.name == "ProjectSet"
    ]
    assert fused and all(rows == emitted for rows, emitted in fused), fused
    db.close()


def test_the_shapes_are_all_there():
    """The rows hold every cell shape the docstring promises."""
    cells = [c for row in ROWS for c in row[2:]]
    assert None in cells and [] in cells
    assert any(c and None in c for c in cells)  # NULL elements
    lengths = {len(c) for row in ROWS for c in row[2:4] if c and None not in c}
    assert min(lengths) < NP_DECODE_MIN <= max(lengths)  # list and ndarray
    assert any(c and BIG in c for c in cells) and any(c and -BIG in c for c in cells)
    assert any(c and 1.5 in c for c in cells)  # DOUBLE[]
    assert any(c and NAN in c for c in cells)  # identity: the one NAN object
    assert any(c and INF in c for c in cells) and any(c and -INF in c for c in cells)
    ragged = [r for r in ROWS if r[2] is not None and r[3] is not None]
    assert any(len(r[2]) != len(r[3]) for r in ragged)


if __name__ == "__main__":
    PULLS.write_text(
        json.dumps(measured_pulls(), indent=0, sort_keys=True) + "\n",
        encoding="utf-8",
    )
