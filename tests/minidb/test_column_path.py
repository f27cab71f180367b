"""The kNN/OTM column path against the reference model: rows and page I/O.

An index nested loop whose probe side arrives as a ``ColumnChunk`` emits
one too — int64 columns, and values + offsets (``npbatch.ArrayColumn``) per
``BIGINT[]`` cell — and the UNNEST expansion reads those columns, a
constant-bound slice ``a[lo:hi]`` as a position-in-row mask. Random
aux-shaped tables (NULL cells, empty arrays, cells of ``NP_DECODE_MIN`` or
more elements, cells with NULL elements, which keep the row path) are
probed with absent and repeated keys by statements shaped like Codes 3-4,
each checked against ``tests/minidb/reference.py``.
"""

import random

import numpy as np
import pytest

from repro.minidb.engine import Database
from repro.minidb.sql import npbatch, vectorized
from repro.minidb.values import NP_DECODE_MIN, T_BIGINT, T_BIGINT_ARRAY
from tests.minidb.reference import run_engine, run_reference

PROBE = """
WITH p AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(hours) AS hour, UNNEST(tas) AS ta
   FROM q WHERE id = $1),
b AS
  (SELECT a.*, p.ta AS p_ta FROM aux a, p WHERE a.hub = p.hub AND a.hour = p.hour)
"""

STATEMENTS = [
    PROBE + "SELECT * FROM b",
    PROBE + "SELECT p_ta, UNNEST(vs) AS v, UNNEST(tas) AS t FROM b",
    PROBE + "SELECT UNNEST(tds) AS d FROM b WHERE p_ta > 3",
    PROBE + "SELECT UNNEST(vs[1:$2]) AS v, UNNEST(tas[1:$2]) AS t FROM b",
    PROBE + "SELECT hub, UNNEST(tas[2:$2]) AS t FROM b",
    PROBE
    + """SELECT v, MIN(t) FROM
           (SELECT p_ta, UNNEST(tds) AS d, UNNEST(vs) AS v, UNNEST(tas) AS t FROM b) x
         WHERE p_ta <= d GROUP BY v ORDER BY MIN(t), v""",
    PROBE
    + """SELECT v, MIN(t) FROM
           ((SELECT v, MIN(t) AS t FROM
               (SELECT UNNEST(tas[1:$2]) AS t, UNNEST(vs[1:$2]) AS v FROM b) n3
             GROUP BY v ORDER BY MIN(t), v LIMIT 4)
           UNION
            (SELECT v, MIN(t) AS t FROM
               (SELECT p_ta, UNNEST(tds) AS d, UNNEST(vs) AS v, UNNEST(tas) AS t FROM b) n2
             WHERE p_ta <= d GROUP BY v ORDER BY MIN(t), v LIMIT 4)) s
         GROUP BY v ORDER BY MIN(t), v""",
]

#: ``$2``: a NULL bound, bounds below, at and above the arrays' lengths.
BOUNDS = [None, -1, 0, 1, 4, 100]


def cell(rng, parallel=None):
    """A random ``BIGINT[]`` cell: NULL, empty, short, long (an ndarray when
    decoded) or holding a NULL element; *parallel* fixes its length."""
    kind = rng.choice(["null", "empty", "short", "short", "long", "nulls"])
    if parallel is not None:
        kind = "short" if parallel < NP_DECODE_MIN else "long"
    if kind == "null":
        return None
    if kind == "empty":
        return []
    n = parallel if parallel is not None else (
        rng.randint(NP_DECODE_MIN, NP_DECODE_MIN + 20) if kind == "long" else rng.randint(1, 9)
    )
    values = [rng.randint(-5, 40) for _ in range(n)]
    if kind == "nulls":
        values[rng.randrange(n)] = None
    return values


def build(seed, nulls):
    """An aux-shaped table and a probe row per seed: most rows' arrays run
    parallel; *nulls* lets cells hold NULL elements."""
    rng = random.Random(seed)
    db = Database(pool_pages=64)
    db.execute(
        "CREATE TABLE aux (hub BIGINT, hour BIGINT, vs BIGINT[], tas BIGINT[], "
        "tds BIGINT[], PRIMARY KEY (hub, hour))"
    )
    db.execute(
        "CREATE TABLE q (id BIGINT, hubs BIGINT[], hours BIGINT[], tas BIGINT[], "
        "PRIMARY KEY (id))"
    )
    rows = []
    for hub in range(12):
        for hour in range(4):
            if rng.random() < 0.3:
                continue  # an absent key
            if rng.random() < 0.75:
                n = rng.choice([0, 1, 3, 5, NP_DECODE_MIN + 3])
                arrays = [cell(rng, n) for _ in range(3)]
                if rng.random() < 0.1:
                    arrays[rng.randrange(3)] = None  # a NULL cell
            else:
                arrays = [cell(rng) for _ in range(3)]
            if not nulls:
                arrays = [a and [x for x in a if x is not None] for a in arrays]
            rows.append((hub, hour, *arrays))
    db.executemany("INSERT INTO aux VALUES ($1, $2, $3, $4, $5)", rows)
    for pid in (1, 2):
        n = rng.randint(1, 40)
        hubs = [rng.randrange(14) for _ in range(n)]  # 12, 13: never stored
        hours = [rng.randrange(4) for _ in range(n)]
        db.execute(
            "INSERT INTO q VALUES ($1, $2, $3, $4)",
            (pid, hubs, hours, [rng.randint(0, 30) for _ in range(n)]),
        )
    return db


@pytest.fixture()
def paths(monkeypatch):
    """Which form each INL output batch took (``columns`` or ``rows``) and
    each expansion of a column chunk (``expanded`` or ``declined``)."""
    seen = []
    built, expand = npbatch.row_columns, vectorized._array_block

    def built_spy(rows, types):
        cols = built(rows, types)
        seen.append("rows" if cols is None else "columns")
        return cols

    def expand_spy(*args):
        block = expand(*args)
        seen.append("declined" if block is None else "expanded")
        return block

    monkeypatch.setattr(npbatch, "row_columns", built_spy)
    monkeypatch.setattr(vectorized, "_array_block", expand_spy)
    return seen


@pytest.mark.parametrize("nulls", [False, True], ids=["int64", "null-elements"])
@pytest.mark.parametrize("seed", range(6))
def test_column_path_matches_the_reference(seed, nulls, paths):
    db = build(seed, nulls)
    for sql in STATEMENTS:
        for pid in (1, 2):
            for bound in BOUNDS if "$2" in sql else [None]:
                params = (pid, bound) if "$2" in sql else (pid,)
                got = run_engine(db, sql, params)
                assert got == run_reference(db, sql, params), (sql, params)
                assert all(
                    type(c) is not np.ndarray for row in got.rows for c in row
                )
    # A cell with a NULL element keeps its batch on the row path.
    assert ("rows" if nulls else "columns") in paths
    if not nulls:  # ragged SRF lengths decline to the row path
        assert {"expanded", "declined"} <= set(paths)


class TestArrayColumn:
    CELLS = [[1, 2, 3], None, [], np.arange(40, dtype=np.int64), [7]]

    def column(self):
        return npbatch.row_columns([(c,) for c in self.CELLS], (T_BIGINT_ARRAY,))[0]

    def as_lists(self):
        return [None if c is None else list(map(int, c)) for c in self.CELLS]

    def test_iterates_as_list_cells(self):
        col = self.column()
        assert col.tolist() == self.as_lists()
        chunk = npbatch.ArrayChunk([np.arange(5, dtype=np.int64), col])
        assert list(chunk) == list(zip(range(5), self.as_lists()))
        assert chunk[3] == (3, self.as_lists()[3])

    @pytest.mark.parametrize("rows", [slice(1, 4), slice(0, 0), slice(3, None)])
    def test_slices_read_it_as_rows(self, rows):
        chunk = npbatch.ArrayChunk([np.arange(5, dtype=np.int64), self.column()])
        assert chunk[rows] == list(zip(range(5), self.as_lists()))[rows]
        assert type(chunk.project([1, 0])) is npbatch.ArrayChunk

    def test_kernels_decline_it(self):
        chunk = npbatch.ArrayChunk([np.arange(5, dtype=np.int64), self.column()])
        assert npbatch.eval_masks([("cmp", ">", ("col", 0), ("const", 1))], chunk.cols, (), 5) is not None
        assert npbatch.eval_masks([("cmp", "=", ("col", 1), ("const", 1))], chunk.cols, (), 5) is None
        assert npbatch.eval_keys([("col", 1)], chunk.cols, (), 5) is None

    @pytest.mark.parametrize("part", [None, slice(0, None), slice(0, 0), slice(0, 2),
                                      slice(1, 3), slice(2, None), slice(0, 10**20)])
    def test_cut_is_the_slice_of_every_cell(self, part):
        values, lengths = self.column().cut(part)
        cells = [[] if c is None or part is None else c[part] for c in self.as_lists()]
        assert lengths.tolist() == list(map(len, cells))
        assert values.tolist() == [x for c in cells for x in c]

    def test_other_column_types_stay_rows(self):
        assert npbatch.row_columns([(1, [None, 2])], (T_BIGINT, T_BIGINT_ARRAY)) is None
        assert npbatch.row_columns([(None, [2])], (T_BIGINT, T_BIGINT_ARRAY)) is None
        assert npbatch.row_columns([(1.5,)], (2,)) is None
