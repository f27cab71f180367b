"""The band merge, the column hash join and the row hash table.

``L.key = R.key AND L.a <op> R.b`` under an ungrouped MIN/MAX can run three
ways — ``npbatch.band_join_aggregate`` (ranges over ``(key, b)``-ordered R,
no pairs), the hash join over column batches (``npbatch.join_pairs``: pair
arrays, one gather per column) and the hash join's row hash table, the
last two folded by the Aggregate — and the planner's choice is only ever a
cost decision. Every statement here is therefore run on the engine as
planned (band), on the engine with the band annotation cleared (pairs) and
on the reference model (``tests/minidb/reference.py``); rows, the ``Hash
Join rows=`` figure and page I/O must all agree, and ``rows=`` must be the
brute-force number of joined pairs.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb.engine import Database
from repro.minidb.sql import npbatch
from repro.minidb.sql import plan as phys
from repro.minidb.sql.planner import prepare
from repro.minidb.sql.vectorized import BatchExecutor
from tests.minidb.reference import run_engine, run_or_refuse, run_reference

OPS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}
FLIPPED = {"<=": ">=", "<": ">", ">=": "<=", ">": "<"}
#: aggregate operand → its value for one joined ``(l, r)`` pair of
#: ``(k, v, x)`` tuples.
OPERANDS = {
    "l.x": lambda l, r: l[2],
    "r.x": lambda l, r: r[2],
    "r.x - l.x": lambda l, r: r[2] - l[2],
    "l.x - r.x": lambda l, r: l[2] - r[2],
    "l.x + r.x": lambda l, r: l[2] + r[2],
}
BIG = 1 << 62


def statement(op, agg, operand, flipped=False):
    band = f"r.v {FLIPPED[op]} l.v" if flipped else f"l.v {op} r.v"
    return (
        "WITH l AS (SELECT UNNEST(ks) AS k, UNNEST(vs) AS v, UNNEST(xs) AS x "
        "FROM side WHERE id = 1), "
        "r AS (SELECT UNNEST(ks) AS k, UNNEST(vs) AS v, UNNEST(xs) AS x "
        "FROM side WHERE id = 2) "
        f"SELECT {agg}({operand}) FROM l, r WHERE l.k = r.k AND {band}"
    )


def make_db(left, right) -> Database:
    """*left*/*right* are lists of ``(k, v, x)``; each side is one row of
    three parallel arrays, the shape of a label row."""
    db = Database(device="hdd")
    db.execute(
        "CREATE TABLE side (id BIGINT, ks BIGINT[], vs BIGINT[], xs BIGINT[], "
        "PRIMARY KEY (id))"
    )
    for ident, rows in ((1, left), (2, right)):
        cols = [[row[i] for row in rows] for i in range(3)]
        db.execute("INSERT INTO side VALUES ($1, $2, $3, $4)", (ident, *cols))
    return db


def hash_join(db, sql) -> phys.HashJoin:
    """The HashJoin node of *sql*'s cached plan (Aggregate → HashJoin)."""
    node = db._ensure_cached(sql).plan.statement.root.child
    assert isinstance(node, phys.HashJoin)
    return node


@contextmanager
def pairs_only(db, sql):
    """Run *sql* with its band annotation cleared: the hash join's turn.
    The plan is prepared again each time, as a planned one would be."""
    statement = db._ensure_cached(sql).plan.statement
    node = hash_join(db, sql)
    band, node.np_band = node.np_band, None
    prepare(statement)
    try:
        yield
    finally:
        node.np_band = band
        prepare(statement)


@contextmanager
def kernel_log(monkeypatch):
    """Record ``"band"`` when the band kernel answered a statement,
    ``"pair"`` when the hash join joined column batches and ``"rows"``
    when it built the row hash table."""
    log = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            done = fn(*args, **kwargs)
            if done is not None:
                log.append(name)
            return done

        return wrapper

    def build_buckets(self, right, right_key):
        log.append("rows")
        return real_buckets(self, right, right_key)

    real_buckets = BatchExecutor._build_buckets
    with monkeypatch.context() as patch:
        for tag, name in (("band", "band_join_aggregate"), ("pair", "join_pairs")):
            patch.setattr(npbatch, name, recording(tag, getattr(npbatch, name)))
        patch.setattr(BatchExecutor, "_build_buckets", build_buckets)
        yield log


def join_rows(db) -> int:
    (op,) = db.last_trace.find("Hash Join")
    return op.rows


def check(db, left, right, op, agg, operand, flipped=False):
    """Band, pairs and reference agree with each other and with the
    definition; returns the answer. An operand value outside int64 is
    PostgreSQL's "bigint out of range" on every path."""
    sql = statement(op, agg, operand, flipped)
    values = [
        OPERANDS[operand](l, r)
        for l in left
        for r in right
        if l[0] == r[0] and OPS[op](l[1], r[1])
    ]
    if any(not -(1 << 63) <= value < 1 << 63 for value in values):
        assert run_or_refuse(db, sql) is None
        with pairs_only(db, sql):
            assert run_or_refuse(db, sql) is None
        return None
    expected = [((min if agg == "MIN" else max)(values) if values else None,)]

    band = run_engine(db, sql)
    band_rows = join_rows(db)
    with pairs_only(db, sql):
        pairs = run_engine(db, sql)
        pair_rows = join_rows(db)
    reference = run_reference(db, sql)
    assert band.rows == pairs.rows == reference.rows == expected
    assert band_rows == pair_rows == len(values)
    assert band.io == pairs.io == reference.io
    assert db.pool.total_pins() == 0
    return expected[0][0]


SMALL = st.integers(-3, 3)
#: keys / band values: mostly a tiny domain (duplicates, long runs), with
#: ±2^62 mixed in so the int64 composite cannot hold ``key * width + value``.
KEYS = st.one_of(SMALL, st.sampled_from([-BIG, BIG]))
BANDS = st.one_of(SMALL, st.integers(-50, 50), st.sampled_from([-BIG, BIG]))
#: aggregate inputs: mostly where ``x ± x`` fits int64, with ±2^62 mixed in
#: so the kernels must decline ``l.x ± r.x`` where numpy would wrap.
XS = st.one_of(SMALL, st.integers(-(1 << 61), 1 << 61), st.sampled_from([-BIG, BIG]))
TUPLES = st.tuples(KEYS, BANDS, XS)
SIDES = st.one_of(
    st.lists(TUPLES, max_size=12),
    st.lists(TUPLES, min_size=30, max_size=70),  # ndarray decode (≥ 32)
    st.lists(st.tuples(st.just(1), SMALL, XS), max_size=60),  # one giant run
)


class TestKernelsAgree:
    @given(
        left=SIDES,
        right=SIDES,
        op=st.sampled_from(sorted(OPS)),
        agg=st.sampled_from(["MIN", "MAX"]),
        operand=st.sampled_from(sorted(OPERANDS)),
        flipped=st.booleans(),
        sort_right=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_inputs(
        self, left, right, op, agg, operand, flipped, sort_right
    ):
        if sort_right:  # the order labels arrive in: no sort inside the kernel
            right = sorted(right)
        check(make_db(left, right), left, right, op, agg, operand, flipped)

    @pytest.mark.parametrize("operand", sorted(OPERANDS))
    @pytest.mark.parametrize("agg", ["MIN", "MAX"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_shape_runs_on_the_band_kernel(
        self, monkeypatch, op, agg, operand
    ):
        left = [(i % 5, (i * 7) % 23, (i * 13) % 31 - 9) for i in range(64)]
        right = [(i % 6, (i * 5) % 19, (i * 11) % 29 - 3) for i in range(48)]
        db = make_db(left, right)
        with kernel_log(monkeypatch) as log:
            assert check(db, left, right, op, agg, operand) is not None
        # check() runs band, pairs, reference: one kernel each, no probe loop.
        assert log == ["band", "pair"]
        assert "band" in hash_join(db, statement(op, agg, operand)).detail

    def test_unsorted_and_sorted_right_side(self):
        left = [(k, v, k + v) for k in range(4) for v in range(0, 40, 3)]
        right = [(k, v, 100 * k - v) for k in range(5) for v in range(40)]
        shuffled = right[::3] + right[1::3] + right[2::3]
        for rows in (right, shuffled):
            db = make_db(left, rows)
            for op in OPS:
                check(db, left, rows, op, "MIN", "r.x - l.x")


class TestOverflowGuard:
    def test_composite_too_wide_falls_to_pairs(self, monkeypatch):
        left = [(BIG, 1, 5), (-BIG, 2, 6), (3, -BIG, 7)] * 12
        right = [(BIG, 4, 8), (-BIG, 2, 9), (3, BIG, 10)] * 12
        db = make_db(left, right)
        with kernel_log(monkeypatch) as log:
            assert check(db, left, right, "<=", "MIN", "r.x") == 8
        assert log == ["pair", "pair"]  # the band kernel declined

    def test_width_alone_too_wide(self):
        left = [(0, -BIG - 5, 1), (0, 0, 2)] * 20
        right = [(0, BIG + 5, 3), (0, -1, 4)] * 20
        check(make_db(left, right), left, right, ">", "MAX", "l.x + r.x")

    @pytest.mark.parametrize("operand", ["l.x + r.x", "l.x - r.x", "r.x - l.x"])
    def test_aggregate_operand_too_wide_reaches_the_row_path(
        self, monkeypatch, operand
    ):
        left = [(1, 0, BIG), (1, 0, BIG + 5)] * 20
        right = [(1, 1, -BIG if "-" in operand else BIG), (1, 2, 3)] * 20
        db = make_db(left, right)
        folds = []
        real_fold = npbatch.group_aggregate

        def group_aggregate(*args):
            folds.append(real_fold(*args))
            return folds[-1]

        monkeypatch.setattr(npbatch, "group_aggregate", group_aggregate)
        with kernel_log(monkeypatch) as log:
            check(db, left, right, "<=", "MAX", operand)
        # The band kernel declined; the column join ran both times, and
        # group_aggregate declined its pairs: the accumulators folded them.
        assert log == ["pair", "pair"] and folds == [None, None]

    @pytest.mark.parametrize(
        "select, where, xs",
        [
            ("MAX(x + x)", "", [BIG, BIG + 5, 7]),
            ("MAX(x * 4)", "", [BIG, BIG + 5, 7]),
            ("x", " WHERE x + x > 0", [BIG, BIG + 5, 7]),
            ("MIN(-x - x)", "", [BIG, BIG + 5, 7]),
            ("MAX(-x)", "", [-2 * BIG, 5, 7]),
            ("MAX(x / -1)", "", [-2 * BIG, 5, 7]),
        ],
        ids=["add", "mul", "filter", "neg-sub", "neg-min", "div-min"],
    )
    def test_operand_arithmetic_declines_before_it_wraps(
        self, select, where, xs
    ):
        """numpy wraps at int64 where the row closures refuse the value: an
        operand spec whose array result could leave int64 must hand the
        statement back to them, which raise "bigint out of range" as the
        reference does, never a wrapped value."""
        db = make_db([(0, 0, x) for x in xs], [])
        sql = (
            f"SELECT {select} FROM "
            f"(SELECT UNNEST(xs) AS x FROM side WHERE id = 1) s{where}"
        )
        assert run_or_refuse(db, sql) is None


class TestNotABandJoin:
    """Shapes the planner must leave to the hash join's column path."""

    @pytest.mark.parametrize(
        "select, where",
        [
            ("COUNT(*)", "l.v <= r.v"),  # not MIN/MAX
            ("MIN(r.x), COUNT(*)", "l.v <= r.v"),
            ("MIN(r.x)", "l.v <= r.v AND l.x <= r.x"),  # two residuals
            ("MIN(r.x)", "l.v <> r.v"),  # not an ordering
            ("MIN(r.x)", "l.v <= l.x"),  # one-sided
            ("MIN(r.x * 2)", "l.v <= r.v"),  # operand shape
            ("MIN(l.x - l.v)", "l.v <= r.v"),  # both operand columns on L
            ("MIN(r.x)", "l.v + 1 <= r.v"),  # not a plain column
        ],
    )
    def test_stays_on_pairs_and_agrees(self, monkeypatch, select, where):
        left = [(i % 4, i % 9, i) for i in range(40)]
        right = [(i % 4, i % 7, -i) for i in range(40)]
        db = make_db(left, right)
        sql = statement("<=", "MIN", "r.x").replace(
            "MIN(r.x) FROM l, r WHERE l.k = r.k AND l.v <= r.v",
            f"{select} FROM l, r WHERE l.k = r.k AND {where}",
        )
        assert select in sql and where in sql
        assert hash_join(db, sql).np_band is None
        with kernel_log(monkeypatch) as log:
            assert run_engine(db, sql) == run_reference(db, sql)
        assert log == ["pair"]

    def test_grouped_aggregate_stays_on_pairs(self, monkeypatch):
        left = [(i % 4, i % 9, i) for i in range(40)]
        right = [(i % 4, i % 7, -i) for i in range(40)]
        db = make_db(left, right)
        sql = statement("<=", "MIN", "r.x").replace(
            "SELECT MIN(r.x)", "SELECT l.k, MIN(r.x)"
        ) + " GROUP BY l.k ORDER BY 1"
        with kernel_log(monkeypatch) as log:
            assert run_engine(db, sql) == run_reference(db, sql)
        assert log == ["pair"]


class TestNoPairSurvives:
    """A join that keeps nothing answers from the kernels: the row hash
    table (700 × 700 tuples cost 28 ms there) is for inputs they refuse."""

    LEFT = [(i % 7, 1000 + i, i) for i in range(200)]
    RIGHT = [(i % 7, i, i) for i in range(200)]  # every l.v > every r.v

    def test_band_path(self, monkeypatch):
        db = make_db(self.LEFT, self.RIGHT)
        with kernel_log(monkeypatch) as log:
            assert check(db, self.LEFT, self.RIGHT, "<=", "MIN", "r.x") is None
        assert log == ["band", "pair"]

    def test_pair_path_default_row(self, monkeypatch):
        db = make_db(self.LEFT, self.RIGHT)
        sql = statement("<=", "MIN", "r.x").replace(
            "SELECT MIN(r.x)", "SELECT MIN(r.x), COUNT(*), MAX(l.x)"
        )
        with kernel_log(monkeypatch) as log:
            got = run_engine(db, sql)
        assert got.rows == [(None, 0, None)]
        assert got == run_reference(db, sql)
        assert log == ["pair"] and join_rows(db) == 0

    def test_grouped_emits_no_row(self, monkeypatch):
        db = make_db(self.LEFT, self.RIGHT)
        sql = statement("<=", "MIN", "r.x").replace(
            "SELECT MIN(r.x)", "SELECT l.k, MIN(r.x)"
        ) + " GROUP BY l.k"
        with kernel_log(monkeypatch) as log:
            assert run_engine(db, sql).rows == run_reference(db, sql).rows == []
        assert log == ["pair"]

    @pytest.mark.parametrize("empty", ["left", "right"])
    def test_empty_side(self, monkeypatch, empty):
        left = [] if empty == "left" else self.LEFT
        right = [] if empty == "right" else self.RIGHT
        db = make_db(left, right)
        with kernel_log(monkeypatch) as log:
            assert check(db, left, right, ">=", "MAX", "l.x") is None
        assert "rows" not in log

    def test_refused_input_still_reaches_the_probe_loop(self, monkeypatch):
        """A NULL element keeps its side off the column kernels: the row
        closures own NULL semantics."""
        db = make_db(self.LEFT[:40], self.RIGHT[:40])
        db.execute(
            "UPDATE side SET vs = ARRAY[NULL, 5, 2000] , ks = ARRAY[1, 1, 1], "
            "xs = ARRAY[7, 8, 9] WHERE id = 2"
        )
        sql = statement("<=", "MIN", "r.x")
        with kernel_log(monkeypatch) as log:
            got = run_engine(db, sql)
        assert got == run_reference(db, sql)
        assert got.rows == [(9,)] and log == ["rows"]
