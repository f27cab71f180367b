"""Executor tests: arrays, UNNEST, slices, window functions, UNION, DML."""

import pytest

from repro.errors import CatalogError, SQLError, SQLSyntaxError, SQLTypeError
from repro.minidb.engine import Database


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE lab (v BIGINT, hubs BIGINT[], tds BIGINT[], tas BIGINT[], PRIMARY KEY (v))"
    )
    database.execute(
        "INSERT INTO lab VALUES "
        "(1, ARRAY[0, 1, 1], ARRAY[324, 324, 396], ARRAY[360, 324, 396]), "
        "(2, ARRAY[0, 4], ARRAY[324, 396], ARRAY[360, 396]), "
        "(3, NULL, NULL, NULL), "
        "(4, ARRAY[], ARRAY[], ARRAY[])"
    )
    return database


class TestUnnest:
    def test_parallel_unnest_stays_in_sync(self, db):
        rows = db.execute(
            "SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta "
            "FROM lab WHERE v = 1"
        ).rows
        assert rows == [(0, 324, 360), (1, 324, 324), (1, 396, 396)]

    def test_unnest_of_null_yields_nothing(self, db):
        assert db.execute("SELECT UNNEST(hubs) FROM lab WHERE v = 3").rows == []

    def test_unnest_of_empty_yields_nothing(self, db):
        assert db.execute("SELECT UNNEST(hubs) FROM lab WHERE v = 4").rows == []

    def test_unnest_with_scalar_column_repeats(self, db):
        rows = db.execute("SELECT v, UNNEST(hubs) FROM lab WHERE v = 2").rows
        assert rows == [(2, 0), (2, 4)]

    def test_unequal_lengths_pad_with_null(self, db):
        db.execute("INSERT INTO lab VALUES (5, ARRAY[7], ARRAY[1, 2], ARRAY[3, 4])")
        rows = db.execute(
            "SELECT UNNEST(hubs), UNNEST(tds) FROM lab WHERE v = 5"
        ).rows
        assert rows == [(7, 1), (None, 2)]

    def test_unnest_must_be_top_level(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT UNNEST(hubs) + 1 FROM lab WHERE v = 1")

    def test_unnest_non_array_rejected(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("SELECT UNNEST(v) FROM lab WHERE v = 1")


class TestSlicesAndIndexing:
    def test_slice_is_one_based_inclusive(self, db):
        rows = db.execute("SELECT UNNEST(hubs[1:2]) FROM lab WHERE v = 1").rows
        assert rows == [(0,), (1,)]

    def test_slice_clamps_out_of_range(self, db):
        rows = db.execute("SELECT UNNEST(hubs[2:99]) FROM lab WHERE v = 1").rows
        assert rows == [(1,), (1,)]

    def test_slice_with_param(self, db):
        rows = db.execute("SELECT UNNEST(tds[1:$1]) FROM lab WHERE v = 1", (1,)).rows
        assert rows == [(324,)]

    def test_index(self, db):
        assert db.execute("SELECT hubs[2] FROM lab WHERE v = 1").scalar() == 1

    def test_index_out_of_range_is_null(self, db):
        assert db.execute("SELECT hubs[9] FROM lab WHERE v = 1").scalar() is None

    def test_cardinality_and_array_length(self, db):
        assert db.execute("SELECT CARDINALITY(hubs) FROM lab WHERE v = 1").scalar() == 3
        assert db.execute("SELECT CARDINALITY(hubs) FROM lab WHERE v = 4").scalar() == 0
        assert db.execute("SELECT ARRAY_LENGTH(hubs, 1) FROM lab WHERE v = 4").scalar() is None

    def test_array_concat(self, db):
        assert db.execute("SELECT ARRAY[1] || ARRAY[2, 3]").scalar() == [1, 2, 3]


HUNDRED = list(range(1, 101))  # decodes to an int64 ndarray: UNNEST reads it raw


@pytest.fixture()
def arrays():
    database = Database()
    database.execute("CREATE TABLE arr (k BIGINT, a BIGINT[], PRIMARY KEY (k))")
    database.execute("INSERT INTO arr VALUES ($1, $2)", (1, [1, 2, 3]))
    database.execute("INSERT INTO arr VALUES ($1, $2)", (2, HUNDRED))
    return database


def cut(db, form, subscript, params=(), where="k = 1"):
    """``a<subscript>`` through the row closure (the value) or through
    UNNEST's raw reader (the expanded elements, as a list)."""
    if form == "closure":
        sql = f"SELECT a{subscript} FROM arr WHERE {where}"
        return db.execute(sql, params).scalar()
    sql = f"SELECT UNNEST(a{subscript}) FROM arr WHERE {where}"
    return [x for (x,) in db.execute(sql, params).rows]


@pytest.mark.parametrize("form", ["closure", "unnest"])
class TestSliceBounds:
    """One bound rule for ``a[lo:hi]`` in the compiled closure and the
    UNNEST reader: an upper bound below the lower one or below 1 is the
    empty array (never counted from the end); an integral float is its
    integer; any other bound is a typed error naming it."""

    def test_negative_upper_bound_is_empty(self, arrays, form):
        assert cut(arrays, form, "[1:-1]") == []
        assert cut(arrays, form, "[1:$1]", (-1,)) == []
        assert cut(arrays, form, "[1:-98]", where="k = 2") == []
        assert cut(arrays, form, "[1:$1]", (-98,), where="k = 2") == []

    def test_upper_below_lower_is_empty(self, arrays, form):
        assert cut(arrays, form, "[3:2]") == []
        assert cut(arrays, form, "[$1:2]", (50,), where="k = 2") == []
        assert cut(arrays, form, "[0:0]") == []

    def test_in_range_bounds_are_clamped(self, arrays, form):
        assert cut(arrays, form, "[0:2]") == [1, 2]
        assert cut(arrays, form, "[-5:$1]", (99,)) == [1, 2, 3]
        assert cut(arrays, form, "[98:$1]", (1000,), where="k = 2") == [98, 99, 100]

    def test_integral_float_bound_is_its_integer(self, arrays, form):
        assert cut(arrays, form, "[1:$1]", (2.0,)) == [1, 2]
        assert cut(arrays, form, "[$1:3]", (2.0,)) == [2, 3]
        assert cut(arrays, form, "[1:$1]", (3.0,), where="k = 2") == [1, 2, 3]

    @pytest.mark.parametrize("bad", [2.7, "x", True, float("nan")])
    def test_other_bounds_are_typed_errors(self, arrays, form, bad):
        with pytest.raises(SQLTypeError, match="slice upper bound"):
            cut(arrays, form, "[1:$1]", (bad,))
        with pytest.raises(SQLTypeError, match="slice lower bound"):
            cut(arrays, form, "[$1:2]", (bad,), where="k = 2")

    def test_a_scan_applies_the_same_rule(self, arrays, form):
        item = "a[2:$1]" if form == "closure" else "UNNEST(a[2:$1])"
        rows = arrays.execute(f"SELECT {item} FROM arr WHERE k > 0", (-1,)).rows
        assert rows == ([([],), ([],)] if form == "closure" else [])
        with pytest.raises(SQLTypeError, match="slice upper bound"):
            arrays.execute(f"SELECT {item} FROM arr WHERE k > 0", (2.7,))


class TestSubscriptBounds:
    def test_integral_float_subscript_is_its_integer(self, arrays):
        assert cut(arrays, "closure", "[$1]", (1.0,)) == 1
        assert cut(arrays, "closure", "[$1]", (100.0,), where="k = 2") == 100

    @pytest.mark.parametrize("bad", [2.7, "x", True])
    def test_other_subscripts_are_typed_errors(self, arrays, bad):
        with pytest.raises(SQLTypeError, match="subscript"):
            cut(arrays, "closure", "[$1]", (bad,))

    def test_out_of_range_subscript_stays_null(self, arrays):
        assert cut(arrays, "closure", "[$1]", (-1,)) is None
        assert cut(arrays, "closure", "[$1]", (4.0,)) is None


class TestArrayAgg:
    def test_array_agg_with_order(self, db):
        value = db.execute(
            "SELECT ARRAY_AGG(x.td ORDER BY x.td DESC) FROM "
            "(SELECT UNNEST(tds) AS td FROM lab WHERE v = 1) x"
        ).scalar()
        assert value == [396, 324, 324]

    def test_array_agg_multi_key_order(self, db):
        value = db.execute(
            "SELECT ARRAY_AGG(x.hub ORDER BY x.td, x.hub) FROM "
            "(SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td FROM lab WHERE v = 1) x"
        ).scalar()
        assert value == [0, 1, 1]

    def test_array_agg_empty_is_null(self, db):
        value = db.execute(
            "SELECT ARRAY_AGG(v) FROM lab WHERE v > 99"
        ).scalar()
        assert value is None


class TestWindow:
    def test_row_number_partition(self, db):
        rows = db.execute(
            "SELECT x.hub, x.td, ROW_NUMBER() OVER (PARTITION BY x.hub ORDER BY x.td) AS rn "
            "FROM (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td FROM lab WHERE v = 1) x "
            "ORDER BY x.hub, x.td"
        ).rows
        assert rows == [(0, 324, 1), (1, 324, 1), (1, 396, 2)]

    def test_row_number_filterable_in_outer_query(self, db):
        rows = db.execute(
            "SELECT y.hub FROM (SELECT x.hub, ROW_NUMBER() OVER (ORDER BY x.td DESC) AS rn "
            "FROM (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td FROM lab WHERE v = 1) x) y "
            "WHERE y.rn = 1"
        ).rows
        assert rows == [(1,)]

    def test_unsupported_window_function(self, db):
        with pytest.raises(SQLError):
            db.execute("SELECT RANK() OVER (ORDER BY v) FROM lab")


class TestUnion:
    def test_union_dedupes(self, db):
        rows = db.execute(
            "SELECT 1 AS x UNION SELECT 1 UNION SELECT 2 ORDER BY x"
        ).rows
        assert rows == [(1,), (2,)]

    def test_union_all_keeps(self, db):
        rows = db.execute("SELECT 1 UNION ALL SELECT 1").rows
        assert rows == [(1,), (1,)]

    def test_union_operands_keep_their_limits(self, db):
        rows = db.execute(
            "SELECT s.x FROM ((SELECT v AS x FROM lab ORDER BY v LIMIT 1) UNION "
            "(SELECT v FROM lab ORDER BY v DESC LIMIT 1)) s ORDER BY s.x"
        ).rows
        assert rows == [(1,), (4,)]

    def test_union_width_mismatch(self, db):
        with pytest.raises(SQLError):
            db.execute("SELECT 1 UNION SELECT 1, 2")


class TestDML:
    def test_duplicate_primary_key_rejected(self, db):
        with pytest.raises(CatalogError, match="duplicate"):
            db.execute("INSERT INTO lab VALUES (1, NULL, NULL, NULL)")

    def test_insert_wrong_arity(self, db):
        with pytest.raises((CatalogError, SQLError)):
            db.execute("INSERT INTO lab VALUES (9)")

    def test_insert_select(self, db):
        db.execute("CREATE TABLE copy (v BIGINT, n BIGINT, PRIMARY KEY (v))")
        db.execute(
            "INSERT INTO copy SELECT v, CARDINALITY(hubs) FROM lab WHERE v <= 2"
        )
        rows = db.execute("SELECT * FROM copy ORDER BY v").rows
        assert rows == [(1, 3), (2, 2)]

    def test_insert_column_subset(self, db):
        db.execute("CREATE TABLE sparse (a BIGINT, b BIGINT, c TEXT)")
        db.execute("INSERT INTO sparse (c, a) VALUES ('x', 1)")
        assert db.execute("SELECT a, b, c FROM sparse").rows == [(1, None, "x")]

    def test_delete_with_predicate(self, db):
        count = db.execute("DELETE FROM lab WHERE v > 2").rows[0][0]
        assert count == 2
        assert len(db.execute("SELECT v FROM lab").rows) == 2

    def test_drop_and_recreate(self, db):
        db.execute("DROP TABLE lab")
        with pytest.raises(CatalogError):
            db.execute("SELECT 1 FROM lab")
        db.execute("DROP TABLE IF EXISTS lab")  # no error
        db.execute("CREATE TABLE lab (v BIGINT)")
        assert db.execute("SELECT COUNT(*) FROM lab").scalar() == 0

    def test_type_mismatch_on_insert(self, db):
        with pytest.raises(SQLTypeError):
            db.execute("INSERT INTO lab VALUES ('nope', NULL, NULL, NULL)")
