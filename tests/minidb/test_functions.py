"""Direct unit tests of the scalar/aggregate function registry."""

import random
import sqlite3

import pytest

from repro.errors import SQLError, SQLNameError, SQLTypeError
from repro.minidb.engine import Database
from repro.minidb.sql import functions as fn
from tests.minidb.row_executor import LIST_AGGREGATES


class TestScalars:
    def test_floor_ceil_on_ints_and_floats(self):
        assert fn.SCALAR_FUNCTIONS["floor"](3.7) == 3
        assert fn.SCALAR_FUNCTIONS["floor"](5) == 5
        assert fn.SCALAR_FUNCTIONS["ceil"](3.2) == 4
        assert fn.SCALAR_FUNCTIONS["ceil"](None) is None

    def test_coalesce_variants(self):
        coalesce = fn.SCALAR_FUNCTIONS["coalesce"]
        assert coalesce(None, None) is None
        assert coalesce(None, 0, 1) == 0
        assert coalesce("x") == "x"

    def test_least_greatest_skip_nulls(self):
        assert fn.SCALAR_FUNCTIONS["least"](None, None) is None
        assert fn.SCALAR_FUNCTIONS["least"](3, None, 1) == 1
        assert fn.SCALAR_FUNCTIONS["greatest"](3, None, 1) == 3

    def test_cardinality_type_check(self):
        assert fn.SCALAR_FUNCTIONS["cardinality"]([1, 2]) == 2
        assert fn.SCALAR_FUNCTIONS["cardinality"](None) is None
        with pytest.raises(SQLTypeError):
            fn.SCALAR_FUNCTIONS["cardinality"](5)

    def test_array_length_postgres_quirks(self):
        array_length = fn.SCALAR_FUNCTIONS["array_length"]
        assert array_length([1], 1) == 1
        assert array_length([], 1) is None  # PostgreSQL returns NULL
        with pytest.raises(SQLTypeError):
            array_length([1], 2)  # one-dimensional only

    def test_mod_is_exact_and_fails_like_division(self):
        db = Database()
        pairs = [
            (9007199254740993, 2),  # 2^53 + 1: not a double
            (9223372036854775807, 10),
            (-9223372036854775808, 7),
            (-7, 2),
            (7, -2),
            (-7, -2),
        ]
        conn = sqlite3.connect(":memory:")
        for a, b in pairs:
            (want,) = conn.execute("SELECT ? % ?", (a, b)).fetchone()
            assert db.execute("SELECT MOD($1, $2)", (a, b)).scalar() == want
        conn.close()
        assert db.execute("SELECT MOD(-7.5, 2)").scalar() == -1.5
        for sql in ("SELECT MOD(7, 0)", "SELECT MOD(7.5, 0)", "SELECT 7 / 0"):
            with pytest.raises(SQLError, match="division by zero"):
                db.execute(sql)

    def test_unknown_lookup(self):
        with pytest.raises(SQLNameError):
            fn.get_scalar("nope")


class TestPostgresScalarSemantics:
    """ROUND, POWER, SQRT and integer arithmetic as PostgreSQL answers them;
    the expected values and error texts are PostgreSQL's."""

    def test_round_takes_a_tie_away_from_zero(self):
        db = Database()
        for sql, want in [
            ("SELECT ROUND(2.5)", 3.0),  # PostgreSQL: 3
            ("SELECT ROUND(-0.5)", -1.0),  # PostgreSQL: -1
            ("SELECT ROUND(0.5)", 1.0),  # PostgreSQL: 1
            ("SELECT ROUND(-2.4)", -2.0),  # PostgreSQL: -2
            ("SELECT ROUND(0.125, 2)", 0.13),  # PostgreSQL: 0.13
            ("SELECT ROUND(25, -1)", 30),  # PostgreSQL: 30
        ]:
            assert db.execute(sql).scalar() == want, sql

    def test_power_is_a_double_or_an_error(self):
        db = Database()
        # PostgreSQL: power(10, 30) = 1e+30, power(2, 3) = 8 (double)
        for sql, want in [("SELECT POWER(10, 30)", 1e30), ("SELECT POWER(2, 3)", 8.0)]:
            value = db.execute(sql).scalar()
            assert type(value) is float and value == want, sql
        for sql, message in [
            ("SELECT POWER(-8, 0.5)",
             "a negative number raised to a non-integer power yields a complex result"),
            ("SELECT POWER(0, -1)", "zero raised to a negative power is undefined"),
        ]:
            with pytest.raises(SQLError, match=message):
                db.execute(sql)

    def test_sqrt_of_a_negative_number_is_an_error(self):
        db = Database()
        with pytest.raises(SQLError, match="cannot take square root of a negative number"):
            db.execute("SELECT SQRT(-1)")
        assert db.execute("SELECT SQRT(2.25)").scalar() == 1.5

    def test_integer_arithmetic_leaving_int64_is_an_error(self):
        db = Database()
        db.execute("CREATE TABLE t (a BIGINT)")
        db.execute("INSERT INTO t VALUES (4611686018427387904)")
        for sql in (
            "SELECT 4611686018427387904 * 4",
            "SELECT 9223372036854775807 + 1",
            "SELECT -9223372036854775807 - 2",
            "SELECT a * 4 FROM t",
            "SELECT x * 4 FROM (SELECT UNNEST(ARRAY[4611686018427387904, 1]) AS x) u",
        ):
            with pytest.raises(SQLTypeError, match="bigint out of range"):  # PostgreSQL's text
                db.execute(sql)
        assert db.execute("SELECT 9223372036854775807 + 0").scalar() == 2**63 - 1
        assert db.execute("SELECT (a - 1) * 2 + 1 FROM t").scalar() == 2**63 - 1
        for sql in ("SELECT -(-9223372036854775807 - 1)",
                    "SELECT (-9223372036854775807 - 1) / -1"):
            with pytest.raises(SQLTypeError, match="bigint out of range"):
                db.execute(sql)

    def test_remainder_operator_is_mod(self):
        db = Database()
        # PostgreSQL: 9223372036854775807 % 10 = 7, -9223372036854775807 % 10 = -7,
        # -7.5 % 2 = -1.5 and 7.5 % -2 = 1.5 (the dividend's sign, as MOD)
        assert db.execute("SELECT 9223372036854775807 % 10").scalar() == 7
        assert db.execute("SELECT -9223372036854775807 % 10").scalar() == -7
        assert db.execute("SELECT -7 % 2, 7 % -2").rows == [(-1, 1)]
        assert db.execute("SELECT -7.5 % 2, 7.5 % -2").rows == [(-1.5, 1.5)]
        with pytest.raises(SQLError, match="division by zero"):
            db.execute("SELECT 7.5 % 0")


def fold(name, values):
    """The accumulator of aggregate *name* folded over *values*."""
    acc, step, final = fn.AGGREGATES[name]
    for value in values:
        acc = step(acc, value)
    return final(acc)


class TestAggregates:
    """Each aggregate is defined once, as an accumulator; a fold must equal
    the list definition the reference model keeps (``LIST_AGGREGATES``)."""

    def test_min_max_skip_nulls(self):
        assert fold("min", [None, 3, 1, None]) == 1
        assert fold("max", [None]) is None
        assert fold("max", []) is None

    def test_sum_avg(self):
        assert fold("sum", [1, None, 2]) == 3
        assert fold("avg", [1, None, 2]) == 1.5
        assert fold("sum", [None]) is None
        assert fold("avg", []) is None

    def test_count_counts_non_nulls(self):
        assert fold("count", [1, None, "x"]) == 2
        assert fold("count", []) == 0

    def test_array_agg(self):
        assert fold("array_agg", [1, None, 2]) == [1, 2]
        assert fold("array_agg", [None]) is None
        assert fold("array_agg", [3]) is not fold("array_agg", [3])  # no shared list

    def test_bool_aggregates(self):
        assert fold("bool_and", [True, True]) is True
        assert fold("bool_and", [True, False]) is False
        assert fold("bool_and", [None]) is None
        assert fold("bool_or", [False, None, True]) is True

    def test_is_aggregate(self):
        assert "min" in fn.AGGREGATES
        assert "floor" not in fn.AGGREGATES

    @pytest.mark.parametrize("name", sorted(LIST_AGGREGATES))
    def test_fold_equals_the_list_definition(self, name):
        assert sorted(fn.AGGREGATES) == sorted(LIST_AGGREGATES)
        rng = random.Random(f"functions/{name}")
        pools = {
            "ints": lambda: rng.randrange(-9, 9),
            "floats": lambda: rng.uniform(-1e6, 1e6) * 10 ** rng.randrange(-9, 9),
            "mixed": lambda: rng.choice([rng.randrange(5), rng.random()]),
            "bools": lambda: rng.random() < 0.7,
            "text": lambda: rng.choice("abcab"),
            "arrays": lambda: [rng.randrange(3) for _ in range(rng.randrange(3))],
        }
        numeric = ("ints", "floats", "mixed", "bools")
        for kind, draw in pools.items():
            if name in ("sum", "avg") and kind not in numeric:
                continue
            for _ in range(60):
                values = [
                    None if rng.random() < 0.2 else draw()
                    for _ in range(rng.randrange(0, 12))
                ]
                got, want = fold(name, values), LIST_AGGREGATES[name](values)
                # bit for bit: 0.1 + 0.2 + 0.3 summed in another order differs
                assert repr(got) == repr(want), (kind, values)
                assert type(got) is type(want)

    def test_min_max_keep_the_first_of_equal_values(self):
        # 1 == 1.0 == True: which one comes out shows which one was kept.
        for values in ([1, 1.0, True], [1.0, True, 1], [True, 1, 1.0]):
            assert repr(fold("min", values)) == repr(min(values))
            assert repr(fold("max", values)) == repr(max(values))
