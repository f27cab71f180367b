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
