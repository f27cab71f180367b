"""Executor tests: joins (hash, index nested-loop), grouping, aggregates."""

import pytest

from repro.errors import SQLNameError, SQLSyntaxError
from repro.minidb.engine import Database
from tests.minidb.reference import run_engine, run_reference


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE emp (id BIGINT, dept BIGINT, pay BIGINT, PRIMARY KEY (id))")
    database.execute(
        "INSERT INTO emp VALUES (1, 10, 100), (2, 10, 200), (3, 20, 150), (4, 30, NULL)"
    )
    database.execute("CREATE TABLE dept (id BIGINT, name TEXT, PRIMARY KEY (id))")
    database.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')")
    return database


class TestJoins:
    def test_comma_join_with_where(self, db):
        rows = db.execute(
            "SELECT emp.id, dept.name FROM emp, dept "
            "WHERE emp.dept = dept.id ORDER BY emp.id"
        ).rows
        assert rows == [(1, "eng"), (2, "eng"), (3, "ops")]

    def test_inner_join_on(self, db):
        rows = db.execute(
            "SELECT emp.id, dept.name FROM emp INNER JOIN dept "
            "ON emp.dept = dept.id ORDER BY emp.id"
        ).rows
        assert len(rows) == 3

    def test_cross_join_counts(self, db):
        rows = db.execute("SELECT 1 FROM emp CROSS JOIN dept").rows
        assert len(rows) == 8

    def test_join_drops_unmatched(self, db):
        # employee 4's department 30 does not exist: inner semantics
        ids = [r[0] for r in db.execute(
            "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id"
        ).rows]
        assert 4 not in ids

    def test_index_nested_loop_probes_pk(self, db):
        """Joining a derived relation against a table on its full PK must
        use point lookups, not a scan (the PTLDB access-pattern claim)."""
        derived = "(SELECT 10 AS d UNION SELECT 20) x"
        db.restart()
        rows = db.execute(
            f"SELECT dept.name FROM {derived}, dept WHERE dept.id = x.d "
            "ORDER BY dept.name"
        ).rows
        assert rows == [("eng",), ("ops",)]

    def test_self_join_with_aliases(self, db):
        rows = db.execute(
            "SELECT a.id, b.id FROM emp a, emp b "
            "WHERE a.dept = b.dept AND a.id < b.id"
        ).rows
        assert rows == [(1, 2)]

    def test_ambiguous_column(self, db):
        with pytest.raises(SQLNameError, match="ambiguous"):
            db.execute("SELECT id FROM emp, dept")

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE bonus (dept BIGINT, amount BIGINT, PRIMARY KEY (dept))")
        db.execute("INSERT INTO bonus VALUES (10, 5), (20, 7)")
        rows = db.execute(
            "SELECT emp.id, bonus.amount FROM emp, dept, bonus "
            "WHERE emp.dept = dept.id AND dept.id = bonus.dept ORDER BY emp.id"
        ).rows
        assert rows == [(1, 5), (2, 5), (3, 7)]


class TestArrayKeyedHashJoin:
    """An equi-join on ``BIGINT[]`` cells keys the hash table by each
    cell's tuple, as DISTINCT and GROUP BY do; it raised ``TypeError:
    unhashable type: 'list'``."""

    LONG = list(range(-5, 40))  # 45 elements: decodes to an ndarray

    @pytest.fixture()
    def arrays(self):
        database = Database()
        for name, rows in (
            ("a", [(1, [1, 2, 3]), (2, self.LONG), (3, None), (4, []), (5, [7])]),
            ("b", [(10, self.LONG), (11, [1, 2, 3]), (12, None), (13, []),
                   (14, [1, 2]), (15, self.LONG), (16, [7, 7])]),
        ):
            database.execute(
                f"CREATE TABLE {name} (id BIGINT, arr BIGINT[], PRIMARY KEY (id))"
            )
            database.executemany(f"INSERT INTO {name} VALUES ($1, $2)", rows)
        return database

    @pytest.mark.parametrize(
        "source",
        ["FROM a, b WHERE a.arr = b.arr", "FROM a JOIN b ON a.arr = b.arr"],
    )
    def test_rows_equal_the_nested_loop(self, arrays, source):
        sql = f"SELECT a.id, b.id {source} ORDER BY a.id, b.id"
        assert any(
            "Hash Join" in line for (line,) in arrays.execute(f"EXPLAIN {sql}").rows
        )
        expected = arrays.execute(
            "SELECT a.id, b.id FROM a, b WHERE NOT (a.arr <> b.arr) "
            "ORDER BY a.id, b.id"
        ).rows
        assert expected == [(1, 11), (2, 10), (2, 15), (4, 13)]
        assert run_engine(arrays, sql) == run_reference(arrays, sql)
        assert arrays.execute(sql).rows == expected


class TestAggregates:
    def test_global_aggregates(self, db):
        row = db.execute(
            "SELECT COUNT(*), COUNT(pay), MIN(pay), MAX(pay), SUM(pay), AVG(pay) FROM emp"
        ).rows[0]
        assert row == (4, 3, 100, 200, 450, 150.0)

    def test_aggregate_over_empty_input_is_one_null_row(self, db):
        result = db.execute("SELECT MIN(pay) FROM emp WHERE id > 99")
        assert result.rows == [(None,)]

    def test_count_star_empty(self, db):
        assert db.execute("SELECT COUNT(*) FROM emp WHERE id > 99").scalar() == 0

    def test_group_by(self, db):
        rows = db.execute(
            "SELECT dept, COUNT(*), MAX(pay) FROM emp GROUP BY dept ORDER BY dept"
        ).rows
        assert rows == [(10, 2, 200), (20, 1, 150), (30, 1, None)]

    def test_group_by_expression(self, db):
        rows = db.execute(
            "SELECT FLOOR(pay/100) AS bucket, COUNT(*) FROM emp "
            "WHERE pay IS NOT NULL GROUP BY FLOOR(pay/100) ORDER BY bucket"
        ).rows
        assert rows == [(1, 2), (2, 1)]

    def test_group_by_alias(self, db):
        rows = db.execute(
            "SELECT dept * 10 AS d10, COUNT(*) FROM emp GROUP BY d10 ORDER BY d10"
        ).rows
        assert rows[0] == (100, 2)

    def test_having(self, db):
        rows = db.execute(
            "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1"
        ).rows
        assert rows == [(10,)]

    def test_order_by_aggregate(self, db):
        rows = db.execute(
            "SELECT dept FROM emp WHERE pay IS NOT NULL "
            "GROUP BY dept ORDER BY MAX(pay) DESC"
        ).rows
        assert rows == [(10,), (20,)]

    def test_count_distinct(self, db):
        db.execute("INSERT INTO emp VALUES (5, 10, 100)")
        assert db.execute("SELECT COUNT(DISTINCT pay) FROM emp").scalar() == 3

    def test_expression_over_aggregates(self, db):
        value = db.execute("SELECT MAX(pay) - MIN(pay) FROM emp").scalar()
        assert value == 100

    def test_count_star_requires_count(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("SELECT MIN(*) FROM emp")


class TestSubqueries:
    def test_from_subquery(self, db):
        rows = db.execute(
            "SELECT big.id FROM (SELECT id FROM emp WHERE pay >= 150) big ORDER BY id"
        ).rows
        assert rows == [(2,), (3,)]

    def test_nested_subqueries(self, db):
        value = db.execute(
            "SELECT MAX(x.p) FROM (SELECT inner2.pay AS p FROM "
            "(SELECT pay FROM emp WHERE dept = 10) inner2) x"
        ).scalar()
        assert value == 200

    def test_cte_chain(self, db):
        rows = db.execute(
            "WITH a AS (SELECT id, pay FROM emp WHERE pay > 100), "
            "b AS (SELECT id FROM a WHERE pay < 200) SELECT * FROM b"
        ).rows
        assert rows == [(3,)]

    def test_cte_shadows_table(self, db):
        rows = db.execute("WITH emp AS (SELECT 99 AS id) SELECT id FROM emp").rows
        assert rows == [(99,)]

    def test_cte_referenced_twice(self, db):
        rows = db.execute(
            "WITH a AS (SELECT 1 AS x UNION SELECT 2) "
            "SELECT l.x, r.x FROM a l, a r WHERE l.x < r.x"
        ).rows
        assert rows == [(1, 2)]
