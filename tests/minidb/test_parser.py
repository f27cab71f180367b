"""Tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb.sql import ast
from repro.minidb.sql.parser import parse
from repro.ptldb import sqltext


class TestSelectBasics:
    def test_minimal(self):
        q = parse("SELECT 1")
        assert isinstance(q, ast.Query)
        core = q.cores[0]
        assert core.items[0].expr == ast.Literal(1)

    def test_aliases(self):
        q = parse("SELECT a AS x, b y, t.c FROM t")
        items = q.cores[0].items
        assert items[0].alias == "x"
        assert items[1].alias == "y"
        assert items[2].expr == ast.ColumnRef("t", "c")

    def test_star_variants(self):
        q = parse("SELECT *, t.* FROM t")
        items = q.cores[0].items
        assert items[0].expr == ast.Star(None)
        assert items[1].expr == ast.Star("t")

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").cores[0].distinct

    def test_where_group_having_order_limit(self):
        q = parse(
            "SELECT a, MIN(b) FROM t WHERE a > 1 GROUP BY a "
            "HAVING MIN(b) < 5 ORDER BY MIN(b) DESC, a LIMIT 3 OFFSET 1"
        )
        core = q.cores[0]
        assert core.where is not None
        assert len(core.group_by) == 1
        assert core.having is not None
        assert q.order_by[0].descending
        assert not q.order_by[1].descending
        assert q.limit == ast.Literal(3)
        assert q.offset == ast.Literal(1)

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError, match="trailing"):
            parse("SELECT 1 SELECT 2")

    def test_order_by_nulls_accepted(self):
        q = parse("SELECT a FROM t ORDER BY a DESC NULLS LAST")
        assert q.order_by[0].descending


class TestExpressions:
    def expr(self, text):
        return parse(f"SELECT {text}").cores[0].items[0].expr

    def test_precedence(self):
        e = self.expr("1 + 2 * 3")
        assert isinstance(e, ast.BinaryOp)
        assert e.op == "+"
        assert e.right == ast.BinaryOp("*", ast.Literal(2), ast.Literal(3))

    def test_comparison_chain_with_and(self):
        e = self.expr("a >= 1 AND b <= 2 OR c = 3")
        assert e.op == "OR"
        assert e.left.op == "AND"

    def test_not_precedence(self):
        e = self.expr("NOT a = 1")
        assert isinstance(e, ast.UnaryOp)
        assert e.op == "NOT"

    def test_unary_minus(self):
        assert self.expr("-5") == ast.UnaryOp("-", ast.Literal(5))
        assert self.expr("+5") == ast.Literal(5)

    def test_is_null(self):
        assert self.expr("a IS NULL") == ast.IsNull(ast.ColumnRef(None, "a"))
        e = self.expr("a IS NOT NULL")
        assert e.negated

    def test_in_list(self):
        e = self.expr("a IN (1, 2, 3)")
        assert isinstance(e, ast.InList)
        assert len(e.items) == 3
        assert self.expr("a NOT IN (1)").negated

    def test_between_desugars(self):
        e = self.expr("a BETWEEN 1 AND 3")
        assert e.op == "AND"
        assert e.left.op == ">="
        assert e.right.op == "<="

    def test_predicates_chain_left_to_right(self):
        e = self.expr("a IS NULL = b BETWEEN 1 AND 2")
        assert e.op == "AND" and e.left.op == ">="
        assert e.left.left == ast.BinaryOp(
            "=", ast.IsNull(ast.ColumnRef(None, "a")), ast.ColumnRef(None, "b")
        )

    @pytest.mark.parametrize(
        "text,at",
        [("a IS NULL % 2", "'%'"), ("a IN (1) * 2", "'*'"),
         ("a NOT BETWEEN 1 AND 2 % 3 IS NULL / 4", "'/'"), ("NOT a + 1", None)],
    )
    def test_no_tighter_operator_after_a_predicate(self, text, at):
        """The left operand of ``%`` is a unary expression, so one cannot
        follow ``IS NULL``, an ``IN`` list or a ``BETWEEN``."""
        if at is None:  # NOT binds looser than +: NOT (a + 1)
            assert self.expr(text).operand.op == "+"
            return
        with pytest.raises(SQLSyntaxError, match=f"trailing input: Token\\(OP, {at}"):
            parse(f"SELECT {text}")

    def test_array_slice_and_index(self):
        e = self.expr("vs[1:$3]")
        assert isinstance(e, ast.ArraySlice)
        assert e.low == ast.Literal(1)
        assert e.high == ast.Param(3)
        e = self.expr("vs[2]")
        assert isinstance(e, ast.ArrayIndex)

    def test_array_literal(self):
        e = self.expr("ARRAY[1, 2]")
        assert isinstance(e, ast.ArrayLiteral)
        assert len(e.items) == 2

    def test_case(self):
        e = self.expr("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(e, ast.CaseExpr)
        assert e.default == ast.Literal("y")
        with pytest.raises(SQLSyntaxError):
            self.expr("CASE END")

    def test_function_calls(self):
        e = self.expr("FLOOR(ta/3600)")
        assert isinstance(e, ast.FuncCall)
        assert e.name == "floor"
        e = self.expr("COUNT(*)")
        assert e.star
        e = self.expr("COUNT(DISTINCT a)")
        assert e.distinct

    def test_array_agg_with_order(self):
        e = self.expr("ARRAY_AGG(v ORDER BY ta, v)")
        assert e.name == "array_agg"
        assert len(e.agg_order_by) == 2

    def test_window_function(self):
        e = self.expr("ROW_NUMBER() OVER (PARTITION BY hub, td ORDER BY ta, v)")
        assert isinstance(e, ast.WindowFunc)
        assert len(e.partition_by) == 2
        assert len(e.order_by) == 2

    def test_string_concat(self):
        assert self.expr("'a' || 'b'").op == "||"


class TestFromAndJoins:
    def test_comma_join(self):
        q = parse("SELECT 1 FROM a, b, c")
        assert len(q.cores[0].from_items) == 3

    def test_subquery_alias(self):
        q = parse("SELECT 1 FROM (SELECT 2) n1a")
        sub = q.cores[0].from_items[0]
        assert isinstance(sub, ast.SubqueryRef)
        assert sub.alias == "n1a"

    def test_inner_join_on(self):
        q = parse("SELECT 1 FROM a INNER JOIN b ON a.x = b.x")
        join = q.cores[0].from_items[0]
        assert isinstance(join, ast.Join)
        assert join.condition is not None

    def test_cross_join(self):
        q = parse("SELECT 1 FROM a CROSS JOIN b")
        assert q.cores[0].from_items[0].condition is None

    def test_left_join_rejected(self):
        with pytest.raises(SQLSyntaxError, match="LEFT JOIN"):
            parse("SELECT 1 FROM a LEFT JOIN b ON a.x = b.x")


class TestCtesAndUnion:
    def test_with_clause(self):
        q = parse("WITH x AS (SELECT 1), y AS (SELECT 2) SELECT * FROM x, y")
        assert [name for name, _ in q.ctes] == ["x", "y"]

    def test_union_of_parenthesized_queries(self):
        q = parse(
            "SELECT v, MIN(t) FROM ((SELECT 1 AS v, 2 AS t ORDER BY t LIMIT 1)"
            " UNION (SELECT 3, 4 LIMIT 1)) s GROUP BY v"
        )
        sub = q.cores[0].from_items[0]
        inner = sub.query
        assert len(inner.cores) == 2
        assert inner.set_ops == ("UNION",)
        # each operand kept its own LIMIT
        assert inner.cores[0].limit == ast.Literal(1)

    def test_union_all(self):
        q = parse("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3")
        assert q.set_ops == ("UNION ALL", "UNION")


class TestDDLAndDML:
    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE lout (v BIGINT, hubs BIGINT[], PRIMARY KEY (v))"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.primary_key == ("v",)
        assert stmt.columns[1].type_name.upper() == "BIGINT[]"

    def test_create_table_inline_pk(self):
        stmt = parse("CREATE TABLE t (id BIGINT PRIMARY KEY, x TEXT)")
        assert stmt.primary_key == ("id",)

    def test_create_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (x BIGINT)").if_not_exists

    def test_double_precision_type(self):
        stmt = parse("CREATE TABLE t (x DOUBLE PRECISION)")
        assert stmt.columns[0].type_name == "double precision"

    def test_insert_values(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert isinstance(stmt, ast.Insert)
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT a FROM u")
        assert stmt.select is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)
        assert stmt.where is not None

    def test_drop(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.if_exists


class TestPaperQueriesParse:
    """The exact SQL texts PTLDB uses must parse."""

    @pytest.mark.parametrize(
        "sql",
        [
            sqltext.V2V_EA,
            sqltext.V2V_LD,
            sqltext.V2V_SD,
            sqltext.ea_knn_naive("ea_knn_naive"),
            sqltext.ld_knn_naive("ld_knn_naive"),
            sqltext.ea_knn_optimized("knn_ea"),
            sqltext.ld_knn_optimized("knn_ld"),
            sqltext.ea_otm("otm_ea"),
            sqltext.ld_otm("otm_ld"),
        ],
    )
    def test_parses(self, sql):
        assert parse(sql) is not None
