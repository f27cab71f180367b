"""Static analyzer tests: binder, type checker, diagnostics, access paths.

The key property throughout: errors fire *before execution* — the database
contains rows whose mere retrieval would prove the statement ran, and the
analyzer raises without touching them.
"""

import pytest

from repro.errors import (
    AnalyzerCatalogError,
    AnalyzerNameError,
    AnalyzerStructureError,
    AnalyzerTypeError,
    CatalogError,
    SQLAnalysisError,
    SQLNameError,
    SQLSyntaxError,
    SQLTypeError,
)
from repro.minidb.engine import Database
from repro.minidb.sql.analyzer import analyze_sql


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (a BIGINT, b BIGINT, s TEXT, arr BIGINT[], "
        "PRIMARY KEY (a))"
    )
    database.execute("INSERT INTO t VALUES (1, 10, 'x', ARRAY[1, 2])")
    return database


def codes(db, sql):
    return [d.code for d in analyze_sql(sql, db.catalog).errors]


class TestBinder:
    def test_unknown_column(self, db):
        with pytest.raises(SQLNameError, match="nope"):
            db.execute("SELECT nope FROM t")
        assert codes(db, "SELECT nope FROM t") == ["SEM002"]

    def test_unknown_column_is_analysis_error(self, db):
        with pytest.raises(SQLAnalysisError):
            db.execute("SELECT nope FROM t")
        with pytest.raises(AnalyzerNameError):
            db.execute("SELECT nope FROM t")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT a FROM missing")
        assert codes(db, "SELECT a FROM missing") == ["SEM001"]

    def test_unknown_table_suppresses_column_cascade(self, db):
        # Only SEM001; the columns of the unknown table are not re-flagged.
        assert codes(db, "SELECT x, y FROM missing WHERE z = 1") == ["SEM001"]

    def test_ambiguous_column(self, db):
        db.execute("CREATE TABLE u (a BIGINT, c BIGINT, PRIMARY KEY (a))")
        sql = "SELECT a FROM t, u"
        with pytest.raises(SQLNameError, match="ambiguous"):
            db.execute(sql)
        assert codes(db, sql) == ["SEM003"]

    def test_qualified_reference_disambiguates(self, db):
        db.execute("CREATE TABLE u (a BIGINT, c BIGINT, PRIMARY KEY (a))")
        assert codes(db, "SELECT t.a FROM t, u") == []

    def test_unknown_function(self, db):
        with pytest.raises(AnalyzerNameError, match="frobnicate"):
            db.execute("SELECT FROBNICATE(a) FROM t")
        assert codes(db, "SELECT FROBNICATE(a) FROM t") == ["SEM004"]

    def test_unknown_star_qualifier(self, db):
        assert codes(db, "SELECT z.* FROM t") == ["SEM002"]

    def test_cte_columns_visible(self, db):
        sql = "WITH c AS (SELECT a AS x FROM t) SELECT x FROM c"
        assert codes(db, sql) == []
        assert codes(db, "WITH c AS (SELECT a AS x FROM t) SELECT y FROM c") == [
            "SEM002"
        ]

    def test_errors_fire_before_first_row(self, db):
        # The poisoned statement both selects an unknown column AND would
        # divide by zero on the existing row; static analysis wins.
        with pytest.raises(AnalyzerNameError):
            db.execute("SELECT nope, a / 0 FROM t")


class TestTypeChecker:
    def test_subscript_on_int(self, db):
        sql = "SELECT a[1] FROM t"
        with pytest.raises(SQLTypeError):
            db.execute(sql)
        assert codes(db, sql) == ["TYP001"]

    def test_slice_on_int(self, db):
        sql = "SELECT a[1:2] FROM t"
        with pytest.raises(AnalyzerTypeError):
            db.execute(sql)
        assert codes(db, sql) == ["TYP001"]

    def test_slice_on_array_ok(self, db):
        assert codes(db, "SELECT arr[1:2] FROM t") == []
        assert db.execute("SELECT arr[1:2] FROM t").rows == [([1, 2],)]

    def test_unnest_on_scalar(self, db):
        assert codes(db, "SELECT UNNEST(a) FROM t") == ["TYP001"]

    def test_floor_on_text(self, db):
        assert codes(db, "SELECT FLOOR(s) FROM t") == ["TYP002"]

    def test_arithmetic_on_text(self, db):
        assert codes(db, "SELECT s + 1 FROM t") == ["TYP003"]

    def test_union_arity_mismatch(self, db):
        sql = "SELECT a FROM t UNION SELECT a, b FROM t"
        with pytest.raises(AnalyzerTypeError, match="column counts"):
            db.execute(sql)
        assert codes(db, sql) == ["TYP004"]

    def test_union_incompatible_types(self, db):
        sql = "SELECT a FROM t UNION SELECT s FROM t"
        assert codes(db, sql) == ["TYP005"]

    def test_union_int_float_ok(self, db):
        assert codes(db, "SELECT a FROM t UNION SELECT 1.5") == []

    def test_limit_must_be_constant_int(self, db):
        assert codes(db, "SELECT a FROM t LIMIT 'x'") == ["TYP006"]
        assert codes(db, "SELECT a FROM t LIMIT -1") == ["TYP006"]
        assert codes(db, "SELECT a FROM t LIMIT b") == ["SEM002"]

    def test_insert_arity(self, db):
        sql = "INSERT INTO t VALUES (1, 2)"
        with pytest.raises(AnalyzerStructureError, match="4 values"):
            db.execute(sql)
        assert codes(db, sql) == ["SEM005"]

    def test_insert_type_mismatch(self, db):
        sql = "INSERT INTO t VALUES (1, 2, 3, ARRAY[1])"
        assert codes(db, sql) == ["TYP003"]

    def test_update_unknown_column(self, db):
        with pytest.raises((CatalogError, SQLNameError)):
            db.execute("UPDATE t SET nope = 1")
        assert codes(db, "UPDATE t SET nope = 1") == ["SEM002"]


class TestAggregatesAndPlacement:
    def test_aggregate_in_where(self, db):
        sql = "SELECT a FROM t WHERE MIN(a) > 0"
        with pytest.raises(SQLSyntaxError):
            db.execute(sql)
        assert codes(db, sql) == ["AGG001"]

    def test_nested_aggregate(self, db):
        assert codes(db, "SELECT MIN(MAX(a)) FROM t") == ["AGG002"]

    def test_ungrouped_column(self, db):
        sql = "SELECT b, MIN(a) FROM t GROUP BY a"
        assert codes(db, sql) == ["AGG003"]

    def test_group_by_expression_matches_item(self, db):
        # Structural match: identical expression in select list and GROUP BY.
        assert codes(db, "SELECT a + 1, MIN(b) FROM t GROUP BY a + 1") == []

    def test_group_by_alias(self, db):
        sql = "SELECT a * 2 AS d, COUNT(*) FROM t GROUP BY d"
        assert codes(db, sql) == []

    def test_aggregate_in_group_by(self, db):
        assert codes(db, "SELECT a FROM t GROUP BY MIN(a)") == ["AGG001"]

    def test_having_alone_makes_one_group(self, db):
        # HAVING groups the statement as GROUP BY or an aggregate would, so
        # a bare column is ungrouped — in the select list and in HAVING.
        sql = "SELECT a FROM t HAVING a > 1"
        analysis = analyze_sql(sql, db.catalog)
        assert [d.code for d in analysis.diagnostics] == ["AGG003", "AGG003"]
        assert analysis.plan is None
        assert sql[analysis.errors[0].span.start :].startswith("a FROM t")
        assert codes(db, "SELECT 1 FROM t HAVING 1 = 0") == []

    def test_window_in_where(self, db):
        sql = "SELECT a FROM t WHERE ROW_NUMBER() OVER (ORDER BY a) = 1"
        assert codes(db, sql) == ["WIN001"]

    def test_unsupported_window_function(self, db):
        sql = "SELECT RANK() OVER (ORDER BY a) FROM t"
        assert codes(db, sql) == ["WIN002"]

    def test_unnest_not_top_level(self, db):
        sql = "SELECT UNNEST(arr) + 1 FROM t"
        assert codes(db, sql) == ["SRF001"]

    def test_order_by_position_out_of_range(self, db):
        assert codes(db, "SELECT a FROM t ORDER BY 2") == ["SEM005"]


class TestDiagnosticsRendering:
    def test_span_and_caret(self, db):
        analysis = analyze_sql("SELECT nope FROM t", db.catalog)
        [diag] = analysis.errors
        assert diag.code == "SEM002"
        assert diag.span is not None and diag.span.start == 7
        rendered = diag.render(analysis.sql)
        assert "(line 1:8)" in rendered
        assert "^^^^" in rendered
        assert "SELECT nope FROM t" in rendered

    def test_multiline_position(self, db):
        analysis = analyze_sql("SELECT a\nFROM t\nWHERE zz = 1", db.catalog)
        [diag] = analysis.errors
        assert "(line 3:7)" in diag.render(analysis.sql)

    def test_every_diagnostic_has_code_and_severity(self, db):
        analysis = analyze_sql(
            "SELECT nope, a[1], MIN(MAX(a)) FROM t", db.catalog
        )
        assert len(analysis.errors) >= 3
        for diag in analysis.diagnostics:
            assert diag.code
            assert diag.severity in ("error", "warning")

    def test_raised_message_contains_caret(self, db):
        with pytest.raises(AnalyzerNameError, match=r"\^"):
            db.execute("SELECT nope FROM t")


class TestEngineWiring:
    def test_binding_cannot_be_switched_off(self, db):
        # One binder: no call, session, handle or database takes `analyze`.
        session = db.session()
        for call in (db.execute, db.prepare, session.execute, session.prepare):
            with pytest.raises(TypeError):
                call("SELECT a FROM t", analyze=False)
        with pytest.raises(TypeError):
            session.executemany("SELECT a FROM t", [()], analyze=False)
        with pytest.raises(TypeError):
            db.session(analyze=False)
        for obj in (db, session, db.prepare("SELECT a FROM t")):
            with pytest.raises(AttributeError):
                obj.analyze

    def test_last_analysis_exposed(self, db):
        db.execute("SELECT a FROM t WHERE a = 1")
        analysis = db.last_analysis
        assert analysis is not None and analysis.ok
        assert [p.kind for p in analysis.access_paths] == ["pk-point"]

    def test_analysis_cache_invalidated_by_ddl(self, db):
        sql = "SELECT * FROM later"
        with pytest.raises(CatalogError):
            db.execute(sql)
        db.execute("CREATE TABLE later (x BIGINT, PRIMARY KEY (x))")
        assert db.execute(sql).rows == []  # re-analyzed against new catalog

    def test_drop_table_invalidates(self, db):
        db.execute("SELECT a FROM t")
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute("SELECT a FROM t")

    def test_create_table_duplicate_column(self, db):
        with pytest.raises(AnalyzerCatalogError):
            db.execute("CREATE TABLE dup (x BIGINT, x BIGINT)")

    def test_create_table_pk_not_a_column(self, db):
        with pytest.raises(AnalyzerCatalogError):
            db.execute("CREATE TABLE bad (x BIGINT, PRIMARY KEY (y))")


class TestAccessPaths:
    def test_pk_point_lookup(self, db):
        analysis = analyze_sql("SELECT b FROM t WHERE a = 5", db.catalog)
        [path] = analysis.access_paths
        assert (path.table, path.kind) == ("t", "pk-point")
        assert path.expected_operator == "Index Scan"

    def test_full_scan(self, db):
        analysis = analyze_sql("SELECT b FROM t WHERE b = 5", db.catalog)
        [path] = analysis.access_paths
        assert path.kind == "seq-scan"

    def test_non_constant_pin_is_scan(self, db):
        analysis = analyze_sql("SELECT b FROM t WHERE a = b", db.catalog)
        [path] = analysis.access_paths
        assert path.kind == "seq-scan"

    def test_composite_pk_requires_all_columns(self, db):
        db.execute(
            "CREATE TABLE c2 (h BIGINT, d BIGINT, v BIGINT, "
            "PRIMARY KEY (h, d))"
        )
        partial = analyze_sql("SELECT v FROM c2 WHERE h = 1", db.catalog)
        assert partial.access_paths[0].kind == "seq-scan"
        full = analyze_sql(
            "SELECT v FROM c2 WHERE h = 1 AND d = 2", db.catalog
        )
        assert full.access_paths[0].kind == "pk-point"

    def test_index_nested_loop_probe(self, db):
        db.execute("CREATE TABLE probe (a BIGINT, w BIGINT, PRIMARY KEY (a))")
        analysis = analyze_sql(
            "WITH src AS (SELECT a FROM t WHERE a = 1) "
            "SELECT probe.w FROM src, probe WHERE probe.a = src.a",
            db.catalog,
        )
        kinds = {p.table: p.kind for p in analysis.access_paths}
        assert kinds["probe"] == "pk-probe"

    def test_subquery_and_cte_paths(self, db):
        analysis = analyze_sql(
            "WITH c AS (SELECT a FROM t WHERE a = 1) "
            "SELECT * FROM c, (SELECT b FROM t WHERE a = 2) s",
            db.catalog,
        )
        kinds = [(p.table, p.kind) for p in analysis.access_paths]
        assert ("t", "pk-point") in kinds
        assert ("c", "cte-scan") in kinds
        assert ("s", "subquery") in kinds
