"""Static access-path proofs for the paper's query families.

The paper's core efficiency claims are access-pattern claims: a v2v query
touches exactly two label rows (Code 1, one ``lout`` + one ``lin`` PK
lookup), and the optimized kNN/OTM queries reach their auxiliary table only
through its primary key (Codes 3-4). These tests check that the static
analyzer *proves* those bounds from the SQL text alone — no execution.
"""

import pytest

from repro.minidb.sql.analyzer import (
    analyze_sql,
    check_paper_bounds,
    is_label_table,
)
from repro.ptldb import aux, sqltext


def classify(db, sql):
    analysis = analyze_sql(sql, db.catalog)
    assert analysis.ok, analysis.render()
    return analysis


class TestV2VFamilies:
    @pytest.mark.parametrize(
        "family,sql",
        [
            ("v2v_ea", sqltext.V2V_EA),
            ("v2v_ld", sqltext.V2V_LD),
            ("v2v_sd", sqltext.V2V_SD),
        ],
    )
    def test_exactly_two_pk_point_lookups(self, small_ptldb, family, sql):
        analysis = classify(small_ptldb.db, sql)
        label = [
            p for p in analysis.access_paths if p.table in ("lout", "lin")
        ]
        assert [(p.table, p.kind) for p in label] == [
            ("lout", "pk-point"),
            ("lin", "pk-point"),
        ]
        assert check_paper_bounds(analysis, family) == []

    def test_apl002_on_broken_v2v(self, small_ptldb):
        # Drop the lin pin: the query now scans lin, violating the bound.
        broken = sqltext.V2V_EA.replace("FROM lin WHERE v=$2", "FROM lin")
        analysis = analyze_sql(broken, small_ptldb.db.catalog)
        assert any(d.code == "APL001" for d in analysis.warnings)
        bounds = check_paper_bounds(analysis, "v2v_ea")
        assert [d.code for d in bounds] == ["APL002"]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("MIN(inp.ta)", "MIN(inp.ta * 1)"),  # operand the kernel lacks
            ("outp.ta<=inp.td", "outp.ta<>inp.td"),  # not an ordering
            ("MIN(inp.ta)", "MIN(inp.ta), COUNT(*)"),
        ],
    )
    def test_apl005_when_the_join_is_not_a_band_join(self, small_ptldb, old, new):
        assert old in sqltext.V2V_EA
        analysis = analyze_sql(
            sqltext.V2V_EA.replace(old, new), small_ptldb.db.catalog
        )
        bounds = check_paper_bounds(analysis, "v2v_ea")
        assert [d.code for d in bounds] == ["APL005"]
        assert "Hash Join on (outp.hub = inp.hub) filter" in bounds[0].message


class TestKnnOtmFamilies:
    @pytest.mark.parametrize(
        "family,make",
        [
            ("knn_ea", sqltext.ea_knn_optimized),
            ("knn_ld", sqltext.ld_knn_optimized),
            ("otm_ea", sqltext.ea_otm),
            ("otm_ld", sqltext.ld_otm),
        ],
    )
    def test_optimized_probe_aux_by_pk(self, small_ptldb, family, make):
        table = f"{family}_poi"
        analysis = classify(small_ptldb.db, make(table))
        kinds = {p.table: p.kind for p in analysis.access_paths}
        assert kinds["lout"] == "pk-point"
        assert kinds[table] == "pk-probe"
        assert check_paper_bounds(analysis, family) == []

    @pytest.mark.parametrize(
        "family,make",
        [
            ("knn_ea_naive", sqltext.ea_knn_naive),
            ("knn_ld_naive", sqltext.ld_knn_naive),
        ],
    )
    def test_naive_scan_is_allowed(self, small_ptldb, family, make):
        table = f"{family}_poi"
        analysis = classify(small_ptldb.db, make(table))
        kinds = {p.table: p.kind for p in analysis.access_paths}
        assert kinds["lout"] == "pk-point"
        assert kinds[table] == "seq-scan"  # Code 2 scans by design
        assert check_paper_bounds(analysis, family) == []

    def test_apl003_on_broken_optimized(self, small_ptldb):
        # Remove the hub join: the aux table loses its PK probe.
        sql = sqltext.ea_knn_optimized("knn_ea_poi").replace(
            "WHERE n1bb.hub=n1.hub\n     AND n1bb.dephour", "WHERE n1bb.dephour"
        )
        analysis = analyze_sql(sql, small_ptldb.db.catalog)
        bounds = check_paper_bounds(analysis, "knn_ea")
        assert [d.code for d in bounds] == ["APL003"]


class TestLabelTablePredicate:
    def test_label_tables(self):
        assert is_label_table("lout")
        assert is_label_table("lin")
        assert is_label_table("knn_ea_poi")
        assert is_label_table("otm_ld_x")
        assert not is_label_table("knn_ea_naive_poi")  # Code 2: scans allowed
        assert not is_label_table("tgt_poi")
        assert not is_label_table("hours_poi")
        assert not is_label_table("stops")

    def test_apl001_injected_scan(self, small_ptldb):
        analysis = analyze_sql(
            "SELECT COUNT(*) FROM lout", small_ptldb.db.catalog
        )
        assert [d.code for d in analysis.warnings] == ["APL001"]
        assert analysis.ok  # warning: execution proceeds, lint fails

    def test_naive_table_scan_not_flagged(self, small_ptldb):
        analysis = analyze_sql(
            "SELECT COUNT(*) FROM knn_ea_naive_poi", small_ptldb.db.catalog
        )
        assert analysis.warnings == []


class TestCorpus:
    def test_corpus_covers_all_families(self, small_ptldb):
        families = {q.family for q in sqltext.corpus("poi")}
        assert families == {
            "v2v_ea", "v2v_ld", "v2v_sd",
            "knn_ea", "knn_ld", "otm_ea", "otm_ld",
            "knn_ea_naive", "knn_ld_naive",
            "analytics",
        }

    def test_corpus_is_bound_clean(self, small_ptldb):
        for query in sqltext.corpus("poi"):
            analysis = classify(small_ptldb.db, query.sql)
            assert check_paper_bounds(analysis, query.family) == [], query.name
            apl = [d for d in analysis.diagnostics if d.code.startswith("APL")]
            assert apl == [], f"{query.name}: {analysis.render()}"


class TestBuildStatements:
    """``build_target_set``'s six ``INSERT ... SELECT``s reach ``lin`` by
    primary key: the target set drives, each target probes its Lin row."""

    def test_lin_is_probed_never_scanned(self, small_ptldb):
        statements = sqltext.build_corpus("poi", kmax=4)
        assert len(statements) == 6
        for query in statements:
            analysis = classify(small_ptldb.db, query.sql)
            lin = [p.kind for p in analysis.access_paths if p.table == "lin"]
            assert lin == ["pk-probe"], query.name
            apl = [d for d in analysis.diagnostics if d.code.startswith("APL")]
            assert apl == [], f"{query.name}: {analysis.render()}"

    def test_the_builders_run_the_linted_text(self):
        issued = []

        class Recorder:
            def execute(self, sql, params=()):
                issued.append(sql)

        tables = aux.AuxTables("poi", "tgt_poi", "hours_poi", 4, 3600, 0, 30)
        for build in (
            aux.build_knn_ea, aux.build_knn_ld, aux.build_otm_ea,
            aux.build_otm_ld, aux.build_naive_ea, aux.build_naive_ld,
        ):
            build(Recorder(), tables)
        inserts = [sql for sql in issued if sql.lstrip().startswith("INSERT")]
        assert inserts == [q.sql for q in sqltext.build_corpus("poi", kmax=4)]
