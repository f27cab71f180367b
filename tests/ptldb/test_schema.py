"""Tests for the lout/lin base schema and label loading."""

import pytest

from repro.errors import DatabaseError
from repro.labeling.ttl import build_labels
from repro.minidb.engine import Database
from repro.ptldb.schema import label_time_range, load_labels
from tests.conftest import PAPER_ORDER


class TestLoadLabels:
    def test_one_row_per_vertex(self, small_ptldb, small_labels):
        db = small_ptldb.db
        assert db.execute("SELECT COUNT(*) FROM lout").scalar() == small_labels.num_stops
        assert db.execute("SELECT COUNT(*) FROM lin").scalar() == small_labels.num_stops

    def test_arrays_parallel_and_sorted(self, small_ptldb, small_labels):
        db = small_ptldb.db
        rows = db.execute("SELECT v, hubs, tds, tas FROM lout").rows
        for v, hubs, tds, tas in rows:
            assert len(hubs) == len(tds) == len(tas)
            keys = list(zip(hubs, tds))
            assert keys == sorted(keys)  # the paper's (hub, td) order
            expected = [(t.hub, t.td, t.ta) for t in small_labels.lout[v]]
            assert list(zip(hubs, tds, tas)) == expected

    def test_requires_dummy_tuples(self, small_timetable):
        labels, _ = build_labels(small_timetable)  # no dummies
        with pytest.raises(DatabaseError, match="dummy"):
            load_labels(Database(), labels)

    def test_paper_table2_and_table3_rows(self, paper_labels_with_dummies):
        """Tables 2 and 3: the v=1 and v=4 rows of lout and lin."""
        db = Database()
        load_labels(db, paper_labels_with_dummies)
        row = db.execute("SELECT hubs, tds, tas FROM lout WHERE v=1").rows[0]
        assert row == ([0, 1, 1], [324, 324, 396], [360, 324, 396])
        row = db.execute("SELECT hubs, tds, tas FROM lout WHERE v=4").rows[0]
        assert row == ([0, 4], [324, 396], [360, 396])
        row = db.execute("SELECT hubs, tds, tas FROM lin WHERE v=1").rows[0]
        assert row == ([0, 1, 1], [360, 324, 396], [396, 324, 396])
        row = db.execute("SELECT hubs, tds, tas FROM lin WHERE v=4").rows[0]
        assert row == ([0, 4], [360, 396], [396, 396])

    def test_reload_replaces_tables(self, paper_labels_with_dummies):
        db = Database()
        load_labels(db, paper_labels_with_dummies)
        load_labels(db, paper_labels_with_dummies)  # idempotent
        assert db.execute("SELECT COUNT(*) FROM lout").scalar() == 7


class TestTimeRange:
    def test_paper_example_range(self, paper_labels_with_dummies):
        low, high = label_time_range(paper_labels_with_dummies)
        assert low == 288
        assert high == 432

    def test_empty_labels_degenerate_range(self):
        from repro.labeling.labels import TTLLabels

        empty = TTLLabels(2, [0, 1])
        assert label_time_range(empty) == (0, 0)


class TestColumnarLayout:
    """Labels and aux tables have one layout: ``STORAGE = COLUMNAR``."""

    def test_label_and_aux_tables_are_columnar(self, small_ptldb):
        stats = small_ptldb.db.table_stats()
        checked = [
            name
            for name in stats
            if name in ("lout", "lin") or name.startswith(("knn_", "otm_"))
        ]
        assert len(checked) == 8  # lout, lin, 4 grouped + 2 naive tables
        for name in checked:
            assert stats[name]["storage"] == "columnar", name

    @staticmethod
    def footprint_ratio(labels):
        """Stored ``lout``+``lin`` bytes over the bytes ``encode_record``
        (the row codec) would need for the same rows."""
        from repro.minidb.values import encode_record

        db = Database()
        load_labels(db, labels)
        stored = as_rows = 0
        for name in ("lout", "lin"):
            table = db.catalog.get(name)
            stored += table.data_bytes
            as_rows += sum(
                len(encode_record(table.schema.types, row))
                for row in table.scan()
            )
        return stored / as_rows

    def test_footprint_at_most_0_6x_of_row_records(self, small_labels):
        from repro.bench.experiments import get_bundle

        assert self.footprint_ratio(get_bundle("Madrid", "small").labels) <= 0.6
        assert self.footprint_ratio(small_labels) <= 0.6

    def test_footprint_on_the_paper_example(self, paper_labels_with_dummies):
        """34 tuples over 14 rows: the per-segment headers weigh more than
        on any real feed (measured 0.70x), but the layout is still smaller."""
        assert self.footprint_ratio(paper_labels_with_dummies) < 0.75
