"""Tests for the lout/lin base schema and label loading."""

import pytest

from repro.errors import DatabaseError
from repro.labeling.ttl import build_labels
from repro.minidb.engine import Database
from repro.minidb.values import T_BIGINT, T_BIGINT_ARRAY
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
            expected = small_labels.lout.rows(v)[:, :3].tolist()
            assert [list(t) for t in zip(hubs, tds, tas)] == expected

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
    """Label rows keep their ``BIGINT[]`` cells as delta segments."""

    @staticmethod
    def flat_bytes(types, row):
        """Bytes of *row* with every ``BIGINT[]`` element in 8 bytes: null
        bitmap, 8 per scalar, and per array a u32 count, an element
        presence bitmap and the non-NULL elements (PostgreSQL's
        ``bigint[]`` layout, without its headers)."""
        size = (len(types) + 7) // 8
        for tag, value in zip(types, row):
            if value is None:
                continue
            if tag == T_BIGINT_ARRAY:
                size += 4 + (len(value) + 7) // 8
                size += 8 * sum(v is not None for v in value)
            else:
                assert tag == T_BIGINT
                size += 8
        return size

    @classmethod
    def footprint_ratio(cls, labels):
        """Stored ``lout``+``lin`` bytes over their 8-bytes-per-element
        footprint."""
        db = Database()
        load_labels(db, labels)
        stored = flat = 0
        for name in ("lout", "lin"):
            table = db.catalog.get(name)
            stored += table.data_bytes
            flat += sum(
                cls.flat_bytes(table.schema.types, row) for row in table.scan()
            )
        return stored / flat

    def test_footprint_at_most_0_6x_of_row_records(self, small_labels):
        from repro.bench.experiments import get_bundle

        assert self.footprint_ratio(get_bundle("Madrid", "small").labels) <= 0.6
        assert self.footprint_ratio(small_labels) <= 0.6

    def test_footprint_on_the_paper_example(self, paper_labels_with_dummies):
        """34 tuples over 14 rows: the per-segment headers weigh more than
        on any real feed (measured 0.70x), but the layout is still smaller."""
        assert self.footprint_ratio(paper_labels_with_dummies) < 0.75
