"""Tests for the benchmark harness (workload, runner, report)."""

import pytest

from repro.bench.report import format_markdown, format_table, speedup
from repro.bench.runner import BenchResult, run_batch
from repro.bench.workload import (
    batch_workload,
    build_workload,
    random_targets,
    v2v_workload,
)
from repro.errors import BenchmarkError


class TestWorkload:
    def test_quartile_sampling(self, small_timetable):
        low, high = small_timetable.time_range()
        span = high - low
        queries = v2v_workload(small_timetable, n=300, seed=1)
        assert len(queries) == 300
        for q in queries:
            assert low <= q.depart_at <= low + span // 4
            assert low + 3 * span // 4 <= q.arrive_by <= high
            assert 0 <= q.source < small_timetable.num_stops
            assert 0 <= q.goal < small_timetable.num_stops

    def test_deterministic(self, small_timetable):
        assert v2v_workload(small_timetable, n=10, seed=5) == v2v_workload(
            small_timetable, n=10, seed=5
        )
        assert v2v_workload(small_timetable, n=10, seed=5) != v2v_workload(
            small_timetable, n=10, seed=6
        )

    def test_batch_workload(self, small_timetable):
        queries = batch_workload(small_timetable, n=50, seed=2)
        assert len(queries) == 50

    def test_random_targets_density(self, small_timetable):
        targets = random_targets(small_timetable, 0.5, seed=3)
        assert len(targets) == round(0.5 * small_timetable.num_stops)
        tiny = random_targets(small_timetable, 0.001, seed=3)
        assert len(tiny) == 2  # floored at the minimum

    def test_random_targets_validation(self, small_timetable):
        with pytest.raises(BenchmarkError):
            random_targets(small_timetable, 0.0)
        with pytest.raises(BenchmarkError):
            random_targets(small_timetable, 1.5)

    def test_density_one_is_everyone(self, small_timetable):
        targets = random_targets(small_timetable, 1.0)
        assert targets == frozenset(range(small_timetable.num_stops))

    def test_families_interleaved(self, small_timetable):
        items = build_workload(small_timetable, total=8, k=2, seed=5)
        assert [family for family, _, _ in items] == [
            "v2v_ea", "v2v_ld", "knn_ea", "otm_ea",
        ] * 2


class TestRunner:
    def test_run_batch_accounting(self, small_ptldb, small_timetable):
        queries = v2v_workload(small_timetable, n=10, seed=9)
        result = run_batch(
            small_ptldb,
            "test/EA",
            (
                (lambda q=q: small_ptldb.earliest_arrival(q.source, q.goal, q.depart_at))
                for q in queries
            ),
        )
        assert result.queries == 10
        assert len(result.cpu_ms) == 10
        assert result.avg_cpu_ms > 0
        assert result.avg_total_ms == pytest.approx(
            result.avg_cpu_ms + result.avg_io_ms
        )
        assert result.page_reads > 0  # cold start forced a re-read
        row = result.row()
        assert row["name"] == "test/EA"
        assert row["queries"] == 10

    def test_empty_results_counted(self, small_ptldb, small_timetable):
        _, high = small_timetable.time_range()
        result = run_batch(
            small_ptldb,
            "test/empty",
            [lambda: small_ptldb.earliest_arrival(0, 1, high + 100)],
        )
        assert result.empty_results == 1

    def test_median(self):
        result = BenchResult(name="x", queries=3, cpu_ms=[1.0, 2.0, 9.0], io_ms=[0.0, 0.0, 0.0])
        assert result.median_total_ms == 2.0


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_markdown(self):
        text = format_markdown(["x"], [[1]], title="M")
        assert text.startswith("### M")
        assert "| x |" in text
        assert "|---|" in text

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(10.0, 0.0) == float("inf")


class TestExperimentDrivers:
    def test_table7_row_shape(self):
        from repro.bench import experiments as E

        rows = E.experiment_table7(datasets=["Austin"])
        row = rows[0]
        for key in ("dataset", "V", "E", "avg_degree", "HL_per_V", "preproc_s",
                    "paper_HL_per_V"):
            assert key in row
        assert row["V"] == 30

    def test_v2v_driver_smoke(self):
        from repro.bench import experiments as E

        rows = E.experiment_v2v(datasets=["Austin"], device="ram", n_queries=5)
        assert rows[0]["EA_ms"] >= 0
        assert rows[0]["dataset"] == "Austin"
