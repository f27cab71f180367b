"""Tests for per-stage bench attribution."""

from repro.bench.runner import run_batch
from repro.minidb.metrics import MetricsRegistry


class TestStageAttribution:
    def test_run_batch_collects_stages(self, small_ptldb):
        calls = [
            lambda: small_ptldb.earliest_arrival(2, 9, 30_000),
            lambda: small_ptldb.earliest_arrival(3, 9, 30_000),
        ]
        result = run_batch(small_ptldb, "v2v", calls, registry=None)
        assert "Index Scan" in result.stages
        assert result.stages["Index Scan"]["calls"] == 4  # 2 lookups/query
        assert result.stages["Index Scan"]["rows"] == 4

    def test_stage_io_sums_to_batch_io(self, small_ptldb):
        calls = [lambda: small_ptldb.earliest_arrival(2, 9, 30_000)]
        result = run_batch(small_ptldb, "v2v", calls, registry=None)
        stage_io = sum(s["io_ms"] for s in result.stages.values())
        assert abs(stage_io - sum(result.io_ms)) < 1e-6

    def test_json_output_includes_stages(self, small_ptldb):
        import json

        calls = [lambda: small_ptldb.earliest_arrival(2, 9, 30_000)]
        result = run_batch(small_ptldb, "v2v", calls, registry=None)
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["stages"], "bench JSON must carry per-stage attribution"
        assert {"stage", "io_ms", "page_reads"} <= set(payload["stages"][0])

    def test_registry_observes_batches(self, small_ptldb):
        registry = MetricsRegistry()
        calls = [lambda: small_ptldb.earliest_arrival(2, 9, 30_000)]
        run_batch(small_ptldb, "v2v", calls, registry=registry)
        snap = registry.snapshot()
        assert snap["counters"]["bench.v2v.queries"] == 1
        assert snap["histograms"]["bench.v2v.total_ms"]["count"] == 1
