"""The dataset-hash-keyed label cache (pay preprocessing once)."""

import json
import os

import numpy as np

from repro.labeling.io import (
    cached_label_path,
    load_or_build,
    timetable_digest,
)
from repro.timetable.generator import random_timetable


class TestDigest:
    def test_deterministic(self, small_timetable):
        assert timetable_digest(small_timetable) == timetable_digest(
            small_timetable
        )

    def test_sensitive_to_inputs(self, small_timetable):
        base = timetable_digest(small_timetable)
        assert timetable_digest(small_timetable, ordering="random") != base
        assert timetable_digest(small_timetable, add_dummies=False) != base
        order = list(range(small_timetable.num_stops))
        assert timetable_digest(small_timetable, order=order) != base
        other = random_timetable(
            small_timetable.num_stops, 160, seed=99
        )
        assert timetable_digest(other) != base


class TestLoadOrBuild:
    def test_no_cache_dir_is_plain_build(self, small_timetable):
        labels, report, hit = load_or_build(small_timetable)
        assert not hit
        assert labels.total_tuples > 0
        assert report.kept_tuples > 0

    def test_build_then_hit(self, tmp_path, small_timetable):
        cache = str(tmp_path / "cache")
        built, report, hit = load_or_build(small_timetable, cache_dir=cache)
        assert not hit
        digest = timetable_digest(small_timetable)
        assert os.path.exists(cached_label_path(cache, digest))

        cached, cached_report, hit = load_or_build(
            small_timetable, cache_dir=cache
        )
        assert hit
        for side in ("lout", "lin"):
            assert np.array_equal(getattr(cached, side).records,
                                  getattr(built, side).records)
            assert np.array_equal(getattr(cached, side).offsets,
                                  getattr(built, side).offsets)
        assert cached.order == built.order
        # the sidecar restores the original build report, stage fields too
        assert cached_report == report
        assert cached_report.pipeline_s > 0

    def test_different_inputs_miss(self, tmp_path, small_timetable):
        cache = str(tmp_path / "cache")
        load_or_build(small_timetable, cache_dir=cache)
        _, _, hit = load_or_build(
            small_timetable, cache_dir=cache, ordering="random"
        )
        assert not hit

    def test_parallel_build_hits_sequential_cache(
        self, tmp_path, small_timetable
    ):
        """workers is an execution detail, not a cache key: the parallel
        build produces byte-identical labels, so it shares the entry."""
        cache = str(tmp_path / "cache")
        seq, _, _ = load_or_build(small_timetable, cache_dir=cache, workers=1)
        par, _, hit = load_or_build(small_timetable, cache_dir=cache, workers=2)
        assert hit
        assert np.array_equal(par.lout.records, seq.lout.records)
        assert np.array_equal(par.lin.records, seq.lin.records)

    def test_corrupt_sidecar_degrades_gracefully(
        self, tmp_path, small_timetable
    ):
        cache = str(tmp_path / "cache")
        load_or_build(small_timetable, cache_dir=cache)
        digest = timetable_digest(small_timetable)
        sidecar = cached_label_path(cache, digest) + ".json"
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write("not json")
        labels, report, hit = load_or_build(small_timetable, cache_dir=cache)
        assert hit
        assert labels.total_tuples > 0
        assert report.kept_tuples == 0  # zeroed fallback, not a crash

    def test_sidecar_records_digest(self, tmp_path, small_timetable):
        cache = str(tmp_path / "cache")
        load_or_build(small_timetable, cache_dir=cache)
        digest = timetable_digest(small_timetable)
        with open(
            cached_label_path(cache, digest) + ".json", encoding="utf-8"
        ) as handle:
            assert json.load(handle)["digest"] == digest
