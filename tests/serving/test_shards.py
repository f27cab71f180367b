"""Partitioner correctness: routing, bounds, label splitting, manifests."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.labeling.ttl import build_labels
from repro.serving.shards import (
    ShardManifest,
    build_shards,
    load_manifest,
    partition_labels,
    shard_bounds,
    shard_of,
)
from repro.timetable.generator import random_timetable


@pytest.fixture(scope="module")
def labels():
    timetable = random_timetable(18, 160, seed=11)
    built, _ = build_labels(timetable, add_dummies=True)
    return built


class TestShardOf:
    @pytest.mark.parametrize(
        "num_stops,num_shards",
        [(30, 4), (18, 2), (7, 3), (100, 7), (5, 5), (16, 16), (31, 8), (1, 1)],
    )
    def test_agrees_with_bounds_for_every_vertex(self, num_stops, num_shards):
        bounds = shard_bounds(num_stops, num_shards)
        for v in range(num_stops):
            owner = next(
                i for i, (lo, hi) in enumerate(bounds) if lo <= v < hi
            )
            assert shard_of(v, num_stops, num_shards) == owner

    def test_bounds_partition_the_vertex_range(self):
        bounds = shard_bounds(30, 4)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 30
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo  # contiguous, disjoint

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ServingError):
            shard_of(30, 30, 4)
        with pytest.raises(ServingError):
            shard_of(-1, 30, 4)

    def test_zero_shards_rejected(self):
        with pytest.raises(ServingError):
            shard_bounds(30, 0)


class TestPartitionLabels:
    def test_lin_filtered_to_range_lout_replicated(self, labels):
        lo, hi = 5, 12
        shard = partition_labels(labels, lo, hi)
        assert shard.lout is labels.lout  # replicated by reference
        for v in range(labels.num_stops):
            if lo <= v < hi:
                assert np.array_equal(shard.lin.rows(v), labels.lin.rows(v))
            else:
                assert len(shard.lin.rows(v)) == 0
        # the owned rows are one slice of the full side's records
        a, b = labels.lin.offsets[lo], labels.lin.offsets[hi]
        assert np.array_equal(shard.lin.records, labels.lin.records[a:b])

    def test_dummy_flag_preserved(self, labels):
        shard = partition_labels(labels, 0, 9)
        assert shard._has_dummies == labels._has_dummies

    def test_union_of_shards_covers_every_lin_row(self, labels):
        bounds = shard_bounds(labels.num_stops, 3)
        for v in range(labels.num_stops):
            kept = [
                partition_labels(labels, lo, hi).lin.rows(v)
                for lo, hi in bounds
                if (lo <= v < hi)
            ]
            assert len(kept) == 1
            assert np.array_equal(kept[0], labels.lin.rows(v))


class TestManifest:
    def test_build_and_reload_round_trip(self, labels, tmp_path):
        directory = str(tmp_path / "shards")
        manifest = build_shards(
            directory,
            labels,
            2,
            target_sets=[{"tag": "poi", "targets": [1, 4, 10, 15], "kmax": 4}],
        )
        loaded = load_manifest(directory)
        assert isinstance(loaded, ShardManifest)
        assert loaded.num_stops == labels.num_stops
        assert loaded.num_shards == 2
        assert [s["index"] for s in loaded.shards] == [0, 1]
        # Target split respects shard ranges and loses nothing.
        owned = [s["target_sets"][0]["targets"] for s in loaded.shards]
        assert sorted(sum(owned, [])) == [1, 4, 10, 15]
        for shard, targets in zip(loaded.shards, owned):
            assert all(shard["lo"] <= t < shard["hi"] for t in targets)

    def test_shard_db_paths_exist(self, labels, tmp_path):
        directory = str(tmp_path / "shards")
        manifest = build_shards(directory, labels, 2)
        import os

        for index in range(manifest.num_shards):
            assert os.path.exists(manifest.shard_db_path(index))


class TestManifestValidation:
    """A defective manifest.json is a ServingError naming the file and the
    offending key or byte — never a TypeError/KeyError/JSONDecodeError."""

    @pytest.fixture(scope="class")
    def saved(self, labels, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("manifest"))
        manifest = build_shards(
            directory,
            labels,
            2,
            target_sets=[{"tag": "poi", "targets": [1, 10], "kmax": 2}],
        )
        with open(manifest.path, encoding="utf-8") as handle:
            return manifest.path, handle.read()

    def rewrite(self, saved, edit):
        """Save the manifest with *edit* applied to its dict; its path."""
        import json

        path, text = saved
        data = json.loads(text)
        edit(data)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    @pytest.fixture(autouse=True)
    def restore(self, saved):
        yield
        path, text = saved
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    def test_every_truncation_is_typed(self, saved):
        path, text = saved
        for cut in range(len(text)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text[:cut])
            with pytest.raises(ServingError, match="manifest.json.*byte"):
                load_manifest(path)

    def test_parent_format_manifest_names_the_dropped_key(self, saved):
        def edit(data):
            data["storage"] = "row"
            data["compressed"] = False

        path = self.rewrite(saved, edit)
        with pytest.raises(ServingError, match="unknown key 'storage'"):
            load_manifest(path)

    def test_missing_key(self, saved):
        path = self.rewrite(saved, lambda data: data.pop("time_low"))
        with pytest.raises(ServingError, match="missing key 'time_low'"):
            load_manifest(path)
        path = self.rewrite(saved, lambda data: data["shards"][1].pop("lo"))
        with pytest.raises(ServingError, match=r"shards\[1\].*'lo'"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("num_stops", "18"),
            ("pool_pages", 4096.0),
            ("device", 3),
            ("shards", {}),
            ("num_shards", True),
        ],
    )
    def test_wrong_typed_field(self, saved, key, value):
        path = self.rewrite(saved, lambda data: data.update({key: value}))
        with pytest.raises(ServingError, match=f"key '{key}' must be"):
            load_manifest(path)

    def test_top_level_must_be_an_object(self, saved):
        path, _ = saved
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("[1, 2]")
        with pytest.raises(ServingError, match="expected an object"):
            load_manifest(path)

    def test_shard_count_mismatch(self, saved):
        path = self.rewrite(saved, lambda data: data["shards"].pop())
        with pytest.raises(ServingError, match="'num_shards' is 2"):
            load_manifest(path)

    @pytest.mark.parametrize("lo,hi", [(9, 9), (12, 9), (-1, 9), (9, 19)])
    def test_shard_range_outside_the_stops(self, saved, lo, hi):
        path = self.rewrite(
            saved, lambda data: data["shards"][1].update(lo=lo, hi=hi)
        )
        with pytest.raises(ServingError, match=r"shards\[1\].*range"):
            load_manifest(path)

    def test_worker_startup_surfaces_it_unchanged(self, saved):
        from repro.serving.worker import ShardWorker

        path = self.rewrite(saved, lambda data: data.update(storage="row"))
        with pytest.raises(ServingError, match="unknown key 'storage'"):
            ShardWorker(path, 0)

    def test_more_shards_than_stops_rejected_at_build(self, labels, tmp_path):
        with pytest.raises(ServingError, match="between 1 and 18"):
            build_shards(str(tmp_path / "s"), labels, labels.num_stops + 1)
