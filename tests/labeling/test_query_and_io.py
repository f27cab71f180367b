"""Tests for the in-memory query engine, reconstruction and label I/O."""

import os
import random

import numpy as np
import pytest

from repro.baselines import csa
from repro.errors import LabelingError
from repro.labeling.io import load_labels, save_labels
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.query import (
    TTLQueryEngine,
    journey_is_feasible,
    reconstruct_journey,
)


class TestLabelTuple:
    def test_rejects_time_travel(self):
        with pytest.raises(LabelingError, match="arrives before it departs"):
            TTLLabels.from_tuples(1, [0], [[(0, 100, 50)]], [[]])

    def test_dummy_detection(self):
        assert LabelTuple(hub=3, td=100, ta=100).is_dummy
        assert not LabelTuple(hub=3, td=100, ta=100, trip=7).is_dummy
        assert not LabelTuple(hub=3, td=100, ta=160, trip=7).is_dummy

    def test_sort_order(self):
        a = LabelTuple(hub=1, td=50, ta=60)
        b = LabelTuple(hub=1, td=40, ta=70)
        c = LabelTuple(hub=0, td=99, ta=99)
        assert sorted([a, b, c]) == [c, b, a]


class TestKnnOtmConsistency:
    """The kNN result must be the top-k prefix of the one-to-many result."""

    def test_knn_is_prefix_of_otm(self, small_engine, small_timetable):
        rng = random.Random(5)
        targets = {1, 4, 9, 13, 16}
        for _ in range(50):
            q = rng.randrange(small_timetable.num_stops)
            t = rng.randrange(20_000, 90_000)
            otm = small_engine.ea_one_to_many(q, targets, t)
            ranked = sorted(otm.items(), key=lambda kv: (kv[1], kv[0]))
            for k in (1, 2, 4):
                assert small_engine.ea_knn(q, targets, t, k) == ranked[:k]
            otm_ld = small_engine.ld_one_to_many(q, targets, t)
            ranked_ld = sorted(otm_ld.items(), key=lambda kv: (-kv[1], kv[0]))
            for k in (1, 3):
                assert small_engine.ld_knn(q, targets, t, k) == ranked_ld[:k]

    def test_knn_never_exceeds_k(self, small_engine):
        result = small_engine.ea_knn(0, {1, 4, 9}, 30_000, 2)
        assert len(result) <= 2


class TestReconstruction:
    def test_journeys_are_feasible_and_optimal(self, small_timetable):
        rng = random.Random(6)
        for _ in range(100):
            s = rng.randrange(small_timetable.num_stops)
            g = rng.randrange(small_timetable.num_stops)
            t = rng.randrange(20_000, 90_000)
            path = reconstruct_journey(small_timetable, s, g, t)
            expected = csa.earliest_arrival(small_timetable, s, g, t)
            if s == g:
                assert path == []
                continue
            if expected is None:
                assert path is None
                continue
            assert path is not None
            assert journey_is_feasible(path, s, g, t)
            assert path[-1].arr == expected

    def test_feasibility_checker_rejects_gaps(self, paper_timetable):
        c1, c2 = paper_timetable.connections[0], paper_timetable.connections[-1]
        # c2 does not start where c1 ends
        if c1.v != c2.u:
            assert not journey_is_feasible([c1, c2], c1.u, c2.v, 0)


class TestLabelIO:
    def test_roundtrip(self, tmp_path, small_labels):
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(small_labels, path)
        loaded = load_labels(path)
        assert loaded.num_stops == small_labels.num_stops
        assert loaded.order == small_labels.order
        for side in ("lout", "lin"):
            ours, theirs = getattr(small_labels, side), getattr(loaded, side)
            assert np.array_equal(theirs.offsets, ours.offsets)
            assert np.array_equal(theirs.records, ours.records)

    def test_dummy_flag_restored(self, tmp_path, small_labels):
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(small_labels, path)
        loaded = load_labels(path)
        with pytest.raises(LabelingError):
            loaded.add_dummy_tuples()

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "junk.ttl")
        with open(path, "wb") as handle:
            handle.write(b"NOPE....")
        with pytest.raises(LabelingError):
            load_labels(path)

    def test_roundtrip_preserves_query_answers(self, tmp_path, small_labels, small_timetable):
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(small_labels, path)
        engine_a = TTLQueryEngine(small_labels)
        engine_b = TTLQueryEngine(load_labels(path))
        rng = random.Random(7)
        for _ in range(30):
            s = rng.randrange(small_timetable.num_stops)
            g = rng.randrange(small_timetable.num_stops)
            t = rng.randrange(20_000, 90_000)
            assert engine_a.earliest_arrival(s, g, t) == engine_b.earliest_arrival(s, g, t)
