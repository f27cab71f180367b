"""Parallel TTL preprocessing must be bit-identical to the sequential build."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import csa
from repro.errors import LabelingError
from repro.labeling.io import save_labels
from repro.labeling.parallel import (
    ConnectionColumns,
    ParallelBuildReport,
    build_labels_parallel,
    profile_scan,
)
from repro.labeling.query import TTLQueryEngine
from repro.labeling.ttl import BuildReport, build_labels, journey_profiles
from repro.timetable.generator import random_timetable
from repro.timetable.model import Timetable

from tests.conftest import PAPER_ORDER, make_paper_timetable


def assert_same_labels(a, b):
    assert a.num_stops == b.num_stops
    assert a.order == b.order
    assert a.lout == b.lout
    assert a.lin == b.lin
    # pivot/trip don't participate in LabelTuple equality; compare them too
    for side in ("lout", "lin"):
        for ta_list, tb_list in zip(getattr(a, side), getattr(b, side)):
            for ta, tb in zip(ta_list, tb_list):
                assert (ta.pivot, ta.trip) == (tb.pivot, tb.trip)


class TestScanKernel:
    def test_forward_rows_match_reversed_connections(self, small_timetable):
        cols = ConnectionColumns.from_timetable(small_timetable)
        expected = [
            (c.dep, c.arr, c.u, c.v, c.trip)
            for c in reversed(small_timetable.connections)
        ]
        assert cols.scan_rows(reverse=False) == expected

    def test_reverse_rows_match_reversed_timetable(self, small_timetable):
        """The lexsort shortcut must reproduce Timetable.reverse() exactly,
        tie-breaking included — the scan order decides profile contents."""
        cols = ConnectionColumns.from_timetable(small_timetable)
        reverse = small_timetable.reverse()
        expected = [
            (c.dep, c.arr, c.u, c.v, c.trip)
            for c in reversed(reverse.connections)
        ]
        assert cols.scan_rows(reverse=True) == expected

    @pytest.mark.parametrize("target", [0, 3, 6])
    def test_profile_scan_matches_journey_profiles(self, target):
        tt = make_paper_timetable()
        cols = ConnectionColumns.from_timetable(tt)
        rows = cols.scan_rows(reverse=False)
        scanned = {
            v: list(zip(deps, arrs, trips, pivots))
            for v, deps, arrs, trips, pivots in profile_scan(
                rows, tt.num_stops, cols.num_trips, target
            )
        }
        for v, prof in enumerate(journey_profiles(tt, target)):
            if v == target:
                continue
            if prof.entries:
                assert scanned[v] == prof.entries
            else:
                assert v not in scanned

    def test_profile_scan_rank_filter(self, small_timetable):
        """With a rank, only vertices ranked below the target come back."""
        labels, _ = build_labels(small_timetable)
        cols = ConnectionColumns.from_timetable(small_timetable)
        rows = cols.scan_rows(reverse=False)
        target = labels.order[2]
        for v, *_ in profile_scan(
            rows, cols.num_stops, cols.num_trips, target, labels.rank
        ):
            assert labels.rank[v] > labels.rank[target]

    def test_empty_timetable(self):
        tt = Timetable(num_stops=3, connections=[])
        cols = ConnectionColumns.from_timetable(tt)
        assert cols.scan_rows(reverse=False) == []
        assert cols.scan_rows(reverse=True) == []
        labels, report = build_labels_parallel(tt, workers=2)
        seq, _ = build_labels(tt)
        assert_same_labels(labels, seq)
        assert report.candidate_tuples == 0


class TestIdentity:
    def test_paper_example(self, tmp_path, paper_timetable, paper_labels):
        par, report = build_labels_parallel(
            paper_timetable, workers=2, order=PAPER_ORDER
        )
        assert_same_labels(par, paper_labels)
        seq_path = os.path.join(tmp_path, "seq.ttl")
        par_path = os.path.join(tmp_path, "par.ttl")
        save_labels(paper_labels, seq_path)
        save_labels(par, par_path)
        with open(seq_path, "rb") as a, open(par_path, "rb") as b:
            assert a.read() == b.read()

    def test_small_timetable_with_dummies(self, small_timetable, small_labels):
        par, _ = build_labels_parallel(
            small_timetable, workers=2, add_dummies=True
        )
        assert_same_labels(par, small_labels)
        # ... and the parallel-built labels answer like the CSA oracle
        engine = TTLQueryEngine(par)
        rng = random.Random(23)
        low, high = small_timetable.time_range()
        for _ in range(20):
            s, g = rng.sample(range(small_timetable.num_stops), 2)
            t = rng.randrange(low, high)
            assert engine.earliest_arrival(s, g, t) == csa.earliest_arrival(
                small_timetable, s, g, t
            )
            assert engine.latest_departure(s, g, t) == csa.latest_departure(
                small_timetable, s, g, t
            )

    def test_pruning_counters_match_sequential(self, small_timetable):
        """The indexed cover checks must prune the exact same candidates."""
        _, seq = build_labels(small_timetable)
        _, par = build_labels_parallel(small_timetable, workers=2)
        assert par.candidate_tuples == seq.candidate_tuples
        assert par.pruned_tuples == seq.pruned_tuples
        assert par.kept_tuples == seq.kept_tuples

    def test_prune_disabled(self, small_timetable):
        seq, _ = build_labels(small_timetable, prune=False)
        par, report = build_labels_parallel(
            small_timetable, workers=2, prune=False
        )
        assert_same_labels(par, seq)
        assert report.pruned_tuples == 0

    @pytest.mark.parametrize("window", [1, 3])
    def test_explicit_windows(self, small_timetable, window):
        seq, _ = build_labels(small_timetable)
        par, report = build_labels_parallel(
            small_timetable, workers=2, window=window
        )
        assert_same_labels(par, seq)
        assert report.window == window

    def test_workers_arg_on_build_labels(self, small_timetable):
        seq, _ = build_labels(small_timetable)
        par, report = build_labels(small_timetable, workers=2)
        assert_same_labels(par, seq)
        assert isinstance(report, ParallelBuildReport)

    @settings(max_examples=10, deadline=None)
    @given(
        num_stops=st.integers(min_value=2, max_value=12),
        num_connections=st.integers(min_value=0, max_value=70),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_timetables(self, num_stops, num_connections, seed):
        tt = random_timetable(num_stops, num_connections, seed=seed)
        seq, _ = build_labels(tt, add_dummies=True)
        par, _ = build_labels_parallel(tt, workers=2, add_dummies=True)
        assert_same_labels(par, seq)


class TestValidationAndReport:
    def test_rejects_zero_workers(self, small_timetable):
        with pytest.raises(LabelingError):
            build_labels_parallel(small_timetable, workers=0)

    def test_rejects_bad_window(self, small_timetable):
        with pytest.raises(LabelingError):
            build_labels_parallel(small_timetable, workers=2, window=0)

    def test_report_fields(self, small_timetable):
        _, report = build_labels_parallel(small_timetable, workers=2)
        assert isinstance(report, BuildReport)
        assert report.workers == 2
        assert report.window >= 1
        assert report.seconds > 0
        assert report.pipeline_s > 0
        assert report.scan_cpu_s > 0
        assert report.coordinator_cpu_s > 0
        assert report.cpu_to_wall > 0
        assert report.kept_tuples == (
            report.candidate_tuples - report.pruned_tuples
        )
