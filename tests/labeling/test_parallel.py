"""The one label builder, at every worker count, must build the labels of
the definitional model in ``tests/labeling/reference_build.py`` bit for
bit."""

import multiprocessing
import os
import random
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import csa
from repro.errors import LabelingError
from repro.labeling import scan
from repro.labeling.io import save_labels
from repro.labeling.ordering import ORDERINGS
from repro.labeling.query import TTLQueryEngine
from repro.labeling.scan import ConnectionColumns, profile_scan
from repro.labeling.ttl import BuildReport, build_labels
from repro.timetable.datasets import load_dataset
from repro.timetable.generator import random_timetable
from repro.timetable.model import Connection, Timetable

from tests.conftest import PAPER_ORDER, make_paper_timetable
from tests.labeling.reference_build import journey_profiles, reference_build

#: 1 = the in-process scan producer, 2 = the pooled one.
WORKERS = (1, 2)


def assert_same_labels(a, b):
    assert a.num_stops == b.num_stops
    assert a.order == b.order
    for side in ("lout", "lin"):  # every column, pivot and trip included
        assert np.array_equal(getattr(a, side).offsets, getattr(b, side).offsets)
        assert np.array_equal(getattr(a, side).records, getattr(b, side).records)


def assert_same_counters(a, b):
    assert a.candidate_tuples == b.candidate_tuples
    assert a.pruned_tuples == b.pruned_tuples
    assert a.kept_tuples == b.kept_tuples


def assert_model_counters(report, model):
    """The scans skip journeys through stops ranked above the hub, which
    the model scans and then prunes: same kept tuples, fewer candidates."""
    assert report.kept_tuples == model.kept_tuples
    assert report.candidate_tuples <= model.candidate_tuples


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

    def test_profile_scan_rank_filter(self, monkeypatch, small_timetable):
        """The kernel for hub h gets exactly the rows, in scan order, whose
        two stops both rank at or below h — so no stop ranked above h ever
        comes back from it."""
        labels, _ = build_labels(small_timetable)
        rank = labels.rank
        cols = ConnectionColumns.from_timetable(small_timetable)
        given = []

        def recording_scan(rows, num_stops, num_trips, target):
            given.append((target, rows))
            return profile_scan(rows, num_stops, num_trips, target)

        monkeypatch.setattr(scan, "profile_scan", recording_scan)
        state = scan._scan_state(cols, rank)
        results, _ = scan._scan_hubs(state, labels.order)
        assert len(given) == 2 * small_timetable.num_stops
        for (h, rows), reverse in zip(given, [False, True] * len(results)):
            assert rows == [
                row for row in cols.scan_rows(reverse)
                if min(rank[row[2]], rank[row[3]]) >= rank[h]
            ]
        for h, fwd, rev in results:
            for v, *_ in fwd + rev:
                assert rank[v] > rank[h]

    def test_empty_timetable(self):
        """Every ordering builds empty labels for a timetable without
        connections (``hub_sample`` has no time range to sample)."""
        tt = Timetable(num_stops=3, connections=[])
        cols = ConnectionColumns.from_timetable(tt)
        assert cols.scan_rows(reverse=False) == []
        assert cols.scan_rows(reverse=True) == []
        for ordering in ORDERINGS:
            expected, _ = reference_build(tt, ordering=ordering)
            for workers in WORKERS:
                labels, report = build_labels(
                    tt, ordering=ordering, workers=workers)
                assert_same_labels(labels, expected)
                assert report.candidate_tuples == 0


class TestIdentity:
    def test_paper_example(self, tmp_path, paper_timetable):
        expected, _ = reference_build(paper_timetable, order=PAPER_ORDER)
        expected_path = os.path.join(tmp_path, "reference.ttl")
        save_labels(expected, expected_path)
        for workers in WORKERS:
            built, _ = build_labels(
                paper_timetable, workers=workers, order=PAPER_ORDER
            )
            assert_same_labels(built, expected)
            built_path = os.path.join(tmp_path, f"built{workers}.ttl")
            save_labels(built, built_path)
            with open(expected_path, "rb") as a, open(built_path, "rb") as b:
                assert a.read() == b.read()

    def test_small_timetable_with_dummies(self, small_timetable):
        expected, _ = reference_build(small_timetable, add_dummies=True)
        low, high = small_timetable.time_range()
        for workers in WORKERS:
            built, _ = build_labels(
                small_timetable, workers=workers, add_dummies=True
            )
            assert_same_labels(built, expected)
            # ... and the built labels answer like the CSA oracle
            engine = TTLQueryEngine(built)
            rng = random.Random(23)
            for _ in range(20):
                s, g = rng.sample(range(small_timetable.num_stops), 2)
                t = rng.randrange(low, high)
                assert engine.earliest_arrival(
                    s, g, t
                ) == csa.earliest_arrival(small_timetable, s, g, t)
                assert engine.latest_departure(
                    s, g, t
                ) == csa.latest_departure(small_timetable, s, g, t)

    def test_pruning_counters_match_sequential(self, small_timetable):
        """The batched cover checks keep the exact tuples the every-pair
        checks of the model keep, at every worker count alike."""
        _, expected = reference_build(small_timetable)
        reports = [
            build_labels(small_timetable, workers=workers)[1]
            for workers in WORKERS
        ]
        for report in reports:
            assert_model_counters(report, expected)
            assert_same_counters(report, reports[0])
        assert (reports[0].candidate_tuples, reports[0].pruned_tuples) == (
            435, 44)

    def test_prune_disabled(self, small_timetable):
        """Every kept tuple, witness included, is a tuple of the unpruned
        model: pruning only drops tuples."""
        unpruned, model = reference_build(small_timetable, prune=False)
        assert model.pruned_tuples == 0
        for workers in WORKERS:
            built, report = build_labels(small_timetable, workers=workers)
            assert report.kept_tuples < model.kept_tuples
            for side in ("lout", "lin"):
                for got, full in zip(getattr(built, side),
                                     getattr(unpruned, side)):
                    witnessed = {(t.hub, t.td, t.ta, t.pivot, t.trip)
                                 for t in full}
                    for t in got:
                        assert (t.hub, t.td, t.ta, t.pivot,
                                t.trip) in witnessed

    def test_salt_lake_city_paper(self):
        """Paper scale: 240 stops and 56,349 candidates through the
        batched cover checks, against the every-pair model (477,459
        candidates: it also scans the journeys through higher stops)."""
        tt = load_dataset("Salt Lake City", scale="paper")
        expected, expected_report = reference_build(tt)
        built, report = build_labels(tt)
        assert_same_labels(built, expected)
        assert_model_counters(report, expected_report)
        assert report.candidate_tuples == 56_349
        assert report.pruned_tuples == 29_707
        assert report.kept_tuples == 26_642

    @settings(max_examples=10, deadline=None)
    @given(
        num_stops=st.integers(min_value=2, max_value=12),
        num_connections=st.integers(min_value=0, max_value=70),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_timetables(self, num_stops, num_connections, seed):
        tt = random_timetable(num_stops, num_connections, seed=seed)
        expected, expected_report = reference_build(tt, add_dummies=True)
        reports = []
        for workers in WORKERS:
            built, report = build_labels(
                tt, workers=workers, add_dummies=True
            )
            assert_same_labels(built, expected)
            assert_model_counters(report, expected_report)
            reports.append(report)
        assert_same_counters(reports[1], reports[0])

    @settings(max_examples=40, deadline=None)
    @given(
        ordering=st.sampled_from(sorted(ORDERINGS)),
        num_stops=st.integers(min_value=2, max_value=12),
        num_connections=st.integers(min_value=0, max_value=60),
        span=st.sampled_from([3, 10, 60, 600, 3600, 4 * 3600]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_ordering_with_ties(
        self, ordering, num_stops, num_connections, span, seed
    ):
        """Rank-restricted scans keep the model's labels, pivot and trip
        included, under every ordering — also when a few seconds of span
        force equal departure and arrival times."""
        tt = random_timetable(num_stops, num_connections, seed=seed,
                              span_start=28_800, span_end=28_800 + span)
        expected, expected_report = reference_build(tt, ordering=ordering)
        reports = []
        for workers in WORKERS:
            built, report = build_labels(
                tt, ordering=ordering, workers=workers)
            assert_same_labels(built, expected)
            assert_model_counters(report, expected_report)
            reports.append(report)
        assert_same_counters(reports[1], reports[0])


def _scan_window_killed_at_rank_4(hubs):
    """A pool task whose process dies as if OOM-killed mid-scan."""
    *_, rank = scan._WORKER
    if rank[hubs[0]] == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return scan._scan_hubs(scan._WORKER, hubs)


class TestScanProducers:
    def test_single_worker_starts_no_process(
        self, monkeypatch, small_timetable
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not build a process pool")

        monkeypatch.setattr(scan, "ProcessPoolExecutor", no_pool)
        before = multiprocessing.active_children()
        labels, report = build_labels(small_timetable)
        assert report.workers == 1
        assert labels.total_tuples > 0
        assert multiprocessing.active_children() == before

    def test_killed_scan_worker_fails_the_build(
        self, monkeypatch, small_timetable
    ):
        """Losing a scan process is a typed error naming the hub window,
        within a deadline — not a build blocked on a result forever."""
        monkeypatch.setattr(scan, "_scan_window", _scan_window_killed_at_rank_4)
        outcome = []

        def run():
            try:
                outcome.append(build_labels(small_timetable, workers=2))
            except Exception as exc:  # handed to the asserting thread
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "build still blocked on a dead worker"
        (error,) = outcome
        assert isinstance(error, LabelingError)
        assert "hub window" in str(error) and "ranks" in str(error)
        assert multiprocessing.active_children() == []

    def test_uninitialized_worker_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(scan, "_WORKER", None)
        with pytest.raises(LabelingError, match="initializer"):
            scan._scan_window([3, 4])


def _shifted(tt, by):
    return Timetable(tt.num_stops, [
        Connection(c.dep + by, c.arr + by, c.u, c.v, c.trip)
        for c in tt.connections
    ])


class TestValidationAndReport:
    def test_rejects_zero_workers(self, small_timetable):
        with pytest.raises(LabelingError):
            build_labels(small_timetable, workers=0)

    @pytest.mark.parametrize("edge", ["negative", "int64 max"])
    def test_shifted_times_shift_the_labels(self, small_timetable, edge):
        """Cover keys are relative to the earliest departure: negative
        times and times at the int64 edge build the same labels, shifted."""
        by = -10**12 if edge == "negative" else (
            2**63 - 1 - small_timetable.time_range()[1])
        expected, expected_report = build_labels(small_timetable)
        built, report = build_labels(
            _shifted(small_timetable, by), order=expected.order
        )
        assert_same_counters(report, expected_report)
        for side in ("lout", "lin"):
            for got, want in zip(getattr(built, side), getattr(expected, side)):
                assert [(t.hub, t.td - by, t.ta - by, t.pivot, t.trip)
                        for t in got] == [
                    (t.hub, t.td, t.ta, t.pivot, t.trip) for t in want]

    def test_oversized_time_span_is_refused(self):
        tt = Timetable(3, [Connection(0, 2**62, 0, 1, 0)])
        with pytest.raises(LabelingError, match=f"span {2**62}"):
            build_labels(tt)

    def test_report_fields(self, small_timetable):
        for workers in WORKERS:
            _, report = build_labels(small_timetable, workers=workers)
            assert isinstance(report, BuildReport)
            assert report.workers == workers
            assert report.seconds > 0
            assert report.pipeline_s > 0
            assert report.scan_cpu_s > 0
            assert report.coordinator_cpu_s > 0
            assert report.cpu_to_wall > 0
            assert report.kept_tuples == (
                report.candidate_tuples - report.pruned_tuples
            )
