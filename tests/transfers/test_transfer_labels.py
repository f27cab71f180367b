"""Tests for transfer-aware TTL construction and the in-memory engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import csa
from repro.errors import LabelingError, TimetableError
from repro.labeling.scan import ConnectionColumns
from repro.timetable.generator import random_timetable
from repro.transfers.csa import (
    earliest_arrival_bounded,
    earliest_arrival_by_trips,
    latest_departure_bounded,
    trips_needed,
)
from repro.transfers.labels import TransferLabels, TransferLabelTuple
from repro.transfers.query import TransferQueryEngine
from repro.transfers.ttl import bounded_scan, build_transfer_labels


@pytest.fixture(scope="module")
def instance():
    tt = random_timetable(14, 130, seed=8)
    labels, report = build_transfer_labels(tt, max_trips=4, add_dummies=True)
    return tt, labels, TransferQueryEngine(labels)


def one_tuple(t, max_trips=2):
    """Hand-made labels of two stops: *t* is vertex 1's only Lout tuple."""
    return TransferLabels.from_tuples(2, [0, 1], [[], [t]], [[], []],
                                      max_trips=max_trips)


def kernel_candidates(tt, target, max_trips):
    """``bounded_scan``'s candidates for every stop but *target*, as
    ``(v, r, dep, arr)`` tuples."""
    cols = ConnectionColumns.from_timetable(tt)
    rank = [int(v != target) for v in range(tt.num_stops)]
    vs, rs, deps, arrs, _, _ = bounded_scan(
        cols.scan_rows(reverse=False), tt.num_stops, max(cols.num_trips, 1),
        target, max_trips, rank)
    return list(zip(vs.tolist(), rs.tolist(), deps.tolist(), arrs.tolist()))


def best_arrival(cands, v, r, t):
    """Earliest candidate arrival from v with at most r trips departing at
    or after t."""
    return min((a for u, k, d, a in cands if u == v and k <= r and d >= t),
               default=float("inf"))


class TestTupleAndContainer:
    def test_tuple_validation(self):
        with pytest.raises(LabelingError, match="arrives before it departs"):
            one_tuple((0, 10, 5, 1))
        with pytest.raises(LabelingError, match="trips outside"):
            one_tuple((0, 5, 10, -1))
        assert one_tuple((0, 5, 10, 1)).lout[1] == [(0, 5, 10, 1, None, None)]
        assert TransferLabelTuple(hub=0, td=5, ta=5, trips=0).is_dummy

    def test_container_validation(self):
        with pytest.raises(LabelingError):
            TransferLabels(3, [0, 1], max_trips=2)
        with pytest.raises(LabelingError):
            TransferLabels(2, [0, 1], max_trips=0)

    def test_validate_catches_excess_trips(self):
        with pytest.raises(LabelingError, match=r"lout\(1\) tuple 0: trips outside \[0, 1\]"):
            one_tuple((0, 0, 5, 2), max_trips=1)


class TestBoundedProfiles:
    @settings(max_examples=20, deadline=None)
    @given(
        stops=st.integers(min_value=2, max_value=9),
        connections=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=500),
        target=st.integers(min_value=0, max_value=8),
    )
    def test_profiles_match_bounded_oracle(self, stops, connections, seed, target):
        tt = random_timetable(stops, connections, seed=seed)
        target %= stops
        cands = kernel_candidates(tt, target, max_trips=3)
        for s, r, dep, arr in cands:
            oracle = earliest_arrival_bounded(tt, s, target, dep, r)
            assert oracle is not None and oracle <= arr
        for r in (1, 2, 3):
            for s in range(stops):
                if s == target:
                    continue
                # completeness spot check
                for t in (30_000, 60_000):
                    oracle = earliest_arrival_bounded(tt, s, target, t, r)
                    value = best_arrival(cands, s, r, t)
                    if oracle is None:
                        assert value == float("inf")
                    else:
                        assert value == oracle

    def test_budget_monotonicity(self, instance):
        tt, _, _ = instance
        cands = kernel_candidates(tt, 3, max_trips=3)
        assert {r for _, r, _, _ in cands} == {1, 2, 3}
        for s, r, dep, arr in cands:  # one more vehicle buys something
            assert best_arrival(cands, s, r - 1, dep) > arr
        for s in range(tt.num_stops):
            for t in range(20_000, 90_000, 7000):
                v1, v2, v3 = (best_arrival(cands, s, r, t) for r in (1, 2, 3))
                assert v3 <= v2 <= v1


class TestEngineContract:
    """The documented contract: sound, (K-1)-complete, exact in practice."""

    def test_soundness_and_completeness(self, instance):
        tt, _, engine = instance
        rng = random.Random(13)
        exact = total = 0
        for _ in range(150):
            s = rng.randrange(tt.num_stops)
            g = rng.randrange(tt.num_stops)
            if s == g:
                continue
            t = rng.randrange(20_000, 92_000)
            for k in (1, 2, 3):
                got = engine.earliest_arrival(s, g, t, k)
                oracle = earliest_arrival_bounded(tt, s, g, t, k)
                weaker = (
                    earliest_arrival_bounded(tt, s, g, t, k - 1) if k > 1 else None
                )
                if got is not None:  # sound: never beats the true optimum
                    assert oracle is not None and got >= oracle
                if weaker is not None:  # (K-1)-complete
                    assert got is not None and got <= weaker
                total += 1
                exact += got == oracle
        # in practice the adjustment makes virtually every query exact
        assert exact / total > 0.97

    def test_ld_contract(self, instance):
        tt, _, engine = instance
        rng = random.Random(14)
        for _ in range(100):
            s = rng.randrange(tt.num_stops)
            g = rng.randrange(tt.num_stops)
            if s == g:
                continue
            t = rng.randrange(20_000, 92_000)
            for k in (1, 2, 3):
                got = engine.latest_departure(s, g, t, k)
                oracle = latest_departure_bounded(tt, s, g, t, k)
                if got is not None:
                    assert oracle is not None and got <= oracle
                weaker = (
                    latest_departure_bounded(tt, s, g, t, k - 1) if k > 1 else None
                )
                if weaker is not None:
                    assert got is not None and got >= weaker

    def test_large_budget_equals_unbounded(self, instance):
        tt, _, engine = instance
        rng = random.Random(15)
        for _ in range(80):
            s = rng.randrange(tt.num_stops)
            g = rng.randrange(tt.num_stops)
            if s == g:
                continue
            t = rng.randrange(20_000, 92_000)
            bounded = engine.earliest_arrival(s, g, t, 4)
            oracle4 = earliest_arrival_bounded(tt, s, g, t, 4)
            unbounded = csa.earliest_arrival(tt, s, g, t)
            if oracle4 == unbounded:
                assert bounded == unbounded

    def test_pareto_front(self, instance):
        tt, labels, engine = instance
        rng = random.Random(16)
        for _ in range(50):
            s = rng.randrange(tt.num_stops)
            g = rng.randrange(tt.num_stops)
            if s == g:
                continue
            t = rng.randrange(20_000, 80_000)
            front = engine.pareto_arrivals(s, g, t)
            # strictly improving arrivals with increasing trips
            for (k1, a1), (k2, a2) in zip(front, front[1:]):
                assert k1 < k2
                assert a1 > a2
            # first entry matches the bounded query at its trips count
            if front:
                k0, a0 = front[0]
                assert engine.earliest_arrival(s, g, t, k0) == a0


class TestStopRange:
    """A stop outside ``[0, num_stops)`` is an error naming it, never the
    answer for stop ``n - 1`` (Python's negative index) or an
    ``IndexError``."""

    @pytest.mark.parametrize("stop", [-1, -14, 14, 99])
    def test_engine(self, instance, stop):
        _, _, engine = instance
        for query in (engine.earliest_arrival, engine.latest_departure):
            with pytest.raises(LabelingError, match=rf"stop {stop} out of range"):
                query(2, stop, 40_000, 3)
            with pytest.raises(LabelingError, match=rf"stop {stop} out of range"):
                query(stop, 2, 40_000, 3)
        with pytest.raises(LabelingError, match=rf"stop {stop} out of range"):
            engine.pareto_arrivals(stop, 2, 40_000)

    @pytest.mark.parametrize("stop", [-1, -14, 14, 99])
    def test_oracles(self, instance, stop):
        tt, _, _ = instance
        for query in (earliest_arrival_bounded, latest_departure_bounded):
            with pytest.raises(TimetableError, match=rf"stop {stop} out of range"):
                query(tt, 2, stop, 40_000, 3)
            with pytest.raises(TimetableError, match=rf"stop {stop} out of range"):
                query(tt, stop, 2, 40_000, 3)
        with pytest.raises(TimetableError, match=rf"stop {stop} out of range"):
            trips_needed(tt, 2, stop, 40_000)
        with pytest.raises(TimetableError, match=rf"stop {stop} out of range"):
            earliest_arrival_by_trips(tt, stop, 40_000, 3)


class TestConstruction:
    def test_pruning_shrinks_labels(self):
        # every candidate is a tuple of the unpruned build
        tt = random_timetable(12, 100, seed=3)
        pruned, report = build_transfer_labels(tt, max_trips=3)
        assert pruned.total_tuples <= report.candidate_tuples

    def test_validate_passes(self, instance):
        _, labels, _ = instance
        labels.validate()

    def test_report_accounting(self):
        tt = random_timetable(10, 60, seed=4)
        labels, report = build_transfer_labels(tt, max_trips=2)
        assert report.kept_tuples == labels.total_tuples
        assert report.candidate_tuples >= report.pruned_tuples
