"""Property-based tests: TTL answers must equal the CSA oracle's."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import csa
from repro.labeling.labels import TTLLabels
from repro.labeling.query import TTLQueryEngine
from repro.labeling.ttl import build_labels
from repro.timetable.generator import random_timetable

from tests.labeling.reference_build import reference_build


def timetables():
    """Strategy: a random timetable plus query parameters."""
    return st.builds(
        random_timetable,
        num_stops=st.integers(min_value=2, max_value=14),
        num_connections=st.integers(min_value=0, max_value=90),
        seed=st.integers(min_value=0, max_value=100_000),
    )


class TestAgainstOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        tt=timetables(),
        s=st.integers(min_value=0, max_value=13),
        g=st.integers(min_value=0, max_value=13),
        t=st.integers(min_value=20_000, max_value=90_000),
        window=st.integers(min_value=0, max_value=50_000),
    )
    def test_ea_ld_sd_match_csa(self, tt, s, g, t, window):
        s %= tt.num_stops
        g %= tt.num_stops
        labels, _ = build_labels(tt)
        engine = TTLQueryEngine(labels)
        assert engine.earliest_arrival(s, g, t) == csa.earliest_arrival(tt, s, g, t)
        assert engine.latest_departure(s, g, t) == csa.latest_departure(tt, s, g, t)
        assert engine.shortest_duration(s, g, t, t + window) == csa.shortest_duration(
            tt, s, g, t, t + window
        )

    @settings(max_examples=15, deadline=None)
    @given(tt=timetables(), seed=st.integers(min_value=0, max_value=99))
    def test_pruning_does_not_change_answers(self, tt, seed):
        import random

        pruned, _ = build_labels(tt)
        unpruned, _ = reference_build(tt, prune=False)
        assert pruned.total_tuples <= unpruned.total_tuples
        engine_p = TTLQueryEngine(pruned)
        engine_u = TTLQueryEngine(unpruned)
        rng = random.Random(seed)
        for _ in range(20):
            s = rng.randrange(tt.num_stops)
            g = rng.randrange(tt.num_stops)
            t = rng.randrange(20_000, 90_000)
            assert engine_p.earliest_arrival(s, g, t) == engine_u.earliest_arrival(
                s, g, t
            )


class TestStructuralInvariants:
    @settings(max_examples=20, deadline=None)
    @given(tt=timetables())
    def test_validate_passes(self, tt):
        labels, _ = build_labels(tt, add_dummies=True)
        labels.validate()  # sortedness, rank constraint, hub range

    @settings(max_examples=20, deadline=None)
    @given(tt=timetables())
    def test_labels_only_reference_higher_ranked_hubs(self, tt):
        labels, _ = build_labels(tt)
        for v in range(tt.num_stops):
            for t in labels.lout[v] + labels.lin[v]:
                assert labels.rank[t.hub] < labels.rank[v] or t.hub == v

    @settings(max_examples=20, deadline=None)
    @given(tt=timetables())
    def test_per_hub_tuples_are_pareto(self, tt):
        """Within one (vertex, hub) group, departures and arrivals must both
        be strictly increasing — no dominated entries survive."""
        labels, _ = build_labels(tt)
        for side in (labels.lout, labels.lin):
            for tuples in side:
                by_hub = {}
                for t in tuples:
                    by_hub.setdefault(t.hub, []).append((t.td, t.ta))
                for pairs in by_hub.values():
                    for (td1, ta1), (td2, ta2) in zip(pairs, pairs[1:]):
                        assert td1 < td2
                        assert ta1 < ta2

    def test_dummy_count_matches_report(self, small_labels):
        dummy = sum(
            1
            for side in (small_labels.lout, small_labels.lin)
            for tuples in side
            for t in tuples
            if t.is_dummy
        )
        assert dummy == small_labels.dummy_count()

    def test_double_dummy_add_rejected(self, small_timetable):
        from repro.errors import LabelingError

        labels, _ = build_labels(small_timetable, add_dummies=True)
        with pytest.raises(LabelingError):
            labels.add_dummy_tuples()


class TestBuildReport:
    def test_report_accounting(self, small_timetable):
        labels, report = build_labels(small_timetable)
        assert report.kept_tuples == report.candidate_tuples - report.pruned_tuples
        real = labels.total_tuples
        assert real == report.kept_tuples
        assert report.seconds > 0
