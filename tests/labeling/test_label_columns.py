"""Labels are int64 columns: hand-built labelings round-trip through a
TTL2 file column for column and byte for byte, and the per-vertex
``LabelTuple`` lists are views of those columns."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LabelingError
from repro.labeling.io import load_labels, save_labels
from repro.labeling.labels import LabelTuple, TTLLabels

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

#: Times from both ends of int64 and from a narrow middle, so that equal
#: (hub, td) keys and int64-edge spans both occur.
times = st.one_of(
    st.integers(I64_MIN, I64_MIN + 3),
    st.integers(-3, 3),
    st.integers(I64_MAX - 3, I64_MAX),
)
witness = st.one_of(st.none(), st.integers(0, 3), st.just(I64_MAX))


@st.composite
def labelings(draw):
    """``(num_stops, order, lout, lin)`` of per-vertex sorted tuple lists;
    vertices may be empty, pivots and trips NULL."""
    num_stops = draw(st.integers(1, 5))
    order = draw(st.permutations(range(num_stops)))

    def side():
        lists = []
        for _ in range(num_stops):
            tuples = []
            for hub, a, b, pivot, trip in draw(st.lists(
                    st.tuples(st.integers(0, num_stops - 1), times, times,
                              witness, witness), max_size=5)):
                tuples.append(LabelTuple(hub, min(a, b), max(a, b), pivot, trip))
            lists.append(sorted(tuples, key=lambda t: t[:3]))
        return lists

    return num_stops, order, side(), side()


def saved_bytes(labels, directory):
    path = os.path.join(directory, "labels.ttl")
    save_labels(labels, path)
    with open(path, "rb") as handle:
        return path, handle.read()


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(labeling=labelings(), has_dummies=st.booleans())
    def test_from_tuples_save_load(self, labeling, has_dummies):
        num_stops, order, lout, lin = labeling
        labels = TTLLabels.from_tuples(num_stops, order, lout, lin,
                                       has_dummies)
        with tempfile.TemporaryDirectory() as tmp:
            path, first = saved_bytes(labels, tmp)
            loaded = load_labels(path)
            _, again = saved_bytes(loaded, tmp)
        assert again == first
        assert loaded.order == list(order)
        assert loaded._has_dummies == has_dummies
        for name, tuples in (("lout", lout), ("lin", lin)):
            ours, theirs = getattr(labels, name), getattr(loaded, name)
            assert np.array_equal(ours.offsets, theirs.offsets)
            assert np.array_equal(ours.records, theirs.records)
            assert theirs.records.dtype == np.int64
            assert [theirs[v] for v in range(num_stops)] == tuples


class TestViews:
    def labels(self):
        return TTLLabels.from_tuples(
            3, [2, 0, 1],
            [[(2, 5, 9, None, 4)], [], [(2, 7, 7)]],
            [[(2, 1, 5, 0, 1)], [(0, 3, 4), (2, 1, 2, 1, None)], [(2, 4, 4)]],
        )

    def test_views_are_fresh_lists_of_named_tuples(self):
        labels = self.labels()
        first = labels.lout[0]
        assert first == [LabelTuple(2, 5, 9, None, 4)]
        assert first is not labels.lout[0]
        assert labels.lout[1] == []
        assert [len(t) for t in labels.lin] == [1, 2, 1]
        assert labels.lout[2][0].is_dummy and not first[0].is_dummy
        with pytest.raises(IndexError):
            labels.lout[3]

    def test_unsorted_rows_refused(self):
        with pytest.raises(LabelingError, match=r"lin\(1\) tuple 1: rows not"):
            TTLLabels.from_tuples(2, [0, 1], [[], []],
                                  [[], [(1, 5, 6), (0, 1, 2)]])

    def test_validate_finds_a_lower_ranked_hub(self):
        labels = self.labels()  # vertex 2 is ranked first
        labels.validate()
        labels.lout.records[0, 0] = 1  # Lout(0) now names hub 1, ranked last
        with pytest.raises(LabelingError, match="lower-ranked hub 1"):
            labels.validate()

    def test_dummies_from_columns(self):
        """The dummy rule on hand-built labels: Lout hubs' arrivals, Lin
        hubs' departures, and each vertex's own Lin arrivals."""
        labels = self.labels()
        assert labels.add_dummy_tuples() == 2 * 6
        dummies = [(v, t.td) for v in range(3) for t in labels.lout[v]
                   if t.is_dummy]
        # (2, 7) was there already: a hand-built tuple that reads as one
        assert dummies == [(0, 3), (0, 5), (1, 2), (1, 4), (2, 1), (2, 7),
                           (2, 9)]
        labels.lout.check("lout", 3)  # still sorted
        labels.lin.check("lin", 3)
