"""Round-trip tests for transfer-label persistence, and the TTLT reader's
and writer's refusals of corrupt files."""

import os
import struct

import numpy as np
import pytest

from repro.errors import LabelingError
from repro.labeling.labels import LabelSide
from repro.timetable.generator import random_timetable
from repro.transfers.labels import TransferLabels
from repro.transfers.query import TransferQueryEngine
from repro.transfers.ttl import build_transfer_labels

HEADER = 12  # magic, num_stops, max_trips
RECORD = 48  # <q q q q q q: hub, td, ta, trips, first_trip, last_trip


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Labels of a 12-stop timetable at max_trips=3 and their TTLT bytes."""
    labels, _ = build_transfer_labels(random_timetable(12, 90, seed=2),
                                      max_trips=3, add_dummies=True)
    path = os.path.join(tmp_path_factory.mktemp("ttlt"), "labels.ttlt")
    labels.save(path)
    with open(path, "rb") as handle:
        return labels, handle.read()


def load_bytes(tmp_path, data):
    path = os.path.join(tmp_path, "mutated.ttlt")
    with open(path, "wb") as handle:
        handle.write(data)
    return TransferLabels.load(path)


def records_at(data):
    """``(side, vertex, byte offset)`` of every record of a TTLT file."""
    (num_stops,) = struct.unpack_from("<I", data, 4)
    pos, found = HEADER + 4 * num_stops, []
    for side in ("lout", "lin"):
        for v in range(num_stops):
            (count,) = struct.unpack_from("<I", data, pos)
            found += [(side, v, pos + 4 + RECORD * i) for i in range(count)]
            pos += 4 + RECORD * count
    return found


def patched(data, offset, field, value):
    out = bytearray(data)
    struct.pack_into("<q", out, offset + 8 * field, value)
    return bytes(out)


class TestTransferLabelIO:
    def test_roundtrip(self, saved, tmp_path):
        labels, data = saved
        loaded = load_bytes(tmp_path, data)
        assert loaded.num_stops == labels.num_stops
        assert loaded.max_trips == labels.max_trips
        assert loaded.order == labels.order
        for side, original in ((loaded.lout, labels.lout),
                               (loaded.lin, labels.lin)):
            assert np.array_equal(side.offsets, original.offsets)
            assert np.array_equal(side.records, original.records)
        assert loaded.lout[5] == labels.lout[5]

    def test_roundtrip_preserves_answers(self, tmp_path):
        import random

        tt = random_timetable(12, 90, seed=2)
        labels, _ = build_transfer_labels(tt, max_trips=3, add_dummies=True)
        path = os.path.join(tmp_path, "labels.ttlt")
        labels.save(path)
        before = TransferQueryEngine(labels)
        after = TransferQueryEngine(TransferLabels.load(path))
        rng = random.Random(4)
        for _ in range(40):
            s, g = rng.randrange(12), rng.randrange(12)
            t = rng.randrange(20_000, 92_000)
            for k in (1, 2, 3):
                assert before.earliest_arrival(s, g, t, k) == (
                    after.earliest_arrival(s, g, t, k)
                )

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "junk")
        with open(path, "wb") as handle:
            handle.write(b"XXXX1234")
        with pytest.raises(LabelingError):
            TransferLabels.load(path)


class TestCorruptFiles:
    """Every corrupt file is a :class:`LabelingError` naming where it is,
    never a raw ``struct.error`` and never a silent load."""

    def test_every_prefix_rejected(self, saved, tmp_path):
        _, data = saved
        for cut in range(0, len(data), 7):
            with pytest.raises(LabelingError):
                load_bytes(tmp_path, data[:cut])

    def test_truncated_record_names_side_vertex_offset(self, saved, tmp_path):
        _, data = saved
        side, v, last = records_at(data)[-1]
        start = min(o for s, u, o in records_at(data) if (s, u) == (side, v))
        with pytest.raises(LabelingError,
                           match=rf"truncated .* for {side}\({v}\) tuples "
                                 rf"\(\d+ records\) at byte offset {start},"):
            load_bytes(tmp_path, data[:last + 10])

    def test_trailing_garbage_rejected(self, saved, tmp_path):
        _, data = saved
        with pytest.raises(LabelingError,
                           match=f"trailing garbage .* byte offset {len(data)}"):
            load_bytes(tmp_path, data + b"\x00")

    @pytest.mark.parametrize("field,value,reason", [
        (0, 999, "hub outside [0, 12)"),
        (0, -1, "hub outside [0, 12)"),
        (3, 99, "trips outside [0, 3]"),
        (3, -1, "trips outside [0, 3]"),
        (4, -2, "first_trip or last_trip below -1"),
        (5, -7, "first_trip or last_trip below -1"),
    ])
    def test_bad_field_rejected(self, saved, tmp_path, field, value, reason):
        _, data = saved
        side, v, offset = records_at(data)[-1]  # the last lin record
        with pytest.raises(LabelingError) as info:
            load_bytes(tmp_path, patched(data, offset, field, value))
        message = str(info.value)
        assert f"{side}({v})" in message and reason in message
        assert f"byte offset {offset}:" in message

    def test_arrival_before_departure_rejected(self, saved, tmp_path):
        _, data = saved
        side, v, offset = records_at(data)[0]
        (td,) = struct.unpack_from("<q", data, offset + 8)
        with pytest.raises(LabelingError,
                           match=rf"{side}\({v}\) tuple 0 at byte offset "
                                 rf"{offset}: arrives before it departs"):
            load_bytes(tmp_path, patched(data, offset, 2, td - 1))

    def test_unsorted_rows_rejected(self, saved, tmp_path):
        _, data = saved
        by_vertex = {}
        for side, v, offset in records_at(data):
            by_vertex.setdefault((side, v), []).append(offset)
        (side, v), offsets = next(item for item in by_vertex.items()
                                  if len(item[1]) > 1)
        out = bytearray(data)
        first, second = offsets[0], offsets[1]
        out[first:first + RECORD], out[second:second + RECORD] = (
            data[second:second + RECORD], data[first:first + RECORD])
        with pytest.raises(LabelingError,
                           match=rf"{side}\({v}\) tuple 1 at byte offset "
                                 rf"{second}: rows not sorted by "
                                 rf"\(hub, td, ta, trips\)"):
            load_bytes(tmp_path, bytes(out))

    def test_save_refuses_what_load_refuses(self, saved, tmp_path):
        labels, data = saved
        path = os.path.join(tmp_path, "labels.ttlt")
        side, v, offset = records_at(data)[-1]
        for field, value, reason in ((0, 999, "hub outside"),
                                     (3, 99, "trips outside"),
                                     (2, -10**6, "arrives before")):
            records = labels.lin.records.copy()
            records[-1, field] = value
            bad = TransferLabels(
                labels.num_stops, labels.order, labels.lout,
                LabelSide(labels.lin.offsets, records, labels.view),
                max_trips=labels.max_trips)
            with pytest.raises(LabelingError,
                               match=rf"{side}\({v}\) .* at byte offset "
                                     rf"{offset}: {reason}"):
                bad.save(path)
