"""Label-file robustness: truncation, trailing garbage, range validation,
record checks, foreign magics and the header's dummy flag."""

import os
import struct

import pytest

from repro.errors import LabelingError
from repro.labeling.io import load_labels, save_labels
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.ttl import build_labels, preprocess
from repro.timetable.datasets import load_dataset
from repro.timetable.generator import random_timetable

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)


@pytest.fixture(scope="module")
def tiny_label_bytes():
    """A small but fully populated v2 label file, as raw bytes."""
    tt = random_timetable(4, 20, seed=3)
    labels, _ = build_labels(tt, add_dummies=True)
    return labels, save_to_bytes(labels)


def save_to_bytes(labels, tmp_dir="/tmp"):
    import tempfile

    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        path = os.path.join(tmp, "labels.ttl")
        save_labels(labels, path)
        with open(path, "rb") as handle:
            return handle.read()


def write_and_load(tmp_path, data):
    path = os.path.join(tmp_path, "mutated.ttl")
    with open(path, "wb") as handle:
        handle.write(data)
    return load_labels(path)


class TestTruncation:
    def test_every_prefix_rejected(self, tmp_path, tiny_label_bytes):
        """Cutting the file at *any* byte — so in particular at every
        section boundary (magic, num_stops, flags, order, counts, tuple
        records) — must raise LabelingError, never a raw struct.error."""
        _, data = tiny_label_bytes
        for cut in range(len(data)):
            with pytest.raises(LabelingError):
                write_and_load(tmp_path, data[:cut])

    def test_error_reports_byte_offset(self, tmp_path, tiny_label_bytes):
        _, data = tiny_label_bytes
        with pytest.raises(LabelingError, match="byte offset"):
            write_and_load(tmp_path, data[:-3])

    def test_trailing_garbage_rejected(self, tmp_path, tiny_label_bytes):
        _, data = tiny_label_bytes
        with pytest.raises(LabelingError, match="trailing garbage"):
            write_and_load(tmp_path, data + b"\x00")

    def test_unknown_flag_bits_rejected(self, tmp_path, tiny_label_bytes):
        _, data = tiny_label_bytes
        mutated = data[:8] + bytes([data[8] | 0x80]) + data[9:]
        with pytest.raises(LabelingError, match="flag"):
            write_and_load(tmp_path, mutated)


class TestSaveValidation:
    def path(self, tmp_path):
        return os.path.join(tmp_path, "labels.ttl")

    def test_order_entry_beyond_u32(self, tmp_path):
        labels = TTLLabels(2, [0, 1])
        labels.order[0] = 2**32
        with pytest.raises(LabelingError, match="u32"):
            save_labels(labels, self.path(tmp_path))

    def test_num_stops_beyond_u32(self, tmp_path):
        labels = TTLLabels(2, [0, 1])
        labels.num_stops = 2**32
        with pytest.raises(LabelingError, match="u32"):
            save_labels(labels, self.path(tmp_path))

    def test_negative_hub_rejected(self, tmp_path):
        with pytest.raises(LabelingError, match=r"lout\(0\).*hub outside"):
            TTLLabels.from_tuples(2, [0, 1], [[(-1, 0, 0)], []], [[], []])

    def test_negative_pivot_collides_with_null(self, tmp_path):
        with pytest.raises(LabelingError, match="NULL"):
            TTLLabels.from_tuples(
                2, [0, 1], [[LabelTuple(hub=1, td=0, ta=5, pivot=-1, trip=2)], []],
                [[], []])

    def test_negative_trip_collides_with_null(self, tmp_path):
        with pytest.raises(LabelingError, match="NULL"):
            TTLLabels.from_tuples(
                2, [0, 1], [[LabelTuple(hub=1, td=0, ta=5, pivot=2, trip=-7)], []],
                [[], []])

    def test_field_beyond_i64(self, tmp_path):
        with pytest.raises(LabelingError, match="i64"):
            TTLLabels.from_tuples(
                2, [0, 1], [[(1, 2**63, 2**63)], []], [[], []])

    def test_i64_limits_round_trip(self, tmp_path):
        """The extreme representable values survive save/load unchanged."""
        labels = TTLLabels.from_tuples(
            2, [0, 1],
            [[LabelTuple(hub=1, td=I64_MIN, ta=I64_MAX, pivot=I64_MAX,
                         trip=I64_MAX)], []],
            [[], [LabelTuple(hub=0, td=I64_MIN, ta=I64_MIN)]],
        )
        path = self.path(tmp_path)
        save_labels(labels, path)
        loaded = load_labels(path)
        t = loaded.lout[0][0]
        assert (t.hub, t.td, t.ta, t.pivot, t.trip) == (
            1, I64_MIN, I64_MAX, I64_MAX, I64_MAX
        )
        assert loaded.lin[1][0].td == I64_MIN


def records_at(data):
    """``(side, vertex, byte offset)`` of every tuple record in *data*."""
    (num_stops,) = struct.unpack_from("<I", data, 4)
    pos, out = 9 + 4 * num_stops, []
    for side in ("lout", "lin"):
        for v in range(num_stops):
            (count,) = struct.unpack_from("<I", data, pos)
            pos += 4
            for _ in range(count):
                out.append((side, v, pos))
                pos += 40
    return out


def patched(data, offset, field, value):
    """*data* with field *field* (0 = hub .. 4 = trip) of the record at
    *offset* set to *value*."""
    out = bytearray(data)
    struct.pack_into("<q", out, offset + 8 * field, value)
    return bytes(out)


class TestRecordChecks:
    """A well-framed file whose records no labeling can hold is refused
    on load, naming side, vertex and byte offset — and never written."""

    @pytest.mark.parametrize("field,value,reason", [
        (0, 4, "hub outside"),  # the tiny labeling has 4 stops
        (0, -1, "hub outside"),
        (3, -2, "pivot or trip below -1"),
        (4, -5, "pivot or trip below -1"),
    ])
    def test_bad_field_rejected(self, tmp_path, tiny_label_bytes, field,
                                value, reason):
        _, data = tiny_label_bytes
        side, v, offset = records_at(data)[-1]  # the last lin record
        with pytest.raises(LabelingError) as info:
            write_and_load(tmp_path, patched(data, offset, field, value))
        message = str(info.value)
        assert f"{side}({v})" in message and reason in message
        assert f"byte offset {offset}:" in message

    def test_arrival_before_departure_rejected(self, tmp_path,
                                               tiny_label_bytes):
        _, data = tiny_label_bytes
        side, v, offset = records_at(data)[0]
        (td,) = struct.unpack_from("<q", data, offset + 8)
        with pytest.raises(LabelingError,
                           match=rf"{side}\({v}\) tuple 0 at byte offset "
                                 rf"{offset}: arrives before it departs"):
            write_and_load(tmp_path, patched(data, offset, 2, td - 1))

    def test_reversed_lout_rows_rejected(self, tmp_path):
        """Every ``lout`` row of Austin ``small`` reversed: the file frames
        well, but its joins would answer wrongly."""
        labels = preprocess(load_dataset("Austin"))
        data = bytearray(save_to_bytes(labels))
        first = None
        for v in range(labels.num_stops):
            at = [o for side, u, o in records_at(bytes(data))
                  if side == "lout" and u == v]
            if len(at) < 2:
                continue
            block = data[at[0]:at[-1] + 40]
            rows = [block[i:i + 40] for i in range(0, len(block), 40)]
            data[at[0]:at[-1] + 40] = b"".join(reversed(rows))
            if first is None:
                first = (v, at[1])
        v, offset = first
        with pytest.raises(LabelingError,
                           match=rf"lout\({v}\) tuple 1 at byte offset "
                                 rf"{offset}: rows not sorted"):
            write_and_load(tmp_path, bytes(data))

    def test_save_refuses_what_load_refuses(self, tmp_path):
        labels = TTLLabels.from_tuples(
            2, [0, 1], [[(1, 0, 5, 1, 3)], []], [[], [(0, 5, 9)]])
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(labels, path)
        labels.lout.records[0, 0] = 2  # hub == num_stops
        with pytest.raises(LabelingError, match=r"lout\(0\).*hub outside"):
            save_labels(labels, path)
        labels.lout.records[0, 0] = 1
        labels.lin.records[0, 2] = 4  # ta < td
        with pytest.raises(LabelingError, match=r"lin\(1\).*arrives before"):
            save_labels(labels, path)


class TestForeignMagic:
    @pytest.mark.parametrize(
        "magic", [b"TTL1", b"TTL3", bytes(4)], ids=["TTL1", "TTL3", "zeros"]
    )
    def test_any_other_magic_is_not_a_label_file(self, tmp_path, tiny_label_bytes, magic):
        # TTL1 was this format's flag-less predecessor; nothing writes it.
        _, data = tiny_label_bytes
        with pytest.raises(LabelingError, match="is not a TTL label file"):
            write_and_load(tmp_path, magic + data[4:])


class TestV2DummyFlag:
    def test_empty_labeling_with_dummies_round_trips(self, tmp_path):
        labels = TTLLabels(1, [0])
        labels.add_dummy_tuples()  # adds nothing, but flips the flag
        assert labels.dummy_count() == 0
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(labels, path)
        loaded = load_labels(path)
        with pytest.raises(LabelingError):
            loaded.add_dummy_tuples()

    def test_flag_absent_round_trips(self, tmp_path, small_timetable):
        labels, _ = build_labels(small_timetable)  # no dummies
        path = os.path.join(tmp_path, "labels.ttl")
        save_labels(labels, path)
        loaded = load_labels(path)
        loaded.add_dummy_tuples()  # allowed exactly once
        with pytest.raises(LabelingError):
            loaded.add_dummy_tuples()
