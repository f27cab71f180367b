"""Label-file robustness: truncation, trailing garbage, range validation,
foreign magics and the header's dummy flag."""

import os

import pytest

from repro.errors import LabelingError
from repro.labeling.io import load_labels, save_labels
from repro.labeling.labels import LabelTuple, TTLLabels
from repro.labeling.ttl import build_labels
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
        labels = TTLLabels(2, [0, 1])
        labels.lout[0].append(LabelTuple(hub=-1, td=0, ta=0))
        with pytest.raises(LabelingError, match="negative hub"):
            save_labels(labels, self.path(tmp_path))

    def test_negative_pivot_collides_with_null(self, tmp_path):
        labels = TTLLabels(2, [0, 1])
        labels.lout[0].append(LabelTuple(hub=1, td=0, ta=5, pivot=-1, trip=2))
        with pytest.raises(LabelingError, match="NULL"):
            save_labels(labels, self.path(tmp_path))

    def test_negative_trip_collides_with_null(self, tmp_path):
        labels = TTLLabels(2, [0, 1])
        labels.lout[0].append(LabelTuple(hub=1, td=0, ta=5, pivot=2, trip=-7))
        with pytest.raises(LabelingError, match="NULL"):
            save_labels(labels, self.path(tmp_path))

    def test_field_beyond_i64(self, tmp_path):
        labels = TTLLabels(2, [0, 1])
        labels.lout[0].append(LabelTuple(hub=1, td=2**63, ta=2**63))
        with pytest.raises(LabelingError, match="i64"):
            save_labels(labels, self.path(tmp_path))

    def test_i64_limits_round_trip(self, tmp_path):
        """The extreme representable values survive save/load unchanged."""
        labels = TTLLabels(2, [0, 1])
        labels.lout[0].append(
            LabelTuple(hub=1, td=I64_MIN, ta=I64_MAX, pivot=I64_MAX,
                       trip=I64_MAX)
        )
        labels.lin[1].append(LabelTuple(hub=0, td=I64_MIN, ta=I64_MIN))
        path = self.path(tmp_path)
        save_labels(labels, path)
        loaded = load_labels(path)
        t = loaded.lout[0][0]
        assert (t.hub, t.td, t.ta, t.pivot, t.trip) == (
            1, I64_MIN, I64_MAX, I64_MAX, I64_MAX
        )
        assert loaded.lin[1][0].td == I64_MIN


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
