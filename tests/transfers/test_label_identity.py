"""Transfer-aware labels are pinned byte for byte.

The TTLT file of a build is a function of the timetable, the vertex order
and ``max_trips`` only; any change to how the labels are scanned, pruned,
sorted, given dummy tuples or written shows here, as does any change to
what the ``lout_tr``/``lin_tr`` tables put on their pages. Regenerate the
digests only for an intended change to the labels, and say why where the
change is recorded.
"""

import hashlib
import os
import random

import pytest

from repro.labeling.ordering import ORDERINGS, make_order
from repro.timetable.datasets import load_dataset
from repro.timetable.generator import random_timetable
from repro.timetable.model import Connection, Timetable
from repro.transfers.sql import TransferPTLDB
from repro.transfers.ttl import build_transfer_labels

#: (TTLT SHA-256, candidate tuples, pruned tuples) at ``max_trips=4`` with
#: dummy tuples, per ``small`` city.
SMALL_CITIES = {
    "Austin": (
        "3e2d56ea4b3a56c201333cb1f8a87b9e19c6c6e1db7e58ef8c23238cac086b0f",
        9312, 7706,
    ),
    "Salt Lake City": (
        "624aaec26c564123d9f2d4350efb4841d1bb1e56fab64f9db3903520049e6506",
        18003, 15712,
    ),
    "Denver": (
        "4379fa863398169c3bf6ad32dd7c0a0ec2ccc6ef90f67c8639b60be575ed17ca",
        59314, 51560,
    ),
}
CORPUS = "93cac423c1153957c3950eb917c1d76b48874d424d909fec8d417a94d858fba9"
AUSTIN_SMALL_ROWS = (
    "a470ecfa300db8a003ccd0045f07bf9bd867fedc0d04c6b0efd46e3b6a888c31"
)
AUSTIN_SMALL_PAGES = (
    "172c026b1fe381836feac6e38d0efdbb58607515bc466dc70d08ae40d92f0b37"
)


def ttlt_bytes(labels, directory):
    path = os.path.join(directory, "labels.ttlt")
    labels.save(path)
    with open(path, "rb") as handle:
        return handle.read()


def chained_timetable(rng, num_stops, num_connections):
    """Multi-leg trips on a narrow time grid: equal departures, equal
    arrivals, zero-minute transfers and journeys that stay seated through
    a stop are all common; single-leg ``random_timetable`` trips never
    stay seated."""
    connections, trip = [], 0
    while len(connections) < num_connections:
        stop, clock = rng.randrange(num_stops), rng.randrange(40)
        for _ in range(rng.randint(1, 6)):
            if len(connections) == num_connections:
                break
            nxt = rng.randrange(num_stops - 1)
            nxt += nxt >= stop
            dep = clock + rng.randint(0, 3)
            clock = dep + rng.randint(1, 4)
            connections.append(Connection(dep, clock, stop, nxt, trip))
            stop = nxt
        trip += 1
    return Timetable(num_stops=num_stops, connections=connections)


def corpus(count=400, seed=33):
    """Seeded timetables of 2-16 stops and 0-160 connections, half of them
    multi-leg, each with one of every ordering and a budget of 1-5 trips."""
    rng = random.Random(seed)
    orderings = sorted(ORDERINGS)
    for i in range(count):
        stops, connections = rng.randint(2, 16), rng.randint(0, 160)
        if i % 2:
            timetable = chained_timetable(rng, stops, connections)
        else:
            timetable = random_timetable(stops, connections,
                                         seed=rng.randrange(10**6))
        yield timetable, orderings[i % len(orderings)], rng.randint(1, 5)


@pytest.mark.parametrize("city", sorted(SMALL_CITIES))
def test_small_city_labels(city, tmp_path):
    labels, report = build_transfer_labels(
        load_dataset(city), max_trips=4, add_dummies=True)
    digest = hashlib.sha256(ttlt_bytes(labels, tmp_path)).hexdigest()
    assert (digest, report.candidate_tuples, report.pruned_tuples) == (
        SMALL_CITIES[city])


def test_random_corpus(tmp_path):
    digest = hashlib.sha256()
    for timetable, ordering, max_trips in corpus():
        labels, report = build_transfer_labels(
            timetable, max_trips=max_trips, ordering=ordering,
            add_dummies=True)
        assert labels.order == make_order(timetable, ordering)
        digest.update(ttlt_bytes(labels, tmp_path))
        digest.update(b"%d/%d;" % (report.candidate_tuples,
                                   report.pruned_tuples))
    assert digest.hexdigest() == CORPUS


def test_austin_small_pages():
    ptldb = TransferPTLDB.from_timetable(load_dataset("Austin"), max_trips=4)
    ptldb.db.pool.flush()
    disk = ptldb.db.pool.disk
    digest = hashlib.sha256()
    for page_id in range(disk.num_pages):
        digest.update(disk.peek_page(page_id))
    assert digest.hexdigest() == AUSTIN_SMALL_PAGES


def test_austin_small_rows():
    """What the ``lout_tr``/``lin_tr`` pages hold, read back through SQL:
    unlike :func:`test_austin_small_pages` this does not move when only
    the record encoding does."""
    ptldb = TransferPTLDB.from_timetable(load_dataset("Austin"), max_trips=4)
    digest = hashlib.sha256()
    for table in ("lout_tr", "lin_tr"):
        rows = ptldb.db.execute(f"SELECT * FROM {table}").rows
        assert any(None in row[-1] for row in rows)  # NULL boundary trips
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == AUSTIN_SMALL_ROWS
