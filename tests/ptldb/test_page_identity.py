"""The label pages are pinned byte for byte.

Loading labels is a chain of representation changes — build, sort, dummy
tuples, the ``INSERT`` per vertex, the record codec — and any of them can
change what lands on a page without changing a query answer. These digests
catch that: every page of a database that holds only the ``lout``/``lin``
tables (catalog, heap chains, overflow pages and B+Trees), and both files of
a two-shard build. Regenerate them only for an intended change to the
labels or the storage format, and say why where the change is recorded.
"""

import hashlib

from repro.labeling.ttl import preprocess
from repro.minidb.engine import Database
from repro.ptldb.framework import PTLDB
from repro.serving.shards import build_shards
from repro.timetable.datasets import load_dataset

SALT_LAKE_CITY_PAPER_PAGES = (
    "41b7d2d3b733bf74ba099c8b3b985a018d59a8afb5c5aa012472a0dbac0fd391"
)
AUSTIN_SMALL_SHARD_FILES = (
    "3a0de5d53773156f8c2eef0d2a6bf2f9647b33208fa8d6f4a096166585b46bc1",
    "5dc322f76ba7626e4d9c7a692f834c312f45b71f2af27b970cd2691f7cd9b7de",
)


def test_loaded_label_pages():
    db = Database()
    PTLDB(db, preprocess(load_dataset("Salt Lake City", scale="paper")))
    db.pool.flush()
    digest = hashlib.sha256()
    for page_id in range(db.pool.disk.num_pages):
        digest.update(db.pool.disk.peek_page(page_id))
    assert digest.hexdigest() == SALT_LAKE_CITY_PAPER_PAGES


def test_shard_files(tmp_path):
    manifest = build_shards(
        str(tmp_path), preprocess(load_dataset("Austin")), 2
    )
    digests = []
    for index in range(manifest.num_shards):
        with open(manifest.shard_db_path(index), "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).hexdigest())
    assert tuple(digests) == AUSTIN_SMALL_SHARD_FILES
