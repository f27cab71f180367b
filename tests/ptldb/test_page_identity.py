"""The label pages are pinned byte for byte.

Loading labels is a chain of representation changes — build, sort, dummy
tuples, the ``INSERT`` per vertex, the record codec — and any of them can
change what lands on a page without changing a query answer. These digests
catch that: every page of a database that holds only the ``lout``/``lin``
tables (catalog, heap chains, overflow pages and B+Trees), and both files of
a two-shard build. The same holds for the auxiliary tables: a seeded run of
``build_target_set`` over all six families on a file-backed database pins
every page of the file and a digest of every aux table's rows, so a change
to how the build statements are planned or executed cannot move a byte
unnoticed. Regenerate them only for an intended change to the labels, the
aux tables or the storage format, and say why where the change is recorded.
"""

import hashlib
import random

import pytest

from repro.labeling.ttl import preprocess
from repro.minidb.engine import Database
from repro.ptldb.framework import PTLDB
from repro.serving.shards import build_shards
from repro.timetable.datasets import load_dataset

SALT_LAKE_CITY_PAPER_PAGES = (
    "7e535fd547211f2cee57caec22f18bd36854c8ff9e003fa879354f7b11830ec5"
)
#: Seeded target-set builds on Salt Lake City ``paper``: every page of the
#: file after ``pool.flush()``, and the rows of every aux table.
SALT_LAKE_CITY_BUILD_PAGES = (
    "e339198978a220a0f0bad776d69fd7711c54163352c566556999559933dbf80c"
)
SALT_LAKE_CITY_BUILD_ROWS = (
    "6ab609100d94804de96e3d6d3bf27b6e11b68b57e6b29f7a49bc41c7a098a25c"
)
BUILD_FAMILIES = ("knn_ea", "knn_ld", "otm_ea", "otm_ld", "naive_ea", "naive_ld")
AUSTIN_SMALL_SHARD_FILES = (
    "abe2266427a210327370c4304a8e4280dbccc8146b78058874d3380c3de26b7e",
    "ea8f117b640fd42cdb2f94187d9612b113b8a58c042085e0cac55b60526b6626",
)


@pytest.fixture(scope="module")
def salt_lake_city_labels():
    return preprocess(load_dataset("Salt Lake City", scale="paper"))


def page_digest(db) -> str:
    db.pool.flush()
    digest = hashlib.sha256()
    for page_id in range(db.pool.disk.num_pages):
        digest.update(db.pool.disk.peek_page(page_id))
    return digest.hexdigest()


def test_loaded_label_pages(salt_lake_city_labels):
    db = Database()
    PTLDB(db, salt_lake_city_labels)
    assert page_digest(db) == SALT_LAKE_CITY_PAPER_PAGES


def test_target_set_build_pages(salt_lake_city_labels, tmp_path):
    db = Database(path=str(tmp_path / "build.minidb"))
    ptldb = PTLDB(db, salt_lake_city_labels)
    rng = random.Random(34)
    rows = hashlib.sha256()
    for i in range(6):
        targets = rng.sample(range(ptldb.num_stops), rng.randint(1, 12))
        handle = ptldb.build_target_set(
            f"g{i}", targets, kmax=rng.choice((1, 4, 16)), families=BUILD_FAMILIES
        )
        aux = handle.aux
        for table in (
            aux.knn_ea, aux.knn_ld, aux.otm_ea, aux.otm_ld,
            aux.knn_ea_naive, aux.knn_ld_naive,
        ):
            found = db.execute(f"SELECT * FROM {table}").rows
            rows.update(repr((table, found)).encode())
    assert (rows.hexdigest(), page_digest(db)) == (
        SALT_LAKE_CITY_BUILD_ROWS, SALT_LAKE_CITY_BUILD_PAGES
    )
    db.close()


def test_shard_files(tmp_path):
    manifest = build_shards(
        str(tmp_path), preprocess(load_dataset("Austin")), 2
    )
    digests = []
    for index in range(manifest.num_shards):
        with open(manifest.shard_db_path(index), "rb") as handle:
            digests.append(hashlib.sha256(handle.read()).hexdigest())
    assert tuple(digests) == AUSTIN_SMALL_SHARD_FILES
