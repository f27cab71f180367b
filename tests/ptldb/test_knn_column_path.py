"""The shipped statements stay on the column path.

Codes 3-4 probe their aux table from the columnar ``n1`` CTE, so the index
nested loop must emit column batches (``ArrayChunk``: values + offsets for
the array cells) and both UNNEST arms over ``n1b`` must expand them into
``ColumnChunk``s. Code 1 expands two label rows read by point lookups into
``ColumnChunk``s, and the band merge answers from them without forming a
pair; a target-set build expands the ``lin`` rows its ``raw`` CTE probes
into ``ColumnChunk``s too. The choice between columns and rows is made per
batch from the data, so this is a test over real statements, not a plan
lint: a change that sends any of these operators back to rows fails here,
not in a benchmark.
"""

import random

import pytest

from repro.minidb.sql import npbatch
from repro.minidb.sql import plan as phys
from repro.minidb.sql import vectorized
from repro.minidb.sql.npbatch import ArrayChunk, ColumnChunk
from repro.ptldb import PTLDB


def expansion(unode):
    """Which shipped expansion *unode* is: the kNN/OTM arms over ``n1b``, a
    label row's (a point lookup of ``lout``/``lin``) or a build's ``raw``
    (``lin`` rows probed by the target set); None for any other."""
    child = unode.child
    if getattr(child, "cte_name", None) == "n1b":
        return "arms"
    if isinstance(child, phys.PkLookup) and child.table in ("lout", "lin"):
        return "labels"
    if isinstance(child, phys.IndexNestedLoop) and child.table == "lin":
        return "raw"
    return None


@pytest.fixture()
def batches(monkeypatch):
    """The batch types the INL and the shipped expansions yield, and the
    join kernels that ran (``band``: answered by the band merge; ``pairs``:
    ``join_pairs``; ``hash join``: the row hash table over two non-empty
    sides)."""
    seen = {"inl": set(), "arms": set(), "labels": set(), "raw": set(), "joins": []}
    executor = vectorized.BatchExecutor
    inl, project_set = executor._EMIT[phys.IndexNestedLoop], executor._project_set
    band, pairs, hash_join = npbatch.band_join_aggregate, npbatch.join_pairs, executor._hash_join

    def recorded(kind, gen):
        for chunk in gen:
            seen[kind].add(type(chunk))
            yield chunk

    def inl_spy(self, node, env, hint):
        return recorded("inl", inl(self, node, env, hint))

    def project_set_spy(self, unode, env, hint):
        gen = project_set(self, unode, env, hint)
        kind = expansion(unode)
        return gen if kind is None else recorded(kind, gen)

    def band_spy(*args):
        done = band(*args)
        seen["joins"].append("declined" if done is None else "band")
        return done

    def pairs_spy(*args):
        seen["joins"].append("pairs")
        return pairs(*args)

    def hash_join_spy(self, node, left, right):
        # Under the band aggregate both sides arrive drained: an empty one
        # is the default row's case, not a probe loop.
        seen["joins"].append("hash join" if left and right else "a side empty")
        return hash_join(self, node, left, right)

    monkeypatch.setitem(executor._EMIT, phys.IndexNestedLoop, inl_spy)
    monkeypatch.setattr(executor, "_project_set", project_set_spy)
    monkeypatch.setattr(npbatch, "band_join_aggregate", band_spy)
    monkeypatch.setattr(npbatch, "join_pairs", pairs_spy)
    monkeypatch.setattr(executor, "_hash_join", hash_join_spy)
    return seen


@pytest.mark.parametrize("family", ["ea_knn", "ld_knn", "ea_otm", "ld_otm"])
def test_inl_and_arms_yield_column_chunks(small_ptldb, small_timetable, batches, family):
    rng = random.Random(7)
    client = small_ptldb.client(tracing=False)
    calls = {
        "ea_knn": lambda q, t: client.ea_knn("poi", q, t, 3),
        "ld_knn": lambda q, t: client.ld_knn("poi", q, t, 3),
        "ea_otm": lambda q, t: client.ea_one_to_many("poi", q, t),
        "ld_otm": lambda q, t: client.ld_one_to_many("poi", q, t),
    }
    for _ in range(30):
        calls[family](
            rng.randrange(small_timetable.num_stops), rng.randrange(20_000, 92_000)
        )
    # The INL's chunk carries values + offsets (an ArrayChunk); the arms
    # expand them into int64 columns.
    assert (batches["inl"], batches["arms"]) == ({ArrayChunk}, {ColumnChunk})


@pytest.mark.parametrize("family", ["ea", "ld", "sd"])
def test_v2v_labels_expand_to_columns_for_the_band_merge(
    small_ptldb, small_timetable, batches, family
):
    rng = random.Random(11)
    client = small_ptldb.client(tracing=False)
    calls = {
        "ea": lambda s, g, t: client.earliest_arrival(s, g, t),
        "ld": lambda s, g, t: client.latest_departure(s, g, t),
        "sd": lambda s, g, t: client.shortest_duration(s, g, t, t + 40_000),
    }
    stops = small_timetable.num_stops
    for _ in range(30):
        calls[family](rng.randrange(stops), rng.randrange(stops), rng.randrange(20_000, 60_000))
    # Every label row's expansion is columns, and every answer over two
    # non-empty sides is the band merge's: no pair list, no row hash table.
    assert batches["labels"] == {ColumnChunk}
    assert "band" in batches["joins"]
    assert set(batches["joins"]) <= {"band", "a side empty"}


def test_a_target_set_build_expands_raw_to_columns(small_timetable, small_labels, batches):
    ptldb = PTLDB.from_timetable(small_timetable, labels=small_labels)
    ptldb.build_target_set("cols", targets={2, 5, 11}, kmax=2, families=("knn_ea", "otm_ld"))
    # The raw CTE's INL emits rows (its probe side is a row batch); their
    # lin cells become values + offsets, and the expansion int64 columns.
    assert batches["raw"] == {ColumnChunk}
    ptldb.db.close()
