"""The shipped kNN/OTM statements stay on the column path.

Codes 3-4 probe their aux table from the columnar ``n1`` CTE, so the index
nested loop must emit column batches (``ArrayChunk``: values + offsets for
the array cells) and both UNNEST arms over ``n1b`` must expand them into
``ColumnChunk``s. The
choice between columns and rows is made per batch from the data, so this
is a test over real statements, not a plan lint: a change that sends
either operator back to rows fails here, not in a benchmark.
"""

import random

import pytest

from repro.minidb.sql import plan as phys
from repro.minidb.sql import vectorized
from repro.minidb.sql.npbatch import ArrayChunk, ColumnChunk


@pytest.fixture()
def batches(monkeypatch):
    """The batch types the INL and the arm expansions over ``n1b`` yield."""
    seen = {"inl": set(), "arms": set()}
    executor = vectorized.BatchExecutor
    inl, project_set = executor._EMIT[phys.IndexNestedLoop], executor._project_set

    def recorded(kind, gen):
        for chunk in gen:
            seen[kind].add(type(chunk))
            yield chunk

    def inl_spy(self, node, env, hint):
        return recorded("inl", inl(self, node, env, hint))

    def project_set_spy(self, unode, env, hint):
        gen = project_set(self, unode, env, hint)
        if getattr(unode.child, "cte_name", None) != "n1b":
            return gen
        return recorded("arms", gen)

    monkeypatch.setitem(executor._EMIT, phys.IndexNestedLoop, inl_spy)
    monkeypatch.setattr(executor, "_project_set", project_set_spy)
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
    assert batches == {"inl": {ArrayChunk}, "arms": {ColumnChunk}}
