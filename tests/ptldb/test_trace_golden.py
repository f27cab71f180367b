"""``EXPLAIN ANALYZE`` figures of every shipped statement, pinned.

The golden file holds, for one call of each statement of
``sqltext.corpus()`` on Austin ``small`` (Codes 1-4 plus the analytics
family, each once from a cold pool and once more on the pages that call
left resident), the operator tree the default-on trace records — label, rows, loops, pulls, probes, leaf_visits and the buffer
hits / misses / reads of every operator — with the two wall-clock fields
(``time``, ``io``) left out. A change to how tracing is accounted, how a
page is pinned or how a point operator hands its chunk upward must leave
every one of these counts where it is; the static plans next door
(``explain_golden.txt``) cannot see that.

Regenerate (only when a count is meant to move, and say so in the PR):
``PYTHONPATH=src python -m tests.ptldb.test_trace_golden``.
"""

from pathlib import Path

import pytest

from repro.ptldb import PTLDB, sqltext
from repro.timetable import load_dataset

GOLDEN = Path(__file__).with_name("trace_golden.txt")
FAMILIES = ("knn_ea", "knn_ld", "otm_ea", "otm_ld", "naive_ea", "naive_ld")
SOURCE, GOAL, K = 5, 17, 3


def _line(op) -> str:
    probing = (
        ""
        if op.probes is None
        else f" probes={op.probes} leaf_visits={op.leaf_visits}"
    )
    return (
        f"{op.label} (rows={op.rows} loops={op.loops} pulls={op.pulls}"
        f"{probing}) (hits={op.pool_hits} misses={op.pool_misses} "
        f"reads={op.page_reads})"
    )


def _tree(trace) -> list[str]:
    lines = []

    def visit(op, depth):
        lines.append("  " * depth + _line(op))
        for child in op.children:
            visit(child, depth + 1)

    for root in trace.roots:
        visit(root, 0)
    return lines


def _calls(ptldb):
    """One facade call per paper family; analytics take the corpus text."""
    low, high = ptldb.time_low, ptldb.time_high
    early, late = low + (high - low) // 4, high - (high - low) // 4
    tag = sqltext.CORPUS_TAG
    return [
        (ptldb.earliest_arrival, (SOURCE, GOAL, early)),
        (ptldb.latest_departure, (SOURCE, GOAL, late)),
        (ptldb.shortest_duration, (SOURCE, GOAL, early, late)),
        (ptldb.ea_knn_naive, (tag, SOURCE, early, K)),
        (ptldb.ld_knn_naive, (tag, SOURCE, late, K)),
        (ptldb.ea_knn, (tag, SOURCE, early, K)),
        (ptldb.ld_knn, (tag, SOURCE, late, K)),
        (ptldb.ea_one_to_many, (tag, SOURCE, early)),
        (ptldb.ld_one_to_many, (tag, SOURCE, late)),
        (ptldb.busiest_hubs, (K,)),
        (ptldb.route_trip_stats, ()),
        (ptldb.hourly_departures, ()),
        (ptldb.route_leg_volume, ()),
        (ptldb.network_span, ()),
    ]


def traced_corpus():
    """``[(name, QueryTrace)]``: a cold then a warm call of each statement."""
    ptldb = PTLDB.from_timetable(load_dataset("Austin", scale="small"))
    ptldb.build_target_set(
        sqltext.CORPUS_TAG, targets={1, 4, 9, 13, 16}, kmax=4, families=FAMILIES
    )
    names = {q.sql: q.name for q in sqltext.corpus()}
    issued = []
    real = ptldb._exec

    def recording(sql, params):
        issued.append((sql, tuple(params)))
        return real(sql, params)

    ptldb._exec = recording
    try:
        for method, args in _calls(ptldb):
            method(*args)
    finally:
        del ptldb._exec
    assert [names.get(sql) for sql, _ in issued] == [
        q.name for q in sqltext.corpus()
    ], "the facade must issue exactly the lint corpus, in its order"
    out = []
    for sql, params in issued:
        ptldb.restart()
        for state in ("cold", "warm"):
            trace = ptldb.db.execute(sql, params).trace
            out.append((f"{names[sql]} ({state})", trace))
    ptldb.db.close()
    return out


def render_golden(traces) -> str:
    out = []
    for name, trace in traces:
        out.append(f"-- {name}")
        out.extend(_tree(trace))
        out.append("")
    return "\n".join(out)


@pytest.fixture(scope="module")
def traces():
    return traced_corpus()


def test_trace_counts_match_golden(traces):
    assert render_golden(traces) == GOLDEN.read_text(encoding="utf-8")


def test_every_trace_is_sound(traces):
    for name, trace in traces:
        assert trace.validate() == [], name
        self_ms = sum(op.self_time_ms for op in trace.operators())
        assert self_ms <= trace.total_ms + 1e-6, name
        for op in trace.operators():
            assert op.self_time_ms >= -1e-6, (name, op.label)


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(traced_corpus()), encoding="utf-8")
