"""Every counter of every trace node, pinned.

``tests/ptldb/trace_golden.txt`` pins the operator trees of the shipped
statements; this suite extends that to the seeded statement generators
(``test_group_by``, ``test_order_by``, ``test_unnest_kernel``), whose
sorts, windows, unions, subquery scans and nested expansions are where a
child pulled outside its parent's window, or a parent charged with work
its children did, would show. For each statement it records, per node in
tree order, the indented label and ``rows``, ``loops``, ``pulls``,
``probes``, ``leaf_visits`` and the buffer ``hits`` / ``misses`` /
``reads`` — once from a cold pool and once more on the pages that run left
resident. The shipped statements (v2v EA/LD/SD, kNN, OTM, analytics) and
the six target-set build texts are in it too. Wall-clock fields are not.

Regenerate (only when a count is meant to move, and say so):
``PYTHONPATH=src python -m tests.minidb.test_trace_counters``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.errors import SQLTypeError
from repro.ptldb import PTLDB, sqltext
from repro.timetable import load_dataset
from tests.minidb import test_group_by, test_order_by, test_unnest_kernel
from tests.ptldb import test_trace_golden

COUNTERS = Path(__file__).with_name("trace_counters.json")


def nodes(trace) -> list[list]:
    """``[indented label, rows, loops, pulls, probes, leaf_visits, hits,
    misses, reads]`` per node, depth first."""
    out = []

    def visit(op, depth):
        out.append([
            "  " * depth + op.label, op.rows, op.loops, op.pulls, op.probes,
            op.leaf_visits, op.pool_hits, op.pool_misses, op.page_reads,
        ])
        for child in op.children:
            visit(child, depth + 1)

    for root in trace.roots:
        visit(root, 0)
    return out


def cold_and_warm(db, sql, params=(), reset=None):
    """``[cold nodes, warm nodes]`` of *sql*, or None where its integer
    arithmetic leaves int64. *reset* runs (untraced by the record) before
    each run, e.g. to empty an INSERT's target."""
    out = []
    db.restart()
    for _ in range(2):
        if reset is not None:
            reset()
        try:
            trace = db.execute(sql, params).trace
        except SQLTypeError as exc:
            assert "bigint out of range" in str(exc), sql
            return None
        assert trace.validate() == [], sql
        out.append(nodes(trace))
    return out


def _fixture_db(module):
    """The module's ``dbs`` fixture, driven by hand: ``(db, close)``."""
    gen = module.dbs.__wrapped__()
    db = next(gen)
    db = db[0] if isinstance(db, tuple) else db
    return db, gen.close


def shipped():
    """The shipped statements (``trace_golden.txt``'s calls) and the six
    target-set build texts on Austin ``small``."""
    out = {}
    traces = test_trace_golden.traced_corpus()
    for name, trace in traces:
        out[f"shipped {name}"] = nodes(trace)
    ptldb = PTLDB.from_timetable(load_dataset("Austin", scale="small"))
    ptldb.build_target_set(
        sqltext.CORPUS_TAG, targets={1, 4, 9, 13, 16}, kmax=4,
        families=test_trace_golden.FAMILIES,
    )
    db = ptldb.db
    for query in sqltext.build_corpus(kmax=4):
        table = query.sql.split()[2]
        runs = cold_and_warm(
            db, query.sql, reset=lambda: db.execute(f"DELETE FROM {table}")
        )
        for state, run in zip(("cold", "warm"), runs):
            out[f"shipped {query.name} ({state})"] = run
    db.close()
    return out


def generated():
    """Every statement of the GROUP BY, ORDER BY and UNNEST generators."""
    out = {}
    for module, prefix in ((test_group_by, "group-by"), (test_order_by, "order-by")):
        db, close = _fixture_db(module)
        for shape, (make, count) in module.SHAPES.items():
            rng = random.Random(f"{prefix}/{shape}")
            for _ in range(count):
                sql = make(rng)
                sql = sql[0] if isinstance(sql, tuple) else sql
                runs = cold_and_warm(db, sql)
                if runs is not None:
                    out[f"{prefix} {sql}"] = runs
        close()
    db = test_unnest_kernel.make_db()
    for batch_size in test_unnest_kernel.BATCH_SIZES:
        db.batch_size = batch_size
        for sql in test_unnest_kernel.statements():
            runs = cold_and_warm(db, sql)
            if runs is not None:
                out[f"unnest {batch_size} {sql}"] = runs
    db.close()
    return out


def render(counters: dict) -> str:
    """One key per line, so a moved count shows as a one-line diff."""
    lines = [
        json.dumps(key) + ": " + json.dumps(value, separators=(",", ":"))
        for key, value in sorted(counters.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(COUNTERS.read_text(encoding="utf-8"))


def test_shipped_statements_keep_every_counter(golden):
    got = shipped()
    assert got == {k: v for k, v in golden.items() if k.startswith("shipped ")}


def test_generated_statements_keep_every_counter(golden):
    got = generated()
    want = {k: v for k, v in golden.items() if not k.startswith("shipped ")}
    assert sorted(got) == sorted(want)
    for key, runs in got.items():
        assert runs == want[key], key


if __name__ == "__main__":
    COUNTERS.write_text(render({**shipped(), **generated()}), encoding="utf-8")
