"""The one way a test compares the engine with the reference model.

Every statement runs on :class:`~repro.minidb.sql.vectorized.BatchExecutor`;
:class:`~tests.minidb.row_executor.Executor` interprets the same plans one
row at a time and is the oracle. Both helpers below start from a cold
buffer pool and return a :class:`Run`, so a test is
``assert run_engine(db, sql, p) == run_reference(db, sql, p)``.
"""

from typing import NamedTuple

import numpy as np

from repro.errors import SQLTypeError
from repro.minidb.sql import plan as phys
from repro.minidb.sql.parser import parse
from repro.minidb.sql.planner import plan_statement
from repro.minidb.values import NP_DECODE_MIN, T_BIGINT_ARRAY
from tests.minidb.row_executor import Executor

#: The single value some suites still parametrise on. Their ids (and the
#: keys of ``unnest_kernel_pulls.json``) once named one of two record
#: layouts; there is one record format now, and the name is kept so the
#: ids stay what they have always been.
FORMAT_ID = "COLUMNAR"


class Run(NamedTuple):
    columns: list
    rows: list
    io: tuple  # (page_reads, pool_misses)


def run_engine(db, sql, params=()) -> Run:
    """One cold execution of *sql* through the session (the real engine)."""
    db.restart()
    result = db.execute(sql, params)
    cost = db.last_cost
    return Run(result.columns, result.rows, (cost.page_reads, cost.pool_misses))


def run_reference(db, sql, params=()) -> Run:
    """One cold run of *sql*'s SELECT plan on the reference model.

    For ``INSERT … SELECT`` the source query is run (nothing is inserted):
    its rows are what the engine's insert must have consumed.
    """
    node = plan_statement(parse(sql), db.catalog).statement
    if isinstance(node, phys.InsertPlan):
        node = node.select
    db.restart()
    disk, pool = db.disk.thread_stats(), db.pool.thread_stats()
    disk_before, pool_before = disk.snapshot(), pool.snapshot()
    result = Executor(db.catalog, params).run(node)
    assert db.pool.total_pins() == 0, "reference model leaked a pin"
    return Run(
        result.columns,
        result.rows,
        (disk.delta(disk_before).reads, pool.delta(pool_before).misses),
    )


def run_or_refuse(db, sql, params=()) -> Run | None:
    """:func:`run_engine`, or None where *sql*'s integer arithmetic leaves
    int64: PostgreSQL's "bigint out of range", which the reference model
    must raise as well, with no pin left behind."""
    try:
        return run_engine(db, sql, params)
    except SQLTypeError as exc:
        assert "bigint out of range" in str(exc), sql
    assert db.pool.total_pins() == 0, sql
    try:
        run_reference(db, sql, params)
    except SQLTypeError as exc:
        assert "bigint out of range" in str(exc), sql
        return None
    raise AssertionError(f"the reference model answered {sql!r}")


def facade_statement(ptldb, call):
    """The ``(sql, params)`` a PTLDB facade *call* executes.

    Every query family is exactly one statement routed through
    ``ptldb._exec``; recording it lets a suite keep its families written
    as facade calls and still hand the statement to :func:`run_reference`.
    """
    seen = []
    real = ptldb._exec

    def recording(sql, params):
        seen.append((sql, params))
        return real(sql, params)

    ptldb._exec = recording
    try:
        call()
    finally:
        del ptldb._exec  # drop the instance attribute shadowing the method
    (statement,) = seen
    return statement


def assert_decoded(types, decoded, stored):
    """*decoded* is the decode of row *stored* (columns of *types*) under
    the one representation rule: a ``BIGINT[]`` cell is an int64 ndarray
    exactly when it is a delta segment (NULL-free) of at least
    ``NP_DECODE_MIN`` elements, a list otherwise, and it equals the stored
    list either way."""
    assert len(decoded) == len(stored) == len(types)
    for tag, cell, want in zip(types, decoded, stored):
        long = (
            tag == T_BIGINT_ARRAY
            and want is not None
            and None not in want
            and len(want) >= NP_DECODE_MIN
        )
        assert isinstance(cell, np.ndarray) == long, (cell, want)
        if long:
            assert cell.dtype == np.int64
            cell = cell.tolist()
        assert cell == want
