"""Query observability: per-operator traces and a metrics registry.

The paper's claims are *access-pattern* claims — "PTLDB needs to access
exactly two rows" per v2v query (Code 1), "at most ``|Lout|/|V|`` rows" per
optimized kNN probe (Code 3) — so coarse per-statement totals are not enough
to verify them. This module attributes buffer-pool and simulated-I/O
activity to the individual plan operator that caused it.

Three layers:

* :class:`TraceCollector` — records one statement in a flat slot list,
  a copy of its plan's layout (one node per plan operator), charging each
  node the wall time of every batch pull (*inclusive* of its children);
  only the operators that touch pages (scans, the point lookup, Index
  Nested Loop, DDL/DML/VACUUM) also read the buffer-pool / disk counters.
* :class:`OperatorStats` / :class:`QueryTrace` — the tree, built from the
  buffer when a trace is first read. Every other node's counters are its
  children's sums; exclusive ("self") figures are inclusive minus the sum
  of the children, PostgreSQL ``EXPLAIN ANALYZE`` style.
* :class:`MetricsRegistry` — named counters and histograms the bench
  harness feeds so per-stage breakdowns survive across many queries.

See docs/OBSERVABILITY.md for the full API walk-through.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace


# ---------------------------------------------------------------------------
# Operator tree
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class OperatorStats:
    """One plan operator's lifecycle figures (inclusive of children)."""

    name: str
    detail: str = ""
    rows: int = 0
    loops: int = 1
    #: How many batches this operator yielded. Zero for scope-style nodes
    #: (DML, VACUUM) and for operators fused into a parent kernel.
    pulls: int = 0
    #: Index Nested Loop only (``None`` elsewhere): distinct probe keys the
    #: join resolved against the index, and the root-to-leaf descents that
    #: took — ``leaf_visits <= probes <= loops``.
    probes: int | None = None
    leaf_visits: int | None = None
    time_ms: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    page_reads: int = 0
    io_ms: float = 0.0
    children: list["OperatorStats"] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.name} {self.detail}".rstrip()

    # -- exclusive ("self") figures: inclusive minus the children ----------
    @property
    def self_time_ms(self) -> float:
        return self.time_ms - sum(c.time_ms for c in self.children)

    @property
    def self_pool_hits(self) -> int:
        return self.pool_hits - sum(c.pool_hits for c in self.children)

    @property
    def self_pool_misses(self) -> int:
        return self.pool_misses - sum(c.pool_misses for c in self.children)

    @property
    def self_page_reads(self) -> int:
        return self.page_reads - sum(c.page_reads for c in self.children)

    @property
    def self_io_ms(self) -> float:
        return self.io_ms - sum(c.io_ms for c in self.children)

    @property
    def rows_per_pull(self) -> float:
        """Mean batch size this operator produced (0 when not batched)."""
        return self.rows / self.pulls if self.pulls else 0.0

    def stats_suffix(self) -> str:
        """The ``EXPLAIN ANALYZE`` annotation appended to the plan line.

        The batch clause appears only for operators that yielded batches.
        """
        probing = (
            ""
            if self.probes is None
            else f"probes={self.probes} leaf_visits={self.leaf_visits} "
        )
        suffix = (
            f"(actual rows={self.rows} loops={self.loops} {probing}"
            f"time={self.time_ms:.3f} ms) "
            f"(buffers: hits={self.pool_hits} misses={self.pool_misses} "
            f"reads={self.page_reads} io={self.io_ms:.3f} ms)"
        )
        if self.pulls:
            suffix += (
                f" (batch: pulls={self.pulls} "
                f"rows/pull={self.rows_per_pull:.1f})"
            )
        return suffix

    def walk(self):
        """Yield this operator then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def render_plan(roots: list[OperatorStats], analyze: bool = False) -> list[str]:
    """Indented plan lines for ``EXPLAIN`` (labels only) or ``EXPLAIN
    ANALYZE`` (labels plus actual-row/buffer annotations)."""
    lines: list[str] = []

    def visit(node: OperatorStats, depth: int) -> None:
        prefix = "  " * depth
        if analyze:
            lines.append(f"{prefix}{node.label} {node.stats_suffix()}")
        else:
            lines.append(prefix + node.label)
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return lines


@dataclass
class QueryTrace:
    """Everything observed while executing one SQL statement.

    *recorded* is the operator forest, or the statement's own
    :class:`TraceCollector`, which :attr:`roots` turns into the forest on
    first read, once: a held trace is a snapshot that later statements —
    on this plan or in another session — never write into.
    """

    sql: str
    recorded: object = ()
    total_ms: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    page_reads: int = 0
    io_ms: float = 0.0

    @property
    def roots(self) -> list[OperatorStats]:
        if type(self.recorded) is TraceCollector:
            self.recorded = self.recorded.tree()
        return self.recorded

    def operators(self):
        """Iterate every operator in the tree, depth-first."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[OperatorStats]:
        """All operators whose name matches exactly (e.g. ``"Index Scan"``)."""
        return [op for op in self.operators() if op.name == name]

    def stage_totals(self) -> dict[str, dict]:
        """Exclusive figures aggregated per operator name.

        This is the per-stage attribution the bench harness emits: every
        hit/miss/read lands in exactly one stage, so the stage sums equal
        the statement totals.
        """
        stages: dict[str, dict] = {}
        for op in self.operators():
            stage = stages.setdefault(
                op.name,
                {
                    "calls": 0,
                    "rows": 0,
                    "pulls": 0,
                    "pool_hits": 0,
                    "pool_misses": 0,
                    "page_reads": 0,
                    "io_ms": 0.0,
                    "time_ms": 0.0,
                },
            )
            stage["calls"] += 1
            stage["rows"] += op.rows
            stage["pulls"] += op.pulls
            stage["pool_hits"] += op.self_pool_hits
            stage["pool_misses"] += op.self_pool_misses
            stage["page_reads"] += op.self_page_reads
            stage["io_ms"] += op.self_io_ms
            stage["time_ms"] += op.self_time_ms
        return stages

    def format(self, analyze: bool = True) -> str:
        """Human-readable trace: a totals header plus the annotated tree."""
        header = (
            f"QueryTrace: total={self.total_ms:.3f} ms, "
            f"hits={self.pool_hits}, misses={self.pool_misses}, "
            f"reads={self.page_reads}, io={self.io_ms:.3f} ms"
        )
        return "\n".join(
            [header] + ["  " + line for line in render_plan(self.roots, analyze)]
        )

    def validate(self) -> list[str]:
        """Consistency problems, empty when the trace is sound.

        Checked: the tree is non-empty, no operator reports a negative
        counter, inclusive or exclusive (times: beyond a rounding ε), and
        the roots' hits, misses and reads *equal* the statement totals —
        every page the statement touched is charged to an operator.
        """
        problems: list[str] = []
        if not self.roots:
            problems.append("trace has no operators")
        for op in self.operators():
            for attr in (
                "rows", "loops", "pool_hits", "pool_misses", "page_reads",
                "self_pool_hits", "self_pool_misses", "self_page_reads",
            ):
                if getattr(op, attr) < 0:
                    problems.append(f"{op.label}: negative {attr}")
            for attr in ("time_ms", "io_ms", "self_time_ms", "self_io_ms"):
                if getattr(op, attr) < -1e-6:
                    problems.append(f"{op.label}: negative {attr}")
            if op.probes is not None and not (
                0 <= op.leaf_visits <= op.probes <= op.loops
            ):
                problems.append(
                    f"{op.label}: leaf_visits={op.leaf_visits} <= "
                    f"probes={op.probes} <= loops={op.loops} does not hold"
                )
        for attr in ("pool_hits", "pool_misses", "page_reads"):
            charged = sum(getattr(r, attr) for r in self.roots)
            if charged != getattr(self, attr):
                problems.append(
                    f"operator {attr} ({charged}) differ from the statement "
                    f"total ({getattr(self, attr)})"
                )
        return problems


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------
#: The slots of one node in :attr:`TraceCollector.buf`, from its index.
SRC, PARENT, OWNER, ROWS, PULLS, LOOPS, PROBES, LEAF_VISITS = range(8)
TIME, HITS, MISSES, READS, IO = range(8, 13)
#: A node's slots from ``ROWS`` on, as :meth:`TraceCollector.node` starts
#: them. ``None`` is derived when the tree is read (:meth:`tree`); a CTE's
#: ``LOOPS`` stay ``None`` until it is materialized.
PLAIN = (0, 0, 1, None, None, 0.0, None, None, None, None)
PAGES = (0, 0, 1, None, None, 0.0, 0, 0, 0, 0.0)
PROBING = (0, 0, 0, 0, 0, 0.0, 0, 0, 0, 0.0)  # Index Nested Loop
CTE = (None, None, None, None, None, None, None, None, None, None)
_WIDTH = IO + 1

#: The counters of a collector without a pool: nothing ever moves.
_NO_STATS = SimpleNamespace(hits=0, misses=0, reads=0, simulated_read_ms=0.0)


class TraceCollector:
    """One statement's trace, recorded flat and turned into a tree on read.

    Each node is thirteen slots of :attr:`buf` from its index (``SRC`` …
    ``IO``): the plan node (or ``(name, detail)``) its label comes from,
    its parent's and owner's indexes, and plain ints and floats. The
    executor starts a run's buffer as a copy of its plan's layout (built
    once with :meth:`node`), so a run creates no node. A window
    (:meth:`window`) adds its wall time to the node; a node that touches
    pages (started ``PAGES`` or ``PROBING``) also gets what the window
    moved the four pool/disk counters by. Every other node's counters —
    and a fused node's time — are its children's sums, computed by
    :meth:`tree`.

    Counters are read from the *calling thread's* view of the pool and its
    disk (``thread_stats()``): a collector created on a session's thread
    only ever sees that session's activity, so traces stay exact while
    other sessions run concurrently.
    """

    __slots__ = ("pool_stats", "disk_stats", "buf")

    def __init__(self, pool_stats=_NO_STATS, disk_stats=_NO_STATS):
        self.pool_stats, self.disk_stats = pool_stats, disk_stats
        self.buf: list = []

    def node(self, src, parent=None, kind=PLAIN, owner=None) -> int:
        """Append a node under *parent* (``None``: a root); its index.

        *src* — a plan node or ``(name, detail)`` — is read for its label
        only when the tree is built. The node is left out of the tree when
        its *owner*, a CTE node, was never materialized.
        """
        buf = self.buf
        buf += (src, parent, owner)
        buf += kind
        return len(buf) - _WIDTH

    def window(self, index: int, pull):
        """``pull()`` inside one accounting window of node *index*."""
        buf = self.buf
        if buf[index + HITS] is None:  # derived: only the clock
            started = perf_counter()
            try:
                return pull()
            finally:
                buf[index + TIME] += perf_counter() - started
        pool_stats, disk_stats = self.pool_stats, self.disk_stats
        hits, misses = pool_stats.hits, pool_stats.misses
        reads, read_ms = disk_stats.reads, disk_stats.simulated_read_ms
        started = perf_counter()
        try:
            return pull()
        finally:
            buf[index + TIME] += perf_counter() - started
            buf[index + HITS] += pool_stats.hits - hits
            buf[index + MISSES] += pool_stats.misses - misses
            buf[index + READS] += disk_stats.reads - reads
            buf[index + IO] += disk_stats.simulated_read_ms - read_ms

    def tree(self) -> list[OperatorStats]:
        """The recorded nodes as an :class:`OperatorStats` forest, with what
        no window measured derived: a node that touches no page has its
        children's counters summed, and a node fused into its parent (the
        executor set its ``TIME`` to ``None``) or a CTE, which only drains
        its query's root (its last child), their time — a CTE that root's
        rows and pulls too. A node whose owner never ran is left out."""
        buf = self.buf
        starts = range(0, len(buf), _WIDTH)
        ops: list[OperatorStats] = []
        roots: list[OperatorStats] = []
        for index in starts:
            src, parent, owner, rows, pulls, loops, probes, leaf_visits = buf[
                index:TIME + index
            ]
            op = None  # not run: its query never started, or its parent
            if (owner is None or buf[owner + LOOPS] is not None) and (
                parent is None or ops[parent // _WIDTH] is not None
            ):
                name, detail = src if type(src) is tuple else (src.name, src.detail)
                op = OperatorStats(name, detail, rows, loops, pulls, probes, leaf_visits)
                (roots if parent is None else ops[parent // _WIDTH].children).append(op)
            ops.append(op)
        # A child comes after its parent, so in reverse every child is done.
        for index, op in zip(reversed(starts), reversed(ops)):
            if op is None:
                continue
            time_s, hits, misses, reads, io_ms = buf[TIME + index:_WIDTH + index]
            kids = op.children
            if hits is None:
                hits = sum(c.pool_hits for c in kids)
                misses = sum(c.pool_misses for c in kids)
                reads = sum(c.page_reads for c in kids)
                io_ms = sum(c.io_ms for c in kids)
            op.pool_hits, op.pool_misses, op.page_reads, op.io_ms = hits, misses, reads, io_ms
            op.time_ms = sum(c.time_ms for c in kids) if time_s is None else time_s * 1e3
            if op.rows is None:  # a CTE
                op.rows, op.pulls = kids[-1].rows, kids[-1].pulls
        return roots


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
@dataclass
class Counter:
    """A monotonically increasing named value.

    ``inc`` is locked: ``self.value += amount`` is a read-modify-write, so
    two concurrent sessions could otherwise both read the same old value
    and lose one increment.
    """

    name: str
    value: float = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount


class Histogram:
    """A named distribution of observations (milliseconds, rows, ...), kept
    as aggregates, never as samples: exact count / total / min / max plus
    counts in fixed log-spaced buckets, 64 per power of two. A percentile
    is the lower bound of its sample's bucket (at most 1.6 % under the
    sample; integers below 128 are exact), state does not grow with the
    observations, and merging adds bucket counts — the percentiles of the
    pooled samples. Updates are locked for the reason ``Counter.inc`` is.
    """

    _UNDER = -(1 << 20)  # the bucket of zero and negatives, below all others

    def __init__(self, name: str):
        self.name = name
        self.count, self.total = 0, 0.0
        self.min, self.max = math.inf, -math.inf
        self.buckets: dict[int, int] = {}  # bucket -> observations
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = self._UNDER
        if value > 0:
            fraction, exponent = math.frexp(value)  # fraction in [0.5, 1)
            bucket = exponent * 64 + int(fraction * 128) - 64
        self.merge(dict(count=1, total=value, min=value, max=value,
                        buckets=((bucket, 1),)))

    def merge(self, dump: dict) -> None:
        """Fold in another histogram's :meth:`to_dict`."""
        with self._lock:
            self.count += dump["count"]
            self.total += dump["total"]
            self.min = min(self.min, dump["min"])
            self.max = max(self.max, dump["max"])
            for bucket, n in dump["buckets"]:
                self.buckets[bucket] = self.buckets.get(bucket, 0) + n

    def to_dict(self) -> dict:
        with self._lock:
            buckets = sorted(self.buckets.items())
            return dict(count=self.count, total=self.total, min=self.min,
                        max=self.max, buckets=buckets)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100], to bucket resolution
        (the first and last ranks are ``min`` and ``max`` exactly)."""
        dump = self.to_dict()
        rank = max(1, math.ceil(p / 100.0 * dump["count"]))
        if rank >= dump["count"]:
            return dump["max"] if dump["count"] else 0.0
        for bucket, n in dump["buckets"]:
            rank -= n
            if rank <= 0:
                break
        if bucket == self._UNDER:
            return dump["min"]
        exponent, step = divmod(bucket, 64)
        return max(dump["min"], math.ldexp((64 + step) / 128, exponent))

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": round(self.total, 3),
            "mean": round(self.mean, 3),
            "p50": round(self.percentile(50), 3),
            "p95": round(self.percentile(95), 3),
            "max": round(self.max, 3) if self.count else 0.0,
        }


class MetricsRegistry:
    """Named counters and histograms with a JSON-friendly snapshot."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            # Lock the insert so two racing threads agree on one instance
            # (each would otherwise increment its own orphaned Counter).
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        return histogram

    def snapshot(self) -> dict:
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }

    def to_dict(self) -> dict:
        """Mergeable, JSON-serializable dump of the registry.

        Unlike :meth:`snapshot` (which summarizes histograms into
        percentiles), this keeps every histogram's aggregates and bucket
        counts — a frame whose size does not depend on how many requests a
        worker has served — so a worker process can ship its registry over
        a pipe and the router can :meth:`merge` it."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, dump: dict, prefix: str = "") -> None:
        """Fold a :meth:`to_dict` dump into this registry.

        *prefix* preserves attribution: the router merges each worker's
        dump under ``shard<i>.`` so per-shard counters stay distinguishable
        after aggregation. Counters add; histogram buckets add."""
        for name, value in dump.get("counters", {}).items():
            self.counter(prefix + name).inc(value)
        for name, part in dump.get("histograms", {}).items():
            self.histogram(prefix + name).merge(part)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


#: Process-wide default registry; the bench harness feeds this unless given
#: its own instance.
REGISTRY = MetricsRegistry()
