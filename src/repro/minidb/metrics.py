"""Query observability: per-operator traces and a metrics registry.

The paper's claims are *access-pattern* claims — "PTLDB needs to access
exactly two rows" per v2v query (Code 1), "at most ``|Lout|/|V|`` rows" per
optimized kNN probe (Code 3) — so coarse per-statement totals are not enough
to verify them. This module attributes buffer-pool and simulated-I/O
activity to the individual plan operator that caused it.

Three layers:

* :class:`TraceCollector` — builds the operator tree. The executor creates
  one ``collector.node(...)`` per plan operator and charges it the wall
  time and buffer-pool / disk-stat deltas of every batch pull (*inclusive*
  of its children); DML/VACUUM bodies run inside one
  ``with collector.operator(name, detail):`` scope instead.
* :class:`OperatorStats` / :class:`QueryTrace` — the resulting tree.
  Exclusive ("self") figures are derived as inclusive minus the sum of the
  children, PostgreSQL ``EXPLAIN ANALYZE`` style.
* :class:`MetricsRegistry` — named counters and histograms the bench
  harness feeds so per-stage breakdowns survive across many queries.

See docs/OBSERVABILITY.md for the full API walk-through.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    """Everything observed while executing one SQL statement."""

    sql: str
    roots: list[OperatorStats] = field(default_factory=list)
    total_ms: float = 0.0
    pool_hits: int = 0
    pool_misses: int = 0
    page_reads: int = 0
    io_ms: float = 0.0

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
        counter (inclusive or exclusive), and per-operator counters never
        exceed the statement totals.
        """
        problems: list[str] = []
        if not self.roots:
            problems.append("trace has no operators")
        for op in self.operators():
            for attr in ("rows", "loops", "pool_hits", "pool_misses", "page_reads"):
                if getattr(op, attr) < 0:
                    problems.append(f"{op.label}: negative {attr}")
            for attr in ("time_ms", "io_ms"):
                if getattr(op, attr) < 0:
                    problems.append(f"{op.label}: negative {attr}")
            for attr in (
                "self_pool_hits",
                "self_pool_misses",
                "self_page_reads",
            ):
                if getattr(op, attr) < 0:
                    problems.append(f"{op.label}: negative {attr}")
            if op.self_io_ms < -1e-9:
                problems.append(f"{op.label}: negative self_io_ms")
            if op.probes is not None and not (
                0 <= op.leaf_visits <= op.probes <= op.loops
            ):
                problems.append(
                    f"{op.label}: leaf_visits={op.leaf_visits} <= "
                    f"probes={op.probes} <= loops={op.loops} does not hold"
                )
        root_misses = sum(r.pool_misses for r in self.roots)
        if root_misses > self.pool_misses:
            problems.append(
                f"operator misses ({root_misses}) exceed statement total "
                f"({self.pool_misses})"
            )
        root_reads = sum(r.page_reads for r in self.roots)
        if root_reads > self.page_reads:
            problems.append(
                f"operator reads ({root_reads}) exceed statement total "
                f"({self.page_reads})"
            )
        return problems


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------
class _NullScope:
    """No-op stand-in so uninstrumented executors stay branch-free."""

    rows = 0
    loops = 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SCOPE = _NullScope()


#: The counters of a collector without a pool: nothing ever moves.
_NO_STATS = SimpleNamespace(hits=0, misses=0, reads=0, simulated_read_ms=0.0)


class TraceCollector:
    """Builds the operator tree and charges each node its windows.

    A window (:meth:`window`, or the body of an :meth:`operator` scope)
    reads the clock and the four pool/disk counters as it opens and closes
    and adds the differences to its node: inclusive of its children's.

    Counters are read from the *calling thread's* view of the pool and its
    disk (``thread_stats()``): a collector created on a session's thread
    only ever sees that session's activity, so traces stay exact while
    other sessions run concurrently.
    """

    def __init__(self, pool=None):
        self.pool_stats = self.disk_stats = _NO_STATS
        if pool is not None:
            self.pool_stats = pool.thread_stats()
            self.disk_stats = pool.disk.thread_stats()
        self.roots: list[OperatorStats] = []
        self._stack: list[OperatorStats] = []

    def node(self, name: str, detail: str = "", parent=None):
        """Create a stats node with explicit parentage (no scope stack).

        The executor attaches operators to the tree at plan-emit time and
        opens their windows itself; *parent* of ``None`` makes the node a
        root.
        """
        node = OperatorStats(name=name, detail=detail)
        if parent is not None:
            parent.children.append(node)
        else:
            self.roots.append(node)
        return node

    def window(self, stats: OperatorStats, pull):
        """``pull()`` inside one accounting window of *stats*: its wall time
        and what it moved the thread's four pool/disk counters by (each read
        directly, once on each side of the call) are added to the node."""
        pool_stats, disk_stats = self.pool_stats, self.disk_stats
        hits, misses = pool_stats.hits, pool_stats.misses
        reads, read_ms = disk_stats.reads, disk_stats.simulated_read_ms
        started = time.perf_counter()
        try:
            return pull()
        finally:
            stats.time_ms += (time.perf_counter() - started) * 1000.0
            stats.pool_hits += pool_stats.hits - hits
            stats.pool_misses += pool_stats.misses - misses
            stats.page_reads += disk_stats.reads - reads
            stats.io_ms += disk_stats.simulated_read_ms - read_ms

    @contextmanager
    def operator(self, name: str, detail: str = ""):
        """Scope-style node (DML, VACUUM): the ``with`` body is its window."""
        node = self.node(name, detail, self._stack[-1] if self._stack else None)
        self._stack.append(node)
        pool_stats, disk_stats = self.pool_stats, self.disk_stats
        hits, misses = pool_stats.hits, pool_stats.misses
        reads, read_ms = disk_stats.reads, disk_stats.simulated_read_ms
        started = time.perf_counter()
        try:
            yield node
        finally:
            node.time_ms += (time.perf_counter() - started) * 1000.0
            node.pool_hits += pool_stats.hits - hits
            node.pool_misses += pool_stats.misses - misses
            node.page_reads += disk_stats.reads - reads
            node.io_ms += disk_stats.simulated_read_ms - read_ms
            self._stack.pop()


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
