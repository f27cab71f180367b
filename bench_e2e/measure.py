"""The closed-loop pass runner, the noise protocol and the span recorder.

Load model: closed loop — PTLDB and the Router are synchronous call APIs, so
each client thread sends its next request only when the previous one has
returned. One pass = the workload's request list executed once; on every
fixture a run makes one untimed warm-up pass, then timed passes until the
fixture's share of ``--seconds`` has elapsed.

Noise protocol: the reference host's speed shifts by tens of percent for ten
seconds to a minute at a time, for every process alike, so no statistic of a
run's raw times repeats better than about 20 %. Every timed pass is therefore
bracketed by a fixed piece of pure-Python reference work; the ratio of its
duration to :data:`REFERENCE_MS` is the pass's *host slowdown*. Per pass:
median latency divided by, and ops/s multiplied by, that slowdown. Reported
``p50_ms`` and ``qps``: the **median across passes** of the two; the IQR
across passes is the run's own noise. The uncorrected lower / upper quartiles
and the slowdown are reported beside them (``client.raw_p50_ms``,
``client.raw_qps``, ``client.host_slowdown``). Every other timing is raw.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy

MIN_PASSES = 3  # per fixture, whatever --seconds says: quartiles need a handful
P95_MIN_OPS = 200  # a p95 needs ten samples beyond it
#: What :func:`reference_work` takes on the reference host in its calm state.
REFERENCE_MS = 6.0


def reference_work() -> float:
    """Milliseconds a fixed piece of pure-Python work takes right now: build
    12 000 small tuples, group them in a dict, sort them — about a megabyte
    of small objects, like the interpreter-bound code under test. The faster
    of two goes; the collector is off so the heap's state cannot matter."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            groups: dict[int, list] = {}
            rows = [(i * 7919 % 10007, i, str(i)) for i in range(12000)]
            for row in rows:
                groups.setdefault(row[0] & 1023, []).append(row)
            rows.sort()
            best = min(best, time.perf_counter() - started)
            del groups, rows
        return best * 1e3
    finally:
        if was_enabled:
            gc.enable()


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Pass:
    latencies: list[float]  # seconds, in request order
    answers: list  # in request order; an Exception object where a call raised
    wall: float  # first client start to last client end
    cpu: float  # process CPU seconds spent during the pass
    #: Host slowdown while the pass ran: reference work before and after it,
    #: over REFERENCE_MS. Set by :func:`timed_passes`.
    slowdown: float = 1.0

    @property
    def ops(self) -> int:
        return len(self.latencies)


@dataclass
class Tracer:
    """In-memory span store: ``(id, parent, request, name, start, end)``.

    Spans are recorded by the benchmark around the calls *it* makes into a
    layer; a span the benchmark obtained by replaying the layer beneath right
    after the parent call (same arguments) is flagged ``replay``."""

    spans: list[dict] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)

    def add(self, name, start, end, parent=None, request=None, replay=False) -> int:
        span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "request": request,
                "name": name,
                "start": start,
                "end": end,
                "replay": replay,
            }
        )
        return span_id

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = (
                    children.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        out: dict[str, list[float]] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            out.setdefault(span["name"], []).append(own)
        return out


def _client_loop(ops, latencies, answers, trace):
    """One closed-loop client. *trace*, when given, is ``(tracer, layer,
    first_request_id, stride, after)``: every request gets a
    ``client.request`` span around a ``<layer>`` span, and ``after(request
    index, layer span id)`` may append replays of the layers beneath."""
    clock = time.perf_counter
    if trace is None:
        for fn, args in ops:
            started = clock()
            try:
                answer = fn(*args)
            except Exception as exc:  # counted as a failed operation
                answer = exc
            latencies.append(clock() - started)
            answers.append(answer)
        return
    tracer, layer, request_id, stride, after = trace
    for fn, args in ops:
        outer = clock()
        started = clock()
        try:
            answer = fn(*args)
        except Exception as exc:
            answer = exc
        ended = clock()
        latencies.append(ended - started)
        answers.append(answer)
        done = clock()
        parent = tracer.add("client.request", outer, done, request=request_id)
        call = tracer.add(layer, started, ended, parent=parent, request=request_id)
        if after is not None:
            after(request_id, call)
        request_id += stride


def run_pass(ops, clients: int = 1, trace=None) -> Pass:
    """Execute *ops* (``(callable, args)`` pairs) once, closed loop.

    With ``clients`` > 1 client *i* takes requests ``i, i+clients, ...``;
    all clients start together behind a barrier. *trace* is ``(tracer,
    layer, first_request_id, after)``."""
    lat = [[] for _ in range(clients)]
    ans = [[] for _ in range(clients)]
    slices = [ops[i::clients] for i in range(clients)]

    def client_trace(i):
        if trace is None:
            return None
        tracer, layer, first_id, after = trace
        return tracer, layer, first_id + i, clients, after

    cpu_started = time.process_time()
    if clients == 1:
        started = time.perf_counter()
        _client_loop(slices[0], lat[0], ans[0], client_trace(0))
        wall = time.perf_counter() - started
    else:
        barrier = threading.Barrier(clients + 1)

        def client(i):
            barrier.wait()
            _client_loop(slices[i], lat[i], ans[i], client_trace(i))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    # Re-interleave the per-client lists back into request order.
    latencies = [0.0] * len(ops)
    answers = [None] * len(ops)
    for i in range(clients):
        latencies[i::clients] = lat[i]
        answers[i::clients] = ans[i]
    return Pass(
        latencies=latencies,
        answers=answers,
        wall=wall,
        cpu=cpu,
    )


@contextlib.contextmanager
def settled(clients: int = 1):
    """The state timed passes run in, entered after warm-up.

    Collect once, then move every survivor out of the collector's sight so
    a full collection cannot land inside a pass; GC itself stays enabled —
    the program runs as its users run it. A single client thread is also
    held on one CPU: on the 2-vCPU reference host the scheduler otherwise
    moves it between CPUs whose speeds differ from moment to moment, which
    doubled the run-to-run spread of p50 (9.5 % against 5.2 %, ten
    alternating pairs on ``v2v_cold``)."""
    gc.collect()
    gc.freeze()
    allowed = os.sched_getaffinity(0) if clients == 1 else None
    if allowed:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
        gc.unfreeze()


def timed_passes(make_ops, seconds: float, clients=1, before_pass=None,
                 after_pass=None, trace=None, max_passes=None,
                 min_passes=MIN_PASSES):
    """Run passes until *seconds* have elapsed (and at least *min_passes*).

    ``make_ops(i)`` returns pass *i*'s operations; ``before_pass(i)`` and
    ``after_pass(i)`` run untimed around it and ``trace(i)`` supplies its
    trace tuple."""
    passes = []
    deadline = time.perf_counter() + seconds
    reference = reference_work()
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if max_passes is not None and len(passes) >= max_passes:
            break
        index = len(passes)
        ops = make_ops(index)
        if before_pass is not None:
            before_pass(index)
        # What earlier passes left behind (built tables, cached results) joins
        # the frozen set, so a full collection costs every pass the same.
        gc.collect()
        gc.freeze()
        passes.append(
            run_pass(ops, clients, trace(index) if trace is not None else None)
        )
        before, reference = reference, reference_work()
        passes[-1].slowdown = (before + reference) / 2 / REFERENCE_MS
        if after_pass is not None:
            after_pass(index)
    return passes


def summarize(passes) -> dict:
    """The protocol's numbers for one set of passes (times in ms)."""
    medians = [statistics.median(p.latencies) * 1e3 for p in passes]
    rates = [p.ops / p.wall for p in passes]
    # The same two, at the reference host's speed.
    q1, p50, q3 = quartiles([m / p.slowdown for m, p in zip(medians, passes)])
    pooled = [x * 1e3 for p in passes for x in p.latencies]
    ops = sum(p.ops for p in passes)
    out = {
        "p50_ms": p50,
        "qps": statistics.median(r * p.slowdown for r, p in zip(rates, passes)),
        "raw_p50_ms": quartiles(medians)[0],
        "raw_qps": quartiles(rates)[2],
        "host_slowdown": statistics.median(p.slowdown for p in passes),
        "p99_ms": float(numpy.percentile(pooled, 99)),
        "cpu_ms_per_op": sum(p.cpu for p in passes) * 1e3 / ops,
        "pass_iqr_share": (q3 - q1) / p50,
        "passes": len(passes),
        "ops": ops,
    }
    if min(p.ops for p in passes) >= P95_MIN_OPS:
        out["p95_ms"] = quartiles(
            [float(numpy.percentile(p.latencies, 95)) * 1e3 for p in passes]
        )[0]
    return out
