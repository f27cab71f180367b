"""Scatter/gather router over shard worker processes.

The router owns ``num_shards x replicas`` worker processes (spawned as
``python -m repro.serving.worker``, framed stdio — see
:mod:`repro.serving.protocol`) and exposes the same query-method names as
:class:`~repro.ptldb.framework.PTLDB`, so any harness written against the
single-process API (the concurrency bench's ``run_query``) serves through
processes unchanged:

* **v2v** (``earliest_arrival`` / ``latest_departure`` /
  ``shortest_duration``) routes to the one shard owning the goal vertex.
* **kNN / one-to-many** scatters to every shard and merges: target sets are
  disjoint across shards, so OTM is a dict union and kNN re-sorts the
  per-shard top-k lists by the paper's ``(value, v)`` order and truncates —
  both exactly equal to the single-process answer.

Cross-cutting concerns:

* **Admission control** — at most ``max_queue_depth`` in-flight requests
  per worker; over the bound the call fails fast with
  :class:`~repro.errors.BackpressureError` instead of queueing (the client
  decides whether to retry; the router never builds an unbounded backlog).
* **Result cache** — read queries are memoized by (family, params, catalog
  epoch); any :meth:`execute` bumps the epoch, so cached answers can never
  survive a write (plan-cache invalidation discipline).
* **Recovery** — :meth:`kill_worker` (SIGKILL, for drills) and
  :meth:`respawn_worker`, which starts a fresh process on the same shard
  file; the worker's WAL replay brings it back without re-ingesting.

I/O model: requests to one worker are **pipelined**. A sender writes its
frame and appends a FIFO ticket under a short send lock; a per-worker
reader thread fulfills tickets in order (the worker answers strictly in
request order, so no correlation ids are needed). A scatter therefore
costs one frame write per shard and then waits — workers compute in
parallel and independent requests overlap freely, which is what lets the
process tier scale past the single-process thread ceiling.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import repro
import repro.errors as errors_mod
from repro.errors import BackpressureError, ProtocolError, ServingError, WorkerDiedError
from repro.minidb.metrics import REGISTRY, MetricsRegistry
from repro.serving.cache import ResultCache
from repro.serving.protocol import recv_message, send_message
from repro.serving.shards import ShardManifest, shard_of


def _src_root() -> str:
    """Directory that makes ``import repro`` work in a child interpreter."""
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class Ticket:
    """One in-flight request: fulfilled by the handle's reader thread."""

    __slots__ = ("event", "response", "error")

    def __init__(self):
        self.event = threading.Event()
        self.response: dict | None = None
        self.error: Exception | None = None

    def wait(self) -> dict:
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.response


class WorkerHandle:
    """One worker process: pipelined pipes, admission counter, liveness."""

    def __init__(self, manifest: ShardManifest, shard: int, replica: int,
                 max_queue_depth: int):
        self.manifest = manifest
        self.shard = shard
        self.replica = replica
        self.max_queue_depth = max_queue_depth
        #: Guards stdin writes and the ticket FIFO (kept as one atomic pair:
        #: the reader matches responses to tickets purely by order).
        self.send_lock = threading.Lock()
        #: Guards ``pending`` (the admission counter) and ``alive``.
        self.state_lock = threading.Lock()
        self.pending = 0
        self.alive = False
        self.ready: dict = {}
        self.proc: subprocess.Popen | None = None
        self._tickets: list[Ticket] = []
        self._reader: threading.Thread | None = None
        #: Set before a requested shutdown, so the EOF that follows is
        #: retirement, not a death (keeps ``serving.worker_deaths`` honest).
        self._retiring = False

    @property
    def name(self) -> str:
        return f"shard{self.shard}.r{self.replica}"

    # -- lifecycle -------------------------------------------------------
    def spawn(self) -> dict:
        """Start the process and block until its ready frame arrives."""
        env = dict(os.environ)
        root = _src_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + (os.pathsep + existing if existing else "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving.worker",
                "--manifest",
                self.manifest.path,
                "--shard",
                str(self.shard),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        ready = recv_message(self.proc.stdout)
        if ready is None or not ready.get("ok"):
            raise WorkerDiedError(
                f"worker {self.name} failed to start (see its stderr)"
            )
        self.ready = ready
        with self.state_lock:
            self.alive = True
            self.pending = 0
            self._retiring = False
        self._tickets = []
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(self.proc,),
            name=f"reader-{self.name}",
            daemon=True,
        )
        self._reader.start()
        return ready

    def shutdown(self) -> None:
        """Clean close: ask the worker to exit, retire the handle."""
        with self.state_lock:
            if not self.alive:
                return
            self._retiring = True
        try:
            self.request({"op": "shutdown"}).wait()
        except ServingError:
            pass
        if self._reader is not None:
            self._reader.join(timeout=10)

    def kill(self, sig: int = signal.SIGKILL) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, sig)
            self.proc.wait()
        self._mark_dead("was killed")
        if self._reader is not None:
            self._reader.join(timeout=10)

    # -- admission -------------------------------------------------------
    def try_admit(self) -> None:
        with self.state_lock:
            if self.pending >= self.max_queue_depth:
                REGISTRY.counter("serving.backpressure_rejections").inc()
                raise BackpressureError(
                    self.shard, self.pending, self.max_queue_depth
                )
            self.pending += 1

    def release(self) -> None:
        with self.state_lock:
            if self.pending > 0:
                self.pending -= 1

    # -- pipelined framed I/O --------------------------------------------
    def request(self, message: dict) -> Ticket:
        """Enqueue one request; the returned ticket resolves to its response.
        It is queued after its frame is written: a message that cannot be
        framed raises ``ProtocolError`` with nothing written or queued."""
        ticket = Ticket()
        broke = None
        with self.send_lock:
            if not self.alive:
                ticket.error = WorkerDiedError(f"worker {self.name} is dead")
                ticket.event.set()
                return ticket
            try:
                send_message(self.proc.stdin, message)
            except (TypeError, ValueError, ProtocolError) as exc:  # not encoded
                raise ProtocolError(f"worker {self.name}: {exc}") from None
            except (BrokenPipeError, OSError) as exc:
                broke = exc
            self._tickets.append(ticket)
        if broke is not None:
            # Outside send_lock: _mark_dead drains the ticket FIFO (this
            # ticket included) under that same non-reentrant lock.
            self._mark_dead(f"pipe broke: {broke}")
        return ticket

    def _read_loop(self, proc: subprocess.Popen) -> None:
        """Reader thread: fulfill tickets in FIFO order until EOF/error."""
        while True:
            try:
                response = recv_message(proc.stdout)
            except (OSError, ServingError) as exc:
                self._mark_dead(str(exc))
                return
            if response is None:
                if self.alive and not self._retiring:
                    self._mark_dead("closed its pipe")
                else:
                    with self.state_lock:
                        self.alive = False
                    self._drain_tickets("shut down")
                return
            with self.send_lock:
                ticket = self._tickets.pop(0) if self._tickets else None
            if ticket is None:
                self._mark_dead("sent an unsolicited frame")
                return
            ticket.response = response
            ticket.event.set()

    def _mark_dead(self, why: str) -> None:
        with self.state_lock:
            was_alive = self.alive
            self.alive = False
        if was_alive:
            REGISTRY.counter("serving.worker_deaths").inc()
        self._drain_tickets(why)

    def _drain_tickets(self, why: str) -> None:
        """Fail every outstanding ticket — no caller may block forever."""
        with self.send_lock:
            tickets, self._tickets = self._tickets, []
        for ticket in tickets:
            ticket.error = WorkerDiedError(f"worker {self.name} {why}")
            ticket.event.set()


class Router:
    """The process-tier front end (see module docstring)."""

    def __init__(
        self,
        manifest: ShardManifest,
        replicas: int = 1,
        max_queue_depth: int = 8,
        cache_capacity: int = 1024,
        cache: bool = True,
    ):
        if replicas < 1:
            raise ServingError("need at least one replica per shard")
        self.manifest = manifest
        self.num_shards = manifest.num_shards
        self.num_stops = manifest.num_stops
        self.replicas = replicas
        self.max_queue_depth = max_queue_depth
        self.cache = ResultCache(cache_capacity) if cache else None
        #: Bumped by every :meth:`execute`; keys the result cache.
        self.catalog_epoch = 0
        self._workers: list[list[WorkerHandle]] = [
            [
                WorkerHandle(manifest, shard, replica, max_queue_depth)
                for replica in range(replicas)
            ]
            for shard in range(self.num_shards)
        ]
        self._rr = 0
        self._started = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "Router":
        for row in self._workers:
            for handle in row:
                handle.spawn()
        self._started = True
        return self

    def close(self) -> None:
        for row in self._workers:
            for handle in row:
                if handle.proc is None:
                    continue
                handle.shutdown()
                try:
                    handle.proc.stdin.close()
                except OSError:
                    pass
                try:
                    handle.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    handle.proc.kill()
                    handle.proc.wait()
                with handle.state_lock:
                    handle.alive = False
        self._started = False

    def __enter__(self) -> "Router":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker selection / plumbing -------------------------------------
    def worker(self, shard: int, replica: int = 0) -> WorkerHandle:
        return self._workers[shard][replica]

    def live_workers(self) -> list[WorkerHandle]:
        return [h for row in self._workers for h in row if h.alive]

    def _pick(self, shard: int) -> WorkerHandle:
        """Least-loaded live replica of *shard* (round-robin tiebreak)."""
        live = [h for h in self._workers[shard] if h.alive]
        if not live:
            raise WorkerDiedError(f"shard {shard} has no live workers")
        self._rr += 1
        start = self._rr % len(live)
        return min(
            (live[(start + i) % len(live)] for i in range(len(live))),
            key=lambda h: h.pending,
        )

    def _unwrap(self, response: dict, handle: WorkerHandle):
        if response.get("ok"):
            return response.get("value")
        name = response.get("error", "ServingError")
        message = response.get("message", "")
        exc_type = getattr(errors_mod, name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            try:
                raise exc_type(f"[{handle.name}] {message}")
            except TypeError:
                pass  # constructor with a different arity; fall through
        raise ServingError(f"[{handle.name}] {name}: {message}")

    def _call_shard(self, shard: int, message: dict, admit: bool = True):
        handle = self._pick(shard)
        if admit:
            handle.try_admit()
        try:
            response = handle.request(message).wait()
        finally:
            if admit:
                handle.release()
        REGISTRY.counter("serving.requests").inc()
        return self._unwrap(response, handle)

    def _scatter(self, message: dict, admit: bool = True) -> list:
        """Send *message* to one replica of every shard, gather in order.

        All frames go out before the first wait, so the shards compute in
        parallel; concurrent scatters and single-shard calls interleave
        freely in each worker's pipeline. Every ticket is waited on even
        when one shard errors — the first failure is raised only after the
        whole gather settles, so no response is left to desynchronize a
        later request."""
        handles = [self._pick(shard) for shard in range(self.num_shards)]
        admitted: list[WorkerHandle] = []
        outcomes: list[object] = []
        try:
            if admit:
                for handle in handles:
                    handle.try_admit()
                    admitted.append(handle)
            tickets = [handle.request(message) for handle in handles]
            for ticket in tickets:
                try:
                    outcomes.append(ticket.wait())
                except ServingError as exc:
                    outcomes.append(exc)
        finally:
            for handle in admitted:
                handle.release()
        REGISTRY.counter("serving.requests").inc()
        values = []
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                raise outcome
            values.append(self._unwrap(outcome, handles[index]))
        return values

    def _cached(self, family: str, params: tuple, compute):
        if self.cache is None:
            return compute()
        epoch = self.catalog_epoch
        value = self.cache.get(family, params, epoch)
        if value is not ResultCache.miss_sentinel():
            return value
        value = compute()
        self.cache.put(family, params, epoch, value)
        return value

    # -- the PTLDB query surface -----------------------------------------
    def earliest_arrival(self, source: int, goal: int, depart_at: int) -> int | None:
        return self._v2v("v2v_ea", [source, goal, depart_at])

    def latest_departure(self, source: int, goal: int, arrive_by: int) -> int | None:
        return self._v2v("v2v_ld", [source, goal, arrive_by])

    def shortest_duration(
        self, source: int, goal: int, depart_at: int, arrive_by: int
    ) -> int | None:
        return self._v2v("v2v_sd", [source, goal, depart_at, arrive_by])

    def _v2v(self, family: str, args: list[int]):
        shard = shard_of(args[1], self.num_stops, self.num_shards)
        return self._cached(
            family,
            tuple(args),
            lambda: self._call_shard(
                shard, {"op": "query", "family": family, "args": args}
            ),
        )

    def ea_knn(self, tag: str, source: int, depart_at: int, k: int) -> list[tuple[int, int]]:
        return self._knn("knn_ea", tag, source, depart_at, k, descending=False)

    def ld_knn(self, tag: str, source: int, arrive_by: int, k: int) -> list[tuple[int, int]]:
        return self._knn("knn_ld", tag, source, arrive_by, k, descending=True)

    def _knn(self, family: str, tag: str, source: int, when: int, k: int,
             descending: bool):
        def compute():
            shard_lists = self._scatter(
                {"op": "query", "family": family, "args": [tag, source, when, k]}
            )
            merged = [
                (int(v), int(value))
                for shard_list in shard_lists
                for v, value in shard_list
            ]
            # Same total order as the SQL (value, v) / (value DESC, v): the
            # per-shard lists cover disjoint targets, so the merged prefix
            # is exactly the single-process answer.
            if descending:
                merged.sort(key=lambda item: (-item[1], item[0]))
            else:
                merged.sort(key=lambda item: (item[1], item[0]))
            return merged[:k]

        return self._cached(family, (tag, source, when, k), compute)

    def ea_one_to_many(self, tag: str, source: int, depart_at: int) -> dict[int, int]:
        return self._otm("otm_ea", tag, source, depart_at)

    def ld_one_to_many(self, tag: str, source: int, arrive_by: int) -> dict[int, int]:
        return self._otm("otm_ld", tag, source, arrive_by)

    def _otm(self, family: str, tag: str, source: int, when: int):
        def compute():
            shard_maps = self._scatter(
                {"op": "query", "family": family, "args": [tag, source, when]}
            )
            merged: dict[int, int] = {}
            for shard_map in shard_maps:
                # Disjoint targets: plain union, no conflicts possible.
                merged.update({int(v): int(value) for v, value in shard_map.items()})
            return merged

        return self._cached(family, (tag, source, when), compute)

    # -- writes, metrics, drills -----------------------------------------
    def execute(self, sql: str, params: tuple = (), shard: int | None = None):
        """Ship a SQL statement to one shard (or all), bumping the catalog
        epoch so every cached result computed before it is invalidated."""
        self.catalog_epoch += 1
        message = {"op": "sql", "sql": sql, "params": list(params)}
        if shard is None:
            return self._scatter(message)
        return self._call_shard(shard, message)

    def gather_metrics(self) -> MetricsRegistry:
        """Merge every live worker's registry (per-shard prefixes) with the
        router's own (``router.`` prefix) into a fresh registry."""
        merged = MetricsRegistry()
        for handle in self.live_workers():
            response = handle.request({"op": "metrics"}).wait()
            merged.merge(
                self._unwrap(response, handle), prefix=handle.name + "."
            )
        merged.merge(REGISTRY.to_dict(), prefix="router.")
        return merged

    def cache_stats(self) -> dict | None:
        return self.cache.stats() if self.cache is not None else None

    def kill_worker(self, shard: int, replica: int = 0) -> None:
        """SIGKILL a worker mid-flight (the recovery drill's hammer)."""
        self._workers[shard][replica].kill()

    def respawn_worker(self, shard: int, replica: int = 0) -> dict:
        """Start a fresh process over the same shard file; returns timing.

        ``reattach_seconds`` is the full spawn-to-ready wall time as the
        router saw it; ``open_seconds`` is the worker's own measure of
        ``Database.open`` (WAL replay) + ``PTLDB.attach`` — the part that
        replaces re-ingestion."""
        handle = self._workers[shard][replica]
        started = time.perf_counter()
        ready = handle.spawn()
        REGISTRY.counter("serving.respawns").inc()
        return {
            "reattach_seconds": time.perf_counter() - started,
            "open_seconds": ready.get("open_seconds", 0.0),
        }
