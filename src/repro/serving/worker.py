"""Shard worker process: ``python -m repro.serving.worker``.

One worker owns one shard file read-mostly: it opens the minidb database
(``Database.open`` replays any WAL tail a previous incarnation left behind),
attaches the PTLDB query API *without re-ingesting labels*, and serves
length-prefixed JSON requests on stdin/stdout until EOF or a ``shutdown``
op. Killing a worker with SIGKILL at any instant is safe by construction:
the next incarnation recovers every committed statement from the log.

The worker is single-threaded on purpose — process-level parallelism is the
whole point of the tier, and a one-request-at-a-time loop makes the
router's admission bound (queue depth per worker) exact.

stderr is left alone (diagnostics land in the parent's stderr); stdout
carries frames only, so nothing in the serve path may ``print``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.minidb.engine import Database
from repro.minidb.metrics import REGISTRY
from repro.ptldb.framework import PTLDB
from repro.serving.protocol import recv_message, send_message
from repro.serving.shards import load_manifest

#: family name -> (api method, needs target-set tag)
FAMILIES = {
    "v2v_ea": ("earliest_arrival", False),
    "v2v_ld": ("latest_departure", False),
    "v2v_sd": ("shortest_duration", False),
    "knn_ea": ("ea_knn", True),
    "knn_ld": ("ld_knn", True),
    "otm_ea": ("ea_one_to_many", True),
    "otm_ld": ("ld_one_to_many", True),
}

#: What a shard that owns none of a tag's targets contributes to a gather.
EMPTY_RESULTS = {
    "knn_ea": [],
    "knn_ld": [],
    "otm_ea": {},
    "otm_ld": {},
}


class ShardWorker:
    """The serve loop around one shard database."""

    def __init__(self, manifest_path: str, shard_index: int):
        started = time.perf_counter()
        self.manifest = load_manifest(manifest_path)
        self.shard = self.manifest.shards[shard_index]
        self.shard_index = shard_index
        self.db = Database.open(
            self.manifest.shard_db_path(shard_index),
            device=self.manifest.device,
            pool_pages=self.manifest.pool_pages,
        )
        self.api = PTLDB.attach(
            self.db,
            num_stops=self.manifest.num_stops,
            time_range=(self.manifest.time_low, self.manifest.time_high),
        )
        self.tags: set[str] = set()
        for spec in self.shard["target_sets"]:
            if spec["targets"]:
                self.api.attach_target_set(
                    spec["tag"],
                    kmax=spec["kmax"],
                    interval_s=spec["interval_s"],
                    families=tuple(spec["families"]),
                    targets=spec["targets"],
                )
                self.tags.add(spec["tag"])
        self.open_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def handle(self, message: dict) -> dict:
        op = message.get("op")
        started = time.perf_counter()
        try:
            if op == "query":
                value = self._query(message["family"], message["args"])
            elif op == "sql":
                result = self.db.execute(
                    message["sql"], tuple(message.get("params", ()))
                )
                value = [list(row) for row in result.rows]
            elif op == "metrics":
                value = REGISTRY.to_dict()
            elif op == "checkpoint":
                self.db.checkpoint()
                value = {"wal_bytes": self.db.wal.size_bytes() if self.db.wal else 0}
            elif op == "ping":
                value = {"shard": self.shard_index}
            elif op == "shutdown":
                return {"ok": True, "value": None, "stop": True}
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # typed error crosses the pipe as data
            return {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        finally:
            REGISTRY.counter("serving.worker.requests").inc()
            REGISTRY.histogram("serving.worker.request_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )
        return {"ok": True, "value": value}

    def _query(self, family: str, args: list):
        method_name, tagged = FAMILIES[family]
        if tagged and args[0] not in self.tags:
            # This shard owns none of the tag's targets: its contribution
            # to the scatter/gather is exactly nothing.
            return EMPTY_RESULTS[family]
        return getattr(self.api, method_name)(*args)

    def serve(self, in_stream, out_stream) -> None:
        send_message(
            out_stream,
            {
                "ok": True,
                "op": "ready",
                "shard": self.shard_index,
                "open_seconds": round(self.open_seconds, 6),
                "tags": sorted(self.tags),
            },
        )
        while True:
            message = recv_message(in_stream)
            if message is None:
                break  # router went away; exit quietly
            response = self.handle(message)
            send_message(out_stream, response)
            if response.get("stop"):
                break
        self.db.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.worker",
        description="Serve one label shard over stdin/stdout frames.",
    )
    parser.add_argument("--manifest", required=True, help="manifest.json path")
    parser.add_argument("--shard", type=int, required=True, help="shard index")
    args = parser.parse_args(argv)
    worker = ShardWorker(args.manifest, args.shard)
    worker.serve(sys.stdin.buffer, sys.stdout.buffer)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
