"""Vertex-range shard partitioner and shard-file builder.

Partition rule: contiguous vertex ranges over ``lin`` (and the aux tables,
whose targets are filtered into their owning range). ``lout`` is replicated
into every shard — every query family joins ``lout`` of the *query* vertex,
which can be anything, while ``lin``/aux rows are only ever probed for
vertices (targets) the shard owns:

* v2v(s, g) needs ``lout[s]`` + ``lin[g]`` -> route to ``shard_of(g)``.
* kNN/OTM(q) needs ``lout[q]`` + the tag's aux table -> scatter to every
  shard; target sets are split by the same ranges, so per-shard results are
  disjoint and the gather merge is exact.

``lout`` is the right side to replicate: per the paper's unified join both
sides are the same size per vertex, but replication cost is paid once at
build time while mis-routing would be paid per query.

A build writes one minidb file per shard plus ``manifest.json`` describing
the partition — everything a worker needs to reopen its shard *without the
labels object*: stop count, time range, device, and each shard's
target-set parameters for :meth:`PTLDB.attach_target_set`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.labeling.labels import LabelSide, TTLLabels
from repro.minidb.engine import Database
from repro.ptldb.framework import PTLDB
from repro.ptldb.schema import label_time_range

MANIFEST_NAME = "manifest.json"


def shard_of(v: int, num_stops: int, num_shards: int) -> int:
    """The shard owning vertex *v* under contiguous range partitioning.

    Exact inverse of :func:`shard_bounds`: shard ``i`` owns ``[i*N//S,
    (i+1)*N//S)``, and for integers ``i*N//S <= v < (i+1)*N//S`` iff
    ``i == (v*S + S - 1) // N`` — the naive ``v*S // N`` disagrees with the
    bounds whenever ``N % S != 0`` and would route queries to a shard that
    loaded the vertex's ``lin`` row as empty."""
    if not 0 <= v < num_stops:
        raise ServingError(f"vertex {v} out of range [0, {num_stops})")
    return (v * num_shards + num_shards - 1) // num_stops


def shard_bounds(num_stops: int, num_shards: int) -> list[tuple[int, int]]:
    """Per-shard ``[lo, hi)`` vertex ranges; shard i owns ``bounds[i]``.

    Every range is non-empty, which :func:`load_manifest` relies on."""
    if not 1 <= num_shards <= num_stops:
        raise ServingError(
            f"need between 1 and {num_stops} shards, got {num_shards}"
        )
    return [
        (i * num_stops // num_shards, (i + 1) * num_stops // num_shards)
        for i in range(num_shards)
    ]


def partition_labels(labels: TTLLabels, lo: int, hi: int) -> TTLLabels:
    """The shard-local labeling for vertex range ``[lo, hi)``.

    ``lout`` is shared by reference (replicated into every shard's file);
    ``lin`` keeps only the owned vertices' rows — the others are empty and
    load as empty arrays, which no routed query ever probes."""
    offsets = labels.lin.offsets
    a, b = offsets[lo], offsets[hi]
    lin = LabelSide(offsets.clip(a, b) - a, labels.lin.records[a:b])
    return TTLLabels(labels.num_stops, labels.order, labels.lout, lin,
                     has_dummies=labels._has_dummies)


#: Exact key set (and value types) of ``manifest.json`` and of each of its
#: ``shards`` entries.
_MANIFEST_FIELDS = {
    "num_stops": int,
    "num_shards": int,
    "time_low": int,
    "time_high": int,
    "device": str,
    "pool_pages": int,
    "shards": list,
}
_SHARD_FIELDS = {
    "index": int,
    "path": str,
    "lo": int,
    "hi": int,
    "target_sets": list,
    "build_seconds": float,
}


@dataclass
class ShardManifest:
    """Everything the router and workers need to (re)open a shard set."""

    directory: str
    num_stops: int
    num_shards: int
    time_low: int
    time_high: int
    device: str = "ram"
    pool_pages: int = 4096
    #: One entry per shard: {"index", "path", "lo", "hi", "target_sets"},
    #: where each target set is {"tag", "kmax", "interval_s", "families",
    #: "targets"} filtered to the shard's range (absent when empty).
    shards: list[dict] = field(default_factory=list)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def shard_db_path(self, index: int) -> str:
        return os.path.join(self.directory, self.shards[index]["path"])

    def save(self) -> str:
        data = {key: getattr(self, key) for key in _MANIFEST_FIELDS}
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)
        return self.path


def _check_fields(where: str, data, fields: dict) -> None:
    if not isinstance(data, dict):
        raise ServingError(f"{where}: expected an object, got {type(data).__name__}")
    for key in fields:
        if key not in data:
            raise ServingError(f"{where}: missing key {key!r}")
    for key in data:
        if key not in fields:
            raise ServingError(f"{where}: unknown key {key!r}")
    for key, kind in fields.items():
        value = data[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ServingError(
                f"{where}: key {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )


def load_manifest(directory_or_path: str) -> ShardManifest:
    """Read and validate ``manifest.json``; any defect is a
    :class:`ServingError` naming the file and the offending key or byte."""
    path = directory_or_path
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            at = exc.pos if hasattr(exc, "pos") else exc.start
            raise ServingError(
                f"{path}: not valid JSON at byte {at}: {exc}"
            ) from None
    _check_fields(path, data, _MANIFEST_FIELDS)
    if data["num_shards"] != len(data["shards"]):
        raise ServingError(
            f"{path}: key 'num_shards' is {data['num_shards']} but "
            f"'shards' lists {len(data['shards'])}"
        )
    for i, shard in enumerate(data["shards"]):
        where = f"{path}: shards[{i}]"
        _check_fields(where, shard, _SHARD_FIELDS)
        if not 0 <= shard["lo"] < shard["hi"] <= data["num_stops"]:
            raise ServingError(
                f"{where}: range [{shard['lo']}, {shard['hi']}) is empty or "
                f"outside [0, {data['num_stops']})"
            )
    return ShardManifest(directory=os.path.dirname(path) or ".", **data)


def build_shards(
    directory: str,
    labels: TTLLabels,
    num_shards: int,
    target_sets: list[dict] | None = None,
    device: str = "ram",
    pool_pages: int = 4096,
) -> ShardManifest:
    """Partition *labels* into ``num_shards`` minidb files under *directory*.

    Each *target_sets* entry is ``{"tag", "targets", "kmax", "interval_s",
    "families"}`` (kmax/interval/families optional); its targets are split
    by shard range and each shard builds aux tables over its own slice
    only. Shards are checkpointed and closed, so workers can open them in
    other processes immediately."""
    os.makedirs(directory, exist_ok=True)
    time_low, time_high = label_time_range(labels)
    manifest = ShardManifest(
        directory=directory,
        num_stops=labels.num_stops,
        num_shards=num_shards,
        time_low=time_low,
        time_high=time_high,
        device=device,
        pool_pages=pool_pages,
    )
    for index, (lo, hi) in enumerate(shard_bounds(labels.num_stops, num_shards)):
        db_name = f"shard_{index}.minidb"
        started = time.perf_counter()
        shard_labels = partition_labels(labels, lo, hi)
        db = Database(
            path=os.path.join(directory, db_name),
            device=device,
            pool_pages=pool_pages,
        )
        try:
            api = PTLDB(db, shard_labels, time_range=(time_low, time_high))
            built_sets = []
            for spec in target_sets or ():
                owned = sorted(
                    t for t in spec["targets"] if lo <= int(t) < hi
                )
                entry = {
                    "tag": spec["tag"],
                    "kmax": int(spec.get("kmax", 16)),
                    "interval_s": int(spec.get("interval_s", 3600)),
                    "families": list(
                        spec.get(
                            "families",
                            ("knn_ea", "knn_ld", "otm_ea", "otm_ld"),
                        )
                    ),
                    "targets": owned,
                }
                if owned:
                    api.build_target_set(
                        entry["tag"],
                        owned,
                        kmax=entry["kmax"],
                        interval_s=entry["interval_s"],
                        families=tuple(entry["families"]),
                    )
                built_sets.append(entry)
            db.checkpoint()
        finally:
            db.close()
        manifest.shards.append(
            {
                "index": index,
                "path": db_name,
                "lo": lo,
                "hi": hi,
                "target_sets": built_sets,
                "build_seconds": round(time.perf_counter() - started, 3),
            }
        )
    manifest.save()
    return manifest
