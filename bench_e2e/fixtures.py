"""Fixture construction: generate -> preprocess -> load -> shards -> router.

Built through the public surface only, passing nothing but load parameters
(dataset, scale, device, pool size, shard count). Every stage is timed; the
stage names are the per-layer set-up metrics and their sum is one set-up.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

from repro.labeling import preprocess
from repro.minidb import Database
from repro.ptldb import PTLDB
from repro.serving import Router, build_shards
from repro.timetable import load_dataset

from workloads import KNN_K, ROUTED_FAMILIES, Facts, Inputs, Spec, make_inputs

TAG = "bench"  # the routed workload's target-set tag
PREPROCESS_WORKERS = 2  # = nproc on the reference host


@dataclass
class Fixture:
    spec: Spec
    timetable: object
    labels: object
    inputs: Inputs
    stages: dict[str, float] = field(default_factory=dict)
    share: tuple[int, int] = (0, 1)  # this is set-up i of the run's n
    db: Database | None = None  # in-process workloads
    ptldb: PTLDB | None = None
    router: Router | None = None  # routed workload
    manifest: object = None
    directory: str | None = None  # shard files / database file live here

    @property
    def db_path(self) -> str:
        return os.path.join(self.directory, "bench.minidb")

    def stored_bytes(self) -> int:
        """Bytes the fixture keeps in storage for its labels (and, routed,
        the shards' replicated ``lout`` and aux tables)."""
        if self.router is not None:
            return sum(
                os.path.getsize(self.manifest.shard_db_path(i))
                for i in range(self.manifest.num_shards)
            )
        return self.db.size_bytes()

    def close(self) -> None:
        """Stop the router's worker processes, release files, drop the
        directory. Safe to call twice and after a crash-simulated database."""
        if self.router is not None:
            self.router.close()
            self.router = None
        if self.db is not None:
            self.db.close()  # a no-op after simulate_crash()
            self.db = self.ptldb = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


def facts_of(timetable) -> Facts:
    low, high = timetable.time_range()
    return Facts(num_stops=timetable.num_stops, time_low=low, time_high=high)


def build(spec: Spec, seed: int, directory: str, share=(0, 1)) -> Fixture:
    """One complete set-up of *spec*'s fixture, every stage timed."""
    stages: dict[str, float] = {}

    def staged(name, fn):
        started = time.perf_counter()
        value = fn()
        stages[name] = time.perf_counter() - started
        return value

    timetable = staged(
        "timetable.generate_s", lambda: load_dataset(spec.dataset, scale=spec.scale)
    )
    labels = staged(
        "labeling.build_s", lambda: preprocess(timetable, workers=PREPROCESS_WORKERS)
    )
    inputs = make_inputs(spec, seed, facts_of(timetable))
    fixture = Fixture(spec, timetable, labels, inputs, stages, share)
    pool = {} if spec.pool_pages is None else {"pool_pages": spec.pool_pages}
    try:
        if spec.kind == "routed":
            fixture.directory = directory
            fixture.manifest = staged(
                "serving.build_shards_s",
                lambda: build_shards(
                    directory,
                    labels,
                    spec.shards,
                    target_sets=[
                        {
                            "tag": TAG,
                            "targets": list(inputs.targets),
                            "kmax": KNN_K,
                            "families": list(ROUTED_FAMILIES),
                        }
                    ],
                    device=spec.device,
                    **pool,
                ),
            )
            fixture.router = Router(fixture.manifest, replicas=1)
            staged("serving.router_start_s", fixture.router.start)
        elif spec.kind == "build":
            os.makedirs(directory)
            fixture.directory = directory
            fixture.db = Database(path=fixture.db_path, device=spec.device, **pool)
        else:
            fixture.db = Database(device=spec.device, **pool)
        if fixture.db is not None:
            fixture.ptldb = staged("ptldb.load_s", lambda: PTLDB(fixture.db, labels))
    except BaseException:
        fixture.close()
        raise
    return fixture
