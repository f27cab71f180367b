"""§4.3 storage footprint: aux-table build time and total database size.

Paper: all tables and PK indexes for all configurations need < 12 GB across
the 11 full-size feeds — PTLDB's footprint is modest. Here we benchmark the
pure-SQL construction of one aux-table family and report page/byte totals.
"""

import pytest

from repro.bench.workload import random_targets
from repro.ptldb.framework import PTLDB

from conftest import get_bundle, selected_datasets


@pytest.mark.parametrize("dataset", selected_datasets())
def test_aux_build_and_footprint(benchmark, dataset):
    bundle = get_bundle(dataset)
    targets = random_targets(bundle.timetable, 0.1, seed=7)
    counter = {"n": 0}

    def build():
        ptldb = PTLDB.from_timetable(bundle.timetable, labels=bundle.labels)
        counter["n"] += 1
        ptldb.build_target_set(
            f"fp{counter['n']}", targets, kmax=4,
            families=("knn_ea", "knn_ld", "otm_ea", "otm_ld"),
        )
        return ptldb

    ptldb = benchmark.pedantic(build, rounds=3, iterations=1)
    report = ptldb.storage_report()
    benchmark.extra_info["total_pages"] = report["total_pages"]
    benchmark.extra_info["total_MiB"] = round(
        report["total_bytes"] / (1024 * 1024), 2
    )
    benchmark.extra_info["tables"] = len(report["tables"])
    assert report["total_pages"] > 0
