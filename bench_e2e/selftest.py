"""Self-test of the benchmark itself — not part of the repo's tier-1 suite.

    python -m pytest bench_e2e/selftest.py

Checks BENCHMARK.json against the contract's schema and name rules and
against the metric vocabulary, that a ``--quick`` run of every workload emits
every metric it promises (and nothing unnamed) with every answer checked,
seed determinism of the generators, and that nothing here imports
``repro.bench``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics as vocabulary  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_schema_and_name_rules(benchmark_json):
    spec = benchmark_json
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench_e2e"]
    assert spec["command"] == ["python3", "bench_e2e/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) < 64 * 1024


def test_benchmark_json_is_the_vocabulary(benchmark_json):
    assert [(w["name"], w["why"]) for w in benchmark_json["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in benchmark_json["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in vocabulary.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in vocabulary.PER_LAYER]


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """``--quick`` runs of every workload in both modes, made once:
    ``{(workload, trace): (contract line, full report)}``."""
    tmp = tmp_path_factory.mktemp("quick")
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = tmp / f"{workload}-{trace}.json"
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--quick",
                 "--seed", "7", "--workload", workload, "--trace", str(trace),
                 "--out", str(out)],
                stdout=subprocess.PIPE, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout
            line = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
            with open(out, encoding="utf-8") as handle:
                runs[workload, trace] = line, json.load(handle)["workloads"][workload]
    return runs


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_emits_every_metric(workload, quick_runs):
    for trace, wanted in ((0, vocabulary.END_TO_END), (1, vocabulary.PER_LAYER)):
        line, report = quick_runs[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in wanted]
        for m in wanted:
            assert set(line["metrics"][m.name]) == {"value", "unit"}
            assert line["metrics"][m.name]["unit"] == m.unit
        if trace == 0:  # every end-to-end metric, on every workload, never 0
            assert all(entry["value"] > 0 for entry in line["metrics"].values())
        assert set(report["metrics"]) <= set(vocabulary.BY_NAME), "unnamed metric"
        assert report["env"]["nproc"] >= 1 and report["config"]


def test_every_per_layer_metric_is_measured_somewhere(quick_runs):
    emitted = set()
    for (_, trace), (_, report) in quick_runs.items():
        if trace:
            emitted |= set(report["metrics"])
    assert {m.name for m in vocabulary.PER_LAYER} <= emitted


def test_seed_determinism():
    facts = workloads.Facts(60, 20_000, 90_000)
    for spec in workloads.WORKLOADS.values():
        first = workloads.make_inputs(spec, 11, facts)
        assert workloads.make_inputs(spec, 11, facts).digest == first.digest
        assert workloads.make_inputs(spec, 12, facts).digest != first.digest
    routed = workloads.make_inputs(workloads.WORKLOADS["routed_mix"], 11, facts)
    flat = [r for p in [routed.warmup, *routed.passes] for r in p]
    assert len(flat) == len(set(flat)), "a routed parameter tuple repeats"
    spec = workloads.WORKLOADS["target_set_build"]
    build = workloads.make_inputs(spec, 11, facts)
    sets = [r[1] for p in [build.warmup, *build.passes] for r in p]
    once = [v for s in sets[: facts.num_stops // spec.build_targets] for v in s]
    assert len(once) == len(set(once)), "a stop is a target twice in one shuffle"


def test_no_import_from_repro_bench():
    for name in os.listdir(HERE):
        if name.endswith(".py") and name != "selftest.py":
            with open(os.path.join(HERE, name), encoding="utf-8") as handle:
                assert "repro.bench" not in handle.read(), name
