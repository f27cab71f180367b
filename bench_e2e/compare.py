#!/usr/bin/env python3
"""Compare two bench_e2e reports under the bounds fixed in BENCHMARK.json.

    python3 bench_e2e/compare.py BASE.json NEW.json [--layers]

Prints one row per (workload, end-to-end metric) with base, new and the
ratio new/base, and a verdict:

* ``ok``          within the metric's bound (or better);
* ``REGRESSED``   worse than the base by more than the bound;
* ``unresolved``  worse by more than the bound, but either run's own noise
  (``client.pass_iqr_share``, when the reports carry it) exceeds the bound —
  the run cannot tell a regression from interference; measure again.

Exits non-zero on any ``REGRESSED`` row, on a higher ``failed_share`` /
failed count, or when a workload of the base is missing from the new report.
``--layers`` also lists the per-layer metrics (no verdict: they have no bound).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMED = ("s", "ms", "1/s")  # units whose value a noisy host can move


def load_bounds() -> dict[str, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def worsening(metric: dict, base: float, new: float) -> float:
    """By what share of the base the metric got worse (negative: better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def noise(report: dict) -> float:
    return report["metrics"].get("client.pass_iqr_share", {}).get("value", 0.0)


def compare(base: dict, new: dict, layers: bool, out=sys.stdout) -> int:
    bounds = load_bounds()
    failures = 0
    header = f"{'workload':<18} {'metric':<34} {'base':>14} {'new':>14} {'new/base':>9}  verdict"
    print(header, file=out)
    for name, old in base["workloads"].items():
        cur = new["workloads"].get(name)
        if cur is None:
            print(f"{name:<18} missing from the new report", file=out)
            failures += 1
            continue
        if cur["digest"] != old["digest"]:
            print(f"{name:<18} note: different request lists (seed {old['seed']} vs {cur['seed']})", file=out)
        if cur["failed"] / cur["attempted"] > old["failed"] / old["attempted"]:
            print(f"{name:<18} failed_share rose: {old['failed']}/{old['attempted']}"
                  f" -> {cur['failed']}/{cur['attempted']}  REGRESSED", file=out)
            failures += 1
        for metric, entry in old["metrics"].items():
            bounded = bounds.get(metric)
            if bounded is None and not layers:
                continue
            if metric not in cur["metrics"]:
                if bounded is not None:
                    print(f"{name:<18} {metric:<34} missing from the new report  REGRESSED", file=out)
                    failures += 1
                continue
            a, b = entry["value"], cur["metrics"][metric]["value"]
            ratio = f"{b / a:9.4f}" if a else f"{'-':>9}"
            verdict = ""
            if bounded is not None:
                worse = worsening(bounded, a, b)
                if worse <= bounded["bound"]:
                    verdict = "ok"
                elif bounded["unit"] in TIMED and max(noise(old), noise(cur)) > bounded["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "REGRESSED"
                    failures += 1
            print(f"{name:<18} {metric:<34} {a:>14.4f} {b:>14.4f} {ratio}  {verdict}", file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return compare(reports[0], reports[1], args.layers)


if __name__ == "__main__":
    raise SystemExit(main())
