#!/usr/bin/env python3
"""bench_e2e — one seeded, oracle-checked benchmark of the PTLDB reproduction.

    python3 bench_e2e/run.py --seed 1                      # all workloads, both modes
    python3 bench_e2e/run.py --seed 1 --workload v2v_hot   # one workload, end-to-end
    python3 bench_e2e/run.py --seed 1 --workload v2v_hot --trace 1   # per-layer + spans
    python3 bench_e2e/run.py --seed 1 --quick              # smoke run, < 30 s

With ``--workload`` the process *is* the workload's run: it builds the
fixture from scratch, measures for ``--seconds``, checks every answer and
prints one metric per line, then — as its last line of standard output — the
JSON object the benchmark contract asks for. Without it, every workload runs
in its own child process, one after the other, and the reports are merged.

See README.md beside this file for the metric glossary and noise protocol.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics as vocabulary  # noqa: E402
from workloads import WORKLOADS, quick  # noqa: E402

WORK = os.path.join(HERE, "_work")  # fixtures; emptied by every run
OUT = os.path.join(HERE, "_out")  # trace-<workload>.json, child reports
DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end metrics; 1: per-layer metrics and span file "
        "(default: 0 for one workload, both when running all)",
    )
    parser.add_argument("--quick", action="store_true", help="Austin small, 1 s")
    parser.add_argument("--out", help="write the full report(s) here as JSON")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "load_1m_start": load,
        "noisy": load > nproc,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (the
    driver's checkout is not a repository: 'unknown' there)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


# -- one workload -----------------------------------------------------------
def run_workload(args) -> int:
    import scenarios

    spec = WORKLOADS[args.workload]
    seconds = args.seconds
    repeats = scenarios.SETUP_REPEATS
    if args.quick:
        spec = quick(spec)
        repeats = 1
        seconds = seconds or QUICK_SECONDS
    seconds = seconds or DEFAULT_SECONDS
    trace = bool(args.trace)
    env = environment()
    report = scenarios.run(
        spec, args.seed, seconds, trace,
        os.path.join(WORK, f"{spec.name}-{os.getpid()}"), repeats,
    )
    env["load_1m_end"] = os.getloadavg()[0]
    with contextlib.suppress(OSError):
        os.rmdir(WORK)  # leave nothing behind unless another run is using it
    spans = report.pop("spans")
    report.update(
        env=env, trace=trace, seconds=seconds, quick=args.quick,
        dataset=f"{spec.dataset}/{spec.scale}",
        metrics={
            name: {"value": value, "unit": vocabulary.BY_NAME[name].unit, "n": n}
            for name, (value, n) in report["metrics"].items()
        },
    )
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{spec.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": spec.name, "seed": args.seed, "spans": spans}, handle)
        report["trace_file"] = os.path.relpath(path, ROOT)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workloads": {spec.name: report}}, handle, indent=1)
    print_report(report)
    print(json.dumps(contract_line(report)))
    return 0


def wanted(trace: bool):
    return vocabulary.PER_LAYER if trace else vocabulary.END_TO_END


def contract_line(report: dict) -> dict:
    """The driver's result object: every end-to-end metric (trace off) or
    every per-layer metric (trace on). A per-layer metric whose layer this
    workload does not have reads 0 here and is absent from the full report."""
    measured = report["metrics"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m.name: {
                "value": measured[m.name]["value"] if m.name in measured else 0,
                "unit": m.unit,
            }
            for m in wanted(report["trace"])
        },
    }


def print_report(report: dict) -> None:
    mode = "per-layer (traced run)" if report["trace"] else "end-to-end"
    print(f"== {report['workload']} [{report['dataset']}] seed={report['seed']} {mode}")
    print(f"   why: {report['why']}")
    print(f"   requests sha256 {report['digest'][:16]}  attempted {report['attempted']}"
          f"  failed {report['failed']}  correct {report['correct']}")
    for note in report["notes"]:
        print(f"   NOTE: {note}")
    if report["env"]["noisy"]:
        print("   NOTE: load average above nproc at start — noisy: true")
    for m in wanted(report["trace"]):
        entry = report["metrics"].get(m.name)
        if entry is not None:
            moves = f"  -> {m.moves}" if m.moves else ""
            print(f"   {m.name:<36} {entry['value']:>14.4f} {m.unit:<6} n={entry['n']:<7}{moves}")
    if report.get("self_times_us"):
        print("   span self times (median us): " + ", ".join(
            f"{name}={value:.1f}" for name, value in sorted(report["self_times_us"].items())
        ))


# -- all workloads ----------------------------------------------------------
def run_all(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    modes = (0, 1) if args.trace is None else (args.trace,)
    merged: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        for mode in modes:
            path = os.path.join(OUT, f"report-{name}-{mode}.json")
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--seed", str(args.seed), "--workload", name,
                "--trace", str(mode), "--out", path,
            ]
            if args.seconds:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # The child's last line is the contract object; the rest is for people.
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if done.returncode != 0:
                status = done.returncode
                continue
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)["workloads"][name]
            os.remove(path)
            if name in merged:
                # End-to-end numbers stay those of the untraced run; the
                # traced run only adds what the first did not measure.
                merged[name]["metrics"] = {**report["metrics"], **merged[name]["metrics"]}
                merged[name]["traced"] = {
                    k: report[k] for k in ("attempted", "failed", "correct",
                                           "self_times_us", "trace_file", "env")
                }
                merged[name]["correct"] &= report["correct"]
            else:
                merged[name] = report
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workloads": merged}, handle, indent=1)
    bad = [n for n, r in merged.items() if not r["correct"]]
    if bad or status:
        print(f"FAILED: {', '.join(bad) or 'a workload exited non-zero'}")
        return status or 1
    print(f"ok: {len(merged)} workloads, every answer checked")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
