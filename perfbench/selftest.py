"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py

Checks that the same seed gives byte-identical request lists and another
seed a different one; then makes one traced run per workload at the default
seed and checks that it reports no failed request (its untraced loop
compares every report with reference.json, and its traced loop must give the
same digests), that every per-layer metric is nonzero on its home workload,
and that every per-layer metric has a home workload.  It prints each
workload's share of requests that repeat an earlier request's input and
the per-layer metrics of each traced run.
Takes about seven minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from worker import DEFAULT_SEED  # noqa: E402

#: Per-layer metrics that must be nonzero on each workload (see README.md).
HOME = {
    "dynamics": ["core.scalar.calls", "core.scalar.self_s", "intervals.calls",
                 "intervals.self_s", "isometry_systems.orbit.points_out",
                 "isometry_systems.orbit.closed_ratio",
                 "isometry_systems.sub_orbit.calls", "isometry_systems.self_s",
                 "measures.self_s", "report.render.self_s", "report.bytes_out",
                 "scenarios.dispatch.self_s", "trace.overhead_ratio"],
    "folding": ["folding.fold.edges_in", "folding.fold.merges", "folding.self_s",
                "stallings.build_core.letters_in", "stallings.self_s",
                "basis_change.invert_basis.letters_in", "basis_change.self_s",
                "documents.load.self_s", "scenarios.dispatch.self_s",
                "trace.overhead_ratio"],
    "census": ["core.words.self_s", "core.enumerate.words_out",
               "core.enumerate.self_s", "marked_graphs.omega.accept_ratio",
               "marked_graphs.translation_length.calls", "marked_graphs.self_s",
               "laminations.carries.calls", "laminations.self_s",
               "documents.load.self_s", "scenarios.dispatch.self_s",
               "trace.overhead_ratio"],
    "cli-cold": ["cli.interpreter_ms", "cli.import_ms", "cli.parser_build_ms",
                 "trace.overhead_ratio"],
}


def repeat_share(requests: list[dict]) -> float:
    """Share of requests asking an earlier request's operation about the same
    document with the same max_word (census: a new epsilon, say)."""
    seen, repeats = set(), 0
    for req in requests:
        args = req.get("args") or req["files"]
        doc = next((args[k] for k in ("graph", "system", "subgroup") if k in args),
                   args)
        key = json.dumps([req.get("op") or req["argv"][:2], doc,
                          args.get("max_word")], sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return repeats / len(requests)


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        first = json.dumps(workloads.build(workload, DEFAULT_SEED), sort_keys=True)
        again = json.dumps(workloads.build(workload, DEFAULT_SEED), sort_keys=True)
        other = json.dumps(workloads.build(workload, DEFAULT_SEED + 1), sort_keys=True)
        if first != again:
            problems.append(f"{workload}: one seed gave two request lists")
        if first == other:
            problems.append(f"{workload}: two seeds gave the same request list")
        timed = workloads.build(workload, DEFAULT_SEED)[1]
        print(f"{workload}: {len(timed)} requests, "
              f"{repeat_share(timed):.1%} repeat an earlier input")

    homes = {name for names in HOME.values() for name in names}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed requests")
        metrics = result["metrics"]
        for name in sorted(set(metrics) - homes):
            problems.append(f"per-layer metric {name} has no home workload")
        for name in HOME[workload]:
            if not metrics[name]["value"]:
                problems.append(f"{workload}: per-layer metric {name} is zero")
        print(f"{workload}: traced run done")
        for name, metric in metrics.items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
