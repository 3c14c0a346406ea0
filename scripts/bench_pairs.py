#!/usr/bin/env python3
"""Alternated before/after pairs of perfbench/run.py, summarised in one JSON file.

Usage (from anywhere inside a git checkout of grouptrees):
    python3 scripts/bench_pairs.py BASE CHANGE --out BENCH_<n>.json
        [--workloads dynamics folding census cli-cold] [--seeds 1]

BASE and CHANGE are git revisions (a commit, a tag, or the output of
`git stash create` for staged work).  Each is exported with `git archive`
into its own temporary directory, so neither side reads bytecode or
benchmark output left in the working tree; every untraced run of the
benchmark command in BENCHMARK.json, at its `run_seconds`, gets its own
empty PYTHONPYCACHEPREFIX as well.  Within a pair the two sides run back to
back, and the side that runs first alternates from pair to pair, so the
slower second slot is shared evenly; there are always PAIRS = 10 pairs, the
fewest on which a gain is claimed.

The output holds, per workload and metric, the values of both sides in pair
order, their medians and quartiles (`statistics.quantiles`, inclusive), the
direction that counts as better (from BENCHMARK.json) and the number of
pairs the change side won; also the host, the Python version, both
revisions with their commits and `src/` trees, the seeds, the seconds and
whether every run was correct.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dynamics", "folding", "census", "cli-cold")
PAIRS = 10


def git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, into: Path) -> dict:
    """Write a clean copy of `rev` into `into`; returns its identity."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into)
    return {"rev": rev, "commit": commit,
            "src_tree": git("rev-parse", f"{commit}:src").decode().strip()}


def run_once(bench: dict, copy: Path, workload: str, seed: int, scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = tempfile.mkdtemp(prefix="pycache-", dir=scratch)
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    shutil.rmtree(env["PYTHONPYCACHEPREFIX"], ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {copy} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {name: export(rev, scratch / name)
                 for name, rev in (("base", args.base), ("change", args.change))}
        # values[(workload, seed, metric)][side] lists one value per pair
        values: dict[tuple, dict[str, list[float]]] = {}
        correct = True
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in args.workloads:
                for seed in args.seeds:
                    for side in order:
                        started = time.monotonic()
                        result = run_once(bench, scratch / side, workload, seed, scratch)
                        correct &= result["correct"] is True and result["failed"] == 0
                        for metric, entry in result["metrics"].items():
                            values.setdefault((workload, seed, metric), {}) \
                                .setdefault(side, []).append(entry["value"])
                        print(f"pair {pair + 1}/{PAIRS} {side:6} {workload} seed {seed}: "
                              f"{time.monotonic() - started:.0f} s", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rows: dict[str, dict] = {}
    for (workload, seed, metric), by_side in sorted(values.items()):
        base, change = by_side["base"], by_side["change"]
        sign = 1 if better[metric] == "higher" else -1
        rows.setdefault(f"{workload}@{seed}", {})[metric] = {
            "better": better[metric], "base": summary(base), "change": summary(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change))}
    args.out.write_text(json.dumps({
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "system": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "base": sides["base"], "change": sides["change"],
        "seeds": args.seeds, "seconds": bench["run_seconds"], "pairs": PAIRS,
        "all_correct": correct,
        "workloads": rows,
    }, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
