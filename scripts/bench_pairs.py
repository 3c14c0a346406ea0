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
revisions with their commits and `src/` trees, the seeds, the seconds, the
number of completed pairs and whether every run was correct.  The file is
rewritten after every completed pair from the second on, so an interrupted
run keeps the pairs it measured.  A run that exits nonzero ends the script with
exit 1, after it is written to the file as `failed_run` (pair, side,
workload, seed, exit code and the last lines of its stderr).  Only the
standard library is used.
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
STDERR_LINES = 20


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


def run_once(bench: dict, copy: Path, workload: str, seed: int,
             scratch: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = tempfile.mkdtemp(prefix="pycache-", dir=scratch)
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    shutil.rmtree(env["PYTHONPYCACHEPREFIX"], ignore_errors=True)
    return proc


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def workload_rows(values: dict, better: dict, pairs: int) -> dict:
    """Per workload and metric, both sides' first `pairs` values summarised."""
    rows: dict[str, dict] = {}
    if pairs < 2:  # quartiles need two values
        return rows
    for (workload, seed, metric), by_side in sorted(values.items()):
        base, change = by_side["base"][:pairs], by_side["change"][:pairs]
        sign = 1 if better[metric] == "higher" else -1
        rows.setdefault(f"{workload}@{seed}", {})[metric] = {
            "better": better[metric], "base": summary(base), "change": summary(change),
            "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change))}
    return rows


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
    # values[(workload, seed, metric)][side] lists one value per pair
    values: dict[tuple, dict[str, list[float]]] = {}
    correct = True
    failed = None

    def write(pairs: int) -> None:
        doc = {
            "host": {"node": platform.node(), "machine": platform.machine(),
                     "system": platform.platform(), "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "base": sides["base"], "change": sides["change"],
            "seeds": args.seeds, "seconds": bench["run_seconds"], "pairs": pairs,
            "all_correct": correct,
            "workloads": workload_rows(values, better, pairs),
        }
        if failed is not None:
            doc["failed_run"] = failed
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {name: export(rev, scratch / name)
                 for name, rev in (("base", args.base), ("change", args.change))}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in args.workloads:
                for seed in args.seeds:
                    for side in order:
                        started = time.monotonic()
                        proc = run_once(bench, scratch / side, workload, seed, scratch)
                        print(f"pair {pair + 1}/{PAIRS} {side:6} {workload} seed {seed}: "
                              f"{time.monotonic() - started:.0f} s, exit {proc.returncode}",
                              file=sys.stderr)
                        if proc.returncode != 0:
                            failed = {"pair": pair + 1, "side": side, "workload": workload,
                                      "seed": seed, "exit_code": proc.returncode,
                                      "stderr_tail":
                                          proc.stderr.splitlines()[-STDERR_LINES:]}
                            write(pair)
                            print(proc.stderr.strip()[-2000:], file=sys.stderr)
                            return 1
                        result = json.loads(proc.stdout.strip().splitlines()[-1])
                        correct &= result["correct"] is True and result["failed"] == 0
                        for metric, entry in result["metrics"].items():
                            values.setdefault((workload, seed, metric), {}) \
                                .setdefault(side, []).append(entry["value"])
            if pair >= 1:
                write(pair + 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
