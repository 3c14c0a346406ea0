#!/usr/bin/env python3
"""Replay the recorded mutants: each must fail the tests named for it.

Usage (from anywhere inside a checkout of grouptrees):
    python3 scripts/mutants.py [NAME ...]

Names select mutants to replay; by default all are.  scripts/mutants.json
lists one object per mutant:
"name", "file" (relative to the repository root), "old" (text that must
occur exactly once in that file), "new" (its replacement), "tests" (pytest
ids, relative to the root) and "why" (what the mutant breaks).

The working tree, without .git, is copied into a temporary directory.  The
tests of every selected mutant first run there unchanged and must pass.
Then each mutant in turn is written into the copy, its tests run, and the
file is put back.  Every pytest run is a child process in its own session,
with a wall-clock timeout (TIMEOUT_S) and an address-space limit
(MEMORY_MB), so a mutant that loops or allocates without end is stopped.  A mutant is killed when its
tests fail, time out or run out of memory.

Exit status 0 when every selected mutant is killed; 1 when one survives,
when an old text does not occur exactly once, when the unchanged tests do
not pass, or when pytest cannot find a listed test.  Only the standard
library is used; pytest runs in the children.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "scripts" / "mutants.json"
TIMEOUT_S = 180      # each pytest run; the slowest mutant's tests take about 15 s
MEMORY_MB = 1024     # pytest with hypothesis needs about 150
# pytest's exit statuses: 0 all passed, 1 some failed, 2 interrupted (a
# collection error among them), 3 internal error, 4 usage error (a test id
# not found), 5 no test collected
KILLED = {1, 2, 3}


def copy_tree(into: Path) -> None:
    shutil.copytree(ROOT, into, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))


def run_tests(copy: Path, tests: list[str]) -> tuple[str, float, str]:
    """("passed" | "failed" | "timeout" | "exit N", seconds, summary) for one
    pytest child; the summary is its first FAILED or ERROR line, or its last line."""
    limit = MEMORY_MB * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True, preexec_fn=limit_memory)
    try:
        out = child.communicate(timeout=TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "timeout", time.monotonic() - start, f"stopped after {TIMEOUT_S} s"
    seconds = time.monotonic() - start
    lines = out.decode("utf-8", "replace").splitlines() or [""]
    summary = next((l for l in lines if l.startswith(("FAILED", "ERROR"))), lines[-1])
    if child.returncode == 0:
        return "passed", seconds, summary
    if child.returncode in KILLED or child.returncode < 0:
        return "failed", seconds, summary
    return f"exit {child.returncode}", seconds, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME", help="replay these mutants only")
    args = ap.parse_args(argv)

    mutants = json.loads(TABLE.read_text(encoding="utf-8"))
    if args.names:
        unknown = set(args.names) - {m["name"] for m in mutants}
        if unknown:
            print(f"no such mutant: {', '.join(sorted(unknown))}")
            return 1
        mutants = [m for m in mutants if m["name"] in args.names]
    problems = 0
    for m in mutants:
        found = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        if found != 1:
            print(f"STALE     {m['name']}: its old text occurs {found} times in {m['file']}")
            problems += 1
    if problems:
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        copy_tree(copy)
        tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        outcome, seconds, summary = run_tests(copy, tests)
        print(f"unchanged: {outcome} in {seconds:.1f} s ({len(tests)} test ids)")
        if outcome != "passed":
            print(f"  {summary}")
            return 1
        for m in mutants:
            path = copy / m["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m["old"], m["new"]), encoding="utf-8")
            try:
                outcome, seconds, summary = run_tests(copy, m["tests"])
            finally:
                path.write_text(original, encoding="utf-8")
            if outcome in ("failed", "timeout"):
                verdict = "killed"
            else:
                verdict = "SURVIVED" if outcome == "passed" else "BROKEN"
                problems += 1
            print(f"{verdict:<9} {m['name']}: {outcome} in {seconds:.1f} s\n  {summary}")
    print(f"{len(mutants) - problems} of {len(mutants)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
