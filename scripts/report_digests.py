#!/usr/bin/env python3
"""Digest every report of the in-process benchmark workloads, or compare them.

Usage (from the repository root, with src/ on PYTHONPATH):
    python3 scripts/report_digests.py [--out FILE]
    python3 scripts/report_digests.py --compare FILE

For each of the workloads dynamics, folding and census at seeds 1-3, the
timed request list of ``perfbench/workloads.py`` (imported, never changed)
runs once through ``scenarios.run_op``, as the benchmark worker runs it.
Each report is rendered by both renderers, ``render_json`` and
``render_text``, and the sha256 of each rendering is recorded; a request
that raises is recorded by the sha256 of its one-line error text instead,
so error texts are pinned too.  The default output is
``scripts/report_digests.json``.

``--compare FILE`` writes nothing: it recomputes the digests, names the first
request of each workload, seed and renderer whose digest differs, and exits
1 on any difference, 0 otherwise.  Re-record the file only for a deliberate,
stated change of report contents.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

from grouptrees import report, scenarios  # noqa: E402

WORKLOADS = ("dynamics", "folding", "census")
SEEDS = (1, 2, 3)
RENDERERS = {"json": report.render_json, "text": report.render_text}
DEFAULT_FILE = ROOT / "scripts" / "report_digests.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_digests(workload: str, seed: int) -> dict[str, list[str]]:
    """{renderer: [sha256 per timed request]} for one workload and seed."""
    _, timed = workloads.build(workload, seed)
    out: dict[str, list[str]] = {name: [] for name in RENDERERS}
    for req in timed:
        # requests reach the worker as JSON text, so they do here too
        req = json.loads(json.dumps(req, sort_keys=True))
        try:
            result, kind = scenarios.run_op(req["op"], req["args"])
            envelope = report.wrap(req["op"], result)
            envelope["status"] = kind
            texts = {name: render(envelope) for name, render in RENDERERS.items()}
        except Exception as exc:  # a raising request is pinned by its error text
            texts = dict.fromkeys(RENDERERS, f"{type(exc).__name__}: {exc}")
        for name, text in texts.items():
            out[name].append(_sha256(text))
    return out


def all_digests() -> dict:
    return {workload: {str(seed): request_digests(workload, seed) for seed in SEEDS}
            for workload in WORKLOADS}


def compare(recorded: dict, current: dict) -> list[str]:
    """One line per workload, seed and renderer whose digests differ."""
    problems = []
    for workload in WORKLOADS:
        for seed in map(str, SEEDS):
            for name in RENDERERS:
                old = recorded.get(workload, {}).get(seed, {}).get(name)
                new = current[workload][seed][name]
                where = f"{workload} seed {seed} {name}"
                if old is None:
                    problems.append(f"{where}: not recorded")
                elif len(old) != len(new):
                    problems.append(f"{where}: {len(new)} requests, {len(old)} recorded")
                else:
                    bad = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
                    if bad:
                        problems.append(f"{where}: {len(bad)} reports differ, "
                                        f"the first is request {bad[0]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--out", type=Path, default=DEFAULT_FILE)
    group.add_argument("--compare", type=Path)
    args = parser.parse_args()
    current = all_digests()
    if args.compare is not None:
        problems = compare(json.loads(args.compare.read_text()), current)
        for line in problems:
            print(line, file=sys.stderr)
        count = sum(len(v) for w in current.values() for s in w.values() for v in s.values())
        print(f"{count} digests, {len(problems)} groups differ")
        return 1 if problems else 0
    args.out.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
