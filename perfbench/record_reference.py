"""Record reference.json: the sha256 of every request's canonical report.

Usage: python3 perfbench/record_reference.py

Runs each workload once at the default seed and stores, in request order,
the digest of each report (the canonical JSON for in-process requests, the
stdout of each CLI call for cli-cold).  Later runs at that seed count a
request as failed when its digest differs, which is the byte-identical
report gate.  Re-record only when a change is meant to alter reports.
"""

from __future__ import annotations

import json
import sys

from run import WORKER_TIMEOUT_S, WORKLOADS, BenchError, spawn
from worker import DEFAULT_SEED, REFERENCE


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        try:
            result = spawn("run", workload, DEFAULT_SEED, WORKER_TIMEOUT_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        checks = [f for f in result["failures"] if "reference" not in f]
        if checks:
            print(f"error: {workload}: {checks[0]}", file=sys.stderr)
            return 1
        reference[workload] = {"seed": DEFAULT_SEED,
                               "requests_digest": result["requests_digest"],
                               "digests": result["digests"]}
        print(f"{workload}: {len(result['digests'])} report digests")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
