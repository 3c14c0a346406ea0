"""Run one grouptrees CLI command under the benchmark's tracer.

Usage: python3 perfbench/cli_child.py TRACE_FILE REQUEST ARGV...

Behaves like ``python3 -m grouptrees.cli ARGV...`` (same stdout, same exit
code) and also writes TRACE_FILE: when the interpreter reached this script,
how long ``import grouptrees.cli`` and ``cli.build_parser`` took, and the
tracer's per-layer totals and spans for the command.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import grouptrees.cli as cli  # noqa: E402

IMPORTED = time.monotonic()

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    timings = {}
    build_parser = cli.build_parser

    def timed_build_parser():
        start = time.perf_counter()
        parser = build_parser()
        timings["parser_build_s"] = time.perf_counter() - start
        return parser

    cli.build_parser = timed_build_parser
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        record = tracer.layer_totals()
        record.update(timings, started=STARTED, import_s=IMPORTED - STARTED,
                      spans=tracer.span_records())
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
