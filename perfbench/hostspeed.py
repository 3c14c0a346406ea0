"""Host-speed references, timed around each request to scale its latency.

The benchmark was defined on a shared virtual machine whose CPU speed drifts
by up to a factor of two within a minute, while process CPU time keeps
tracking wall time: the host slows every instruction stream alike, the
package's and any other.  Timing fixed reference work right around each
request measures that speed, and ``scale`` turns a wall time into the time
it would have taken at the speed the nominal reference times stand for.
The references live here, outside the package, so no change to the package
changes them.

Two references, one for each kind of request:

- ``kernel_slowness`` times an in-process kernel that does what the package
  spends its time on: Python-level calls, ``Fraction`` arithmetic, tuple
  keys in dicts and short strings.  The garbage collector is off while it
  runs, so heap size left by a request does not leak into the reading.
- ``process_slowness`` times a fresh interpreter that imports the standard
  modules the CLI imports and compiles a fixed, generated source text, which
  is what a cold ``grouptrees`` command spends most of its time on.  Process
  start and compilation drift apart from in-process arithmetic on that
  machine, so CLI requests are scaled by this one.

Both return the host's slowness now: the reading divided by its nominal
value, 1.0 at the nominal speed.

Run as a script, this file is the reference process itself.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

#: Kernel time and reference-process time, in seconds, at the host speed the
#: scaled times are expressed in: typical readings on the 2-CPU Xeon the
#: benchmark was defined on.  Any fixed values compare runs equally well.
NOMINAL_KERNEL_S = 0.0007
NOMINAL_PROCESS_S = 0.135
#: Kernel passes per reading; the fastest is kept, which drops a pass that an
#: interrupt happened to land in.
PASSES = 3
#: Functions in the source text the reference process compiles.
COMPILED_FUNCTIONS = 200


def _kernel() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], str] = {}
    for i in range(1, 90):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        key = (i % 13, i % 7)
        table[key] = table.get(key, "") + chr(97 + i % 26)
    return acc.numerator % 97 + len(table)


def kernel_slowness() -> float:
    """Host slowness measured by the in-process kernel."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PASSES):
            start = clock()
            _kernel()
            best = min(best, clock() - start)
    finally:
        if enabled:
            gc.enable()
    return best / NOMINAL_KERNEL_S


def process_slowness() -> float:
    """Host slowness measured by one run of the reference process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60)
    return (time.perf_counter() - start) / NOMINAL_PROCESS_S


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two slowness readings, at nominal speed."""
    return seconds / ((before + after) / 2)


def _reference_process() -> None:
    import argparse  # noqa: F401  (the CLI imports it, so its start does)
    import json  # noqa: F401
    source = "\n".join(
        f"def f{i}(a, b):\n    return [a * b + {i} for _ in range(b) if a]\n"
        for i in range(COMPILED_FUNCTIONS))
    compile(source, "<reference>", "exec")
    _kernel()


if __name__ == "__main__":
    _reference_process()
