"""Benchmark of the grouptrees package: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (``dynamics``, ``folding``,
``census``, ``cli-cold``) are described in perfbench/README.md.  Each run
executes the fixed request list of its seed, which is sized so that the
timed loop takes about --seconds on the machine the benchmark was defined
on; the run is not cut at --seconds, so every run does the same work.

With ``--trace 0`` the run reports the end-to-end metrics, from worker
processes that start with a fresh interpreter: set-up is measured
SETUP_REPEATS times and its median reported.  Every time is scaled to a
fixed host speed by the references in hostspeed.py, timed around each
request and each set-up; the unscaled wall-clock metrics are printed too.
With ``--trace 1`` it reports the per-layer metrics of a traced run of the
same requests.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the run completed (even with failed
requests, which ``failed`` and ``correct`` report) and 1 when it could not
run at all, for example outside a checkout of the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dynamics", "folding", "census", "cli-cold")

#: Interpreter launches whose set-up time is measured in one run (odd).
SETUP_REPEATS = 7
#: Longest a worker may take; a run must end within 180 s.
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # Every interpreter the run starts compiles the package from source, as
    # on the machine the bounds were measured on, whatever the caller's
    # environment: cached bytecode would make set-up and cli-cold cheaper
    # from the second run of a checkout on and change what the host-speed
    # reference process stands for.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    slowness = hostspeed.kernel_slowness()
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
             repr(launched)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_scaled"] = hostspeed.scale(result["setup_s"], slowness,
                                             result["setup_slowness"])
    return result


def reports_digest(digests: list[str]) -> str:
    """One digest over every request's report digest, in request order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def end_to_end(latencies: list[float], setup_samples: list[float],
               peak_rss_mb: float) -> dict:
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    stats, counts, cli = layers["stats"], layers["counts"], layers["cli"]

    def spans(layer):
        return stats.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return (stats.get(layer, (0, 0.0))[1], "s")

    def count(key):
        return (counts.get(key, 0), "count")

    def ratio(num, den):
        value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        return (value, "ratio")

    def median_ms(key):
        values = cli.get(key) or [0.0]
        return (statistics.median(values) * 1000, "ms")

    return {
        "core.scalar.calls": (spans("core.scalar"), "count"),
        "core.scalar.self_s": self_s("core.scalar"),
        "core.words.self_s": self_s("core.words"),
        "core.enumerate.words_out": count("core.enumerate.words_out"),
        "core.enumerate.self_s": self_s("core.enumerate"),
        "intervals.calls": (spans("intervals"), "count"),
        "intervals.self_s": self_s("intervals"),
        "folding.fold.edges_in": count("folding.fold.edges_in"),
        "folding.fold.merges": count("folding.fold.merges"),
        "folding.self_s": self_s("folding"),
        "stallings.build_core.letters_in": count("stallings.build_core.letters_in"),
        "stallings.self_s": self_s("stallings"),
        "basis_change.invert_basis.letters_in":
            count("basis_change.invert_basis.letters_in"),
        "basis_change.self_s": self_s("basis_change"),
        "isometry_systems.orbit.points_out": count("isometry_systems.orbit.points_out"),
        "isometry_systems.orbit.closed_ratio":
            ratio("isometry_systems.orbit.closed", "isometry_systems.orbit.calls"),
        "isometry_systems.sub_orbit.calls": count("isometry_systems.sub_orbit.calls"),
        "isometry_systems.self_s": self_s("isometry_systems"),
        "measures.self_s": self_s("measures"),
        "marked_graphs.omega.accept_ratio":
            ratio("marked_graphs.omega.accepted", "marked_graphs.omega.attempted"),
        "marked_graphs.translation_length.calls":
            count("marked_graphs.translation_length.calls"),
        "marked_graphs.self_s": self_s("marked_graphs"),
        "laminations.carries.calls": count("laminations.carries.calls"),
        "laminations.self_s": self_s("laminations"),
        "documents.load.self_s": self_s("documents.load"),
        "report.render.self_s": self_s("report.render"),
        "report.bytes_out": (counts.get("report.bytes_out", 0), "bytes"),
        "scenarios.dispatch.self_s": self_s("scenarios.dispatch"),
        "cli.interpreter_ms": median_ms("interpreter_s"),
        "cli.import_ms": median_ms("import_s"),
        "cli.parser_build_ms": median_ms("parser_build_s"),
        "trace.overhead_ratio":
            (sum(result["traced_scaled"]) / sum(result["scaled"]), "ratio"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "grouptrees" / "__init__.py").is_file():
        print(f"error: no grouptrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # One CPU for this process and every process it starts, so that each
    # host-speed reading is taken on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            result = spawn("trace", args.workload, args.seed, WORKER_TIMEOUT_S)
            metrics = per_layer(result)
            failures = result["failures"] + result["traced_failures"]
            attempted = 2 * len(result["latencies"])
        else:
            # Set-up-only interpreters before and after the timed run, so the
            # median spans the host's speed over the whole run.
            def setup_only():
                return spawn("setup", args.workload, args.seed,
                             deadline - time.monotonic())

            setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
            result = spawn("run", args.workload, args.seed,
                           deadline - time.monotonic())
            setups.append(result)
            setups += [setup_only() for _ in range(SETUP_REPEATS // 2)]
            metrics = end_to_end(result["scaled"],
                                 [s["setup_scaled"] for s in setups],
                                 result["peak_rss_mb"])
            wall_clock = end_to_end(result["latencies"],
                                    [s["setup_s"] for s in setups],
                                    result["peak_rss_mb"])
            failures = result["failures"]
            attempted = len(result["latencies"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = min(len(failures), attempted)
    for message in failures[:20]:
        print(f"failed: {message}")
    print(f"{args.workload} seed {args.seed}: {len(result['latencies'])} timed "
          f"requests (latency percentiles over all of them), error_rate "
          f"{failed / attempted:.4f} ratio ({failed} of {attempted} failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    if not args.trace:
        print("the same, unscaled wall-clock times:")
        for name, (value, unit) in wall_clock.items():
            print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"requests digest {result['requests_digest']}, "
          f"reports digest {reports_digest(result['digests'])}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
