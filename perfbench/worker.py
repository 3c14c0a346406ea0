"""One benchmark worker process: set up, warm up, run the timed loop, check.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED LAUNCHED

MODE is ``setup`` (set up and stop), ``run`` (the untimed warm-up, then the
timed loop with tracing off) or ``trace`` (the same untraced loop, then the
same requests again under the tracer).  LAUNCHED is the parent's
``time.monotonic()`` reading just before it started this interpreter; the
monotonic clock is system-wide, so set-up time spans the interpreter start.
The worker prints one JSON object on its last stdout line.

The worker is a closed loop with one client: one thread sends the next
request only when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

#: Seed whose per-request report digests are stored in reference.json.
DEFAULT_SEED = 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def subset_mismatch(expected, actual, path: str = "result") -> str | None:
    """First place where `actual` fails to contain `expected`, or None."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, want in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = subset_mismatch(want, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


# ------------------------------------------------------------------ set-up


def setup(workload: str, seed: int):
    """Import the package, generate the seed's requests, serialise them."""
    import grouptrees
    if not Path(grouptrees.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"grouptrees was imported from {grouptrees.__file__}, "
                         f"not from this checkout's src/")
    import workloads
    warm, timed = workloads.build(workload, seed)
    texts = [json.dumps(req, sort_keys=True) for req in warm + timed]
    if workload == "cli-cold":
        work = OUT / f"cli-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        for req in warm + timed:
            for name, doc in req["files"].items():
                (work / name).write_text(json.dumps(doc, sort_keys=True),
                                         encoding="utf-8")
    return texts[:len(warm)], texts[len(warm):]


# ------------------------------------------------------------ request paths


class InProcess:
    """Requests through `scenarios.run_op` and the canonical JSON renderer."""

    slowness = staticmethod(hostspeed.kernel_slowness)

    def __init__(self, tracer=None):
        from grouptrees import report, scenarios
        self.report, self.scenarios, self.tracer = report, scenarios, tracer

    def __call__(self, index: int, req: dict):
        report, op = self.report, req["op"]
        if self.tracer is not None:
            self.tracer.request = index
        try:
            result, kind = self.scenarios.run_op(op, req["args"])
            envelope = report.wrap(op, result)
            envelope["status"] = kind
            return kind, report.render_json(envelope)
        except Exception as exc:  # a raising request is a failed request
            return "error", f"{type(exc).__name__}: {exc}"


class FreshProcess:
    """Each request is a new ``grouptrees`` CLI interpreter, one at a time."""

    slowness = staticmethod(hostspeed.process_slowness)

    def __init__(self, seed: int, traced: bool = False):
        # The children inherit this worker's PYTHONPATH, which run.py points
        # at the checkout's src/.
        self.cwd = OUT / f"cli-{seed}"
        self.traced = traced
        self.traces: list[dict] = []

    def __call__(self, index: int, req: dict):
        if self.traced:
            trace_file = self.cwd / f"trace-{index}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file),
                   str(index)]
        else:
            cmd = [sys.executable, "-m", "grouptrees.cli"]
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd + req["argv"], cwd=self.cwd,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None, "timed out after 60 s"
        if self.traced and trace_file.exists():
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
            trace["interpreter_s"] = trace.pop("started") - launched
            self.traces.append(trace)
            trace_file.unlink()
        return proc.returncode, proc.stdout or proc.stderr


def check(req: dict, kind, text: str) -> str | None:
    """None when the output passes the checks that hold by construction."""
    if "argv" in req:
        if kind not in (0, 2):
            return f"exit code {kind}: {text.strip()[:200]}"
        envelope = json.loads(text)
        status = envelope.get("status")
        if status is not None and {"proven": 0, "budget": 2}.get(status) != kind:
            return f"status {status!r} disagrees with exit code {kind}"
        return subset_mismatch(req["expect"], envelope, "report")
    if kind in ("error", "failed"):
        return f"{kind}: {text[:200]}"
    return subset_mismatch(req["expect"], json.loads(text)["result"])


# --------------------------------------------------------------------- loop


def timed_loop(call, texts: list[str]):
    """Run every request once, back to back, with a host-speed reading
    (`call.slowness`) before each request and after the last; returns the
    wall-clock latencies, the latencies scaled to the nominal host speed,
    the requests and outputs."""
    requests = [json.loads(t) for t in texts]
    latencies, outputs = [], []
    readings = [call.slowness()]
    clock = time.perf_counter
    for index, req in enumerate(requests):
        start = clock()
        outputs.append(call(index, req))
        latencies.append(clock() - start)
        readings.append(call.slowness())
    scaled = [hostspeed.scale(t, before, after)
              for t, before, after in zip(latencies, readings, readings[1:])]
    return latencies, scaled, requests, outputs


def verify(workload: str, seed: int, requests, outputs):
    """(digests, failure messages) for one loop's outputs."""
    digests = [_digest(text) for _, text in outputs]
    reference = None
    if seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(workload)
    failures = []
    if reference is not None and len(reference["digests"]) != len(digests):
        reference = None
        failures.append("reference.json lists a different number of requests")
    for i, (req, (kind, text)) in enumerate(zip(requests, outputs)):
        try:
            problem = check(req, kind, text)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc}"
        if problem is None and reference is not None \
                and reference["digests"][i] != digests[i]:
            problem = "report differs from the reference digest"
        if problem is not None:
            failures.append(f"request {i} ({req.get('op') or req['argv'][:2]}): "
                            f"{problem}")
    return digests, failures


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux


def main(argv: list[str]) -> int:
    mode, workload, seed, launched = argv[0], argv[1], int(argv[2]), float(argv[3])
    warm, timed = setup(workload, seed)
    setup_s = time.monotonic() - launched
    out = {"setup_s": setup_s, "setup_slowness": hostspeed.kernel_slowness(),
           "requests_digest": _digest("\n".join(timed))}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    cli = workload == "cli-cold"
    call = FreshProcess(seed) if cli else InProcess()
    timed_loop(call, warm)
    latencies, scaled, requests, outputs = timed_loop(call, timed)
    digests, failures = verify(workload, seed, requests, outputs)
    out.update(latencies=latencies, scaled=scaled, failures=failures,
               digests=digests, peak_rss_mb=_peak_rss_mb(workload))
    if mode == "trace":
        out.update(trace_run(workload, seed, timed, digests))
    print(json.dumps(out))
    return 0


def trace_run(workload: str, seed: int, timed: list[str], digests: list[str]):
    """The same requests again under the tracer; spans go to .perfbench_out."""
    from tracer import Tracer
    if workload == "cli-cold":
        call = FreshProcess(seed, traced=True)
        _, scaled, requests, outputs = timed_loop(call, timed)
        totals, spans = merge_child_traces(call.traces)
    else:
        tracer = Tracer()
        tracer.install()
        _, scaled, requests, outputs = timed_loop(InProcess(tracer), timed)
        totals, spans = tracer.layer_totals(), tracer.span_records()
        totals["cli"] = {}
    traced_digests, failures = verify(workload, seed, requests, outputs)
    if traced_digests != digests:
        failures.append("traced reports differ from the untraced reports")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record) + "\n")
    return {"traced_scaled": scaled, "traced_failures": failures,
            "layers": totals}


def merge_child_traces(traces: list[dict]):
    stats: dict[str, list] = {}
    counts: dict[str, float] = {}
    spans = []
    cli = {"interpreter_s": [], "import_s": [], "parser_build_s": []}
    for trace in traces:
        for layer, (n, self_s) in trace["stats"].items():
            acc = stats.setdefault(layer, [0, 0.0])
            acc[0] += n
            acc[1] += self_s
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key in cli:
            cli[key].append(trace[key])
        spans.extend(trace["spans"])
    return {"stats": stats, "counts": counts, "cli": cli}, spans


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
