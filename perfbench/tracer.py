"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces every public function, method, property and
arithmetic/comparison dunder of the grouptrees layer modules with a timing
wrapper, and rebinds every alias of a replaced function in every loaded
grouptrees module (``from .x import f`` copies, such as
``scenarios.orbit`` or ``marked_graphs.invert_basis``), so that no call goes
around a wrapper.  Classes are patched in place, so their aliases need no
rebinding.

Only the outermost call into a layer opens a span: a call made while the
innermost open span already belongs to the same layer runs unwrapped.  A
layer's self time is its spans' time minus the time of their child spans,
which always belong to other layers.  Everything runs on one thread with no
queues, so no layer ever waits and there is no wait time to report.

Spans are merged into calling-context records: every span with the same
request, parent record and function name adds to one record (span count,
total seconds, first start, last end).  Memory is therefore bounded by the
number of distinct call paths, not by the number of calls; in particular the
millions of `core.scalar` spans collapse to a few records per parent span.
All records are written out at the end of the run, never during it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYER_MODULES = ("core", "intervals", "folding", "stallings", "basis_change",
                 "isometry_systems", "measures", "marked_graphs", "laminations",
                 "documents", "report", "scenarios", "cli")

_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__pow__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__",
    "__str__", "__len__", "__bool__"})

_ROOT = "request"


def layer_of(module: str, owner: str | None, name: str) -> str:
    """The layer a public name belongs to; `core` and `documents` are split."""
    if module == "core":
        if owner == "Scalar" or name == "scalar_min":
            return "core.scalar"
        return "core.enumerate" if name == "enumerate_words" else "core.words"
    if module == "documents":
        return "documents.dump" if name.startswith("dump_") else "documents.load"
    if module == "report":
        return "report.render"
    if module == "scenarios":
        return "scenarios.dispatch"
    return module


def _word_letters(words) -> int:
    return sum(len(w.letters) if hasattr(w, "letters") else len(w)
               for w in words)


# Counters read from arguments and return values, so they repeat exactly for
# a seed.  Unlike spans, they count every call, nested ones included.
def _count_fold(counts, args, result, _):
    counts["folding.fold.edges_in"] += len(args[1])
    counts["folding.fold.merges"] += args[0] - result[0]


def _count_build_core(counts, args, result, _):
    counts["stallings.build_core.letters_in"] += _word_letters(args[0])


def _count_invert_basis(counts, args, result, _):
    counts["basis_change.invert_basis.letters_in"] += _word_letters(args[0])


def _count_orbit(counts, args, result, _):
    counts["isometry_systems.orbit.calls"] += 1
    counts["isometry_systems.orbit.closed"] += result[0] == "closed"
    counts["isometry_systems.orbit.points_out"] += len(result[1])


def _count_sub_orbit(counts, args, result, _):
    counts["isometry_systems.sub_orbit.calls"] += 1


def _count_omega(counts, args, result, words_before):
    counts["marked_graphs.omega.accepted"] += len(result)
    counts["marked_graphs.omega.attempted"] += (
        counts["core.enumerate.words_out"] - words_before)


def _count_translation_length(counts, args, result, _):
    counts["marked_graphs.translation_length.calls"] += 1


def _count_carries(counts, args, result, _):
    counts["laminations.carries.calls"] += 1


def _count_render(counts, args, result, _):
    counts["report.bytes_out"] += len(result.encode("utf-8"))


HOOKS = {
    "folding.fold": _count_fold,
    "stallings.build_core": _count_build_core,
    "basis_change.invert_basis": _count_invert_basis,
    "isometry_systems.orbit": _count_orbit,
    "isometry_systems.subgroup_constrained_orbit": _count_sub_orbit,
    "marked_graphs.MarkedMetricGraph.omega_epsilon": _count_omega,
    "marked_graphs.MarkedMetricGraph.translation_length": _count_translation_length,
    "laminations.carries": _count_carries,
    "report.render_json": _count_render,
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span and counter recorder for one process; see the module docstring."""

    def __init__(self) -> None:
        # A frame is [layer, child seconds, record]; the root frame stands for
        # the request itself and has record id 0.
        self.stack: list[list] = [[_ROOT, 0.0, [0]]]
        self.stats: dict[str, list] = {}      # layer -> [spans, self seconds]
        self.counts = _Counts()
        # (request, parent id, name) -> [id, parent id, request, layer, name,
        #                                first start, last end, spans, seconds]
        self.records: dict[tuple, list] = {}
        self.request = 0

    # -- recording -----------------------------------------------------------

    def _open(self, layer: str, name: str) -> list:
        parent_id = self.stack[-1][2][0]
        key = (self.request, parent_id, name)
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = [len(self.records) + 1, parent_id,
                                          self.request, layer, name,
                                          None, None, 0, 0.0]
        frame = [layer, 0.0, record]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start: float, end: float) -> None:
        duration = end - start
        self.stack[-1][1] += duration
        stat = self.stats.get(frame[0])
        if stat is None:
            stat = self.stats[frame[0]] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[1]
        record = frame[2]
        if record[5] is None:
            record[5] = start
        record[6] = end
        record[7] += 1
        record[8] += duration

    def wrap(self, fn, layer: str, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        stack, hook, counts = self.stack, HOOKS.get(name), self.counts
        tracer = self
        first_arg = 1 if name.count(".") == 2 else 0   # methods skip `self`

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                words_before = counts["core.enumerate.words_out"]
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._open(layer, name)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    tracer._close(frame, start, end)
            if hook is not None:
                hook(counts, args[first_arg:], result, words_before)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: str, name: str):
        """Each resumption of the generator is one span of its layer."""
        tracer, stack, counts = self, self.stack, self.counts
        counter = f"{layer}.words_out" if layer == "core.enumerate" else None

        def spans(gen):
            while True:
                if stack[-1][0] == layer:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    frame = tracer._open(layer, name)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        tracer._close(frame, start, end)
                if counter is not None:
                    counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return spans(fn(*args, **kwargs))

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every loaded layer module."""
        replaced: dict[int, object] = {}
        for short in LAYER_MODULES:
            module = sys.modules.get(f"grouptrees.{short}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(obj, layer_of(short, None, attr),
                                        f"{short}.{attr}")
                    setattr(module, attr, wrapper)
                    replaced[id(obj)] = wrapper
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        for name, module in list(sys.modules.items()):
            if name != "grouptrees" and not name.startswith("grouptrees."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            layer = layer_of(short, cls.__name__, attr)
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, layer, name))
            elif isinstance(raw, property):
                new = property(self.wrap(raw.fget, layer, name), raw.fset,
                               raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self.wrap(raw, layer, name)
            else:
                continue
            setattr(cls, attr, new)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "request", "layer", "name", "start", "end",
                "spans", "seconds")
        return [dict(zip(keys, record)) for record in self.records.values()]
