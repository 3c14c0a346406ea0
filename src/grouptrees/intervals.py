"""Exact closed intervals and multi-intervals over quadratic scalars.

All endpoints are Scalars, all comparisons exact.  MultiInterval keeps its
components sorted and merged (overlapping or touching closed components are
coalesced), so structural equality is set equality.  Degenerate (single-point)
components are permitted; measure counts them as zero.
"""

from __future__ import annotations

from .core import Scalar, ZERO, _Frozen
from .errors import InvalidSystemError

HALF = Scalar.of("1/2")


class Interval(_Frozen):
    """A closed interval [lo, hi], possibly a single point."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        if hi < lo:
            raise InvalidSystemError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> Scalar:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Scalar:
        return (self.lo + self.hi) * HALF

    def contains(self, x: Scalar) -> bool:
        return x >= self.lo and self.hi >= x

    def contains_interval(self, other: "Interval") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if other.hi >= self.hi else other.hi
        if hi < lo:
            return None
        return Interval(lo, hi)

    def shifted_image(self, orient: int, offset: Scalar) -> "Interval":
        """Image under x -> orient*x + offset."""
        if orient > 0:
            return Interval(self.lo + offset, self.hi + offset)
        return Interval(-self.hi + offset, -self.lo + offset)

    def jsonable(self) -> list[str]:
        return [str(self.lo), str(self.hi)]

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class MultiInterval(_Frozen):
    """A finite union of disjoint closed intervals, kept sorted and merged."""

    __slots__ = ("components",)

    def __init__(self, intervals=()):
        pieces = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[Interval] = []
        for iv in pieces:
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        object.__setattr__(self, "components", tuple(merged))

    @property
    def measure(self) -> Scalar:
        total = ZERO
        for iv in self.components:
            total = total + iv.length
        return total

    def contains(self, x: Scalar) -> bool:
        return any(iv.contains(x) for iv in self.components)

    def contains_interval(self, other: Interval) -> bool:
        return any(iv.contains_interval(other) for iv in self.components)

    def contains_multi(self, other: "MultiInterval") -> bool:
        return all(self.contains_interval(iv) for iv in other.components)

    def intersect(self, other: "MultiInterval | Interval") -> "MultiInterval":
        others = other.components if isinstance(other, MultiInterval) else (other,)
        out = []
        for a in self.components:
            for b in others:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        return MultiInterval(out)

    def union(self, other: "MultiInterval | Interval") -> "MultiInterval":
        others = other.components if isinstance(other, MultiInterval) else (other,)
        return MultiInterval(self.components + tuple(others))

    def shifted_image(self, orient: int, offset: Scalar) -> "MultiInterval":
        return MultiInterval(iv.shifted_image(orient, offset) for iv in self.components)

    def endpoints(self) -> list[Scalar]:
        out = []
        for iv in self.components:
            out.append(iv.lo)
            if not iv.is_point:
                out.append(iv.hi)
        return out

    def jsonable(self) -> list[list[str]]:
        return [[str(iv.lo), str(iv.hi)] for iv in self.components]
