"""Exact closed intervals and multi-intervals over quadratic scalars.

All endpoints are Scalars, all comparisons exact.  MultiInterval keeps its
components sorted and merged (overlapping or touching closed components are
coalesced), so structural equality is set equality.  Degenerate (single-point)
components are permitted; measure counts them as zero.

The support engines run on an integer kernel instead: a tuple of components
((lo_a, lo_b), (hi_a, hi_b)) on one denominator `den` and field tag `d`, each
end standing for (a + b*sqrt(d))/den, sorted and merged as MultiInterval
keeps them; `_multi` turns one into a MultiInterval for a report.
"""

from __future__ import annotations

from .core import Scalar, ZERO, _Frozen, _make, _sign
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
        return sum((iv.length for iv in self.components), ZERO)

    def contains(self, x: Scalar) -> bool:
        return any(iv.contains(x) for iv in self.components)

    def contains_interval(self, other: Interval) -> bool:
        return any(iv.contains_interval(other) for iv in self.components)

    def contains_multi(self, other: "MultiInterval") -> bool:
        return all(self.contains_interval(iv) for iv in other.components)

    def jsonable(self) -> list[list[str]]:
        return [[str(iv.lo), str(iv.hi)] for iv in self.components]


# -- the integer kernel -----------------------------------------------------------


def _intersect(xs, ys, d: int) -> tuple:
    """xs n ys, by a two-pointer sweep; a touching end is a point component."""
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        (alo, ahi), (blo, bhi) = xs[i], ys[j]
        lo = alo if _sign(alo[0] - blo[0], alo[1] - blo[1], d) >= 0 else blo
        if _sign(bhi[0] - ahi[0], bhi[1] - ahi[1], d) >= 0:
            hi, i = ahi, i + 1
        else:
            hi, j = bhi, j + 1
        if _sign(hi[0] - lo[0], hi[1] - lo[1], d) >= 0:
            out.append((lo, hi))
    return tuple(out)


def _union(xs, ys, d: int) -> tuple:
    """xs u ys: a merge on lower ends, coalescing what overlaps or touches."""
    out = []
    i = j = 0
    while i < len(xs) or j < len(ys):
        if j == len(ys) or (i < len(xs) and _sign(
                ys[j][0][0] - xs[i][0][0], ys[j][0][1] - xs[i][0][1], d) >= 0):
            (lo, hi), i = xs[i], i + 1
        else:
            (lo, hi), j = ys[j], j + 1
        if out and _sign(out[-1][1][0] - lo[0], out[-1][1][1] - lo[1], d) >= 0:
            if _sign(hi[0] - out[-1][1][0], hi[1] - out[-1][1][1], d) > 0:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def _shifted(xs, orient: int, offset) -> tuple:
    """The image of xs under x -> orient*x + offset; -1 reverses the order."""
    oa, ob = offset
    if orient > 0:
        return tuple(((la + oa, lb + ob), (ha + oa, hb + ob))
                     for (la, lb), (ha, hb) in xs)
    return tuple(((oa - ha, ob - hb), (oa - la, ob - lb))
                 for (la, lb), (ha, hb) in reversed(xs))


def _measure(xs) -> tuple[int, int]:
    """The total length of xs's components, disjoint or not, as a pair over
    the kernel's denominator."""
    a = b = 0
    for (la, lb), (ha, hb) in xs:
        a, b = a + ha - la, b + hb - lb
    return a, b


def _interval(component, den: int, d: int) -> Interval:
    (la, lb), (ha, hb) = component
    return Interval(_make(la, lb, den, d), _make(ha, hb, den, d))


def _multi(xs, den: int, d: int) -> MultiInterval:
    """The MultiInterval of the kernel multi-interval xs, already merged."""
    out = object.__new__(MultiInterval)
    object.__setattr__(out, "components", tuple(_interval(c, den, d) for c in xs))
    return out
