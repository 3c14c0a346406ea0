"""Piecewise-constant length measures on multi-intervals.

A length measure assigns a nonnegative constant density to each piece of a
subdivided multi-interval; measures of sub-intervals are exact sums of
density times overlap length.  There are no atoms by construction.  The
invariance check verifies, piece by piece on a common refinement, that each
generator of a system of isometries transports the density correctly.
"""

from __future__ import annotations

from .core import Scalar, ZERO, _Frozen
from .errors import OutOfSupportError, PreconditionError
from .intervals import Interval, MultiInterval


class LengthMeasure(_Frozen):
    """Sorted, interior-disjoint pieces (Interval, density >= 0), canonicalized.

    Adjacent pieces (sharing an endpoint) with equal density are merged, so
    two measures agreeing as set functions compare equal.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        raw = []
        for piece, density in pieces:
            if density.sign() < 0:
                raise PreconditionError(f"density {density} is negative")
            if piece.is_point:
                continue
            raw.append((piece, density))
        raw.sort(key=lambda pd: (pd[0].lo, pd[0].hi))
        merged: list[tuple[Interval, Scalar]] = []
        for piece, density in raw:
            if merged:
                prev, pdens = merged[-1]
                if piece.lo < prev.hi:
                    raise PreconditionError(
                        f"pieces {prev} and {piece} overlap in an arc")
                if piece.lo == prev.hi and density == pdens:
                    merged[-1] = (Interval(prev.lo, piece.hi), density)
                    continue
            merged.append((piece, density))
        object.__setattr__(self, "pieces", tuple(merged))

    @property
    def support(self) -> MultiInterval:
        return MultiInterval([piece for piece, _ in self.pieces])

    @property
    def total(self) -> Scalar:
        out = ZERO
        for piece, density in self.pieces:
            out = out + piece.length * density
        return out

    def density_at(self, x: Scalar) -> Scalar:
        """Density of the piece containing x (ambiguous exactly at breakpoints)."""
        for piece, density in self.pieces:
            if piece.contains(x):
                return density
        raise OutOfSupportError(f"{x} lies outside the measure's support")

    def breakpoints(self) -> list[Scalar]:
        pts = set()
        for piece, _ in self.pieces:
            pts.add(piece.lo)
            pts.add(piece.hi)
        return sorted(pts)

    def jsonable(self) -> dict:
        return {"pieces": [{"from": str(piece.lo), "to": str(piece.hi),
                            "density": str(density)}
                           for piece, density in self.pieces]}


def invariance_check(system, mu: LengthMeasure) -> dict:
    """Verify each generator transports the density exactly.

    The support is refined by every generator's domain/range endpoints and by
    the pullbacks of the measure's own breakpoints; on each refined piece the
    density at the midpoint must equal the density at the image midpoint.
    Requires the measure's support to equal the system's (so both sides of
    the comparison are always defined).
    """
    if mu.support != system.forest:
        raise PreconditionError(
            "the measure must be supported on exactly the system's multi-interval")
    breakpoints = mu.breakpoints()
    for gi, gen in enumerate(system.generators):
        if gen.dom.is_point:
            continue
        cuts = {gen.dom.lo, gen.dom.hi}
        for p in breakpoints:
            if gen.dom.contains(p):
                cuts.add(p)
            # pull back breakpoints that subdivide the range
            if gen.ran.contains(p):
                back = p - gen.offset if gen.orient > 0 else gen.offset - p
                if gen.dom.contains(back):
                    cuts.add(back)
        pts = sorted(cuts)
        for lo, hi in zip(pts, pts[1:]):
            if lo == hi:
                continue
            mid = Interval(lo, hi).midpoint
            here = mu.density_at(mid)
            there = mu.density_at(gen.apply(mid))
            if here != there:
                label = system.labels[gi] if system.labels else str(gi)
                return {
                    "status": "violation",
                    "generator": label,
                    "piece": Interval(lo, hi),
                    "density_here": here,
                    "density_there": there,
                }
    return {"status": "invariant", "generators_checked": len(system.generators)}


def combine(c1: Scalar, mu1: LengthMeasure, c2: Scalar,
            mu2: LengthMeasure) -> LengthMeasure:
    """c1*mu1 + c2*mu2 on the common refinement (supports must agree)."""
    if c1.sign() < 0 or c2.sign() < 0:
        raise PreconditionError("combination coefficients must be nonnegative")
    if mu1.support != mu2.support:
        raise PreconditionError("cannot combine measures with different supports")
    cuts = sorted(set(mu1.breakpoints()) | set(mu2.breakpoints()))
    pieces = []
    support = mu1.support
    for lo, hi in zip(cuts, cuts[1:]):
        piece = Interval(lo, hi)
        if not support.contains_interval(piece):
            continue  # gap between support components
        mid = piece.midpoint
        density = c1 * mu1.density_at(mid) + c2 * mu2.density_at(mid)
        pieces.append((piece, density))
    return LengthMeasure(pieces)
