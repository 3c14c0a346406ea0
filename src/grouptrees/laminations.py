"""Rational leaves of algebraic laminations and the leaf-carrying test.

A boundary ray is an eventually periodic infinite reduced word, stored in
canonical form as prefix + primitive cyclically reduced period.  A rational
leaf is an unordered pair of distinct rays — the archetype is the pair
(g^-infinity, g^+infinity) attached to a group element g.  A subgroup, given
by its core graph, carries a leaf exactly when both rays can be read forever
from the basepoint without leaving the graph; that is decidable for rational
rays by cycle detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Word, enumerate_words
from .errors import DegenerateSubgroupError, PreconditionError
from .marked_graphs import MarkedMetricGraph
from .stallings import StallingsGraph, index


def _primitive_root(letters: tuple[int, ...]) -> tuple[int, ...]:
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return letters[:d]
    return letters


@dataclass(frozen=True)
class BoundaryRay:
    """The infinite reduced word prefix * period * period * ...

    Canonical invariants (enforced on construction):
      * the period is nonempty, cyclically reduced, and primitive;
      * the prefix does not end in the period's last letter (such a letter is
        rolled into the period by rotating it) nor in the inverse of the
        period's first letter (such a letter cancels into the periodic tail);
      * prefix * period is reduced.
    Two eventually periodic rays are equal as infinite words iff their
    canonical forms coincide.
    """

    prefix: Word
    period: Word

    def __post_init__(self):
        u, v = self.prefix, self.period
        if not v.letters:
            raise PreconditionError("a boundary ray needs a nonempty period")
        if u.rank != v.rank:
            raise PreconditionError("prefix and period rank mismatch")
        vl = _primitive_root(v.letters)
        if -vl[0] == vl[-1] and len(vl) > 1:
            raise PreconditionError(f"period {v} is not cyclically reduced")
        ul = list(u.letters)
        changed = True
        while ul and changed:
            changed = False
            if ul[-1] == -vl[0]:
                # u ends with the inverse of the period head: it cancels into
                # the tail; rotate the period left
                ul.pop()
                vl = vl[1:] + vl[:1]
                changed = True
            elif ul[-1] == vl[-1]:
                # u ends with the period's last letter: absorb it by rotating
                # the period right
                ul.pop()
                vl = vl[-1:] + vl[:-1]
                changed = True
        object.__setattr__(self, "prefix", Word(tuple(ul), u.rank))
        object.__setattr__(self, "period", Word(vl, v.rank))

    @property
    def rank(self) -> int:
        return self.period.rank

    def sort_key(self):
        return (self.prefix.sort_key(), self.period.sort_key())

    def __str__(self):
        u = str(self.prefix)
        return f"{u + '·' if u else ''}({self.period})^∞"


def translate_ray(w: Word, ray: BoundaryRay) -> BoundaryRay:
    """The ray w * prefix * period^infinity (left action of the group)."""
    merged = w * ray.prefix  # Word multiplication reduces the seam
    return BoundaryRay(merged, ray.period)


@dataclass(frozen=True)
class RationalLeaf:
    """Unordered pair of distinct boundary rays (stored sorted)."""

    rays: tuple[BoundaryRay, BoundaryRay]

    def __post_init__(self):
        a, b = self.rays
        if a.rank != b.rank:
            raise PreconditionError("leaf rays must share a rank")
        if a == b:
            raise PreconditionError("a leaf needs two distinct boundary points")
        if b.sort_key() < a.sort_key():
            a, b = b, a
        object.__setattr__(self, "rays", (a, b))

    def sort_key(self):
        return (self.rays[0].sort_key(), self.rays[1].sort_key())

    def __str__(self):
        return f"({self.rays[0]}, {self.rays[1]})"


def periodic_leaf(g: Word) -> RationalLeaf:
    """The leaf (g^-infinity, g^+infinity); g is cyclically reduced first."""
    conj, core = g.cyclic_reduce()
    if not core.letters:
        raise DegenerateSubgroupError("the identity has no periodic leaf")
    return RationalLeaf((BoundaryRay(conj, core.inverse()),
                         BoundaryRay(conj, core)))


def translate_leaf(w: Word, leaf: RationalLeaf) -> RationalLeaf:
    return RationalLeaf((translate_ray(w, leaf.rays[0]),
                         translate_ray(w, leaf.rays[1])))


# -- membership -----------------------------------------------------------------


def boundary_membership(graph: StallingsGraph, ray: BoundaryRay) -> bool:
    """True iff the infinite word is readable from the basepoint forever.

    Read the prefix, then the period repeatedly; the state after each period
    is a single vertex, so a repeat proves an infinite readable tail, and a
    stuck read refutes it.  Terminates within (number of vertices) periods.
    """
    v = graph.trace(graph.base, ray.prefix.letters)
    if v is None:
        return False
    seen = set()
    while v not in seen:
        seen.add(v)
        v = graph.trace(v, ray.period.letters)
        if v is None:
            return False
    return True


def carries(graph: StallingsGraph, leaf: RationalLeaf) -> bool:
    """Literal two-ray membership — no translation is applied."""
    return (boundary_membership(graph, leaf.rays[0])
            and boundary_membership(graph, leaf.rays[1]))


# -- leaf generation from a marked metric graph -----------------------------------


_SIMPLICIAL_NOTE = (
    "the ambient tree is the universal cover of a metric graph, i.e. "
    "simplicial with discrete orbits; infinite-index subgroups can "
    "legitimately carry leaves here, so carried/none outcomes classify "
    "subgroups only for free actions with dense orbits")


def carrier_scan(graph: MarkedMetricGraph, subgroup: StallingsGraph, epsilon,
                 max_word: int, max_translate: int) -> dict:
    """Scan the short-leaf stock for leaves the subgroup carries.

    The headline list applies the literal carrying test to the untranslated
    periodic leaves of the short conjugacy classes; hits among their
    translates are reported separately (the orbit question), since any
    subgroup containing some w*g*w^-1 carries the translated leaf w*leaf(g)
    without carrying leaf(g) itself.
    """
    short = graph.omega_epsilon(epsilon, max_word)
    leaves = [periodic_leaf(g) for g in short]
    carried = []
    for g, leaf in zip(short, leaves):
        if carries(subgroup, leaf):
            carried.append({"generator": str(g), "leaf": str(leaf)})
    translate_hits = []
    if max_translate > 0 and short:
        translates = [w for w in enumerate_words(graph.rank, max_translate) if w.letters]
        for g, base in zip(short, leaves):
            for w in translates:
                moved = translate_leaf(w, base)
                if carries(subgroup, moved):
                    translate_hits.append({"generator": str(g),
                                           "word": str(w),
                                           "leaf": str(moved)})
    sub_index = index(subgroup)
    return {
        "status": "carried-leaves-found" if carried else "none-up-to-budget",
        "carried": carried,
        "translate_hits": translate_hits,
        "short_classes": [str(g) for g in short],
        "epsilon": epsilon if isinstance(epsilon, str) else str(epsilon),
        "max_word": max_word,
        "max_translate": max_translate,
        "subgroup_index": sub_index,
        "note": _SIMPLICIAL_NOTE,
    }
