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

from .core import Word, _Frozen, _letters_text, enumerate_words, inverse, word_sort_key
from .errors import DegenerateSubgroupError, PreconditionError
from .stallings import StallingsGraph, index


def _primitive_root(letters: tuple[int, ...]) -> tuple[int, ...]:
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return letters[:d]
    return letters


def _canonical_ray(prefix: tuple[int, ...], period: tuple[int, ...]) -> tuple:
    """The canonical (prefix, period) of the ray prefix * period^infinity,
    for a reduced prefix and a primitive cyclically reduced period (see
    BoundaryRay).  A last prefix letter that cancels into the period head
    rotates the period left; one equal to the period's last letter rolls
    into it, rotating it right.  Rotations keep the period primitive."""
    n = len(prefix)
    while n:
        if prefix[n - 1] == -period[0]:
            period = period[1:] + period[:1]
        elif prefix[n - 1] == period[-1]:
            period = period[-1:] + period[:-1]
        else:
            break
        n -= 1
    return prefix[:n], period


def _ray_key(ray: tuple) -> tuple:
    return (word_sort_key(ray[0]), word_sort_key(ray[1]))


def _ray_text(prefix: tuple[int, ...], period: tuple[int, ...]) -> str:
    u = _letters_text(prefix)
    return f"{u + '·' if u else ''}({_letters_text(period)})^∞"


class BoundaryRay(_Frozen):
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

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: Word, period: Word):
        u, v = prefix, period
        if not v.letters:
            raise PreconditionError("a boundary ray needs a nonempty period")
        if u.rank != v.rank:
            raise PreconditionError("prefix and period rank mismatch")
        if not v.is_cyclically_reduced():
            raise PreconditionError(f"period {v} is not cyclically reduced")
        prefix, period = _canonical_ray(u.letters, _primitive_root(v.letters))
        object.__setattr__(self, "prefix", Word(prefix, u.rank))
        object.__setattr__(self, "period", Word(period, v.rank))

    @property
    def rank(self) -> int:
        return self.period.rank

    def sort_key(self):
        return _ray_key((self.prefix.letters, self.period.letters))

    def __str__(self):
        return _ray_text(self.prefix.letters, self.period.letters)


class RationalLeaf(_Frozen):
    """Unordered pair of distinct boundary rays (stored sorted)."""

    __slots__ = ("rays",)

    def __init__(self, rays: tuple[BoundaryRay, BoundaryRay]):
        a, b = rays
        if a.rank != b.rank:
            raise PreconditionError("leaf rays must share a rank")
        if a == b:
            raise PreconditionError("a leaf needs two distinct boundary points")
        if b.sort_key() < a.sort_key():
            a, b = b, a
        object.__setattr__(self, "rays", (a, b))

    def __str__(self):
        return f"({self.rays[0]}, {self.rays[1]})"


def periodic_leaf(g: Word) -> RationalLeaf:
    """The leaf (g^-infinity, g^+infinity); g is cyclically reduced first."""
    conj, core = g.cyclic_reduce()
    if not core.letters:
        raise DegenerateSubgroupError("the identity has no periodic leaf")
    return RationalLeaf((BoundaryRay(conj, core.inverse()),
                         BoundaryRay(conj, core)))


# -- membership -----------------------------------------------------------------


def boundary_membership(graph: StallingsGraph, ray: BoundaryRay) -> bool:
    """True iff the infinite word is readable from the basepoint forever.

    Read the prefix, then the period repeatedly; the state after each period
    is a single vertex, so a repeat proves an infinite readable tail, and a
    stuck read refutes it.  Terminates within (number of vertices) periods.
    """
    return _reads_forever(graph, ray.prefix.letters, ray.period.letters)


def _reads_forever(graph: StallingsGraph, prefix: tuple[int, ...],
                   period: tuple[int, ...]) -> bool:
    v = graph.trace(graph.base, prefix)
    if v is None:
        return False
    seen = set()
    while v not in seen:
        seen.add(v)
        v = graph.trace(v, period)
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


def carrier_scan(graph: MarkedMetricGraph, subgroup: StallingsGraph, epsilon: Scalar,
                 max_word: int, max_translate: int) -> dict:
    """Scan the short-leaf stock for leaves the subgroup carries.

    The headline list applies the literal carrying test to the untranslated
    periodic leaves of the short conjugacy classes; hits among their
    translates are reported separately (the orbit question), since any
    subgroup containing some w*g*w^-1 carries the translated leaf w*leaf(g)
    without carrying leaf(g) itself.
    """
    short = graph.omega_epsilon(epsilon, max_word)
    # w * leaf(g) on letter tuples, in BoundaryRay's and RationalLeaf's forms,
    # the empty w first; g is cyclically reduced, so leaf(g)'s rays have no
    # prefix
    translates = [()]
    if max_translate > 0 and short:
        translates += [w.letters for w in enumerate_words(graph.rank, max_translate)
                       if w.letters]
    carried, translate_hits = [], []
    for g in short:
        generator = str(g)
        period = _primitive_root(g.letters)
        back = inverse(period)
        for w in translates:
            first, second = _canonical_ray(w, back), _canonical_ray(w, period)
            if _reads_forever(subgroup, *first) and _reads_forever(subgroup, *second):
                if _ray_key(second) < _ray_key(first):
                    first, second = second, first
                leaf = f"({_ray_text(*first)}, {_ray_text(*second)})"
                if w:
                    translate_hits.append({"generator": generator,
                                           "word": _letters_text(w), "leaf": leaf})
                else:
                    carried.append({"generator": generator, "leaf": leaf})
    return {
        "status": "carried-leaves-found" if carried else "none-up-to-budget",
        "carried": carried,
        "translate_hits": translate_hits,
        "short_classes": [str(g) for g in short],
        "epsilon": str(epsilon),
        "max_word": max_word,
        "max_translate": max_translate,
        "subgroup_index": index(subgroup),
        "note": _SIMPLICIAL_NOTE,
    }
