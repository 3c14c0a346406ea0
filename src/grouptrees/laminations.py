"""Rational leaves of algebraic laminations and the leaf-carrying test.

A boundary ray, the eventually periodic infinite reduced word
prefix * period^infinity, is the canonical pair (prefix, period) of letter
tuples that `_canonical_ray` returns.  A rational leaf is a tuple of two
distinct rays sorted by prefix, then period; the archetype is the pair
(g^-infinity, g^+infinity) attached to a group element g.  A subgroup, given
by its core graph, carries a leaf exactly when both rays can be read forever
from the basepoint without leaving the graph; that is decidable for rational
rays by cycle detection.
"""

from __future__ import annotations

from .core import _letters_text, conjugator_length, enumerate_words, inverse, word_sort_key
from .errors import DegenerateSubgroupError, PreconditionError
from .stallings import StallingsGraph, _read, index


def _primitive_root(letters: tuple[int, ...]) -> tuple[int, ...]:
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return letters[:d]
    return letters


def _canonical_ray(prefix: tuple[int, ...], period: tuple[int, ...]) -> tuple:
    """The canonical (prefix, period) of the ray prefix * period^infinity,
    for a reduced prefix and a primitive cyclically reduced period.

    In canonical form the period is nonempty, cyclically reduced and
    primitive, and the prefix ends neither in the period's last letter
    (such a letter rolls into the period, rotating it right) nor in the
    inverse of its first (such a letter cancels into the periodic tail,
    rotating it left), so prefix * period is reduced.  Rotations keep the
    period primitive.  Two eventually periodic rays are equal as infinite
    words iff their canonical forms coincide."""
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


def _ray_text(prefix: tuple[int, ...], period: tuple[int, ...]) -> str:
    u = _letters_text(prefix)
    return f"{u + '·' if u else ''}({_letters_text(period)})^∞"


def _leaf(first: tuple, second: tuple) -> tuple:
    """Two canonical rays sorted by prefix, then period, in `word_sort_key` order."""
    if first == second:
        raise PreconditionError("a leaf needs two distinct boundary points")
    i = 1 if first[0] == second[0] else 0
    if word_sort_key(second[i]) < word_sort_key(first[i]):
        first, second = second, first
    return first, second


def _leaf_text(leaf: tuple) -> str:
    return f"({_ray_text(*leaf[0])}, {_ray_text(*leaf[1])})"


def periodic_leaf(g: tuple[int, ...]) -> tuple:
    """The leaf (g^-infinity, g^+infinity) of the reduced letter tuple g."""
    k = conjugator_length(g)
    period = _primitive_root(g[k:len(g) - k])
    if not period:
        raise DegenerateSubgroupError("the identity has no periodic leaf")
    conj = g[:k]
    return _leaf(_canonical_ray(conj, inverse(period)), _canonical_ray(conj, period))


# -- membership -----------------------------------------------------------------


def _reads(graph: StallingsGraph, tails: dict, prefix: tuple[int, ...],
           period: tuple[int, ...]) -> bool:
    """True iff the ray prefix * period^infinity reads from the basepoint forever.

    Read the prefix, then the period repeatedly; the state after each period
    is a single vertex, so a repeat proves an infinite readable tail, and a
    stuck read refutes it.  `tails` maps the vertices that walks of this
    period visited to whether period^infinity reads forever from there.
    """
    k, v = _read(graph, graph.base, prefix)
    if k < len(prefix):
        return False
    walk = []
    while v not in tails:
        tails[v] = None  # on this walk: meeting it again closes a cycle
        walk.append(v)
        k, v = _read(graph, v, period)
        if k < len(period):
            verdict = False
            break
    else:
        verdict = tails[v] is not False
    tails.update(dict.fromkeys(walk, verdict))
    return verdict


def carries(graph: StallingsGraph, leaf: tuple) -> bool:
    """Literal two-ray membership — no translation is applied."""
    return _reads(graph, {}, *leaf[0]) and _reads(graph, {}, *leaf[1])


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
    # the rays of w * leaf(g), the empty w first, as enumerate_words yields
    # it; g is cyclically reduced, so leaf(g)'s rays have no prefix.  Those of
    # w * leaf(g) share a canonical prefix u and have inverse periods p^-1, p;
    # one decides both, as a folded graph reads each letter injectively: from
    # a vertex, p^infinity reads forever iff the vertex lies on a p-cycle
    translates = (list(enumerate_words(graph.rank, max_translate))
                  if max_translate > 0 and short else [()])
    carried, translate_hits = [], []
    tails, pairs = {}, {}  # per period: `_reads`' verdicts; the pair in leaf order
    for g in short:
        generator = _letters_text(g)
        period = _primitive_root(g)
        for w in translates:
            u, p = _canonical_ray(w, period)
            if p not in pairs:
                (_, a), (_, b) = _leaf(((), inverse(p)), ((), p))
                pairs[p] = a, b, tails.setdefault(a, {})
            a, b, memo = pairs[p]
            if _reads(subgroup, memo, u, a):
                leaf = _leaf_text(((u, a), (u, b)))
                if w:
                    translate_hits.append({"generator": generator,
                                           "word": _letters_text(w), "leaf": leaf})
                else:
                    carried.append({"generator": generator, "leaf": leaf})
    return {
        "status": "carried-leaves-found" if carried else "none-up-to-budget",
        "carried": carried,
        "translate_hits": translate_hits,
        "short_classes": [_letters_text(g) for g in short],
        "epsilon": str(epsilon),
        "max_word": max_word,
        "max_translate": max_translate,
        "subgroup_index": index(subgroup),
        "note": _SIMPLICIAL_NOTE,
    }
