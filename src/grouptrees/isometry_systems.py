"""Finite systems of partial isometries on multi-intervals, exactly.

A system is a multi-interval support together with finitely many partial
isometries, each defined on a closed sub-interval (x -> orient*x + offset).
Words in the generators act by composition, rightmost letter first, wherever
the intermediate points stay inside the domains.

Everything here is exact: orbits are sets of quadratic scalars, measures are
quadratic scalars, and all the budgeted searches (orbit closure, finite-orbit
families, independence, support covers, chain covers, subgroup-constrained
dynamics) report truncation explicitly instead of failing silently.

Key quantities for the balance identity: m = measure of the support,
d = sum of the generators' domain measures, e = sum of the transverse measures
of the maximal families of finite orbits.  For an independent system (no
reduced word fixes a nondegenerate arc) with all families resolved,
e + d = m exactly; a nonzero residual m - d - e therefore certifies a hidden
relation, as does d > m on its own.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import isqrt
from operator import itemgetter

from .core import (Scalar, ZERO, _LETTER, _Frozen, _integer_view, _letters_text, _make,
                   _sign, _text, ordered_letters)
from .errors import (
    InvalidSystemError,
    MissingLabelsError,
    OutOfSupportError,
)
from .intervals import (Interval, MultiInterval, _interval, _intersect, _measure,
                        _multi, _shifted, _union)

_TWENTIETH = Scalar.parse("1/20")


class PartialIsometry(_Frozen):
    """x -> orient*x + offset, defined on the closed interval dom."""

    __slots__ = ("dom", "orient", "offset")

    def __init__(self, dom: Interval, orient: int, offset: Scalar):
        if orient not in (1, -1):
            raise InvalidSystemError("orientation must be +1 or -1")
        object.__setattr__(self, "orient", orient)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "dom", dom)

    @property
    def ran(self) -> Interval:
        return self.dom.shifted_image(self.orient, self.offset)

    def inverse(self) -> "PartialIsometry":
        return PartialIsometry(self.ran, self.orient,
                               -self.offset if self.orient > 0 else self.offset)

    def apply(self, x: Scalar) -> Scalar | None:
        if not self.dom.contains(x):
            return None
        return (x if self.orient > 0 else -x) + self.offset


class SoISystem:
    """Support multi-interval plus generators, optionally labeled by letters."""

    __slots__ = ("forest", "generators", "labels", "_letter_of_gen",
                 "_inverses")

    def __init__(self, forest: MultiInterval, generators, labels=None):
        generators = tuple(generators)
        if not generators:
            raise InvalidSystemError("a system needs at least one generator")
        inverses = []
        for g in generators:
            if not forest.contains_interval(g.dom):
                raise InvalidSystemError(f"generator domain {g.dom} leaves the support")
            inverses.append(g.inverse())  # its domain is g's range
            if not forest.contains_interval(inverses[-1].dom):
                raise InvalidSystemError(f"generator range {g.ran} leaves the support")
        letter_of_gen = None
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(generators):
                raise InvalidSystemError("one label per generator")
            for lab in labels:
                if not (isinstance(lab, str) and _LETTER.get(lab, 0) > 0):
                    raise InvalidSystemError(f"label {lab!r} is not a basis letter")
            if len(set(labels)) != len(labels):
                raise InvalidSystemError("labels must be distinct")
            letter_of_gen = tuple(map(_LETTER.get, labels))
        object.__setattr__(self, "forest", forest)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_letter_of_gen", letter_of_gen)
        object.__setattr__(self, "_inverses", tuple(inverses))

    def __setattr__(self, *_):
        raise AttributeError("SoISystem is immutable")

    # letters: +i / -i refer to generators[i-1] and its inverse, i = 1..n.

    def letter_map(self, letter: int) -> PartialIsometry:
        if letter > 0:
            return self.generators[letter - 1]
        return self._inverses[-letter - 1]

    def signed_letters(self):
        return ordered_letters(len(self.generators))

    def label_letters(self) -> tuple[int, ...]:
        if self._letter_of_gen is None:
            raise MissingLabelsError(
                "this operation needs generator labels; the system has none")
        return self._letter_of_gen


def total_measure(system: SoISystem) -> Scalar:
    return system.forest.measure


def domain_sum(system: SoISystem) -> Scalar:
    return sum((g.dom.length for g in system.generators), ZERO)


# -- orbits --------------------------------------------------------------------


def _in_support(system: SoISystem, x: Scalar) -> None:
    if not system.forest.contains(x):
        raise OutOfSupportError(f"{x} lies outside the support")


def _layered_search(start, expand, key, points, budgets) -> dict:
    """Breadth-first search from `start`: {budget: (status, points(visited))}.

    `visited` maps each state to its order key, key(state), computed once;
    `expand(state, k)` yields the neighbours of a state of key k.  A budget is
    "truncated" once more than that many states are visited before a layer is
    expanded, and "closed" if the frontier empties first.  Budgets are checked
    between layers only, so no answer depends on the order a layer was visited in.
    """
    visited = {start: key(start)}
    frontier = [start]
    pending = sorted(set(budgets))
    results = {}
    while frontier:
        while pending and len(visited) > pending[0]:
            results[pending.pop(0)] = ("truncated", points(visited))
        if not pending:
            return results
        nxt = []
        for state in frontier:
            for new in expand(state, visited[state]):
                if new not in visited:
                    visited[new] = key(new)
                    nxt.append(new)
        frontier = nxt
    results.update(dict.fromkeys(pending, ("closed", points(visited))))
    return results


def _keyer(d: int):
    """The order key of a state (a, b, ...): floor(2^64 * (a + b*sqrt(d))), or a
    itself when d == 1.  Keys are monotone: a smaller key is a smaller value,
    and only states of equal keys need `_sign`."""
    return itemgetter(0) if d == 1 else lambda s: (s[0] << 64) + (
        isqrt(s[1] * s[1] * d << 128) if s[1] >= 0 else ~isqrt(s[1] * s[1] * d << 128))


def _compile(system: SoISystem, values, scale: int = 1):
    """((den, d, key, maps), pairs) over int pairs (a, b) standing for (a +
    b*sqrt(d))/den, key = _keyer(d): the map of the i-th signed letter becomes
    (orient, oa, ob, lo_a, lo_b, hi_a, hi_b, key(lo), key(hi)), pairs[i] is
    values[i], and `scale` multiplies den and every pair.  The maps' values are
    joined first, so a value of another field fails naming the system's field."""
    maps = [system.letter_map(l) for l in system.signed_letters()]
    k = 3 * len(maps)
    den, d, pairs = _integer_view(
        [v for g in maps for v in (g.offset, g.dom.lo, g.dom.hi)] + list(values))
    pairs, key = [(a * scale, b * scale) for a, b in pairs], _keyer(d)
    maps = [(g.orient, *off, *lo, *hi, key(lo), key(hi)) for g, off, lo, hi
            in zip(maps, pairs[0:k:3], pairs[1:k:3], pairs[2:k:3])]
    return (den * scale, d, key, maps), pairs[k:]


def _compile_sets(system: SoISystem, sets):
    """_compile for Intervals and MultiIntervals: (den, d, maps, kernel sets),
    maps[i] = (letter, (orient, offset, dom)), dom one arc."""
    parts = [s.components if isinstance(s, MultiInterval) else (s,) for s in sets]
    (den, d, _, maps), pairs = _compile(
        system, [e for p in parts for iv in p for e in (iv.lo, iv.hi)])
    maps = [(l, (o, (oa, ob), (((la, lb), (ha, hb)),)))
            for l, (o, oa, ob, la, lb, ha, hb, *_) in zip(system.signed_letters(), maps)]
    ends = zip(pairs[0::2], pairs[1::2])
    return den, d, maps, [tuple(next(ends) for _ in p) for p in parts]


def _between(a: int, b: int, la: int, lb: int, ha: int, hb: int, d: int) -> bool:
    """lo <= p <= hi, exactly: the domain tests' fallback when a key ties an end's."""
    return _sign(a - la, b - lb, d) >= 0 and _sign(ha - a, hb - b, d) >= 0


def _ordered(keyed: dict, d: int) -> list:
    """The pairs of `keyed` (pair -> order key) in increasing order: one sort by
    key, exact by `_sign` only between pairs of equal keys."""
    exact = cmp_to_key(lambda p, q: keyed[p] - keyed[q] or _sign(p[0] - q[0], p[1] - q[1], d))
    return sorted(keyed, key=keyed.get if len(set(keyed.values())) == len(keyed) else exact)


def _texts(keyed: dict, den: int, d: int) -> tuple[str, ...]:
    return tuple(_text(a, b, den, d) for a, b in _ordered(keyed, d))


def orbit(system: SoISystem, x, budget: int, view=None):
    """BFS closure of {x} under all generators and inverses.

    Returns (status, points) with status "closed" or "truncated"; points is
    the texts of the distinct points collected, in increasing order (at most
    budget+ a layer's worth when truncated, deterministically).  Given `view`,
    from `_compile`, x is an int pair and points a dict from pair to key instead.
    A domain test compares keys, and calls `_sign` only on a tie.
    """
    ints = view is not None
    if not ints:
        _in_support(system, x)
        view, (x,) = _compile(system, (x,))
    den, d, key, maps = view

    def expand(p, k):
        a, b = p
        for orient, oa, ob, la, lb, ha, hb, klo, khi in maps:
            if klo < k < khi or klo <= k <= khi and _between(a, b, la, lb, ha, hb, d):
                yield (a + oa, b + ob) if orient > 0 else (oa - a, ob - b)

    status, keyed = _layered_search(x, expand, key, dict, (budget,))[budget]
    return status, keyed if ints else _texts(keyed, den, d)


def finite_orbit_families(system: SoISystem, budget: int) -> dict:
    """Maximal families of finite orbits and their transverse measures.

    The singular orbits cut the support into open intervals; intervals whose
    midpoints share one closed orbit form a single family, whose transverse
    measure is the (common) interval length and whose cardinality is the orbit
    size.  status is "complete" only when every orbit involved closed within
    the budget; otherwise e is unknown and e_lower_bound sums the resolved
    families.  The orbits run on one view in doubled coordinates, where every
    singular point, hence every orbit point and every midpoint, is an int pair.
    """
    view, ends = _compile(system, [e for c in system.forest.components
                                   for e in (c.lo, c.hi)], 2)
    den, d, key, maps = view
    # the singular points: the support's ends and every letter's domain ends
    singular = {p: key(p) for p in ends + [e for m in maps for e in (m[3:5], m[5:7])]}
    union, complete = {}, True
    for p in _ordered(singular, d):
        if p not in union:
            status, pts = orbit(system, p, budget, view)
            union.update(pts)
            complete = complete and status == "closed"
    report = {"budget": budget, "singular_complete": complete}
    if not complete:
        report.update(status="partial", families=[], e=None, e_lower_bound=ZERO)
        return report

    # the support's ends are singular: neighbours in the sorted union bound a
    # gap unless the lower one ends a component
    his, points = set(ends[1::2]), _ordered(union, d)
    gaps = [(p, q) for p, q in zip(points, points[1:]) if p not in his]
    mids = [((p[0] + q[0]) // 2, (p[1] + q[1]) // 2) for p, q in gaps]
    all_mids, families, assigned, e = set(mids), [], set(), (0, 0)
    for (p, q), mid in zip(gaps, mids):
        if mid in assigned:
            continue
        status, pts = orbit(system, mid, budget, view)
        assigned.update(pts)
        if status == "truncated":
            families.append({"interval": _interval((p, q), den, d),
                             "status": "truncated", "observed": len(pts)})
            complete = False
            continue
        if not pts.keys() <= all_mids:
            raise RuntimeError("a finite-orbit family escaped the singular decomposition")
        members = [g for g, m in zip(gaps, mids) if m in pts]
        length = (q[0] - p[0], q[1] - p[1])
        if any((hi[0] - lo[0], hi[1] - lo[1]) != length for lo, hi in members):
            raise RuntimeError("a finite-orbit family mixes gaps of different lengths")
        e = (e[0] + length[0], e[1] + length[1])
        families.append({"interval": _interval(members[0], den, d),
                         "measure": _make(*length, den, d),
                         "cardinality": len(pts), "status": "complete"})
    e = _make(*e, den, d)
    report.update(families=families, status="complete" if complete else "partial",
                  e=e if complete else None, e_lower_bound=e)
    return report


# -- independence and the balance identity --------------------------------------


def _left_words(maps, start, step, max_len: int):
    """(word, state) for the reduced words of length 1 to max_len, by length
    and then in letter order from the left (`maps` pairs the letters with maps).

    A letter is added on the left, since it acts last: a word's state is
    step(g, state) for its first letter's map g and the state of the rest,
    the empty word's state being start.  A word whose step returns None is
    dropped, with every word that extends it.
    """
    layer = [((), start)]
    for _ in range(max_len):
        nxt = []
        for l, g in maps:
            for word, state in layer:
                if word and word[0] == -l:
                    continue
                new = step(g, state)
                if new is not None:
                    nxt.append(((l,) + word, new))
                    yield nxt[-1]
        if not nxt:
            return
        layer = nxt


def independence_check(system: SoISystem, max_len: int) -> dict:
    """Search reduced words up to max_len for one acting as the identity on an arc.

    Compositions are tracked as exact partial maps; branches whose domains
    degenerate to a point (or vanish) are pruned, since no extension can
    recover a nondegenerate fixed arc.
    """
    def compose(g, state):
        # g o old: the domain pulled back through the old map
        orient, offset, dom = state
        dom = dom.intersect(g.dom.shifted_image(orient,
                                                -offset if orient > 0 else offset))
        if dom is None or dom.is_point:
            return None
        return g.orient * orient, (offset if g.orient > 0 else -offset) + g.offset, dom

    parts = system.forest.components
    identity = (1, ZERO, Interval(parts[0].lo, parts[-1].hi))
    maps = [(l, system.letter_map(l)) for l in system.signed_letters()]
    for word, (orient, offset, dom) in _left_words(maps, identity, compose, max_len):
        if orient == 1 and offset.is_zero():
            return {"status": "violation", "word": _letters_text(word),
                    "arc": dom, "word_length": len(word)}
    return {"status": "ok-up-to-budget", "max_len": max_len}


def balance_report(system: SoISystem, max_len: int, budget: int) -> dict:
    """m, d, e and the balance identity e + d = m, with a verdict.

    Verdicts: "dependent-certified" (a relation was found, or d > m, or the
    families are complete but the identity fails — each an exact certificate),
    "identity-verified" (independence holds up to the budget, families are
    complete, and m - d - e = 0 exactly), or "inconclusive-with-data".
    """
    m = total_measure(system)
    d = domain_sum(system)
    excess = m - d
    ind = independence_check(system, max_len)
    fam = finite_orbit_families(system, budget)
    report = {
        "m": m, "d": d, "excess": excess,
        "independence": ind,
        "families_status": fam["status"],
        "e": fam["e"],
        "e_lower_bound": fam["e_lower_bound"],
        "residual": None,
        "max_len": max_len, "budget": budget,
    }
    if fam["status"] == "complete":
        report["residual"] = excess - fam["e"]
    if ind["status"] == "violation":
        report["verdict"] = "dependent-certified"
        report["message"] = (f"the word {ind['word']} fixes the arc {ind['arc']}: "
                             "the generators satisfy a relation")
    elif excess.sign() < 0:
        report["verdict"] = "dependent-certified"
        report["message"] = ("domain measures exceed the support (d > m), "
                             "impossible for independent generators")
    elif fam["status"] == "complete":
        if report["residual"].is_zero():
            report["verdict"] = "identity-verified"
            report["message"] = "e + d = m holds exactly"
        else:
            report["verdict"] = "dependent-certified"
            report["message"] = (f"families are complete but m - d - e = "
                                 f"{report['residual']} != 0: the generators "
                                 "satisfy a relation beyond the word budget")
    else:
        report["verdict"] = "inconclusive-with-data"
        report["message"] = ("orbit budget exhausted before the families closed; "
                             f"e >= {fam['e_lower_bound']} is certified")
    return report


# -- the support iteration -------------------------------------------------------


def grow_forest(system: SoISystem, start: MultiInterval, steps: int) -> list[dict]:
    """Iterate F_i = F_{i-1} union of generator/inverse images, with balance data.

    Each stage restricts the system to the current support (a generator's
    restricted domain keeps only points mapped back into the support) and
    records m, d and the residual m - d.  The residual sequence is provably
    non-increasing; a violation would be an arithmetic bug, hence RuntimeError.
    """
    if not system.forest.contains_multi(start):
        raise OutOfSupportError("the starting multi-interval leaves the support")
    den, d, maps, (support,) = _compile_sets(system, (start,))
    stages, prev = [], None
    for step in range(steps + 1):
        images = [(l, _shifted(_intersect(support, dom, d), orient, offset))
                  for l, (orient, offset, dom) in maps]
        m = _measure(support)
        dm = _measure([c for l, img in images if l > 0
                       for c in _intersect(img, support, d)])
        residual = (m[0] - dm[0], m[1] - dm[1])
        if prev is not None and _sign(residual[0] - prev[0], residual[1] - prev[1], d) > 0:
            raise RuntimeError(
                "support-iteration residual increased; this contradicts the "
                "new-point injection argument and indicates an arithmetic bug")
        prev = residual
        stages.append({"step": step, "support": _multi(support, den, d),
                       "m": _make(*m, den, d), "d": _make(*dm, den, d),
                       "residual": _make(*residual, den, d)})
        if step < steps:
            for _, img in images:
                support = _union(support, img, d)
    return stages


# -- support covers and chain covers ---------------------------------------------


def _image_candidates(maps, seed, d: int, max_len: int):
    """(word, image) pairs for reduced words up to max_len, deduplicated by image.

    Kernel sets over _compile_sets' maps, grown by composing on the left (new =
    g o old), pruning images of measure zero (empty, or points only); a
    repeated image keeps only its first (shortest, earliest) word.
    """
    seen = {seed}

    def image(g, img):
        orient, offset, dom = g
        img = _intersect(img, dom, d)
        if _sign(*_measure(img), d) > 0:
            img = _shifted(img, orient, offset)
            if img not in seen:
                seen.add(img)
                return img

    return [((), seed), *_left_words(maps, seed, image, max_len)]


def ae_support_check(system: SoISystem, f_eps: MultiInterval, target: Interval,
                     delta: Scalar, max_len: int) -> dict:
    """Greedily cover the target interval by word-images of f_eps, up to measure delta.

    Returns the witness words when the uncovered measure drops below delta,
    or budget-exhausted when no candidate image adds coverage.
    """
    if delta.sign() <= 0:
        raise InvalidSystemError("delta must be positive")
    if not system.forest.contains_interval(target):
        raise OutOfSupportError("target interval leaves the support")
    if not system.forest.contains_multi(f_eps):
        raise OutOfSupportError("the covering seed leaves the support")

    den, d, maps, (seed, aim) = _compile_sets(system, (f_eps, target))
    cands = _image_candidates(maps, seed, d, max_len)
    # (A u B) n T = (A n T) u (B n T): clip every image to the target once
    clipped = [(word, c, _measure(c)) for word, img in cands
               for c in (_intersect(img, aim, d),)]
    covered, words = (), []
    while True:
        uncovered = target.length - _make(*_measure(covered), den, d)
        if delta > uncovered:
            return {"status": "covered", "words": [_letters_text(w) for w in words],
                    "uncovered_measure": uncovered, "delta": delta,
                    "candidates": len(cands), "max_len": max_len}
        # an image adds its measure less that of its meet with the covered
        # set; one that adds nothing now never will, and is dropped
        best, gain, live = None, (0, 0), []
        for entry in clipped:
            word, img, (ia, ib) = entry
            ma, mb = _measure(_intersect(covered, img, d))
            if _sign(ia - ma, ib - mb, d) > 0:
                live.append(entry)
                if _sign(ia - ma - gain[0], ib - mb - gain[1], d) > 0:
                    best, gain = (word, img), (ia - ma, ib - mb)
        clipped = live
        if best is None:
            return {"status": "budget-exhausted",
                    "uncovered_measure": uncovered, "delta": delta,
                    "words": [_letters_text(w) for w in words],
                    "candidates": len(cands), "max_len": max_len}
        words.append(best[0])
        covered = _union(covered, best[1], d)


def indecomposability_search(system: SoISystem, piece: Interval, target: Interval,
                             r_max: int, max_len: int) -> dict:
    """Chain word-images of `piece` across `target` with nondegenerate overlaps.

    Searches for g_1..g_r (r <= r_max, each |g_i| <= max_len) such that the
    images g_i(piece) cover `target` and consecutive images overlap in a
    nondegenerate arc.  The found chain is re-verified exactly; r_max 0 builds no image.
    """
    for iv in (piece, target):
        if iv.is_point:
            raise InvalidSystemError("piece and target must be nondegenerate")
        if not system.forest.contains_interval(iv):
            raise OutOfSupportError(f"{iv} leaves the support")
    if r_max < 1:
        return {"status": "exhausted", "chained": 0, "r_max": r_max,
                "max_len": max_len, "candidates": 0}
    if piece.contains_interval(target):
        chain = [{"word": "", "interval": piece}]
        return {"status": "chain-found", "chain": chain, "r": 1,
                "r_max": r_max, "max_len": max_len}

    den, d, maps, (seed, ((t_lo, t_hi),)) = _compile_sets(system, (piece, target))
    cands = [(w, img[0]) for w, img in _image_candidates(maps, seed, d, max_len)]

    def below(p, q):  # p < q
        return _sign(q[0] - p[0], q[1] - p[1], d) > 0

    chain, reach = [], None
    while len(chain) < r_max:
        best = None
        for w, (lo, hi) in cands:
            if ((below(lo, reach) if chain else
                 not below(t_lo, lo) and below(t_lo, hi))
                    and (best is None or below(best[1][1], hi))):
                best = (w, (lo, hi))
        if best is None or (chain and not below(reach, best[1][1])):
            break
        chain.append(best)
        reach = best[1][1]
        if not below(reach, t_hi):
            chain = [(w, _interval(c, den, d)) for w, c in chain]
            _verify_chain(system, piece, target, chain)
            return {"status": "chain-found",
                    "chain": [{"word": _letters_text(w), "interval": iv}
                              for w, iv in chain],
                    "r": len(chain), "r_max": r_max, "max_len": max_len}
    return {"status": "exhausted", "chained": len(chain), "r_max": r_max,
            "max_len": max_len, "candidates": len(cands)}


def _verify_chain(system: SoISystem, piece: Interval, target: Interval, chain):
    covered = MultiInterval([iv for _, iv in chain])
    if not covered.contains_interval(target):
        raise RuntimeError("chain fails to cover the target")
    for (_, a), (_, b) in zip(chain, chain[1:]):
        overlap = a.intersect(b)
        if overlap is None or overlap.is_point:
            raise RuntimeError("consecutive chain images must overlap in an arc")
    for word, iv in chain:
        if _word_image(system, word, piece) != iv:
            raise RuntimeError("chain image failed exact re-verification")


def _word_image(system: SoISystem, letters, piece: Interval) -> Interval | None:
    """The image of `piece` under the word, rightmost letter first; None if empty."""
    for l in reversed(letters):
        g = system.letter_map(l)
        piece = piece.intersect(g.dom)
        if piece is None:
            return None
        piece = piece.shifted_image(g.orient, g.offset)
    return piece


# -- subgroup-constrained dynamics ------------------------------------------------


def _gen_letter_index(system: SoISystem, graph: StallingsGraph):
    letters = system.label_letters()
    if max(letters) > graph.rank:
        raise InvalidSystemError(
            "system labels use letters beyond the subgroup graph's rank")
    return letters


def subgroup_constrained_orbit(system: SoISystem, graph: StallingsGraph, x,
                               budget: int, snapshots=None, ints: bool = False):
    """Orbit of x under subgroup words only, tracked through the subgroup graph.

    States are (point, graph vertex); a generator moves the point while its
    label letter moves along the graph.  Returns (status, points) where the
    points are the texts, in increasing order, of those whose state sits at
    the graph basepoint — the orbit under the subgroup's elements.  The search
    stops, truncated, before expanding a layer once more than `budget` states are visited.

    Given a list of `snapshots`, one breadth-first search answers several
    budgets: the call returns a dict from `budget` and each budget in
    `snapshots` to the (status, points) a call with that budget alone would
    return.  With `ints`, each points is a dict from int pair to order key, and
    the call returns ((den, d, key), that answer), as `_compile` gives them.
    """
    letters = _gen_letter_index(system, graph)
    _in_support(system, x)
    (den, d, key, maps), (x,) = _compile(system, (x,))
    moves = list(zip(maps, [s * l for l in letters for s in (1, -1)]))

    def expand(state, k):
        a, b, vertex = state
        darts = graph.darts_at(vertex)
        for (orient, oa, ob, la, lb, ha, hb, klo, khi), letter in moves:
            if klo < k < khi or klo <= k <= khi and _between(a, b, la, lb, ha, hb, d):
                w = darts.get(letter)
                if w is not None:
                    yield ((a + oa, b + ob, w) if orient > 0
                           else (oa - a, ob - b, w))

    def at_base(visited):
        keyed = {(a, b): k for (a, b, v), k in visited.items() if v == graph.base}
        return keyed if ints else _texts(keyed, den, d)

    results = _layered_search((*x, graph.base), expand, key, at_base,
                              (budget, *(snapshots or ())))
    results = results[budget] if snapshots is None else results
    return ((den, d, key), results) if ints else results


def subgroup_saturation(system: SoISystem, graph: StallingsGraph,
                        piece: Interval, max_len: int, steps: int) -> dict:
    """Saturate `piece` by subgroup translates that meet the growing set in an arc.

    Each pass adds every translate h(piece) (h a subgroup element of length
    <= max_len realizable through the labels) whose intersection with the
    current set has positive measure; saturated means a full pass added
    nothing new.
    """
    from .stallings import subgroup_elements
    letters = _gen_letter_index(system, graph)
    if not system.forest.contains_interval(piece):
        raise OutOfSupportError("the starting interval leaves the support")
    den, d, maps, (seed,) = _compile_sets(system, (piece,))
    map_of = {s * letter: maps[2 * gi + (s < 0)][1]
              for gi, letter in enumerate(letters) for s in (1, -1)}

    translates, rejected = [], 0
    for h in subgroup_elements(graph, max_len):
        if any(l not in map_of for l in h):
            rejected += 1
            continue
        img = seed
        for l in reversed(h):
            orient, offset, dom = map_of[l]
            img = _shifted(_intersect(img, dom, d), orient, offset)
        if _sign(*_measure(img), d) > 0:
            translates.append((h, img))

    support = seed
    saturated = False
    used = 0
    added_words = []
    for _ in range(steps):
        additions = []
        for h, img in translates:
            # img is one arc: it lies in the support or meets it in less
            meet = _intersect(support, img, d)
            if meet != img and _sign(*_measure(meet), d) > 0:
                additions.append((h, img))
        if not additions:
            saturated = True
            break
        used += 1
        for h, img in additions:
            support = _union(support, img, d)
            added_words.append(_letters_text(h))
    return {"support": _multi(support, den, d), "saturated": saturated,
            "steps_used": used,
            "translates_added": added_words, "rejected_words": rejected,
            "max_len": max_len}


def discreteness_report(system: SoISystem, graph: StallingsGraph, samples,
                        budget: int) -> dict:
    """Heuristic density diagnostic for the subgroup-constrained dynamics.

    suggests-discrete: every sampled constrained orbit closed; the reported
    minimum gap is exact.  suggests-dense: some orbit kept growing past the
    budget and consecutive collected points come closer than 1/20 of the
    support measure.  Anything else: inconclusive.  The verdict is explicitly
    heuristic: finite budgets cannot prove density.
    """
    budgets = sorted({min(max(budget // k, 1), budget) for k in (4, 2, 1)})
    rows, growth, min_gap = [], {b: [] for b in budgets}, None
    for x in samples:
        (den, d, key), runs = subgroup_constrained_orbit(system, graph, x, budgets[-1],
                                                         budgets[:-1], True)
        for b in budgets:
            growth[b].append(len(runs[b][1]))
        status, keyed = runs[budgets[-1]]
        rows.append({"sample": x, "status": status, "orbit_size": len(keyed)})
        points = _ordered(keyed, d)
        gaps = [(qa - pa, qb - pb) for (pa, pb), (qa, qb) in zip(points, points[1:])]
        if gaps and (min_gap is None or min_gap.d in (1, d)):
            gaps = _ordered({g: key(g) for g in gaps}, d)[:1]  # the least gap alone
        for g in gaps:  # after a gap of another field, each in turn: the same ones fail
            gap = _make(*g, den, d)
            if min_gap is None or gap < min_gap:
                min_gap = gap
    threshold = total_measure(system) * _TWENTIETH
    if all(row["status"] == "closed" for row in rows):
        verdict = "suggests-discrete"
    elif min_gap is not None and min_gap < threshold:  # some orbit truncated
        verdict = "suggests-dense"
    else:
        verdict = "inconclusive"
    return {
        "verdict": verdict,
        "heuristic": True,
        "min_gap": min_gap,
        "gap_threshold": threshold,
        "samples": rows,
        "growth": [{"budget": b, "orbit_sizes": growth[b]} for b in budgets],
        "budget": budget,
    }
