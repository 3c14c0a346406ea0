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

from .core import (Scalar, ZERO, _LETTER, _Frozen, _integer_view, _letters_text, _make,
                   _sign, ordered_letters)
from .errors import (
    InvalidSystemError,
    MissingLabelsError,
    OutOfSupportError,
)
from .intervals import Interval, MultiInterval

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
        for g in generators:
            if not forest.contains_interval(g.dom):
                raise InvalidSystemError(f"generator domain {g.dom} leaves the support")
            if not forest.contains_interval(g.ran):
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
        object.__setattr__(self, "_inverses",
                           tuple(g.inverse() for g in generators))

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
    total = ZERO
    for g in system.generators:
        total = total + g.dom.length
    return total


# -- orbits --------------------------------------------------------------------


def _in_support(system: SoISystem, x: Scalar) -> None:
    if not system.forest.contains(x):
        raise OutOfSupportError(f"{x} lies outside the support")


def _layered_search(start, expand, points, budgets) -> dict:
    """Breadth-first search from `start`: {budget: (status, points(visited))}.

    `expand(state)` yields a state's neighbours.  A budget is "truncated" once
    more than that many states are visited before a layer is expanded, and
    "closed" if the frontier empties first.  Budgets are checked between
    layers only, so no answer depends on the order a layer was visited in.
    """
    visited = {start}
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
            for new in expand(state):
                if new not in visited:
                    visited.add(new)
                    nxt.append(new)
        frontier = nxt
    results.update(dict.fromkeys(pending, ("closed", points(visited))))
    return results


def _compile(system: SoISystem, letters, x):
    """(den, d, maps, x) over int pairs (a, b) standing for (a + b*sqrt(d))/den;
    each letter's map becomes (orient, oa, ob, lo_a, lo_b, hi_a, hi_b).  The
    maps' values are joined first, so a point of another field is what fails."""
    maps = [system.letter_map(l) for l in letters]
    den, d, pairs = _integer_view(
        [v for g in maps for v in (g.offset, g.dom.lo, g.dom.hi)] + [x])
    return den, d, [(g.orient, *off, *lo, *hi) for g, off, lo, hi in
                    zip(maps, pairs[0::3], pairs[1::3], pairs[2::3])], pairs[-1]


def _scalars(pairs, den: int, d: int) -> tuple[Scalar, ...]:
    """Int `pairs` as Scalars sorted exactly: irrational ones by the monotone
    floor(2^64 * (a + b*sqrt(d))) first, so the sign test after is near-linear."""
    if d > 1:
        root = lambda b: isqrt(b * b * d << 128)
        pairs = sorted(pairs, key=lambda p: (p[0] << 64) + (
            root(p[1]) if p[1] >= 0 else ~root(p[1])))
    pairs = sorted(pairs, key=None if d == 1 else cmp_to_key(
        lambda p, q: _sign(p[0] - q[0], p[1] - q[1], d)))
    return tuple(_make(a, b, den, d) for a, b in pairs)


def orbit(system: SoISystem, x, budget: int):
    """BFS closure of {x} under all generators and inverses.

    Returns (status, points) with status "closed" or "truncated"; points is
    the sorted tuple of distinct points collected (at most budget+ a layer's
    worth when truncated, deterministically).
    """
    _in_support(system, x)
    den, d, maps, start = _compile(system, system.signed_letters(), x)

    def expand(p):
        a, b = p
        for orient, oa, ob, la, lb, ha, hb in maps:
            if _sign(a - la, b - lb, d) >= 0 and _sign(ha - a, hb - b, d) >= 0:
                yield (a + oa, b + ob) if orient > 0 else (oa - a, ob - b)

    return _layered_search(start, expand, lambda v: _scalars(v, den, d),
                           (budget,))[budget]


def singular_points(system: SoISystem) -> tuple[Scalar, ...]:
    """Endpoints of generator domains and ranges plus support components, sorted."""
    pts = set(system.forest.endpoints())
    for g in system.generators:
        pts.update((g.dom.lo, g.dom.hi, g.ran.lo, g.ran.hi))
    return tuple(sorted(pts))


def finite_orbit_families(system: SoISystem, budget: int) -> dict:
    """Maximal families of finite orbits and their transverse measures.

    The singular orbits cut the support into open intervals; intervals whose
    midpoints share one closed orbit form a single family, whose transverse
    measure is the (common) interval length and whose cardinality is the orbit
    size.  status is "complete" only when every orbit involved closed within
    the budget; otherwise e is unknown and e_lower_bound sums the resolved
    families.
    """
    report = {"budget": budget}
    union: set[Scalar] = set()
    singular_complete = True
    for p in singular_points(system):
        if p in union:
            continue
        status, pts = orbit(system, p, budget)
        union.update(pts)
        if status == "truncated":
            singular_complete = False
    report["singular_complete"] = singular_complete
    if not singular_complete:
        report.update(status="partial", families=[], e=None, e_lower_bound=ZERO)
        return report

    gaps: list[Interval] = []
    for comp in system.forest.components:
        pts = sorted(q for q in union if comp.contains(q))
        for a, b in zip(pts, pts[1:]):
            if a != b:
                gaps.append(Interval(a, b))

    midpoints = [g.midpoint for g in gaps]
    all_midpoints = set(midpoints)
    families = []
    assigned: set[Scalar] = set()
    complete = True
    for gap, mid in zip(gaps, midpoints):
        if mid in assigned:
            continue
        status, pts = orbit(system, mid, budget)
        assigned.update(pts)
        if status == "truncated":
            families.append({"interval": gap, "status": "truncated",
                             "observed": len(pts)})
            complete = False
            continue
        orbit_points = set(pts)
        if not orbit_points <= all_midpoints:
            raise RuntimeError("a finite-orbit family escaped the singular decomposition")
        members = [g for g, m in zip(gaps, midpoints) if m in orbit_points]
        if any(g.length != gap.length for g in members):
            raise RuntimeError("a finite-orbit family mixes gaps of different lengths")
        families.append({"interval": members[0], "measure": gap.length,
                         "cardinality": len(pts), "status": "complete"})

    e_lower = ZERO
    for fam in families:
        if fam["status"] == "complete":
            e_lower = e_lower + fam["measure"]
    report["families"] = families
    report["status"] = "complete" if complete else "partial"
    report["e"] = e_lower if complete else None
    report["e_lower_bound"] = e_lower
    return report


# -- independence and the balance identity --------------------------------------


def _left_words(system: SoISystem, start, step, max_len: int):
    """(word, state) for the reduced words of length 1 to max_len, by length
    and then in letter order from the left.

    A letter is added on the left, since it acts last: a word's state is
    step(g, state) for its first letter's map g and the state of the rest,
    the empty word's state being start.  A word whose step returns None is
    dropped, with every word that extends it.
    """
    maps = [(l, system.letter_map(l)) for l in system.signed_letters()]
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
    for word, (orient, offset, dom) in _left_words(system, identity, compose, max_len):
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
    stages = []
    support = start
    prev = None
    for step in range(steps + 1):
        m = support.measure
        d = ZERO
        for g in system.generators:
            clipped = support.intersect(g.dom)
            image_back = clipped.shifted_image(g.orient, g.offset).intersect(support)
            d = d + image_back.measure
        residual = m - d
        if prev is not None and residual > prev:
            raise RuntimeError(
                "support-iteration residual increased; this contradicts the "
                "new-point injection argument and indicates an arithmetic bug")
        stages.append({"step": step, "support": support, "m": m, "d": d,
                       "residual": residual})
        prev = residual
        if step == steps:
            break
        grown = support
        for i in range(1, len(system.generators) + 1):
            for iso in (system.letter_map(i), system.letter_map(-i)):
                grown = grown.union(
                    support.intersect(iso.dom).shifted_image(iso.orient, iso.offset))
        support = grown
    return stages


# -- support covers and chain covers ---------------------------------------------


def _image_candidates(system: SoISystem, seed, max_len: int):
    """(word, image) pairs for reduced words up to max_len, deduplicated by image.

    The seed is an Interval or a MultiInterval, and its images are of the
    same type.  Images are grown by composing on the left (new = g o old),
    pruning empty or measure-zero images; a repeated image keeps only its
    first (shortest, earliest) word.
    """
    interval_only = isinstance(seed, Interval)
    seen = {seed}

    def image(g, img):
        if interval_only:
            img = img.intersect(g.dom)
            if img is None or img.is_point:
                return None
            img = img.shifted_image(g.orient, g.offset)
        else:
            img = img.intersect(g.dom).shifted_image(g.orient, g.offset)
            if img.measure.sign() <= 0:
                return None
        if img in seen:
            return None
        seen.add(img)
        return img

    return [((), seed), *_left_words(system, seed, image, max_len)]


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

    cands = _image_candidates(system, f_eps, max_len)
    # (A u B) n T = (A n T) u (B n T): clip every image to the target once
    clipped = [(word, img.intersect(target)) for word, img in cands]
    covered = MultiInterval()
    words = []
    while True:
        base = covered.measure
        uncovered = target.length - base
        if delta > uncovered:
            return {"status": "covered", "words": [_letters_text(w) for w, _ in words],
                    "uncovered_measure": uncovered, "delta": delta,
                    "candidates": len(cands), "max_len": max_len}
        best = None
        best_gain = ZERO
        for word, img in clipped:
            gain = covered.union(img).measure - base
            if gain > best_gain:
                best, best_gain = (word, img), gain
        if best is None:
            return {"status": "budget-exhausted",
                    "uncovered_measure": uncovered, "delta": delta,
                    "words": [_letters_text(w) for w, _ in words],
                    "candidates": len(cands), "max_len": max_len}
        words.append(best)
        covered = covered.union(best[1])


def indecomposability_search(system: SoISystem, piece: Interval, target: Interval,
                             r_max: int, max_len: int) -> dict:
    """Chain word-images of `piece` across `target` with nondegenerate overlaps.

    Searches for g_1..g_r (r <= r_max, each |g_i| <= max_len) such that the
    images g_i(piece) cover `target` and consecutive images overlap in a
    nondegenerate arc.  The found chain is re-verified exactly.
    """
    for iv in (piece, target):
        if iv.is_point:
            raise InvalidSystemError("piece and target must be nondegenerate")
        if not system.forest.contains_interval(iv):
            raise OutOfSupportError(f"{iv} leaves the support")
    if r_max >= 1 and piece.contains_interval(target):
        chain = [{"word": "", "interval": piece}]
        return {"status": "chain-found", "chain": chain, "r": 1,
                "r_max": r_max, "max_len": max_len}

    cands = _image_candidates(system, piece, max_len)
    chain = []
    reach = None
    while len(chain) < r_max:
        if chain:
            eligible = [(w, iv) for w, iv in cands if iv.lo < reach]
        else:
            eligible = [(w, iv) for w, iv in cands
                        if iv.lo <= target.lo
                        and iv.hi > target.lo]
        best = None
        for w, iv in eligible:
            if best is None or iv.hi > best[1].hi:
                best = (w, iv)
        if best is None or (chain and best[1].hi <= reach):
            return {"status": "exhausted", "chained": len(chain),
                    "r_max": r_max, "max_len": max_len,
                    "candidates": len(cands)}
        chain.append(best)
        reach = best[1].hi
        if reach >= target.hi:
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
                               budget: int, snapshots=None):
    """Orbit of x under subgroup words only, tracked through the subgroup graph.

    States are (point, graph vertex); a generator moves the point while its
    label letter moves along the graph.  Returns (status, points) where the
    points are those whose state sits at the graph basepoint — the orbit under
    the subgroup's elements.  The search stops, truncated, before expanding a
    layer once more than `budget` states are visited.

    Given a list of `snapshots`, one breadth-first search answers several
    budgets: the call returns a dict from `budget` and each budget in
    `snapshots` to the (status, points) a call with that budget alone would
    return.
    """
    letters = _gen_letter_index(system, graph)
    _in_support(system, x)
    signed = [(s * (i + 1), s * l) for i, l in enumerate(letters) for s in (1, -1)]
    den, d, maps, (xa, xb) = _compile(system, [g for g, _ in signed], x)
    moves = [(m, letter) for m, (_, letter) in zip(maps, signed)]

    def expand(state):
        a, b, vertex = state
        for (orient, oa, ob, la, lb, ha, hb), letter in moves:
            if _sign(a - la, b - lb, d) >= 0 and _sign(ha - a, hb - b, d) >= 0:
                w = graph.step(vertex, letter)
                if w is not None:
                    yield ((a + oa, b + ob, w) if orient > 0
                           else (oa - a, ob - b, w))

    def at_base(visited):
        return _scalars({(a, b) for a, b, v in visited if v == graph.base},
                        den, d)

    results = _layered_search((xa, xb, graph.base), expand, at_base,
                              (budget, *(snapshots or ())))
    return results[budget] if snapshots is None else results


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
    letter_to_gen = {letter: gi + 1 for gi, letter in enumerate(letters)}

    translates = []
    rejected = 0
    for h in subgroup_elements(graph, max_len):
        if any(abs(l) not in letter_to_gen for l in h):
            rejected += 1
            continue
        gen_word = [letter_to_gen[l] if l > 0 else -letter_to_gen[-l] for l in h]
        img = _word_image(system, gen_word, piece)
        if img is None or img.is_point:
            continue
        translates.append((h, img))

    support = MultiInterval([piece])
    saturated = False
    used = 0
    added_words = []
    for _ in range(steps):
        additions = []
        for h, img in translates:
            if support.contains_interval(img):
                continue
            if support.intersect(img).measure.sign() > 0:
                additions.append((h, img))
        if not additions:
            saturated = True
            break
        used += 1
        for h, img in additions:
            support = support.union(img)
            added_words.append(_letters_text(h))
    return {"support": support, "saturated": saturated, "steps_used": used,
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
    rows = []
    growth = {b: [] for b in budgets}
    all_closed = True
    any_truncated = False
    min_gap = None
    for x in samples:
        runs = subgroup_constrained_orbit(system, graph, x, budgets[-1],
                                          budgets[:-1])
        for b in budgets:
            growth[b].append(len(runs[b][1]))
        status, points = runs[budgets[-1]]
        rows.append({"sample": x, "status": status,
                     "orbit_size": len(points)})
        if status != "closed":
            all_closed = False
            any_truncated = True
        for a, bpt in zip(points, points[1:]):
            gap = bpt - a
            if gap.sign() > 0 and (min_gap is None or gap < min_gap):
                min_gap = gap
    threshold = total_measure(system) * _TWENTIETH
    if all_closed:
        verdict = "suggests-discrete"
    elif any_truncated and min_gap is not None and min_gap < threshold:
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
