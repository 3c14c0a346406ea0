"""Independent reference computations used by the tests.

These deliberately avoid the engine's algorithms: conjugacy classes are
enumerated by brute rotation/inversion canonicalization, and translation
lengths are recovered by minimizing the displacement function over a net
of vertices along the lifted basepoint path (the displacement of a tree
isometry is linear on every edge and its minimum is attained on the axis,
which the path from any point to its image must cross).

:class:`FractionScalar` is the straightforward Fraction-backed quadratic
scalar that the integer-backed ``grouptrees.core.Scalar`` must agree with.

:func:`reduce_letters` is the free reduction by stack that
``grouptrees.core.product`` replaced: it pushes every letter of the
concatenation, where ``product`` cancels only at the seams of reduced pieces.

:func:`compacting_fold` is ``grouptrees.folding.fold`` when it numbered its
survivors compactly, by least original vertex, and returned one decoration
map per vertex; :func:`compact` turns the folder's result into that form.
:func:`sweep_fold` and :func:`sweep_invert_basis` are the two quadratic
folders the worklist engine replaced: the first re-sweeps every edge until
nothing changes (:func:`sweep_classes` names each vertex's class by its least
vertex), the second rescans all edges per collision and rewrites all edges
per merge.  :func:`unionfind_fold` is that worklist engine, which the
online folder in ``grouptrees.folding`` replaced: a queue of edges over a
union-find of vertex classes with one slot per signed label, carrying
decorations as gauge words relative to union-find parents, and keeping the
larger class (the basepoint's class always).  :func:`substitute` applies a
substitution x_j -> w_j by plain free reduction.  :func:`layered_trim` is the
trimming loop that :func:`edge_list_trim` replaced: it recomputes every
degree once per peeled layer.  :func:`edge_list_trim` is the worklist trim
on a sorted edge list that ``grouptrees.folding.trim``, which deletes from
dart maps in place, replaced.

:func:`loop_omega` is ``MarkedMetricGraph.omega_epsilon`` before it read
each class's crossings from rows shared per marking: it chains and reduces
the letter loops of every class on every call.

:func:`filter_conjugacy_classes` is the conjugacy enumerator the necklace
search in ``grouptrees.core`` replaced: it builds every reduced word, layer
by layer, and keeps a word when no rotation of it or of its inverse is
smaller.

:func:`sorted_frontier_orbit` is the plain orbit before it shared one
breadth-first search with the subgroup-constrained orbit: it expands each
layer in sorted order.

:func:`single_budget_orbit` and :func:`three_run_discreteness_report` are
the subgroup-constrained orbit and the discreteness report before one
breadth-first search answered several budgets: the report ran the search
from scratch at budgets b/4, b/2 and b.

:func:`scalars` is ``isometry_systems._scalars``, through which the orbit
searches returned their points before they printed each point's text
straight from its int pair: one normalised ``Scalar`` per point, in order,
whose ``str`` the report then took.  :func:`scalar_orbit` and
:func:`scalar_sub_orbit` are ``orbit`` and ``subgroup_constrained_orbit``
on that route, and :func:`scalar_orbit_result` is the ``soi orbit`` or ``soi
sub-orbit`` result it gave, ``Scalar`` points and all; :func:`point_texts`
turns an oracle's ``(status, Scalars)`` into ``(status, texts)``.

:func:`scalar_finite_orbit_families` and :func:`scalar_discreteness_report`
are ``soi families`` and ``soi discrete`` before they ran on int pairs with
order keys: the families take the sorted :func:`singular_points` (which read
the support's ends with :func:`multi_endpoints`, once
``MultiInterval.endpoints``) and run one orbit per point and per gap
midpoint on ``Scalar``s, each orbit here by :func:`sorted_frontier_orbit`;
the report builds and sorts ``Scalar`` points at every snapshot and takes
one ``Scalar`` difference per pair of neighbours for its minimum gap.

:func:`rebuilding_ae_support_check` is ``soi cover``'s greedy before it
clipped every candidate image to the target once: each round rebuilds every
candidate's union with the covered set and intersects it with the target.
:func:`multi_intersect`, :func:`multi_union` and :func:`multi_shifted_image`
are the ``MultiInterval`` methods the support engines used before they ran
on the integer kernel of ``grouptrees.intervals``: each builds its answer
from ``Interval``s of ``Scalar``s and sorts and merges it in
``MultiInterval``'s constructor.  :func:`scalar_image_candidates`,
:func:`scalar_ae_support_check`, :func:`scalar_grow_forest`,
:func:`scalar_indecomposability_search` and
:func:`scalar_subgroup_saturation` are the engines of that time, built on
them: ``_image_candidates`` had one branch for an ``Interval`` seed and one
for a ``MultiInterval`` seed, and ``--chain-max 0`` still built every
candidate image.

:func:`layered_independence_check` and :func:`layered_image_candidates` are
``grouptrees.isometry_systems.independence_check`` and ``_image_candidates``
before they shared one walk over reduced words: each writes out its own
layer loop, and the first writes out its first layer twice, so that it
searches the words of length 1 even at budget 0.

:func:`two_phase_hall_bases` is the private two-phase spanning-tree search
``grouptrees.stallings.hall_completion`` ran before it shared
``spanning_tree_paths`` with ``basis_of``.  :func:`full_spanning_tree_paths`
is that shared search before it kept parent darts: it stores the letter path
of every vertex, so it is quadratic on deep graphs.  Both search the graph
again, where the package now reads its tree off the walk of
``grouptrees.stallings._canonical``, and grows a Hall cover's tree from the
subgroup's own.  :func:`product_loop_letters` is the loop of
``grouptrees.stallings._tree_loops`` before it concatenated its three
pieces: it reduces the tree path, the non-tree letter and the inverse tree
path with ``product``.

:func:`grow_ball`, :func:`ball_translate_intersection` and
:func:`ball_transverse_family_report` compare translates of a minimal subtree
the way ``grouptrees.marked_graphs`` did before it walked the subtree only:
they grow whole radius balls of the universal cover, step the walker over
every edge of them, and filter double cosets with all 64 x 64 pairs.  They
are the engine's code of that time, except that ``vertex_on_subtree`` and
the graph's out-edge lists are computed here.  The walker itself
(:func:`initial_state`, :func:`state_vertex`, :func:`step`, :func:`walk`) is
``grouptrees.marked_graphs.CoverCore``'s before the engine read reduced
loops in P instead: it tracks a vertex of the full cover as a P-vertex plus
a stack of darts hanging off it, and reports for every edge crossed whether
that edge lies in the minimal subtree.  :func:`filter_subgroup_elements` is
``grouptrees.stallings.subgroup_elements`` before it walked the core graph:
it tests every reduced word for membership.

:func:`every_translate_family_report` is
``grouptrees.marked_graphs.transverse_family_report`` before it decided
which translates meet the minimal subtree: it runs the engine's radius-ball
comparison on every translate that passes the double-coset filter, and
builds the basepoint's ball before its loop.

:class:`DataclassBoundaryRay` and :class:`DataclassRationalLeaf` are the
object form of rays and leaves that ``grouptrees.laminations`` kept before
it stored both as canonical letter tuples: a ray of two ``Word``s, checked
and canonicalised on construction, and a leaf of two rays, stored sorted.
The ray canonicalises with :func:`popping_canonical_ray`, the list-popping
loop of that time, and both print their own text.
:func:`object_periodic_leaf` splits off the conjugator with
:func:`cyclic_reduce`, the ``Word`` method of that time.
:func:`object_boundary_membership` reads the prefix and as many periods as
the graph has vertices, where the engine looks for a repeated vertex,
and :func:`object_carries` tests both rays with it.
:func:`object_carrier_scan` is ``grouptrees.laminations.carrier_scan``
before its translate loop worked on letter tuples: it builds a ``Word``,
two rays and a leaf per translate, through :func:`translate_ray` and
:func:`translate_leaf`, and tests them with :func:`object_carries`.

:class:`DataclassWord`, :class:`DataclassInterval`,
:class:`DataclassPartialIsometry`, :class:`DataclassScenario` and
:class:`DataclassHallWitness` are the frozen dataclasses that the engine's
value classes were before they became plain ``__slots__`` classes: the
same fields, defaults and ``__post_init__`` validation, with the dataclass
machinery's ``==``, ``hash`` and ``repr``.  Their fields hold the engine's
own values (a ``Scalar``, a ``Word``, an ``Interval``), so old and new can
be compared directly.

:func:`out_inc_darts`, :func:`pair_hall_completion`,
:func:`probe_fiber_product` and :func:`adjacency_letter_loops` read graphs
the way the engine did before ``StallingsGraph`` and ``MarkedMetricGraph``
kept one dart map per vertex: a ``StallingsGraph`` as an out/inc pair of
dicts per vertex, walked label by label; the Hall completion on private
copies of that pair; the fiber product probing all 2n letters at each
vertex; and ``MarkedMetricGraph``'s checks on adjacency lists, a valence
array and a tree adjacency.  :func:`adjacency_letter_loops` also reduces
each non-tree edge's loop across both seams, where the engine concatenates.

:func:`two_walk_canonical` is ``grouptrees.stallings._canonical`` before its
breadth-first walk checked every dart's reverse and listed the edges: it
renumbers the dart maps, then hands them to ``StallingsGraph``'s constructor
of that time, which walked every dart once for its reverse and once more for
the sorted edge tuple, and which ``grouptrees.stallings._checked_graph``
keeps for the one graph not in canonical form.
:func:`fold_to_core` folds (compacting), trims and canonicalises a raw
graph with it, as ``StallingsGraph._from_raw`` did.  :func:`three_pass_parse_word` is
``grouptrees.core.parse_word`` before it mapped the characters in one pass:
it checks each character in a loop, reduces the one-letter pieces with
``product`` and builds the word with the checking ``Word`` constructor.

:func:`trace` is ``StallingsGraph.trace`` before ``grouptrees.stallings._read``
replaced it: one dart-map read per letter, None where the word sticks.
:func:`reads_forever` is ``grouptrees.laminations._reads_forever``, which
the per-period memo of ``_reads`` replaced: every ray walks its periodic
tail again, with a set of the vertices seen after each period.

:func:`gcd_scalar_text` is ``Scalar.__str__`` before it printed a rational
value's parts as they are: it takes the gcd of each part with the
denominator again.  :func:`copying_to_jsonable`,
:func:`copying_render_json` and :func:`copying_render_text` are
``grouptrees.report.to_jsonable``, ``render_json`` and ``render_text``
before rendering took one encoder pass: the report is copied into plain
JSON data, with every key turned into text, and ``json.dumps`` or the text
walk, with one branch for dicts and one for lists, reads the copy.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Iterator

from grouptrees import folding
from grouptrees.basis_change import invert_basis
from grouptrees.core import (Scalar, Word, enumerate_words, inverse, letter_key, product,
                             word_sort_key)
from grouptrees.core import (MAX_RANK, _LETTER, _letters_text, _sign, conjugator_length,
                             ordered_letters)
from grouptrees.errors import (DegenerateSubgroupError, InvalidSystemError, MixedFieldError,
                               NotABasisError, ParseError, PreconditionError)
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.laminations import _SIMPLICIAL_NOTE
from grouptrees.marked_graphs import CoverCore, _subtree_ball, _translate_intersection_prepared
from grouptrees.stallings import (StallingsGraph, _checked_graph, index, membership,
                                  subgroup_elements)

ZERO = Scalar.of(0)


# -- the Fraction-backed scalar ------------------------------------------------


def _is_square_free(d: int) -> bool:
    if d <= 0:
        return False
    p = 2
    while p * p <= d:
        if d % (p * p) == 0:
            return False
        if d % p == 0:
            d //= p
        p += 1
    return True


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"(?P<rat>{_RAT})?"
    rf"(?:(?<=\d)(?P<op>[+-])|(?<!\d)(?P<lead>-)?)"
    rf"(?:(?P<coef>{_RAT})\*)?sqrt(?P<d>\d+)"
)


def scalar(rat, irr=0, d: int = 1) -> Scalar:
    """rat + irr*sqrt(d) for ints or Fractions rat and irr, built as the input
    boundary builds values: by Scalar.of and Scalar.parse."""
    return Scalar.of(rat) + Scalar.of(irr) * Scalar.parse(f"sqrt{d}")


def scalar_parts(s: Scalar) -> tuple[Fraction, Fraction, int]:
    """(rat, irr, d) with s == rat + irr*sqrt(d), read from s's integers."""
    return Fraction(s._a, s._den), Fraction(s._b, s._den), s._d


@dataclass(frozen=True, slots=True)
class FractionScalar:
    """rat + irr*sqrt(d) with Fraction parts; d == 1 iff irr == 0.

    Every operation builds Fractions and re-checks d by trial division up to
    sqrt(d), so keep d small.
    """

    rat: Fraction
    irr: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self) -> None:
        rat = self.rat if isinstance(self.rat, Fraction) else Fraction(self.rat)
        irr = self.irr if isinstance(self.irr, Fraction) else Fraction(self.irr)
        d = self.d
        if not isinstance(d, int) or not _is_square_free(d):
            raise ValueError(f"field tag must be a square-free natural, got {d!r}")
        if d == 1:
            rat, irr = rat + irr, Fraction(0)
        if irr == 0:
            d = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "d", d)

    @staticmethod
    def parse(text: str) -> "FractionScalar":
        compact = "".join(text.split())
        if not compact:
            raise ParseError("empty scalar string")
        if "sqrt" not in compact:
            if not re.fullmatch(_RAT, compact):
                raise ParseError(f"bad rational {text!r}")
            try:
                return FractionScalar(Fraction(compact))
            except ZeroDivisionError:
                raise ParseError(f"bad rational {text!r}") from None
        m = _SCALAR_RE.fullmatch(compact)
        if m is None:
            raise ParseError(f"bad scalar {text!r}")
        try:
            rat = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad scalar {text!r}") from None
        if m.group("op") == "-" or m.group("lead") == "-":
            coef = -coef
        d = int(m.group("d"))
        if not _is_square_free(d):
            raise ParseError(f"sqrt argument must be square-free, got {d}")
        return FractionScalar(rat, coef, d)

    def _join(self, other: "FractionScalar") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise MixedFieldError(
            f"cannot mix sqrt{self.d} and sqrt{other.d} values in one computation")

    @staticmethod
    def _coerce(value) -> "FractionScalar | None":
        if isinstance(value, FractionScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionScalar(Fraction(value))
        return None

    def __add__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionScalar(self.rat + o.rat, self.irr + o.irr, self._join(o))

    __radd__ = __add__

    def __neg__(self) -> "FractionScalar":
        return FractionScalar(-self.rat, -self.irr, self.d)

    def __sub__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join(o)
        return FractionScalar(self.rat * o.rat + self.irr * o.irr * d,
                              self.rat * o.irr + self.irr * o.rat, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        d = self._join(o)
        # multiply by the conjugate: 1/(p+q√d) = (p−q√d)/(p²−q²d)
        norm = o.rat * o.rat - o.irr * o.irr * d
        return self * FractionScalar(o.rat / norm, -o.irr / norm, d)

    def __rtruediv__(self, other) -> "FractionScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self) -> "FractionScalar":
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        p, q = self.rat, self.irr
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p² with q²·d
        lhs, rhs = p * p, q * q * self.d
        if p > 0:
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def is_zero(self) -> bool:
        return self.rat == 0 and self.irr == 0

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare FractionScalar with {type(other).__name__}")
        return (self - o).sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        if self.irr == 1:
            tail = f"sqrt{self.d}"
        elif self.irr == -1:
            tail = f"-sqrt{self.d}"
        elif self.irr < 0:
            tail = f"-{-self.irr}*sqrt{self.d}"
        else:
            tail = f"{self.irr}*sqrt{self.d}"
        if self.rat == 0:
            return tail
        sep = "+" if not tail.startswith("-") else ""
        return f"{self.rat}{sep}{tail}"


# -- free reduction by stack ---------------------------------------------------


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Free reduction by stack: delete adjacent inverse pairs until none remain."""
    out: list[int] = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


# -- translation lengths and conjugacy classes ------------------------------------


def _lifted_path(graph, w: Word):
    """Dart path of the tightened basepoint loop reading w, built locally."""
    darts: tuple[int, ...] = ()
    for letter in w.letters:
        darts = reduce_letters(darts + graph.word_to_loop((letter,)))
    return darts


def net_translation_length(graph, w: Word) -> Scalar:
    """min over net vertices x on the lifted path of d(x, w x), all exact."""
    path = _lifted_path(graph, w)
    if not path:
        return ZERO
    best = None
    for i in range(len(path) + 1):
        route = reduce_letters(path[i:] + path[:i])
        disp = ZERO
        for d in route:
            disp = disp + graph.edges[abs(d) - 1][2]
        if best is None or (disp - best).sign() < 0:
            best = disp
    return best


def _cyclically_reduced(rank: int, max_len: int):
    """All cyclically reduced letter tuples of length 1..max_len."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]

    def extend(prefix, remaining):
        yield prefix
        if remaining == 0:
            return
        for letter in alphabet:
            if prefix and letter == -prefix[-1]:
                continue
            yield from extend(prefix + (letter,), remaining - 1)

    for first in alphabet:
        for letters in extend((first,), max_len - 1):
            if len(letters) == 1 or letters[0] != -letters[-1]:
                yield letters


def class_rep(letters) -> tuple[int, ...]:
    """Canonical form of a cyclically reduced tuple up to rotation/inversion."""
    inverse = tuple(-l for l in reversed(letters))
    best = None
    best_key = None
    for base in (tuple(letters), inverse):
        keys = [letter_key(l) for l in base]
        for i in range(len(base)):
            key = keys[i:] + keys[:i]
            if best_key is None or key < best_key:
                best_key = key
                best = base[i:] + base[:i]
    return best


def brute_omega(graph, epsilon, max_len: int) -> set[tuple[int, ...]]:
    """Canonical reps of every class shorter than epsilon, by exhaustion."""
    epsilon = Scalar.of(epsilon)
    seen = set()
    reps = set()
    for letters in _cyclically_reduced(graph.rank, max_len):
        rep = class_rep(letters)
        if rep in seen:
            continue
        seen.add(rep)
        w = Word(rep, graph.rank)
        if (net_translation_length(graph, w) - epsilon).sign() < 0:
            reps.add(rep)
    return reps


def loop_omega(graph, epsilon, max_len: int) -> list[tuple[int, ...]]:
    """``MarkedMetricGraph.omega_epsilon`` before the crossing memo: every
    class is decided through its own chained and cyclically reduced dart loop,
    on every call."""
    _, d, a_of, b_of, ((ea, eb),) = graph._length_view(Scalar.of(epsilon))
    out = []
    for w in enumerate_words(graph.rank, max_len, "conjugacy"):
        loop = graph.word_to_loop(w)
        k = conjugator_length(loop)
        loop = loop[k:len(loop) - k]
        a = sum(map(a_of.__getitem__, loop))
        b = sum(map(b_of.__getitem__, loop)) if b_of else 0
        if _sign(a - ea, b - eb, d) < 0:
            out.append(w)
    return out


# -- the sweep folders ---------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def compact(folded):
    """``folding.fold``'s result in the form it had when it renumbered:
    (nv, darts, dart_decorations) with the live ids numbered in increasing
    order, so each class by its least original vertex, and one decoration map
    {±l: decoration} per vertex, or None without decorations."""
    _, darts, decs = folded
    number = {x: i for i, x in enumerate(x for x, here in enumerate(darts) if here is not None)}
    maps = [{k: number[t] for k, t in darts[x].items()} for x in number]
    return len(number), maps, (None if decs is None else
                               [{k: decs[x, k] for k in darts[x]} for x in number])


def compacting_fold(nv: int, edges: Iterable[tuple[int, int, int]],
                    decorations: Iterable[tuple[int, ...]] | None = None):
    """``folding.fold`` when it numbered its survivors compactly and returned
    one decoration map per vertex; ``trim`` takes its maps."""
    return compact(folding.fold(nv, edges, decorations))


def sweep_classes(nv: int, edges: Iterable[tuple[int, int, int]]) -> list[int]:
    """The least vertex of each vertex's class in the folded graph, by
    re-sweeping every edge until nothing changes."""
    uf = _UnionFind(nv)
    edge_list = list(edges)
    changed = True
    while changed:
        changed = False
        out_rep: dict[tuple[int, int], int] = {}
        in_rep: dict[tuple[int, int], int] = {}
        for u, label, v in edge_list:
            fu, fv = uf.find(u), uf.find(v)
            prev = out_rep.get((fu, label))
            if prev is None:
                out_rep[(fu, label)] = v
            elif uf.union(prev, v):
                changed = True
            prev = in_rep.get((fv, label))
            if prev is None:
                in_rep[(fv, label)] = u
            elif uf.union(prev, u):
                changed = True
    return [uf.find(v) for v in range(nv)]


def sweep_fold(nv: int, edges: Iterable[tuple[int, int, int]]):
    """Fold the graph; returns (new_nv, new_edges), classes numbered by least vertex."""
    edge_list = list(edges)
    least = sweep_classes(nv, edge_list)
    number = {root: i for i, root in enumerate(sorted(set(least)))}
    new_edges = sorted({(number[least[u]], l, number[least[v]]) for u, l, v in edge_list})
    return len(number), new_edges


def unionfind_fold(nv: int, edges: Iterable[tuple[int, int, int]],
                   decorations: Iterable[tuple[int, ...]] | None = None):
    """Fold the graph; returns (new_nv, new_edges, new_decorations), as :func:`compacting_fold`.

    A worklist of edges over a union-find of vertex classes (Touikan, "A fast
    algorithm for Stallings' folding process", IJAC 2006).  Every class root
    keeps one slot per signed label (+l outgoing, -l incoming) holding an
    edge; an edge arriving at an occupied slot folds with the edge already
    there, and a merge re-queues the slots of the class that disappears.  The
    decoration of an edge (u, l, v) with stored word d is read as
    G(u)^-1 * d * G(v), where G(x) is the product of gauges from x up to its
    root; the basepoint's class is never gauged.
    """
    edge_list = list(edges)
    decs = [()] * len(edge_list) if decorations is None else list(decorations)
    parent = list(range(nv))
    gauge: list[tuple[int, ...]] = [()] * nv
    size = [1] * nv
    slots: list[dict[int, int]] = [{} for _ in range(nv)]
    dead = [False] * len(edge_list)

    def find(x: int) -> int:
        root = parent[x]
        if parent[root] == root:
            return root
        path = [x]
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        above = gauge[path.pop()]
        for y in reversed(path):
            above = product(gauge[y], above) if above else gauge[y]
            gauge[y] = above
            parent[y] = root
        return root

    def decoration(i: int) -> tuple[int, ...]:
        u, _, v = edge_list[i]
        gu, gv = gauge[u], gauge[v]
        if not gu and not gv:
            return decs[i]
        return product(inverse(gu), decs[i], gv)

    queue = deque(range(len(edge_list)))
    while queue:
        i = queue.popleft()
        if dead[i]:
            continue
        u, l, v = edge_list[i]
        for key, here, there in ((l, u, v), (-l, v, u)):
            j = slots[find(here)].setdefault(key, i)
            if j == i:
                continue
            ju, _, jv = edge_list[j]
            find(ju)
            find(jv)
            x = parent[jv if key > 0 else ju]
            y = find(there)
            dj, di = decoration(j), decoration(i)
            if x == y:
                if dj != di:
                    raise NotABasisError(
                        "relation detected while folding (parallel edges disagree)")
            else:
                if x == 0 or (y != 0 and size[x] >= size[y]):
                    keep, gone, dk, dg = x, y, dj, di
                else:
                    keep, gone, dk, dg = y, x, di, dj
                c = product(inverse(dg), dk) if key > 0 else product(dg, inverse(dk))
                parent[gone], gauge[gone] = keep, c
                size[keep] += size[gone]
                queue.extend(slots[gone].values())
                slots[gone] = {}
            dead[i] = True
            for key2, here2 in ((l, u), (-l, v)):
                held = slots[find(here2)]
                if held.get(key2) == i:
                    del held[key2]
            queue.append(j)
            break

    compact: dict[int, int] = {}
    vertex_map = [compact.setdefault(find(v), len(compact)) for v in range(nv)]
    folded = {(vertex_map[u], l, vertex_map[v]): decoration(i)
              for i, (u, l, v) in enumerate(edge_list) if not dead[i]}
    new_edges = sorted(folded)
    return len(compact), new_edges, [folded[e] for e in new_edges]


def _inv(t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(t))


def _mul(*parts: tuple[int, ...]) -> tuple[int, ...]:
    return reduce_letters(chain.from_iterable(parts))


class _Edge:
    __slots__ = ("src", "tgt", "label", "dec", "dead")

    def __init__(self, src: int, tgt: int, label: int, dec: tuple[int, ...]):
        self.src = src
        self.tgt = tgt
        self.label = label
        self.dec = dec
        self.dead = False


def sweep_invert_basis(words: list[Word], rank: int) -> list[Word]:
    """Return d_1..d_rank over symbols 1..rank with d_i(words) = letter i.

    Raises NotABasisError unless `words` is a free basis of the whole rank-n
    free group.  The result is verified by substitution before returning.
    """
    if len(words) != rank:
        raise NotABasisError(f"need exactly {rank} words, got {len(words)}")
    if any(w.rank != rank for w in words):
        raise ValueError("word rank mismatch")

    edges: list[_Edge] = []
    nv = 1  # vertex 0 is the basepoint
    for j, w in enumerate(words, start=1):
        if not w.letters:
            raise NotABasisError("the identity word cannot belong to a basis")
        chain = [0] + [nv + t for t in range(len(w.letters) - 1)] + [0]
        nv += len(w.letters) - 1
        for t, letter in enumerate(w.letters):
            dec = () if t else ((j,) if letter > 0 else (-j,))
            if letter > 0:
                edges.append(_Edge(chain[t], chain[t + 1], letter, dec))
            else:
                edges.append(_Edge(chain[t + 1], chain[t], -letter, dec))

    def live():
        return [e for e in edges if not e.dead]

    def merge(gone: int, keep: int, gauge: tuple[int, ...]) -> None:
        for e in edges:
            if e.dead:
                continue
            at_src, at_tgt = e.src == gone, e.tgt == gone
            if at_src and at_tgt:
                e.dec = _mul(_inv(gauge), e.dec, gauge)
            elif at_src:
                e.dec = _mul(_inv(gauge), e.dec)
            elif at_tgt:
                e.dec = _mul(e.dec, gauge)
            if at_src:
                e.src = keep
            if at_tgt:
                e.tgt = keep

    while True:
        seen_out: dict[tuple[int, int], _Edge] = {}
        seen_in: dict[tuple[int, int], _Edge] = {}
        collision = None
        for e in live():
            key = (e.src, e.label)
            if key in seen_out:
                collision = (seen_out[key], e, "out")
                break
            seen_out[key] = e
            key = (e.tgt, e.label)
            if key in seen_in:
                collision = (seen_in[key], e, "in")
                break
            seen_in[key] = e
        if collision is None:
            break
        e1, e2, kind = collision
        if kind == "out":
            v1, v2 = e1.tgt, e2.tgt
            d1, d2 = e1.dec, e2.dec
        else:
            v1, v2 = e1.src, e2.src
            d1, d2 = e1.dec, e2.dec
        if v1 == v2:
            if d1 == d2:
                e2.dead = True
                continue
            raise NotABasisError("relation detected while folding (parallel edges disagree)")
        if v1 == 0:
            gone, keep, d_gone, d_keep = v2, v1, d2, d1
        else:
            gone, keep, d_gone, d_keep = v1, v2, d1, d2
        if kind == "out":
            # arriving decorations must agree after the merge:  d_gone*c = d_keep
            merge(gone, keep, _mul(_inv(d_gone), d_keep))
        else:
            # leaving decorations:  c**-1 * d_gone = d_keep
            merge(gone, keep, _mul(d_gone, _inv(d_keep)))
        # the colliding pair is now parallel with equal decorations; the next
        # sweep's v1 == v2 branch deduplicates it.

    final = live()
    vertices = {0} | {e.src for e in final} | {e.tgt for e in final}
    loops = {e.label: e for e in final}
    if vertices != {0} or len(final) != rank or sorted(loops) != list(range(1, rank + 1)):
        raise NotABasisError("words generate a proper subgroup, not the whole free group")

    result = []
    for i in range(1, rank + 1):
        expr = Word(loops[i].dec, rank)
        check = _mul(*(words[abs(s) - 1].letters if s > 0 else _inv(words[abs(s) - 1].letters)
                       for s in expr.letters))
        if check != (i,):
            raise AssertionError("basis inversion self-check failed")
        result.append(expr)
    return result


def substitute(expr: tuple[int, ...], values: list[Word]) -> Word:
    """Apply the substitution x_j -> values[j-1] to a letter tuple in x-symbols."""
    if not expr:
        if not values:
            raise ValueError("cannot infer rank for empty substitution")
        return Word((), values[0].rank)
    letters: tuple[int, ...] = ()
    for s in expr:
        v = values[abs(s) - 1]
        letters = _mul(letters, v.letters if s > 0 else _inv(v.letters))
    return Word(letters, values[0].rank)


def edge_list_trim(nv: int, edges: list[tuple[int, int, int]], protect: int | None):
    """Repeatedly delete valence-<=1 vertices (never `protect`).

    Returns (kept_vertex_set, kept_edges).  A worklist of vertices whose
    valence has dropped to <= 1 peels them in time linear in the graph.
    """
    edge_list = sorted(set(edges))
    degree = [0] * nv
    incident: list[list[int]] = [[] for _ in range(nv)]
    for i, (u, _, v) in enumerate(edge_list):
        degree[u] += 1
        degree[v] += 1
        incident[u].append(i)
        incident[v].append(i)
    alive = [True] * nv
    live_edge = [True] * len(edge_list)
    doomed = [v for v in range(nv) if degree[v] <= 1 and v != protect]
    while doomed:
        x = doomed.pop()
        if not alive[x]:
            continue
        alive[x] = False
        for i in incident[x]:
            if not live_edge[i]:
                continue
            live_edge[i] = False
            u, _, v = edge_list[i]
            y = v if u == x else u
            if alive[y]:
                degree[y] -= 1
                if degree[y] == 1 and y != protect:
                    doomed.append(y)
    return ({v for v in range(nv) if alive[v]},
            [e for i, e in enumerate(edge_list) if live_edge[i]])


def layered_trim(nv: int, edges: list[tuple[int, int, int]], protect: int | None):
    """Repeatedly delete valence-<=1 vertices (never `protect`).

    Returns (kept_vertex_set, kept_edges).  With protect=None the result is the
    maximal subgraph with all valences >= 2 (possibly empty).
    """
    alive = set(range(nv))
    live_edges = set(edges)
    while True:
        degree: dict[int, int] = {v: 0 for v in alive}
        for u, _, v in live_edges:
            degree[u] += 1
            degree[v] += 1
        doomed = {v for v in alive if degree[v] <= 1 and v != protect}
        if not doomed:
            return alive, sorted(live_edges)
        alive -= doomed
        live_edges = {(u, l, v) for u, l, v in live_edges if u in alive and v in alive}


# -- the filtering conjugacy enumerator ------------------------------------------


def _extensions(letters: tuple[int, ...], alphabet: list[int]) -> Iterator[tuple[int, ...]]:
    last = letters[-1] if letters else None
    for l in alphabet:
        if last is None or l != -last:
            yield letters + (l,)


def _conjugacy_representative(letters: tuple[int, ...]) -> bool:
    """True iff `letters` (cyclically reduced) is the canonical representative of
    its conjugacy-and-inversion class: minimal among all rotations of itself and
    of its inverse under the letter-key lexicographic order."""
    n = len(letters)
    key = tuple(letter_key(l) for l in letters)
    inv = tuple(-l for l in reversed(letters))
    for word in (letters, inv):
        for shift in range(n):
            rot = word[shift:] + word[:shift]
            if word is letters and shift == 0:
                continue
            if tuple(letter_key(l) for l in rot) < key:
                return False
    return True


def filter_conjugacy_classes(rank: int, max_len: int) -> Iterator[Word]:
    """One representative per conjugacy-and-inversion class of nontrivial
    cyclically reduced words, by length then letter-key order: every reduced
    word is built and filtered."""
    alphabet = [l for a in range(1, rank + 1) for l in (a, -a)]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        next_layer: list[tuple[int, ...]] = []
        for letters in layer:
            for ext in _extensions(letters, alphabet):
                next_layer.append(ext)
                if (len(ext) < 2 or ext[0] != -ext[-1]) and _conjugacy_representative(ext):
                    yield Word(ext, rank)
        layer = next_layer


# -- orbits, one search per budget -------------------------------------------------


def sorted_frontier_orbit(system, x, budget: int):
    from grouptrees.errors import OutOfSupportError

    x = Scalar.of(x)
    if not system.forest.contains(x):
        raise OutOfSupportError(f"{x} lies outside the support")
    letters = system.signed_letters()
    visited = {x}
    frontier = [x]
    while frontier:
        if len(visited) > budget:
            return "truncated", tuple(sorted(visited))
        nxt = []
        for p in sorted(frontier):
            for l in letters:
                y = system.letter_map(l).apply(p)
                if y is not None and y not in visited:
                    visited.add(y)
                    nxt.append(y)
        frontier = nxt
    return "closed", tuple(sorted(visited))


# -- the discreteness report, one search per budget ------------------------------


def single_budget_orbit(system, graph, x, budget: int):
    from grouptrees.errors import OutOfSupportError
    from grouptrees.isometry_systems import _gen_letter_index

    letters = _gen_letter_index(system, graph)
    x = Scalar.of(x)
    if not system.forest.contains(x):
        raise OutOfSupportError(f"{x} lies outside the support")
    start = (x, graph.base)
    visited = {start}
    frontier = [start]
    status = "closed"
    while frontier:
        if len(visited) > budget:
            status = "truncated"
            break
        nxt = []
        for point, vertex in sorted(frontier):
            for gi, letter in enumerate(letters):
                for sign in (1, -1):
                    y = system.letter_map(sign * (gi + 1)).apply(point)
                    if y is None:
                        continue
                    w = graph.darts_at(vertex).get(sign * letter)
                    if w is None:
                        continue
                    state = (y, w)
                    if state not in visited:
                        visited.add(state)
                        nxt.append(state)
        frontier = nxt
    points = tuple(sorted({p for p, v in visited if v == graph.base}))
    return status, points


def three_run_discreteness_report(system, graph, samples, budget: int) -> dict:
    from grouptrees.isometry_systems import total_measure

    budgets = sorted({min(max(budget // k, 1), budget) for k in (4, 2, 1)})
    rows = []
    growth = {b: [] for b in budgets}
    all_closed = True
    any_truncated = False
    min_gap = None
    for x in samples:
        status, points = "closed", ()
        for b in budgets:
            status, points = single_budget_orbit(system, graph, x, b)
            growth[b].append(len(points))
        rows.append({"sample": Scalar.of(x), "status": status,
                     "orbit_size": len(points)})
        if status != "closed":
            all_closed = False
            any_truncated = True
        for a, bpt in zip(points, points[1:]):
            gap = bpt - a
            if gap.sign() > 0 and (min_gap is None or gap < min_gap):
                min_gap = gap
    threshold = total_measure(system) * Scalar.of(Fraction(1, 20))
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


# -- finite-orbit families and discreteness on Scalars ----------------------------


def multi_endpoints(m: MultiInterval) -> list[Scalar]:
    return [e for iv in m.components
            for e in ((iv.lo,) if iv.is_point else (iv.lo, iv.hi))]


def singular_points(system) -> tuple[Scalar, ...]:
    """Endpoints of generator domains and ranges plus support components, sorted."""
    pts = set(multi_endpoints(system.forest))
    for g in system.generators:
        pts.update((g.dom.lo, g.dom.hi, g.ran.lo, g.ran.hi))
    return tuple(sorted(pts))


def scalar_finite_orbit_families(system, budget: int) -> dict:
    from grouptrees.core import ZERO

    report = {"budget": budget}
    union: set[Scalar] = set()
    singular_complete = True
    for p in singular_points(system):
        if p in union:
            continue
        status, pts = sorted_frontier_orbit(system, p, budget)
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
        status, pts = sorted_frontier_orbit(system, mid, budget)
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

    e_lower = sum((fam["measure"] for fam in families
                   if fam["status"] == "complete"), ZERO)
    report["families"] = families
    report["status"] = "complete" if complete else "partial"
    report["e"] = e_lower if complete else None
    report["e_lower_bound"] = e_lower
    return report


def scalars(keyed: dict, den: int, d: int) -> tuple:
    from grouptrees.core import _make
    from grouptrees.isometry_systems import _ordered

    return tuple(_make(a, b, den, d) for a, b in _ordered(keyed, d))


def point_texts(run) -> tuple:
    status, points = run
    return status, tuple(map(str, points))


def scalar_orbit(system, x, budget: int):
    from grouptrees.isometry_systems import _compile, _in_support, orbit

    _in_support(system, x)
    view, (start,) = _compile(system, (x,))
    status, keyed = orbit(system, start, budget, view)
    return status, scalars(keyed, view[0], view[1])


def scalar_sub_orbit(system, graph, x, budget: int, snapshots=None):
    from grouptrees.isometry_systems import subgroup_constrained_orbit

    (den, d, _), runs = subgroup_constrained_orbit(system, graph, x, budget, snapshots, True)
    if snapshots is None:
        return runs[0], scalars(runs[1], den, d)
    return {b: (status, scalars(keyed, den, d)) for b, (status, keyed) in runs.items()}


def scalar_orbit_result(args: dict) -> dict:
    """The soi orbit result, or with a "subgroup" the soi sub-orbit result."""
    if "subgroup" in args:
        status, points = scalar_sub_orbit(args["system"], args["subgroup"],
                                          args["point"], args["budget"])
    else:
        status, points = scalar_orbit(args["system"], args["point"], args["budget"])
    return {"status": status, "point": args["point"], "count": len(points),
            "points": points, "budget": args["budget"]}


def scalar_discreteness_report(system, graph, samples, budget: int) -> dict:
    from grouptrees.isometry_systems import total_measure

    budgets = sorted({min(max(budget // k, 1), budget) for k in (4, 2, 1)})
    rows = []
    growth = {b: [] for b in budgets}
    all_closed = True
    min_gap = None
    for x in samples:
        runs = scalar_sub_orbit(system, graph, x, budgets[-1], budgets[:-1])
        for b in budgets:
            growth[b].append(len(runs[b][1]))
        status, points = runs[budgets[-1]]
        rows.append({"sample": x, "status": status,
                     "orbit_size": len(points)})
        if status != "closed":
            all_closed = False
        for a, bpt in zip(points, points[1:]):
            gap = bpt - a
            if gap.sign() > 0 and (min_gap is None or gap < min_gap):
                min_gap = gap
    threshold = total_measure(system) * Scalar.of(Fraction(1, 20))
    if all_closed:
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


# -- the greedy a.e. cover, rebuilt against the target ----------------------------


def rebuilding_ae_support_check(system, f_eps, target, delta, max_len: int) -> dict:
    """Greedily cover the target interval by word-images of f_eps, up to measure delta.

    Returns the witness words when the uncovered measure drops below delta,
    or budget-exhausted when no candidate image adds coverage.
    """
    from grouptrees.errors import InvalidSystemError, OutOfSupportError

    delta = Scalar.of(delta)
    if delta.sign() <= 0:
        raise InvalidSystemError("delta must be positive")
    if not isinstance(f_eps, MultiInterval):
        f_eps = MultiInterval(f_eps)
    if not system.forest.contains_interval(target):
        raise OutOfSupportError("target interval leaves the support")
    if not system.forest.contains_multi(f_eps):
        raise OutOfSupportError("the covering seed leaves the support")

    cands = scalar_image_candidates(system, f_eps, max_len)
    target_multi = MultiInterval([target])
    covered = MultiInterval()
    words = []
    while True:
        uncovered = target.length - multi_intersect(covered, target_multi).measure
        if delta > uncovered:
            return {"status": "covered", "words": [_letters_text(w) for w, _ in words],
                    "uncovered_measure": uncovered, "delta": delta,
                    "candidates": len(cands), "max_len": max_len}
        best = None
        best_gain = ZERO
        base = multi_intersect(covered, target_multi).measure
        for word, img in cands:
            gain = multi_intersect(multi_union(covered, img), target_multi).measure - base
            if gain > best_gain:
                best, best_gain = (word, img), gain
        if best is None:
            return {"status": "budget-exhausted",
                    "uncovered_measure": uncovered, "delta": delta,
                    "words": [_letters_text(w) for w, _ in words],
                    "candidates": len(cands), "max_len": max_len}
        words.append(best)
        covered = multi_union(covered, best[1])


# -- the word searches, one layer loop each -----------------------------------


def layered_independence_check(system, max_len: int) -> dict:
    """Search reduced words up to max_len for one acting as the identity on an arc.

    Compositions are tracked as exact partial maps; branches whose domains
    degenerate to a point (or vanish) are pruned, since no extension can
    recover a nondegenerate fixed arc.
    """
    letters = system.signed_letters()
    layer: list[tuple[tuple[int, ...], tuple[int, Scalar, Interval]]] = []
    for l in letters:
        g = system.letter_map(l)
        if not g.dom.is_point:
            layer.append(((l,), (g.orient, g.offset, g.dom)))
    for word, (orient, offset, dom) in layer:
        if orient == 1 and offset.is_zero():
            return {"status": "violation", "word": _letters_text(word),
                    "arc": dom, "word_length": len(word)}
    length = 1
    while length < max_len and layer:
        nxt = []
        for l in letters:
            g = system.letter_map(l)
            for word, (orient, offset, dom) in layer:
                if word[0] == -l:
                    continue
                # new = g o old: domain pulled back through the old map
                pre = g.dom.shifted_image(orient,
                                          -offset if orient > 0 else offset)
                new_dom = dom.intersect(pre)
                if new_dom is None or new_dom.is_point:
                    continue
                new_orient = g.orient * orient
                new_offset = (offset if g.orient > 0 else -offset) + g.offset
                new_word = (l,) + word
                if new_orient == 1 and new_offset.is_zero():
                    return {"status": "violation",
                            "word": _letters_text(new_word),
                            "arc": new_dom, "word_length": len(new_word)}
                nxt.append((new_word, (new_orient, new_offset, new_dom)))
        layer = nxt
        length += 1
    return {"status": "ok-up-to-budget", "max_len": max_len}


def layered_image_candidates(system, seed, max_len: int):
    """(word, image) pairs for reduced words up to max_len, deduplicated by image.

    The seed is an Interval or a MultiInterval, and its images are of the
    same type.  Images are grown by composing on the left (new = g o old),
    pruning empty or measure-zero images; a repeated image keeps only its
    first (shortest, earliest) word.
    """
    letters = system.signed_letters()
    interval_only = isinstance(seed, Interval)
    cands = [((), seed)]
    seen = {seed}
    layer = [((), seed)]
    for _ in range(max_len):
        nxt = []
        for l in letters:
            g = system.letter_map(l)
            for word, img in layer:
                if word and word[0] == -l:
                    continue
                if interval_only:
                    clipped = img.intersect(g.dom)
                    if clipped is None or clipped.is_point:
                        continue
                    img2 = clipped.shifted_image(g.orient, g.offset)
                else:
                    img2 = multi_shifted_image(multi_intersect(img, g.dom),
                                               g.orient, g.offset)
                    if img2.measure.sign() <= 0:
                        continue
                if img2 in seen:
                    continue
                seen.add(img2)
                entry = ((l,) + word, img2)
                nxt.append(entry)
                cands.append(entry)
        layer = nxt
        if not layer:
            break
    return cands


# -- the support engines on Scalar multi-intervals ----------------------------


def _components(other) -> tuple:
    return other.components if isinstance(other, MultiInterval) else (other,)


def multi_intersect(a: MultiInterval, other) -> MultiInterval:
    out = []
    for x in a.components:
        for y in _components(other):
            c = x.intersect(y)
            if c is not None:
                out.append(c)
    return MultiInterval(out)


def multi_union(a: MultiInterval, other) -> MultiInterval:
    return MultiInterval(a.components + tuple(_components(other)))


def multi_shifted_image(a: MultiInterval, orient: int, offset: Scalar) -> MultiInterval:
    return MultiInterval(iv.shifted_image(orient, offset) for iv in a.components)


def scalar_image_candidates(system, seed, max_len: int):
    """(word, image) pairs for reduced words up to max_len, deduplicated by image.

    The seed is an Interval or a MultiInterval, and its images are of the
    same type.  Images are grown by composing on the left (new = g o old),
    pruning empty or measure-zero images; a repeated image keeps only its
    first (shortest, earliest) word.
    """
    from grouptrees.isometry_systems import _left_words

    interval_only = isinstance(seed, Interval)
    seen = {seed}

    def image(g, img):
        if interval_only:
            img = img.intersect(g.dom)
            if img is None or img.is_point:
                return None
            img = img.shifted_image(g.orient, g.offset)
        else:
            img = multi_shifted_image(multi_intersect(img, g.dom), g.orient, g.offset)
            if img.measure.sign() <= 0:
                return None
        if img in seen:
            return None
        seen.add(img)
        return img

    maps = [(l, system.letter_map(l)) for l in system.signed_letters()]
    return [((), seed), *_left_words(maps, seed, image, max_len)]


def scalar_ae_support_check(system, f_eps, target, delta, max_len: int) -> dict:
    from grouptrees.errors import InvalidSystemError, OutOfSupportError

    if delta.sign() <= 0:
        raise InvalidSystemError("delta must be positive")
    if not system.forest.contains_interval(target):
        raise OutOfSupportError("target interval leaves the support")
    if not system.forest.contains_multi(f_eps):
        raise OutOfSupportError("the covering seed leaves the support")

    cands = scalar_image_candidates(system, f_eps, max_len)
    # (A u B) n T = (A n T) u (B n T): clip every image to the target once
    clipped = [(word, multi_intersect(img, target)) for word, img in cands]
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
            gain = multi_union(covered, img).measure - base
            if gain > best_gain:
                best, best_gain = (word, img), gain
        if best is None:
            return {"status": "budget-exhausted",
                    "uncovered_measure": uncovered, "delta": delta,
                    "words": [_letters_text(w) for w, _ in words],
                    "candidates": len(cands), "max_len": max_len}
        words.append(best)
        covered = multi_union(covered, best[1])


def scalar_grow_forest(system, start, steps: int) -> list[dict]:
    from grouptrees.errors import OutOfSupportError

    if not system.forest.contains_multi(start):
        raise OutOfSupportError("the starting multi-interval leaves the support")
    stages = []
    support = start
    prev = None
    for step in range(steps + 1):
        m = support.measure
        d = ZERO
        for g in system.generators:
            clipped = multi_intersect(support, g.dom)
            image_back = multi_intersect(
                multi_shifted_image(clipped, g.orient, g.offset), support)
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
                grown = multi_union(grown, multi_shifted_image(
                    multi_intersect(support, iso.dom), iso.orient, iso.offset))
        support = grown
    return stages


def scalar_indecomposability_search(system, piece, target, r_max: int,
                                    max_len: int) -> dict:
    from grouptrees.errors import InvalidSystemError, OutOfSupportError
    from grouptrees.isometry_systems import _verify_chain

    for iv in (piece, target):
        if iv.is_point:
            raise InvalidSystemError("piece and target must be nondegenerate")
        if not system.forest.contains_interval(iv):
            raise OutOfSupportError(f"{iv} leaves the support")
    if r_max >= 1 and piece.contains_interval(target):
        chain = [{"word": "", "interval": piece}]
        return {"status": "chain-found", "chain": chain, "r": 1,
                "r_max": r_max, "max_len": max_len}

    cands = scalar_image_candidates(system, piece, max_len)
    chain = []
    reach = None
    while len(chain) < r_max:
        if chain:
            eligible = [(w, iv) for w, iv in cands if iv.lo < reach]
        else:
            eligible = [(w, iv) for w, iv in cands
                        if iv.lo <= target.lo and iv.hi > target.lo]
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


def scalar_subgroup_saturation(system, graph, piece, max_len: int, steps: int) -> dict:
    from grouptrees.errors import OutOfSupportError
    from grouptrees.isometry_systems import _gen_letter_index, _word_image

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
            if multi_intersect(support, img).measure.sign() > 0:
                additions.append((h, img))
        if not additions:
            saturated = True
            break
        used += 1
        for h, img in additions:
            support = multi_union(support, img)
            added_words.append(_letters_text(h))
    return {"support": support, "saturated": saturated, "steps_used": used,
            "translates_added": added_words, "rejected_words": rejected,
            "max_len": max_len}


# -- the two-phase spanning tree of the Hall completion ------------------------


def two_phase_hall_bases(witness) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """(h_basis, complement_basis) of a Hall witness, recomputed from its cover."""
    cover, graph, perm = witness.cover, witness.subgroup, witness.embedding
    n = cover.rank
    original = {(perm[u], l, perm[v]) for u, l, v in graph.edges}

    # two-phase BFS spanning tree: phase 1 inside the image of H's core graph,
    # so the tree restricted to it is a spanning tree of that image and the
    # non-tree edges split cleanly into an H-basis and a complement basis.
    path_to: dict[int, tuple[int, ...]] = {cover.base: ()}
    tree: set[tuple[int, int, int]] = set()
    order: list[int] = [cover.base]
    queue = deque([cover.base])
    while queue:
        v = queue.popleft()
        for letter in cover.darts_at(v):
            edge = (v, letter, cover.darts_at(v).get(letter)) if letter > 0 else (
                cover.darts_at(v).get(letter), -letter, v)
            if edge not in original:
                continue
            w = cover.darts_at(v).get(letter)
            if w not in path_to:
                path_to[w] = path_to[v] + (letter,)
                tree.add(edge)
                order.append(w)
                queue.append(w)
    queue = deque(order)
    while queue:
        v = queue.popleft()
        for letter in cover.darts_at(v):
            w = cover.darts_at(v).get(letter)
            if w not in path_to:
                path_to[w] = path_to[v] + (letter,)
                tree.add((v, letter, w) if letter > 0 else (w, -letter, v))
                queue.append(w)

    h_basis: list[Word] = []
    complement: list[Word] = []
    for u, l, v in cover.edges:
        if (u, l, v) in tree:
            continue
        word = Word.make(path_to[u] + (l,) + tuple(-x for x in reversed(path_to[v])), n)
        (h_basis if (u, l, v) in original else complement).append(word)
    return tuple(h_basis), tuple(complement)


def full_spanning_tree_paths(graph, inside=frozenset()) -> tuple[dict, list]:
    """BFS spanning tree from the basepoint, grown through `inside` edges first.

    A first pass reaches what it can through edges of `inside` only; a
    second continues from those vertices, in the order reached, through all
    edges.  The tree restricted to a connected `inside` subgraph at the
    basepoint is then a spanning tree of that subgraph.  Returns (path_to,
    non_tree_edges): path_to[v] is the letter sequence of the tree path
    basepoint -> v; non_tree_edges lists the (u, label, v) edges outside the
    tree in canonical (sorted) order.
    """
    path_to = {graph.base: ()}
    tree: set[tuple[int, int, int]] = set()
    order = [graph.base]
    for only_inside in (True, False) if inside else (False,):
        queue = deque(order)
        while queue:
            v = queue.popleft()
            for letter in graph.darts_at(v):
                w = graph.darts_at(v).get(letter)
                if w in path_to:
                    continue
                edge = (v, letter, w) if letter > 0 else (w, -letter, v)
                if only_inside and edge not in inside:
                    continue
                path_to[w] = path_to[v] + (letter,)
                tree.add(edge)
                order.append(w)
                queue.append(w)
    non_tree = [e for e in graph.edges if e not in tree]
    return path_to, non_tree


def product_loop_letters(path_to: dict, edge: tuple[int, int, int]) -> tuple[int, ...]:
    """The letters of the basepoint loop through a non-tree edge, reduced by
    ``product`` across both seams."""
    u, l, v = edge
    return product(path_to[u], (l,), inverse(path_to[v]))


# -- translate overlaps from whole radius balls --------------------------------


def initial_state(cover):
    return (cover.p.base, ())


def state_vertex(cover, state) -> int:
    p, stack = state
    return cover.graph.dart_target(stack[-1]) if stack else cover.vertex_image[p]


def step(cover, state, dart: int):
    """Cross one dart; returns (new_state, crossed_edge_in_minimal_subtree)."""
    u, v, _ = cover.graph.edges[abs(dart) - 1]
    if (u if dart > 0 else v) != state_vertex(cover, state):
        raise ValueError(f"dart {dart} does not start at the current vertex")
    p, stack = state
    if stack:
        if stack[-1] == -dart:
            return (p, stack[:-1]), False
        return (p, stack + (dart,)), False
    target = cover.p.darts_at(p).get(dart)
    if target is None:
        return (p, (dart,)), False
    return (target, ()), p in cover.core_vertices and target in cover.core_vertices


def walk(cover, state, darts):
    for d in darts:
        state, _ = step(cover, state, d)
    return state


def vertex_on_subtree(cover, state) -> bool:
    p, stack = state
    return not stack and p in cover.core_vertices


def filter_subgroup_elements(graph, max_len: int) -> list[tuple[int, ...]]:
    """The subgroup elements of length <= max_len: every reduced word, kept
    when it is a member."""
    return [w for w in enumerate_words(graph.rank, max_len) if membership(graph, w)]


def grow_ball(cover, seed_letters, seed_state, radius: int) -> dict:
    """Walker states for every tree vertex within `radius` edges of the seed."""
    graph = cover.graph
    states = {(seed_letters, state_vertex(cover, seed_state)): seed_state}
    frontier = list(states)
    for _ in range(radius):
        nxt = []
        for u, v in frontier:
            state = states[(u, v)]
            for d in graph.darts_at(v):
                key = (tuple(reduce_letters(u + graph.dart_marking_letters(d))),
                       graph.dart_target(d))
                new_state, _ = step(cover, state, d)
                old = states.get(key)
                if old is None:
                    states[key] = new_state
                    nxt.append(key)
                elif old != new_state:
                    raise RuntimeError(f"walker reached tree vertex {key} in two states")
        frontier = nxt
    return states


def _edge_report(graph, u, v, eid) -> dict:
    return {
        "sheet": str(Word(u, graph.rank)),
        "vertex": v,
        "edge": eid,
        "length": str(graph.edges[eid][2]),
    }


def ball_translate_intersection(cover, g: Word, radius: int,
                                base_ball: dict) -> dict:
    """Compare the minimal subtree with its g-translate within `radius` of the basepoint.

    `base_ball` is the radius ball grown from the basepoint.  Outcomes
    "whole-tree-coincidence" and "nondegenerate-intersection" are exact
    certificates; the "-within-radius" outcomes only describe the ball.
    """
    graph = cover.graph
    subgroup = cover.subgroup
    report = {"translate": str(g), "radius": radius}
    if membership(subgroup, g.letters):
        report["outcome"] = "whole-tree-coincidence"
        report["reason"] = "the translating element lies in the subgroup"
        return report
    if cover.is_covering:
        report["outcome"] = "whole-tree-coincidence"
        report["reason"] = "finite-index subgroup: the minimal subtree is the whole tree"
        return report

    init = initial_state(cover)
    g_inv = g.inverse()
    state_g = walk(cover, init, graph.word_to_loop(g.letters))
    state_gi = walk(cover, init, graph.word_to_loop(g_inv.letters))

    ball_g = grow_ball(cover, g.letters, state_g, radius)
    ball_gi = grow_ball(cover, g_inv.letters, state_gi, radius)
    states = dict(base_ball)
    for extra in (ball_g, ball_gi):
        for key, st in extra.items():
            if states.setdefault(key, st) != st:
                raise RuntimeError(f"the translate balls disagree at {key}")
    scan = sorted(set(base_ball) | set(ball_g),
                  key=lambda k: (word_sort_key(k[0]), k[1]))

    def shifted(u):
        return tuple(reduce_letters(g_inv.letters + u))

    # the engine's graph no longer keeps its out-edge lists
    out_eids = {v: [eid for eid, (a, _, _) in enumerate(graph.edges) if a == v]
                for v in range(graph.nv)}

    common, only_sub, only_translate = [], [], []
    common_vertex = None
    for u, v in scan:
        state = states[(u, v)]
        # the g-shift of any scanned vertex lies in one of the three balls
        shifted_state = states[(shifted(u), v)]
        if common_vertex is None:
            if vertex_on_subtree(cover, state) and vertex_on_subtree(cover, shifted_state):
                common_vertex = {"sheet": str(Word(u, graph.rank)), "vertex": v}
        for eid in out_eids[v]:
            in_sub = step(cover, state, eid + 1)[1]
            in_translate = step(cover, shifted_state, eid + 1)[1]
            if in_sub and in_translate:
                common.append((u, v, eid))
            elif in_sub:
                only_sub.append((u, v, eid))
            elif in_translate:
                only_translate.append((u, v, eid))

    report["common_edge_count"] = len(common)
    if common and (only_sub or only_translate):
        report["outcome"] = "nondegenerate-intersection"
        report["witness_common"] = _edge_report(graph, *common[0])
        diff = only_sub[0] if only_sub else only_translate[0]
        report["witness_difference"] = dict(
            _edge_report(graph, *diff),
            side="subtree" if only_sub else "translate")
    elif common:
        report["outcome"] = "coincide-within-radius"
        report["witness_common"] = _edge_report(graph, *common[0])
    elif common_vertex is not None:
        report["outcome"] = "single-point-within-radius"
        report["witness_vertex"] = common_vertex
    else:
        report["outcome"] = "disjoint-within-radius"
    return report


def ball_transverse_family_report(graph, subgroup, max_len: int, radius: int) -> dict:
    """Search translates gT_H (|g| <= max_len, g outside H) for nondegenerate overlaps.

    Distinct translates of the minimal subtree form a transverse family when
    no two share an edge; each nondegenerate overlap found is a certified
    violation.  Translates are deduplicated up to the double cosets HgH seen
    within the word budget.
    """
    cover = CoverCore(graph, subgroup)
    report = {"max_len": max_len, "radius": radius}
    if cover.is_covering:
        report["verdict"] = "degenerate-family-whole-tree"
        if index(subgroup) == 1:
            report["message"] = ("the subgroup is the whole group, so the family "
                                 "is the single tree itself")
        else:
            report["message"] = ("finite-index subgroup: every translate is the "
                                 "whole tree, so the family is degenerate")
        report["rows"] = []
        report["violations"] = []
        return report

    ball = filter_subgroup_elements(subgroup, max_len)
    if () not in ball:
        ball.append(())
    ball = ball[:64]

    base_ball = grow_ball(cover, (), initial_state(cover), radius)
    rows = []
    violations = []
    for letters in enumerate_words(graph.rank, max_len):
        if membership(subgroup, letters):
            continue
        key = word_sort_key(letters)
        minimal = True
        for h1 in ball:
            for h2 in ball:
                r = reduce_letters(h1 + letters + h2)
                if not r or word_sort_key(r) < key:
                    minimal = False
                    break
            if not minimal:
                break
        if not minimal:
            continue
        w = Word(letters, graph.rank)
        result = ball_translate_intersection(cover, w, radius, base_ball)
        rows.append({"word": str(w), "outcome": result["outcome"]})
        if result["outcome"] == "nondegenerate-intersection":
            violations.append(result)

    report["translates_tested"] = len(rows)
    report["rows"] = rows
    report["violations"] = violations
    if violations:
        report["verdict"] = "violations-found"
        report["message"] = (f"{len(violations)} translate(s) share an edge with the "
                             "minimal subtree: the translate family is not transverse")
    else:
        report["verdict"] = "transverse-up-to-budget"
        report["message"] = ("no translate within the word and radius budget shares "
                             "an edge with the minimal subtree")
    return report



def every_translate_family_report(graph, subgroup, max_len: int, radius: int) -> dict:
    """The transverse report with the ball comparison run on every translate."""
    cover = CoverCore(graph, subgroup)
    report = {"max_len": max_len, "radius": radius}
    if cover.is_covering:
        report["verdict"] = "degenerate-family-whole-tree"
        if index(subgroup) == 1:
            report["message"] = ("the subgroup is the whole group, so the family "
                                 "is the single tree itself")
        else:
            report["message"] = ("finite-index subgroup: every translate is the "
                                 "whole tree, so the family is degenerate")
        report["rows"] = []
        report["violations"] = []
        return report

    ball = list(subgroup_elements(subgroup, max_len))[:64]
    ending, starting = {}, {}
    for h in ball:
        if h:
            ending.setdefault(h[-1], []).append(h)
            starting.setdefault(h[0], []).append(h)

    base = _subtree_ball(cover, (), radius)
    rows = []
    violations = []
    for w in enumerate_words(graph.rank, max_len):
        if membership(subgroup, w):
            continue
        w_inv, key, n = inverse(w), word_sort_key(w), len(w)
        lefts = [()] + ending.get(-w[0], [])
        rights = [()] + starting.get(-w[-1], [])
        pairs = chain(((h1, h2) for h1 in lefts for h2 in rights),
                      ((h1, h2) for h1 in lefts if h1[-n:] == w_inv for h2 in ball),
                      ((h1, h2) for h1 in ball for h2 in rights if h2[:n] == w_inv))
        if any(len(r) < n or len(r) == n and word_sort_key(r) < key
               for r in (product(h1, w, h2) for h1, h2 in pairs)):
            continue
        result = _translate_intersection_prepared(cover, w, radius, base)
        rows.append({"word": _letters_text(w), "outcome": result["outcome"]})
        if result["outcome"] == "nondegenerate-intersection":
            violations.append(result)

    report["translates_tested"] = len(rows)
    report["rows"] = rows
    report["violations"] = violations
    if violations:
        report["verdict"] = "violations-found"
        report["message"] = (f"{len(violations)} translate(s) share an edge with the "
                             "minimal subtree: the translate family is not transverse")
    else:
        report["verdict"] = "transverse-up-to-budget"
        report["message"] = ("no translate within the word and radius budget shares "
                             "an edge with the minimal subtree")
    return report

# -- the object-based carrier scan ---------------------------------------------


def popping_canonical_ray(prefix: tuple[int, ...], period: tuple[int, ...]):
    """The canonical (prefix, period) as the ray constructor computed it on a
    list, before the tuple canonicaliser: the period is made primitive, then
    the prefix's last letter is popped while it cancels into or rolls into
    the period."""
    n = len(period)
    vl = next(period[:d] for d in range(1, n + 1)
              if n % d == 0 and period[:d] * (n // d) == period)
    ul = list(prefix)
    changed = True
    while ul and changed:
        changed = False
        if ul[-1] == -vl[0]:
            ul.pop()
            vl = vl[1:] + vl[:1]
            changed = True
        elif ul[-1] == vl[-1]:
            ul.pop()
            vl = vl[-1:] + vl[:-1]
            changed = True
    return tuple(ul), vl


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split as (conjugator, core): w = conjugator * core * conjugator⁻¹,
    with the core cyclically reduced (strip matching ends to a fixed point)."""
    letters = w.letters
    k = conjugator_length(letters)
    return (Word(letters[:k], w.rank), Word(letters[k:len(letters) - k], w.rank))


@dataclass(frozen=True)
class DataclassBoundaryRay:
    """The infinite reduced word prefix * period * period * ..., in canonical
    form: a primitive cyclically reduced period, and a prefix that ends
    neither in the period's last letter nor in the inverse of its first."""

    prefix: Word
    period: Word

    def __post_init__(self):
        u, v = self.prefix, self.period
        if not v.letters:
            raise PreconditionError("a boundary ray needs a nonempty period")
        if u.rank != v.rank:
            raise PreconditionError("prefix and period rank mismatch")
        if not v.is_cyclically_reduced():
            raise PreconditionError(f"period {v} is not cyclically reduced")
        prefix, period = popping_canonical_ray(u.letters, v.letters)
        object.__setattr__(self, "prefix", Word(prefix, u.rank))
        object.__setattr__(self, "period", Word(period, v.rank))

    @property
    def rank(self) -> int:
        return self.period.rank

    def sort_key(self):
        return (word_sort_key(self.prefix.letters), word_sort_key(self.period.letters))

    def __str__(self):
        head = f"{self.prefix}·" if self.prefix.letters else ""
        return f"{head}({self.period})^∞"


@dataclass(frozen=True)
class DataclassRationalLeaf:
    """Unordered pair of distinct boundary rays (stored sorted)."""

    rays: tuple[DataclassBoundaryRay, DataclassBoundaryRay]

    def __post_init__(self):
        a, b = self.rays
        if a.rank != b.rank:
            raise PreconditionError("leaf rays must share a rank")
        if a == b:
            raise PreconditionError("a leaf needs two distinct boundary points")
        if b.sort_key() < a.sort_key():
            a, b = b, a
        object.__setattr__(self, "rays", (a, b))

    def __str__(self):
        return f"({self.rays[0]}, {self.rays[1]})"


def object_periodic_leaf(g: Word) -> DataclassRationalLeaf:
    """The leaf (g^-infinity, g^+infinity); g is cyclically reduced first."""
    conj, core = cyclic_reduce(g)
    if not core.letters:
        raise DegenerateSubgroupError("the identity has no periodic leaf")
    return DataclassRationalLeaf((DataclassBoundaryRay(conj, core.inverse()),
                                  DataclassBoundaryRay(conj, core)))


def trace(graph: StallingsGraph, v: int, letters) -> int | None:
    """The end of `letters` read from v, one dart-map read per letter; None
    where the word leaves the graph."""
    for l in letters:
        v = graph.darts_at(v).get(l)
        if v is None:
            return None
    return v


def reads_forever(graph: StallingsGraph, prefix: tuple[int, ...],
                  period: tuple[int, ...]) -> bool:
    """True iff the ray prefix * period^infinity reads from the basepoint forever.

    Read the prefix, then the period repeatedly; the state after each period
    is a single vertex, so a repeat proves an infinite readable tail, and a
    stuck read refutes it.  Terminates within (number of vertices) periods.
    """
    v = trace(graph, graph.base, prefix)
    if v is None:
        return False
    seen = set()
    while v not in seen:
        seen.add(v)
        v = trace(graph, v, period)
        if v is None:
            return False
    return True


def object_boundary_membership(graph: StallingsGraph, ray: DataclassBoundaryRay) -> bool:
    """True iff the infinite word is readable from the basepoint forever.
    The nv + 1 vertices reached after the prefix and after each of nv
    periods cannot all differ, and reading is deterministic, so a head that
    long reads iff the whole ray does."""
    head = ray.prefix.letters + ray.period.letters * graph.nv
    return trace(graph, graph.base, head) is not None


def object_carries(graph: StallingsGraph, leaf: DataclassRationalLeaf) -> bool:
    """Literal two-ray membership — no translation is applied."""
    return (object_boundary_membership(graph, leaf.rays[0])
            and object_boundary_membership(graph, leaf.rays[1]))


def translate_ray(w: Word, ray: DataclassBoundaryRay) -> DataclassBoundaryRay:
    """The ray w * prefix * period^infinity (left action of the group)."""
    merged = w * ray.prefix  # Word multiplication reduces the seam
    return DataclassBoundaryRay(merged, ray.period)


def translate_leaf(w: Word, leaf: DataclassRationalLeaf) -> DataclassRationalLeaf:
    return DataclassRationalLeaf((translate_ray(w, leaf.rays[0]),
                                  translate_ray(w, leaf.rays[1])))


def object_carrier_scan(graph, subgroup, epsilon, max_word: int,
                        max_translate: int) -> dict:
    """Scan the short-leaf stock for leaves the subgroup carries.

    The headline list applies the literal carrying test to the untranslated
    periodic leaves of the short conjugacy classes; hits among their
    translates are reported separately (the orbit question), since any
    subgroup containing some w*g*w^-1 carries the translated leaf w*leaf(g)
    without carrying leaf(g) itself.
    """
    short = [Word(t, graph.rank) for t in graph.omega_epsilon(epsilon, max_word)]
    leaves = [object_periodic_leaf(g) for g in short]
    carried = []
    for g, leaf in zip(short, leaves):
        if object_carries(subgroup, leaf):
            carried.append({"generator": str(g), "leaf": str(leaf)})
    translate_hits = []
    if max_translate > 0 and short:
        translates = [Word(t, graph.rank) for t in enumerate_words(graph.rank, max_translate)
                      if t]
        for g, base in zip(short, leaves):
            for w in translates:
                moved = translate_leaf(w, base)
                if object_carries(subgroup, moved):
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


# -- adjacency as out/inc dict pairs -------------------------------------------


def _out_inc(nv: int, edges) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Per vertex, {label: target} of its outgoing and {label: source} of its
    incoming edges, as ``StallingsGraph`` stored them."""
    out: list[dict[int, int]] = [{} for _ in range(nv)]
    inc: list[dict[int, int]] = [{} for _ in range(nv)]
    for u, l, v in edges:
        out[u][l] = v
        inc[v][l] = u
    return out, inc


def _pair_darts(out, inc, v: int, rank: int) -> list[tuple[int, int]]:
    """(letter, target) at v in the order the ``darts_at`` generator walked
    the pair: 1, -1, 2, -2, ..."""
    darts = []
    for l in range(1, rank + 1):
        if l in out[v]:
            darts.append((l, out[v][l]))
        if l in inc[v]:
            darts.append((-l, inc[v][l]))
    return darts


def out_inc_darts(graph) -> list[list[tuple[int, int]]]:
    """Every vertex's (letter, target) list, read from ``graph.edges``."""
    out, inc = _out_inc(graph.nv, graph.edges)
    return [_pair_darts(out, inc, v, graph.rank) for v in range(graph.nv)]


def pair_hall_completion(graph, g: Word | None):
    """(cover_edges, embedding, h_basis, complement_basis) of the Hall
    completion as it ran on out/inc copies, with its own ``add_edge`` and
    trace, its own breadth-first renumbering and a two-phase spanning tree
    that stores the letter path of every vertex."""
    n = graph.rank
    out, inc = _out_inc(graph.nv, graph.edges)
    nv = graph.nv

    def add_edge(u: int, l: int, v: int) -> None:
        out[u][l] = v
        inc[v][l] = u

    if g is not None:
        v = graph.base
        for letter in g.letters:
            nxt = out[v].get(letter) if letter > 0 else inc[v].get(-letter)
            if nxt is None:
                nxt = nv
                nv += 1
                out.append({})
                inc.append({})
                add_edge(*((v, letter, nxt) if letter > 0 else (nxt, -letter, v)))
            v = nxt
    for l in range(1, n + 1):
        missing_out = sorted(v for v in range(nv) if l not in out[v])
        missing_in = sorted(v for v in range(nv) if l not in inc[v])
        for u, w in zip(missing_out, missing_in):
            add_edge(u, l, w)

    perm = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for _, w in _pair_darts(out, inc, v, n):
            if w not in perm:
                perm[w] = len(perm)
                queue.append(w)
    out, inc = _out_inc(nv, [(perm[u], l, perm[v])
                             for u in range(nv) for l, v in out[u].items()])
    cover_edges = tuple(sorted((u, l, v) for u in range(nv) for l, v in out[u].items()))
    original = {(perm[u], l, perm[v]) for u, l, v in graph.edges}

    path_to: dict[int, tuple[int, ...]] = {0: ()}
    tree: set[tuple[int, int, int]] = set()
    order = [0]
    for only_original in (True, False):
        queue = deque(order)
        while queue:
            v = queue.popleft()
            for letter, w in _pair_darts(out, inc, v, n):
                edge = (v, letter, w) if letter > 0 else (w, -letter, v)
                if w in path_to or (only_original and edge not in original):
                    continue
                path_to[w] = path_to[v] + (letter,)
                tree.add(edge)
                order.append(w)
                queue.append(w)
    h_basis: list[Word] = []
    complement: list[Word] = []
    for u, l, v in cover_edges:
        if (u, l, v) not in tree:
            word = Word.make(path_to[u] + (l,) + _inv(path_to[v]), n)
            (h_basis if (u, l, v) in original else complement).append(word)
    embedding = {v: perm[v] for v in range(graph.nv)}
    return cover_edges, embedding, tuple(h_basis), tuple(complement)


def probe_fiber_product(g1, g2):
    """``fiber_product`` as it probed all 2n letters at each product vertex
    through both graphs' out/inc pairs."""
    out1, inc1 = _out_inc(g1.nv, g1.edges)
    out2, inc2 = _out_inc(g2.nv, g2.edges)
    start = (0, 0)
    ids = {start: 0}
    queue = deque([start])
    edges = []
    while queue:
        state = queue.popleft()
        v1, v2 = state
        for l in range(1, g1.rank + 1):
            for sgn, (a, b) in ((1, (out1, out2)), (-1, (inc1, inc2))):
                w1, w2 = a[v1].get(l), b[v2].get(l)
                if w1 is None or w2 is None:
                    continue
                nxt = (w1, w2)
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    queue.append(nxt)
                if sgn > 0:
                    edges.append((ids[state], l, ids[nxt]))
                else:
                    edges.append((ids[nxt], l, ids[state]))
    return fold_to_core(len(ids), sorted(set(edges)), g1.rank)


def adjacency_letter_loops(rank, nv, edges, tree, marking, base=0) -> dict:
    """The letter loops ``MarkedMetricGraph`` builds, or the error it raises,
    checked the way its constructor did with adjacency lists, a valence
    array and a tree adjacency built from the sorted tree edges."""
    if not isinstance(rank, int) or rank < 1:
        raise InvalidSystemError("rank must be a positive integer")
    if not isinstance(nv, int) or nv < 1:
        raise InvalidSystemError("need at least one vertex")
    edge_list = []
    for u, v, length in edges:
        if not (0 <= u < nv and 0 <= v < nv):
            raise InvalidSystemError("edge endpoint out of range")
        length = Scalar.of(length)
        if length.sign() <= 0:
            raise InvalidSystemError("edge lengths must be positive")
        edge_list.append((u, v, length))
    fields = [f"sqrt{d}" for d in dict.fromkeys(l.d for *_, l in edge_list) if d != 1]
    if len(fields) > 1:
        raise InvalidSystemError(f"edge lengths mix {fields[0]} and {fields[1]}; "
                                 "a marked graph's lengths lie in one field")
    ne = len(edge_list)
    if ne - nv + 1 != rank:
        raise InvalidSystemError(
            f"graph has first Betti number {ne - nv + 1}, marking needs {rank}")
    if not (0 <= base < nv):
        raise InvalidSystemError("basepoint out of range")

    adjacency = {v: [] for v in range(nv)}
    valence = [0] * nv
    for u, v, _ in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
        valence[u] += 1
        valence[v] += 1
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nv:
        raise InvalidSystemError("graph must be connected")
    bad = [v for v in range(nv) if valence[v] <= 1]
    if bad:
        raise InvalidSystemError(
            f"vertex {bad[0]} has valence {valence[bad[0]]}; "
            "a minimal graph has no valence-one vertices")

    tree = frozenset(tree)
    if not all(isinstance(t, int) and 0 <= t < ne for t in tree):
        raise InvalidSystemError("spanning tree refers to unknown edges")
    if len(tree) != nv - 1:
        raise InvalidSystemError("spanning tree must have nv-1 edges")
    tree_adj = {v: [] for v in range(nv)}
    for eid in sorted(tree):
        u, v, _ = edge_list[eid]
        tree_adj[u].append((v, eid + 1))
        tree_adj[v].append((u, -(eid + 1)))
    path_to = {base: ()}
    stack = [base]
    while stack:
        x = stack.pop()
        for y, dart in tree_adj[x]:
            if y not in path_to:
                path_to[y] = path_to[x] + (dart,)
                stack.append(y)
    if len(path_to) != nv:
        raise InvalidSystemError("spanning tree contains a cycle")

    non_tree = tuple(sorted(set(range(ne)) - tree))
    marking = dict(marking)
    if set(marking) != set(non_tree):
        raise InvalidSystemError(
            "marking must assign a word to each non-tree edge, and only those")
    words = []
    for eid in non_tree:
        w = marking[eid]
        if not isinstance(w, Word):
            raise InvalidSystemError("marking values must be Word instances")
        if w.rank != rank:
            raise InvalidSystemError("marking word has wrong rank")
        words.append(w)
    exprs = invert_basis(words, rank)

    nt_loops = {}
    for j, eid in enumerate(non_tree, 1):
        u, v, _ = edge_list[eid]
        nt_loops[j] = _mul(path_to[u], (eid + 1,), _inv(path_to[v]))
        nt_loops[-j] = _inv(nt_loops[j])
    loops = {}
    for a, expr in enumerate(exprs, 1):
        loop = _mul(*(nt_loops[x] for x in expr))
        loops[a], loops[-a] = loop, _inv(loop)
    return loops


# -- the frozen dataclasses of the value classes --------------------------------


@dataclass(frozen=True, slots=True)
class DataclassWord:
    letters: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} is above {MAX_RANK}: words are written in a-z")
        object.__setattr__(self, "letters", tuple(self.letters))
        for l in self.letters:
            if not isinstance(l, int) or l == 0 or abs(l) > self.rank:
                raise ValueError(f"letter {l!r} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not reduced")

    def __repr__(self) -> str:
        return f"Word({_letters_text(self.letters)!r}, rank={self.rank})"


@dataclass(frozen=True)
class DataclassInterval:
    lo: Scalar
    hi: Scalar

    def __post_init__(self):
        if self.hi < self.lo:
            raise InvalidSystemError(
                f"interval endpoints out of order: [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class DataclassPartialIsometry:
    dom: Interval
    orient: int
    offset: Scalar

    def __post_init__(self):
        if self.orient not in (1, -1):
            raise InvalidSystemError("orientation must be +1 or -1")


@dataclass(frozen=True)
class DataclassScenario:
    name: str
    description: str
    steps: tuple = ()
    seed: int | None = None


@dataclass(frozen=True)
class DataclassHallWitness:
    subgroup: StallingsGraph
    cover: StallingsGraph
    embedding: dict[int, int]
    h_basis: tuple[Word, ...]
    complement_basis: tuple[Word, ...]
    excluded: Word | None = None


# -- construction stages that walked their data twice ------------------------


def two_walk_canonical(rank: int, darts) -> tuple[StallingsGraph, dict[int, int]]:
    """``stallings._canonical`` when it only renumbered, and left the checks
    and the edges to the constructor, whose two walks ``_checked_graph``
    keeps."""
    letters = ordered_letters(rank)
    perm = {0: 0}
    order = [0]
    renumbered = []
    for v in order:
        here = darts[v]
        for l in letters:
            if l in here and here[l] not in perm:
                perm[here[l]] = len(order)
                order.append(here[l])
        renumbered.append({l: perm[here[l]] for l in letters if l in here})
    if len(order) != sum(here is not None for here in darts):
        raise RuntimeError("canonical form requires a connected graph")
    return _checked_graph(rank, renumbered), perm


def fold_to_core(nv: int, edges, rank: int) -> StallingsGraph:
    """Fold, core-trim (keeping the basepoint), and canonicalise a raw graph."""
    _, darts, _ = compacting_fold(nv, edges)
    folding.trim(darts, protect=0)
    return two_walk_canonical(rank, darts)[0]


def three_pass_parse_word(text: str, rank: int) -> Word:
    """``parse_word`` with a checking loop, a reduction of one-letter pieces
    and the checking ``Word`` constructor, one pass each."""
    letters = []
    for ch in text.strip():
        l = _LETTER.get(ch, 0)
        if not 0 < abs(l) <= rank:
            raise ParseError(f"bad letter {ch!r} in word {text!r} (rank {rank})")
        letters.append(l)
    return Word.make(letters, rank)


# -- scalar text and report rendering before one encoder pass --------------------


def _ratio_text(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0."""
    g = gcd(n, q)
    return f"{n // g}" if q == g else f"{n // g}/{q // g}"


def gcd_scalar_text(s: Scalar) -> str:
    """The text of rat + irr*sqrt(d) with str(Fraction) for each part."""
    a, b, den, d = s._a, s._b, s._den, s._d
    if not b:
        return _ratio_text(a, den)
    tail = _ratio_text(b, den)
    if tail == "1":
        tail = f"sqrt{d}"
    elif tail == "-1":
        tail = f"-sqrt{d}"
    else:
        tail = f"{tail}*sqrt{d}"
    if not a:
        return tail
    return f"{_ratio_text(a, den)}{'+' if b > 0 else ''}{tail}"


def copying_to_jsonable(value):
    """Recursively convert engine values to JSON-serializable structures; an
    engine value with a report form of its own gives it by `jsonable()`."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Scalar):
        return str(value)
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, dict):
        return {str(k): copying_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [copying_to_jsonable(v) for v in items]
    jsonable = getattr(value, "jsonable", None)
    if jsonable is not None:
        return jsonable()
    if hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        raise TypeError(f"no JSON form for {type(value).__name__}")
    return value


def copying_render_json(report: dict) -> str:
    body = copying_to_jsonable(report)
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def _copying_text_lines(value, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from _copying_text_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {_copying_scalar_text(v)}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}-"
                yield from _copying_text_lines(v, indent + 1)
            else:
                yield f"{pad}- {_copying_scalar_text(v)}"
    else:
        yield f"{pad}{_copying_scalar_text(value)}"


def _copying_scalar_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
    return str(v)


def copying_render_text(report: dict) -> str:
    return "\n".join(_copying_text_lines(copying_to_jsonable(report), 0)) + "\n"
