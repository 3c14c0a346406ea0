"""Marked metric graphs and the trees they encode.

A marked metric graph is a finite connected metric graph of first Betti
number n, with no valence-one vertices, together with a marking: a choice of
spanning tree and, for each non-tree edge, a word in the rank-n free group,
such that the induced assignment (non-tree edge loop -> word) identifies the
fundamental group of the graph with the free group.  Its universal cover is a
simplicial metric tree with a free cocompact action, and everything here
(translation lengths, minimal subtrees of subgroups, translate overlaps) is
computed exactly on that tree.

Conventions
-----------
* Edges are numbered 0..E-1; a *dart* is a signed id +-(eid+1): positive runs
  the edge from its first endpoint to its second, negative the reverse.
* `word_to_loop` sends a group word to an edge-dart loop at the basepoint
  whose marking image is that word, so tree coordinates can be labeled by
  (reduced word, vertex) pairs.
* Subtrees of the universal cover are handled through the fundamental-domain
  graph P of the subgroup's cover.  P is folded, so a reduced loop reads in P
  up to its first missing edge and never re-enters it: the rest of the loop
  hangs off P at the vertex reached, and P's hair leads from that vertex to
  the core.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count, islice
from operator import mul

from .core import (Scalar, Word, ZERO, _class_table, _class_words, _integer_view,
                   _letters_text, _make, _sign, conjugator_length, enumerate_words,
                   inverse, product, word_sort_key)
from .errors import DegenerateSubgroupError, InvalidSystemError
from .basis_change import invert_basis
from . import folding
from .stallings import (StallingsGraph, _checked_graph, _read, _tree_path, basis_of, index,
                        membership, rank_of, subgroup_elements)


class MarkedMetricGraph:
    """A minimal metric graph with a marking identifying pi_1 with F_n."""

    __slots__ = (
        "rank", "nv", "edges", "tree", "marking", "base",
        "_letter_loops", "_darts_at",
    )

    def __init__(self, rank, nv, edges, tree, marking, base=0):
        if not isinstance(rank, int) or rank < 1:
            raise InvalidSystemError("rank must be a positive integer")
        if not isinstance(nv, int) or nv < 1:
            raise InvalidSystemError("need at least one vertex")
        edge_list = []
        for u, v, length in edges:
            if not (0 <= u < nv and 0 <= v < nv):
                raise InvalidSystemError("edge endpoint out of range")
            if length.sign() <= 0:
                raise InvalidSystemError("edge lengths must be positive")
            edge_list.append((u, v, length))
        fields = [f"sqrt{d}" for d in dict.fromkeys(l.d for *_, l in edge_list) if d != 1]
        if len(fields) > 1:
            raise InvalidSystemError(f"edge lengths mix {fields[0]} and {fields[1]}; "
                                     "a marked graph's lengths lie in one field")
        self.edges = tuple(edge_list)
        ne = len(self.edges)
        if ne - nv + 1 != rank:
            raise InvalidSystemError(
                f"graph has first Betti number {ne - nv + 1}, marking needs {rank}")
        if not (0 <= base < nv):
            raise InvalidSystemError("basepoint out of range")

        # one dart map {±(eid+1): target} per vertex, in dart order
        # (1, -1, 2, -2, ...); a vertex's valence is its dart count
        darts: list[dict[int, int]] = [{} for _ in range(nv)]
        for eid, (u, v, _) in enumerate(self.edges):
            darts[u][eid + 1] = v
            darts[v][-(eid + 1)] = u
        def refuse(error: Exception):  # a disconnected graph is named first
            seen, stack = {0}, [0]
            while stack:
                for w in darts[stack.pop()].values():
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            raise error if len(seen) == nv else InvalidSystemError("graph must be connected")
        bad = [v for v in range(nv) if len(darts[v]) <= 1]
        if bad:
            refuse(InvalidSystemError(
                f"vertex {bad[0]} has valence {len(darts[bad[0]])}; "
                "a minimal graph has no valence-one vertices"))
        try:
            tree = frozenset(tree)
        except TypeError as exc:
            refuse(exc)
        if not all(isinstance(t, int) and 0 <= t < ne for t in tree):
            refuse(InvalidSystemError("spanning tree refers to unknown edges"))
        if len(tree) != nv - 1:
            refuse(InvalidSystemError("spanning tree must have nv-1 edges"))
        # the tree dart (x, dart) into each vertex but the basepoint; nv-1 edges
        # are acyclic iff they reach every vertex, which shows the graph connected
        parent = {}
        stack = [base]
        while stack:
            x = stack.pop()
            for dart, y in darts[x].items():
                if y not in parent and y != base and abs(dart) - 1 in tree:
                    parent[y] = (x, dart)
                    stack.append(y)
        if len(parent) != nv - 1:
            refuse(InvalidSystemError("spanning tree contains a cycle"))

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

        self.rank = rank
        self.nv = nv
        self.tree = tree
        self.marking = marking
        self.base = base
        # NotABasisError propagates if the marking words do not form a basis.
        letter_exprs = invert_basis(words, rank)

        self._darts_at = darts

        # the dart loop of marking symbol ±j, the j-th non-tree edge's loop;
        # its tree and non-tree darts are different edges, so nothing cancels
        nt_loops = {}
        for j, eid in enumerate(non_tree, 1):
            u, v, _ = self.edges[eid]
            nt_loops[j] = _tree_path(parent, u) + (eid + 1,) + inverse(_tree_path(parent, v))
            nt_loops[-j] = inverse(nt_loops[j])

        self._letter_loops = {}
        for a, expr in enumerate(letter_exprs, 1):
            loop = product(*map(nt_loops.__getitem__, expr))
            self._letter_loops[a], self._letter_loops[-a] = loop, inverse(loop)

    # -- darts ---------------------------------------------------------------

    def dart_target(self, d: int) -> int:
        u, v, _ = self.edges[abs(d) - 1]
        return v if d > 0 else u

    def darts_at(self, v: int) -> dict[int, int]:
        """The dart map {dart: target} at v, in dart order (1, -1, 2, -2, ...);
        shared with the graph, so read it only."""
        return self._darts_at[v]

    def dart_marking_letters(self, d: int) -> tuple[int, ...]:
        """Marking letters contributed by crossing a dart (empty for tree darts)."""
        eid = abs(d) - 1
        w = self.marking.get(eid)
        if w is None:
            return ()
        return w.letters if d > 0 else inverse(w.letters)

    # -- loops and lengths ----------------------------------------------------

    def word_to_loop(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        """Dart loop at the basepoint whose marking image is the reduced letter tuple."""
        return product(*map(self._letter_loops.__getitem__, letters))

    def _length_view(self, *extra: Scalar):
        """(den, d, a_of, b_of, pairs): dart x is (a_of[x] + b_of[x]*sqrt(d))/den
        long and extra[i] is (a + b*sqrt(d))/den for (a, b) == pairs[i]; b_of
        is None over Q.  See core._integer_view."""
        ne = len(self.edges)
        den, d, pairs = _integer_view([l for *_, l in self.edges] + list(extra))
        darts = [x for x in range(-ne, ne + 1) if x]
        a_of = {x: pairs[abs(x) - 1][0] for x in darts}
        b_of = {x: pairs[abs(x) - 1][1] for x in darts} if d != 1 else None
        return den, d, a_of, b_of, pairs[ne:]

    def translation_length(self, w: Word) -> Scalar:
        """Exact translation length of w on the universal cover (0 if trivial)."""
        den, d, a_of, b_of, _ = self._length_view()
        loop = _cyclic(self.word_to_loop(w.letters))
        b = sum(map(b_of.__getitem__, loop)) if b_of else 0
        return _make(sum(map(a_of.__getitem__, loop)), b, den, d)

    def volume(self) -> Scalar:
        return sum((length for *_, length in self.edges), ZERO)

    def omega_epsilon(self, epsilon: Scalar, max_len: int) -> list[tuple[int, ...]]:
        """Conjugacy class tuples up to max_len with translation length strictly below epsilon.

        Each class is decided on integers: its length and epsilon share one
        denominator, so the test is one exact sign of a + b*sqrt(d).
        """
        _, d, a_of, b_of, ((ea, eb),) = self._length_view(epsilon)
        loops, out, n, row = self._letter_loops, [], 1, None
        words = enumerate_words(self.rank, max_len, "conjugacy")
        if max_len > 0 and self.rank > 1:   # else no memo is taken or evicted
            calls, rows = _crossings(tuple(loops.items()))
            row = rows if next(calls) else None   # one call on a marking would not repay rows
        # one sign per distinct crossing at a kept length; every class is still enumerated
        while row and n <= max_len and isinstance(_class_words(self.rank, n), tuple):
            ids, crossings = row(n)
            short = [_sign(sum(map(mul, map(a_of.__getitem__, e), c)) - ea,
                           sum(map(mul, map(b_of.__getitem__, e), c)) - eb if b_of else -eb,
                           d) < 0 for e, c in crossings]
            out += compress(islice(words, len(ids)), map(short.__getitem__, ids))
            n += 1
        for w in words:
            loop = _cyclic(product(*map(loops.__getitem__, w)))
            a = sum(map(a_of.__getitem__, loop))
            b = sum(map(b_of.__getitem__, loop)) if b_of else 0
            if _sign(a - ea, b - eb, d) < 0:
                out.append(w)
        return out


def _cyclic(loop: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced loop with its cyclically cancelling ends cut."""
    k = conjugator_length(loop)
    return loop[k:len(loop) - k]


@lru_cache(maxsize=32)
def _crossings(marking: tuple) -> tuple:
    """(calls, row) for a marking of rank >= 2, as (letter, dart loop) pairs: a
    count of omega_epsilon's calls, and row(n) = (ids, crossings) for a kept n;
    crossings[ids[i]] = (edges, counts) is what class i's cyclic loop crosses."""
    @lru_cache(maxsize=None)
    def row(n: int) -> tuple:
        loops, seen = dict(marking), {}
        crossed = (tuple(sorted(map(abs, _cyclic(product(*map(loops.__getitem__, w))))))
                   for w in _class_table(len(loops) // 2, n))
        ids = tuple([seen.setdefault(c, len(seen)) for c in crossed])
        edges = [tuple(dict.fromkeys(c)) for c in seen]   # c is sorted
        return ids, tuple((e, tuple(map(c.count, e))) for c, e in zip(seen, edges))
    return count(), row


# -- minimal subtrees of subgroups --------------------------------------------


class CoverCore:
    """The subgroup's cover of a marked graph, split into core and hanging trees.

    `p` is the folded fundamental-domain graph P, a compact subgraph of the
    subgroup's cover containing its core, with basepoint 0; its edge labels
    are the graph's darts, so P's letter d crosses edge |d|-1.  `core_*`
    fields describe the core itself, which is the quotient of the subgroup's
    minimal subtree.  `toward_core` is P's hair, and `core_darts` the core's
    edges as seen from each core vertex.
    """

    __slots__ = (
        "graph", "subgroup", "p", "core_edges", "core_vertices", "vertex_image",
        "is_covering", "degree", "core_volume", "core_darts", "toward_core",
    )

    def __init__(self, graph: MarkedMetricGraph, subgroup: StallingsGraph):
        if subgroup.rank != graph.rank:
            raise InvalidSystemError("subgroup rank does not match the marking rank")
        if rank_of(subgroup) == 0:
            raise DegenerateSubgroupError(
                "the trivial subgroup fixes no minimal subtree")
        self.graph = graph
        self.subgroup = subgroup

        nv, edges = folding.wedge(graph.word_to_loop(b.letters) for b in basis_of(subgroup))
        _, folded, _ = folding.fold(nv, edges)
        # live ids in increasing order, so each class is numbered by its least
        # original vertex; P keeps copies, as trimming the core edits `darts`
        number = {x: i for i, x in enumerate(x for x, here in enumerate(folded) if here)}
        darts = [{k: number[t] for k, t in folded[x].items()} for x in number]
        self.p = p = _checked_graph(len(graph.edges), [dict(here) for here in darts])

        image: dict[int, int] = {}
        for u, l, v in p.edges:
            gu, gv, _ = graph.edges[l - 1]
            for x, g in ((u, gu), (v, gv)):
                if image.setdefault(x, g) != g:
                    raise RuntimeError(
                        f"cover vertex {x} maps to base vertices {image[x]} and {g}")
        if image[p.base] != graph.base:
            raise RuntimeError("cover basepoint does not map to the graph's basepoint")
        if len(image) != p.nv:
            raise RuntimeError("some cover vertex has no image in the graph")
        self.vertex_image = image

        folding.trim(darts, protect=None)
        core_vertices = frozenset(x for x, here in enumerate(darts) if here is not None)
        if not core_vertices:
            raise RuntimeError("a nontrivial subgroup always has a nonempty core")
        core_edges = frozenset((x, d, y) for x in core_vertices
                               for d, y in darts[x].items() if d > 0)
        self.core_edges = core_edges
        self.core_vertices = core_vertices
        if len(core_edges) - len(core_vertices) + 1 != rank_of(subgroup):
            raise RuntimeError("core graph rank differs from the subgroup rank")

        # T_H as P sees it: per core vertex, the core darts leaving
        # it as (dart, marking letters, target vertex, target core vertex).
        # Trimming deletes only darts into deleted vertices, so a P-dart lies
        # in the core iff both its ends do.
        self.core_darts = {
            x: [(d, graph.dart_marking_letters(d), graph.dart_target(d), y)
                for d, y in p.darts_at(x).items() if y in core_vertices]
            for x in core_vertices}
        self.is_covering = all(
            darts[x].keys() == graph.darts_at(image[x]).keys() for x in core_vertices)
        if self.is_covering:
            if len(core_vertices) % graph.nv:
                raise RuntimeError("covering core has a vertex count not divisible by the graph's")
            self.degree = len(core_vertices) // graph.nv
        else:
            self.degree = None

        self.core_volume = sum((graph.edges[l - 1][2] for _, l, _ in core_edges), ZERO)

        # P's hair: from each P-vertex off the core, one dart toward the core
        self.toward_core = {}
        frontier = list(core_vertices)
        while frontier:
            nxt = []
            for y in frontier:
                for d, x in p.darts_at(y).items():
                    if x not in core_vertices and x not in self.toward_core:
                        self.toward_core[x] = (-d, y)
                        nxt.append(x)
            frontier = nxt

    def core_summary(self) -> dict:
        return {
            "vertices": len(self.core_vertices),
            "edges": sorted(self.core_edges),
            "volume": str(self.core_volume),
            "is_covering": self.is_covering,
            "degree": self.degree,
        }


# -- overlaps of subtree translates --------------------------------------------
#
# Universal-cover vertices are labeled (reduced word, graph vertex): the word
# is the marking image of any path from the basepoint lift, so tree darts do
# not change it and crossing a non-tree dart appends that edge's marking word.
# The deck transformation of a group element g sends (u, v) to (g*u, v).


def _to_subtree(cover: CoverCore, loop: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(path, p): the darts from the end y of `loop`, lifted at x0, to the gate
    of y, its projection onto T_H, and the core vertex p of P there.

    The loop is read in P up to its first missing edge; a reduced loop that
    leaves the folded graph P never comes back, so the rest hangs off P at the
    vertex reached.  The gate is reached by undoing that rest and then
    following P's hair to the core.
    """
    k, p = _read(cover.p, cover.p.base, loop)
    path = list(inverse(loop[k:]))
    while p not in cover.core_vertices:
        dart, p = cover.toward_core[p]
        path.append(dart)
    return tuple(path), p


def _meets_translate(cover: CoverCore, g: tuple[int, ...], x1: tuple) -> bool:
    """Whether T_H and g*T_H share a vertex; `x1` is `_to_subtree` of the
    empty loop: the path from x0 to its gate x1, and x1's core vertex in P.

    Two subtrees meet iff the projection onto one of a point of the other
    lies in both.  The projection of x1 onto g*T_H is g times the gate of
    g^-1*x1, so the path from x1 to it has the darts of the path from
    g^-1*x1 to its gate.  T_H is convex: it meets g*T_H iff that path reads
    in P from x1 to a core vertex.
    """
    path = _to_subtree(cover, product(inverse(cover.graph.word_to_loop(g)), x1[0]))[0]
    k, p = _read(cover.p, x1[1], path)
    return k == len(path) and p in cover.core_vertices


def _subtree_ball(cover: CoverCore, h: tuple[int, ...], radius: int) -> dict:
    """T_H within `radius` edges of h*x0, as label -> P-vertex.

    `_to_subtree` finds the gate, the projection of h*x0 onto T_H.  T_H is
    convex, so every vertex of it lies beyond the gate: the rest is a
    breadth-first search through core edges, to the radius left over.
    """
    graph = cover.graph
    path, p = _to_subtree(cover, graph.word_to_loop(h))
    if len(path) > radius:
        return {}
    u = product(h, *map(graph.dart_marking_letters, path))
    ball = {(u, cover.vertex_image[p]): p}
    frontier = [(u, p)]
    for _ in range(radius - len(path)):
        nxt = []
        for u, p in frontier:
            for d, letters, v, q in cover.core_darts[p]:
                key = (product(u, letters) if letters else u, v)
                old = ball.get(key)
                if old is None:
                    ball[key] = q
                    nxt.append((key[0], q))
                elif old != q:
                    raise RuntimeError(f"tree vertex {key} reached at two P-vertices")
        frontier = nxt
    return ball


def _edge_report(graph: MarkedMetricGraph, u, v, eid) -> dict:
    return {
        "sheet": _letters_text(u),
        "vertex": v,
        "edge": eid,
        "length": str(graph.edges[eid][2]),
    }


def _translate_intersection_prepared(cover: CoverCore, g: tuple[int, ...], radius: int,
                                     base: dict) -> dict:
    """Compare the minimal subtree with its g-translate within `radius` of the basepoint.

    Requires g outside the subgroup and a cover that is not a covering (an
    infinite-index subgroup), as `transverse_family_report` ensures.  `base`
    is `_subtree_ball` about the basepoint.  The edges compared are those
    whose source lies within `radius` of x0 or of g*x0.  The outcome
    "nondegenerate-intersection" is an exact certificate; the
    "-within-radius" outcomes only describe the ball.  Each witness is the
    least of its kind in the order (sheet, vertex, edge).
    """
    graph = cover.graph
    report = {"translate": _letters_text(g), "radius": radius}
    ball_g = _subtree_ball(cover, g, radius)
    ball_gi = _subtree_ball(cover, inverse(g), radius)
    merged = dict(base)
    for extra in (ball_g, ball_gi):
        for key, p in extra.items():
            if merged.setdefault(key, p) != p:
                raise RuntimeError(f"the translate balls disagree at {key}")

    def edges(ball, shift=()):
        """(sheet, vertex, edge id) of the core edges whose source is in the ball."""
        return {(product(shift, u) if shift else u, v, d - 1)
                for (u, v), p in ball.items() for d, *_ in cover.core_darts[p] if d > 0}

    # T_H's edges from B(x0) u B(g*x0), and g times T_H's from B(1/g*x0) u B(x0)
    sub = edges(base) | edges(ball_g)
    translate = edges(ball_gi, g) | edges(base, g)
    common = sub & translate

    def first(items):
        return min(items, key=lambda k: (word_sort_key(k[0]),) + k[1:])

    report["common_edge_count"] = len(common)
    if common and sub != translate:
        report["outcome"] = "nondegenerate-intersection"
        report["witness_common"] = _edge_report(graph, *first(common))
        only_sub = sub - common
        diff = first(only_sub or translate - common)
        report["witness_difference"] = dict(
            _edge_report(graph, *diff),
            side="subtree" if only_sub else "translate")
    elif common:
        report["outcome"] = "coincide-within-radius"
        report["witness_common"] = _edge_report(graph, *first(common))
    else:
        shared = (base.keys() | ball_g.keys()) & {
            (product(g, u), v) for u, v in base.keys() | ball_gi.keys()}
        if shared:
            u, v = first(shared)
            report["outcome"] = "single-point-within-radius"
            report["witness_vertex"] = {"sheet": _letters_text(u), "vertex": v}
        else:
            report["outcome"] = "disjoint-within-radius"
    return report


def transverse_family_report(graph: MarkedMetricGraph, subgroup: StallingsGraph,
                             max_len: int, radius: int) -> dict:
    """Search translates gT_H (|g| <= max_len, g outside H) for nondegenerate overlaps.

    Distinct translates of the minimal subtree form a transverse family when
    no two share an edge; each nondegenerate overlap found is a certified
    violation.  A translate w is skipped when h1*w*h2 is shorter or
    shortlex-smaller for some h1, h2 among the first 64 subgroup elements
    (of length <= max_len), so double cosets HgH are merged only as far as
    those elements show.  A kept w for which w*T_H misses T_H, as
    `_meets_translate` decides exactly, shares no vertex with it anywhere
    and gets its disjoint-within-radius row at once; only the others run the
    ball comparison, and the basepoint's ball is built for the first of them.
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

    ball = list(islice(subgroup_elements(subgroup, max_len), 64))
    # A product h1*w*h2 can come out below w (shortlex) only if h1 cancels
    # into w or h2 does.  If just one side cancels and does not swallow all
    # of w, the product is that side's product with w, extended by the other
    # side: checking the unextended one suffices.  So the pairs to check are
    # those in which both sides cancel, and those in which one side starts
    # (h2) or ends (h1) with the whole of w^-1.
    ending, starting = {}, {}
    for h in ball:
        if h:
            ending.setdefault(h[-1], []).append(h)
            starting.setdefault(h[0], []).append(h)

    x1, base = _to_subtree(cover, ()), None
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
        if not _meets_translate(cover, w, x1):
            rows.append({"word": _letters_text(w), "outcome": "disjoint-within-radius"})
            continue
        if base is None:
            base = _subtree_ball(cover, (), radius)
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
