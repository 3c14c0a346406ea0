"""Labeled directed graphs: wedges of loops, folding, trimming.

A raw graph is a plain pair (nv, edges): vertices are 0..nv-1, vertex 0 is
the basepoint, edges are (src, label, tgt) with labels in 1..rank, and every
traversal may read an edge forward (letter +label) or backward (letter
-label).  A folded graph is a list of dart maps, one {±label: target} dict
per vertex, the form `StallingsGraph` is built from.  Canonical renumbering
is `stallings._canonical`.

Folding identifies vertices until no vertex has two equally-labeled outgoing
or two equally-labeled incoming edges; the result is the unique folded
quotient, independent of merge order; each class keeps the id of its least
original vertex, so the ids are too, and `_canonical` renumbers them.

:func:`fold` folds online (Stallings, "Topology of finite graphs", Invent.
Math. 1983; Kapovich-Myasnikov, J. Algebra 2002, section 3): the graph is
kept folded after every edge.  Each live vertex has one dart map {+l: target
of its outgoing l-edge, -l: source of its incoming l-edge}.  An edge is
attached only if neither end already has a dart with its label; otherwise
the vertex that dart leads to and the edge's other end go on a stack of
pairs to merge.  A merge keeps the smaller id and moves the darts of the
vertex that goes into the one that stays, where each collision pushes a new
pair; a folded vertex has at most two darts per label, so a merge costs
O(rank).  Dead ids point to their survivor, the least vertex of their class,
for stale pairs and later edges; vertex 0 is never merged away.

Edges may carry decorations: reduced letter tuples over another alphabet,
multiplied along paths (an edge read backward contributes the inverse),
which ride on the darts.  A pair (y, z, c) says that a path reaching y with
product p reaches z with product p*c; merging y into z regauges y's darts
by c, and a dead id keeps c as its gauge, so an edge (u, l, v) decorated d
reads G(u)^-1 * d * G(v), with G(x) the product of gauges from x up to its
survivor.  Closed paths at the basepoint keep their decoration products; a
pair with one survivor and c nonempty is a relation between decorations.
Plain folding runs the same loop but stores and multiplies no decorations.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from .core import inverse, product
from .errors import NotABasisError


def wedge(loops: Iterable[tuple[int, ...]]) -> tuple[int, list[tuple[int, int, int]]]:
    """The wedge of one petal per nonempty loop of signed labels; returns (nv, edges).

    Vertex 0 is the basepoint.  A petal of length L after nv vertices runs
    through 0, nv, .., nv+L-2, 0; letter +l is an edge read forward, -l an
    edge (target, l, source) read backward.  Empty loops add no petal.
    """
    edges: list[tuple[int, int, int]] = []
    nv = 1
    for letters in loops:
        last = len(letters) - 1
        prev = 0
        for i, l in enumerate(letters):
            nxt = nv + i if i < last else 0
            edges.append((prev, l, nxt) if l > 0 else (nxt, -l, prev))
            prev = nxt
        nv += max(last, 0)
    return nv, edges


def fold(nv: int, edges: Iterable[tuple[int, int, int]],
         decorations: Iterable[tuple[int, ...]] | None = None):
    """Fold the graph; returns (live, darts, dart_decorations).

    darts[x] is the dart map {±label: target} of surviving id x, in the
    order its darts were attached, and None for an id merged away; `live`
    counts the survivors, the basepoint 0 among them.  `decorations`, if
    given, holds one reduced letter tuple per edge; dart_decorations[x, ±l]
    is then the folded decoration of each live dart (its reverse has the
    inverse one; other keys are stale), and None without them.  Raises
    NotABasisError when two edges become parallel with different
    decorations: the decorations then satisfy a relation.
    """
    decorated = decorations is not None
    darts: list[dict[int, int] | None] = [{} for _ in range(nv)]
    dart_decs: dict[tuple[int, int], tuple[int, ...]] = {}  # (x, ±l): decoration
    alias = list(range(nv))
    gauge: list[tuple[int, ...]] = [()] * nv
    pairs: list[tuple[int, int, tuple[int, ...]]] = []  # (y, z, c): y is z, gauged by c

    def find(x: int) -> int:
        """Survivor of x; compresses the path, so gauge[x] becomes G(x)."""
        root = alias[x]
        if alias[root] == root:
            return root
        path = [x]
        while alias[root] != root:
            path.append(root)
            root = alias[root]
        above = gauge[path.pop()]
        for y in reversed(path):
            above = product(gauge[y], above) if above else gauge[y]
            gauge[y] = above
            alias[y] = root
        return root

    def attach(u: int, l: int, v: int, d: tuple[int, ...]) -> None:
        """Add u -l-> v (live ends, decoration d), or push the pair it folds."""
        here, there = darts[u], darts[v]
        if l in here:
            pairs.append((v, here[l], product(inverse(d), dart_decs[u, l])
                          if decorated else ()))
        elif -l in there:
            pairs.append((u, there[-l], product(d, dart_decs[v, -l])
                          if decorated else ()))
        else:
            here[l], there[-l] = v, u
            if decorated:
                dart_decs[u, l], dart_decs[v, -l] = d, inverse(d)

    for (u, l, v), d in zip(edges, decorations if decorated else repeat(()), strict=decorated):
        x = u if alias[u] == u else find(u)
        y = v if alias[v] == v else find(v)
        if gauge[u] or gauge[v]:
            d = product(inverse(gauge[u]), d, gauge[v])
        attach(x, l, y, d)
        while pairs:
            y0, z0, c = pairs.pop()
            y = y0 if alias[y0] == y0 else find(y0)
            z = z0 if alias[z0] == z0 else find(z0)
            if gauge[y0] or gauge[z0]:
                c = product(inverse(gauge[y0]), c, gauge[z0])
            if y == z:
                if c:
                    raise NotABasisError(
                        "relation detected while folding (parallel edges disagree)")
                continue
            if y < z:
                y, z, c = z, y, inverse(c)
            # y goes into z: a dart y -k-> t reads c^-1 * d from z
            alias[y], gauge[y] = z, c
            moved, darts[y] = darts[y], None
            for k, t in moved.items():
                d = dart_decs[y, k] if decorated else ()
                if t == y:
                    if k < 0:
                        continue  # the same loop as its +k dart
                    t = z
                    d = product(inverse(c), d, c) if c else d
                else:
                    del darts[t][-k]
                    d = product(inverse(c), d) if c else d
                attach(z, k, t, d)

    return nv - darts.count(None), darts, dart_decs if decorated else None


def trim(darts: list[dict[int, int] | None], protect: int | None) -> None:
    """Repeatedly delete valence-<=1 vertices (never `protect`), in place.

    `darts` holds one dart map per vertex, none of them None, so a
    vertex's valence is the size of its map (a loop counts twice).  A deleted
    vertex's map becomes None and its darts leave its neighbours' maps.  With
    protect=None what is left is the maximal subgraph with all valences >= 2
    (possibly empty).  Deleting a vertex never raises another's valence, so
    the result does not depend on the deletion order; a worklist of vertices
    whose valence has dropped to <= 1 peels them in time linear in the graph.
    """
    doomed = [v for v, here in enumerate(darts) if len(here) <= 1 and v != protect]
    while doomed:
        x = doomed.pop()
        gone, darts[x] = darts[x], None
        for k, y in gone.items():
            there = darts[y]
            del there[-k]
            if len(there) == 1 and y != protect:
                doomed.append(y)
