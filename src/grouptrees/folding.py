"""Labeled directed graphs: wedges of loops, folding, trimming.

A graph here is a plain pair (nv, edges): vertices are 0..nv-1, vertex 0 is
the basepoint, edges are (src, label, tgt) with labels in 1..rank, and every
traversal may read an edge forward (letter +label) or backward (letter
-label).  Canonical renumbering is `StallingsGraph.canonical`.

Folding identifies vertices until no vertex has two equally-labeled outgoing
or two equally-labeled incoming edges; the result is the unique folded
quotient, independent of merge order.  Its vertices are numbered in the order
of their least original vertex, so the output does not depend on the order in
which folds happen either.

:func:`fold` is a single worklist folder over a union-find of vertex classes
(Touikan, "A fast algorithm for Stallings' folding process", IJAC 2006; in
the framework of Kapovich-Myasnikov, J. Algebra 2002).  Every class root keeps
one slot per signed label (+l outgoing, -l incoming) holding an edge; an edge
arriving at an occupied slot folds with the edge already there.  A merge
re-queues only the slots of the class that disappears, at most two per label.

Edges may carry decorations: reduced letter tuples over another alphabet,
multiplied along paths (an edge read backward contributes the inverse).  Each
vertex carries a gauge word relative to its union-find parent; the
decoration of an edge (u, l, v) with stored word d is read as
G(u)^-1 * d * G(v), where G(x) is the product of gauges from x up to its
root.  A merge gauges the vanishing root so that the colliding edges agree,
which costs a few finds instead of a rewrite of every edge.  The decoration
product along every closed path at the basepoint is preserved: the
basepoint's class is never gauged.  Plain folding is the same loop with every
decoration empty.
"""

from __future__ import annotations

from collections import deque
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
    """Fold the graph; returns (new_nv, new_edges, new_decorations).

    New vertex ids are compact and keep vertex 0, the basepoint, at 0;
    new_edges is sorted and duplicate-free.  `decorations`, if given, holds
    one reduced letter tuple per edge; new_decorations holds the folded
    decoration of each of new_edges (all empty without decorations).  Raises
    NotABasisError when two edges become parallel with different
    decorations: the decorations then satisfy a relation.
    """
    edge_list = list(edges)
    decs = [()] * len(edge_list) if decorations is None else list(decorations)
    parent = list(range(nv))
    gauge: list[tuple[int, ...]] = [()] * nv
    size = [1] * nv
    slots: list[dict[int, int]] = [{} for _ in range(nv)]
    dead = [False] * len(edge_list)

    def find(x: int) -> int:
        """Root of x's class; compresses the path, so gauge[x] becomes G(x)."""
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
        """G(u)^-1 * d * G(v); both ends must have been found since the last merge."""
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
            # j already holds this slot: fold i onto j.
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
                # gauge c on the vanishing class makes the two decorations
                # agree: dg*c = dk for arriving edges, c^-1*dg = dk for leaving
                c = product(inverse(dg), dk) if key > 0 else product(dg, inverse(dk))
                parent[gone], gauge[gone] = keep, c
                size[keep] += size[gone]
                queue.extend(slots[gone].values())
                slots[gone] = {}
            # i and j are now parallel with equal decorations: drop i.
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


def trim(nv: int, edges: list[tuple[int, int, int]], protect: int | None):
    """Repeatedly delete valence-<=1 vertices (never `protect`).

    Returns (kept_vertex_set, kept_edges).  With protect=None the result is the
    maximal subgraph with all valences >= 2 (possibly empty).  Deleting a
    vertex never raises another's valence, so the result does not depend on
    the deletion order; a worklist of vertices whose valence has dropped to
    <= 1 peels them in time linear in the graph.
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
