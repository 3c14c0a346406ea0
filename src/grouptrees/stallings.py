"""Subgroups of free groups as folded basepointed graphs.

A finitely generated subgroup H of the rank-n free group is represented by its
folded core graph: vertices, edges labeled 1..n, and a basepoint.  Words label
paths (positive letter = edge forward, negative = backward); H is exactly the
set of words labeling closed paths at the basepoint.

The module covers membership, index, intersections (fiber product),
conjugation, free bases read off the spanning tree that the canonical
numbering walk records, and completion of the core graph to a finite cover
witnessing that H is a free factor of a finite-index subgroup avoiding any
designated outside element.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .core import Word, _Frozen, _word, inverse, ordered_letters
from .errors import PreconditionError
from . import folding


class StallingsGraph:
    """Folded labeled graph with basepoint 0, built from one dart map per vertex.

    darts[v] is {±label: target}: +l follows v's outgoing l-edge and -l its
    incoming one backward; `edges` lists the (u, l, v) edges, sorted.  The
    constructor stores what `_canonical` or `_checked_graph` checked.  The
    maps keep the order they are given in.  Only canonical graphs, those
    `build_core`, `fiber_product` and `hall_completion` return, have them
    in letter order (1, -1, 2, -2, ...); for core graphs in canonical form,
    equality and hashing, which are structural, hold iff two graphs
    represent the same subgroup.  `_parent` is the spanning tree that
    `_canonical`'s walk records, {x: (u, l)} for each vertex x other than
    the basepoint, and None for a graph from `_checked_graph`.
    """

    __slots__ = ("rank", "nv", "edges", "_darts", "_parent")

    def __init__(self, rank: int, darts: list[dict[int, int]],
                 edges: tuple[tuple[int, int, int], ...], parent: dict | None = None):
        self.rank = rank
        self.nv = len(darts)
        self.edges = edges
        self._darts = darts
        self._parent = parent

    base = 0  # the basepoint of every graph

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StallingsGraph)
            and self.rank == other.rank
            and self.nv == other.nv
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.nv, self.edges))

    def __repr__(self) -> str:
        return f"StallingsGraph(rank={self.rank}, vertices={self.nv}, edges={len(self.edges)})"

    def jsonable(self) -> dict:
        return {"rank": self.rank, "vertices": self.nv,
                "edges": [[u, l, v] for u, l, v in self.edges],
                "basis": [str(w) for w in basis_of(self)], "index": index(self)}

    def darts_at(self, v: int) -> dict[int, int]:
        """The dart map {letter: target} at v; shared with the graph, so read it only."""
        return self._darts[v]


def _checked_graph(rank: int, darts: list[dict[int, int]]) -> StallingsGraph:
    """A graph on dart maps not from `_canonical`: checks every dart's reverse, sorts the edges."""
    for u, here in enumerate(darts):
        for l, v in here.items():
            if darts[v].get(-l) != u:
                raise RuntimeError(f"dart {l} from {u} to {v} has no reverse")
    return StallingsGraph(rank, darts, tuple(sorted(
        (u, l, v) for u, here in enumerate(darts) for l, v in here.items() if l > 0)))


def _canonical(rank: int, darts) -> tuple[StallingsGraph, dict[int, int]]:
    """Renumber dart maps by BFS from the basepoint; returns (graph, vertex_map).

    Maps that are None are deleted vertices; all others must be reachable.
    Neighbours are numbered in letter order (1, -1, 2, -2, ...), the order of
    the new maps, which makes structural equality canonical.  The same walk
    checks every dart's reverse (named in the input's numbering), lists the
    edges, sorted: vertices come in new order, letters in letter order, and
    keeps as the graph's spanning tree the dart (u, l) that numbered each
    vertex x, the first dart into x in that order.
    """
    letters = ordered_letters(rank)
    perm = {0: 0}
    order = [0]
    renumbered = []
    edges = []
    parent = {}
    for u, v in enumerate(order):
        here, new = darts[v], {}
        for l in filter(here.__contains__, letters):
            w = here[l]
            if darts[w].get(-l) != v:
                raise RuntimeError(f"dart {l} from {v} to {w} has no reverse")
            if w not in perm:
                parent[len(order)] = (u, l)
                perm[w] = len(order)
                order.append(w)
            new[l] = x = perm[w]
            if l > 0:
                edges.append((u, l, x))
        renumbered.append(new)
    if len(order) != sum(here is not None for here in darts):
        raise RuntimeError("canonical form requires a connected graph")
    return StallingsGraph(rank, renumbered, tuple(edges), parent), perm


def build_core(generators, rank: int) -> StallingsGraph:
    """Fold the wedge of generator loops into the core graph of <generators>, a list of Words."""
    _, darts, _ = folding.fold(*folding.wedge(gen.letters for gen in generators))
    return _canonical(rank, darts)[0]  # reduced petals fold to a core: no trim


def _read(graph: StallingsGraph, v: int, letters: tuple[int, ...]) -> tuple[int, int]:
    """(k, u): the longest prefix of `letters` that reads from v, k letters long, ends at u."""
    darts = graph._darts
    for k, l in enumerate(letters):
        u = darts[v].get(l)
        if u is None:
            return k, v
        v = u
    return len(letters), v


def membership(graph: StallingsGraph, letters: tuple[int, ...]) -> bool:
    """True iff the reduced letter tuple labels a closed path at the basepoint."""
    return _read(graph, graph.base, letters) == (len(letters), graph.base)


def index(graph: StallingsGraph) -> int | None:
    """Finite index (= vertex count) iff every vertex carries all 2n labels."""
    full = 2 * graph.rank
    return graph.nv if all(len(darts) == full for darts in graph._darts) else None


def rank_of(graph: StallingsGraph) -> int:
    """First Betti number = free rank of the represented subgroup."""
    return len(graph.edges) - graph.nv + 1


def fiber_product(g1: StallingsGraph, g2: StallingsGraph) -> StallingsGraph:
    """Core graph of the intersection; a product of folded graphs is folded, so only trimmed."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch in fiber product")
    states = [(g1.base, g2.base)]
    ids = {states[0]: 0}
    darts: list[dict[int, int]] = []
    for v1, v2 in states:
        here = {}
        for l, w1 in g1.darts_at(v1).items():
            w2 = g2.darts_at(v2).get(l)
            if w2 is None:
                continue
            if (w1, w2) not in ids:
                ids[w1, w2] = len(states)
                states.append((w1, w2))
            here[l] = ids[w1, w2]
        darts.append(here)
    folding.trim(darts, protect=0)
    return _canonical(g1.rank, darts)[0]


def _tree_loops(graph: StallingsGraph, parent: dict) -> list[tuple[tuple, Word]]:
    """(edge, loop) for each edge off the spanning tree `parent` gives, in
    canonical (sorted) edge order: the basepoint loop crosses the edge and
    otherwise follows tree paths.  Nothing cancels at a seam, as a letter
    that did would make the edge a tree edge.

    parent maps each vertex but the basepoint to its tree dart (u, l); if
    some vertex has none, a BFS from the basepoint and then parent's
    vertices, in that order, gives it one, and `parent` grows in place.
    Linear in the graph plus the length of the loops returned.
    """
    if len(parent) < graph.nv - 1:
        queue = deque([graph.base, *parent])
        while queue:
            v = queue.popleft()
            for letter, w in graph.darts_at(v).items():
                if w not in parent and w != graph.base:
                    parent[w] = (v, letter)
                    queue.append(w)
    tree = {(u, l, x) if l > 0 else (x, -l, u) for x, (u, l) in parent.items()}
    return [((u, l, v), _word(_tree_path(parent, u) + (l,) + inverse(_tree_path(parent, v)),
                              graph.rank))
            for u, l, v in graph.edges if (u, l, v) not in tree]


def _tree_path(parent: dict, x: int) -> tuple[int, ...]:
    """The letters of the tree path from the basepoint to x; `parent` as in _tree_loops."""
    letters = []
    while x in parent:
        x, letter = parent[x]
        letters.append(letter)
    return tuple(reversed(letters))


def basis_of(graph: StallingsGraph) -> list[Word]:
    """Free basis of the subgroup, one word per edge off the tree `_canonical` recorded."""
    return [loop for _, loop in _tree_loops(graph, graph._parent)]


def conjugate(graph: StallingsGraph, g: Word) -> StallingsGraph:
    """Core graph of g H g⁻¹."""
    ginv = g.inverse()
    return build_core([g * h * ginv for h in basis_of(graph)], graph.rank)


def subgroup_elements(graph: StallingsGraph, max_len: int) -> Iterator[tuple[int, ...]]:
    """The subgroup elements of length <= max_len: letter tuples in canonical
    order, a layer at a time, so a caller that stops early builds no more.

    The reduced paths from the basepoint grow one letter at a time, in the
    letter order of `enumerate_words`.  A folded graph reads a reduced word
    along at most one path, so the paths that close at the basepoint are the
    elements, in that order.
    """
    yield ()
    layer = [((), graph.base)]
    for _ in range(max_len):
        layer = [(letters + (l,), w) for letters, v in layer
                 for l, w in graph.darts_at(v).items()
                 if not letters or l != -letters[-1]]
        yield from (letters for letters, v in layer if v == graph.base)


# --------------------------------------------------------------------------
# finite-cover completion with excluded element
# --------------------------------------------------------------------------


class HallWitness(_Frozen):
    """A finite cover certifying that H is a free factor of a finite-index
    subgroup F' = <h_basis> * <complement_basis> with the designated element
    excluded from F'.

    Fields:
      subgroup: the input core graph of H;
      cover: label-full folded graph (every vertex carries all 2n labels);
      embedding: vertex map realizing subgroup -> cover label-preservingly;
      h_basis: free basis of H read off H's own tree, carried into the cover;
      complement_basis: basis of the complementary free factor K;
      excluded: the word kept outside F', or None.
    """

    __slots__ = ("subgroup", "cover", "embedding", "h_basis",
                 "complement_basis", "excluded")

    def __init__(self, subgroup: StallingsGraph, cover: StallingsGraph,
                 embedding: dict[int, int], h_basis: tuple[Word, ...],
                 complement_basis: tuple[Word, ...], excluded: Word | None = None):
        for name, value in zip(self.__slots__, (subgroup, cover, embedding, h_basis,
                                                complement_basis, excluded)):
            object.__setattr__(self, name, value)

    @property
    def cover_index(self) -> int:
        return self.cover.nv

    def verify(self) -> dict[str, bool]:
        """Re-check every claim of the witness from scratch.

        Returns a dict of named booleans; `ok` is their conjunction.
        """
        n = self.cover.rank
        checks = {}
        checks["index_finite"] = index(self.cover) == self.cover.nv
        bound = 2 * (self.subgroup.nv + (len(self.excluded) if self.excluded else 0))
        checks["index_within_bound"] = self.cover.nv <= max(bound, 1)
        emb_ok = self.embedding.get(self.subgroup.base) == self.cover.base
        for u, l, v in self.subgroup.edges:
            eu, ev = self.embedding.get(u), self.embedding.get(v)
            if eu is None or ev is None or self.cover.darts_at(eu).get(l) != ev:
                emb_ok = False
                break
        checks["subgroup_embeds"] = emb_ok
        checks["euler_rank_formula"] = len(self.h_basis) + len(self.complement_basis) == 1 + self.cover.nv * (n - 1)
        if self.excluded is not None:
            checks["excluded_stays_out"] = not membership(self.cover, self.excluded.letters)
        checks["basis_rebuilds_cover"] = (
            build_core(list(self.h_basis) + list(self.complement_basis), n) == self.cover
        )
        checks["ok"] = all(checks.values())
        return checks


def hall_completion(graph: StallingsGraph, g: Word | None = None) -> HallWitness:
    """Complete the core graph of H to a finite cover; if g is given (g not in
    H), the completion provably excludes g.

    Strategy: first trace g from the basepoint, attaching fresh path edges
    wherever the trace leaves the graph — this keeps the graph folded and ends
    at a non-basepoint vertex, so *any* subsequent completion keeps g outside.
    Then make every label a permutation of the vertices by pairing the sorted
    missing-outgoing list with the sorted missing-incoming list per label.
    """
    n = graph.rank
    if g is not None and membership(graph, g.letters):
        raise PreconditionError("excluded element already belongs to the subgroup")

    darts = [dict(graph.darts_at(v)) for v in range(graph.nv)]
    if g is not None:
        k, v = _read(graph, graph.base, g.letters)
        for letter in g.letters[k:]:
            darts[v][letter] = len(darts)
            darts.append({-letter: v})
            v = len(darts) - 1
        if v == graph.base:
            raise RuntimeError("g traced back to the basepoint despite g not in H")

    nv = len(darts)
    for l in range(1, n + 1):
        missing_out = [v for v in range(nv) if l not in darts[v]]
        missing_in = [v for v in range(nv) if -l not in darts[v]]
        for u, w in zip(missing_out, missing_in):
            darts[u][l], darts[w][-l] = w, u

    cover, perm = _canonical(n, darts)
    original = {(perm[u], l, perm[v]) for u, l, v in graph.edges}
    embedding = {v: perm[v] for v in range(graph.nv)}

    # H's own tree, carried into the cover, spans H's image; grown on from
    # H's vertices in H's order, the non-tree edges split cleanly into an
    # H-basis and a complement basis
    h_basis: list[Word] = []
    complement: list[Word] = []
    for edge, loop in _tree_loops(cover, {perm[x]: (perm[u], l)
                                          for x, (u, l) in graph._parent.items()}):
        (h_basis if edge in original else complement).append(loop)

    return HallWitness(
        subgroup=graph,
        cover=cover,
        embedding=embedding,
        h_basis=tuple(h_basis),
        complement_basis=tuple(complement),
        excluded=g,
    )
