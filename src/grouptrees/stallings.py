"""Subgroups of free groups as folded basepointed graphs.

A finitely generated subgroup H of the rank-n free group is represented by its
folded core graph: vertices, edges labeled 1..n, and a basepoint.  Words label
paths (positive letter = edge forward, negative = backward); H is exactly the
set of words labeling closed paths at the basepoint.

The module covers membership, index, intersections (fiber product),
conjugation, free bases read off a spanning tree, and completion of the core
graph to a finite cover witnessing that H is a free factor of a finite-index
subgroup avoiding any designated outside element.
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
    represent the same subgroup.
    """

    __slots__ = ("rank", "nv", "edges", "_darts")

    def __init__(self, rank: int, darts: list[dict[int, int]],
                 edges: tuple[tuple[int, int, int], ...]):
        self.rank = rank
        self.nv = len(darts)
        self.edges = edges
        self._darts = darts

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

    # -- path tracing -----------------------------------------------------------

    def step(self, v: int, letter: int) -> int | None:
        """Follow one letter from vertex v; None when the edge is absent."""
        return self._darts[v].get(letter)

    def trace(self, v: int, letters) -> int | None:
        for l in letters:
            v = self.step(v, l)
            if v is None:
                return None
        return v

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
    checks every dart's reverse (named in the input's numbering) and lists
    the edges, sorted: vertices come in new order, letters in letter order.
    """
    letters = ordered_letters(rank)
    perm = {0: 0}
    order = [0]
    renumbered = []
    edges = []
    for u, v in enumerate(order):
        here, new = darts[v], {}
        for l in filter(here.__contains__, letters):
            w = here[l]
            if darts[w].get(-l) != v:
                raise RuntimeError(f"dart {l} from {v} to {w} has no reverse")
            if w not in perm:
                perm[w] = len(order)
                order.append(w)
            new[l] = x = perm[w]
            if l > 0:
                edges.append((u, l, x))
        renumbered.append(new)
    if len(order) != sum(here is not None for here in darts):
        raise RuntimeError("canonical form requires a connected graph")
    return StallingsGraph(rank, renumbered, tuple(edges)), perm


def build_core(generators, rank: int) -> StallingsGraph:
    """Fold the wedge of generator loops into the core graph of <generators>, a list of Words."""
    _, darts, _ = folding.fold(*folding.wedge(gen.letters for gen in generators))
    folding.trim(darts, protect=0)
    return _canonical(rank, darts)[0]


def membership(graph: StallingsGraph, letters: tuple[int, ...]) -> bool:
    """True iff the reduced letter tuple labels a closed path at the basepoint."""
    return graph.trace(graph.base, letters) == graph.base


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
            w2 = g2.step(v2, l)
            if w2 is None:
                continue
            if (w1, w2) not in ids:
                ids[w1, w2] = len(states)
                states.append((w1, w2))
            here[l] = ids[w1, w2]
        darts.append(here)
    folding.trim(darts, protect=0)
    return _canonical(g1.rank, darts)[0]


def spanning_tree_paths(graph: StallingsGraph, inside=frozenset()) -> tuple[dict, list]:
    """BFS spanning tree from the basepoint, grown through `inside` edges first.

    A first pass reaches what it can through edges of `inside` only; a
    second continues from those vertices, in the order reached, through all
    edges.  The tree restricted to a connected `inside` subgraph at the
    basepoint is then a spanning tree of that subgraph.  Returns (path_to,
    non_tree_edges): non_tree_edges lists the (u, label, v) edges outside the
    tree in canonical (sorted) order, and path_to[v] is the letter sequence
    of the tree path basepoint -> v for each endpoint v of those edges.  The
    search keeps one parent dart per vertex, so it is linear in the graph
    plus the length of the paths returned.
    """
    parent = {graph.base: None}
    tree: set[tuple[int, int, int]] = set()
    order = [graph.base]
    for only_inside in (True, False) if inside else (False,):
        queue = deque(order)
        while queue:
            v = queue.popleft()
            for letter, w in graph.darts_at(v).items():
                if w in parent:
                    continue
                edge = (v, letter, w) if letter > 0 else (w, -letter, v)
                if only_inside and edge not in inside:
                    continue
                parent[w] = (v, letter)
                tree.add(edge)
                order.append(w)
                queue.append(w)
    non_tree = [e for e in graph.edges if e not in tree]
    path_to = {}
    for end in (x for u, _, v in non_tree for x in (u, v)):
        if end not in path_to:
            letters = []
            x = end
            while parent[x] is not None:
                x, letter = parent[x]
                letters.append(letter)
            path_to[end] = tuple(reversed(letters))
    return path_to, non_tree


def _loop_word(path_to: dict, edge: tuple[int, int, int], rank: int) -> Word:
    """The basepoint loop that crosses `edge` and otherwise follows tree paths;
    nothing cancels at a seam, as a letter that did would make `edge` a tree edge."""
    u, l, v = edge
    return _word(path_to[u] + (l,) + inverse(path_to[v]), rank)


def basis_of(graph: StallingsGraph) -> list[Word]:
    """Free basis of the subgroup, one word per non-tree edge (deterministic)."""
    path_to, non_tree = spanning_tree_paths(graph)
    return [_loop_word(path_to, e, graph.rank) for e in non_tree]


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
      h_basis: free basis of H read off the cover's spanning tree;
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
            if eu is None or ev is None or self.cover.step(eu, l) != ev:
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
        v = graph.base
        for letter in g.letters:
            nxt = darts[v].get(letter)
            if nxt is None:
                nxt = len(darts)
                darts[v][letter] = nxt
                darts.append({-letter: v})
            v = nxt
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

    # the tree grows inside the image of H's core graph first, so the
    # non-tree edges split cleanly into an H-basis and a complement basis
    path_to, non_tree = spanning_tree_paths(cover, original)
    h_basis: list[Word] = []
    complement: list[Word] = []
    for edge in non_tree:
        (h_basis if edge in original else complement).append(_loop_word(path_to, edge, n))

    return HallWitness(
        subgroup=graph,
        cover=cover,
        embedding=embedding,
        h_basis=tuple(h_basis),
        complement_basis=tuple(complement),
        excluded=g,
    )
