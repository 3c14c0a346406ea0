"""The online folder against the union-find and sweep folders it replaced,
and against its own contract: merged ids keep no map, and nothing is renumbered."""

import pytest
from hypothesis import given, strategies as st

from grouptrees import folding
from grouptrees.basis_change import invert_basis
from grouptrees.core import Word, parse_word
from grouptrees.errors import NotABasisError

from _oracles import (compact, compacting_fold, edge_list_trim, layered_trim, reduce_letters,
                      substitute, sweep_classes, sweep_fold, sweep_invert_basis,
                      unionfind_fold)


def petal_wedge(words):
    """The raw wedge of petals that build_core folds, as (nv, edges)."""
    edges = []
    nv = 1
    for letters in words:
        if not letters:
            continue
        prev = 0
        for i, l in enumerate(letters):
            nxt = 0 if i == len(letters) - 1 else nv + i
            edges.append((prev, l, nxt) if l > 0 else (nxt, -l, prev))
            prev = nxt
        nv += len(letters) - 1
    return nv, edges


def word(letters, rank):
    return Word.make(tuple(letters), rank)


def letter(rank):
    return st.integers(-rank, rank).filter(bool)


@st.composite
def generator_lists(draw):
    rank = draw(st.integers(1, 3))
    words = [word(draw(st.lists(letter(rank), max_size=10)), rank)
             for _ in range(draw(st.integers(0, 5)))]
    return rank, [w.letters for w in words]


@st.composite
def conjugate_families(draw):
    """u w_i u^-1 for a long shared prefix u, plus a power of u."""
    rank = draw(st.integers(2, 3))
    u = word(draw(st.lists(letter(rank), min_size=5, max_size=40)), rank)
    gens = [u * word(draw(st.lists(letter(rank), min_size=1, max_size=6)), rank)
            * u.inverse() for _ in range(draw(st.integers(1, 4)))]
    gens.append(Word.make(u.letters * draw(st.integers(0, 3)), u.rank))
    return rank, [g.letters for g in gens]


@st.composite
def raw_graphs(draw):
    """Arbitrary edge lists, not necessarily connected or from petals."""
    nv = draw(st.integers(1, 12))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, st.integers(1, 3), vertex), max_size=24))
    return nv, edges


@st.composite
def multigraphs(draw):
    """Several components, self-loops, repeated edges and isolated vertices."""
    edges, nv = [], 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        vertex = st.integers(nv, nv + size - 1)
        block = draw(st.lists(st.tuples(vertex, st.integers(1, 3), vertex), max_size=10))
        block += [(x, l, x) for x, l in draw(st.lists(st.tuples(vertex, st.integers(1, 3)),
                                                      max_size=3))]
        if block:
            block += draw(st.lists(st.sampled_from(block), max_size=3))
        edges += block
        nv += size
    return nv, draw(st.permutations(edges))


@st.composite
def shared_end_wedges(draw):
    """Petals p*m_i*s with a long shared prefix p and suffix s, as a raw wedge."""
    rank = draw(st.integers(1, 3))
    prefix = word(draw(st.lists(letter(rank), max_size=30)), rank)
    suffix = word(draw(st.lists(letter(rank), max_size=30)), rank)
    petals = [prefix * word(draw(st.lists(letter(rank), max_size=4)), rank) * suffix
              for _ in range(draw(st.integers(1, 4)))]
    petals += [p.inverse() for p in draw(st.lists(st.sampled_from(petals), max_size=2))]
    return folding.wedge(p.letters for p in petals)


def decorations_for(n):
    """n short reduced decorations over x_1..x_3, most of them empty."""
    piece = st.lists(letter(3), max_size=2).map(reduce_letters)
    return st.lists(st.one_of(st.just(()), st.just(()), piece), min_size=n, max_size=n)


def edge_form(folded):
    """(nv, sorted edges, per-edge decorations) of fold's dart maps, compacted,
    the form of ``unionfind_fold``; every dart must come with its reverse,
    decorated by the inverse."""
    nv, darts, decs = compact(folded)
    assert len(darts) == nv
    edges = sorted((u, l, v) for u, here in enumerate(darts) for l, v in here.items() if l > 0)
    for u, here in enumerate(darts):
        for l, v in here.items():
            assert darts[v][-l] == u
            if decs is not None:
                assert decs[v][-l] == inverted(decs[u][l])
    if decs is not None:
        assert [d.keys() for d in decs] == [here.keys() for here in darts]
    return nv, edges, [decs[u][l] if decs is not None else () for u, l, _ in edges]


def assert_same_fold(nv, edges):
    got = folding.fold(nv, edges)
    assert got[2] is None
    got = edge_form(got)
    assert got[:2] == sweep_fold(nv, list(edges))
    assert got == unionfind_fold(nv, edges)


def inverted(letters):
    return tuple(-x for x in reversed(letters))


def tree_loop_products(nv, edges, decs):
    """Decoration products of the loops at 0 that a BFS spanning tree leaves."""
    reach, tree, queue = {0: ()}, set(), [0]
    for x in queue:
        for i, ((u, _, v), d) in enumerate(zip(edges, decs)):
            for a, b, dab in ((u, v, d), (v, u, inverted(d))):
                if a == x and b not in reach:
                    reach[b] = reduce_letters(reach[x] + dab)
                    tree.add(i)
                    queue.append(b)
    return [reduce_letters(reach[u] + d + inverted(reach[v]))
            for i, ((u, _, v), d) in enumerate(zip(edges, decs))
            if i not in tree and u in reach]


def assert_same_decorated_fold(nv, edges, decs):
    """Same verdict and graph as the union-find folder; decorations agree up to gauge."""
    try:
        expected = unionfind_fold(nv, edges, decs)
    except NotABasisError as exc:
        with pytest.raises(NotABasisError) as got:
            folding.fold(nv, edges, decs)
        assert str(got.value) == str(exc)
        return
    got = edge_form(folding.fold(nv, edges, decs))
    assert got[:2] == expected[:2]
    if got[0] == 1:
        assert got[2] == expected[2]
    else:
        assert tree_loop_products(*got) == tree_loop_products(*expected)


class TestFoldMatchesSweep:
    @given(generator_lists())
    def test_generator_lists(self, case):
        _, words = case
        assert_same_fold(*petal_wedge(words))

    @given(conjugate_families())
    def test_conjugate_families(self, case):
        _, words = case
        assert_same_fold(*petal_wedge(words))

    @given(raw_graphs())
    def test_raw_graphs(self, case):
        assert_same_fold(*case)

    def test_long_shared_prefix(self):
        n = 300
        words = [(1,) * n, (1,) * (n + 1), (2,) + (1,) * n]
        assert_same_fold(*petal_wedge(words))

    def test_classes_numbered_by_least_vertex(self):
        # 3 and 1 fold together, then 2 and 0: class of 0 first, then of 1
        folded = folding.fold(4, [(2, 1, 3), (2, 1, 1), (0, 2, 3), (2, 2, 1)])
        assert folded[:2] == (2, [{2: 1, 1: 1}, {-1: 0, -2: 0}, None, None])
        nv, edges, _ = edge_form(folded)
        assert nv == 2
        assert edges == [(0, 1, 1), (0, 2, 1)]


class TestFoldMatchesUnionFind:
    @given(multigraphs())
    def test_multigraphs(self, case):
        assert_same_fold(*case)

    @given(shared_end_wedges())
    def test_shared_end_wedges(self, case):
        assert_same_fold(*case)

    @given(multigraphs().flatmap(lambda g: st.tuples(st.just(g), decorations_for(len(g[1])))))
    def test_decorated_multigraphs(self, case):
        (nv, edges), decs = case
        assert_same_decorated_fold(nv, edges, decs)

    @given(shared_end_wedges().flatmap(
        lambda g: st.tuples(st.just(g), decorations_for(len(g[1])))))
    def test_decorated_wedges(self, case):
        (nv, edges), decs = case
        assert_same_decorated_fold(nv, edges, decs)

    @given(generator_lists())
    def test_petal_decorations(self, case):
        # invert_basis's decorations: x_j on the first edge of petal j, so
        # the fold raises exactly when the petals are dependent
        _, words = case
        words = [w for w in words if w]
        decs = [(j if w[0] > 0 else -j,) if t == 0 else ()
                for j, w in enumerate(words, start=1) for t in range(len(w))]
        assert_same_decorated_fold(*folding.wedge(words), decs)

    def test_smaller_id_survives(self):
        # 2 folds into 1 and 3 into 0; kept largest ids, {1, 2} would come first
        assert edge_form(folding.fold(4, [(0, 1, 2), (0, 1, 1), (3, 2, 1), (0, 2, 1)]))[:2] \
            == (2, [(0, 1, 1), (0, 2, 1)])

    def test_reverse_dart_folds(self):
        # two edges into 1 with one label fold their sources, 2 into 0
        assert edge_form(folding.fold(3, [(0, 1, 1), (2, 1, 1), (2, 2, 2)]))[:2] \
            == (2, [(0, 1, 1), (0, 2, 0)])


class TestDecoratedFold:
    def test_gauge_preserves_loop_products(self):
        # petals x1 = a*b and x2 = a: the folded rose reads a = x2, b = x2^-1 x1
        nv, darts, decs = folding.fold(
            2, [(0, 1, 1), (1, 2, 0), (0, 1, 0)], [(1,), (), (2,)])
        assert (nv, darts) == (1, [{1: 0, -1: 0, 2: 0, -2: 0}, None])
        assert {k: decs[0, k] for k in darts[0]} == {1: (2,), -1: (-2,), 2: (-2, 1), -2: (-1, 2)}
        assert compact((nv, darts, decs))[2] == [{1: (2,), -1: (-2,), 2: (-2, 1), -2: (-1, 2)}]

    def test_parallel_edges_disagree(self):
        with pytest.raises(NotABasisError, match="parallel edges disagree"):
            folding.fold(1, [(0, 1, 0), (0, 1, 0)], [(1,), (2,)])

    def test_decorations_must_match_edges(self):
        for decs in ([(1,)], [(1,), (2,), (3,)]):
            with pytest.raises(ValueError):
                folding.fold(1, [(0, 1, 0), (0, 2, 0)], decs)


def assert_fold_contract(nv, edges, decs=None):
    """Merged ids keep no map, every live dart targets a live id and has its
    reverse (decorated by the inverse), and the first result counts the live
    ids, the least vertex of each class."""
    try:
        live, darts, dart_decs = folding.fold(nv, edges, decs)
    except NotABasisError:
        return
    least = sweep_classes(nv, edges)
    assert [x for x, here in enumerate(darts) if here is not None] == sorted(set(least))
    assert live == len(set(least))
    for u, here in enumerate(darts):
        for l, v in (here or {}).items():
            assert darts[v] is not None and darts[v][-l] == u
            if decs is not None:
                assert dart_decs[v, -l] == inverted(dart_decs[u, l])


class TestFoldContract:
    @given(multigraphs())
    def test_multigraphs(self, case):
        assert_fold_contract(*case)

    @given(raw_graphs())
    def test_raw_graphs(self, case):
        assert_fold_contract(*case)

    @given(shared_end_wedges().flatmap(
        lambda g: st.tuples(st.just(g), decorations_for(len(g[1])))))
    def test_decorated_wedges(self, case):
        (nv, edges), decs = case
        assert_fold_contract(nv, edges, decs)

    def test_isolated_vertices_survive(self):
        # 3 folds into 1; 2 and 4 touch no edge and keep their empty maps
        assert folding.fold(5, [(0, 1, 1), (0, 1, 3)]) == (
            4, [{1: 1}, {-1: 0}, {}, None, {}], None)


def nielsen_basis(rank, moves):
    basis = [Word((i,), rank) for i in range(1, rank + 1)]
    for move, i, j in moves:
        i, j = i % rank, j % rank
        if move == "swap":
            basis[i], basis[j] = basis[j], basis[i]
        elif move == "invert":
            basis[i] = basis[i].inverse()
        elif i != j and len(basis[i].letters) + len(basis[j].letters) <= 40:
            basis[i] = basis[i] * (basis[j] if move == "right" else basis[j].inverse())
    return basis


class TestInvertBasisMatchesSweep:
    @given(st.integers(1, 4),
           st.lists(st.tuples(st.sampled_from(["swap", "invert", "right", "left"]),
                              st.integers(0, 3), st.integers(0, 3)), max_size=20))
    def test_nielsen_bases(self, rank, moves):
        basis = nielsen_basis(rank, moves)
        got = invert_basis(basis, rank)
        assert got == [w.letters for w in sweep_invert_basis(basis, rank)]
        for i, expr in enumerate(got, start=1):
            assert substitute(expr, basis).letters == (i,)

    def test_fibonacci_basis(self):
        # x_i <- x_i x_j alternately up to lengths 233 + 377; the inverse is
        # as long, so the fold's decorations cancel across long seams
        basis = [Word((1,), 2), Word((2,), 2)]
        i = 0
        while sorted(map(len, basis)) != [233, 377]:
            basis[i] = basis[i] * basis[1 - i]
            i = 1 - i
        got = invert_basis(basis, 2)
        assert got == [w.letters for w in sweep_invert_basis(basis, 2)]
        assert [substitute(expr, basis).letters for expr in got] == [(1,), (2,)]

    @pytest.mark.parametrize("texts", [
        ["ab", "ab"],          # rank drop
        ["ab", "abab"],        # rank drop through a power
        ["a", "aa"],           # parallel loops at the basepoint disagree
        ["abA", "aBA"],        # rank drop: a word and its inverse
        ["aa", "b"],           # proper subgroup
        ["ab", "ba"],          # proper subgroup
        ["abA", "b"],          # proper subgroup
        ["a", ""],             # identity word
        ["a"],                 # wrong count
    ])
    def test_non_bases(self, texts):
        self.assert_same_verdict([parse_word(t, 2) for t in texts], 2)

    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(letter(rank), max_size=6), min_size=rank, max_size=rank))))
    def test_random_word_lists(self, case):
        rank, raw = case
        self.assert_same_verdict([word(r, rank) for r in raw], rank)

    @staticmethod
    def assert_same_verdict(words, rank):
        try:
            expected = sweep_invert_basis(words, rank)
        except NotABasisError as exc:
            with pytest.raises(NotABasisError) as got:
                invert_basis(words, rank)
            assert str(got.value) == str(exc)
        else:
            assert invert_basis(words, rank) == [w.letters for w in expected]


@st.composite
def hairy_graphs(draw):
    """A few cycles with long hairs (paths ending in a leaf) and stray edges."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, st.integers(1, 3), vertex), max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        prev = draw(st.integers(0, nv - 1))
        for _ in range(draw(st.integers(1, 30))):
            edges.append((prev, draw(st.integers(1, 3)), nv) if draw(st.booleans())
                         else (nv, draw(st.integers(1, 3)), prev))
            prev = nv
            nv += 1
    protect = draw(st.none() | st.integers(0, nv - 1))
    return nv, draw(st.permutations(edges)), protect


def assert_same_trim(nv, edges, protect, oracles=(edge_list_trim, layered_trim)):
    """Trim the folded graph's dart maps in place; the kept vertices and
    edges are those of the edge-list trims."""
    nv, darts, _ = compacting_fold(nv, edges)
    _, edges, _ = edge_form((nv, darts, None))
    if protect is not None:
        protect %= nv
    folding.trim(darts, protect)
    kept = {v for v, here in enumerate(darts) if here is not None}
    kept_edges = sorted((u, l, v) for u in kept for l, v in darts[u].items() if l > 0)
    assert all(v in kept for u in kept for v in darts[u].values())
    for oracle in oracles:
        assert (kept, kept_edges) == oracle(nv, edges, protect)
    return kept, kept_edges


class TestTrimMatchesLayeredTrim:
    @given(hairy_graphs())
    def test_hairy_graphs(self, case):
        assert_same_trim(*case)

    @given(raw_graphs(), st.booleans())
    def test_raw_graphs(self, case, protected):
        nv, edges = case
        assert_same_trim(nv, edges, 0 if protected else None)

    def test_long_hair_to_a_loop(self):
        nv = 2001
        edges = [(i, 1, i + 1) for i in range(2000)] + [(2000, 2, 2000)]
        # the layered trim is quadratic in the hair's length
        assert assert_same_trim(nv, edges, None, [edge_list_trim]) == ({2000}, [(2000, 2, 2000)])
        kept, kept_edges = assert_same_trim(nv, edges, 0, [edge_list_trim])
        assert kept == set(range(nv)) and kept_edges == sorted(edges)
