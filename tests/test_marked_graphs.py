"""Marked metric graphs: lengths, minimal subtrees, translate overlaps."""

import json
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grouptrees import folding, report, scenarios
from grouptrees import marked_graphs as engine
from grouptrees.core import Scalar, Word, _class_table, _letters_text, enumerate_words, parse_word
from grouptrees.basis_change import invert_basis
from grouptrees.errors import (
    DegenerateSubgroupError,
    GroupTreesError,
    InvalidSystemError,
    MixedFieldError,
    NotABasisError,
)
from grouptrees.marked_graphs import (
    CoverCore,
    MarkedMetricGraph,
    _subtree_ball,
    _crossings,
    _meets_translate,
    _to_subtree,
    _translate_intersection_prepared,
    transverse_family_report,
)
from grouptrees.corpus import lopsided_rose
from grouptrees.stallings import (basis_of, build_core, hall_completion, index,
                                  membership, rank_of)

from _oracles import (_UnionFind, _lifted_path, adjacency_letter_loops,
                      ball_translate_intersection, ball_transverse_family_report,
                      brute_omega, class_rep, compacting_fold, cyclic_reduce,
                      every_translate_family_report,
                      grow_ball, initial_state, loop_omega, net_translation_length,
                      substitute, vertex_on_subtree, walk)


S = Scalar.of


def W(s, rank=2):
    return parse_word(s, rank)


def core(*gens, rank=2):
    return build_core([W(g, rank) for g in gens], rank)


def rose(*lengths, marking=("a", "b")):
    rank = len(lengths)
    return MarkedMetricGraph(
        rank, 1, [(0, 0, S(l)) for l in lengths], (),
        {i: parse_word(m, rank) for i, m in enumerate(marking)})


def translate_intersection(graph, subgroup, g, radius):
    """Compare the minimal subtree with its g-translate in the radius ball."""
    cover = CoverCore(graph, subgroup)
    base = _subtree_ball(cover, (), radius)
    return _translate_intersection_prepared(cover, g.letters, radius, base)


def theta():
    return MarkedMetricGraph(
        2, 2,
        [(0, 1, S("1/2")), (0, 1, S("1/3")), (0, 1, S("1/5"))],
        (0,), {1: W("a"), 2: W("b")})


letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=8)


def mk_word(raw):
    w = Word((), 2)
    for l in raw:
        w = w * Word((l,), 2)
    return w


words = raw_words.map(mk_word)


class TestInvertBasis:
    def test_standard_basis(self):
        assert [_letters_text(d) for d in invert_basis([W("a"), W("b")], 2)] == ["a", "b"]

    def test_shear(self):
        assert [_letters_text(d) for d in invert_basis([W("ab"), W("b")], 2)] == ["aB", "b"]
        assert [_letters_text(d) for d in invert_basis([W("a"), W("ab")], 2)] == ["a", "Ab"]

    def test_conjugated_basis(self):
        exprs = invert_basis([W("abA"), W("aabA")], 2)
        for i, expr in enumerate(exprs, start=1):
            assert substitute(expr, [W("abA"), W("aabA")]).letters == (i,)

    def test_wrong_count(self):
        with pytest.raises(NotABasisError):
            invert_basis([W("a")], 2)

    def test_identity_word_rejected(self):
        with pytest.raises(NotABasisError):
            invert_basis([W("a"), W("")], 2)

    def test_relation_rejected(self):
        with pytest.raises(NotABasisError):
            invert_basis([W("ab"), W("ab")], 2)

    def test_proper_subgroup_rejected(self):
        with pytest.raises(NotABasisError):
            invert_basis([W("aa"), W("b")], 2)
        with pytest.raises(NotABasisError):
            invert_basis([W("ab"), W("ba")], 2)
        with pytest.raises(NotABasisError):
            invert_basis([W("ab"), W("aB")], 2)

    def test_failed_self_check_is_an_error(self, monkeypatch):
        real_fold = folding.fold

        def misdecorated(nv, edges, decorations=None):
            nv, darts, decorations = real_fold(nv, edges, decorations)
            decorations[0, 1], decorations[0, 2] = decorations[0, 2], decorations[0, 1]
            return nv, darts, decorations

        monkeypatch.setattr(folding, "fold", misdecorated)
        with pytest.raises(RuntimeError, match="self-check failed"):
            invert_basis([W("a"), W("b")], 2)

    @given(st.lists(st.tuples(st.sampled_from(["swap", "invert", "multiply"]),
                              st.integers(0, 1)), max_size=12))
    def test_nielsen_images_invert(self, moves):
        basis = [W("a"), W("b")]
        for move, i in moves:
            j = 1 - i
            if move == "swap":
                basis[0], basis[1] = basis[1], basis[0]
            elif move == "invert":
                basis[i] = basis[i].inverse()
            elif len(basis[i].letters) + len(basis[j].letters) <= 24:
                basis[i] = basis[i] * basis[j]
        exprs = invert_basis(basis, 2)
        for k, expr in enumerate(exprs, start=1):
            assert substitute(expr, basis).letters == (k,)


class TestValidation:
    def test_valence_one_rejected(self):
        with pytest.raises(InvalidSystemError, match="valence"):
            MarkedMetricGraph(1, 2, [(0, 0, S(1)), (0, 1, S(1))], (1,), {0: W("a", 1)})

    def test_betti_mismatch(self):
        with pytest.raises(InvalidSystemError, match="Betti"):
            MarkedMetricGraph(2, 1, [(0, 0, S(1))], (), {0: W("a")})

    def test_nonpositive_length(self):
        with pytest.raises(InvalidSystemError, match="positive"):
            rose(1, 0)

    def test_tree_with_cycle(self):
        with pytest.raises(InvalidSystemError, match="cycle"):
            MarkedMetricGraph(
                3, 3,
                [(0, 1, S(1)), (0, 1, S(1)), (1, 2, S(1)), (2, 0, S(1)), (2, 2, S(1))],
                (0, 1),
                {2: W("a", 3), 3: W("b", 3), 4: W("c", 3)})

    @pytest.mark.parametrize("nv,edges", [
        (2, [(0, 1), (0, 1), (1, 1), (0, 0)]),
        (3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)]),
        (4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (3, 0), (0, 2)]),
    ])
    def test_cycle_exactly_when_the_tree_has_one(self, nv, edges):
        # every (nv-1)-edge subset, from every basepoint; the other edges
        # are marked by distinct letters, which is a basis when the subset
        # is a spanning tree
        rank = len(edges) - nv + 1
        for tree in combinations(range(len(edges)), nv - 1):
            forest = _UnionFind(nv)
            cyclic = not all(forest.union(edges[t][0], edges[t][1]) for t in tree)
            marking = {eid: Word((i,), rank) for i, eid in enumerate(
                (e for e in range(len(edges)) if e not in tree), start=1)}
            for base in range(nv):
                args = (rank, nv, [(u, v, S(1)) for u, v in edges], tree, marking, base)
                if cyclic:
                    with pytest.raises(InvalidSystemError, match="cycle"):
                        MarkedMetricGraph(*args)
                else:
                    assert MarkedMetricGraph(*args).tree == frozenset(tree)

    @pytest.mark.parametrize("lengths", [
        ("sqrt2", "sqrt3"), ("1+sqrt2", "1", "2-1/2*sqrt3")])
    def test_mixed_fields_rejected(self, lengths):
        with pytest.raises(InvalidSystemError,
                           match=r"^edge lengths mix sqrt2 and sqrt3; "
                                 r"a marked graph's lengths lie in one field$"):
            rose(*lengths, marking="abc"[:len(lengths)])

    def test_marking_must_be_basis(self):
        with pytest.raises(NotABasisError):
            rose(1, 1, marking=("aa", "b"))

    def test_disconnected(self):
        with pytest.raises(InvalidSystemError, match="connected"):
            MarkedMetricGraph(2, 2, [(0, 0, S(1)), (1, 1, S(1)), (1, 1, S(1))], (),
                              {0: W("a"), 1: W("b")})


@st.composite
def multigraph_cases(draw):
    """Arguments for MarkedMetricGraph: a random multigraph with loops, a
    random (nv-1)-edge subset as tree and distinct letters on the other
    edges, so that some are accepted and some fail each adjacency check."""
    nv = draw(st.integers(1, 4))
    ne = draw(st.integers(nv - 1, nv + 3))
    end = st.integers(0, nv - 1)
    edges = [(draw(end), draw(end), draw(st.sampled_from([S(1), S("1/2"), S(3)])))
             for _ in range(ne)]
    rank = max(ne - nv + 1, 1)
    tree = draw(st.lists(st.integers(0, ne - 1), min_size=min(nv - 1, ne),
                         max_size=min(nv - 1, ne), unique=True)) if ne else []
    others = [e for e in range(ne) if e not in tree]
    letters_ = draw(st.permutations(range(1, rank + 1)))
    marking = {eid: Word((l,), rank) for eid, l in zip(others, letters_)}
    return rank, nv, edges, tree, marking, draw(st.integers(0, nv - 1))


def outcome(build):
    try:
        return build()
    except GroupTreesError as exc:
        return type(exc), str(exc)


class TestDartMaps:
    @given(multigraph_cases())
    @settings(max_examples=300)
    @example((2, 2, [(0, 1, S(1)), (0, 1, S(2)), (1, 0, S(3))], [0], {1: W("a"), 2: W("b")}, 1))
    @example((2, 3, [(0, 1, S(1)), (1, 2, S(1)), (2, 0, S(1)), (1, 1, S(3))], [2, 0],
              {1: W("b"), 3: W("a")}, 0))
    def test_checks_and_loops_match_adjacency_lists(self, case):
        expected = outcome(lambda: adjacency_letter_loops(*case))
        graph = outcome(lambda: MarkedMetricGraph(*case))
        if isinstance(graph, tuple):
            assert graph == expected
            return
        assert graph._letter_loops == expected
        for v in range(graph.nv):
            darts = sorted((d for eid, (x, y, _) in enumerate(graph.edges)
                            for d, end in ((eid + 1, x), (-(eid + 1), y)) if end == v),
                           key=lambda d: (abs(d), d < 0))
            assert list(graph.darts_at(v).items()) == [
                (d, graph.dart_target(d)) for d in darts]

    @given(st.sampled_from(["rose2", "rose3", "theta"]),
           st.lists(st.lists(st.integers(1, 3).flatmap(
               lambda a: st.sampled_from([a, -a])), min_size=1, max_size=6),
               min_size=1, max_size=3))
    @example("theta", [[1], [2, 1, -2]])
    def test_cover_darts_are_folds_maps(self, which, raws):
        # P keeps fold's maps, compacted, in fold's order
        graph = {"rose2": rose(1, 2), "rose3": rose(1, 2, 3, marking="abc"),
                 "theta": theta()}[which]
        gens = [Word.make([l for l in r if abs(l) <= graph.rank], graph.rank)
                for r in raws]
        subgroup = build_core(gens, graph.rank)
        assume(rank_of(subgroup) > 0)
        p = CoverCore(graph, subgroup).p
        _, darts, _ = compacting_fold(*folding.wedge(
            graph.word_to_loop(b.letters) for b in basis_of(subgroup)))
        assert [list(p.darts_at(v).items()) for v in range(p.nv)] == \
            [list(here.items()) for here in darts]


def cut_rose(n: int) -> dict:
    """The rank-2 rose whose petal a is cut into n unit edges, as a document."""
    edges = [{"id": i, "ends": [i, (i + 1) % n], "len": "1"} for i in range(n)]
    edges.append({"id": n, "ends": [0, 0], "len": "1/2"})
    return {"rank": 2, "vertices": n, "edges": edges, "spanning_tree": list(range(n - 1)),
            "marking": {str(n - 1): "a", str(n): "b"}}


class TestMemoryInProportion:
    """A marked graph's load, a request and its report peak (tracemalloc) within
    a fixed multiple of the document's bytes plus the report's, at n and 4n: a
    tree path per vertex, quadratic in n, peaked at about 100x at n = 2000."""

    MULTIPLE = 32

    @staticmethod
    def peak(op: str, args: dict) -> tuple[int, str]:
        tracemalloc.start()
        try:
            result, _ = scenarios.run_op(op, args)
            text = report.render_json(report.wrap(op, result))
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("op,extra", [("cvn.vol", {}), ("cvn.len", {"word": "aBab"})])
    def test_cut_rose(self, op, extra):
        self.peak(op, dict(extra, graph=cut_rose(3)))  # engines imported before measuring
        for n in (500, 2000):
            doc = cut_rose(n)
            peak, text = self.peak(op, dict(extra, graph=json.loads(json.dumps(doc))))
            assert peak <= self.MULTIPLE * (len(json.dumps(doc)) + len(text)), (n, peak)


class TestTranslationLength:
    def test_unit_rose(self):
        g = rose(1, 1)
        assert g.translation_length(W("a")) == Scalar.of(1)
        assert g.translation_length(W("abA")) == Scalar.of(1)
        assert g.translation_length(W("ab")) == Scalar.of(2)
        assert g.translation_length(W("")) == Scalar.of(0)

    def test_weighted_rose(self):
        g = rose(1, 2)
        assert g.translation_length(W("ab")) == Scalar.of(3)
        assert g.translation_length(W("abAB")) == Scalar.of(6)

    def test_theta(self):
        g = theta()
        assert g.volume() == Scalar.of(Fraction(31, 30))
        assert g.translation_length(W("a")) == Scalar.of(Fraction(5, 6))
        assert g.translation_length(W("b")) == Scalar.of(Fraction(7, 10))
        assert g.translation_length(W("aB")) == Scalar.of(Fraction(8, 15))

    def test_marking_matters(self):
        g = rose(1, 1, marking=("ab", "b"))
        assert g.translation_length(W("a")) == Scalar.of(2)
        assert g.translation_length(W("b")) == Scalar.of(1)
        assert g.translation_length(W("ab")) == Scalar.of(1)

    @given(words, words)
    def test_conjugacy_invariance(self, w, g):
        graph = theta()
        assert graph.translation_length(g * w * g.inverse()) == graph.translation_length(w)

    @given(words)
    def test_inverse_invariance(self, w):
        graph = theta()
        assert graph.translation_length(w.inverse()) == graph.translation_length(w)

    @given(words, st.integers(min_value=1, max_value=4))
    def test_power_scaling(self, w, k):
        graph = theta()
        assert graph.translation_length(Word.make(w.letters * k, w.rank)) == graph.translation_length(w) * Scalar.of(k)


def marked_graphs():
    """Roses and thetas whose markings are not the standard basis, so the
    letter loops are products of several non-tree loops."""
    return [
        rose(1, 2),
        rose(Fraction(1, 2), 3, marking=("ab", "b")),
        rose(1, 1, marking=("aba", "ab")),
        theta(),
        MarkedMetricGraph(
            2, 2, [(0, 1, S(1)), (0, 1, S(2)), (1, 0, S("1/3"))],
            (0,), {1: W("ab"), 2: W("aab")}),
    ]


class TestWordToLoop:
    @given(st.integers(0, 4), raw_words)
    def test_matches_letter_by_letter_reduction(self, which, raw):
        graph = marked_graphs()[which]
        w = mk_word(raw)
        assert graph.word_to_loop(w.letters) == tuple(_lifted_path(graph, w))

    @pytest.mark.parametrize("which", range(5))
    def test_letter_loops_read_their_letter(self, which):
        graph = marked_graphs()[which]
        for letter in (1, -1, 2, -2):
            loop = graph.word_to_loop((letter,))
            # a dart starts where its reverse ends
            assert graph.dart_target(-loop[0]) == graph.dart_target(loop[-1]) == graph.base
            read = [l for d in loop for l in graph.dart_marking_letters(d)]
            assert Word.make(read, 2).letters == (letter,)

    def test_long_conjugator(self):
        # a 4001-letter generator: its core is the single loop of a
        u = Word((1, 2) * 1000, 2)
        cover = CoverCore(rose(1, 1), build_core([u * W("a") * u.inverse()], 2))
        assert len(cover.core_edges) == 1 and not cover.is_covering
        assert cover.core_volume == Scalar.of(1)


class TestOmegaEpsilon:
    def test_short_loop_rose(self):
        g = rose(Fraction(1, 10), 1)
        assert [_letters_text(w) for w in g.omega_epsilon(S(Fraction(1, 2)), 4)] == \
            ["a", "aa", "aaa", "aaaa"]

    def test_strictness(self):
        g = rose(Fraction(1, 10), 1)
        assert g.omega_epsilon(S(Fraction(1, 10)), 4) == []

    def test_everything_short(self):
        g = rose(Fraction(1, 10), Fraction(1, 10))
        assert g.omega_epsilon(S(Fraction(1, 2)), 3) == list(enumerate_words(2, 3, "conjugacy"))


# -- the crossing memo against the per-class loop oracle ------------------------


def nielsen_basis(rank, moves):
    """The basis a, b, ... after elementary Nielsen moves (i, j, kind): x_i
    becomes x_i*x_j, x_i/x_j, x_j*x_i or x_j^-1*x_i, or x_i^-1 when i == j."""
    basis = [Word((i,), rank) for i in range(1, rank + 1)]
    for i, j, kind in moves:
        i, j = i % rank, j % rank
        x, y = basis[i], basis[j]
        basis[i] = x.inverse() if i == j else (x * y, x * y.inverse(), y * x, y.inverse() * x)[kind]
    return basis


def marked(shape, basis, lengths):
    """A rose (rank = len(basis)) or a rank-2 theta with this marking."""
    if shape == "theta":
        return MarkedMetricGraph(2, 2, [(0, 1, S(l)) for l in lengths], (0,),
                                 {1: basis[0], 2: basis[1]})
    return MarkedMetricGraph(len(basis), 1, [(0, 0, S(l)) for l in lengths], (),
                             dict(enumerate(basis)))


# (shape, rank, longest max_len drawn): rank 2 reaches length 8 and rank 3
# length 6, one past the longest lengths the class memo keeps, so those streams
MARKING_SHAPES = [("rose", 1, 9), ("rose", 2, 8), ("theta", 2, 7), ("rose", 3, 6)]
# up to four moves, drawn from a seed so that a run meets many markings
nielsen_moves = st.integers(0, 2 ** 16).map(random.Random).map(
    lambda r: [(r.randrange(3), r.randrange(3), r.randrange(4)) for _ in range(r.randrange(5))])


@st.composite
def positive_lengths(draw, field, count):
    """Positive edge lengths p/q + r/q*sqrt(field); rational when field is 1."""
    out = []
    for _ in range(count):
        p, q, r = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
        value = Scalar.of(Fraction(p, q))
        out.append(value + Scalar.parse(f"sqrt{field}") * Fraction(r, q) if field != 1
                   else value)
    return out


# 33 markings, one more than the crossing memo holds: calling them all evicts
# every other marking's entry
EVICTING = [marked("rose", nielsen_basis(2, [(0, 1, 0)] * m), [1, 1]) for m in range(1, 34)]


@st.composite
def omega_sequences(draw):
    """Interleaved omega_epsilon calls on one to three markings: each call
    draws new edge lengths, a new epsilon and a max_len that may rise or fall.
    A None between calls stands for calls on the EVICTING markings."""
    markings = [(shape, nielsen_basis(rank, draw(nielsen_moves)), top)
                for shape, rank, top in (draw(st.sampled_from(MARKING_SHAPES))
                                         for _ in range(draw(st.integers(1, 3))))]
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            calls.append(None)
            continue
        shape, basis, top = draw(st.sampled_from(markings))
        field = draw(st.sampled_from([1, 2, 5]))
        graph = marked(shape, basis, draw(positive_lengths(field, 3 if shape == "theta" else len(basis))))
        scale = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
        # epsilon: a share of the volume, or a multiple of a class's length,
        # on which that class is not short
        base = graph.volume() if draw(st.booleans()) else graph.translation_length(basis[0])
        calls.append((graph, base * scale, draw(st.integers(0, top))))
    return calls


class TestCrossingTable:
    """omega_epsilon through the shared crossing rows equals the loop oracle."""

    @given(omega_sequences())
    @settings(max_examples=100)
    def test_interleaved_calls_match_loop_oracle(self, calls):
        for call in calls:
            for graph, epsilon, max_len in [call] if call else ((g, S(2), 2) for g in EVICTING):
                want = loop_omega(graph, epsilon, max_len)
                # a marking's first call streams; from its second on, rows decide
                assert graph.omega_epsilon(epsilon, max_len) == want
                assert graph.omega_epsilon(epsilon, max_len) == want

    def test_evicted_marking_reads_the_same(self):
        _crossings.cache_clear()
        graphs = [marked("rose", nielsen_basis(2, [(0, 1, k % 4)] * (k // 4 + 1)), ["1/3", "1/2"])
                  for k in range(40)]
        assert len({g._letter_loops[1] + (0,) + g._letter_loops[2] for g in graphs}) == 40
        first = [[g.omega_epsilon(S("3/2"), 5) for _ in range(3)] for g in graphs]
        info = _crossings.cache_info()
        assert (info.misses, info.hits, info.currsize) == (40, 80, 32)
        for graph, want in zip(graphs, first):   # every entry was evicted
            assert [graph.omega_epsilon(S("3/2"), 5) for _ in range(3)] == want
            assert want == [loop_omega(graph, "3/2", 5)] * 3
        assert _crossings.cache_info().misses == 80

    def test_concurrent_calls_agree(self):
        _crossings.cache_clear()
        graphs = [marked("theta", nielsen_basis(2, [(1, 0, k)]), ["1/2", "1/3", "1/5"])
                  for k in range(4)]
        want = [loop_omega(g, "7/5", 6) for g in graphs]
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda k: graphs[k % 4].omega_epsilon(S("7/5"), 6), range(64)))
        assert got == want * 16

    def test_markings_sharing_a_letter_loop_keep_their_own_rows(self):
        # a's loop is the same on these roses, b's differs
        graphs = [rose(1, Fraction(1, 4), marking=m) for m in (("a", "b"), ("a", "ba"), ("a", "bA"))]
        for _ in range(3):   # first, building and warm calls
            for graph in graphs:
                assert graph.omega_epsilon(S(3), 6) == loop_omega(graph, 3, 6)

    @pytest.mark.parametrize("graph,max_len", [
        (rose(Fraction(1, 3), Fraction(1, 2)), 8),      # lengths 1-7 tabled, 8 streamed
        (theta(), 6),
        (rose(1, 2, 3, marking=("ab", "b", "cA")), 6),  # lengths 1-5 tabled, 6 streamed
        (rose(Fraction(1, 10), marking=("a",)), 12),    # rank 1: nothing tabled
    ])
    def test_takes_every_class_from_the_enumeration(self, monkeypatch, graph, max_len):
        # the traced census gate counts the words omega_epsilon takes from
        # enumerate_words; warm rows must not let it skip any
        taken = []

        def counting(*args):
            for w in enumerate_words(*args):
                taken.append(w)
                yield w

        monkeypatch.setattr(engine, "enumerate_words", counting)
        _crossings.cache_clear()
        want = list(enumerate_words(graph.rank, max_len, "conjugacy"))
        for _ in range(3):   # first call, the call that builds the rows, then warm
            taken.clear()
            graph.omega_epsilon(S(Fraction(3, 2)), max_len)
            assert taken == want

    def test_row_bound(self, monkeypatch):
        _crossings.cache_clear()
        graph = rose(Fraction(1, 3), Fraction(1, 2))
        calls, row = _crossings(tuple(graph._letter_loops.items()))
        graph.omega_epsilon(S(2), 3)
        assert row.cache_info().currsize == 0   # one call on a marking builds no row
        graph.omega_epsilon(S(2), 3)
        assert row.cache_info().currsize == 3
        # past the longest kept length (7 at rank 2) nothing more is recorded
        assert graph.omega_epsilon(S(2), 10) == loop_omega(graph, 2, 10)
        info = row.cache_info()
        assert (info.hits, info.misses, info.currsize, next(calls)) == (3, 7, 7, 3)
        for n in range(1, 8):
            ids, crossings = row(n)
            assert type(ids) is type(crossings) is tuple
            assert len(ids) == len(_class_table(2, n))
            assert set(ids) == set(range(len(crossings)))
            # on the identity rose a class with i a's crosses edge 1 i times, edge 2 n - i
            assert set(crossings) == {tuple(zip(*[(e, k) for e, k in ((1, i), (2, n - i)) if k]))
                                      for i in range(n + 1)}
        # a call decides the distinct crossings of its own lengths only
        decided = []
        monkeypatch.setattr(engine, "_sign", lambda *ab_d: decided.append(ab_d) or -1)
        graph.omega_epsilon(S(2), 5)
        assert len(decided) == 2 + 3 + 4 + 5 + 6
        monkeypatch.undo()
        # rank-1 and max_len 0 calls take no memo entry, so they evict none
        line = rose(Fraction(1, 10), marking=("A",))
        assert line.omega_epsilon(S(5), 40) == loop_omega(line, 5, 40)
        assert line.omega_epsilon(S(5), 0) == []
        assert rose(1, 2, marking=("ab", "b")).omega_epsilon(S(5), 0) == []
        assert _crossings.cache_info().currsize == 1


# -- irrational lengths against the exhaustive oracles --------------------------

SQRT2, SQRT5 = Scalar.of("sqrt2"), Scalar.of("sqrt5")


def irrational_graphs():
    """Roses and thetas with lengths in Q(sqrt2) or Q(sqrt5), some of them
    mixed with rational lengths, some with nonstandard markings."""
    return {
        "rose-sqrt2-and-1": rose(SQRT2, 1),
        "rose-sqrt2-both": rose(SQRT2, Scalar.of("3/2-1/2*sqrt2")),
        "rose-golden-marked": rose((1 + SQRT5) * Fraction(1, 2), Fraction(1, 3), marking=("ab", "b")),
        "theta-sqrt2": MarkedMetricGraph(
            2, 2, [(0, 1, SQRT2 - 1), (0, 1, S("1/2")), (0, 1, SQRT2 * Fraction(1, 3))],
            (0,), {1: W("a"), 2: W("b")}),
        "theta-sqrt5-marked": MarkedMetricGraph(
            2, 2, [(0, 1, SQRT5 - 2), (0, 1, -SQRT5 + 3), (0, 1, S(1))],
            (0,), {1: W("ab"), 2: W("b")}),
    }


class TestIrrationalLengths:
    @pytest.mark.parametrize("name", sorted(irrational_graphs()))
    @pytest.mark.parametrize("eps_word,scale", [
        # epsilon equal to the length of a class: that class is not short
        ("a", 1), ("b", 1), ("aB", 1), ("abb", 1),
        # epsilon a rational multiple of a length, or sqrt(d) times one
        ("ab", Fraction(5, 4)), ("a", "sqrt"), ("abAB", "sqrt"),
    ])
    def test_omega_matches_exhaustion(self, name, eps_word, scale):
        graph = irrational_graphs()[name]
        if scale == "sqrt":
            scale = Scalar.parse(f"sqrt{max(length.d for _, _, length in graph.edges)}")
        epsilon = net_translation_length(graph, W(eps_word)) * scale
        engine = graph.omega_epsilon(epsilon, 5)
        reps = {class_rep(w) for w in engine}
        assert len(reps) == len(engine)
        assert reps == brute_omega(graph, epsilon, 5)
        if scale == 1:
            assert class_rep(cyclic_reduce(W(eps_word))[1].letters) not in reps

    @pytest.mark.parametrize("name", sorted(irrational_graphs()))
    def test_translation_length_matches_net_minimum(self, name):
        graph = irrational_graphs()[name]
        for w in (Word(t, 2) for t in enumerate_words(2, 3)):
            assert graph.translation_length(w) == net_translation_length(graph, w), str(w)

    def test_foreign_epsilon_field(self):
        graph = irrational_graphs()["rose-sqrt2-and-1"]
        for max_len in (0, 3):
            with pytest.raises(MixedFieldError,
                               match="^cannot mix sqrt2 and sqrt5 values in one computation$"):
                graph.omega_epsilon(SQRT5, max_len)
        # a rational graph takes an epsilon from any field
        assert [_letters_text(w) for w in rose(1, 2).omega_epsilon(SQRT5, 3)] == ["a", "b", "aa"]


class TestMinimalSubtree:
    def test_cyclic_in_rose(self):
        cov = CoverCore(rose(1, 1), core("a"))
        summary = cov.core_summary()
        assert summary["vertices"] == 1
        assert summary["volume"] == "1"
        assert not cov.is_covering

    def test_conjugate_cyclic_misses_basepoint(self):
        cov = CoverCore(rose(1, 1), core("baB"))
        assert 0 not in cov.core_vertices
        assert len(cov.core_vertices) == 1
        assert cov.core_volume == Scalar.of(1)

    def test_whole_group_covers(self):
        cov = CoverCore(rose(1, 1), core("a", "b"))
        assert cov.is_covering and cov.degree == 1

    def test_index_two_covers(self):
        cov = CoverCore(rose(1, 1), core("aa", "b", "abA"))
        assert cov.is_covering and cov.degree == 2
        assert cov.core_volume == Scalar.of(4)

    def test_infinite_index_does_not_cover(self):
        cov = CoverCore(rose(1, 1), core("a", "bab"))
        assert not cov.is_covering and cov.degree is None

    def test_trivial_subgroup_degenerate(self):
        with pytest.raises(DegenerateSubgroupError):
            CoverCore(rose(1, 1), core("aA"))

    def test_circle_volume_is_translation_length(self):
        graph = theta()
        for word in ("a", "b", "aB", "ab", "abAB"):
            cov = CoverCore(graph, core(word))
            assert cov.core_volume == graph.translation_length(W(word))

    @given(words.filter(lambda w: len(w.letters) > 0))
    def test_cyclic_core_volume_matches_axis(self, w):
        graph = rose(Fraction(1, 2), Fraction(1, 3))
        cov = CoverCore(graph, build_core([w], 2))
        assert cov.core_volume == graph.translation_length(w)

    def test_domain_dart_without_reverse_is_an_error(self, monkeypatch):
        real_fold = folding.fold

        def one_way(nv, edges, decorations=None):
            nv, darts, decorations = real_fold(nv, edges, decorations)
            del darts[0][-1]
            return nv, darts, decorations

        graph, sub = rose(1, 1), core("a", "bab")
        monkeypatch.setattr(folding, "fold", one_way)
        with pytest.raises(RuntimeError, match="^dart 1 from 0 to 0 has no reverse$"):
            CoverCore(graph, sub)

    @given(st.lists(words, min_size=1, max_size=3), st.booleans())
    @example([W("a"), W("b")], False)
    @example([W("aa"), W("b"), W("abA")], False)
    @example([W("a")], False)
    @example([W("ab"), W("ba")], False)
    @example([W("aa"), W("ab")], False)
    @example([W("a"), W("bb"), W("bab")], False)
    @settings(max_examples=40)
    def test_covering_tracks_finite_index(self, gens, complete):
        # `complete` swaps H for a finite-index subgroup containing it
        sub = build_core(gens, 2)
        assume(rank_of(sub) > 0)
        if complete:
            sub = hall_completion(sub).cover
        for graph in (rose(1, 1), theta()):
            cov = CoverCore(graph, sub)
            assert cov.is_covering == (index(sub) is not None)
            assert cov.degree == index(sub)


def crosses_subtree(graph, subgroup, base_path, dart) -> bool:
    """Does the edge `dart` crosses from base_path*x0 lie in the minimal
    subtree?  It does iff base_path*x0 lies on it (its radius-0 subtree ball
    is not empty) and `dart` is a core dart at that vertex's P-vertex."""
    cover = CoverCore(graph, subgroup)
    return any(dart == d for p in _subtree_ball(cover, base_path.letters, 0).values()
               for d, *_ in cover.core_darts[p])


class TestEdgeMembership:
    def test_rose_cyclic(self):
        sub = core("a")
        g = rose(1, 1)
        assert crosses_subtree(g, sub, W(""), 1)
        assert not crosses_subtree(g, sub, W(""), 2)
        assert not crosses_subtree(g, sub, W("b"), 1)
        assert crosses_subtree(g, sub, W("a"), 1)

    def test_conjugate_sheet(self):
        assert crosses_subtree(rose(1, 1), core("baB"), W("b"), 1)
        assert not crosses_subtree(rose(1, 1), core("baB"), W(""), 1)

    def test_theta_tree_edge(self):
        # the axis of a crosses the tree edge (id 0) and non-tree edge a (id 1)
        sub = core("a")
        g = theta()
        assert crosses_subtree(g, sub, W(""), 1)
        assert crosses_subtree(g, sub, W(""), 2)
        assert not crosses_subtree(g, sub, W(""), 3)


class TestTranslateIntersection:
    def test_disjoint_axes(self):
        out = translate_intersection(rose(1, 1), core("a"), W("b"), 4)
        assert out["outcome"] == "disjoint-within-radius"

    def test_nondegenerate_overlap(self):
        out = translate_intersection(rose(1, 1), core("a", "baB"), W("b"), 4)
        assert out["outcome"] == "nondegenerate-intersection"
        assert out["witness_common"]["sheet"] == "b"
        assert out["witness_difference"]["side"] == "subtree"

    def test_translate_stabilizes_line(self):
        out = translate_intersection(rose(1, 1), core("aa"), W("a"), 4)
        assert out["outcome"] == "coincide-within-radius"

    def test_single_point(self):
        # the axis of ab visits sheets (ab)^k and (ab)^k a; its a-translate
        # visits a(ab)^k and a(ab)^k a, so exactly the vertex at sheet "a"
        # is shared, and no edge is.
        out = translate_intersection(rose(1, 1), core("ab"), W("a"), 4)
        assert out["outcome"] == "single-point-within-radius"
        assert out["witness_vertex"]["sheet"] == "a"


class TestTransverseFamily:
    def test_cyclic_is_transverse(self):
        rep = transverse_family_report(rose(1, 1), core("a"), 3, 5)
        assert rep["verdict"] == "transverse-up-to-budget"
        assert rep["translates_tested"] > 0
        assert all(row["outcome"] != "nondegenerate-intersection" for row in rep["rows"])

    def test_violation_found(self):
        rep = transverse_family_report(rose(1, 1), core("a", "baB"), 2, 4)
        assert rep["verdict"] == "violations-found"
        assert rep["violations"]

    def test_whole_group_degenerate(self):
        rep = transverse_family_report(rose(1, 1), core("a", "b"), 2, 3)
        assert rep["verdict"] == "degenerate-family-whole-tree"
        assert "whole group" in rep["message"]

    def test_finite_index_degenerate(self):
        rep = transverse_family_report(rose(1, 1), core("aa", "b", "abA"), 2, 3)
        assert rep["verdict"] == "degenerate-family-whole-tree"
        assert "finite-index" in rep["message"]


# -- the subtree walk against the whole-ball oracle ----------------------------


def oracle_graphs():
    # the last graph lists an edge leaving vertex 1 before those leaving
    # vertex 0, so ordering witnesses by edge id before vertex shows
    return [rose(1, 1), theta()] + marked_graphs() + [MarkedMetricGraph(
        2, 2, [(1, 0, S(1)), (0, 1, S(2)), (0, 1, S("1/3"))],
        (0,), {1: W("a"), 2: W("b")})]


nonempty = st.lists(letters, min_size=1, max_size=5).map(mk_word)


@st.composite
def oracle_cases(draw, max_radius):
    """(graph, subgroup, g, radius).  The subgroups are random ones,
    finite-index ones, conjugates u*w*u^-1 whose core misses the basepoint
    (so the walk to the subtree crosses the hair), and <w^k> with g a power
    of w, whose translates coincide along the axis of w."""
    graph = oracle_graphs()[draw(st.integers(0, 7))]
    kind = draw(st.sampled_from(["random", "finite-index", "conjugated", "power"]))
    g = draw(nonempty)
    if kind == "power":
        w = draw(nonempty.filter(lambda w: 0 < len(w.letters) <= 2))
        k = draw(st.integers(2, 3))
        subgroup = build_core([Word.make(w.letters * k, 2)], 2)
        g = Word.make(w.letters * draw(st.integers(1, k - 1)), 2)
    else:
        gens = draw(st.lists(nonempty, min_size=1, max_size=2))
        if kind == "conjugated":
            u = draw(nonempty)
            gens = [u * w * u.inverse() for w in gens]
        subgroup = build_core(gens, 2)
        if rank_of(subgroup) == 0:
            subgroup = build_core([W("a")], 2)
        if kind == "finite-index":
            subgroup = hall_completion(subgroup).cover
    return graph, subgroup, g, draw(st.integers(0, max_radius))


class TestSubtreeWalkMatchesBallOracle:
    @given(oracle_cases(5))
    @settings(max_examples=300)
    def test_translate_intersection(self, case):
        graph, subgroup, g, radius = case
        cover = CoverCore(graph, subgroup)
        # the engine's precondition: the transverse report tests only
        # translates outside H, and only on a core that is not a covering
        assume(not membership(subgroup, g.letters) and not cover.is_covering)
        base = _subtree_ball(cover, (), radius)
        base_ball = grow_ball(cover, (), initial_state(cover), radius)
        assert _translate_intersection_prepared(cover, g.letters, radius, base) == \
            ball_translate_intersection(cover, g, radius, base_ball)

    @given(oracle_cases(5))
    def test_subtree_ball_is_the_ball_restricted_to_the_subtree(self, case):
        graph, subgroup, g, radius = case
        cover = CoverCore(graph, subgroup)
        state = walk(cover, initial_state(cover), graph.word_to_loop(g.letters))
        whole = grow_ball(cover, g.letters, state, radius)
        assert _subtree_ball(cover, g.letters, radius) == {
            key: st[0] for key, st in whole.items() if vertex_on_subtree(cover, st)}

    @given(oracle_cases(4), st.integers(0, 3))
    @settings(max_examples=60)
    def test_transverse_family_report(self, case, max_len):
        graph, subgroup, _, radius = case
        assert transverse_family_report(graph, subgroup, max_len, radius) == \
            ball_transverse_family_report(graph, subgroup, max_len, radius)

    @pytest.mark.parametrize("gens,max_len,radius", [
        (("a",), 3, 6), (("a",), 4, 4), (("a", "bab"), 3, 4),
        (("a", "bab"), 2, 6), (("baB",), 3, 5), (("ab", "ba"), 3, 4),
        # 87 subgroup elements of length <= 5: the filter sees the first 64
        (("a", "bab", "bAb"), 5, 1), (("a", "bab"), 5, 2),
        # bb*A*AB = B: only a pair whose h2 swallows w = A shows that A is
        # not the least word of its double coset
        (("bb", "AB"), 2, 3), (("Ba", "BB"), 3, 3),
    ])
    def test_lopsided_rose(self, gens, max_len, radius):
        graph, subgroup = lopsided_rose(), core(*gens)
        assert transverse_family_report(graph, subgroup, max_len, radius) == \
            ball_transverse_family_report(graph, subgroup, max_len, radius)


# -- the exact meeting test against the ball code -----------------------------


def distance_to_subtree(cover, cap: int):
    """d(x0, T_H) from the oracle's whole balls about x0, or None past `cap`."""
    for r in range(cap + 1):
        if any(vertex_on_subtree(cover, st)
               for st in grow_ball(cover, (), initial_state(cover), r).values()):
            return r
    return None


class TestTranslatesMeetingTheSubtree:
    @given(oracle_cases(5), st.integers(0, 3))
    @settings(max_examples=100)
    def test_report_matches_every_translate_oracle(self, case, max_len):
        graph, subgroup, _, radius = case
        assert transverse_family_report(graph, subgroup, max_len, radius) == \
            every_translate_family_report(graph, subgroup, max_len, radius)

    @given(oracle_cases(0))
    @settings(max_examples=100)
    @example((rose(1, 1), core("a"), W("b"), 0))
    @example((rose(1, 1), core("aa"), W("a"), 0))
    def test_meeting_matches_ball_oracle(self, case):
        graph, subgroup, g, _ = case
        cover = CoverCore(graph, subgroup)
        assume(not membership(subgroup, g.letters) and not cover.is_covering)
        meets = _meets_translate(cover, g.letters, _to_subtree(cover, ()))
        if meets:
            # The vertex the engine finds in both is the projection of the
            # gate x1 of x0 onto g*T_H, at the end of the path it reads from
            # x1.  It is d(x1, g*T_H) <= d(x1, g*x1) <= 2*d0 + |loop(g)| from
            # x1, so within |loop(g)| + 3*d0 of x0, where d0 = d(x0, T_H):
            # the ball code sees it at that radius.
            d0 = distance_to_subtree(cover, 2)
            assume(d0 is not None)
            radii = [len(graph.word_to_loop(g.letters)) + 3 * d0]
            assume(radii[0] <= 6)
        else:
            radii = range(7)
        for radius in radii:
            base_ball = grow_ball(cover, (), initial_state(cover), radius)
            outcome = ball_translate_intersection(cover, g, radius, base_ball)["outcome"]
            assert (outcome != "disjoint-within-radius") == meets, (radius, outcome)

    def test_no_basepoint_ball_unless_a_translate_meets(self, monkeypatch):
        def raising(*args):
            raise AssertionError("the basepoint's ball was built")
        monkeypatch.setattr(engine, "_subtree_ball", raising)
        rep = transverse_family_report(rose(1, 1), core("ab", "ba"), 0, 40)
        assert rep["rows"] == [] and rep["verdict"] == "transverse-up-to-budget"
        # every translate of the axis of a misses it
        rep = transverse_family_report(rose(1, 1), core("a"), 3, 40)
        assert rep == {
            "max_len": 3, "radius": 40, "translates_tested": 14,
            "rows": [{"word": w, "outcome": "disjoint-within-radius"}
                     for w in "b B bb BB bab baB bAb bAB bbb Bab BaB BAb BAB BBB".split()],
            "violations": [], "verdict": "transverse-up-to-budget",
            "message": "no translate within the word and radius budget shares "
                       "an edge with the minimal subtree"}


# -- metamorphic properties ------------------------------------------------------


@st.composite
def meeting_cases(draw):
    """(graph, H, g, h1, h2): a rose or theta graph, a nontrivial subgroup,
    random or conjugated so that its core misses the basepoint, a nonempty
    word g and two members h1, h2 of H, products of its basis."""
    graph = oracle_graphs()[draw(st.integers(0, 7))]
    gens = draw(st.lists(nonempty, min_size=1, max_size=2))
    if draw(st.booleans()):
        u = draw(nonempty)
        gens = [u * w * u.inverse() for w in gens]
    subgroup = build_core(gens, 2)
    if rank_of(subgroup) == 0:
        subgroup = core("a")
    basis = basis_of(subgroup)
    member = st.lists(st.tuples(st.sampled_from(basis), st.booleans()), max_size=3).map(
        lambda picks: Word.make(sum(((b.inverse() if inv else b).letters
                                     for b, inv in picks), ()), 2))
    return graph, subgroup, draw(nonempty), draw(member), draw(member)


class TestMeetingProperties:
    """Whether T_H meets g*T_H depends only on the double coset H g^±1 H."""

    @given(meeting_cases())
    @settings(max_examples=200)
    @example((rose(1, 1), core("bab"), W("a"), W("bab"), W("BAB")))
    def test_meeting_is_a_property_of_the_double_coset(self, case):
        graph, subgroup, g, h1, h2 = case
        cover = CoverCore(graph, subgroup)
        x1 = _to_subtree(cover, ())
        meets = _meets_translate(cover, g.letters, x1)
        assert _meets_translate(cover, g.inverse().letters, x1) == meets
        assert _meets_translate(cover, (h1 * g * h2).letters, x1) == meets
