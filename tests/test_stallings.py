"""Subgroup graphs: folding, membership, index, meet, conjugation, covers."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (filter_subgroup_elements, fold_to_core, full_spanning_tree_paths,
                      out_inc_darts, pair_hall_completion, probe_fiber_product,
                      product_loop_letters, two_phase_hall_bases, two_walk_canonical)
from grouptrees import folding, stallings
from grouptrees.core import Word, enumerate_words, parse_word
from grouptrees.corpus import random_hall_instances
from grouptrees.errors import PreconditionError
from grouptrees.stallings import (
    HallWitness,
    StallingsGraph,
    basis_of,
    build_core,
    conjugate,
    fiber_product,
    hall_completion,
    index,
    membership,
    rank_of,
    spanning_tree_paths,
    subgroup_elements,
)


def W(text, rank=2):
    return parse_word(text, rank)


def core(texts, rank=2):
    return build_core([W(t, rank) for t in texts], rank)


class TestBuildCore:
    def test_single_loop(self):
        g = core(["a"])
        assert (g.nv, len(g.edges)) == (1, 1)

    def test_rose(self):
        g = core(["a", "b"])
        assert (g.nv, len(g.edges)) == (1, 2)

    def test_index_two_cover(self):
        g = core(["aa", "b", "abA"])
        assert g.nv == 2
        assert index(g) == 2

    def test_trivial_subgroup(self):
        g = core([])
        assert (g.nv, g.edges) == (1, ())
        assert core(["aA"]) == g

    def test_canonical_equality_ignores_generator_presentation(self):
        assert core(["aa", "aaa"]) == core(["a"])
        assert core(["ab", "ba"]) != core(["ab"])

    def test_conjugate_core_keeps_basepoint_tail(self):
        g = core(["bab"])  # not closed under cyclic reduction: tail survives
        assert membership(g, W("bab").letters)
        assert not membership(g, W("a").letters)


class TestMembership:
    def test_powers(self):
        g = core(["a"])
        assert membership(g, W("aaa").letters)
        assert not membership(g, W("b").letters)

    def test_parity_blocks(self):
        g = core(["aa", "b"])
        assert membership(g, W("aabaa").letters)
        assert not membership(g, W("aba").letters)
        assert not membership(g, W("a").letters)

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10))
    def test_membership_matches_generated_set(self, raw):
        # <a², b> = words with even total a-exponent between b's?  Use the
        # normal-form oracle: a word is in <a²,b> iff rewriting it by the
        # automaton below accepts; here we cross-check against parity of the
        # a-prefix-sums at b-boundaries.
        w = Word.make(raw, 2)
        g = core(["aa", "b"])
        running = 0
        ok = True
        for l in w.letters:
            if abs(l) == 1:
                running += 1 if l > 0 else -1
            else:
                if running % 2:
                    ok = False
                    break
        ok = ok and running % 2 == 0
        assert membership(g, w.letters) == ok


class TestIndex:
    def test_rose_index_one(self):
        assert index(core(["a", "b"])) == 1

    def test_missing_label_infinite(self):
        assert index(core(["a"])) is None

    def test_two(self):
        assert index(core(["aa", "b", "abA"])) == 2

    def test_rank_formula_on_finite_index(self):
        g = core(["aa", "b", "abA"])
        assert rank_of(g) - 1 == index(g) * (2 - 1)


class TestFiberProduct:
    def test_meet_with_whole_group(self):
        h = core(["ab", "ba"])
        assert fiber_product(h, core(["a", "b"])) == h

    def test_disjoint_cyclics(self):
        assert fiber_product(core(["a"]), core(["b"])) == core([])

    def test_nested_powers(self):
        meet = fiber_product(core(["a"]), core(["aa"]))
        assert meet == core(["aa"])
        for k in range(1, 5):
            assert membership(meet, W("a" * k).letters) == (k % 2 == 0)

    def test_membership_conjunction_on_random_words(self):
        rng = random.Random(7)
        g1, g2 = core(["ab", "aab"]), core(["aa", "bb", "ab"])
        meet = fiber_product(g1, g2)
        for _ in range(500):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 9))]
            w = Word.make(raw, 2)
            assert membership(meet, w.letters) == (membership(g1, w.letters)
                                                    and membership(g2, w.letters))


class TestConjugate:
    def test_identity_conjugation(self):
        g = core(["ab", "ba"])
        assert conjugate(g, W("")) == g

    def test_cyclic_by_b(self):
        g = conjugate(core(["a"]), W("b"))
        assert g == core(["baB"])
        assert g.nv == 2
        assert membership(g, W("baB").letters)
        assert not membership(g, W("a").letters)

    def test_normal_subgroup_invariant(self):
        g = core(["aa", "b", "abA"])  # index-2, label-full: normal here
        for t in ("a", "b", "ab", "Ba"):
            assert conjugate(g, W(t)) == g

    @given(st.sampled_from(["a", "b", "ab", "aB", "bba"]))
    def test_conjugation_involutive(self, t):
        g = core(["ab", "abb"])
        assert conjugate(conjugate(g, W(t)), W(t).inverse()) == g


class TestBasis:
    def test_basis_of_rose(self):
        assert [str(w) for w in basis_of(core(["a", "b"]))] == ["a", "b"]

    def test_basis_regenerates_subgroup(self):
        g = core(["aab", "ba", "abababa"])
        assert build_core(basis_of(g), 2) == g
        assert len(basis_of(g)) == rank_of(g)



def assert_tree_matches_full_paths(graph, inside=frozenset()):
    """spanning_tree_paths gives the parent search's tree: the same non-tree
    edges in the same order, and the same path to each of their endpoints.
    Each basis loop joins its pieces as they are: nothing cancels at a seam."""
    path_to, non_tree = spanning_tree_paths(graph, inside)
    full_path_to, full_non_tree = full_spanning_tree_paths(graph, inside)
    assert non_tree == full_non_tree
    ends = {x for u, _, v in non_tree for x in (u, v)}
    assert path_to == {x: full_path_to[x] for x in ends}
    for edge in non_tree:
        assert (stallings._loop_word(path_to, edge, graph.rank).letters
                == product_loop_letters(path_to, edge))


class TestSpanningTree:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_hall_trees_match_full_path_oracle(self, seed):
        for graph, g, _ in random_hall_instances(seed, 300):
            wit = hall_completion(graph, g)
            perm = wit.embedding
            original = {(perm[u], l, perm[v]) for u, l, v in graph.edges}
            assert_tree_matches_full_paths(wit.cover, original)
            assert_tree_matches_full_paths(graph)

    @given(st.integers(1, 4),
           st.lists(st.lists(st.integers(1, 4).flatmap(
               lambda a: st.sampled_from([a, -a])), min_size=1, max_size=9),
               min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_random_cores_match_full_path_oracle(self, rank, raws):
        gens = [Word.make([l for l in r if abs(l) <= rank], rank) for r in raws]
        graph = build_core(gens, rank)
        assert_tree_matches_full_paths(graph)
        wit = hall_completion(graph)
        perm = wit.embedding
        assert_tree_matches_full_paths(wit.cover, {(perm[u], l, perm[v])
                                                   for u, l, v in graph.edges})

    def test_deep_cycle(self):
        # the core of a^k b is one cycle of length k + 1 through the basepoint
        g = core(["a" * 3000 + "b"])
        assert_tree_matches_full_paths(g)
        assert [str(w) for w in basis_of(g)] == ["a" * 3000 + "b"]


class TestSubgroupElements:
    def test_elements_of_cyclic(self):
        got = [str(Word(t, 2)) for t in subgroup_elements(core(["a"]), 3)]
        assert got == ["", "a", "A", "aa", "AA", "aaa", "AAA"]

    @given(st.integers(1, 3),
           st.lists(st.lists(st.integers(1, 3).flatmap(
               lambda a: st.sampled_from([a, -a])), min_size=1, max_size=6),
               max_size=3),
           st.integers(0, 6))
    def test_matches_membership_filter(self, rank, raws, max_len):
        gens = [Word.make([l for l in r if abs(l) <= rank], rank) for r in raws]
        graph = build_core(gens, rank)
        assert (subgroup_elements(graph, max_len)
                == filter_subgroup_elements(graph, max_len))


class TestHall:
    def test_cyclic_excluding_b(self):
        h = core(["a"])
        wit = hall_completion(h, W("b"))
        checks = wit.verify()
        assert checks["ok"], checks
        assert wit.cover_index == 2
        assert len(wit.h_basis) == 1 and wit.h_basis[0] == W("a")
        assert len(wit.complement_basis) == 2
        assert not membership(wit.cover, W("b").letters)

    def test_conjugate_generator_excluding_a(self):
        h = core(["baB"])
        wit = hall_completion(h, W("a"))
        checks = wit.verify()
        assert checks["ok"], checks
        assert len(wit.h_basis) + len(wit.complement_basis) == 1 + wit.cover_index * (2 - 1)
        assert not membership(wit.cover, W("a").letters)

    def test_identity_completion_when_already_full(self):
        h = core(["aa", "b", "abA"])
        wit = hall_completion(h)
        assert wit.verify()["ok"]
        assert wit.cover == h
        assert wit.complement_basis == ()

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionError):
            hall_completion(core(["a"]), W("aa"))

    def test_member_traced_to_basepoint_is_an_error(self, monkeypatch):
        monkeypatch.setattr(stallings, "membership", lambda graph, word: False)
        with pytest.raises(RuntimeError, match="traced back to the basepoint"):
            hall_completion(core(["a"]), W("aa"))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bases_match_two_phase_oracle(self, seed):
        for graph, g, _ in random_hall_instances(seed, 300):
            wit = hall_completion(graph, g)
            assert (wit.h_basis, wit.complement_basis) == two_phase_hall_bases(wit)

    def test_index_two_from_even_a_data(self):
        wit = hall_completion(core(["aa", "b"]))
        assert wit.verify()["ok"]
        assert wit.cover_index == 2
        assert membership(wit.cover, W("aba").letters)  # the completion adds a·b·a⁻¹

    def test_seeded_random_instances_verify(self):
        rng = random.Random(1234)
        done = 0
        while done < 40:
            n = rng.choice([2, 2, 3])
            gens = []
            for _ in range(rng.randrange(1, 5)):
                raw = [rng.choice([s * a for a in range(1, n + 1) for s in (1, -1)])
                       for _ in range(rng.randrange(1, 7))]
                gens.append(Word.make(raw, n))
            h = build_core(gens, n)
            if rank_of(h) > 3:
                continue
            g = None
            for cand in enumerate_words(n, 4):
                if len(cand) and not membership(h, cand):
                    g = Word(cand, n)
                    break
            if g is None:
                continue
            wit = hall_completion(h, g)
            assert wit.verify()["ok"], (gens, str(g))
            done += 1


def assert_darts_match_pairs(graph):
    """Each vertex's dart map holds the out/inc pair's darts, in its order."""
    pairs = out_inc_darts(graph)
    assert [list(graph.darts_at(v).items()) for v in range(graph.nv)] == pairs
    for v, darts in enumerate(pairs):
        found = dict(darts)
        assert [graph.step(v, l) for l in range(-graph.rank, graph.rank + 1) if l] == [
            found.get(l) for l in range(-graph.rank, graph.rank + 1) if l]


def assert_same_graph(got, want):
    """Same vertex count, edge tuple and dart maps, each in the same order."""
    assert (got.rank, got.nv, got.edges) == (want.rank, want.nv, want.edges)
    assert [list(got.darts_at(v).items()) for v in range(got.nv)] == [
        list(want.darts_at(v).items()) for v in range(want.nv)]


raw_generators = st.lists(st.lists(st.integers(1, 4).flatmap(
    lambda a: st.sampled_from([a, -a])), min_size=1, max_size=8), max_size=5)


class TestDartMaps:
    @given(st.integers(1, 4), raw_generators)
    @example(1, [[1]])
    @example(3, [[1], [2, 3, -2], [3, 3, 1]])
    @example(4, [[4, 1, -4], [2, -3, 2], [-1]])
    def test_core_darts_match_out_inc_order(self, rank, raws):
        gens = [Word.make([l for l in r if abs(l) <= rank], rank) for r in raws]
        graph = build_core(gens, rank)
        assert_darts_match_pairs(graph)
        pairs = out_inc_darts(graph)
        assert index(graph) == (graph.nv if all(len(d) == 2 * rank for d in pairs)
                                else None)

    @pytest.mark.parametrize("darts,named", [
        # vertex 1 reads a back to 0, but 0 has no outgoing a
        ([{}, {-1: 0}], "dart -1 from 1 to 0"),
        # a second a-edge into 1 would have to share 1's one -1 dart
        ([{1: 1}, {-1: 0}, {1: 1}], "dart 1 from 2 to 1"),
        # the reverse dart leads elsewhere
        ([{2: 1, -2: 2}, {-2: 0, 2: 2}, {2: 0, -2: 0}], "dart 2 from 1 to 2"),
    ], ids=["missing", "taken", "elsewhere"])
    def test_dart_without_reverse_is_named(self, darts, named):
        with pytest.raises(RuntimeError, match=rf"^{named} has no reverse$"):
            stallings._checked_graph(2, darts)

    def test_canonical_names_dart_without_reverse(self):
        # the reverse dart leads elsewhere: _canonical's walk finds it in
        # the input's numbering, which here is also the BFS numbering
        darts = [{2: 1, -2: 2}, {-2: 0, 2: 2}, {2: 0, -2: 0}]
        with pytest.raises(RuntimeError, match=r"^dart 2 from 1 to 2 has no reverse$"):
            stallings._canonical(2, darts)
        # a dart from a vertex numbered late is named by its input number
        with pytest.raises(RuntimeError, match=r"^dart -1 from 2 to 0 has no reverse$"):
            stallings._canonical(1, [{-1: 2}, {}, {1: 0, -1: 0}])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hall_matches_out_inc_completion(self, seed):
        for graph, g, _ in random_hall_instances(seed, 150):
            for excluded in (g, None):
                wit = hall_completion(graph, excluded)
                assert (wit.cover.edges, wit.embedding, wit.h_basis,
                        wit.complement_basis) == pair_hall_completion(graph, excluded)
                assert_darts_match_pairs(wit.cover)

    @given(st.integers(1, 3), raw_generators, raw_generators)
    @example(2, [[1, 1], [2]], [[1, 1, 1], [2, 1, -2]])
    def test_fiber_product_matches_letter_probe(self, rank, raws1, raws2):
        g1, g2 = (build_core([Word.make([l for l in r if abs(l) <= rank], rank)
                              for r in raws], rank) for raws in (raws1, raws2))
        assert fiber_product(g1, g2) == probe_fiber_product(g1, g2)


@st.composite
def relabelled_cores(draw):
    """A core graph, and a permutation of its vertices that fixes 0."""
    rank = draw(st.integers(1, 3))
    letter = st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a]))
    raws = draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=4))
    graph = build_core([Word.make(r, rank) for r in raws], rank)
    others = draw(st.permutations(range(1, graph.nv)))
    return graph, [0, *others]


class TestCanonical:
    @given(relabelled_cores())
    def test_relabelling_is_undone(self, case):
        graph, relabel = case
        shuffled = [None] * graph.nv
        for v in range(graph.nv):
            # each map in reverse letter order, which _canonical must undo too
            shuffled[relabel[v]] = {l: relabel[w]
                                    for l, w in reversed(graph.darts_at(v).items())}
        again, vertex_map = stallings._canonical(graph.rank, shuffled)
        assert again == graph
        assert [vertex_map[relabel[v]] for v in range(graph.nv)] == list(range(graph.nv))
        assert_darts_match_pairs(again)

    @given(relabelled_cores())
    def test_canonical_graph_is_a_fixed_point(self, case):
        graph, _ = case
        darts = [graph.darts_at(v) for v in range(graph.nv)]
        assert stallings._canonical(graph.rank, darts) == (
            graph, {v: v for v in range(graph.nv)})

    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a])),
                          min_size=1, max_size=8), max_size=5),
        st.lists(st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a])),
                 max_size=4))))
    @example((2, [[1, -1, 2], [2, 1, -1, -2]], [1]))
    @example((3, [[3, 3, -3, 1], [2, -2]], []))
    def test_one_walk_matches_two_walk_oracle(self, case):
        # raw loops are folded as they come, and as the Words they reduce
        # to, conjugated by the same word: one family per draw
        rank, raws, conj = case
        _, darts, _ = folding.fold(*folding.wedge(raws))
        folding.trim(darts, protect=0)
        got, perm = stallings._canonical(rank, darts)
        want, want_perm = two_walk_canonical(rank, darts)
        assert list(perm.items()) == list(want_perm.items())
        assert_same_graph(got, want)
        g = Word.make(conj, rank)
        gens = [g * Word.make(r, rank) * g.inverse() for r in raws]
        assert_same_graph(build_core(gens, rank),
                          fold_to_core(*folding.wedge(h.letters for h in gens), rank))

    def test_disconnected_graph_is_an_error(self):
        with pytest.raises(RuntimeError, match="connected"):
            stallings._canonical(1, [{1: 0, -1: 0}, {1: 1, -1: 1}])


class TestGraphInvariants:
    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6),
                    min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_membership_of_generators_and_products(self, raws):
        gens = [Word.make(r, 2) for r in raws]
        g = build_core(gens, 2)
        for x in gens:
            assert membership(g, x.letters)
        assert membership(g, (gens[0] * gens[-1].inverse()).letters)

    @given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5),
                    min_size=1, max_size=3))
    @settings(max_examples=30)
    def test_basis_words_are_members_and_regenerate(self, raws):
        g = build_core([Word.make(r, 2) for r in raws], 2)
        basis = basis_of(g)
        for w in basis:
            assert membership(g, w.letters)
        assert build_core(basis, 2) == g

    def test_index_multiplicativity_spot(self):
        # <a²,b,aba⁻¹> has index 2; inside it, squares of its basis give a
        # deeper finite-index subgroup; spot-check the product rule in F₂.
        h2 = core(["aa", "b", "abA"])
        h4 = core(["aaaa", "b", "aabAA", "abA", "aabaa"])
        i2, i4 = index(h2), index(h4)
        if i4 is not None:
            assert i4 % i2 == 0
