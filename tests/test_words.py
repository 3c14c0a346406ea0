"""Reduced words: reduction, cyclic reduction, parsing, canonical enumeration."""

from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from grouptrees import core
from grouptrees.basis_change import invert_basis
from grouptrees.core import (
    Word,
    conjugator_length,
    enumerate_words,
    inverse,
    letter_key,
    parse_word,
    product,
    word_sort_key,
)
from grouptrees.corpus import random_hall_instances, rose_graph
from grouptrees.errors import ParseError
from grouptrees.stallings import basis_of, build_core, conjugate, hall_completion

from _oracles import (brute_omega, cyclic_reduce, filter_conjugacy_classes, reduce_letters,
                      three_pass_parse_word)


def W(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


letters2 = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters2, max_size=14)


class TestReduction:
    def test_cancellation_to_identity(self):
        assert Word.make([1, -1], 2).letters == ()

    def test_inner_cancellation(self):
        assert Word.make([1, 2, -2, 1], 2).letters == (1, 1)

    def test_fixed_point(self):
        assert Word.make([1, -2, 1], 2).letters == (1, -2, 1)

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word((1, -1), 2)
        with pytest.raises(ValueError):
            Word((3,), 2)
        with pytest.raises(ValueError):
            Word((0,), 2)

    def test_rank_is_bounded_by_the_alphabet(self):
        assert str(Word((26, -1), 26)) == "zA"
        with pytest.raises(ValueError, match="above 26"):
            Word((27, 1), 27)
        # the engines check the rank once, then build words unchecked
        with pytest.raises(ValueError, match="above 26"):
            next(enumerate_words(27, 2))
        with pytest.raises(ValueError, match="above 26"):
            parse_word("za", 27)

    @given(raw_words)
    def test_reduce_idempotent(self, raw):
        once = Word.make(raw, 2)
        assert once.letters == reduce_letters(raw)
        assert Word.make(once.letters, 2) == once

    @given(raw_words, raw_words)
    def test_reduce_is_homomorphic(self, u, v):
        assert Word.make(u, 2) * Word.make(v, 2) == Word.make(u + v, 2)

    @given(raw_words)
    def test_inverse_is_inverse(self, raw):
        w = Word.make(raw, 2)
        assert (w * w.inverse()).letters == ()

    @given(raw_words, st.integers(0, 6))
    def test_power_matches_repeated_multiplication(self, raw, k):
        w = Word.make(raw, 2)
        repeated = Word.identity(2)
        for _ in range(k):
            repeated = repeated * w
        assert Word.make(w.letters * k, 2) == repeated
        # a power is the reduction of the repeated letters; Word has no **
        with pytest.raises(TypeError):
            w ** k
        with pytest.raises(TypeError):
            w ** -k


def _inverse(letters):
    return tuple(-x for x in reversed(letters))


reduced3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10).map(reduce_letters)


@st.composite
def seam_pieces(draw):
    """Reduced pieces, each starting with the inverse of a random suffix of
    the product so far: a seam may swallow whole pieces, the product so far
    or both, and cancel across several earlier pieces."""
    pieces, so_far = [], ()
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(0, len(so_far)))
        piece = reduce_letters(_inverse(so_far[len(so_far) - k:]) + draw(reduced3))
        pieces.append(piece)
        so_far = reduce_letters(so_far + piece)
    return pieces


class TestProduct:
    """`product` against the stack reduction of the concatenation."""

    @given(seam_pieces())
    def test_matches_stack_oracle(self, pieces):
        assert product(*pieces) == reduce_letters(sum(pieces, ()))

    def test_seams(self):
        assert product() == ()
        assert product((1, 2), (-2, -1)) == ()
        assert product((1, 2, 3), (-3, -2, 1)) == (1, 1)
        assert product((1,), (2, -1), (1, -2), (3,)) == (1, 3)
        assert product((1, 2), (-2, -1, 3)) == (3,)
        assert product([1, 2], (), [3]) == (1, 2, 3)

    def test_long_overlap(self):
        u = (1, 2) * 5000
        assert product(u + (3,), _inverse(u + (3,))[:-1]) == (1,)
        assert product(u, _inverse(u[2:]), (3,)) == (1, 2, 3)
        assert product(u, (3,), _inverse(u)) == u + (3,) + _inverse(u)

    @given(reduced3)
    def test_inverse_is_an_involution(self, letters):
        assert inverse(inverse(letters)) == letters
        assert inverse(letters) == _inverse(letters)
        assert product(letters, inverse(letters)) == ()


class TestCyclicReduce:
    """The (conjugator, core) split that `conjugator_length` gives."""

    def test_single_layer(self):
        conj, core = cyclic_reduce(W("abA"))
        assert (str(conj), str(core)) == ("a", "b")

    def test_already_cyclically_reduced(self):
        conj, core = cyclic_reduce(W("bab"))
        assert (str(conj), str(core)) == ("", "bab")

    def test_strip_to_fixed_point(self):
        # a·b·a·b⁻¹·a⁻¹ strips twice: conjugator ab, core a
        conj, core = cyclic_reduce(W("abaBA"))
        assert (str(conj), str(core)) == ("ab", "a")
        assert conj * core * conj.inverse() == W("abaBA")

    @given(raw_words)
    def test_decomposition_reassembles(self, raw):
        w = Word.make(raw, 2)
        conj, core = cyclic_reduce(w)
        assert core.is_cyclically_reduced()
        assert conj * core * conj.inverse() == w


def strip_by_slicing(seq) -> int:
    """The slicing loop `conjugator_length` replaced, kept as its oracle."""
    seq = list(seq)
    k = 0
    while len(seq) >= 2 and seq[0] == -seq[-1]:
        seq = seq[1:-1]
        k += 1
    return k


# raw letter lists, reduced or not, and conjugates u·c·u⁻¹ of them
raw_letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)
conjugated = st.tuples(raw_letters, raw_letters).map(
    lambda uc: uc[0] + uc[1] + [-x for x in reversed(uc[0])])


class TestConjugatorLength:
    @given(st.one_of(raw_letters, conjugated))
    def test_matches_slicing(self, seq):
        assert conjugator_length(seq) == strip_by_slicing(seq)
        assert conjugator_length(tuple(seq)) == strip_by_slicing(seq)

    def test_edges(self):
        assert conjugator_length(()) == 0
        assert conjugator_length((1,)) == 0
        assert conjugator_length((1, -1)) == 1      # stops with nothing left
        assert conjugator_length((1, 2, -1)) == 1   # stops at one letter
        assert conjugator_length((1, 2, -2, -1)) == 2

    def test_long_conjugator(self):
        u = [1, 2] * 5000
        seq = u + [1] + [-x for x in reversed(u)]
        assert conjugator_length(seq) == len(u)
        conj, core = cyclic_reduce(Word(tuple(seq), 2))
        assert conj.letters == tuple(u) and core.letters == (1,)


class TestWordIO:
    def test_round_trip(self):
        assert str(W("abA")) == "abA"
        assert str(W("")) == ""

    def test_parse_reduces(self):
        assert W("aA") == Word.identity(2)

    def test_parse_rejects_junk(self):
        with pytest.raises(ParseError):
            parse_word("ax!", 2)
        with pytest.raises(ParseError):
            parse_word("c", 2)

    def test_every_ascii_letter_parses(self):
        lower = "abcdefghijklmnopqrstuvwxyz"
        assert parse_word(lower, 26).letters == tuple(range(1, 27))
        assert parse_word(lower.upper(), 26).letters == tuple(range(-1, -27, -1))

    @pytest.mark.parametrize("ch", ["\u212a", "\u0130", "\u017f", "\u00e0", "1"])
    def test_parse_rejects_non_ascii_letters(self, ch):
        # U+212A KELVIN SIGN lowercases to an ASCII k
        with pytest.raises(ParseError, match="bad letter"):
            parse_word(ch, 26)


def outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:   # the comparison is the test
        return type(exc), str(exc)


word_texts = st.text(st.one_of(
    st.sampled_from("abcdeABCDE"), st.sampled_from("xyzXYZ \t\n!1\u212a\u00e0"),
    st.characters()), max_size=24)


class TestParseMatchesThreePassOracle:
    @given(word_texts, st.integers(1, 27))
    @example("aAbB", 2)
    @example("abBAc", 3)
    @example("  aAb\n", 2)
    @example("a b", 2)
    @example("ab!", 1)
    @example("", 27)
    @example("!", 27)
    @example("z", 27)
    @example("zZ", 26)
    def test_same_word_or_same_error(self, text, rank):
        assert outcome(parse_word, text, rank) == outcome(three_pass_parse_word, text, rank)


def assert_checked(words):
    """Each Word passes the checking constructor and equals what it builds."""
    for w in words:
        assert Word(w.letters, w.rank) == w


def signed(rank):
    return st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a]))


class TestEngineBuiltWords:
    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(signed(rank), max_size=10), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
                 max_size=12))))
    def test_engine_words_pass_the_checking_constructor(self, case):
        rank, raws, moves = case
        words = [parse_word(core._letters_text(r), rank) for r in raws]
        assert_checked(words)
        assert_checked([u * v for u in words for v in words] + [w.inverse() for w in words])
        graph = build_core(words, rank)
        assert_checked(basis_of(graph))
        assert_checked(basis_of(conjugate(graph, words[0])))
        witness = hall_completion(graph)
        assert_checked(witness.h_basis + witness.complement_basis)
        # a Nielsen-moved basis, and its inverse read off the decorated fold
        basis = [Word((i,), rank) for i in range(1, rank + 1)]
        for i, j, invert in moves:
            i, j = i % rank, j % rank
            if i != j:
                basis[i] = basis[i] * (basis[j].inverse() if invert else basis[j])
        assert_checked(basis)
        assert_checked(invert_basis(basis, rank))
        assert_checked(enumerate_words(rank, 3))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hall_bases_with_an_excluded_word(self, seed):
        for graph, g, _ in random_hall_instances(seed, 40):
            witness = hall_completion(graph, g)
            assert_checked(witness.h_basis + witness.complement_basis)


class TestEnumeration:
    def test_reduced_rank2_len1(self):
        words = [str(w) for w in enumerate_words(2, 1, "reduced")]
        assert words == ["", "a", "A", "b", "B"]

    def test_reduced_counts_match_closed_form(self):
        for n in (1, 2, 3):
            for L in range(0, 5):
                count = sum(1 for _ in enumerate_words(n, L, "reduced"))
                expected = 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, L + 1))
                assert count == expected

    def test_reduced_rank2_len2_total(self):
        assert sum(1 for _ in enumerate_words(2, 2, "reduced")) == 17

    def test_conjugacy_rank2_len2(self):
        words = [str(w) for w in enumerate_words(2, 2, "conjugacy")]
        assert words == ["a", "b", "aa", "ab", "aB", "bb"]

    def test_conjugacy_reps_are_cyclically_reduced_and_minimal(self):
        reps = list(enumerate_words(2, 4, "conjugacy"))
        seen = set()
        for w in reps:
            assert w.is_cyclically_reduced() and len(w) >= 1
            cls = _conjugacy_class_words(w)
            assert min(cls, key=lambda v: v.sort_key()) == w
            key = frozenset(v.letters for v in cls)
            assert key not in seen
            seen.add(key)

    def test_conjugacy_covers_all_classes(self):
        # every nontrivial cyclically reduced word of length ≤ 3 has exactly one
        # representative in the stream
        reps = {w.letters for w in enumerate_words(2, 3, "conjugacy")}
        for w in enumerate_words(2, 3, "reduced"):
            if len(w) and w.is_cyclically_reduced():
                cls = {v.letters for v in _conjugacy_class_words(w)}
                assert len(cls & reps) == 1

    def test_deterministic_order(self):
        a = [w.letters for w in enumerate_words(3, 4, "conjugacy")]
        b = [w.letters for w in enumerate_words(3, 4, "conjugacy")]
        assert a == b
        lengths = [len(x) for x in a]
        assert lengths == sorted(lengths)


# Longest max_len per rank at which the filtering oracle builds at most
# 2r(2r-1)^(max_len-1) <= 20000 words of the top length.
_ORACLE_MAX_LEN = {1: 7, 2: 7, 3: 6, 4: 5}


class TestNecklaceEnumeration:
    """The necklace search against the filter over every reduced word."""

    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
        st.just(rank), st.integers(0, _ORACLE_MAX_LEN[rank]))))
    def test_stream_matches_filter_oracle(self, case):
        rank, max_len = case
        got = [(w.letters, w.rank) for w in enumerate_words(rank, max_len, "conjugacy")]
        want = [(w.letters, w.rank) for w in filter_conjugacy_classes(rank, max_len)]
        assert got == want

    def test_rank2_len10_count(self):
        got = [w.letters for w in enumerate_words(2, 10, "conjugacy")]
        assert len(got) == 4759
        assert got == [w.letters for w in filter_conjugacy_classes(2, 10)]

    def test_rank5_short_stream(self):
        got = [w.letters for w in enumerate_words(5, 3, "conjugacy")]
        assert got == [w.letters for w in filter_conjugacy_classes(5, 3)]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_words(2, 2, "necklace"))

    def test_rank1_beyond_the_recursion_limit(self):
        # the search keeps its own stack, so a length above the interpreter's
        # recursion limit is one more class, a^n
        got = [w.letters for w in enumerate_words(1, 1200, "conjugacy")]
        assert got == [(1,) * n for n in range(1, 1201)]


# The longest length whose class table is kept, per rank: the largest n with
# n * 2r(2r-1)^(n-1) <= 2^16.  Rank 1 keeps none; 32768 is where its bound
# would fall.
_LONGEST_TABLE = {1: 32768, 2: 7, 3: 5, 4: 4}


class TestClassMemo:
    """The memo of class tables serves the same stream, cold or warm."""

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_stream_around_the_limit_matches_filter_oracle(self, rank):
        top = _LONGEST_TABLE[rank]
        want = list(filter_conjugacy_classes(rank, top + 1))
        core._class_table.cache_clear()
        for hits in (0, top):   # cold, then warm
            assert list(enumerate_words(rank, top + 1, "conjugacy")) == want
            info = core._class_table.cache_info()
            assert (info.hits, info.currsize) == (hits, top)

    def test_rank1_around_the_limit(self):
        # the filter oracle is quadratic in the length, and rank 1 has one
        # class a^n per length n, so the two lengths are checked directly
        top = _LONGEST_TABLE[1]
        core._class_table.cache_clear()
        for _ in range(2):
            for n in (top, top + 1):
                assert list(core._class_words(1, n)) == [Word((1,) * n, 1)]
            info = core._class_table.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_rank1_stream_keeps_other_tables(self):
        # a long rank-1 stream adds no table, so it evicts none
        core._class_table.cache_clear()
        want = list(enumerate_words(2, 6, "conjugacy"))
        assert len(list(enumerate_words(1, 40, "conjugacy"))) == 40
        before = core._class_table.cache_info()
        assert list(enumerate_words(2, 6, "conjugacy")) == want
        after = core._class_table.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)

    def test_long_length_streams_without_a_table(self):
        shorter = sum(1 for _ in enumerate_words(26, 2, "conjugacy"))
        before = core._class_table.cache_info().currsize
        got = islice(enumerate_words(26, 3, "conjugacy"), shorter + 5)
        assert [str(w) for w in got][shorter:] == ["aaa", "aab", "aaB", "aac", "aaC"]
        assert core._class_table.cache_info().currsize == before

    def test_omega_cold_and_warm_matches_exhaustion(self):
        graph = rose_graph("1/3", "1/2", "1")
        core._class_table.cache_clear()
        for _ in range(2):   # cold, then warm
            for epsilon in map(core.Scalar.parse, ("2", "5/2")):
                got = [w.letters for w in graph.omega_epsilon(epsilon, 5)]
                want = brute_omega(graph, epsilon, 5)
                assert got == sorted(want, key=word_sort_key)


class TestSortKey:
    @given(raw_words)
    def test_word_sort_key_matches_letter_keys(self, raw):
        w = Word.make(raw, 2)
        expected = (len(w.letters), tuple(letter_key(l) for l in w.letters))
        assert word_sort_key(w.letters) == w.sort_key() == expected


def _conjugacy_class_words(w: Word) -> list[Word]:
    out = []
    for base in (w.letters, w.inverse().letters):
        for s in range(len(base)):
            out.append(Word(base[s:] + base[:s], w.rank))
    return out


@given(st.integers(1, 3), st.integers(0, 4))
def test_enumeration_words_are_reduced_and_unique(n, L):
    seen = set()
    stream = [w.letters for w in enumerate_words(n, L, "reduced")]
    for letters in stream:
        assert letters == reduce_letters(letters)
        assert letters not in seen
        seen.add(letters)
    assert stream == sorted(stream, key=word_sort_key)
