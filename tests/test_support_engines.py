"""The support engines (soi cover, grow, indecomp, saturate) on the integer
kernel: whole reports against the Scalar engines they replaced, and
metamorphic properties that need no old code."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grouptrees.core import Scalar, parse_word
from grouptrees.corpus import balanced_corpus, golden_system, grow_corpus
from grouptrees.errors import DegenerateSubgroupError, MixedFieldError
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.isometry_systems import (PartialIsometry, SoISystem, _word_image,
                                         ae_support_check, grow_forest,
                                         indecomposability_search, subgroup_saturation)
from grouptrees.stallings import build_core

from _fixtures import scaled, scaled_system
from _oracles import (scalar_ae_support_check, scalar_grow_forest,
                      scalar_indecomposability_search, scalar_subgroup_saturation)

S = Scalar.of
LABELS = ("a", "b", "c")


def iv(lo, hi) -> Interval:
    return Interval(S(lo), S(hi))


@st.composite
def rotations(draw):
    """The rotation of [0, 1] by theta, theta rational or in Q(sqrt2), and
    sometimes a reflection x -> c - x of a sub-arc as a third generator."""
    q = draw(st.fractions(0, 1, max_denominator=12))
    theta = S(q) + S(draw(st.sampled_from(["0", "1/3*sqrt2", "-1/5*sqrt2"])))
    assume(theta.sign() > 0 and theta < S(1))
    one = S(1)
    gens = [PartialIsometry(Interval(S(0), one - theta), 1, theta),
            PartialIsometry(Interval(S(0), theta), 1, one - theta)]
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=8),
                                      min_size=2, max_size=2)))
        gens.append(PartialIsometry(iv(lo, hi), -1, S(lo + hi)))
    return SoISystem(MultiInterval([iv(0, 1)]), gens, LABELS[:len(gens)])


def arcs(min_width, max_width):
    return st.tuples(st.fractions(0, Fraction(7, 8), max_denominator=20),
                     st.fractions(min_width, max_width, max_denominator=40)).map(
        lambda cw: iv(cw[0], min(cw[0] + cw[1], 1)))


seeds = st.lists(arcs(0, Fraction(1, 8)), min_size=1, max_size=3).map(MultiInterval)
deltas = st.fractions(0, Fraction(1, 20), max_denominator=400).filter(bool).map(S)


@st.composite
def subgroups(draw, rank):
    letters = "abcABC"[:rank] + "abcABC"[3:3 + rank]
    words = draw(st.lists(st.text(letters, min_size=1, max_size=4), min_size=1,
                          max_size=3))
    try:
        return build_core([parse_word(w, rank) for w in words], rank)
    except DegenerateSubgroupError:
        assume(False)


def labelled(sy: SoISystem) -> SoISystem:
    return SoISystem(sy.forest, sy.generators, LABELS[:len(sy.generators)])


def corpus_inputs(sy: SoISystem):
    """A seed, a piece and a target from the first component of the support."""
    comp = sy.forest.components[0]
    at = lambda t: comp.lo + comp.length * S(t)
    return (MultiInterval([Interval(at(0), at("1/5"))]), Interval(at(0), at("1/10")),
            Interval(at("1/2"), at("3/5")), comp)


CORPUS = [(name, sy) for name, sy, _ in balanced_corpus()] + [("golden", golden_system())]
IDS = [name for name, _ in CORPUS]


class TestReportsMatchScalarEngines:
    """Every ported engine's whole report equals its Scalar oracle's."""

    @given(rotations(), seeds, arcs(Fraction(1, 4), Fraction(1, 2)), deltas,
           st.integers(0, 5))
    @settings(max_examples=80)
    def test_cover_on_rotations(self, sy, seed, target, delta, max_len):
        args = (sy, seed, target, delta, max_len)
        assert ae_support_check(*args) == scalar_ae_support_check(*args)

    @given(rotations(), seeds, st.integers(0, 5))
    @settings(max_examples=80)
    def test_grow_on_rotations(self, sy, seed, steps):
        assert grow_forest(sy, seed, steps) == scalar_grow_forest(sy, seed, steps)

    @given(rotations(), arcs(Fraction(1, 40), Fraction(1, 8)),
           arcs(Fraction(1, 40), Fraction(1, 4)), st.integers(0, 5), st.integers(0, 6))
    @settings(max_examples=80)
    def test_indecomp_on_rotations(self, sy, piece, target, r_max, max_len):
        assume(not piece.is_point and not target.is_point)
        args = (sy, piece, target, r_max, max_len)
        # r_max 0 builds no candidates now; the oracle still counts them
        want = scalar_indecomposability_search(*args)
        if r_max == 0:
            want["candidates"] = 0
        assert indecomposability_search(*args) == want

    @given(rotations(), st.data(), arcs(Fraction(1, 40), Fraction(1, 4)),
           st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=80)
    def test_saturate_on_rotations(self, sy, data, piece, max_len, steps):
        graph = data.draw(subgroups(len(sy.generators)))
        args = (sy, graph, piece, max_len, steps)
        assert subgroup_saturation(*args) == scalar_subgroup_saturation(*args)

    @pytest.mark.parametrize("name,sy,seed", grow_corpus(),
                             ids=[n for n, _, _ in grow_corpus()])
    def test_grow_corpus(self, name, sy, seed):
        assert grow_forest(sy, seed, 8) == scalar_grow_forest(sy, seed, 8)

    @pytest.mark.parametrize("name,sy", CORPUS, ids=IDS)
    def test_balanced_corpus(self, name, sy):
        seed, piece, target, whole = corpus_inputs(sy)
        args = (sy, seed, whole, S("1/100"), 6)
        assert ae_support_check(*args) == scalar_ae_support_check(*args)
        assert grow_forest(sy, seed, 8) == scalar_grow_forest(sy, seed, 8)
        args = (sy, piece, target, 8, 8)
        assert indecomposability_search(*args) == scalar_indecomposability_search(*args)
        sy = labelled(sy)
        n = len(sy.generators)
        for graph in (build_core([parse_word("a", n)], n),
                      build_core([parse_word(l, n) for l in "abc"[:n]], n)):
            args = (sy, graph, piece, 4, 6)
            assert subgroup_saturation(*args) == scalar_subgroup_saturation(*args)


# -- metamorphic properties ------------------------------------------------------


def word_images(sy: SoISystem, words, seed: MultiInterval) -> MultiInterval:
    """The union of the images of `seed` under the words, re-derived with
    _word_image on Scalars, component by component."""
    rank = len(sy.generators)
    out = []
    for text in words:
        letters = parse_word(text, rank).letters
        for comp in seed.components:
            img = _word_image(sy, letters, comp)
            if img is not None:
                out.append(img)
    return MultiInterval(out)


scales = st.fractions(Fraction(1, 7), 5, max_denominator=9).map(S)


class TestCoverRederived:
    @given(rotations(), seeds, arcs(Fraction(1, 4), Fraction(1, 2)), deltas,
           st.integers(0, 5))
    @settings(max_examples=80)
    def test_uncovered_measure_from_the_words(self, sy, seed, target, delta, max_len):
        rep = ae_support_check(sy, seed, target, delta, max_len)
        union = word_images(sy, rep["words"], seed)
        meet = MultiInterval(c for c in (comp.intersect(target)
                                         for comp in union.components) if c)
        assert target.length - meet.measure == rep["uncovered_measure"]
        if rep["status"] == "covered":
            assert rep["uncovered_measure"] < delta
        elif rep["uncovered_measure"].sign() > 0:
            # a delta equal to what stays uncovered is not met either
            again = ae_support_check(sy, seed, target, rep["uncovered_measure"], max_len)
            assert again == dict(rep, delta=rep["uncovered_measure"])


class TestGrowMonotone:
    @given(rotations(), seeds, st.integers(0, 6))
    @settings(max_examples=80)
    def test_nested_supports_and_monotone_measures(self, sy, seed, steps):
        stages = grow_forest(sy, seed, steps)
        for a, b in zip(stages, stages[1:]):
            assert b["support"].contains_multi(a["support"])
            assert a["m"] <= b["m"]
            assert b["residual"] <= a["residual"]


class TestScaling:
    """Scaling the system and its inputs by q > 0 scales every measure by q
    and keeps every witness word."""

    @given(rotations(), seeds, arcs(Fraction(1, 4), Fraction(1, 2)), deltas,
           st.integers(0, 4), scales)
    @settings(max_examples=60)
    def test_cover(self, sy, seed, target, delta, max_len, q):
        rep = ae_support_check(sy, seed, target, delta, max_len)
        big = ae_support_check(scaled_system(sy, q), scaled(seed, q), scaled(target, q),
                               delta * q, max_len)
        assert big["words"] == rep["words"] and big["status"] == rep["status"]
        assert big["uncovered_measure"] == rep["uncovered_measure"] * q

    @given(rotations(), seeds, st.integers(0, 5), scales)
    @settings(max_examples=60)
    def test_grow(self, sy, seed, steps, q):
        stages = grow_forest(sy, seed, steps)
        big = grow_forest(scaled_system(sy, q), scaled(seed, q), steps)
        for a, b in zip(stages, big, strict=True):
            assert b["support"] == scaled(a["support"], q)
            assert [b[k] for k in ("m", "d", "residual")] == \
                [a[k] * q for k in ("m", "d", "residual")]

    @given(rotations(), arcs(Fraction(1, 40), Fraction(1, 8)),
           arcs(Fraction(1, 40), Fraction(1, 4)), st.integers(1, 5), st.integers(0, 5),
           scales)
    @settings(max_examples=60)
    def test_indecomp(self, sy, piece, target, r_max, max_len, q):
        assume(not piece.is_point and not target.is_point)
        rep = indecomposability_search(sy, piece, target, r_max, max_len)
        big = indecomposability_search(scaled_system(sy, q), scaled(piece, q),
                                       scaled(target, q), r_max, max_len)
        if rep["status"] == "chain-found":
            rep["chain"] = [dict(link, interval=scaled(link["interval"], q))
                            for link in rep["chain"]]
        assert big == rep

    @given(rotations(), st.data(), arcs(Fraction(1, 40), Fraction(1, 4)),
           st.integers(0, 4), scales)
    @settings(max_examples=40)
    def test_saturate(self, sy, data, piece, max_len, q):
        graph = data.draw(subgroups(len(sy.generators)))
        rep = subgroup_saturation(sy, graph, piece, max_len, 4)
        big = subgroup_saturation(scaled_system(sy, q), graph, scaled(piece, q),
                                  max_len, 4)
        assert big == dict(rep, support=scaled(rep["support"], q))


class TestForeignFieldInputs:
    """A seed, target or piece of another field than the system's fails with
    one message, which names the system's field first, whichever of its ends
    are irrational and even when no image is built."""

    @pytest.mark.parametrize("lo,hi", [("1/10+1/1000*sqrt3", "1/5"),
                                       ("1/10", "1/5+1/1000*sqrt3")])
    @pytest.mark.parametrize("max_len", [0, 3])
    def test_each_engine(self, lo, hi, max_len):
        sy, arc = golden_system(), Interval(S(lo), S(hi))
        graph = build_core([parse_word("a", 2)], 2)
        calls = [
            lambda: ae_support_check(sy, MultiInterval([arc]), iv(0, 1), S("1/100"),
                                     max_len),
            lambda: ae_support_check(sy, MultiInterval([iv(0, "1/5")]), arc,
                                     S("1/100"), max_len),
            lambda: grow_forest(sy, MultiInterval([arc]), max_len),
            lambda: indecomposability_search(sy, arc, iv("1/2", "3/5"), 4, max_len),
            lambda: indecomposability_search(sy, iv(0, "1/20"), arc, 4, max_len),
            lambda: subgroup_saturation(sy, graph, arc, max_len, 4)]
        for call in calls:
            with pytest.raises(MixedFieldError, match="^cannot mix sqrt5 and sqrt3 "
                                                      "values in one computation$"):
                call()
