"""Boundary rays, rational leaves, membership, and carrier scans."""

import pytest
from hypothesis import given, settings, strategies as st

from grouptrees.core import Scalar, Word, parse_word
from _fixtures import unit_rose
from grouptrees.corpus import lopsided_rose
from grouptrees.errors import DegenerateSubgroupError, PreconditionError
from grouptrees.laminations import (
    BoundaryRay,
    RationalLeaf,
    _canonical_ray,
    _primitive_root,
    boundary_membership,
    carrier_scan,
    carries,
    periodic_leaf,
)
from grouptrees.marked_graphs import MarkedMetricGraph
from grouptrees.stallings import build_core, hall_completion, index

from _oracles import (object_carrier_scan, popping_canonical_ray,
                      translate_leaf, translate_ray)

S = Scalar.of


def W(text, rank=2):
    return parse_word(text, rank)


def ray(prefix, period, rank=2):
    return BoundaryRay(W(prefix, rank), W(period, rank))


def ray_head(r: BoundaryRay, count: int) -> Word:
    """The first `count` letters of the infinite word."""
    letters = list(r.prefix.letters)
    while len(letters) < count:
        letters.extend(r.period.letters)
    return Word(tuple(letters[:count]), r.rank)


letters2 = st.sampled_from([1, -1, 2, -2])


@st.composite
def words(draw, min_size=0, max_size=6):
    raw = draw(st.lists(letters2, min_size=min_size, max_size=max_size))
    return Word.make(tuple(raw), 2)


class TestBoundaryRay:
    def test_empty_period_rejected(self):
        with pytest.raises(PreconditionError):
            ray("a", "")

    def test_non_cyclically_reduced_period_rejected(self):
        with pytest.raises(PreconditionError):
            ray("", "abA")

    def test_rotation_absorbed_into_prefix(self):
        assert ray("a", "ba") == ray("", "ab")

    def test_seam_cancellation_rotates_period(self):
        # A * (ab)^inf starts "A a b a b ..." = "b a b a ..." = (ba)^inf
        assert ray("A", "ab") == ray("", "ba")

    def test_period_made_primitive(self):
        assert ray("", "abab").period == W("ab")

    def test_deep_prefix_cancellation(self):
        # b^-1 a^-1 * a (ba)^inf = b^-1 (ab)^inf... = (ab)^inf shifted twice
        r = BoundaryRay(W("BA"), W("ab"))
        assert ray_head(r, 6) == ray_head(BoundaryRay(W("BA"), W("ab")), 6)
        assert r == ray("B", "ba")

    def test_head_expands_infinite_word(self):
        assert ray_head(ray("", "ab"), 5) == W("ababa")
        assert ray_head(ray("b", "a"), 3) == W("baa")

    def test_distinct_phases_differ(self):
        assert ray("", "ab") != ray("", "ba")

    @given(words(min_size=1, max_size=4))
    def test_head_prefix_consistency(self, v):
        # any (prefix, period) built from a cyclically reduced core satisfies:
        # head(k) is a prefix of head(k+1)
        conj, core = v.cyclic_reduce()
        if not core.letters:
            return
        r = BoundaryRay(conj, core)
        for k in range(1, 8):
            assert ray_head(r, k + 1).letters[:k] == ray_head(r, k).letters

    @given(words(max_size=5), words(min_size=1, max_size=4),
           st.integers(1, 3), st.integers(0, 11))
    def test_canonical_form_on_tuples(self, u, v, power, shift):
        """The tuple canonicaliser, the constructor and the list-popping
        loop agree, and give one form for every way of writing the ray:
        u * p^infinity is also (u * p[:j]) * (p[j:] + p[:j])^infinity and
        u * (p^k)^infinity."""
        period = v.cyclic_reduce()[1].letters * power
        if not period:
            return
        j = shift % len(period)
        want = popping_canonical_ray(u.letters, period)
        for prefix, rotated in ((u.letters, period),
                                ((u * Word(period[:j], 2)).letters,
                                 period[j:] + period[:j])):
            assert popping_canonical_ray(prefix, rotated) == want
            assert _canonical_ray(prefix, _primitive_root(rotated)) == want
            r = BoundaryRay(Word(prefix, 2), Word(rotated, 2))
            assert (r.prefix.letters, r.period.letters) == want


class TestRationalLeaf:
    def test_rays_sorted_and_distinct(self):
        leaf = RationalLeaf((ray("", "b"), ray("", "a")))
        assert [str(r) for r in leaf.rays] == ["(a)^∞", "(b)^∞"]
        with pytest.raises(PreconditionError):
            RationalLeaf((ray("", "a"), ray("", "a")))

    def test_periodic_leaf_of_letter(self):
        leaf = periodic_leaf(W("a"))
        assert str(leaf) == "((a)^∞, (A)^∞)"

    def test_periodic_leaf_normalizes_conjugate(self):
        assert periodic_leaf(W("abA")) == translate_leaf(W("a"),
                                                         periodic_leaf(W("b")))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateSubgroupError):
            periodic_leaf(Word.identity(2))

    def test_powers_share_the_leaf(self):
        assert periodic_leaf(W("ababab")) == periodic_leaf(W("ab"))

    @given(words(min_size=1, max_size=4), words(max_size=3))
    def test_conjugation_is_translation(self, g, w):
        conj, core = g.cyclic_reduce()
        if not core.letters:
            return
        assert periodic_leaf(w * g * w.inverse()) == \
            translate_leaf(w, periodic_leaf(g))

    @given(words(max_size=3), words(max_size=3), words(min_size=1, max_size=3))
    def test_translation_is_a_left_action(self, w1, w2, v):
        conj, core = v.cyclic_reduce()
        if not core.letters:
            return
        r = BoundaryRay(conj, core)
        assert translate_ray(w1, translate_ray(w2, r)) == \
            translate_ray(w1 * w2, r)


def _stuck_tail(graph, word: Word) -> int:
    """Letters of `word` left unread when tracing from the basepoint sticks."""
    v = graph.base
    for i, l in enumerate(word.letters):
        v = graph.step(v, l)
        if v is None:
            return len(word.letters) - i
    return 0


class TestBoundaryMembership:
    def test_cyclic_subgroup(self):
        Ha = build_core([W("a")], 2)
        assert boundary_membership(Ha, ray("", "a"))
        assert boundary_membership(Ha, ray("", "A"))
        assert not boundary_membership(Ha, ray("b", "a"))
        assert not boundary_membership(Ha, ray("", "ab"))

    def test_two_vertex_core_alternates_forever(self):
        H2 = build_core([W("aa"), W("b")], 2)
        assert boundary_membership(H2, ray("", "a"))
        # the b-loop lives only at the basepoint: a·b^inf is NOT readable,
        # but it becomes readable in the completed index-2 cover
        assert not boundary_membership(H2, ray("a", "b"))
        cover = hall_completion(H2, W("a")).cover
        assert boundary_membership(cover, ray("a", "b"))
        assert not boundary_membership(H2, ray("", "ab"))
        assert boundary_membership(H2, ray("", "aab"))

    def test_whole_group_reads_everything(self):
        F2 = build_core([W("a"), W("b")], 2)
        for r in (ray("", "a"), ray("ab", "ba"), ray("B", "aab")):
            assert boundary_membership(F2, r)

    @given(words(max_size=3), words(min_size=1, max_size=3))
    def test_agrees_with_long_head_tracing(self, u, v):
        """Readable-forever iff a 20-period head traces with no stuck tail."""
        conj, core = v.cyclic_reduce()
        if not core.letters:
            return
        try:
            r = BoundaryRay(u * conj, core)
        except PreconditionError:
            return
        for graph in (build_core([W("a")], 2),
                      build_core([W("aa"), W("b")], 2),
                      build_core([W("ab")], 2)):
            head = r.prefix
            for _ in range(20):
                head = head * r.period
            assert boundary_membership(graph, r) == (_stuck_tail(graph, head) == 0)


class TestCarries:
    def test_swap_invariant_by_construction(self):
        Ha = build_core([W("a")], 2)
        leaf = periodic_leaf(W("a"))
        swapped = RationalLeaf((leaf.rays[1], leaf.rays[0]))
        assert carries(Ha, leaf) == carries(Ha, swapped) is True

    def test_cyclic_subgroup_carries_only_its_letter(self):
        Ha = build_core([W("a")], 2)
        assert carries(Ha, periodic_leaf(W("a")))
        assert not carries(Ha, periodic_leaf(W("b")))
        assert not carries(Ha, periodic_leaf(W("ab")))

    def test_finite_index_carries_every_rational_leaf(self):
        cover = hall_completion(build_core([W("aa"), W("b")], 2), W("a")).cover
        assert index(cover) == 2
        for g in (W("a"), W("b"), W("ab"), W("aBab")):
            assert carries(cover, periodic_leaf(g))

    def test_conjugate_subgroup_carries_translated_leaf(self):
        Hb = build_core([W("baB")], 2)
        assert not carries(Hb, periodic_leaf(W("a")))
        assert carries(Hb, translate_leaf(W("b"), periodic_leaf(W("a"))))


class TestCarrierScan:
    def test_cyclic_a_negative_control_is_annotated(self):
        scan = carrier_scan(lopsided_rose(), build_core([W("a")], 2),
                            S("1/2"), 4, 2)
        assert scan["status"] == "carried-leaves-found"
        assert scan["subgroup_index"] is None  # infinite index, yet carried
        assert "simplicial" in scan["note"]

    def test_conjugated_cyclic_reports_none_with_translate_hits(self):
        scan = carrier_scan(lopsided_rose(), build_core([W("baB")], 2),
                            S("1/2"), 4, 2)
        assert scan["status"] == "none-up-to-budget"
        assert scan["carried"] == []
        assert any(h["word"] == "b" and h["generator"] == "a"
                   for h in scan["translate_hits"])

    def test_finite_index_always_carries(self):
        cover = hall_completion(build_core([W("aa"), W("b")], 2), W("a")).cover
        scan = carrier_scan(lopsided_rose(), cover, S("1/2"), 4, 2)
        assert scan["status"] == "carried-leaves-found"
        assert len(scan["carried"]) == len(scan["short_classes"]) == 4
        assert scan["subgroup_index"] == 2

    def test_whole_group(self):
        scan = carrier_scan(unit_rose(), build_core([W("a"), W("b")], 2),
                            S("3/2"), 1, 0)
        assert scan["status"] == "carried-leaves-found"
        assert scan["translate_hits"] == []


lengths = st.sampled_from(["1", "1/2", "3/7", "2", "sqrt2", "1/3*sqrt2",
                           "3/2-1/2*sqrt2"]).map(S)


@st.composite
def scan_cases(draw):
    """(graph, subgroup, epsilon, max_word, max_translate): a rose or a
    theta graph, some lengths in Q(sqrt2), a random nontrivial subgroup or
    a finite-index one containing it."""
    if draw(st.booleans()):
        graph = MarkedMetricGraph(2, 1, [(0, 0, draw(lengths)) for _ in range(2)],
                                  (), {0: W("a"), 1: W("b")})
    else:
        graph = MarkedMetricGraph(2, 2, [(0, 1, draw(lengths)) for _ in range(3)],
                                  (0,), {1: W("a"), 2: W("b")})
    subgroup = build_core(draw(st.lists(words(min_size=1, max_size=4),
                                        min_size=1, max_size=2)), 2)
    if draw(st.booleans()):
        subgroup = hall_completion(subgroup).cover
    # from half the volume, where few classes are short, to twice it
    epsilon = graph.volume() * S(f"{draw(st.integers(2, 8))}/4")
    return (graph, subgroup, epsilon, draw(st.integers(0, 4)),
            draw(st.integers(0, 3)))


class TestCarrierScanMatchesObjectScan:
    @given(scan_cases())
    @settings(max_examples=80)
    def test_whole_report(self, case):
        assert carrier_scan(*case) == object_carrier_scan(*case)

    @pytest.mark.parametrize("gens", [["a"], ["baB"], ["aa", "b"], ["ab", "bA"]])
    def test_lopsided_rose(self, gens):
        case = (lopsided_rose(), build_core([W(g) for g in gens], 2), S("3/2"), 4, 3)
        assert carrier_scan(*case) == object_carrier_scan(*case)
