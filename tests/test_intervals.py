"""Exact interval and multi-interval arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grouptrees.core import Scalar
from grouptrees.errors import InvalidSystemError
from grouptrees.intervals import Interval, MultiInterval

S = Scalar.of


def iv(lo, hi) -> Interval:
    return Interval(S(lo), S(hi))


def mi(*pairs) -> MultiInterval:
    return MultiInterval([iv(a, b) for a, b in pairs])


fracs = st.fractions(min_value=-4, max_value=4).map(
    lambda f: f.limit_denominator(24))


@st.composite
def intervals(draw):
    a, b = sorted((draw(fracs), draw(fracs)))
    return iv(a, b)


@st.composite
def multis(draw):
    return MultiInterval(draw(st.lists(intervals(), max_size=4)))


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(InvalidSystemError):
            iv(1, 0)

    def test_length_midpoint(self):
        assert iv("1/4", "3/4").length == S("1/2")
        assert iv("1/4", "3/4").midpoint == S("1/2")
        assert iv(2, 2).is_point
        assert not iv(2, 3).is_point

    def test_contains(self):
        assert iv(0, 1).contains(S("1/2"))
        assert iv(0, 1).contains(S(0)) and iv(0, 1).contains(S(1))
        assert not iv(0, 1).contains(S("3/2"))
        assert iv(0, 1).contains_interval(iv("1/4", "1/2"))
        assert not iv(0, 1).contains_interval(iv("1/2", 2))

    def test_intersect(self):
        assert iv(0, 1).intersect(iv("1/2", 2)) == iv("1/2", 1)
        assert iv(0, 1).intersect(iv(1, 2)) == iv(1, 1)
        assert iv(0, 1).intersect(iv(2, 3)) is None

    def test_shifted_image_forward(self):
        assert iv(0, 1).shifted_image(1, S(3)) == iv(3, 4)

    def test_shifted_image_reversing_swaps_endpoints(self):
        # x -> -x + 1 maps [0, 1/4] onto [3/4, 1]
        assert iv(0, "1/4").shifted_image(-1, S(1)) == iv("3/4", 1)

    def test_string_roundtrip_shape(self):
        assert str(iv("1/4", "3/4")) == "[1/4, 3/4]"


class TestMultiInterval:
    def test_merges_overlapping_and_touching(self):
        assert mi((0, "1/2"), ("1/2", 1)).components == (iv(0, 1),)
        assert mi((0, "3/4"), ("1/4", 1)).components == (iv(0, 1),)
        assert len(mi((0, 1), (2, 3)).components) == 2

    def test_sorted_components(self):
        m = mi((2, 3), (0, 1))
        assert m.components == (iv(0, 1), iv(2, 3))

    def test_measure_ignores_overlap(self):
        assert mi((0, "3/4"), ("1/4", 1)).measure == S(1)
        assert mi((0, 1), (2, 3)).measure == S(2)
        assert MultiInterval().measure == S(0)
        assert not MultiInterval().components

    def test_contains_multi(self):
        big = mi((0, 1), (2, 3))
        assert big.contains_multi(mi(("1/4", "1/2"), (2, "5/2")))
        assert not big.contains_multi(mi((1, 2),))

    def test_intersect(self):
        assert mi((0, 1), (2, 3)).intersect(mi(("1/2", "5/2"))) == \
            mi(("1/2", 1), (2, "5/2"))
        assert not mi((0, 1)).intersect(iv(2, 3)).components

    def test_union_coerces_interval(self):
        assert mi((0, 1)).union(iv(1, 2)) == mi((0, 2))

    def test_endpoints_skip_point_duplicates(self):
        m = MultiInterval([iv(0, 1), iv(2, 2)])
        assert m.endpoints() == [S(0), S(1), S(2)]

    @given(multis(), multis())
    def test_intersection_measure_bounded(self, a, b):
        inter = a.intersect(b)
        assert (inter.measure - a.measure).sign() <= 0
        assert (inter.measure - b.measure).sign() <= 0
        assert a.contains_multi(inter) and b.contains_multi(inter)

    @given(multis(), multis())
    def test_union_inclusion_exclusion_inequalities(self, a, b):
        u = a.union(b)
        assert u.contains_multi(a) and u.contains_multi(b)
        # |a ∪ b| + |a ∩ b| = |a| + |b| holds exactly for interval unions
        lhs = u.measure + a.intersect(b).measure
        assert lhs == a.measure + b.measure

    @given(multis(), st.sampled_from([1, -1]), fracs)
    def test_shift_preserves_measure(self, a, orient, off):
        img = a.shifted_image(orient, S(off))
        assert img.measure == a.measure

    @given(multis())
    def test_double_reversal_is_identity(self, a):
        assert a.shifted_image(-1, S(0)).shifted_image(-1, S(0)) == a
