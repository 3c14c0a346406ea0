"""Exact interval and multi-interval arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouptrees.core import Scalar, _integer_view, _make
from grouptrees.errors import InvalidSystemError
from grouptrees.intervals import (Interval, MultiInterval, _intersect, _measure, _multi,
                                  _shifted, _union)

from _oracles import multi_endpoints, multi_intersect, multi_shifted_image, multi_union

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
        assert multi_intersect(mi((0, 1), (2, 3)), mi(("1/2", "5/2"))) == \
            mi(("1/2", 1), (2, "5/2"))
        assert not multi_intersect(mi((0, 1)), iv(2, 3)).components

    def test_union_coerces_interval(self):
        assert multi_union(mi((0, 1)), iv(1, 2)) == mi((0, 2))

    def test_endpoints_skip_point_duplicates(self):
        m = MultiInterval([iv(0, 1), iv(2, 2)])
        assert multi_endpoints(m) == [S(0), S(1), S(2)]

    @given(multis(), multis())
    def test_intersection_measure_bounded(self, a, b):
        inter = multi_intersect(a, b)
        assert (inter.measure - a.measure).sign() <= 0
        assert (inter.measure - b.measure).sign() <= 0
        assert a.contains_multi(inter) and b.contains_multi(inter)

    @given(multis(), multis())
    def test_union_inclusion_exclusion_inequalities(self, a, b):
        u = multi_union(a, b)
        assert u.contains_multi(a) and u.contains_multi(b)
        # |a ∪ b| + |a ∩ b| = |a| + |b| holds exactly for interval unions
        lhs = u.measure + multi_intersect(a, b).measure
        assert lhs == a.measure + b.measure

    @given(multis(), st.sampled_from([1, -1]), fracs)
    def test_shift_preserves_measure(self, a, orient, off):
        img = multi_shifted_image(a, orient, S(off))
        assert img.measure == a.measure

    @given(multis())
    def test_double_reversal_is_identity(self, a):
        assert multi_shifted_image(multi_shifted_image(a, -1, S(0)), -1, S(0)) == a


# ends on a coarse grid of Q or Q(sqrt5), so that drawn components often
# touch, overlap exactly at an end or shrink to a point
grid_ends = st.builds(lambda a, b: S(Fraction(a, 4)) + S(Fraction(b, 4)) * S("sqrt5"),
                      st.integers(-8, 8), st.integers(-2, 2))
rational_ends = st.integers(-8, 8).map(lambda a: S(Fraction(a, 4)))


@st.composite
def grid_multis(draw, ends):
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        lo, hi = sorted((draw(ends), draw(ends)))
        pieces.append(Interval(lo, lo) if draw(st.booleans()) and draw(st.booleans())
                      else Interval(lo, hi))
    return MultiInterval(pieces)


def to_kernel(sets, extra=()):
    """(den, d, kernel sets, extra pairs) on one denominator and field."""
    den, d, pairs = _integer_view([e for m in sets for iv in m.components
                                   for e in (iv.lo, iv.hi)] + list(extra))
    ends = iter(zip(pairs[0::2], pairs[1::2]))
    kernel = [tuple(next(ends) for _ in m.components) for m in sets]
    return den, d, kernel, pairs[len(pairs) - len(extra):]


class TestIntegerKernel:
    """The kernel's intersect, union, shift and measure against the
    MultiInterval operations they replaced, over Q and Q(sqrt5)."""

    @given(st.sampled_from([rational_ends, grid_ends]).flatmap(
        lambda ends: st.tuples(grid_multis(ends), grid_multis(ends))))
    @settings(max_examples=300)
    def test_intersect_and_union(self, pair):
        a, b = pair
        den, d, (ka, kb), _ = to_kernel((a, b))
        assert _multi(_intersect(ka, kb, d), den, d) == multi_intersect(a, b)
        assert _multi(_union(ka, kb, d), den, d) == multi_union(a, b)
        assert _multi(ka, den, d) == a

    @given(st.sampled_from([rational_ends, grid_ends]).flatmap(
        lambda ends: st.tuples(grid_multis(ends), ends)), st.sampled_from([1, -1]))
    @settings(max_examples=200)
    def test_shift_and_measure(self, drawn, orient):
        a, offset = drawn
        den, d, (ka,), (off,) = to_kernel((a,), (offset,))
        assert _multi(_shifted(ka, orient, off), den, d) == \
            multi_shifted_image(a, orient, offset)
        assert _make(*_measure(ka), den, d) == a.measure
