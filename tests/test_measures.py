"""Piecewise-constant length measures: exact measures, invariance, convexity."""

import pytest

from _fixtures import lebesgue
from grouptrees.core import Scalar
from grouptrees.corpus import balanced_corpus, golden_system
from grouptrees.errors import PreconditionError
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.isometry_systems import PartialIsometry, SoISystem
from grouptrees.measures import LengthMeasure, combine, invariance_check

S = Scalar.of


def iv(lo, hi) -> Interval:
    return Interval(S(lo), S(hi))


def step_measure():
    """Density 2 on [0,1/2], 1 on [1/2,1]."""
    return LengthMeasure([(iv(0, "1/2"), S(2)), (iv("1/2", 1), S(1))])


class TestLengthMeasure:
    def test_negative_density_rejected(self):
        with pytest.raises(PreconditionError):
            LengthMeasure([(iv(0, 1), S(-1))])

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(PreconditionError):
            LengthMeasure([(iv(0, "3/4"), S(1)), (iv("1/2", 1), S(2))])

    def test_equal_density_pieces_merge(self):
        a = LengthMeasure([(iv(0, "1/2"), S(1)), (iv("1/2", 1), S(1))])
        assert a == lebesgue(MultiInterval([iv(0, 1)]))
        assert len(a.pieces) == 1

    def test_point_pieces_dropped(self):
        a = LengthMeasure([(iv(0, 1), S(1)), (iv(2, 2), S(5))])
        assert len(a.pieces) == 1

    def test_support_and_total(self):
        mu = step_measure()
        assert mu.support == MultiInterval([iv(0, 1)])
        assert mu.total == S("3/2")


class TestInvarianceCheck:
    def test_lebesgue_invariant_for_golden(self):
        g = golden_system()
        assert invariance_check(g, lebesgue(g.forest))["status"] == "invariant"

    @pytest.mark.parametrize("name,sy,_e", balanced_corpus(),
                             ids=[n for n, _, _ in balanced_corpus()])
    def test_lebesgue_invariant_across_corpus(self, name, sy, _e):
        assert invariance_check(sy, lebesgue(sy.forest))["status"] == "invariant"

    def test_step_density_violation_detected(self):
        sy = SoISystem(MultiInterval([iv(0, 1)]),
                       [PartialIsometry(iv(0, "1/4"), 1, S("1/2"))])
        res = invariance_check(sy, step_measure())
        assert res["status"] == "violation"
        assert res["density_here"] == S(2)
        assert res["density_there"] == S(1)
        assert res["piece"] == iv(0, "1/4")

    def test_point_domain_vacuously_invariant(self):
        sy = SoISystem(MultiInterval([iv(0, 1)]),
                       [PartialIsometry(iv("1/2", "1/2"), 1, S("1/4"))])
        assert invariance_check(sy, step_measure())["status"] == "invariant"

    def test_reversing_generator_orientation_aware(self):
        # x -> 1-x on [0,1/2]: symmetric step density IS invariant for it
        sy = SoISystem(MultiInterval([iv(0, 1)]),
                       [PartialIsometry(iv(0, "1/2"), -1, S(1))])
        symmetric = LengthMeasure([(iv(0, "1/4"), S(3)), (iv("1/4", "3/4"), S(1)),
                                   (iv("3/4", 1), S(3))])
        assert invariance_check(sy, symmetric)["status"] == "invariant"
        lopsided = LengthMeasure([(iv(0, "1/4"), S(3)), (iv("1/4", 1), S(1))])
        assert invariance_check(sy, lopsided)["status"] == "violation"

    def test_support_mismatch_rejected(self):
        g = golden_system()
        with pytest.raises(PreconditionError):
            invariance_check(g, lebesgue(MultiInterval([iv(0, "1/2")])))


class TestCombine:
    def test_identity_coefficients(self):
        mu = step_measure()
        leb = lebesgue(mu.support)
        assert combine(S(1), mu, S(0), leb) == mu

    def test_half_half_lebesgue(self):
        leb = lebesgue(MultiInterval([iv(0, 1)]))
        assert combine(S("1/2"), leb, S("1/2"), leb) == leb

    def test_refinement_sum(self):
        mu = step_measure()
        other = LengthMeasure([(iv(0, "1/4"), S(1)), (iv("1/4", 1), S(3))])
        out = combine(S(1), mu, S(1), other)
        assert out.density_at(S("1/8")) == S(3)
        assert out.density_at(S("3/8")) == S(5)
        assert out.density_at(S("3/4")) == S(4)
        assert out.total == mu.total + other.total

    def test_negative_coefficient_rejected(self):
        leb = lebesgue(MultiInterval([iv(0, 1)]))
        with pytest.raises(PreconditionError):
            combine(S(-1), leb, S(1), leb)

    def test_support_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            combine(S(1), lebesgue(MultiInterval([iv(0, 1)])),
                    S(1), lebesgue(MultiInterval([iv(0, 2)])))

    @pytest.mark.parametrize("name,sy,_e", balanced_corpus()[:5],
                             ids=[n for n, _, _ in balanced_corpus()[:5]])
    def test_convex_combination_of_invariants_is_invariant(self, name, sy, _e):
        leb = lebesgue(sy.forest)
        doubled = combine(S(2), leb, S(0), leb)
        assert invariance_check(sy, doubled)["status"] == "invariant"
        mix = combine(S("1/3"), leb, S("2/3"), doubled)
        assert invariance_check(sy, mix)["status"] == "invariant"
