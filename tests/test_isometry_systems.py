"""Systems of partial isometries: orbits, families, balance, covers, dynamics."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grouptrees.core import Scalar, ZERO, _integer_view, parse_word
from grouptrees.corpus import (
    ALPHA,
    balanced_corpus,
    golden_grow_seed,
    golden_system,
    grow_corpus,
    index_two_cover_graph,
    rotation_pair,
    worked_single_map,
)
from grouptrees.errors import (
    InvalidSystemError,
    MissingLabelsError,
    MixedFieldError,
    OutOfSupportError,
)
from grouptrees.intervals import Interval, MultiInterval, _interval, _multi
from grouptrees.isometry_systems import (
    PartialIsometry,
    _compile_sets,
    _image_candidates,
    _keyer,
    _texts,
    _verify_chain,
    SoISystem,
    ae_support_check,
    balance_report,
    discreteness_report,
    domain_sum,
    finite_orbit_families,
    grow_forest,
    independence_check,
    indecomposability_search,
    orbit,
    subgroup_constrained_orbit,
    subgroup_saturation,
    total_measure,
)
from grouptrees.stallings import build_core

from _fixtures import dependent_corpus
from _oracles import (layered_image_candidates, layered_independence_check, point_texts,
                      rebuilding_ae_support_check, scalar_independence_check, scalars,
                      single_budget_orbit, singular_points, sorted_frontier_orbit,
                      three_run_discreteness_report)

S = Scalar.of


def iv(lo, hi) -> Interval:
    return Interval(S(lo), S(hi))


def system(support, maps, labels=None) -> SoISystem:
    gens = [PartialIsometry(iv(lo, hi), orient, S(off))
            for (lo, hi, orient, off) in maps]
    return SoISystem(MultiInterval([iv(a, b) for a, b in support]), gens,
                     labels=labels)


def W(text, rank=2):
    return parse_word(text, rank)


class TestPartialIsometry:
    def test_range_is_shifted_domain(self):
        g = PartialIsometry(iv(0, "3/4"), 1, S("1/4"))
        assert g.ran == iv("1/4", 1)

    def test_reversing_range(self):
        g = PartialIsometry(iv(0, "1/4"), -1, S(1))
        assert g.ran == iv("3/4", 1)

    def test_apply_outside_domain_is_none(self):
        g = PartialIsometry(iv(0, "1/2"), 1, S("1/4"))
        assert g.apply(S("3/4")) is None

    def test_bad_orientation(self):
        with pytest.raises(InvalidSystemError):
            PartialIsometry(iv(0, 1), 2, S(0))

    @given(st.fractions(min_value=0, max_value=1).map(
        lambda f: f.limit_denominator(40)),
        st.sampled_from([1, -1]),
        st.fractions(min_value=-2, max_value=2).map(
            lambda f: f.limit_denominator(40)))
    def test_inverse_undoes(self, x, orient, off):
        g = PartialIsometry(iv(0, 1), orient, S(off))
        y = g.apply(S(x))
        assert y is not None
        assert g.inverse().apply(y) == S(x)


class TestSystemValidation:
    def test_domain_must_stay_inside_support(self):
        with pytest.raises(InvalidSystemError):
            system([(0, 1)], [(0, 2, 1, 0)])

    def test_range_must_stay_inside_support(self):
        with pytest.raises(InvalidSystemError):
            system([(0, 1)], [(0, "1/2", 1, 1)])

    def test_needs_generators(self):
        with pytest.raises(InvalidSystemError):
            SoISystem(MultiInterval([iv(0, 1)]), [])

    def test_labels_must_match_generator_count(self):
        with pytest.raises(InvalidSystemError):
            system([(0, 1)], [(0, "1/2", 1, "1/2")], labels=("a", "b"))

    def test_labels_must_be_distinct_letters(self):
        with pytest.raises(InvalidSystemError):
            system([(0, 1)], [(0, "1/2", 1, "1/2"), ("1/2", 1, 1, "-1/2")],
                   labels=("a", "a"))
        with pytest.raises(InvalidSystemError):
            system([(0, 1)], [(0, "1/2", 1, "1/2")], labels=("A",))

    @pytest.mark.parametrize("label", ["A", "ab", "", "1", "{", "\u212a", 1, None, ["a"]])
    def test_label_outside_a_to_z_is_named(self, label):
        with pytest.raises(InvalidSystemError,
                           match=re.escape(f"label {label!r} is not a basis letter")):
            system([(0, 1)], [(0, "1/2", 1, "1/2")], labels=(label,))

    @pytest.mark.parametrize("maps,fields", [
        ([(0, "1/2", 1, "1/10*sqrt2"), (0, "1/2", 1, "1/10*sqrt3")], ("sqrt2", "sqrt3")),
        ([(0, "1/2", 1, "1/10*sqrt3"), (0, "1/2", 1, "1/10*sqrt2")], ("sqrt3", "sqrt2")),
        # a generator's offset is met before its domain, as the engines meet them
        ([(0, "1/10*sqrt3", 1, "1/10*sqrt2")], ("sqrt2", "sqrt3"))])
    def test_values_of_two_fields_are_refused(self, maps, fields):
        # every compiled engine would refuse the system; the constructor does
        message = f"cannot mix {fields[0]} and {fields[1]} values in one computation"
        with pytest.raises(MixedFieldError, match=f"^{re.escape(message)}$"):
            system([(0, 1)], maps)

    def test_labels_name_basis_letters(self):
        sy = system([(0, 1)], [(0, "1/2", 1, "1/2"), ("1/2", 1, 1, "-1/2")],
                    labels=("z", "b"))
        assert sy.label_letters() == (26, 2)

    def test_measures(self):
        g = golden_system()
        assert total_measure(g) == S(1)
        assert domain_sum(g) == S(1)
        assert total_measure(worked_single_map()) == S(1)
        assert domain_sum(worked_single_map()) == S("3/4")


class TestOrbit:
    def test_worked_orbit_of_eighth(self):
        status, pts = orbit(worked_single_map(), S("1/8"), 50)
        assert status == "closed"
        assert [str(p) for p in pts] == ["1/8", "3/8", "5/8", "7/8"]

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            orbit(worked_single_map(), S(2), 10)

    def test_golden_orbit_truncates(self):
        status, pts = orbit(golden_system(), S("1/2"), 200)
        assert status == "truncated"
        assert len(pts) > 200
        assert len(set(pts)) == len(pts)

    def test_closed_orbit_is_generator_invariant(self):
        sy = worked_single_map()
        status, pts = orbit(sy, S("1/8"), 50)
        assert status == "closed"
        seen = set(pts)
        for p in pts:
            for l in sy.signed_letters():
                q = sy.letter_map(l).apply(S(p))
                assert q is None or str(q) in seen

    @given(st.fractions(min_value=0, max_value=1).map(
        lambda f: f.limit_denominator(30)))
    def test_rational_sweep_orbits_close_and_partition(self, x):
        sy = worked_single_map()
        status, pts = orbit(sy, S(x), 200)
        assert status == "closed"
        # orbits partition: the orbit of any member is the same set
        again = orbit(sy, S(pts[0]), 200)[1]
        assert again == pts

    def test_presort_ties_are_ordered_exactly(self):
        # e = (sqrt2 - 1)^52 < 2^-64: e and 0, and 1/3 + e and 1/3, share
        # their presort floors, so only the exact pass puts them in order
        e = S(1)
        for _ in range(52):
            e = e * (S("sqrt2") - 1)
        values = [e, S(0), -e, S("1/3") + e, S("1/3")]
        den, d, pairs = _integer_view(values)
        key = _keyer(d)
        assert key(pairs[0]) == key(pairs[1]) and key(pairs[3]) == key(pairs[4])
        assert _texts({p: key(p) for p in pairs}, den, d) == tuple(map(str, sorted(values)))


class TestSingularPointsAndFamilies:
    def test_worked_singular_points(self):
        assert [str(p) for p in singular_points(worked_single_map())] == \
            ["0", "1/4", "3/4", "1"]

    def test_golden_singular_points(self):
        pts = singular_points(golden_system())
        assert pts == (S(0), ALPHA, S(1) - ALPHA, S(1))

    def test_worked_families(self):
        fam = finite_orbit_families(worked_single_map(), 100)
        assert fam["status"] == "complete" and fam["singular_complete"]
        assert len(fam["families"]) == 1
        only = fam["families"][0]
        assert only["measure"] == S("1/4")
        assert only["cardinality"] == 4
        assert only["interval"] == iv(0, "1/4")
        assert fam["e"] == S("1/4")

    def test_golden_families_truncate_at_singular_stage(self):
        fam = finite_orbit_families(golden_system(), 200)
        assert fam["status"] == "partial"
        assert not fam["singular_complete"]
        assert fam["e"] is None and fam["e_lower_bound"] == S(0)

    def test_two_fifths_has_two_families(self):
        sy = system([(0, 1)], [(0, "3/5", 1, "2/5")])
        fam = finite_orbit_families(sy, 100)
        assert fam["status"] == "complete"
        cards = sorted(f["cardinality"] for f in fam["families"])
        assert cards == [2, 3]
        assert all(f["measure"] == S("1/5") for f in fam["families"])
        assert fam["e"] == S("2/5")


class TestIndependence:
    def test_rotation_pair_violation_at_length_two(self):
        res = independence_check(rotation_pair(), 2)
        assert res["status"] == "violation"
        assert res["word"] == "ab"
        assert res["word_length"] == 2
        assert res["arc"] == iv("1/2", 1)

    def test_golden_ok_to_length_eight(self):
        res = independence_check(golden_system(), 8)
        assert res["status"] == "ok-up-to-budget"

    def test_full_flip_squares_to_identity(self):
        sy = system([(0, 1)], [(0, 1, -1, 1)])
        res = independence_check(sy, 2)
        assert res["status"] == "violation"
        assert res["word"] == "aa"
        assert res["arc"] == iv(0, 1)

    def test_reversing_half_is_independent(self):
        # the flip restricted to [0, 1/2] cannot square on a nondegenerate arc
        res = independence_check(system([(0, 1)], [(0, "1/2", -1, 1)]), 6)
        assert res["status"] == "ok-up-to-budget"

    def test_budget_zero_searches_no_word(self):
        # the identity on [0, 1/2] is the relation a = 1, a word of length 1
        sy = system([(0, 1)], [(0, "1/2", 1, 0)])
        assert independence_check(sy, 0) == {"status": "ok-up-to-budget",
                                             "max_len": 0}
        assert independence_check(sy, 1) == {"status": "violation", "word": "a",
                                             "arc": iv(0, "1/2"), "word_length": 1}


def random_system(data) -> SoISystem:
    """One to three generators on [0, 1], endpoints and offsets in twelfths."""
    maps = []
    for _ in range(data.draw(st.integers(1, 3))):
        lo = data.draw(st.integers(0, 12))
        hi = data.draw(st.integers(lo, 12))
        orient = data.draw(st.sampled_from([1, -1]))
        # the range [lo + t, hi + t] or [t - hi, t - lo] stays in [0, 12]
        t = data.draw(st.integers(-lo, 12 - hi) if orient > 0 else st.integers(hi, 12 + lo))
        maps.append((Fraction(lo, 12), Fraction(hi, 12), orient, Fraction(t, 12)))
    return system([(0, 1)], maps)


def kernel_candidates(sy, seed, max_len):
    """_image_candidates with each image as the seed's type: Interval or
    MultiInterval."""
    den, d, maps, (kernel_seed,) = _compile_sets(sy, (seed,))
    as_seed = ((lambda img: _interval(img[0], den, d)) if isinstance(seed, Interval)
               else (lambda img: _multi(img, den, d)))
    return [(w, as_seed(img))
            for w, img in _image_candidates(maps, kernel_seed, d, max_len)]


class TestOneWordWalk:
    """The independence search and the image candidates against the layer
    loops each of them wrote out before they shared one walk."""

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=150)
    def test_independence_matches_layered_search(self, data, max_len):
        sy = random_system(data)
        assert independence_check(sy, max_len) == layered_independence_check(sy, max_len)

    @given(st.data(), st.integers(0, 5), st.booleans())
    @settings(max_examples=150)
    def test_candidates_match_layered_search(self, data, max_len, multi):
        sy = random_system(data)
        arcs = data.draw(st.lists(st.tuples(st.integers(0, 11), st.integers(1, 12)),
                                  min_size=1, max_size=3 if multi else 1))
        arcs = [iv(Fraction(lo, 12), Fraction(min(lo + w, 12), 12)) for lo, w in arcs]
        seed = MultiInterval(arcs) if multi else arcs[0]
        assert kernel_candidates(sy, seed, max_len) == \
            layered_image_candidates(sy, seed, max_len)


def field_points(d: int) -> list[Scalar]:
    """The values p/12 + q/12*sqrt(d) in [0, 1], with q = 0 over Q."""
    root = Scalar.parse(f"sqrt{d}") if d != 1 else ZERO
    return sorted({v for p in range(13) for q in range(-4, 5)
                   for v in (S(Fraction(p, 12)) + root * Fraction(q, 12),) if S(0) <= v <= S(1)})


FIELD_POINTS = {d: field_points(d) for d in (1, 2, 5)}


@st.composite
def field_systems(draw) -> SoISystem:
    """One to three generators on [0, 1], or on [0, 1] and [2, 3], with ends
    and offsets in Q, Q(sqrt2) or Q(sqrt5); some reverse, and some repeat an
    earlier generator or its inverse, which is a relation."""
    points = FIELD_POINTS[draw(st.sampled_from(sorted(FIELD_POINTS)))]
    shifts = [S(0), S(2)] if draw(st.booleans()) else [S(0)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if gens and draw(st.integers(0, 4)) == 0:
            g = draw(st.sampled_from(gens))
            gens.append(g if draw(st.booleans()) else g.inverse())
            continue
        lo, hi = sorted((draw(st.sampled_from(points)), draw(st.sampled_from(points))))
        # the image's left end, on the same component or the other
        to = draw(st.sampled_from([p for p in points if p + (hi - lo) <= S(1)]))
        shift = draw(st.sampled_from(shifts))
        lo, hi, to = lo + shift, hi + shift, to + draw(st.sampled_from(shifts))
        orient = draw(st.sampled_from([1, -1]))
        gens.append(PartialIsometry(Interval(lo, hi), orient,
                                    to - lo if orient > 0 else to + hi))
    return SoISystem(MultiInterval([Interval(s, s + S(1)) for s in shifts]), gens)


class TestIndependenceOnTheKernel:
    """independence_check composes on the integer kernel; the Scalar
    composition it replaced must give the same status, word and arc."""

    @staticmethod
    def check(sy, max_len):
        new = independence_check(sy, max_len)
        assert new == scalar_independence_check(sy, max_len)
        if "arc" in new:
            assert str(new["arc"]) == str(scalar_independence_check(sy, max_len)["arc"])

    @given(field_systems(), st.integers(0, 5))
    @settings(max_examples=200)
    # b o a meets only at the point 1/4, where it is the identity: no relation
    @example(system([(0, 1)], [(0, "1/4", 1, "1/2"), ("3/4", 1, 1, "-1/2")]), 2)
    # two flips between the components: b o a is the identity on [0, 1/2]
    @example(system([(0, 1), (2, 3)], [(0, "1/2", -1, 3), ("5/2", 3, -1, 3)]), 2)
    def test_matches_scalar_composition(self, sy, max_len):
        self.check(sy, max_len)

    def test_corpus_systems(self):
        systems = ([sy for _, sy, _ in balanced_corpus()] + [sy for _, sy in dependent_corpus()]
                   + [golden_system(), rotation_pair(), worked_single_map(), FLIP_SQRT3])
        for sy in systems:
            self.check(sy, 6)


class TestBalanceReport:
    @pytest.mark.parametrize("name,sy,e", balanced_corpus(),
                             ids=[n for n, _, _ in balanced_corpus()])
    def test_balanced_corpus_identity(self, name, sy, e):
        rep = balance_report(sy, 8, 500)
        assert rep["verdict"] == "identity-verified"
        assert rep["e"] == e
        assert rep["residual"].is_zero()
        assert rep["m"] == rep["d"] + rep["e"]

    @pytest.mark.parametrize("name,sy", dependent_corpus(),
                             ids=[n for n, _ in dependent_corpus()])
    def test_dependent_corpus_certified(self, name, sy):
        rep = balance_report(sy, 4, 200)
        assert rep["verdict"] == "dependent-certified"
        assert (domain_sum(sy) - total_measure(sy)).sign() > 0

    def test_golden_inconclusive_with_zero_excess(self):
        rep = balance_report(golden_system(), 6, 200)
        assert rep["verdict"] == "inconclusive-with-data"
        assert rep["excess"].is_zero()
        assert rep["residual"] is None

    def test_rotation_pair_dependent_by_violation(self):
        rep = balance_report(rotation_pair(), 4, 100)
        assert rep["verdict"] == "dependent-certified"
        assert rep["independence"]["status"] == "violation"


class TestGrowForest:
    def test_frozen_first_stage(self):
        stages = grow_forest(worked_single_map(),
                             MultiInterval([iv(0, "1/8")]), 3)
        assert stages[0]["support"] == MultiInterval([iv(0, "1/8")])
        assert stages[1]["support"] == MultiInterval([iv(0, "1/8"),
                                                      iv("1/4", "3/8")])
        assert stages[0]["residual"] == S("1/8")

    def test_stage_count(self):
        stages = grow_forest(worked_single_map(),
                             MultiInterval([iv(0, "1/8")]), 6)
        assert [st["step"] for st in stages] == list(range(7))

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            grow_forest(worked_single_map(), MultiInterval([iv(0, 2)]), 2)

    @pytest.mark.parametrize("name,sy,seed", grow_corpus(),
                             ids=[n for n, _, _ in grow_corpus()])
    def test_corpus_residuals_non_increasing(self, name, sy, seed):
        stages = grow_forest(sy, seed, 8)
        rs = [st["residual"] for st in stages]
        assert all((b - a).sign() <= 0 for a, b in zip(rs, rs[1:]))

    def test_golden_seed_strictly_decreases_four_steps(self):
        stages = grow_forest(golden_system(), golden_grow_seed(), 8)
        rs = [st["residual"] for st in stages]
        for a, b in zip(rs[:4], rs[1:5]):
            assert (b - a).sign() < 0
        assert rs[4].is_zero() and rs[8].is_zero()
        assert rs[0] == S("3/20")
        assert rs[1] == S("7/2-3/2*sqrt5")
        assert rs[2] == S("-21/10+sqrt5")
        assert rs[3] == S("-111/20+5/2*sqrt5")


class TestAeSupportCover:
    def test_golden_cover_witness(self):
        res = ae_support_check(golden_system(), MultiInterval([iv(0, "1/5")]),
                               iv(0, 1), S("1/100"), 12)
        assert res["status"] == "covered"
        assert res["uncovered_measure"].is_zero()
        assert res["words"][0] == ""  # the seed itself is always used first
        assert len(res["words"]) >= 4

    def test_small_budget_exhausts(self):
        res = ae_support_check(golden_system(), MultiInterval([iv(0, "1/5")]),
                               iv(0, 1), S("1/100"), 1)
        assert res["status"] == "budget-exhausted"
        assert res["uncovered_measure"].sign() > 0

    def test_delta_must_be_positive(self):
        with pytest.raises(InvalidSystemError):
            ae_support_check(golden_system(), MultiInterval([iv(0, "1/5")]),
                             iv(0, 1), S(0), 3)

    def test_target_must_sit_in_support(self):
        with pytest.raises(OutOfSupportError):
            ae_support_check(golden_system(), MultiInterval([iv(0, "1/5")]),
                             iv(0, 2), S("1/10"), 3)

    @given(st.data(), st.integers(0, 5))
    @settings(max_examples=60)
    def test_report_matches_rebuilding_greedy(self, data, max_len):
        # the rotation of [0, 1] by theta, theta rational or in Q(sqrt2)
        q = data.draw(st.fractions(0, 1, max_denominator=12))
        theta = S(q) + S(data.draw(st.sampled_from(["0", "1/3*sqrt2", "-1/5*sqrt2"])))
        assume(theta.sign() > 0 and theta < S(1))
        sy = system([(0, 1)], [(0, S(1) - theta, 1, theta), (0, theta, 1, S(1) - theta)])
        # short seed arcs, so that covering takes several images
        seed = data.draw(st.lists(st.tuples(
            st.fractions(0, Fraction(7, 8), max_denominator=20),
            st.fractions(0, Fraction(1, 8), max_denominator=40)), min_size=1, max_size=3))
        lo = data.draw(st.fractions(0, Fraction(1, 2), max_denominator=20))
        hi = lo + data.draw(st.fractions(Fraction(1, 4), Fraction(1, 2), max_denominator=20))
        delta = S(data.draw(st.fractions(0, Fraction(1, 20), max_denominator=400).filter(bool)))
        args = (sy, MultiInterval([iv(c, c + w) for c, w in seed]), iv(lo, hi), delta, max_len)
        assert ae_support_check(*args) == rebuilding_ae_support_check(*args)


class TestIndecomposabilityChains:
    def test_golden_chain_found_and_verified(self):
        res = indecomposability_search(golden_system(), iv(0, "1/10"),
                                       iv("1/2", "3/5"), 8, 10)
        assert res["status"] == "chain-found"
        assert res["r"] <= 8
        ivs = [link["interval"] for link in res["chain"]]
        covered = MultiInterval(ivs)
        assert covered.contains_interval(iv("1/2", "3/5"))
        for a, b in zip(ivs, ivs[1:]):
            overlap = a.intersect(b)
            assert overlap is not None and not overlap.is_point

    def test_trivial_chain_when_piece_contains_target(self):
        res = indecomposability_search(worked_single_map(), iv(0, "1/2"),
                                       iv("1/8", "1/4"), 4, 4)
        assert res["status"] == "chain-found"
        assert res["r"] == 1
        assert res["chain"][0]["word"] == ""

    def test_two_component_obstruction_exhausts(self):
        # no word ever moves mass across the gap between the two components
        sy = SoISystem(MultiInterval([iv(0, 1), iv(2, 3)]),
                       [PartialIsometry(iv(0, "1/2"), 1, S("1/4"))])
        res = indecomposability_search(sy, iv(0, "1/4"), iv(2, "5/2"), 6, 6)
        assert res["status"] == "exhausted"

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InvalidSystemError):
            indecomposability_search(golden_system(), iv(0, 0),
                                     iv("1/2", "3/5"), 4, 4)

    def test_chain_word_that_empties_the_piece_fails_verification(self):
        with pytest.raises(RuntimeError, match="exact re-verification"):
            _verify_chain(golden_system(), iv(0, "1/10"), iv(0, "1/10"),
                          [((1, 1, 1, 1, 1, 1), iv(0, "1/10"))])


class TestSubgroupConstrainedDynamics:
    def test_needs_labels(self):
        sy = worked_single_map()  # built without labels
        with pytest.raises(MissingLabelsError):
            subgroup_constrained_orbit(sy, build_core([W("a")], 2), S(0), 50)

    def test_missing_labels_reported_before_the_support(self):
        sy = worked_single_map()  # built without labels; 2 is outside [0, 1]
        with pytest.raises(MissingLabelsError):
            subgroup_constrained_orbit(sy, build_core([W("a")], 2), S(2), 50)

    def test_golden_cyclic_a_orbit_frozen(self):
        graph = build_core([W("a")], 2)
        status, pts = subgroup_constrained_orbit(golden_system(), graph,
                                                 S(0), 100)
        assert status == "closed"
        assert pts == tuple(map(str, (S(0), ALPHA, ALPHA + ALPHA)))

    def test_full_group_orbit_truncates(self):
        graph = build_core([W("a"), W("b")], 2)
        status, pts = subgroup_constrained_orbit(golden_system(), graph,
                                                 S(0), 200)
        assert status == "truncated"

    def test_constrained_points_are_orbit_points(self):
        graph = build_core([W("a")], 2)
        _, pts = subgroup_constrained_orbit(golden_system(), graph, S(0), 100)
        _, full = orbit(golden_system(), S(0), 400)
        assert set(pts) <= set(full)

    def test_saturation_of_small_piece_under_cyclic_a(self):
        graph = build_core([W("a")], 2)
        res = subgroup_saturation(golden_system(), graph, iv(0, "1/10"), 6, 10)
        assert res["saturated"]
        assert res["support"] == MultiInterval([iv(0, "1/10")])
        assert res["translates_added"] == []

    def test_saturation_grows_when_translates_meet(self):
        graph = build_core([W("a")], 2)
        res = subgroup_saturation(golden_system(), graph, iv(0, "1/2"), 6, 10)
        assert res["support"].measure.sign() > 0
        assert (res["support"].measure - S("1/2")).sign() > 0
        assert res["translates_added"]


class TestOneSearchManyBudgets:
    """One search with snapshots against one search per budget."""

    SUBGROUPS = (("a", "b"), ("a",), ("aa", "b", "abA"), ("ab", "ba"))
    SAMPLES = ("0", "1/2", "1/3", "3/4", "-1/2+1/3*sqrt5", "3/2-3/5*sqrt5")
    BUDGETS = (-3, 0, 1, 2, 3, 5, 9, 40, 77, 120, 400)

    def test_report_matches_three_runs(self):
        system = golden_system()
        for gens in self.SUBGROUPS:
            graph = build_core([W(g) for g in gens], 2)
            for budget in self.BUDGETS:
                samples = [S(x) for x in self.SAMPLES]
                assert discreteness_report(system, graph, samples, budget) \
                    == three_run_discreteness_report(system, graph, samples,
                                                     budget), (gens, budget)

    def test_snapshots_match_single_budget_runs(self):
        system = golden_system()
        for gens in self.SUBGROUPS:
            graph = build_core([W(g) for g in gens], 2)
            for x in self.SAMPLES:
                (den, d, _), runs = subgroup_constrained_orbit(system, graph, S(x), 120,
                                                               self.BUDGETS)
                assert sorted(runs) == sorted(set(self.BUDGETS) | {120})
                texts = {b: point_texts((status, scalars(keyed, den, d)))
                         for b, (status, keyed) in runs.items()}
                for b, run in texts.items():
                    assert run == point_texts(single_budget_orbit(system, graph, S(x), b))
                assert subgroup_constrained_orbit(system, graph, S(x), 120) \
                    == texts[120]
                # no snapshots but the budget itself: the same int answer
                assert subgroup_constrained_orbit(system, graph, S(x), 120, ())[1] \
                    == {120: runs[120]}


# Flips, irrational offsets and endpoints, and two components, with
# denominators (2, 4, 5, 7) other than a drawn point's, so every compiled
# value is rescaled to a common denominator.  The last two maps rotate
# [0, 1] by sqrt3/4, so most orbits are infinite.
FLIP_SQRT3 = system([(0, 1), (2, 3)],
                    [(0, "1/7", -1, "1/2*sqrt3"),
                     ("1/5", "3/5", 1, "3/2+1/4*sqrt3"),
                     (2, "2+1/4*sqrt3", -1, "9/2"),
                     (0, "1-1/4*sqrt3", 1, "1/4*sqrt3"),
                     (0, "1/4*sqrt3", 1, "1-1/4*sqrt3")])
SWEEP_SQRT2 = next(sy for name, sy, _ in balanced_corpus()
                   if name == "sweep-sqrt2")

ORBIT_SYSTEMS = ([golden_system(), rotation_pair(), worked_single_map(),
                  FLIP_SQRT3] + [sy for _, sy, _ in balanced_corpus()])
#: (system, field tag) for each system whose values leave Q.
IRRATIONAL_SYSTEMS = [(golden_system(), 5), (FLIP_SQRT3, 3), (SWEEP_SQRT2, 2)]
RATIONAL_SYSTEMS = [sy for sy in ORBIT_SYSTEMS
                    if all(g.offset.d == 1 for g in sy.generators)]


class TestOneSearchTwoFaces:
    """The plain orbit against its layer-sorted oracle and against the
    subgroup-constrained orbit for H = F_n, whose core graph is a rose."""

    @staticmethod
    def check(sy, x, budget):
        run = orbit(sy, x, budget)
        assert run == point_texts(sorted_frontier_orbit(sy, x, budget))
        rank = len(sy.generators)
        labels = [chr(ord("a") + i) for i in range(rank)]
        labelled = sy if sy.labels else SoISystem(sy.forest, sy.generators, labels)
        whole = build_core([W(lab, rank) for lab in labelled.labels], rank)
        assert subgroup_constrained_orbit(labelled, whole, x, budget) == run
        return run

    @given(st.sampled_from(ORBIT_SYSTEMS), st.data(), st.integers(0, 300))
    def test_orbit_matches_oracle_and_whole_group_orbit(self, sy, data, budget):
        comp = data.draw(st.sampled_from(sy.forest.components))
        t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=60))
        self.check(sy, comp.lo + S(t) * comp.length, budget)

    @staticmethod
    def irrational_point(data, sy, d):
        """p + q*sqrt(d) with q != 0, moved into a component by whole lengths."""
        comp = data.draw(st.sampled_from(sy.forest.components))
        assume(not comp.is_point)
        q = data.draw(st.fractions(-2, 2, max_denominator=60).filter(bool))
        t = S(q) * S(f"sqrt{d}") + S(data.draw(
            st.fractions(0, 1, max_denominator=60))) * comp.length
        while t > comp.length:
            t = t - comp.length
        while t.sign() < 0:
            t = t + comp.length
        x = comp.lo + t
        assume(x.d == d)
        return x

    @given(st.sampled_from(IRRATIONAL_SYSTEMS), st.data(), st.integers(0, 300))
    def test_irrational_points_on_irrational_systems(self, case, data, budget):
        sy, d = case
        self.check(sy, self.irrational_point(data, sy, d), budget)

    @given(st.sampled_from(RATIONAL_SYSTEMS), st.data(), st.integers(0, 300))
    def test_sqrt2_points_on_rational_systems(self, sy, data, budget):
        # the field comes from the point alone
        self.check(sy, self.irrational_point(data, sy, 2), budget)

    def test_infinite_orbits_truncate_at_whole_layers(self):
        # most drawn orbits close; rational points have infinite golden orbits
        for x in ("1/2", "1/3"):
            for budget in range(0, 301, 11):
                assert self.check(golden_system(), S(x), budget)[0] == "truncated"


class TestForeignFieldPoints:
    """A point from another field than the system's fails with one message,
    which names the system's field first."""

    @staticmethod
    def raises(message):
        return pytest.raises(MixedFieldError, match=f"^{re.escape(message)}$")

    @pytest.mark.parametrize("point,other", [("1/7*sqrt3", 3), ("1/9*sqrt2", 2)])
    def test_golden_system(self, point, other):
        message = f"cannot mix sqrt5 and sqrt{other} values in one computation"
        whole = build_core([W("a"), W("b")], 2)
        with self.raises(message):
            orbit(golden_system(), S(point), 50)
        with self.raises(message):
            subgroup_constrained_orbit(golden_system(), whole, S(point), 50)

    def test_sweep_sqrt2(self):
        labelled = SoISystem(SWEEP_SQRT2.forest, SWEEP_SQRT2.generators, ["a"])
        message = "cannot mix sqrt2 and sqrt3 values in one computation"
        with self.raises(message):
            orbit(SWEEP_SQRT2, S("1/7*sqrt3"), 50)
        with self.raises(message):
            subgroup_constrained_orbit(labelled, build_core([W("a", 1)], 1),
                                       S("1/7*sqrt3"), 50)


class TestDiscretenessReport:
    def test_whole_group_suggests_dense(self):
        rep = discreteness_report(golden_system(),
                                  build_core([W("a"), W("b")], 2),
                                  [S(0)], 400)
        assert rep["verdict"] == "suggests-dense"
        assert rep["heuristic"] is True

    def test_cyclic_a_suggests_discrete_with_exact_gap(self):
        rep = discreteness_report(golden_system(), build_core([W("a")], 2),
                                  [S(0)], 400)
        assert rep["verdict"] == "suggests-discrete"
        assert rep["min_gap"] == ALPHA

    def test_index_two_suggests_dense(self):
        rep = discreteness_report(golden_system(), index_two_cover_graph(),
                                  [S(0)], 400)
        assert rep["verdict"] == "suggests-dense"

    def test_growth_table_budgets(self):
        rep = discreteness_report(golden_system(), build_core([W("a")], 2),
                                  [S(0)], 400)
        assert [g["budget"] for g in rep["growth"]] == [100, 200, 400]
