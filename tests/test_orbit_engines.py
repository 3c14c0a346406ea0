"""The orbit engines on int states with order keys: soi families and soi
discrete against the Scalar engines they replaced, soi orbit and soi
sub-orbit reports against the Scalar points they printed before, the order
key at near-ties, and metamorphic properties that need no old code."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grouptrees import isometry_systems
from grouptrees.core import Scalar, _integer_view, _sign, parse_word
from grouptrees.corpus import balanced_corpus, golden_system, index_two_cover_graph
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.report import render_json, render_text, wrap
from grouptrees.scenarios import op_soi_orbit, op_soi_sub_orbit
from grouptrees.isometry_systems import (PartialIsometry, SoISystem, _keyer, _texts,
                                         discreteness_report, finite_orbit_families,
                                         orbit, subgroup_constrained_orbit)
from grouptrees.stallings import build_core

from _fixtures import scaled, scaled_system
from _oracles import (point_texts, scalar_discreteness_report, scalar_finite_orbit_families,
                      scalar_orbit_result, singular_points, sorted_frontier_orbit)

S = Scalar.of
LABELS = "abcd"


def iv(lo, hi) -> Interval:
    return Interval(S(lo), S(hi))


def labelled(sy: SoISystem) -> SoISystem:
    return SoISystem(sy.forest, sy.generators, LABELS[:len(sy.generators)])


def whole_group(sy: SoISystem):
    rank = len(sy.generators)
    return build_core([parse_word(l, rank) for l in LABELS[:rank]], rank)


@st.composite
def systems(draw):
    """The rotation of [0, 1] by theta, with theta rational or in Q(sqrt2),
    Q(sqrt3) or Q(sqrt5), sometimes with a reflection x -> lo + hi - x of a
    sub-arc and a point component {2}, which a generator may send into [0, 1];
    all of it sometimes scaled by a factor of the field, so that closed orbits
    have irrational points too."""
    d = draw(st.sampled_from([1, 2, 3, 5]))
    root = S(f"sqrt{d}") if d > 1 else S(1)
    theta = S(draw(st.fractions(0, 1, max_denominator=12)))
    if d > 1 and draw(st.booleans()):
        theta = theta + S(draw(st.sampled_from(["1/3", "-1/5", "1/7"]))) * root
    assume(theta.sign() > 0 and theta < S(1))
    one = S(1)
    gens = [PartialIsometry(Interval(S(0), one - theta), 1, theta),
            PartialIsometry(Interval(S(0), theta), 1, one - theta)]
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=8),
                                      min_size=2, max_size=2)))
        gens.append(PartialIsometry(iv(lo, hi), -1, S(lo + hi)))
    forest = [iv(0, 1)]
    if draw(st.booleans()):
        forest.append(iv(2, 2))
        if draw(st.booleans()):
            to = S(draw(st.fractions(0, 1, max_denominator=10)))
            gens.append(PartialIsometry(iv(2, 2), 1, to - S(2)))
    sy = SoISystem(MultiInterval(forest), gens, LABELS[:len(gens)])
    factor = draw(st.sampled_from([S(1), S("3/2"), root * S("1/2"), S(1) + root * S("1/3"),
                                   S(2) - root * S("1/2")]))
    return sy if factor == S(1) else scaled_system(sy, factor)


def truncation_edges(sy: SoISystem) -> list[int]:
    """0, 1, and n - 1, n, n + 1 for the size n of each closed singular orbit
    and each family's orbit under the budget 200."""
    sizes = {len(pts) for status, pts in (orbit(sy, p, 200) for p in singular_points(sy))
             if status == "closed"}
    sizes.update(f.get("cardinality", 0) for f in
                 scalar_finite_orbit_families(sy, 200)["families"])
    return sorted({0, 1} | {n + e for n in sizes for e in (-1, 0, 1)})


def points(sy: SoISystem, draw) -> Scalar:
    comp = draw(st.sampled_from(sy.forest.components))
    return comp.lo + comp.length * S(draw(st.fractions(0, 1, max_denominator=30)))


@st.composite
def samples(draw, sy: SoISystem):
    """One to three points of the support, rational or in the system's field."""
    d = max(g.offset.d for g in sy.generators)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        x = points(sy, draw)
        if d > 1 and draw(st.booleans()):
            x = x + S(draw(st.sampled_from(["1/9", "-1/11"]))) * S(f"sqrt{d}")
            assume(sy.forest.contains(x))
        out.append(x)
    return out


SUBGROUPS = (("a", "b"), ("a",), ("ab", "ba"), ("aa", "b", "abA"))


def subgroups(sy: SoISystem):
    """One of SUBGROUPS, or the whole group, in the system's rank."""
    rank = len(sy.generators)
    return st.sampled_from(SUBGROUPS).map(
        lambda gens: build_core([parse_word(g, rank) for g in gens], rank)) | st.just(
        whole_group(sy))


def rotation(p: int, q: int) -> SoISystem:
    theta = S(Fraction(p, q))
    return SoISystem(MultiInterval([iv(0, 1)]),
                     [PartialIsometry(Interval(S(0), S(1) - theta), 1, theta),
                      PartialIsometry(Interval(S(0), theta), 1, S(1) - theta)], ["a", "b"])


class TestOrbitReportsMatchScalarPoints:
    """soi orbit and soi sub-orbit print each point straight from its int pair;
    under both renderers their reports are those that printed the str of each
    point's normalised Scalar."""

    @staticmethod
    def check(args: dict) -> None:
        op = op_soi_sub_orbit if "subgroup" in args else op_soi_orbit
        result, _ = op(args)
        old = scalar_orbit_result(args)
        assert result["points"] == tuple(map(str, old["points"]))
        for render in (render_json, render_text):
            assert render(wrap("soi orbit", result)) == render(wrap("soi orbit", old))

    @pytest.mark.parametrize("x", ["0", "1/2", "1/3", "-1/2+1/3*sqrt5", "3/2-3/5*sqrt5"])
    @pytest.mark.parametrize("budget", [0, 1, 7, 200])
    def test_golden_system(self, x, budget):
        sy = golden_system()
        self.check({"system": sy, "point": S(x), "budget": budget})
        for gens in SUBGROUPS:
            graph = build_core([parse_word(g, 2) for g in gens], 2)
            self.check({"system": sy, "subgroup": graph, "point": S(x), "budget": budget})

    @given(st.integers(2, 40), st.data())
    def test_rational_rotations(self, q, data):
        p = data.draw(st.integers(1, q - 1))
        sy = rotation(p, q)
        x = S(data.draw(st.fractions(0, 1, max_denominator=120)))
        budget = data.draw(st.integers(0, q + 2))
        self.check({"system": sy, "point": x, "budget": budget})
        self.check({"system": sy, "subgroup": data.draw(subgroups(sy)), "point": x,
                    "budget": budget})

    @given(systems(), st.data())
    @settings(max_examples=60)
    def test_drawn_systems(self, sy, data):
        x = data.draw(samples(sy))[0]
        budget = data.draw(st.integers(0, 150))
        self.check({"system": sy, "point": x, "budget": budget})
        self.check({"system": sy, "subgroup": data.draw(subgroups(sy)), "point": x,
                    "budget": budget})


class TestReportsMatchScalarEngines:
    @given(systems(), st.data())
    @settings(max_examples=150)
    def test_families_on_rotations(self, sy, data):
        budget = data.draw(st.sampled_from(truncation_edges(sy)))
        assert finite_orbit_families(sy, budget) == scalar_finite_orbit_families(sy, budget)

    @given(systems(), st.data())
    @settings(max_examples=80)
    def test_families_on_rotations_at_any_budget(self, sy, data):
        budget = data.draw(st.integers(0, 80))
        assert finite_orbit_families(sy, budget) == scalar_finite_orbit_families(sy, budget)

    @given(systems(), st.data())
    @settings(max_examples=80)
    def test_discrete_on_rotations(self, sy, data):
        graph = data.draw(subgroups(sy))
        xs = data.draw(samples(sy))
        budget = data.draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 150)))
        assert discreteness_report(sy, graph, xs, budget) == \
            scalar_discreteness_report(sy, graph, xs, budget)

    @pytest.mark.parametrize("name,sy", [(n, sy) for n, sy, _ in balanced_corpus()]
                             + [("golden", golden_system())],
                             ids=[n for n, _, _ in balanced_corpus()] + ["golden"])
    def test_corpus(self, name, sy):
        for budget in (0, 1, 2, 7, 50, 500):
            assert finite_orbit_families(sy, budget) == \
                scalar_finite_orbit_families(sy, budget)
        sy = labelled(sy)
        graph = whole_group(sy)
        comp = sy.forest.components[0]
        xs = [comp.lo, comp.lo + comp.length * S("1/3"), comp.hi]
        for budget in (0, 1, 5, 120):
            assert discreteness_report(sy, graph, xs, budget) == \
                scalar_discreteness_report(sy, graph, xs, budget)

    @pytest.mark.parametrize("gens", SUBGROUPS)
    def test_golden_subgroups(self, gens):
        graph = build_core([parse_word(g, 2) for g in gens], 2)
        xs = [S(0), S("1/2"), S("-1/2+1/2*sqrt5")]
        for budget in (0, 1, 3, 40, 400):
            assert discreteness_report(golden_system(), graph, xs, budget) == \
                scalar_discreteness_report(golden_system(), graph, xs, budget)
        graph = index_two_cover_graph()
        assert discreteness_report(golden_system(), graph, xs, 400) == \
            scalar_discreteness_report(golden_system(), graph, xs, 400)


class TestSamplesOfTwoFields:
    """Samples of two fields on a rational system: a comparison of gaps across
    the fields fails as it did on Scalars, gap by gap in point order, and
    the report is the one the Scalar engine gave whenever that succeeded."""

    SYSTEM = SoISystem(MultiInterval([iv(0, 1)]),
                       [PartialIsometry(iv(0, "6/7"), 1, S("1/7")),
                        PartialIsometry(iv(0, "1/7"), 1, S("6/7")),
                        PartialIsometry(iv(0, "1/2"), -1, S("1/2"))], ["a", "b", "c"])

    @staticmethod
    def outcome(engine, *args):
        try:
            return engine(*args)
        except Exception as exc:  # the outcome is the exception, compared by text
            return f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("gens", [("a", "c"), ("c", "ab"), ("a", "b", "c")])
    @pytest.mark.parametrize("xs", [("1/3*sqrt2", "1/2*sqrt3"), ("1/2*sqrt3", "1/3*sqrt2"),
                                    ("1/5", "1/9*sqrt2", "1/7*sqrt3", "1/7*sqrt5")])
    @pytest.mark.parametrize("budget", [5, 40, 400])
    def test_outcome_matches_scalar_engine(self, gens, xs, budget):
        graph = build_core([parse_word(g, 3) for g in gens], 3)
        args = (self.SYSTEM, graph, [S(x) for x in xs], budget)
        assert self.outcome(discreteness_report, *args) == \
            self.outcome(scalar_discreteness_report, *args)


# -- the order key --------------------------------------------------------------


def pell_tie(bits: int = 70) -> Scalar:
    """e = x - y*sqrt2 > 0 with x + y*sqrt2 = (1 + sqrt2)^n, n even and x about
    2^bits: e = (sqrt2 - 1)^n is below 2^-bits, so its key ties with 0's."""
    x, y, n = 1, 0, 0
    while n % 2 or x.bit_length() < bits:
        x, y, n = x + 2 * y, x + y, n + 1
    return S(x) - S(y) * S("sqrt2")


E = pell_tie()


def keys(values):
    den, d, pairs = _integer_view(values)
    key = _keyer(d)
    return den, d, {p: key(p) for p in pairs}


@pytest.fixture
def between_calls(monkeypatch):
    """Counts the exact domain tests the orbit searches fall back to."""
    calls = []
    real = isometry_systems._between

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(isometry_systems, "_between", counted)
    return calls


class TestOrderKey:
    def test_pell_values_tie_with_their_rational_parts(self):
        assert E.sign() > 0 and E < S(Fraction(1, 2 ** 70))
        den, d, keyed = keys([E, S(0), S("1/3") + E, S("1/3"), -E])
        ks = list(keyed.values())
        assert ks[0] == ks[1] and ks[2] == ks[3] and ks[4] == ks[1] - 1

    @given(st.lists(st.tuples(st.fractions(-1, 1, max_denominator=9),
                              st.integers(-3, 3)), min_size=1, max_size=12),
           st.sampled_from([1, 2]))
    def test_sort_orders_ties_exactly(self, parts, d):
        # r + k*e: every pair with one r shares its key
        e = E if d == 2 else S(Fraction(1, 2 ** 80))
        values = list({S(r) + S(k) * e for r, k in parts})
        den, d, keyed = keys(values)
        assert _texts(keyed, den, d) == tuple(map(str, sorted(values)))

    @given(st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 40, 2 ** 40),
           st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 40, 2 ** 40),
           st.sampled_from([2, 3, 5, 7]))
    def test_keys_are_monotone(self, a, b, c, e, d):
        key = _keyer(d)
        sign = _sign(a - c, b - e, d)
        if key((a, b)) < key((c, e)):
            assert sign < 0
        elif key((a, b)) > key((c, e)):
            assert sign > 0

    def test_domain_test_falls_back_on_a_tie(self, between_calls):
        # x -> x + 1/2 on [0, 1/2]: e is inside and -e is not; e's key ties
        # with 0's, and e + 1/2's with 1/2's
        sy = SoISystem(MultiInterval([iv(-1, 1)]), [PartialIsometry(iv(0, "1/2"), 1, S("1/2"))])
        for x in (E, -E):
            assert orbit(sy, x, 10) == point_texts(sorted_frontier_orbit(sy, x, 10))
        assert orbit(sy, E, 10)[1] == (str(E), str(E + S("1/2")))
        assert orbit(sy, -E, 10)[1] == (str(-E),)
        assert between_calls

    def test_domain_end_at_a_tie(self, between_calls):
        # the domain [e, 1/2]: 0 shares e's key and lies outside
        sy = SoISystem(MultiInterval([iv(-1, 1)]), [PartialIsometry(Interval(E, S("1/2")), 1,
                                                                    S("1/2"))], ["a"])
        assert orbit(sy, S(0), 10) == ("closed", ("0",))
        assert orbit(sy, E + E, 10)[1] == (str(E + E), str(E + E + S("1/2")))
        calls = len(between_calls)
        graph = build_core([parse_word("a", 1)], 1)
        assert subgroup_constrained_orbit(sy, graph, S(0), 10) == ("closed", ("0",))
        assert len(between_calls) > calls

    @pytest.mark.parametrize("budget", [0, 1, 5, 40])
    def test_sort_falls_back_on_ties(self, budget):
        # x -> x + e on [-1/2, 1/2] and x -> x + 1/3 on [0, 1/3]: the first
        # points of the orbit of 0 share one key, and 1/3 + k*e share another
        sy = SoISystem(MultiInterval([iv(-1, 1)]),
                       [PartialIsometry(iv("-1/2", "1/2"), 1, E),
                        PartialIsometry(iv(0, "1/3"), 1, S("1/3"))], ["a", "b"])
        run = orbit(sy, S(0), budget)
        assert run == point_texts(sorted_frontier_orbit(sy, S(0), budget))
        graph = whole_group(sy)
        assert subgroup_constrained_orbit(sy, graph, S(0), budget) == run
        assert discreteness_report(sy, graph, [S(0), E], budget) == \
            scalar_discreteness_report(sy, graph, [S(0), E], budget)


# -- metamorphic properties ------------------------------------------------------


class TestRestart:
    """Restarting a closed orbit from any of its points gives the same orbit."""

    @given(systems(), st.data())
    @settings(max_examples=60)
    def test_orbit(self, sy, data):
        run = orbit(sy, points(sy, data.draw), 150)
        assume(run[0] == "closed")
        for p in run[1]:
            assert orbit(sy, S(p), 150) == run

    @given(systems(), st.data())
    @settings(max_examples=60)
    def test_subgroup_orbit(self, sy, data):
        graph = data.draw(subgroups(sy))
        run = subgroup_constrained_orbit(sy, graph, points(sy, data.draw), 150)
        assume(run[0] == "closed")
        for p in run[1]:
            assert subgroup_constrained_orbit(sy, graph, S(p), 150) == run


class TestRationalRotation:
    """The rotation by p/q has an orbit of q points off (1/q)Z: x + k/q mod 1."""

    @given(st.integers(2, 40), st.data())
    def test_q_points(self, q, data):
        p = data.draw(st.integers(1, q - 1).filter(lambda p: Fraction(p, q).denominator == q))
        theta = S(Fraction(p, q))
        sy = SoISystem(MultiInterval([iv(0, 1)]),
                       [PartialIsometry(Interval(S(0), S(1) - theta), 1, theta),
                        PartialIsometry(Interval(S(0), theta), 1, S(1) - theta)])
        x = data.draw(st.fractions(0, 1, max_denominator=120).filter(
            lambda x: (x * q).denominator != 1))
        status, pts = orbit(sy, S(x), q)
        assert status == "closed"
        assert pts == tuple(map(str, sorted(S((x + Fraction(k, q)) % 1) for k in range(q))))
        assert orbit(sy, S(x), q - 1)[0] == "truncated"


def scaled_families(rep: dict, q: Scalar) -> dict:
    out = dict(rep, families=[dict(f, interval=scaled(f["interval"], q)) for f in
                              rep["families"]], e_lower_bound=rep["e_lower_bound"] * q)
    for fam in out["families"]:
        if "measure" in fam:
            fam["measure"] = fam["measure"] * q
    if rep["e"] is not None:
        out["e"] = rep["e"] * q
    return out


scales = st.fractions(Fraction(1, 7), 5, max_denominator=9).map(S)


class TestScaling:
    """Scaling the system and its points by q > 0 scales e, min_gap and
    gap_threshold by q and keeps every count."""

    @given(systems(), st.integers(0, 80), scales)
    @settings(max_examples=60)
    def test_families(self, sy, budget, q):
        rep = finite_orbit_families(sy, budget)
        assert finite_orbit_families(scaled_system(sy, q), budget) == scaled_families(rep, q)

    @given(systems(), st.data(), scales)
    @settings(max_examples=60)
    def test_discrete(self, sy, data, q):
        graph = whole_group(sy)
        xs = data.draw(samples(sy))
        budget = data.draw(st.integers(0, 150))
        rep = discreteness_report(sy, graph, xs, budget)
        big = discreteness_report(scaled_system(sy, q), graph, [x * q for x in xs], budget)
        assert big == dict(rep, samples=[dict(row, sample=row["sample"] * q)
                                         for row in rep["samples"]],
                           min_gap=None if rep["min_gap"] is None else rep["min_gap"] * q,
                           gap_threshold=rep["gap_threshold"] * q)
