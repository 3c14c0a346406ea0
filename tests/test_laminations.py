"""Boundary rays, rational leaves, membership, and carrier scans.

Rays and leaves are canonical letter tuples; the object oracle in
`tests/_oracles.py` (`DataclassBoundaryRay`, `DataclassRationalLeaf` and
the functions on them) cross-checks the loaders, `periodic_leaf`,
`carries` and the leaf text.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from grouptrees import documents as docs
from grouptrees.core import Scalar, Word, _letters_text, inverse, parse_word, product
from _fixtures import unit_rose
from grouptrees.corpus import lopsided_rose
from grouptrees.errors import DegenerateSubgroupError, ParseError, PreconditionError
from grouptrees.laminations import (
    _canonical_ray,
    _leaf,
    _leaf_text,
    _primitive_root,
    _ray_text,
    _reads,
    carrier_scan,
    carries,
    periodic_leaf,
)
from grouptrees.marked_graphs import MarkedMetricGraph
from grouptrees.report import render_json, render_text, wrap
from grouptrees.stallings import (_read, basis_of, build_core, conjugate, hall_completion,
                                  index, membership)

from _oracles import (DataclassBoundaryRay, DataclassRationalLeaf, cyclic_reduce,
                      object_boundary_membership, object_carrier_scan, object_carries,
                      object_periodic_leaf, per_hit_carrier_scan, popping_canonical_ray,
                      reads_forever, trace, translate_leaf)

S = Scalar.of


def W(text, rank=2):
    return parse_word(text, rank)


def ray(prefix, period, rank=2):
    """The ray of a ray document, as `lam carries --leaf` loads it."""
    return docs.load_ray({"prefix": prefix, "period": period}, rank)


def ray_of(prefix: Word, period: Word) -> tuple:
    """The canonical ray prefix * period^infinity of a cyclically reduced
    period."""
    return _canonical_ray(prefix.letters, _primitive_root(period.letters))


def ray_head(r: tuple, count: int) -> tuple:
    """The first `count` letters of the infinite word."""
    prefix, period = r
    letters = prefix
    while len(letters) < count:
        letters += period
    return letters[:count]


def moved(w: Word, r: tuple) -> tuple:
    """The ray w * r (left action of the group): w reduces into the prefix."""
    return _canonical_ray(product(w.letters, r[0]), r[1])


def moved_leaf(w: Word, leaf: tuple) -> tuple:
    return _leaf(moved(w, leaf[0]), moved(w, leaf[1]))


def as_tuples(leaf: DataclassRationalLeaf) -> tuple:
    return tuple((r.prefix.letters, r.period.letters) for r in leaf.rays)


letters2 = st.sampled_from([1, -1, 2, -2])


@st.composite
def words(draw, min_size=0, max_size=6):
    raw = draw(st.lists(letters2, min_size=min_size, max_size=max_size))
    return Word.make(tuple(raw), 2)


class TestBoundaryRay:
    def test_empty_period_rejected(self):
        with pytest.raises(ParseError, match="^ray: field 'period' must be a non-empty"):
            ray("a", "")
        with pytest.raises(ParseError, match="^ray: a boundary ray needs a nonempty period$"):
            ray("a", "aA")

    def test_non_cyclically_reduced_period_rejected(self):
        with pytest.raises(ParseError, match="^ray: period abA is not cyclically reduced$"):
            ray("", "abA")

    def test_rotation_absorbed_into_prefix(self):
        assert ray("a", "ba") == ray("", "ab")

    def test_seam_cancellation_rotates_period(self):
        # A * (ab)^inf starts "A a b a b ..." = "b a b a ..." = (ba)^inf
        assert ray("A", "ab") == ray("", "ba")

    def test_period_made_primitive(self):
        assert ray("", "abab")[1] == W("ab").letters

    def test_deep_prefix_cancellation(self):
        # b^-1 a^-1 * a (ba)^inf = b^-1 (ab)^inf... = (ab)^inf shifted twice
        r = ray("BA", "ab")
        assert ray_head(r, 6) == ray_head(ray_of(W("BA"), W("ab")), 6)
        assert r == ray("B", "ba")

    def test_head_expands_infinite_word(self):
        assert ray_head(ray("", "ab"), 5) == W("ababa").letters
        assert ray_head(ray("b", "a"), 3) == W("baa").letters

    def test_distinct_phases_differ(self):
        assert ray("", "ab") != ray("", "ba")

    @given(words(min_size=1, max_size=4))
    def test_head_prefix_consistency(self, v):
        # any (prefix, period) built from a cyclically reduced core satisfies:
        # head(k) is a prefix of head(k+1)
        conj, core = cyclic_reduce(v)
        if not core.letters:
            return
        r = ray_of(conj, core)
        for k in range(1, 8):
            assert ray_head(r, k + 1)[:k] == ray_head(r, k)

    @given(words(max_size=5), words(min_size=1, max_size=4),
           st.integers(1, 3), st.integers(0, 11))
    def test_canonical_form_on_tuples(self, u, v, power, shift):
        """The tuple canonicaliser, the loader and the list-popping loop
        agree, and give one form for every way of writing the ray:
        u * p^infinity is also (u * p[:j]) * (p[j:] + p[:j])^infinity and
        u * (p^k)^infinity."""
        period = cyclic_reduce(v)[1].letters * power
        if not period:
            return
        j = shift % len(period)
        want = popping_canonical_ray(u.letters, period)
        for prefix, rotated in ((u.letters, period),
                                ((u * Word(period[:j], 2)).letters,
                                 period[j:] + period[:j])):
            assert popping_canonical_ray(prefix, rotated) == want
            assert _canonical_ray(prefix, _primitive_root(rotated)) == want
            assert ray(_letters_text(prefix), _letters_text(rotated)) == want


class TestRationalLeaf:
    def test_rays_sorted_and_distinct(self):
        leaf = _leaf(ray("", "b"), ray("", "a"))
        assert [_ray_text(*r) for r in leaf] == ["(a)^∞", "(b)^∞"]
        with pytest.raises(PreconditionError):
            _leaf(ray("", "a"), ray("", "a"))

    def test_periodic_leaf_of_letter(self):
        leaf = periodic_leaf(W("a").letters)
        assert _leaf_text(leaf) == "((a)^∞, (A)^∞)"

    def test_periodic_leaf_normalizes_conjugate(self):
        assert periodic_leaf(W("abA").letters) == moved_leaf(W("a"),
                                                             periodic_leaf(W("b").letters))

    def test_identity_rejected(self):
        with pytest.raises(DegenerateSubgroupError):
            periodic_leaf(())

    def test_powers_share_the_leaf(self):
        assert periodic_leaf(W("ababab").letters) == periodic_leaf(W("ab").letters)

    @given(words(min_size=1, max_size=4), words(max_size=3))
    def test_conjugation_is_translation(self, g, w):
        conj, core = cyclic_reduce(g)
        if not core.letters:
            return
        assert periodic_leaf((w * g * w.inverse()).letters) == \
            moved_leaf(w, periodic_leaf(g.letters)) == \
            as_tuples(translate_leaf(w, object_periodic_leaf(g)))

    @given(words(max_size=3), words(max_size=3), words(min_size=1, max_size=3))
    def test_translation_is_a_left_action(self, w1, w2, v):
        conj, core = cyclic_reduce(v)
        if not core.letters:
            return
        r = ray_of(conj, core)
        assert moved(w1, moved(w2, r)) == moved(w1 * w2, r)

    @given(words(max_size=5), words(min_size=1, max_size=5))
    def test_translated_rays_share_their_prefix(self, w, g):
        # carrier_scan reads one prefix and orders one pair of periods per
        # period: the rays of w*leaf(g) have one canonical prefix and
        # inverse periods
        period = _primitive_root(cyclic_reduce(g)[1].letters)
        if not period:
            return
        u, p = _canonical_ray(w.letters, period)
        assert _canonical_ray(w.letters, inverse(period)) == (u, inverse(p))


def read_ray(graph, tails: dict, ray: tuple) -> bool:
    """Whether one ray reads from the basepoint forever, as `carries` reads
    it: its prefix with `_read`, then its period with `_reads` and `tails`."""
    k, v = _read(graph, graph.base, ray[0])
    return k == len(ray[0]) and _reads(graph, tails, v, ray[1])


def reads(graph, ray: tuple) -> bool:
    """Whether one ray reads from the basepoint forever, with a memo of its own."""
    return read_ray(graph, {}, ray)


def _stuck_tail(graph, letters: tuple) -> int:
    """Letters of `letters` left unread when tracing from the basepoint sticks."""
    v = graph.base
    for i, l in enumerate(letters):
        v = graph.darts_at(v).get(l)
        if v is None:
            return len(letters) - i
    return 0


class TestBoundaryMembership:
    def test_cyclic_subgroup(self):
        Ha = build_core([W("a")], 2)
        assert reads(Ha, ray("", "a"))
        assert reads(Ha, ray("", "A"))
        assert not reads(Ha, ray("b", "a"))
        assert not reads(Ha, ray("", "ab"))

    def test_two_vertex_core_alternates_forever(self):
        H2 = build_core([W("aa"), W("b")], 2)
        assert reads(H2, ray("", "a"))
        # the b-loop lives only at the basepoint: a·b^inf is NOT readable,
        # but it becomes readable in the completed index-2 cover
        assert not reads(H2, ray("a", "b"))
        cover = hall_completion(H2, W("a")).cover
        assert reads(cover, ray("a", "b"))
        assert not reads(H2, ray("", "ab"))
        assert reads(H2, ray("", "aab"))

    def test_whole_group_reads_everything(self):
        F2 = build_core([W("a"), W("b")], 2)
        for r in (ray("", "a"), ray("ab", "ba"), ray("B", "aab")):
            assert reads(F2, r)

    @given(words(max_size=3), words(min_size=1, max_size=3))
    def test_agrees_with_long_head_tracing(self, u, v):
        """Readable-forever iff a 20-period head traces with no stuck tail,
        and iff the object oracle reads the ray."""
        conj, core = cyclic_reduce(v)
        if not core.letters:
            return
        r = ray_of(u * conj, core)
        oracle = DataclassBoundaryRay(u * conj, core)
        for graph in (build_core([W("a")], 2),
                      build_core([W("aa"), W("b")], 2),
                      build_core([W("ab")], 2)):
            head = product(r[0], *[r[1]] * 20)
            assert reads(graph, r) == (_stuck_tail(graph, head) == 0)
            assert reads(graph, r) == object_boundary_membership(graph, oracle)


@st.composite
def memo_cases(draw):
    """(graph, rays): a random core graph, or the finite cover of a Hall
    completion of it, and rays whose periods come from a few short words, so
    that several rays share a period as the rays of a carrier scan do."""
    graph = build_core(draw(st.lists(words(min_size=1, max_size=4),
                                     min_size=1, max_size=3)), 2)
    if draw(st.booleans()):
        graph = hall_completion(graph).cover
    cores = [core for _, core in map(cyclic_reduce, draw(st.lists(
        words(min_size=1, max_size=4), min_size=1, max_size=3))) if core.letters]
    if not cores:
        cores = [W("ab")]
    rays = []
    for _ in range(draw(st.integers(1, 16))):
        period = draw(st.sampled_from(cores))
        if draw(st.booleans()):
            period = period.inverse()
        rays.append(ray_of(draw(words(max_size=4)), period))
    return graph, rays


def tail_walk(graph, ray: tuple) -> tuple[set, bool]:
    """The vertices at which a period read of `ray` starts, and the verdict,
    by the oracle's `trace`."""
    v, seen = trace(graph, graph.base, ray[0]), set()
    while v is not None and v not in seen:
        seen.add(v)
        v = trace(graph, v, ray[1])
    return seen, v is not None


def path_to(graph, v) -> tuple:
    """The letters of a path from the basepoint to v."""
    paths, queue = {graph.base: ()}, [graph.base]
    for u in queue:
        for l, w in graph.darts_at(u).items():
            if w not in paths:
                paths[w] = paths[u] + (l,)
                queue.append(w)
    return paths[v]


class TestTailMemoMatchesOracle:
    """`_reads` with one memo per period, shared across rays as
    `carrier_scan` shares it, against the walk it replaced."""

    @given(memo_cases())
    @settings(max_examples=150)
    def test_shared_memo(self, case):
        graph, rays = case
        tails = {}
        for r in rays:
            assert read_ray(graph, tails.setdefault(r[1], {}), r) == reads_forever(graph, *r)
        # every recorded verdict is that of the tail read from its vertex
        for period, verdicts in tails.items():
            for v, verdict in verdicts.items():
                assert verdict == reads_forever(graph, path_to(graph, v), period)

    @given(memo_cases())
    def test_one_walk_records_only_its_vertices(self, case):
        graph, rays = case
        for r in rays:
            tails = {}
            seen, verdict = tail_walk(graph, r)
            assert read_ray(graph, tails, r) == verdict
            assert set(tails) == seen

    @given(memo_cases())
    def test_a_period_and_its_inverse_agree_at_every_vertex(self, case):
        # a folded graph reads each letter injectively, so p^infinity reads
        # forever from v iff v lies on a p-cycle, iff (p^-1)^infinity does;
        # carrier_scan tests one ray of a translated leaf for that reason
        graph, rays = case
        for _, period in rays:
            for v in range(graph.nv):
                assert (reads_forever(graph, path_to(graph, v), period)
                        == reads_forever(graph, path_to(graph, v), inverse(period)))

    def test_large_cover_one_walk(self):
        # a finite cover reads every ray; one call records one cycle of the
        # period, not every vertex of the cover
        cover = hall_completion(build_core([W("aabAbb")], 2), W("ab")).cover
        tails = {}
        assert _reads(cover, tails, cover.base, (1,))
        assert 1 <= len(tails) < cover.nv
        assert all(tails.values())


class TestCarries:
    def test_swap_invariant_by_construction(self):
        Ha = build_core([W("a")], 2)
        leaf = periodic_leaf(W("a").letters)
        swapped = _leaf(leaf[1], leaf[0])
        assert carries(Ha, leaf) == carries(Ha, swapped) is True

    def test_cyclic_subgroup_carries_only_its_letter(self):
        Ha = build_core([W("a")], 2)
        assert carries(Ha, periodic_leaf(W("a").letters))
        assert not carries(Ha, periodic_leaf(W("b").letters))
        assert not carries(Ha, periodic_leaf(W("ab").letters))

    def test_finite_index_carries_every_rational_leaf(self):
        cover = hall_completion(build_core([W("aa"), W("b")], 2), W("a")).cover
        assert index(cover) == 2
        for g in (W("a"), W("b"), W("ab"), W("aBab")):
            assert carries(cover, periodic_leaf(g.letters))

    def test_conjugate_subgroup_carries_translated_leaf(self):
        Hb = build_core([W("baB")], 2)
        assert not carries(Hb, periodic_leaf(W("a").letters))
        assert carries(Hb, moved_leaf(W("b"), periodic_leaf(W("a").letters)))


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

    @pytest.mark.parametrize("gens", [["a"], ["baB"], ["aa", "b"], ["abAB"]])
    def test_finite_index_covers_at_three_letter_translates(self, gens):
        # a cover reads every ray, so every translate of every short class
        # (4 + 12 + 36 nonempty words) is a hit, and later rays of a period
        # meet vertices the memo holds
        cover = hall_completion(build_core([W(g) for g in gens], 2)).cover
        case = (lopsided_rose(), cover, S("3/2"), 4, 3)
        report = carrier_scan(*case)
        assert report == object_carrier_scan(*case)
        assert len(report["translate_hits"]) == len(report["short_classes"]) * 52


def rendered(report: dict) -> tuple[str, str]:
    """A `lam scan` report as the command prints it, as JSON and as text."""
    envelope = wrap("lam scan", report)
    return render_json(envelope), render_text(envelope)


def _prefix_shorter_than_word(report) -> bool:
    # the leaf of a hit starts with its canonical prefix, not with the word
    return any(not h["leaf"].startswith(f"({h['word']}·") for h in report["translate_hits"])


def _every_translate_hits(report) -> bool:
    short = len(report["short_classes"])
    return len(report["carried"]) == short and len(report["translate_hits"]) == short * 52


# each named case, with what it shows: its report must show it too
SCAN_TABLE_CASES = {
    # w = a, aa, ... roll into the period a (u empty); w = ba rolls to u = b
    "translates-roll-into-the-period": (
        (lopsided_rose(), build_core([W("a"), W("baB")], 2), S("3/2"), 4, 3),
        _prefix_shorter_than_word),
    # a finite cover reads every ray: all 52 nonempty translates are hits
    "hall-cover": (
        (lopsided_rose(), hall_completion(build_core([W("aa"), W("b")], 2), W("a")).cover,
         S("3/2"), 4, 3),
        _every_translate_hits),
    # b * leaf(ab) has period ba, first in leaf order as its inverse AB,
    # whose memo no earlier period made
    "period-walked-by-its-inverse": (
        (lopsided_rose(), build_core([W("ba")], 2), S("3/2"), 4, 1),
        lambda report: {"generator": "ab", "word": "b", "leaf": "((AB)^∞, (ba)^∞)"}
        in report["translate_hits"] and report["carried"] == []),
}


class TestScanTablesMatchPerHitScan:
    """`carrier_scan` reads each translate and spells each period once per
    scan; whole reports, rendered as JSON and as text, against the per-hit
    scan it replaced and the object scan."""

    @given(scan_cases())
    @settings(max_examples=80)
    def test_rendered_reports(self, case):
        got = rendered(carrier_scan(*case))
        assert got == rendered(per_hit_carrier_scan(*case))
        assert got == rendered(object_carrier_scan(*case))

    @pytest.mark.parametrize("name", sorted(SCAN_TABLE_CASES))
    def test_named_cases(self, name):
        case, shows = SCAN_TABLE_CASES[name]
        report = carrier_scan(*case)
        assert shows(report)
        assert rendered(report) == rendered(per_hit_carrier_scan(*case))
        assert rendered(report) == rendered(object_carrier_scan(*case))


# -- the tuple form against the object oracle -------------------------------------


def _outcome(build, *args):
    """(value, None), or (None, (error type, message))."""
    try:
        return build(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _graphs(rank):
    """Subgroup graphs of finite and infinite index, conjugated or not."""
    if rank == 2:
        gens = [["a"], ["aa", "b"], ["baB"], ["ab", "bA"]]
    else:
        gens = [["a"], ["ab", "cA"], ["cc", "ba", "B"], ["bcB"]]
    graphs = [build_core([W(g, rank) for g in row], rank) for row in gens]
    return graphs + [hall_completion(graphs[1]).cover]


GRAPHS = {rank: _graphs(rank) for rank in (2, 3)}


@st.composite
def ray_docs(draw, rank):
    """A ray document in letter notation, now and then with a letter outside
    the rank, a period that reduces away or is not cyclically reduced."""
    text = st.text(st.sampled_from("aAbBcC"[:2 * rank]), max_size=4)
    doc = {"prefix": draw(text), "period": draw(text.filter(bool))}
    if draw(st.sampled_from([False] * 9 + [True])):
        doc[draw(st.sampled_from(["prefix", "period"]))] += "cd"[rank - 2]
    return doc


@st.composite
def leaf_cases(draw):
    """(rank, [ray doc, ray doc]); the second ray is now and then the first
    one again, or the first written with one period more in its prefix."""
    rank = draw(st.sampled_from([2, 3]))
    first = draw(ray_docs(rank))
    second = draw(ray_docs(rank).filter(lambda doc: doc != first))
    kind = draw(st.sampled_from(["drawn"] * 4 + ["same", "unrolled"]))
    if kind == "same":
        second = first
    elif kind == "unrolled":
        second = {"prefix": first["prefix"] + first["period"], "period": first["period"]}
    return rank, [first, second]


@st.composite
def rank_words(draw):
    rank = draw(st.sampled_from([2, 3]))
    raw = draw(st.lists(st.sampled_from([l for a in range(1, rank + 1) for l in (a, -a)]),
                        max_size=8))
    return rank, Word.make(raw, rank)


def object_ray(doc, rank):
    return DataclassBoundaryRay(parse_word(doc["prefix"], rank),
                                parse_word(doc["period"], rank))


def object_leaf(doc, rank):
    """The oracle's leaf of a leaf document, failing as the loaders do: a
    ray's error names the ray, the pair's error names the leaf."""
    rays = []
    for ray_doc in doc["rays"]:
        ray, error = _outcome(object_ray, ray_doc, rank)
        if error is not None:
            raise ParseError(f"ray: {error[1]}")
        rays.append(ray)
    leaf, error = _outcome(DataclassRationalLeaf, tuple(rays))
    if error is not None:
        raise ParseError(f"leaf: {error[1]}")
    return leaf


class TestTupleFormMatchesObjectOracle:
    """`load_ray`, `load_leaf`, `periodic_leaf`, `carries` and `_leaf_text`
    agree with the object oracle on the tuples, the text, the verdict, and
    the error type and message."""

    def check_leaf(self, rank, got, want):
        assert got == as_tuples(want)
        assert _leaf_text(got) == str(want)
        assert [_ray_text(*r) for r in got] == [str(r) for r in want.rays]
        for graph in GRAPHS[rank]:
            assert carries(graph, got) == object_carries(graph, want)

    @given(st.sampled_from([2, 3]).flatmap(lambda rank: st.tuples(st.just(rank),
                                                                   ray_docs(rank))))
    @settings(max_examples=150)
    def test_load_ray(self, case):
        rank, doc = case
        got, got_error = _outcome(docs.load_ray, doc, rank)
        want, want_error = _outcome(object_ray, doc, rank)
        if want_error is not None:
            assert want_error[0] in (ParseError, PreconditionError)
            assert got_error == (ParseError, f"ray: {want_error[1]}")
            return
        assert got_error is None
        assert got == (want.prefix.letters, want.period.letters)
        assert _ray_text(*got) == str(want)
        for graph in GRAPHS[rank]:
            assert reads(graph, got) == object_boundary_membership(graph, want)

    @given(leaf_cases())
    @settings(max_examples=150)
    def test_load_leaf(self, case):
        rank, rays = case
        got, got_error = _outcome(docs.load_leaf, {"rays": rays}, rank)
        want, want_error = _outcome(object_leaf, {"rays": rays}, rank)
        assert got_error == want_error
        if want_error is None:
            self.check_leaf(rank, got, want)

    @given(rank_words())
    @settings(max_examples=150)
    def test_periodic_leaf(self, case):
        rank, g = case
        got, got_error = _outcome(periodic_leaf, g.letters)
        want, want_error = _outcome(object_periodic_leaf, g)
        assert got_error == want_error
        if want_error is None:
            self.check_leaf(rank, got, want)


# -- metamorphic properties ------------------------------------------------------


@st.composite
def leaf_property_cases(draw):
    """(H, w, g): a subgroup of F_1..F_3 from up to three words, a word w and
    a nontrivial word g.  Half the time g is w⁻¹·h·w for a nontrivial
    product h of H's basis, so that H carries the leaf of w·g·w⁻¹."""
    rank = draw(st.integers(1, 3))
    letter = st.integers(1, rank).flatmap(lambda a: st.sampled_from([a, -a]))
    word = st.lists(letter, max_size=6).map(lambda raw: Word.make(raw, rank))
    h, w = build_core(draw(st.lists(word, max_size=3)), rank), draw(word)
    basis = basis_of(h)
    if basis and draw(st.booleans()):
        picks = draw(st.lists(st.tuples(st.sampled_from(basis), st.booleans()),
                              min_size=1, max_size=3))
        member = Word.make(sum(((b.inverse() if inv else b).letters
                                for b, inv in picks), ()), rank)
        g = w.inverse() * member * w
    else:
        g = draw(word)
    assume(g.letters)
    return h, w, g


class TestLeafProperties:
    """Properties of carried leaves that need no old code."""

    @given(leaf_property_cases())
    @settings(max_examples=150)
    @example((build_core([W("a")], 2), W("b"), W("ab")))
    def test_hall_covers_carry_every_leaf(self, case):
        # a cover of finite index has every point of the boundary in its limit set
        h, w, g = case
        covers = [hall_completion(h).cover]
        if not membership(h, w.letters):
            covers.append(hall_completion(h, w).cover)
        for cover in covers:
            assert carries(cover, periodic_leaf(g.letters))

    @given(leaf_property_cases())
    @settings(max_examples=300)
    @example((build_core([W("ab")], 2), W("b"), W("Bab")))
    def test_translated_leaf_is_carried_by_the_conjugate(self, case):
        # H carries w·leaf(g), the leaf of w·g·w⁻¹, iff w⁻¹Hw carries leaf(g)
        h, w, g = case
        assert (carries(h, periodic_leaf((w * g * w.inverse()).letters))
                == carries(conjugate(h, w.inverse()), periodic_leaf(g.letters)))
