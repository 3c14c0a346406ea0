"""Bundled example systems, graphs, and subgroups.

Everything here is deterministic and exact; the test suite, the scenario
runner, and the documentation all draw from this module so that the same
objects appear everywhere.  The star exhibit is the "golden" system: two
partial translations of the unit interval by alpha = (3 - sqrt5)/2 and
1 - alpha, whose orbit dynamics are those of the golden-ratio rotation —
balanced (m = d, no finite-orbit families) yet with every orbit infinite.
"""

from __future__ import annotations

import random

from .core import Scalar, Word, ordered_letters, parse_word
from .intervals import Interval, MultiInterval
from .isometry_systems import PartialIsometry, SoISystem
from .stallings import (StallingsGraph, build_core, hall_completion,
                        membership, rank_of)
from .marked_graphs import MarkedMetricGraph

_S = Scalar.of

#: alpha = (3 - sqrt 5)/2, the square of the inverse golden ratio.
ALPHA = _S("3/2-1/2*sqrt5")


def _interval(lo, hi) -> Interval:
    return Interval(_S(lo), _S(hi))


def _system(support, maps, labels=None) -> SoISystem:
    gens = [PartialIsometry(_interval(lo, hi), orient, _S(offset))
            for (lo, hi, orient, offset) in maps]
    return SoISystem(MultiInterval([_interval(a, b) for a, b in support]),
                     gens, labels=labels)


# -- headline systems -------------------------------------------------------------


def golden_system(labels=("a", "b")) -> SoISystem:
    """Two translations on [0,1]: by alpha on [0, 1-alpha], by 1-alpha on [0, alpha].

    m = d = 1 exactly, every orbit is infinite (golden rotation), and the
    generators are independent; the balance identity is witnessed only in the
    limit, which is why the system exercises every budgeted code path.
    """
    one = _S(1)
    return SoISystem(
        MultiInterval([_interval(0, 1)]),
        [PartialIsometry(Interval(_S(0), one - ALPHA), 1, ALPHA),
         PartialIsometry(Interval(_S(0), ALPHA), 1, one - ALPHA)],
        labels=labels)


def golden_grow_seed() -> MultiInterval:
    """Two short arcs, one at 0 and one ending at alpha.

    Chosen so the support iteration's residual strictly decreases for the
    first four steps and then sits at 0: residuals 3/20, 7/2-3/2*sqrt5,
    -21/10+sqrt5, -111/20+5/2*sqrt5, 0, 0, ...
    """
    return MultiInterval([
        Interval(_S(0), _S("1/10")),
        Interval(ALPHA - _S("1/20"), ALPHA),
    ])


def worked_single_map() -> SoISystem:
    """One translation by 1/4 on [0, 3/4]: m=1, d=3/4, e=1/4 via one 4-cycle family."""
    return _system([(0, 1)], [(0, "3/4", 1, "1/4")])


def rotation_pair() -> SoISystem:
    """Both halves of the rotation by 1/2: the word ab fixes [1/2, 1] pointwise."""
    return _system([(0, 1)], [(0, "1/2", 1, "1/2"),
                              ("1/2", 1, 1, "-1/2")])


def index_two_cover_graph() -> StallingsGraph:
    """Index-2 completion of <a^2, b> excluding a — basis {a^2, b, aba^-1}."""
    base = build_core([parse_word("aa", 2), parse_word("b", 2)], 2)
    return hall_completion(base, parse_word("a", 2)).cover


# -- the balanced corpus (identity-verified systems) --------------------------------


def balanced_corpus() -> list[tuple[str, SoISystem, Scalar]]:
    """(name, system, expected e) with m - d - e = 0 exact; independence holds at L=8."""
    sqrt2 = _S("sqrt2")
    one = _S(1)
    entries = [
        ("sweep-quarter", worked_single_map(), _S("1/4")),
        ("sweep-two-fifths", _system([(0, 1)], [(0, "3/5", 1, "2/5")]), _S("2/5")),
        ("sweep-third", _system([(0, 1)], [(0, "2/3", 1, "1/3")]), _S("1/3")),
        ("sweep-fifth", _system([(0, 1)], [(0, "4/5", 1, "1/5")]), _S("1/5")),
        ("sweep-half-of-two", _system([(0, 2)], [(0, "3/2", 1, "1/2")]), _S("1/2")),
        ("disjoint-pair",
         _system([(0, 1)], [(0, "1/4", 1, "1/4"), ("1/2", "3/4", 1, "1/4")]),
         _S("1/2")),
        ("reversing-half", _system([(0, 1)], [(0, "1/2", -1, 1)]), _S("1/2")),
        ("reversing-quarter", _system([(0, 1)], [(0, "1/4", -1, 1)]), _S("3/4")),
        ("two-components",
         SoISystem(MultiInterval([_interval(0, 1), _interval(2, 3)]),
                   [PartialIsometry(_interval(0, 1), 1, _S(2))]),
         one),
        ("chain-of-three",
         _system([(0, 1)], [(0, "1/4", 1, "1/4"),
                            ("1/4", "1/2", 1, "1/4"),
                            ("1/2", "3/4", 1, "1/4")]),
         _S("1/4")),
        ("sweep-sqrt2",
         SoISystem(MultiInterval([_interval(0, 1)]),
                   [PartialIsometry(Interval(_S(0), _S(2) - sqrt2), 1, sqrt2 - one)]),
         sqrt2 - one),
        ("scaled-quarter", _system([(0, 4)], [(0, 3, 1, 1)]), one),
    ]
    return entries


def grow_corpus() -> list[tuple[str, SoISystem, MultiInterval]]:
    """(name, system, starting multi-interval) pairs for the support iteration."""
    def mi(*pairs):
        return MultiInterval([_interval(a, b) for a, b in pairs])

    system = {name: sy for name, sy, _ in balanced_corpus()}
    entries = [
        ("golden-strict", golden_system(labels=None), golden_grow_seed()),
        ("golden-sixth", golden_system(labels=None), mi((0, "1/6"))),
        ("sweep-quarter-eighth", system["sweep-quarter"], mi((0, "1/8"))),
        ("sweep-quarter-half", system["sweep-quarter"], mi((0, "1/2"))),
        ("sweep-two-fifths-tenth", system["sweep-two-fifths"], mi((0, "1/10"))),
        ("sweep-half-of-two-quarter", system["sweep-half-of-two"],
         mi((0, "1/4"))),
        ("disjoint-pair-splinter", system["disjoint-pair"], mi(("1/8", "1/4"))),
        ("reversing-half-tenth", system["reversing-half"], mi((0, "1/10"))),
        ("two-components-half", system["two-components"], mi((0, "1/2"))),
        ("chain-of-three-eighth", system["chain-of-three"], mi((0, "1/8"))),
        ("sweep-sqrt2-tenth", system["sweep-sqrt2"], mi((0, "1/10"))),
        ("rotation-pair-sliver", rotation_pair(), mi((0, "1/16"))),
    ]
    return entries


# -- marked metric graphs -----------------------------------------------------------


def rose_graph(*lengths) -> MarkedMetricGraph:
    """A one-vertex rose with the given exact edge lengths, identity marking."""
    rank = len(lengths)
    return MarkedMetricGraph(
        rank=rank, nv=1,
        edges=tuple((0, 0, _S(l)) for l in lengths),
        tree=frozenset(),
        marking={i: Word((i + 1,), rank) for i in range(rank)},
    )


def lopsided_rose() -> MarkedMetricGraph:
    """Rose with lengths 1/10 and 1: the short a-loop dominates small-volume scans."""
    return rose_graph("1/10", 1)


def theta_graph() -> MarkedMetricGraph:
    """Two vertices joined by three edges (lengths 1/2, 1/3, 1/5), volume 31/30."""
    return MarkedMetricGraph(
        rank=2, nv=2,
        edges=((0, 1, _S("1/2")), (0, 1, _S("1/3")), (0, 1, _S("1/5"))),
        tree=frozenset({0}),
        marking={1: parse_word("a", 2), 2: parse_word("b", 2)},
    )


# -- deterministic random sampling ---------------------------------------------------


def random_words(rng: random.Random, rank: int, count: int, max_len: int) -> list[Word]:
    """Nonempty reduced words, deterministically sampled."""
    alphabet = ordered_letters(rank)
    out = []
    while len(out) < count:
        length = rng.randint(1, max_len)
        letters = []
        while len(letters) < length:
            l = rng.choice(alphabet)
            if letters and letters[-1] == -l:
                continue
            letters.append(l)
        out.append(Word.make(tuple(letters), rank))
    return out


def random_hall_instances(seed: int, count: int):
    """Deterministic (graph, excluded_word, rank) triples for the extension
    construction: free-group rank <= 3, subgroup rank <= 3, at most 6
    generators of length <= 6, and the excluded word outside the subgroup."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.randint(1, 3)
        gens = random_words(rng, rank, rng.randint(1, 6), 6)
        graph = build_core(gens, rank)
        if not graph.edges or rank_of(graph) > 3:
            continue
        g = None
        for candidate in random_words(rng, rank, 8, 6):
            if not membership(graph, candidate.letters):
                g = candidate
                break
        if g is None:
            continue
        out.append((graph, g, rank))
    return out
